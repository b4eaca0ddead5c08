"""The benchmark's declaration: workloads, metrics, bounds, and which
end-to-end metric each per-layer metric is expected to move.

``BENCHMARK.json`` at the repo root must equal :func:`manifest` (checked by
``perflab/test_contract.py``); ``run.py --list`` prints this module.
Nothing here imports ``repro`` or numpy.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List

DEFAULT_SEED = 1
RUN_SECONDS = 22
COMMAND = ["python3", "perflab/run.py"]
PATHS = ["perflab"]

#: workload -> why it is in the benchmark (one line each)
WORKLOADS: Dict[str, str] = {
    "compile_zoo": (
        "ramiel_compile on all 8 full-size zoo models x {default, clone=True}: "
        "the compiler does all the work, the runtime none (paper Table VIII)"),
    "exec_b1": (
        "warm batch-1 Session.run on 5 models under plan/pool/process: the "
        "paper's setting; plan bypasses clustering, channels and workers"),
    "serve_closed": (
        "in-process InferenceEngine with QoS, closed loop of 8 outstanding "
        "submits; squeezenet fuses into batches, bert is served unfused"),
    "gateway_image": (
        "same engine and model as serve_closed image behind the HTTP gateway: "
        "closed-loop capacity phase, then open-loop Poisson at a fixed load of a third of capacity"),
}


@dataclasses.dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    #: workload -> what the metric means there
    meaning: Dict[str, str]


END_TO_END: List[EndToEnd] = [
    EndToEnd("latency_cu", "cu", "lower", 0.25, {
        "compile_zoo": "geomean over 8 models of median ramiel_compile time, PipelineConfig()",
        "exec_b1": "geomean over 5 models of median Session.run latency under plan, the default executor (serial: bypasses clustering, channels, workers)",
        "serve_closed": "image phase (squeezenet, fused batches): median submit->result latency at window 8",
        "gateway_image": "open-loop phase: median latency from due time at a fixed offered load of 10 requests per 1000 cu (a third of capacity)",
    }),
    EndToEnd("alt_latency_cu", "cu", "lower", 0.25, {
        "compile_zoo": "geomean over 8 models of median ramiel_compile time, clone=True",
        "exec_b1": "geomean over the 9 (model, pool|process) rows of median Session.run latency: the generated parallel code, the paper's path",
        "serve_closed": "text phase (bert, served unfused): median submit->result latency at window 8",
        "gateway_image": "closed-loop phase: median send->reply latency with nproc connections (= nproc / capacity)",
    }),
    EndToEnd("setup_s", "s", "lower", 0.25, {
        name: "imports + median over the run's set-ups (model build, compile, session/engine/server start, warm-up), in seconds of a machine whose calibration step takes 0.5 ms"
        for name in WORKLOADS
    }),
]


@dataclasses.dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: the workload whose traced run measures it (0 elsewhere: the layer is bypassed)
    workload: str
    #: the end-to-end metric (on ``moves_on``) a change to this layer should move
    moves: str
    moves_on: str = ""
    note: str = ""

    @property
    def target_workload(self) -> str:
        return self.moves_on or self.workload


def _layers() -> List[PerLayer]:
    cz, ex, sv, gw = "compile_zoo", "exec_b1", "serve_closed", "gateway_image"
    L = PerLayer
    return [
        # -- compiler: stage times are arithmetic means over the 16 rows, so
        #    they add up to pipeline.compile_mean_cu
        L("pipeline.compile_mean_cu", "cu", "lower", cz, "latency_cu", note="mean ramiel_compile time over the 16 rows"),
        L("pipeline.compile_largest_cu", "cu", "lower", cz, "latency_cu", note="nasnet, PipelineConfig(): the slow case a geomean hides"),
        L("passes.prune_cu", "cu", "lower", cz, "latency_cu", note="optimize_model"),
        L("clustering.clone_cu", "cu", "lower", cz, "alt_latency_cu", note="clone_cheap_producers (clone rows only)"),
        L("graph.dataflow_cu", "cu", "lower", cz, "latency_cu", note="model_to_dataflow + potential_parallelism"),
        L("clustering.lc_cu", "cu", "lower", cz, "latency_cu", note="linear_clustering"),
        L("clustering.merge_cu", "cu", "lower", cz, "latency_cu", note="merge_clusters_fixpoint"),
        L("clustering.simulate_cu", "cu", "lower", cz, "latency_cu", note="ScheduleSimulator.simulate"),
        L("runtime.plan.build_cu", "cu", "lower", cz, "latency_cu", note="ExecutionPlan(model)"),
        L("codegen.sequential_cu", "cu", "lower", cz, "latency_cu", note="generate_sequential_module"),
        L("codegen.parallel_cu", "cu", "lower", cz, "latency_cu", note="generate_parallel_module"),
        L("passes.nodes_removed", "count", "higher", cz, "latency_cu", note="IR shrink: every later stage gets cheaper"),
        L("clustering.nodes_cloned", "count", "lower", cz, "alt_latency_cu", note="graph growth before LC"),
        L("clustering.clusters_lc", "count", "lower", cz, "latency_cu"),
        L("clustering.clusters_merged", "count", "lower", cz, "latency_cu", ex, "workers per inference"),
        L("codegen.sequential_bytes", "bytes", "lower", cz, "latency_cu", note="must repeat exactly"),
        L("codegen.parallel_bytes", "bytes", "lower", cz, "latency_cu", note="must repeat exactly"),
        L("clustering.cross_edges", "count", "lower", cz, "latency_cu", ex, "tensors crossing clusters = messages per inference"),
        L("clustering.predicted_speedup", "x", "higher", cz, "latency_cu", ex, "geomean of the simulated speedup"),
        # -- batch-1 execution
        L("runtime.pool.latency_cu", "cu", "lower", ex, "alt_latency_cu", note="geomean over 5 models"),
        L("runtime.process.latency_cu", "cu", "lower", ex, "alt_latency_cu", note="geomean over 4 models (no nasnet)"),
        L("runtime.pool.speedup_vs_plan", "x", "higher", ex, "alt_latency_cu", note="paired per round; a faster plan lowers it"),
        L("runtime.process.speedup_vs_plan", "x", "higher", ex, "alt_latency_cu"),
        L("runtime.pool.dispatch_cu", "cu", "lower", ex, "alt_latency_cu", note="stats()['pool'] dispatch_ns_total per run"),
        L("runtime.pool.collect_wait_cu", "cu", "lower", ex, "alt_latency_cu"),
        L("runtime.pool.execute_cu", "cu", "lower", ex, "alt_latency_cu", note="summed over workers; includes time blocked in channel get"),
        L("runtime.pool.critical_share", "x", "lower", ex, "alt_latency_cu", note="latency / summed execute"),
        L("runtime.process.channel_bytes", "bytes", "lower", ex, "alt_latency_cu", note="pickled bytes put per inference"),
        L("runtime.process.channel_put_cu", "cu", "lower", ex, "alt_latency_cu"),
        L("runtime.process.channel_get_cu", "cu", "lower", ex, "alt_latency_cu", note="includes blocking wait"),
        L("clustering.schedule_error", "ln", "lower", ex, "alt_latency_cu", note="mean |ln(predicted / measured pool speedup)|"),
        L("codegen.sequential_run_cu", "cu", "lower", ex, "alt_latency_cu", note="generated serial module: the paper's baseline"),
        L("runtime.plan.p95_cu", "cu", "lower", ex, "latency_cu", note="p95 over plan rows, pooled after per-row normalisation"),
        L("runtime.plan.steps", "count", "lower", ex, "latency_cu"),
        L("runtime.plan.fused_nodes", "count", "higher", ex, "latency_cu"),
        L("runtime.plan.arena_allocs_warm", "count", "lower", ex, "latency_cu", note="must be 0"),
        L("runtime.ops.conv_cu", "cu", "lower", ex, "latency_cu", note="profile_plan_steps, mean over models"),
        L("runtime.ops.gemm_cu", "cu", "lower", ex, "latency_cu"),
        L("runtime.ops.pool_cu", "cu", "lower", ex, "latency_cu"),
        L("runtime.ops.elementwise_cu", "cu", "lower", ex, "latency_cu", note="every other op class"),
        L("runtime.session.binding_saving_cu", "cu", "higher", ex, "latency_cu", note="run - run_with_binding"),
        # -- serving core
        L("serving.engine.image_tput_per_kcu", "1/kcu", "higher", sv, "latency_cu", note="8 / mean latency (Little)"),
        L("serving.engine.text_tput_per_kcu", "1/kcu", "higher", sv, "alt_latency_cu"),
        L("serving.engine.image_p95_cu", "cu", "lower", sv, "latency_cu", note="pooled over rounds; n is printed"),
        L("serving.engine.text_p95_cu", "cu", "lower", sv, "alt_latency_cu"),
        L("serving.engine.submit_cu", "cu", "lower", sv, "latency_cu", note="caller-side cost of submit() returning"),
        L("serving.engine.overhead_cu", "cu", "lower", sv, "latency_cu", note="window-1 submit->result p50 - run_with_binding p50"),
        L("serving.batching.mean_batch_image", "count", "higher", sv, "latency_cu"),
        L("serving.batching.mean_batch_text", "count", "higher", sv, "alt_latency_cu", note="1 today"),
        L("serving.qos.queue_wait_cu", "cu", "lower", sv, "latency_cu", note="qos_queue_wait_seconds mean"),
        L("serving.cache.hits", "count", "higher", sv, "latency_cu"),
        L("serving.cache.misses", "count", "lower", sv, "setup_s", note="must stay 1 per model"),
        # -- gateway
        L("gateway.server.capacity_per_kcu", "1/kcu", "higher", gw, "alt_latency_cu"),
        L("gateway.server.open_p95_cu", "cu", "lower", gw, "latency_cu", note="open loop, from due time, pooled over rounds"),
        L("gateway.server.overhead_cu", "cu", "lower", gw, "latency_cu", note="1-connection HTTP p50 - in-process submit->result p50"),
        L("gateway.server.non200", "count", "lower", gw, "latency_cu"),
        L("gateway.codec.decode_request_cu", "cu", "lower", gw, "latency_cu"),
        L("gateway.codec.encode_outputs_cu", "cu", "lower", gw, "latency_cu"),
        L("gateway.codec.request_bytes", "bytes", "lower", gw, "latency_cu"),
        L("gateway.codec.response_bytes", "bytes", "lower", gw, "latency_cu"),
        L("gateway.http.read_request_cu", "cu", "lower", gw, "latency_cu", note="on an in-memory StreamReader"),
        L("gateway.http.render_response_cu", "cu", "lower", gw, "latency_cu"),
        L("gateway.client.late_p95_ms", "ms", "lower", gw, "latency_cu", note="open-loop generator lateness (send - due)"),
    ]


PER_LAYER: List[PerLayer] = _layers()
#: measured by every workload's traced run
EVERY_WORKLOAD = [
    PerLayer("observability.trace_overhead", "x", "lower", "*", "latency_cu",
             note="headline with spans and the repo Tracer on / off"),
    PerLayer("perflab.cu_ms", "ms", "lower", "*", "setup_s",
             note="median calibration step: how fast this machine is"),
]


def manifest() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER + EVERY_WORKLOAD],
    }


def listing() -> str:
    """What ``run.py --list`` prints."""
    lines = ["workloads:"]
    lines += [f"  {n}: {w}" for n, w in WORKLOADS.items()]
    lines.append("end_to_end:")
    for m in END_TO_END:
        lines.append(f"  {m.name} [{m.unit}] better={m.better} bound={m.bound}")
        lines += [f"      {wl}: {text}" for wl, text in m.meaning.items()]
    lines.append("per_layer (measured on -> should move):")
    for m in PER_LAYER + EVERY_WORKLOAD:
        note = f"  # {m.note}" if m.note else ""
        lines.append(f"  {m.name} [{m.unit}] better={m.better} "
                     f"{m.workload} -> {m.moves}@{m.target_workload}{note}")
    return "\n".join(lines)
