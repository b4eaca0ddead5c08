"""Workload ``compile_zoo``: the compiler on the whole zoo, nothing else.

Rows are (model, config) for all 8 full-size zoo models under
``PipelineConfig()`` and ``clone=True`` (cloning grows the graph before
linear clustering, so clustering sees a different input).  Untraced rounds
time ``ramiel_compile`` as a user calls it.  Traced rounds replay the same
pipeline stage by stage through the public stage functions, under spans;
the replay must produce byte-identical source, which keeps it honest.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List

from repro.clustering import clone_cheap_producers, linear_clustering, merge_clusters_fixpoint
from repro.clustering.schedule import ScheduleSimulator, SimulationConfig
from repro.clustering.validation import validate_clustering
from repro.codegen import generate_parallel_module, generate_sequential_module
from repro.graph.dataflow import model_to_dataflow
from repro.graph.parallelism import potential_parallelism
from repro.models import build_model, list_models
from repro.passes import optimize_model
from repro.pipeline import PipelineConfig, ramiel_compile
from repro.runtime.plan import ExecutionPlan
from repro.runtime.session import create_session
from repro.serving import example_inputs

from perflab.harness import Bracket, Budget, Workload, geomean

CONFIGS = {"default": {}, "clone": {"clone": True}}
LARGEST = "nasnet"
#: stage name (= per-layer metric stem) in pipeline order
STAGES = ["passes.prune", "clustering.clone", "graph.dataflow", "clustering.lc",
          "clustering.merge", "clustering.simulate", "runtime.plan.build",
          "codegen.sequential", "codegen.parallel"]
#: compile work between two calibrations
BRACKET_SECONDS = 0.4
CAL_SECONDS = 0.08


def _sources(sequential, parallel) -> tuple:
    return sequential.source, parallel.source


class CompileZoo(Workload):
    name = "compile_zoo"

    def setup(self) -> None:
        self.models = {name: build_model(name) for name in list_models()}
        # One warm-up compile per model: first-call costs (lazy imports,
        # caches) are set-up, and its source is the determinism reference.
        self.first_source: Dict[str, tuple] = {}
        for name, model in self.models.items():
            result = ramiel_compile(model)
            self.first_source[f"{name}/default"] = _sources(
                result.sequential_module, result.parallel_module)

    def reference(self) -> None:
        self.feeds = {name: example_inputs(model, seed=self.seed)
                      for name, model in self.models.items()}
        self.rows = [(name, cfg) for name in self.models for cfg in CONFIGS]
        self.last: Dict[str, object] = {}
        self.sizes: Dict[str, Dict[str, float]] = {}
        # The 8 built models are set-up, not compile work: keep the cyclic
        # collector from re-walking them inside every timed compile.
        gc.collect()
        gc.freeze()

    def teardown(self) -> None:
        gc.unfreeze()

    # ------------------------------------------------------------------
    def measure(self, seconds: float) -> None:
        for round_index, traced in Budget(seconds, self.trace).rounds():
            self.spans.enabled = traced
            table = self.table(traced)
            bracket = Bracket(self.cal, table, CAL_SECONDS)
            pending = 0.0
            for name, cfg in self.rows:
                row = f"{name}/{cfg}"
                pending += self._compile_once(row, name, cfg, round_index, traced, bracket)
                if pending >= BRACKET_SECONDS:
                    bracket.close()
                    pending = 0.0
            bracket.close()
        self.spans.enabled = False
        self._verify_generated_code()
        self._summarise()

    def _compile_once(self, row, name, cfg, round_index, traced, bracket) -> float:
        model = self.models[name]
        # Whether a full collection lands inside a compile depends on what ran
        # before it (nasnet: 0.30-0.47 s); starting every compile from a
        # collected heap makes the collector's share repeat.  Its cost stays
        # inside the timing; only the leftovers of earlier compiles do not.
        gc.collect()
        try:
            if traced:
                t0 = time.perf_counter()
                stages, sources, sizes = self._staged_compile(model, cfg)
                elapsed = time.perf_counter() - t0
                for stage, dt in stages.items():
                    bracket.add(f"{row}:{stage}", round_index, [dt])
                self.sizes[row] = sizes
            else:
                t0 = time.perf_counter()
                result = ramiel_compile(model, config=PipelineConfig(**CONFIGS[cfg]))
                elapsed = time.perf_counter() - t0
                sources = _sources(result.sequential_module, result.parallel_module)
                self.last[row] = result
        except Exception as exc:  # noqa: BLE001 - a failed compile is a failed operation
            self.ledger.record(False, f"{row}: compile raised {exc!r}")
            return 0.0
        bracket.add(row, round_index, [elapsed])
        first = self.first_source.setdefault(row, sources)
        self.ledger.record(sources == first, f"{row}: source differs between two compiles")
        return elapsed

    def _staged_compile(self, model, cfg):
        """``ramiel_compile`` stage by stage, each public call under a span."""
        config = PipelineConfig(**CONFIGS[cfg])
        stages: Dict[str, float] = {}
        spans = self.spans

        def timed(stage, fn, *args, **kwargs):
            with spans.span(stage):
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                stages[stage] = time.perf_counter() - t0
            return out

        with spans.span("pipeline.compile"):
            optimized, pruning = timed("passes.prune", optimize_model, model)
            cloned = 0
            if config.clone:
                optimized, report = timed("clustering.clone", clone_cheap_producers,
                                          optimized, cost_model=config.cost_model)
                cloned = report.nodes_cloned

            def dataflow():
                dfg = model_to_dataflow(optimized, cost_model=config.cost_model)
                potential_parallelism(dfg, cost_model=config.cost_model)
                return dfg

            dfg = timed("graph.dataflow", dataflow)
            lc = timed("clustering.lc", linear_clustering, dfg)
            merged = timed("clustering.merge", merge_clusters_fixpoint, lc)
            validate_clustering(merged)
            simulator = ScheduleSimulator(SimulationConfig(
                num_cores=config.num_cores, message_latency=config.message_latency,
                per_cluster_overhead=config.per_cluster_overhead))
            schedule = timed("clustering.simulate", simulator.simulate, merged)
            timed("runtime.plan.build", ExecutionPlan, optimized)
            sequential = timed("codegen.sequential", generate_sequential_module, optimized)
            parallel = timed("codegen.parallel", generate_parallel_module, optimized, merged)
        sizes = {
            "passes.nodes_removed": pruning["nodes_removed"],
            "clustering.nodes_cloned": cloned,
            "clustering.clusters_lc": lc.num_clusters,
            "clustering.clusters_merged": merged.num_clusters,
            "codegen.sequential_bytes": len(sequential.source.encode()),
            "codegen.parallel_bytes": len(parallel.source.encode()),
            "clustering.cross_edges": len(parallel.module.CHANNEL_NAMES),
            "clustering.predicted_speedup": schedule.speedup,
        }
        return stages, _sources(sequential, parallel), sizes

    # ------------------------------------------------------------------
    def _verify_generated_code(self) -> None:
        """The compiler's output is code: run each row's generated serial and
        parallel module and compare with the independent interpreter."""
        for name in self.models:
            default = self.last.get(f"{name}/default")
            if default is None:
                continue
            feed = self.feeds[name]
            # Cloning must not change a single bit, so the un-cloned
            # interpreter run is the reference for both configs.
            refs = [create_session(default, executor="interp").run(feed)]
            for cfg in CONFIGS:
                result = self.last.get(f"{name}/{cfg}")
                if result is None:
                    continue
                for kind, run in (("sequential", result.run_sequential),
                                  ("parallel", result.run_parallel)):
                    what = f"{name}/{cfg}: generated {kind} code"
                    try:
                        self.ledger.expect(run(feed), refs, what + " disagrees with interp")
                    except Exception as exc:  # noqa: BLE001
                        self.ledger.record(False, f"{what} raised {exc!r}")

    def _summarise(self) -> None:
        plain = self.plain
        by_cfg = {cfg: [f"{name}/{cfg}" for name in self.models if plain.has(f"{name}/{cfg}")]
                  for cfg in CONFIGS}
        self.e2e = {
            "latency_cu": geomean(plain.value(r) for r in by_cfg["default"]),
            "alt_latency_cu": geomean(plain.value(r) for r in by_cfg["clone"]),
        }
        for row in plain.rows():
            self.info.append(f"{row:<24} {plain.value(row):9.2f} cu {plain.raw_ms(row):9.2f} ms"
                             f"  n={plain.count(row)}")
        if not self.trace:
            return
        traced = self.traced
        rows: List[str] = [f"{name}/{cfg}" for name, cfg in self.rows]
        layers = self.layers
        layers["pipeline.compile_mean_cu"] = sum(plain.value(r) for r in rows) / len(rows)
        layers["pipeline.compile_largest_cu"] = plain.value(f"{LARGEST}/default")
        for stage in STAGES:
            keys = [f"{r}:{stage}" for r in rows if traced.has(f"{r}:{stage}")]
            layers[f"{stage}_cu"] = sum(traced.value(k) for k in keys) / len(rows)
        for key in ("passes.nodes_removed", "clustering.nodes_cloned", "clustering.clusters_lc",
                    "clustering.clusters_merged", "codegen.sequential_bytes",
                    "codegen.parallel_bytes", "clustering.cross_edges"):
            layers[key] = sum(self.sizes[r][key] for r in rows)
        layers["clustering.predicted_speedup"] = geomean(
            self.sizes[r]["clustering.predicted_speedup"] for r in rows)
        layers["observability.trace_overhead"] = (
            sum(traced.value(r) for r in rows) / sum(plain.value(r) for r in rows))
