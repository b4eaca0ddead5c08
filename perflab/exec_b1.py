"""Workload ``exec_b1``: warm batch-1 inference, the paper's setting.

Five models chosen for their potential parallelism (Table I: squeezenet
0.86, googlenet 1.4, inception_v3 1.37, bert 1.27, nasnet 3.7) and for
conv- versus GEMM-dominated kernels, each under three executors:

* ``plan``    — the single-threaded ExecutionPlan: bypasses clustering,
  channels and workers entirely (the serial baseline);
* ``pool``    — generated cluster code on warm worker threads;
* ``process`` — the same code on forked workers with pickled mp-queue
  hand-off (all but nasnet: one inference there takes seconds).

All executors of a model run inside one calibration bracket per round, in
an order that rotates with the round, so drift hits them equally.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List

from repro.models import build_model
from repro.observability import Tracer
from repro.pipeline import ramiel_compile
from repro.runtime.profiler import profile_plan_steps
from repro.runtime.session import create_session
from repro.serving import example_inputs

from perflab.harness import Bracket, Budget, Workload, full_binding, geomean, median

MODELS = ["squeezenet", "googlenet", "inception_v3", "bert", "nasnet"]
EXECUTORS = ["plan", "pool", "process"]
NO_PROCESS = {"nasnet"}
#: a slice runs for at least this long and at least twice
SLICE_SECONDS = 0.2
#: one inference of nasnet is a whole slice (0.6 s plan, 1.2 s pool), so it
#: runs once, and only in even rounds: every row of the geomean then gets
#: about the same share of the measured time
SINGLE_RUN = {"nasnet"}
WARMUP_RUNS = 2
CAL_SECONDS = 0.08

_OP_CLASSES = {
    "Conv": "conv", "ConvTranspose": "conv",
    "Gemm": "gemm", "MatMul": "gemm",
    "MaxPool": "pool", "AveragePool": "pool", "GlobalAveragePool": "pool",
    "GlobalMaxPool": "pool",
}


def _executors(model: str) -> List[str]:
    return [e for e in EXECUTORS if not (e == "process" and model in NO_PROCESS)]


class ExecB1(Workload):
    name = "exec_b1"
    #: one set-up (15 forks, 14 sessions, nasnet warm-ups) takes ~6 s
    setup_repeats = 2

    def setup(self) -> None:
        self.tracer = Tracer(capacity=1 << 18) if self.trace else None
        self.results: Dict[str, object] = {}
        self.sessions: Dict[str, object] = {}
        warm_feeds = {}

        def compile_models(names):
            for name in names:
                model = build_model(name)
                self.results[name] = ramiel_compile(model)
                warm_feeds[name] = example_inputs(model, seed=0)

        def open_sessions(executor, names):
            for name in names:
                # Channel telemetry must be on before the workers fork,
                # hence tracer= at creation for "process".
                self.sessions[f"{name}/{executor}"] = create_session(
                    self.results[name], executor=executor,
                    tracer=self.tracer if executor == "process" else None)

        # Fork the process workers as early as possible: before any worker
        # thread exists, and while the heap is small — after a fork every
        # object the parent touches costs a copy-on-write fault, which turned
        # nasnet's first plan run from 0.8 s into 5.6 s when it was compiled
        # before the fork.
        forked = [m for m in MODELS if m not in NO_PROCESS]
        compile_models(forked)
        open_sessions("process", forked)
        compile_models(m for m in MODELS if m in NO_PROCESS)
        open_sessions("pool", MODELS)
        open_sessions("plan", MODELS)
        for row, session in self.sessions.items():
            name = row.split("/")[0]
            for _ in range(1 if name in SINGLE_RUN else WARMUP_RUNS):
                session.run(warm_feeds[name])
        if self.tracer is not None:
            self.tracer.disable()

    def teardown(self) -> None:
        for session in getattr(self, "sessions", {}).values():
            session.close()
        self.sessions = {}

    def reference(self) -> None:
        self.feeds, self.refs = {}, {}
        for name, result in self.results.items():
            feed = example_inputs(result.model, seed=self.seed)
            self.feeds[name] = feed
            self.refs[name] = [create_session(result, executor="interp").run(feed)]

    # ------------------------------------------------------------------
    def measure(self, seconds: float) -> None:
        pool_before = self._pool_stats()
        arena_before = self._arena_allocations()
        for round_index, traced in Budget(seconds, self.trace).rounds():
            self.set_tracing(traced)
            table = self.table(traced)
            bracket = Bracket(self.cal, table, CAL_SECONDS)
            for name in MODELS:
                if name in SINGLE_RUN and (round_index // (2 if self.trace else 1)) % 2:
                    continue  # every other (plain, traced) pair of rounds
                executors = _executors(name)
                shift = round_index % len(executors)
                for executor in executors[shift:] + executors[:shift]:
                    row = f"{name}/{executor}"
                    times = self._slice(row, name, single=name in SINGLE_RUN)
                    bracket.add(row, round_index, times)
                bracket.close()
        self.set_tracing(False)
        self.arena_allocs_warm = self._arena_allocations() - arena_before
        self.pool_delta = self._delta(self._pool_stats(), pool_before)
        self._summarise()
        if self.trace:
            self._layers()

    def _slice(self, row: str, name: str, single: bool) -> List[float]:
        session, feed = self.sessions[row], self.feeds[name]
        run, clock = session.run, time.perf_counter
        times, outputs = [], []
        deadline = clock() + SLICE_SECONDS
        with self.spans.span(f"session.run:{row}"):
            while True:
                try:
                    t0 = clock()
                    out = run(feed)
                    t1 = clock()
                except Exception as exc:  # noqa: BLE001 - a failed run is a failed operation
                    self.ledger.record(False, f"{row}: run raised {exc!r}")
                    break
                times.append(t1 - t0)
                outputs.append(out)
                if single or (t1 >= deadline and len(times) >= 2):
                    break
        for out in outputs:  # checked outside the timed interval
            self.ledger.expect(out, self.refs[name], f"{row}: output differs from interp")
        return times

    def set_tracing(self, on: bool) -> None:
        super().set_tracing(on)
        if self.tracer is not None:
            for session in self.sessions.values():
                session.set_tracer(self.tracer if on else None)

    # -- counters read through public stats() ---------------------------
    def _pool_stats(self) -> Dict[str, Dict[str, float]]:
        out = {}
        for row, session in self.sessions.items():
            stats = session.stats().get("pool")
            if stats is not None:
                flat = {k: stats[k] for k in ("runs", "dispatch_ns_total",
                                              "collect_wait_ns_total", "execute_ns_total")}
                for key, value in (stats.get("channels") or {}).items():
                    flat[f"channel_{key}"] = value
                out[row] = flat
        return out

    @staticmethod
    def _delta(after, before):
        return {row: {k: v - before.get(row, {}).get(k, 0) for k, v in stats.items()}
                for row, stats in after.items()}

    def _arena_allocations(self) -> int:
        return sum(s.stats()["plan"]["arena"]["allocations"]
                   for row, s in self.sessions.items() if row.endswith("/plan"))

    # ------------------------------------------------------------------
    def _summarise(self) -> None:
        plain = self.plain
        parallel_rows = [f"{m}/{e}" for m in MODELS for e in ("pool", "process")
                         if plain.has(f"{m}/{e}")]
        plan_rows = [f"{m}/plan" for m in MODELS if plain.has(f"{m}/plan")]
        latency = geomean(plain.value(r) for r in plan_rows)
        self.plan_p95, n_tail = plain.tail(plan_rows, latency)
        self.e2e = {
            "latency_cu": latency,
            "alt_latency_cu": geomean(plain.value(r) for r in parallel_rows),
        }
        for model in MODELS:
            cells = []
            for executor in _executors(model):
                row = f"{model}/{executor}"
                cells.append(f"{executor} {plain.value(row):8.1f} cu {plain.raw_ms(row):7.2f} ms"
                             f" n={plain.count(row)}")
            speedups = " ".join(
                f"plan/{e}={plain.paired_ratio(f'{model}/plan', f'{model}/{e}'):.2f}x"
                for e in _executors(model) if e != "plan")
            self.info.append(f"{model:<13} " + " | ".join(cells) + "  " + speedups)
        self.info.append(f"plan p95 {self.plan_p95:.1f} cu over n={n_tail} samples pooled "
                         "after per-row normalisation")

    def _layers(self) -> None:
        """Per-layer numbers: counter deltas over the timed slices plus a few
        short extra measurements through public calls."""
        plain, layers = self.plain, self.layers
        for executor in ("pool", "process"):
            rows = [f"{m}/{executor}" for m in MODELS if plain.has(f"{m}/{executor}")]
            layers[f"runtime.{executor}.latency_cu"] = geomean(plain.value(r) for r in rows)
            layers[f"runtime.{executor}.speedup_vs_plan"] = geomean(
                plain.paired_ratio(f"{r.split('/')[0]}/plan", r) for r in rows)
        # seconds -> cu with the run's median cu: counters cover all rounds
        cu = median(self.cal.history)
        pool_rows = [f"{m}/pool" for m in MODELS]
        per_run = {key: [self.pool_delta[r][key] / 1e9 / max(self.pool_delta[r]["runs"], 1) / cu
                         for r in pool_rows]
                   for key in ("dispatch_ns_total", "collect_wait_ns_total", "execute_ns_total")}
        layers["runtime.pool.dispatch_cu"] = sum(per_run["dispatch_ns_total"]) / len(pool_rows)
        layers["runtime.pool.collect_wait_cu"] = sum(per_run["collect_wait_ns_total"]) / len(pool_rows)
        layers["runtime.pool.execute_cu"] = sum(per_run["execute_ns_total"]) / len(pool_rows)
        layers["runtime.pool.critical_share"] = geomean(
            (plain.mean(r) if plain.has(r) else 0.0) / execute
            for r, execute in zip(pool_rows, per_run["execute_ns_total"]))
        process = [d for r, d in self.pool_delta.items() if r.endswith("/process")]
        runs = sum(d["runs"] for d in process) or 1
        channel = {key: sum(d.get(f"channel_{key}", 0) for d in process) / runs
                   for key in ("put_bytes", "put_ns", "get_ns")}
        layers["runtime.process.channel_bytes"] = channel["put_bytes"]
        layers["runtime.process.channel_put_cu"] = channel["put_ns"] / 1e9 / cu
        layers["runtime.process.channel_get_cu"] = channel["get_ns"] / 1e9 / cu
        # predicted (simulated) versus measured speedup of the thread pool
        errors = []
        for model in MODELS:
            measured = plain.paired_ratio(f"{model}/plan", f"{model}/pool")
            errors.append(abs(math.log(self.results[model].predicted_speedup / measured)))
        layers["clustering.schedule_error"] = sum(errors) / len(errors)
        plan_stats = [self.sessions[f"{m}/plan"].stats()["plan"] for m in MODELS]
        layers["runtime.plan.steps"] = sum(s["steps"] for s in plan_stats)
        layers["runtime.plan.fused_nodes"] = sum(s["fused_nodes"] for s in plan_stats)
        layers["runtime.plan.arena_allocs_warm"] = self.arena_allocs_warm
        layers["runtime.plan.p95_cu"] = self.plan_p95
        self._extra_measurements()
        traced_rows = [r for r in self.traced.rows() if plain.has(r)]
        layers["observability.trace_overhead"] = geomean(
            self.traced.value(r) / plain.value(r) for r in traced_rows)

    def _extra_measurements(self) -> None:
        layers = self.layers
        classes = {"conv": 0.0, "gemm": 0.0, "pool": 0.0, "elementwise": 0.0}
        saving, sequential = [], []
        for name in MODELS:
            session, feed = self.sessions[f"{name}/plan"], self.feeds[name]
            runs = 1 if name in SINGLE_RUN else 5
            cu0 = self.cal.measure()
            with self.spans.span(f"profile_plan_steps:{name}"):
                steps = profile_plan_steps(session, feed, num_runs=runs, warmup=1)
            with self.spans.span(f"session.run_with_binding:{name}"):
                binding = full_binding(session, feed)
                session.run_with_binding(binding)
                unbound, bound = [], []
                for _ in range(runs):
                    t0 = time.perf_counter()
                    session.run(feed)
                    t1 = time.perf_counter()
                    out = session.run_with_binding(binding)
                    t2 = time.perf_counter()
                    unbound.append(t1 - t0)
                    bound.append(t2 - t1)
                self.ledger.expect(out, self.refs[name], f"{name}: bound run differs from interp")
            with self.spans.span(f"run_sequential:{name}"):
                times = []
                for _ in range(1 if name in SINGLE_RUN else 3):
                    t0 = time.perf_counter()
                    out = self.results[name].run_sequential(feed)
                    times.append(time.perf_counter() - t0)
                self.ledger.expect(out, self.refs[name],
                                   f"{name}: generated sequential code differs from interp")
            cu = (cu0 + self.cal.measure()) / 2.0
            for step in steps:
                kind = _OP_CLASSES.get(step["op"], "elementwise")
                classes[kind] += step["total_ms"] / 1e3 / runs / cu
            saving.append((median(unbound) - median(bound)) / cu)
            sequential.append(median(times) / cu)
        for kind, total in classes.items():
            layers[f"runtime.ops.{kind}_cu"] = total / len(MODELS)
        layers["runtime.session.binding_saving_cu"] = sum(saving) / len(MODELS)
        layers["codegen.sequential_run_cu"] = sum(sequential) / len(MODELS)
