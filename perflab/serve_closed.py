"""Workload ``serve_closed``: the serving core with no wire.

An in-process ``InferenceEngine(EngineConfig(qos=QoSConfig()))`` — the QoS
path, because ROADMAP item 3 makes it the only path — driven in a **closed
loop**: one driver thread keeps a window of 8 ``engine.submit`` futures
outstanding and submits one more for each that completes.  Two phases
alternate inside every round:

* ``image`` — squeezenet: batchable, conv-dominated; runs the same plan
  kernels as ``exec_b1`` but at fused batch sizes up to 8, so a batch-1
  kernel trick that hurts batched shapes shows here;
* ``text``  — bert: its generated code bakes in the batch size, so it is
  served unfused today (mean batch 1); ROADMAP item 5's gain must appear
  here and not in ``image``.

In a closed loop with a fixed window, throughput and latency are one number
(Little's law: window = throughput x mean latency), so the end-to-end
metrics are latencies and throughput is printed as a per-layer number.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, wait
from typing import Dict, List

import numpy as np

from repro.models import build_model
from repro.observability import Tracer
from repro.pipeline import ramiel_compile
from repro.runtime.session import create_session
from repro.serving import example_inputs
from repro.serving.engine import EngineConfig, InferenceEngine
from repro.serving.qos import QoSConfig

from perflab.harness import Bracket, Budget, Workload, full_binding, median

PHASES = {"image": "squeezenet", "text": "bert"}
WINDOW = 8
#: short phases, many rounds: a burst of interference then spoils one round of many
PHASE_SECONDS = {"image": 0.6, "text": 1.2}
CAL_SECONDS = 0.08
#: distinct request payloads per phase, cycled
FEEDS = 4
WARMUP_BURSTS = 2
REQUEST_TIMEOUT_S = 60.0


def batch_references(result, feed, max_batch: int) -> List[Dict[str, np.ndarray]]:
    """Every output the interpreter produces for ``feed`` inside a fused
    batch of 1..max_batch copies of it.

    A sample's result depends on the batch it was fused into (BLAS blocks a
    GEMM by its row count), so the batch-1 reference alone would reject
    correct answers; a served output must equal the independent
    interpreter's output for *some* batch size and position."""
    interp = create_session(result, executor="interp")
    unique: Dict[bytes, Dict[str, np.ndarray]] = {}
    for size in range(1, max_batch + 1):
        stacked = {name: np.concatenate([array] * size) for name, array in feed.items()}
        out = interp.run(stacked)
        for index in range(size):
            row = {name: value[index:index + 1].copy() for name, value in out.items()}
            unique.setdefault(b"".join(v.tobytes() for v in row.values()), row)
    return list(unique.values())


class ServeClosed(Workload):
    name = "serve_closed"

    def setup(self) -> None:
        self.tracer = Tracer(capacity=1 << 18, enabled=False) if self.trace else None
        self.engine = InferenceEngine(EngineConfig(qos=QoSConfig()), tracer=self.tracer)
        self.models = {phase: build_model(name) for phase, name in PHASES.items()}
        for model in self.models.values():
            summary = self.engine.warmup(model, example_inputs(model, seed=0))
            bursts = WARMUP_BURSTS if summary["batchable"] else 1
            for _ in range(bursts):  # fill the pinned staging buffers at full batch
                futures = [self.engine.submit(model, example_inputs(model, seed=i))
                           for i in range(WINDOW)]
                for future in futures:
                    future.result(timeout=REQUEST_TIMEOUT_S)

    def teardown(self) -> None:
        engine = getattr(self, "engine", None)
        if engine is not None:
            engine.shutdown()
            self.engine = None

    def reference(self) -> None:
        self.feeds, self.refs, self.results = {}, {}, {}
        for phase, model in self.models.items():
            result = ramiel_compile(model)
            self.results[phase] = result
            feeds = [example_inputs(model, seed=self.seed * 1000 + i) for i in range(FEEDS)]
            self.feeds[phase] = feeds
            # bert is served unfused: only the batch-1 reference is acceptable
            sizes = WINDOW if phase == "image" else 1
            self.refs[phase] = [batch_references(result, feed, sizes) for feed in feeds]
        self.request_ids = 0

    # ------------------------------------------------------------------
    def measure(self, seconds: float) -> None:
        self.counters: Dict[str, Dict[str, float]] = {p: {} for p in PHASES}
        cache_before = self.engine.cache_stats()
        for round_index, traced in Budget(seconds, self.trace).rounds():
            self.set_tracing(traced)
            table = self.table(traced)
            bracket = Bracket(self.cal, table, CAL_SECONDS)
            for phase in PHASES:
                before = self._engine_counters()
                latencies, submits, busy = self._closed_loop(phase, WINDOW, PHASE_SECONDS[phase])
                self._accumulate(phase, before, self._engine_counters())
                bracket.add(phase, round_index, latencies)
                bracket.add(f"{phase}:submit", round_index, submits)
                # seconds of wall time per completed request: 1 / throughput
                bracket.add(f"{phase}:pace", round_index, [busy / max(len(latencies), 1)])
                bracket.close()
        self.set_tracing(False)
        cache_after = self.engine.cache_stats()
        self.cache_delta = {k: cache_after[k] - cache_before[k] for k in ("hits", "misses")}
        self._summarise()
        if self.trace:
            self._layers()

    def _closed_loop(self, phase: str, window: int, seconds: float):
        """Keep ``window`` submits outstanding for ``seconds``; returns
        (submit->result latencies, submit() call times, busy seconds)."""
        engine, model = self.engine, self.models[phase]
        feeds, clock, spans = self.feeds[phase], time.perf_counter, self.spans
        inflight: Dict[object, tuple] = {}
        done_at: Dict[int, float] = {}
        finished: List[tuple] = []
        submit_times: List[float] = []
        sent = 0

        def submit() -> None:
            nonlocal sent
            self.request_ids += 1
            request, index = self.request_ids, sent % len(feeds)
            sent += 1
            t0 = clock()
            try:
                future = engine.submit(model, feeds[index])
            except Exception as exc:  # noqa: BLE001 - a refused request is a failed operation
                self.ledger.record(False, f"{phase}: submit raised {exc!r}")
                return
            t1 = clock()
            # stamp completion in the completing thread, not when the driver looks
            future.add_done_callback(lambda _f, r=request: done_at.__setitem__(r, clock()))
            submit_times.append(t1 - t0)
            inflight[future] = (request, index, t0, t1)

        start = clock()
        deadline = start + seconds
        for _ in range(window):
            submit()
        while inflight:
            done, _ = wait(list(inflight), timeout=REQUEST_TIMEOUT_S, return_when=FIRST_COMPLETED)
            if not done:
                self.ledger.record(False, f"{phase}: no completion within {REQUEST_TIMEOUT_S}s")
                break
            for future in done:
                finished.append((future,) + inflight.pop(future))
                if clock() < deadline:
                    submit()
        busy = max(done_at.values(), default=clock()) - start

        latencies = []
        for future, request, index, t0, t1 in finished:  # checked outside the timed loop
            try:
                outputs = future.result()
            except Exception as exc:  # noqa: BLE001
                self.ledger.record(False, f"{phase}: request failed with {exc!r}")
                continue
            end = done_at.get(request, t1)
            latencies.append(end - t0)
            self.ledger.expect(outputs, self.refs[phase][index],
                               f"{phase}: output differs from every interp batch reference")
            parent = spans.add(f"request:{phase}", t0, end, request=request)
            spans.add("engine.submit", t0, t1, request=request, parent=parent)
            spans.add("engine.queue+execute", t1, end, request=request, parent=parent)
        return latencies, submit_times, busy

    # -- counters read through public snapshot()/registry ----------------
    def _engine_counters(self) -> Dict[str, float]:
        snap = self.engine.metrics.snapshot()
        wait_hist = self.engine.registry.histogram(
            "qos_queue_wait_seconds", "Admission-to-dispatch wait of admitted requests")
        return {
            "batches": snap["batches"],
            "batched_requests": (snap["mean_batch_size"] or 0.0) * snap["batches"],
            "queue_wait_sum": wait_hist.sum,
            "queue_wait_count": wait_hist.count,
        }

    def _accumulate(self, phase, before, after) -> None:
        totals = self.counters[phase]
        for key, value in after.items():
            totals[key] = totals.get(key, 0.0) + value - before[key]

    # ------------------------------------------------------------------
    def _summarise(self) -> None:
        plain = self.plain
        self.e2e = {
            "latency_cu": plain.value("image"),
            "alt_latency_cu": plain.value("text"),
        }
        for phase in PHASES:
            p95, n = plain.tail([phase], plain.value(phase))
            rps = 1e3 / plain.raw_ms(f"{phase}:pace")
            self.info.append(
                f"{phase:<6} p50 {plain.value(phase):8.2f} cu {plain.raw_ms(phase):7.2f} ms | "
                f"p95 {p95:8.2f} cu (n={n}) | {1e3 / plain.value(f'{phase}:pace'):7.2f} /kcu "
                f"{rps:7.1f} rps | mean batch {self._mean_batch(phase):.2f}")

    def _mean_batch(self, phase: str) -> float:
        totals = self.counters[phase]
        return totals.get("batched_requests", 0.0) / max(totals.get("batches", 0.0), 1.0)

    def _layers(self) -> None:
        plain, layers = self.plain, self.layers
        cu = median(self.cal.history)
        for phase in PHASES:
            layers[f"serving.engine.{phase}_tput_per_kcu"] = 1e3 / plain.value(f"{phase}:pace")
            layers[f"serving.batching.mean_batch_{phase}"] = self._mean_batch(phase)
        for phase in PHASES:
            layers[f"serving.engine.{phase}_p95_cu"] = plain.tail([phase], plain.value(phase))[0]
        layers["serving.engine.submit_cu"] = plain.value("image:submit")
        waits = [self.counters[p] for p in PHASES]
        layers["serving.qos.queue_wait_cu"] = (
            sum(w["queue_wait_sum"] for w in waits)
            / max(sum(w["queue_wait_count"] for w in waits), 1.0) / cu)
        layers["serving.cache.hits"] = self.cache_delta["hits"]
        layers["serving.cache.misses"] = self.engine.cache_stats()["misses"]
        layers["serving.engine.overhead_cu"] = self._engine_overhead()
        layers["observability.trace_overhead"] = self.traced.value("image") / plain.value("image")

    def _engine_overhead(self) -> float:
        """Window-1 submit->result p50 minus run_with_binding p50 on the same
        feed: what admission, batching and future hand-off add to a lone request."""
        session = create_session(self.results["image"], executor="plan")
        feed = self.feeds["image"][0]
        binding = full_binding(session, feed)
        session.run_with_binding(binding)
        cu0 = self.cal.measure()
        self.spans.enabled = True
        lone, _, _ = self._closed_loop("image", 1, 0.6)
        bound = []
        with self.spans.span("session.run_with_binding:squeezenet"):
            for _ in range(30):
                t0 = time.perf_counter()
                session.run_with_binding(binding)
                bound.append(time.perf_counter() - t0)
        self.spans.enabled = False
        cu = (cu0 + self.cal.measure()) / 2.0
        return (median(lone) - median(bound)) / cu
