"""Thread-safe serving metrics: throughput, latency percentiles, batches, cache.

One :class:`ServingMetrics` instance is shared by an
:class:`~repro.serving.engine.InferenceEngine`, its lanes and its
artifact cache.  Compound recordings take a single lock (the recorded
quantities are tiny compared to operator execution) and everything is
exported as a plain dict via :meth:`ServingMetrics.snapshot`.

Memory is **bounded**: request latencies go into one fixed-bucket
histogram, ``serving_request_latency_seconds``, whose count / sum / max
are exact and whose percentiles are bucket-interpolated, so
:meth:`ServingMetrics.snapshot` and ``/metrics`` give the same p99; the
batch histogram is a counter per distinct size.

The counts themselves live in one place: the ``serving_*`` instruments of a
:class:`~repro.observability.MetricsRegistry` (the engine's, or a private
one) — monotonic counters, a ``serving_request_latency_seconds`` histogram
and derived gauges refreshed by a pull collector — so one registry snapshot
covers serving alongside the plan/arena/binding counters the sessions
publish, and :meth:`ServingMetrics.snapshot` is a view over the same store.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro.observability.metrics import MetricsRegistry


class ServingMetrics:
    """Records per-request, per-batch and cache statistics into a registry.

    Parameters
    ----------
    registry:
        The :class:`~repro.observability.MetricsRegistry` holding the
        ``serving_*`` instruments (a private one when omitted).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry = registry or MetricsRegistry()
        self._lock = threading.Lock()
        counter, gauge = registry.counter, registry.gauge
        self._submitted = counter(
            "serving_requests_submitted_total",
            "Requests that entered the engine")
        self._completed = counter(
            "serving_requests_completed_total",
            "Requests that completed successfully")
        self._failed = counter(
            "serving_requests_failed_total", "Requests that failed")
        self._latency = registry.histogram(
            "serving_request_latency_seconds",
            "End-to-end request latency (submit to result)")
        self._batches = counter(
            "serving_batches_total", "Micro-batches executed")
        self._cache_hits = counter(
            "serving_cache_hits_total", "Artifact cache hits")
        self._cache_misses = counter(
            "serving_cache_misses_total", "Artifact cache misses")
        self._compiles = counter(
            "serving_compiles_total", "Ramiel compilations performed")
        self._compile_seconds = counter(
            "serving_compile_seconds_total",
            "Total time spent compiling artifacts")
        self._evictions = counter(
            "serving_cache_evictions_total", "Artifacts evicted from the cache")
        self._throughput = gauge(
            "serving_throughput_rps",
            "Completed requests per second, first submit to last completion")
        self._batch_size_mean = gauge(
            "serving_batch_size_mean", "Mean executed micro-batch size")
        self._cache_hit_rate = gauge(
            "serving_cache_hit_rate", "Artifact cache hit rate")
        self._batch_counters: Dict[int, object] = {}
        self._first_submit_t: Optional[float] = None
        self._last_done_t: Optional[float] = None
        registry.register_collector(self._refresh_derived)

    def reset(self) -> None:
        """Drop all recorded samples and zero the ``serving_*`` family.

        A post-warmup reset re-zeroes the measured window everywhere the
        registry is read.
        """
        with self._lock:
            for instrument in (
                    self._submitted, self._completed, self._failed,
                    self._latency, self._batches, self._cache_hits,
                    self._cache_misses, self._compiles, self._compile_seconds,
                    self._evictions, self._throughput, self._batch_size_mean,
                    self._cache_hit_rate, *self._batch_counters.values(),
                    *(g for _, g in self.registry.series("serving_latency_ms"))):
                instrument.reset()
            self._first_submit_t = self._last_done_t = None

    def _refresh_derived(self, _registry) -> None:
        """Pull collector: derived gauges from :meth:`snapshot`."""
        snap = self.snapshot()
        self._throughput.set(snap["throughput_rps"])
        for quantile, value in snap["latency_ms"].items():
            self.registry.gauge(
                "serving_latency_ms", "Request latency summary in milliseconds",
                labels={"quantile": quantile}).set(value)
        self._batch_size_mean.set(snap["mean_batch_size"])
        self._cache_hit_rate.set(snap["cache"]["hit_rate"])

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_submitted(self) -> None:
        """One request entered the engine."""
        with self._lock:
            self._submitted.inc()
            if self._first_submit_t is None:
                self._first_submit_t = time.perf_counter()

    def record_completed(self, latency_s: float, ok: bool = True) -> None:
        """One request finished after ``latency_s``.

        Failed requests count toward ``failed`` but are excluded from the
        latency percentiles: a 300s batch timeout is a failure, not a p99.
        """
        with self._lock:
            if ok:
                self._completed.inc()
                self._latency.observe(latency_s)
            else:
                self._failed.inc()
            self._last_done_t = time.perf_counter()

    def record_batch(self, size: int) -> None:
        """One micro-batch of ``size`` requests was executed."""
        size = int(size)
        with self._lock:
            self._batches.inc()
            counter = self._batch_counters.get(size)
            if counter is None:
                counter = self._batch_counters[size] = self.registry.counter(
                    "serving_batches_by_size_total",
                    "Micro-batches executed, by batch size",
                    labels={"size": str(size)})
            counter.inc()

    def record_cache(self, hit: bool) -> None:
        """One compiled-artifact cache lookup."""
        (self._cache_hits if hit else self._cache_misses).inc()

    def record_compile(self, seconds: float) -> None:
        """One Ramiel compilation was performed (a cache miss was filled)."""
        self._compiles.inc()
        self._compile_seconds.inc(seconds)

    def record_eviction(self) -> None:
        """One artifact was evicted from the cache."""
        self._evictions.inc()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """All metrics as a plain dict (stable keys; values None when unseen).

        Throughput is completed requests divided by the span from the first
        ``submit`` to the last completion — the steady-state serving rate,
        not an average over idle time before/after the load.  Latency
        percentiles are the latency histogram's bucket-interpolated
        estimates over every successful completion; mean and max are exact.
        """
        with self._lock:
            latency = self._latency
            completed = int(self._completed.value)
            span = None
            if self._first_submit_t is not None and self._last_done_t is not None:
                span = max(self._last_done_t - self._first_submit_t, 1e-9)
            hits = int(self._cache_hits.value)
            misses = int(self._cache_misses.value)
            lookups = hits + misses
            batches = int(self._batches.value)
            histogram = {size: int(counter.value) for size, counter
                         in sorted(self._batch_counters.items())
                         if counter.value}
            return {
                "submitted": int(self._submitted.value),
                "completed": completed,
                "failed": int(self._failed.value),
                "throughput_rps": (completed / span) if span else None,
                "latency_ms": {
                    **{f"p{q}": _ms(latency.percentile(q)) for q in (50, 95, 99)},
                    "mean": _ms(latency.mean),
                    "max": _ms(latency.max),
                },
                "batches": batches,
                "mean_batch_size": (
                    sum(size * count for size, count in histogram.items())
                    / batches if batches else None),
                "batch_histogram": histogram,
                "cache": {
                    "hits": hits,
                    "misses": misses,
                    "hit_rate": (hits / lookups) if lookups else None,
                    "compiles": int(self._compiles.value),
                    "compile_time_s": round(self._compile_seconds.value, 4),
                    "evictions": int(self._evictions.value),
                },
            }


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else seconds * 1e3
