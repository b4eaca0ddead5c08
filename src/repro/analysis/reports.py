"""Plain-text rendering of benchmark result tables and serving reports."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.graph.metrics import format_table


def format_rows(rows: Sequence[Mapping], columns: Optional[Sequence[str]] = None) -> str:
    """Render dict rows as an aligned table (delegates to the metrics helper)."""
    return format_table(list(rows), columns=columns)


def render_comparison(
    measured: Mapping[str, Mapping],
    paper: Mapping[str, Mapping],
    keys: Sequence[str],
    label_measured: str = "measured",
    label_paper: str = "paper",
) -> str:
    """Render a per-model paper-vs-measured comparison table.

    Parameters
    ----------
    measured / paper:
        Mappings model-name -> row dict.
    keys:
        The row keys to compare (each produces a measured and a paper column).
    """
    rows: List[Dict] = []
    for model in measured:
        row: Dict = {"model": model}
        for key in keys:
            row[f"{key} ({label_measured})"] = measured[model].get(key)
            row[f"{key} ({label_paper})"] = paper.get(model, {}).get(key)
        rows.append(row)
    return format_rows(rows)


def _round(value, digits: int = 2):
    return None if value is None else round(value, digits)


def _snapshot_from_registry(registry) -> Dict:
    """The report's rows from a registry's ``serving_*`` instrument family
    (the one :class:`repro.serving.ServingMetrics` records into)."""
    def value(name, default=None):
        # registry counters are floats; the report shows counts as ints
        raw = registry.get_value(name, default=default)
        if isinstance(raw, float) and raw.is_integer():
            return int(raw)
        return raw

    hits = value("serving_cache_hits_total", default=0)
    misses = value("serving_cache_misses_total", default=0)
    lookups = hits + misses
    latency = {}
    for labels, gauge in registry.series("serving_latency_ms"):
        latency[labels.get("quantile", "")] = gauge.value
    histogram = {}
    for labels, counter in registry.series("serving_batches_by_size_total"):
        try:
            histogram[int(labels.get("size", 0))] = int(counter.value)
        except (TypeError, ValueError):
            continue
    return {
        "submitted": value("serving_requests_submitted_total", default=0),
        "completed": value("serving_requests_completed_total", default=0),
        "failed": value("serving_requests_failed_total", default=0),
        "throughput_rps": registry.get_value("serving_throughput_rps"),
        "latency_ms": latency,
        "batches": value("serving_batches_total", default=0),
        "mean_batch_size": registry.get_value("serving_batch_size_mean"),
        "batch_histogram": dict(sorted(histogram.items())),
        "cache": {
            "hits": hits,
            "misses": misses,
            "hit_rate": (hits / lookups) if lookups else None,
            "compiles": value("serving_compiles_total", default=0),
            "compile_time_s": round(registry.get_value(
                "serving_compile_seconds_total", default=0.0), 4),
            "evictions": value("serving_cache_evictions_total", default=0),
        },
    }


def render_serving_report(registry) -> str:
    """Render a registry's serving metrics (``engine.registry``) as text.

    Collectors run first, so derived gauges are fresh.  Produces three
    aligned tables: request/throughput/latency summary, cache statistics,
    and the batch-size histogram.
    """
    registry.collect()
    snapshot = _snapshot_from_registry(registry)
    latency = snapshot.get("latency_ms", {})
    cache = snapshot.get("cache", {})
    summary_row = {
        "submitted": snapshot.get("submitted"),
        "completed": snapshot.get("completed"),
        "failed": snapshot.get("failed"),
        "throughput_rps": _round(snapshot.get("throughput_rps")),
        "p50_ms": _round(latency.get("p50")),
        "p95_ms": _round(latency.get("p95")),
        "p99_ms": _round(latency.get("p99")),
        "mean_batch": _round(snapshot.get("mean_batch_size")),
    }
    cache_row = {
        "hits": cache.get("hits"),
        "misses": cache.get("misses"),
        "hit_rate": _round(cache.get("hit_rate")),
        "compiles": cache.get("compiles"),
        "compile_time_s": _round(cache.get("compile_time_s"), 3),
        "evictions": cache.get("evictions"),
    }
    histogram_rows = [{"batch_size": size, "batches": count}
                      for size, count in snapshot.get("batch_histogram", {}).items()]
    sections = [
        "-- serving summary --",
        format_rows([summary_row]),
        "-- artifact cache --",
        format_rows([cache_row]),
    ]
    if histogram_rows:
        sections += ["-- batch-size histogram --", format_rows(histogram_rows)]
    return "\n".join(sections)
