"""Perf-trajectory analysis: close the loop on ``BENCH_exec.json``.

The CI perf-smoke job has emitted a ``BENCH_exec.json`` artifact per run
since PR 4 — paired-ratio speedups for the planned engine, the heavy
destination-passing kernels and the IOBinding hot path — but the artifact
was write-only: nothing compared one run against the runs before it, so a
perf regression only surfaced if a human opened the artifact.  This module
is the read side:

* :func:`load_trajectory` parses a series of ``BENCH_exec.json`` files
  (paths, directories, or globs already expanded by the shell) and orders
  them by their embedded ``created_unix`` stamp;
* :func:`analyze_trajectory` extracts the machine-independent **ratio**
  metrics from every entry (paired speedups — wall-clock milliseconds are
  deliberately ignored because trajectory entries come from different CI
  machines), computes each benchmark's delta against a rolling baseline
  (mean of the preceding ``window`` entries), and flags any metric whose
  latest value fell more than ``threshold`` below its baseline;
* :func:`render_trend_table` renders the per-benchmark trend table the
  ``ramiel bench-report`` CLI prints, and the CLI exits non-zero on any
  regression — turning the artifact upload into a gate.

The analyzer is schema-tolerant: it reads the ``repro-exec-bench/*``
family, skips entries without a parsable payload (counted in the report)
and copes with benchmarks appearing or disappearing across entries.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "TrajectoryReport",
    "TrendRow",
    "analyze_trajectory",
    "load_trajectory",
    "render_trend_table",
]

#: per-model ratio metrics worth trending (higher is better for all)
MODEL_RATIO_METRICS: Tuple[str, ...] = (
    "speedup", "sequential_speedup", "binding_speedup",
)


def load_trajectory(paths: Sequence[str]) -> List[Dict]:
    """Parse ``BENCH_exec.json`` files into a time-ordered entry list.

    ``paths`` may mix files and directories; a directory contributes every
    ``*.json`` file directly inside it (the shape of a downloaded
    artifact-history folder).  Entries are ordered by their embedded
    ``created_unix`` stamp — filesystem order is meaningless for artifacts
    re-downloaded from CI — with the file path attached as ``_path``.
    Unreadable or non-bench files are skipped and recorded under
    ``_skipped`` on the returned list's entries' sibling (see
    :func:`analyze_trajectory`, which re-derives skips from ``None``
    placeholders).
    """
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(sorted(
                os.path.join(path, name) for name in os.listdir(path)
                if name.endswith(".json")))
        else:
            files.append(path)
    entries: List[Dict] = []
    for path in files:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            continue
        if not isinstance(payload, dict) or "models" not in payload:
            continue
        payload = dict(payload)
        payload["_path"] = path
        entries.append(payload)
    entries.sort(key=lambda e: e.get("created_unix", 0))
    return entries


def _extract_metrics(entry: Dict) -> Dict[str, float]:
    """Flatten one bench entry into ``benchmark/metric -> ratio`` pairs."""
    metrics: Dict[str, float] = {}
    for row in entry.get("models", []):
        model = row.get("model")
        if not model:
            continue
        for name in MODEL_RATIO_METRICS:
            value = row.get(name)
            if isinstance(value, (int, float)):
                metrics[f"{model}/{name}"] = float(value)
    for row in entry.get("conv_op_pr3_comparison", []):
        case = row.get("case")
        value = row.get("speedup")
        if case and isinstance(value, (int, float)):
            metrics[f"conv:{case}/speedup"] = float(value)
    return metrics


@dataclasses.dataclass
class TrendRow:
    """One benchmark metric's latest value against its rolling baseline."""

    benchmark: str
    metric: str
    latest: float
    #: mean of the preceding ``window`` observations (None when the metric
    #: has no history yet — first appearance is never a regression)
    baseline: Optional[float]
    #: (latest - baseline) / baseline, in percent; None without baseline
    delta_pct: Optional[float]
    #: how many prior observations back the baseline
    samples: int
    regressed: bool

    @property
    def status(self) -> str:
        if self.baseline is None:
            return "new"
        if self.regressed:
            return "REGRESSED"
        return "ok"


@dataclasses.dataclass
class TrajectoryReport:
    """The analyzed trajectory: trend rows plus the regression verdict."""

    rows: List[TrendRow]
    entries: int
    threshold: float
    window: int

    @property
    def regressions(self) -> List[TrendRow]:
        """The rows whose latest value fell past the threshold."""
        return [row for row in self.rows if row.regressed]

    @property
    def ok(self) -> bool:
        """True when no metric regressed past the threshold."""
        return not self.regressions

    def as_dict(self) -> Dict:
        """The report as plain JSON-serializable data (``--json`` output)."""
        return {
            "entries": self.entries,
            "threshold": self.threshold,
            "window": self.window,
            "ok": self.ok,
            "rows": [dataclasses.asdict(row) | {"status": row.status}
                     for row in self.rows],
        }


def analyze_trajectory(entries: Sequence[Dict], threshold: float = 0.10,
                       window: int = 3) -> TrajectoryReport:
    """Delta every benchmark's latest ratio against a rolling baseline.

    Parameters
    ----------
    entries:
        Time-ordered bench payloads (from :func:`load_trajectory`).
    threshold:
        Relative drop that counts as a regression: the latest value must
        stay above ``baseline * (1 - threshold)``.
    window:
        Rolling-baseline width — the mean of up to ``window`` observations
        immediately preceding the latest entry.  A short window tracks
        gradual drift; the mean (rather than the single previous run)
        absorbs one noisy CI machine without masking a real drop.
    """
    if threshold < 0:
        raise ValueError("regression threshold must be >= 0")
    if window < 1:
        raise ValueError("baseline window must be >= 1")
    series: Dict[str, List[float]] = {}
    for entry in entries:
        for key, value in _extract_metrics(entry).items():
            series.setdefault(key, []).append(value)
    rows: List[TrendRow] = []
    for key in sorted(series):
        history = series[key]
        benchmark, _, metric = key.rpartition("/")
        latest = history[-1]
        prior = history[:-1][-window:]
        if prior:
            baseline = sum(prior) / len(prior)
            delta_pct = ((latest - baseline) / baseline * 100.0
                         if baseline else None)
            regressed = bool(baseline) and latest < baseline * (1.0 - threshold)
        else:
            baseline = delta_pct = None
            regressed = False
        rows.append(TrendRow(benchmark=benchmark, metric=metric,
                             latest=round(latest, 4),
                             baseline=(None if baseline is None
                                       else round(baseline, 4)),
                             delta_pct=(None if delta_pct is None
                                        else round(delta_pct, 2)),
                             samples=len(prior), regressed=regressed))
    return TrajectoryReport(rows=rows, entries=len(entries),
                            threshold=threshold, window=window)


def render_trend_table(report: TrajectoryReport) -> str:
    """The report as an aligned text table plus a one-line verdict."""
    from repro.analysis.reports import format_rows

    if not report.rows:
        return (f"no trend data: {report.entries} parsable entries, "
                "0 benchmark metrics")
    table_rows = [{
        "benchmark": row.benchmark,
        "metric": row.metric,
        "baseline": "-" if row.baseline is None else row.baseline,
        "latest": row.latest,
        "delta_pct": "-" if row.delta_pct is None else row.delta_pct,
        "window": row.samples,
        "status": row.status,
    } for row in report.rows]
    lines = [format_rows(table_rows)]
    regressions = report.regressions
    if regressions:
        worst = min(regressions,
                    key=lambda row: row.delta_pct if row.delta_pct is not None
                    else 0.0)
        lines.append("")
        lines.append(
            f"REGRESSION: {len(regressions)} metric(s) fell more than "
            f"{report.threshold * 100:.0f}% below their rolling baseline "
            f"(worst: {worst.benchmark}/{worst.metric} "
            f"{worst.delta_pct:+.1f}%)")
    else:
        lines.append("")
        lines.append(
            f"ok: no metric fell more than {report.threshold * 100:.0f}% "
            f"below its rolling baseline across {report.entries} entries")
    return "\n".join(lines)
