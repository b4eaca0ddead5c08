"""One metrics registry across plan, session and serving.

Before this module, the repo's statistics lived on four disjoint surfaces
(``ServingMetrics.snapshot()``, ``GraphProfile``, ``Session.stats()`` and
``ExecutionPlan.stats()["arena"]``), each with its own shape.  A
:class:`MetricsRegistry` is the single sink they all report into:

* :class:`Counter` — a monotonically increasing total;
* :class:`Gauge` — a point-in-time value (set on write or refreshed by a
  registered *collector* right before every snapshot/exposition);
* :class:`Histogram` — fixed-bucket cumulative counts with running
  count/sum/min/max and bucket-interpolated percentile estimation — bounded
  memory regardless of how many observations arrive.

Instruments are identified by ``(name, labels)``; ``registry.counter(...)``
et al. are get-or-create, so independent subsystems can mirror into the
same registry without coordination.  :meth:`MetricsRegistry.render_prometheus`
produces the Prometheus text exposition format (version 0.0.4);
:meth:`MetricsRegistry.snapshot` the same data as plain dicts.

Everything is stdlib-only and safe to import from anywhere in the package.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: default histogram buckets, sized for request/step latencies in seconds
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

_LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Optional[Mapping[str, str]]) -> _LabelsKey:
    if not labels:
        return ()
    items = []
    for key in sorted(labels):
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
        items.append((key, str(labels[key])))
    return tuple(items)


def _format_labels(labels: _LabelsKey, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(labels)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    escaped = ",".join(
        '%s="%s"' % (key, value.replace("\\", "\\\\").replace('"', '\\"'))
        for key, value in pairs)
    return "{%s}" % escaped


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "help", "labels", "_value", "_lock")

    metric_type = "counter"

    def __init__(self, name: str, help: str = "",
                 labels: _LabelsKey = ()) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ValueError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current total."""
        return self._value

    def reset(self) -> None:
        """Zero the total.

        Prometheus counters never go down in production; this exists for
        benchmark windows (``serve-bench`` resets metrics after warmup so
        the report covers only the measured load).
        """
        with self._lock:
            self._value = 0.0


class Gauge:
    """A point-in-time value that can go up and down."""

    __slots__ = ("name", "help", "labels", "_value", "_lock")

    metric_type = "gauge"

    def __init__(self, name: str, help: str = "",
                 labels: _LabelsKey = ()) -> None:
        self.name = name
        self.help = help
        self.labels = labels
        self._value: Optional[float] = None
        self._lock = threading.Lock()

    def set(self, value: Optional[float]) -> None:
        """Set the current value (None means "not observed yet")."""
        self._value = None if value is None else float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the current value (0 if unset)."""
        with self._lock:
            self._value = (self._value or 0.0) + amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the current value (0 if unset)."""
        self.inc(-amount)

    @property
    def value(self) -> Optional[float]:
        """The current value (None when never set)."""
        return self._value

    def reset(self) -> None:
        """Return to the never-set state."""
        self._value = None


class Histogram:
    """Fixed-bucket histogram with percentile estimation.

    Observations increment cumulative bucket counters (one per upper bound
    plus ``+Inf``) and running count/sum/min/max — memory stays constant no
    matter how many samples arrive, which is what lets long ``serve-bench``
    runs keep recording forever.  :meth:`percentile` estimates quantiles by
    linear interpolation inside the containing bucket, the same scheme as
    Prometheus' ``histogram_quantile``.
    """

    __slots__ = ("name", "help", "labels", "bounds", "_bucket_counts",
                 "_count", "_sum", "_min", "_max", "_lock")

    metric_type = "histogram"

    def __init__(self, name: str, help: str = "", labels: _LabelsKey = (),
                 buckets: Optional[Sequence[float]] = None) -> None:
        bounds = tuple(sorted(set(buckets or DEFAULT_LATENCY_BUCKETS)))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(math.isinf(b) for b in bounds):
            bounds = tuple(b for b in bounds if not math.isinf(b))
        self.name = name
        self.help = help
        self.labels = labels
        self.bounds = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # + the +Inf bucket
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._bucket_counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def reset(self) -> None:
        """Zero every bucket and the running count/sum/min/max."""
        with self._lock:
            self._bucket_counts = [0] * (len(self.bounds) + 1)
            self._count = 0
            self._sum = 0.0
            self._min = None
            self._max = None

    # -- derived -------------------------------------------------------
    @property
    def count(self) -> int:
        """Total number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    @property
    def mean(self) -> Optional[float]:
        """Mean observed value (None when empty)."""
        return (self._sum / self._count) if self._count else None

    @property
    def max(self) -> Optional[float]:
        """Largest observed value (None when empty)."""
        return self._max

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``+Inf`` last."""
        with self._lock:
            counts = list(self._bucket_counts)
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, counts):
            running += count
            out.append((bound, running))
        out.append((math.inf, running + counts[-1]))
        return out

    def percentile(self, q: float) -> Optional[float]:
        """Estimated ``q``-th percentile (0-100) via bucket interpolation.

        Exact sample values are not retained, so the estimate carries
        bucket-width error; the running min/max clamp the first and last
        buckets so estimates never leave the observed range.
        """
        if not 0 <= q <= 100:
            raise ValueError("percentile q must be in [0, 100]")
        if self._count == 0:
            return None
        rank = (q / 100.0) * self._count
        cumulative = self.cumulative_buckets()
        previous_bound = self._min if self._min is not None else 0.0
        previous_count = 0
        for bound, running in cumulative:
            if running >= rank and running > 0:
                upper = bound
                if math.isinf(upper):
                    return self._max
                upper = min(upper, self._max if self._max is not None else upper)
                lower = max(previous_bound,
                            self._min if self._min is not None else previous_bound)
                if running == previous_count:
                    return upper
                fraction = (rank - previous_count) / (running - previous_count)
                return lower + (upper - lower) * max(0.0, min(1.0, fraction))
            previous_bound = bound
            previous_count = running
        return self._max


_Instrument = object  # Counter | Gauge | Histogram


class MetricsRegistry:
    """Get-or-create registry of named instruments with text exposition.

    Collectors registered via :meth:`register_collector` run (in
    registration order) right before every :meth:`snapshot` /
    :meth:`render_prometheus`, refreshing gauges whose source of truth
    lives elsewhere (a plan's arena counters, a session's binding stats, a
    pool's cluster count) — pull-style mirroring without threading writes
    through the hot path.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, _LabelsKey], _Instrument] = {}
        self._types: Dict[str, str] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    # ------------------------------------------------------------------
    # Instrument creation
    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str,
                       labels: Optional[Mapping[str, str]], **kwargs):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        key = (name, _labels_key(labels))
        with self._lock:
            existing_type = self._types.get(name)
            if existing_type is not None and existing_type != cls.metric_type:
                raise ValueError(
                    f"metric {name!r} is already registered as a "
                    f"{existing_type}, not a {cls.metric_type}")
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = cls(name, help=help, labels=key[1], **kwargs)
                self._instruments[key] = instrument
                self._types[name] = cls.metric_type
            return instrument

    def counter(self, name: str, help: str = "",
                labels: Optional[Mapping[str, str]] = None) -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Optional[Mapping[str, str]] = None) -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Optional[Mapping[str, str]] = None,
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        """Get or create a :class:`Histogram` (fixed ``buckets`` bounds)."""
        return self._get_or_create(Histogram, name, help, labels,
                                   buckets=buckets)

    # ------------------------------------------------------------------
    # Collectors and lookup
    # ------------------------------------------------------------------
    def register_collector(
            self, collect: Callable[["MetricsRegistry"], None]) -> None:
        """Run ``collect(registry)`` before every snapshot/exposition.

        Collectors hold strong references to whatever they close over;
        deregister with :meth:`unregister_collector` when the source dies.
        """
        with self._lock:
            self._collectors.append(collect)

    def unregister_collector(self, collect) -> None:
        """Remove a previously registered collector (no-op if absent)."""
        with self._lock:
            try:
                self._collectors.remove(collect)
            except ValueError:
                pass

    def collect(self) -> None:
        """Run every registered collector once."""
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            collector(self)

    def get(self, name: str,
            labels: Optional[Mapping[str, str]] = None) -> Optional[_Instrument]:
        """The instrument registered under ``(name, labels)``, else None."""
        with self._lock:
            return self._instruments.get((name, _labels_key(labels)))

    def get_value(self, name: str,
                  labels: Optional[Mapping[str, str]] = None,
                  default=None):
        """Shortcut: the instrument's value (counter/gauge) or ``default``."""
        instrument = self.get(name, labels)
        if instrument is None:
            return default
        value = instrument.value if not isinstance(instrument, Histogram) \
            else instrument.count
        return default if value is None else value

    def series(self, name: str) -> List[Tuple[Dict[str, str], _Instrument]]:
        """Every labeled instrument registered under ``name``."""
        with self._lock:
            return [(dict(key[1]), instrument)
                    for key, instrument in self._instruments.items()
                    if key[0] == name]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict]:
        """All instruments as plain dicts, keyed by exposition-style name.

        Runs collectors first.  Counter/gauge entries carry ``value``;
        histograms carry count/sum/mean/min/max, the cumulative buckets
        and p50/p95/p99 estimates.
        """
        self.collect()
        out: Dict[str, Dict] = {}
        with self._lock:
            instruments = list(self._instruments.items())
        for (name, labels), instrument in instruments:
            key = name + _format_labels(labels)
            if isinstance(instrument, Histogram):
                out[key] = {
                    "type": "histogram",
                    "count": instrument.count,
                    "sum": instrument.sum,
                    "mean": instrument.mean,
                    "min": instrument._min,
                    "max": instrument._max,
                    "buckets": [[bound, count] for bound, count
                                in instrument.cumulative_buckets()],
                    "p50": instrument.percentile(50),
                    "p95": instrument.percentile(95),
                    "p99": instrument.percentile(99),
                }
            else:
                out[key] = {"type": instrument.metric_type,
                            "value": instrument.value}
        return out

    def render_prometheus(self) -> str:
        """The Prometheus text exposition (format 0.0.4) of every metric.

        Runs collectors first.  Unset gauges are omitted; histograms emit
        the standard ``_bucket{le=...}`` / ``_sum`` / ``_count`` series.
        """
        self.collect()
        with self._lock:
            instruments = list(self._instruments.items())
        families: Dict[str, List[Tuple[_LabelsKey, _Instrument]]] = {}
        for (name, labels), instrument in instruments:
            families.setdefault(name, []).append((labels, instrument))
        lines: List[str] = []
        for name in sorted(families):
            members = families[name]
            metric_type = self._types[name]
            help_text = next((m.help for _, m in members if m.help), "")
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {metric_type}")
            for labels, instrument in sorted(members, key=lambda kv: kv[0]):
                if isinstance(instrument, Histogram):
                    for bound, count in instrument.cumulative_buckets():
                        le = "+Inf" if math.isinf(bound) else repr(bound)
                        lines.append(
                            f"{name}_bucket"
                            f"{_format_labels(labels, ('le', le))} {count}")
                    lines.append(
                        f"{name}_sum{_format_labels(labels)} "
                        f"{instrument.sum}")
                    lines.append(
                        f"{name}_count{_format_labels(labels)} "
                        f"{instrument.count}")
                else:
                    value = instrument.value
                    if value is None:
                        continue
                    if isinstance(value, float) and value.is_integer():
                        value = int(value)
                    lines.append(
                        f"{name}{_format_labels(labels)} {value}")
        return "\n".join(lines) + "\n"
