"""Shared measurement plumbing: statistics, failure ledger, round budget,
cu-normalised sample tables and the benchmark's own span log."""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import threading
import time
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

median = statistics.median
geomean = statistics.geometric_mean


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def same_outputs(got: Mapping, ref: Mapping) -> bool:
    """Bitwise equality of two output dicts (names, dtype, shape, bytes)."""
    if set(got) != set(ref):
        return False
    for name, want in ref.items():
        have = got[name]
        if have.dtype != want.dtype or have.shape != want.shape:
            return False
        if have.tobytes() != want.tobytes():
            return False
    return True


class Ledger:
    """Operations attempted / failed for one workload run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)
        return ok

    def expect(self, got: Mapping, refs: Sequence[Mapping], what: str) -> bool:
        """One timed output must equal one of its acceptable references."""
        return self.record(any(same_outputs(got, ref) for ref in refs), what)


class Budget:
    """Hands out rounds until another one would overrun ``seconds``.

    In a traced run odd rounds are the traced ones, so both kinds see the
    same drift; at least two rounds always run.
    """

    def __init__(self, seconds: float, trace: bool) -> None:
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()

    def rounds(self) -> Iterator[Tuple[int, bool]]:
        longest = 0.0
        for index in itertools.count():
            elapsed = time.perf_counter() - self.started
            if index >= 2 and elapsed + longest > self.seconds:
                return
            t0 = time.perf_counter()
            yield index, self.trace and index % 2 == 1
            longest = max(longest, time.perf_counter() - t0)


class Samples:
    """Timed slices per row: (round, cu of the slice's bracket, sample seconds).

    A reported value is the median over rounds of the per-round median of
    ``seconds / cu``.  Tails are pooled over rounds after dividing by the
    round's median, so a slow round does not masquerade as a slow tail.
    """

    def __init__(self) -> None:
        self._slices: Dict[str, List[tuple]] = {}

    def add(self, row: str, round_index: int, seconds: Sequence[float], cu: float) -> None:
        self._slices.setdefault(row, []).append((round_index, cu, list(seconds)))

    def rows(self) -> List[str]:
        return list(self._slices)

    def has(self, row: str) -> bool:
        return row in self._slices

    def count(self, row: str) -> int:
        return sum(len(seconds) for _, _, seconds in self._slices[row])

    def _rounds(self, row: str) -> Dict[int, List[float]]:
        rounds: Dict[int, List[float]] = {}
        for round_index, cu, seconds in self._slices[row]:
            rounds.setdefault(round_index, []).extend(s / cu for s in seconds)
        return rounds

    def round_medians(self, row: str) -> Dict[int, float]:
        return {r: median(v) for r, v in self._rounds(row).items()}

    def value(self, row: str) -> float:
        return median(self.round_medians(row).values())

    def mean(self, row: str) -> float:
        """Median over rounds of the per-round mean."""
        return median(statistics.fmean(v) for v in self._rounds(row).values())

    def raw_ms(self, row: str) -> float:
        return median(s for _, _, seconds in self._slices[row] for s in seconds) * 1e3

    def dump(self) -> Dict[str, dict]:
        """Per-row detail for the run's JSON side file: the value, and every
        slice as [round, cu in seconds, [sample seconds...]]."""
        return {row: {"value_cu": self.value(row), "raw_ms": self.raw_ms(row),
                      "slices": slices} for row, slices in self._slices.items()}

    def tail(self, rows: Sequence[str], scale: float, q: float = 95.0) -> Tuple[float, int]:
        """(``q``-th percentile scaled to ``scale``, pooled sample count)."""
        ratios: List[float] = []
        for row in rows:
            for samples in self._rounds(row).values():
                mid = median(samples)
                ratios.extend(s / mid for s in samples)
        return percentile(ratios, q) * scale, len(ratios)

    def paired_ratio(self, numerator: str, denominator: str) -> float:
        """Median over shared rounds of numerator / denominator medians."""
        num, den = self.round_medians(numerator), self.round_medians(denominator)
        return median(num[r] / den[r] for r in num if r in den)


class SpanLog:
    """perflab's own spans around each public call into a layer.

    Kept in memory; :meth:`write` emits one Chrome-trace JSON at exit.  A
    span records name, start, end, the span that caused it (``parent``) and
    a request id shared by all spans of one request.  Disabled (the default)
    ``span()`` costs one attribute test.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.epoch_ns = time.perf_counter_ns()
        self._events: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[int] = None):
        if not self.enabled:
            yield 0
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self._append(name, start, end, span_id, parent, request)

    def add(self, name: str, start_s: float, end_s: float, request: Optional[int] = None,
            parent: int = 0) -> int:
        """Record a span from ``perf_counter()`` stamps taken elsewhere
        (asynchronous request lifecycles)."""
        if not self.enabled:
            return 0
        span_id = next(self._ids)
        self._append(name, int(start_s * 1e9), int(end_s * 1e9), span_id, parent, request)
        return span_id

    def _append(self, name, start, end, span_id, parent, request) -> None:
        with self._lock:
            self._events.append((name, start, end, span_id, parent, request,
                                 threading.get_ident()))

    def write(self, path: str, repo_tracers: Mapping[str, object]) -> int:
        """Write perflab's spans plus the buffered events of the repo's
        ``Tracer`` objects (attached through public ``tracer=`` parameters)
        on one clock.  Returns the number of events written."""
        out = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                "args": {"name": "perflab"}}]
        for name, start, end, span_id, parent, request, tid in self._events:
            args = {"id": span_id, "parent": parent}
            if request is not None:
                args["request"] = request
            out.append({"name": name, "cat": "perflab", "ph": "X", "pid": 1, "tid": tid,
                        "ts": (start - self.epoch_ns) / 1e3, "dur": (end - start) / 1e3,
                        "args": args})
        for pid, (label, tracer) in enumerate(repo_tracers.items(), start=2):
            out.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                        "args": {"name": f"repro:{label}"}})
            for event in tracer.events():
                record = {"name": event.name, "cat": event.cat or "repro", "ph": "X",
                          "pid": pid, "tid": event.tid,
                          "ts": (event.start_ns - self.epoch_ns) / 1e3,
                          "dur": event.dur_ns / 1e3}
                if event.args:
                    record["args"] = {k: str(v) for k, v in event.args.items()}
                out.append(record)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": out, "displayTimeUnit": "ms"}, fh)
        return len(out)


class Bracket:
    """Samples taken between two calibrations share the mean of the two cu.

    ``close()`` calibrates, files what was collected, and that calibration
    opens the next bracket — so adjacent slices pay for one calibration.
    """

    def __init__(self, cal, samples: Samples, cal_seconds: float = 0.1) -> None:
        self._cal = cal
        self._samples = samples
        self._cal_seconds = cal_seconds
        self._pending: List[tuple] = []
        self._cu_before = cal.measure(cal_seconds)

    def add(self, row: str, round_index: int, seconds: Sequence[float]) -> None:
        self._pending.append((row, round_index, list(seconds)))

    def close(self) -> float:
        cu_after = self._cal.measure(self._cal_seconds)
        cu = (self._cu_before + cu_after) / 2.0
        for row, round_index, seconds in self._pending:
            self._samples.add(row, round_index, seconds, cu)
        self._pending.clear()
        self._cu_before = cu_after
        return cu


def full_binding(session, feed: Mapping):
    """An IOBinding with every input of ``feed`` and every output bound."""
    binding = session.bind()
    for name, array in feed.items():
        binding.bind_input(name, array)
    for name in session.output_names:
        binding.bind_output(name)
    return binding


class Workload:
    """Common state of the four workloads; see ``run.py`` for the life cycle:
    ``setup`` (timed, three times, ``teardown`` in between), ``reference``
    (the benchmark's own untimed preparation), ``measure``, ``teardown``."""

    name = ""
    #: set-ups per run; ``setup_s`` is imports + their median
    setup_repeats = 3

    def __init__(self, seed: int, cal, spans: SpanLog, trace: bool) -> None:
        self.seed = seed
        self.cal = cal
        self.spans = spans
        self.trace = trace
        self.ledger = Ledger()
        self.plain = Samples()    # untraced rounds: every end-to-end number
        self.traced = Samples()   # traced rounds: per-layer numbers
        self.e2e: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.info: List[str] = []
        #: the repo's own ``Tracer`` (traced runs only), attached in ``setup``
        #: through the public ``tracer=`` parameters
        self.tracer = None

    def table(self, traced: bool) -> Samples:
        return self.traced if traced else self.plain

    def tracers(self) -> Dict[str, object]:
        return {self.name: self.tracer} if self.tracer is not None else {}

    def set_tracing(self, on: bool) -> None:
        """Switch perflab's spans and the repo tracer for one round."""
        self.spans.enabled = on
        if self.tracer is not None:
            (self.tracer.enable if on else self.tracer.disable)()

    def setup(self) -> None:
        raise NotImplementedError

    def reference(self) -> None:
        pass

    def measure(self, seconds: float) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass
