"""Compile-once execution plans: the generated sequential code over one packed slab per input signature.

:class:`ExecutionPlan` is the planned counterpart of
:class:`repro.runtime.executor.GraphExecutor`.  It is two things:

* **one source** — the model's generated sequential module, byte for byte
  the ``<model>_sequential.py`` a compile writes
  (:func:`repro.codegen.sequential_codegen.sequential_source` of the model
  lowered in the plan's topological ``order``).  Every call in it that can
  compute into a caller-owned buffer names its destination, ``out=out[i]``
  for node ``i`` of the order, and every kernel that takes scratch gets
  ``workspace=ws``.
  The plan renders and compiles that text once and calls its
  ``run(inputs, weights, out, ws)``: no per-node dispatch, no closures,
  straight-line code over local variables.  A traced twin of the
  same text, compiled on the first :meth:`ExecutionPlan.enable_tracing`,
  brackets every node's statements with one ``plan`` span;
* **a memory planner** — the destination table ``out`` it passes.  On the
  first run under a graph-input signature one shape sweep
  (:func:`repro.ir.shape_inference.sweep_shapes`, seeded from the fed
  arrays) gives every value's shape and dtype, and :func:`plan_destinations`
  turns the order into one 64-byte-aligned slab: every destination-capable
  node whose output is fully known, at least ``_ARENA_MIN_BYTES`` (4 KB;
  below that malloc is cheaper) and not a graph output gets a view of it.
  Values whose ranges are live at the same time never share a byte
  (:func:`pack_intervals`); alias views (``Reshape`` and friends) keep their
  base's range live.  What used to be fusion is an in-place destination: an
  exact-``out=`` (``INPLACE``) node whose input dies at it, with the same
  shape and dtype, computes into that input's range (``Conv -> Add ->
  Relu`` runs in one range).  That run and every later one under the
  signature compute into the slab: no allocation, and a working set
  several times smaller than the sum of the intermediates.

The memory plan is computed from shapes, never observed from a run.  A
node whose shape depends on run-time data (downstream of ``NonZero``, a
computed ``Range`` / ``TopK`` / ``Reshape`` target) is unknown to the
sweep, gets no view and allocates — numpy would silently broadcast a small
result into a larger ``out=``, so nothing is ever handed a view on a
guess.  ``tests/test_shape_table.py`` and ``tests/test_op_registry.py`` pin
the table to the kernels.

Kernel scratch (padded input, the conv column matrix, a pooling window's
row-folded scratch, ``erf``'s temporaries) comes from the plan's one
:class:`~repro.runtime.tensor_utils.Workspace`, a grow-only bump allocator
every kernel rewinds before returning, so the scratch of every conv lands
on the same cache-hot bytes.

The same planner packs each warm worker's slab over its cluster's
sub-order (:class:`ClusterSlabPlanner`): the parallel module prints the
same statements, and a value that crosses a cluster boundary never gets a
recyclable range.

Because the plan runs the same :mod:`repro.runtime.functional` calls as
the interpreter — only with destinations — plan outputs are
bitwise-identical to :class:`GraphExecutor` outputs, which the
differential tests in ``tests/test_execution_plan.py`` assert on the whole
model zoo.  ``GraphExecutor`` remains the semantic ground truth.

Slab ranges are overwritten by the next run, so nothing slab-backed ever
reaches a caller: a run returns the graph outputs only, and graph outputs
are never given a range.  Graph outputs accept caller-owned destinations
via ``run(feed, out={name: buffer})`` (surfaced as
:class:`repro.runtime.session.Session`'s ``IOBinding``): a buffer that
matches the table's entry is its producing node's ``out=`` for that run.
"""

from __future__ import annotations

import bisect
import math
import threading
import time
import weakref
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.graph.traversal import topological_sort_nodes
from repro.ir.dtypes import dtype_to_numpy
from repro.ir.model import Graph, Model
from repro.ir.node import OpNode
from repro.ir.opset import ARENA, INPLACE, destination, get_schema, require_supported
from repro.ir.shape_inference import sweep_shapes
from repro.runtime.executor import ExecutionError
from repro.runtime.tensor_utils import Workspace, align_up, aligned_empty

__all__ = ["ClusterSlabPlanner", "Destinations", "ExecutionPlan", "PlanError",
           "land_outputs", "pack_intervals", "plan_destinations"]


class PlanError(ExecutionError):
    """Raised when a plan cannot be built or executed."""


# ---------------------------------------------------------------------------
# Memory planning
# ---------------------------------------------------------------------------
#: Outputs below this size are cheaper to malloc than to give a slab range;
#: such nodes stay on the allocating path (measured crossover is well under
#: one 4 KB page).
_ARENA_MIN_BYTES = 4096


def pack_intervals(intervals: Sequence[Tuple[int, int, int]]) -> Tuple[List[int], int]:
    """First-fit ``(first_step, last_step, nbytes)`` intervals into one slab.

    Returns ``(offsets, total)``: one 64-byte-aligned byte offset per
    interval, in input order, such that two intervals whose (inclusive)
    step ranges overlap never share a byte, and the slab size.  Intervals
    are placed in order of first step, each at the lowest offset free for
    its whole lifetime — so low, recently vacated ranges are reused first.
    """
    offsets = [0] * len(intervals)
    total = 0
    live: List[Tuple[int, int, int]] = []  # (offset, end offset, last step), disjoint
    for index in sorted(range(len(intervals)), key=lambda i: intervals[i][0]):
        first, last, nbytes = intervals[index]
        size = align_up(nbytes)
        # Everything still in `live` was placed at an earlier-or-equal first
        # step and is read at or after this one: all of it is live now.
        live = sorted(r for r in live if r[2] >= first)
        offset = 0
        for low, high, _ in live:
            if offset + size <= low:
                break
            offset = high
        live.append((offset, offset + size, last))
        offsets[index] = offset
        total = max(total, offset + size)
    return offsets, total


def land_outputs(values: Dict[str, np.ndarray], bound: Mapping[str, np.ndarray]) -> int:
    """Copy each produced ``values[name]`` into its bound destination.

    Outputs a node already wrote in place (``values[name] is buf``) need
    nothing; the rest are copied in, and ``values`` then holds the bound
    buffer.  Every source overlapping *any* pending destination (its own
    included) is snapshotted before the first ``copyto`` runs — an earlier
    copy must not corrupt a later copy's source.  Returns how many copies
    were made; a shape or dtype mismatch raises :class:`PlanError`.
    """
    pending = [(name, buf) for name, buf in bound.items() if values[name] is not buf]
    sources = []
    for name, buf in pending:
        src = np.asarray(values[name])
        if src.shape != buf.shape or src.dtype != buf.dtype:
            raise PlanError(
                f"bound output {name!r}: destination has shape {buf.shape} "
                f"dtype {buf.dtype}, but the run produced shape {src.shape} "
                f"dtype {src.dtype}")
        if any(np.may_share_memory(src, other) for _, other in pending):
            src = src.copy()
        sources.append(src)
    for (name, buf), src in zip(pending, sources):
        np.copyto(buf, src)
        values[name] = buf
    return len(pending)


class Destinations(NamedTuple):
    """One slab's layout: which node computes into which range."""

    #: ``(slot, byte offset, shape, dtype)`` per node that computes into
    #: the slab; ``slot`` is the node's index in the topological order
    views: List[Tuple[int, int, Tuple[int, ...], np.dtype]]
    slab_bytes: int
    #: summed sizes of the values the slab holds (the packing ratio's base)
    intermediate_bytes: int
    #: nodes that compute in place on the range of an input dying at them
    in_place: int

    def table(self, num_slots: int) -> Tuple[List[Optional[np.ndarray]], np.ndarray]:
        """A fresh slab and the destination table of views into it."""
        slab = aligned_empty(self.slab_bytes)
        out: List[Optional[np.ndarray]] = [None] * num_slots
        for slot, offset, shape, dtype in self.views:
            out[slot] = np.ndarray(shape, dtype, slab, offset)
        return out, slab


def plan_destinations(nodes: Sequence[OpNode], capabilities: Sequence[Optional[str]],
                      slots: Mapping[str, int],
                      specs: Mapping[str, Tuple[Tuple[int, ...], np.dtype]],
                      pinned=frozenset()) -> Destinations:
    """Liveness-pack the destinations of ``nodes`` (in run order) into one slab.

    ``capabilities`` are the nodes' :func:`~repro.ir.opset.destination`
    and ``slots`` their indices in the topological order.  ``specs`` holds
    the ``(shape, dtype)`` of every value the shape sweep fully knows;
    ``pinned`` the values that must never live in the slab
    (graph outputs — they reach the caller — and values another cluster
    reads).  A value produced by an aliasing op joins its first input's
    storage group, so every view keeps its base's range live and a pinned
    view pins its base.  A destination-capable node gets a range when its
    single output is known, at least ``_ARENA_MIN_BYTES`` and its group is
    not pinned; an ``INPLACE`` node whose input holds a range of the same
    shape and dtype and dies at it (no later read of the input's group)
    computes into that range instead.
    """
    root: Dict[str, str] = {}     # value -> first value of its storage group
    first: Dict[str, int] = {}    # group -> producing step
    last: Dict[str, int] = {}     # group -> last step reading any member
    held: set = set()             # groups holding a pinned value
    for step, node in enumerate(nodes):
        for name in node.present_inputs:
            group = root.get(name)
            if group is not None:
                last[group] = step
        base = node.present_inputs[0] if node.present_inputs else None
        joins = get_schema(node.op_type).aliases and base in root
        for name in node.outputs:
            if not name:
                continue
            group = root[base] if joins else name
            if not joins:
                first[group] = last[group] = step
            root[name] = group
            if name in pinned:
                held.add(group)

    ranges: List[List[int]] = []             # [first step, last step, nbytes]
    range_of: Dict[str, int] = {}            # group -> its range
    holders: Dict[str, Tuple] = {}           # value filling a whole range -> its spec
    placed: List[Tuple[int, int, Tuple]] = []  # (slot, range, spec)
    in_place = 0
    for step, (node, capability) in enumerate(zip(nodes, capabilities)):
        if capability is None:
            continue
        outputs = [name for name in node.outputs if name]
        if len(outputs) != 1:
            continue
        name = outputs[0]
        group, spec = root[name], specs.get(name)
        if spec is None or group in held:
            continue
        nbytes = math.prod(spec[0]) * spec[1].itemsize
        if nbytes < _ARENA_MIN_BYTES:
            continue
        target = None
        if capability == INPLACE:
            target = next((root[x] for x in node.present_inputs
                           if holders.get(x) == spec and last[root[x]] == step), None)
        if target is None:
            range_of[group] = len(ranges)
            ranges.append([first[group], last[group], nbytes])
        else:
            range_of[group] = range_of[target]
            entry = ranges[range_of[group]]
            entry[1] = max(entry[1], last[group])
            in_place += 1
        holders[name] = spec
        placed.append((slots[node.name], range_of[group], spec))

    offsets, total = pack_intervals([tuple(entry) for entry in ranges])
    views = [(slot, offsets[index], shape, dtype)
             for slot, index, (shape, dtype) in placed]
    intermediate = sum(math.prod(shape) * dtype.itemsize for _, _, (shape, dtype) in placed)
    return Destinations(views, total, intermediate, in_place)


def _signature(names: Sequence[str], arrays: Mapping[str, np.ndarray]) -> Tuple:
    """A feed's memory-plan key: graph inputs in graph order, then any other
    fed name (an overridden initializer) — one feed, one signature, whatever
    order the caller's dict has."""
    if len(arrays) != len(names):
        names = list(names) + sorted(set(arrays).difference(names))
    return tuple([(name, arrays[name].shape, arrays[name].dtype) for name in names])


def _known_specs(graph: Graph, order: Sequence[OpNode],
                 fed: Mapping[str, np.ndarray]) -> Dict[str, Tuple]:
    """``{value: (shape, dtype)}`` of every value one shape sweep seeded
    from ``fed`` fully knows."""
    try:
        table = sweep_shapes(graph, order, fed)
    except ValueError:  # a fed dtype the IR has no name for: nothing is known
        return {}
    return {name: (info.shape, dtype_to_numpy(info.dtype))
            for name, info in table.items() if info.is_static()}


class ClusterSlabPlanner:
    """Per-signature slab layouts for the workers of one placement.

    Built once per pool-backed session over the optimized graph and the
    placed clustering.  :meth:`plan` sweeps shapes once per graph-input
    signature and packs one slab per cluster over the cluster's sub-order
    (the order its generated function runs in), with every value another
    cluster reads — and every graph output — pinned: a thread channel hands
    the consumer the producer's very array, so such a value must outlive
    the producer's run.
    """

    def __init__(self, graph: Graph, clusters: Sequence[Sequence[str]]) -> None:
        self.graph = graph
        self.order = topological_sort_nodes(graph)
        self.slots = {node.name: index for index, node in enumerate(self.order)}
        node_of = {node.name: node for node in self.order}
        owner = {name: index for index, names in enumerate(clusters) for name in names}
        made_in = {value: owner[node.name] for node in self.order
                   for value in node.outputs if value}
        crossing = {value for node in self.order for value in node.present_inputs
                    if value in made_in and made_in[value] != owner[node.name]}
        self.pinned = frozenset(graph.output_names) | crossing
        self.clusters = [[node_of[name] for name in names] for names in clusters]
        self._capabilities = [[destination(node) for node in nodes]
                              for nodes in self.clusters]
        self._input_names = list(graph.input_names)
        self._plans: Dict[Tuple, Tuple[int, List[Destinations]]] = {}
        self._lock = threading.Lock()

    def plan(self, inputs: Mapping[str, np.ndarray]) -> Tuple[int, List[Destinations]]:
        """``(key, one layout per cluster)`` for the signature of ``inputs``;
        ``key`` numbers the signature (workers cache their slabs by it)."""
        arrays = {name: np.asarray(value) for name, value in inputs.items()}
        signature = _signature(self._input_names, arrays)
        found = self._plans.get(signature)
        if found is None:
            with self._lock:
                found = self._plans.get(signature)
                if found is None:
                    specs = _known_specs(self.graph, self.order, arrays)
                    found = (len(self._plans), [
                        plan_destinations(nodes, capabilities, self.slots, specs, self.pinned)
                        for nodes, capabilities in zip(self.clusters, self._capabilities)])
                    self._plans[signature] = found
        return found


class _Memory(NamedTuple):
    """One graph-input signature's memory plan, computed from its shape table."""

    #: per node (topological order): its view of the slab, or None (allocate)
    outs: List[Optional[np.ndarray]]
    slab: np.ndarray
    layout: Destinations
    #: per bindable graph output: the ``(shape, dtype)`` its node computes,
    #: or None when the table does not fully know it
    bound_specs: Dict[str, Optional[Tuple]]


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------
def _compile(source: str, filename: str, namespace: Dict) -> Callable:
    """Execute generated ``source`` in ``namespace`` and return its ``run``."""
    exec(compile(source, filename, "exec"), namespace)  # noqa: S102 - our own generated code
    return namespace["run"]


class ExecutionPlan:
    """A precompiled, reusable execution schedule for one IR model.

    Parameters
    ----------
    model:
        An IR :class:`Model` or bare :class:`Graph`.

    An op without a handler raises :class:`PlanError` at build time.

    A plan is cheap to build (one topological sort, one render of every
    node, one ``compile``) and safe to run repeatedly; runs are serialized
    by an internal lock because the slabs and the scratch workspace are
    per-plan state.
    """

    def __init__(self, model) -> None:
        if not isinstance(model, Model):
            model = Model(model)
        self.graph: Graph = model.graph
        self.model_name = model.name
        #: the graph's nodes in the topological order the source follows
        self.order: List[OpNode] = topological_sort_nodes(self.graph)
        require_supported(self.order, PlanError)
        # codegen imports the runtime
        from repro.codegen.op_lowering import LoweredModel
        from repro.codegen.sequential_codegen import sequential_source

        #: every node named and rendered once; the traced twin prints the
        #: same blocks (dropped once the twin is built)
        self._lowered = LoweredModel(model, self.order, PlanError)
        #: the generated sequential module's text this plan runs
        self.source: str = sequential_source(self._lowered)
        self._run = _compile(self.source, f"<plan {self.model_name}>",
                             {"__name__": f"ramiel_plan_{self.model_name}"})
        # Kernels rewind the workspace before returning and runs are
        # serialized by the plan lock, so one provider serves all.
        self._workspace = Workspace()
        #: graph-input signature -> its memory plan
        self._memory: Dict[Tuple, _Memory] = {}
        #: the memory plan of the latest run (what stats() describes)
        self._active: Optional[_Memory] = None
        self._lock = threading.Lock()
        #: the function run() calls: ``_run``, or the traced twin's
        self._exec = self._run
        self._tracer = None
        #: the traced twin: its source, its globals and its ``run``
        self._twin: Optional[Tuple[str, Dict, Callable]] = None

        self._slots = {node.name: index for index, node in enumerate(self.order)}
        output_set = set(self.graph.output_names)
        #: bindable graph output -> the slot of the node that can write it
        self._bound_slots: Dict[str, int] = {}
        self._capabilities = self._lowered.capabilities
        for index, (node, capability) in enumerate(zip(self.order, self._capabilities)):
            outputs = [name for name in node.outputs if name]
            if capability is not None and len(outputs) == 1 and outputs[0] in output_set:
                self._bound_slots[outputs[0]] = index
        self._weights = dict(self.graph.initializers)
        self._init_arrays = [array for array in self._weights.values()
                             if isinstance(array, np.ndarray)]
        #: bound-output buffers already cleared against the (immutable)
        #: initializer set, so a warm binding loop pays the O(#weights)
        #: overlap sweep once per buffer, not per run.  Identity-checked
        #: weakrefs, so a freed buffer can never be confused with a new
        #: array reusing its ``id``.
        self._init_safe: Dict[int, "weakref.ref"] = {}
        self._input_names = list(self.graph.input_names)
        self._output_names = list(self.graph.output_names)
        self._output_set = output_set
        self._dest_direct_writes = 0
        self._dest_copy_writes = 0

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    @property
    def tracer(self):
        """The attached :class:`~repro.observability.Tracer`, if any."""
        return self._tracer

    def enable_tracing(self, tracer) -> None:
        """Attach ``tracer`` and run the traced twin of the source.

        The twin — compiled on the first call — brackets each node's
        statements with ``perf_counter_ns`` reads and emits one span per
        node (category ``"plan"``, label ``"OpType:node_name"``, args
        ``op`` and ``node``).  The untraced function is untouched, so
        detaching restores the exact default hot path.
        """
        if tracer is None:
            self.disable_tracing()
            return
        if self._twin is None:
            from repro.codegen.sequential_codegen import sequential_source

            source = sequential_source(self._lowered, traced=True)
            self._lowered = None
            namespace = {"__name__": f"ramiel_plan_{self.model_name}_traced",
                         "_now": time.perf_counter_ns}
            self._twin = (source, namespace, _compile(
                source, f"<plan {self.model_name} traced>", namespace))
        _, namespace, run = self._twin
        labels = [f"{node.op_type}:{node.name}" for node in self.order]
        span_args = [{"op": node.op_type, "node": node.name} for node in self.order]
        emit, now = tracer.emit, time.perf_counter_ns

        def span(index, start_ns):
            emit(labels[index], "plan", start_ns, now(), args=span_args[index])

        namespace["_span"] = span
        self._tracer = tracer
        self._exec = run

    def disable_tracing(self) -> None:
        """Detach the tracer and restore the untraced function."""
        self._tracer = None
        self._exec = self._run

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _failure(self, exc: BaseException) -> PlanError:
        """Wrap a failure inside the generated code with its node's context."""
        codes = {self._run.__code__: self.source}
        if self._twin is not None:
            codes[self._twin[2].__code__] = self._twin[0]
        tb, line, source = exc.__traceback__, None, None
        while tb is not None:
            if tb.tb_frame.f_code in codes:
                line, source = tb.tb_lineno, codes[tb.tb_frame.f_code]
            tb = tb.tb_next
        if line is None:
            return PlanError(f"planned execution of {self.model_name} failed: {exc}")
        comments, step = [], 0
        for number, text in enumerate(source.splitlines(), 1):
            node = self.order[step] if step < len(self.order) else None
            if node is not None and text.strip() == f"# {node.op_type} node {node.name!r}":
                comments.append(number)
                step += 1
        node = self.order[max(bisect.bisect_right(comments, line) - 1, 0)]
        return PlanError(
            f"planned execution of {node.name} ({node.op_type}) failed: {exc}")

    def _plan_memory(self, fed: Dict[str, np.ndarray]) -> _Memory:
        """Compute the memory plan of the signature ``fed`` belongs to."""
        specs = _known_specs(self.graph, self.order, fed)
        layout = plan_destinations(self.order, self._capabilities, self._slots, specs,
                                   self._output_set)
        outs, slab = layout.table(len(self.order))
        bound_specs = {name: specs.get(name) for name in self._bound_slots}
        return _Memory(outs, slab, layout, bound_specs)

    def run(self, inputs: Mapping[str, np.ndarray],
            out: Optional[Mapping[str, np.ndarray]] = None) -> Dict[str, np.ndarray]:
        """Execute the plan and return the graph outputs.

        Every run executes under its graph-input signature's memory plan.
        ``out`` maps graph-output names to caller-owned destination
        buffers.  Destination-capable producers write the output directly
        into a buffer of the shape and dtype the signature's shape table
        expects (no per-run graph-output allocation); everything else is
        finalized with an end-of-run copy (:func:`land_outputs`).  A buffer
        overlapping any input array is only written after every node has
        run, so binding an output over an input is safe.  Shape/dtype
        mismatches raise :class:`PlanError`.
        """
        with self._lock:
            return self._run_locked(inputs, out)

    def _run_locked(self, inputs, out) -> Dict[str, np.ndarray]:
        for name in self._input_names:
            if name not in inputs:
                raise PlanError(f"missing graph input {name!r}")
        arrays = {name: np.asarray(array) for name, array in inputs.items()}
        weights = self._weights
        overridden = [name for name in arrays if name in weights]
        if overridden:  # a fed initializer replaces the stored one
            weights = dict(weights)
            weights.update((name, arrays[name]) for name in overridden)

        signature = _signature(self._input_names, arrays)
        memory = self._memory.get(signature)
        if memory is None:
            memory = self._plan_memory(arrays)
        outs = memory.outs

        # Caller-bound output destinations, all finalized below.  A buffer
        # overlapping an initializer is rejected outright — even a deferred
        # copy into it would corrupt the weights of every subsequent run.
        # A buffer that matches what its node computes is that node's
        # ``out=`` for this run — unless it may alias an input or another
        # destination: writing it mid-run could corrupt values later nodes
        # still read (or each other), so such a buffer is only written by
        # the end-of-run copy.
        bound: Dict[str, np.ndarray] = {}
        if out:
            for name, buf in out.items():
                if name not in self._output_set:
                    raise PlanError(
                        f"out destination {name!r} is not a graph output "
                        f"(outputs: {self._output_names})")
                if not isinstance(buf, np.ndarray):
                    raise PlanError(
                        f"out destination {name!r} must be a numpy array, "
                        f"got {type(buf).__name__}")
                if not buf.flags.writeable:
                    raise PlanError(f"out destination {name!r} is read-only")
                cached = self._init_safe.get(id(buf))
                if cached is None or cached() is not buf:
                    if any(np.may_share_memory(buf, array)
                           for array in self._init_arrays):
                        raise PlanError(
                            f"out destination {name!r} overlaps an "
                            "initializer (weight) array; writing it would "
                            "corrupt the plan's weights for every "
                            "subsequent run")
                    key = id(buf)

                    def drop(ref, key=key, safe=self._init_safe):
                        if safe.get(key) is ref:
                            del safe[key]

                    self._init_safe[key] = weakref.ref(buf, drop)
                bound[name] = buf
            outs = list(outs)
            feeds = [arrays[name] for name in self._input_names]
            for name, buf in bound.items():
                if (type(buf) is np.ndarray
                        and memory.bound_specs.get(name) == (buf.shape, buf.dtype)
                        and not any(np.may_share_memory(buf, other) for other in
                                    feeds + [b for n, b in bound.items() if n != name])):
                    outs[self._bound_slots[name]] = buf

        try:
            values = self._exec(arrays, weights, outs, self._workspace)
        except ExecutionError:
            raise
        except Exception as exc:  # noqa: BLE001 - add node context
            raise self._failure(exc) from exc
        self._memory[signature] = memory  # kept once a run under it succeeded
        self._active = memory

        if bound:
            copies = land_outputs(values, bound)
            self._dest_direct_writes += len(bound) - copies
            self._dest_copy_writes += copies
        return values

    # ------------------------------------------------------------------
    # Introspection / interop
    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """Plan shape and memory-plan counters.

        ``steps`` is one per node (the source has one statement group per
        node); ``fused_nodes`` and ``arena_steps`` describe the latest
        run's memory plan: nodes computing in place on a dying input's
        range, and nodes computing into the slab at all.
        ``arena["allocations"]`` counts slab builds plus scratch-buffer
        allocations and stays flat once every signature in use has run
        once; ``slab_bytes`` against ``intermediate_bytes`` (the summed
        sizes of the values the slabs hold) is the packing ratio.
        """
        active = self._active.layout if self._active is not None else None
        return {
            "model": self.model_name,
            "nodes": len(self.order),
            "steps": len(self.order),
            "fused_nodes": active.in_place if active else 0,
            "arena_steps": len(active.views) if active else 0,
            "heavy_steps": self._capabilities.count(ARENA),
            "tracing": self._tracer is not None,
            "arena": {
                "allocations": len(self._memory) + self._workspace.allocations,
                "signatures": len(self._memory),
                "slab_bytes": sum(m.layout.slab_bytes for m in self._memory.values()),
                "intermediate_bytes": sum(m.layout.intermediate_bytes
                                          for m in self._memory.values()),
            },
            "output_binding": {
                "bindable_outputs": len(self._bound_slots),
                "direct_writes": self._dest_direct_writes,
                "copy_writes": self._dest_copy_writes,
            },
        }
