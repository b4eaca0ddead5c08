"""Compile-once execution plans: fused dispatch, one packed memory slab per input signature.

:class:`ExecutionPlan` is the planned counterpart of
:class:`repro.runtime.executor.GraphExecutor`.  The interpreter redoes three
kinds of call-invariant work on every request:

1. **dispatch** — per-node argument marshalling and output bookkeeping,
2. **allocation** — a fresh numpy array for every intermediate value,
3. **bookkeeping** — timing guards and error-context wrapping per node.

The plan does that work once instead:

* every node is bound once by :func:`repro.ir.opset.bind` — the same
  closure over the operator's kernel the interpreter runs, attributes
  normalised from the one operator declaration — and the declaration's
  capability flags (aliases its input, exact in-place ``out=``, heavy
  destination, output-only destination, takes ``workspace=``) decide how a
  step may use it;
* single-consumer elementwise/activation tails (``Conv -> Add -> Relu`` and
  friends) are **fused** into their producer's step and applied in place on
  the producer's output buffer via the ``out=`` destination-passing support
  of :mod:`repro.runtime.functional`;
* a liveness analysis over the topological order gives every recyclable
  intermediate (alias views join their base's storage group) the interval
  ``[producing step, last reading step]``.  On the **first run under a
  graph-input signature** one shape sweep
  (:func:`repro.ir.shape_inference.sweep_shapes`, over the plan's own
  order, seeded from the fed arrays) gives every value's shape and dtype.
  Every destination-capable step — elementwise/activation ops,
  BatchNormalization and the heavy conv / GEMM / pooling kernels — whose
  output is fully known and at least ``_ARENA_MIN_BYTES`` (4 KB; below that
  malloc is cheaper) is sized from that table, :func:`pack_intervals`
  first-fits the intervals into **one 64-byte-aligned slab**, and that
  run and every later one under the signature hand each step a
  precomputed view of it as ``out=``: no allocation, no per-step
  bookkeeping, and a working set several times smaller than the sum of
  the intermediates.  The same table says which fused tails run in place
  and what shape and dtype a bound graph output must have;
* the memory plan is computed from shapes, never observed from a run.  A
  step whose shape depends on run-time data (downstream of ``NonZero``, a
  computed ``Range`` / ``TopK`` / ``Reshape`` target) is unknown to the
  sweep, gets no view and allocates — numpy would silently broadcast a
  small result into a larger ``out=``, so nothing is ever handed a view
  on a guess.  ``tests/test_shape_table.py`` and
  ``tests/test_op_registry.py`` pin the table to the kernels;
* kernel scratch (padded input, the per-sample conv column matrix a
  strided gather fills, a pooling window's row-folded scratch, ``erf``'s
  three temporaries, staging for an aliasing destination) comes from the plan's one
  :class:`~repro.runtime.tensor_utils.Workspace`, a grow-only bump
  allocator every heavy kernel rewinds before returning — so the scratch
  of every conv lands on the same cache-hot bytes.  What a kernel derives
  from shapes and attributes alone it memoises per geometry itself, so the
  plan keeps no per-step shape state beyond the slab views.

Because every step calls the same :mod:`repro.runtime.functional` kernels as
the interpreter — only with precomputed arguments and destinations — plan
outputs are bitwise-identical to :class:`GraphExecutor` outputs, which the
differential tests in ``tests/test_execution_plan.py`` assert on the whole
model zoo.  ``GraphExecutor`` remains the semantic ground truth.

Serving traffic with a handful of distinct batch sizes is in the
zero-allocation steady state from the second run per signature (the first
builds the slab and grows the scratch).  Slab ranges are
overwritten by the next run, so nothing slab-backed ever reaches a caller:
a run returns the graph outputs only, and graph outputs are never given a
range.

Graph outputs accept caller-owned destinations via ``run(feed,
out={name: buffer})`` (surfaced as :class:`repro.runtime.session.Session`'s
``IOBinding``): a buffer that matches the table's entry is its producing
step's ``out=`` for that run, so the output is written in place and no
per-run allocation is left.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.graph.traversal import topological_sort_nodes
from repro.ir.model import Graph, Model
from repro.ir.node import OpNode
from repro.ir.dtypes import dtype_to_numpy
from repro.ir.opset import ARENA, INPLACE, BoundOp, bind, get_schema, require_supported
from repro.ir.shape_inference import sweep_shapes
from repro.runtime.executor import ExecutionError
from repro.runtime.tensor_utils import Workspace, align_up, aligned_empty

__all__ = ["ExecutionPlan", "PlanError", "land_outputs", "pack_intervals"]


class PlanError(ExecutionError):
    """Raised when a plan cannot be built or executed."""


# ---------------------------------------------------------------------------
# Memory planning
# ---------------------------------------------------------------------------
#: Outputs below this size are cheaper to malloc than to give a slab range;
#: such steps stay on the allocating path (measured crossover is well under
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

    Outputs a step already wrote in place (``values[name] is buf``) need
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


class _Memory(NamedTuple):
    """One graph-input signature's memory plan, computed from its shape table."""

    #: per step: the head's range of the signature's slab, or None (allocate)
    outs: List[Optional[np.ndarray]]
    #: per fused tail op, in ``ExecutionPlan._tails`` order: run on the chain buffer
    in_place: List[bool]
    #: per bindable graph output: the ``(shape, dtype)`` its step's head
    #: returns, or None when the table does not fully know it
    bound_specs: Dict[str, Optional[Tuple]]
    slab_bytes: int
    intermediate_bytes: int


# ---------------------------------------------------------------------------
# Step construction
# ---------------------------------------------------------------------------
class _TailOp:
    """One fused elementwise/activation op applied on the chain buffer.

    ``in_place`` is the active signature's decision (the plan sets it from
    the shape table): the op's result has the chain's shape and dtype, so
    it runs on the chain buffer, which is private to the fused step (the
    fused intermediate has exactly one consumer and is not a graph output).
    """

    __slots__ = ("kernel", "other_name", "chain_first", "in_place")

    def __init__(self, kernel: Callable, other_name: Optional[str],
                 chain_first: bool) -> None:
        self.kernel = kernel
        self.other_name = other_name
        self.chain_first = chain_first
        self.in_place = False

    def apply(self, values: Dict[str, np.ndarray], chain: np.ndarray) -> np.ndarray:
        if self.other_name is None:
            args = (chain,)
        else:
            other = values[self.other_name]
            args = (chain, other) if self.chain_first else (other, chain)
        # In-place needs a real ndarray destination — numpy scalars (e.g. a
        # keepdims=0 reduction head) report shape/dtype but cannot be
        # ``out=`` targets.
        if self.in_place and type(chain) is np.ndarray:
            return self.kernel(args, chain)
        return np.asarray(self.kernel(args, None))


def _make_head(bound: BoundOp, in_names: Sequence[str]) -> Callable:
    """``head(values, out)``: the node's kernel on its named inputs.

    ``out`` is the step's destination for this run — its range of the
    signature's slab, or a caller-bound graph-output buffer — or None, and
    always None for a kernel that takes no destination.
    """
    in_names = tuple(in_names)
    kernel = bound.call
    if bound.out is None:
        if bound.multi:  # a multi-output op with one named output: keep the first
            return lambda values, out: kernel([values[n] for n in in_names])[0]
        return lambda values, out: kernel([values[n] for n in in_names])
    return lambda values, out: kernel([values[n] for n in in_names], out)


def _make_step(head: Callable, tail: List[_TailOp], out_name: str) -> Callable:
    """Compile one single-output step: ``head`` then the fused ``tail``."""
    if not tail:
        def step(values, out):
            values[out_name] = head(values, out)
    else:
        def step(values, out):
            chain = head(values, out)
            for op in tail:
                chain = op.apply(values, chain)
            values[out_name] = chain
    return step


def _make_multi_step(kernel: Callable, in_names: Sequence[str],
                     out_names: Sequence[str]) -> Callable:
    in_names = tuple(in_names)
    out_names = tuple(out_names)

    def step(values, out):
        results = kernel([values[n] for n in in_names])
        for name, value in zip(out_names, results):
            if name:
                values[name] = value

    return step


# ---------------------------------------------------------------------------
# The plan
# ---------------------------------------------------------------------------
class ExecutionPlan:
    """A precompiled, reusable execution schedule for one IR model.

    Parameters
    ----------
    model:
        An IR :class:`Model` or bare :class:`Graph`.
    fuse:
        Fuse single-consumer elementwise/activation tails into their
        producer's step (disable for 1:1 node<->step tracing, e.g. when
        profiling).

    An op without a handler raises :class:`PlanError` at build time.

    A plan is cheap to build (one topological sort plus one closure per
    node) and safe to run repeatedly; runs are serialized by an internal
    lock because the slabs and the scratch workspace are per-plan state.
    """

    def __init__(self, model, fuse: bool = True) -> None:
        self.graph: Graph = model.graph if isinstance(model, Model) else model
        self.model_name = model.name if isinstance(model, Model) else self.graph.name
        order = topological_sort_nodes(self.graph)
        require_supported(order, PlanError)
        # Heavy kernels rewind the workspace before returning and steps run
        # one at a time under the plan lock, so one provider serves all.
        self._workspace = Workspace()
        #: graph-input signature -> its memory plan
        self._memory: Dict[Tuple, _Memory] = {}
        self._lock = threading.Lock()
        self.fused = fuse
        self._build(order, fuse)
        #: the step loop actually executed by :meth:`run`.  The untraced
        #: loop is compiled once here; :meth:`enable_tracing` swaps in a
        #: separately compiled traced loop, so the default hot path never
        #: pays a per-step tracing branch — only one attribute load per run.
        self._exec_untraced = self._compile_exec()
        self._exec = self._exec_untraced
        self._tracer = None

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def _build(self, order: List[OpNode], fuse: bool) -> None:
        graph = self.graph
        output_set = set(graph.output_names)
        bound = {node.name: bind(node, PlanError, self._workspace) for node in order}
        producer_index: Dict[str, int] = {}
        uses: Dict[str, int] = {}
        consumer: Dict[str, Tuple[int, OpNode]] = {}
        for name in list(graph.input_names) + list(graph.initializers):
            producer_index[name] = -1
        for index, node in enumerate(order):
            for name in node.present_inputs:
                uses[name] = uses.get(name, 0) + 1
                consumer[name] = (index, node)
            for name in node.outputs:
                if name:
                    producer_index[name] = index
        for name in output_set:
            uses[name] = uses.get(name, 0) + 1

        def single_output(node: OpNode) -> Optional[str]:
            outs = [o for o in node.outputs if o]
            return outs[0] if len(outs) == 1 else None

        # -- fusion: absorb single-consumer out-capable tails ----------
        max_tail = 8
        absorbed: Dict[str, OpNode] = {}  # node name -> chain head node
        chains: Dict[str, List[OpNode]] = {}
        if fuse:
            for index, node in enumerate(order):
                if node.name in absorbed or get_schema(node.op_type).aliases:
                    continue
                head_out = single_output(node)
                if head_out is None:
                    continue
                tail_nodes: List[OpNode] = []
                current_out = head_out
                while len(tail_nodes) < max_tail:
                    if uses.get(current_out, 0) != 1 or current_out in output_set:
                        break
                    cons_index, cons = consumer[current_out]
                    cons_out = single_output(cons)
                    if cons_out is None or bound[cons.name].out != INPLACE:
                        break
                    operands = cons.present_inputs
                    if operands.count(current_out) != 1 or len(operands) > 2:
                        break
                    # Every other operand must already be computed when the
                    # fused step runs at the head's position in the order.
                    others = [n for n in operands if n != current_out]
                    if any(producer_index.get(n, index) >= index for n in others):
                        break
                    tail_nodes.append(cons)
                    absorbed[cons.name] = node
                    current_out = cons_out
                if tail_nodes:
                    chains[node.name] = tail_nodes

        # -- steps -----------------------------------------------------
        steps: List[Callable] = []
        step_nodes: List[List[OpNode]] = []
        step_reads: List[List[str]] = []
        step_writes: List[List[str]] = []
        for node in order:
            if node.name in absorbed:
                continue
            tail_nodes = chains.get(node.name, [])
            nodes = [node] + tail_nodes
            reads = list(node.present_inputs)
            fused_away = {single_output(n) for n in nodes[:-1]} if tail_nodes else set()
            for tail_node in tail_nodes:
                reads.extend(n for n in tail_node.present_inputs
                             if n not in fused_away)
            final_out = single_output(nodes[-1])
            writes = ([final_out] if tail_nodes
                      else [o for o in node.outputs if o])
            step_nodes.append(nodes)
            step_reads.append(reads)
            step_writes.append(writes)

        # -- storage groups and liveness -------------------------------
        storage_of: Dict[str, int] = {}
        storage_recyclable: List[bool] = []

        def new_storage(name: str, recyclable: bool) -> int:
            storage_of[name] = len(storage_recyclable)
            storage_recyclable.append(recyclable)
            return storage_of[name]

        for name in list(graph.input_names) + list(graph.initializers):
            new_storage(name, recyclable=False)
        for nodes, writes in zip(step_nodes, step_writes):
            producer = nodes[-1] if len(nodes) > 1 else nodes[0]
            for name in writes:
                if get_schema(producer.op_type).aliases and producer.present_inputs:
                    # Join the input's storage group so the whole group's
                    # liveness governs recycling.  (The base is always known
                    # here — fused intermediates have a single, non-alias
                    # consumer — but fall back to a fresh non-recyclable
                    # storage rather than corrupting the grouping.)
                    base = producer.present_inputs[0]
                    sid = storage_of.get(base)
                    if sid is None:
                        sid = new_storage(base, recyclable=False)
                    storage_of[name] = sid
                else:
                    new_storage(name, recyclable=True)
        for name in output_set:
            sid = storage_of.get(name)
            if sid is not None:
                storage_recyclable[sid] = False

        last_use: Dict[int, int] = {}
        for step_index, (reads, writes) in enumerate(zip(step_reads, step_writes)):
            for name in reads + writes:
                sid = storage_of.get(name)
                if sid is not None:
                    last_use[sid] = step_index

        # -- compile steps to closures ---------------------------------
        self._heavy_step_count = 0
        #: per step: the last step reading its output's storage when the
        #: step may compute into a slab range, else None
        slot_last_use: List[Optional[int]] = []
        #: per step: the value its head produces (what a destination holds)
        head_outputs: List[Optional[str]] = []
        #: every fused tail op with its (chain, result) value names, whose
        #: table entries decide whether it runs in place
        self._tails: List[Tuple[_TailOp, str, str]] = []
        #: bindable graph output -> the step whose head can write it
        self._bound_steps: Dict[str, int] = {}
        for nodes, writes in zip(step_nodes, step_writes):
            node = nodes[0]
            head_bound = bound[node.name]
            if len(writes) != 1:
                steps.append(_make_multi_step(head_bound.call, node.present_inputs,
                                              node.outputs))
                slot_last_use.append(None)
                head_outputs.append(None)
                continue
            tail = []
            chain_value = single_output(node)
            for tail_node in nodes[1:]:
                kernel = bound[tail_node.name].call
                operands = tail_node.present_inputs
                if len(operands) == 1:
                    tail.append(_TailOp(kernel, None, True))
                else:
                    chain_first = operands[0] == chain_value
                    other = operands[1] if chain_first else operands[0]
                    tail.append(_TailOp(kernel, other, chain_first))
                self._tails.append((tail[-1], chain_value, single_output(tail_node)))
                chain_value = single_output(tail_node)
            # Elementwise/activation and heavy conv/GEMM/pooling heads
            # whose storage recycles compute into the slab; destination-
            # capable producers of graph outputs (which must stay private
            # to the caller) into a bound buffer; alias ops, Constant and
            # the long tail allocate, and a bound output of theirs is
            # finalized by an end-of-run copy.
            sid = storage_of[writes[0]]
            slotted = (head_bound.out in (INPLACE, ARENA)
                       and storage_recyclable[sid])
            slot_last_use.append(last_use[sid] if slotted else None)
            head_outputs.append(single_output(node))
            if head_bound.out == ARENA:
                self._heavy_step_count += 1
            if head_bound.out is not None and writes[0] in output_set:
                self._bound_steps[writes[0]] = len(steps)
            steps.append(_make_step(_make_head(head_bound, node.present_inputs),
                                    tail, writes[0]))

        self._order = order
        self._steps = steps
        self._step_nodes = step_nodes
        self._slot_last_use = slot_last_use
        self._head_outputs = head_outputs
        #: the memory plan whose in-place decisions the tail ops hold
        self._active: Optional[_Memory] = None
        #: per-step span labels + args, precomputed at build time so the
        #: traced loop emits without any per-step string formatting
        self._step_labels: List[str] = []
        self._step_span_args: List[Dict[str, str]] = []
        for nodes in step_nodes:
            head = nodes[0]
            self._step_labels.append(f"{head.op_type}:{head.name}")
            span_args = {"op": head.op_type, "node": head.name}
            if len(nodes) > 1:
                span_args["fused"] = "+".join(n.op_type for n in nodes[1:])
            self._step_span_args.append(span_args)
        self._init_values = dict(graph.initializers)
        self._init_arrays = [array for array in self._init_values.values()
                             if isinstance(array, np.ndarray)]
        #: bound-output buffers already cleared against the (immutable)
        #: initializer set, so a warm binding loop pays the O(#weights)
        #: overlap sweep once per buffer, not per run.  Identity-checked
        #: weakrefs, so a freed buffer can never be confused with a new
        #: array reusing its ``id``.
        self._init_safe: Dict[int, "weakref.ref"] = {}
        self._input_names = list(graph.input_names)
        self._output_names = list(graph.output_names)
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
        """Attach ``tracer`` and swap in the traced step loop.

        The traced loop is a separate closure compiled here — one span per
        step (category ``"plan"``, label ``"OpType:node_name"``, fused
        tails named in the span args) via ``perf_counter_ns``.  The
        untraced loop is untouched, so detaching restores the exact
        default hot path.
        """
        if tracer is None:
            self.disable_tracing()
            return
        self._tracer = tracer
        self._exec = self._compile_exec(tracer)

    def disable_tracing(self) -> None:
        """Detach the tracer and restore the untraced step loop."""
        self._tracer = None
        self._exec = self._exec_untraced

    # ------------------------------------------------------------------
    # Step-loop compilation
    # ------------------------------------------------------------------
    def _step_failure(self, step_index: int, exc: BaseException) -> PlanError:
        """Wrap a step failure with node context (KeyError = fused-away)."""
        nodes = self._step_nodes[step_index]
        if isinstance(exc, KeyError):
            return PlanError(
                f"step for node {nodes[0].name} ({nodes[0].op_type}) requires "
                f"value {exc} which has not been computed (it may have been "
                "fused away)")
        names = "+".join(n.name for n in nodes)
        return PlanError(
            f"planned execution of {names} ({nodes[0].op_type}) failed: {exc}")

    def _compile_exec(self, tracer=None) -> Callable:
        """Compile the step loop into a closure over the plan's tables.

        With ``tracer=None`` this is the default loop; with a tracer, each
        step is bracketed by ``perf_counter_ns`` reads and emitted as one
        span.  Both wrap a failing step's error with its node context.
        """
        steps = self._steps

        if tracer is None:
            def run_steps(values, outs):
                step_index = 0
                try:
                    for step_index, step in enumerate(steps):
                        step(values, outs[step_index])
                except ExecutionError:
                    raise
                except Exception as exc:  # noqa: BLE001 - add node context
                    raise self._step_failure(step_index, exc) from exc
            return run_steps

        labels = self._step_labels
        span_args = self._step_span_args
        emit = tracer.emit
        now = time.perf_counter_ns

        def run_steps_traced(values, outs):
            step_index = 0
            try:
                for step_index, step in enumerate(steps):
                    start_ns = now()
                    step(values, outs[step_index])
                    emit(labels[step_index], "plan", start_ns, now(),
                         args=span_args[step_index])
            except ExecutionError:
                raise
            except Exception as exc:  # noqa: BLE001 - add node context
                raise self._step_failure(step_index, exc) from exc
        return run_steps_traced

    def _plan_memory(self, fed: Dict[str, np.ndarray]) -> _Memory:
        """Compute the memory plan of the signature ``fed`` belongs to.

        One shape sweep over the plan's own order, seeded from the fed
        arrays, gives every value's ``(shape, dtype)``.  A slab-capable
        step whose head output is fully known and at least
        ``_ARENA_MIN_BYTES`` gets a range of one packed slab; a step the
        sweep does not fully know (its shape depends on run-time data)
        gets none and allocates.
        """
        try:
            table = sweep_shapes(self.graph, self._order, fed)
        except ValueError:  # a fed dtype the IR has no name for: nothing is known
            table = {}

        specs = {name: (info.shape, dtype_to_numpy(info.dtype))
                 for name, info in table.items() if info.is_static()}
        sized = [(index, last, table[name].nbytes)
                 for index, (last, name) in enumerate(zip(self._slot_last_use,
                                                          self._head_outputs))
                 if last is not None and name in specs
                 and table[name].nbytes >= _ARENA_MIN_BYTES]
        offsets, total = pack_intervals(sized)
        slab = aligned_empty(total)
        outs: List[Optional[np.ndarray]] = [None] * len(self._steps)
        for (index, _, _), offset in zip(sized, offsets):
            outs[index] = np.ndarray(*specs[self._head_outputs[index]], slab, offset)
        in_place = [chain in specs and specs[chain] == specs.get(result)
                    for _, chain, result in self._tails]
        bound_specs = {name: specs.get(self._head_outputs[index])
                       for name, index in self._bound_steps.items()}
        return _Memory(outs, in_place, bound_specs, total,
                       sum(nbytes for _, _, nbytes in sized))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, inputs: Mapping[str, np.ndarray],
            out: Optional[Mapping[str, np.ndarray]] = None) -> Dict[str, np.ndarray]:
        """Execute the plan and return the graph outputs.

        Every run executes under its graph-input signature's memory plan.
        ``out`` maps graph-output names to caller-owned destination
        buffers.  Destination-capable producers write the output directly
        into a buffer of the shape and dtype the signature's shape table
        expects (no per-run graph-output allocation); everything else is
        finalized with an end-of-run copy (:func:`land_outputs`).  A buffer
        overlapping any input array is only written after every step has
        run, so binding an output over an input is safe.  Shape/dtype
        mismatches raise :class:`PlanError`.
        """
        with self._lock:
            return self._run_locked(inputs, out)

    def _run_locked(self, inputs, out) -> Dict[str, np.ndarray]:
        values: Dict[str, np.ndarray] = dict(self._init_values)
        for name in self._input_names:
            if name not in inputs:
                raise PlanError(f"missing graph input {name!r}")
        for name, array in inputs.items():
            values[name] = np.asarray(array)

        # The memory plan of this feed's signature: graph inputs in graph
        # order, then any other fed name (an overridden initializer) — one
        # feed, one signature, whatever order the caller's dict has.
        names = self._input_names
        if len(inputs) != len(names):
            names = names + sorted(set(inputs).difference(names))
        signature = tuple([(name, values[name].shape, values[name].dtype)
                           for name in names])
        memory = self._memory.get(signature)
        if memory is None:
            memory = self._plan_memory({name: values[name] for name in names})
        if memory is not self._active:
            for (op, _, _), in_place in zip(self._tails, memory.in_place):
                op.in_place = in_place
            self._active = memory
        outs = memory.outs

        # Caller-bound output destinations, all finalized below.  A buffer
        # overlapping an initializer is rejected outright — even a deferred
        # copy into it would corrupt the weights of every subsequent run.
        # A buffer that matches what its step's head returns is that step's
        # ``out=`` for this run (fused tails then apply in place on it, so
        # the chain's final value *is* the buffer) — unless it may alias an
        # input or another destination: writing it mid-run could corrupt
        # values later steps still read (or each other), so such a buffer
        # is only written by the end-of-run copy.
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
            feeds = [values[name] for name in self._input_names]
            for name, buf in bound.items():
                if (type(buf) is np.ndarray
                        and memory.bound_specs.get(name) == (buf.shape, buf.dtype)
                        and not any(np.may_share_memory(buf, other) for other in
                                    feeds + [b for n, b in bound.items() if n != name])):
                    outs[self._bound_steps[name]] = buf

        self._exec(values, outs)
        self._memory[signature] = memory  # kept once a run under it succeeded

        if bound:
            copies = land_outputs(values, bound)
            self._dest_direct_writes += len(bound) - copies
            self._dest_copy_writes += copies
        return {name: values[name] for name in self._output_names}

    # ------------------------------------------------------------------
    # Introspection / interop
    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """Plan shape and memory-plan counters.

        ``arena["allocations"]`` counts slab builds plus scratch-buffer
        allocations and stays flat once every signature in use has run
        once; ``slab_bytes`` against ``intermediate_bytes`` (the summed
        sizes of the outputs the slabs hold) is the packing ratio.
        """
        return {
            "model": self.model_name,
            "nodes": len(self._order),
            "steps": len(self._steps),
            "fused_nodes": len(self._tails),
            "arena_steps": sum(last is not None for last in self._slot_last_use),
            "heavy_steps": self._heavy_step_count,
            "tracing": self._tracer is not None,
            "arena": {
                "allocations": len(self._memory) + self._workspace.allocations,
                "signatures": len(self._memory),
                "slab_bytes": sum(m.slab_bytes for m in self._memory.values()),
                "intermediate_bytes": sum(m.intermediate_bytes
                                          for m in self._memory.values()),
            },
            "output_binding": {
                "bindable_outputs": len(self._bound_steps),
                "direct_writes": self._dest_direct_writes,
                "copy_writes": self._dest_copy_writes,
            },
        }

