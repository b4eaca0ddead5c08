"""Compile-once execution plans: fused dispatch, buffer arena, zero-realloc hot path.

:class:`ExecutionPlan` is the planned counterpart of
:class:`repro.runtime.executor.GraphExecutor`.  The interpreter redoes three
kinds of call-invariant work on every request:

1. **dispatch** — per-node argument marshalling and output bookkeeping,
2. **allocation** — a fresh numpy array for every intermediate value,
3. **bookkeeping** — timing guards and error-context wrapping per node.

The plan does that work once at build time instead:

* every node is bound once by :func:`repro.ir.opset.bind` — the same
  closure over the operator's kernel the interpreter runs, attributes
  normalised from the one operator declaration — and the declaration's
  capability flags (aliases its input, exact in-place ``out=``, arena
  destination, output-only destination, takes ``workspace=``) decide how a
  step may use it;
* a liveness analysis over the topological order assigns recyclable
  intermediates to a buffer **arena** keyed by ``(shape, dtype)`` slots —
  once a value's last consumer has run, its buffer returns to the arena and
  is handed to the next step that needs that slot, so the steady-state hot
  path performs no allocations for elementwise work;
* single-consumer elementwise/activation tails (``Conv -> Add -> Relu`` and
  friends) are **fused** into their producer's step and applied in place on
  the producer's output buffer via the ``out=`` destination-passing support
  of :mod:`repro.runtime.functional`;
* the **heavy operators** — conv (incl. grouped/depthwise/transposed),
  GEMM/MatMul and the pooling kernels — also run destination-passing:
  their outputs come from the same liveness-managed arena, and their
  internal scratch (padded input, the per-sample conv column matrix, the
  depthwise product buffer, staging for an aliasing destination) is
  leased per call from arena-backed per-node workspaces, shared across
  nodes by ``(shape, dtype)`` slot.  The kernels read weights through free
  views, so the warm hot path is allocation-free end to end, heavy ops
  included.

Because every step calls the same :mod:`repro.runtime.functional` kernels as
the interpreter — only with precomputed arguments and destinations — plan
outputs are bitwise-identical to :class:`GraphExecutor` outputs, which the
differential tests in ``tests/test_execution_plan.py`` assert on the whole
model zoo.  ``GraphExecutor`` remains the semantic ground truth.

Shape specialization is lazy: the first run under a given input signature
executes without destinations and records each step's observed output shape
and dtype; subsequent runs under the same signature reuse arena buffers.
Serving traffic with a handful of distinct batch sizes therefore reaches the
zero-realloc steady state after one warm run per signature.

Graph outputs — which must stay private to the caller and therefore never
come from the arena — accept caller-owned destinations via ``run(feed,
out={name: buffer})`` (surfaced as :class:`repro.runtime.session.Session`'s
``IOBinding``): destination-capable producers write the output in place,
closing the last per-run allocation of the warm hot path.
"""

from __future__ import annotations

import threading
import time
import types
import weakref
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.graph.traversal import topological_sort_nodes
from repro.ir.model import Graph, Model
from repro.ir.node import OpNode
from repro.ir.opset import ARENA, INPLACE, BoundOp, bind, get_schema, require_supported
from repro.runtime.executor import ExecutionError

__all__ = ["ExecutionPlan", "PlanError"]


class PlanError(ExecutionError):
    """Raised when a plan cannot be built or executed."""


class _ArenaWorkspace:
    """Scratch provider backed by the plan's buffer arena.

    Implements the ``take``/``reset`` protocol of
    :class:`repro.runtime.tensor_utils.Workspace`, but leases buffers from
    the shared ``(shape, dtype)`` arena pools — so the conv column
    matrices and padded inputs of *different* nodes share
    storage whenever their slots match, and the warm steady state performs
    zero scratch allocations.  Heavy kernels reset the workspace before
    returning, which releases every leased buffer back to the arena.
    """

    __slots__ = ("_arena", "_taken")

    def __init__(self, arena: "_Arena") -> None:
        self._arena = arena
        self._taken: List[np.ndarray] = []

    def take(self, shape, dtype=np.float32) -> np.ndarray:
        buffer = self._arena.acquire(tuple(int(s) for s in shape),
                                     np.dtype(dtype))
        self._taken.append(buffer)
        return buffer

    def reset(self) -> None:
        taken, self._taken = self._taken, []
        for buffer in taken:
            self._arena.release(buffer)


# ---------------------------------------------------------------------------
# Buffer arena
# ---------------------------------------------------------------------------
class _Arena:
    """Pools of reusable buffers keyed by ``(shape, dtype)`` slots.

    Only buffers the arena itself allocated (or adopted after a first,
    specializing run) are ever recycled; kernel-allocated arrays pass
    through untouched.  Ownership is tracked with identity-checked weak
    references so a garbage-collected buffer can never be confused with an
    unrelated array that reuses its ``id``.
    """

    __slots__ = ("pools", "owned", "allocations", "reuses", "__weakref__")

    def __init__(self) -> None:
        self.pools: Dict[Tuple, List[np.ndarray]] = {}
        self.owned: Dict[int, "weakref.ref"] = {}
        self.allocations = 0
        self.reuses = 0

    def acquire(self, shape: Tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        pool = self.pools.get((shape, dtype))
        if pool:
            self.reuses += 1
            return pool.pop()
        self.allocations += 1
        buffer = np.empty(shape, dtype)
        self.adopt(buffer)
        return buffer

    def adopt(self, array: np.ndarray) -> None:
        key = id(array)

        def drop(ref, key=key, owned=self.owned):
            if owned.get(key) is ref:
                del owned[key]

        self.owned[key] = weakref.ref(array, drop)

    def is_owned(self, array: np.ndarray) -> bool:
        ref = self.owned.get(id(array))
        return ref is not None and ref() is array

    def release(self, array: np.ndarray) -> None:
        if self.is_owned(array):
            self.pools.setdefault((array.shape, array.dtype), []).append(array)

    def stats(self) -> Dict[str, int]:
        return {
            "allocations": self.allocations,
            "reuses": self.reuses,
            "slots": len(self.pools),
            "pooled": sum(len(pool) for pool in self.pools.values()),
        }


# ---------------------------------------------------------------------------
# Step construction
# ---------------------------------------------------------------------------
#: Buffers below this size are cheaper to malloc than to round-trip through
#: the arena's bookkeeping; steps whose output is smaller stay on the plain
#: allocating path (measured crossover is well under one 4 KB page).
_ARENA_MIN_BYTES = 4096

_MISSING = object()


class _TailOp:
    """One fused elementwise/activation op applied on the chain buffer.

    The first execution under a given input signature runs out-of-place and
    records whether the result matches the chain buffer's shape and dtype;
    when it does, subsequent executions run in place on the chain buffer,
    which is private to the fused step (the fused intermediate has exactly
    one consumer and is not a graph output).  The last-seen signature is
    kept in dedicated slots so the steady state compares shapes directly
    instead of building a key tuple per call.
    """

    __slots__ = ("kernel", "other_name", "chain_first", "spec",
                 "last_key", "last_in_place")

    def __init__(self, kernel: Callable, other_name: Optional[str],
                 chain_first: bool) -> None:
        self.kernel = kernel
        self.other_name = other_name
        self.chain_first = chain_first
        self.spec: Dict[Tuple, bool] = {}
        self.last_key: Optional[Tuple] = None
        self.last_in_place = False

    def apply(self, values: Dict[str, np.ndarray], chain: np.ndarray) -> np.ndarray:
        if self.other_name is None:
            args = (chain,)
            key = (chain.shape, chain.dtype)
        else:
            other = values[self.other_name]
            args = (chain, other) if self.chain_first else (other, chain)
            key = (chain.shape, chain.dtype, other.shape, other.dtype)
        if key == self.last_key:
            if self.last_in_place:
                return self.kernel(args, chain)
            return np.asarray(self.kernel(args, None))
        in_place = self.spec.get(key, _MISSING)
        if in_place is _MISSING:
            result = np.asarray(self.kernel(args, None))
            # In-place needs a real, matching ndarray destination — numpy
            # scalars (e.g. a keepdims=0 reduction head) report shape/dtype
            # but cannot be ``out=`` targets.
            in_place = (type(chain) is np.ndarray
                        and result.shape == chain.shape
                        and result.dtype == chain.dtype)
            self.spec[key] = in_place
            self.last_key, self.last_in_place = key, in_place
            return result
        self.last_key, self.last_in_place = key, in_place
        if in_place:
            return self.kernel(args, chain)
        return np.asarray(self.kernel(args, None))


def _make_plain_head(bound: BoundOp, in_names: Sequence[str]) -> Callable:
    in_names = tuple(in_names)
    kernel = bound.call
    if bound.multi:  # a multi-output op with one named output: keep the first
        return lambda values: kernel([values[n] for n in in_names])[0]
    if len(in_names) == 1:
        name = in_names[0]
        return lambda values: kernel((values[name],))
    return lambda values: kernel([values[n] for n in in_names])


def _make_arena_head(out_kernel: Callable, in_names: Sequence[str],
                     arena: _Arena) -> Callable:
    """A head that computes into an arena buffer once specialized.

    The first run under an input signature executes without a destination
    and records the observed output slot; when the output is big enough to
    be worth recycling, the fresh result is adopted into the arena and
    later runs under the same signature acquire a pooled buffer for the
    slot and pass it as ``out=``.  Small outputs stay on the plain
    allocating path — malloc is cheaper than arena bookkeeping there.
    """
    in_names = tuple(in_names)
    spec: Dict[Tuple, Optional[Tuple]] = {}

    def specialize(args, key):
        result = np.asarray(out_kernel(args, None))
        if result.nbytes >= _ARENA_MIN_BYTES:
            spec[key] = (result.shape, result.dtype)
            arena.adopt(result)
        else:
            spec[key] = None
        return result

    if len(in_names) == 1:
        name = in_names[0]

        def head(values):
            a = values[name]
            key = (a.shape, a.dtype)
            slot = spec.get(key, _MISSING)
            if slot is _MISSING:
                return specialize((a,), key)
            if slot is None:
                return np.asarray(out_kernel((a,), None))
            return out_kernel((a,), arena.acquire(*slot))
    elif len(in_names) == 2:
        name_a, name_b = in_names

        def head(values):
            a = values[name_a]
            b = values[name_b]
            key = (a.shape, a.dtype, b.shape, b.dtype)
            slot = spec.get(key, _MISSING)
            if slot is _MISSING:
                return specialize((a, b), key)
            if slot is None:
                return np.asarray(out_kernel((a, b), None))
            return out_kernel((a, b), arena.acquire(*slot))
    else:
        def head(values):
            args = [values[n] for n in in_names]
            key = tuple((a.shape, a.dtype) for a in args)
            slot = spec.get(key, _MISSING)
            if slot is _MISSING:
                return specialize(args, key)
            if slot is None:
                return np.asarray(out_kernel(args, None))
            return out_kernel(args, arena.acquire(*slot))

    return head


def _make_dest_head(kernel: Callable, in_names: Sequence[str]) -> Callable:
    """A head that computes straight into a caller-bound output buffer.

    Like :func:`_make_arena_head`, the first run under an input signature
    executes without a destination and records the observed output slot;
    once specialized, a matching bound buffer is passed as ``out=`` and the
    kernel writes the graph output in place — no per-run allocation, no
    end-of-run copy.  A mismatched buffer falls back to the allocating
    path; the run-level finalization then copies (and reports the shape or
    dtype error).
    """
    in_names = tuple(in_names)
    spec: Dict[Tuple, Tuple] = {}

    def head(values, buf):
        args = [values[n] for n in in_names]
        key = tuple((a.shape, a.dtype) for a in args)
        slot = spec.get(key)
        if slot is None:
            result = np.asarray(kernel(args, None))
            spec[key] = (result.shape, result.dtype)
            return result
        if (type(buf) is np.ndarray and buf.shape == slot[0]
                and buf.dtype == slot[1]):
            return kernel(args, buf)
        return np.asarray(kernel(args, None))

    return head


def _make_step(head: Callable, tail: List[_TailOp], out_name: str,
               dest_head: Optional[Callable] = None) -> Callable:
    """Compile one step; ``dest`` maps graph-output names to bound buffers.

    Steps that produce a graph output through a destination-capable head
    consult ``dest`` and compute directly into the bound buffer; fused
    tails then apply in place on it, so the chain's final value *is* the
    caller's buffer in the warm steady state.
    """
    if dest_head is None:
        if not tail:
            def step(values, dest):
                values[out_name] = head(values)
        else:
            def step(values, dest):
                chain = head(values)
                for op in tail:
                    chain = op.apply(values, chain)
                values[out_name] = chain
    else:
        if not tail:
            def step(values, dest):
                buf = dest.get(out_name)
                if buf is None:
                    values[out_name] = head(values)
                else:
                    values[out_name] = dest_head(values, buf)
        else:
            def step(values, dest):
                buf = dest.get(out_name)
                chain = head(values) if buf is None else dest_head(values, buf)
                for op in tail:
                    chain = op.apply(values, chain)
                values[out_name] = chain
    return step


def _make_multi_step(kernel: Callable, in_names: Sequence[str],
                     out_names: Sequence[str]) -> Callable:
    in_names = tuple(in_names)
    out_names = tuple(out_names)

    def step(values, dest):
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
    check_supported:
        Raise at build time for ops without a handler.
    heavy_out:
        Route the heavy operators (conv / GEMM / pooling) through their
        destination-passing kernels with arena-backed workspaces.  Disable
        to get the PR-3-era behaviour where heavy nodes allocate their
        outputs and scratch per run (used as the baseline by the
        throughput benchmark).

    A plan is cheap to build (one topological sort plus one closure per
    node) and safe to run repeatedly; runs are serialized by an internal
    lock because the buffer arena is per-plan state.
    """

    def __init__(self, model, fuse: bool = True, check_supported: bool = True,
                 heavy_out: bool = True, tracer=None) -> None:
        self.graph: Graph = model.graph if isinstance(model, Model) else model
        self.model_name = model.name if isinstance(model, Model) else self.graph.name
        order = topological_sort_nodes(self.graph)
        if check_supported:
            require_supported(order, PlanError)
        self._arena = _Arena()
        self._lock = threading.Lock()
        self._cluster_module = None
        self.fused = fuse
        self.heavy_out = heavy_out
        self._build(order, fuse)
        #: the step loop actually executed by :meth:`run`.  The untraced
        #: loop is compiled once here; :meth:`enable_tracing` swaps in a
        #: separately compiled traced loop, so the default hot path never
        #: pays a per-step tracing branch — only one attribute load per run.
        self._exec_untraced = self._compile_exec()
        self._exec = self._exec_untraced
        self._tracer = None
        if tracer is not None:
            self.enable_tracing(tracer)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def _build(self, order: List[OpNode], fuse: bool) -> None:
        graph = self.graph
        output_set = set(graph.output_names)
        # Heavy kernels reset their workspace before returning and steps
        # run one at a time under the plan lock, so one provider serves all.
        workspace = _ArenaWorkspace(self._arena) if self.heavy_out else None
        bound = {node.name: bind(node, PlanError, workspace) for node in order}
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
        storage_owner: List[str] = []
        storage_recyclable: List[bool] = []

        def new_storage(name: str, recyclable: bool) -> int:
            storage_of[name] = len(storage_owner)
            storage_owner.append(name)
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
        release_after: List[List[str]] = [[] for _ in step_nodes]
        for sid, step_index in last_use.items():
            if storage_recyclable[sid]:
                release_after[step_index].append(storage_owner[sid])

        # -- compile steps to closures ---------------------------------
        fused_node_count = 0
        self._arena_step_count = 0
        self._heavy_step_count = 0
        self._bindable_outputs = 0
        for nodes, writes in zip(step_nodes, step_writes):
            node = nodes[0]
            tail_nodes = nodes[1:]
            if tail_nodes:
                fused_node_count += len(tail_nodes)
                tail = []
                chain_value = single_output(node)
                for tail_node in tail_nodes:
                    kernel = bound[tail_node.name].call
                    operands = tail_node.present_inputs
                    if len(operands) == 1:
                        tail.append(_TailOp(kernel, None, True))
                    else:
                        chain_first = operands[0] == chain_value
                        other = operands[1] if chain_first else operands[0]
                        tail.append(_TailOp(kernel, other, chain_first))
                    chain_value = single_output(tail_node)
                head = self._make_head(node, bound[node.name], writes[0],
                                       storage_of, storage_recyclable)
                if head is None:
                    head = _make_plain_head(bound[node.name], node.present_inputs)
                dest_head = self._make_output_dest_head(node, bound[node.name],
                                                        writes[0], output_set)
                steps.append(_make_step(head, tail, writes[0], dest_head))
            else:
                out_names = [o for o in node.outputs if o]
                if len(out_names) == 1:
                    head = self._make_head(node, bound[node.name], out_names[0],
                                           storage_of, storage_recyclable)
                    if head is None:
                        head = _make_plain_head(bound[node.name],
                                                node.present_inputs)
                    dest_head = self._make_output_dest_head(
                        node, bound[node.name], out_names[0], output_set)
                    steps.append(_make_step(head, [], out_names[0], dest_head))
                else:
                    steps.append(_make_multi_step(bound[node.name].call,
                                                  node.present_inputs,
                                                  node.outputs))

        self._steps = steps
        self._step_nodes = step_nodes
        self._release_after = release_after
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
        self._num_nodes = len(order)
        self._fused_node_count = fused_node_count
        self._init_values = dict(graph.initializers)
        self._init_arrays = [array for array in self._init_values.values()
                             if isinstance(array, np.ndarray)]
        #: bound-output buffers already cleared against the (immutable)
        #: initializer set, so a warm binding loop pays the O(#weights)
        #: overlap sweep once per buffer, not per run.  Identity-checked
        #: weakrefs, as in :class:`_Arena`, so a freed buffer can never be
        #: confused with a new array reusing its ``id``.
        self._init_safe: Dict[int, "weakref.ref"] = {}
        self._input_names = list(graph.input_names)
        self._output_names = list(graph.output_names)
        self._output_set = output_set
        self._storage_of = storage_of
        self._dest_direct_writes = 0
        self._dest_copy_writes = 0

    def _make_output_dest_head(self, node: OpNode, bound: BoundOp, out_name: str,
                               output_set: set) -> Optional[Callable]:
        """A caller-destination head for graph-output producers, else None.

        Covers every out-capable elementwise/activation op, the heavy
        conv/GEMM/pooling kernels (when ``heavy_out`` is on) and the
        output-only destination kernels (Softmax/LogSoftmax/Concat).
        Producers without destination support (alias ops, Constant, the
        long tail) return None; their bound outputs are finalized by an
        end-of-run copy instead.
        """
        if out_name not in output_set or bound.out is None:
            return None
        if bound.out == ARENA and not self.heavy_out:
            return None
        self._bindable_outputs += 1
        return _make_dest_head(bound.call, node.present_inputs)

    def _make_head(self, node: OpNode, bound: BoundOp, out_name: str,
                   storage_of: Dict[str, int],
                   storage_recyclable: List[bool]) -> Optional[Callable]:
        """A destination-passing head for out-capable nodes, else None
        (caller falls back to a plain bound-binder head).

        Elementwise/activation nodes and — when ``heavy_out`` is on — the
        heavy conv/GEMM/pooling nodes compute into liveness-managed arena
        buffers.  A heavy node whose output storage is not recyclable
        (e.g. a graph output, which must stay private to the caller) still
        gets a destination-passing head without an ``out=``: its workspace
        scratch stays arena-backed.
        """
        heavy = bound.out == ARENA and self.heavy_out
        if bound.out != INPLACE and not heavy:
            return None
        kernel = bound.call
        sid = storage_of.get(out_name)
        if sid is None or not storage_recyclable[sid]:
            if not heavy:
                return None  # the plain binder path is equivalent
            in_names = tuple(node.present_inputs)
            self._heavy_step_count += 1
            return lambda values: np.asarray(
                kernel([values[n] for n in in_names], None))
        self._arena_step_count += 1
        if heavy:
            self._heavy_step_count += 1
        return _make_arena_head(kernel, node.present_inputs, self._arena)

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

        With ``tracer=None`` this is the default allocation-free loop;
        with a tracer, each step is bracketed by ``perf_counter_ns`` reads
        and emitted as one span.  Both variants share the release/pinning
        logic and the error-context wrapping.
        """
        steps = self._steps
        release_after = self._release_after
        storage_of = self._storage_of
        arena = self._arena
        num_steps = len(steps)

        if tracer is None:
            def run_steps(values, dest, pinned):
                step_index = 0
                try:
                    for step_index in range(num_steps):
                        steps[step_index](values, dest)
                        released = release_after[step_index]
                        if released:
                            for owner in released:
                                if pinned is not None and storage_of[owner] in pinned:
                                    continue
                                array = values.get(owner)
                                if array is not None:
                                    arena.release(array)
                except PlanError:
                    raise
                except ExecutionError:
                    raise
                except Exception as exc:  # noqa: BLE001 - add node context
                    raise self._step_failure(step_index, exc) from exc
            return run_steps

        labels = self._step_labels
        span_args = self._step_span_args
        emit = tracer.emit
        now = time.perf_counter_ns

        def run_steps_traced(values, dest, pinned):
            step_index = 0
            try:
                for step_index in range(num_steps):
                    start_ns = now()
                    steps[step_index](values, dest)
                    emit(labels[step_index], "plan", start_ns, now(),
                         args=span_args[step_index])
                    released = release_after[step_index]
                    if released:
                        for owner in released:
                            if pinned is not None and storage_of[owner] in pinned:
                                continue
                            array = values.get(owner)
                            if array is not None:
                                arena.release(array)
            except PlanError:
                raise
            except ExecutionError:
                raise
            except Exception as exc:  # noqa: BLE001 - add node context
                raise self._step_failure(step_index, exc) from exc
        return run_steps_traced

    def _run_steps_hooked(self, values, dest, pinned, trace_hook) -> None:
        """The ``trace_hook`` step loop (profiler attribution path)."""
        steps = self._steps
        release_after = self._release_after
        storage_of = self._storage_of
        arena = self._arena
        step_index = 0
        try:
            for step_index in range(len(steps)):
                start = time.perf_counter()
                steps[step_index](values, dest)
                trace_hook(self._step_nodes[step_index][0],
                           time.perf_counter() - start)
                released = release_after[step_index]
                if released:
                    for owner in released:
                        if pinned is not None and storage_of[owner] in pinned:
                            continue
                        array = values.get(owner)
                        if array is not None:
                            arena.release(array)
        except PlanError:
            raise
        except ExecutionError:
            raise
        except Exception as exc:  # noqa: BLE001 - add node context
            raise self._step_failure(step_index, exc) from exc

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        inputs: Mapping[str, np.ndarray],
        outputs: Optional[Sequence[str]] = None,
        trace_hook: Optional[Callable[[OpNode, float], None]] = None,
        out: Optional[Mapping[str, np.ndarray]] = None,
    ) -> Dict[str, np.ndarray]:
        """Execute the plan and return the requested outputs.

        Mirrors :meth:`GraphExecutor.run`; ``trace_hook`` receives the
        step's head node (build with ``fuse=False`` for exact per-node
        attribution).  Values fused away into a producer's step cannot be
        requested via ``outputs``.

        ``out`` maps graph-output names to caller-owned destination
        buffers.  Destination-capable producers write the output directly
        into the buffer (no per-run graph-output allocation once the
        signature has specialized); everything else is finalized with an
        end-of-run copy.  A buffer overlapping any input array is only
        written after every step has run, so binding an output over an
        input is safe.  Shape/dtype mismatches raise :class:`PlanError`.
        """
        with self._lock:
            return self._run_locked(inputs, outputs, trace_hook, out)

    def _run_locked(self, inputs, outputs, trace_hook, out) -> Dict[str, np.ndarray]:
        values: Dict[str, np.ndarray] = dict(self._init_values)
        for name in self._input_names:
            if name not in inputs:
                raise PlanError(f"missing graph input {name!r}")
        for name, array in inputs.items():
            values[name] = np.asarray(array)

        # Caller-bound output destinations: `dest` is consulted by the
        # producing steps for direct writes; `bound` is the full set,
        # finalized below.  Buffers that may alias an input — or another
        # destination — are withheld from `dest`: writing them mid-run
        # could corrupt values later steps still read (or each other), so
        # they are handled by the end-of-run copy only.  A buffer
        # overlapping an initializer is rejected outright — even a
        # deferred copy into it would corrupt the weights of every
        # subsequent run.
        dest: Dict[str, np.ndarray] = {}
        bound: Dict[str, np.ndarray] = {}
        if out:
            feed_arrays = [values[name] for name in self._input_names]
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
            buffers = list(bound.items())
            for index, (name, buf) in enumerate(buffers):
                if any(np.may_share_memory(buf, array)
                       for array in feed_arrays):
                    continue
                if any(np.may_share_memory(buf, other)
                       for other_index, (_, other) in enumerate(buffers)
                       if other_index != index):
                    continue
                dest[name] = buf

        # Storages of explicitly requested intermediates must not recycle
        # during *this* run: a later step sharing their (shape, dtype)
        # slot would overwrite them before the end-of-run copy-out.
        # (Graph outputs are never recyclable, so the common case computes
        # nothing here.)
        pinned: Optional[set] = None
        if outputs is not None:
            pinned = {self._storage_of[name] for name in outputs
                      if name in self._storage_of} or None

        if trace_hook is None:
            self._exec(values, dest, pinned)
        else:
            self._run_steps_hooked(values, dest, pinned, trace_hook)

        wanted = list(outputs) if outputs is not None else self._output_names
        missing = [name for name in wanted if name not in values]
        if missing:
            raise PlanError(
                f"requested outputs not available from the plan: {missing} "
                "(graph outputs are always available; fused intermediates "
                "are not)")

        if bound:
            # Finalize every bound destination: outputs the producing step
            # already wrote in place need nothing; the rest are copied in.
            # Copies happen after all steps have run, so a destination
            # overlapping an input can never corrupt the computation.
            # Every source overlapping *any* pending destination (its own
            # included) is snapshotted before the first copyto runs — an
            # earlier copy must not corrupt a later copy's source.
            pending = [(name, buf) for name, buf in bound.items()
                       if values[name] is not buf]
            self._dest_direct_writes += len(bound) - len(pending)
            if pending:
                sources = []
                dest_buffers = [buf for _, buf in pending]
                for name, buf in pending:
                    src = values[name]
                    if src.shape != buf.shape or src.dtype != buf.dtype:
                        raise PlanError(
                            f"bound output {name!r}: destination has shape "
                            f"{buf.shape} dtype {buf.dtype}, but the run "
                            f"produced shape {src.shape} dtype {src.dtype}")
                    if any(np.may_share_memory(src, other)
                           for other in dest_buffers):
                        src = src.copy()
                    sources.append(src)
                for (name, buf), src in zip(pending, sources):
                    np.copyto(buf, src)
                    values[name] = buf
                    self._dest_copy_writes += 1

        result: Dict[str, np.ndarray] = {}
        for name in wanted:
            array = values[name]
            if name in bound:
                result[name] = array
                continue
            # Never hand an arena-recycled buffer (or a view of one) to the
            # caller — it would be overwritten by the next run.  Graph
            # outputs are never arena-backed; this only triggers for
            # explicitly requested intermediates.
            if self._aliases_arena(array):
                array = array.copy()
            result[name] = array
        return result

    def _aliases_arena(self, array: np.ndarray) -> bool:
        seen = 0
        while array is not None and seen < 8:
            if self._arena.is_owned(array):
                return True
            array = array.base
            seen += 1
        return False

    # ------------------------------------------------------------------
    # Introspection / interop
    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """Plan shape and arena counters (allocations stay flat once warm)."""
        return {
            "model": self.model_name,
            "nodes": self._num_nodes,
            "steps": len(self._steps),
            "fused_nodes": self._fused_node_count,
            "arena_steps": self._arena_step_count,
            "heavy_steps": self._heavy_step_count,
            "tracing": self._tracer is not None,
            "arena": self._arena.stats(),
            "output_binding": {
                "bindable_outputs": self._bindable_outputs,
                "direct_writes": self._dest_direct_writes,
                "copy_writes": self._dest_copy_writes,
            },
        }

    def as_cluster_module(self):
        """A single-cluster module shim so :class:`WarmExecutorPool` (and
        ``execute_generated_module``-style drivers) can run a plan directly."""
        if self._cluster_module is None:
            plan = self

            def run_cluster(inputs, weights, channels):  # noqa: ARG001
                return plan.run(inputs)

            self._cluster_module = types.SimpleNamespace(
                MODEL_NAME=self.model_name,
                CLUSTER_FUNCTIONS=[run_cluster],
                CHANNEL_NAMES=[],
                GRAPH_INPUTS=list(self.graph.input_names),
                GRAPH_OUTPUTS=list(self._output_names),
            )
        return self._cluster_module


def plan_model(model, fuse: bool = True) -> ExecutionPlan:
    """Convenience constructor mirroring :func:`execute_model`'s shape."""
    return ExecutionPlan(model, fuse=fuse)
