"""Message-passing channels used by generated parallel code.

The generated cluster functions only assume that ``channels[name]`` supports
``put(obj)`` and ``get()``.  There are two channel kinds:

* **slot channels** (:func:`make_process_channels`, the process backend —
  the paper's configuration: clusters are separate Python processes because
  of the GIL).  A :class:`TensorPlane` is one anonymous shared mapping,
  inherited at fork and cut into *tensor slots*: one per cross-cluster value,
  one per graph input, one per graph output.  ``put`` is one ``np.copyto``
  into the value's slot plus a semaphore post per consuming cluster; ``get``
  is a semaphore wait returning a **read-only zero-copy view**.  Nothing is
  pickled and no feeder thread runs.  A slot holds the value's inferred byte
  size times the batch the caller may stack; a payload that is not a plain
  ndarray or does not fit is pickled to a spill file in the plane's private
  temp directory instead and counted as ``overflow_puts``,
* **thread channels** (:func:`make_thread_channels`) — a ``queue.Queue`` per
  channel, handing arrays over by reference.

Hand-offs are accounted into a :class:`ChannelTelemetry` the warm worker
pools publish into the engine's ``MetricsRegistry``: slot channels count
themselves; thread channels are wrapped on demand
(:func:`instrument_channels`) while a tracer is attached.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing
import os
import pickle
import queue
import re
import shutil
import struct
import tempfile
import threading
import time
import weakref
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np


class ParallelExecutionError(RuntimeError):
    """Raised when a cluster worker fails or the run times out."""


def make_thread_channels(names: Iterable[str]) -> Dict[str, "queue.Queue"]:
    """Blocking thread-safe queues for the thread backend."""
    return {name: queue.Queue() for name in names}


def channel_name(value: str, src_cluster: int, dst_cluster: int) -> str:
    """Deterministic, readable channel key for one cross-cluster tensor."""
    safe_value = value.replace("@", "_").replace("/", "_")
    return f"c{src_cluster}_to_c{dst_cluster}__{safe_value}"


_CHANNEL_NAME = re.compile(r"c(\d+)_to_c(\d+)__(.*)", re.DOTALL)


def split_channel_name(name: str) -> Tuple[int, int, str]:
    """``(src_cluster, dst_cluster, value)`` of a :func:`channel_name` key."""
    match = _CHANNEL_NAME.fullmatch(name)
    if match is None:
        raise ValueError(
            f"channel {name!r} is not of the form c<src>_to_c<dst>__<value>")
    return int(match.group(1)), int(match.group(2)), match.group(3)


# ---------------------------------------------------------------------------
# Tensor slots (process backend)
# ---------------------------------------------------------------------------
#: a slot header: run ticket, ndim (``_SPILLED`` for a pickled payload),
#: ``dtype.str`` and up to ``MAX_NDIM`` dimensions
_HEADER = struct.Struct("<qq8s8q")
_TICKET = struct.Struct("<q")
#: bytes reserved per header; also the alignment of every slot's payload
HEADER_BYTES = 128
MAX_NDIM = 8
_SPILLED = -1
_NO_DIMS = (0,) * MAX_NDIM


def fits_slot(obj, capacity: int) -> bool:
    """Whether ``obj`` can live in a slot of ``capacity`` payload bytes.

    Plain numeric/bool ndarrays of at most :data:`MAX_NDIM` dimensions do;
    everything else (objects, strings, subclasses, numpy scalars — whose
    type a slot would not preserve) takes the pickled fallback.
    """
    return (type(obj) is np.ndarray and obj.nbytes <= capacity
            and obj.ndim <= MAX_NDIM and obj.dtype.kind in "biufc")


def encode_header(ticket: int, shape: Optional[Sequence[int]] = None,
                  dtype=None) -> bytes:
    """Pack a slot header; ``shape=None`` marks a spilled payload."""
    if shape is None:
        return _HEADER.pack(ticket, _SPILLED, b"", *_NO_DIMS)
    shape = tuple(shape)
    return _HEADER.pack(ticket, len(shape), np.dtype(dtype).str.encode(),
                        *(shape + _NO_DIMS[len(shape):]))


def decode_header(buffer, offset: int = 0):
    """``(ticket, shape, dtype)`` of a packed header; spilled: shape None."""
    ticket, ndim, code, *dims = _HEADER.unpack_from(buffer, offset)
    if ndim == _SPILLED:
        return ticket, None, None
    return ticket, tuple(dims[:ndim]), np.dtype(code.rstrip(b"\0").decode())


def spec_nbytes(spec) -> int:
    """Byte size of a ``(shape, dtype)`` spec; 0 when absent."""
    if spec is None:
        return 0
    shape, dtype = spec
    return math.prod(shape) * np.dtype(dtype).itemsize


def _remove_tree(path: str, owner_pid: int) -> None:
    if os.getpid() == owner_pid:  # not from a forked worker's copy
        shutil.rmtree(path, ignore_errors=True)


class TensorPlane:
    """One fork-inherited shared mapping cut into write-once tensor slots.

    Parameters
    ----------
    channel_names:
        :func:`channel_name` keys.  Channels carrying the same value out of
        the same cluster share one slot (written once per run) and get one
        semaphore each (one per consuming cluster).
    specs:
        ``{name: (shape, dtype)}`` for channel and tensor names; a name
        without a spec gets a zero-capacity slot (always spilled).
    tensors:
        Extra slot names without a semaphore — the graph inputs the
        coordinator writes before dispatch and the graph outputs the
        workers write before replying.
    max_batch:
        Capacity multiplier: the batch the caller may stack over the
        compile-time shapes in ``specs``.

    Every write is stamped with :attr:`ticket` (the run the writer is
    executing) and every read checks it, so a hand-off stranded by a failed
    run raises instead of feeding last run's bytes into the next.
    ``close()`` removes the spill directory; the mapping itself goes with
    the last process that holds it.
    """

    def __init__(self, channel_names: Iterable[str] = (),
                 specs: Optional[Mapping[str, tuple]] = None,
                 tensors: Iterable[str] = (), *, ctx=None,
                 max_batch: int = 1,
                 telemetry: Optional["ChannelTelemetry"] = None) -> None:
        ctx = ctx or multiprocessing.get_context()
        specs = specs or {}
        capacities: Dict[object, int] = {}
        channel_keys = {}
        for name in channel_names:
            src, _, value = split_channel_name(name)
            key = channel_keys[name] = (src, value)
            capacities[key] = max(capacities.get(key, 0),
                                  spec_nbytes(specs.get(name)) * max_batch)
        for name in tensors:
            capacities[name] = spec_nbytes(specs.get(name)) * max_batch
        self._slots: Dict[object, Tuple[int, int, int]] = {}
        size = 0
        for index, (key, capacity) in enumerate(capacities.items()):
            self._slots[key] = (size, capacity, index)
            size += HEADER_BYTES + -(-capacity // HEADER_BYTES) * HEADER_BYTES
        # Anonymous and shared: inherited by forked workers, no name to
        # unlink, nothing for a resource tracker to warn about.
        self._mm = mmap.mmap(-1, max(size, HEADER_BYTES))
        self._rw = np.frombuffer(self._mm, dtype=np.uint8)
        self._ro = self._rw.view()
        self._ro.flags.writeable = False
        self._spill_dir = tempfile.mkdtemp(prefix="repro-slots-")
        # also runs at collection / interpreter exit of an unclosed plane
        self.close = weakref.finalize(
            self, _remove_tree, self._spill_dir, os.getpid())
        #: the run this process is executing (positive; a fresh slot holds
        #: 0); stamps writes, checks reads
        self.ticket = 1
        self.telemetry = telemetry or ChannelTelemetry()
        self.channels: Dict[str, SlotChannel] = {
            name: SlotChannel(self, name, key, ctx.Semaphore(0))
            for name, key in channel_keys.items()}

    def __contains__(self, key) -> bool:
        return key in self._slots

    def written(self, key) -> bool:
        """Whether slot ``key`` was already written during this run."""
        return _TICKET.unpack_from(self._mm, self._slots[key][0])[0] == self.ticket

    def write(self, key, obj) -> None:
        """Copy ``obj`` into slot ``key`` (or spill it) under :attr:`ticket`."""
        offset, capacity, index = self._slots[key]
        if fits_slot(obj, capacity):
            start = offset + HEADER_BYTES
            np.copyto(self._rw[start:start + obj.nbytes]
                      .view(obj.dtype).reshape(obj.shape), obj)
            header = encode_header(self.ticket, obj.shape, obj.dtype)
        else:
            with open(os.path.join(self._spill_dir, str(index)), "wb") as handle:
                pickle.dump(obj, handle, protocol=pickle.HIGHEST_PROTOCOL)
            self.telemetry.record_overflow()
            header = encode_header(self.ticket)
        self._mm[offset:offset + _HEADER.size] = header

    def read(self, key, copy: bool = False):
        """The payload of slot ``key``: a read-only view of the slot (a
        private array with ``copy``), or the unpickled spilled object."""
        offset, _, index = self._slots[key]
        ticket, shape, dtype = decode_header(self._mm, offset)
        if ticket != self.ticket:
            raise ParallelExecutionError(
                f"tensor slot {key!r} holds run {ticket}'s value, not run "
                f"{self.ticket}'s: a stale hand-off from a failed run")
        if shape is None:
            with open(os.path.join(self._spill_dir, str(index)), "rb") as handle:
                return pickle.load(handle)
        start = offset + HEADER_BYTES
        nbytes = math.prod(shape) * dtype.itemsize
        view = self._ro[start:start + nbytes].view(dtype).reshape(shape)
        return view.copy() if copy else view


class SlotChannel:
    """One consuming cluster's end of a :class:`TensorPlane` value slot."""

    __slots__ = ("name", "semaphore", "_plane", "_key")

    def __init__(self, plane: TensorPlane, name: str, key, semaphore) -> None:
        self.name = name
        self.semaphore = semaphore
        self._plane = plane
        self._key = key

    def put(self, item) -> None:
        plane = self._plane
        if not plane.written(self._key):  # once per value, not per consumer
            start = time.perf_counter_ns()
            plane.write(self._key, item)
            plane.telemetry.record_put(payload_nbytes(item),
                                       time.perf_counter_ns() - start)
        self.semaphore.release()

    def get(self):
        start = time.perf_counter_ns()
        self.semaphore.acquire()
        item = self._plane.read(self._key)
        self._plane.telemetry.record_get(payload_nbytes(item),
                                         time.perf_counter_ns() - start)
        return item


def make_process_channels(names: Iterable[str],
                          specs: Optional[Mapping[str, tuple]] = None,
                          tensors: Iterable[str] = (), **options) -> TensorPlane:
    """Slot channels for the process backend (the paper's runtime): a
    :class:`TensorPlane`, whose ``.channels`` is the mapping the cluster
    functions receive."""
    return TensorPlane(names, specs, tensors, **options)


# ---------------------------------------------------------------------------
# Channel observability
# ---------------------------------------------------------------------------
def payload_nbytes(obj) -> int:
    """Approximate wire size of a channel payload, in bytes.

    Arrays report their exact buffer size; containers recurse.  For the
    tensor-dominated payloads the generated code ships, the array bytes
    *are* the traffic.
    """
    nbytes = getattr(obj, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(obj, dict):
        return sum(payload_nbytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(payload_nbytes(v) for v in obj)
    if isinstance(obj, (bytes, bytearray, str)):
        return len(obj)
    return 0


class ChannelTelemetry:
    """Thread-safe accumulator of channel hand-off counters.

    One telemetry object aggregates across every channel it accounts;
    the worker pools ship per-job deltas back with run results and
    publish the aggregate into the engine's ``MetricsRegistry``.  For slot
    channels ``puts`` counts *values* (a value consumed by two clusters is
    written once), ``put_ns`` is the copy into the slot and ``get_ns`` the
    blocking wait for the producer; ``overflow_puts`` counts payloads that
    took the pickled fallback instead of a slot (feeds and graph outputs
    included).  Thread channels hand references over, so their ``put_ns``
    / ``get_ns`` are the queue operations.
    """

    __slots__ = ("_lock", "puts", "gets", "put_bytes", "get_bytes",
                 "put_ns", "get_ns", "overflow_puts")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.puts = 0
        self.gets = 0
        self.put_bytes = 0
        self.get_bytes = 0
        self.put_ns = 0
        self.get_ns = 0
        self.overflow_puts = 0

    def record_put(self, nbytes: int, elapsed_ns: int) -> None:
        """Account one ``put`` of ``nbytes`` taking ``elapsed_ns``."""
        with self._lock:
            self.puts += 1
            self.put_bytes += nbytes
            self.put_ns += elapsed_ns

    def record_get(self, nbytes: int, elapsed_ns: int) -> None:
        """Account one ``get`` of ``nbytes`` taking ``elapsed_ns``."""
        with self._lock:
            self.gets += 1
            self.get_bytes += nbytes
            self.get_ns += elapsed_ns

    def record_overflow(self) -> None:
        """Account one payload that was pickled instead of using a slot."""
        with self._lock:
            self.overflow_puts += 1

    def add(self, delta: Mapping[str, int]) -> None:
        """Fold a shipped per-job :meth:`delta` into the counters."""
        with self._lock:
            for key, value in delta.items():
                setattr(self, key, getattr(self, key) + value)

    def snapshot(self) -> Dict[str, int]:
        """The current counters as a plain dict (picklable)."""
        with self._lock:
            return {"puts": self.puts, "gets": self.gets,
                    "put_bytes": self.put_bytes, "get_bytes": self.get_bytes,
                    "put_ns": self.put_ns, "get_ns": self.get_ns,
                    "overflow_puts": self.overflow_puts}

    @staticmethod
    def delta(after: Mapping[str, int], before: Mapping[str, int]) -> Dict[str, int]:
        """``after - before``, field-wise (for per-job accounting)."""
        return {key: after[key] - before.get(key, 0) for key in after}


class InstrumentedChannel:
    """A channel proxy accounting puts/gets into a :class:`ChannelTelemetry`.

    Exposes exactly the ``put``/``get`` (plus ``empty``) surface the
    generated cluster functions assume; wraps thread channels (slot
    channels account themselves).
    """

    __slots__ = ("_channel", "_telemetry", "name")

    def __init__(self, channel, telemetry: ChannelTelemetry,
                 name: str = "") -> None:
        self._channel = channel
        self._telemetry = telemetry
        self.name = name

    def put(self, item) -> None:
        start = time.perf_counter_ns()
        self._channel.put(item)
        self._telemetry.record_put(payload_nbytes(item),
                                   time.perf_counter_ns() - start)

    def get(self):
        start = time.perf_counter_ns()
        item = self._channel.get()
        self._telemetry.record_get(payload_nbytes(item),
                                   time.perf_counter_ns() - start)
        return item

    def empty(self) -> bool:
        return self._channel.empty()


def instrument_channels(channels: Mapping[str, object],
                        telemetry: ChannelTelemetry) -> Dict[str, InstrumentedChannel]:
    """Wrap every channel in a dict with hand-off accounting."""
    return {name: InstrumentedChannel(channel, telemetry, name=name)
            for name, channel in channels.items()}
