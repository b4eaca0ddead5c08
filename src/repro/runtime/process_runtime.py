"""One-shot drivers for Ramiel-generated modules.

The paper runs each cluster as a separate Python *process* (to sidestep the
GIL) exchanging tensors over channels.  That runtime — workers, transport,
watchdog, reaping — lives in exactly one place,
:class:`repro.runtime.worker_pool.WarmExecutorPool`;
:func:`execute_generated_module` is that pool used once.  This module also
keeps the error type and remote-traceback helper the workers share and the
single-threaded reference driver.
"""

from __future__ import annotations

import time
import traceback
from typing import Dict, Mapping, Optional, Tuple

import numpy as np


class ParallelExecutionError(RuntimeError):
    """Raised when a cluster worker fails or the run times out."""


def remote_error_text(exc: BaseException) -> str:
    """Serialize a worker-side failure as repr **plus** its traceback text.

    Exceptions cannot cross the process boundary with their traceback
    objects attached, so workers ship this string instead of a bare
    ``repr(exc)`` — the coordinator's :class:`ParallelExecutionError`
    message then points at the worker-side frame that actually raised,
    not just the exception type.
    """
    return "%r\nRemote traceback:\n%s" % (exc, traceback.format_exc())


def execute_generated_module(
    module,
    inputs: Mapping[str, np.ndarray],
    weights: Mapping[str, np.ndarray],
    backend: str = "thread",
    timeout: float = 300.0,
    *,
    tracer=None,
    collector: Optional[list] = None,
) -> Dict[str, np.ndarray]:
    """Execute a generated parallel module once and return its graph outputs.

    Parameters
    ----------
    module:
        The generated module (or :class:`repro.codegen.module_writer.GeneratedModule`).
    inputs / weights:
        Graph-input feed and initializer values (``model.graph.initializers``).
    backend:
        ``"process"`` — one Python process per cluster function of
        ``module`` (the paper's runtime); ``"thread"`` — one thread each
        (numpy releases the GIL in BLAS).  Nothing is placed here: a
        session folds the clustering onto the cores first and hands over
        the placement's module (one worker per placed cluster, <= cores).
    timeout:
        Watchdog in seconds; a deadlock (which a correct clustering cannot
        produce) surfaces as :class:`ParallelExecutionError` instead of a
        hang, and the workers are reaped before it propagates.
    tracer:
        Optional coordinator :class:`~repro.observability.Tracer`; the run
        is recorded as a ``pool.run`` span and every worker ships its
        ``worker.execute`` span home.
    collector:
        Optional list to which the per-worker
        :class:`~repro.observability.merge.WorkerTraceBuffer`\\ s are
        appended (requires ``tracer``).
    """
    from repro.runtime.worker_pool import WarmExecutorPool  # imports this module

    with WarmExecutorPool(module, weights, backend=backend,
                          tracer=tracer) as pool:
        try:
            return pool.run(inputs, timeout=timeout)
        finally:
            if collector is not None:
                collector.extend(pool.worker_trace_buffers())


def run_sequential_module(
    module,
    inputs: Mapping[str, np.ndarray],
    weights: Mapping[str, np.ndarray],
) -> Dict[str, np.ndarray]:
    """Execute a generated sequential module (single function call)."""
    module = getattr(module, "module", module)
    return module.run(dict(inputs), dict(weights))


def time_callable(fn, repeats: int = 3, warmup: int = 1) -> Tuple[float, object]:
    """Median wall-clock time of ``fn()`` over ``repeats`` runs (plus last result)."""
    result = None
    for _ in range(max(warmup, 0)):
        result = fn()
    samples = []
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2], result
