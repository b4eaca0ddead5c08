"""Inputs for the zoo's models, and the load helpers that fire them.

Random feeds matching a model's declared signature (or a serving request
signature), plus the two throughput helpers the CLI's ``serve-bench`` and
the serving benchmarks use: concurrent requests through an
:class:`~repro.serving.engine.InferenceEngine`, and the pre-serving
baseline that recompiles per request.  ``repro.serving`` re-exports all
four.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

import numpy as np

from repro.ir.model import Model
from repro.pipeline import PipelineConfig, ramiel_compile

__all__ = ["drive_load", "example_inputs", "naive_throughput",
           "signature_inputs"]


def signature_inputs(signature: Tuple, batch_size: int = 1,
                     seed: int = 0) -> Dict[str, np.ndarray]:
    """Random inputs matching a request signature (name, dtype, tail shape)."""
    rng = np.random.default_rng(seed)
    feed: Dict[str, np.ndarray] = {}
    for name, dtype, tail in signature:
        shape = (batch_size,) + tuple(tail)
        if str(dtype).startswith("int") or str(dtype).startswith("uint"):
            feed[name] = rng.integers(0, 100, size=shape).astype(dtype)
        else:
            feed[name] = rng.standard_normal(shape).astype(dtype)
    return feed


def example_inputs(model: Model, batch_size: int = 1, seed: int = 0) -> Dict[str, np.ndarray]:
    """Random inputs matching a model's declared signature.

    ``None`` dims resolve to 1 except the leading (batch) axis which takes
    ``batch_size``; each input has its declared dtype, drawn as
    :func:`signature_inputs` draws it.
    """
    signature = tuple(
        (info.name, info.dtype.value,
         tuple(1 if d is None else d for d in (info.shape or (1,))[1:]))
        for info in model.graph.inputs)
    return signature_inputs(signature, batch_size=batch_size, seed=seed)


def drive_load(engine, model: Model, num_requests: int,
               concurrency: int = 8) -> Dict[str, float]:
    """Fire ``num_requests`` concurrent requests at the engine; report rps.

    Each caller thread submits and waits (``engine.infer``), so up to
    ``concurrency`` requests are in flight at once — the condition under
    which the lane actually fuses micro-batches.
    """
    def one_request(i: int) -> None:
        engine.infer(model, example_inputs(model, seed=i))

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=concurrency) as executor:
        futures = [executor.submit(one_request, i) for i in range(num_requests)]
        for future in futures:
            future.result()
    elapsed = time.perf_counter() - start
    return {"requests": num_requests, "elapsed_s": elapsed,
            "rps": num_requests / elapsed if elapsed > 0 else float("inf")}


def naive_throughput(model: Model, num_requests: int = 3,
                     pipeline_config: Optional[PipelineConfig] = None
                     ) -> Dict[str, float]:
    """Requests/sec of the pre-serving path: full recompile per request.

    This is what every invocation cost before the serving layer existed —
    ``ramiel_compile`` plus one parallel execution, with nothing reused —
    and is the baseline the serving benchmark compares against.
    """
    config = pipeline_config or PipelineConfig()
    start = time.perf_counter()
    for i in range(num_requests):
        result = ramiel_compile(model, config=dataclasses.replace(
            config, generate_code=True))
        result.run_parallel(example_inputs(model, seed=i))
    elapsed = time.perf_counter() - start
    return {"requests": num_requests, "elapsed_s": elapsed,
            "rps": num_requests / elapsed if elapsed > 0 else float("inf")}
