"""The stack / scatter helpers of micro-batching.

A micro-batch is a replica's share of what is queued for its artifact the
moment it is free (:meth:`repro.serving.qos.QoSFrontend.take_batch`), up
to the artifact's maximum batch — no timer closes it.  Inputs are stacked along
the batch axis (axis 0), executed once, and the outputs scattered back per
request.

Requests of one batch are guaranteed shape-compatible: artifacts (and
therefore lanes) are keyed by input signature, which includes every
non-batch dimension.  A *request* here is any record with ``inputs`` and
``batch_len`` (the admission layer's request record).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

import numpy as np

#: Requests are stacked/scattered along this axis of every input/output.
BATCH_AXIS = 0


class ServingError(RuntimeError):
    """Base class for serving-layer failures."""


def stack_requests(requests: Sequence) -> Dict[str, np.ndarray]:
    """Concatenate the requests' inputs along :data:`BATCH_AXIS`."""
    if len(requests) == 1:
        return dict(requests[0].inputs)
    names = requests[0].inputs.keys()
    return {name: np.concatenate([r.inputs[name] for r in requests], axis=BATCH_AXIS)
            for name in names}


def scatter_outputs(outputs: Mapping[str, np.ndarray],
                    requests: Sequence) -> List[Dict[str, np.ndarray]]:
    """Split batched outputs back into per-request dicts.

    An output whose leading dimension equals the total batch length is
    sliced per request; anything else (e.g. a scalar statistic emitted by
    the graph) is replicated to every request unchanged.
    """
    total = sum(r.batch_len for r in requests)
    if len(requests) == 1:
        return [dict(outputs)]
    per_request: List[Dict[str, np.ndarray]] = [dict() for _ in requests]
    offsets = np.cumsum([0] + [r.batch_len for r in requests])
    for name, array in outputs.items():
        array = np.asarray(array)
        sliceable = array.ndim >= 1 and array.shape[BATCH_AXIS] == total
        for i in range(len(requests)):
            if sliceable:
                per_request[i][name] = array[offsets[i]:offsets[i + 1]]
            else:
                per_request[i][name] = array
    return per_request
