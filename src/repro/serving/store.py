"""Process-pool plumbing: attach a served model once per worker.

A Nystrom-served model is tiny: ``m`` landmark MPS (the engine's cached
state-store entries for the landmark rows), the ``m x r`` normalisation, a
linear model and the feature scaler.
:meth:`repro.approx.StreamingNystroemClassifier.serving_payload` packages
those into one picklable payload, so a pool of workers is initialised with a
single serialisation pass in the parent and never re-simulates a landmark
circuit.

:class:`repro.serving.AsyncServingQueue` with ``workers >= 2`` passes
:func:`attach_shared_store` as the pool's ``initializer`` with the payload,
then submits :func:`shared_store_kernel_rows` jobs: each worker runs
:meth:`~repro.approx.NystroemFeatureMap.landmark_kernel_rows` on the query
rows of its block -- the same method an in-process ``classify`` runs.
The attached replica is a
:meth:`~repro.approx.StreamingNystroemClassifier.from_serving_payload`
rebuild, so its kernel rows are bit-identical to the classifier it came
from.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..approx import StreamingNystroemClassifier
from ..exceptions import ServingError

__all__ = ["attach_shared_store", "shared_store_kernel_rows"]

_ATTACHED: Optional[StreamingNystroemClassifier] = None


def attach_shared_store(payload: Dict) -> None:
    """Pool initializer: attach the served model in this worker process."""
    global _ATTACHED
    _ATTACHED = StreamingNystroemClassifier.from_serving_payload(payload)


def shared_store_kernel_rows(X_scaled: np.ndarray) -> np.ndarray:
    """Pool task: landmark kernel rows of one scaled query block."""
    if _ATTACHED is None:
        raise ServingError(
            "worker has no attached landmark store; "
            "was the pool created with attach_shared_store as initializer?"
        )
    return _ATTACHED.feature_map.landmark_kernel_rows(X_scaled).matrix
