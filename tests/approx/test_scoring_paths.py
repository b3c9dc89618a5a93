"""One scoring path: every way of serving a Nystrom model decides alike.

``StreamingNystroemClassifier`` holds the only scoring body of a served
Nystrom model (scale -> landmark kernel rows -> row-wise projection ->
decide).  Each entry point below reaches it differently -- through the
inference engine, directly, through a coalescing queue in process or with a
worker pool computing the kernel rows, through a replica rebuilt from the
serving payload, and through ``repro.serve()`` -- and each must return the
same decision values, byte for byte.
"""

import numpy as np
import pytest

from repro import serve
from repro.approx import StreamingNystroemClassifier
from repro.serving import AsyncServingQueue

PATHS = ["engine", "classify", "queue", "pool", "replica", "serve"]


@pytest.fixture(scope="module")
def served_engine(fit_served_engine):
    return fit_served_engine(data_seed=31, size=24, subsample_seed=2, landmarks=6)


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(59)
    rows = rng.normal(size=(9, 4))
    return np.vstack([rows, rows[:2]])


@pytest.fixture(scope="module")
def reference(served_engine, queries):
    return served_engine.streaming_classifier().classify(queries).decision_values


def _served(submitter, queries):
    futures = [submitter.submit(row) for row in queries]
    submitter.flush()
    return np.array([f.result(timeout=60).decision_value for f in futures])


def _decisions(path, engine, queries):
    if path == "engine":
        return np.asarray(engine.decision_function(queries))
    if path == "classify":
        return engine.streaming_classifier().classify(queries).decision_values
    if path in ("queue", "pool"):
        with AsyncServingQueue(
            engine.streaming_classifier(),
            max_batch=len(queries),
            max_wait_ms=10_000.0,
            workers=2 if path == "pool" else 0,
        ) as queue:
            return _served(queue, queries)
    if path == "replica":
        replica = StreamingNystroemClassifier.from_serving_payload(
            engine.serving_payload()
        )
        return replica.classify(queries).decision_values
    assert path == "serve"
    with serve(engine) as handle:
        return _served(handle, queries)


@pytest.mark.parametrize("path", PATHS)
def test_every_scoring_path_is_byte_identical(path, served_engine, queries, reference):
    decisions = _decisions(path, served_engine, queries)
    assert decisions.dtype == np.float64
    assert decisions.tobytes() == reference.tobytes()
