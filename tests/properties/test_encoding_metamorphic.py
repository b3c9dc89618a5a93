"""Metamorphic relations of the batched encoding path.

The batched encoding contract mirrors the overlap path's: *how* a set of
feature vectors is encoded -- one at a time, in one stacked sweep, chunked,
reordered, or interleaved with cache hits -- must not move a single bit of
any state, kernel entry or served prediction.  Every equivalence below is
exact (``tobytes()`` / ``np.array_equal``), not approximate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approx import LinearSVC, NystroemConfig, NystroemFeatureMap
from repro.approx.streaming import StreamingNystroemClassifier
from repro.config import AnsatzConfig
from repro.engine import EngineConfig, KernelEngine
from repro.serving import AsyncServingQueue

ANSATZ = AnsatzConfig(num_features=4, interaction_distance=2, layers=1, gamma=0.7)


def _states_bytes(states):
    return [tuple(t.tobytes() for t in s.tensors) for s in states]


def _engine(batch_encoding=True, encode_batch_size=32, use_cache=False):
    return KernelEngine(
        ANSATZ,
        config=EngineConfig(
            use_cache=use_cache,
            batch_encoding=batch_encoding,
            encode_batch_size=encode_batch_size,
        ),
    )


# ----------------------------------------------------------------------
# Engine-level invariances (hypothesis-driven)
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    rows=st.integers(min_value=2, max_value=9),
    chunk=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_chunk_size_invariance(rows, chunk, seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.05, 1.95, size=(rows, 4))
    sequential = _engine(batch_encoding=False).encode_rows(X)
    chunked = _engine(encode_batch_size=chunk).encode_rows(X)
    assert _states_bytes(sequential) == _states_bytes(chunked)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16))
def test_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.05, 1.95, size=(7, 4))
    perm = rng.permutation(7)
    direct = _states_bytes(_engine().encode_rows(X))
    permuted = _states_bytes(_engine().encode_rows(X[perm]))
    assert [direct[i] for i in perm] == permuted


def test_duplicate_rows_encode_identically(rng):
    X = rng.uniform(0.05, 1.95, size=(6, 4))
    X[3] = X[0]
    X[5] = X[0]
    states = _engine().encode_rows(X)
    blobs = _states_bytes(states)
    assert blobs[3] == blobs[0]
    assert blobs[5] == blobs[0]


def test_cache_occupancy_does_not_change_states(rng):
    X = rng.uniform(0.05, 1.95, size=(8, 4))
    cold = _engine(use_cache=True)
    cold_states = _states_bytes(cold.encode_rows(X))

    warm = _engine(use_cache=True)
    warm.encode_rows(X[:3])  # pre-populate part of the store
    warm.backend.reset_counters()
    warm_states = _states_bytes(warm.encode_rows(X))
    assert warm_states == cold_states
    # Cache-aware batching: only the 5 unseen rows were simulated.
    assert warm.backend.num_simulations == 5


def test_gram_invariant_under_batch_encoding(rng):
    X = rng.uniform(0.05, 1.95, size=(7, 4))
    K_seq = _engine(batch_encoding=False).gram(X).matrix
    K_bat = _engine(encode_batch_size=3).gram(X).matrix
    assert np.array_equal(K_seq, K_bat)


# ----------------------------------------------------------------------
# Served predictions through the queue cold path
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fitted_parts():
    """Fitted map + model, rebuilt per-classifier with a chosen engine."""
    rng = np.random.default_rng(7)
    X = rng.uniform(0.05, 1.95, size=(24, 4))
    y = (X.mean(axis=1) > 1.0).astype(int)
    return X, y


def _classifier(fitted_parts, batch_encoding):
    X, y = fitted_parts
    engine = KernelEngine(
        ANSATZ,
        config=EngineConfig(use_cache=True, batch_encoding=batch_encoding),
    )
    feature_map = NystroemFeatureMap(engine, NystroemConfig(num_landmarks=6, seed=0))
    phi = feature_map.fit_transform(X)
    model = LinearSVC(C=1.0).fit(phi, y)
    return StreamingNystroemClassifier(feature_map, model)


@pytest.fixture(scope="module")
def cold_stream():
    # Entirely-unseen rows: every request exercises the cold encode path.
    return np.random.default_rng(23).uniform(0.05, 1.95, size=(20, 4))


def _serve(classifier, stream, max_batch):
    with AsyncServingQueue(
        classifier, max_batch=max_batch, max_wait_ms=20.0, memoize=False, seed=0
    ) as queue:
        futures = queue.submit_many(stream)
        return np.array([f.result(timeout=120).decision_value for f in futures])


def test_cold_predictions_invariant_under_coalescing(fitted_parts, cold_stream):
    """Batch size of the queue must not move a bit of any cold prediction."""
    one = _serve(_classifier(fitted_parts, True), cold_stream, max_batch=1)
    many = _serve(_classifier(fitted_parts, True), cold_stream, max_batch=16)
    assert np.array_equal(one, many)


def test_cold_predictions_invariant_under_batch_encoding(fitted_parts, cold_stream):
    """Stacked encoding must reproduce the per-point path bit for bit."""
    batched = _serve(_classifier(fitted_parts, True), cold_stream, max_batch=8)
    pointwise = _serve(_classifier(fitted_parts, False), cold_stream, max_batch=8)
    assert np.array_equal(batched, pointwise)


def test_cold_predictions_invariant_under_request_order(fitted_parts, cold_stream):
    classifier = _classifier(fitted_parts, True)
    direct = _serve(classifier, cold_stream, max_batch=8)
    perm = np.random.default_rng(3).permutation(len(cold_stream))
    permuted = _serve(_classifier(fitted_parts, True), cold_stream[perm], max_batch=8)
    assert np.array_equal(direct[perm], permuted)
