"""Metamorphic relations of the serving layer.

Pointwise oracles are weak for approximate kernels: there is no closed-form
"right answer" for a Nystrom decision value.  Metamorphic relations sidestep
that by asserting how outputs must *relate* across transformed inputs
(Ba et al. 2025): coalescing must not change results, batch order must not
matter, duplicates must agree, and more spectral rank can only help
reconstruction.  All equivalences here are exact (``np.array_equal``), which
is the contract the engine's grouping-invariant batched sweep provides.
"""

import numpy as np
import pytest

from repro.approx import NystroemConfig, NystroemFeatureMap
from repro.config import AnsatzConfig
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like
from repro.engine import KernelEngine, StackedStateBlock
from repro.serving import AsyncServingQueue


ANSATZ = AnsatzConfig(num_features=4, interaction_distance=1, layers=1, gamma=0.6)


@pytest.fixture(scope="module")
def served_engine(fit_served_engine):
    """A small fitted Nystrom-backed inference engine."""
    return fit_served_engine(data_seed=11, size=28, subsample_seed=3, landmarks=8)


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(77)
    return rng.normal(size=(24, 4))


# ----------------------------------------------------------------------
# Relation 1: coalesced flush == one-at-a-time classification.
# ----------------------------------------------------------------------
def test_batched_equals_sequential_classify(served_engine, queries):
    clf = served_engine.streaming_classifier()
    batched = clf.classify(queries)
    single_decisions = np.concatenate(
        [clf.classify(queries[i : i + 1]).decision_values for i in range(len(queries))]
    )
    single_rows = np.vstack(
        [clf.classify(queries[i : i + 1]).kernel_rows for i in range(len(queries))]
    )
    assert np.array_equal(batched.decision_values, single_decisions)
    assert np.array_equal(batched.kernel_rows, single_rows)


def test_queue_equals_sequential_classify(served_engine, queries):
    clf = served_engine.streaming_classifier()
    reference = clf.classify(queries)
    with AsyncServingQueue(
        served_engine.streaming_classifier(), max_batch=7, max_wait_ms=2.0
    ) as queue:
        futures = queue.submit_many(queries)
        results = [f.result(timeout=60) for f in futures]
    decisions = np.array([r.decision_value for r in results])
    predictions = np.array([r.prediction for r in results])
    assert np.array_equal(decisions, reference.decision_values)
    assert np.array_equal(predictions, reference.predictions)
    # The queue really did coalesce (some batch larger than one).
    assert max(r.batch_size for r in results) > 1


def test_queue_memo_returns_byte_identical_repeats(served_engine, queries):
    clf = served_engine.streaming_classifier()
    reference = clf.classify(queries)
    repeated = np.vstack([queries, queries[::-1]])
    with AsyncServingQueue(
        served_engine.streaming_classifier(), max_batch=16, max_wait_ms=2.0
    ) as queue:
        results = [f.result(timeout=60) for f in queue.submit_many(repeated)]
    decisions = np.array([r.decision_value for r in results])
    assert np.array_equal(decisions[: len(queries)], reference.decision_values)
    assert np.array_equal(decisions[len(queries) :], reference.decision_values[::-1])
    assert queue.memo_hits > 0


# ----------------------------------------------------------------------
# Relation 2: permutation invariance of the batch order.
# ----------------------------------------------------------------------
def test_permutation_invariance(served_engine, queries):
    clf = served_engine.streaming_classifier()
    reference = clf.classify(queries)
    rng = np.random.default_rng(5)
    for _ in range(3):
        perm = rng.permutation(len(queries))
        permuted = clf.classify(queries[perm])
        assert np.array_equal(permuted.decision_values, reference.decision_values[perm])
        assert np.array_equal(permuted.kernel_rows, reference.kernel_rows[perm])


# ----------------------------------------------------------------------
# Relation 3: duplicate inputs in one batch receive identical outputs.
# ----------------------------------------------------------------------
def test_duplicate_input_consistency(served_engine, queries):
    clf = served_engine.streaming_classifier()
    batch = np.vstack([queries[:6], queries[:6], queries[3:4]])
    result = clf.classify(batch)
    assert np.array_equal(result.decision_values[:6], result.decision_values[6:12])
    assert result.decision_values[12] == result.decision_values[3]
    single = clf.classify(queries[3:4])
    assert single.decision_values[0] == result.decision_values[3]


# ----------------------------------------------------------------------
# Relation 4: the block sweep is an exact rewrite of the generic plan path.
# ----------------------------------------------------------------------
def test_block_sweep_matches_plan_path(served_engine, queries):
    engine = served_engine.engine
    clf = served_engine.streaming_classifier()
    states = clf.feature_map.landmark_states_
    Xs = clf.scale(queries)
    with_block = engine.kernel_rows(
        Xs, states, block=StackedStateBlock(states)
    ).matrix
    without_block = engine.kernel_rows(Xs, states).matrix
    assert np.array_equal(with_block, without_block)


# ----------------------------------------------------------------------
# Relation 5: Nystrom reconstruction error is monotone in the rank.
# ----------------------------------------------------------------------
def test_rank_monotonicity_of_reconstruction_error():
    data = balanced_subsample(
        generate_elliptic_like(DatasetSpec(num_samples=300, num_features=4, seed=9)),
        20,
        seed=1,
    )
    engine = KernelEngine(ANSATZ)
    from repro.svm import FeatureScaler

    Xs = FeatureScaler().fit_transform(data.features)
    K_exact = engine.gram(Xs).matrix
    m = 10
    errors = []
    for rank in (1, 2, 4, 8, m):
        fmap = NystroemFeatureMap(
            engine,
            NystroemConfig(num_landmarks=m, strategy="greedy", seed=0, rank=rank),
        )
        phi = fmap.fit_transform(Xs)
        errors.append(NystroemFeatureMap.reconstruction_error(K_exact, phi))
    for lower, higher in zip(errors[1:], errors[:-1]):
        assert lower <= higher + 1e-12, errors
    # The sweep is not vacuous: more rank must measurably help somewhere.
    assert errors[-1] < errors[0]
