"""Unit tests for the Nystrom feature map."""

import numpy as np
import pytest

from repro.approx import NystroemConfig, NystroemFeatureMap
from repro.config import AnsatzConfig
from repro.engine import EngineConfig, KernelEngine
from repro.exceptions import KernelError


@pytest.fixture
def ansatz():
    return AnsatzConfig(num_features=4, interaction_distance=1, layers=1, gamma=0.6)


@pytest.fixture
def engine(ansatz):
    return KernelEngine(ansatz, config=EngineConfig(use_cache=True))


@pytest.fixture
def X(rng):
    return rng.uniform(0.1, 1.9, size=(24, 4))


def test_full_rank_nystroem_reproduces_exact_kernel(ansatz, engine, X):
    """With m = n landmarks the reconstruction equals the exact Gram matrix."""
    exact = KernelEngine(ansatz).gram(X).matrix
    fmap = NystroemFeatureMap(engine, NystroemConfig(num_landmarks=X.shape[0]))
    phi = fmap.fit_transform(X)
    assert np.allclose(fmap.approximate_kernel(phi), exact, atol=1e-6)


def test_low_rank_error_decreases_with_landmarks(ansatz, X):
    exact = KernelEngine(ansatz).gram(X).matrix
    errors = []
    for m in (4, 12, 24):
        engine = KernelEngine(ansatz, config=EngineConfig(use_cache=True))
        fmap = NystroemFeatureMap(
            engine, NystroemConfig(num_landmarks=m, strategy="greedy")
        )
        phi = fmap.fit_transform(X)
        errors.append(np.linalg.norm(fmap.approximate_kernel(phi) - exact))
    assert errors[0] > errors[-1]
    assert errors[-1] < 1e-6  # m = n is exact


def test_pair_budget_is_respected(engine, X):
    """fit issues exactly m(m-1)/2 + n*m pairs -- the subsystem's raison d'etre."""
    n, m = X.shape[0], 6
    fmap = NystroemFeatureMap(engine, NystroemConfig(num_landmarks=m))
    fmap.fit(X)
    assert fmap.report.fit_pair_evaluations == m * (m - 1) // 2 + n * m
    assert fmap.report.fit_pair_evaluations <= fmap.fit_pair_budget(n)
    assert fmap.fit_pair_budget(n) <= n * m + m * m
    # far below the exact path's n(n-1)/2 once n >> m
    assert fmap.report.fit_pair_evaluations < n * (n - 1) // 2


def test_transform_agrees_with_train_features(engine, X):
    fmap = NystroemFeatureMap(engine, NystroemConfig(num_landmarks=8))
    phi_train = fmap.fit_transform(X)
    phi_again = fmap.transform(X)
    assert np.allclose(phi_again, phi_train, atol=1e-9)
    assert fmap.report.transform_pair_evaluations == X.shape[0] * 8


def test_transform_uses_cached_landmark_states(engine, X, rng):
    fmap = NystroemFeatureMap(engine, NystroemConfig(num_landmarks=8))
    fmap.fit(X)
    X_new = rng.uniform(0.1, 1.9, size=(3, 4))
    _, result = fmap.transform_result(X_new)
    # only the 3 new points are simulated; landmarks come from the store
    assert result.num_simulations == 3
    assert result.num_inner_products == 3 * 8


def test_spectral_rank_truncation(engine, X):
    fmap = NystroemFeatureMap(engine, NystroemConfig(num_landmarks=12, rank=5))
    phi = fmap.fit_transform(X)
    assert fmap.rank_ <= 5
    assert phi.shape == (X.shape[0], fmap.rank_)


def test_unfitted_transform_raises(engine, X):
    fmap = NystroemFeatureMap(engine, NystroemConfig(num_landmarks=4))
    with pytest.raises(KernelError):
        fmap.transform(X)


def test_config_validation():
    with pytest.raises(KernelError):
        NystroemConfig(num_landmarks=0)
    with pytest.raises(KernelError):
        NystroemConfig(num_landmarks=4, jitter=-1.0)
    with pytest.raises(KernelError):
        NystroemConfig(num_landmarks=4, rank=0)


def test_more_landmarks_than_samples_raises(engine, X):
    fmap = NystroemFeatureMap(engine, NystroemConfig(num_landmarks=X.shape[0] + 1))
    with pytest.raises(KernelError):
        fmap.fit(X)


def test_fit_equals_fit_with_landmarks_on_the_selected_rows(ansatz, X):
    """``fit`` is landmark selection followed by ``fit_with_landmarks``."""
    config = NystroemConfig(num_landmarks=6, strategy="kmeans", seed=3)
    selected = NystroemFeatureMap(KernelEngine(ansatz), config).fit(X)
    supplied = NystroemFeatureMap(KernelEngine(ansatz), config).fit_with_landmarks(
        X, X[selected.landmark_indices_]
    )
    assert selected.normalization_.tobytes() == supplied.normalization_.tobytes()
    assert selected.train_features_.tobytes() == supplied.train_features_.tobytes()
    assert np.array_equal(selected.landmark_rows_, supplied.landmark_rows_)
    assert supplied.landmark_indices_ is None
