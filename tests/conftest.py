"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.approx import NystroemConfig
from repro.config import AnsatzConfig
from repro.core import QuantumKernelInferenceEngine
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like

#: Ansatz of the serving suites' small fitted Nystrom model.
SERVED_ANSATZ = AnsatzConfig(num_features=4, interaction_distance=1, layers=1, gamma=0.6)


@pytest.fixture(scope="session")
def fit_served_engine():
    """Factory for the serving suites' small fitted Nystrom-backed engine.

    ``fit_served_engine(data_seed, size, subsample_seed, landmarks)`` draws a
    balanced ``size``-row subsample (seed ``subsample_seed``) of a 400-row,
    4-feature Elliptic-like dataset (seed ``data_seed``) and fits a
    :class:`QuantumKernelInferenceEngine` on it with ``landmarks`` Nystrom
    landmarks (selector seed ``landmark_seed``).  Each suite wraps it in its
    own module-scoped ``served_engine`` fixture with its own seeds.
    """

    def fit(data_seed, size, subsample_seed, landmarks, landmark_seed=0):
        data = balanced_subsample(
            generate_elliptic_like(
                DatasetSpec(num_samples=400, num_features=4, seed=data_seed)
            ),
            size,
            seed=subsample_seed,
        )
        engine = QuantumKernelInferenceEngine(
            SERVED_ANSATZ,
            approximation=NystroemConfig(num_landmarks=landmarks, seed=landmark_seed),
        )
        return engine.fit(data.features, data.labels)

    return fit


@pytest.fixture(scope="session")
def small_dataset():
    """A small balanced dataset reused by pipeline/integration tests."""
    full = generate_elliptic_like(
        DatasetSpec(num_samples=600, num_features=8, seed=11)
    )
    return balanced_subsample(full, 40, seed=3)


@dataclass(frozen=True)
class DriftScenario:
    """One seeded drift-injection scenario for the adaptation suites.

    A training split, a disjoint calibration split, and a labelled request
    stream whose distribution changes at ``changepoint``: rows before it are
    exchangeable with the calibration data, rows from it onward carry the
    injected shift.  ``kind`` is one of:

    * ``"iid"``       -- no shift (the false-alarm control);
    * ``"covariate"`` -- the post-changepoint rows are translated by
      ``shift`` training standard deviations per feature (labels keep their
      pre-shift meaning, the input geometry moves);
    * ``"label"``     -- post-changepoint labels of class 1 flip to 0 with
      probability ``flip`` (the geometry stays, the concept moves).
    """

    kind: str
    X_train: np.ndarray
    y_train: np.ndarray
    X_calib: np.ndarray
    y_calib: np.ndarray
    X_stream: np.ndarray
    y_stream: np.ndarray
    changepoint: int


def make_drifted_stream(
    kind: str = "covariate",
    num_features: int = 4,
    train_size: int = 60,
    calib_size: int = 60,
    stream_size: int = 600,
    changepoint: int = 120,
    shift: float = 2.0,
    flip: float = 0.6,
    seed: int = 0,
) -> DriftScenario:
    """Build a :class:`DriftScenario` with fully seeded randomness.

    All three splits are disjoint slices of **one** balanced subsample of a
    single generated dataset: the generator draws fresh cluster centroids
    per seed, so independently seeded datasets are *different*
    distributions -- splitting one shuffled pool is what makes the
    calibration data and the pre-changepoint stream genuinely exchangeable,
    leaving the injected change as the only shift present.
    """
    if kind not in ("iid", "covariate", "label"):
        raise ValueError(f"unknown drift kind {kind!r}")
    total = train_size + calib_size + stream_size
    pool = balanced_subsample(
        generate_elliptic_like(
            DatasetSpec(
                num_samples=max(4000, 8 * total),
                num_features=num_features,
                seed=seed + 11,
            )
        ),
        total if total % 2 == 0 else total + 1,
        seed=seed + 3,
    )
    X = np.array(pool.features, dtype=float)
    y = np.array(pool.labels, dtype=int)
    X_train, y_train = X[:train_size], y[:train_size]
    X_calib = X[train_size : train_size + calib_size]
    y_calib = y[train_size : train_size + calib_size]
    X_stream = X[train_size + calib_size : total].copy()
    y_stream = y[train_size + calib_size : total].copy()
    rng = np.random.default_rng(seed + 41)
    if kind == "covariate":
        X_stream[changepoint:] += shift * np.std(X_train, axis=0)
    elif kind == "label":
        tail = y_stream[changepoint:]
        flips = (tail == 1) & (rng.random(tail.size) < flip)
        y_stream[changepoint:] = np.where(flips, 0, tail)
    return DriftScenario(
        kind=kind,
        X_train=X_train,
        y_train=y_train,
        X_calib=X_calib,
        y_calib=y_calib,
        X_stream=X_stream,
        y_stream=y_stream,
        changepoint=changepoint,
    )


@pytest.fixture
def drifted_stream():
    """Factory fixture: ``drifted_stream(kind=..., seed=...)`` scenarios."""
    return make_drifted_stream


@pytest.fixture
def rng():
    """Deterministic NumPy generator for tests that need randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_ansatz():
    """A 4-qubit ansatz cheap enough for exhaustive cross-validation."""
    return AnsatzConfig(num_features=4, interaction_distance=2, layers=2, gamma=0.8)


def random_statevector(num_qubits: int, rng: np.random.Generator) -> np.ndarray:
    """Normalised random complex statevector on ``num_qubits`` qubits."""
    dim = 2**num_qubits
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix."""
    mat = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(mat)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases
