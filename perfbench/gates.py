"""Correctness gates: a run whose outputs disagree with an oracle reports no numbers.

Every gate returns a list of error strings (empty when the outputs pass), so
the runner can fail the run and the benchmark's own tests can feed
corrupted outputs in and watch the gate trip.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.approx import StreamingNystroemClassifier
from repro.backends import CpuBackend
from repro.circuits import build_feature_map_circuit

#: Kernel entries from the batched paths must match the per-pair oracle to
#: this absolute tolerance (both are |<a|b>|^2 of the same states; only the
#: contraction order differs).
KERNEL_ATOL = 1e-10
AUC_ATOL = 1e-12
ORACLE_CHUNK = 64


def check_kernels(
    K_train: np.ndarray,
    K_test: np.ndarray,
    Xs_train: np.ndarray,
    Xs_test: np.ndarray,
    ansatz,
    samples: int,
    seed: int,
) -> List[str]:
    """Symmetry, unit diagonal and sampled entries against ``Backend.inner_product``."""
    errors: List[str] = []
    if not np.array_equal(K_train, K_train.T):
        errors.append("training Gram matrix is not symmetric")
    worst_diag = float(np.max(np.abs(np.diag(K_train) - 1.0)))
    if worst_diag > KERNEL_ATOL:
        errors.append(f"Gram diagonal deviates from 1 by {worst_diag:.3e}")
    backend = CpuBackend()
    states: Dict[Tuple[str, int], object] = {}

    def state(kind: str, i: int):
        key = (kind, i)
        if key not in states:
            row = Xs_train[i] if kind == "train" else Xs_test[i]
            circuit = build_feature_map_circuit(np.asarray(row, dtype=float), ansatz)
            states[key] = backend.simulate(circuit).state
        return states[key]

    rng = np.random.default_rng(seed)
    n_train, n_test = K_train.shape[0], K_test.shape[0]
    for _ in range(samples):
        i, j = (int(v) for v in rng.integers(0, n_train, size=2))
        t = int(rng.integers(0, n_test))
        checks = (
            ("Gram", i, j, K_train[i, j], state("train", i), state("train", j)),
            ("cross", t, j, K_test[t, j], state("test", t), state("train", j)),
        )
        for label, r, c, got, bra, ket in checks:
            want = abs(backend.inner_product(bra, ket).value) ** 2
            if abs(got - want) > KERNEL_ATOL:
                errors.append(f"{label}[{r},{c}] = {got!r}, oracle {want!r}")
    return errors


def rank_auc(y_true: np.ndarray, scores: np.ndarray) -> float:
    """ROC AUC as the Mann-Whitney statistic (ties count one half)."""
    y_true = np.asarray(y_true).ravel()
    scores = np.asarray(scores, dtype=float).ravel()
    pos = scores[y_true == 1]
    neg = scores[y_true != 1]
    if pos.size == 0 or neg.size == 0:
        return 0.5
    greater = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return float((greater + 0.5 * ties) / (pos.size * neg.size))


def check_auc(result, y_test: np.ndarray, aucs: Sequence[float]) -> List[str]:
    """The reported AUC matches a rank oracle and repeats exactly run to run."""
    errors: List[str] = []
    scores = result.grid.best_model.decision_function(result.test_kernel)
    oracle = rank_auc(y_test, scores)
    if abs(oracle - result.test_auc) > AUC_ATOL:
        errors.append(f"test AUC {result.test_auc!r} but rank oracle {oracle!r}")
    if len(set(aucs)) > 1:
        errors.append(f"test AUC differs between runs of one seed: {sorted(set(aucs))}")
    return errors


def oracle_decisions(
    payload: Mapping, rows: np.ndarray, store=None
) -> Tuple[np.ndarray, np.ndarray]:
    """(predictions, decision values) of a fresh replica's batched ``classify``.

    ``store`` optionally shares encoded states between oracle replicas of
    models with one scaler; states do not depend on the model.
    """
    classifier = StreamingNystroemClassifier.from_serving_payload(dict(payload), store=store)
    preds, values = [], []
    for lo in range(0, rows.shape[0], ORACLE_CHUNK):
        result = classifier.classify(rows[lo : lo + ORACLE_CHUNK])
        preds.append(np.asarray(result.predictions, dtype=int))
        values.append(np.asarray(result.decision_values, dtype=np.float64))
    return np.concatenate(preds), np.concatenate(values)


def check_decisions(
    served: Sequence[Tuple[int, int, int, float]],
    oracle: Mapping[int, Tuple[np.ndarray, np.ndarray]],
) -> List[str]:
    """Every served answer is byte-equal to the oracle of its model version.

    ``served`` holds ``(row index, model version, prediction, decision)``;
    ``oracle`` maps a model version to the per-row (predictions, decisions)
    of a batched ``classify`` under that version.
    """
    errors: List[str] = []
    for row, version, prediction, decision in served:
        if version not in oracle:
            errors.append(f"row {row} served by unknown model version {version}")
            continue
        preds, values = oracle[version]
        if np.float64(decision).tobytes() != values[row].tobytes():
            errors.append(
                f"row {row} (v{version}) decision {decision!r} != oracle {values[row]!r}"
            )
        elif int(prediction) != int(preds[row]):
            errors.append(f"row {row} (v{version}) prediction {prediction} != oracle")
        if len(errors) >= 10:
            break
    return errors
