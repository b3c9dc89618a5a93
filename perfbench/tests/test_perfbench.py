"""Tiny-size smoke runs of every workload, and the correctness gates tripping.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q`` from the
repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from perfbench import gates
from perfbench.ledger import PER_LAYER
from perfbench.speed import REFERENCE_S, SpeedProbe, latency_at_reference
from perfbench.stats import tail, tail_quantile
from perfbench.traffic import arrival_offsets
from perfbench.workloads import (
    TINY,
    UNACCOUNTED_TOLERANCE,
    WORKLOADS,
    dataset_pool,
    draw,
    fit_payload,
    make_ansatz,
    zipf_order,
)

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER_NAMES = {m["name"] for m in SPEC["per_layer"]}
SECONDS = {"train-exact": 0.5, "serve-cold": 1.0, "serve-hot": 1.5}


def test_spec_lists_every_workload_and_metric():
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert PER_LAYER_NAMES == {name for name, _unit in PER_LAYER}
    layer_map = json.loads((ROOT / "perfbench" / "layer_map.json").read_text())
    assert set(layer_map["per_layer"]) == PER_LAYER_NAMES
    for entry in layer_map["per_layer"].values():
        for metric, workload in entry["moves"]:
            assert metric in END_TO_END and workload in WORKLOADS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_smoke(workload):
    outcome = WORKLOADS[workload](3, SECONDS[workload], False, TINY)
    assert outcome.errors == []
    assert outcome.failed == 0 and outcome.attempted >= 1
    assert set(outcome.metrics) == END_TO_END
    assert all(value > 0 for value in outcome.metrics.values()), outcome.metrics


@pytest.mark.parametrize("workload", ["train-exact", "serve-hot"])
def test_traced_smoke_reconciles(workload):
    outcome = WORKLOADS[workload](4, SECONDS[workload], True, TINY)
    assert outcome.errors == []
    assert set(outcome.metrics) == PER_LAYER_NAMES
    share = outcome.metrics["trace.unaccounted_share"]
    # Serving requests count generator lag as unaccounted, which a loaded
    # machine inflates; a pipeline run has no such part.
    limit = UNACCOUNTED_TOLERANCE if workload == "train-exact" else 1.0
    assert 0.0 <= share <= limit
    assert outcome.trace["spans"]["spans"]
    if workload == "serve-hot":
        # Swaps build new classifiers; the class-level wrappers still see them.
        assert outcome.metrics["serving.swap_ms"] > 0
        assert outcome.metrics["engine.kernel_rows.self_ms"] > 0
        assert outcome.metrics["control.step_p50_ms"] > 0


def _exact_result():
    from repro import QuantumKernelPipeline
    from repro.svm import train_test_split

    X, y, _, _ = draw(dataset_pool(TINY), 5, TINY.train_rows + TINY.test_rows)
    X_train, X_test, y_train, y_test = train_test_split(X, y, test_fraction=1 / 3, seed=5)
    pipeline = QuantumKernelPipeline(make_ansatz(TINY))
    result = pipeline.run(X_train, y_train, X_test, y_test)
    Xs_train = pipeline.scaler.transform(X_train)
    Xs_test = pipeline.scaler.transform(X_test)
    return result, Xs_train, Xs_test, y_test


def test_kernel_gate_trips_on_a_corrupted_entry():
    result, Xs_train, Xs_test, y_test = _exact_result()
    args = (Xs_train, Xs_test, make_ansatz(TINY), 64, 0)
    assert gates.check_kernels(result.train_kernel, result.test_kernel, *args) == []
    bad_cross = result.test_kernel.copy()
    bad_cross += 1e-6
    assert gates.check_kernels(result.train_kernel, bad_cross, *args)
    bad_gram = result.train_kernel.copy()
    bad_gram[0, 1] += 1e-6
    assert gates.check_kernels(bad_gram, result.test_kernel, *args)


def test_auc_gate_trips_on_a_wrong_or_unrepeatable_auc():
    result, _, _, y_test = _exact_result()
    assert gates.check_auc(result, y_test, [result.test_auc] * 2) == []
    assert gates.check_auc(result, y_test, [result.test_auc, result.test_auc - 0.01])
    wrong = replace(result, test_metrics={**result.test_metrics, "auc": result.test_auc - 0.01})
    assert gates.check_auc(wrong, y_test, [wrong.test_auc])


def test_decision_gate_trips_on_one_flipped_bit():
    X, y, rows, _ = draw(dataset_pool(TINY), 6, TINY.serve_train_rows, held_out=8)
    payload = fit_payload(TINY, X, y, 6)
    preds, values = gates.oracle_decisions(payload, rows)
    served = [(i, 0, int(preds[i]), float(values[i])) for i in range(len(rows))]
    assert gates.check_decisions(served, {0: (preds, values)}) == []
    row, version, pred, value = served[3]
    served[3] = (row, version, pred, float(np.nextafter(value, np.inf)))
    assert gates.check_decisions(served, {0: (preds, values)})
    assert gates.check_decisions(served[:1], {1: (preds, values)})


def test_tail_keeps_ten_samples_beyond():
    assert tail_quantile(2000) == 0.99
    assert tail_quantile(400) == pytest.approx(0.975)
    assert tail_quantile(10) == 0.5
    values = list(range(1000))
    assert tail(values)[0] == pytest.approx(989.01)


def test_latency_rescales_only_beyond_the_window():
    out = latency_at_reference([0.003, 0.005, 0.025], 0.005, [2.0, 2.0, 2.0])
    assert out == pytest.approx([0.003, 0.005, 0.015])


def test_slowdown_averages_the_samples_of_each_interval():
    probe = SpeedProbe()
    probe._wall = [0.0, 1.0, 2.0, 3.0]
    probe._cpu = [REFERENCE_S, 2 * REFERENCE_S, 3 * REFERENCE_S, 4 * REFERENCE_S]
    slow = probe.slowdown([0.9, 0.5, 10.0], [2.1, 0.5, 11.0])
    # [0.9, 2.1] holds the samples at 1 and 2; an empty interval takes the
    # next sample, and one past the end the last.
    assert slow == pytest.approx([2.5, 2.0, 4.0])


def test_every_seed_offers_the_same_load():
    first = arrival_offsets(np.random.default_rng(1), 50.0, 4.0)
    second = arrival_offsets(np.random.default_rng(2), 50.0, 4.0)
    assert first.size == second.size == 200
    assert np.all(np.diff(first) > 0)
    assert not np.array_equal(first, second)
    assert np.sort(np.diff(first, prepend=0)) == pytest.approx(np.sort(np.diff(second, prepend=0)))
    a = zipf_order(np.random.default_rng(1), 32, 450, 1.1, 100)
    b = zipf_order(np.random.default_rng(2), 32, 450, 1.1, 100)
    assert a.size == 450 and not np.array_equal(a, b)
    for lo in range(0, 400, 100):
        counts = np.bincount(a[lo : lo + 100], minlength=32)
        assert np.array_equal(counts, np.bincount(b[lo : lo + 100], minlength=32))
    assert counts[0] > counts[31]


def test_launcher_refuses_a_tree_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
