"""Metamorphic relations of the telemetry layer.

The deterministic metric families -- request counts, simulation counts,
store miss totals, encode launch counts -- are pure functions of the request
stream, so identical streams must reproduce them exactly however the stream
was coalesced, however many replicas served it, and whether the caches
started warm or cold.  :meth:`MetricsRegistry.deterministic_snapshot` is the
filtered view these relations pin (wall-clock families are excluded by
naming convention); predictions ride along byte-identical as always.
"""

import numpy as np
import pytest

from repro.serving import AsyncServingQueue, ReplicaRouter
from repro.telemetry import MetricsRegistry, bind_queue, bind_router


@pytest.fixture(scope="module")
def served_engine(fit_served_engine):
    return fit_served_engine(data_seed=11, size=24, subsample_seed=3, landmarks=6)


@pytest.fixture(scope="module")
def payload(served_engine):
    return served_engine.serving_payload()


@pytest.fixture(scope="module")
def queries():
    rng = np.random.default_rng(77)
    return rng.normal(size=(16, 4))


def _serve_queue(served_engine, queries, **queue_kwargs):
    """One full pass through a fresh queue; returns (snapshot, decisions)."""
    registry = MetricsRegistry()
    with AsyncServingQueue(
        served_engine.streaming_classifier(), **queue_kwargs
    ) as queue:
        bind_queue(registry, queue)
        futures = [queue.submit(row) for row in queries]
        queue.flush()
        results = [f.result(timeout=30) for f in futures]
    return registry.deterministic_snapshot(), np.array(
        [r.decision_value for r in results]
    )


def _serve_router(payload, queries, num_replicas, **router_kwargs):
    registry = MetricsRegistry()
    router = ReplicaRouter(
        payload,
        num_replicas=num_replicas,
        policy="key-affinity",
        max_batch=4,
        max_wait_ms=2.0,
        **router_kwargs,
    )
    try:
        bind_router(registry, router)
        futures = [router.submit(row) for row in queries]
        router.flush()
        results = [f.result(timeout=30) for f in futures]
    finally:
        router.close()
    return registry.deterministic_snapshot(), np.array(
        [r.decision_value for r in results]
    )


def _family_total(snapshot, name):
    """Sum a family's value over every labeled series (fleet total)."""
    return sum(entry["value"] for entry in snapshot[name]["series"])


# ----------------------------------------------------------------------
# Relation 1: identical streams -> identical deterministic snapshots.
# ----------------------------------------------------------------------
def test_identical_streams_identical_snapshots(served_engine, queries):
    kwargs = dict(max_batch=4, max_wait_ms=2.0)
    snap_a, dec_a = _serve_queue(served_engine, queries, **kwargs)
    snap_b, dec_b = _serve_queue(served_engine, queries, **kwargs)
    assert dec_a.tobytes() == dec_b.tobytes()
    # The second pass runs against a warmer engine store (module-scoped
    # engine), so store hit/miss totals legitimately differ; every queue-
    # level deterministic family must match exactly.
    for name in (
        "repro_serving_requests_total",
        "repro_serving_enqueued_total",
        "repro_serving_memo_hits_total",
        "repro_serving_batch_size",
    ):
        assert snap_a[name] == snap_b[name], name


def test_snapshot_excludes_wall_clock_families(served_engine, queries):
    snapshot, _ = _serve_queue(served_engine, queries, max_batch=4, max_wait_ms=2.0)
    assert not any(
        name.endswith(("_seconds", "_rps")) for name in snapshot
    ), sorted(snapshot)
    # ... while the full dictionary does carry them (they are exported,
    # just not part of the deterministic contract).


# ----------------------------------------------------------------------
# Relation 2: coalescing invariance -- totals don't depend on batching.
# ----------------------------------------------------------------------
def test_coalescing_invariant_totals(served_engine, queries):
    # memoize=False so the second configuration cannot be served from the
    # response memo; the engine store is shared (module fixture), so we pin
    # the queue-level totals plus the prediction bytes.
    snap_small, dec_small = _serve_queue(
        served_engine, queries, max_batch=2, max_wait_ms=1.0, memoize=False
    )
    snap_large, dec_large = _serve_queue(
        served_engine, queries, max_batch=16, max_wait_ms=50.0, memoize=False
    )
    assert dec_small.tobytes() == dec_large.tobytes()
    for name in ("repro_serving_requests_total", "repro_serving_enqueued_total"):
        assert _family_total(snap_small, name) == _family_total(snap_large, name)
    # Batch *sizes* differ by construction -- their sum may not.
    sizes_small = snap_small["repro_serving_batch_size"]["series"][0]
    sizes_large = snap_large["repro_serving_batch_size"]["series"][0]
    assert sizes_small["count"] >= sizes_large["count"]
    assert sizes_small["sum"] == sizes_large["sum"] == len(queries)


# ----------------------------------------------------------------------
# Relation 3: replica-count invariance under key affinity.
# ----------------------------------------------------------------------
def test_replica_count_invariant_fleet_totals(payload, queries):
    stream = np.vstack([queries, queries[:6]])  # repeats exercise affinity
    snapshots = {}
    decisions = {}
    for n in (1, 2, 3):
        snapshots[n], decisions[n] = _serve_router(payload, stream, num_replicas=n)
    for n in (2, 3):
        assert decisions[n].tobytes() == decisions[1].tobytes()
        for name in (
            "repro_serving_requests_total",
            "repro_serving_enqueued_total",
            "repro_router_routed_total",
            "repro_backend_simulations_total",
            "repro_store_misses_total",
            "repro_serving_memo_hits_total",
        ):
            assert _family_total(snapshots[n], name) == _family_total(
                snapshots[1], name
            ), (name, n)
        assert _family_total(snapshots[n], "repro_router_shed_total") == 0


# ----------------------------------------------------------------------
# Relation 4: warm vs cold start -- the warm pass simulates nothing.
# ----------------------------------------------------------------------
def test_warm_start_serves_without_simulations(payload, queries, tmp_path):
    root = tmp_path / "snapshots"
    cold_snap, cold_dec = _serve_router(
        payload, queries, num_replicas=1, persistence_root=root
    )

    # Persist the warmed cache, then serve the same stream from a fresh
    # fleet warmed from disk.
    router = ReplicaRouter(
        payload, num_replicas=1, persistence_root=root, max_batch=4
    )
    try:
        futures = [router.submit(row) for row in queries]
        router.flush()
        [f.result(timeout=30) for f in futures]
        router.snapshot()
    finally:
        router.close()

    warm_snap, warm_dec = _serve_router(
        payload, queries, num_replicas=1, persistence_root=root
    )
    assert warm_dec.tobytes() == cold_dec.tobytes()
    assert _family_total(cold_snap, "repro_backend_simulations_total") == len(
        np.unique(queries, axis=0)
    )
    assert _family_total(warm_snap, "repro_backend_simulations_total") == 0
    assert _family_total(warm_snap, "repro_store_misses_total") == 0
    assert _family_total(warm_snap, "repro_store_hits_total") == len(queries)
