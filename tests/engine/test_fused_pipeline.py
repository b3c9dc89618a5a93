"""Tests for the one in-process rectangular kernel path.

:meth:`KernelEngine.cross` and :meth:`KernelEngine.kernel_rows` run one
schedule: a cache-aware encode of the store misses, one stacked block overlap
sweep, and only then the state-store writes.  Every test compares that path
against oracles built from public pieces -- the unfused schedule
(``encode_rows`` then ``inner_product_block``), the per-pair plan path
(``execute_plan(CrossGramPlan)``) over per-point ``simulate()`` states -- and
pins byte-identical kernels, the same cache hit/miss deltas and the same
store occupancy, plus the one thing the schedule adds: no store write sits on
the critical path between encode and overlap.
"""

import numpy as np
import pytest

from repro.backends import (
    CPU_COST_MODEL,
    CpuBackend,
    DeviceCostModel,
    SimulatedGpuBackend,
)
from repro.circuits import build_feature_map_circuit
from repro.config import AnsatzConfig, SimulationConfig
from repro.engine import (
    CrossGramPlan,
    EngineConfig,
    KernelEngine,
    StackedStateBlock,
    StateStore,
)

ANSATZ = AnsatzConfig(num_features=5, interaction_distance=2, layers=1, gamma=0.8)

#: The public rectangular entry points; all run the same in-process path.
ENTRY_POINTS = {
    "cross": lambda engine, X, states, block: engine.cross(X, states),
    "rows-with-block": lambda engine, X, states, block: engine.kernel_rows(
        X, states, block=block
    ),
    "rows-without-block": lambda engine, X, states, block: engine.kernel_rows(
        X, states
    ),
}


class ProbeStore(StateStore):
    """State store recording every get/put into a shared event list."""

    def __init__(self, events):
        super().__init__()
        self.events = events

    def get(self, key):
        state = super().get(key)
        self.events.append(("get", state is not None))
        return state

    def put(self, key, state):
        self.events.append(("put",))
        super().put(key, state)


def _engine(store=None, use_cache=True, cross_backend=None, **cfg):
    return KernelEngine(
        ANSATZ,
        backend=CpuBackend(SimulationConfig()),
        config=EngineConfig(use_cache=use_cache, **cfg),
        store=store,
        cross_backend=cross_backend,
    )


def _cheaper_backend():
    """A CPU backend whose cost model always predicts the cheaper sweep."""
    fast_model = DeviceCostModel(
        "always-cheaper",
        gate_overhead_s=CPU_COST_MODEL.gate_overhead_s / 1e6,
        svd_overhead_s=CPU_COST_MODEL.svd_overhead_s / 1e6,
        contraction_gflops=CPU_COST_MODEL.contraction_gflops * 1e6,
        svd_gflops=CPU_COST_MODEL.svd_gflops * 1e6,
    )
    return CpuBackend(SimulationConfig(), cost_model=fast_model)


@pytest.fixture(scope="module")
def train_parts():
    rng = np.random.default_rng(5)
    X_train = rng.uniform(0.05, 1.95, size=(7, 5))
    states = _engine(use_cache=False).encode_rows(X_train)
    return states, StackedStateBlock(states)


def _spy_block_sweep(backend, events):
    """Record a ``("block",)`` event whenever ``backend`` runs the sweep."""
    original = backend.inner_product_block

    def spy(bras, block):
        events.append(("block",))
        return original(bras, block)

    backend.inner_product_block = spy


def _occupancy(engine):
    stats = engine.cache_stats()
    return None if stats is None else (stats.num_entries, stats.bytes_in_use)


def _cache_counts(engine):
    stats = engine.cache_stats()
    return (0, 0) if stats is None else (stats.hits, stats.misses)


def _oracles(X, states, block, warm_rows=0, **cfg):
    """Kernels, cache deltas and store occupancy from public pieces."""
    engine = _engine(**cfg)
    if warm_rows:
        engine.encode_rows(X[:warm_rows])
    hits0, misses0 = _cache_counts(engine)
    unfused = engine.backend.inner_product_block(engine.encode_rows(X), block)
    hits1, misses1 = _cache_counts(engine)
    pointwise = [
        engine.backend.simulate(build_feature_map_circuit(row, ANSATZ)).state
        for row in X
    ]
    pairs = engine.execute_plan(CrossGramPlan(len(X), len(states)), pointwise, states)
    return {
        "unfused": np.abs(unfused.values) ** 2,
        "pairs": pairs,
        "deltas": (hits1 - hits0, misses1 - misses0),
        "occupancy": _occupancy(engine),
    }


def _check_single_path(
    X, states, block, entry="rows-with-block", warm_rows=0, cross_backend=None, **cfg
):
    """Run one entry point and assert it matches every oracle.

    Returns the engine result and the probe's event list (store gets/puts
    and the block sweep, in order).
    """
    events = []
    use_cache = cfg.pop("use_cache", True)
    store = ProbeStore(events) if use_cache else None
    engine = _engine(store=store, use_cache=use_cache, cross_backend=cross_backend, **cfg)
    if warm_rows:
        engine.encode_rows(X[:warm_rows])
    events.clear()
    _spy_block_sweep(engine.backend, events)
    if cross_backend is not None:
        _spy_block_sweep(cross_backend, events)

    result = ENTRY_POINTS[entry](engine, X, states, block)

    oracle = _oracles(X, states, block, warm_rows, use_cache=use_cache, **cfg)
    assert result.matrix.shape == (X.shape[0], len(states))
    assert result.matrix.tobytes() == oracle["unfused"].tobytes()
    assert result.matrix.tobytes() == oracle["pairs"].tobytes()
    assert (result.cache_hits, result.cache_misses) == oracle["deltas"]
    assert _occupancy(engine) == oracle["occupancy"]
    assert events.count(("block",)) == 1
    sweep_at = events.index(("block",))
    assert ("put",) not in events[:sweep_at]
    return result, events


# ----------------------------------------------------------------------
# The oracle matrix: every entry point x store state x sweep backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cheaper_backend", [False, True], ids=["cpu", "cheaper"])
@pytest.mark.parametrize("store_state", ["no-store", "cold", "warm", "duplicates"])
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_single_path_matches_oracles(train_parts, entry, store_state, cheaper_backend):
    states, block = train_parts
    X = np.random.default_rng(71).uniform(0.05, 1.95, size=(6, 5))
    if store_state == "duplicates":
        X[3] = X[0]
        X[5] = X[0]
    cross_backend = _cheaper_backend() if cheaper_backend else None
    result, events = _check_single_path(
        X,
        states,
        block,
        entry=entry,
        warm_rows=3 if store_state == "warm" else 0,
        cross_backend=cross_backend,
        use_cache=store_state != "no-store",
    )
    if cross_backend is not None:
        assert cross_backend.num_inner_products == X.shape[0] * len(states)
    if store_state == "no-store":
        assert result.cache_hits == result.cache_misses == 0
    else:
        # Every fresh state is written exactly once, after the sweep.
        assert events.count(("put",)) == result.cache_misses


# ----------------------------------------------------------------------
# Value + accounting equivalence across batch sizes and cache states
# ----------------------------------------------------------------------
@pytest.mark.parametrize("batch_rows", [1, 2, 5, 9])
def test_fused_rows_byte_identical_cold(train_parts, batch_rows):
    states, block = train_parts
    X = np.random.default_rng(batch_rows).uniform(0.05, 1.95, size=(batch_rows, 5))
    result, _ = _check_single_path(X, states, block)
    assert result.num_simulations == batch_rows


@pytest.mark.parametrize("warm_rows", [0, 2, 6])
def test_fused_rows_byte_identical_with_warm_store(train_parts, warm_rows):
    states, block = train_parts
    X = np.random.default_rng(17).uniform(0.05, 1.95, size=(6, 5))
    result, _ = _check_single_path(X, states, block, warm_rows=warm_rows)
    assert result.cache_hits >= warm_rows


def test_fused_rows_with_intra_batch_duplicates(train_parts):
    states, block = train_parts
    X = np.random.default_rng(29).uniform(0.05, 1.95, size=(6, 5))
    X[3] = X[0]
    X[5] = X[0]
    result, _ = _check_single_path(X, states, block)
    assert np.array_equal(result.matrix[3], result.matrix[0])
    assert np.array_equal(result.matrix[5], result.matrix[0])
    # Duplicates resolve to store hits; only the 4 distinct rows simulate.
    assert (result.cache_hits, result.cache_misses) == (2, 4)
    assert result.num_simulations == 4


def test_fused_rows_without_a_store(train_parts):
    states, block = train_parts
    X = np.random.default_rng(31).uniform(0.05, 1.95, size=(4, 5))
    result, _ = _check_single_path(X, states, block, use_cache=False)
    assert result.cache_hits == result.cache_misses == 0


def test_fused_leaves_identical_store_occupancy(train_parts):
    states, block = train_parts
    X = np.random.default_rng(37).uniform(0.05, 1.95, size=(5, 5))
    store = StateStore()
    _engine(store=store).kernel_rows(X, states, block=block)
    oracle = _oracles(X, states, block)
    assert (store.stats().num_entries, store.stats().bytes_in_use) == oracle[
        "occupancy"
    ]
    assert store.stats().num_entries == 5


def test_fused_per_point_encoding_fallback(train_parts):
    """With batch_encoding off the misses are encoded point by point -- still
    ahead of the one sweep, still byte-identical."""
    states, block = train_parts
    X = np.random.default_rng(41).uniform(0.05, 1.95, size=(4, 5))
    _check_single_path(X, states, block, batch_encoding=False)


# ----------------------------------------------------------------------
# The scheduling difference itself
# ----------------------------------------------------------------------
def test_unfused_store_writes_sit_before_the_sweep(train_parts):
    """The unfused oracle schedule writes every miss before its sweep, so
    the probe below can tell the two schedules apart."""
    states, block = train_parts
    X = np.random.default_rng(43).uniform(0.05, 1.95, size=(5, 5))
    events = []
    engine = _engine(store=ProbeStore(events))
    _spy_block_sweep(engine.backend, events)
    engine.backend.inner_product_block(engine.encode_rows(X), block)
    sweep_at = events.index(("block",))
    assert sum(1 for e in events[:sweep_at] if e == ("put",)) == 5


def test_fused_store_writes_are_off_the_critical_path(train_parts):
    states, block = train_parts
    X = np.random.default_rng(43).uniform(0.05, 1.95, size=(5, 5))
    X[4] = X[1]  # one intra-batch duplicate rides along
    result, events = _check_single_path(X, states, block)
    sweep_at = events.index(("block",))
    before, after = events[:sweep_at], events[sweep_at + 1 :]
    # Critical path: only the initial store lookups -- zero writes.
    assert all(e[0] == "get" for e in before)
    # The writes (one per distinct miss) and the duplicate's hit happen
    # after the kernel block exists.
    assert sum(1 for e in after if e == ("put",)) == 4
    assert ("get", True) in after
    assert (result.cache_hits, result.cache_misses) == (1, 4)


# ----------------------------------------------------------------------
# Cross block sweep + modelled dispatch
# ----------------------------------------------------------------------
def test_cross_block_sweep_byte_identical_to_pair_path(train_parts):
    states, _ = train_parts
    X = np.random.default_rng(47).uniform(0.05, 1.95, size=(6, 5))
    sweep = _engine().cross(X, states)
    reference = _engine(use_cache=False)
    row_states = reference.encode_rows(X)
    reference.backend.reset_counters()
    pairs = reference.execute_plan(CrossGramPlan(len(X), len(states)), row_states, states)
    summary = reference.backend.timing_summary()
    assert sweep.matrix.tobytes() == pairs.tobytes()
    assert sweep.num_inner_products == summary["num_inner_products"]
    assert sweep.modelled_batched_inner_product_time_s == pytest.approx(
        summary["modelled_batched_inner_product_time_s"]
    )


def test_tiled_executor_cross_runs_the_block_sweep(train_parts):
    """The tiled executor only reorders symmetric Gram jobs: its cross runs
    the same single block sweep as the sequential executor, bit for bit."""
    states, _ = train_parts
    X = np.random.default_rng(53).uniform(0.05, 1.95, size=(4, 5))
    sequential = _engine().cross(X, states)
    tiled = _engine(executor="tiled", num_blocks=2)
    events = []
    _spy_block_sweep(tiled.backend, events)
    result = tiled.cross(X, states)
    assert events == [("block",)]
    assert result.matrix.tobytes() == sequential.matrix.tobytes()


def test_dispatch_stays_on_cpu_at_small_chi(train_parts):
    """With the real device models, a small-chi block never clears the GPU's
    launch overhead: the sweep stays on the primary backend."""
    states, _ = train_parts
    gpu = SimulatedGpuBackend(SimulationConfig())
    engine = _engine(cross_backend=gpu)
    X = np.random.default_rng(59).uniform(0.05, 1.95, size=(4, 5))
    reference = _engine().cross(X, states)
    routed = engine.cross(X, states)
    assert routed.matrix.tobytes() == reference.matrix.tobytes()
    assert gpu.num_inner_products == 0


def test_dispatch_moves_to_the_cheaper_modelled_device(train_parts):
    """A cross backend whose model predicts a cheaper stacked sweep receives
    the block -- and, both backends running identical numerics, the kernel
    does not move a bit."""
    states, _ = train_parts
    fast = _cheaper_backend()
    engine = _engine(cross_backend=fast)
    X = np.random.default_rng(61).uniform(0.05, 1.95, size=(4, 5))
    reference = _engine().cross(X, states)
    routed = engine.cross(X, states)
    assert routed.matrix.tobytes() == reference.matrix.tobytes()
    assert fast.num_inner_products == 4 * len(states)
    # The dispatched backend's accounting is merged into the result.
    assert routed.num_inner_products == reference.num_inner_products


def test_result_carries_the_stacked_launch_model(train_parts):
    states, block = train_parts
    X = np.random.default_rng(67).uniform(0.05, 1.95, size=(5, 5))
    result = _engine().kernel_rows(X, states, block=block)
    assert result.modelled_batched_simulation_time_s > 0.0
    assert result.modelled_batched_inner_product_time_s > 0.0
    # Stacking can only amortise launches, never add work.
    assert result.modelled_batched_total_time_s <= result.modelled_total_time_s
    assert result.modelled_batched_total_time_s == pytest.approx(
        result.modelled_batched_simulation_time_s
        + result.modelled_batched_inner_product_time_s
    )
