"""Encoding benchmark: stacked batch encoding vs per-point circuit simulation.

The serving story batches overlaps, caches states and coalesces requests --
but until the batched encoding subsystem, every *cold* feature vector still
simulated its circuit one gate-sweep at a time.  This benchmark measures what
the stacked sweep (:meth:`repro.backends.Backend.simulate_batch`) buys:

* **encode throughput**: a block of fresh rows encoded per-point
  (``backend.simulate`` in a loop) versus in stacked sweeps at several batch
  sizes, with byte-identical states asserted between every mode;
* **modelled device time**: the per-point versus stacked cost-model entries
  on both the CPU and simulated-GPU models (the A100's launch overhead is
  what stacking amortises, extending the Fig. 5 crossover picture);
* **cold-query serving latency**: a stream of entirely-unseen rows pushed
  through :class:`repro.serving.AsyncServingQueue` with batch encoding on
  and off -- throughput and p50/p99 latency per mode, byte-identical
  decision values required.

The script writes ``BENCH_encoding.json`` and exits non-zero when the
acceptance contract breaks:

* batch-32 encode throughput must reach at least ``--min-speedup`` (2x) the
  per-point path;
* every mode must produce byte-identical states / predictions.

``--scenario fused`` benchmarks the fused encode-to-overlap pipeline
instead, writing ``BENCH_fused.json``:

* **cold flush as one pipeline**: a cold kernel-row block executed unfused
  (``encode_rows`` -> store writes -> block sweep, composed from public
  pieces) versus fused (:meth:`repro.engine.KernelEngine.kernel_rows`;
  store written after the sweep).  A probe store counts the store writes
  sitting on the critical path -- the fused pipeline must show **zero** -- with
  byte-identical kernels and identical hit/miss accounting required;
* **prefix-sharing encode tree**: a mixed-ansatz batch encoded with and
  without prefix sharing; stacked launches, fork count and wall time per
  mode, bit-identical states required;
* **modelled cross dispatch**: the Nystrom-scale ``K_nm`` block swept
  through an engine with a GPU cross backend -- the stacked cost models of
  both devices, which one the engine chose, and proof the block actually
  ran on it (with byte-identical values).

Run with:  python benchmarks/bench_encoding.py [--out BENCH_encoding.json]
           python benchmarks/bench_encoding.py --scenario fused [--out BENCH_fused.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import __version__
from repro.approx import LinearSVC, NystroemConfig, NystroemFeatureMap
from repro.approx.streaming import StreamingNystroemClassifier
from repro.backends import CpuBackend, SimulatedGpuBackend
from repro.circuits import build_feature_map_circuit
from repro.config import AnsatzConfig
from repro.engine import EngineConfig, KernelEngine, StackedStateBlock, StateStore
from repro.serving import AsyncServingQueue
from repro.telemetry import (
    MetricsRegistry,
    bind_engine,
    bind_queue,
    render_prometheus,
)


def maybe_emit_metrics(args, payload: dict) -> None:
    """Dump the bound registry: Prometheus text at the flag's path + JSON."""
    if args.metrics_registry is None:
        return
    args.emit_metrics.write_text(render_prometheus(args.metrics_registry))
    snapshot = args.metrics_registry.to_dict()
    json_path = Path(str(args.emit_metrics) + ".json")
    json_path.write_text(json.dumps(snapshot, indent=2, sort_keys=True))
    payload["telemetry"] = {
        "metrics_path": str(args.emit_metrics),
        "json_path": str(json_path),
        "families": len(snapshot),
    }
    print(f"wrote {args.emit_metrics} + {json_path} ({len(snapshot)} families)")


def states_identical(left, right) -> bool:
    """Byte-level equality of two encoded state lists."""
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if len(a.tensors) != len(b.tensors):
            return False
        for ta, tb in zip(a.tensors, b.tensors):
            if ta.shape != tb.shape or ta.tobytes() != tb.tobytes():
                return False
    return True


def run_encode_throughput(args, rng) -> tuple[list[dict], list[str]]:
    """Per-point vs stacked encode rates on one block of fresh rows."""
    ansatz = AnsatzConfig(
        num_features=args.features,
        interaction_distance=args.distance,
        layers=args.layers,
        gamma=0.8,
    )
    X = rng.uniform(0.05, 1.95, size=(args.rows, args.features))
    circuits = [build_feature_map_circuit(row, ansatz) for row in X]

    backend = CpuBackend()
    backend.simulate_batch(circuits[:4])  # warm NumPy/LAPACK paths
    start = time.perf_counter()
    reference = [backend.simulate(c).state for c in circuits]
    per_point_s = time.perf_counter() - start

    records = [
        {
            "mode": "per-point",
            "batch_size": 1,
            "wall_s": per_point_s,
            "encodes_per_sec": len(circuits) / per_point_s,
            "byte_identical": True,
        }
    ]
    failures: list[str] = []
    for batch_size in (1, 8, args.batch):
        backend = CpuBackend()
        start = time.perf_counter()
        states: list = []
        for lo in range(0, len(circuits), batch_size):
            states.extend(
                backend.simulate_batch(circuits[lo : lo + batch_size]).states
            )
        elapsed = time.perf_counter() - start
        identical = states_identical(states, reference)
        record = {
            "mode": "batched",
            "batch_size": batch_size,
            "wall_s": elapsed,
            "encodes_per_sec": len(circuits) / elapsed,
            "speedup_vs_per_point": per_point_s / elapsed,
            "byte_identical": identical,
        }
        records.append(record)
        print(
            f"encode batch={batch_size}: {elapsed:.3f} s "
            f"({record['encodes_per_sec']:.0f} encodes/s, "
            f"{record['speedup_vs_per_point']:.2f}x, identical={identical})"
        )
        if not identical:
            failures.append(f"batched encode (batch={batch_size}) not byte-identical")

    # Modelled device times: what the stacked launch amortisation is worth on
    # each device model (one entry per backend).
    modelled = []
    for backend in (CpuBackend(), SimulatedGpuBackend()):
        result = backend.simulate_batch(circuits[: args.batch])
        modelled.append(
            {
                "backend": backend.name,
                "batch_size": args.batch,
                "modelled_per_point_s": result.modelled_time_s,
                "modelled_batched_s": result.modelled_batched_time_s,
                "modelled_speedup": result.modelled_time_s
                / result.modelled_batched_time_s,
            }
        )
    return records + modelled, failures


def build_classifier(args, batch_encoding: bool) -> StreamingNystroemClassifier:
    """A freshly fitted Nystrom serving stack (deterministic given the seed)."""
    rng = np.random.default_rng(args.seed)
    ansatz = AnsatzConfig(
        num_features=args.features, interaction_distance=1, layers=2, gamma=0.5
    )
    engine = KernelEngine(
        ansatz,
        config=EngineConfig(
            use_cache=True, batch_encoding=batch_encoding, encode_batch_size=args.batch
        ),
    )
    X = rng.uniform(0.05, 1.95, size=(args.train_size, args.features))
    y = (X.mean(axis=1) > 1.0).astype(int)
    feature_map = NystroemFeatureMap(
        engine, NystroemConfig(num_landmarks=args.landmarks, seed=0)
    )
    phi = feature_map.fit_transform(X)
    model = LinearSVC(C=1.0).fit(phi, y)
    return StreamingNystroemClassifier(feature_map, model)


def run_cold_serving(args, mode_rng_seed: int = 11) -> tuple[list[dict], list[str]]:
    """Cold-traffic queue latency with batch encoding on vs off."""
    rng = np.random.default_rng(mode_rng_seed + args.seed)
    stream = rng.uniform(0.05, 1.95, size=(args.queries, args.features))

    records = []
    failures: list[str] = []
    decisions_by_mode = {}
    for batch_encoding in (False, True):
        classifier = build_classifier(args, batch_encoding)
        queue = AsyncServingQueue(
            classifier,
            max_batch=args.batch,
            max_wait_ms=args.max_wait_ms,
            memoize=False,
            seed=0,
        )
        if args.metrics_registry is not None:
            bind_queue(
                args.metrics_registry, queue, replica=f"be{int(batch_encoding)}"
            )
        start = time.perf_counter()
        futures = queue.submit_many(stream)
        results = [f.result(timeout=600) for f in futures]
        elapsed = time.perf_counter() - start
        queue.close()
        snapshot = queue.metrics.to_dict()
        decisions_by_mode[batch_encoding] = np.array(
            [r.decision_value for r in results]
        )
        record = {
            "mode": "cold-queue",
            "batch_encoding": batch_encoding,
            "queries": args.queries,
            "wall_s": elapsed,
            "throughput_rps": args.queries / elapsed,
            "p50_latency_ms": snapshot["p50_latency_s"] * 1e3,
            "p99_latency_ms": snapshot["p99_latency_s"] * 1e3,
            "mean_batch_size": snapshot["mean_batch_size"],
        }
        records.append(record)
        print(
            f"cold queue batch_encoding={batch_encoding}: {elapsed:.3f} s "
            f"({record['throughput_rps']:.0f} req/s, "
            f"p50={record['p50_latency_ms']:.2f} ms, "
            f"p99={record['p99_latency_ms']:.2f} ms)"
        )
    if not np.array_equal(decisions_by_mode[False], decisions_by_mode[True]):
        failures.append("cold-path predictions differ with batch encoding enabled")
    records[-1]["speedup_vs_unbatched"] = (
        records[1]["throughput_rps"] / records[0]["throughput_rps"]
    )
    records[-1]["byte_identical"] = not failures
    return records, failures


class _ProbeStore(StateStore):
    """State store recording every get/put into an event list."""

    def __init__(self, events: list):
        super().__init__()
        self.events = events

    def get(self, key):
        state = super().get(key)
        self.events.append(("get", state is not None))
        return state

    def put(self, key, state):
        self.events.append(("put",))
        super().put(key, state)


def _fused_flush_once(args, X_cold, train_states, block, fused: bool) -> dict:
    """One cold flush through a fresh engine, instrumented end to end.

    The fused arm is :meth:`KernelEngine.kernel_rows`; the unfused arm runs
    the same work as ``encode_rows`` (which writes the store) followed by
    the backend's block sweep.
    """
    ansatz = AnsatzConfig(
        num_features=args.features,
        interaction_distance=args.distance,
        layers=args.layers,
        gamma=0.8,
    )
    events: list = []
    engine = KernelEngine(
        ansatz,
        config=EngineConfig(use_cache=True),
        store=_ProbeStore(events),
    )
    original = engine.backend.inner_product_block

    def spy(bras, blk):
        events.append(("block",))
        return original(bras, blk)

    engine.backend.inner_product_block = spy
    stats0 = engine.store.stats()
    start = time.perf_counter()
    if fused:
        matrix = engine.kernel_rows(X_cold, train_states, block=block).matrix
    else:
        engine.backend.reset_counters()
        states = engine.encode_rows(X_cold)
        matrix = np.abs(engine.backend.inner_product_block(states, block).values) ** 2
    wall = time.perf_counter() - start
    stats1 = engine.store.stats()
    summary = engine.backend.timing_summary()
    sweep_at = events.index(("block",))
    return {
        "mode": "fused" if fused else "unfused",
        "wall_s": wall,
        "matrix_bytes": matrix.tobytes(),
        "critical_path_store_writes": sum(
            1 for e in events[:sweep_at] if e == ("put",)
        ),
        "store_writes_total": sum(1 for e in events if e == ("put",)),
        "cache_hits": stats1.hits - stats0.hits,
        "cache_misses": stats1.misses - stats0.misses,
        "num_simulations": int(summary["num_simulations"]),
        "modelled_total_s": summary["modelled_simulation_time_s"]
        + summary["modelled_inner_product_time_s"],
        "modelled_batched_total_s": summary["modelled_batched_simulation_time_s"]
        + summary["modelled_batched_inner_product_time_s"],
    }


def run_fused_flush(args, rng) -> tuple[list[dict], list[str]]:
    """Cold kernel-row flush: unfused schedule vs the fused pipeline."""
    ansatz = AnsatzConfig(
        num_features=args.features,
        interaction_distance=args.distance,
        layers=args.layers,
        gamma=0.8,
    )
    setup = KernelEngine(ansatz)
    train_states = setup.encode_rows(
        rng.uniform(0.05, 1.95, size=(args.landmarks, args.features))
    )
    block = StackedStateBlock(train_states)
    X_cold = rng.uniform(0.05, 1.95, size=(args.batch, args.features))

    best: dict[str, dict] = {}
    for _ in range(args.repeats):
        for fused in (False, True):
            record = _fused_flush_once(args, X_cold, train_states, block, fused)
            mode = record["mode"]
            if mode not in best or record["wall_s"] < best[mode]["wall_s"]:
                best[mode] = record

    failures: list[str] = []
    identical = best["fused"]["matrix_bytes"] == best["unfused"]["matrix_bytes"]
    if not identical:
        failures.append("fused cold flush is not byte-identical to unfused")
    if best["fused"]["critical_path_store_writes"] != 0:
        failures.append(
            f"fused pipeline has {best['fused']['critical_path_store_writes']} "
            "store writes on the critical path, expected 0"
        )
    if best["unfused"]["critical_path_store_writes"] == 0:
        failures.append("unfused schedule shows no critical-path writes (probe broken)")
    if (best["fused"]["cache_hits"], best["fused"]["cache_misses"]) != (
        best["unfused"]["cache_hits"],
        best["unfused"]["cache_misses"],
    ):
        failures.append("fused pipeline changed the cache hit/miss accounting")

    records = []
    for mode in ("unfused", "fused"):
        record = dict(best[mode])
        record.pop("matrix_bytes")
        record["byte_identical"] = identical
        records.append(record)
    records[1]["speedup_vs_unfused"] = (
        best["unfused"]["wall_s"] / best["fused"]["wall_s"]
    )
    for record in records:
        print(
            f"cold flush {record['mode']}: {record['wall_s'] * 1e3:.2f} ms, "
            f"{record['critical_path_store_writes']} critical-path store writes, "
            f"hits/misses={record['cache_hits']}/{record['cache_misses']}"
        )
    return records, failures


def run_prefix_tree(args, rng) -> tuple[list[dict], list[str]]:
    """Mixed-ansatz encode with and without the prefix-sharing tree."""
    from repro.mps.encoding import GateShapeLog, encode_circuits

    base = dict(num_features=args.features, gamma=0.8)
    ansatze = [
        AnsatzConfig(interaction_distance=1, layers=1, **base),
        AnsatzConfig(interaction_distance=1, layers=2, **base),
        AnsatzConfig(interaction_distance=2, layers=1, **base),
    ]
    per_family = max(2, args.batch // len(ansatze))
    circuits = [
        build_feature_map_circuit(row, ansatz)
        for ansatz in ansatze
        for row in rng.uniform(0.05, 1.95, size=(per_family, args.features))
    ]
    reference = [CpuBackend().simulate(c).state for c in circuits]

    records = []
    failures: list[str] = []
    blobs = {}
    for sharing in (False, True):
        mode = "tree" if sharing else "flat"
        best_wall = None
        log = None
        states = None
        for _ in range(args.repeats):
            log = GateShapeLog()
            start = time.perf_counter()
            states = encode_circuits(circuits, log=log, prefix_sharing=sharing)
            wall = time.perf_counter() - start
            if best_wall is None or wall < best_wall:
                best_wall = wall
        blobs[mode] = [
            tuple(t.tobytes() for t in s.tensors) for s in states
        ]
        identical = blobs[mode] == [
            tuple(t.tobytes() for t in s.tensors) for s in reference
        ]
        if not identical:
            failures.append(f"{mode} encode is not bit-identical to per-point")
        record = {
            "mode": mode,
            "circuits": len(circuits),
            "structure_groups": log.structure_groups,
            "stacked_launches": log.stacked_launches,
            "prefix_forks": log.prefix_forks,
            "wall_s": best_wall,
            "byte_identical": identical,
        }
        records.append(record)
        print(
            f"encode {mode}: {record['stacked_launches']} stacked launches, "
            f"{record['prefix_forks']} forks, {best_wall * 1e3:.2f} ms"
        )
    if records[1]["stacked_launches"] >= records[0]["stacked_launches"]:
        failures.append("prefix tree did not reduce stacked launches")
    records[1]["launches_saved"] = (
        records[0]["stacked_launches"] - records[1]["stacked_launches"]
    )
    return records, failures


def run_cross_dispatch(args, rng) -> tuple[list[dict], list[str]]:
    """Nystrom-scale ``K_nm`` sweep through the modelled CPU/GPU dispatch."""
    from repro.backends import CPU_COST_MODEL, GPU_COST_MODEL, preferred_cross_model

    # chi saturates at 16 for this ansatz, where a ~2048-pair stacked block
    # clears the A100 model's launch overhead (the per-pair crossover does
    # not arrive until chi ~ 320 -- stacking moves the crossover).
    ansatz = AnsatzConfig(
        num_features=args.features,
        interaction_distance=3,
        layers=2,
        gamma=0.8,
    )
    gpu = SimulatedGpuBackend()
    engine = KernelEngine(ansatz, config=EngineConfig(), cross_backend=gpu)
    if args.metrics_registry is not None:
        bind_engine(args.metrics_registry, engine, replica="dispatch")
    reference = KernelEngine(ansatz, config=EngineConfig())
    X_landmarks = rng.uniform(0.05, 1.95, size=(args.landmarks, args.features))
    X_rows = rng.uniform(0.05, 1.95, size=(args.cross_rows, args.features))
    train_states = engine.encode_rows(X_landmarks)

    start = time.perf_counter()
    routed = engine.cross(X_rows, train_states)
    wall = time.perf_counter() - start
    baseline = reference.cross(X_rows, train_states)

    num_pairs = args.cross_rows * args.landmarks
    chi = max(
        max(s.max_bond_dimension for s in routed.states),
        max(s.max_bond_dimension for s in train_states),
    )
    chosen_model = preferred_cross_model(num_pairs, args.features, chi)
    chosen = "gpu" if chosen_model is GPU_COST_MODEL else "cpu"
    gpu_swept = gpu.num_inner_products == num_pairs

    failures: list[str] = []
    identical = routed.matrix.tobytes() == baseline.matrix.tobytes()
    if not identical:
        failures.append("dispatched cross sweep is not byte-identical to CPU-only")
    if chosen == "gpu" and not gpu_swept:
        failures.append("cost model chose the GPU but the block did not run there")
    record = {
        "mode": "cross-dispatch",
        "rows": args.cross_rows,
        "landmarks": args.landmarks,
        "pairs": num_pairs,
        "chi": chi,
        "modelled_cpu_s": CPU_COST_MODEL.batched_inner_product_time(
            num_pairs, args.features, chi
        ),
        "modelled_gpu_s": GPU_COST_MODEL.batched_inner_product_time(
            num_pairs, args.features, chi
        ),
        "chosen": chosen,
        "gpu_inner_products": gpu.num_inner_products,
        "wall_s": wall,
        "byte_identical": identical,
    }
    print(
        f"cross dispatch: {num_pairs} pairs at chi={chi} -> {chosen} "
        f"(cpu {record['modelled_cpu_s'] * 1e3:.2f} ms vs "
        f"gpu {record['modelled_gpu_s'] * 1e3:.2f} ms modelled)"
    )
    return [record], failures


def run_fused_scenario(args) -> tuple[dict, list[str]]:
    """The fused-pipeline artifact: flush schedule + encode tree + dispatch."""
    rng = np.random.default_rng(args.seed)
    print(
        f"fused workload: {args.batch}-row cold flush against {args.landmarks} "
        f"landmarks (m={args.features}, d={args.distance}, r={args.layers}), "
        f"{args.cross_rows} x {args.landmarks} cross block"
    )
    flush_records, failures = run_fused_flush(args, rng)
    tree_records, tree_failures = run_prefix_tree(args, rng)
    dispatch_records, dispatch_failures = run_cross_dispatch(args, rng)
    failures.extend(tree_failures)
    failures.extend(dispatch_failures)

    records = flush_records + tree_records + dispatch_records
    payload = {
        "benchmark": "fused-pipeline",
        "version": __version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workload": {
            "batch": args.batch,
            "features": args.features,
            "distance": args.distance,
            "layers": args.layers,
            "landmarks": args.landmarks,
            "cross_rows": args.cross_rows,
            "repeats": args.repeats,
            "seed": args.seed,
        },
        "records": records,
        "byte_identical": all(
            r["byte_identical"] for r in records if "byte_identical" in r
        ),
        "ok": not failures,
    }
    return payload, failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scenario",
        choices=("encoding", "fused"),
        default="encoding",
        help="'encoding' benchmarks stacked encoding; 'fused' benchmarks the "
        "fused encode-to-overlap pipeline, prefix tree and cross dispatch",
    )
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--rows", type=int, default=96)
    parser.add_argument("--batch", type=int, default=32)
    parser.add_argument("--features", type=int, default=8)
    parser.add_argument("--distance", type=int, default=2)
    parser.add_argument("--layers", type=int, default=2)
    parser.add_argument("--queries", type=int, default=192)
    parser.add_argument("--train-size", type=int, default=64)
    parser.add_argument("--landmarks", type=int, default=16)
    parser.add_argument("--max-wait-ms", type=float, default=5.0)
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument(
        "--cross-rows",
        type=int,
        default=128,
        help="fused scenario: rows in the Nystrom K_nm dispatch block "
        "(128 x 16 landmarks = 2048 pairs clears the A100 launch overhead)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="fused scenario: timing repeats, best-of kept",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="workload seed; fixed seeds keep baseline comparisons deterministic",
    )
    parser.add_argument(
        "--emit-metrics",
        type=Path,
        default=None,
        help="bind a telemetry registry to the served queues / dispatch engine "
        "and dump it after the run: Prometheus text here, JSON at PATH.json",
    )
    args = parser.parse_args()
    args.metrics_registry = (
        MetricsRegistry() if args.emit_metrics is not None else None
    )
    if args.out is None:
        args.out = Path(
            "BENCH_fused.json" if args.scenario == "fused" else "BENCH_encoding.json"
        )

    if args.scenario == "fused":
        payload, failures = run_fused_scenario(args)
        maybe_emit_metrics(args, payload)
        args.out.write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"wrote {args.out}")
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            raise SystemExit(1)
        fused = next(r for r in payload["records"] if r["mode"] == "fused")
        dispatch = next(
            r for r in payload["records"] if r["mode"] == "cross-dispatch"
        )
        print(
            "OK: fused cold flush ran with zero critical-path store writes "
            f"({fused['speedup_vs_unfused']:.2f}x), byte-identical throughout; "
            f"{dispatch['pairs']}-pair cross block dispatched to {dispatch['chosen']}"
        )
        return

    rng = np.random.default_rng(args.seed)
    print(
        f"workload: {args.rows} encodes (m={args.features}, d={args.distance}, "
        f"r={args.layers}), {args.queries} cold queries"
    )

    encode_records, failures = run_encode_throughput(args, rng)
    serving_records, serving_failures = run_cold_serving(args)
    failures.extend(serving_failures)

    acceptance_speedup = next(
        r["speedup_vs_per_point"]
        for r in encode_records
        if r.get("mode") == "batched" and r.get("batch_size") == args.batch
    )
    if acceptance_speedup < args.min_speedup:
        failures.append(
            f"batch={args.batch} encode speedup {acceptance_speedup:.2f} "
            f"< required {args.min_speedup}"
        )

    payload = {
        "benchmark": "encoding",
        "version": __version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workload": {
            "rows": args.rows,
            "batch": args.batch,
            "features": args.features,
            "distance": args.distance,
            "layers": args.layers,
            "cold_queries": args.queries,
            "train_size": args.train_size,
            "landmarks": args.landmarks,
            "seed": args.seed,
        },
        "records": encode_records + serving_records,
        "min_speedup_required": args.min_speedup,
        "acceptance_speedup": acceptance_speedup,
        "ok": not failures,
    }
    maybe_emit_metrics(args, payload)
    args.out.write_text(json.dumps(payload, indent=2, sort_keys=True))
    print(f"wrote {args.out}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        raise SystemExit(1)
    print(
        f"OK: batch-{args.batch} stacked encoding reaches {acceptance_speedup:.2f}x "
        "per-point throughput with byte-identical states and predictions"
    )


if __name__ == "__main__":
    main()
