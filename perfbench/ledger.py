"""Per-layer metrics and the reconciliation of layer self times with wall time.

Layer names are the ``repro`` sub-packages (``backends``, ``engine``,
``approx``, ``svm``, ``serving``, ``control``, ``profiling``, ``core``);
``driver`` is the benchmark's own code.  :data:`PER_LAYER` is the list the
traced run prints, in ``BENCHMARK.json`` order.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence

import numpy as np

from .stats import mean, median, tail
from .trace import Recorder, layer_of

PER_LAYER: List[tuple] = [
    ("backends.simulate_batch.ms_per_circuit", "ms"),
    ("backends.simulate.ms", "ms"),
    ("backends.stacked_launches_per_circuit", "count"),
    ("backends.inner_product_batch.us_per_pair", "us"),
    ("backends.inner_product_block.us_per_pair", "us"),
    ("mps.block_shape_groups", "count"),
    ("mps.query_shape_groups", "count"),
    ("backends.simulate_model_ratio", "ratio"),
    ("backends.overlap_model_ratio", "ratio"),
    ("core.pipeline.self_s", "s"),
    ("engine.execute_plan.self_s", "s"),
    ("engine.kernel_rows.self_ms", "ms"),
    ("engine.store.hit_rate", "fraction"),
    ("engine.store.bytes_in_use", "bytes"),
    ("approx.fit_s", "s"),
    ("approx.transform.self_ms", "ms"),
    ("approx.decide_ms", "ms"),
    ("svm.fit_s", "s"),
    ("serving.queue_wait_p50_ms", "ms"),
    ("serving.queue_wait_p99_ms", "ms"),
    ("serving.flush_p50_ms", "ms"),
    ("serving.flush_p99_ms", "ms"),
    ("serving.batch_size_mean", "count"),
    ("serving.memo_hit_rate", "fraction"),
    ("serving.swap_ms", "ms"),
    ("control.step_p50_ms", "ms"),
    ("control.step_p99_ms", "ms"),
    ("profiling.metrics_read_p50_ms", "ms"),
    ("profiling.metrics_read_p99_ms", "ms"),
    ("profiling.metrics_read_growth", "ratio"),
    ("driver.lag_p99_ms", "ms"),
    ("trace.unaccounted_share", "fraction"),
    ("trace.overhead_pct", "%"),
]


def _durations(recorder: Recorder, name: str) -> List[float]:
    return [s[3] - s[2] for s in recorder.by_name(name)]


def _notes(recorder: Recorder, name: str) -> List[dict]:
    return [s[6] for s in recorder.by_name(name) if s[6] is not None]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _growth(values: Sequence[float]) -> float:
    """Mean of the last tenth over the mean of the first tenth (time order)."""
    if len(values) < 10:
        return 0.0
    k = len(values) // 10
    return _ratio(mean(values[-k:]), mean(values[:k]))


def per_layer(
    recorder: Recorder,
    *,
    runs: int,
    setup: Optional[Recorder] = None,
    lags: Sequence[float] = (),
    store_hit_rate: float = 0.0,
    store_bytes: int = 0,
    unaccounted: float = 0.0,
    overhead_pct: float = 0.0,
    open_loop_end: float = float("inf"),
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric; a layer the workload never ran reports 0.

    ``runs`` divides the per-run totals (``*_s`` of the exact pipeline).
    The queue and flush statistics cover only flushes that started before
    ``open_loop_end``: a flood's queue waits say nothing about live traffic.
    """
    own = recorder.self_times()

    def dur(name: str) -> List[float]:
        return _durations(recorder, name)

    def self_of(name: str) -> List[float]:
        return [own[s[0]] for s in recorder.by_name(name)]

    batch_notes = _notes(recorder, "backends.simulate_batch")
    circuits = sum(n["circuits"] for n in batch_notes)
    ip_batch_pairs = sum(n["pairs"] for n in _notes(recorder, "backends.inner_product_batch"))
    block_notes = _notes(recorder, "backends.inner_product_block")
    block_pairs = sum(n["pairs"] for n in block_notes)
    engine_notes = [
        n for name in ("engine.gram", "engine.cross", "engine.kernel_rows")
        for n in _notes(recorder, name)
    ]
    flushes = [s for s in recorder.by_name("serving.flush") if s[2] < open_loop_end]
    waits = [s[2] - enq for s in flushes for enq in s[6]["enqueued"]]
    flush_ms = [(s[3] - s[2]) * 1e3 for s in flushes]
    batch_total = sum(s[6]["batch"] for s in flushes)
    memo_hits = sum(s[6]["memo_hits"] for s in flushes)
    steps = [d * 1e3 for d in dur("control.step")]
    reads = [d * 1e3 for d in dur("profiling.metrics_read")]
    fits = _durations(setup, "approx.fit") if setup is not None else []
    values = {
        "backends.simulate_batch.ms_per_circuit": _ratio(
            sum(dur("backends.simulate_batch")) * 1e3, circuits
        ),
        "backends.simulate.ms": mean(dur("backends.simulate")) * 1e3,
        "backends.stacked_launches_per_circuit": _ratio(
            sum(n["launches"] for n in batch_notes), circuits
        ),
        "backends.inner_product_batch.us_per_pair": _ratio(
            sum(dur("backends.inner_product_batch")) * 1e6, ip_batch_pairs
        ),
        "backends.inner_product_block.us_per_pair": _ratio(
            sum(dur("backends.inner_product_block")) * 1e6, block_pairs
        ),
        "mps.block_shape_groups": mean([n["block_groups"] for n in block_notes]),
        "mps.query_shape_groups": mean([n["query_groups"] for n in block_notes]),
        "backends.simulate_model_ratio": _ratio(
            sum(n["sim_model_s"] for n in engine_notes), sum(n["sim_s"] for n in engine_notes)
        ),
        "backends.overlap_model_ratio": _ratio(
            sum(n["ip_model_s"] for n in engine_notes), sum(n["ip_s"] for n in engine_notes)
        ),
        "core.pipeline.self_s": _ratio(sum(self_of("core.pipeline.run")), runs),
        "engine.execute_plan.self_s": _ratio(sum(self_of("engine.execute_plan")), runs),
        "engine.kernel_rows.self_ms": mean(self_of("engine.kernel_rows")) * 1e3,
        "engine.store.hit_rate": store_hit_rate,
        "engine.store.bytes_in_use": float(store_bytes),
        "approx.fit_s": mean(fits),
        "approx.transform.self_ms": mean(self_of("approx.transform")) * 1e3,
        "approx.decide_ms": mean(dur("approx.decide")) * 1e3,
        "svm.fit_s": _ratio(sum(dur("svm.fit")), runs),
        "serving.queue_wait_p50_ms": median(waits) * 1e3,
        "serving.queue_wait_p99_ms": tail(waits)[0] * 1e3,
        "serving.flush_p50_ms": median(flush_ms),
        "serving.flush_p99_ms": tail(flush_ms)[0],
        "serving.batch_size_mean": _ratio(batch_total, len(flushes)),
        "serving.memo_hit_rate": _ratio(memo_hits, batch_total),
        "serving.swap_ms": mean(dur("serving.swap")) * 1e3,
        "control.step_p50_ms": median(steps),
        "control.step_p99_ms": tail(steps)[0],
        "profiling.metrics_read_p50_ms": median(reads),
        "profiling.metrics_read_p99_ms": tail(reads)[0],
        "profiling.metrics_read_growth": _growth(reads),
        "driver.lag_p99_ms": tail(list(lags))[0] * 1e3,
        "trace.unaccounted_share": unaccounted,
        "trace.overhead_pct": overhead_pct,
    }
    return {name: float(values[name]) for name, _unit in PER_LAYER}


class _Index:
    """Self times and children of every span, built once per ledger."""

    def __init__(self, recorder: Recorder) -> None:
        self.own = recorder.self_times()
        self.children: Dict[int, List[tuple]] = defaultdict(list)
        for s in recorder.spans:
            self.children[s[4]].append(s)

    def layers(self, root: tuple) -> Dict[str, float]:
        """Self time per layer over ``root`` and every span under it."""
        totals: Dict[str, float] = defaultdict(float)
        todo = [root]
        while todo:
            span = todo.pop()
            totals[layer_of(span[1])] += self.own[span[0]]
            todo.extend(self.children.get(span[0], ()))
        return totals


def exact_ledger(recorder: Recorder) -> Dict:
    """Layer self times of the traced pipeline runs against their wall time.

    The roots are the benchmark's ``driver.iteration`` spans; their own self
    time is the part of the run no layer span covers.
    """
    roots = recorder.by_name("driver.iteration")
    wall = sum(s[3] - s[2] for s in roots)
    index = _Index(recorder)
    totals: Dict[str, float] = defaultdict(float)
    for root in roots:
        for layer, value in index.layers(root).items():
            totals[layer] += value
    unaccounted = totals.pop("driver", 0.0)
    return {
        "wall_s": wall,
        "layers_s": dict(sorted(totals.items())),
        "unaccounted_s": unaccounted,
        "unaccounted_share": _ratio(unaccounted, wall),
        "layer_sum_share": _ratio(sum(totals.values()), wall),
    }


def serving_ledger(recorder: Recorder, phase) -> Dict:
    """Split each traced request's latency (due time -> resolution) by layer.

    A request's latency is partitioned into generator lag, the
    admission call, the wait until the flush that served it started, and
    that flush up to the request's resolution; the flush part is split in
    proportion to the self times of the layers inside it.  Lag and any gap
    between the pieces are unaccounted.  A request is matched to its flush
    by the enqueue time the queue stamped inside its ``submit`` call.
    """
    enqueued, flush_of = [], []
    for s in recorder.by_name("serving.flush"):
        for enq in s[6]["enqueued"]:
            enqueued.append(enq)
            flush_of.append(s)
    order = np.argsort(enqueued)
    enqueued = np.asarray(enqueued)[order]
    flush_of = [flush_of[k] for k in order]
    admission = {s[5]: s for s in recorder.by_name("serving.admission")}
    index = _Index(recorder)
    split_cache: Dict[int, Dict[str, float]] = {}
    totals: Dict[str, float] = defaultdict(float)
    wall = unaccounted = 0.0
    counted = 0
    for i in np.flatnonzero(phase.ok).tolist():
        adm = admission.get(f"req-{i}")
        k = int(np.searchsorted(enqueued, phase.start[i]))
        if adm is None or k >= enqueued.size or enqueued[k] > phase.end[i]:
            continue
        flush = flush_of[k]
        counted += 1
        e2e = phase.done[i] - phase.due[i]
        wall += e2e
        totals["serving.admission"] += adm[3] - adm[2]
        wait = max(0.0, flush[2] - adm[3])
        totals["serving.queue_wait"] += wait
        service = phase.done[i] - flush[2]
        if flush[0] not in split_cache:
            layers = index.layers(flush)
            span_total = sum(layers.values())
            split_cache[flush[0]] = {k: _ratio(v, span_total) for k, v in layers.items()}
        for layer, share in split_cache[flush[0]].items():
            totals[f"flush.{layer}"] += service * share
        unaccounted += e2e - ((adm[3] - adm[2]) + wait + service)
    return {
        "requests": counted,
        "latency_sum_s": wall,
        "layers_s": dict(sorted(totals.items())),
        "unaccounted_s": unaccounted,
        "unaccounted_share": _ratio(unaccounted, wall),
    }
