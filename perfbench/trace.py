"""In-memory span recorder that wraps the package's layer boundaries.

The traced run patches public functions of ``repro`` at each layer boundary
(backend primitives, engine entry points, the Nystrom map, the SVMs, the
serving queue, the controller and the metrics read) with thin wrappers that
append one span per call: name, start, end, parent span, request id and an
optional note (work counts such as circuits or pairs).  Nothing under
``src/`` changes; :meth:`Recorder.uninstall` restores every original.

Patches go on the classes, so objects built after installation -- the new
classifier a model swap creates, for instance -- are traced as well.

A span's self time is its duration minus the durations of its direct
children.  Spans nest per thread: the serving queue's coalescer thread and
the traffic generator's thread each keep their own stack.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

# (sid, name, start, end, parent sid, request id, note)
Span = Tuple[int, str, float, float, int, Any, Any]


class Recorder:
    """Collects spans from wrapped callables; nothing is written until asked."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, rid: Any) -> None:
        """Tag the spans this thread records next with request id ``rid``."""
        self._local.rid = rid

    def wrap(
        self,
        fn: Callable,
        name: str,
        note: Optional[Callable[[tuple, Any, Any], Any]] = None,
        pre: Optional[Callable[[tuple], Any]] = None,
    ) -> Callable:
        """``fn`` recording one span per call.

        ``pre(args)`` runs before the call and its value is handed to
        ``note(args, result, pre_value)``, whose return value is stored on
        the span (counts read before and after, for instance).
        """
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            rid = getattr(local, "rid", None)
            if rid is None:
                rid = stack[0] if stack else sid
            before = pre(args) if pre is not None else None
            stack.append(sid)
            start = perf_counter()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = perf_counter()
                stack.pop()
                extra = note(args, out, before) if note is not None else None
                spans.append((sid, name, start, end, parent, rid, extra))

        return traced

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``."""
        return self.wrap(fn, name)(*args, **kwargs)

    # ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str, name: str, note=None, pre=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper (restored later)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, note=note, pre=pre))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s[1] == name]

    def self_times(self) -> Dict[int, float]:
        """Self time of every span, keyed by span id."""
        child_total: Dict[int, float] = defaultdict(float)
        for sid, _name, start, end, parent, _rid, _note in self.spans:
            if parent:
                child_total[parent] += end - start
        return {s[0]: (s[3] - s[2]) - child_total.get(s[0], 0.0) for s in self.spans}

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready span log (notes are stringified when not plain)."""
        return {
            "fields": ["id", "name", "start", "end", "parent", "request", "note"],
            "spans": [
                [sid, name, start, end, parent, rid, _plain(note)]
                for sid, name, start, end, parent, rid, note in self.spans
            ],
        }


def _plain(value: Any) -> Any:
    if value is None or isinstance(value, (int, float, str, bool)):
        return value
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return repr(value)


def layer_of(name: str) -> str:
    """Layer of a span name: the part before the first dot."""
    return name.split(".", 1)[0]


# ----------------------------------------------------------------------
# The layer boundaries of the repro package
# ----------------------------------------------------------------------
def _engine_result(args, result, _pre):
    if result is None:
        return None
    return {
        "sim_s": result.simulation_time_s,
        "sim_model_s": result.modelled_simulation_time_s,
        "ip_s": result.inner_product_time_s,
        "ip_model_s": result.modelled_inner_product_time_s,
        "sims": result.num_simulations,
        "pairs": result.num_inner_products,
    }


def _launches(args):
    return args[0].lifetime_summary()["num_encode_stacked_launches"]


def _simulate_batch(args, result, launches_before):
    launches = _launches(args) - launches_before
    return {"circuits": len(args[1]), "launches": launches}


def _pairs(args, result, _pre):
    return {"pairs": len(args[1])}


def _block(args, result, _pre):
    bras, block = args[1], args[2]
    shapes = {tuple(t.shape for t in b.tensors) for b in bras}
    return {
        "pairs": len(bras) * block.num_states,
        "block_groups": block.num_groups,
        "query_groups": len(shapes),
    }


def _memo_before(args):
    return args[0].memo_hits


def _flush(args, result, memo_before):
    queue, batch = args[0], args[1]
    return {
        "batch": len(batch),
        "memo_hits": queue.memo_hits - memo_before,
        "enqueued": [p.enqueued_at for p in batch],
    }


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the benchmark's per-layer metrics need."""
    from repro.approx import LinearSVC, NystroemFeatureMap, StreamingNystroemClassifier
    from repro.backends.base import Backend
    from repro.control import AdaptiveController
    from repro.core import QuantumKernelPipeline
    from repro.engine import KernelEngine
    from repro.serving import AsyncServingQueue, ServingHandle
    from repro.svm import PrecomputedKernelSVC
    from repro.svm import model_selection

    patch = recorder.patch
    patch(QuantumKernelPipeline, "run", "core.pipeline.run")
    patch(KernelEngine, "gram", "engine.gram", note=_engine_result)
    patch(KernelEngine, "cross", "engine.cross", note=_engine_result)
    patch(KernelEngine, "kernel_rows", "engine.kernel_rows", note=_engine_result)
    patch(KernelEngine, "encode_rows", "engine.encode_rows")
    patch(KernelEngine, "execute_plan", "engine.execute_plan")
    patch(Backend, "simulate", "backends.simulate")
    patch(
        Backend, "simulate_batch", "backends.simulate_batch",
        note=_simulate_batch, pre=_launches,
    )
    patch(Backend, "inner_product_batch", "backends.inner_product_batch", note=_pairs)
    patch(Backend, "inner_product_block", "backends.inner_product_block", note=_block)
    patch(NystroemFeatureMap, "fit", "approx.fit")
    patch(NystroemFeatureMap, "transform_result", "approx.transform")
    patch(StreamingNystroemClassifier, "classify", "approx.classify")
    patch(LinearSVC, "fit", "approx.linear_fit")
    patch(LinearSVC, "decision_function", "approx.decide")
    patch(PrecomputedKernelSVC, "fit", "svm.fit")
    patch(PrecomputedKernelSVC, "decision_function", "svm.decide")
    patch(model_selection, "classification_report", "svm.report")
    patch(ServingHandle, "submit", "serving.admission")
    patch(ServingHandle, "swap", "serving.swap")
    patch(ServingHandle, "metrics", "profiling.metrics_read")
    patch(AsyncServingQueue, "_process", "serving.flush", note=_flush, pre=_memo_before)
    patch(AsyncServingQueue, "_score_batch", "serving.score")
    patch(AdaptiveController, "step", "control.step")
