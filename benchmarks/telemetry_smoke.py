"""Telemetry endpoint smoke test: scrape a live serving queue over HTTP.

Builds a small Nystrom serving stack, warms it with one batch of traffic
under an enabled tracer, attaches the telemetry endpoint
(:func:`repro.telemetry.attach_endpoint`), and validates the three routes
from the outside, exactly as a monitoring agent would:

* ``/metrics`` must return Prometheus 0.0.4 text that the repo's own strict
  parser accepts, covering the serving latency histogram, the store
  hit/miss/eviction counters and the encode launch counters;
* ``/health`` must report ``ok`` while the queue is live;
* ``/traces/recent`` must return a span tree with at least four linked
  phases for the traced batch (plus a renderable text flamegraph).

Exits non-zero on any failure.  Run with:

    python benchmarks/telemetry_smoke.py
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from urllib.request import urlopen

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.approx import NystroemConfig
from repro.config import AnsatzConfig
from repro.core import QuantumKernelInferenceEngine
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like
from repro.serving import AsyncServingQueue
from repro.telemetry import TRACER, attach_endpoint, parse_prometheus_text

#: The acceptance surface every scrape must expose.
REQUIRED_FAMILIES = (
    "repro_serving_request_latency_seconds",
    "repro_serving_requests_total",
    "repro_serving_batches_total",
    "repro_serving_batch_size",
    "repro_store_hits_total",
    "repro_store_misses_total",
    "repro_store_evictions_total",
    "repro_encode_launches_total",
    "repro_backend_simulations_total",
)

#: A traced batch must produce a tree with at least these linked phases.
REQUIRED_SPANS = ("serving.request", "serving.flush", "serving.score")


def build_queue(args):
    data = balanced_subsample(
        generate_elliptic_like(
            DatasetSpec(num_samples=400, num_features=args.features, seed=19)
        ),
        args.train_size,
        seed=5,
    )
    ansatz = AnsatzConfig(
        num_features=args.features, interaction_distance=1, layers=1, gamma=0.6
    )
    engine = QuantumKernelInferenceEngine(
        ansatz, approximation=NystroemConfig(num_landmarks=args.landmarks, seed=0)
    )
    engine.fit(data.features, data.labels)
    return AsyncServingQueue(
        engine.streaming_classifier(), max_batch=8, max_wait_ms=2.0
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--queries", type=int, default=24)
    parser.add_argument("--train-size", type=int, default=20)
    parser.add_argument("--landmarks", type=int, default=6)
    parser.add_argument("--features", type=int, default=4)
    args = parser.parse_args()

    failures: list[str] = []
    rng = np.random.default_rng(23)
    stream = rng.normal(size=(args.queries, args.features))

    TRACER.reset()
    TRACER.enable()
    try:
        with build_queue(args) as queue, attach_endpoint(queue) as server:
            futures = [queue.submit(row) for row in stream]
            queue.flush()
            [f.result(timeout=60) for f in futures]
            print(f"served {args.queries} requests; endpoint at {server.url}")

            # /metrics: strict-parse the exposition, then check coverage.
            with urlopen(server.url + "/metrics") as response:
                content_type = response.headers.get("Content-Type", "")
                body = response.read().decode("utf-8")
            if "version=0.0.4" not in content_type:
                failures.append(f"unexpected /metrics content type {content_type!r}")
            try:
                families = parse_prometheus_text(body)
            except Exception as exc:  # the gate: exposition must parse
                failures.append(f"/metrics body failed strict parsing: {exc}")
                families = {}
            for name in REQUIRED_FAMILIES:
                if name not in families:
                    failures.append(f"/metrics is missing family {name}")
            if families:
                print(f"/metrics: {len(families)} families parsed strictly")

            # /health: the live queue must be ok.
            with urlopen(server.url + "/health") as response:
                health = json.loads(response.read().decode("utf-8"))
            if health.get("status") != "ok":
                failures.append(f"/health reported {health!r}, expected ok")
            else:
                print(f"/health: {health}")

            # /traces/recent: the traced batch must yield a linked tree.
            with urlopen(server.url + "/traces/recent?limit=8") as response:
                dump = json.loads(response.read().decode("utf-8"))
            flush_traces = [
                trace
                for trace in dump.get("traces", [])
                if any(s["name"] == "serving.flush" for s in trace["spans"])
            ]
            if not dump.get("enabled"):
                failures.append("/traces/recent reports tracing disabled")
            elif not flush_traces:
                failures.append("/traces/recent holds no trace with a flush span")
            else:
                names = {s["name"] for s in flush_traces[0]["spans"]}
                for name in REQUIRED_SPANS:
                    if name not in names:
                        failures.append(f"traced batch is missing span {name}")
                if len(names) < 4:
                    failures.append(
                        f"traced batch has {len(names)} phases, expected >= 4"
                    )
                else:
                    print(f"/traces/recent: span tree with phases {sorted(names)}")
                with urlopen(
                    server.url + "/traces/recent?limit=1&format=text"
                ) as response:
                    flame = response.read().decode("utf-8")
                if "serving.request" not in flame:
                    failures.append("text flamegraph does not render the root span")
    finally:
        TRACER.disable()
        TRACER.reset()

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        raise SystemExit(1)
    print("OK: /metrics parses strictly, /health is ok, traces are linked")


if __name__ == "__main__":
    main()
