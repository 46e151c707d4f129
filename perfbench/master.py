"""Service master process of the ``service-replay`` workload.

Run by the benchmark as ``python3 perfbench/master.py --seed N --ready FILE
--stats FILE [--trace 0|1]``.  It builds the master's inputs (testbed, the
seven model fits, the AntMan simulator), binds an ephemeral loopback port,
writes ``{"port", "setup_s"}`` to the ready file, serves one client until
DRAIN, and writes its stats (peak RSS, incidents and, when traced, its span
aggregates and span file) to the stats file before it exits.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

import bootstrap

bootstrap.require_program()

from instrument import Patches, Tracer, peak_rss_mb, perf_counter  # noqa: E402
import layers  # noqa: E402
from service import SERVICE_POLICY, service_run_spec  # noqa: E402
from workloads import TRACE_SEED, fitted_store  # noqa: E402


def _write_atomic(path: Path, doc: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc))
    os.replace(tmp, path)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ready", type=Path, required=True)
    parser.add_argument("--stats", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    from repro.oracle import SyntheticTestbed
    from repro.scheduler.registry import POLICIES, make_policy
    from repro.service import ServiceMaster
    from repro.service.clock import VirtualClock
    from repro.sim import Simulator
    from repro.sim.engine import EngineConfig

    tracer = Tracer() if args.trace else None
    patches = Patches()
    start = perf_counter()
    run = service_run_spec(args.seed)
    testbed = SyntheticTestbed(run.cluster, seed=TRACE_SEED)
    store = fitted_store(testbed, args.seed, tracer)
    sim = Simulator(
        run.cluster,
        make_policy(SERVICE_POLICY),
        testbed=testbed,
        perf_store=store,
        config=EngineConfig(seed=args.seed),
    )
    master = ServiceMaster(sim, clock=VirtualClock())
    _host, port = master.bind()
    setup_s = perf_counter() - start
    setup_rss = peak_rss_mb()
    if tracer is not None:
        layers.install_engine(tracer, patches, POLICIES[SERVICE_POLICY])
        layers.install_service(tracer, patches)
    _write_atomic(args.ready, {"port": port, "setup_s": setup_s})
    try:
        result = master.serve_forever()
    finally:
        patches.restore()
    stats = {
        "peak_rss_mb": peak_rss_mb(),
        "setup_rss_mb": setup_rss,
        "completed": (
            len(result.records) + result.dropped_records if result else 0
        ),
        "incidents": len(result.incidents) if result else 0,
    }
    if tracer is not None:
        stats["rounds"] = result.sim_rounds
        stats["policy_skips"] = result.policy_skips
        stats["node_events"] = result.cluster_events
        stats["planeval"] = layers.engine_stats(
            [sim.policy.engine, sim.plan_engine]
        )
        stats["durations"] = dict(tracer.durations)
        stats["frame_spans"] = [
            [span[1], span[2]] for span in tracer.spans
            if span is not None and span[0] == "service.frame"
        ]
        document = tracer.document("master")
        if args.spans is not None:
            _write_atomic(args.spans, document)
        stats["tracer"] = {k: v for k, v in document.items() if k != "spans"}
    _write_atomic(args.stats, stats)
    return 0 if result is not None else 1


if __name__ == "__main__":
    raise SystemExit(main())
