"""The repository's benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rubick-scale --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload service-replay --trace 1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --compare OLD NEW

A run prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer split
of one traced iteration and writes its spans to ``.perfbench/`` (or
``--trace-out``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

import bootstrap

#: The suites' ``BENCH_SEED``.
DEFAULT_SEED = 7
#: Set-ups per untraced batch run; ``setup_s`` is their median.
SETUPS = 2
#: Simulations per untraced batch run, at least.  The host's speed flips
#: between two levels ~40% apart every few seconds, so one 12 s simulation
#: reads whichever level it happened to get.
MIN_SIMS = 2
#: Jitter draws per untraced ``service-replay`` run: one master lifetime
#: each, and the simulated metrics are their mean.  On the overloaded
#: 16-node cluster one draw's avg JCT moves by up to a seventh between
#: seeds.
REPLAY_DRAWS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "peak_rss_mb": "MiB",
    "avg_jct_h": "h",
    "p99_jct_h": "h",
    "makespan_h": "h",
    "submit_ms_p50": "ms",
    "submit_ms_p90": "ms",
}


class Outcome:
    """Attempted/failed accounting and correctness of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def account(self, submitted: int, completed: int, errors: int, incidents: int) -> None:
        self.attempted += submitted
        self.failed += max(submitted - completed, 0) + errors + incidents

    def report(self, metrics: dict[str, tuple[float, str]]) -> dict:
        for problem in self.problems:
            sys.stderr.write(f"perfbench: check failed: {problem}\n")
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": float(value), "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }


def _percentile_ms(samples: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(samples), q)) * 1000.0


def _same_summaries(summaries: list[dict], outcome: Outcome) -> None:
    if any(s != summaries[0] for s in summaries[1:]):
        outcome.problems.append("repeated simulations of one seed disagree")


# ----------------------------------------------------------------------
# Batch workloads (rubick-scale, antman-datacenter)
# ----------------------------------------------------------------------
def _checked_batch_run(sim, inputs, outcome: Outcome):
    """One untraced replay under the harness probes, checked."""
    import checks
    from instrument import DecisionProbe, Patches, RecordProbe
    from workloads import run_batch

    decisions = DecisionProbe()
    records = RecordProbe(inputs.job_ids)
    with Patches() as patches:
        decisions.install(patches, type(sim.policy))
        records.install(patches)
        result, wall = run_batch(sim, inputs)
    completed = [
        job for job, n in zip(records.job_ids, records.completions)
        for _ in range(n)
    ] + records.unknown
    summary = result.summary()
    outcome.problems += checks.failures(checks.check_records(
        inputs.job_ids, completed, records.submit, records.first_start,
        records.finish, records.gpu_seconds, summary,
        inputs.cluster.total_gpus,
    ))
    outcome.account(
        len(inputs.trace), len(result.records) + result.dropped_records,
        0, len(result.incidents),
    )
    return result, wall, summary, decisions.samples


def run_batch_untraced(spec, seed: int, seconds: float) -> dict:
    from instrument import peak_rss_mb
    from workloads import batch_simulator, timed_setup

    outcome = Outcome()
    setups = []
    for _ in range(SETUPS):
        inputs = sim = None  # drop the last inputs before building anew
        inputs, sim, took = timed_setup(spec, seed)
        setups.append(took)
    walls, latencies, summaries = [], [], []
    while True:
        _, wall, summary, samples = _checked_batch_run(sim, inputs, outcome)
        walls.append(wall)
        latencies += samples
        summaries.append(summary)
        if len(walls) >= MIN_SIMS and sum(walls) >= seconds:
            break
        sim = batch_simulator(spec, inputs, seed)
    _same_summaries(summaries, outcome)
    summary = summaries[0]
    return outcome.report(_end_to_end(
        setup_s=statistics.median(setups),
        jobs_per_s=statistics.median(len(inputs.trace) / w for w in walls),
        peak_rss_mb=peak_rss_mb(),
        summary=summary,
        latencies=latencies,
    ))


def run_batch_traced(spec, seed: int, trace_out: Path) -> dict:
    import layers
    from instrument import Patches, Tracer, peak_rss_mb
    from workloads import batch_simulator, run_batch, timed_setup

    outcome = Outcome()
    tracer = Tracer()
    inputs, sim, setup_s = timed_setup(spec, seed, tracer)
    setup_rss = peak_rss_mb()
    _, wall_plain, summary, _ = _checked_batch_run(sim, inputs, outcome)
    sim = batch_simulator(spec, inputs, seed)
    with Patches() as patches:
        layers.install_engine(tracer, patches, type(sim.policy))
        result, wall_traced = run_batch(sim, inputs)
    _same_summaries([summary, result.summary()], outcome)
    write_spans(trace_out, spec.name, seed, [tracer.document("bench")])
    return outcome.report(_with_units(layers.layer_metrics(
        tracer,
        rounds=result.sim_rounds,
        policy_skips=result.policy_skips,
        node_events=result.cluster_events,
        planeval=layers.engine_stats([sim.policy.engine, sim.plan_engine]),
        setup_rss_mb=setup_rss,
        wall_s=setup_s + wall_traced,
        overhead_pct=100.0 * (wall_traced / wall_plain - 1.0),
    )))


# ----------------------------------------------------------------------
# service-replay
# ----------------------------------------------------------------------
def _checked_replay(rep, reference: dict, outcome: Outcome) -> None:
    import checks

    submitted = rep.inputs.job_ids
    gpus = rep.inputs.run.cluster.total_gpus
    if rep.document is not None:
        outcome.problems += checks.failures(
            checks.check_document(rep.document, submitted, gpus)
        )
    outcome.problems += checks.check_same_document(rep.document, reference)
    outcome.account(
        rep.submitted, rep.master["completed"], rep.errors,
        rep.master["incidents"],
    )


def run_service_untraced(seed: int, seconds: float) -> dict:
    from service import batch_document, master_store, pin_to_one_cpu, replay_once

    pin_to_one_cpu()
    outcome = Outcome()
    replays = []
    references: dict[int, dict] = {}
    store = master_store(seed)
    while True:
        for draw in range(REPLAY_DRAWS):
            rep = replay_once(
                seed, draw, bootstrap.WORK_DIR, f"{os.getpid()}-{len(replays)}"
            )
            if draw not in references:
                references[draw] = batch_document(seed, rep.inputs, store)
            _checked_replay(rep, references[draw], outcome)
            rep.inputs = rep.document = None
            replays.append(rep)
        if sum(r.wall_s for r in replays) >= seconds:
            break
    rtts = [t for r in replays for t in r.rtts]
    summary = {
        key: statistics.fmean(doc["summary"][key] for doc in references.values())
        for key in ("avg_jct_h", "p99_jct_h", "makespan_h")
    }
    return outcome.report(_end_to_end(
        setup_s=statistics.median(r.setup_s for r in replays),
        jobs_per_s=(
            sum(r.master["completed"] for r in replays)
            / sum(r.wall_s for r in replays)
        ),
        peak_rss_mb=statistics.median(r.master["peak_rss_mb"] for r in replays),
        summary=summary,
        latencies=rtts,
    ))


def run_service_traced(seed: int, trace_out: Path) -> dict:
    import layers
    from instrument import Tracer
    from service import batch_document, master_store, pin_to_one_cpu, replay_once

    pin_to_one_cpu()
    outcome = Outcome()
    plain = replay_once(seed, 0, bootstrap.WORK_DIR, f"{os.getpid()}-plain")
    reference = batch_document(seed, plain.inputs, master_store(seed))
    _checked_replay(plain, reference, outcome)
    tracer = Tracer()
    rep = replay_once(
        seed, 0, bootstrap.WORK_DIR, f"{os.getpid()}-traced", tracer
    )
    _checked_replay(rep, reference, outcome)
    master = rep.master
    tracer.merge(master["tracer"])
    tracer.durations.update(master["durations"])
    lo, hi = rep.window
    frames = sum(
        end - start for start, end in master["frame_spans"] if lo <= start <= hi
    )
    processes = [tracer.document("client")]
    if rep.spans_path is not None and rep.spans_path.exists():
        processes.append(json.loads(rep.spans_path.read_text()))
        rep.spans_path.unlink()
    write_spans(trace_out, "service-replay", seed, processes)
    return outcome.report(_with_units(layers.layer_metrics(
        tracer,
        rounds=master["rounds"],
        policy_skips=master["policy_skips"],
        node_events=master["node_events"],
        planeval=master["planeval"],
        setup_rss_mb=master["setup_rss_mb"],
        wall_s=rep.wall_s,
        overhead_pct=100.0 * (rep.wall_s / plain.wall_s - 1.0),
        service=True,
        client_s=rep.client_self_s + rep.request_s - frames,
    )))


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def _end_to_end(*, setup_s, jobs_per_s, peak_rss_mb, summary, latencies) -> dict:
    values = {
        "setup_s": setup_s,
        "jobs_per_s": jobs_per_s,
        "peak_rss_mb": peak_rss_mb,
        "avg_jct_h": summary["avg_jct_h"],
        "p99_jct_h": summary["p99_jct_h"],
        "makespan_h": summary["makespan_h"],
        "submit_ms_p50": _percentile_ms(latencies, 50),
        "submit_ms_p90": _percentile_ms(latencies, 90),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def _with_units(values: dict[str, float]) -> dict:
    import layers

    return {name: (values[name], unit) for name, unit in layers.LAYER_METRICS.items()}


def write_spans(path: Path, workload: str, seed: int, processes: list[dict]) -> None:
    """Write the traced run's spans (one document per process)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(
        {"workload": workload, "seed": seed, "processes": processes},
        separators=(",", ":"),
    ))


WORKLOADS = ("rubick-scale", "antman-datacenter", "service-replay")


def _declared_metric_problems() -> list[str]:
    """Differences between ``BENCHMARK.json`` and what the runs report."""
    import layers

    declared = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, emitted in (("end_to_end", END_TO_END_UNITS),
                         ("per_layer", layers.LAYER_METRICS)):
        listed = {m["name"]: m["unit"] for m in declared[key]}
        if listed != emitted:
            problems.append(f"BENCHMARK.json {key} differs from the metrics reported")
    if {w["name"] for w in declared["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Rubick reproduction benchmark (see perfbench/README.md)"
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="minimum measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path,
                        help="span file of a traced run (default .perfbench/)")
    parser.add_argument("--self-test", action="store_true",
                        help="show that every correctness check rejects a "
                             "tampered result")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"),
                        help="compare two sets of run outputs")
    args = parser.parse_args(argv)

    if args.compare:
        import compare

        return compare.main(*args.compare)
    bootstrap.require_program()
    if args.self_test:
        import checks

        problems = checks.self_test() + _declared_metric_problems()
        for problem in problems:
            print(f"self-test FAILED: {problem}")
        print("self-test passed" if not problems else "self-test failed")
        return 1 if problems else 0
    if args.workload is None:
        parser.error("--workload is required")

    from workloads import ANTMAN_DATACENTER, RUBICK_SCALE

    batch = {w.name: w for w in (RUBICK_SCALE, ANTMAN_DATACENTER)}
    trace_out = args.trace_out or (
        bootstrap.WORK_DIR / f"trace-{args.workload}-{args.seed}.json"
    )
    if args.workload in batch:
        spec = batch[args.workload]
        if args.trace:
            report = run_batch_traced(spec, args.seed, trace_out)
        else:
            report = run_batch_untraced(spec, args.seed, args.seconds)
    elif args.trace:
        report = run_service_traced(args.seed, trace_out)
    else:
        report = run_service_untraced(args.seed, args.seconds)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
