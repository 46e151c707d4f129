"""Correctness checks on a workload's outputs, computed apart from the program.

Each check takes plain arrays or documents and returns a list of failure
messages (empty = pass).  They recompute from per-job records what the
program reports about them, with numpy, instead of trusting its
aggregates.  :func:`self_test` shows that every check rejects a tampered
result.
"""

from __future__ import annotations

import copy
import math
from collections import Counter

import numpy as np

HOUR = 3600.0
#: Relative tolerance for recomputed aggregates: the program sums JCTs in
#: completion order, the check in submission order.
REL_TOL = 1e-9


def check_exactly_once(submitted: list[str], completed: list[str]) -> list[str]:
    """Every submitted job id completes exactly once, and nothing else does."""
    out = []
    counts = Counter(completed)
    twice = sorted(job for job, n in counts.items() if n > 1)
    if twice:
        out.append(f"{len(twice)} job(s) completed more than once, e.g. {twice[0]}")
    wanted = set(submitted)
    missing = wanted - counts.keys()
    if missing:
        out.append(f"{len(missing)} submitted job(s) never completed, e.g. {min(missing)}")
    extra = counts.keys() - wanted
    if extra:
        out.append(f"{len(extra)} completed job(s) were never submitted, e.g. {min(extra)}")
    return out


def check_times(submit, first_start, finish) -> list[str]:
    """``first_start >= submit_time`` and ``finish_time >= first_start``."""
    submit = np.asarray(submit, dtype=float)
    first_start = np.asarray(first_start, dtype=float)
    finish = np.asarray(finish, dtype=float)
    out = []
    if np.isnan(first_start).any():
        out.append(f"{int(np.isnan(first_start).sum())} completed job(s) never started")
    if (first_start < submit).any():
        out.append(f"{int((first_start < submit).sum())} job(s) started before submission")
    if (finish < first_start).any():
        out.append(f"{int((finish < first_start).sum())} job(s) finished before starting")
    return out


def check_gpu_budget(gpu_seconds, submit, finish, cluster_gpus: int) -> list[str]:
    """Σ GPU-seconds held ≤ cluster GPUs × makespan."""
    used = float(np.sum(gpu_seconds))
    makespan = float(np.max(finish) - np.min(submit))
    budget = cluster_gpus * makespan
    if used > budget * (1 + REL_TOL):
        return [f"jobs held {used:.1f} GPU-s, more than {cluster_gpus} GPUs x "
                f"{makespan:.1f} s = {budget:.1f}"]
    return []


def check_summary(submit, finish, summary: dict) -> list[str]:
    """avg/p99 JCT and makespan recomputed from the records match summary()."""
    submit = np.asarray(submit, dtype=float)
    finish = np.asarray(finish, dtype=float)
    jct = finish - submit
    expected = {
        "avg_jct_h": float(np.mean(jct)) / HOUR,
        "p99_jct_h": float(np.percentile(jct, 99)) / HOUR,
        "makespan_h": float(np.max(finish) - np.min(submit)) / HOUR,
        "jobs": float(len(jct)),
    }
    out = []
    for key, want in expected.items():
        got = summary.get(key)
        if got is None or not math.isclose(got, want, rel_tol=REL_TOL):
            out.append(f"summary {key}={got} but the records give {want}")
    return out


def check_same_document(served: dict | None, batch: dict) -> list[str]:
    """The service's DRAINED document equals the batch run's document."""
    if served is None:
        return ["the service drained without a result document"]
    if served == batch:
        return []
    diff = sorted(k for k in served.keys() | batch.keys() if served.get(k) != batch.get(k))
    return [f"DRAINED document differs from the batch run in: {', '.join(diff)}"]


def check_records(
    submitted: list[str],
    completed: list[str],
    submit,
    first_start,
    finish,
    gpu_seconds,
    summary: dict,
    cluster_gpus: int,
) -> dict[str, list[str]]:
    """All record-level checks of one simulation, by check name."""
    return {
        "exactly-once": check_exactly_once(submitted, completed),
        "start/finish order": check_times(submit, first_start, finish),
        "GPU-second budget": check_gpu_budget(
            gpu_seconds, submit, finish, cluster_gpus
        ),
        "summary recomputed": check_summary(submit, finish, summary),
    }


def failures(results: dict[str, list[str]]) -> list[str]:
    """Flatten a check-name -> failures map into ``name: message`` lines."""
    return [f"{name}: {msg}" for name, msgs in results.items() for msg in msgs]


def document_columns(doc: dict) -> dict:
    """The per-job columns of a result document, in record order."""
    records = doc["records"]
    return {
        "completed": [r["job_id"] for r in records],
        "submit": [r["submit_time"] for r in records],
        "first_start": [
            math.nan if r["first_start"] is None else r["first_start"]
            for r in records
        ],
        "finish": [r["finish_time"] for r in records],
        "gpu_seconds": [r["gpu_seconds"] for r in records],
    }


def check_document(
    doc: dict, submitted: list[str], cluster_gpus: int
) -> dict[str, list[str]]:
    """The record-level checks on a result document."""
    return check_records(
        submitted, summary=doc["summary"], cluster_gpus=cluster_gpus,
        **document_columns(doc),
    )


# ----------------------------------------------------------------------
# Self-test: every check must reject a tampered result
# ----------------------------------------------------------------------
def _toy_document() -> tuple[dict, list[str], int]:
    """A 24-job AntMan run on a 2-node cluster, as a result document."""
    import json

    from repro.cluster import PAPER_CLUSTER
    from repro.oracle import SyntheticTestbed
    from repro.scheduler.registry import make_policy
    from repro.sim import Simulator, WorkloadConfig, generate_trace
    from repro.sim.engine import EngineConfig
    from repro.sim.serialization import result_to_dict

    cluster = PAPER_CLUSTER.__class__(num_nodes=2, node=PAPER_CLUSTER.node)
    testbed = SyntheticTestbed(cluster, seed=3)
    trace = generate_trace(
        WorkloadConfig(num_jobs=24, span=2 * HOUR, seed=3, cluster=cluster,
                       name="selftest"),
        testbed,
    )
    sim = Simulator(cluster, make_policy("antman"), testbed=testbed,
                    config=EngineConfig(seed=3))
    doc = json.loads(json.dumps(result_to_dict(sim.run(trace))))
    return doc, [tj.job_id for tj in trace], cluster.total_gpus


def _tampered(doc: dict) -> list[tuple[str, str, dict]]:
    """``(damage, check that must reject it, tampered copy of doc)``."""
    cases = []

    def case(name, check, edit):
        bad = copy.deepcopy(doc)
        edit(bad)
        cases.append((name, check, bad))

    recs = "records"
    case("duplicate completion", "exactly-once",
         lambda d: d[recs].append(dict(d[recs][0])))
    case("lost completion", "exactly-once", lambda d: d[recs].pop())
    case("start before submit", "start/finish order",
         lambda d: d[recs][0].update(first_start=d[recs][0]["submit_time"] - 1.0))
    case("finish before start", "start/finish order",
         lambda d: d[recs][-1].update(finish_time=d[recs][-1]["first_start"] - 1.0))
    case("GPU-seconds over budget", "GPU-second budget",
         lambda d: d[recs][0].update(gpu_seconds=1e12))
    case("wrong avg JCT", "summary recomputed",
         lambda d: d["summary"].update(avg_jct_h=d["summary"]["avg_jct_h"] * 1.001))
    case("wrong p99 JCT", "summary recomputed",
         lambda d: d["summary"].update(p99_jct_h=d["summary"]["p99_jct_h"] + 1e-6))
    case("wrong makespan", "summary recomputed",
         lambda d: d["summary"].update(makespan_h=d["summary"]["makespan_h"] * 0.99))
    case("relabelled document", "DRAINED = batch",
         lambda d: d.update(policy_name="other"))
    case("one record changed", "DRAINED = batch",
         lambda d: d[recs][1].update(reconfig_count=d[recs][1]["reconfig_count"] + 1))
    return cases


def self_test() -> list[str]:
    """Run every check on a toy result and on tampered copies of it.

    Returns the failures of the self-test itself: a check that rejects the
    genuine result, or a tampered result that its check accepts.
    """
    doc, submitted, gpus = _toy_document()
    problems = []

    def run_checks(candidate: dict) -> dict[str, list[str]]:
        out = check_document(candidate, submitted, gpus)
        out["DRAINED = batch"] = check_same_document(candidate, doc)
        return out

    genuine = failures(run_checks(copy.deepcopy(doc)))
    if genuine:
        problems.append(f"genuine toy result rejected: {genuine}")
    for name, check, bad in _tampered(doc):
        found = run_checks(bad)[check]
        verdict = f"rejected ({found[0]})" if found else "ACCEPTED"
        print(f"self-test: {check} on {name}: {verdict}")
        if not found:
            problems.append(f"{check} accepted a tampered result: {name}")
    return problems
