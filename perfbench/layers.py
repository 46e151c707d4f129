"""Layer boundaries of the program and the per-layer metrics read off them.

The layers are the package's modules.  Each boundary is a public callable
wrapped from outside by :func:`install_engine` (batch runs and the service
master) or :func:`install_service` (the master's frame loop); spans are
kept for calls that are few, hot calls are timed without a span, and the
hottest (``GpuCurve`` walks) are only counted.

All ``*_s`` layer metrics are *self* times (a call's duration minus the
boundary calls it made), so they add up to the traced wall time; the one
exception is ``service.step_s``, the inclusive engine time of the master's
``Simulator.step`` calls.
"""

from __future__ import annotations

import statistics

from instrument import Patches, Tracer

#: Per-layer metric names and units, in report order.
LAYER_METRICS = {
    "perfmodel.fit_s": "s",
    "perfmodel.fits": "count",
    "workloads.trace_s": "s",
    "mem.setup_rss_mb": "MiB",
    "scheduler.schedule_s": "s",
    "scheduler.schedule_calls": "count",
    "scheduler.schedule_ms_p50": "ms",
    "scheduler.steady_state_s": "s",
    "scheduler.steady_state_calls": "count",
    "planeval.query_s": "s",
    "planeval.queries": "count",
    "planeval.lookups": "count",
    "planeval.hits": "count",
    "planeval.misses": "count",
    "planeval.hit_ratio": "ratio",
    "planeval.evals": "count",
    "planeval.scoring_s": "s",
    "planeval.scoring_calls": "count",
    "planeval.curve_calls": "count",
    "sim.self_s": "s",
    "sim.rounds": "count",
    "sim.policy_skips": "count",
    "sim.calendar_s": "s",
    "sim.calendar_calls": "count",
    "cluster.apply_s": "s",
    "cluster.apply_calls": "count",
    "cluster.release_calls": "count",
    "cluster.soa_s": "s",
    "cluster.soa_writes": "count",
    "cluster.node_events": "count",
    "metrics.record_s": "s",
    "metrics.records": "count",
    "service.step_s": "s",
    "service.frame_s": "s",
    "service.client_s": "s",
    "service.frames": "count",
    "service.bytes_in": "B",
    "service.bytes_out": "B",
    "trace.overhead_pct": "%",
    "trace.wall_s": "s",
    "trace.unattributed_pct": "%",
}

#: Self-time metrics that partition a traced run's wall time.
SELF_TIME_METRICS = (
    "perfmodel.fit_s",
    "workloads.trace_s",
    "scheduler.schedule_s",
    "scheduler.steady_state_s",
    "planeval.query_s",
    "planeval.scoring_s",
    "sim.self_s",
    "sim.calendar_s",
    "cluster.apply_s",
    "cluster.soa_s",
    "metrics.record_s",
    "service.frame_s",
    "service.client_s",
)

#: Set-up self times: outside the replay window of ``service-replay``.
_SETUP_METRICS = ("perfmodel.fit_s", "workloads.trace_s")

_CALENDAR_GENERATORS = ("pop_arrivals", "pop_cluster_events")
_CALENDAR_CALLS = (
    "pop_due_completions",
    "next_event_time",
    "next_event_time_lazy",
    "track",
    "invalidate",
    "push_arrival",
    "push_cluster_event",
)
_PLANEVAL_QUERIES = (
    "best", "best_of", "best_of_many", "score_all", "curve", "curve_of",
)
_CURVE_WALKS = (
    "next_better_count", "lookahead_slope_up", "slope_up", "slope_down",
)


def install_engine(tracer: Tracer, patches: Patches, policy_cls) -> None:
    """Wrap the engine, policy, plan-evaluation, cluster and metrics
    boundaries for one traced simulation."""
    from repro.cluster.soa import ClusterIndex
    from repro.cluster.state import Cluster
    from repro.planeval.curve import GpuCurve
    from repro.planeval.engine import PlanEvalEngine
    from repro.planeval.scoring import PerfStoreScorer, TestbedScorer
    from repro.sim.engine import Simulator
    from repro.sim.events import EventCalendar
    from repro.sim.metrics import SimulationResult

    tracer.keep_durations.add("scheduler.schedule")

    def span(owner, attr, name, spanned=True):
        patches.wrap(owner, attr, lambda fn: tracer.wrap(name, fn, spanned=spanned))

    span(Simulator, "run", "sim.run")
    span(Simulator, "step", "sim.step")
    for attr in _CALENDAR_GENERATORS:
        patches.wrap(
            EventCalendar, attr,
            lambda fn: tracer.wrap_generator("sim.calendar", fn),
        )
    for attr in _CALENDAR_CALLS:
        span(EventCalendar, attr, "sim.calendar", spanned=False)
    span(policy_cls, "schedule", "scheduler.schedule")
    span(policy_cls, "steady_state", "scheduler.steady_state")
    for attr in _PLANEVAL_QUERIES:
        span(PlanEvalEngine, attr, "planeval.query", spanned=False)
    for scorer in (PerfStoreScorer, TestbedScorer):
        span(scorer, "score", "planeval.scoring", spanned=False)
    for attr in _CURVE_WALKS:
        patches.wrap(
            GpuCurve, attr, lambda fn: tracer.count("planeval.curve_calls", fn)
        )
    span(Cluster, "apply", "cluster.apply")
    span(Cluster, "release", "cluster.release")
    span(ClusterIndex, "share_changed", "cluster.soa", spanned=False)
    span(SimulationResult, "add_record", "metrics.record")


def install_service(tracer: Tracer, patches: Patches) -> None:
    """Wrap the service master's frame loop, decoder and encoder."""
    import functools

    from repro.service import protocol
    from repro.service.master import ServiceMaster

    counts = tracer.counts
    patches.wrap(
        ServiceMaster, "_service",
        lambda fn: tracer.wrap("service.frame", fn),
    )

    def label(fn):
        @functools.wraps(fn)
        def _handle(master, client, frame):
            job = frame.get("job")
            tracer.set_key(
                job.get("job_id") if isinstance(job, dict) else frame.get("type")
            )
            return fn(master, client, frame)

        return _handle

    def feed(fn):
        @functools.wraps(fn)
        def wrapper(decoder, data):
            frames = fn(decoder, data)
            counts["service.bytes_in"] += len(data)
            counts["service.frames"] += len(frames)
            return frames

        return wrapper

    def encode(fn):
        @functools.wraps(fn)
        def encode_frame(payload):
            out = fn(payload)
            counts["service.bytes_out"] += len(out)
            return out

        return encode_frame

    patches.wrap(ServiceMaster, "_handle", label)
    patches.wrap(protocol.FrameDecoder, "feed", feed)
    patches.wrap(protocol, "encode_frame", encode)


def engine_stats(engines) -> dict[str, int]:
    """Summed ``EngineStats`` of the given plan-evaluation engines."""
    total = {"hits": 0, "misses": 0, "evals": 0}
    for engine in engines:
        if engine is None:
            continue
        stats = engine.stats()
        total["hits"] += stats.hits
        total["misses"] += stats.misses
        total["evals"] += stats.evals
    return total


def layer_metrics(
    tracer: Tracer,
    *,
    rounds: int,
    policy_skips: int,
    node_events: int,
    planeval: dict[str, int],
    setup_rss_mb: float,
    wall_s: float,
    overhead_pct: float,
    service: bool = False,
    client_s: float = 0.0,
) -> dict[str, float]:
    """Every per-layer metric of one traced run.

    ``wall_s`` is the traced region's wall time; the self times in
    :data:`SELF_TIME_METRICS` add up to it up to ``trace.unattributed_pct``
    (benchmark glue between boundary calls).  For the service the region is
    the replay window, which excludes the setup-time fits and trace build;
    ``client_s`` is the client's time in that window outside the master's
    frame handling (client work, loopback transfer and wake-ups).
    """
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    schedule = tracer.durations.get("scheduler.schedule", [])
    lookups = planeval["hits"] + planeval["misses"]
    out = {
        "perfmodel.fit_s": s["perfmodel.fit"],
        "perfmodel.fits": calls["perfmodel.fit"],
        "workloads.trace_s": s["workloads.trace"],
        "mem.setup_rss_mb": setup_rss_mb,
        "scheduler.schedule_s": s["scheduler.schedule"],
        "scheduler.schedule_calls": calls["scheduler.schedule"],
        "scheduler.schedule_ms_p50": (
            statistics.median(schedule) * 1000 if schedule else 0.0
        ),
        "scheduler.steady_state_s": s["scheduler.steady_state"],
        "scheduler.steady_state_calls": calls["scheduler.steady_state"],
        "planeval.query_s": s["planeval.query"],
        "planeval.queries": calls["planeval.query"],
        "planeval.lookups": lookups,
        "planeval.hits": planeval["hits"],
        "planeval.misses": planeval["misses"],
        "planeval.hit_ratio": planeval["hits"] / lookups if lookups else 0.0,
        "planeval.evals": planeval["evals"],
        "planeval.scoring_s": s["planeval.scoring"],
        "planeval.scoring_calls": calls["planeval.scoring"],
        "planeval.curve_calls": counts["planeval.curve_calls"],
        "sim.self_s": s["sim.run"] + s["sim.step"],
        "sim.rounds": rounds,
        "sim.policy_skips": policy_skips,
        "sim.calendar_s": s["sim.calendar"],
        "sim.calendar_calls": calls["sim.calendar"],
        "cluster.apply_s": s["cluster.apply"] + s["cluster.release"],
        "cluster.apply_calls": calls["cluster.apply"],
        "cluster.release_calls": calls["cluster.release"],
        "cluster.soa_s": s["cluster.soa"],
        "cluster.soa_writes": calls["cluster.soa"],
        "cluster.node_events": node_events,
        "metrics.record_s": s["metrics.record"],
        "metrics.records": calls["metrics.record"],
        "service.step_s": tracer.total_s["sim.step"] if service else 0.0,
        "service.frame_s": s["service.frame"],
        "service.client_s": client_s,
        "service.frames": counts["service.frames"],
        "service.bytes_in": counts["service.bytes_in"],
        "service.bytes_out": counts["service.bytes_out"],
        "trace.overhead_pct": overhead_pct,
        "trace.wall_s": wall_s,
    }
    attributed = sum(
        out[name] for name in SELF_TIME_METRICS
        if not (service and name in _SETUP_METRICS)
    )
    out["trace.unattributed_pct"] = 100.0 * (wall_s - attributed) / wall_s
    return out

