"""The three benchmark workloads: how their inputs are made and run.

Every job is generated up front.  A workload's trace (models, GPU counts,
durations, initial plans, arrival times), its dynamics events and the
testbed's hidden ground truth are drawn from :data:`TRACE_SEED`; the run's
``--seed`` draws a jitter of up to :data:`JITTER` seconds on every arrival,
the randomness of the seven model fits, and the engine seed.  When the seed
drew the whole trace, one seed's 2000-job Rubick trace cost 1.7x the host
time of another's (110 vs 192 jobs/s); when it drew the ground truth,
AntMan's makespan moved by a third between seeds.  No regression bound can
absorb such spreads.  Jittered arrivals and re-fitted models still change
the decisions the policies make.

* ``rubick-scale`` — Rubick in ``scale_mode`` (600 s rounds), 128 nodes /
  1024 GPUs, 2000 Poisson jobs over 12 h, 5-min median duration, static
  cluster.  Almost all host time is the policy and plan evaluation.
* ``antman-datacenter`` — AntMan in ``scale_mode``, 1024 nodes / 8192
  GPUs, 50k Poisson jobs over 12 h, ``flaky`` dynamics, 1000 records kept.
  The scale loop, cluster bookkeeping and record streaming dominate.
* ``service-replay`` — an AntMan service master (virtual clock, default
  loop) on 16 nodes, fed ``diurnal-3d`` (1200 jobs over 3 days) plus
  ``flaky`` events by one closed-loop client over loopback TCP.  See
  ``service.py``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from instrument import perf_counter

HOUR = 3600.0
MINUTE = 60.0
#: The suites' ``BENCH_SEED``: trace, dynamics and ground truth of every
#: workload.
TRACE_SEED = 7
#: Largest shift of one arrival by the run's seed: half a ``scale_mode``
#: round, so a job can move into the neighbouring scheduling round.
JITTER = 300.0


@dataclass(frozen=True)
class BatchWorkload:
    """A trace replayed by one ``Simulator.run`` in ``scale_mode``."""

    name: str
    policy: str
    nodes: int
    jobs: int
    dynamics: str | None
    record_limit: int | None
    span: float = 12 * HOUR
    duration_median: float = 5 * MINUTE
    round_interval: float = 600.0


RUBICK_SCALE = BatchWorkload(
    name="rubick-scale", policy="rubick", nodes=128, jobs=2000,
    dynamics=None, record_limit=None,
)
ANTMAN_DATACENTER = BatchWorkload(
    name="antman-datacenter", policy="antman", nodes=1024, jobs=50_000,
    dynamics="flaky", record_limit=1000,
)


@dataclass
class BatchInputs:
    cluster: object
    testbed: object
    store: object
    trace: object
    events: tuple

    @property
    def job_ids(self) -> list[str]:
        return [tj.job_id for tj in self.trace]


def fitted_store(testbed, seed: int, tracer=None):
    """Fit the performance model of every catalog model on ``testbed``,
    with the fits' randomness drawn from ``seed``."""
    from repro.models import all_models
    from repro.oracle import build_perf_model
    from repro.scheduler import PerfModelStore

    fit = build_perf_model
    if tracer is not None:
        fit = tracer.wrap("perfmodel.fit", build_perf_model)
    store = PerfModelStore()
    for model in all_models():
        perf, _ = fit(testbed, model, model.global_batch_size, seed=seed)
        store.add(perf)
    return store


def jittered(trace, seed: int, draw: int = 0):
    """``trace`` with every arrival shifted by up to :data:`JITTER` seconds
    (never before 0), drawn from ``(seed, draw)``; job ids are renumbered in
    the new arrival order."""
    from repro.rng import rng_for
    from repro.sim.trace import Trace

    rng = rng_for(seed, "perfbench-jitter", trace.name, draw)
    shifts = rng.uniform(-JITTER, JITTER, size=len(trace))
    moved = sorted(
        (max(tj.submit_time + float(dt), 0.0), i)
        for i, (tj, dt) in enumerate(zip(trace.jobs, shifts))
    )
    return Trace(
        jobs=tuple(
            dataclasses.replace(
                trace.jobs[i], job_id=f"job-{k:05d}", submit_time=t
            )
            for k, (t, i) in enumerate(moved)
        ),
        name=trace.name,
    )


def make_trace(config, testbed, seed: int, draw: int = 0, tracer=None):
    """The trace of ``config`` at :data:`TRACE_SEED`, jittered by
    ``(seed, draw)``."""
    from repro.sim import generate_trace

    def build():
        trace = generate_trace(
            dataclasses.replace(config, seed=TRACE_SEED), testbed
        )
        return jittered(trace, seed, draw)

    if tracer is not None:
        build = tracer.wrap("workloads.trace", build)
    return build()


def batch_inputs(spec: BatchWorkload, seed: int, tracer=None) -> BatchInputs:
    """Testbed, model fits, trace and dynamics events of one batch run."""
    from repro.cluster import PAPER_CLUSTER, resolve_dynamics
    from repro.oracle import SyntheticTestbed
    from repro.sim import WorkloadConfig
    from repro.workloads.arrivals import PoissonArrivals

    cluster = dataclasses.replace(PAPER_CLUSTER, num_nodes=spec.nodes)
    testbed = SyntheticTestbed(cluster, seed=TRACE_SEED)
    store = fitted_store(testbed, seed, tracer)
    trace = make_trace(
        WorkloadConfig(
            num_jobs=spec.jobs,
            span=spec.span,
            cluster=cluster,
            duration_median=spec.duration_median,
            arrival=PoissonArrivals(),
            name=spec.name,
        ),
        testbed,
        seed,
        tracer=tracer,
    )
    events = ()
    if spec.dynamics is not None:
        events = resolve_dynamics(spec.dynamics).events(
            seed=TRACE_SEED, span=spec.span, cluster=cluster
        )
    return BatchInputs(cluster, testbed, store, trace, events)


def batch_simulator(spec: BatchWorkload, inputs: BatchInputs, seed: int):
    from repro.scheduler.registry import make_policy
    from repro.sim import Simulator
    from repro.sim.engine import EngineConfig

    return Simulator(
        inputs.cluster,
        make_policy(spec.policy),
        testbed=inputs.testbed,
        perf_store=inputs.store,
        config=EngineConfig(
            seed=seed,
            scale_mode=True,
            tick_interval=spec.round_interval,
            result_record_limit=spec.record_limit,
        ),
    )


def timed_setup(spec: BatchWorkload, seed: int, tracer=None):
    """Build the inputs and the simulator; returns them with the seconds."""
    start = perf_counter()
    inputs = batch_inputs(spec, seed, tracer)
    sim = batch_simulator(spec, inputs, seed)
    return inputs, sim, perf_counter() - start


def run_batch(sim, inputs: BatchInputs):
    """One whole replay; returns the result and its host seconds."""
    start = perf_counter()
    result = sim.run(inputs.trace, cluster_events=inputs.events)
    return result, perf_counter() - start
