"""The ``service-replay`` workload: one closed-loop client against a master.

The master runs in its own process (``master.py``), so its peak RSS is the
simulation's alone.  The client builds the trace and the dynamics events,
connects over loopback TCP and replays them in submission order: each
SUBMIT (and CLUSTER_EVENT) waits for its OK, and each SUBMIT steps the
master's default loop to that job's arrival.  DRAIN runs the rest of the
session and returns the result document.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from instrument import Tracer, perf_counter

SERVICE_POLICY = "antman"
SERVICE_NODES = 16
SERVICE_JOBS = 1200
SERVICE_SCENARIO = "diurnal-3d"
SERVICE_DYNAMICS = "flaky"
#: Seconds allowed for the master to start, and for it to exit after DRAIN.
MASTER_TIMEOUT = 120.0
HERE = Path(__file__).resolve().parent


def service_run_spec(seed: int):
    from repro.experiments.spec import RunSpec

    return RunSpec(
        policy=SERVICE_POLICY,
        seed=seed,
        num_jobs=SERVICE_JOBS,
        nodes=SERVICE_NODES,
        scenario=SERVICE_SCENARIO,
        dynamics=SERVICE_DYNAMICS,
    )


@dataclass
class ClientInputs:
    run: object
    trace: object
    events: tuple

    @property
    def job_ids(self) -> list[str]:
        return [tj.job_id for tj in self.trace]


def client_inputs(
    seed: int, draw: int, tracer: Tracer | None = None
) -> ClientInputs:
    """The trace and events to stream: the scenario's trace jittered by
    ``(seed, draw)``, and its dynamics events."""
    from repro.experiments.runner import run_cluster_events
    from repro.oracle import SyntheticTestbed
    from workloads import TRACE_SEED, make_trace

    run = service_run_spec(seed)
    trace = make_trace(
        run.workload_config(), SyntheticTestbed(run.cluster, seed=TRACE_SEED),
        seed, draw, tracer,
    )
    events = run_cluster_events(service_run_spec(TRACE_SEED))
    return ClientInputs(run, trace, tuple(events))


def batch_document(seed: int, inputs: ClientInputs, store) -> dict:
    """The result document of a batch ``Simulator.run`` of the same inputs,
    with the master's pre-fitted models, as it travels over the wire."""
    from repro.oracle import SyntheticTestbed
    from repro.scheduler.registry import make_policy
    from repro.sim import Simulator
    from repro.sim.engine import EngineConfig
    from repro.sim.serialization import result_to_dict
    from workloads import TRACE_SEED

    sim = Simulator(
        inputs.run.cluster,
        make_policy(SERVICE_POLICY),
        testbed=SyntheticTestbed(inputs.run.cluster, seed=TRACE_SEED),
        perf_store=store,
        config=EngineConfig(seed=seed),
    )
    result = sim.run(inputs.trace, cluster_events=inputs.events)
    return json.loads(json.dumps(result_to_dict(result)))


@dataclass
class Replay:
    """What one master lifetime measured."""

    setup_s: float
    wall_s: float
    submitted: int
    errors: int
    rtts: list[float]
    document: dict | None
    master: dict
    inputs: ClientInputs
    client_self_s: float = 0.0
    request_s: float = 0.0
    spans_path: Path | None = None
    window: tuple[float, float] = (0.0, 0.0)


def _wait_ready(proc: subprocess.Popen, ready: Path) -> dict:
    deadline = time.monotonic() + MASTER_TIMEOUT
    while True:
        if ready.exists():
            return json.loads(ready.read_text())
        if proc.poll() is not None:
            raise RuntimeError(f"master exited with {proc.returncode} before binding")
        if time.monotonic() > deadline:
            raise RuntimeError("master did not bind in time")
        time.sleep(0.005)


def pin_to_one_cpu() -> None:
    """Keep this process, and the master it starts, on one CPU.

    Every SUBMIT wakes the other process of the closed loop.  Across two
    vCPUs that wake waits for the host to run the idle vCPU, which on a
    shared host varies from run to run; on one CPU it is a context switch.
    The loop is serial, so no parallelism is lost.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def master_store(seed: int):
    """The models the master pre-fits, fitted the same way in-process."""
    from repro.oracle import SyntheticTestbed
    from workloads import TRACE_SEED, fitted_store

    cluster = service_run_spec(seed).cluster
    return fitted_store(SyntheticTestbed(cluster, seed=TRACE_SEED), seed)


def replay_once(
    seed: int, draw: int, work_dir: Path, tag: str, tracer: Tracer | None = None
) -> Replay:
    """Start a master, replay the workload into it, and collect its stats."""
    from repro.errors import ProtocolError
    from repro.service import ServiceClient
    from repro.service.client import merged_frames
    from repro.sim.trace import TraceJob

    work_dir.mkdir(parents=True, exist_ok=True)
    ready = work_dir / f"ready-{tag}.json"
    stats = work_dir / f"stats-{tag}.json"
    spans = work_dir / f"master-spans-{tag}.json" if tracer is not None else None
    for path in (ready, stats):
        path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "master.py"), "--seed", str(seed),
        "--ready", str(ready), "--stats", str(stats),
        "--trace", "1" if tracer is not None else "0",
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    client = None
    try:
        start = perf_counter()
        inputs = client_inputs(seed, draw, tracer)
        build_s = perf_counter() - start
        info = _wait_ready(proc, ready)
        start = perf_counter()
        client = ServiceClient(port=info["port"]).connect()
        connect_s = perf_counter() - start

        rtts: list[float] = []
        errors = 0
        request_s = 0.0
        frames = merged_frames(inputs.trace, inputs.events)
        root = tracer.enter("service.client", True) if tracer else None
        start = perf_counter()
        for _, item in frames:
            is_job = isinstance(item, TraceJob)
            span = (
                tracer.enter("service.request", True,
                             key=item.job_id if is_job else "CLUSTER_EVENT")
                if tracer else None
            )
            sent = perf_counter()
            try:
                if is_job:
                    client.submit_job(item)
                else:
                    client.post_event(item)
            except ProtocolError:
                errors += 1
            took = perf_counter() - sent
            if span is not None:
                tracer.exit(span)
                request_s += took
            if is_job:
                rtts.append(took)
        span = tracer.enter("service.request", True, key="DRAIN") if tracer else None
        sent = perf_counter()
        try:
            document = client.drain(inputs.trace.name).get("result")
        except ProtocolError:
            errors += 1
            document = None
        end = perf_counter()
        if span is not None:
            tracer.exit(span)
            request_s += end - sent
            tracer.exit(root)
        client.close()
        client = None
        proc.wait(timeout=MASTER_TIMEOUT)
        master = json.loads(stats.read_text())
    finally:
        if client is not None:
            client.close()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        for path in (ready, stats):
            path.unlink(missing_ok=True)
    return Replay(
        setup_s=build_s + info["setup_s"] + connect_s,
        wall_s=end - start,
        submitted=len(inputs.trace),
        errors=errors,
        rtts=rtts,
        document=document,
        master=master,
        inputs=inputs,
        client_self_s=tracer.self_s["service.client"] if tracer else 0.0,
        request_s=request_s,
        spans_path=spans,
        window=(start, end),
    )
