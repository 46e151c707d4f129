"""Benchmark-side instrumentation: spans, timed counters and probes.

Everything here wraps *public* callables of the program from the outside
(class attributes patched for the duration of one measured iteration and
restored afterwards); nothing in ``src/`` knows it is being measured.

* :class:`Tracer` keeps one frame per open boundary call.  A *span* is
  recorded (name, start, end, parent span, key) for calls that are few
  enough to keep; hot calls are *timed* (self time and count aggregated,
  no span kept) and the hottest are only *counted*.  Every timed frame
  charges its duration to its parent frame, so self times partition the
  wall time whatever the mix of kinds.
* :class:`Patches` installs wrappers and restores the originals.
* :class:`DecisionProbe` and :class:`RecordProbe` are the untraced
  harness probes: per-job admission-to-decision latency, and a compact copy
  of every completed job's record for the correctness checks.
"""

from __future__ import annotations

import functools
import resource
import time
from collections import Counter, defaultdict

import numpy as np

perf_counter = time.perf_counter
_MISSING = object()


def peak_rss_mb() -> float:
    """This process's peak resident set in MiB (``ru_maxrss`` is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory spans and per-name self time / call counts."""

    def __init__(self) -> None:
        #: ``(name, start, end, parent_span_index, key)``; -1 = no parent.
        self.spans: list[tuple | None] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: Inclusive durations of the names listed in ``keep_durations``.
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.keep_durations: set[str] = set()
        # Open frames: [name, start, child_seconds, span_index, key].
        self._stack: list[list] = []
        self._open: Counter = Counter()

    # -- frames --------------------------------------------------------
    def enter(self, name: str, spanned: bool, key=None) -> list:
        parent = -1
        for frame in reversed(self._stack):
            if frame[3] >= 0:
                parent = frame[3]
                break
        index = -1
        if spanned:
            index = len(self.spans)
            self.spans.append(None)
        frame = [name, 0.0, 0.0, index, key, parent]
        self._stack.append(frame)
        self._open[name] += 1
        frame[1] = perf_counter()
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter()
        name, start, child, index, key, parent = frame
        duration = end - start
        self._stack.pop()
        self._open[name] -= 1
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        if name in self.keep_durations:
            self.durations[name].append(duration)
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self.spans[index] = (name, start, end, parent, key)

    def set_key(self, key) -> None:
        """Label the innermost open frame (e.g. with a frame's job id)."""
        if self._stack:
            self._stack[-1][4] = key

    # -- wrappers ------------------------------------------------------
    def wrap(self, name: str, fn, *, spanned: bool = True):
        """Time ``fn``; re-entrant calls run through untimed, so nested
        calls of one boundary count once and are timed once."""
        open_ = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_[name]:
                return fn(*args, **kwargs)
            frame = self.enter(name, spanned)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(frame)

        return wrapper

    def wrap_generator(self, name: str, fn):
        """Time each step of a generator method (never spanned)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self.enter(name, False)
            try:
                it = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            while True:
                frame = self.enter(name, False)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.exit(frame)
                yield item

        return wrapper

    def count(self, name: str, fn):
        """Count calls of ``fn`` without timing them."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- output --------------------------------------------------------
    def document(self, origin: str) -> dict:
        """The spans and aggregates as one JSON-ready document."""
        names: dict[str, int] = {}
        rows = []
        for span in self.spans:
            if span is None:  # still open (never happens after a run)
                continue
            name, start, end, parent, key = span
            rows.append(
                [names.setdefault(name, len(names)), start, end, parent, key]
            )
        doc = {
            "origin": origin,
            "names": sorted(names, key=names.get),
            "spans": rows,
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }
        return doc

    def merge(self, doc: dict) -> None:
        """Fold another process's dumped aggregates into this tracer."""
        for field in ("self_s", "total_s"):
            target = getattr(self, field)
            for name, value in doc[field].items():
                target[name] += value
        self.calls.update(doc["calls"])
        self.counts.update(doc["counts"])


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(current)``."""
        self.set(owner, attr, make(getattr(owner, attr)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()


class DecisionProbe:
    """Host latency from a job's admission to the end of the first policy
    round that decides on it (batch workloads' ``submit_ms``)."""

    def __init__(self) -> None:
        self._pending: list[float] = []
        self.samples: list[float] = []

    def install(self, patches: Patches, policy_cls) -> None:
        from repro.sim.events import EventCalendar

        pending = self._pending
        samples = self.samples

        def admit(fn):
            @functools.wraps(fn)
            def pop_arrivals(calendar, cutoff):
                for tj in fn(calendar, cutoff):
                    pending.append(perf_counter())
                    yield tj

            return pop_arrivals

        def decide(fn):
            @functools.wraps(fn)
            def schedule(policy, jobs, cluster, ctx):
                out = fn(policy, jobs, cluster, ctx)
                now = perf_counter()
                samples.extend(now - t for t in pending)
                pending.clear()
                return out

            return schedule

        patches.wrap(EventCalendar, "pop_arrivals", admit)
        patches.wrap(policy_cls, "schedule", decide)


class RecordProbe:
    """A compact copy of every completed job's record, kept apart from the
    program's own (possibly bounded) record list."""

    def __init__(self, job_ids: list[str]) -> None:
        n = len(job_ids)
        self.index = {job_id: i for i, job_id in enumerate(job_ids)}
        self.job_ids = job_ids
        self.completions = np.zeros(n, dtype=np.int32)
        self.submit = np.full(n, np.nan)
        self.first_start = np.full(n, np.nan)
        self.finish = np.full(n, np.nan)
        self.gpu_seconds = np.zeros(n)
        self.unknown: list[str] = []

    def install(self, patches: Patches) -> None:
        from repro.sim.metrics import SimulationResult

        index = self.index

        def observe(fn):
            @functools.wraps(fn)
            def add_record(result, record):
                fn(result, record)
                i = index.get(record.job_id)
                if i is None:
                    self.unknown.append(record.job_id)
                    return
                self.completions[i] += 1
                self.submit[i] = record.submit_time
                self.first_start[i] = (
                    np.nan if record.first_start is None
                    else record.first_start
                )
                self.finish[i] = record.finish_time
                self.gpu_seconds[i] = record.gpu_seconds

            return add_record

        patches.wrap(SimulationResult, "add_record", observe)
