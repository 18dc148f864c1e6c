"""In-process probes: a step tally for every run, layer tracing on demand.

The benchmark never edits ``src/``.  Instead :func:`install` wraps the
public entry points of each layer from outside, in the process that runs
the CLI or the job server, before any work starts.  Pool workers and job
workers are forked from that process, so they inherit the wrappers and
write their own probe files (``probe-<pid>.jsonl``); :func:`read` reads
them all when the run ends.

Two modes:

* **tally** (always on): counts simulated shared-memory steps by keeping
  a reference to each :class:`~repro.runtime.simulator.Simulator`'s
  logical clock (one list append per simulation, nothing per step), and
  counts pool chunks planned, executed and rerun serially, so retries
  and serial fallbacks show up as failed operations.
* **trace** (``--trace 1``): additionally records a span (name, start,
  end, parent, pid) at every layer boundary listed in :func:`_targets`,
  and count/time aggregates for the per-step hot paths (scheduler
  ``select``, gradient oracle, sanitizer drains), where one span per
  call would cost more than the call.

Timestamps use ``time.monotonic`` (CLOCK_MONOTONIC), which every process
on the host shares, so spans from different processes line up.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import pickle
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

_now = time.monotonic


class _ThreadState:
    """Per-thread probe state: the open-span stack, the nesting guards
    and the counters this thread has added since the last flush."""

    __slots__ = ("stack", "active", "counts")

    def __init__(self) -> None:
        self.stack: List[List[Any]] = []  # [span id, covered seconds]
        self.active: set = set()
        self.counts: Dict[str, float] = {}


def _add(counts: Dict[str, float], key: str, value: float) -> None:
    counts[key] = counts.get(key, 0) + value


class Probe:
    """The probe of one process (re-armed in every forked child)."""

    def __init__(self, outdir: str, trace: bool) -> None:
        self.outdir = outdir
        self.trace = trace
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._spans: List[list] = []
        self._clocks: List[Any] = []
        self._ids = itertools.count(1)
        self.queued: Dict[str, float] = {}  # job id -> admission time
        os.register_at_fork(after_in_child=self._after_fork)

    # ------------------------------------------------------------------
    def state(self) -> _ThreadState:
        try:
            return self._local.s
        except AttributeError:
            st = _ThreadState()
            self._local.s = st
            with self._lock:
                self._states.append(st)
            return st

    def _after_fork(self) -> None:
        # The child keeps its thread's open-span stack (so its first
        # span's parent is the span that forked it) but none of the
        # parent's unflushed records.
        self.pid = os.getpid()
        self._lock = threading.Lock()
        st = self.state()
        st.counts = {}
        self._states = [st]
        self._spans = []
        self._clocks = []
        self._ids = itertools.count(1)

    def count(self, key: str, value: float = 1) -> None:
        _add(self.state().counts, key, value)

    def flush(self) -> None:
        """Append everything recorded since the last flush to this
        process's probe file."""
        counts: Dict[str, float] = {}
        for st in list(self._states):
            pending, st.counts = st.counts, {}
            for key, value in pending.items():
                _add(counts, key, value)
        clocks, self._clocks = self._clocks, []
        steps = sum(clock.now for clock in clocks)
        if steps:
            _add(counts, "runtime.steps", steps)
        spans, self._spans = self._spans, []
        if not counts and not spans:
            return
        line = json.dumps({"pid": self.pid, "counts": counts, "spans": spans})
        path = os.path.join(self.outdir, f"probe-{self.pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")

    def flush_if_child(self) -> None:
        if self.pid != self.root_pid:
            self.flush()

    # ------------------------------------------------------------------
    # Wrapper factories
    # ------------------------------------------------------------------
    def span(self, name: str, guard: Optional[str] = None,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None,
             flush: bool = False) -> Callable:
        """Record one span per outermost call (``guard`` names the
        nesting family: an inner call of the same family is not a new
        span).  ``before(args, kwargs)`` and ``after(counts, args,
        kwargs, result, token)`` may return span attributes; ``flush``
        writes the probe file when the call ends in a forked child."""
        guard = guard or name
        probe = self

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                st = probe.state()
                if guard in st.active:
                    return fn(*args, **kwargs)
                token = before(args, kwargs) if before is not None else None
                sid = f"{probe.pid}.{next(probe._ids)}"
                parent = st.stack[-1][0] if st.stack else None
                frame = [sid, 0.0]
                st.active.add(guard)
                st.stack.append(frame)
                result = None
                returned = False
                t0 = _now()
                try:
                    result = fn(*args, **kwargs)
                    returned = True
                    return result
                finally:
                    # Runs on SystemExit too: job workers exit that way.
                    t1 = _now()
                    st.stack.pop()
                    st.active.discard(guard)
                    if st.stack:
                        st.stack[-1][1] += t1 - t0
                    attrs = token
                    if returned and after is not None:
                        extra = after(st.counts, args, kwargs, result, token)
                        if extra:
                            attrs = {**(attrs or {}), **extra}
                    probe._spans.append(
                        [name, sid, parent, t0, t1, frame[1], attrs]
                    )
                    if flush:
                        probe.flush_if_child()

            return wrapper

        return make

    def hot(self, name: str, guard: Optional[str] = None,
            before: Optional[Callable] = None,
            after: Optional[Callable] = None) -> Callable:
        """Count and time every outermost call without keeping a span:
        adds ``<name>.calls`` and ``<name>.s``."""
        guard = guard or name
        calls_key, time_key = f"{name}.calls", f"{name}.s"
        probe = self

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                st = probe.state()
                if guard in st.active:
                    return fn(*args, **kwargs)
                token = before(args, kwargs) if before is not None else None
                st.active.add(guard)
                t0 = _now()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = _now() - t0
                    st.active.discard(guard)
                    if st.stack:
                        st.stack[-1][1] += dt
                    counts = st.counts
                    counts[calls_key] = counts.get(calls_key, 0) + 1
                    counts[time_key] = counts.get(time_key, 0.0) + dt
                if after is not None:
                    after(counts, args, kwargs, result, token)
                return result

            return wrapper

        return make

    def counter(self, after: Callable) -> Callable:
        """Call ``after(counts, args, kwargs, result, None)`` after every
        call; no timing."""
        probe = self

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(probe.state().counts, args, kwargs, result, None)
                return result

            return wrapper

        return make

    def async_span(self, name: str) -> Callable:
        """Count and time a coroutine.  Concurrent requests interleave on
        one thread, so these never join the span stack."""
        probe = self

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                t0 = _now()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    counts = probe.state().counts
                    _add(counts, f"{name}.calls", 1)
                    _add(counts, f"{name}.s", _now() - t0)

            return wrapper

        return make


# ----------------------------------------------------------------------
# What gets wrapped
# ----------------------------------------------------------------------
def _targets(probe: Probe) -> List[tuple]:
    """(module, attribute path, wrapper factory) for every probe."""

    def on_simulator(counts, args, kwargs, result, token):
        probe._clocks.append(args[0].clock)
        _add(counts, "runtime.runs", 1)

    tally = [
        ("repro.runtime.simulator", "Simulator.__init__",
         probe.counter(on_simulator)),
        ("repro.experiments.ensemble", "_run_chunks_pooled", probe.span(
            "ensemble.pool", after=_after_pool)),
        ("repro.experiments.ensemble", "_run_chunk", probe.span(
            "ensemble.chunk", after=_after_chunk(probe), flush=True)),
        ("repro.serve.worker", "job_worker_main", probe.span(
            "serve.worker", before=_worker_attrs, flush=True)),
    ]
    if not probe.trace:
        return tally
    trace = [
        ("os", "fsync", probe.counter(
            lambda c, a, k, r, t: _add(c, "durable.fsyncs", 1))),
        ("repro.experiments.ensemble", "run_ensemble", probe.span(
            "ensemble.run")),
        ("repro.runtime.simulator", "Simulator.run", probe.span(
            "runtime.run")),
        ("repro.runtime.simulator", "Simulator.run_fast", probe.span(
            "runtime.run")),
        ("repro.runtime.simulator", "Simulator.run_analyzed", probe.span(
            "runtime.run")),
        ("repro.runtime.simulator", "Simulator.step", probe.hot(
            "runtime.step", guard="runtime.run")),
        ("repro.runtime.events", "IterationRecord.__init__", probe.counter(
            lambda c, a, k, r, t: _add(c, "core.iterations", 1))),
        ("repro.durable.atomic_io", "append_line", probe.hot(
            "durable.line", after=_after_append_line)),
        ("repro.durable.journal", "RunJournal.record", probe.span(
            "durable.append")),
        ("repro.analysis.sanitizer", "RaceStalenessSanitizer.drain",
         probe.hot("analysis.sanitize", before=_cursor, after=_after_drain)),
        ("repro.analysis.sanitizer", "RaceStalenessSanitizer.finish",
         probe.hot("analysis.sanitize", before=_cursor, after=_after_drain)),
        ("repro.heal.detectors", "DetectorSuite.check", probe.hot(
            "heal.check")),
        ("repro.faults.injectors", "FaultInjectionScheduler.try_crash",
         probe.counter(_after_try_crash)),
        ("repro.faults.injectors", "FaultInjectionScheduler.note_corruption",
         probe.counter(lambda c, a, k, r, t: _add(
             c, "faults.injections", 1))),
        ("repro.verify.enumerator", "enumerate_schedules", probe.span(
            "verify.enumerate", after=_after_enumerate)),
        ("repro.serve.server", "JobServer._handle", probe.async_span(
            "http.request")),
        ("repro.serve.supervisor", "JobSupervisor.submit", probe.hot(
            "http.submit")),
        ("repro.serve.supervisor", "Job.__init__", probe.counter(
            _after_job_init)),
        ("repro.serve.supervisor", "JobSupervisor._run_job", probe.span(
            "serve.job", before=_queue_wait)),
        ("repro.serve.supervisor", "ProcessJobRunner.run", probe.span(
            "serve.attempt", after=_after_attempt)),
        ("repro.serve.cache", "ResultCache.get", probe.hot(
            "cache.get", after=_after_cache_get)),
        ("repro.serve.cache", "ResultCache.put", probe.hot(
            "cache.put", after=_after_cache_put)),
        ("repro.obs.causal", "CausalRecorder.record", probe.hot(
            "obs.record")),
    ]
    certify = probe.hot("analysis.certify")
    trace += [
        ("repro.analysis.lemmas", name, certify)
        for name in ("certify_iteration_order", "certify_lemma_6_2",
                     "certify_lemma_6_4", "certify_run")
    ] + [("repro.obs.paper", "paper_metrics", certify)]
    return tally + trace


def _worker_attrs(args, kwargs):
    # job_worker_main(payload, journal, result_path, progress_path, ...):
    # the job id names the job directory and the attempt number is in
    # the result file name (result-<attempt>.json).
    result_name = os.path.basename(str(args[2]))
    return {
        "job": os.path.basename(os.path.dirname(str(args[3]))),
        "attempt": int(result_name[len("result-"):-len(".json")]),
    }


def _after_attempt(counts, args, kwargs, result, token):
    _add(counts, "serve.attempts", 1)
    job = args[1]
    return {"job": job.id, "attempt": job.attempts}


def _after_try_crash(counts, args, kwargs, result, token):
    if result:
        _add(counts, "faults.injections", 1)


def _after_pool(counts, args, kwargs, result, token):
    chunks, jobs = args[1], args[2]
    _add(counts, "ensemble.pools", 1)
    _add(counts, "ensemble.planned", len(chunks))
    _add(counts, "ensemble.serial_reruns",
         sum(1 for part in result if part is None))
    return {"workers": min(jobs, len(chunks))}


def _after_chunk(probe: Probe) -> Callable:
    def after(counts, args, kwargs, result, token):
        _add(counts, "ensemble.chunks", 1)
        if probe.trace:
            _add(counts, "ensemble.pickle_bytes",
                 len(pickle.dumps(args[0])) + len(pickle.dumps(result)))
        return None

    return after


def _after_append_line(counts, args, kwargs, result, token):
    size = len(args[1]) + 1
    active = _PROBE.state().active if _PROBE is not None else ()
    if "obs.record" in active:
        _add(counts, "obs.spill_bytes", size)
    elif "durable.append" in active:
        _add(counts, "durable.journal_records", 1)
        _add(counts, "durable.journal_bytes", size)


def _cursor(args, kwargs):
    return args[0]._cursor


def _after_drain(counts, args, kwargs, result, token):
    _add(counts, "analysis.ops", args[0]._cursor - token)


def _after_enumerate(counts, args, kwargs, result, token):
    _add(counts, "verify.nodes", result.stats.nodes)
    _add(counts, "verify.schedules", result.stats.schedules)
    return None


def _after_job_init(counts, args, kwargs, result, token):
    # A job is built under the supervisor's lock just before it is
    # queued (or answered from the cache, and then never runs).
    _PROBE.queued[args[0].id] = _now()


def _queue_wait(args, kwargs):
    queued = _PROBE.queued.pop(args[1].id, None)
    return None if queued is None else {"queue_wait": _now() - queued}


def _after_cache_get(counts, args, kwargs, result, token):
    _add(counts, "cache.misses" if result is None else "cache.hits", 1)


def _after_cache_put(counts, args, kwargs, result, token):
    canonical = json.dumps(args[2], sort_keys=True, separators=(",", ":"))
    _add(counts, "cache.bytes", len(canonical.encode("utf-8")))


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------
_PROBE: Optional[Probe] = None


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(outdir: str, trace: bool) -> Probe:
    """Wrap every target and return the process's probe.

    Module-level functions are replaced wherever a module holds a
    reference to them (``from x import f`` copies), methods on their
    class; scheduler ``select`` and objective ``stochastic_gradient``
    are wrapped on every subclass that defines them.
    """
    global _PROBE
    probe = Probe(outdir, trace)
    _PROBE = probe
    replaced: Dict[int, Any] = {}
    for module_name, path, make in _targets(probe):
        owner, attr = _resolve(module_name, path)
        original = getattr(owner, attr)
        wrapped = make(original)
        setattr(owner, attr, wrapped)
        if not isinstance(owner, type):
            replaced[id(original)] = (original, wrapped)
    if trace:
        _wrap_subclasses(probe)
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace or module.__name__ == __name__:
            continue
        for key, value in list(namespace.items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                namespace[key] = hit[1]
    return probe


def _subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def _wrap_subclasses(probe: Probe) -> None:
    for name in ("repro.sched.registry", "repro.sched.replay",
                 "repro.faults.injectors", "repro.objectives"):
        importlib.import_module(name)
    from repro.objectives.base import Objective
    from repro.sched.base import Scheduler

    select = probe.hot("sched.select", guard="sched.select")
    gradient = probe.hot("core.gradient", guard="core.gradient")
    for base, attr, make in ((Scheduler, "select", select),
                             (Objective, "stochastic_gradient", gradient)):
        for cls in [base] + _subclasses(base):
            method = cls.__dict__.get(attr)
            if method is not None and not getattr(
                method, "__isabstractmethod__", False
            ):
                setattr(cls, attr, make(method))


# ----------------------------------------------------------------------
# Reading probe files
# ----------------------------------------------------------------------
def read(outdir: str) -> Dict[str, Any]:
    """Counts summed over every probe file in ``outdir`` and all spans
    as dicts."""
    counts: Dict[str, float] = {}
    spans: List[Dict[str, Any]] = []
    for name in sorted(os.listdir(outdir)):
        if not (name.startswith("probe-") and name.endswith(".jsonl")):
            continue
        with open(os.path.join(outdir, name), encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                for key, value in record["counts"].items():
                    _add(counts, key, value)
                for name_, sid, parent, t0, t1, covered, attrs in record["spans"]:
                    spans.append({
                        "name": name_, "id": sid, "parent": parent,
                        "t0": t0, "t1": t1, "covered": covered,
                        "attrs": attrs or {}, "pid": record["pid"],
                    })
    return {"counts": counts, "spans": spans}


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Self time per layer (the span name's first dotted part): each
    span's duration minus what its children cover.  Children in the
    same process are already in ``covered``; children in other
    processes (pool chunks, job workers) are merged as intervals."""
    remote: Dict[str, List[tuple]] = {}
    for span in spans:
        parent = span["parent"]
        if parent is not None and parent.split(".")[0] != str(span["pid"]):
            remote.setdefault(parent, []).append((span["t0"], span["t1"]))
    layers: Dict[str, float] = {}
    for span in spans:
        t0, t1 = span["t0"], span["t1"]
        covered = span["covered"]
        edge = t0
        for c0, c1 in sorted(remote.get(span["id"], ())):
            c0, c1 = max(c0, edge), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                edge = c1
        layer = span["name"].split(".")[0]
        _add(layers, layer, max(0.0, (t1 - t0) - covered))
    return layers
