"""Process-parallel seed ensembles — tier 2 of the execution engine.

Every quantitative claim in the reproduction is a Monte-Carlo estimate
over independent *seeded* simulator runs, and independent seeds are
embarrassingly parallel: the simulator inside each run stays
single-threaded and deterministic, so farming seeds out to worker
processes changes wall-clock time and nothing else.  This module is the
one place that owns that fan-out:

* :func:`run_ensemble` maps a picklable ``run_one(seed)`` callable over a
  seed list, chunking seeds across a
  :class:`concurrent.futures.ProcessPoolExecutor` and merging results in
  **seed order**, so parallel output is byte-identical to serial output;
* :func:`run_rows` is the same engine for a whole grid: the
  ``(namespace, seed)`` cells of many rows share **one** pool and one
  chunk plan (``run_ensemble`` is its one-row case), so a grid of many
  small rows parallelizes as well as one large ensemble;
* ``jobs=1`` (the default) never touches a pool — experiments remain as
  debuggable as before;
* pool failures degrade gracefully — and *partially*: each chunk is a
  separate future, transient failures (broken pool, dead worker, stalls)
  are retried in the pool with exponential backoff, and only the chunks
  that never produced a result are rerun serially.  A campaign where 15
  of 16 chunks succeeded redoes one chunk, not the whole seed list;
* the run is **durable** (see DESIGN.md §12): pass a
  :class:`~repro.durable.journal.RunJournal` and every completed seed is
  recorded durably the moment its result reaches the driver, so a
  SIGKILL loses at most in-flight work and a resumed call skips finished
  seeds while returning byte-identical results; an
  :class:`~repro.durable.watchdog.EnsembleWatchdog` escalates pool
  stalls (stall → reroute → abandon) instead of hanging; a
  :class:`~repro.durable.signals.GracefulShutdown` stops the run at the
  next seed boundary with every finished cell journaled.

Workers must be importable module-level callables (or
``functools.partial`` of one) — the experiment drivers define theirs as
``_*_worker`` functions next to their ``run()``.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from repro.durable.watchdog import ABANDON, REROUTE, EnsembleWatchdog, WatchdogPolicy
from repro.errors import ConfigurationError

T = TypeVar("T")


def backoff_delay(
    base: float,
    attempt: int,
    chunk_index: int = 0,
    seed: Optional[int] = None,
) -> float:
    """Exponential backoff for retry ``attempt`` (1-based), optionally
    with **seeded deterministic jitter**.

    Without a ``seed`` this is the classic ``base * 2**(attempt-1)``.
    With one, the delay is scaled by a factor in ``[0.5, 1.5)`` drawn
    from an :class:`~repro.runtime.rng.RngStream` keyed on
    ``(seed, chunk_index, attempt)`` — so concurrent retries de-sync
    (no thundering herd resubmitting in lockstep) while the schedule of
    sleeps stays a pure function of the run's seed, never of the global
    ``random`` singleton or the wall clock.  Jitter only shapes *when*
    a retry happens; chunk results are pure functions of their seeds,
    so reports stay byte-identical with jitter on or off (pinned in
    ``tests/test_exp_ensemble.py``).
    """
    import numpy as np

    from repro.runtime.rng import RngStream

    delay = base * 2 ** (attempt - 1)
    if seed is None or delay <= 0:
        return delay
    stream = RngStream(
        np.random.SeedSequence(
            entropy=int(seed), spawn_key=(int(chunk_index), int(attempt))
        )
    )
    return delay * (0.5 + float(stream.uniform(0.0, 1.0)))

#: Exceptions that mean "the pool could not be used", not "the experiment
#: is broken": pickling failures of the callable, fork/spawn failures in
#: restricted environments, and workers dying before returning.  Real
#: errors raised *inside* ``run_one`` propagate unchanged from the serial
#: fallback, which re-raises them deterministically.
POOL_FAILURES = (
    pickle.PicklingError,
    AttributeError,
    TypeError,
    OSError,
    ImportError,
    BrokenProcessPool,
)

#: Pool failures not worth retrying in the pool: if the callable cannot
#: cross the process boundary once, it never will.  (Resubmitting makes
#: sense for transient faults — a worker OOM-killed, a broken pool that
#: respawned — not for serialization errors.)
_NON_RETRYABLE = (pickle.PicklingError, AttributeError, TypeError)


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: ``None``/1 → serial, ``<= 0`` → one
    worker per available CPU, anything else taken literally."""
    if jobs is None or jobs == 1:
        return 1
    if jobs <= 0:
        return max(1, os.cpu_count() or 1)
    return jobs


def seed_chunks(seeds: Sequence[int], jobs: int) -> List[List[int]]:
    """Split ``seeds`` into contiguous chunks for ``jobs`` workers.

    Chunks are contiguous (so the seed→result order is trivially
    reconstructible) and there are up to ``4 × jobs`` of them, which
    keeps workers busy even when per-seed run times are skewed — the
    usual case, since adversarial schedules make some seeds hit early
    and others run to the horizon.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    seeds = list(seeds)
    if not seeds:
        return []
    chunk_size = max(1, math.ceil(len(seeds) / (4 * jobs)))
    return [seeds[i : i + chunk_size] for i in range(0, len(seeds), chunk_size)]


def _run_chunk(payload: Tuple[Callable[[int], T], List[int]]) -> List[T]:
    """Worker entry point: run one contiguous seed chunk serially."""
    run_one, chunk = payload
    return [run_one(seed) for seed in chunk]


def _run_chunks_pooled(
    run_one: Callable[[int], T],
    chunks: List[List[int]],
    jobs: int,
    chunk_retries: int,
    chunk_timeout: Optional[float],
    backoff_base: float,
    watchdog: Optional[EnsembleWatchdog] = None,
    shutdown: Optional[Any] = None,
    on_chunk: Optional[Callable[[int, List[T]], None]] = None,
    backoff_seed: Optional[int] = None,
) -> List[Optional[List[T]]]:
    """Run chunks as independent pool futures; never raises pool errors.

    Returns one slot per chunk — ``None`` where the pool never produced
    that chunk's result (the caller reruns exactly those serially).
    Transient per-chunk failures are resubmitted up to ``chunk_retries``
    times with exponential backoff.  Real errors raised inside
    ``run_one`` (anything outside ``POOL_FAILURES``) leave the chunk
    unfilled too, so the serial rerun re-raises them with a clean
    traceback.

    Stall handling goes through the ``watchdog``: a wait round that
    completes nothing escalates stall → reroute (stalled chunks are
    resubmitted to fresh workers; duplicates are harmless since chunk
    results are pure functions of their seeds) → abandon (unfinished
    chunks fall back to serial).  When no watchdog is given,
    ``chunk_timeout`` builds the legacy single-strike one (first stall
    abandons).  ``on_chunk`` fires in the parent exactly once per chunk,
    as soon as its result lands — the journaling hook.  ``shutdown``
    (anything with a ``requested`` attribute) is polled between wait
    rounds; once set, pending futures are cancelled and the caller
    decides what the partial result means.
    """
    results: List[Optional[List[T]]] = [None] * len(chunks)
    filled: set = set()

    def fill(index: int, part: List[T]) -> None:
        if index in filled:
            return  # duplicate completion after a reroute
        results[index] = part
        filled.add(index)
        if on_chunk is not None:
            on_chunk(index, part)

    if watchdog is None and chunk_timeout is not None:
        watchdog = EnsembleWatchdog(
            WatchdogPolicy(heartbeat_timeout=chunk_timeout, max_reroutes=0)
        )
    try:
        with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
            future_to_chunk: Dict[Any, int] = {}
            attempts = [0] * len(chunks)

            def submit(index: int) -> bool:
                try:
                    future = pool.submit(_run_chunk, (run_one, chunks[index]))
                except POOL_FAILURES:
                    return False  # pool shut down / broken: serial rerun
                future_to_chunk[future] = index
                return True

            for index in range(len(chunks)):
                if not submit(index):
                    break
            pool_alive = True
            if watchdog is not None:
                watchdog.start()
            while future_to_chunk:
                if shutdown is not None and getattr(shutdown, "requested", False):
                    # Safe-point stop: abandon in-flight work (it is
                    # recomputable from seeds); everything completed so
                    # far has already been delivered via on_chunk.
                    for future in future_to_chunk:
                        future.cancel()
                    break
                timeout = watchdog.wait_timeout() if watchdog is not None else None
                done, _pending = wait(
                    tuple(future_to_chunk),
                    timeout=timeout,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    if watchdog is None:
                        continue  # pragma: no cover - None timeout blocks
                    pending_indexes = sorted(
                        set(future_to_chunk.values()) - filled
                    )
                    action = watchdog.on_wait_elapsed(len(pending_indexes))
                    if action == REROUTE and pool_alive:
                        # Resubmit the stalled chunks to fresh workers.
                        # cancel() only stops not-yet-started futures;
                        # still-running duplicates are harmless (first
                        # completion wins in fill()).
                        for future in future_to_chunk:
                            future.cancel()
                        for index in pending_indexes:
                            if not submit(index):
                                pool_alive = False
                                break
                        if pool_alive:
                            continue
                        action = ABANDON
                    if action == ABANDON or not pool_alive:
                        for future in future_to_chunk:
                            future.cancel()
                        break
                    continue  # WAIT: limits not actually hit yet
                if watchdog is not None:
                    watchdog.beat()
                for future in done:
                    index = future_to_chunk.pop(future)
                    if index in filled:
                        continue  # reroute duplicate already delivered
                    try:
                        fill(index, future.result())
                    except CancelledError:
                        continue  # cancelled during reroute/shutdown
                    except _NON_RETRYABLE:
                        continue  # hopeless in a pool; serial rerun
                    except POOL_FAILURES:
                        attempts[index] += 1
                        if not pool_alive or attempts[index] > chunk_retries:
                            continue
                        if backoff_base > 0:
                            time.sleep(
                                backoff_delay(
                                    backoff_base,
                                    attempts[index],
                                    chunk_index=index,
                                    seed=backoff_seed,
                                )
                            )
                        if not submit(index):
                            pool_alive = False
                    except Exception:
                        # A real error from run_one: leave the chunk
                        # unfilled so the serial rerun re-raises it with
                        # a clean in-process traceback.
                        continue
    except POOL_FAILURES:
        # Pool construction/teardown failed (sandboxed fork, etc.):
        # every unfilled chunk falls back to the serial path.
        pass
    return results


class EnsembleRow(NamedTuple):
    """One row of a grid: a journal namespace, the worker that computes
    its cells and the seeds it wants, in the order results are wanted.

    ``run_one`` must be picklable (a module-level function or
    ``functools.partial`` of one) when the grid runs with ``jobs != 1``;
    its results must be picklable too.
    """

    namespace: str
    run_one: Callable[[int], Any]
    seeds: Sequence[int]


def _run_cell(cell: Tuple[Callable[[int], T], int]) -> T:
    """Run one ``(run_one, seed)`` cell (module-level: picklable).

    Pool chunks carry cells rather than bare seeds so that one chunk can
    mix rows; pickling memoizes a row's ``run_one`` once per chunk."""
    run_one, seed = cell
    return run_one(seed)


def run_rows(
    rows: Sequence[EnsembleRow],
    jobs: Optional[int] = 1,
    chunk_retries: int = 1,
    chunk_timeout: Optional[float] = None,
    backoff_base: float = 0.05,
    journal: Optional[Any] = None,
    encode: Optional[Callable[[Any], Any]] = None,
    decode: Optional[Callable[[Any], Any]] = None,
    watchdog: Optional[EnsembleWatchdog] = None,
    shutdown: Optional[Any] = None,
    metrics: Optional[Any] = None,
    progress: Optional[Callable[[int, Any], None]] = None,
    backoff_seed: Optional[int] = None,
) -> List[List[Any]]:
    """Run every ``(namespace, seed)`` cell of ``rows`` in one ensemble.

    All cells of all rows share one process pool and one chunk plan, so
    a grid of many small rows keeps every worker busy instead of
    waiting for each row's slowest cell (DESIGN.md §9).  Everything else
    works per cell: journal restore and record under the cell's row
    namespace, the deterministic ``ensemble.seed`` causal event (key
    ``"<namespace>|<seed>"``), ``progress`` and result order.  The
    keyword arguments are those of :func:`run_ensemble`, which is the
    one-row case of this function.

    Returns:
        One result list per row, each in that row's seed order —
        identical, element for element, to ``[[row.run_one(s) for s in
        row.seeds] for row in rows]`` regardless of ``jobs``, retries,
        fallbacks or how many prior interrupted runs the journal already
        covers.
    """
    from repro.obs.causal import get_causal_recorder
    from repro.obs.registry import live_registry

    rows = [EnsembleRow(r.namespace, r.run_one, list(r.seeds)) for r in rows]
    # A cell is its journal identity, (namespace, seed): rows sharing a
    # namespace share cells (the first such row's worker computes them),
    # and duplicate seeds map to one deterministic result.  Grid order
    # (row-major) is kept.
    workers: Dict[str, Callable[[int], Any]] = {}
    for row in rows:
        workers.setdefault(row.namespace, row.run_one)
    cells = list(dict.fromkeys((r.namespace, s) for r in rows for s in r.seeds))
    jobs = resolve_jobs(jobs)
    registry = live_registry(metrics)
    # Causal tracing (serve tier): per-seed records are deterministic
    # (pure functions of (namespace, seed) with content-derived ids, so
    # the logical stitch is byte-identical across --jobs values, journal
    # resumes and how rows are grouped into calls); chunk records are
    # harness weather, linked to the enclosing span by a flow arrow.
    causal = get_causal_recorder()
    causal_anchor = causal.current_span() if causal is not None else None

    def note_causal(namespace: str, seed: int) -> None:
        if causal is not None:
            causal.event(
                "ensemble.seed",
                key=f"{namespace}|{seed}",
                det=True,
                namespace=namespace,
                seed=seed,
            )
    m_completed = m_skipped = None
    if registry is not None:
        m_completed = registry.counter(
            "repro_ensemble_seeds_completed_total",
            "seeds freshly computed by this process",
            deterministic=False,
        )
        m_skipped = registry.counter(
            "repro_ensemble_seeds_journal_skipped_total",
            "seeds restored from the journal instead of rerun",
            deterministic=False,
        )
    done: Dict[Tuple[str, int], Any] = {}
    if journal is not None:
        wanted = set(cells)
        for namespace in workers:
            for seed, payload in journal.completed(namespace).items():
                if (namespace, seed) in wanted:
                    done[namespace, seed] = (
                        decode(payload) if decode is not None else payload
                    )
                    # Re-emit the restored seed's causal record: identical
                    # id and args as the attempt that computed it, so the
                    # logical stitch of a resumed job collapses to the
                    # uninterrupted run's bytes.
                    note_causal(namespace, seed)
                    if m_skipped is not None:
                        m_skipped.inc()

    def note(cell: Tuple[str, int], result: Any) -> None:
        if cell in done:
            return
        done[cell] = result
        namespace, seed = cell
        if journal is not None:
            journal.record(
                namespace, seed, encode(result) if encode is not None else result
            )
        note_causal(namespace, seed)
        if m_completed is not None:
            m_completed.inc()
        if progress is not None:
            progress(seed, result)

    def compute(cell: Tuple[str, int]) -> None:
        if shutdown is not None:
            shutdown.check()
        note(cell, workers[cell[0]](cell[1]))

    def results() -> List[List[Any]]:
        return [[done[row.namespace, seed] for seed in row.seeds] for row in rows]

    pending = [cell for cell in cells if cell not in done]
    if jobs == 1 or len(pending) <= 1:
        for namespace, group in itertools.groupby(pending, key=lambda c: c[0]):
            count = 0
            for cell in group:
                compute(cell)
                count += 1
            if causal is not None:
                causal.event(
                    "ensemble.chunk",
                    key=f"{namespace}|serial",
                    flow=causal_anchor,
                    namespace=namespace,
                    seeds=count,
                )
        return results()

    chunks = seed_chunks(pending, jobs)

    def on_chunk(index: int, part: List[Any]) -> None:
        for cell, result in zip(chunks[index], part):
            note(cell, result)
        if causal is not None:
            # A chunk may span rows; it is named by its first cell's row.
            namespace = chunks[index][0][0]
            causal.event(
                "ensemble.chunk",
                key=f"{namespace}|chunk-{index}",
                flow=causal_anchor,
                namespace=namespace,
                chunk=index,
                seeds=len(part),
            )

    parts = _run_chunks_pooled(
        _run_cell,
        [[(workers[ns], seed) for ns, seed in chunk] for chunk in chunks],
        jobs,
        chunk_retries,
        chunk_timeout,
        backoff_base,
        watchdog=watchdog,
        shutdown=shutdown,
        on_chunk=on_chunk,
        backoff_seed=backoff_seed,
    )
    if shutdown is not None:
        shutdown.check()
    # Partial-result rerun: only chunks the pool never delivered are
    # recomputed in-process.  Errors from run_one itself surface here,
    # deterministically and with a clean traceback.
    for index, part in enumerate(parts):
        if part is None:
            if registry is not None:
                registry.counter(
                    "repro_ensemble_chunks_serial_rerun_total",
                    "chunks the pool never delivered, rerun in-process",
                    deterministic=False,
                ).inc()
            for cell in chunks[index]:
                compute(cell)
    return results()


def run_ensemble(
    run_one: Callable[[int], T],
    seeds: Sequence[int],
    jobs: Optional[int] = 1,
    chunk_retries: int = 1,
    chunk_timeout: Optional[float] = None,
    backoff_base: float = 0.05,
    journal: Optional[Any] = None,
    namespace: str = "",
    encode: Optional[Callable[[T], Any]] = None,
    decode: Optional[Callable[[Any], T]] = None,
    watchdog: Optional[EnsembleWatchdog] = None,
    shutdown: Optional[Any] = None,
    metrics: Optional[Any] = None,
    progress: Optional[Callable[[int, T], None]] = None,
    backoff_seed: Optional[int] = None,
) -> List[T]:
    """Map ``run_one`` over ``seeds``, optionally across processes — the
    one-row case of :func:`run_rows`.

    Args:
        run_one: Maps one seed to one result.  Must be picklable (a
            module-level function or ``functools.partial`` of one) when
            ``jobs != 1``; results must be picklable too.
        seeds: The ensemble's seeds, in the order results are wanted.
        jobs: Worker processes (see :func:`resolve_jobs`).  ``1`` runs
            serially in-process.
        chunk_retries: In-pool resubmissions per chunk after a transient
            pool failure, before that chunk falls back to serial.
        chunk_timeout: Legacy stall budget: seconds the runner waits for
            *some* chunk to complete before abandoning the pool (used to
            build a single-strike watchdog when ``watchdog`` is not
            given); ``None`` waits forever.
        backoff_base: First retry's backoff sleep in seconds; doubles per
            subsequent retry of the same chunk (exponential backoff).
        journal: Optional :class:`~repro.durable.journal.RunJournal`.
            Seeds already recorded under ``namespace`` are *not* rerun —
            their stored payloads are decoded and returned — and every
            newly finished seed is durably journaled the moment its
            result reaches this process, making the call resumable after
            a SIGKILL with byte-identical output.
        namespace: Journal namespace isolating this ensemble from other
            grids sharing the journal (e.g. ``"0:prob-crash"``).
        encode: Result → JSON-safe payload for the journal (identity by
            default — results must then be JSON-serializable).
        decode: Inverse of ``encode`` (identity by default).  Must
            reproduce the result exactly: decoded and fresh results mix
            in one report, and the byte-identity guarantee spans both.
        watchdog: Optional :class:`~repro.durable.watchdog.
            EnsembleWatchdog` owning the stall → reroute → abandon
            escalation for pooled chunks; its ``findings`` are
            harness-level diagnostics (never part of deterministic
            reports).
        shutdown: Optional :class:`~repro.durable.signals.
            GracefulShutdown` (or anything with ``requested`` and
            ``check()``).  Polled at seed/chunk boundaries; once
            requested, the run stops at the next safe point by raising
            :class:`~repro.errors.InterruptedRunError` — with every
            completed seed already journaled.
        metrics: Optional :class:`repro.obs.registry.MetricsRegistry`.
            The pool is scheduling weather, so its counters
            (``repro_ensemble_*``) are flagged non-deterministic — they
            feed the live view and the Prometheus exposition, never
            byte-identity-checked snapshots.
        progress: Optional ``progress(seed, result)`` callback fired in
            this process exactly once per freshly computed seed, the
            moment its result lands (journal-skipped seeds do not fire).
            This is the live-view hook (``repro top``); it must not
            mutate results.
        backoff_seed: When given, chunk-retry backoff sleeps get seeded
            deterministic jitter via :func:`backoff_delay` (keyed on
            this seed, the chunk index and the attempt number) instead
            of the bare exponential.  Jitter shapes wall-clock only;
            results stay byte-identical for any value.

    Returns:
        Results in seed order — identical, element for element, to
        ``[run_one(s) for s in seeds]`` regardless of ``jobs``, retries,
        fallbacks or how many prior interrupted runs the journal
        already covers.
    """
    return run_rows(
        [EnsembleRow(namespace, run_one, seeds)],
        jobs=jobs,
        chunk_retries=chunk_retries,
        chunk_timeout=chunk_timeout,
        backoff_base=backoff_base,
        journal=journal,
        encode=encode,
        decode=decode,
        watchdog=watchdog,
        shutdown=shutdown,
        metrics=metrics,
        progress=progress,
        backoff_seed=backoff_seed,
    )[0]
