"""Sanitize presets: named workloads the ``repro sanitize`` CLI runs
under the race/staleness sanitizer.

A preset is a small seeded workload grid — (scheduler kind × seed) —
whose every cell runs with a :class:`~repro.analysis.sanitizer.
RaceStalenessSanitizer` attached and its lemma certificates computed.
Cells go through one :func:`repro.experiments.ensemble.run_rows` call,
so ``--jobs`` parallelizes the whole grid over one process pool with
reports byte-identical to serial execution (the property the acceptance
tests pin).

Presets:

* ``racy`` — the deliberately broken workload: Algorithm 1 with
  ``use_write=True`` (read the entry, write back ``view + delta``).
  The sanitizer must flag lost updates here; the CLI exits non-zero.
* ``e1`` — the E1-shaped sequential baseline (one thread); trivially
  clean, certifies the lemma checkers on uncontended traces.
* ``e5`` — the E5-shaped adversarial workload: Algorithm 1 under the
  random, stale-attack and contention-maximizing schedulers; clean, with
  Lemma 6.2/6.4 certificates exercised under real adversaries.
* ``e7`` — the E7-shaped Algorithm 2 (FullSGD) run with epoch guards;
  clean, certifies the guarded-fetch&add path through the sanitizer.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.analysis.lemmas import certificate_findings, certify_run
from repro.analysis.report import (
    AnalysisReport,
    RunAnalysis,
    run_analysis_from_dict,
)
from repro.analysis.sanitizer import RaceStalenessSanitizer
from repro.core.epoch_sgd import EpochSGDProgram, collect_iteration_records
from repro.core.full_sgd import FullSGD
from repro.errors import ConfigurationError
from repro.experiments.ensemble import EnsembleRow, run_rows
from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.runtime.simulator import Simulator
from repro.sched.base import Scheduler
from repro.sched.registry import build_scheduler as _build_registered_scheduler
from repro.shm.array import AtomicArray
from repro.shm.counter import AtomicCounter
from repro.shm.memory import SharedMemory


@dataclass(frozen=True)
class SanitizePreset:
    """One named sanitize workload (a scheduler × seed grid)."""

    name: str
    program: str  # "sgd" | "racy" | "full"
    dim: int
    num_threads: int
    iterations: int
    step_size: float
    schedulers: Tuple[str, ...]
    noise_sigma: float = 0.2
    x0_scale: float = 2.0
    window_multiplier: int = 2


def sanitize_presets() -> Dict[str, SanitizePreset]:
    """The presets ``repro sanitize --presets name,name`` accepts."""
    return {
        "racy": SanitizePreset(
            name="racy",
            program="racy",
            dim=2,
            num_threads=4,
            iterations=60,
            step_size=0.05,
            schedulers=("random",),
        ),
        "e1": SanitizePreset(
            name="e1",
            program="sgd",
            dim=1,
            num_threads=1,
            iterations=120,
            step_size=0.1,
            schedulers=("random",),
            noise_sigma=1.0,
            x0_scale=3.0,
        ),
        "e5": SanitizePreset(
            name="e5",
            program="sgd",
            dim=2,
            num_threads=4,
            iterations=160,
            step_size=0.05,
            schedulers=("random", "stale-attack", "contention-max"),
        ),
        "e7": SanitizePreset(
            name="e7",
            program="full",
            dim=2,
            num_threads=4,
            iterations=80,  # per epoch
            step_size=0.05,
            schedulers=("random",),
        ),
    }


def build_scheduler(kind: str, seed: int) -> Scheduler:
    """Instantiate one of the sanitize grid's scheduler kinds.

    Thin delegate to the shared :mod:`repro.sched.registry` factory —
    kept as a name so existing callers (and journal fingerprints built
    before the registry existed) keep working unchanged.
    """
    return _build_registered_scheduler(kind, seed=seed)


def _analyze(sim, sanitizer, records, preset, label, steps):
    """Assemble one cell's :class:`RunAnalysis` from a finished run."""
    certificates = certify_run(
        records,
        num_threads=preset.num_threads,
        window_multiplier=preset.window_multiplier,
    )
    findings = list(sanitizer.findings)
    findings.extend(certificate_findings(certificates))
    return RunAnalysis(
        label=label,
        steps=steps,
        iterations=len(records),
        findings=findings,
        certificates=certificates,
    )


def _sanitize_worker(
    preset: SanitizePreset, scheduler_kind: str, seed: int
) -> RunAnalysis:
    """Run one (preset, scheduler, seed) cell (module-level: picklable)."""
    label = f"{preset.name}/{scheduler_kind}/seed={seed}"
    objective = IsotropicQuadratic(
        dim=preset.dim, noise=GaussianNoise(preset.noise_sigma)
    )
    sanitizer = RaceStalenessSanitizer()
    if preset.program == "full":
        driver = FullSGD(
            objective,
            num_threads=preset.num_threads,
            epsilon=0.25,
            alpha0=preset.step_size,
            iterations_per_epoch=preset.iterations,
            num_epochs=2,
            x0=np.full(preset.dim, preset.x0_scale),
        )
        result = driver.run(
            build_scheduler(scheduler_kind, seed),
            seed=seed,
            analyzers=(sanitizer,),
        )
        return _analyze(
            None, sanitizer, result.records, preset, label, result.sim_steps
        )

    memory = SharedMemory(record_log=True)
    model = AtomicArray.allocate(memory, preset.dim, name="model")
    model.load(np.full(preset.dim, preset.x0_scale))
    counter = AtomicCounter.allocate(memory, name="iteration_counter")
    sim = Simulator(memory, build_scheduler(scheduler_kind, seed), seed=seed)
    for index in range(preset.num_threads):
        sim.spawn(
            EpochSGDProgram(
                model=model,
                counter=counter,
                objective=objective,
                step_size=preset.step_size,
                max_iterations=preset.iterations,
                use_write=preset.program == "racy",
            ),
            name=f"worker-{index}",
        )
    sim.attach_analyzer(sanitizer)
    sim.run_analyzed()
    records = collect_iteration_records(sim)
    return _analyze(sim, sanitizer, records, preset, label, sim.now)


def sanitize_fingerprint(
    presets: Tuple[SanitizePreset, ...],
    seeds: Tuple[int, ...],
    strict: bool = False,
) -> str:
    """Stable fingerprint of everything that determines sanitize results
    (``jobs`` excluded: parallelism never changes results, so a journal
    resumes cleanly under a different ``--jobs``)."""
    from repro.durable.journal import config_fingerprint

    return config_fingerprint(
        {
            "presets": [asdict(p) for p in presets],
            "seeds": list(seeds),
            "strict": bool(strict),
        }
    )


def partial_sanitize_report(
    presets: Tuple[SanitizePreset, ...],
    seeds: Tuple[int, ...],
    journal: Any,
    strict: bool = False,
) -> AnalysisReport:
    """Report over only the cells the journal has — what the CLI flushes
    when a sanitize run is interrupted.  Grid-ordered."""
    report = AnalysisReport(strict=strict)
    for preset in presets:
        for scheduler_kind in preset.schedulers:
            done = journal.completed(f"{preset.name}/{scheduler_kind}")
            for seed in seeds:
                if seed in done:
                    report.runs.append(run_analysis_from_dict(done[seed]))
    return report


def run_sanitize(
    presets: Tuple[SanitizePreset, ...],
    seeds: Tuple[int, ...],
    jobs: int = 1,
    strict: bool = False,
    journal: Optional[Any] = None,
    shutdown: Optional[Any] = None,
    metrics: Optional[Any] = None,
    progress: Optional[Any] = None,
) -> AnalysisReport:
    """Run the full preset grid and aggregate one deterministic report.

    Grid order is (preset, scheduler, seed) with seeds innermost, so
    each (preset, scheduler) row is an ensemble ``--jobs`` can farm out;
    results are byte-identical for any ``jobs`` value.

    With a ``journal`` (opened against :func:`sanitize_fingerprint`) the
    grid is durable and resumable: finished cells are recorded as they
    land and skipped on resume, with the final report byte-identical to
    an uninterrupted run.  ``shutdown`` stops at the next cell boundary
    via :class:`~repro.errors.InterruptedRunError`.

    ``metrics``/``progress`` feed the observability layer:
    ``progress(seed, run_analysis)`` fires per freshly analyzed cell
    (the ``repro top`` hook) and ``metrics`` receives the ensemble
    counters plus per-cell finding tallies; neither changes the report.
    """
    if not presets:
        raise ConfigurationError("sanitize needs at least one preset")
    if not seeds:
        raise ConfigurationError("sanitize needs at least one seed")
    from repro.obs.registry import live_registry
    from repro.obs.spans import trace_span

    registry = live_registry(metrics)

    def note_cell(seed: int, run: RunAnalysis) -> None:
        if registry is not None:
            registry.counter(
                "repro_sanitize_cells_total", "sanitize cells analyzed"
            ).inc()
            registry.counter(
                "repro_sanitize_findings_total", "sanitizer findings raised"
            ).inc(len(run.findings))
        if progress is not None:
            progress(seed, run)

    rows = [
        EnsembleRow(
            f"{preset.name}/{scheduler_kind}",
            functools.partial(_sanitize_worker, preset, scheduler_kind),
            seeds,
        )
        for preset in presets
        for scheduler_kind in preset.schedulers
    ]
    with trace_span("sanitize.grid", rows=len(rows), seeds=len(seeds)):
        parts = run_rows(
            rows,
            jobs=jobs,
            journal=journal,
            encode=lambda run: run.as_dict(),
            decode=run_analysis_from_dict,
            shutdown=shutdown,
            metrics=metrics,
            progress=note_cell,
        )
    report = AnalysisReport(strict=strict)
    report.runs.extend(run for part in parts for run in part)
    return report
