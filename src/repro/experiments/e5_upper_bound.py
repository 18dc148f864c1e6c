"""E5 — Theorem 6.5 / Corollary 6.7: the √(τ_max·n) upper bound.

Two claims measured:

1. **The bound holds.**  Running Algorithm 1 with the Eq. (12) step size
   under a delay-bounded adversarial scheduler, the measured failure
   probability P(F_T) stays below the Corollary 6.7 bound for every
   horizon T — including horizons where the bound is non-vacuous (< 1).

2. **The slowdown scales like √(τ_max·n), not τ_max.**  The price of
   asynchrony predicted by the theory is the step-size deflation factor
   (M² + 4√ε·L·M·√(τ_max·n)·√d)/M²; we measure mean hitting time under
   increasing delay bounds and compare its growth against both the
   √-curve and a hypothetical linear-in-τ_max curve (the prior-art
   scaling) — the measured points should track the former.

The adversarial dial is :class:`~repro.sched.bounded_delay.
BoundedDelayScheduler` starving a victim thread as hard as its bound
allows; realized τ_max is *measured* from each trace (the bound inputs
use the worst measured τ_max, so the comparison is honest).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.epoch_sgd import run_lock_free_sgd
from repro.core.sequential import run_sequential_sgd
from repro.experiments.ensemble import run_ensemble
from repro.experiments.runner import ExperimentResult
from repro.metrics.report import Table
from repro.metrics.stats import wilson_interval
from repro.objectives.noise import GaussianNoise
from repro.objectives.quadratic import IsotropicQuadratic
from repro.obs.paper import merge_paper_metrics, paper_metrics
from repro.sched.bounded_delay import BoundedDelayScheduler
from repro.theory.bounds import (
    corollary_6_7_failure_bound,
    corollary_6_7_step_size,
    slowdown_versus_sequential,
    theorem_3_1_step_size,
)
from repro.theory.contention import tau_max as measure_tau_max


@dataclass
class E5Config:
    """Parameters of the E5 measurement."""

    dim: int = 2
    noise_sigma: float = 0.2
    x0_scale: float = 1.5
    epsilon: float = 0.25
    num_threads: int = 4
    delay_bound: int = 16
    horizons: List[int] = field(default_factory=lambda: [400, 1200, 3000])
    num_runs: int = 25
    slowdown_delay_bounds: List[int] = field(default_factory=lambda: [2, 16, 160])
    slowdown_runs: int = 6
    slowdown_iterations: int = 15000
    pilot_runs: int = 3
    radius_slack: float = 2.0
    vartheta: float = 1.0
    base_seed: int = 500
    jobs: int = 1

    @classmethod
    def quick(cls) -> "E5Config":
        return cls(
            horizons=[400, 1200, 3000],
            num_runs=20,
            slowdown_delay_bounds=[2, 32, 160],
            slowdown_runs=5,
            slowdown_iterations=12000,
        )

    @classmethod
    def full(cls) -> "E5Config":
        return cls(
            horizons=[400, 1200, 3000, 8000],
            num_runs=80,
            slowdown_delay_bounds=[2, 8, 32, 160, 512],
            slowdown_runs=15,
            slowdown_iterations=40000,
        )


def _scheduler(config: E5Config, delay_bound: int, seed: int) -> BoundedDelayScheduler:
    return BoundedDelayScheduler(
        delay_bound, seed=seed, victims=[0], bias=0.9
    )


def _objective(config: E5Config) -> IsotropicQuadratic:
    return IsotropicQuadratic(
        dim=config.dim, noise=GaussianNoise(config.noise_sigma)
    )


def _lockfree_worker(
    config: E5Config,
    delay_bound: int,
    alpha: float,
    iterations: int,
    stop_epsilon: Optional[float],
    seed: int,
) -> Tuple[float, int, bool, Dict[str, object]]:
    """One seeded lock-free run → (hitting time or inf, realized τ_max,
    lemma certificates held, paper-metric obs snapshot)."""
    objective = _objective(config)
    x0 = np.full(config.dim, config.x0_scale)
    result = run_lock_free_sgd(
        objective,
        _scheduler(config, delay_bound, seed),
        num_threads=config.num_threads,
        step_size=alpha,
        iterations=iterations,
        x0=x0,
        seed=seed,
        epsilon=config.epsilon,
        stop_epsilon=stop_epsilon,
    )
    hit = math.inf if result.hit_time is None else float(result.hit_time)
    # Every trace feeding the bound ships with its structural-lemma
    # certificates (6.1/6.2/6.4) — the theory's assumptions, checked.
    # paper_metrics reads them off the same certify_* calls, so the
    # obs snapshot and the pass/fail verdict cannot disagree.
    obs = paper_metrics(result.records, num_threads=config.num_threads)
    certs_ok = (
        int(obs["lemma_6_1_violations"]) == 0
        and bool(obs["lemma_6_2_holds"])
        and bool(obs["lemma_6_4_holds"])
    )
    return hit, measure_tau_max(result.records), certs_ok, obs


def _sequential_worker(config: E5Config, alpha: float, seed: int) -> float:
    """One seeded sequential baseline run → hitting time or inf."""
    objective = _objective(config)
    x0 = np.full(config.dim, config.x0_scale)
    result = run_sequential_sgd(
        objective,
        alpha=alpha,
        iterations=config.slowdown_iterations,
        x0=x0,
        seed=seed,
        epsilon=config.epsilon,
        stop_on_hit=True,
    )
    return math.inf if result.hit_time is None else float(result.hit_time)


def _pilot_tau_max(
    config: E5Config, objective, x0, delay_bound: int, alpha: float
) -> int:
    """Measure the realized τ_max the scheduler produces (worst of a few
    pilot runs) so the step size and bound use an honest input."""
    worst = 1
    for offset in range(config.pilot_runs):
        seed = config.base_seed + 9000 + offset
        result = run_lock_free_sgd(
            objective,
            _scheduler(config, delay_bound, seed),
            num_threads=config.num_threads,
            step_size=alpha,
            iterations=300,
            x0=x0,
            seed=seed,
        )
        worst = max(worst, measure_tau_max(result.records))
    return worst


def run(config: E5Config) -> ExperimentResult:
    """Execute E5 (bound check + slowdown-shape check)."""
    objective = IsotropicQuadratic(
        dim=config.dim, noise=GaussianNoise(config.noise_sigma)
    )
    x0 = np.full(config.dim, config.x0_scale)
    x0_distance = objective.distance_to_opt(x0)
    radius = config.radius_slack * x0_distance
    second_moment = objective.second_moment_bound(radius)
    lipschitz = objective.lipschitz_expected
    c = objective.strong_convexity

    # ------------------------------------------------------------------
    # Part 1: measured P(F_T) vs the Corollary 6.7 bound.
    # ------------------------------------------------------------------
    pilot_alpha = theorem_3_1_step_size(c, second_moment, config.epsilon)
    assumed_tau_max = _pilot_tau_max(
        config, objective, x0, config.delay_bound, pilot_alpha
    )
    alpha = corollary_6_7_step_size(
        c,
        second_moment,
        lipschitz,
        assumed_tau_max,
        config.num_threads,
        config.dim,
        config.epsilon,
        config.vartheta,
    )

    max_horizon = max(config.horizons)
    bound_runs = run_ensemble(
        functools.partial(
            _lockfree_worker, config, config.delay_bound, alpha, max_horizon, None
        ),
        range(config.base_seed, config.base_seed + config.num_runs),
        jobs=config.jobs,
    )
    hits = np.array([hit for hit, _tau, _ok, _obs in bound_runs])
    realized_tau_max = max(
        (tau for _hit, tau, _ok, _obs in bound_runs), default=assumed_tau_max
    )
    realized_tau_max = max(realized_tau_max, assumed_tau_max)
    certified_runs = sum(1 for _hit, _tau, ok, _obs in bound_runs if ok)
    certificates_ok = certified_runs == len(bound_runs)
    obs_cells: List[Dict[str, object]] = [
        {"part": "bound", "delay_bound": config.delay_bound, "metrics": obs}
        for _hit, _tau, _ok, obs in bound_runs
    ]

    bound_table = Table(
        ["T", "measured P(F_T)", "wilson low", "Cor 6.7 bound", "ok"],
        title=(
            f"E5a: lock-free failure probability (n={config.num_threads}, "
            f"delay bound={config.delay_bound}, tau_max={realized_tau_max}, "
            f"alpha={alpha:.5g}, {config.num_runs} runs)"
        ),
    )
    passed = True
    xs: List[float] = []
    measured_series: List[float] = []
    bound_series: List[float] = []
    for horizon in config.horizons:
        failures = int(np.count_nonzero(hits > horizon))
        probability = failures / config.num_runs
        low, _high = wilson_interval(failures, config.num_runs)
        bound = corollary_6_7_failure_bound(
            iterations=horizon,
            epsilon=config.epsilon,
            strong_convexity=c,
            second_moment=second_moment,
            lipschitz=lipschitz,
            tau_max=realized_tau_max,
            num_threads=config.num_threads,
            dim=config.dim,
            x0_distance=x0_distance,
            vartheta=config.vartheta,
        )
        ok = low <= bound
        passed = passed and ok
        xs.append(float(horizon))
        measured_series.append(probability)
        bound_series.append(bound)
        bound_table.add_row([horizon, probability, low, bound, ok])

    # ------------------------------------------------------------------
    # Part 2: hitting-time slowdown vs the sqrt(tau_max*n) prediction.
    # ------------------------------------------------------------------
    seq_alpha = theorem_3_1_step_size(c, second_moment, config.epsilon)
    seq_hits: List[float] = [
        hit
        for hit in run_ensemble(
            functools.partial(_sequential_worker, config, seq_alpha),
            range(
                config.base_seed + 7000,
                config.base_seed + 7000 + config.slowdown_runs,
            ),
            jobs=config.jobs,
        )
        if math.isfinite(hit)
    ]
    seq_mean = float(np.mean(seq_hits)) if seq_hits else float("nan")

    slowdown_table = Table(
        [
            "delay bound",
            "tau_max",
            "alpha (Eq.12)",
            "mean hit",
            "measured slowdown",
            "predicted sqrt",
            "linear-in-tau (prior art)",
        ],
        title=f"E5b: slowdown vs sequential (seq mean hit = {seq_mean:.0f})",
    )
    sweep_tau: List[float] = []
    measured_slowdown: List[float] = []
    predicted_sqrt: List[float] = []
    predicted_linear: List[float] = []
    # (delay bound, tau_max, measured, sqrt, linear, runs that hit) per
    # row, finite or not: acceptance (b) reads the largest delay bound's.
    sweep_rows: List[Tuple[int, int, float, float, float, int]] = []
    for delay_bound in config.slowdown_delay_bounds:
        tau_pilot = _pilot_tau_max(config, objective, x0, delay_bound, pilot_alpha)
        alpha_d = corollary_6_7_step_size(
            c,
            second_moment,
            lipschitz,
            tau_pilot,
            config.num_threads,
            config.dim,
            config.epsilon,
        )
        first_seed = config.base_seed + 8000 + 37 * delay_bound
        slowdown_results = run_ensemble(
            functools.partial(
                _lockfree_worker,
                config,
                delay_bound,
                alpha_d,
                config.slowdown_iterations,
                config.epsilon,
            ),
            range(first_seed, first_seed + config.slowdown_runs),
            jobs=config.jobs,
        )
        run_hits = [
            hit
            for hit, _tau, _ok, _obs in slowdown_results
            if math.isfinite(hit)
        ]
        certificates_ok = certificates_ok and all(
            ok for _hit, _tau, ok, _obs in slowdown_results
        )
        tau_realized = max(
            (tau for _hit, tau, _ok, _obs in slowdown_results),
            default=tau_pilot,
        )
        obs_cells.extend(
            {"part": "slowdown", "delay_bound": delay_bound, "metrics": obs}
            for _hit, _tau, _ok, obs in slowdown_results
        )
        tau_realized = max(tau_realized, tau_pilot)
        mean_hit = float(np.mean(run_hits)) if run_hits else float("nan")
        slowdown = mean_hit / seq_mean if seq_hits and run_hits else float("nan")
        sqrt_prediction = slowdown_versus_sequential(
            config.epsilon,
            second_moment,
            lipschitz,
            tau_realized,
            config.num_threads,
            config.dim,
        )
        gradient_bound = math.sqrt(second_moment)
        linear_prediction = (
            second_moment
            + 2.0
            * lipschitz
            * gradient_bound
            * tau_realized
            * math.sqrt(config.epsilon)
        ) / second_moment
        slowdown_table.add_row(
            [
                delay_bound,
                tau_realized,
                alpha_d,
                mean_hit,
                slowdown,
                sqrt_prediction,
                linear_prediction,
            ]
        )
        sweep_rows.append(
            (
                delay_bound,
                tau_realized,
                slowdown,
                sqrt_prediction,
                linear_prediction,
                len(run_hits),
            )
        )
        if math.isfinite(slowdown):
            sweep_tau.append(float(tau_realized))
            measured_slowdown.append(slowdown)
            predicted_sqrt.append(sqrt_prediction)
            predicted_linear.append(linear_prediction)

    # Shape acceptance: measured slowdown closer to the sqrt curve than
    # to the linear curve at the largest delay bound (where they
    # separate).  That row is judged even when no run hit: falling back
    # to a smaller bound would compare where the curves are close.
    shape_note = "(b) not evaluated: fewer than two delay bounds"
    if len(sweep_rows) >= 2:
        bound_d, tau_d, slowdown, sqrt_d, linear_d, hit_runs = max(sweep_rows)
        if math.isfinite(slowdown):
            shape_ok = abs(slowdown - sqrt_d) <= abs(slowdown - linear_d)
            shape_note = (
                f"(b) evaluated at the largest delay bound {bound_d} "
                f"(tau_max={tau_d}): measured slowdown {slowdown:.4g}, "
                f"sqrt prediction {sqrt_d:.4g}, linear {linear_d:.4g} -> "
                + ("ok" if shape_ok else "FAILED")
            )
        else:
            shape_ok = False
            shape_note = (
                f"(b) FAILED: no finite slowdown at the largest delay bound "
                f"{bound_d} (tau_max={tau_d}; {hit_runs} of "
                f"{config.slowdown_runs} runs hit within "
                f"{config.slowdown_iterations} iterations"
                + ("" if seq_hits else ", no sequential run hit")
                + ")"
            )
        passed = passed and shape_ok

    combined = Table(["section"], title="")
    combined.add_row(["(see E5a / E5b tables in notes)"])
    passed = passed and certificates_ok
    notes = (
        bound_table.render()
        + "\n\n"
        + slowdown_table.render()
        + "\n\nlemma certificates (6.1 total order, 6.2 window contention, "
        "6.4 indicator sums): "
        + ("held on every trace" if certificates_ok else "VIOLATED on some trace")
        + "\n\n"
        + shape_note
        + "\n\nacceptance: (a) Wilson lower limit of measured P(F_T) below "
        "the Cor 6.7 bound at every horizon; (b) at the largest delay "
        "bound the measured slowdown is closer to the sqrt(tau_max*n) "
        "prediction than to the linear-in-tau prior-art curve (no finite "
        "slowdown there fails); (c) structural-lemma certificates hold on "
        "every measured trace"
    )
    return ExperimentResult(
        experiment_id="E5",
        title="Thm 6.5 / Cor 6.7 — lock-free SGD converges; price of "
        "asynchrony is sqrt(tau_max*n)",
        table=combined,
        xs=sweep_tau if len(sweep_tau) >= 2 else xs,
        series=(
            {
                "measured slowdown": measured_slowdown,
                "sqrt prediction": predicted_sqrt,
                "linear prior art": predicted_linear,
            }
            if len(sweep_tau) >= 2
            else {"measured P(F_T)": measured_series, "Cor 6.7 bound": bound_series}
        ),
        passed=passed,
        notes=notes,
        obs={
            "traces": obs_cells,
            "aggregate": merge_paper_metrics(
                [cell["metrics"] for cell in obs_cells]
            ),
        },
    )
