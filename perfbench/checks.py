"""Correctness checks for the CLI workloads, written from the paper and
the algorithms' declarations rather than from today's output.

Each check returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Dict, Iterable, List, Mapping

# ----------------------------------------------------------------------
# ensemble-e5: Corollary 6.7 and Lemmas 6.1, 6.2, 6.4
# ----------------------------------------------------------------------
#: The instance E5's quick preset runs: f(x) = (c/2)·|x|² in d = 2 with
#: N(0, σ²) oracle noise per coordinate, x₀ = 1.5·(1, 1), success region
#: |x - x*|² <= ε, step-size knob ϑ = 1 and the certified radius twice
#: |x₀ - x*|.  For this objective L = c and M² = (c·r)² + d·σ².
E5_INSTANCE = {
    "c": 1.0, "L": 1.0, "dim": 2, "sigma": 0.2, "x0": 1.5,
    "epsilon": 0.25, "vartheta": 1.0, "radius_slack": 2.0,
}

#: Lemma-certified Monte-Carlo runs per E5 invocation: 20 bound runs and
#: 5 runs at each of 3 delay bounds.
E5_CELLS = 35

_E5A_TITLE = re.compile(
    r"E5a: lock-free failure probability \(n=(\d+), delay bound=(\d+), "
    r"tau_max=(\d+), alpha=([0-9.eE+-]+), (\d+) runs\)"
)
_E5A_ROW = re.compile(
    r"^(\d+)\s*\|\s*([0-9.eE+-]+)\s*\|\s*([0-9.eE+-]+)\s*\|"
    r"\s*([0-9.eE+-]+)\s*\|\s*(yes|no)\s*$"
)


def _plog(x: float) -> float:
    """Lemma 6.6's piecewise logarithm."""
    return 1.0 + math.log(x) if x >= 1.0 else x


def corollary_6_7_bound(iterations: int, tau_max: float, n: int,
                        instance: Mapping[str, float] = E5_INSTANCE) -> float:
    """Eq. (13): P(F_T) <= (M² + 4√ε·L·M·√(τ_max·n)·√d) / (c²·ε·ϑ·T)
    · plog(e·|x₀ - x*|²/ε), truncated to 1."""
    c, lip, dim = instance["c"], instance["L"], instance["dim"]
    eps, vartheta = instance["epsilon"], instance["vartheta"]
    x0_distance = math.sqrt(dim) * instance["x0"]
    radius = instance["radius_slack"] * x0_distance
    m2 = (c * radius) ** 2 + dim * instance["sigma"] ** 2
    numerator = m2 + 4.0 * math.sqrt(eps) * lip * math.sqrt(m2) * math.sqrt(
        tau_max * n
    ) * math.sqrt(dim)
    bound = numerator / (c * c * eps * vartheta * iterations) * _plog(
        math.e * x0_distance ** 2 / eps
    )
    return min(1.0, bound)


def lemma_6_4_cap(tau_max: float, n: int) -> float:
    """Lemma 6.4: an iteration's indicator sum is at most 2√(τ_max·n)."""
    return 2.0 * math.sqrt(tau_max * n)


def wilson_low(successes: int, trials: int, z: float = 1.96) -> float:
    """Lower limit of the Wilson score interval."""
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials ** 2))
    return max(0.0, center - half / denom)


def _close(printed: float, exact: float) -> bool:
    # The report prints 4 significant digits.
    return abs(printed - exact) <= 5e-4 * max(1.0, abs(exact))


def check_e5(report_text: str, snapshot: Mapping[str, Any]) -> List[str]:
    """Check one ``repro run E5`` report and its metric snapshot line."""
    problems: List[str] = []
    title = _E5A_TITLE.search(report_text)
    if title is None:
        return ["E5a table missing from the report"]
    n, tau_max, runs = int(title.group(1)), int(title.group(3)), int(title.group(5))
    rows = [_E5A_ROW.match(line.strip()) for line in report_text.splitlines()]
    rows = [row for row in rows if row is not None]
    if not rows:
        problems.append("E5a table has no rows")
    for row in rows:
        horizon = int(row.group(1))
        measured, low, printed = (float(row.group(i)) for i in (2, 3, 4))
        bound = corollary_6_7_bound(horizon, tau_max, n)
        if not low < bound:
            problems.append(
                f"T={horizon}: Wilson lower limit {low} not below the "
                f"Corollary 6.7 bound {bound:.4g}"
            )
        if not _close(printed, bound):
            problems.append(
                f"T={horizon}: report's bound {printed} is not Eq. (13)'s "
                f"{bound:.4g}"
            )
        failures = round(measured * runs)
        if not _close(low, wilson_low(failures, runs)):
            problems.append(
                f"T={horizon}: Wilson lower limit {low} does not match "
                f"{failures}/{runs} failures"
            )
    if "verdict: PASS" not in report_text:
        problems.append("E5 verdict is not PASS")
    metrics = snapshot.get("metrics", {})
    if not snapshot.get("passed"):
        problems.append("E5 metric snapshot did not pass")
    if metrics.get("cells") != E5_CELLS:
        problems.append(f"{metrics.get('cells')} certified runs, not {E5_CELLS}")
    if metrics.get("lemma_6_1_violations") != 0:
        problems.append("Lemma 6.1 violations in the ensemble")
    if not metrics.get("window_bad_max", n) < n:
        problems.append(
            f"{metrics.get('window_bad_max')} bad iterations in a Kn window "
            f"(Lemma 6.2 allows fewer than n={n})"
        )
    snapshot_tau = metrics.get("tau_max", 0)
    cap = lemma_6_4_cap(snapshot_tau, n)
    if not metrics.get("indicator_sum_max", math.inf) <= cap:
        problems.append(
            f"indicator sum {metrics.get('indicator_sum_max')} above the "
            f"Lemma 6.4 cap 2*sqrt(tau_max*n) = {cap:.4f}"
        )
    if abs(metrics.get("indicator_sum_bound_max", -1.0) - cap) > 1e-9 * cap:
        problems.append("the report's Lemma 6.4 cap is not 2*sqrt(tau_max*n)")
    return problems


# ----------------------------------------------------------------------
# zoo-grid: iteration budgets, declared certificates, clean sanitizer
# ----------------------------------------------------------------------
LEMMAS = ("6.1", "6.2", "6.4")


def check_zoo(report: Mapping[str, Any], algorithms: Iterable[str],
              adversaries: Iterable[str], seeds: int, iterations: int,
              declared: Mapping[str, Iterable[str]]) -> List[str]:
    """Check a ``repro zoo`` JSON report against the grid it was asked
    for and each algorithm's declared ``Algorithm.lemmas``."""
    problems: List[str] = []
    cells = {(a, b) for a in algorithms for b in adversaries}

    def certificate_problems(where: str, algorithm: str, certs) -> None:
        got = dict(certs)
        for lemma in LEMMAS:
            want = "holds" if lemma in declared[algorithm] else "n/a"
            if got.get(lemma) != want:
                problems.append(
                    f"{where}: Lemma {lemma} reads {got.get(lemma)!r}, "
                    f"want {want!r}"
                )

    outcomes = report.get("outcomes", [])
    if len(outcomes) != len(cells) * seeds:
        problems.append(
            f"{len(outcomes)} runs, want {len(cells)} cells x {seeds} seeds"
        )
    for outcome in outcomes:
        algorithm = outcome["algorithm"]
        where = f"{algorithm}/{outcome['adversary']}/seed {outcome['seed']}"
        if (algorithm, outcome["adversary"]) not in cells:
            problems.append(f"{where}: not a requested cell")
            continue
        if outcome["iterations"] != iterations:
            problems.append(
                f"{where}: {outcome['iterations']} iterations, budget "
                f"{iterations}"
            )
        if outcome["sanitizer_findings"]:
            problems.append(f"{where}: sanitizer findings")
        certificate_problems(where, algorithm, outcome["certificates"])
    summaries = report.get("summaries", [])
    if {(s["algorithm"], s["adversary"]) for s in summaries} != cells:
        problems.append("summaries do not cover the requested grid")
    for summary in summaries:
        where = f"{summary['algorithm']}/{summary['adversary']}"
        if summary["sanitizer_findings"]:
            problems.append(f"{where}: sanitizer findings")
        certificate_problems(where, summary["algorithm"],
                             summary["certificates"])
    if not (report.get("passed") and report.get("certificates_ok")
            and report.get("sanitizer_clean")):
        problems.append("zoo report verdict is not a clean pass")
    return problems


def load_snapshot(path: str) -> Dict[str, Any]:
    """The single line of ``repro run E5 --metrics``."""
    with open(path, encoding="utf-8") as handle:
        return json.loads(handle.readline())
