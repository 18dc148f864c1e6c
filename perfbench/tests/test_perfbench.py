"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

They run each workload for one round (a few seconds each), run every
workload traced twice to pin the exact counts, and feed each
correctness check a tampered output that it must reject.
"""

from __future__ import annotations

import copy
import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import servemix  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Counts that depend only on the seed.  (HTTP requests, bytes and spill
#: sizes also depend on how many long-polls a job needed.)
EXACT = (
    "cli.modules", "ensemble.calls", "ensemble.pools", "ensemble.chunks",
    "ensemble.retries", "durable.journal_records", "durable.journal_bytes",
    "runtime.runs", "runtime.steps", "sched.selects", "core.iterations",
    "core.gradients", "analysis.ops", "heal.checks", "faults.injections",
    "verify.nodes", "verify.schedules", "serve.attempts", "cache.hits",
    "cache.misses", "cache.bytes",
)


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Tiny passes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_reports_every_end_to_end_metric(workload):
    result = bench(workload, seed=11, trace=0)
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_traced_runs_give_identical_counts(workload):
    first = bench(workload, seed=12, trace=1)
    second = bench(workload, seed=12, trace=1)
    for result in (first, second):
        assert result["correct"], result
        assert sorted(result["metrics"]) == sorted(
            m["name"] for m in SPEC["per_layer"]
        )
    assert first["attempted"] == second["attempted"]
    for name in EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["runtime.steps"]["value"] > 0


def test_no_result_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zoo-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ----------------------------------------------------------------------
# ensemble-e5 check
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def e5_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("e5")
    subprocess.run(
        [sys.executable, "-m", "repro", "run", "E5", "--jobs", "2",
         "--no-plot", "--out", str(out), "--metrics", str(out / "m.jsonl")],
        cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src")}, check=True,
        stdout=subprocess.DEVNULL, timeout=300,
    )
    return (out / "E5.txt").read_text(), checks.load_snapshot(
        str(out / "m.jsonl"))


def test_e5_check_accepts_the_real_report(e5_output):
    text, snapshot = e5_output
    assert checks.check_e5(text, snapshot) == []


def test_corollary_6_7_bound_matches_eq_13_by_hand():
    # M² = (2·1.5·√2)² + 2·0.2² = 18.08, plog(e·4.5/0.25) = 2 + ln 18.
    m2 = 18.08
    numerator = m2 + 4 * 0.5 * math.sqrt(m2) * math.sqrt(16 * 4) * math.sqrt(2)
    by_hand = numerator / (0.25 * 3000) * (2 + math.log(18))
    assert checks.corollary_6_7_bound(3000, 16, 4) == pytest.approx(by_hand)
    assert checks.lemma_6_4_cap(16, 4) == 16.0


@pytest.mark.parametrize("field, value", [
    ("indicator_sum_max", 1e6),
    ("lemma_6_1_violations", 1),
    ("window_bad_max", 4),
    ("indicator_sum_bound_max", 1.0),
])
def test_e5_check_rejects_tampered_snapshot(e5_output, field, value):
    text, snapshot = e5_output
    tampered = copy.deepcopy(snapshot)
    tampered["metrics"][field] = value
    assert checks.check_e5(text, tampered)


def test_e5_check_rejects_wilson_limit_above_the_bound(e5_output):
    text, snapshot = e5_output
    lines = text.splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("3000 "))
    cells = lines[row].split("|")
    cells[2] = " 0.99 "
    lines[row] = "|".join(cells)
    problems = checks.check_e5("\n".join(lines), snapshot)
    assert any("not below" in p for p in problems)


# ----------------------------------------------------------------------
# zoo-grid check
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def zoo_output(tmp_path_factory):
    out = tmp_path_factory.mktemp("zoo")
    subprocess.run(
        [sys.executable, "-m", "repro", "zoo", "--algorithms",
         "epoch-sgd,locked", "--adversaries", "round-robin,random",
         "--seeds", "1", "--iterations", "50", "--out", str(out)],
        cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src")}, check=True,
        stdout=subprocess.DEVNULL, timeout=300,
    )
    return json.loads((out / "zoo_report.json").read_text())


def _zoo_problems(report):
    from repro.core.algorithm import get_algorithm

    algorithms = ("epoch-sgd", "locked")
    declared = {name: get_algorithm(name).lemmas for name in algorithms}
    return checks.check_zoo(report, algorithms, ("round-robin", "random"),
                            1, 50, declared)


def test_zoo_check_accepts_the_real_report(zoo_output):
    assert _zoo_problems(zoo_output) == []


def _outcome(report, algorithm):
    return next(o for o in report["outcomes"] if o["algorithm"] == algorithm)


@pytest.mark.parametrize("tamper", [
    lambda r: _outcome(r, "epoch-sgd").update(iterations=49),
    lambda r: _outcome(r, "epoch-sgd").update(
        certificates=[["6.1", "holds"], ["6.2", "n/a"], ["6.4", "holds"]]),
    lambda r: _outcome(r, "locked").update(
        certificates=[["6.1", "holds"], ["6.2", "holds"], ["6.4", "n/a"]]),
    lambda r: _outcome(r, "locked").update(sanitizer_findings=["RS001"]),
    lambda r: r["summaries"][0].update(sanitizer_findings=1),
    lambda r: r["outcomes"].pop(),
])
def test_zoo_check_rejects_tampered_report(zoo_output, tamper):
    report = copy.deepcopy(zoo_output)
    tamper(report)
    assert _zoo_problems(report)


# ----------------------------------------------------------------------
# serve-mixed check
# ----------------------------------------------------------------------
def _record(key, kind, result, hit):
    return {
        "kind": kind, "key": key, "expect_hit": hit,
        "status": 200 if hit else 202, "state": "done", "cached": hit,
        "attempts": 0 if hit else 1, "result": result,
        "digest": servemix.sha256(servemix.canonical(result)),
    }


def _round(refs_digest=None):
    report = {"cells": [1, 2], "passed": True}
    result = {"kind": "zoo", "passed": True, "report": report, "text": "x"}
    key = servemix.spec_key("zoo", {"base_seed": 7000})
    refs = {"zoo": {key: refs_digest or servemix.sha256(
        servemix.canonical(report))}}
    records = [_record(key, "zoo", result, False),
               _record(key, "zoo", copy.deepcopy(result), True)]
    return records, refs


def test_serve_check_accepts_a_clean_round():
    records, refs = _round()
    assert servemix.check_round(records, refs) == (0, [])


def test_serve_check_rejects_a_hit_whose_bytes_differ():
    records, refs = _round()
    hit = records[1]
    hit["result"]["text"] = "y"
    hit["digest"] = servemix.sha256(servemix.canonical(hit["result"]))
    assert servemix.check_round(records, refs)[1]


def test_serve_check_rejects_bytes_that_miss_their_digest():
    records, refs = _round()
    records[0]["result"]["passed"] = True
    records[0]["result"]["text"] = "changed after hashing"
    assert servemix.check_round(records, refs)[1]


def test_serve_check_rejects_a_report_unlike_the_cli():
    records, refs = _round(refs_digest="0" * 64)
    assert servemix.check_round(records, refs)[1]


def test_serve_check_rejects_a_repeat_that_recomputed():
    records, refs = _round()
    records[1].update(status=202, cached=False, attempts=1)
    assert servemix.check_round(records, refs)[1]


def test_serve_failures_are_counted_not_checked():
    records, refs = _round()
    records[1].update(status=500, state=None)
    assert servemix.check_round(records, refs) == (1, [])


def test_stream_is_seeded_and_half_repeats():
    assert servemix.make_stream(5) == servemix.make_stream(5)
    assert servemix.make_stream(5) != servemix.make_stream(6)
    for items in servemix.make_stream(5):
        kinds = [kind for kind, _, hit in items if not hit]
        assert sorted(kinds) == sorted(servemix.KINDS)
        assert sum(hit for _, _, hit in items) == len(items) // 2
        for index, (kind, params, hit) in enumerate(items):
            if hit:
                assert (kind, params, False) in items[:index]


def test_refs_cover_every_pooled_zoo_and_chaos_spec():
    refs = json.loads((BENCH / "refs.json").read_text())
    for kind in ("zoo", "chaos"):
        assert sorted(refs[kind]) == sorted(
            servemix.spec_key(kind, p) for p in servemix.POOLS[kind])
