"""The repo benchmark: ensemble-e5, zoo-grid and serve-mixed, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  A run repeats whole rounds of its
workload until ``--seconds`` have passed, checks every output, and
prints one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional

import checks
import probes
import servemix

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAUNCH = str(HERE / "launch.py")

#: Parse-only launches per run for ``setup_s`` (after one warm-up).
SETUP_LAUNCHES = 7
#: A CLI invocation running longer than this counts as failed (a whole
#: run must end within 180 s).
STEP_TIMEOUT_S = 150

#: Metric names and units, declared once in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {
    trace: {m["name"]: m["unit"] for m in SPEC[key]}
    for trace, key in ((False, "end_to_end"), (True, "per_layer"))
}


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def _launch(probe_dir: Optional[pathlib.Path], trace: bool,
            argv: List[str]) -> List[str]:
    cmd = [sys.executable, LAUNCH]
    if probe_dir is None:
        cmd.append("--parse-only")
    else:
        probe_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--probe-dir", str(probe_dir)]
        if trace:
            cmd.append("--trace")
    return cmd + ["--"] + argv


def measure_setup(argv: List[str]) -> float:
    """Median seconds from starting a fresh interpreter to having
    imported ``repro.cli`` and parsed ``argv``."""
    times = []
    for index in range(SETUP_LAUNCHES + 1):
        t0 = time.monotonic()
        subprocess.run(_launch(None, False, argv), env=_env(), check=True,
                       stdout=subprocess.DEVNULL, timeout=STEP_TIMEOUT_S)
        if index:  # the first launch warms the file cache and bytecode
            times.append(time.monotonic() - t0)
    return statistics.median(times)


def _median(values: List[float]) -> float:
    """Median, or 0 when every operation that would give a value failed."""
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Largest resident set of any finished child process (Linux
    reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Outcome:
    """What the rounds of one run produced."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.setup: List[float] = []
        self.latencies: List[float] = []
        self.steps = 0
        self.busy_s = 0.0
        self.digests: List[str] = []
        self.probe_data: List[Dict[str, Any]] = []
        self.untraced_report_s = 0.0


def round_input(seed: int, index: int) -> int:
    """The input seed of round ``index``: every round of a run draws
    fresh inputs, so a run's medians cover a spread of inputs rather
    than one draw.  Traced runs repeat round 0 so that their counts are
    exact per round."""
    return seed * 1000 + index


def run_rounds(play: Callable[[int, pathlib.Path, bool, Outcome], None],
               seed: int, seconds: float, trace: bool,
               workdir: pathlib.Path) -> Outcome:
    """Play whole rounds until ``seconds`` have passed (at least one).

    A traced run also plays round 0 once untraced and requires the same
    bytes from every traced round and from that untraced one.
    """
    outcome = Outcome()
    start = time.monotonic()
    index = 0
    while not index or time.monotonic() - start < seconds:
        rdir = workdir / f"round-{index}"
        rdir.mkdir(parents=True)
        play(round_input(seed, 0 if trace else index), rdir, trace, outcome)
        shutil.rmtree(rdir, ignore_errors=True)
        index += 1
    if trace:
        reference = Outcome()
        rdir = workdir / "reference"
        rdir.mkdir(parents=True)
        play(round_input(seed, 0), rdir, False, reference)
        outcome.untraced_report_s = _median(reference.latencies)
        outcome.problems += reference.problems
        if len(set(outcome.digests + reference.digests)) > 1:
            outcome.problems.append("traced output differs from untraced")
    return outcome


# ----------------------------------------------------------------------
# CLI workloads
# ----------------------------------------------------------------------
class CliWorkload:
    """One ``repro`` invocation per round plus its cells."""

    cells = 0

    def argv(self, inputs: int, out: pathlib.Path) -> List[str]:
        raise NotImplementedError

    def check(self, out: pathlib.Path, steps: int) -> tuple:
        """(problems, digest of the report bytes); ``steps`` is the
        invocation's step tally."""
        raise NotImplementedError

    def play(self, inputs: int, rdir: pathlib.Path, trace: bool,
             outcome: Outcome) -> None:
        """Run one invocation and check what it wrote."""
        out, probe_dir = rdir / "out", rdir / "probe"
        out.mkdir(parents=True)
        cmd = _launch(probe_dir, trace, self.argv(inputs, out))
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=_env(), stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE,
                                  timeout=STEP_TIMEOUT_S)
            code, stderr = proc.returncode, proc.stderr.decode()[-300:]
        except subprocess.TimeoutExpired:
            code, stderr = "timeout", ""
        wall = time.monotonic() - t0
        data = probes.read(str(probe_dir))
        counts = data["counts"]
        steps = int(counts.get("runtime.steps", 0))
        outcome.attempted += 1 + self.cells
        pool_trouble = counts.get("ensemble.serial_reruns", 0) or (
            counts.get("ensemble.chunks", 0) > counts.get("ensemble.planned", 0)
        )
        if code != 0 or pool_trouble:
            outcome.failed += 1 + self.cells
            reason = (f"exit {code}: {stderr}" if code
                      else "pool retry or serial fallback")
            print(f"failed: {reason}", file=sys.stderr)
        else:
            try:
                problems, digest = self.check(out, steps)
            except (OSError, ValueError, KeyError) as error:
                problems, digest = [f"report unreadable: {error!r}"], ""
            outcome.problems += problems
            outcome.digests.append(digest)
        outcome.steps += steps
        outcome.busy_s += wall
        outcome.latencies.append(wall)
        outcome.probe_data.append(data)

    def run(self, seed: int, seconds: float, trace: bool,
            workdir: pathlib.Path) -> Outcome:
        setup = measure_setup(self.argv(round_input(seed, 0), workdir / "s"))
        outcome = run_rounds(self.play, seed, seconds, trace, workdir)
        outcome.setup.append(setup)
        return outcome


class EnsembleE5(CliWorkload):
    """``repro run E5`` exactly as the CLI runs it.  The CLI takes no
    seed for E5, so every round runs the quick preset's own seeds and
    must reproduce the first round's bytes."""

    cells = checks.E5_CELLS

    def __init__(self) -> None:
        self.first_digest: Optional[str] = None

    def argv(self, inputs, out):
        return ["run", "E5", "--jobs", "2", "--no-plot", "--out", str(out),
                "--metrics", str(out / "E5.metrics.jsonl")]

    def check(self, out, steps):
        text = (out / "E5.txt").read_text(encoding="utf-8")
        snapshot_path = out / "E5.metrics.jsonl"
        problems = checks.check_e5(text, checks.load_snapshot(str(snapshot_path)))
        digest = servemix.sha256(text.encode() + snapshot_path.read_bytes())
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append("E5 report differs from the first round's")
        return problems, digest


class ZooGrid(CliWorkload):
    #: The CLI's default panel: two oblivious, one delay-bounded and two
    #: adaptive adversaries.
    adversaries = ("round-robin", "random", "bounded-delay", "stale-attack",
                   "contention-max")
    seeds = 4
    iterations = 200

    def __init__(self) -> None:
        sys.path.insert(0, str(SRC))
        from repro.core.algorithm import algorithm_names, get_algorithm

        self.algorithms = algorithm_names()
        self.declared = {n: get_algorithm(n).lemmas for n in self.algorithms}
        self.cells = len(self.algorithms) * len(self.adversaries)

    def argv(self, inputs, out):
        return ["zoo", "--algorithms", "all",
                "--adversaries", ",".join(self.adversaries),
                "--seeds", str(self.seeds),
                "--base-seed", str(7000 + 100 * (inputs % 10_000_000)),
                "--iterations", str(self.iterations),
                "--jobs", "2", "--journal", str(out / "zoo.journal.jsonl"),
                "--out", str(out)]

    def check(self, out, steps):
        raw = (out / "zoo_report.json").read_bytes()
        report = json.loads(raw)
        problems = checks.check_zoo(
            report, self.algorithms, self.adversaries, self.seeds,
            self.iterations, self.declared,
        )
        reported = sum(outcome["steps"] for outcome in report["outcomes"])
        if reported != steps:
            problems.append(
                f"report counts {reported} steps, the simulators ran {steps}"
            )
        return problems, servemix.sha256(raw)


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def _read_line(stream, deadline: float) -> bytes:
    remaining = deadline - time.monotonic()
    if remaining <= 0 or not select.select([stream], [], [], remaining)[0]:
        raise TimeoutError("server did not announce its port")
    return stream.readline()


class ServeMixed:
    """One fresh ``repro serve`` per round (so the cache starts cold),
    timed from launch to its first ``/healthz``, then one seeded stream."""

    def __init__(self) -> None:
        self.refs = json.loads((HERE / "refs.json").read_text())

    def play(self, inputs: int, rdir: pathlib.Path, trace: bool,
             outcome: Outcome) -> None:
        users = servemix.make_stream(inputs)
        probe_dir = rdir / "probe"
        argv = ["serve", "--workers", "2", "--port", "0",
                "--workdir", str(rdir / "serve")]
        stderr = open(rdir / "serve.stderr", "wb")
        t0 = time.monotonic()
        proc = subprocess.Popen(_launch(probe_dir, trace, argv),
                                env=_env(), stdout=subprocess.PIPE,
                                stderr=stderr)
        submissions = sum(len(items) for items in users)
        outcome.attempted += submissions
        client = None
        try:
            line = _read_line(proc.stdout, t0 + 60).decode()
            port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            client = servemix.Client("127.0.0.1", port)
            while not client.healthy():
                if proc.poll() is not None or time.monotonic() - t0 > 60:
                    raise TimeoutError("server never became healthy")
                time.sleep(0.002)
            outcome.setup.append(time.monotonic() - t0)
            records, serving_s = servemix.run_stream(client, users)
        except (OSError, ValueError, IndexError) as error:
            outcome.failed += submissions
            print(f"failed: serve round broke: {error!r}", file=sys.stderr)
            records, serving_s = [], 0.0
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
            stderr.close()
        if proc.returncode != 0:
            outcome.problems.append(f"server exited {proc.returncode}")
        failed, problems = servemix.check_round(records, self.refs)
        outcome.failed += failed
        outcome.problems += problems
        outcome.latencies += [r["latency_s"] for r in records
                              if not r["expect_hit"] and "result" in r]
        outcome.digests.append(servemix.sha256(servemix.canonical(
            sorted((r["key"], r.get("digest") or "") for r in records))))
        data = probes.read(str(probe_dir))
        if client is not None:
            data["counts"]["http.bytes"] = client.bytes
            data["seen_done"] = {
                r["job"]: r["seen_done"] for r in records if "seen_done" in r
            }
        outcome.steps += int(data["counts"].get("runtime.steps", 0))
        outcome.busy_s += serving_s
        outcome.probe_data.append(data)

    def run(self, seed: int, seconds: float, trace: bool,
            workdir: pathlib.Path) -> Outcome:
        return run_rounds(self.play, seed, seconds, trace, workdir)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(outcome: Outcome) -> Dict[str, float]:
    return {
        "setup_s": _median(outcome.setup),
        "report_s": _median(outcome.latencies),
        "steps_per_s": outcome.steps / outcome.busy_s if outcome.busy_s else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(outcome: Outcome) -> Dict[str, float]:
    """Per-round totals of every layer's counts and busy times, medians
    of per-job latencies, and ratios taken over the whole run."""
    rounds = len(outcome.probe_data)
    counts: Dict[str, float] = {}
    spans: List[Dict[str, Any]] = []
    forks: List[float] = []
    lags: List[float] = []
    for data in outcome.probe_data:
        for key, value in data["counts"].items():
            counts[key] = counts.get(key, 0) + value
        spans += data["spans"]
        # Job ids restart with every server, so pair within the round.
        attempts = {}
        workers = {}
        for span in data["spans"]:
            if span["name"] in ("serve.attempt", "serve.worker"):
                key = (span["attrs"]["job"], span["attrs"]["attempt"])
                side = attempts if span["name"] == "serve.attempt" else workers
                side[key] = span
        forks += [workers[key]["t0"] - attempts[key]["t0"]
                  for key in workers if key in attempts]
        seen = data.get("seen_done", {})
        last = {job: span["t1"] for (job, _), span in sorted(workers.items())}
        lags += [seen[job] - t1 for job, t1 in last.items() if job in seen]
    c = counts.get

    def total(name: str) -> float:
        return sum(s["t1"] - s["t0"] for s in spans if s["name"] == name)

    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    first_chunk: Dict[str, float] = {}
    for span in by_name.get("ensemble.chunk", []):
        parent = span["parent"]
        first_chunk[parent] = min(first_chunk.get(parent, span["t0"]),
                                  span["t0"])
    pools = by_name.get("ensemble.pool", [])
    capacity = sum(p["attrs"].get("workers", 1) * (p["t1"] - p["t0"])
                   for p in pools)
    selfs = probes.self_times(spans)
    runtime_busy = total("runtime.run") + c("runtime.step.s", 0.0)
    steps = c("runtime.steps", 0)
    totals = {
        "cli.self_s": selfs.get("cli", 0.0),
        "ensemble.calls": len(by_name.get("ensemble.run", [])),
        "ensemble.pools": c("ensemble.pools", 0),
        "ensemble.chunks": c("ensemble.chunks", 0),
        "ensemble.pickle_bytes": c("ensemble.pickle_bytes", 0),
        "ensemble.spinup_s": sum(first_chunk[p["id"]] - p["t0"]
                                 for p in pools if p["id"] in first_chunk),
        "ensemble.busy_s": total("ensemble.pool"),
        "ensemble.retries": max(0, c("ensemble.chunks", 0)
                                - c("ensemble.planned", 0))
        + c("ensemble.serial_reruns", 0),
        "ensemble.self_s": selfs.get("ensemble", 0.0),
        "durable.journal_records": c("durable.journal_records", 0),
        "durable.journal_bytes": c("durable.journal_bytes", 0),
        "durable.fsyncs": c("durable.fsyncs", 0),
        "durable.append_s": total("durable.append"),
        "runtime.runs": c("runtime.runs", 0),
        "runtime.steps": steps,
        "runtime.busy_s": runtime_busy,
        "runtime.self_s": selfs.get("runtime", 0.0),
        "sched.selects": c("sched.select.calls", 0),
        "sched.select_s": c("sched.select.s", 0.0),
        "core.iterations": c("core.iterations", 0),
        "core.gradients": c("core.gradient.calls", 0),
        "core.gradient_s": c("core.gradient.s", 0.0),
        "analysis.ops": c("analysis.ops", 0),
        "analysis.sanitize_s": c("analysis.sanitize.s", 0.0),
        "analysis.certify_s": c("analysis.certify.s", 0.0),
        "heal.checks": c("heal.check.calls", 0),
        "heal.detect_s": c("heal.check.s", 0.0),
        "faults.injections": c("faults.injections", 0),
        "verify.nodes": c("verify.nodes", 0),
        "verify.schedules": c("verify.schedules", 0),
        "verify.enumerate_s": total("verify.enumerate"),
        "http.requests": c("http.request.calls", 0),
        "http.bytes": c("http.bytes", 0),
        "http.submit_s": c("http.submit.s", 0.0),
        "serve.worker_s": total("serve.worker"),
        "serve.attempts": c("serve.attempts", 0),
        "serve.self_s": selfs.get("serve", 0.0),
        "cache.hits": c("cache.hits", 0),
        "cache.misses": c("cache.misses", 0),
        "cache.get_s": c("cache.get.s", 0.0),
        "cache.put_s": c("cache.put.s", 0.0),
        "cache.bytes": c("cache.bytes", 0),
        "obs.spans": c("obs.record.calls", 0),
        "obs.spill_bytes": c("obs.spill_bytes", 0),
    }
    metrics = {key: value / rounds for key, value in totals.items()}
    launches = c("cli.launches", 0)
    traced = _median(outcome.latencies)
    untraced = outcome.untraced_report_s
    metrics.update({
        "cli.import_s": c("cli.import_s", 0.0) / launches if launches else 0.0,
        "cli.modules": c("cli.modules", 0) / launches if launches else 0.0,
        "ensemble.overlap": (total("ensemble.chunk") / capacity
                             if capacity else 0.0),
        "runtime.ns_per_step": runtime_busy * 1e9 / steps if steps else 0.0,
        "serve.queue_wait_s": _median([s["attrs"]["queue_wait"]
                                       for s in by_name.get("serve.job", [])
                                       if "queue_wait" in s["attrs"]]),
        "serve.fork_s": _median(forks),
        "serve.notify_lag_s": _median(lags),
        "trace.report_s": traced,
        "trace.overhead": traced / untraced if untraced else 0.0,
    })
    return metrics


WORKLOADS = {
    "ensemble-e5": EnsembleE5,
    "zoo-grid": ZooGrid,
    "serve-mixed": ServeMixed,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"no repro sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        outcome = WORKLOADS[args.workload]().run(
            args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in outcome.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    values = per_layer(outcome) if args.trace else end_to_end(outcome)
    units = UNITS[bool(args.trace)]
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
