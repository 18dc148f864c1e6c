"""Regenerate ``refs.json``: the CLI's report digests for every ``zoo``
and ``chaos`` spec the serve-mixed stream can submit.

    python3 perfbench/refs.py

Runs ``python -m repro zoo`` / ``python -m repro chaos`` once per pool
entry with the flags that reproduce the job server's defaults for that
kind, and stores the sha256 of each report's canonical JSON.  The
serve-mixed check then requires every served report to hash the same.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import Any, Dict, List

from servemix import POOLS, canonical, sha256, spec_key

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs.json"

#: The job server's defaults for these kinds, spelled as CLI flags.
CLI_FLAGS: Dict[str, List[str]] = {
    "zoo": ["--algorithms", "epoch-sgd,hogwild",
            "--adversaries", "round-robin,random",
            "--seeds", "2", "--threads", "4", "--iterations", "100"],
    "chaos": ["--specs", "prob-crash,torn-update", "--seeds", "2",
              "--threads", "4", "--iterations", "120",
              "--check-interval", "64"],
}


def cli_report(kind: str, params: Dict[str, Any], workdir: str) -> Any:
    out = os.path.join(workdir, "out")
    argv = [sys.executable, "-m", "repro", kind, *CLI_FLAGS[kind],
            "--base-seed", str(params["base_seed"]), "--out", out]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL,
                   timeout=600)
    with open(os.path.join(out, f"{kind}_report.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="refs-", dir=scratch)
    try:
        refs = {
            kind: {
                spec_key(kind, params): sha256(
                    canonical(cli_report(kind, params, workdir))
                )
                for params in POOLS[kind]
            }
            for kind in sorted(CLI_FLAGS)
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
