"""Start one ``repro`` CLI process the way the benchmark measures it.

    python3 perfbench/launch.py --probe-dir DIR [--trace] -- <repro argv>
    python3 perfbench/launch.py --parse-only -- <repro argv>

``--parse-only`` imports ``repro.cli``, parses the arguments and exits:
that is the set-up a CLI user pays before any work starts.  Otherwise
the launcher installs the probes (:mod:`probes`), runs
``repro.cli.main(argv)`` and writes the probe file of this process
before exiting with the CLI's exit code.
"""

from __future__ import annotations

import argparse
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--parse-only", action="store_true")
    parser.add_argument("--probe-dir", default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    modules_before = len(sys.modules)
    t0 = time.monotonic()
    import repro.cli as cli

    import_s = time.monotonic() - t0
    if args.parse_only:
        cli.build_parser().parse_args(argv)
        return 0

    import probes

    probe = probes.install(args.probe_dir, trace=args.trace)
    if args.trace:
        probe.count("cli.import_s", import_s)
        probe.count("cli.modules", len(sys.modules) - modules_before)
        probe.count("cli.launches", 1)
    main_span = probe.span("cli.main")(cli.main)
    try:
        code = main_span(argv)
    finally:
        probe.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
