#!/usr/bin/env python
"""Run benchmark suites and export the BENCH_<suite>.json trajectory.

Each benchmark module under ``benchmarks/`` writes its per-test timings
to ``BENCH_<suite>.json`` at the repo root when it runs (the hook lives
in ``benchmarks/conftest.py``); this script drives a sweep over the
suites and prints a summary table of whatever trajectory files exist::

    PYTHONPATH=src python scripts/export_bench.py                # all suites
    PYTHONPATH=src python scripts/export_bench.py auction micro  # a subset
                                                  # (the _bench suffix is optional)
    PYTHONPATH=src python scripts/export_bench.py --with-gates   # incl. speedup gates

Hardware-sensitive speedup gates are excluded by default (same policy
as CI); pass ``--with-gates`` on a quiet machine to include them.  The
JSON files are measurements, not fixtures — each run *appends* to the
suite's trajectory (newest last, bounded), the files are git-ignored
and uploaded as CI artifacts, except ``BENCH_dependence.json`` whose
seeded trajectory is committed as the dependence-engine reference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"


def available_suites() -> list[str]:
    """Suite names, one per benchmarks/test_<suite>.py module."""
    return sorted(
        path.stem.removeprefix("test_")
        for path in BENCH_DIR.glob("test_*.py")
    )


def run_suite(suite: str, *, with_gates: bool) -> int:
    """Run one benchmark module (timings only, no pytest-benchmark stats)."""
    command = [
        sys.executable,
        "-m",
        "pytest",
        str(BENCH_DIR / f"test_{suite}.py"),
        "--benchmark-disable",
        "-q",
    ]
    if not with_gates:
        # Hardware-sensitive percent-level gates: the oracle-vs-engine
        # speedup ratio and the telemetry overhead budgets (DESIGN.md §13).
        command += ["-k", "not speedup and not overhead"]
    print(f"== {suite} ==", flush=True)
    return subprocess.run(command, cwd=REPO_ROOT).returncode


def summarize() -> None:
    """Print one line per BENCH_*.json at the repo root.

    Files hold a run trajectory (newest last); the summary shows the
    latest run plus the trajectory depth.  Pre-append single-run files
    are read as one-entry trajectories.
    """
    files = sorted(REPO_ROOT.glob("BENCH_*.json"))
    if not files:
        print("no BENCH_*.json files found")
        return
    print(
        f"\n{'suite':<24} {'tests':>5} {'total':>10} {'runs':>5}  environment"
    )
    for path in files:
        payload = json.loads(path.read_text())
        runs = payload.get("runs") or [payload]
        latest = runs[-1]
        implementation = latest.get("python_implementation", "?")
        environment = " ".join(
            part
            for part in (
                f"{implementation} {latest.get('python', '?')}",
                latest.get("arch") or "",
                f"numpy {latest['numpy']}" if latest.get("numpy") else "",
            )
            if part
        )
        print(
            f"{payload['suite']:<24} {len(latest['timings']):>5} "
            f"{latest['total_seconds']:>9.2f}s {len(runs):>5}  {environment}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "suites",
        nargs="*",
        help="suite names (default: every benchmarks/test_*.py module)",
    )
    parser.add_argument(
        "--with-gates",
        action="store_true",
        help="include the hardware-sensitive speedup gate tests",
    )
    parser.add_argument(
        "--summary-only",
        action="store_true",
        help="only print the table of existing BENCH_*.json files",
    )
    args = parser.parse_args(argv)

    failures = 0
    if not args.summary_only:
        known = available_suites()
        # Accept the module-stem suite name with or without its _bench
        # suffix ("auction" == "auction_bench").
        resolved = [
            suite if suite in known else f"{suite}_bench"
            for suite in args.suites
        ]
        suites = resolved or known
        unknown = sorted(set(suites) - set(known))
        if unknown:
            parser.error(
                f"unknown suites {unknown}; available: {', '.join(known)}"
            )
        for suite in suites:
            if run_suite(suite, with_gates=args.with_gates) != 0:
                failures += 1
    summarize()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
