"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload date-batch --seed 1 --seconds 15 --trace 0

Comment lines (``# ...``) describe the run: machine, CPython, numpy,
``nproc``, every timing with its sample count, the error-rate base and,
with ``--trace 1``, the per-layer breakdown.  The last line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  Names and units are listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("date-batch", "imc2-auction", "stream-http", "recover")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment() -> str:
    import numpy

    return json.dumps({
        "machine": f"{platform.system()} {platform.machine()} {platform.node()}",
        "processor": platform.processor() or "unknown",
        "cpython": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    })


def main(argv=None) -> int:
    args = _parse(argv)
    # A SIGTERM unwinds through the finally blocks that stop the servers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import batch, stream

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    trace = bool(args.trace)
    try:
        if args.workload == "date-batch":
            report = batch.run(batch.DATE_BATCH, args.seed, args.seconds, trace)
        elif args.workload == "imc2-auction":
            report = batch.run(batch.IMC2_AUCTION, args.seed, args.seconds, trace)
        elif args.workload == "stream-http":
            report = stream.run_stream(args.seed, args.seconds, trace, work)
        else:
            report = stream.run_recover(args.seed, args.seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    print("# environment: " + _environment())
    for line in report.info:
        print(line)
    for problem in report.problems:
        print("# PROBLEM: " + problem)
    for failed in report.errors.failed_checks:
        print("# FAILED CHECK: " + failed)
    chosen = report.layers if trace else report.e2e
    metrics = {
        entry["name"]: {"value": chosen[entry["name"]], "unit": entry["unit"]}
        for entry in spec["per_layer" if trace else "end_to_end"]
    }
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.errors.attempted,
        "failed": report.errors.failed + len(report.errors.failed_checks),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
