"""Start ``repro serve`` with the benchmark's layer wrappers installed.

Usage (from the repository root)::

    python3 perfbench/launcher.py --spans SPANS.json -- serve --port 0 ...

Everything after ``--`` goes to the ``repro`` command line, so the
server is the one ``python -m repro serve`` runs (the CLI builds the
store, recovers the journals and calls ``repro.streaming.server.serve``).
When the server has shut down — SIGTERM drains it — the spans are
written to ``SPANS.json``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print("usage: launcher.py --spans FILE -- serve ARGS...", file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(description="traced repro serve")
    parser.add_argument("--spans", required=True, type=Path)
    args = parser.parse_args(argv[:split])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from repro.__main__ import main as repro_main

    from perfbench import layers
    from perfbench.tracing import Tracer

    tracer = Tracer()
    layers.install(tracer)
    try:
        return repro_main(argv[split + 1:])
    finally:
        layers.dump(tracer, args.spans)


if __name__ == "__main__":
    sys.exit(main())
