"""Launch ``repro`` with the server-side span wrappers installed.

Usage: ``python perfbench/serve_traced.py --trace-out PATH -- serve ...``

Installs the :data:`tracing.SERVER_TARGETS` wrappers, then calls the
normal ``repro`` CLI entry with the remaining arguments.  The spans stay in
memory and are written to ``PATH`` when the CLI returns (a SIGTERM drains
the server, so a graceful stop writes the dump).
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import ensure_program  # noqa: E402
from tracing import SERVER_TARGETS, Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True, metavar="PATH")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    ensure_program()
    tracer = Tracer()
    tracer.install(SERVER_TARGETS)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        tracer.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
