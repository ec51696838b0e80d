"""Run one ``defq`` CLI command with the layer tracer installed.

Usage: ``python3 bench/traced_cli.py <spans.json> <defq arguments...>``.
Exits with the CLI's own exit code and writes the spans once, at exit.
"""

from __future__ import annotations

import sys

from tracing import Tracer, write


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    import defq.cli

    try:
        return defq.cli.main(argv)
    finally:
        tracer.restore()
        write(spans_path, tracer.dump())


if __name__ == "__main__":
    sys.exit(main())
