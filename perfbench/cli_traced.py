"""Run ``fenceinj.cli.main`` with the benchmark's wrappers installed.

Usage: ``python cli_traced.py SPANS_JSON <cli arguments...>``.  Behaves like
``python -m fenceinj.cli <cli arguments...>`` and, when ``main`` returns,
writes the spans and counters it recorded to SPANS_JSON.  The ``cli.main``
span covers ``main`` only, so the caller's process wall time minus that span
is the CLI start-up cost: interpreter start, imports and exit.
"""

import sys
from pathlib import Path

from spans import Tracer, instrument


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer(run_id="cli")
    with instrument(tracer):
        import fenceinj.cli

        with tracer.span("cli.main"):
            code = fenceinj.cli.main(argv)
    tracer.dump(spans_path, {})
    return code


if __name__ == "__main__":
    sys.exit(main())
