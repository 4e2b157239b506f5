"""Run the hivekron command line with the benchmark's spans installed.

Usage: python3 perfbench/launcher.py SPANS.json ARGS...

Installs the wrappers of ``tracing.WRAPPED``, calls ``hivekron.cli.main``
with ARGS inside a ``cli.main`` span, writes the spans to SPANS.json and
exits with main's code.  PYTHONPATH names the program's ``src/``.
"""

import sys


def main(spans_path, argv):
    # polyhedra imports numpy on its first count; import it before any span
    import numpy  # noqa: F401
    import hivekron.cli
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("cli.main"):
            return hivekron.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
