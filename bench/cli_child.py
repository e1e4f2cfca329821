"""Run one eurnoise CLI command under the span tracer.

    python3 bench/cli_child.py SPANS_OUT ARGS...

Behaves like `python3 -m eurnoise.cli ARGS...` and writes the spans of the
call to SPANS_OUT (the program must be importable, e.g. PYTHONPATH=src).
"""

import sys

import eurnoise.cli
from tracer import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        code = eurnoise.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.write(sys.argv[1])
    sys.exit(code)
