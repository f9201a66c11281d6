"""Run one hyplab CLI invocation with span tracing installed.

    python perfbench/clitrace.py SPANS_PATH SUBCOMMAND [ARGS...]

Behaves like ``python -m hyplab.cli SUBCOMMAND [ARGS...]`` (same stdout,
stderr and exit code) and also writes the spans and counters of the run
to SPANS_PATH.
"""

import sys

from spans import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import hyplab.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = hyplab.cli.run(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
