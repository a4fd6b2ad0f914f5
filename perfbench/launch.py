"""Run one mannafair CLI command with per-layer tracing.

Usage: python3 perfbench/launch.py STATS_FILE ARG...

Installs the wrappers of spans.Tracer, calls mannafair.cli.main(ARGS),
writes the tracer's counters and self times to STATS_FILE as JSON and exits
with main's exit code.  mannafair must be importable from the checkout's
src/ (run.py sets PYTHONPATH).
"""

import json
import sys

from spans import Tracer


def main():
    stats_path, argv = sys.argv[1], sys.argv[2:]
    from mannafair import cli

    tracer = Tracer()
    with tracer.installed():
        code = cli.main(argv)
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
