"""Traced stand-in for ``python -m wva_costlab.cli``.

Usage: python3 bench/cli_entry.py SPANS_PATH SUBCOMMAND [ARGS...]

Times the import of ``wva_costlab.cli``, installs the tracer's wrappers, runs
``cli.main`` inside a span named after the subcommand, writes the spans to
SPANS_PATH and exits with main's exit code.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.item = 0
    try:
        cli = tracer.span("cli.import", __import__, "wva_costlab.cli", fromlist=["main"])
        tracer.install("wva_costlab")
        cache = sys.modules["wva_costlab.experiment"]._readout_probabilities
        before = cache.cache_info()
        try:
            return tracer.span(f"cli.main.{argv[0]}", cli.main, argv)
        finally:
            after = cache.cache_info()
            tracer.counters["readout_hits"] += after.hits - before.hits
            tracer.counters["readout_misses"] += after.misses - before.misses
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
