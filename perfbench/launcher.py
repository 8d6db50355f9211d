"""Run one cubefill command with the benchmark's tracer installed.

Usage: python3 perfbench/launcher.py STATS_JSON COMMAND [ARGS...]

The package is imported (and the import timed) before the wrappers go in,
then ``cubefill.cli.main`` runs the command; the trace is written to
STATS_JSON when it returns, for the parent benchmark process to merge.
"""

import json
import sys
import time

import tracing


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import cubefill
    import cubefill.cli

    import_ms = (time.perf_counter() - start) * 1000.0
    tracer = tracing.Tracer()
    tracer.install(cubefill)
    try:
        return cubefill.cli.main(argv)
    finally:
        data = tracer.snapshot()
        data["import_ms"] = import_ms
        with open(stats_path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)


if __name__ == "__main__":
    sys.exit(main())
