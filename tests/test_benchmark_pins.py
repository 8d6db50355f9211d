"""The benchmark's outputs at seed 101, pinned by their output digests.

Each case runs ``perfbench/run.py --seed 101 --seconds 0`` as a child process:
one pass whose every output is checked, then the benchmark's minimum of timed
passes, each of which must reproduce the checked outputs.  The output digest
hashes every filling and report of the workload, so a change that alters any
output fails here even where the norms are equal.  A change that alters
outputs on purpose re-pins the digest here and says which outputs changed.

The runs use a copy of ``perfbench/`` and ``src/cubefill/`` in a temporary
directory, so the work files and the traced run's spans land in the copy and
two test runs never share a file in the checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPANS = Path(".bench_build", "perfbench", "spans-sparse-highdim-101.jsonl")

# workload, --trace, output digest at seed 101; tracing must not change the outputs
PINS = [
    pytest.param("dense-slice", 0, "d86842e0fb7b6707", id="dense-slice"),
    pytest.param("exact-search", 0, "47c39578d3fd74fd", id="exact-search"),
    pytest.param("sparse-highdim", 0, "c2fd84837152a454", id="sparse-highdim"),
    pytest.param("cli-files", 0, "d8bb748eb9c671eb", id="cli-files"),
    pytest.param("sparse-highdim", 1, "c2fd84837152a454", id="sparse-highdim-traced"),
]


@pytest.fixture(scope="module")
def bench_root(tmp_path_factory):
    """A copy of the benchmark and the package, laid out as in the checkout."""
    root = tmp_path_factory.mktemp("bench")
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "perfbench", root / "perfbench", ignore=skip)
    shutil.copytree(ROOT / "src" / "cubefill", root / "src" / "cubefill", ignore=skip)
    return root


def _stamp(path):
    return path.stat().st_mtime_ns if path.exists() else None


@pytest.mark.parametrize("workload, trace, digest", PINS)
def test_seed_101_outputs(bench_root, workload, trace, digest):
    checkout_spans = _stamp(ROOT / SPANS)
    argv = ["--workload", workload, "--seed", "101", "--seconds", "0", "--trace", str(trace)]
    run = bench_root / "perfbench" / "run.py"
    proc = subprocess.run([sys.executable, str(run), *argv], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    report = json.loads(lines[-1])
    assert (report["correct"], report["failed"]) == (True, 0), proc.stderr
    assert [line.split()[-1] for line in lines if line.startswith("  output digest ")] == [digest]
    if trace:  # the tracer reached both constructive engines
        assert report["metrics"]["filling.linear_fill.calls"]["value"] > 0
        assert report["metrics"]["filling.recursive_fill.calls"]["value"] > 0
        assert (bench_root / SPANS).stat().st_size > 0
    # the checkout's own spans file, if any, is neither written nor made
    assert _stamp(ROOT / SPANS) == checkout_spans
