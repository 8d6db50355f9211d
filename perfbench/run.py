#!/usr/bin/env python3
"""Benchmark for cubefill: end-to-end fill metrics, or a traced per-layer run.

Usage, from the repository root:

    python3 perfbench/run.py --workload dense-slice --seed 1 --seconds 15 --trace 0

The load is a closed loop in one process, one operation at a time; CLI
children run one at a time while this process waits.  Set-up (importing
the package, making the seeded inputs, writing the CLI's chain files) is
timed apart from the measured phase.  Every output is checked against the
independent word-level checker in ``cells`` on a first, untimed pass;
timed passes then repeat the operations until ``--seconds`` have passed
and must reproduce the checked outputs exactly.

Times are scaled to a reference machine.  Around every timed operation
the benchmark times a fixed computation of its own (``reference_seconds``)
and scales the operation's time by REFERENCE_MS over that computation's
mean time before and after it.  CPU speed on a shared host wanders by up
to a factor of two over tens of seconds; raw times then do not repeat
from run to run, the scaled ones do.  The raw medians are printed too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Readable lines above it give each metric with its unit, the sample counts
and the input and output digests.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

import cells
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_build", "perfbench")

MIN_PASSES = 3
# what the reference computation takes on the reference machine
REFERENCE_MS = 5.0
# set-up is timed in this process and in this many fresh child processes
SETUP_CHILDREN = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "cells_per_s": "cells/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "fill_norm_sum": "cells",
    "optimal_count": "count",
    "ok_rate": "ratio",
    "peak_rss_mb": "MB",
}

# Traced callables whose calls and self time are reported, by layer.
LAYER_CALLABLES = (
    "faces.Face", "faces.Face.delete_coordinate", "faces.Face.insert_coordinate",
    "faces.Face.__lt__", "faces.Face.boundary", "faces.Face.coboundary",
    "faces.parse_face", "faces.render_face", "faces.enumerate_faces",
    "chains.Chain", "chains.Chain.slice", "chains.Chain.inject", "chains.Chain.__add__",
    "chains.Chain.boundary", "chains.Chain.sorted_faces",
    "chainfile.read_chain", "chainfile.write_chain",
    "chainfile.parse_chain_text", "chainfile.format_chain_text",
    "filling.linear_fill", "filling.recursive_fill", "filling.exact_fill",
    "filling.connected_components", "filling.support_subcube",
    "minimizers.minimizer_cycle", "cli.main",
)

LAYER_EXTRA_UNITS = {
    "chains.Chain.slice.faces": "count",
    "chainfile.write_chain.bytes": "bytes",
    "filling.exact_fill.nodes": "count",
    "filling.exact_fill.nodes_per_s": "1/s",
    "filling.exact_fill.optimal_ratio": "ratio",
    "chains.Chain.slice.fill_share": "ratio",
    "faces.Face.__lt__.fill_share": "ratio",
    "cli.process_ms": "ms",
    "cli.import_ms": "ms",
    "trace.untraced_pass_s": "s",
    "trace.traced_pass_s": "s",
    "trace.overhead_s": "s",
}


def tail_percentile(samples):
    """The highest percentile with at least ten samples beyond it: the
    eleventh-largest sample, with its percentile rank.  Fewer than eleven
    samples give the largest one."""
    ordered = sorted(samples)
    index = max(len(ordered) - 11, 0) if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


@functools.lru_cache(maxsize=None)
def _reference_words():
    return tuple(sorted(cells.random_cycle(random.Random(0), 10, 2, 250)))


def reference_seconds():
    """Time the benchmark's fixed reference computation once."""
    words = _reference_words()
    start = time.perf_counter()
    cells.boundary(words)
    return time.perf_counter() - start


def scale(seconds, before, after):
    """Seconds on the reference machine, given reference times around them."""
    return seconds * (REFERENCE_MS / 1000.0) / ((before + after) / 2.0)


class Env:
    """What an operation needs to run: the package, the work directory and
    the command that starts a CLI child."""

    def __init__(self, pkg, workdir):
        self.pkg, self.workdir = pkg, workdir
        path = os.environ.get("PYTHONPATH")
        self.child_env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
        self.cli = [sys.executable, "-m", "cubefill"]
        self.tracer = None
        self.import_ms = []

    def trace_cli(self, tracer) -> None:
        self.tracer = tracer
        self.stats_path = os.path.join(self.workdir, "child-trace.json")
        self.cli = [sys.executable, os.path.join(HERE, "launcher.py"), self.stats_path]

    def after_cli(self) -> None:
        if self.tracer is None or not os.path.exists(self.stats_path):
            return
        with open(self.stats_path, encoding="utf-8") as handle:
            data = json.load(handle)
        os.remove(self.stats_path)
        self.import_ms.append(data["import_ms"])
        self.tracer.merge(data)


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.wrong = False
        self.reported = set()

    def record(self, op, problems, wrong) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong |= wrong
            if (op.label, problems[0]) not in self.reported:
                self.reported.add((op.label, problems[0]))
                print(f"FAILED {op.label}: {'; '.join(problems)}", file=sys.stderr)


def setup(workload, seed, workdir):
    """Import the package and make the workload's inputs; returns them with
    the scaled seconds it took."""
    before = reference_seconds()
    start = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("cubefill")
    ops = workloads.build(workload, seed, pkg, workdir)
    elapsed = time.perf_counter() - start
    return pkg, ops, scale(elapsed, before, reference_seconds())


def run_checked(op, env):
    """Run one operation, untimed; returns its result and the check's verdict."""
    try:
        result = op.run(env)
    except Exception as exc:  # any exception is a failed operation
        return exc, workloads.Verdict([repr(exc)], crashed=True)
    return result, op.verify(result, env)


def check_pass(ops, env, tally):
    """Run every operation once, untimed, and check each output."""
    firsts, verdicts = [], []
    for op in ops:
        result, verdict = run_checked(op, env)
        tally.record(op, verdict.problems, wrong=not verdict.crashed)
        firsts.append(result)
        verdicts.append(verdict)
    return firsts, verdicts


def run_probes(probes, env):
    """Run each known-defect probe once and print its outcome; a probe is
    not an operation, so it counts in no metric, only in the output digest."""
    verdicts = []
    for op in probes:
        verdict = run_checked(op, env)[1]
        print(f"  known-defect probe, {op.label}: {'; '.join(verdict.problems) or 'succeeded'}")
        verdicts.append(verdict)
    return verdicts


def timed_pass(ops, env, firsts, tally, latencies):
    """Run the timed operations once; returns the scaled and raw seconds
    they took, and appends (op, scaled, raw) to ``latencies``."""
    total = raw = 0.0
    before = reference_seconds()
    for op, first in zip(ops, firsts):
        start = time.perf_counter()
        try:
            result = op.run(env)
        except Exception as exc:  # any exception is a failed operation
            result = exc
        elapsed = time.perf_counter() - start
        after = reference_seconds()
        scaled = scale(elapsed, before, after)
        before = after
        total += scaled
        raw += elapsed
        latencies.append((op, scaled, elapsed))
        if isinstance(result, Exception):
            tally.record(op, [repr(result)], wrong=False)
        elif isinstance(first, Exception):
            tally.record(op, ["failed on the checked first pass"], wrong=False)
        else:
            same = op.same(result, first)
            tally.record(op, [] if same else ["output differs from the checked first pass"], not same)
    return total, raw


def run_passes(ops, env, firsts, tally, seconds, min_passes=MIN_PASSES):
    """Timed passes until ``seconds`` have gone; returns the scaled and raw
    seconds of each pass and every operation's latency."""
    passes, latencies = [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < min_passes or time.perf_counter() < deadline:
        passes.append(timed_pass(ops, env, firsts, tally, latencies))
    return [p[0] for p in passes], [p[1] for p in passes], latencies


def setup_samples(args, own_seconds):
    """Median set-up time of this process and of fresh child processes."""
    samples = [own_seconds]
    for i in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only", f"probe{i}-{os.getpid()}"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def peak_rss_mb():
    """Peak RSS of this process or of the largest child waited for so far."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def end_to_end(ops, verdicts, pass_times, raw_times, latencies, tally, setup_s, rss_mb):
    cells_per_pass = sum(op.cells for op in ops)
    ms = [scaled * 1000.0 for _, scaled, _ in latencies]
    raw_ms = [raw * 1000.0 for _, _, raw in latencies]
    tail, rank = tail_percentile(ms)
    per_op = {}
    for op, scaled, _ in latencies:
        per_op.setdefault(id(op), []).append(scaled)
    values = {
        "setup_s": setup_s,
        "cells_per_s": cells_per_pass / sum(statistics.median(v) for v in per_op.values()),
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": tail,
        "fill_norm_sum": sum(v.fill_norm for v in verdicts),
        "optimal_count": sum(v.optimal for v in verdicts),
        "ok_rate": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": rss_mb,
    }
    print(f"  {len(pass_times)} timed passes of {len(ops)} operations; raw medians: "
          f"pass {statistics.median(raw_times):.4f} s, operation {statistics.median(raw_ms):.4f} ms, "
          f"reference computation {reference_seconds() * 1000:.3f} ms")
    print(f"  op_tail_ms is p{rank:.1f} of {len(ms)} samples, {len(ms) - round(rank * len(ms) / 100)} beyond it")
    print(f"  error_rate {tally.failed / tally.attempted:.4f} ({tally.failed} failed of {tally.attempted} attempted)")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(ops, env, firsts, tally, seconds, spans_path):
    """Untraced passes for a third of the time, then traced passes; layer
    metrics are per traced pass."""
    untraced, _, latencies = run_passes(ops, env, firsts, tally, seconds / 3.0, 1)
    tracer = tracing.Tracer()
    tracer.install(env.pkg)
    env.trace_cli(tracer)
    traced = []
    deadline = time.perf_counter() + 2.0 * seconds / 3.0
    try:
        while not traced or time.perf_counter() < deadline:
            tracer.calibrate()
            traced.append(timed_pass(ops, env, firsts, tally, [])[0])
    finally:
        tracer.uninstall()
    passes = len(traced)
    stats, counters = tracer.stats, tracer.counters
    values = {}
    for name in LAYER_CALLABLES:
        calls, self_s = stats.get(name, (0, 0.0))[:2]
        values[f"{name}.calls"] = (calls / passes, "count")
        values[f"{name}.self_s"] = (max(self_s, 0.0) / passes, "s")
    exact_s = sum(scaled for op, scaled, _ in latencies if op.search) / len(untraced)
    nodes = counters["filling.exact_fill.nodes"] / passes
    exact_calls = stats.get("filling.exact_fill", (0,))[0]
    # all traced time, each callable's self time counted once; on the
    # library workloads every traced call runs inside a filling.* call
    traced_s = sum(max(stat[1], 0.0) for stat in stats.values())
    cli_ms = [s * 1000.0 for op, s, _ in latencies if isinstance(op, workloads.CliOp)]
    extra = {
        "chains.Chain.slice.faces": counters["chains.Chain.slice.faces"] / passes,
        "chainfile.write_chain.bytes": counters["chainfile.write_chain.bytes"] / passes,
        "filling.exact_fill.nodes": nodes,
        "filling.exact_fill.nodes_per_s": nodes / exact_s if exact_s else 0.0,
        "filling.exact_fill.optimal_ratio": counters["filling.exact_fill.optimal"] / exact_calls if exact_calls else 0.0,
        "chains.Chain.slice.fill_share": stats.get("chains.Chain.slice", (0, 0, 0.0))[2] / traced_s if traced_s else 0.0,
        "faces.Face.__lt__.fill_share": stats.get("faces.Face.__lt__", (0, 0.0))[1] / traced_s if traced_s else 0.0,
        "cli.process_ms": statistics.median(cli_ms) if cli_ms else 0.0,
        "cli.import_ms": statistics.median(env.import_ms) if env.import_ms else 0.0,
        "trace.untraced_pass_s": statistics.median(untraced),
        "trace.traced_pass_s": statistics.median(traced),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
    }
    for name, value in extra.items():
        values[name] = (value, LAYER_EXTRA_UNITS[name])
    tracer.write_spans(spans_path)
    print(f"  {passes} traced and {len(untraced)} untraced passes; tracing overhead "
          f"{extra['trace.overhead_s']:.4f} s per pass; {len(tracer.spans)} spans "
          f"({tracer.dropped_spans} dropped) in {os.path.relpath(spans_path, ROOT)}")
    for name in sorted(LAYER_CALLABLES, key=lambda n: -values[f"{n}.self_s"][0])[:8]:
        print(f"  {name}: {values[f'{name}.calls'][0]:.0f} calls, {values[f'{name}.self_s'][0]:.4f} s self")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="TAG", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "cubefill", "__init__.py")):
        print(f"error: no cubefill package under {SRC}", file=sys.stderr)
        return 2

    # One CPU for this process and its children, so that the reference
    # computation runs where the operations it scales run.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-{args.setup_only or os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        pkg, ops, setup_seconds = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(repr(setup_seconds))
            return 0
        env = Env(pkg, workdir)
        probes = [op for op in ops if op.known_defect]
        ops = [op for op in ops if not op.known_defect]
        with_probes = f" and {len(probes)} known-defect probe" if probes else ""
        print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations{with_probes}, "
              f"input digest {workloads.input_digest(ops + probes, workdir)}")
        tally = Tally()
        firsts, verdicts = check_pass(ops, env, tally)
        if args.trace:
            verdicts += run_probes(probes, env)
            spans = os.path.join(WORK_ROOT, f"spans-{args.workload}-{args.seed}.jsonl")
            metrics = per_layer(ops, env, firsts, tally, args.seconds, spans)
        else:
            pass_times, raw_times, latencies = run_passes(ops, env, firsts, tally, args.seconds)
            rss_mb = peak_rss_mb()  # before the probes and the set-up children run
            metrics = end_to_end(ops, verdicts, pass_times, raw_times, latencies, tally,
                                 setup_samples(args, setup_seconds), rss_mb)
            verdicts += run_probes(probes, env)
        print(f"  output digest {cells.digest(v.digest for v in verdicts)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not tally.wrong, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
