"""The four workloads: seeded inputs, the operations run on them, and the
independent check of each operation's output.

Every input is made from words by ``cells``, so a change to the package's
own generators or face order cannot change what is measured.  Shapes (cube
dimension, degree, number of generating cells) are fixed per workload; the
seed only picks which cells, which keeps the cost of a workload steady
from seed to seed.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
from dataclasses import dataclass, field
from math import comb

import cells

# Documented CLI exit codes; anything else (a traceback exits 1) is a crash.
CLI_EXIT_CODES = (0, 2, 3, 4)
CLI_TIMEOUT_S = 170


@dataclass
class Verdict:
    """What the checker found in one operation's output."""

    problems: list = field(default_factory=list)
    crashed: bool = False  # no output at all: exception or undocumented exit code
    fill_norm: int = 0
    optimal: bool = False
    digest: str = ""


class FillOp:
    """One library call: linear_fill, recursive_fill or exact_fill."""

    known_defect = False

    def __init__(self, strategy, n, k, words, budget=None, known_min=None):
        self.strategy, self.n, self.k, self.words = strategy, n, k, frozenset(words)
        self.search = strategy == "exact"
        self.budget, self.known_min = budget, known_min
        self.cells = len(self.words)
        self.label = f"{strategy} Q{n} k={k} norm={self.cells}"

    def setup(self, pkg, workdir) -> None:
        self.chain = pkg.Chain.from_words(*sorted(self.words))

    def run(self, env):
        fill = getattr(env.pkg, f"{self.strategy}_fill")
        return fill(self.chain, self.budget) if self.budget else fill(self.chain)

    def verify(self, result, env) -> Verdict:
        y = frozenset(str(face) for face in result.filling.support)
        linear_norm = None
        if self.strategy == "exact":
            linear_norm = env.pkg.linear_fill(self.chain).filling.norm
        optimal = result.optimal if self.strategy == "exact" else False
        problems = cells.check_filling(
            self.n, self.k, self.words, y, self.strategy,
            rel_tol=env.pkg.BOUND_REL_TOL, linear_norm=linear_norm,
            known_min=self.known_min, optimal=optimal,
        )
        if self.strategy != "exact" and self.known_min == len(y):
            optimal = True
        return Verdict(problems, False, len(y), optimal, cells.digest(sorted(y)))

    def same(self, result, first) -> bool:
        return result.filling == first.filling


class CliOp:
    """One ``cubefill`` command, run as a child process on files in the
    work directory; ``expect`` is the exit code and report status.  A
    ``known_defect`` command runs once, untimed, and its outcome is reported
    and digested but not counted as an operation."""

    def __init__(self, label, argv, cells_in, expect=(0, "ok"), check=None,
                 output=None, known_defect=False):
        self.label, self.argv, self.cells = label, argv, cells_in
        self.expect, self.check, self.output = expect, check, output
        self.known_defect = known_defect
        self.search = "exact" in argv

    def setup(self, pkg, workdir) -> None:
        pass

    def run(self, env):
        out_path = os.path.join(env.workdir, self.output) if self.output else None
        if out_path and os.path.exists(out_path):
            os.remove(out_path)
        proc = subprocess.run(
            env.cli + self.argv + ["--json"], cwd=env.workdir, env=env.child_env,
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        env.after_cli()
        status, report = None, None
        if proc.returncode in CLI_EXIT_CODES:
            try:
                report = json.loads(proc.stdout)
                status = report["status"]
            except (ValueError, KeyError):
                pass
        data = b""
        if out_path and os.path.exists(out_path):
            with open(out_path, "rb") as handle:
                data = handle.read()
        return proc.returncode, status, report, data, proc.stderr

    def verify(self, result, env) -> Verdict:
        code, status, report, data, stderr = result
        digest = cells.digest([str(code), str(status), data.decode(errors="replace")])
        if code not in CLI_EXIT_CODES:
            tail = stderr.strip().splitlines()[-1:] or [""]
            return Verdict([f"exit code {code}: {tail[0]}"], True, digest=digest)
        if (code, status) != self.expect:
            return Verdict([f"exit {code} status {status}, expected {self.expect}"], digest=digest)
        verdict = Verdict(digest=digest)
        if self.check is not None:
            self.check(report, data.decode(), verdict, env)
        return verdict

    def same(self, result, first) -> bool:
        return result[:2] == first[:2] and result[3] == first[3]


def _fill_check(n, k, words, strategy, known_min=None):
    def check(report, text, verdict, env):
        try:
            got_n, got_k, y = cells.parse_chain_text(text)
        except (ValueError, IndexError) as exc:
            verdict.problems.append(f"unreadable filling file: {exc}")
            return
        results = report["results"]
        optimal = bool(results.get("optimal"))
        if (got_n, got_k) != (n, k + 1) or results["filling_norm"] != len(y):
            verdict.problems.append("filling file header or norm disagrees with the report")
        verdict.problems += cells.check_filling(
            n, k, words, y, strategy, rel_tol=env.pkg.BOUND_REL_TOL,
            known_min=known_min, optimal=optimal,
        )
        verdict.fill_norm = len(y)
        verdict.optimal = optimal if strategy == "exact" else known_min == len(y)
    return check


def _verify_check(n, k, words):
    def check(report, text, verdict, env):
        r = report["results"]
        if (r["n"], r["k"], r["norm"], r["cycle"]) != (n, k, len(words), True):
            verdict.problems.append(f"verify reported {r}")
    return check


def _cycle_file_check(n, k, expected_words=None):
    def check(report, text, verdict, env):
        try:
            got_n, got_k, z = cells.parse_chain_text(text)
        except (ValueError, IndexError) as exc:
            verdict.problems.append(f"unreadable chain file: {exc}")
            return
        if (got_n, got_k) != (n, k) or cells.boundary(z):
            verdict.problems.append("generated chain is not a cycle of the requested shape")
        if report["results"]["norm"] != len(z):
            verdict.problems.append("reported norm disagrees with the file")
        if expected_words is not None and z != expected_words:
            verdict.problems.append("generated minimizer differs from the alternating-block cycle")
    return check


def _sparse_sum(rng, big_n, k, parts):
    """A sum of ``parts`` small cycles: an alternating-block cycle first,
    then alternately random and alternating-block ones, each moved by a
    random automorphism and injected into Q_big_n.  A random part is drawn
    again until no two of its cells share a face, so that its norm, and
    with it the cost of the fills, is the same for every seed."""
    z: set[str] = set()
    for i in range(parts):
        if i % 2 == 0:
            small = cells.minimizer(k + 3 + i // 2, k)
        else:
            small = cells.random_cycle(rng, k + 4, k, 3 + k)
            while len(small) < 2 * (k + 1) * (3 + k):
                small = cells.random_cycle(rng, k + 4, k, 3 + k)
        z ^= cells.embed(rng, small, big_n)
    return frozenset(z)


def dense_slice(rng):
    ops = []
    for n, k, generators in ((12, 1, 650), (11, 2, 400), (10, 3, 300)):
        z = cells.random_cycle(rng, n, k, generators)
        ops += [FillOp("linear", n, k, z), FillOp("recursive", n, k, z)]
    # an odd number of operations keeps the median latency inside one
    # operation's samples instead of between two
    ops.append(FillOp("linear", 12, 3, cells.minimizer(12, 3), known_min=comb(12, 4)))
    return ops, {}


def exact_search(rng):
    # The (6,2) minimizer and two fixed automorphic images of it, all out of
    # budget, are the slowest searches: the tail latency is theirs and does
    # not depend on the seed.
    big = cells.minimizer(6, 2)
    images = [cells.embed(random.Random(f"exact-search image {i}"), big, 6) for i in (1, 2)]
    ops = [FillOp("exact", 6, 2, z, 8_000, comb(6, 3)) for z in (big, *images)]
    for n, k in ((5, 1), (6, 3), (5, 2)):
        ops.append(FillOp("exact", n, k, cells.minimizer(n, k), 20_000, comb(n, k + 1)))
    # small random cycles whose searches complete, then larger ones that
    # exhaust their budget; the budget-bound searches are more than half of
    # the operations, so the median latency is one of theirs
    for n, k, generators, budget in (
        (5, 1, 10, 20_000), (6, 1, 10, 20_000), (5, 2, 5, 20_000), (6, 2, 8, 20_000),
        *[(6, 1, 30, 6_000)] * 8,
    ):
        ops.append(FillOp("exact", n, k, cells.random_cycle(rng, n, k, generators), budget))
    return ops, {}


def sparse_highdim(rng):
    ops = []
    for k in (1, 2, 3):
        # two sums of each shape, so that the median latency depends less
        # on which cells the seed picks
        for parts, big_n in ((1, 64), (2, 32), (3, 48), (4, 40)) * 2:
            z = _sparse_sum(rng, big_n, k, parts)
            known = comb(k + 3, k + 1) if parts == 1 else None
            ops += [FillOp(s, big_n, k, z, known_min=known) for s in ("linear", "recursive")]
    # an odd number of operations keeps the median latency inside one
    # operation's samples instead of between two: drop the recursive fill
    # of the single Q_64 1-cycle
    del ops[1]
    return ops, {}


def cli_files(rng):
    """Chain files for the CLI, plus the known-defect probe: an exact search
    deep enough to overflow the interpreter stack on a recursive search."""
    a = cells.random_cycle(rng, 10, 2, 300)
    b = _sparse_sum(rng, 32, 2, 4)
    c = cells.minimizer(5, 1)
    d = a - {min(a)}
    probe = cells.random_cycle(rng, 11, 1, 600)
    seed = rng.randrange(1 << 16)
    files = {"a.chain": (10, 2, a), "b.chain": (32, 2, b), "c.chain": (5, 1, c),
             "d.chain": (10, 2, d), "probe.chain": (11, 1, probe)}
    ops = [
        CliOp("fill linear a", ["fill", "a.chain", "--strategy", "linear"], len(a),
              check=_fill_check(10, 2, a, "linear"), output="a.chain.fill"),
        CliOp("fill recursive b", ["fill", "b.chain", "--strategy", "recursive"], len(b),
              check=_fill_check(32, 2, b, "recursive"), output="b.chain.fill"),
        CliOp("fill exact c", ["fill", "c.chain", "--strategy", "exact", "--budget", "20000"],
              len(c), check=_fill_check(5, 1, c, "exact", comb(5, 2)), output="c.chain.fill"),
        CliOp("verify a", ["verify", "a.chain"], len(a), check=_verify_check(10, 2, a)),
        CliOp("fill non-cycle d", ["fill", "d.chain"], len(d), expect=(2, "invalid-input")),
        # random enumerates every 2-cell of Q_10 to draw from
        CliOp("random", ["random", "10", "1", "--density", "0.02", "--seed", str(seed),
                         "--out", "r.chain"], comb(10, 2) << 8, check=_cycle_file_check(10, 1),
              output="r.chain"),
        CliOp("gen-minimizer", ["gen-minimizer", "10", "3", "--out", "m.chain"], 2 * comb(10, 3),
              check=_cycle_file_check(10, 3, cells.minimizer(10, 3)), output="m.chain"),
        CliOp("probe: fill exact on a large cycle",
              ["fill", "probe.chain", "--strategy", "exact", "--budget", "1200"], len(probe),
              check=_fill_check(11, 1, probe, "exact"), output="probe.chain.fill",
              known_defect=True),
    ]
    return ops, files


WORKLOADS = {
    "dense-slice": dense_slice,
    "exact-search": exact_search,
    "sparse-highdim": sparse_highdim,
    "cli-files": cli_files,
}


def build(name, seed, pkg, workdir):
    """The workload's operations, with their inputs made and files written."""
    ops, files = WORKLOADS[name](random.Random(f"{name}:{seed}"))
    for filename, (n, k, words) in files.items():
        with open(os.path.join(workdir, filename), "w", encoding="utf-8") as handle:
            handle.write(cells.chain_text(n, k, words))
    for op in ops:
        op.setup(pkg, workdir)
    return ops


def input_digest(ops, files_dir) -> str:
    parts = []
    for op in ops:
        parts.append(op.label)
        parts.extend(sorted(getattr(op, "words", ())) or op.argv)
    for filename in sorted(os.listdir(files_dir)):
        if filename.endswith(".chain"):
            with open(os.path.join(files_dir, filename), encoding="utf-8") as handle:
                parts.append(handle.read())
    return cells.digest(parts)
