"""Acceptance suite.

One test per acceptance criterion, each printing a single pass/fail line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them live).
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import random
import time
from fractions import Fraction
from functools import lru_cache
from math import comb

from cubefill import (
    Chain,
    c_constant,
    check_absorbed_cost,
    check_split_overhead,
    constants_for,
    enumerate_faces,
    exact_fill,
    face_count,
    leq_with_tolerance,
    linear_fill,
    minimizer_cycle,
    random_cycle,
    recursive_fill,
    sharpness_table,
)
from cubefill.minimizers import _minimizer_chain

BOUND_TOL = 1e-9
PREDICATE_TOL = 1e-12


def _criterion(number, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"criterion {number} {status}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


@lru_cache(maxsize=None)
def _pool(n, k):
    """All k-cells of Q_n, enumerated once per shape."""
    return enumerate_faces(n, k)


def _structural_corpus():
    """500 seeded random chains, n <= 10, k <= 4, with a prism coordinate each."""
    corpus = []
    for seed in range(500):
        rng = random.Random(seed)
        n = 2 + seed % 9
        k = min(1 + seed % 4, n - 1)
        pool = _pool(n, k)
        size = min(len(pool), 1 + rng.randrange(25))
        corpus.append((Chain(n, k, frozenset(rng.sample(pool, size))), 1 + seed % (n + 1)))
    return corpus


@lru_cache(maxsize=None)
def _cycle_corpus():
    """200 seeded random cycles, n <= 9, k <= 3."""
    corpus = []
    i = 0
    while len(corpus) < 200:
        n = 4 + i % 6
        k = 1 + i % 3
        pool = face_count(n, k + 1)
        target = 3 + (i * 7) % 22
        corpus.append(random_cycle(n, k, min(1.0, target / pool), i))
        i += 1
    return corpus


def test_criterion_1_structural_suite():
    start = time.perf_counter()
    failures = []
    for z, prism_coordinate in _structural_corpus():
        if z.boundary().boundary().norm != 0:
            failures.append(("dd", z))
        crossings = 0
        sides = 0
        for coordinate in range(1, z.n + 1):
            cut = z.slice(coordinate, 1)
            if cut.reassemble() != z:
                failures.append(("reassembly", z, coordinate))
            crossings += cut.z_zero.norm
            sides += 2 * (cut.z_plus.norm + cut.z_minus.norm)
        if crossings != z.k * z.norm:
            failures.append(("crossing-count", z))
        if sides != 2 * (z.n - z.k) * z.norm:
            failures.append(("overcount", z))
        lhs = z.prism(prism_coordinate).boundary()
        rhs = (
            z.boundary().prism(prism_coordinate)
            + z.inject(prism_coordinate, "fixed-0")
            + z.inject(prism_coordinate, "fixed-1")
        )
        if lhs != rhs:
            failures.append(("prism", z, prism_coordinate))
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        "boundary-squared, slice reassembly, prism and counting identities on 500 chains",
        not failures and elapsed < 10.0,
        f"{len(failures)} failures, {elapsed:.1f}s",
    )


def test_criterion_2_linear_inequality():
    violations = 0
    for z in _cycle_corpus():
        result = linear_fill(z)
        if result.filling.boundary() != z:
            violations += 1
        elif Fraction(result.filling.norm) > result.bound_certificate:
            violations += 1
    _criterion(
        2,
        "linear fill valid and within (n-k)/(2(k+1))*norm on 200 random cycles",
        violations == 0,
        f"{violations} violations",
    )


def test_criterion_3_linear_sharpness():
    mismatches = []
    for n in range(2, 11):
        for k in range(1, n):
            got = linear_fill(minimizer_cycle(n, k)).filling.norm
            if got != comb(n, k + 1):
                mismatches.append((n, k, got))
    spot = (
        linear_fill(minimizer_cycle(6, 2)).filling.norm == 20
        and linear_fill(minimizer_cycle(10, 3)).filling.norm == 210
    )
    _criterion(
        3,
        "linear fill of the extremal family equals C(n,k+1) exactly for 1 <= k < n <= 10",
        not mismatches and spot,
        f"{len(mismatches)} mismatches",
    )


ORACLE_CASES = [(2, 1), (3, 1), (4, 1), (3, 2), (4, 2), (5, 2), (4, 3)]


@lru_cache(maxsize=None)
def _oracle_value(n, k):
    """Completed exact fill weight of the (possibly degenerate) family member."""
    result = exact_fill(_minimizer_chain(n, k), 5_000_000)
    assert result.optimal, (n, k)
    return result.filling.norm


def test_criterion_4_oracle_scale_fill_values():
    start = time.perf_counter()
    wrong = [
        (n, k, _oracle_value(n, k))
        for n, k in ORACLE_CASES
        if _oracle_value(n, k) != comb(n, k + 1)
    ]
    elapsed = time.perf_counter() - start
    _criterion(
        4,
        "exact search returns C(n,k+1) on all seven oracle-scale family members",
        not wrong and elapsed < 60.0,
        f"{len(wrong)} wrong, {elapsed:.1f}s",
    )


def test_criterion_5_fill_recursion():
    broken = []
    for n, k in ORACLE_CASES:
        total = _oracle_value(n - 1, k - 1) + _oracle_value(n - 1, k)
        if _oracle_value(n, k) != total:
            broken.append((n, k))
    _criterion(
        5,
        "fill(n,k) = fill(n-1,k-1) + fill(n-1,k) on every oracle-completed triple",
        not broken,
        f"{len(broken)} broken triples",
    )


def test_criterion_6_dimension_free_inequality():
    violations = 0
    dominance_breaks = 0
    oracle_checked = 0
    for z in _cycle_corpus():
        result = recursive_fill(z)
        if result.filling.boundary() != z:
            violations += 1
            continue
        if not leq_with_tolerance(
            float(result.filling.norm), result.bound_certificate, BOUND_TOL
        ):
            violations += 1
            continue
        if z.n <= 5 and z.norm <= 20:
            oracle = exact_fill(z, 500_000)
            if oracle.optimal:
                oracle_checked += 1
                if oracle.filling.norm > result.filling.norm:
                    dominance_breaks += 1
                if oracle.filling.norm > linear_fill(z).filling.norm:
                    dominance_breaks += 1
    _criterion(
        6,
        "recursive fill valid and within c_k*norm^((k+1)/k) at 1e-9; oracle never beaten",
        violations == 0 and dominance_breaks == 0 and oracle_checked > 0,
        f"{violations} violations, {dominance_breaks} dominance breaks, "
        f"{oracle_checked} oracle comparisons",
    )


def test_criterion_7_scalar_inequality_predicates():
    counterexamples = 0

    # deterministic grids: 1000 points per predicate, every degree
    for k in range(1, 6):
        for i in range(25):
            x = i / 24.0
            for j in range(40):
                p = 1.5 * j / 39.0
                if not check_split_overhead(x, 1.0 - x, p, k, PREDICATE_TOL):
                    counterexamples += 1
    for k in range(2, 6):
        e = ((k + 1) / k) ** k
        for S in (1.0, 2.0, 5.0, 10.0, 25.0):
            for a in range(10):
                L = (a + 1) / 10.0
                limit = (e * S / (e + L**k)) ** ((k - 1) / k)
                for b in range(20):
                    x = limit * b / 19.0
                    if not check_absorbed_cost(S, x, L, k, PREDICATE_TOL):
                        counterexamples += 1

    # 1e5 seeded random samples per predicate
    rng = random.Random(140721)
    for i in range(100_000):
        k = 1 + i % 5
        x = rng.random()
        p = 1.5 * rng.random()
        if not check_split_overhead(x, 1.0 - x, p, k, PREDICATE_TOL):
            counterexamples += 1
    rng = random.Random(918273)
    for i in range(100_000):
        k = 2 + i % 4
        S = 1.0 + 49.0 * rng.random()
        L = rng.uniform(1e-3, 1.0)
        e = ((k + 1) / k) ** k
        limit = (e * S / (e + L**k)) ** ((k - 1) / k)
        if i % 3 == 0:
            x = float(rng.randrange(0, int(limit) + 1))  # whole-number costs
        else:
            x = limit * rng.random()
        if not check_absorbed_cost(S, x, L, k, PREDICATE_TOL):
            counterexamples += 1

    _criterion(
        7,
        "scalar inequality predicates hold on grids and 2e5 random samples at 1e-12",
        counterexamples == 0,
        f"{counterexamples} counterexamples",
    )


def test_criterion_8_constants():
    window_ok = True
    recurrence_ok = True
    for k in range(1, 13):
        lower, upper = constants_for(k).epsilon_window
        if lower > upper:
            window_ok = False
        step = 1.0 / (2.0 ** (1.0 / (k + 1)) - 1.0)
        if not math.isclose(c_constant(k), c_constant(k - 1) * step, rel_tol=1e-12):
            recurrence_ok = False
    growth = max(c_constant(k) / math.factorial(k) for k in range(1, 13))
    _criterion(
        8,
        "epsilon window non-empty for k <= 12, product recurrence holds, c_k/k! stays modest",
        window_ok and recurrence_ok and growth < 500.0,
        f"max c_k/k! = {growth:.1f}",
    )


def test_criterion_9_sharpness_asymptotics():
    start = time.perf_counter()
    within = all(
        abs(sharpness_table(k, [10_000])[0].quotient - 1.0) <= 0.02 for k in (1, 2, 3)
    )
    row = sharpness_table(1, [100])[0]
    exact = row.ratio == 4950 / 40000 == 0.12375 and row.asymptote == 0.125
    elapsed = time.perf_counter() - start
    _criterion(
        9,
        "fill/norm^((k+1)/k) ratio within 2% of its limit at n=10^4 for k in {1,2,3}",
        within and exact and elapsed < 1.0,
        f"{elapsed:.2f}s",
    )
