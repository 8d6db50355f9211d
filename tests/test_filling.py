import hashlib
import itertools
import random
import re
import sys
import tracemalloc
from fractions import Fraction
from functools import cache, partial, reduce
from math import comb
from operator import or_

import pytest

from cubefill import (
    BOUND_REL_TOL,
    DEFAULT_NODE_BUDGET,
    FillRefused,
    FillResult,
    Chain,
    c_constant,
    connected_components,
    constants_for,
    enumerate_faces,
    exact_fill,
    fill_bound_linear,
    fill_bound_power,
    format_chain_text,
    leq_with_tolerance,
    linear_fill,
    minimizer_cycle,
    minimizer_fill_value,
    parse_face,
    random_cycle,
    recursive_fill,
    support_subcube,
)
from cubefill import filling
from cubefill.faces import (
    Face, _boundary, _coboundary, _degree_codes, _free_at, _parse_word, _split, _words,
)
from cubefill.filling import (
    _components, _cut, _fill_zero_cycle, _linear_fill_chain, _lower_bound, _pin,
    _recursive_fill_chain, _slice_counts,
)

HEXAGON = Chain.from_words("*00", "*11", "0*1", "1*0", "00*", "11*")
CUBE_30_BOUNDARY = Chain.from_words("*" * 30).boundary()


def brute_force_fill_weight(z, max_weight):
    """Exhaustive minimum filling weight; independent of every fill engine."""
    cells = enumerate_faces(z.n, z.k + 1)
    for weight in range(max_weight + 1):
        for combo in itertools.combinations(cells, weight):
            if Chain(z.n, z.k + 1, frozenset(combo)).boundary() == z:
                return weight
    return None


def dumbbell():
    """Two bulky 2-cycles in opposite hyperfaces of Q_8 joined by a 4-edge tube."""
    cell = Chain.from_words("**00000")
    side_a = cell + random_cycle(7, 2, 0.1, 11)
    side_b = cell + random_cycle(7, 2, 0.1, 23)
    return side_a.inject(1, "fixed-1") + side_b.inject(1, "fixed-0") + cell.boundary().prism(1)


def lift(z, n, seed):
    """Move z into Q_n by inserting pinned coordinates at seeded positions."""
    rng = random.Random(seed)
    while z.n < n:
        z = z.inject(rng.randint(1, z.n + 1), rng.choice(("fixed-0", "fixed-1")))
    return z


def golden_corpus():
    for n in range(2, 8):
        for k in range(1, n):
            yield minimizer_cycle(n, k)
    for k in (1, 2, 3):
        for seed in range(3):
            yield random_cycle(6, k, 0.07, seed)
    # each of these reaches case 1 of the recursive engine
    yield random_cycle(8, 2, 0.01, 31)
    yield random_cycle(7, 3, 0.03, 30)
    # small cycles in big cubes, where most coordinates are inactive
    yield lift(minimizer_cycle(4, 2), 32, 1)
    yield lift(random_cycle(5, 3, 0.2, 4), 48, 2)
    yield lift(random_cycle(6, 2, 0.05, 6), 40, 3) + lift(minimizer_cycle(4, 2), 40, 4)
    yield lift(minimizer_cycle(5, 3), 64, 5) + lift(minimizer_cycle(5, 3), 64, 6)
    yield dumbbell()


# sha256 over the linear and recursive filling files of golden_corpus().
# Filling files are the behaviour contract: a refactor of the engines must
# leave this digest unchanged, or say why it changes.
GOLDEN_FILLINGS_SHA256 = "b92202a7eb5b6f7d424b21e61fbc2b5f2b9c940235a764ff31391cc2f65eec0d"


def test_golden_fillings_are_unchanged():
    digest = hashlib.sha256()
    for z in golden_corpus():
        assert z.is_cycle()
        digest.update(format_chain_text(linear_fill(z).filling).encode())
        digest.update(format_chain_text(recursive_fill(z).filling).encode())
    assert digest.hexdigest() == GOLDEN_FILLINGS_SHA256


def exact_corpus():
    yield minimizer_cycle(6, 2), 8_000
    for n, k in ((5, 1), (6, 3), (5, 2)):
        yield minimizer_cycle(n, k), DEFAULT_NODE_BUDGET
    for seed in range(1, 5):
        yield random_cycle(6, 1, 0.25, seed=seed), 6_000
    yield random_cycle(10, 1, 0.08, seed=1), 1_100


# sha256 over (filling file, nodes_explored, optimal) of each exact search in
# exact_corpus().  The search's branch order and budget abort are part of the
# contract: a faster search must reach the same nodes in the same order.
GOLDEN_EXACT_SHA256 = "2242fc7061e427a35c72cea42dcb14fab8237a4c35fc37a9161d14059feb0561"


def test_golden_exact_searches_are_unchanged():
    digest = hashlib.sha256()
    for z, budget in exact_corpus():
        result = exact_fill(z, budget)
        assert result.filling.boundary() == z
        digest.update(format_chain_text(result.filling).encode())
        digest.update(f"{result.nodes_explored} {result.optimal}\n".encode())
    assert digest.hexdigest() == GOLDEN_EXACT_SHA256


def lifted_sums():
    """A small random cycle plus a small minimizer, both moved into Q_33 or Q_64."""
    for n in (33, 64):
        for seed, k in enumerate((1, 2, 3)):
            yield lift(random_cycle(6, k, 0.05, seed), n, seed) + lift(
                minimizer_cycle(k + 2, k), n, seed + 10
            )


def sparse_sums(count, seed=0, dims=(33, 64)):
    """Seeded sums of 2-4 small cycles of one degree k = 1-3, random or alternating-block, each
    moved by a coordinate permutation and a reflection, then pinned into Q_N, N in ``dims`` (both
    ends, at least 6; 33..64 unless given), at seeded positions and values: many coordinates
    separate the parts, and no face crosses them."""
    rng = random.Random(seed)
    for _ in range(count):
        n, k = rng.randint(*dims), rng.randint(1, 3)
        z = Chain(n, k)
        for _ in range(rng.randint(2, 4)):
            m = rng.randint(k + 1, 6)
            if rng.random() < 0.5:
                part = minimizer_cycle(m, k)
            else:
                part = random_cycle(m, k, 0.15, rng.randrange(1 << 16))
            part = reflected(permuted(part, rng.sample(range(m), m)), rng.choices((0, 1), k=m))
            z += lift(part, n, rng.randrange(1 << 16))
        yield z


def small_cycles():
    yield HEXAGON
    yield Chain.from_words("**").boundary()
    for seed in range(6):
        yield random_cycle(4, 1, 0.12, seed)
    for seed in range(4):
        yield random_cycle(4, 2, 0.25, seed)
    for seed in range(4):
        yield random_cycle(3, 1, 0.3, seed)


class TestLinearFill:
    def test_square_base_case(self):
        z = Chain.from_words("**").boundary()
        result = linear_fill(z)
        assert result.filling == Chain.from_words("**")
        assert result.bound_certificate == Fraction(1)
        assert result.strategy == "linear"

    def test_empty_cycle(self):
        result = linear_fill(Chain(4, 2))
        assert result.filling == Chain(4, 3)

    def test_hexagon(self):
        result = linear_fill(HEXAGON)
        assert result.filling.boundary() == HEXAGON
        assert result.filling.norm == 3
        assert result.bound_certificate == Fraction(3)
        # the exact oracle confirms 3 is the minimum
        assert exact_fill(HEXAGON).filling.norm == 3

    def test_minimizer_6_2_is_tight(self):
        z = minimizer_cycle(6, 2)
        result = linear_fill(z)
        assert z.norm == 30
        assert result.filling.norm == 20
        assert result.bound_certificate == Fraction(20)

    def test_rejects_non_cycles(self):
        with pytest.raises(ValueError, match="not a cycle"):
            linear_fill(Chain.from_words("*00"))

    def test_random_cycles_valid_and_bounded(self):
        for seed in range(25):
            z = random_cycle(6, 1 + seed % 3, 0.07, seed)
            result = linear_fill(z)
            assert result.filling.boundary() == z
            assert Fraction(result.filling.norm) <= result.bound_certificate

    def test_degree_zero_even_vertex_set(self):
        z = Chain.from_words("000", "011", "101", "110")
        result = linear_fill(z)
        assert result.filling.boundary() == z
        assert Fraction(result.filling.norm) <= result.bound_certificate

    def test_degree_zero_odd_vertex_set_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            linear_fill(Chain.from_words("000", "011", "101"))

    def test_lone_vertex_of_q0_rejected(self):
        # the one nonempty cycle of top degree: a single vertex, odd in size
        z = Chain(0, 0, frozenset({Face(0, 0, 0)}))
        assert z.is_cycle()
        with pytest.raises(ValueError, match="a vertex chain of odd size has no filling"):
            linear_fill(z)


def reference_linear_fill_chain(z, n, live, out):
    """The linear engine as one recursion per level, counting every live coordinate."""
    if not z:
        return
    k = (next(iter(z)) >> n).bit_count()
    if k == 0:
        return _fill_zero_cycle(z, n, out)
    d = live.bit_count()
    if d == k + 1:
        # in a (k+1)-cell the only nonempty k-cycle is the cell's boundary
        cell = live << n | next(iter(z)) & ~live & ((1 << n) - 1)
        assert z == _boundary(cell, n)
        out ^= {cell}
        return
    # The cut minimizing the exact inductive cost in the d-dimensional live
    # cell, pushed + (d-k-1)/(2(k+1)) * (ones + zeros), scaled by 2(k+1) to
    # stay in integers.  Ties go to the lowest coordinate, then plus = 1.
    _, bit, flip = min(
        (2 * (k + 1) * pushed + (d - k - 1) * (ones + zeros), bit, flip)
        for bit, ones, zeros, _ in _slice_counts(z, n, live)[0]
        for flip, pushed in ((0, ones), (1, zeros))
    )
    rest = TestSlicePasses.pin_cut(z, n, bit, 1 - flip, out)
    reference_linear_fill_chain(rest, n, live & ~bit, out)


class TestLinearEngineAgainstItsReference:
    """The engine counts only the coordinates that still vary, plus the lowest
    other live one; the reference counts every live coordinate at every level."""

    @staticmethod
    def assert_same_filling(z):
        full = (1 << z.n) - 1
        got, expected = set(), set()
        _linear_fill_chain(z.codes, z.n, full, got)
        reference_linear_fill_chain(z.codes, z.n, full, expected)
        assert got == expected, z

    def test_random_cycles(self):
        for n in range(3, 9):
            for k in range(min(n, 4)):
                for seed in range(3):
                    self.assert_same_filling(random_cycle(n, k, (0.02, 0.06, 0.15)[seed], seed))

    def test_lifted_sums(self):
        for z in lifted_sums():
            self.assert_same_filling(z)

    def test_cuts_that_push_nothing(self, monkeypatch):
        cuts = []

        def recording(z, n, bit, *rest):
            cuts.append(bit)
            return _cut(z, n, bit, *rest)

        monkeypatch.setattr("cubefill.filling._cut", recording)
        # both squares lie in the facet where coordinate 1 is 0, on opposite
        # sides of coordinate 2: the best first cut is coordinate 1, which
        # does not vary, so nothing is pushed across it
        squares = Chain.from_words("00**").boundary() + Chain.from_words("01**").boundary()
        self.assert_same_filling(squares)
        assert cuts[0] == 1
        squares = Chain.from_words("000**").boundary() + Chain.from_words("1**00").boundary()
        self.assert_same_filling(squares)
        # a 1-cycle in the same facet of Q_6: the first cut pushes one edge
        # across coordinate 5, and then coordinate 1, outside the counted
        # mask since the first level, is the best cut
        cuts.clear()
        self.assert_same_filling(Chain.from_words(
            "0*0111", "0*1011", "00*110", "00011*", "001*11", "00111*",
            "01*100", "0101*0", "01011*", "011*10", "01101*", "0111*0",
        ))
        assert cuts[:2] == [1 << 4, 1]

    def test_top_cell_boundaries(self):
        for word in ("**", "*0*", "1**0", "0*1*0*", "***1", "01**0*1*"):
            self.assert_same_filling(Chain.from_words(word).boundary())

    def test_counts_only_the_varying_coordinates_after_the_first_level(self, monkeypatch):
        calls = self.record_counts(monkeypatch)
        z = lift(minimizer_cycle(4, 2), 64, 1)
        linear_fill(z)
        masks = [live for _, _, live, _ in calls]
        # the first level counts the four coordinates some face crosses, not all of Q_64, and
        # the next the three of them that still vary; no cut costs (d-k-1) * |z| or more, so
        # no level counts the other 60
        assert masks[0] == reduce(or_, map(z.n.__rrshift__, z.codes))
        assert [mask.bit_count() for mask in masks] == [4, 3] and masks[1] & ~masks[0] == 0

    @staticmethod
    def record_counts(monkeypatch):
        """Log each count the engine makes as (z, n, live, packing)."""
        calls = []

        def recording(z, n, live, packing=None):
            calls.append((z, n, live, packing))
            return _slice_counts(z, n, live, packing)

        monkeypatch.setattr("cubefill.filling._slice_counts", recording)
        return calls

    def test_uncrossed_coordinates_count_when_no_crossed_cut_is_cheaper(self, monkeypatch):
        calls = self.record_counts(monkeypatch)
        # each coordinate the squares cross costs 2 * 2 * 2 + 2 * 4 = 16 = (d-k-1) * |z|, so
        # coordinates 1 and 2, which separate the squares and which no face crosses, are
        # counted too, in a second call off the same packing
        squares = Chain.from_words("00**").boundary() + Chain.from_words("11**").boundary()
        self.assert_same_filling(squares)
        assert [live for _, _, live, _ in calls[:2]] == [0b1100, 0b0011]
        assert calls[1][3] is calls[0][3]

    def test_a_coordinate_where_nothing_varies_wins_a_tie_at_the_bound(self, monkeypatch):
        cuts = []

        def recording(packing, n, bit, *rest):
            cuts.append(bit)
            return _cut(packing, n, bit, *rest)

        monkeypatch.setattr("cubefill.filling._cut", recording)
        # d = 7, k = 1, |z| = 14: coordinates 4, 5 and 7 cost 2 * 2 * 5 + 5 * 10 = 70 =
        # (d-k-1) * |z|, and so does coordinate 3, which every face pins to 0; it is counted only
        # when no crossed cut costs less, and as the lowest of them it is the first cut
        z = Chain.from_words(
            "*100001", "*101100", "010*000", "010000*", "0101*00", "100*010", "100*111",
            "1000*10", "100011*", "1001*11", "100101*", "110*101", "1100*01", "110110*",
        )
        self.assert_same_filling(z)
        assert cuts[0] == 1 << 2

    @pytest.mark.parametrize("dims", [(33, 64), (6, 9)])
    def test_sparse_sums(self, monkeypatch, dims):
        calls = self.record_counts(monkeypatch)
        for z in sparse_sums(60, 1, dims):
            self.assert_same_filling(z)
        # a level's first count reads a new packing; a second one counts the uncrossed coordinates
        levels = [call for i, call in enumerate(calls) if not i or call[3] is not calls[i - 1][3]]
        # some level leaves uncounted a coordinate that varies there, so separates parts
        assert any(
            ones and zeros and not bit & live
            for z, n, live, _ in levels for bit, ones, zeros, _ in _slice_counts(z, n, (1 << n) - 1)[0]
        )
        if dims == (6, 9):
            # in small cubes some level finds no crossed cut below (d-k-1) * |z| and counts them
            assert len(levels) < len(calls)


class TestRecursiveFill:
    def test_single_cell_boundary(self):
        # the boundaries of the k-cells for k = 2..8, and one lifted into Q_64
        cells = [Chain.from_words("*" * k) for k in range(2, 9)]
        cells.append(lift(Chain.from_words("*****"), 64, 3))
        for cell in cells:
            for fill in (linear_fill, recursive_fill):
                result = fill(cell.boundary())
                assert result.filling == cell
                assert result.filling.norm <= result.bound_certificate

    def test_no_slice_of_a_cell_boundary_is_a_case_candidate(self):
        # the boundary of a (k+1)-cell has 2(k+1) faces and crosses 2k at every
        # slice, never below the case threshold, so case 3 hands it to the
        # linear engine, which fills it with the cell: no top-cell exit is needed
        for k in range(2, 65):
            assert 2 * k >= constants_for(k).epsilon * (2 * (k + 1)) ** ((k - 1) / k)

    def test_hexagon(self):
        result = recursive_fill(HEXAGON)
        assert result.filling.boundary() == HEXAGON
        assert result.bound_certificate == pytest.approx(c_constant(1) * 36)

    def test_separated_pair_splits(self):
        # two cell boundaries on opposite sides of coordinate 1, far apart:
        # the crossing-free slice must split them and fill each with one cell
        z = Chain.from_words("0***000").boundary() + Chain.from_words("1000***").boundary()
        result = recursive_fill(z)
        assert result.filling.norm == 2
        assert result.filling.boundary() == z

    def test_disconnected_degree_one(self):
        z = Chain.from_words("**00").boundary() + Chain.from_words("**11").boundary()
        result = recursive_fill(z)
        assert result.filling.boundary() == z
        assert result.filling.norm == 2

    def test_random_cycles_valid_and_bounded(self):
        for seed in range(25):
            z = random_cycle(7, 1 + seed % 3, 0.04, seed)
            result = recursive_fill(z)
            assert result.filling.boundary() == z
            assert leq_with_tolerance(float(result.filling.norm), result.bound_certificate)

    def test_dumbbell_forces_a_filled_crossing(self):
        # Two bulky 2-cycles in opposite hyperfaces of Q_8, joined by a thin
        # 4-edge tube.  The coordinate-1 slice then has the strictly smallest
        # crossing (norm 4) with both sides above the small-side threshold,
        # so the filler must fill the crossing one degree down and cap it
        # with its prism.  The preconditions are asserted so a change to the
        # slice selection rule cannot silently reroute the test.
        z = dumbbell()
        assert z.is_cycle()

        consts = constants_for(2)
        cut = z.slice(1, 1)
        assert cut.z_zero.norm == 4
        assert min(cut.z_plus.norm, cut.z_minus.norm) > consts.delta * 4.0**2
        assert 4 < consts.epsilon * z.norm**0.5
        assert all(z.slice(c, 1).z_zero.norm > 4 for c in range(2, 9))

        result = recursive_fill(z)
        assert result.filling.boundary() == z
        assert leq_with_tolerance(float(result.filling.norm), result.bound_certificate)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="power-law"):
            recursive_fill(Chain.from_words("00", "11"))

    def test_heavily_crossed_cycle_falls_back_to_the_linear_fill(self):
        # every slice of this cycle crosses at least epsilon * norm^(1/2)
        # of it, which forces the linear fallback; the slice counting
        # identity then guarantees the cycle is large enough for the
        # linear certificate to sit under the power certificate
        z = minimizer_cycle(4, 2)
        eps = constants_for(2).epsilon
        threshold = eps * z.norm**0.5
        crossings = [z.slice(c, 1).z_zero.norm for c in range(1, 5)]
        assert all(x >= threshold for x in crossings)
        assert sum(crossings) == 2 * z.norm
        assert z.norm ** (1 / 2) >= (4 / 2) * eps
        result = recursive_fill(z)
        assert result.filling == linear_fill(z).filling
        assert result.filling.norm <= result.bound_certificate

    def test_rejects_non_cycles(self):
        with pytest.raises(ValueError, match="not a cycle"):
            recursive_fill(Chain.from_words("**0"))

    def test_component_fillings_are_summed_not_merged(self):
        # Both cycles have components with no vertex in common whose linear
        # fillings share cells.  random_cycle(6, 1, 0.1, 251) is a 58-edge
        # component and a square, both of whose fillings hold 011*1*; three
        # copies of it and two more squares sit at distinct values of four
        # appended coordinates.  In random_cycle(7, 1, 0.05, 3375) the
        # component filled later shares a cell it pushed across a cut.
        pair = random_cycle(6, 1, 0.1, 251)
        copies = Chain(10, 1)
        for tail in ("0000", "1111", "0110"):
            part = pair
            for value in tail:
                part = part.inject(part.n + 1, f"fixed-{value}")
            copies = copies + part
        for tail in ("1000", "0100"):
            copies = copies + Chain.from_words("**0000" + tail).boundary()
        for z, count in ((copies, 8), (random_cycle(7, 1, 0.05, 3375), 6)):
            components = _components(z.codes, z.n)
            assert len(components) == count
            fillings = []
            for component in components:
                filling: set[int] = set()
                cell = support_subcube(Chain._of(z.n, z.k, component))
                _linear_fill_chain(component, z.n, cell.free_mask, filling)
                fillings.append(frozenset(filling))
            assert any(a & b for a, b in itertools.combinations(fillings, 2))
            expected: frozenset[int] = frozenset()
            for filling in fillings:
                expected ^= filling
            result = recursive_fill(z)
            assert result.filling.codes == expected
            assert result.filling.boundary() == z


def unreachable_ranking(n, k):
    raise AssertionError(f"the {k}-faces of Q_{n} were ranked")


class TestExactFill:
    def test_single_cell(self):
        z = Chain.from_words("***").boundary()
        result = exact_fill(z)
        assert result.filling.norm == 1
        assert result.optimal

    def test_hexagon_weight(self):
        result = exact_fill(HEXAGON)
        assert result.filling.norm == 3
        assert result.optimal
        assert result.bound_certificate == 3

    def test_minimizer_values(self):
        assert exact_fill(minimizer_cycle(4, 2)).filling.norm == 4
        assert exact_fill(minimizer_cycle(4, 1)).filling.norm == 6

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            exact_fill(HEXAGON, 0)

    def test_empty_chains(self):
        # degree -1 marks the empty boundary of a vertex chain
        for z in (Chain(3, -1), Chain(4, 1), Chain(2, 2)):
            result = exact_fill(z)
            assert result.filling == Chain(z.n, z.k + 1)
            assert result.optimal
            assert result.nodes_explored == 0
            assert result.lower_bound == 0

    def test_proves_the_14_7_minimizer_at_the_root(self, monkeypatch):
        # the slicing bound meets the linear seed, C(14, 8) cells, before any node,
        # and no search runs, so no face is ranked and no table read, warm or cold
        monkeypatch.setattr(filling, "_degree_codes", unreachable_ranking)
        monkeypatch.setattr(filling, "_ranked", unreachable_ranking)
        result = exact_fill(minimizer_cycle(14, 7))
        assert (result.optimal, result.nodes_explored, result.lower_bound) == (True, 0, 3003)
        assert result.filling.norm == minimizer_fill_value(14, 7) == 3003

    def test_tiny_budget_still_returns_valid_filling(self):
        # the linear seed (6 cells) is above the slicing bound (5), so the
        # search must run to prove it optimal
        z = random_cycle(4, 1, 0.3, seed=2)
        result = exact_fill(z, 2)
        assert not result.optimal
        assert result.filling.boundary() == z

    def test_agrees_with_brute_force(self):
        for z in small_cycles():
            result = exact_fill(z)
            assert result.optimal
            assert result.filling.boundary() == z
            expected = brute_force_fill_weight(z, result.filling.norm)
            assert expected == result.filling.norm

    def test_dominates_constructive_fills(self):
        for z in small_cycles():
            best = exact_fill(z)
            assert best.optimal
            assert best.filling.norm <= linear_fill(z).filling.norm
            if z.k >= 1:
                assert best.filling.norm <= recursive_fill(z).filling.norm

    def test_deep_search_does_not_overflow_the_stack(self):
        # the bound cannot prune until the path nears the linear seed's 1721
        # cells, so the first dive runs deeper than the recursion limit
        z = random_cycle(10, 1, 0.08, seed=1)
        result = exact_fill(z, 1100)
        assert (result.filling.norm, result.optimal, result.nodes_explored) == (1721, False, 1101)
        assert result.lower_bound == 523
        assert result.filling.boundary() == z

    def test_best_filling_improves_during_the_search(self):
        # the linear seed has 11 cells; the search finds 9, and judges the
        # children it meets after that against 9
        z = random_cycle(5, 1, 0.12, 3)
        assert linear_fill(z).filling.norm == 11
        result = exact_fill(z)
        assert result.filling.boundary() == z
        assert (result.filling.norm, result.optimal, result.nodes_explored) == (9, True, 262)
        assert result.lower_bound == 7

    def test_budget_runs_out_at_one_past_the_budget(self):
        z = random_cycle(6, 1, 0.25, 1)
        result = exact_fill(z, 500)
        assert result.filling.boundary() == z
        assert (result.filling.norm, result.optimal, result.nodes_explored) == (57, False, 501)
        assert result.lower_bound == 26

    def test_deep_search_keeps_one_residual(self):
        # a copy of the residual in each of the 1,100 frames of the first
        # dive would hold ~140 MB; one residual updated in place stays small
        z = random_cycle(10, 1, 0.08, seed=1)
        tracemalloc.start()
        try:
            result = exact_fill(z, 1100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.nodes_explored == 1101
        assert result.filling.norm == 1721
        assert peak < 16 * 2**20

    def test_deep_search_sorts_the_residual_rarely(self, monkeypatch):
        # Q_10 has 5,120 1-faces, above the rule, so the residual is a set and the
        # branch face is the first of a short sorted prefix of it, kept up to
        # date cell by cell: over 1,100 nodes the module sorts once
        # at the root and 17 times when the prefix ran empty (the cycle check
        # sorts only a boundary it refuses)
        calls = []

        def counting_sorted(values):
            calls.append(len(values))
            return sorted(values)

        monkeypatch.setattr(filling, "sorted", counting_sorted, raising=False)
        result = exact_fill(random_cycle(10, 1, 0.08, seed=1), 1100)
        assert result.nodes_explored == 1101
        assert len(calls) == 18

    def test_searches_cubes_of_the_full_width(self):
        # four live coordinates spread over Q_64, the rest pinned: face ranks
        # here run far past any machine word, so the search must not index by them
        positions = (0, 21, 42, 63)
        background = ["1" if i % 3 else "0" for i in range(64)]

        def spread(face):
            word = background[:]
            for position, symbol in zip(positions, str(face)):
                word[position] = symbol
            return "".join(word)

        z = Chain.from_words(*(spread(f) for f in random_cycle(4, 1, 0.3, seed=2).support))
        result = exact_fill(z, 3000)
        assert result.filling.boundary() == z
        assert result.filling.norm == 6
        assert result.lower_bound == 5
        assert result.optimal
        assert result.nodes_explored == 439

    def test_node_counts_are_deterministic(self):
        z = minimizer_cycle(4, 1)
        first = exact_fill(z)
        second = exact_fill(z)
        assert first.nodes_explored == second.nodes_explored
        assert first.filling == second.filling


def reference_exact_search(z, node_budget):
    """The exact search applying each child before judging it, as one node of
    the loop; returns (filling codes, nodes_explored, optimal, lower_bound)."""
    n = z.n
    best_cells = set()
    _linear_fill_chain(z.codes, n, (1 << n) - 1, best_cells)
    best_weight = len(best_cells)
    denominator = 2 * (z.k + 1)
    bound = -(-z.norm // denominator)
    if best_weight > bound:
        bound = _lower_bound(z.codes, n, node_budget + z.norm)

    cell_boundary = cache(partial(_boundary, n=n))
    face_coboundary = cache(partial(_coboundary, n=n))
    residual = set(z.codes)
    chosen = set()
    excluded = set()
    nodes = 0
    stack = []
    while best_weight > bound:
        nodes += 1
        if nodes > node_budget:
            break
        weight = len(chosen)
        if not residual:
            if weight < best_weight:
                best_weight = weight
                best_cells = set(chosen)
        elif weight + -(-len(residual) // denominator) < best_weight:
            cells = face_coboundary(min(residual))
            options = [cell for cell in cells if cell not in chosen and cell not in excluded]
            stack.append((options, 0))
        # Back up to the deepest node with an untried cell and branch on it.
        while stack:
            options, tried = stack.pop()
            if tried:
                cell = options[tried - 1]
                chosen.remove(cell)
                excluded.add(cell)
                residual ^= cell_boundary(cell)
            if tried < len(options):
                cell = options[tried]
                stack.append((options, tried + 1))
                chosen.add(cell)
                residual ^= cell_boundary(cell)
                break
            excluded.difference_update(options)
        if not stack:
            break
    return frozenset(best_cells), nodes, nodes <= node_budget, bound


class TestExactSearchAgainstItsReference:
    """The search judges each child from its parent by the residual faces its
    boundary clears, and applies only the children that can still beat the
    best filling; the reference applies every child and judges it there."""

    @staticmethod
    def assert_same_search(z, node_budget):
        result = exact_fill(z, node_budget)
        got = (result.filling.codes, result.nodes_explored, result.optimal, result.lower_bound)
        assert got == reference_exact_search(z, node_budget), (z, node_budget)
        return result

    def test_exact_corpus(self):
        for z, budget in exact_corpus():
            self.assert_same_search(z, budget)

    def test_small_and_bound_corpora(self):
        # bound_corpus() starts with small_cycles()
        for z in bound_corpus():
            self.assert_same_search(z, 2_000)

    def test_known_optima(self):
        for z, _ in known_optima():
            self.assert_same_search(z, 2_000)

    def test_every_budget_cut(self):
        # the cut lands inside runs of judged siblings, on the leaf that
        # improves the best filling, and after it
        z = random_cycle(5, 1, 0.12, 3)
        for budget in range(1, 301):
            self.assert_same_search(z, budget)

    # On sets, exact_fill branches on the first face of a sorted prefix of the
    # residual, the reference on min(residual).  Each input below drives every
    # upkeep of that prefix when run on sets: a refill when it runs empty below
    # the root, a face entering below its last one, a face leaving it, and faces
    # above it left out.  The rule ranks all three, so they drive that upkeep in
    # TestExactSearchOnSetsAgainstItsReference; the 1,100-level dive of
    # random_cycle(10, 1, 0.08, seed=1) in exact_corpus() runs on sets under the rule.

    def test_degree_zero_cycle(self):
        # each cell is an edge: a vertex leaves the residual, its neighbour
        # enters or leaves it
        self.assert_same_search(random_cycle(6, 0, 0.2, seed=1), 2_000)

    def test_every_budget_cut_of_a_two_cycle(self):
        z = random_cycle(6, 2, 0.12, seed=2)
        for budget in range(1, 301):
            self.assert_same_search(z, budget)


class TestExactSearchOnSetsAgainstItsReference(TestExactSearchAgainstItsReference):
    """The same searches with every cube's residual a set of codes."""

    @pytest.fixture(autouse=True)
    def every_cube_on_sets(self, monkeypatch):
        monkeypatch.setattr(filling, "_RANKED", 0)


class TestExactSearchRankedAgainstItsReference(TestExactSearchAgainstItsReference):
    """The same searches with every cube's residual one int over its ranked faces:
    all of these inputs lie in cubes of n <= 10, under 2^16 faces."""

    @pytest.fixture(autouse=True)
    def every_cube_ranked(self, monkeypatch):
        monkeypatch.setattr(filling, "_RANKED", 1 << 16)


class TestResidualRule:
    """Which encoding the exact search picks: ranked while Q_n has at most
    ``filling._RANKED`` k-faces and a search runs, else sets."""

    assert_same_search = staticmethod(TestExactSearchAgainstItsReference.assert_same_search)

    def test_an_input_the_rule_sends_to_sets(self):
        # Q_12 has 24,576 1-faces, far above the rule
        self.assert_same_search(lift(random_cycle(6, 1, 0.25, 1), 12, 3), 2_000)

    def test_the_rule_ranks_q10_vertices_and_not_q11_vertices(self, monkeypatch):
        # 2^10 vertices sit at the rule and are ranked; 2^11 stay sets.  Both searches run,
        # on tables cleared first, so an earlier (10, 0) search cannot hide the ranking.
        filling._ranked.cache_clear()
        ranked = []

        def spy(n, k):
            ranked.append((n, k))
            return _degree_codes(n, k)

        monkeypatch.setattr(filling, "_degree_codes", spy)
        for z in (random_cycle(10, 0, 0.006, 2), random_cycle(11, 0, 0.003, 1)):
            assert self.assert_same_search(z, 500).nodes_explored == 501
        assert ranked == [(10, 0)]

    def test_a_ranked_search_peaks_no_higher_than_on_sets(self, monkeypatch):
        # at the rule's edge, 2^10 vertices: the ranking and the int boundaries it
        # caches take less than the sets and sorted prefixes they replace, measured
        # on tables cleared first, so the ranked peak includes building them
        filling._ranked.cache_clear()
        z = random_cycle(10, 0, 0.006, 2)
        results, peaks = [], []
        for rule in (filling._RANKED, 0):
            monkeypatch.setattr(filling, "_RANKED", rule)
            tracemalloc.start()
            try:
                results.append(exact_fill(z, 5_000))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert results[0] == results[1]
        assert (results[0].filling.norm, results[0].nodes_explored) == (88, 5_001)
        assert (results[0].optimal, results[0].lower_bound) == (False, 30)
        assert peaks[0] <= peaks[1]


class TestRankedTablesPerShape:
    """A ranked search reads the tables of its cube shape (n, k), built once for the
    process by ``filling._ranked`` and filled as searches ask."""

    assert_same_search = staticmethod(TestExactSearchAgainstItsReference.assert_same_search)

    def test_a_second_search_of_a_shape_ranks_no_face(self, monkeypatch):
        self.assert_same_search(random_cycle(6, 1, 0.25, 1), 500)
        monkeypatch.setattr(filling, "_degree_codes", unreachable_ranking)
        assert self.assert_same_search(random_cycle(6, 1, 0.25, 2), 500).nodes_explored == 501

    @pytest.mark.parametrize("rule", [filling._RANKED, 0])
    def test_searches_of_mixed_shapes_on_warm_tables(self, monkeypatch, rule):
        # each shape comes back after another's search has filled its own tables
        monkeypatch.setattr(filling, "_RANKED", rule)
        for z, budget in (
            (random_cycle(6, 1, 0.25, 1), 500), (random_cycle(5, 1, 0.12, 3), 2_000),
            (random_cycle(6, 2, 0.12, 2), 300), (random_cycle(6, 1, 0.25, 2), 500),
            (random_cycle(5, 1, 0.3, 1), 2_000),
        ):
            assert self.assert_same_search(z, budget).nodes_explored > 0


# a crossing budget that no input in these tests reaches
ALL_CROSSINGS = 1 << 30


def bound_corpus():
    yield from small_cycles()
    for n in range(3, 7):
        for k in range(1, min(4, n - 1) + 1):
            for seed in range(5):
                yield random_cycle(n, k, (k + 1) * 1.5 / 2**n, seed)


def permuted(z, order):
    return Chain.from_words(*("".join(str(f)[i] for i in order) for f in z.support), n=z.n, k=z.k)


def reflected(z, flips):
    swap = str.maketrans("01", "10")
    words = (
        "".join(c.translate(swap) if flip else c for c, flip in zip(str(f), flips))
        for f in z.support
    )
    return Chain.from_words(*words, n=z.n, k=z.k)


class TestLowerBound:
    def test_never_exceeds_a_completed_search(self, monkeypatch):
        # with the slicing bound switched off the search proves optimality by
        # the trivial per-node bound alone, independently of the bound tested
        monkeypatch.setattr("cubefill.filling._lower_bound", lambda codes, n, budget: 0)
        completed = tight = 0
        for z in bound_corpus():
            result = exact_fill(z, 20_000)
            if z.norm and result.optimal:
                completed += 1
                bound = _lower_bound(z.codes, z.n, ALL_CROSSINGS)
                assert bound <= result.filling.norm, z
                tight += bound == result.filling.norm
        assert completed >= 60 and tight >= 45

    def test_meets_the_minimizer_fill_values(self):
        for n in range(2, 13):
            for k in range(1, n):
                z = minimizer_cycle(n, k)
                assert _lower_bound(z.codes, n, ALL_CROSSINGS) == minimizer_fill_value(n, k)

    def test_invariant_under_cube_symmetries(self):
        rng = random.Random(5)
        cycles = [minimizer_cycle(6, 2), lift(minimizer_cycle(4, 2), 9, 2), dumbbell()]
        cycles += [random_cycle(6, k, 0.1, seed) for k in (1, 2, 3) for seed in (1, 2)]
        for z in cycles:
            bound = _lower_bound(z.codes, z.n, ALL_CROSSINGS)
            order = rng.sample(range(z.n), z.n)
            flips = [rng.random() < 0.5 for _ in range(z.n)]
            for image in (permuted(z, order), reflected(z, flips)):
                assert image.is_cycle()
                assert _lower_bound(image.codes, z.n, ALL_CROSSINGS) == bound

    def test_degree_zero_pairs_each_vertex_with_its_nearest(self):
        for words, bound in ((("000", "111"), 3), (("0000", "0001", "1110", "1111"), 2)):
            z = Chain.from_words(*words)
            assert _lower_bound(z.codes, z.n, ALL_CROSSINGS) == bound
            assert brute_force_fill_weight(z, bound) == bound
        rng = random.Random(3)
        for d, size in ((4, 6), (8, 40), (10, 200), (12, 30)):
            z = Chain.from_words(*(format(v, f"0{d}b") for v in rng.sample(range(1 << d), size)))
            nearest = sum(min((v ^ u).bit_count() for u in z.codes if u != v) for v in z.codes)
            assert _lower_bound(z.codes, d, ALL_CROSSINGS) == -(-nearest // 2)

    def test_a_smaller_budget_gives_a_weaker_valid_bound(self):
        for z in (minimizer_cycle(12, 9), minimizer_cycle(8, 3), random_cycle(8, 2, 0.05, 1)):
            full = _lower_bound(z.codes, z.n, ALL_CROSSINGS)
            trivial = -(-z.norm // (2 * (z.k + 1)))
            assert trivial < full
            assert _lower_bound(z.codes, z.n, 0) == trivial
            for budget in (1, 10, 100):
                assert trivial <= _lower_bound(z.codes, z.n, budget) <= full

    def test_builds_about_its_budget_of_crossings(self, monkeypatch):
        # the boundary of a 30-cell has 2^30 - 2 crossings below it; each one
        # bounded at degree >= 1 walks its free coordinates once, and at most
        # one per level past the budget is built
        calls = []

        def counted(codes, n):
            calls.append(n)
            return _free_at(codes, n)

        monkeypatch.setattr("cubefill.filling._free_at", counted)
        for budget in (0, 1, 10, 100, 1000):
            calls.clear()
            assert _lower_bound(CUBE_30_BOUNDARY.codes, 30, budget) == 1
            assert budget <= len(calls) <= budget + 30

    def test_proves_a_cube_boundary_without_the_slicing_bound(self, monkeypatch):
        # the linear seed, the 30-cell itself, meets the trivial bound
        def unreachable(*args):
            raise AssertionError("the slicing bound was computed")

        monkeypatch.setattr("cubefill.filling._lower_bound", unreachable)
        result = exact_fill(CUBE_30_BOUNDARY, 1)
        assert result.optimal
        assert result.nodes_explored == 0
        assert result.filling.norm == result.lower_bound == 1

    def test_proves_the_7_2_minimizer_without_search(self, monkeypatch):
        # the trivial bound alone leaves this search out of budget at 200k nodes;
        # Q_7 has 672 2-faces, under the rule, but with no search none is ranked
        # and no table is read, warm or cold
        monkeypatch.setattr(filling, "_degree_codes", unreachable_ranking)
        monkeypatch.setattr(filling, "_ranked", unreachable_ranking)
        result = exact_fill(minimizer_cycle(7, 2), 1)
        assert result.optimal
        assert result.nodes_explored == 0
        assert result.filling.norm == result.lower_bound == 35


def random_codes(rng, n, size):
    """Codes of random words over {0, 1, *} of length n, of mixed degrees,
    with faces both free at and pinned to 1 at the top coordinate."""
    words = {"".join(rng.choice("01*") for _ in range(n)) for _ in range(size)}
    words |= {word[:-1] + top for word in sorted(words)[:3] for top in "*1"}
    return frozenset(map(_parse_word, words))


def packed(z, n):
    """The packing ``_slice_counts`` hands ``_cut``, with no coordinate counted."""
    return _slice_counts(z, n, 0)[1]


class TestSlicePasses:
    def test_slice_counts_match_a_per_face_count(self):
        # every n, so each field boundary of the packed codes is crossed: 2n bits
        # go in 8, 16, 32 or 64, past that fixed bits and free masks in 64 each
        # (n = 4/5, 8/9, 16/17, 32/33); 1,000 drawn faces on both sides of three
        # of them (all of Q_4 and of Q_5)
        rng = random.Random(9)
        cases = [(n, size) for n in range(1, 65) for size in (0, 1, 40)]
        cases += [(n, 1000) for n in (4, 5, 16, 17, 32, 33)]
        for n, size in cases:
            full = (1 << n) - 1
            z = random_codes(rng, n, size)
            words = _words(list(z), n)
            for live in (full, rng.getrandbits(n), rng.getrandbits(n) | 1 << n - 1):
                expected = [
                    (1 << i, *(sum(w[i] == s for w in words) for s in "10*"))
                    for i in range(n) if live >> i & 1
                ]
                counts, (codes, _, low, free_at) = _slice_counts(z, n, live)
                assert counts == expected, (n, size, live)
                assert (sorted(codes), low, free_at) == (
                    sorted(z), int.from_bytes(bytes([1]) * len(z), "little"), n if n <= 32 else 64
                ), (n, size, live)

    def test_free_at_matches_a_per_face_filter(self):
        rng = random.Random(10)
        assert list(_free_at([], 5)) == []
        for n in range(1, 65):
            for size in (1, 3, 40):
                z = random_codes(rng, n, size)
                codes = list(z)
                expected = [
                    (1 << i, [code for code in codes if code >> n >> i & 1])
                    for i in range(n) if any(code >> n >> i & 1 for code in codes)
                ]
                got = [(bit, list(free)) for bit, free in _free_at(codes, n)]
                assert got == expected, (n, size)
        top = [1 << 63 << 64, 1 << 64 | 1 << 63]
        got = [(bit, list(free)) for bit, free in _free_at(top, 64)]
        assert got == [(1, [top[1]]), (1 << 63, [top[0]])]

    def test_xor_pin_matches_the_keep_put_formula(self):
        rng = random.Random(10)
        for n in (1, 9, 33, 64):
            for i in (0, n // 2, n - 1):
                bit = 1 << i
                for state, value in itertools.permutations((0, 1, None), 2):
                    symbol = "*" if state is None else str(state)
                    words = {"".join(rng.choice("01*") for _ in range(n)) for _ in range(20)}
                    codes = [_parse_word(w[:i] + symbol + w[i + 1:]) for w in words]
                    put = bit << n if value is None else bit if value == 1 else 0
                    expected = frozenset(code & ~(bit << n | bit) | put for code in codes)
                    assert _pin(codes, n, bit, state, value) == expected, (n, i, state, value)

    @staticmethod
    def pin_cut(z, n, bit, plus_value, out):
        """``_cut`` by its definition: the pushed side and the moved side as ``_pin`` makes them."""
        sides = _split(z, n, bit)
        plus, minus = sides[plus_value], sides[1 - plus_value]
        out ^= _pin(plus, n, bit, plus_value, None)
        return _pin(plus, n, bit, plus_value, 1 - plus_value) ^ frozenset(minus)

    def check_every_cut(self, z, n, rng):
        """``_cut`` against ``pin_cut`` at every coordinate and side of z; returns whether a face
        crossed some coordinate and whether some moved side cancelled a face of the other."""
        crossed = cancelled = False
        for i in range(n):
            bit = 1 << i
            sides = _split(z, n, bit)
            crossed |= bool(sides[2])
            for plus_value in (0, 1):
                # a filling under way that already holds some of the pushed cells
                plus = sides[plus_value]
                cancelled |= not set(sides[1 - plus_value]).isdisjoint(map(bit.__xor__, plus))
                held = set(_pin(rng.sample(plus, len(plus) // 2), n, bit, plus_value, None))
                out, expected_out = set(held), set(held)
                rest = _cut(packed(z, n), n, bit, plus_value, out)
                assert rest == self.pin_cut(z, n, bit, plus_value, expected_out), (n, i, plus_value)
                assert out == expected_out, (n, i, plus_value)
        return crossed, cancelled

    def test_cut_matches_its_pin_definition(self):
        rng = random.Random(12)
        for n, k, density, seed in ((7, 1, 0.05, 1), (6, 2, 0.05, 2), (6, 3, 0.05, 3)):
            self.check_every_cut(random_cycle(n, k, density, seed).codes, n, rng)

    @pytest.mark.parametrize("words, i, plus_value, rest_words, out_words", [
        # the boundary of the squares **0 and 0**: at coordinate 2 each side moves onto the other
        (["*00", "*10", "1*0", "0*1", "00*", "01*"], 1, 0, [], ["**0", "0**"]),
        # every face sits at 1 on coordinate 3: nothing to push, or every face moved
        (["0*1", "1*1", "*01", "*11"], 2, 0, ["0*1", "1*1", "*01", "*11"], []),
        (["0*1", "1*1", "*01", "*11"], 2, 1, ["0*0", "1*0", "*00", "*10"],
         ["0**", "1**", "*0*", "*1*"]),
    ], ids=["moves-cancel", "empty-plus", "empty-rest"])
    def test_cut_edges(self, words, i, plus_value, rest_words, out_words):
        z = Chain.from_words(*words)
        out, expected_out = set(), set()
        rest = _cut(packed(z.codes, z.n), z.n, 1 << i, plus_value, out)
        assert rest == self.pin_cut(z.codes, z.n, 1 << i, plus_value, expected_out)
        assert out == expected_out
        assert (rest, out) == (set(map(_parse_word, rest_words)), set(map(_parse_word, out_words)))

    @pytest.mark.parametrize("n", [16, 17, 32, 33, 64])
    def test_packed_cut_across_field_shapes(self, n):
        # the field widens from 32 to 64 bits at n = 16/17, is one 64-bit field at n = 32 and
        # two from n = 33, the free masks read from bit 64 (so at n = 64 from bit n)
        rng = random.Random(n)
        seen = [
            self.check_every_cut((lift(random_cycle(6, k, 0.05, seed), n, seed)
                                  + lift(minimizer_cycle(k + 2, k), n, seed + 10)).codes, n, rng)
            for seed, k in enumerate((1, 2, 3))
        ]
        assert any(crossed for crossed, _ in seen) and any(cancelled for _, cancelled in seen)

    # recursive_fill(random_cycle(7, 3, 0.03, 30)), which takes case 1
    CASE_1_FILLING = [
        "****011", "****111", "***0*11", "***1*11", "**1**11", "*0***11", "*1***11", "0****11",
        "1****11", "0**1**1", "*11***0", "*11***1", "**1*11*", "*11**1*", "1*1**1*", "*11*0**",
        "*11*1**", "0*1*0**", "*110***", "*111***", "011****", "111****",
    ]

    @pytest.mark.parametrize("n", [7, 33, 64])
    def test_recursive_case_1_cuts_keep_their_filling(self, monkeypatch, n):
        cutters = []

        def recording(*args):
            cutters.append(sys._getframe(1).f_code.co_name)
            return _cut(*args)

        monkeypatch.setattr("cubefill.filling._cut", recording)
        z = lift(random_cycle(7, 3, 0.03, 30), n, 5)
        result = recursive_fill(z)
        assert "_recursive_fill_chain" in cutters
        assert result.filling == lift(Chain.from_words(*self.CASE_1_FILLING), n, 5)


class TestComponents:
    def test_two_disjoint_squares(self):
        # the squares sit at opposite values of coordinates 3 and 4, so
        # their boundaries share no vertex
        z = Chain.from_words("**00").boundary() + Chain.from_words("**11").boundary()
        parts = connected_components(z)
        assert len(parts) == 2
        assert all(part.norm == 4 for part in parts)
        total = Chain(z.n, z.k)
        for part in parts:
            total = total + part
        assert total == z

    def test_hexagon_is_connected(self):
        assert len(connected_components(HEXAGON)) == 1

    def test_empty(self):
        assert connected_components(Chain(3, 1)) == []

    def test_two_cycles_lifted_into_q48(self):
        small = lift(HEXAGON, 48, 8)
        large = lift(minimizer_cycle(4, 1), 48, 7)
        assert sorted(connected_components(small + large), key=lambda c: c.norm) == [small, large]

    @staticmethod
    def search_components(z):
        """The classes of faces linked by shared facets, by a search through
        ``Face.boundary``, started from each unvisited face in face order."""
        faces = sorted(z.support)
        by_facet = {}
        for face in faces:
            for facet in face.boundary():
                by_facet.setdefault(facet, []).append(face)
        seen, classes = set(), []
        for face in faces:
            if face in seen:
                continue
            block, queue = {face}, [face]
            while queue:
                for facet in queue.pop().boundary():
                    for neighbour in by_facet[facet]:
                        if neighbour not in block:
                            block.add(neighbour)
                            queue.append(neighbour)
            seen |= block
            classes.append(frozenset(member.code for member in block))
        return classes

    def test_the_partition_matches_a_search(self):
        rng = random.Random(12)
        # two squares meeting at the vertex 00000 only, which has degree 4
        squares = Chain.from_words("**000").boundary() + Chain.from_words("00**0").boundary()
        assert len(_components(squares.codes, squares.n)) == 1
        many = random_cycle(12, 1, 0.01, 1)
        assert len(_components(many.codes, many.n)) == 98
        chains = [Chain(5, 2), dumbbell(), random_cycle(6, 1, 0.03, 4), squares, many]
        for n in (3, 9, 33, 64):
            for k in range(4):
                small = min(n, 5)
                pool = enumerate_faces(small, k)
                for density in (0.1, 0.3):
                    picked = frozenset(face for face in pool if rng.random() < density)
                    chains.append(lift(Chain(small, k, picked), n, rng.randrange(100)))
        # degree 4: four ranks of facets, lifted from Q_6
        for n in (9, 33, 64):
            for density in (0.1, 0.3):
                picked = frozenset(face for face in enumerate_faces(6, 4) if rng.random() < density)
                chains.append(lift(Chain(6, 4, picked), n, rng.randrange(100)))
        # in the dumbbell the tube's edges meet the sides' 2-cycles, so some
        # facets are shared by three or more faces
        shared = {}
        for face in dumbbell().support:
            for facet in face.boundary():
                shared[facet] = shared.get(facet, 0) + 1
        assert max(shared.values()) >= 3
        for z in chains:
            components = _components(z.codes, z.n)
            assert components == self.search_components(z), z
            assert [min(block) for block in components] == sorted(map(min, components))


def inside(face, cell):
    """Whether a face lies in a cell: it frees no more and agrees where the cell is pinned."""
    pinned = ~cell.free_mask
    return face.free_mask & pinned == 0 and face.fixed_bits & pinned == cell.fixed_bits


class TestSupportSubcube:
    def test_single_edge(self):
        assert support_subcube(Chain.from_words("*00")) == parse_face("*00")

    def test_connected_one_cycles_fit_in_half_norm_dimensions(self):
        for seed in range(12):
            z = random_cycle(8, 1, 0.012, seed)
            for component in connected_components(z):
                assert support_subcube(component).dim <= component.norm // 2

    def test_minimizer_uses_every_coordinate(self):
        assert support_subcube(minimizer_cycle(6, 2)) == parse_face("******")

    def test_every_face_lies_inside_the_cell(self):
        z = Chain.from_words("0*110", "01*10")
        assert support_subcube(z) == parse_face("0**10")
        lifted = lift(minimizer_cycle(4, 2), 32, 1)
        cell = support_subcube(lifted)
        assert cell.dim == 4
        for chain, cell in ((z, support_subcube(z)), (lifted, cell)):
            assert all(inside(face, cell) for face in chain.support)

    def test_empty_chain_gets_the_origin(self):
        assert support_subcube(Chain(4, 1)) == parse_face("0000")

    def test_matches_the_per_face_rule(self):
        rng = random.Random(13)
        for n in range(1, 65):
            assert support_subcube(Chain(n, 1)) == _face_of(per_face_support_cell(Chain(n, 1)), n)
            for _ in range(16):
                z = random_chain(rng, n, rng.randint(0, min(4, n)), rng.randint(1, 12))
                assert support_subcube(z) == _face_of(per_face_support_cell(z), n), z.codes

    def test_connected_one_chains_are_free_wherever_they_vary(self):
        # the rule the recursive engine uses for each component of a 1-cycle
        cycles = [random_cycle(n, 1, 0.02, seed) for n in (6, 8, 9) for seed in range(8)]
        cycles += [lift(z, 40, seed) for seed, z in enumerate(cycles[:12])]
        components = 0
        for z in cycles:
            for component in connected_components(z):
                free = reduce(or_, (face.free_mask for face in component.support))
                assert support_subcube(component).free_mask == free
                components += 1
        assert components > len(cycles)
        # on a whole cycle the rule fails: two squares in opposite corners
        # vary in coordinates 3 and 4, which neither frees
        z = Chain.from_words("**00", "**11").boundary()
        assert support_subcube(z) == parse_face("****")
        assert reduce(or_, (face.free_mask for face in z.support)) == 0b0011


def _face_of(code, n):
    return Face(n, *divmod(code, 1 << n))


def per_face_support_cell(z):
    """The support cell found one face at a time: active where some face is
    free or both pinned values occur, else pinned to the value all faces take."""
    n, full = z.n, (1 << z.n) - 1
    free_any = ones = zeros = 0
    for code in z.codes:
        free, fixed = code >> n, code & full
        free_any |= free
        ones |= fixed
        zeros |= full & ~(free | fixed)
    active = free_any | ones & zeros
    return active << n | ones & ~active


def random_chain(rng, n, k, size):
    """Distinct k-cells of Q_n, cycle or not, around a random vertex: free within
    a few coordinates and varying in a few others, so most coordinates stay pinned."""
    base = rng.getrandbits(n)
    pool = rng.sample(range(n), min(n, k + rng.randrange(3)))
    spread = rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
    codes = set()
    for _ in range(size):
        free = sum(1 << i for i in rng.sample(pool, k))
        codes.add(free << n | (base ^ rng.getrandbits(n) & spread) & ~free)
    return Chain._of(n, k, frozenset(codes))


def test_fillings_stay_inside_the_support_cell():
    corpus = list(golden_corpus())
    for seed, k in enumerate((1, 2, 3, 2)):
        n = 24 + 8 * seed
        corpus.append(
            lift(random_cycle(6, k, 0.05, seed), n, 10 + seed)
            + lift(minimizer_cycle(k + 2, k), n, 20 + seed)
        )
    for z in corpus:
        cell = support_subcube(z)
        for engine in (linear_fill, recursive_fill):
            filling = engine(z).filling
            assert filling.boundary() == z
            assert all(inside(face, cell) for face in filling.support), (z, engine.__name__)


class TestBounds:
    def test_linear_bound_values(self):
        assert fill_bound_linear(6, 2, 30) == Fraction(20)
        for k in range(1, 6):
            assert fill_bound_linear(k + 1, k, 2 * (k + 1)) == Fraction(1)

    def test_power_bound_value(self):
        assert fill_bound_power(1, 6) == pytest.approx(86.91168824543142)

    def test_validation(self):
        with pytest.raises(ValueError):
            fill_bound_linear(2, 3, 4)
        with pytest.raises(ValueError):
            fill_bound_power(0, 4)
        with pytest.raises(ValueError, match="^norm must be nonnegative$"):
            fill_bound_linear(3, 1, -1)
        with pytest.raises(ValueError, match="^norm must be nonnegative$"):
            fill_bound_power(1, -1)


ODD_VERTICES = Chain.from_words("000", "011", "101")


class TestFillRefused:
    """Every input an engine refuses raises one FillRefused, still a ValueError."""

    @pytest.mark.parametrize(
        "engine, z, message",
        [
            (linear_fill, ODD_VERTICES, "a vertex chain of odd size has no filling"),
            (exact_fill, ODD_VERTICES, "a vertex chain of odd size has no filling"),
            (
                recursive_fill,
                Chain.from_words("00", "11"),
                "degree-0 cycles are outside the power-law regime; use linear_fill",
            ),
            (partial(exact_fill, node_budget=0), HEXAGON, "node budget must be positive"),
        ],
        ids=["odd-linear", "odd-exact", "degree-0-recursive", "budget-0-exact"],
    )
    def test_refused_cycles_carry_no_boundary(self, engine, z, message):
        with pytest.raises(FillRefused, match=message) as refused:
            engine(z)
        assert isinstance(refused.value, ValueError)
        assert refused.value.boundary is None

    @pytest.mark.parametrize(
        "engine",
        [linear_fill, recursive_fill, exact_fill, partial(exact_fill, node_budget=0)],
        ids=["linear", "recursive", "exact", "exact-budget-0"],
    )
    def test_a_non_cycle_carries_its_boundary(self, engine):
        # the cycle check comes before the budget's, so a non-cycle under a
        # zero budget is refused as a non-cycle
        z = Chain.from_words("*00", "0*0", "1*1")
        message = "chain is not a cycle: boundary has 4 faces (100, 010, 101, 111)"
        with pytest.raises(FillRefused, match=f"^{re.escape(message)}$") as refused:
            engine(z)
        assert isinstance(refused.value, ValueError)
        assert refused.value.boundary == z.boundary()

    def test_the_boundary_sample_stops_at_six_faces(self):
        # every other face of a 2-cycle of Q_6, in face order: 32 boundary faces, the 6 least listed
        z = random_cycle(6, 2, 0.05, 4)
        half = Chain(6, 2, frozenset(sorted(z.support)[::2]))
        message = ("chain is not a cycle: boundary has 32 faces "
                   "(*00010, *10110, *11110, *10001, *10101, *01011)")
        with pytest.raises(FillRefused, match=f"^{re.escape(message)}$") as refused:
            linear_fill(half)
        assert refused.value.boundary == half.boundary()


class TestFillResult:
    def test_defaults(self):
        result = FillResult(Chain(3, 1), "linear", Fraction(0))
        assert (result.optimal, result.nodes_explored, result.lower_bound) == (False, 0, None)
        assert FillResult._fields == (
            "filling", "strategy", "bound_certificate", "optimal", "nodes_explored", "lower_bound"
        )

    def test_constructive_engines_leave_the_defaults(self):
        z = minimizer_cycle(4, 1)
        for engine in (linear_fill, recursive_fill):
            assert engine(z)[3:] == (False, 0, None)


@pytest.fixture
def level_ratios(monkeypatch):
    """Check each call of the linear and recursive engines against its own certificate.

    Every call fills into a fresh set, which must fill that call's cycle
    within the certificate of its own live cell and degree, and is then
    XORed into the caller's set, so the fillings stay the same.  Returns the
    list of (engine, filling norm / certificate) per call with a nonempty cycle.
    """
    ratios = []

    def checked(engine, name, certificate):
        def run(z, n, live, out):
            own = set()
            engine(z, n, live, own)
            if z:
                k = (next(iter(z)) >> n).bit_count()
                assert Chain._of(n, k + 1, frozenset(own)).boundary().codes == z, name
                bound = certificate(live.bit_count(), k, len(z))
                if isinstance(bound, Fraction):
                    assert len(own) <= bound, (name, len(own), bound)
                else:
                    assert leq_with_tolerance(len(own), bound, BOUND_REL_TOL), (name, len(own), bound)
                ratios.append((name, len(own) / bound))
            out ^= own
        return run

    monkeypatch.setattr("cubefill.filling._linear_fill_chain", checked(
        _linear_fill_chain, "linear", lambda d, k, norm: Fraction((d - k) * norm, 2 * (k + 1))
    ))
    monkeypatch.setattr("cubefill.filling._recursive_fill_chain", checked(
        _recursive_fill_chain, "recursive", lambda d, k, norm: fill_bound_power(k, norm)
    ))
    return ratios


class TestPerLevelCertificates:
    def test_golden_corpus_keeps_its_fillings(self, level_ratios):
        digest = hashlib.sha256()
        for z in golden_corpus():
            digest.update(format_chain_text(linear_fill(z).filling).encode())
            digest.update(format_chain_text(recursive_fill(z).filling).encode())
        assert digest.hexdigest() == GOLDEN_FILLINGS_SHA256
        assert {name for name, _ in level_ratios} == {"linear", "recursive"}

    def test_minimizers_and_lifted_sums(self, level_ratios):
        cycles = [minimizer_cycle(n, k) for n in range(6, 13) for k in (2, 3)]
        for z in [*cycles, *lifted_sums()]:
            for engine in (linear_fill, recursive_fill):
                assert engine(z).filling.boundary() == z
        # the linear certificate is an equality on the minimizers
        assert max(ratio for name, ratio in level_ratios if name == "linear") == 1


def translate(n, k):
    """T(n, k): the (n, k) minimizer plus its translate across a new coordinate."""
    m = minimizer_cycle(n, k)
    return m.inject(n + 1, "fixed-0") + m.inject(n + 1, "fixed-1")


def known_optima():
    """Cycles with their minimum filling weights, found by an exact 0/1
    program outside this package and pinned here as data."""
    for (n, k, density, seed), optimum in (
        ((6, 1, 0.25, 1), 37), ((6, 1, 0.25, 2), 34), ((6, 1, 0.25, 3), 35),
        ((6, 1, 0.25, 4), 37), ((6, 2, 0.15, 1), 25), ((7, 2, 0.1, 2), 55),
    ):
        yield random_cycle(n, k, density, seed), optimum
    # the prism over the minimizer fills T(n, k) optimally; two pinned
    # coordinates more do not change the optimum
    for n, k in ((4, 1), (5, 1), (6, 1), (5, 2), (6, 2)):
        yield lift(translate(n, k), n + 3, n + k), 2 * comb(n, k)


class TestKnownOptima:
    def test_the_prism_fills_the_translate_family(self):
        for n, k in ((4, 1), (5, 1), (6, 1), (5, 2), (6, 2)):
            prism = lift(minimizer_cycle(n, k).inject(n + 1, "free"), n + 3, n + k)
            assert prism.boundary() == lift(translate(n, k), n + 3, n + k)
            assert prism.norm == 2 * comb(n, k)

    def test_bounds_and_engines_bracket_each_optimum(self):
        for z, optimum in known_optima():
            exact = exact_fill(z, 2_000)
            assert exact.filling.boundary() == z
            assert exact.lower_bound <= optimum <= exact.filling.norm, z
            for engine in (linear_fill, recursive_fill):
                assert optimum <= engine(z).filling.norm, (z, engine.__name__)


def assert_within_certificate(result, z):
    """The filling fills z within the certificate its strategy carries."""
    norm = result.filling.norm
    assert result.filling.boundary() == z
    if result.strategy == "linear":
        assert norm <= result.bound_certificate
    elif result.strategy == "recursive":
        assert leq_with_tolerance(norm, result.bound_certificate, BOUND_REL_TOL)
    else:
        assert result.lower_bound <= norm == result.bound_certificate


def test_fillings_stay_valid_under_cube_symmetries():
    rng = random.Random(16)
    compared = 0
    for z in [*golden_corpus(), *small_cycles()]:
        order = rng.sample(range(z.n), z.n)
        flips = [rng.random() < 0.5 for _ in range(z.n)]
        exact = exact_fill(z, 2_000)
        for image in (permuted(z, order), reflected(z, flips)):
            for result in (linear_fill(image), recursive_fill(image)):
                assert_within_certificate(result, image)
            image_exact = exact_fill(image, 2_000)
            assert_within_certificate(image_exact, image)
            assert image_exact.lower_bound == exact.lower_bound, z
            if exact.optimal and image_exact.optimal:
                assert image_exact.filling.norm == exact.filling.norm, z
                compared += 1
    assert compared >= 90


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_filling.py: the linear engine against its reference on
    # 1,000 seeded sparse sums, half in Q_33..Q_64 and half in Q_6..Q_9, as CI runs it
    for dims in ((33, 64), (6, 9)):
        for z in sparse_sums(500, 2, dims):
            TestLinearEngineAgainstItsReference.assert_same_filling(z)
    print("1,000 sparse sums: the engine's fillings match its reference")
