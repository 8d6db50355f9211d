import gc
import random
import tracemalloc
from collections import Counter
from math import comb

import pytest

from itertools import combinations

from cubefill import (
    Chain,
    Face,
    exact_fill,
    linear_fill,
    minimizer_cycle,
    minimizer_fill_value,
    minimizer_norm,
    parse_face,
    sharpness_asymptote,
    sharpness_table,
    verify_minimizer,
)
from cubefill.minimizers import _block_masks, _minimizer_chain


class TestConstruction:
    def test_stated_members_of_z3_10(self):
        z = minimizer_cycle(10, 3)
        assert parse_face("00*1*0*111") in z.support
        # the empty block between the first two stars still flips the value
        assert parse_face("1**111*000") in z.support

    def test_square(self):
        assert minimizer_cycle(2, 1) == Chain.from_words("*0", "*1", "0*", "1*")

    def test_hexagon(self):
        got = {str(f) for f in minimizer_cycle(3, 1).support}
        assert got == {"*00", "*11", "0*1", "1*0", "00*", "11*"}

    def test_range_validation(self):
        with pytest.raises(ValueError):
            minimizer_cycle(3, 3)
        with pytest.raises(ValueError):
            minimizer_cycle(3, 0)
        with pytest.raises(ValueError):
            minimizer_norm(4, 4)
        with pytest.raises(ValueError):
            minimizer_fill_value(4, 0)
        with pytest.raises(ValueError, match=r"^dimension 65 outside \[0, 64\]$"):
            minimizer_cycle(65, 1)

    def test_cycle_and_norm_up_to_twelve(self):
        for n in range(2, 13):
            for k in range(1, n):
                z = minimizer_cycle(n, k)
                assert z.norm == 2 * comb(n, k)
                assert z.is_cycle()

    def test_degree_zero_member_is_the_antipodal_pair(self):
        z = _minimizer_chain(4, 0)
        assert {str(f) for f in z.support} == {"0000", "1111"}

    def test_the_two_seeds_give_disjoint_members(self):
        # flipping the seed flips every pinned coordinate, so the two
        # members over one star set differ whenever a pinned coordinate
        # exists, and the support splits evenly across the seeds
        for n, k in [(4, 1), (5, 2), (6, 3)]:
            members = set()
            for stars in combinations(range(n), k):
                a = Face(n, *_block_masks(n, stars, 0))
                b = Face(n, *_block_masks(n, stars, 1))
                assert a != b
                members |= {a, b}
            assert members == set(minimizer_cycle(n, k).support)

    def test_block_masks_are_the_prefix_parity_of_the_stars(self):
        def by_coordinate(n, stars, leading):
            # the rule spelt out: each star passed flips the value of the pinned coordinates above it
            free = fixed = passed = 0
            for position in stars:
                free |= 1 << position
            for position in range(n):
                if free >> position & 1:
                    passed += 1
                elif (leading ^ passed) & 1:
                    fixed |= 1 << position
            return free, fixed

        star_sets = [(n, stars) for n in range(13) for k in range(n + 1) for stars in combinations(range(n), k)]
        # past 32 coordinates the prefix XOR needs its shift by 32
        rng = random.Random(7)
        for n in (33, 40, 64):
            star_sets += [(n, (0,)), (n, (0, n - 1))]
            star_sets += [(n, tuple(sorted(rng.sample(range(n), rng.randint(0, n))))) for _ in range(500)]
        for n, stars in star_sets:
            for leading in (0, 1):
                assert _block_masks(n, stars, leading) == by_coordinate(n, stars, leading), (n, stars, leading)

    def test_top_degree_member_cancels(self):
        assert _minimizer_chain(3, 3).norm == 0

    def test_construction_keeps_nothing_once_dropped(self):
        # (16, 8), 25,740 faces, is a shape no other test builds
        gc.collect()
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            z = minimizer_cycle(16, 8)
            assert z.norm == minimizer_norm(16, 8)
            del z
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - baseline
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024


class TestBoundaryStructure:
    def test_every_incident_face_lies_in_exactly_two_members(self):
        for n in range(2, 9):
            for k in range(1, n):
                counts = Counter()
                for face in minimizer_cycle(n, k).support:
                    counts.update(face.boundary())
                assert set(counts.values()) <= {2}, (n, k)

    def test_stated_two_containing_faces(self):
        z = minimizer_cycle(10, 3)
        shared = parse_face("11*0011*00")
        containers = {str(f) for f in z.support if shared in f.boundary()}
        assert containers == {"11*0*11*00", "11*00*1*00"}


class TestSlicingRecursion:
    def test_first_coordinate_slice(self):
        for n in range(3, 13):
            for k in range(2, n):
                cut = minimizer_cycle(n, k).slice(1, 1)
                assert cut.z_plus + cut.z_minus == _minimizer_chain(n - 1, k)
                assert cut.z_zero == _minimizer_chain(n - 1, k - 1)

    def test_degree_one_crossing_is_the_antipodal_pair(self):
        for n in range(3, 8):
            cut = minimizer_cycle(n, 1).slice(1, 1)
            assert cut.z_zero == _minimizer_chain(n - 1, 0)
            assert cut.z_plus + cut.z_minus == _minimizer_chain(n - 1, 1)

    def test_either_side_designation(self):
        cut = minimizer_cycle(5, 2).slice(1, 0)
        assert cut.z_plus + cut.z_minus == _minimizer_chain(4, 2)
        assert cut.z_zero == _minimizer_chain(4, 1)


class TestFillValues:
    def test_formulas(self):
        assert (minimizer_norm(6, 2), minimizer_fill_value(6, 2)) == (30, 20)
        for k in range(1, 6):
            assert minimizer_norm(k + 1, k) == 2 * (k + 1)
            assert minimizer_fill_value(k + 1, k) == 1
        assert (minimizer_norm(5, 1), minimizer_fill_value(5, 1)) == (10, 10)

    def test_oracle_scale_fills(self):
        assert exact_fill(minimizer_cycle(3, 1)).filling.norm == 3
        assert exact_fill(minimizer_cycle(4, 2)).filling.norm == 4

    def test_fill_recursion_identity(self):
        # fill(n, k) = fill(n-1, k-1) + fill(n-1, k) at oracle scale
        def oracle(n, k):
            result = exact_fill(_minimizer_chain(n, k))
            assert result.optimal
            return result.filling.norm

        for n, k in [(3, 1), (4, 1), (4, 2), (4, 3)]:
            assert oracle(n, k) == oracle(n - 1, k - 1) + oracle(n - 1, k)

    def test_linear_sharpness_spot_checks(self):
        assert linear_fill(minimizer_cycle(6, 2)).filling.norm == 20
        assert linear_fill(minimizer_cycle(10, 3)).filling.norm == 210


class TestVerifyReport:
    def test_small_instances_pass_everything(self):
        for n, k in [(3, 1), (4, 2)]:
            report = verify_minimizer(n, k)
            assert report["ok"]
            assert report["checks"]["oracle_fill"] is True
            assert report["fill_value"] == comb(n, k + 1)

    def test_large_instance_skips_oracle(self):
        report = verify_minimizer(13, 2)
        assert report["ok"]
        assert report["checks"]["oracle_fill"] is None
        assert report["checks"]["linear_sharpness"] is True

    def test_oracle_runs_above_five(self):
        # the slicing lower bound meets the linear seed, C(n, k+1), so the
        # exact search proves the member optimal without a search
        report = verify_minimizer(12, 5)
        assert report["ok"], report
        assert report["checks"]["oracle_fill"] is True


class TestSharpnessTable:
    def test_k1_n100_row(self):
        row = sharpness_table(1, [100])[0]
        assert (row.norm, row.fill) == (200, 4950)
        assert row.ratio == 4950 / 40000
        assert row.asymptote == 0.125
        assert row.quotient == pytest.approx(0.99)

    def test_smallest_row_is_trivial(self):
        for k in range(1, 5):
            row = sharpness_table(k, [k + 1])[0]
            assert row.fill == 1
            assert row.ratio == pytest.approx(1.0 / (2 * (k + 1)) ** ((k + 1) / k))

    def test_quotient_increases_and_approaches_one(self):
        for k in range(1, 5):
            rows = sharpness_table(k, range(k + 1, 10_001))
            quotients = [row.quotient for row in rows]
            assert all(a < b for a, b in zip(quotients, quotients[1:]))
            assert quotients[-1] < 1.0
        far = sharpness_table(1, [10_000])[0]
        assert far.quotient == pytest.approx(1.0, abs=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            sharpness_table(0, [2])
        with pytest.raises(ValueError):
            sharpness_table(2, [2])
        with pytest.raises(ValueError):
            sharpness_asymptote(0)
        # 171! and C(8000, 150) do not fit in a float
        with pytest.raises(ValueError, match="171"):
            sharpness_asymptote(171)
        with pytest.raises(ValueError, match="171"):
            sharpness_table(171, [172])
        with pytest.raises(ValueError, match="n=8000"):
            sharpness_table(150, [8000])
