import math
import random

import pytest
from hypothesis import given, strategies as st

from cubefill import (
    ConstantSet,
    c_constant,
    check_absorbed_cost,
    check_split_overhead,
    constants_for,
    leq_with_tolerance,
)


class TestGrowthConstant:
    def test_first_values(self):
        assert c_constant(0) == 1.0
        assert c_constant(1) == pytest.approx(1.0 / (2**0.5 - 1.0))
        assert c_constant(1) == pytest.approx(2.414214, abs=1e-6)
        assert c_constant(2) == pytest.approx(9.288257, abs=1e-6)

    def test_product_recurrence(self):
        for k in range(1, 13):
            step = 1.0 / (2.0 ** (1.0 / (k + 1)) - 1.0)
            assert math.isclose(c_constant(k), c_constant(k - 1) * step, rel_tol=1e-12)

    def test_factorial_ratio_stays_modest(self):
        # desk-scale check of the factorial-like growth; the observed
        # maximum over k <= 12 is about 491
        assert max(c_constant(k) / math.factorial(k) for k in range(1, 13)) < 500.0

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            c_constant(-1)


class TestConstantSet:
    def test_window_k1(self):
        cs = constants_for(1)
        lower, upper = cs.epsilon_window
        assert lower == pytest.approx(0.2071, abs=1e-4)
        assert upper == pytest.approx(2.0 / 3.0)
        assert lower < upper
        assert cs.epsilon == upper
        assert cs.delta == cs.c
        assert cs.L == 1.0

    def test_window_nonempty_up_to_sixty_four(self):
        # the window cannot be empty, so constants_for does not check it at run time
        for k in range(1, 65):
            lower, upper = constants_for(k).epsilon_window
            assert lower <= 0.21 < 2 / 3 <= upper

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            constants_for(0)

    def test_field_order(self):
        assert ConstantSet._fields == ("k", "c", "epsilon", "delta", "L", "epsilon_window")
        cs = constants_for(2)
        assert tuple(cs) == (2, cs.c, cs.epsilon, cs.delta, cs.L, cs.epsilon_window)


class TestLeqWithTolerance:
    def test_exact_and_slack(self):
        assert leq_with_tolerance(1.0, 1.0)
        assert leq_with_tolerance(1.0 + 1e-12, 1.0)
        assert not leq_with_tolerance(1.001, 1.0)

    def test_scales_with_magnitude(self):
        assert leq_with_tolerance(1e12 + 1.0, 1e12, tol=1e-9)


class TestSplitOverhead:
    def test_equality_point(self):
        # both the hypothesis and the conclusion are tight here
        for k in range(1, 6):
            p = (2.0 ** (1.0 / (k + 1)) - 1.0) / 2.0
            assert check_split_overhead(0.5, 0.5, p, k)

    def test_degenerate_split(self):
        for p in (0.0, 0.3, 2.0):
            assert check_split_overhead(0.0, 1.0, p, 3)

    def test_hypothesis_failure_is_vacuous(self):
        assert check_split_overhead(0.5, 0.5, 0.0, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            check_split_overhead(0.7, 0.7, 0.1, 2)
        with pytest.raises(ValueError):
            check_split_overhead(0.5, 0.5, -0.1, 2)
        with pytest.raises(ValueError):
            check_split_overhead(0.5, 0.5, 0.1, 0)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.5),
        st.integers(min_value=1, max_value=5),
    )
    def test_never_fails_on_the_domain(self, x, p, k):
        assert check_split_overhead(x, 1.0 - x, p, k)

    def test_seeded_sweep(self):
        rng = random.Random(20814)
        for i in range(2000):
            x = rng.random()
            p = 1.5 * rng.random()
            assert check_split_overhead(x, 1.0 - x, p, 1 + i % 5)


class TestAbsorbedCost:
    def test_zero_cost_is_equality(self):
        assert check_absorbed_cost(3.0, 0.0, 1.0, 4)

    def test_worked_point(self):
        # e = 2.25, admissible range x <= (2.25/3.25)^(1/2) ~ 0.8321,
        # and 0.5^1.5 + 0.25 ~ 0.6036 <= 1
        e = (3.0 / 2.0) ** 2
        assert e == 2.25
        limit = (e / (e + 1.0)) ** 0.5
        assert limit == pytest.approx(0.8321, abs=1e-4)
        assert check_absorbed_cost(1.0, 0.5, 1.0, 2)

    def test_out_of_range_is_vacuous(self):
        assert check_absorbed_cost(1.0, 5.0, 1.0, 2)
        assert check_absorbed_cost(1.0, -0.5, 1.0, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            check_absorbed_cost(0.0, 0.0, 1.0, 2)
        with pytest.raises(ValueError):
            check_absorbed_cost(1.0, 0.0, 0.0, 2)
        with pytest.raises(ValueError):
            check_absorbed_cost(1.0, 0.0, 1.0, 1)

    @given(
        st.floats(min_value=1.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=1e-3, max_value=1.0),
        st.integers(min_value=2, max_value=5),
    )
    def test_never_fails_on_the_working_domain(self, S, frac, L, k):
        # the filling recursion only ever uses weight factors L <= 1 and
        # whole-number costs; see the integer sweep below for x >= 1
        e = ((k + 1) / k) ** k
        x = frac * (e * S / (e + L**k)) ** ((k - 1) / k)
        assert check_absorbed_cost(S, x, L, k)

    def test_integer_cost_sweep(self):
        rng = random.Random(3517)
        for i in range(2000):
            k = 2 + i % 4
            S = rng.randrange(1, 400)
            L = 0.05 + 0.95 * rng.random()
            e = ((k + 1) / k) ** k
            limit = (e * S / (e + L**k)) ** ((k - 1) / k)
            x = rng.randrange(0, int(limit) + 1)
            assert check_absorbed_cost(float(S), float(x), L, k)
