"""Degree-indexed constants for the power-law filling bound, plus the two
scalar inequalities behind its case analysis, exposed as checkable
predicates."""

from __future__ import annotations

from collections import namedtuple

__all__ = [
    "BOUND_REL_TOL",
    "PREDICATE_TOL",
    "ConstantSet",
    "c_constant",
    "constants_for",
    "leq_with_tolerance",
    "check_split_overhead",
    "check_absorbed_cost",
]

# Single home for the tolerance used on every bound comparison that involves
# an irrational exponent.  Exact (rational) bounds never go through it.
BOUND_REL_TOL = 1e-9

# Tolerance for the scalar inequality predicates below.
PREDICATE_TOL = 1e-12


def leq_with_tolerance(lhs: float, rhs: float, tol: float = BOUND_REL_TOL) -> bool:
    """lhs <= rhs up to a relative slack on the larger magnitude."""
    return lhs <= rhs + tol * max(1.0, abs(lhs), abs(rhs))


def c_constant(k: int) -> float:
    """Product over i = 1..k of 1 / (2^(1/(i+1)) - 1); the empty product is 1."""
    if k < 0:
        raise ValueError(f"degree {k} must be nonnegative")
    out = 1.0
    for i in range(1, k + 1):
        out /= 2.0 ** (1.0 / (i + 1)) - 1.0
    return out


class ConstantSet(namedtuple("ConstantSet", "k c epsilon delta L epsilon_window")):
    """The working constants for one degree.

    delta equals c_k (the degree-k growth constant divided by the factor
    2^(1/(k+1)) - 1 folds into the product), which makes L = delta / c_k = 1.
    epsilon_window is the admissible interval [1/(2 c_k), upper]; epsilon is
    pinned to the upper endpoint so the expensive linear fallback triggers as
    rarely as possible.
    """

    __slots__ = ()


def constants_for(k: int) -> ConstantSet:
    """Constants used by the degree-k filling recursion."""
    if k < 1:
        raise ValueError(f"degree {k} must be at least 1")
    c = c_constant(k)
    lower = 1.0 / (2.0 * c)
    upper = (k + 1) ** k / ((k + 1) ** k + k**k)
    return ConstantSet(k, c, upper, c, 1.0, (lower, upper))


def check_split_overhead(x: float, y: float, p: float, k: int, tol: float = PREDICATE_TOL) -> bool:
    """Overhead needed to keep two complementary power terms above 1.

    With x + y = 1 and a = (k+1)/k: whenever (x+p)^a + (y+p)^a >= 1, the
    overhead p is at least (2^(1/(k+1)) - 1) * min(x, y).  Returns True when
    the conclusion holds or the hypothesis fails (implication semantics).
    """
    if k < 1:
        raise ValueError(f"degree {k} must be at least 1")
    if x < 0 or y < 0 or p < 0:
        raise ValueError("x, y and p must be nonnegative")
    if abs(x + y - 1.0) > 1e-9:
        raise ValueError(f"x + y must equal 1, got {x + y}")
    a = (k + 1) / k
    if (x + p) ** a + (y + p) ** a < 1.0:
        return True
    return p >= (2.0 ** (1.0 / (k + 1)) - 1.0) * min(x, y) - tol


def check_absorbed_cost(S: float, x: float, L: float, k: int, tol: float = PREDICATE_TOL) -> bool:
    """A small cut cost absorbed into the power of the whole.

    With e = ((k+1)/k)^k: whenever 0 <= x <= (e S / (e + L^k))^((k-1)/k)
    (and x <= S, so the left side is defined),

        (S - x)^((k+1)/k) + L * x^(k/(k-1)) <= S^((k+1)/k).

    Inputs outside the stated x range count as vacuously true.
    """
    if k < 2:
        raise ValueError(f"degree {k} must be at least 2")
    if S <= 0 or L <= 0:
        raise ValueError("S and L must be positive")
    e = ((k + 1) / k) ** k
    limit = (e * S / (e + L**k)) ** ((k - 1) / k)
    if x < 0 or x > min(limit, S):
        return True
    lhs = (S - x) ** ((k + 1) / k) + L * x ** (k / (k - 1))
    return leq_with_tolerance(lhs, S ** ((k + 1) / k), tol)
