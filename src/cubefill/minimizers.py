"""The alternating-block cycle family and its sharpness bookkeeping.

For each choice of k free coordinates, the blocks of pinned coordinates
between consecutive stars are constant, and the block value flips at every
star (an empty block still flips).  The two choices of leading value give
two faces per star set, for a cycle of norm 2 * C(n, k) whose minimum
filling weight is exactly C(n, k+1).  The ratio fill / norm^((k+1)/k)
therefore approaches a positive constant, which is what pins the exponent
of the dimension-free filling bound.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable
from math import comb, factorial

from .chains import Chain
from .faces import MAX_COORDINATES
from .filling import exact_fill, linear_fill

__all__ = [
    "minimizer_cycle",
    "minimizer_norm",
    "minimizer_fill_value",
    "verify_minimizer",
    "SharpnessRow",
    "sharpness_asymptote",
    "sharpness_table",
]


def _block_masks(n: int, stars: tuple[int, ...], leading: int) -> tuple[int, int]:
    """The free mask and fixed bits of a member's face: a pinned coordinate holds
    ``leading`` XOR the parity of the stars below it, a prefix XOR of ``free << 1``."""
    free = sum(1 << position for position in stars)
    parity = free << 1
    for shift in (1, 2, 4, 8, 16, 32):
        parity ^= parity << shift
    return free, (parity ^ -leading) & ~free & ((1 << n) - 1)


def _minimizer_chain(n: int, k: int) -> Chain:
    """The family member for any 0 <= k <= n with 1 <= n <= 64, which the callers check.

    k = 0 gives the two antipodal constant vertices; k = n degenerates to
    the empty chain (both leading values name the same all-free face, which
    cancels over Z2).
    """
    codes: set[int] = set()
    for stars in itertools.combinations(range(n), k):
        for leading in (0, 1):
            free, fixed = _block_masks(n, stars, leading)
            codes ^= {free << n | fixed}
    return Chain._of(n, k, frozenset(codes))


def minimizer_cycle(n: int, k: int) -> Chain:
    """The norm-2*C(n,k) cycle that makes both filling bounds tight."""
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got n={n}, k={k}")
    if n > MAX_COORDINATES:
        raise ValueError(f"dimension {n} outside [0, {MAX_COORDINATES}]")
    return _minimizer_chain(n, k)


def minimizer_norm(n: int, k: int) -> int:
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got n={n}, k={k}")
    return 2 * comb(n, k)


def minimizer_fill_value(n: int, k: int) -> int:
    """The exact minimum filling weight, C(n, k+1)."""
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got n={n}, k={k}")
    return comb(n, k + 1)


def verify_minimizer(n: int, k: int) -> dict:
    """Check the family member's defining properties; returns a report.

    Structural checks run at any desk scale; the exact oracle, skipped (None)
    above n = 12, proves each member up to there without a search.
    """
    z = minimizer_cycle(n, k)
    fill_value = minimizer_fill_value(n, k)
    cut = z.slice(1, 1)
    checks: dict[str, bool | None] = {
        "cycle": z.is_cycle(),
        "norm": z.norm == minimizer_norm(n, k),
        "slice_sides": cut.z_plus + cut.z_minus == _minimizer_chain(n - 1, k),
        "slice_crossing": cut.z_zero == _minimizer_chain(n - 1, k - 1),
        "linear_sharpness": linear_fill(z).filling.norm == fill_value,
    }
    if n <= 12:
        result = exact_fill(z)
        checks["oracle_fill"] = result.optimal and result.filling.norm == fill_value
    else:
        checks["oracle_fill"] = None
    return {
        "n": n,
        "k": k,
        "norm": z.norm,
        "fill_value": fill_value,
        "checks": checks,
        "ok": all(v for v in checks.values() if v is not None),
    }


class SharpnessRow(namedtuple("SharpnessRow", "n norm fill ratio asymptote quotient")):
    """A row of ``sharpness_table``: the norm and fill at n, the ratio
    fill / norm^((k+1)/k), its limit as n grows, and the ratio over the limit."""

    __slots__ = ()


def sharpness_asymptote(k: int) -> float:
    """Limit of fill / norm^((k+1)/k) over the family as n grows."""
    if k < 1:
        raise ValueError(f"degree {k} must be at least 1")
    try:
        root = factorial(k) ** (1.0 / k)
    except OverflowError:
        raise ValueError(f"degree {k} too large: {k}! does not fit in a float") from None
    return root / (2.0 ** ((k + 1) / k) * (k + 1))


def sharpness_table(k: int, n_values: Iterable[int]) -> list[SharpnessRow]:
    """Closed-form rows (no chain construction), so n may be large."""
    asymptote = sharpness_asymptote(k)
    rows = []
    for n in n_values:
        norm = minimizer_norm(n, k)
        fill = minimizer_fill_value(n, k)
        try:
            ratio = fill / float(norm) ** ((k + 1) / k)
        except OverflowError:
            raise ValueError(f"n={n} too large: its norm and fill do not fit in a float") from None
        rows.append(SharpnessRow(n, norm, fill, ratio, asymptote, ratio / asymptote))
    return rows
