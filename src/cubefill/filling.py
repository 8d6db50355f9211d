"""Filling cycles in the cube.

Three engines produce a (k+1)-chain whose boundary is a given k-cycle:

* ``linear_fill`` carries the certificate (n-k)/(2(k+1)) * norm(z).  It
  scores every (coordinate, side) slice by the exact cost of pushing that
  side across the slice and filling the rest one cube down, and recurses
  on the cheapest.  The minimum is at most the average
  over all 2n slices, which is exactly the certificate, so the bound
  survives every level of the recursion.

* ``recursive_fill`` carries the dimension-free certificate
  c_k * norm(z)^((k+1)/k).  It first restricts the cycle to its support
  subcube, then looks for a slice that crosses little of
  the cycle; if one side of such a slice is small it pushes that side
  across (case 1), if both sides are large it fills the crossing one
  degree down and splits the problem into the two hyperfaces (case 2),
  and if every slice crosses a lot the cycle is big enough that the
  linear bound already fits under the power bound (case 3).

* ``exact_fill`` is a branch-and-bound search for a minimum-weight
  filling, seeded with the linear filling and pruned by the admissible
  bound ceil(residual / (2(k+1))).  It searches on faces coded as ints,
  so its residual is a frozenset of codes and its pivot a plain ``min``.

The linear and recursive engines work in the input's own coordinates.  A
subproblem is a cycle inside the cell of its live coordinates: a facet or
a support subcube of Q_n is itself a cell of Q_n, so a cut pins one live
coordinate in place instead of renumbering into a smaller cube.  Each
level chooses its cut from per-coordinate counts of the faces pinned to 1,
pinned to 0 and crossing, and rebuilds faces only along that coordinate.

Degree-0 cycles (even vertex sets) are filled by pairing vertices along
monotone edge paths; they sit outside the power-law regime but the linear
certificate n/2 * norm(z) still holds for the pairing.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction

from .chains import Chain
from .constants import c_constant, constants_for
from .faces import Face

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "FillResult",
    "linear_fill",
    "recursive_fill",
    "exact_fill",
    "connected_components",
    "support_subcube",
    "fill_bound_linear",
    "fill_bound_power",
]

DEFAULT_NODE_BUDGET = 1_000_000


@dataclass(frozen=True)
class FillResult:
    """A filling plus provenance.

    ``bound_certificate`` is the value the strategy guarantees: an exact
    rational for the linear strategy, a float for the power bound, and the
    achieved weight for the exact search.  ``optimal`` is set only by a
    completed exact search.
    """

    filling: Chain
    strategy: str
    bound_certificate: Fraction | float | int
    optimal: bool = False
    nodes_explored: int = 0


def _require_cycle(z: Chain) -> None:
    boundary = z.boundary()
    if boundary.support:
        sample = ", ".join(str(f) for f in boundary.sorted_faces()[:6])
        raise ValueError(
            f"chain is not a cycle: boundary has {boundary.norm} faces ({sample})"
        )


def fill_bound_linear(n: int, k: int, norm: int) -> Fraction:
    """The linear certificate (n-k) * norm / (2(k+1)), exactly."""
    if not 0 <= k <= n:
        raise ValueError(f"degree {k} outside [0, {n}]")
    if norm < 0:
        raise ValueError("norm must be nonnegative")
    return Fraction((n - k) * norm, 2 * (k + 1))


def fill_bound_power(k: int, norm: int) -> float:
    """The dimension-free certificate c_k * norm^((k+1)/k)."""
    if k < 1:
        raise ValueError(f"degree {k} must be at least 1")
    if norm < 0:
        raise ValueError("norm must be nonnegative")
    return c_constant(k) * float(norm) ** ((k + 1) / k)


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first."""
    while mask:
        yield mask & -mask
        mask &= mask - 1


def _top_cell_fill(z: Chain, live: int) -> Chain:
    # In a (k+1)-cell the only nonempty k-cycle is the boundary of the cell.
    cell = Face(z.n, live, next(iter(z.support)).fixed_bits & ~live)
    if z.support == cell.boundary():
        return Chain(z.n, z.k + 1, frozenset((cell,)))
    raise ValueError("chain is not a cycle")


def _fill_zero_cycle(z: Chain) -> Chain:
    """Pair up vertices and connect each pair by a monotone edge path."""
    vertices = z.sorted_faces()
    if len(vertices) % 2:
        raise ValueError("a vertex chain of odd size has no filling")
    edges: set[Face] = set()
    for a, b in zip(vertices[0::2], vertices[1::2]):
        current = a.fixed_bits
        for bit in _bits(current ^ b.fixed_bits):
            edges ^= {Face(z.n, bit, current & ~bit)}
            current ^= bit
    return Chain(z.n, 1, frozenset(edges))


def _split(z: Chain, bit: int) -> tuple[list[Face], list[Face], list[Face]]:
    """The faces of z pinned to 0, pinned to 1, and free at the coordinate ``bit``."""
    sides: tuple[list[Face], list[Face], list[Face]] = ([], [], [])
    for face in z.support:
        sides[2 if face.free_mask & bit else 1 if face.fixed_bits & bit else 0].append(face)
    return sides


def _slice_counts(z: Chain, live: int) -> list[tuple[int, int, int, int]]:
    """Per live coordinate, lowest first: its bit, then faces pinned to 1, pinned to 0, crossing."""
    counts = []
    for bit in _bits(live):
        zeros, ones, crossing = map(len, _split(z, bit))
        counts.append((bit, ones, zeros, crossing))
    return counts


def _pin(faces: Iterable[Face], bit: int, value: int | None) -> frozenset[Face]:
    """The faces with the coordinate ``bit`` pinned to ``value``, or freed when it is None."""
    free = bit if value is None else 0
    fixed = bit if value == 1 else 0
    return frozenset(
        Face(f.n, f.free_mask & ~bit | free, f.fixed_bits & ~bit | fixed) for f in faces
    )


def _cut(z: Chain, bit: int, plus_value: int) -> tuple[Chain, Chain]:
    """Push the faces of z pinned to ``plus_value`` across the coordinate ``bit``.

    Returns the rest, a cycle in the facet pinned to the other value, and the
    pushed (k+1)-chain: a filling of the rest plus the pushed chain fills z.
    """
    sides = _split(z, bit)
    plus = sides[plus_value]
    rest = _pin(plus, bit, 1 - plus_value) ^ frozenset(sides[1 - plus_value])
    return Chain(z.n, z.k, rest), Chain(z.n, z.k + 1, _pin(plus, bit, None))


def _linear_fill_chain(z: Chain, live: int) -> Chain:
    if not z.support:
        return Chain(z.n, z.k + 1)
    if z.k == 0:
        return _fill_zero_cycle(z)
    n, k = live.bit_count(), z.k
    if n == k + 1:
        return _top_cell_fill(z, live)
    # The cut minimizing the exact inductive cost
    # pushed + (n-k-1)/(2(k+1)) * (ones + zeros), scaled by 2(k+1) to stay in
    # integers.  Ties go to the lowest coordinate, then plus = 1.
    _, bit, flip = min(
        (2 * (k + 1) * pushed + (n - k - 1) * (ones + zeros), bit, flip)
        for bit, ones, zeros, _ in _slice_counts(z, live)
        for flip, pushed in ((0, ones), (1, zeros))
    )
    rest, pushed = _cut(z, bit, 1 - flip)
    return _linear_fill_chain(rest, live & ~bit) + pushed


def linear_fill(z: Chain) -> FillResult:
    """Fill a cycle within the certificate (n-k)/(2(k+1)) * norm(z)."""
    _require_cycle(z)
    if z.support and z.n < z.k + 1:
        raise ValueError("no fillings exist above the top degree")
    certificate = (
        fill_bound_linear(z.n, z.k, z.norm) if z.support else Fraction(0)
    )
    return FillResult(_linear_fill_chain(z, (1 << z.n) - 1), "linear", certificate)


def connected_components(z: Chain) -> list[Chain]:
    """Partition the support into classes linked by shared (k-1)-faces."""
    if not z.support:
        return []
    by_boundary: dict[Face, list[Face]] = {}
    for face in z.support:
        for g in face.boundary():
            by_boundary.setdefault(g, []).append(face)
    components: list[Chain] = []
    seen: set[Face] = set()
    for face in z.sorted_faces():
        if face in seen:
            continue
        block = {face}
        queue = [face]
        while queue:
            current = queue.pop()
            for g in current.boundary():
                for neighbour in by_boundary[g]:
                    if neighbour not in block:
                        block.add(neighbour)
                        queue.append(neighbour)
        seen |= block
        components.append(Chain(z.n, z.k, frozenset(block)))
    return components


def support_subcube(z: Chain) -> Face:
    """The smallest cell of Q_n holding every face of z.

    Its free coordinates are the active ones: some face leaves them free, or
    the support takes both pinned values there.  The empty chain gets the
    vertex 0...0.
    """
    free_any = 0
    ones = 0
    zeros = 0
    for face in z.support:
        free_any |= face.free_mask
        ones |= face.fixed_bits
        zeros |= ~(face.free_mask | face.fixed_bits)
    active = free_any | ones & zeros
    return Face(z.n, active, ones & ~active)


def _recursive_fill_chain(z: Chain, live: int) -> Chain:
    k = z.k
    if not z.support:
        return Chain(z.n, k + 1)
    if live.bit_count() == k + 1:
        return _top_cell_fill(z, live)
    if k == 1:
        # A connected 1-cycle of norm 2m fits in an m-dimensional cell, where
        # the linear certificate is already quadratic in the norm.
        parts = Chain(z.n, 2)
        for component in connected_components(z):
            parts = parts + _linear_fill_chain(component, support_subcube(component).free_mask)
        return parts

    # Coordinates nothing crosses, with everything on one side: drop them
    # from the live cell before any case analysis.
    cell = support_subcube(z)
    if cell.free_mask != live:
        return _recursive_fill_chain(z, cell.free_mask)

    consts = constants_for(k)
    threshold = consts.epsilon * float(z.norm) ** ((k - 1) / k)
    candidates: list[tuple[int, int, int, int, int]] = []
    for bit, ones, zeros, crossing in _slice_counts(z, live):
        if crossing >= threshold:
            continue
        cheap = min(ones, zeros) <= consts.delta * float(crossing) ** (k / (k - 1))
        candidates.append((crossing, 0 if cheap else 1, bit, ones, zeros))

    if not candidates:
        # Every slice crosses a lot, so the cycle is large and the linear
        # certificate fits under the power certificate.
        return _linear_fill_chain(z, live)

    _, cheap_tag, bit, ones, zeros = min(candidates)
    inner = live & ~bit
    if cheap_tag == 0:
        # Case 1: push the smaller side across the slice.
        rest, pushed = _cut(z, bit, 1 if ones <= zeros else 0)
        return _recursive_fill_chain(rest, inner) + pushed

    # Case 2: fill the crossing one degree down in the 0 facet, cap it with
    # its prism, and fill the two corrected sides separately in their facets.
    zero_side, one_side, crossing = _split(z, bit)
    w0 = _recursive_fill_chain(Chain(z.n, k - 1, _pin(crossing, bit, 0)), inner).support
    plus_part = _recursive_fill_chain(Chain(z.n, k, frozenset(one_side) ^ _pin(w0, bit, 1)), inner)
    minus_part = _recursive_fill_chain(Chain(z.n, k, frozenset(zero_side) ^ w0), inner)
    return Chain(z.n, k + 1, _pin(w0, bit, None)) + plus_part + minus_part


def recursive_fill(z: Chain) -> FillResult:
    """Fill a cycle within the certificate c_k * norm(z)^((k+1)/k)."""
    _require_cycle(z)
    if z.support and z.k < 1:
        raise ValueError("degree-0 cycles are outside the power-law regime; use linear_fill")
    if z.support and z.n < z.k + 1:
        raise ValueError("no fillings exist above the top degree")
    certificate = fill_bound_power(z.k, z.norm) if z.support else 0.0
    return FillResult(_recursive_fill_chain(z, (1 << z.n) - 1), "recursive", certificate)


def exact_fill(z: Chain, node_budget: int = DEFAULT_NODE_BUDGET) -> FillResult:
    """Minimum-weight filling by branch and bound.

    Any filling must contain a cell incident to each residual face, so the
    search branches on the coboundary cells of the least residual face, in
    face order, excluding cells already tried at this node so the branches
    partition the solution space.  A node is pruned when its weight plus
    ceil(residual / (2(k+1))) cannot beat the best known filling (each cell
    clears at most 2(k+1) residual faces).

    The search runs on faces coded as ints, ``free_mask << n | fixed_bits``:
    within one degree their integer order is face order, so the residual is
    a frozenset of codes and its minimum is the pivot.  Only the best filling
    is turned back into faces.

    If the node budget runs out, the best filling found so far is returned
    with ``optimal`` False.  Node counts are deterministic.
    """
    if node_budget <= 0:
        raise ValueError("node budget must be positive")
    _require_cycle(z)
    if not z.support:
        return FillResult(Chain(z.n, z.k + 1), "exact", 0, optimal=True)

    seed = _linear_fill_chain(z, (1 << z.n) - 1)
    best = seed
    best_weight = seed.norm
    denominator = 2 * (z.k + 1)
    floor_weight = -(-z.norm // denominator)
    if best_weight <= floor_weight:
        # The seed already meets the global lower bound.
        return FillResult(best, "exact", best_weight, optimal=True)

    n = z.n
    full = (1 << n) - 1
    boundary_cache: dict[int, frozenset[int]] = {}

    def cell_boundary(cell: int) -> frozenset[int]:
        cached = boundary_cache.get(cell)
        if cached is None:
            free, fixed = cell >> n, cell & full
            cached = boundary_cache[cell] = frozenset(
                (free ^ bit) << n | fixed | value for bit in _bits(free) for value in (0, bit)
            )
        return cached

    chosen: set[int] = set()
    excluded: set[int] = set()
    best_cells: frozenset[int] | None = None
    nodes = 0
    aborted = False
    # Depth-first with an explicit stack, so the depth is not capped by the
    # interpreter.  Each frame holds a node's residual, its weight, the cells
    # it branches on, and how many of them it has tried.
    stack: list[tuple[frozenset[int], int, list[int], int]] = []
    residual = frozenset(face.free_mask << n | face.fixed_bits for face in z.support)
    weight = 0
    while True:
        nodes += 1
        if nodes > node_budget:
            aborted = True
            break
        if not residual:
            if weight < best_weight:
                best_weight = weight
                best_cells = frozenset(chosen)
        elif weight + -(-len(residual) // denominator) < best_weight:
            pivot = min(residual)
            free, fixed = pivot >> n, pivot & full
            # Freeing a higher coordinate gives a larger code, so the
            # coboundary comes out in face order.
            coboundary = ((free | bit) << n | fixed & ~bit for bit in _bits(~free & full))
            options = [cell for cell in coboundary if cell not in chosen and cell not in excluded]
            stack.append((residual, weight, options, 0))
        # Back up to the deepest node with an untried cell and branch on it.
        while stack:
            residual, weight, options, tried = stack.pop()
            if tried:
                chosen.remove(options[tried - 1])
                excluded.add(options[tried - 1])
            if tried < len(options):
                cell = options[tried]
                stack.append((residual, weight, options, tried + 1))
                chosen.add(cell)
                residual, weight = residual ^ cell_boundary(cell), weight + 1
                break
            excluded.difference_update(options)
        if not stack:
            break
    if best_cells is not None:
        best = Chain(n, z.k + 1, frozenset(Face(n, c >> n, c & full) for c in best_cells))
    return FillResult(best, "exact", best_weight, optimal=not aborted, nodes_explored=nodes)
