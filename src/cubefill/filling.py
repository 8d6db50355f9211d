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
  bound ceil(residual / (2(k+1))).

Both engines choose their cut from per-coordinate counts of the faces
pinned to 1, pinned to 0 and crossing, and slice the chain only along the
chosen coordinate.

Degree-0 cycles (even vertex sets) are filled by pairing vertices along
monotone edge paths; they sit outside the power-law regime but the linear
certificate n/2 * norm(z) still holds for the pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chains import Chain, SliceDecomposition
from .constants import c_constant, constants_for
from .faces import Face, _deposit_bits, _extract_bits

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


def _top_cell_fill(z: Chain) -> Chain:
    # In Q_{k+1} the only nonempty k-cycle is the boundary of the top cell.
    top = Face(z.n, (1 << z.n) - 1, 0)
    if z.support == top.boundary():
        return Chain(z.n, z.n, frozenset((top,)))
    raise ValueError("chain is not a cycle")


def _fill_zero_cycle(z: Chain) -> Chain:
    """Pair up vertices and connect each pair by a monotone edge path."""
    vertices = z.sorted_faces()
    if len(vertices) % 2:
        raise ValueError("a vertex chain of odd size has no filling")
    edges: set[Face] = set()
    for a, b in zip(vertices[0::2], vertices[1::2]):
        current = a.fixed_bits
        diff = current ^ b.fixed_bits
        while diff:
            bit = diff & -diff
            edges ^= {Face(z.n, bit, current & ~bit)}
            current ^= bit
            diff &= diff - 1
    return Chain(z.n, 1, frozenset(edges))


def _slice_counts(z: Chain) -> list[tuple[int, int, int]]:
    """Per coordinate, the faces pinned to 1, pinned to 0, and crossing."""
    ones = [0] * z.n
    crossing = [0] * z.n
    for face in z.support:
        for i in range(z.n):
            ones[i] += face.fixed_bits >> i & 1
            crossing[i] += face.free_mask >> i & 1
    return [(o, z.norm - o - c, c) for o, c in zip(ones, crossing)]


def _best_slice(z: Chain) -> SliceDecomposition:
    """The (coordinate, side) slice minimizing the exact inductive cost.

    The cost pushed + (n-k-1)/(2(k+1)) * (ones + zeros) is scaled by 2(k+1)
    to stay in integers.  Ties go to the lowest coordinate, then plus = 1.
    """
    n, k = z.n, z.k
    _, coordinate, flip = min(
        (2 * (k + 1) * pushed + (n - k - 1) * (ones + zeros), coordinate, flip)
        for coordinate, (ones, zeros, _) in enumerate(_slice_counts(z), 1)
        for flip, pushed in ((0, ones), (1, zeros))
    )
    return z.slice(coordinate, 1 - flip)


def _push_across(cut: SliceDecomposition, fill: Chain) -> Chain:
    """Extend a filling of z_plus + z_minus to the sliced chain by pushing z_plus across."""
    pushed = cut.z_plus.prism(cut.coordinate)
    return fill.inject(cut.coordinate, f"fixed-{1 - cut.plus_value}") + pushed


def _linear_fill_chain(z: Chain) -> Chain:
    if not z.support:
        return Chain(z.n, z.k + 1)
    if z.k == 0:
        return _fill_zero_cycle(z)
    if z.n == z.k + 1:
        return _top_cell_fill(z)
    cut = _best_slice(z)
    return _push_across(cut, _linear_fill_chain(cut.z_plus + cut.z_minus))


def linear_fill(z: Chain) -> FillResult:
    """Fill a cycle within the certificate (n-k)/(2(k+1)) * norm(z)."""
    _require_cycle(z)
    if z.support and z.n < z.k + 1:
        raise ValueError("no fillings exist above the top degree")
    certificate = (
        fill_bound_linear(z.n, z.k, z.norm) if z.support else Fraction(0)
    )
    return FillResult(_linear_fill_chain(z), "linear", certificate)


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


def support_subcube(z: Chain) -> tuple[tuple[int, ...], dict[int, int], Chain]:
    """Active coordinates, pinned values of the rest, and the restriction.

    A coordinate is active when some face leaves it free or when the support
    takes both pinned values there.  The restricted chain lives in a cube of
    dimension len(active); injecting the pinned coordinates back recovers z.
    """
    if not z.support:
        return ((), {}, Chain(0, z.k))
    full = (1 << z.n) - 1
    free_any = 0
    ones = 0
    zeros = 0
    for face in z.support:
        free_any |= face.free_mask
        ones |= face.fixed_bits
        zeros |= ~face.fixed_bits & ~face.free_mask & full
    active_mask = free_any | (ones & zeros)
    active = tuple(i + 1 for i in range(z.n) if active_mask >> i & 1)
    fixed_values = {
        i + 1: 1 if ones >> i & 1 else 0
        for i in range(z.n)
        if not active_mask >> i & 1
    }
    m = len(active)
    restricted = frozenset(
        Face(m, _extract_bits(f.free_mask, active_mask), _extract_bits(f.fixed_bits, active_mask))
        for f in z.support
    )
    return (active, fixed_values, Chain(m, z.k, restricted))


def _embed_from_subcube(chain: Chain, fixed_values: dict[int, int]) -> Chain:
    n = chain.n + len(fixed_values)
    active = ~sum(1 << (c - 1) for c in fixed_values) & ((1 << n) - 1)
    pinned = sum(value << (c - 1) for c, value in fixed_values.items())
    faces = frozenset(
        Face(n, _deposit_bits(f.free_mask, active), _deposit_bits(f.fixed_bits, active) | pinned)
        for f in chain.support
    )
    return Chain(n, chain.k, faces)


def _recursive_fill_chain(z: Chain) -> Chain:
    n, k = z.n, z.k
    if not z.support:
        return Chain(n, k + 1)
    if n == k + 1:
        return _top_cell_fill(z)
    if k == 1:
        # A connected 1-cycle of norm 2m fits in an m-dimensional subcube,
        # where the linear certificate is already quadratic in the norm.
        parts = Chain(n, 2)
        for component in connected_components(z):
            _active, fixed_values, inner = support_subcube(component)
            parts = parts + _embed_from_subcube(_linear_fill_chain(inner), fixed_values)
        return parts

    # Coordinates nothing crosses, with everything on one side: restrict to
    # the other coordinates before any case analysis.
    _active, fixed_values, inner = support_subcube(z)
    if fixed_values:
        return _embed_from_subcube(_recursive_fill_chain(inner), fixed_values)

    consts = constants_for(k)
    threshold = consts.epsilon * float(z.norm) ** ((k - 1) / k)
    candidates: list[tuple[int, int, int, int, int]] = []
    for coordinate, (ones, zeros, crossing) in enumerate(_slice_counts(z), 1):
        if crossing >= threshold:
            continue
        cheap = min(ones, zeros) <= consts.delta * float(crossing) ** (k / (k - 1))
        candidates.append((crossing, 0 if cheap else 1, coordinate, ones, zeros))

    if not candidates:
        # Every slice crosses a lot, so the cycle is large and the linear
        # certificate fits under the power certificate.
        return _linear_fill_chain(z)

    _, cheap_tag, coordinate, ones, zeros = min(candidates)
    if cheap_tag == 0:
        # Case 1: push the smaller side across the slice.
        cut = z.slice(coordinate, 1 if ones <= zeros else 0)
        return _push_across(cut, _recursive_fill_chain(cut.z_plus + cut.z_minus))

    # Case 2: fill the crossing one degree down, cap it with its prism, and
    # fill the two corrected sides separately in their hyperfaces.
    cut = z.slice(coordinate, 1)
    w0 = _recursive_fill_chain(cut.z_zero)
    plus_part = _recursive_fill_chain(cut.z_plus + w0)
    minus_part = _recursive_fill_chain(cut.z_minus + w0)
    return (
        w0.prism(cut.coordinate)
        + plus_part.inject(cut.coordinate, f"fixed-{cut.plus_value}")
        + minus_part.inject(cut.coordinate, f"fixed-{1 - cut.plus_value}")
    )


def recursive_fill(z: Chain) -> FillResult:
    """Fill a cycle within the certificate c_k * norm(z)^((k+1)/k)."""
    _require_cycle(z)
    if z.support and z.k < 1:
        raise ValueError("degree-0 cycles are outside the power-law regime; use linear_fill")
    if z.support and z.n < z.k + 1:
        raise ValueError("no fillings exist above the top degree")
    certificate = fill_bound_power(z.k, z.norm) if z.support else 0.0
    return FillResult(_recursive_fill_chain(z), "recursive", certificate)


def exact_fill(z: Chain, node_budget: int = DEFAULT_NODE_BUDGET) -> FillResult:
    """Minimum-weight filling by branch and bound.

    Any filling must contain a cell incident to each residual face, so the
    search branches on the coboundary cells of the minimum-rank residual
    face, in rank order, excluding cells already tried at this node so the
    branches partition the solution space.  A node is pruned when its weight
    plus ceil(residual / (2(k+1))) cannot beat the best known filling
    (each cell clears at most 2(k+1) residual faces).

    If the node budget runs out, the best filling found so far is returned
    with ``optimal`` False.  Node counts are deterministic.
    """
    if node_budget <= 0:
        raise ValueError("node budget must be positive")
    _require_cycle(z)
    if not z.support:
        return FillResult(Chain(z.n, z.k + 1), "exact", 0, optimal=True)

    seed = _linear_fill_chain(z)
    best = seed
    best_weight = seed.norm
    denominator = 2 * (z.k + 1)
    floor_weight = -(-z.norm // denominator)
    if best_weight <= floor_weight:
        # The seed already meets the global lower bound.
        return FillResult(best, "exact", best_weight, optimal=True)

    boundary_cache: dict[Face, frozenset[Face]] = {}

    def cell_boundary(cell: Face) -> frozenset[Face]:
        cached = boundary_cache.get(cell)
        if cached is None:
            cached = cell.boundary()
            boundary_cache[cell] = cached
        return cached

    chosen: set[Face] = set()
    excluded: set[Face] = set()
    nodes = 0
    aborted = False
    # Depth-first with an explicit stack, so the depth is not capped by the
    # interpreter.  Each frame holds a node's residual, its weight, the cells
    # it branches on, and how many of them it has tried.
    stack: list[tuple[frozenset[Face], int, list[Face], int]] = []
    residual, weight = z.support, 0
    while True:
        nodes += 1
        if nodes > node_budget:
            aborted = True
            break
        if not residual:
            if weight < best_weight:
                best_weight = weight
                best = Chain(z.n, z.k + 1, frozenset(chosen))
        elif weight + -(-len(residual) // denominator) < best_weight:
            pivot = min(residual)
            options = sorted(
                cell for cell in pivot.coboundary() if cell not in chosen and cell not in excluded
            )
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
    return FillResult(best, "exact", best_weight, optimal=not aborted, nodes_explored=nodes)
