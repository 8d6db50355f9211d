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

* ``exact_fill`` is a branch-and-bound search from the linear filling
  that stops at the first filling meeting the paper's slicing lower bound.

All three engines work on the int codes a ``Chain`` keeps, ``free_mask
<< n | fixed_bits``, in the input's own Q_n: the input's codes go in, the
filling's codes come out as a ``Chain``, and no ``Face`` is built.

A subproblem of the linear and recursive engines is a cycle inside the
cell of its live coordinates: a facet or a support subcube of Q_n is
itself a cell of Q_n, so a cut pins one live coordinate in place instead
of renumbering into a smaller cube.  Each level packs its faces once for
its cut and its per-coordinate counts of faces pinned to 1, pinned to 0
and crossing.  The linear engine counts the varying coordinates its input
crosses and the lowest live one where nothing varies, no costlier than
the other uncrossed ones, which it counts only if no count is below that.

Degree-0 cycles (even vertex sets) are filled by pairing vertices along
monotone edge paths; they sit outside the power-law regime but the linear
certificate n/2 * norm(z) still holds for the pairing.
"""

from __future__ import annotations

import struct
from bisect import insort
from collections import namedtuple
from collections.abc import Iterable, Set
from fractions import Fraction
from functools import cache, partial, reduce
from itertools import compress, repeat
from operator import and_, lshift, neg, or_, rshift, xor

from .chains import Chain
from .constants import c_constant, constants_for
from .faces import Face, _bits, _boundary, _coboundary, _face, _field, _free_at, _split, _words
from .faces import _degree_codes, face_count

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "FillRefused",
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

# The exact search keeps its residual as one int over the ranked k-faces of cubes with at most
# _RANKED of them (at 2^12, degree-0 searches of Q_11 and Q_12 ran up to 1.27x slower than on
# sets), else as a set with its _LOW least faces kept sorted: 16 was the fastest of 4, 8, 16,
# 32 and the whole residual, measured when every exact-search workload search ran on sets
_RANKED, _LOW = 1 << 10, 16
_Packing = tuple[list[int], list[int], int, int]  # codes, byte columns, low, free_at


class FillResult(namedtuple(
    "FillResult", "filling strategy bound_certificate optimal nodes_explored lower_bound",
    defaults=(False, 0, None),
)):
    """A filling plus provenance.

    ``bound_certificate`` is the value the strategy guarantees: an exact
    rational for the linear strategy, a float for the power bound, and the
    achieved weight for the exact search.  ``optimal`` is set only by a
    completed exact search, ``lower_bound`` (on every filling's weight) only
    by the exact search.
    """

    __slots__ = ()


class FillRefused(ValueError):
    """An engine's refusal of its input: ``boundary`` is a non-cycle's boundary, else None."""

    def __init__(self, message: str, boundary: Chain | None = None):
        super().__init__(message)
        self.boundary = boundary


def _require_cycle(z: Chain) -> None:
    if (boundary := z.boundary()).codes:
        sample = ", ".join(_words(sorted(boundary.codes)[:6], z.n))
        raise FillRefused(f"chain is not a cycle: boundary has {boundary.norm} faces ({sample})", boundary)


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


def _fill_zero_cycle(z: frozenset[int], n: int, out: set[int]) -> None:
    """Pair up vertices and connect each pair by a monotone edge path."""
    if len(z) % 2:
        raise FillRefused("a vertex chain of odd size has no filling")
    vertices = sorted(z)
    for current, target in zip(vertices[0::2], vertices[1::2]):
        for bit in _bits(current ^ target):
            out ^= {bit << n | current & ~bit}
            current ^= bit


def _pack(z: Set[int], n: int) -> _Packing:
    """z's codes, byte columns, ``low`` (a byte 1 per face) and ``free_at``: each code goes to one
    field, the narrowest holding 2n bits (wider: fixed bits and free mask to two 64-bit fields,
    ``free_at`` 64, else n), and column j is byte j of every field, a numeral with a byte per face."""
    codes = list(z)
    if 2 * n <= 64:
        width, field = _field(2 * n)
        packs, free_at = [struct.pack(f"<{len(codes)}{field}", *codes)], n
    else:
        width, free_at = 64, 64
        packs = [struct.pack(f"<{len(codes)}Q", *values)
                 for values in (map(((1 << n) - 1).__and__, codes), map(n.__rrshift__, codes))]
    columns = [int.from_bytes(p[j::width // 8], "little") for p in packs for j in range(width // 8)]
    return codes, columns, int.from_bytes(bytes([1]) * len(codes), "little"), free_at


def _slice_counts(
    z: Set[int], n: int, live: int, packing: _Packing | None = None
) -> tuple[list[tuple[int, int, int, int]], _Packing]:
    """Per live coordinate, lowest first: its bit, faces pinned to 1, pinned to 0 and crossing,
    each one shift, mask and popcount of a column; and the packing (``_pack(z, n)`` unless given)."""
    codes, columns, low, free_at = packing = packing or _pack(z, n)
    counts = []
    for bit in _bits(live):
        i = bit.bit_length() - 1
        ones = (columns[i >> 3] >> (i & 7) & low).bit_count()
        crossing = (columns[i + free_at >> 3] >> (i + free_at & 7) & low).bit_count()
        counts.append((bit, ones, len(codes) - ones - crossing, crossing))
    return counts, packing


def _crossed(packing: _Packing) -> int:
    """The coordinates some face leaves free: each free-mask column's bytes ORed by halving shifts."""
    codes, columns, _, free_at = packing
    ored = columns[free_at >> 3:]
    for step in reversed(range((len(codes) - 1).bit_length())):
        ored = [column | column >> (8 << step) for column in ored]
    return int.from_bytes(bytes(column & 255 for column in ored), "little") >> (free_at & 7)


def _pin(
    codes: Iterable[int], n: int, bit: int, state: int | None, value: int | None
) -> frozenset[int]:
    """The codes, all in ``state`` at the coordinate ``bit``, moved to ``value`` (None: free)."""
    put = {0: 0, 1: bit, None: bit << n}
    return frozenset(map((put[state] ^ put[value]).__xor__, codes))


def _cut(packing: _Packing, n: int, bit: int, plus_value: int, out: set[int]) -> set[int]:
    """Push the faces of z pinned to ``plus_value`` across the coordinate ``bit``, each side picked
    off z's packing (``_pack``) by its byte-per-face numeral, the crossing faces unread; adds the
    pushed (k+1)-chain to ``out`` and returns the rest, a cycle in the facet pinned to the other
    value: its fillings plus the pushed chain fill z."""
    codes, columns, low, free_at = packing
    i = bit.bit_length() - 1
    ones = columns[i >> 3] >> (i & 7) & low
    sides = (low ^ ones ^ (columns[i + free_at >> 3] >> (i + free_at & 7) & low), ones)
    plus = list(compress(codes, sides[plus_value].to_bytes(len(codes), "little")))
    out ^= set(map(xor, plus, repeat(bit << n | bit * plus_value)))
    rest = set(compress(codes, sides[1 - plus_value].to_bytes(len(codes), "little")))
    rest ^= set(map(xor, plus, repeat(bit)))
    return rest


def _linear_fill_chain(z: Set[int], n: int, live: int, out: set[int]) -> None:
    if not z:
        return
    k = (next(iter(z)) >> n).bit_count()
    if k == 0:
        return _fill_zero_cycle(z, n, out)
    # The cut minimizing the exact inductive cost in the d-dimensional live
    # cell, pushed + (d-k-1)/(2(k+1)) * (ones + zeros), scaled by 2(k+1) to
    # stay in integers, pushes the smaller side; ties go to the lowest
    # coordinate, then plus = 1.  A cut only moves or drops faces, so no
    # coordinate starts to vary or to be crossed.  An uncrossed one costs
    # (d-k-1) * |z| plus its pushed side: the lowest counted not to vary stands
    # for all those, and the rest are counted only when no count is below that.
    varying, crossed = live, 0
    while z:
        d = live.bit_count()
        if d == k + 1:
            # the only nonempty k-cycle in a (k+1)-cell is the cell's boundary
            out ^= {live << n | next(iter(z)) & ~live & ((1 << n) - 1)}
            return
        packing = _pack(z, n)
        crossed = crossed or _crossed(packing)
        outside, skipped, counts = live & ~varying, varying & ~crossed, []
        for part in (varying & crossed | outside & -outside, skipped):
            counts += _slice_counts(z, n, part, packing)[0]
            cost, bit, flip = min((2 * (k + 1) * min(ones, zeros) + (d - k - 1) * (ones + zeros),
                                   bit, ones > zeros) for bit, ones, zeros, _ in counts)
            if not skipped or cost < (d - k - 1) * len(z):
                break
        live &= ~bit
        varying &= live & ~sum(b for b, ones, zeros, _ in counts if not (ones and zeros))
        z = _cut(packing, n, bit, 1 - flip, out)


def linear_fill(z: Chain) -> FillResult:
    """Fill a cycle within the certificate (n-k)/(2(k+1)) * norm(z)."""
    _require_cycle(z)
    certificate = fill_bound_linear(z.n, z.k, z.norm) if z.codes else Fraction(0)
    filling: set[int] = set()
    _linear_fill_chain(z.codes, z.n, (1 << z.n) - 1, filling)
    return FillResult(Chain._of(z.n, z.k + 1, frozenset(filling)), "linear", certificate)


def _components(z: Set[int], n: int) -> list[frozenset[int]]:
    """Faces linked by shared facets, in order of least face: numbered in face order, each
    face is linked both ways to the first face seen with each of its facets, built by maps one
    free-coordinate rank at a time, and the links are walked from each unvisited face."""
    codes = sorted(z)
    k = (codes[0] >> n).bit_count() if codes else 0
    if not k:
        return [frozenset((code,)) for code in codes]  # a vertex has no facets
    faces = range(len(codes))
    links: list[list[int]] = [[] for _ in faces]
    owner: dict[int, int] = {}  # facet -> the number of the first face seen with it
    frees = list(map(rshift, codes, repeat(n)))
    for _ in range(k):
        lows = list(map(and_, frees, map(neg, frees)))
        zero = list(map(xor, codes, map(lshift, lows, repeat(n))))
        frees = list(map(xor, frees, lows))
        for facets in (zero, map(or_, zero, lows)):
            for face, first, own in zip(faces, map(owner.setdefault, facets, faces), links):
                if face != first:
                    own.append(first)
                    links[first].append(face)
    seen, blocks = bytearray(len(codes)), []
    for start in faces:
        if seen[start]:
            continue
        seen[start], block = 1, [start]
        for face in block:  # grows as the walk reaches new faces
            for other in links[face]:
                if not seen[other]:
                    seen[other] = 1
                    block.append(other)
        blocks.append(frozenset(map(codes.__getitem__, block)))
    return blocks


def connected_components(z: Chain) -> list[Chain]:
    """Partition the support into classes linked by shared (k-1)-faces."""
    return [Chain._of(z.n, z.k, block) for block in _components(z.codes, z.n)]


def support_subcube(z: Chain) -> Face:
    """The smallest cell of Q_n holding every face of z.

    Its free coordinates are the active ones: some face leaves them free, or
    the support takes both pinned values there.  The empty chain gets the
    vertex 0...0.
    """
    counts, _ = _slice_counts(z.codes, z.n, (1 << z.n) - 1)
    active = sum(bit for bit, ones, zeros, crossing in counts if crossing or ones and zeros)
    on_one = sum(bit for bit, ones, _, _ in counts if ones)
    return _face(active << z.n | on_one & ~active, z.n)


def _recursive_fill_chain(z: Set[int], n: int, live: int, out: set[int]) -> None:
    if not z:
        return
    k = (next(iter(z)) >> n).bit_count()
    if k == 1:
        # A connected 1-cycle of norm 2m fits in an m-dimensional cell, where
        # the linear certificate is already quadratic in the norm.  That cell
        # is where its edges are free: in a connected chain, faces on opposite
        # sides of a coordinate are joined through a face free there.
        for component in _components(z, n):
            _linear_fill_chain(component, n, reduce(or_, map(n.__rrshift__, component)), out)
        return

    # Coordinates with everything on one side (so, on a cycle, nothing
    # crosses them): drop them from the live cell before any case analysis.
    counts, packing = _slice_counts(z, n, live)
    counts = [count for count in counts if count[1] and count[2]]
    live = sum(count[0] for count in counts)

    consts = constants_for(k)
    threshold = consts.epsilon * float(len(z)) ** ((k - 1) / k)
    candidates: list[tuple[int, int, int, int, int]] = []
    for bit, ones, zeros, crossing in counts:
        if crossing >= threshold:
            continue
        cheap = min(ones, zeros) <= consts.delta * float(crossing) ** (k / (k - 1))
        candidates.append((crossing, 0 if cheap else 1, bit, ones, zeros))

    if not candidates:
        # Every slice crosses a lot, so the cycle is large and the linear
        # certificate fits under the power certificate (a (k+1)-cell's
        # boundary, 2k across every slice, lands here and gets the cell).
        return _linear_fill_chain(z, n, live, out)

    _, cheap_tag, bit, ones, zeros = min(candidates)
    inner = live & ~bit
    if cheap_tag == 0:
        # Case 1: push the smaller side across the slice.
        rest = _cut(packing, n, bit, 1 if ones <= zeros else 0, out)
        return _recursive_fill_chain(rest, n, inner, out)

    # Case 2: fill the crossing one degree down in the 0 facet, cap it with
    # its prism, and fill the two corrected sides separately in their facets.
    zero_side, one_side, crossing = _split(z, n, bit)
    w0: set[int] = set()
    _recursive_fill_chain(_pin(crossing, n, bit, None, 0), n, inner, w0)
    out ^= _pin(w0, n, bit, 0, None)
    _recursive_fill_chain(frozenset(one_side) ^ _pin(w0, n, bit, 0, 1), n, inner, out)
    _recursive_fill_chain(frozenset(zero_side) ^ w0, n, inner, out)


def recursive_fill(z: Chain) -> FillResult:
    """Fill a cycle within the certificate c_k * norm(z)^((k+1)/k)."""
    _require_cycle(z)
    if z.codes and z.k < 1:
        raise FillRefused("degree-0 cycles are outside the power-law regime; use linear_fill")
    certificate = fill_bound_power(z.k, z.norm) if z.codes else 0.0
    filling: set[int] = set()
    _recursive_fill_chain(z.codes, z.n, (1 << z.n) - 1, filling)
    return FillResult(Chain._of(z.n, z.k + 1, frozenset(filling)), "recursive", certificate)


def _lower_bound(codes: Iterable[int], n: int, budget: int) -> int:
    """The paper's slicing lower bound on the weight of every filling of ``codes``.

    Cut at a coordinate, a filling keeps its cells free there as a filling of
    the crossing, and each (k+1)-cell is free at k+1 coordinates; a 0-cycle's
    filling holds a perfect matching, so at degree 0 the bound is half the
    sum of each vertex's distance to its nearest other one.  Bounds are
    memoised by cut-coordinate mask.  Past about ``budget`` memoised
    crossings the rest count as 0, which weakens the bound but keeps it valid.
    """
    memo: dict[int, int] = {}

    def bound(z: list[int], cut: int) -> int:
        k = (next(iter(z), 0) >> n).bit_count()
        if k == 0:
            # a neighbour at distance 1 if there is one, else a scan of all
            vertices = set(z)
            nearest = (
                1 if any(v ^ 1 << i in vertices for i in range(n))
                else min((v ^ u).bit_count() for u in z if u != v)
                for v in z
            )
            return -(-sum(nearest) // 2)
        total = 0
        for bit, free in _free_at(z, n):
            if cut | bit not in memo and len(memo) < budget:
                memo[cut | bit] = bound(list(map((bit << n).__xor__, free)), cut | bit)
            total += memo.get(cut | bit, 0)
        return max(-(-len(z) // (2 * (k + 1))), -(-total // (k + 1)))

    return bound(list(codes), 0)


@cache
def _ranked(n: int, k: int) -> tuple[list[int], dict[int, int], dict[int, list[int]], dict[int, int]]:
    """The exact search's tables for the k-faces of Q_n, kept for the process: the faces in
    face order and each one's rank there, then, filled as searches ask, the cells on each
    face and each judged cell's boundary as an int over the ranks."""
    faces = list(_degree_codes(n, k))
    return faces, {face: i for i, face in enumerate(faces)}, {}, {}


def exact_fill(z: Chain, node_budget: int = DEFAULT_NODE_BUDGET) -> FillResult:
    """Minimum-weight filling by branch and bound.

    Any filling must contain a cell incident to each residual face, so the
    search branches on the coboundary cells of the least residual face, in
    face order, excluding cells already tried at this node so the branches
    partition the solution space.  A search that runs picks its residual
    once: in a cube of at most ``_RANKED`` k-faces, one int with bit i set for
    the i-th k-face in face order, the least residual face its lowest bit,
    with the cells on each face and each cell's boundary read from tables kept
    for the process per (n, k) (``_ranked``); else a set of codes, with tables
    of the same form kept for the call, the least residual face the first of a
    sorted list of its faces up to its last one, at most ``_LOW`` long: an
    applied cell inserts or deletes the faces of its boundary at or below that
    last one in a copy, the stack keeps each node's list for the undo, and the
    residual is sorted again only when the list runs empty.  Each child counts
    as a node and is judged from its parent by the residual faces its boundary
    hits, ``size(boundary & residual)``, one table lookup: it is applied only
    if its weight plus ceil(residual / (2(k+1))) can beat the best known
    filling (each cell clears at most 2(k+1) residual faces).  The search stops
    at the first filling, the linear seed included, that meets
    ``lower_bound``: the slicing bound, computed once at the root (per node it
    costs more than it saves) unless the seed meets the trivial bound, and
    given at most ``node_budget`` plus ``z.norm`` memoised crossings.

    If the node budget runs out, the best filling found so far is returned
    with ``optimal`` False and ``nodes_explored`` one past the budget.  Node
    counts are deterministic.
    """
    _require_cycle(z)
    if node_budget <= 0:
        raise FillRefused("node budget must be positive")
    if not z.codes:
        empty = Chain._of(z.n, z.k + 1, frozenset())
        return FillResult(empty, "exact", 0, optimal=True, lower_bound=0)

    n = z.n
    best_cells: set[int] = set()
    _linear_fill_chain(z.codes, n, (1 << n) - 1, best_cells)
    denominator = 2 * (z.k + 1)
    bound = -(-z.norm // denominator)
    if len(best_cells) > bound:
        bound = _lower_bound(z.codes, n, node_budget + z.norm)

    if len(best_cells) > bound and face_count(n, z.k) <= _RANKED:
        faces, rank, cells_on, boundaries = _ranked(n, z.k)
        boundary_of = lambda cell: sum(1 << rank[face] for face in _boundary(cell, n))
        residual, size = sum(1 << rank[face] for face in z.codes), int.bit_count
    else:
        faces, cells_on, boundaries, boundary_of = [], {}, {}, partial(_boundary, n=n)
        residual, size = set(z.codes), len
    excluded: set[int] = set()
    # Depth-first with an explicit stack, so the depth is not capped by the
    # interpreter, and one residual updated in place as cells are chosen and
    # undone.  A node has judged the first ``judged`` of its ``options`` (none
    # when new).  The stack alone is the path: each frame chose its last judged
    # cell, ``options[judged - 1]``, which stays in ``excluded`` (so no node below
    # offers it) until the frame is popped, and keeps ``low``: on sets, sorted,
    # exactly the residual's faces up to its last one (ranked, empty).
    stack: list[tuple[list[int], int, list[int]]] = []
    judged = 0
    low: list[int] = []
    nodes = int(len(best_cells) > bound)
    while len(best_cells) > bound:
        if not judged:
            if not (faces or low):
                low = sorted(residual)[:_LOW]
            face = faces[(residual & -residual).bit_length() - 1] if faces else low[0]
            try:
                cells = cells_on[face]
            except KeyError:
                cells = cells_on[face] = _coboundary(face, n)
            options = [c for c in cells if c not in excluded]
        # A child's boundary clears h residual faces and adds a = 2(k+1) - h, leaving
        # size(residual) - 2(k+1) + 2a: weight + 1 + ceil(left / (2(k+1))) < best iff
        # a <= (2(k+1) * (best - weight - 1) - size(residual)) // 2, iff h >= need.
        need = denominator - (denominator * (len(best_cells) - len(stack) - 1) - size(residual)) // 2
        start = judged
        for cell in options[judged:]:
            judged += 1
            try:
                boundary = boundaries[cell]
            except KeyError:
                boundary = boundaries[cell] = boundary_of(cell)
            if size(boundary & residual) >= need:
                break
        else:
            cell = None
        nodes += judged - start
        if nodes > node_budget:
            break
        if cell is None:
            # out of cells: undo the cell chosen above and resume that node
            excluded.difference_update(options)
            if not stack:
                break
            options, judged, low = stack.pop()
            residual ^= boundaries[options[judged - 1]]
            continue
        excluded.update(options[start:judged])
        if residual == boundary:
            best_cells = {o[j - 1] for o, j, _ in stack} | {cell}
        else:
            residual ^= boundary
            stack.append((options, judged, low))
            if not faces:
                # the branch face leaves; faces above the last one of ``low`` stay out of it
                first, last, low = low[0], low[-1], low[1:]
                for face in boundary:
                    if face <= last and face != first:
                        if face in residual:
                            insort(low, face)
                        else:
                            low.remove(face)
            judged = 0
    nodes = min(nodes, node_budget + 1)
    best = Chain._of(n, z.k + 1, frozenset(best_cells))
    return FillResult(best, "exact", len(best_cells), nodes <= node_budget, nodes, lower_bound=bound)
