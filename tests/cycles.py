"""Every k-cycle of a small cube, each run through all three fill engines.

The cube is acyclic, so its k-cycles are the Z2 span of the boundaries of its
(k+1)-cells (at degree 0, the even vertex sets).  Elimination over those
boundaries, each one int over the ranked k-faces, leaves a basis of d cycles,
and a Gray-code walk visits all 2^d - 1 nonzero cycles with one XOR each.

Run as ``python tests/cycles.py N K [STRIDE]`` to check every k-cycle of Q_N,
or every STRIDE-th of the walk, and print the survey's totals as one JSON
line; ``tests/test_exhaustive.py`` pins them for the smallest corpora and for
every 64th 1-cycle of Q_4, and, run as a script, for every 1-cycle of Q_4.
"""

from __future__ import annotations

import json
import sys
from collections import namedtuple
from collections.abc import Iterator

from cubefill import Chain, exact_fill, linear_fill, minimizer_fill_value, minimizer_norm, recursive_fill
from cubefill.faces import _bits, _boundary, _degree_codes

# a corpus's size, its summed optimum, linear and recursive norms and exact-search nodes,
# the cycles whose slicing lower bound is the optimum, and the largest optimum per norm
Survey = namedtuple("Survey", "cycles optimum linear recursive nodes tight largest")


def cycles(n: int, k: int, stride: int = 1) -> Iterator[Chain]:
    """Every stride-th nonzero k-cycle of Q_n, the first included, in Gray-code order
    over the basis: at stride 1 every cycle, once each."""
    faces = list(_degree_codes(n, k))
    rank = {face: i for i, face in enumerate(faces)}
    basis: dict[int, int] = {}  # reduced boundaries by their highest bit
    for cell in _degree_codes(n, k + 1):
        v = sum(1 << rank[face] for face in _boundary(cell, n))
        while v and v.bit_length() in basis:
            v ^= basis[v.bit_length()]
        if v:
            basis[v.bit_length()] = v
    vectors, z = list(basis.values()), 0
    for step in range(1, 1 << len(vectors)):
        z ^= vectors[(step & -step).bit_length() - 1]
        if (step - 1) % stride == 0:
            yield Chain._of(n, k, frozenset(faces[bit.bit_length() - 1] for bit in _bits(z)))


def survey(n: int, k: int, stride: int = 1) -> Survey:
    """Fill every stride-th k-cycle of Q_n, 1 <= k < n, with each engine and check each filling.

    Each filling's boundary is the cycle and its norm is within its certificate;
    the exact search completes at the default budget, its lower bound <= the
    optimum <= both constructive fillings; and no cycle's optimum / norm^((k+1)/k)
    exceeds the alternating-block member's, checked in integers.
    """
    member_fill, member_norm = minimizer_fill_value(n, k), minimizer_norm(n, k)
    count = optimum = linear = recursive = nodes = tight = 0
    largest: dict[int, int] = {}
    for z in cycles(n, k, stride):
        results = linear_fill(z), recursive_fill(z), exact_fill(z)
        for result in results:
            assert result.filling.boundary() == z, f"{result.strategy} does not fill {sorted(z.codes)}"
            assert result.filling.norm <= result.bound_certificate, f"{result.strategy} over its certificate"
        lin, rec, best = (result.filling.norm for result in results)
        exact = results[2]
        assert exact.optimal, f"exact search incomplete on {sorted(z.codes)}"
        assert exact.lower_bound <= best <= min(lin, rec), f"{exact.lower_bound}, {best}, {lin}, {rec}"
        assert best ** k * member_norm ** (k + 1) <= member_fill ** k * z.norm ** (k + 1), (
            f"{sorted(z.codes)}: optimum {best} at norm {z.norm} beats the family's ratio")
        count += 1
        optimum += best
        linear += lin
        recursive += rec
        nodes += exact.nodes_explored
        tight += exact.lower_bound == best
        largest[z.norm] = max(largest.get(z.norm, 0), best)
    return Survey(count, optimum, linear, recursive, nodes, tight, dict(sorted(largest.items())))


if __name__ == "__main__":
    print(json.dumps(survey(*map(int, sys.argv[1:4]))._asdict()))
