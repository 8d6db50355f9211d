"""Z2 chain algebra on cube cells: sums, boundaries, slicing.

A chain keeps its support as a frozenset of int codes (see ``faces``), and
every operation here works on the codes; sums are symmetric differences.
``Face`` objects are built only when ``support`` is read.  A dense chain's boundary is
summed as byte-per-vertex numerals; wide cubes need sets of codes, as 2^n bytes is too many.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import repeat
from math import comb
from operator import xor

from .faces import (
    MAX_COORDINATES, Face, _degree_codes, _delete, _dense_boundary, _face, _free_at, _frozen,
    _insert, _parse_words, _split,
)

__all__ = [
    "Chain",
    "SliceDecomposition",
    "random_cycle",
]

_INJECT_BITS = {"fixed-0": (0, 0), "fixed-1": (0, 1), "free": (1, 0)}  # (star, one) put in
# numerals sum a boundary while comb(n, k) * 2^n <= _DENSE * k * norm, where they beat sets
_DENSE = 64


class Chain:
    """A Z2 formal sum of k-cells of Q_n, identified with its support set.

    ``Chain(n, k, faces)`` takes the support as Faces and keeps it as their
    int ``codes``, which equality and hashing use.  The degree label of an
    empty chain is nominal; degree -1 marks the empty boundary of a vertex chain.
    """

    __setattr__ = __delattr__ = _frozen

    def __init__(self, n: int, k: int, support: frozenset[Face] = frozenset()) -> None:
        support = frozenset(support)
        if not 0 <= n <= MAX_COORDINATES:
            raise ValueError(f"dimension {n} outside [0, {MAX_COORDINATES}]")
        if support and not 0 <= k <= n:
            raise ValueError(f"degree {k} outside [0, {n}]")
        if k < -1:
            raise ValueError(f"degree {k} below -1")
        for face in support:
            if face.n != n or face.dim != k:
                raise ValueError(f"face {face} does not live in degree {k} of Q_{n}")
        self.__dict__.update(n=n, k=k, codes=frozenset(face.code for face in support))

    @classmethod
    def _of(cls, n: int, k: int, codes: frozenset[int]) -> Chain:
        """The chain of codes already known to be k-cells of Q_n."""
        chain = object.__new__(cls)
        chain.__dict__.update(n=n, k=k, codes=codes)
        return chain

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.k, self.codes) == (other.n, other.k, other.codes)

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.codes))

    @classmethod
    def from_words(cls, *words: str, n: int | None = None, k: int | None = None) -> Chain:
        """Build a chain from face words; empty chains need explicit n and k."""
        codes = _parse_words(words)
        support = frozenset(codes)
        # equal codes are equal words unless the lengths differ, which the last check reports
        if len(support) != len(words) and len(set(words)) != len(words):
            raise ValueError("duplicate face in support listing")
        if not words:
            if n is None or k is None:
                raise ValueError("an empty chain needs explicit n and k")
            return cls(n, k)
        got_n, got_k = len(words[0]), (codes[0] >> len(words[0])).bit_count()
        if n is not None and n != got_n:
            raise ValueError(f"expected words of length {n}, got {got_n}")
        if k is not None and k != got_k:
            raise ValueError(f"expected degree {k}, got {got_k}")
        n, k = got_n, got_k
        if set(map(len, words)) != {n} or set(map(int.bit_count, map(n.__rrshift__, codes))) != {k}:
            word = next(w for w, c in zip(words, codes) if len(w) != n or (c >> n).bit_count() != k)
            raise ValueError(f"face {word} does not live in degree {k} of Q_{n}")
        return cls._of(n, k, support)

    @property
    def support(self) -> frozenset[Face]:
        """The support as Faces, built from the codes on each call."""
        return frozenset(_face(code, self.n) for code in self.codes)

    @property
    def norm(self) -> int:
        """Hamming norm: the support size."""
        return len(self.codes)

    def __add__(self, other: object) -> Chain:
        if not isinstance(other, Chain):
            return NotImplemented
        if self.n != other.n or self.k != other.k:
            raise ValueError(
                f"chain mismatch: (n={self.n}, k={self.k}) vs (n={other.n}, k={other.k})"
            )
        return Chain._of(self.n, self.k, self.codes ^ other.codes)

    def boundary(self) -> Chain:
        """Z2 sum of the face boundaries, one degree down: as numerals when comb(n, k) * 2^n
        <= ``_DENSE`` * k * norm, else as sets of codes, which grow with the norm, not 2^n."""
        n, k, codes = self.n, self.k, self.codes
        if k >= 1 and comb(n, k) << n <= _DENSE * k * len(codes):
            return Chain._of(n, k - 1, frozenset(_dense_boundary(codes, n)))
        odd: set[int] = set()
        # faces free at a coordinate drop it in two ways, one XOR each
        for bit, free in _free_at(list(codes), n):
            free = list(free)
            odd ^= set(map(xor, free, repeat(bit << n)))
            odd ^= set(map(xor, free, repeat(bit << n | bit)))
        return Chain._of(n, max(k - 1, -1), frozenset(odd))

    def is_cycle(self) -> bool:
        return not self.boundary().codes

    def slice(self, coordinate: int, plus_value: int) -> SliceDecomposition:
        """Split along a 1-based coordinate into side parts and a crossing part.

        Faces pinned to ``plus_value`` land in z_plus, faces pinned to the
        opposite bit in z_minus, faces with the coordinate free in z_zero.
        All three are re-expressed in Q_{n-1} by deleting the coordinate.
        """
        if not 1 <= coordinate <= self.n:
            raise ValueError(f"coordinate {coordinate} outside [1, {self.n}]")
        if plus_value not in (0, 1):
            raise ValueError("plus_value must be 0 or 1")
        n, k, pos = self.n, self.k, coordinate - 1
        sides = [frozenset(_delete(c, n, pos) for c in s) for s in _split(self.codes, n, 1 << pos)]
        return SliceDecomposition(
            coordinate,
            plus_value,
            Chain._of(n - 1, k, sides[plus_value]),
            Chain._of(n - 1, k, sides[1 - plus_value]),
            Chain._of(n - 1, max(k - 1, -1), sides[2]),
        )

    def inject(self, coordinate: int, mode: str) -> Chain:
        """Insert a coordinate into every face; inverse of slicing.

        ``mode`` is one of 'fixed-0', 'fixed-1', 'free'.  Free insertion
        raises the degree by one; the norm is always preserved.
        """
        bits = _INJECT_BITS.get(mode)
        if bits is None:
            raise ValueError(f"mode must be one of {sorted(_INJECT_BITS)}, got {mode!r}")
        if not 1 <= coordinate <= self.n + 1:
            raise ValueError(f"coordinate {coordinate} outside [1, {self.n + 1}]")
        if self.n + 1 > MAX_COORDINATES:
            raise ValueError(f"dimension {self.n + 1} outside [0, {MAX_COORDINATES}]")
        codes = frozenset(_insert(code, self.n, coordinate - 1, *bits) for code in self.codes)
        return Chain._of(self.n + 1, self.k + bits[0], codes)

    def prism(self, coordinate: int) -> Chain:
        """Free injection, named for its boundary identity:

        boundary(prism(w)) = prism(boundary(w)) + inject(w, fixed-0)
                                                + inject(w, fixed-1)
        """
        return self.inject(coordinate, "free")

    def __repr__(self) -> str:
        return f"Chain(n={self.n}, k={self.k}, norm={self.norm})"


class SliceDecomposition(
    namedtuple("SliceDecomposition", "coordinate plus_value z_plus z_minus z_zero")
):
    """A chain split by one coordinate into z_plus, z_minus and z_zero."""

    __slots__ = ()

    def reassemble(self) -> Chain:
        """Undo the slice; returns the original chain exactly."""
        plus = self.z_plus.inject(self.coordinate, f"fixed-{self.plus_value}")
        minus = self.z_minus.inject(self.coordinate, f"fixed-{1 - self.plus_value}")
        crossing = self.z_zero.inject(self.coordinate, "free")
        return plus + minus + crossing


def random_cycle(n: int, k: int, density: float, seed: int) -> Chain:
    """The boundary of a seeded random (k+1)-chain; always a cycle.

    Each (k+1)-cell joins the chain independently with probability
    ``density``.  Deterministic for a given seed.
    """
    if not 1 <= k + 1 <= n:
        raise ValueError(f"need 1 <= k+1 <= n, got k={k}, n={n}")
    if n > MAX_COORDINATES:
        raise ValueError(f"dimension {n} outside [0, {MAX_COORDINATES}]")
    if not 0 <= density <= 1:
        raise ValueError(f"density {density} outside [0, 1]")
    rng = random.Random(seed)
    chosen = frozenset(code for code in _degree_codes(n, k + 1) if rng.random() < density)
    return Chain._of(n, k + 1, chosen).boundary()
