"""Z2 chain algebra on cube cells: sums, boundaries, slicing."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from .faces import Face, enumerate_faces, MAX_COORDINATES, parse_face

__all__ = [
    "Chain",
    "SliceDecomposition",
    "random_cycle",
]

_INJECT_STATES = {"fixed-0": "0", "fixed-1": "1", "free": "*"}


@dataclass(frozen=True)
class Chain:
    """A Z2 formal sum of k-cells of Q_n, identified with its support set.

    The degree label of an empty chain is nominal; degree -1 marks the empty
    boundary of a vertex chain.
    """

    n: int
    k: int
    support: frozenset[Face] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "support", frozenset(self.support))
        if not 0 <= self.n <= MAX_COORDINATES:
            raise ValueError(f"dimension {self.n} outside [0, {MAX_COORDINATES}]")
        if self.support:
            if not 0 <= self.k <= self.n:
                raise ValueError(f"degree {self.k} outside [0, {self.n}]")
            for face in self.support:
                if face.n != self.n or face.dim != self.k:
                    raise ValueError(
                        f"face {face} does not live in degree {self.k} of Q_{self.n}"
                    )
        elif self.k < -1:
            raise ValueError(f"degree {self.k} below -1")

    @classmethod
    def from_words(cls, *words: str, n: int | None = None, k: int | None = None) -> Chain:
        """Build a chain from face words; empty chains need explicit n and k."""
        faces = [parse_face(w) for w in words]
        if len(set(faces)) != len(faces):
            raise ValueError("duplicate face in support listing")
        if faces:
            got_n, got_k = faces[0].n, faces[0].dim
            if n is not None and n != got_n:
                raise ValueError(f"expected words of length {n}, got {got_n}")
            if k is not None and k != got_k:
                raise ValueError(f"expected degree {k}, got {got_k}")
            n, k = got_n, got_k
        elif n is None or k is None:
            raise ValueError("an empty chain needs explicit n and k")
        return cls(n, k, frozenset(faces))

    @property
    def norm(self) -> int:
        """Hamming norm: the support size."""
        return len(self.support)

    def sorted_faces(self) -> list[Face]:
        return sorted(self.support)

    def __add__(self, other: object) -> Chain:
        if not isinstance(other, Chain):
            return NotImplemented
        if self.n != other.n or self.k != other.k:
            raise ValueError(
                f"chain mismatch: (n={self.n}, k={self.k}) vs (n={other.n}, k={other.k})"
            )
        return Chain(self.n, self.k, self.support ^ other.support)

    def boundary(self) -> Chain:
        """Z2 sum of the face boundaries, one degree down."""
        if self.k <= 0 or not self.support:
            return Chain(self.n, max(self.k - 1, -1), frozenset())
        counts: Counter[Face] = Counter()
        for face in self.support:
            counts.update(face.boundary())
        odd = frozenset(g for g, c in counts.items() if c & 1)
        return Chain(self.n, self.k - 1, odd)

    def is_cycle(self) -> bool:
        return not self.boundary().support

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
        bit = 1 << (coordinate - 1)
        plus: list[Face] = []
        minus: list[Face] = []
        crossing: list[Face] = []
        for face in self.support:
            reduced = face.delete_coordinate(coordinate)
            if face.free_mask & bit:
                crossing.append(reduced)
            elif bool(face.fixed_bits & bit) == bool(plus_value):
                plus.append(reduced)
            else:
                minus.append(reduced)
        return SliceDecomposition(
            coordinate,
            plus_value,
            Chain(self.n - 1, self.k, frozenset(plus)),
            Chain(self.n - 1, self.k, frozenset(minus)),
            Chain(self.n - 1, self.k - 1 if self.k > 0 else -1, frozenset(crossing)),
        )

    def inject(self, coordinate: int, mode: str) -> Chain:
        """Insert a coordinate into every face; inverse of slicing.

        ``mode`` is one of 'fixed-0', 'fixed-1', 'free'.  Free insertion
        raises the degree by one; the norm is always preserved.
        """
        state = _INJECT_STATES.get(mode)
        if state is None:
            raise ValueError(f"mode must be one of {sorted(_INJECT_STATES)}, got {mode!r}")
        if not 1 <= coordinate <= self.n + 1:
            raise ValueError(f"coordinate {coordinate} outside [1, {self.n + 1}]")
        faces = frozenset(f.insert_coordinate(coordinate, state) for f in self.support)
        k = self.k + 1 if mode == "free" else self.k
        return Chain(self.n + 1, k, faces)

    def prism(self, coordinate: int) -> Chain:
        """Free injection, named for its boundary identity:

        boundary(prism(w)) = prism(boundary(w)) + inject(w, fixed-0)
                                                + inject(w, fixed-1)
        """
        return self.inject(coordinate, "free")

    def __repr__(self) -> str:
        return f"Chain(n={self.n}, k={self.k}, norm={self.norm})"


@dataclass(frozen=True)
class SliceDecomposition:
    """A chain split by one coordinate into z_plus, z_minus and z_zero."""

    coordinate: int
    plus_value: int
    z_plus: Chain
    z_minus: Chain
    z_zero: Chain

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
    if not 0 <= density <= 1:
        raise ValueError(f"density {density} outside [0, 1]")
    rng = random.Random(seed)
    chosen = frozenset(f for f in enumerate_faces(n, k + 1) if rng.random() < density)
    return Chain(n, k + 1, chosen).boundary()
