"""Cells of the n-dimensional cube.

A k-dimensional cell of Q_n is a length-n word over {0, 1, *} with exactly
k stars: starred coordinates are free, the others are pinned to the written
bit.  Cells are stored as a pair of bit masks, which keeps equality,
hashing, incidence and ordering cheap.  Coordinates are 1-based in words and
messages, 0-based inside the masks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, total_ordering
from math import comb

__all__ = [
    "MAX_COORDINATES",
    "Face",
    "parse_face",
    "render_face",
    "face_count",
    "enumerate_faces",
]

# Masks must fit in a machine word; desk-scale work never gets close.
MAX_COORDINATES = 64


def _delete_bit(mask: int, pos: int) -> int:
    low = mask & ((1 << pos) - 1)
    return low | (mask >> (pos + 1)) << pos


def _insert_bit(mask: int, pos: int, bit: int) -> int:
    low = mask & ((1 << pos) - 1)
    return low | (mask >> pos) << (pos + 1) | bit << pos


@total_ordering
@dataclass(frozen=True)
class Face:
    """One cell of Q_n.

    ``free_mask`` marks the starred coordinates, ``fixed_bits`` holds the
    written bits of the determined coordinates (zero under the free mask).
    """

    n: int
    free_mask: int
    fixed_bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_COORDINATES:
            raise ValueError(f"dimension {self.n} outside [0, {MAX_COORDINATES}]")
        full = (1 << self.n) - 1
        if not 0 <= self.free_mask <= full:
            raise ValueError("free mask has bits outside the coordinate range")
        if not 0 <= self.fixed_bits <= full:
            raise ValueError("fixed bits have bits outside the coordinate range")
        if self.free_mask & self.fixed_bits:
            raise ValueError("fixed bits overlap free coordinates")

    @property
    def dim(self) -> int:
        return self.free_mask.bit_count()

    def value_at(self, coordinate: int) -> str:
        """The symbol at a 1-based coordinate: '0', '1' or '*'."""
        if not 1 <= coordinate <= self.n:
            raise ValueError(f"coordinate {coordinate} outside [1, {self.n}]")
        bit = 1 << (coordinate - 1)
        if self.free_mask & bit:
            return "*"
        return "1" if self.fixed_bits & bit else "0"

    def boundary(self) -> frozenset[Face]:
        """The 2k cells one dimension down, one per way of pinning a star."""
        faces = []
        free = self.free_mask
        while free:
            bit = free & -free
            faces.append(Face(self.n, self.free_mask ^ bit, self.fixed_bits))
            faces.append(Face(self.n, self.free_mask ^ bit, self.fixed_bits | bit))
            free &= free - 1
        return frozenset(faces)

    def coboundary(self) -> frozenset[Face]:
        """The n-k cells one dimension up, one per way of freeing a coordinate."""
        faces = []
        pinned = ~self.free_mask & ((1 << self.n) - 1)
        while pinned:
            bit = pinned & -pinned
            faces.append(Face(self.n, self.free_mask | bit, self.fixed_bits & ~bit))
            pinned &= pinned - 1
        return frozenset(faces)

    def delete_coordinate(self, coordinate: int) -> Face:
        """Drop a 1-based coordinate, renumbering the ones above it down."""
        if not 1 <= coordinate <= self.n:
            raise ValueError(f"coordinate {coordinate} outside [1, {self.n}]")
        pos = coordinate - 1
        return Face(
            self.n - 1,
            _delete_bit(self.free_mask, pos),
            _delete_bit(self.fixed_bits, pos),
        )

    def insert_coordinate(self, coordinate: int, state: str) -> Face:
        """Insert a coordinate at a 1-based position as '0', '1' or '*'."""
        if not 1 <= coordinate <= self.n + 1:
            raise ValueError(f"coordinate {coordinate} outside [1, {self.n + 1}]")
        if state not in ("0", "1", "*"):
            raise ValueError(f"state must be '0', '1' or '*', got {state!r}")
        pos = coordinate - 1
        return Face(
            self.n + 1,
            _insert_bit(self.free_mask, pos, 1 if state == "*" else 0),
            _insert_bit(self.fixed_bits, pos, 1 if state == "1" else 0),
        )

    def _order_key(self) -> tuple[int, int, int, int]:
        # Face order: by degree, then colex on the free set (plain integer
        # order of free_mask), then by fixed_bits.
        return (self.n, self.dim, self.free_mask, self.fixed_bits)

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Face):
            return NotImplemented
        return self._order_key() < other._order_key()

    def __str__(self) -> str:
        return render_face(self)

    def __repr__(self) -> str:
        return f"Face({render_face(self)!r})"


def parse_face(word: str) -> Face:
    """Build a Face from a word over {0, 1, *}."""
    if not word:
        raise ValueError("empty face word")
    if len(word) > MAX_COORDINATES:
        raise ValueError(f"face word longer than {MAX_COORDINATES} coordinates")
    free = 0
    fixed = 0
    for i, ch in enumerate(word):
        if ch == "*":
            free |= 1 << i
        elif ch == "1":
            fixed |= 1 << i
        elif ch != "0":
            raise ValueError(f"invalid character {ch!r} at position {i + 1}")
    return Face(len(word), free, fixed)


def render_face(face: Face) -> str:
    """Inverse of parse_face."""
    out = []
    for i in range(face.n):
        bit = 1 << i
        if face.free_mask & bit:
            out.append("*")
        else:
            out.append("1" if face.fixed_bits & bit else "0")
    return "".join(out)


def face_count(n: int, k: int) -> int:
    """Number of k-cells of Q_n: 2^(n-k) * C(n, k)."""
    if not 0 <= k <= n:
        raise ValueError(f"degree {k} outside [0, {n}]")
    return (1 << (n - k)) * comb(n, k)


@lru_cache(maxsize=None)
def enumerate_faces(n: int, k: int) -> tuple[Face, ...]:
    """All k-cells of Q_n in face order."""
    if not 0 <= k <= n:
        raise ValueError(f"degree {k} outside [0, {n}]")
    full = (1 << n) - 1
    masks = sorted(
        sum(1 << i for i in combo) for combo in itertools.combinations(range(n), k)
    )
    faces = []
    for free in masks:
        rest = ~free & full
        # The subsets of the pinned coordinates, in increasing order.
        fixed = 0
        while True:
            faces.append(Face(n, free, fixed))
            if fixed == rest:
                break
            fixed = (fixed - rest) & rest
    return tuple(faces)
