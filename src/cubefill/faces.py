"""Cells of the n-dimensional cube.

A k-dimensional cell of Q_n is a length-n word over {0, 1, *} with exactly
k stars: starred coordinates are free, the others are pinned to the written
bit.  Inside the library a cell is one int, its code ``free_mask << n |
fixed_bits``; within one degree the integer order of the codes is face
order.  ``Face`` is the public view of one code.  Coordinates are 1-based
in words and messages, 0-based inside the masks.  A list of words of one
length is parsed in bulk, a run of words at a time: padded to fields of 8,
16, 32 or 64 digits and read as two binary numerals, one of the free masks
and one of the fixed bits.  A list of codes is written back the same way,
by ``_words``, which writes every word: one face's or a whole file's.
"""

from __future__ import annotations

import itertools
import struct
from collections.abc import Iterable, Iterator, Sequence
from functools import reduce, total_ordering
from math import comb
from operator import or_

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

# A word read from the last coordinate to the first, as binary digits:
# those of free_mask followed by those of fixed_bits spell the code.
_FREE_DIGITS = str.maketrans("01*", "001")
_FIXED_DIGITS = str.maketrans("*", "0")
_WORD_SYMBOLS = str.maketrans("", "", "01*")
# a digit of fixed + 2 * free, written back: a free coordinate is a star
_STAR_DIGIT = bytes.maketrans(b"2", b"*")
# Words per bulk parse: a long list goes a run at a time, so only one run's
# digit strings and unpacked fields are held beside the codes
_RUN = 4096


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first."""
    while mask:
        yield mask & -mask
        mask &= mask - 1


_BIT_SET = [bytes(byte >> b & 1 for byte in range(256)) for b in range(8)]


def _field(bits: int) -> tuple[int, str]:
    """The narrowest field of 8, 16, 32 or 64 bits that holds ``bits`` bits, and its struct code."""
    width = max(8, 1 << (bits - 1).bit_length())
    return width, "BHIQ"[width.bit_length() - 4]


def _free_at(codes: Sequence[int], n: int) -> Iterator[tuple[int, Iterator[int]]]:
    """Per coordinate some code of Q_n leaves free, lowest first: its bit and those
    codes, picked only as they are read."""
    frees = list(map(n.__rrshift__, codes))
    # little-endian 64-bit words on any host: byte j of each holds free bits 8j to 8j+7
    packed = struct.pack(f"<{len(frees)}Q", *frees)
    for bit in _bits(reduce(or_, frees, 0)):
        at, shift = divmod(bit.bit_length() - 1, 8)
        yield bit, itertools.compress(codes, packed[at::8].translate(_BIT_SET[shift]))


def _boundary(code: int, n: int) -> frozenset[int]:
    """The 2k codes one dimension down, one per way of pinning a free coordinate."""
    cells, free = [], code >> n
    while free:
        bit = free & -free
        cells += (code ^ bit << n, code ^ bit << n | bit)
        free ^= bit
    return frozenset(cells)


def _dense_boundary(codes: Iterable[int], n: int) -> list[int]:
    """The boundary of k-cells, k >= 1, of Q_n: per free mask a numeral v has byte f set for
    each cell mask << n | f, and pinning each free bit adds v ^ v << 8 * bit to mask ^ bit.
    The codes are filed by free mask in one pass, unsorted; one mask's row is built at a time."""
    size = 1 << n
    groups: dict[int, list[int]] = {}
    for code in codes:
        groups.setdefault(code >> n, []).append(code & size - 1)
    facets: dict[int, int] = {}
    for mask, group in groups.items():
        row = bytearray(size)
        for fixed in group:
            row[fixed] = 1
        v = int.from_bytes(row, "little")
        for bit in _bits(mask):
            facets[mask ^ bit] = facets.get(mask ^ bit, 0) ^ v ^ v << 8 * bit
    return [mask << n | f for mask, x in facets.items() if x
            for f in itertools.compress(range(size), x.to_bytes(size, "little"))]


def _coboundary(code: int, n: int) -> list[int]:
    """The n-k codes one dimension up, one per way of freeing a pinned coordinate,
    lowest first; freeing a higher coordinate gives a larger code."""
    return [code & ~bit | bit << n for bit in _bits(~(code >> n) & ((1 << n) - 1))]


def _split(z: Iterable[int], n: int, bit: int) -> tuple[list[int], list[int], list[int]]:
    """The codes of z pinned to 0, pinned to 1, and free at the coordinate ``bit``."""
    free = bit << n
    sides: tuple[list[int], list[int], list[int]] = ([], [], [])
    for code in z:
        sides[2 if code & free else 1 if code & bit else 0].append(code)
    return sides


def _face(code: int, n: int) -> Face:
    """The Face of a code, which must be valid in Q_n."""
    face = object.__new__(Face)
    object.__setattr__(face, "n", n)
    object.__setattr__(face, "free_mask", code >> n)
    object.__setattr__(face, "fixed_bits", code & ((1 << n) - 1))
    return face


def _parse_word(word: str) -> int:
    """The code of a word over {0, 1, *}, in Q_len(word)."""
    if not word:
        raise ValueError("empty face word")
    if len(word) > MAX_COORDINATES:
        raise ValueError(f"face word longer than {MAX_COORDINATES} coordinates")
    if word.translate(_WORD_SYMBOLS):
        i, ch = next((i, ch) for i, ch in enumerate(word) if ch not in "01*")
        raise ValueError(f"invalid character {ch!r} at position {i + 1}")
    digits = word[::-1]
    return int(digits.translate(_FREE_DIGITS) + digits.translate(_FIXED_DIGITS), 2)


def _parse_words(words: Sequence[str]) -> list[int]:
    """``_parse_word`` of each word, read as two binary numerals per run of
    ``_RUN`` words when all are valid and of one length: word j of a run fills
    its j-th field of 8, 16, 32 or 64 digits, coordinate 1 in its lowest bit."""
    n = len(words[0]) if words else 0
    if 0 < n <= MAX_COORDINATES and set(map(len, words)) == {n}:
        width, field = _field(n)
        pad = "0" * (width - n)
        codes: list[int] = []
        for start in range(0, len(words), _RUN):
            run = words[start:start + _RUN]
            digits = (pad.join(run) + pad)[::-1]
            if digits.translate(_WORD_SYMBOLS):
                break
            fields = struct.Struct(f"<{len(run)}{field}")
            free, fixed = (fields.unpack(int(digits.translate(t), 2).to_bytes(fields.size, "little"))
                           for t in (_FREE_DIGITS, _FIXED_DIGITS))
            codes += map(or_, map(n.__rlshift__, free), fixed)
        else:
            return codes
    # an empty, overlong or mixed list, or a bad symbol: word by word, first error raised
    return list(map(_parse_word, words))


def _words(codes: Sequence[int], n: int) -> list[str]:
    """Inverse of _parse_words, and the writer of every word, one face's or a whole file's:
    per run of ``_RUN`` codes, the fixed bits and the free masks packed one field per code
    and written as binary digits, merged digit by digit as fixed + 2 * free (2 a star),
    reversed and cut into words."""
    width, field = _field(n)
    words: list[str] = []
    for start in range(0, len(codes), _RUN):
        run = codes[start:start + _RUN]
        fields = struct.Struct(f"<{len(run)}{field}")
        size = 8 * fields.size
        # each numeral's digits as ASCII bytes, read as one int with a byte per digit
        fixed, free = (
            int.from_bytes(format(int.from_bytes(fields.pack(*values), "little"), f"0{size}b").encode(), "big")
            for values in (map(((1 << n) - 1).__and__, run), map(n.__rrshift__, run))
        )
        # per byte "0" or "1" plus twice the free digit: never a carry, as no bit is both
        merged = (fixed + 2 * free - 2 * int.from_bytes(b"0" * size, "big")).to_bytes(size, "big")
        digits = merged.translate(_STAR_DIGIT).decode()[::-1]
        words += map(digits.__getitem__, map(slice, range(0, size, width), range(n, size + n, width)))
    return words


def _delete(code: int, n: int, pos: int) -> int:
    """The code in Q_{n-1} of a cell of Q_n with the coordinate ``pos`` dropped."""
    low = (1 << pos) - 1
    free, fixed = code >> n, code & ((1 << n) - 1)
    return (free & low | free >> 1 & ~low) << (n - 1) | fixed & low | fixed >> 1 & ~low


def _insert(code: int, n: int, pos: int, star: int, one: int) -> int:
    """The code in Q_{n+1} of a cell of Q_n with a coordinate put in at ``pos``,
    free if ``star``, else pinned to ``one``."""
    low = (1 << pos) - 1
    free, fixed = code >> n, code & ((1 << n) - 1)
    free = free & low | (free & ~low) << 1 | star << pos
    return free << (n + 1) | fixed & low | (fixed & ~low) << 1 | one << pos


def _frozen(self: object, name: str, value: object = None) -> None:
    """``__setattr__`` and ``__delattr__`` of the immutable value classes."""
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")


@total_ordering
class Face:
    """One cell of Q_n, an immutable value.

    ``free_mask`` marks the starred coordinates, ``fixed_bits`` holds the
    written bits of the determined coordinates (zero under the free mask).
    """

    __slots__ = ("n", "free_mask", "fixed_bits")
    __setattr__ = __delattr__ = _frozen

    def __init__(self, n: int, free_mask: int, fixed_bits: int) -> None:
        if not 0 <= n <= MAX_COORDINATES:
            raise ValueError(f"dimension {n} outside [0, {MAX_COORDINATES}]")
        full = (1 << n) - 1
        if not 0 <= free_mask <= full:
            raise ValueError("free mask has bits outside the coordinate range")
        if not 0 <= fixed_bits <= full:
            raise ValueError("fixed bits have bits outside the coordinate range")
        if free_mask & fixed_bits:
            raise ValueError("fixed bits overlap free coordinates")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "free_mask", free_mask)
        object.__setattr__(self, "fixed_bits", fixed_bits)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.free_mask, self.fixed_bits) == (other.n, other.free_mask, other.fixed_bits)

    def __hash__(self) -> int:
        return hash((self.n, self.free_mask, self.fixed_bits))

    def __reduce__(self) -> tuple:
        return type(self), (self.n, self.free_mask, self.fixed_bits)

    @property
    def dim(self) -> int:
        return self.free_mask.bit_count()

    @property
    def code(self) -> int:
        """The int ``free_mask << n | fixed_bits`` the library works on."""
        return self.free_mask << self.n | self.fixed_bits

    def boundary(self) -> frozenset[Face]:
        """The 2k cells one dimension down, one per way of pinning a star."""
        return frozenset(_face(code, self.n) for code in _boundary(self.code, self.n))

    def coboundary(self) -> frozenset[Face]:
        """The n-k cells one dimension up, one per way of freeing a coordinate."""
        return frozenset(_face(code, self.n) for code in _coboundary(self.code, self.n))

    def __lt__(self, other: object) -> bool:
        # Face order: by degree, then by code (colex on the free set, then fixed bits).
        if not isinstance(other, Face):
            return NotImplemented
        return (self.n, self.dim, self.code) < (other.n, other.dim, other.code)

    def __str__(self) -> str:
        return render_face(self)

    def __repr__(self) -> str:
        return f"Face({render_face(self)!r})"


def parse_face(word: str) -> Face:
    """Build a Face from a word over {0, 1, *}."""
    return _face(_parse_word(word), len(word))


def render_face(face: Face) -> str:
    """Inverse of parse_face for n >= 1; Q_0's one word, "", is one parse_face refuses."""
    return _words([face.code], face.n)[0]


def face_count(n: int, k: int) -> int:
    """Number of k-cells of Q_n: 2^(n-k) * C(n, k)."""
    if not 0 <= k <= n:
        raise ValueError(f"degree {k} outside [0, {n}]")
    return (1 << (n - k)) * comb(n, k)


def _degree_codes(n: int, k: int) -> Iterator[int]:
    """The codes of all k-cells of Q_n, in face order (increasing)."""
    full = (1 << n) - 1
    masks = sorted(
        sum(1 << i for i in combo) for combo in itertools.combinations(range(n), k)
    )
    for free in masks:
        rest = ~free & full
        # The subsets of the pinned coordinates, in increasing order.
        fixed = 0
        while True:
            yield free << n | fixed
            if fixed == rest:
                break
            fixed = (fixed - rest) & rest


def enumerate_faces(n: int, k: int) -> tuple[Face, ...]:
    """All k-cells of Q_n in face order."""
    if not 0 <= k <= n:
        raise ValueError(f"degree {k} outside [0, {n}]")
    return tuple(_face(code, n) for code in _degree_codes(n, k))
