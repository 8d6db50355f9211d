"""Line-oriented chain files, shared by the library and the CLI.

Format: a header line ``cube <n> <k>``, then one face word per line.
Lines starting with ``#`` are comments, blank lines are ignored, and a
duplicate face is an error because the listing is an exact Z2 support.
"""

from __future__ import annotations

import os
from .chains import Chain
from .faces import MAX_COORDINATES, parse_face

__all__ = ["ChainFormatError", "parse_chain_text", "format_chain_text", "read_chain", "write_chain"]


class ChainFormatError(ValueError):
    """A malformed chain file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def parse_chain_text(text: str) -> Chain:
    header: tuple[int, int] | None = None
    faces: dict[object, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if header is None:
            parts = stripped.split()
            if len(parts) != 3 or parts[0] != "cube":
                raise ChainFormatError("expected header 'cube <n> <k>'", lineno)
            try:
                n, k = int(parts[1]), int(parts[2])
            except ValueError:
                raise ChainFormatError("header dimensions must be integers", lineno) from None
            if n > MAX_COORDINATES:
                raise ChainFormatError(f"dimension {n} above {MAX_COORDINATES}", lineno)
            if not 0 <= k <= n:
                raise ChainFormatError(f"degree {k} outside [0, {n}]", lineno)
            header = (n, k)
            continue
        n, k = header
        try:
            face = parse_face(stripped)
        except ValueError as exc:
            raise ChainFormatError(str(exc), lineno) from None
        if face.n != n:
            raise ChainFormatError(f"face word has length {face.n}, header says {n}", lineno)
        if face.dim != k:
            raise ChainFormatError(f"face has dimension {face.dim}, header says {k}", lineno)
        if face in faces:
            raise ChainFormatError(
                f"duplicate face {stripped!r} (first seen on line {faces[face]})", lineno
            )
        faces[face] = lineno
    if header is None:
        raise ChainFormatError("missing header 'cube <n> <k>'")
    return Chain(header[0], header[1], frozenset(faces))


def format_chain_text(chain: Chain) -> str:
    if chain.k < 0:
        raise ValueError("chain files cannot hold degree labels below 0")
    # an empty chain's degree label is nominal and may sit one above n
    # (the filling of an empty top-degree cycle); clamp it into file range
    degree = min(chain.k, chain.n) if not chain.support else chain.k
    lines = [f"cube {chain.n} {degree}"]
    lines.extend(str(face) for face in chain.sorted_faces())
    return "\n".join(lines) + "\n"


def read_chain(path: str | os.PathLike) -> Chain:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_chain_text(handle.read())


def write_chain(chain: Chain, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(format_chain_text(chain))
