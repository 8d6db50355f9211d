"""Line-oriented chain files, shared by the library and the CLI.

Format: a header line ``cube <n> <k>``, then one face word per line.
Lines starting with ``#`` are comments, blank lines are ignored, and a
duplicate face is an error because the listing is an exact Z2 support.
Words are parsed straight into the int codes a ``Chain`` keeps, and
written back from the sorted codes: within one degree the integer order
of the codes is face order.
"""

from __future__ import annotations

import os

from .chains import Chain
from .faces import MAX_COORDINATES, _parse_word, _word

__all__ = ["ChainFormatError", "parse_chain_text", "format_chain_text", "read_chain", "write_chain"]


class ChainFormatError(ValueError):
    """A malformed chain file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def parse_chain_text(text: str) -> Chain:
    header: tuple[int, int] | None = None
    codes: dict[int, int] = {}
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
            code = _parse_word(stripped)
        except ValueError as exc:
            raise ChainFormatError(str(exc), lineno) from None
        if len(stripped) != n:
            raise ChainFormatError(f"face word has length {len(stripped)}, header says {n}", lineno)
        dim = (code >> n).bit_count()
        if dim != k:
            raise ChainFormatError(f"face has dimension {dim}, header says {k}", lineno)
        if code in codes:
            raise ChainFormatError(
                f"duplicate face {stripped!r} (first seen on line {codes[code]})", lineno
            )
        codes[code] = lineno
    if header is None:
        raise ChainFormatError("missing header 'cube <n> <k>'")
    return Chain._of(header[0], header[1], frozenset(codes))


def format_chain_text(chain: Chain) -> str:
    if chain.k < 0:
        raise ValueError("chain files cannot hold degree labels below 0")
    # an empty chain's degree label is nominal and may sit one above n
    # (the filling of an empty top-degree cycle); clamp it into file range
    degree = min(chain.k, chain.n) if not chain.codes else chain.k
    lines = [f"cube {chain.n} {degree}"]
    lines.extend(_word(code, chain.n) for code in sorted(chain.codes))
    return "\n".join(lines) + "\n"


def read_chain(path: str | os.PathLike) -> Chain:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line of the first undecodable byte, counted as parse_chain_text counts
        line = len((data[: exc.start].decode("utf-8") + ".").splitlines())
        raise ChainFormatError("not UTF-8 text", line) from None
    return parse_chain_text(text)


def write_chain(chain: Chain, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(format_chain_text(chain))
