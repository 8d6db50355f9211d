"""Line-oriented chain files, shared by the library and the CLI.

Format: a header line ``cube <n> <k>``, then one face word per line.
Lines starting with ``#`` are comments, blank lines are ignored, and a
duplicate face is an error because the listing is an exact Z2 support.
All the words of a file are parsed together by ``Chain.from_words``, in
bulk into the int codes a ``Chain`` keeps; only when a line is malformed
are the lines checked one by one, to report the first bad one.  Codes
are written back sorted, in bulk by ``faces._words``: within one degree
their integer order is face order.
"""

from __future__ import annotations

import os

from .chains import Chain
from .faces import MAX_COORDINATES, _parse_word, _words

__all__ = ["ChainFormatError", "parse_chain_text", "format_chain_text", "read_chain", "write_chain"]


class ChainFormatError(ValueError):
    """A malformed chain file; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def parse_chain_text(text: str) -> Chain:
    lines = [(lineno, line) for lineno, raw in enumerate(text.splitlines(), start=1)
             if (line := raw.strip()) and not line.startswith("#")]
    if not lines:
        raise ChainFormatError("missing header 'cube <n> <k>'")
    (lineno, header), *lines = lines
    parts = header.split()
    if len(parts) != 3 or parts[0] != "cube":
        raise ChainFormatError("expected header 'cube <n> <k>'", lineno)
    try:
        n, k = int(parts[1]), int(parts[2])
    except ValueError:
        raise ChainFormatError("header dimensions must be integers", lineno) from None
    if not 0 <= n <= MAX_COORDINATES:
        raise ChainFormatError(f"dimension {n} outside [0, {MAX_COORDINATES}]", lineno)
    if not 0 <= k <= n:
        raise ChainFormatError(f"degree {k} outside [0, {n}]", lineno)
    try:
        return Chain.from_words(*(word for _, word in lines), n=n, k=k)
    except ValueError as exc:
        refusal = exc  # some line is malformed: check line by line to report the first
    seen: dict[int, int] = {}
    for lineno, word in lines:
        try:
            code = _parse_word(word)
        except ValueError as exc:
            raise ChainFormatError(str(exc), lineno) from None
        if len(word) != n:
            raise ChainFormatError(f"face word has length {len(word)}, header says {n}", lineno)
        dim = (code >> n).bit_count()
        if dim != k:
            raise ChainFormatError(f"face has dimension {dim}, header says {k}", lineno)
        if code in seen:
            raise ChainFormatError(
                f"duplicate face {word!r} (first seen on line {seen[code]})", lineno
            )
        seen[code] = lineno
    # no line is malformed on its own: the refusal stands, without a line
    raise ChainFormatError(str(refusal)) from None


def format_chain_text(chain: Chain) -> str:
    if chain.k < 0:
        raise ValueError("chain files cannot hold degree labels below 0")
    if chain.n == 0 and chain.codes:
        raise ValueError("chain files cannot hold the vertex of Q_0, whose word is empty")
    # an empty chain's degree label is nominal and may sit one above n
    # (the filling of an empty top-degree cycle); clamp it into file range
    degree = min(chain.k, chain.n) if not chain.codes else chain.k
    lines = [f"cube {chain.n} {degree}"]
    lines.extend(_words(sorted(chain.codes), chain.n))
    return "\n".join(lines) + "\n"


def read_chain(path: str | os.PathLike) -> Chain:
    with open(path, "rb") as handle:
        # a leading UTF-8 byte-order mark, as some editors write, is not text
        data = handle.read().removeprefix(b"\xef\xbb\xbf")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the line of the first undecodable byte, counted as parse_chain_text counts
        line = len((data[: exc.start].decode("utf-8") + ".").splitlines())
        raise ChainFormatError("not UTF-8 text", line) from None
    return parse_chain_text(text)


def write_chain(chain: Chain, path: str | os.PathLike) -> None:
    # built before the file is opened, so a chain the format refuses leaves it as it was
    text = format_chain_text(chain)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
