"""Cube cells as plain words, independent of the package under test.

The benchmark makes its inputs and checks the program's outputs here, on
length-n words over {0, 1, *}, so that neither the inputs nor the verdicts
depend on the package's own face ordering, generators or boundary code.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction
from math import ceil, comb


def boundary(words) -> set[str]:
    """Z2 boundary of a set of cell words: each star pinned both ways."""
    out: set[str] = set()
    for word in words:
        for i, ch in enumerate(word):
            if ch == "*":
                head, tail = word[:i], word[i + 1:]
                out ^= {head + "0" + tail, head + "1" + tail}
    return out


def random_cycle(rng: random.Random, n: int, k: int, cells: int) -> frozenset[str]:
    """The boundary of ``cells`` distinct random (k+1)-cells of Q_n."""
    if cells > comb(n, k + 1) << (n - k - 1):
        raise ValueError(f"Q_{n} has fewer than {cells} cells of dimension {k + 1}")
    chosen: set[str] = set()
    while len(chosen) < cells:
        stars = set(rng.sample(range(n), k + 1))
        chosen.add("".join("*" if i in stars else rng.choice("01") for i in range(n)))
    return frozenset(boundary(sorted(chosen)))


def minimizer(n: int, k: int) -> frozenset[str]:
    """The alternating-block k-cycle of Q_n: for each star set and each
    leading bit, pinned blocks that flip at every star."""
    out: set[str] = set()
    for stars in itertools.combinations(range(n), k):
        for leading in "01":
            bit, word = int(leading), []
            for i in range(n):
                if i in stars:
                    word.append("*")
                    bit ^= 1
                else:
                    word.append(str(bit))
            out ^= {"".join(word)}
    return frozenset(out)


def embed(rng: random.Random, words, big_n: int) -> frozenset[str]:
    """A seeded cube automorphism and injection of a chain into Q_big_n:
    the coordinates go to random distinct positions, pinned bits are
    flipped by a random translation, and the new coordinates are pinned to
    random values shared by every cell."""
    n = len(next(iter(words)))
    positions = rng.sample(range(big_n), n)
    flip = [rng.choice((0, 1)) for _ in range(n)]
    base = [rng.choice("01") for _ in range(big_n)]
    out = set()
    for word in words:
        cell = list(base)
        for ch, pos, f in zip(word, positions, flip):
            cell[pos] = "*" if ch == "*" else str(int(ch) ^ f)
        out.add("".join(cell))
    return frozenset(out)


def chain_text(n: int, k: int, words) -> str:
    """A chain file: header, then one face word per line."""
    return "".join([f"cube {n} {k}\n"] + [w + "\n" for w in sorted(words)])


def parse_chain_text(text: str) -> tuple[int, int, frozenset[str]]:
    """Header and support of a chain file, rejecting anything malformed."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    head = lines[0].split()
    if len(head) != 3 or head[0] != "cube":
        raise ValueError(f"bad header {lines[0]!r}")
    n, k = int(head[1]), int(head[2])
    words = lines[1:]
    if len(set(words)) != len(words):
        raise ValueError("duplicate face")
    for word in words:
        if len(word) != n or set(word) - set("01*"):
            raise ValueError(f"bad face word {word!r}")
    return n, k, frozenset(words)


def power_constant(k: int) -> float:
    """c_k = prod_{i=1..k} 1 / (2^(1/(i+1)) - 1)."""
    out = 1.0
    for i in range(1, k + 1):
        out /= 2.0 ** (1.0 / (i + 1)) - 1.0
    return out


def check_filling(
    n: int,
    k: int,
    z: frozenset[str],
    y: frozenset[str],
    strategy: str,
    *,
    rel_tol: float,
    linear_norm: int | None = None,
    known_min: int | None = None,
    optimal: bool = False,
) -> list[str]:
    """Every way the filling ``y`` of the cycle ``z`` is wrong; empty if none.

    ``linear_norm`` is the linear filling's norm on the same input, which an
    exact search seeded with it may not exceed.  ``known_min`` is a proven
    minimum filling weight, which no filling may undercut and an optimal
    exact search must reach.
    """
    problems = []
    if any(len(w) != n or w.count("*") != k + 1 for w in y):
        problems.append(f"filling cells are not (k+1)-cells of Q_{n}")
    elif boundary(y) != z:
        problems.append("boundary of the filling is not the cycle")
    weight = len(y)
    if weight < ceil(len(z) / (2 * (k + 1))):
        problems.append("filling is lighter than the packing lower bound")
    if strategy == "linear" and Fraction(weight) > Fraction((n - k) * len(z), 2 * (k + 1)):
        problems.append("linear certificate exceeded")
    if strategy == "recursive" and z:
        bound = power_constant(k) * float(len(z)) ** ((k + 1) / k)
        if weight > bound + rel_tol * max(1.0, weight, bound):
            problems.append("power certificate exceeded")
    if strategy == "exact" and linear_norm is not None and weight > linear_norm:
        problems.append("exact filling heavier than the linear filling")
    if known_min is not None:
        if weight < known_min:
            problems.append(f"filling of weight {weight} undercuts the minimum {known_min}")
        if optimal and weight != known_min:
            problems.append(f"optimal filling has weight {weight}, not {known_min}")
    return problems


def digest(parts) -> str:
    """Short SHA-256 over a sequence of strings, order-sensitive."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]
