"""Excited diagrams and hook-product sums over them.

A placed box (i, j) is excitable when the three boxes (i+1, j),
(i, j+1), (i+1, j+1) lie in the ambient shape and none of the four is
otherwise occupied; exciting it moves it to (i+1, j+1).  The family of
a shape pair is the closure of the inner diagram under such moves.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .dimensions import dim_hlf
from .partitions import Box, Partition, falling_factorial, hook_lengths

_BoxT = tuple[int, int]

_hook_table = lru_cache(maxsize=256)(hook_lengths)


def _can_excite(parts: tuple[int, ...], occupied: set[_BoxT], u: _BoxT) -> bool:
    i, j = u
    # (i+1, j+1) in the shape implies the whole 2x2 corner is too
    if i >= len(parts) or parts[i] < j + 1:
        return False
    return (
        (i + 1, j) not in occupied
        and (i, j + 1) not in occupied
        and (i + 1, j + 1) not in occupied
    )


@lru_cache(maxsize=256)
def _closure(parts: tuple[int, ...], start: tuple[_BoxT, ...]) -> tuple[tuple[_BoxT, ...], ...]:
    """All diagrams reachable from start by excitation moves, sorted."""
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        occupied = set(cur)
        for u in cur:
            if _can_excite(parts, occupied, u):
                i, j = u
                nxt = tuple(sorted(occupied - {u} | {(i + 1, j + 1)}))
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return tuple(sorted(seen))


def _origin_boxes(mu: tuple[int, ...]) -> tuple[_BoxT, ...]:
    return tuple((i, j) for i, p in enumerate(mu, start=1) for j in range(1, p + 1))


@dataclass(frozen=True)
class ExcitedDiagram:
    """A set of placed boxes reachable from origin by excitation."""

    boxes: tuple[Box, ...]
    origin: Partition

    @property
    def size(self) -> int:
        return len(self.boxes)

    def __iter__(self):
        return iter(self.boxes)


def _check_pair(lam: Partition, mu: Partition) -> None:
    if not lam.contains(mu):
        raise ValueError(f"{mu} does not fit inside {lam}")


def enumerate_excited(lam: Partition, mu: Partition) -> tuple[ExcitedDiagram, ...]:
    """The full excited family of mu inside lam, in lexicographic order."""
    _check_pair(lam, mu)
    sets = _closure(lam.parts, _origin_boxes(mu.parts))
    return tuple(
        ExcitedDiagram(tuple(Box(*u) for u in bs), mu) for bs in sets
    )


def excited_count(lam: Partition, mu: Partition) -> int:
    _check_pair(lam, mu)
    return len(_closure(lam.parts, _origin_boxes(mu.parts)))


def excitation_closure(lam: Partition, boxes) -> tuple[tuple[Box, ...], ...]:
    """All box sets reachable from the given one by excitation moves.

    The start need not come from a partition; results are canonical
    sorted tuples in lexicographic order.
    """
    start = tuple(sorted(tuple(u) for u in boxes))
    for u in start:
        if u not in lam:
            raise ValueError(f"box {u} lies outside {lam}")
    if len(set(start)) != len(start):
        raise ValueError("duplicate boxes in the starting set")
    return tuple(
        tuple(Box(*u) for u in bs) for bs in _closure(lam.parts, start)
    )


def excitable_boxes(lam: Partition, boxes) -> list[Box]:
    """Boxes of a placed set that admit an excitation move inside lam."""
    occupied = set(map(tuple, boxes))
    for u in occupied:
        if u not in lam:
            raise ValueError(f"box {u} lies outside {lam}")
    return [Box(*u) for u in sorted(occupied) if _can_excite(lam.parts, occupied, u)]


def hook_product(lam: Partition, boxes) -> int:
    """Product of hook lengths of lam over the given boxes."""
    table = _hook_table(lam.parts)
    out = 1
    for u in boxes:
        key = tuple(u)
        if key not in table:
            raise ValueError(f"box {key} lies outside {lam}")
        out *= table[key]
    return out


# No sweep asks for one pair twice (the excited-bounds sweep reuses its
# one-row sums), so the cache only serves repeated library calls; the bound
# keeps it from holding every pair a sweep visits.
@lru_cache(maxsize=256)
def _excited_sum(parts: tuple[int, ...], mu: tuple[int, ...]) -> int:
    table = _hook_table(parts)
    total = 0
    for bs in _closure(parts, _origin_boxes(mu)):
        term = 1
        for u in bs:
            term *= table[u]
        total += term
    return total


def excited_sum(lam: Partition, mu: Partition) -> int:
    """Sum over the excited family of the hook-length products."""
    _check_pair(lam, mu)
    return _excited_sum(lam.parts, mu.parts)


def naruse_ratio(lam: Partition, mu: Partition) -> Fraction:
    """Exact value of dim(lam/mu) / dim(lam).

    Equals the excited sum divided by the falling factorial n(n-1)...
    (n-k+1), n = |lam|, k = |mu|.
    """
    _check_pair(lam, mu)
    return Fraction(excited_sum(lam, mu), falling_factorial(lam.n, mu.n))


def skew_dim_naruse(lam: Partition, mu: Partition) -> int:
    """Skew tableau count through the excited-family route."""
    ratio = naruse_ratio(lam, mu)
    value = ratio * dim_hlf(lam)
    if value.denominator != 1:
        raise ArithmeticError(f"non-integral count for {lam}/{mu}")
    return int(value)
