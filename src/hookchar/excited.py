"""Excited diagrams and hook-product sums over them.

A placed box (i, j) is excitable when the three boxes (i+1, j),
(i, j+1), (i+1, j+1) lie in the ambient shape and none of the four is
otherwise occupied; exciting it moves it to (i+1, j+1).  The family of
a shape pair is the closure of the inner diagram under such moves.

A diagram is a bitmask, box (i, j) at bit i*w + j: its excitable boxes
are one shift expression and a move flips two bits.  The closure is
walked level by level, a dict {mask: hook product} per level, each
product its parent's with the moved box's hook swapped for the new one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod

from .dimensions import SkewShape, dim_hlf
from .partitions import Box, Partition, _boxes_inside, falling_factorial, hook_lengths

_BoxT = tuple[int, int]

_hook_table = lru_cache(maxsize=256)(hook_lengths)


def _frame(parts: tuple[int, ...]) -> tuple[int, int]:
    """Row width w (column parts[0] + 1 stays empty, so no shift crosses a
    row) and the mask of boxes whose (i+1, j+1) lies in the shape."""
    w = (parts[0] if parts else 0) + 2
    return w, sum(((1 << q) - 2) << (i * w) for i, q in enumerate(parts[1:], start=1))


def _free(mask: int, movable: int, w: int) -> int:
    """Excitable boxes: (i+1, j+1) lies in the shape; (i+1, j), (i, j+1), (i+1, j+1) are empty."""
    return mask & movable & ~(mask >> w) & ~(mask >> 1) & ~(mask >> (w + 1))


def _levels(parts: tuple[int, ...], start: tuple[_BoxT, ...]):
    """The closure of start as breadth-first levels {mask: hook product}.

    A move raises the sum of i + j by exactly 2, so no diagram recurs at a
    later level.  Moving bit b to b + w + 1 maps the parent's product to
    term // hook[b] * hook[b + w + 1], exact since hook[b] divides it.
    """
    table = _hook_table(parts)
    w, movable = _frame(parts)
    step = w + 1
    hooks = {i * w + j: h for (i, j), h in table.items()}
    level = {sum(1 << (i * w + j) for i, j in start): prod(table[u] for u in start)}
    while level:
        yield level
        nxt = {}
        for mask, term in level.items():
            free = _free(mask, movable, w)
            while free:
                low = free & -free
                free ^= low
                child = mask ^ low ^ (low << step)
                if child not in nxt:
                    b = low.bit_length() - 1
                    nxt[child] = term // hooks[b] * hooks[b + step]
        level = nxt


def _boxes(mask: int, w: int) -> tuple[_BoxT, ...]:
    """The boxes of a mask, in lexicographic order."""
    return tuple(divmod(b, w) for b in range(mask.bit_length()) if mask >> b & 1)


@lru_cache(maxsize=256)
def _closure(parts: tuple[int, ...], start: tuple[_BoxT, ...]) -> tuple[tuple[_BoxT, ...], ...]:
    """All diagrams reachable from start by excitation moves, sorted."""
    w = _frame(parts)[0]
    return tuple(sorted(_boxes(mask, w) for level in _levels(parts, start) for mask in level))


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


def enumerate_excited(lam: Partition, mu: Partition) -> tuple[ExcitedDiagram, ...]:
    """The full excited family of mu inside lam, in lexicographic order."""
    SkewShape(lam, mu)  # refuses a mu that does not fit inside lam
    sets = _closure(lam.parts, _origin_boxes(mu.parts))
    return tuple(
        ExcitedDiagram(tuple(Box(*u) for u in bs), mu) for bs in sets
    )


def excited_count(lam: Partition, mu: Partition) -> int:
    """The size of the excited family, counted level by level without decoding a diagram."""
    SkewShape(lam, mu)  # refuses a mu that does not fit inside lam
    return sum(map(len, _levels(lam.parts, _origin_boxes(mu.parts))))


def excitation_closure(lam: Partition, boxes) -> tuple[tuple[Box, ...], ...]:
    """All box sets reachable from the given one by excitation moves.

    The start need not come from a partition; results are canonical
    sorted tuples in lexicographic order.
    """
    start = tuple(_boxes_inside(lam, sorted(tuple(u) for u in boxes)))
    if len(set(start)) != len(start):
        raise ValueError("duplicate boxes in the starting set")
    return tuple(
        tuple(Box(*u) for u in bs) for bs in _closure(lam.parts, start)
    )


def excitable_boxes(lam: Partition, boxes) -> list[Box]:
    """Boxes of a placed set that admit an excitation move inside lam."""
    occupied = set(_boxes_inside(lam, boxes))
    w, movable = _frame(lam.parts)
    mask = sum(1 << (i * w + j) for i, j in occupied)
    return [Box(*u) for u in _boxes(_free(mask, movable, w), w)]


def hook_product(lam: Partition, boxes) -> int:
    """Product of hook lengths of lam over the given boxes."""
    return prod(map(lam.hook_length, boxes))


# No sweep calls this; the cache serves repeated library and CLI calls
# on one pair, and its bound keeps a long session from holding them all.
@lru_cache(maxsize=256)
def _excited_sum(parts: tuple[int, ...], mu: tuple[int, ...]) -> int:
    return sum(sum(level.values()) for level in _levels(parts, _origin_boxes(mu)))


def excited_sum(lam: Partition, mu: Partition) -> int:
    """Sum over the excited family of the hook-length products."""
    SkewShape(lam, mu)  # refuses a mu that does not fit inside lam
    return _excited_sum(lam.parts, mu.parts)


def naruse_ratio(lam: Partition, mu: Partition) -> Fraction:
    """Exact value of dim(lam/mu) / dim(lam).

    Equals the excited sum divided by the falling factorial n(n-1)...
    (n-k+1), n = |lam|, k = |mu|; excited_sum checks that mu fits inside lam.
    """
    return Fraction(excited_sum(lam, mu), falling_factorial(lam.n, mu.n))


def skew_dim_naruse(lam: Partition, mu: Partition) -> int:
    """Skew tableau count through the excited-family route."""
    ratio = naruse_ratio(lam, mu)
    value = ratio * dim_hlf(lam)
    if value.denominator != 1:
        raise ArithmeticError(f"non-integral count for {lam}/{mu}")
    return int(value)
