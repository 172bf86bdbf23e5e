"""Integer partitions, boxes, hooks, cycle types, and Young's lattice.

Diagrams follow the French convention: row 1 is the longest row at the
bottom, row indices grow upward, column indices grow rightward, both
1-based.  A box (i, j) belongs to a partition iff i <= len(parts) and
j <= parts[i-1].

young_lattice(n) numbers every partition of size at most n by a small
int, size by size, so the table builds (dimensions.lattice_skew_dims,
characters.character_table) key their dicts by ints, not parts tuples.

Every integer argument of the package (a size n, a row length, the
thick-hook parameter a, a strip size or weight, a budget) is checked by
one rule, _check_int here: an int, not a bool, within its range, or a
ValueError that names the argument, its value and the range.  Only the
entries of a Partition or CycleType keep their own inline test, since
it runs on every shape built.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial, perm
from operator import le
from typing import Iterator, NamedTuple

# Guard for the exhaustive generators; desk-scale sweeps stay far below it.
DEFAULT_PARTITION_CAP = 40


def _check_int(what: str, value, low: int | None, high: int | None = None) -> None:
    """Refuse value, by a ValueError naming what, unless it is an int (not a bool) within low..high.

    high None reads "at least low"; low None too asks only for an int.
    """
    if type(value) is not int or low is not None and value < low or high is not None and value > high:
        span = "" if low is None else f" at least {low}" if high is None else f" within {low}..{high}"
        raise ValueError(f"{what}={value!r} is not an integer{span}")


class Box(NamedTuple):
    """A cell of a Young diagram as (row, col), 1-based."""

    row: int
    col: int


def _entries_checked(field: str, noun: str, ordered: bool):
    """A __post_init__ that makes field a tuple of ints >= 1, weakly decreasing if ordered.

    An entry of an int subclass other than bool is stored as its plain int,
    so the shape's text is the same on every Python: str() of an IntEnum
    member is its name on 3.10 and its value from 3.11.
    """

    def __post_init__(self) -> None:
        values = tuple(getattr(self, field))
        subclassed = False
        i = 0  # counted by hand: enumerate would cost a call per construction
        for v in values:
            if type(v) is not int:
                subclassed = True
                if isinstance(v, bool) or not isinstance(v, int):
                    v = 0  # so the test below refuses it
            if v < 1:
                raise ValueError(f"{noun} {i + 1} is {values[i]!r}, expected a positive integer")
            if ordered and i and values[i - 1] < v:
                raise ValueError(f"parts increase at position {i + 1}: {values[i - 1]} < {v}")
            i += 1
        object.__setattr__(self, field, tuple(map(int, values)) if subclassed else values)

    return __post_init__


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integers."""

    parts: tuple[int, ...] = ()

    __post_init__ = _entries_checked("parts", "part", ordered=True)

    @cached_property
    def n(self) -> int:
        """Number of boxes."""
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __str__(self) -> str:
        return format_partition(self)

    def part(self, i: int) -> int:
        """The i-th part, 1-based; 0 beyond the last row."""
        if i < 1:
            raise ValueError(f"row index {i} is not positive")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    @cached_property
    def col_counts(self) -> tuple[int, ...]:
        """Column heights, i.e. the parts of the conjugate."""
        return _column_counts(self.parts)

    def conjugate(self) -> "Partition":
        """Reflect the diagram across the main diagonal."""
        return Partition(self.col_counts)

    def contains(self, inner: "Partition") -> bool:
        """Whether inner fits inside self row by row."""
        return len(inner.parts) <= len(self.parts) and all(map(le, inner.parts, self.parts))

    def __contains__(self, box: tuple[int, int]) -> bool:
        """Whether box has a hook in the shape: the rule _boxes_inside checks."""
        return tuple(box) in self._hooks

    def boxes(self) -> Iterator[Box]:
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield Box(i, j)

    def hook_length(self, box: tuple[int, int]) -> int:
        """Arm plus leg plus one of a box of the diagram.

        The arm counts boxes strictly to the right in the same row, the
        leg counts boxes strictly above in the same column.
        """
        return self._hooks[_boxes_inside(self, (box,))[0]]

    @cached_property
    def _hooks(self) -> dict[tuple[int, int], int]:
        return hook_lengths(self.parts)

    @cached_property
    def max_hook(self) -> int:
        """Largest hook length; equals parts[0] + conjugate[0] - 1."""
        if not self.parts:
            return 0
        return self.parts[0] + self.col_counts[0] - 1

    @cached_property
    def diagonal_length(self) -> int:
        """Boxes on the main diagonal (the Durfee length): the first 0-based row i with parts[i] <= i."""
        return next((i for i, p in enumerate(self.parts) if p <= i), len(self.parts))

    def corners(self) -> list[Box]:
        """Removable boxes (i, parts[i-1]) with parts[i-1] > parts[i], by row."""
        return [Box(i, self.parts[i - 1]) for i, _ in _corners(self.parts)]


@dataclass(frozen=True)
class CycleType:
    """Cycle lengths of a permutation, kept in the order supplied."""

    lengths: tuple[int, ...] = ()

    __post_init__ = _entries_checked("lengths", "cycle", ordered=False)

    @cached_property
    def n(self) -> int:
        return sum(self.lengths)

    @property
    def cyc(self) -> int:
        """Total number of cycles, fixed points included."""
        return len(self.lengths)

    @cached_property
    def cycle_counts(self) -> dict[int, int]:
        """Multiplicity of each cycle length."""
        return dict(Counter(self.lengths))

    def cyc_j(self, j: int) -> int:
        return self.cycle_counts.get(j, 0)

    @property
    def supp(self) -> int:
        """Size of the support: boxes moved, i.e. sum of lengths >= 2."""
        return sum(e for e in self.lengths if e >= 2)

    @property
    def word_length(self) -> int:
        """Minimal number of transpositions, n - cyc."""
        return self.n - self.cyc

    def is_identity(self) -> bool:
        return all(e == 1 for e in self.lengths)

    @cached_property
    def centralizer_order(self) -> int:
        z = 1
        for j, c in self.cycle_counts.items():
            z *= j**c * factorial(c)
        return z

    def class_size(self) -> int:
        """Number of permutations with this cycle type."""
        return factorial(self.n) // self.centralizer_order

    def sorted_desc(self) -> "CycleType":
        return CycleType(tuple(sorted(self.lengths, reverse=True)))

    def __str__(self) -> str:
        return format_cycle_type(self)


def _column_counts(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Column heights of the shape with these parts: the conjugate's parts.

    One pass from the last row up: the columns that row i, 1-based, passes
    beyond the rows below it have height i.
    """
    cols: list[int] = []
    for i in range(len(parts), 0, -1):
        cols += [i] * (parts[i - 1] - len(cols))
    return tuple(cols)


def _corners(parts: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """Each removable box's row, 1-based, and the parts left without it, by row."""
    last = len(parts) - 1
    return [
        (i + 1, parts[:i] + (a - 1,) * (a > 1) + parts[i + 1 :])
        for i, a in enumerate(parts)
        if i == last or parts[i + 1] < a  # the last box of row i is removable iff row i + 1 is shorter
    ]


def _boxes_inside(lam: Partition, boxes) -> list[tuple[int, int]]:
    """The boxes as (row, col) pairs, in the order given; ValueError names the first without a hook in lam."""
    pairs = [tuple(u) for u in boxes]
    hooks = lam._hooks
    for u in pairs:
        if u not in hooks:
            raise ValueError(f"box {u} lies outside {lam}")
    return pairs


def hook_lengths(parts: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """Hook length of every box (i, j): its arm, its leg and itself."""
    cols = _column_counts(parts)
    return {
        (i, j): p - j + cols[j - 1] - i + 1
        for i, p in enumerate(parts, start=1)
        for j in range(1, p + 1)
    }


def format_partition(p: Partition) -> str:
    """Canonical text form [a1,a2,...]; the empty partition is []."""
    return format_parts(p.parts)


def format_parts(parts: tuple[int, ...]) -> str:
    """The text of format_partition, from a tuple of parts known to be valid."""
    return "[" + ",".join(map(str, parts)) + "]"


def format_cycle_type(t: CycleType) -> str:
    """Canonical text form (c1,c2,...)."""
    return "(" + ",".join(str(e) for e in t.lengths) + ")"


def _parse_int_list(text: str, open_ch: str, close_ch: str, what: str) -> tuple[int, ...]:
    body = text.strip()
    if body.startswith(open_ch):
        if not body.endswith(close_ch):
            raise ValueError(f"unbalanced {open_ch!r} in {what} text {text!r}")
        body = body[1:-1]
    elif body.endswith(close_ch):
        raise ValueError(f"unbalanced {close_ch!r} in {what} text {text!r}")
    body = body.strip()
    if not body:
        return ()
    values = []
    for idx, token in enumerate(body.split(","), start=1):
        tok = token.strip()
        if not tok.isdecimal():  # isdigit would pass "²", which int() refuses
            raise ValueError(f"{what} entry {idx}: {tok!r} is not a positive integer")
        values.append(int(tok))
    return tuple(values)


def parse_partition(text: str) -> Partition:
    """Parse "[a1,a2,...]" (brackets optional) into a Partition.

    Raises ValueError with the offending entry position on bad tokens;
    Partition names a zero part or an increase.
    """
    return Partition(_parse_int_list(text, "[", "]", "partition"))


def parse_cycle_type(text: str) -> CycleType:
    """Parse "(c1,c2,...)" (parentheses optional) into a CycleType."""
    return CycleType(_parse_int_list(text, "(", ")", "cycle type"))


def falling_factorial(n: int, k: int) -> int:
    """n (n-1) ... (n-k+1), with k = 0 giving 1."""
    _check_int("n", n, 0)
    _check_int("k", k, 0, n)
    return perm(n, k)


def _walk(bounds: tuple[int, ...], size: int | None) -> Iterator[tuple[int, ...]]:
    """Parts of every partition under bounds row by row, of the given size
    or of any size, in reverse-lexicographic order.

    The stack holds one part per row.  A shape is yielded after every shape
    that extends it; then its last part steps down.  left counts the boxes
    still to place, so a part v of row i must fit left + slack and leave at
    most v for each row from i on.  With no size, left starts at 0 and the
    slack of every bound makes the first test idle.
    """
    rows = len(bounds)
    left, slack = (0, sum(bounds)) if size is None else (size, 0)
    stack: list[int] = []
    v = bounds[0] if rows else 0  # no row may exceed the row before it
    while True:
        # extend with the largest part allowed in each row
        i = len(stack)
        while i < rows:
            v = min(v, bounds[i], left + slack)
            if v < 1 or v * (rows - i) < left:
                break
            stack.append(v)
            left -= v
            i += 1
        if left <= 0:
            yield tuple(stack)
        # step the last part down; a row with no smaller part left is done
        while True:
            if not stack:
                return
            v = stack.pop() - 1
            left += v + 1
            if v >= 1 and v * (rows - len(stack)) >= left:
                stack.append(v)
                left -= v
                break
            if left <= 0:
                yield tuple(stack)


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n in reverse-lexicographic order, [n] first."""
    _check_int("n", n, 0, DEFAULT_PARTITION_CAP)
    for parts in _walk((n,) * n, n):
        yield Partition(parts)


class YoungLattice(NamedTuple):
    """Every partition of size <= n as a node id, with what the table builds read of it.

    Ids run size by size, each size in enumerate_partitions order, so a
    shape has the same id in every lattice that holds it: () is 0, and
    the shapes of size k are range(start[k], start[k + 1]).  conjugate
    maps each id to the id of the conjugate shape, so it is an involution
    whose fixed points are the self-conjugate shapes; an id is at most its
    conjugate's exactly when the shape is lexicographically at least its
    conjugate.  A lattice is shared by every caller of young_lattice(n),
    so it is only read.
    """

    parts: tuple[tuple[int, ...], ...]
    text: tuple[str, ...]  # format_parts of each node
    size: tuple[int, ...]
    rank: tuple[int, ...]  # the node's place in the order of the texts
    down: tuple[tuple[int, ...], ...]  # the nodes one corner below, corners by row
    index: dict[tuple[int, ...], int]  # parts -> id
    start: tuple[int, ...]
    conjugate: tuple[int, ...]  # the id of each node's conjugate; a self-conjugate node maps to itself


@lru_cache(maxsize=2, typed=True)  # typed: True or 1.0 must not hit the lattice of 1
def young_lattice(n: int) -> YoungLattice:
    """Young's lattice of every partition of size at most n."""
    _check_int("n", n, 0, DEFAULT_PARTITION_CAP)
    nodes: list[tuple[int, ...]] = []
    start = []
    for k in range(n + 1):
        start.append(len(nodes))
        nodes += _walk((k,) * k, k)
    start.append(len(nodes))
    index = {parts: node for node, parts in enumerate(nodes)}
    down = [tuple(index[below] for _, below in _corners(parts)) for parts in nodes]
    text = tuple(map(format_parts, nodes))
    rank = [0] * len(nodes)
    for place, node in enumerate(sorted(range(len(nodes)), key=text.__getitem__)):
        rank[node] = place
    conjugate = tuple(index[_column_counts(parts)] for parts in nodes)
    return YoungLattice(
        tuple(nodes), text, tuple(map(sum, nodes)), tuple(rank), tuple(down), index, tuple(start), conjugate
    )


def enumerate_subdiagrams(outer: Partition, size: int | None = None) -> Iterator[Partition]:
    """All partitions contained in outer, optionally of a fixed size.

    Rows are chosen from the first on under the double bound
    min(previous row, outer row), so the order is reverse-lexicographic
    for a fixed outer shape; no recursion limits the number of rows.
    """
    if size is not None:
        _check_int("size", size, None)
        if not 0 <= size <= outer.n:
            return
    for parts in _walk(outer.parts, size):
        yield Partition(parts)
