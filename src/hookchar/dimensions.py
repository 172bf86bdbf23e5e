"""Standard Young tableau counts for straight and skew shapes.

Three mutually independent routes are provided: the hook length product
for straight shapes, a brute-force lattice-path count for small skew
shapes, and the factorial determinant for skew shapes of any size, its
rows and columns scaled so that every entry is a binomial coefficient.
A fourth, skew_dims, walks down Young's lattice once and gives the skew
dimension of every subdiagram of one outer shape at a time, keyed by
parts; it builds nothing beyond the subdiagrams of its shape.  The
sweeps take the same walk on node ids, lattice_skew_dims over
young_lattice(n), which pays for every shape of size n once; skew_dims
is its oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, perm, prod

from .partitions import Partition, YoungLattice, hook_lengths

# Brute-force guard: the path count grows like the dimension itself.
DEFAULT_ORACLE_CAP = 18


@dataclass(frozen=True)
class SkewShape:
    """A pair of nested partitions outer/inner."""

    outer: Partition
    inner: Partition = Partition()

    def __post_init__(self) -> None:
        if not self.outer.contains(self.inner):
            raise ValueError(f"{self.inner} does not fit inside {self.outer}")

    @property
    def size(self) -> int:
        return self.outer.n - self.inner.n

    def __str__(self) -> str:
        return f"{self.outer}\\{self.inner}"


# Room for every shape of size <= 21; the MN peel also stores the shapes it stops at.
@lru_cache(maxsize=4096)
def _dim(parts: tuple[int, ...]) -> int:
    return factorial(sum(parts)) // prod(hook_lengths(parts).values())


def dim_hlf(p: Partition) -> int:
    """Number of standard Young tableaux of shape p, by hook lengths."""
    return _dim(p.parts)


def skew_dims(p: Partition) -> dict[tuple[int, ...], int]:
    """f^{p/mu} for every mu inside p, keyed by the parts of mu.

    f^{p/mu} counts the saturated chains from mu up to p in Young's
    lattice.  Walking down from p one level at a time, each shape passes
    its count to every shape reached by removing one of its corners, so
    the keys are exactly the subdiagrams of p, () included with f^p.
    """
    table = {p.parts: 1}
    level = table
    while level:
        below: dict[tuple[int, ...], int] = {}
        for parts, count in level.items():
            rows = len(parts)
            for i, a in enumerate(parts):
                if i + 1 < rows and parts[i + 1] == a:
                    continue  # the last box of row i is not a corner
                # a row of one box that is a corner is the last row
                shape = parts[:i] + (a - 1,) + parts[i + 1 :] if a > 1 else parts[:i]
                below[shape] = below.get(shape, 0) + count
        table.update(below)
        level = below
    return table


def lattice_skew_dims(lattice: YoungLattice, top: int) -> dict[int, int]:
    """skew_dims of the shape with node id top, keyed by node id: the same walk on lattice.down."""
    down = lattice.down
    table = {top: 1}
    level = table
    while level:
        below: dict[int, int] = {}
        for node, count in level.items():
            for mu in down[node]:
                below[mu] = below.get(mu, 0) + count
        table.update(below)
        level = below
    return table


def skew_dim_oracle(shape: SkewShape, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Count standard fillings of a skew shape by exhaustive box-adding.

    Walks every saturated chain from inner to outer in the containment
    order, one box per step, with no memoization.  Refuses shapes with
    more than cap boxes.
    """
    m = shape.size
    if m > cap:
        raise ValueError(f"skew size {m} exceeds the oracle cap {cap}")
    outer = shape.outer.parts
    rows = len(outer)
    cur = list(shape.inner.parts) + [0] * (rows - len(shape.inner))

    def walk(remaining: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for i in range(rows):
            if cur[i] < outer[i] and (i == 0 or cur[i] < cur[i - 1]):
                cur[i] += 1
                total += walk(remaining - 1)
                cur[i] -= 1
        return total

    return walk(m)


def _bareiss_det(mat: list[list[int]]) -> int:
    """Exact determinant of an integer matrix, fraction-free."""
    a = [row[:] for row in mat]
    size = len(a)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            pivot = next((r for r in range(k + 1, size) if a[r][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


def _scaled_det(outer: tuple[int, ...], inner: tuple[int, ...]) -> tuple[int, int]:
    """det[C(b_i, c_j)] and the product of its scales b_i!/c_i!, where
    b_i = outer_i + r - 1 - i and c_j = inner_j + r - 1 - j for r rows,
    inner padded with 0s.

    Row i of det[1/(b_i - c_j)!] is scaled by b_i! and column j by 1/c_j!,
    so every entry is a binomial coefficient (0 when c_j > b_i).  Each
    b_i - c_i = outer_i - inner_i is at least 0, so the scale
    prod b_i!/c_i! is an integer.
    """
    r = len(outer)
    b = [outer[i] + r - 1 - i for i in range(r)]
    c = [inner[j] + r - 1 - j for j in range(r)]
    mat = [[comb(bi, cj) for cj in c] for bi in b]
    return _bareiss_det(mat) if r else 1, prod(perm(bi, bi - ci) for bi, ci in zip(b, c))


def skew_dim_det(shape: SkewShape) -> int:
    """Number of standard fillings of a skew shape, by determinant.

    Uses the factorial determinant det[1/(outer_i - inner_j - i + j)!]
    times size!, with 1/e! read as 0 for negative e.  Each row i is
    scaled by b_i! = (outer_i + r - 1 - i)! and each column j by
    1/c_j! = 1/(inner_j + r - 1 - j)!, so the entries become binomial
    coefficients C(b_i, c_j), far smaller than falling factorials, and
    the elimination stays exact; the value is size! det / prod b_i!/c_i!.
    Rows at either end with outer_i = inner_i hold no box and are
    dropped first: the count depends only on the boxes, so a tall shape
    gives a small matrix.
    """
    outer = shape.outer.parts
    inner = shape.inner.parts + (0,) * (len(outer) - len(shape.inner))
    lo, hi = 0, len(outer)
    while lo < hi and outer[lo] == inner[lo]:
        lo += 1
    while hi > lo and outer[hi - 1] == inner[hi - 1]:
        hi -= 1
    det, den = _scaled_det(outer[lo:hi], inner[lo:hi])
    num = factorial(shape.size) * det
    if num % den:
        raise ArithmeticError(f"determinant for {shape} is not integral")
    value = num // den
    if value < 0:
        raise ArithmeticError(f"determinant for {shape} is negative")
    return value
