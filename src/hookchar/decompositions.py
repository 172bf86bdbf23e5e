"""Thick hook and stairs decompositions, with closed-form excited-sum bounds.

The diagonal hook of (i, i) is the box (i, i) together with everything
to its right in row i and everything above it in column i.  Grouping
consecutive diagonal hooks gives thick hooks; a decomposition cuts the
diagonal into ranges whose thick hooks all have size in a window [a, b].

Bounds that involve e or square roots are evaluated with rational upper
approximations of the constants, so every comparison stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt

from .excited import ExcitedDiagram, enumerate_excited, excitation_closure
from .partitions import Box, Partition, _check_int

# Rational upper bounds for the transcendental constants, 3 decimals.
E_UPPER = Fraction(2719, 1000)
TWO_E_UPPER = Fraction(5437, 1000)
# ceil(100 e^2)/100
E_SQ_UPPER = Fraction(739, 100)
FOUR_E_SQ_UPPER = 4 * E_SQ_UPPER
# 2e * 4e^2 = 8e^3
CHAIN_CONSTANT_UPPER = Fraction(160685, 1000)


@dataclass(frozen=True)
class ThickHook:
    """Union of consecutive diagonal hooks j_lo..j_hi of the source."""

    source: Partition
    j_lo: int
    j_hi: int
    boxes: frozenset[Box]

    @property
    def size(self) -> int:
        return len(self.boxes)


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class ThickHookDecomposition:
    """Cuts 0 = i_0 < i_1 < ... < i_p = delta and the thick hooks between them."""

    source: Partition
    cuts: tuple[int, ...]
    hooks: tuple[ThickHook, ...]
    a: int
    b: int

    @property
    def p(self) -> int:
        return len(self.hooks)

    def sizes(self) -> tuple[int, ...]:
        return tuple(h.size for h in self.hooks)


@dataclass(frozen=True)
class StairsLine:
    """One row or column line of a stairs decomposition."""

    orientation: str
    length: int
    anchor: Box
    boxes: tuple[Box, ...]


@dataclass(frozen=True)
class StairsDecomposition:
    source: Partition
    lines: tuple[StairsLine, ...]

    @property
    def q(self) -> int:
        return len(self.lines)


def _diagonal_hook(lam: Partition, i: int) -> tuple[tuple[Box, ...], tuple[Box, ...]]:
    """The diagonal hook of (i, i) as two lines: the row (i, i)..(i, lam_i),
    which keeps the diagonal box, and the column (i+1, i)..(lam'_i, i)."""
    row = tuple(Box(i, j) for j in range(i, lam.part(i) + 1))
    col = tuple(Box(r, i) for r in range(i + 1, lam.col_counts[i - 1] + 1))
    return row, col


def thick_hook(lam: Partition, j: int, k: int) -> ThickHook:
    """The box union of diagonal hooks j through k."""
    delta = lam.diagonal_length
    _check_int("j", j, 1, delta)
    _check_int("k", k, j, delta)
    boxes: set[Box] = set()
    for i in range(j, k + 1):
        boxes.update(*_diagonal_hook(lam, i))
    return ThickHook(lam, j, k, frozenset(boxes))


def decomposition_from_cuts(
    lam: Partition, cuts: tuple[int, ...], a: int, b: int
) -> ThickHookDecomposition:
    """Assemble a decomposition from explicit diagonal cuts, unvalidated."""
    hooks = tuple(
        thick_hook(lam, cuts[i] + 1, cuts[i + 1]) for i in range(len(cuts) - 1)
    )
    return ThickHookDecomposition(lam, tuple(cuts), hooks, a, b)


def build_thick_hook_decomposition(lam: Partition, a: int) -> ThickHookDecomposition:
    """Cut the diagonal greedily into thick hooks of size in [a, 4a].

    Each prefix is grown maximally under 4a; if the last hook comes out
    below a, whole diagonal hooks are transferred from the second-to-last
    group until it reaches a.  Works for max_hook(lam) <= a <= |lam|.
    """
    s = lam.max_hook
    if lam.n == 0:
        raise ValueError("the empty partition has no thick hook decomposition")
    _check_int("a", a, s, lam.n)
    delta = lam.diagonal_length
    diag_sizes = [lam.hook_length((i, i)) for i in range(1, delta + 1)]
    cuts = [0]
    acc = 0
    for i, size in enumerate(diag_sizes, start=1):
        if acc + size > 4 * a:
            cuts.append(i - 1)
            acc = 0
        acc += size
    cuts.append(delta)
    while len(cuts) >= 3 and sum(diag_sizes[cuts[-2] : cuts[-1]]) < a:
        if cuts[-2] - 1 <= cuts[-3]:
            raise ArithmeticError(f"cannot repair decomposition of {lam} at a={a}")
        cuts[-2] -= 1
    d = decomposition_from_cuts(lam, tuple(cuts), a, 4 * a)
    check = validate_decomposition(d)
    if not check:
        raise ArithmeticError(f"builder produced an invalid decomposition: {check.reason}")
    return d


def validate_decomposition(d: ThickHookDecomposition) -> ValidationResult:
    """Check cuts, the partition property, and the size window."""
    delta = d.source.diagonal_length
    cuts = d.cuts
    if not cuts or cuts[0] != 0 or cuts[-1] != delta:
        return ValidationResult(False, "cuts must run from 0 to the diagonal length")
    if any(cuts[i] >= cuts[i + 1] for i in range(len(cuts) - 1)):
        return ValidationResult(False, "cuts must be strictly increasing")
    if len(d.hooks) != len(cuts) - 1:
        return ValidationResult(False, "hook list does not match the cuts")
    seen: set[Box] = set()
    total = 0
    for idx, hook in enumerate(d.hooks):
        if (hook.j_lo, hook.j_hi) != (cuts[idx] + 1, cuts[idx + 1]):
            return ValidationResult(False, "hook ranges do not match the cuts")
        if seen & hook.boxes:
            return ValidationResult(False, "thick hooks overlap")
        seen |= hook.boxes
        total += hook.size
    if total != d.source.n:
        return ValidationResult(False, "thick hooks do not cover the diagram")
    for hook in d.hooks:
        if not d.a <= hook.size <= d.b:
            return ValidationResult(
                False, f"hook size {hook.size} outside [{d.a},{d.b}]"
            )
    return ValidationResult(True)


def _group_of_box(cuts: tuple[int, ...], box: tuple[int, int]) -> int:
    m = min(box)
    for g in range(1, len(cuts)):
        if cuts[g - 1] < m <= cuts[g]:
            return g - 1
    raise ValueError(f"box {box} on no thick hook (cuts {cuts})")


def _hook_counts(d: ThickHookDecomposition, boxes) -> tuple[int, ...]:
    counts = [0] * d.p
    for u in boxes:
        counts[_group_of_box(d.cuts, u)] += 1
    return tuple(counts)


def _row_family(lam: Partition, d: ThickHookDecomposition, row: Partition) -> dict[tuple[int, ...], list]:
    """The boxes of each excited diagram of row in lam, grouped by per-hook counts, in family order."""
    groups: dict[tuple[int, ...], list] = {}
    for e in enumerate_excited(lam, row):
        groups.setdefault(_hook_counts(d, e.boxes), []).append(e.boxes)
    return groups


def minimally_excited_row(
    lam: Partition, d: ThickHookDecomposition, ell_vec
) -> ExcitedDiagram | None:
    """The least excited diagram of a row with prescribed per-hook counts.

    Filters the excited family of the row [sum(ell_vec)] down to the
    diagrams placing ell_vec[j] boxes on thick hook j, and returns the
    unique diagram from which all of them are reachable, or None when
    the filtered family is empty.

    The coordinate sum strictly grows under excitation, so the generator
    must be the coordinate-sum minimizer; reachability of every family
    member from it is verified rather than assumed.
    """
    ell_vec = tuple(ell_vec)
    if len(ell_vec) != d.p:
        raise ValueError(f"expected {d.p} counts, got {len(ell_vec)}")
    for j, e in enumerate(ell_vec):
        _check_int(f"ell_vec[{j}]", e, 0)
    ell = sum(ell_vec)
    if ell > lam.part(1):
        raise ValueError(f"row of length {ell} does not fit inside {lam}")
    if ell == 0:
        return ExcitedDiagram((), Partition())
    origin = Partition((ell,))
    family = _row_family(lam, d, origin).get(ell_vec)
    if not family:
        return None
    best = min(family, key=lambda bs: (sum(i + j for i, j in bs), bs))
    reachable = set(excitation_closure(lam, best))
    if any(bs not in reachable for bs in family):
        raise ArithmeticError(
            f"no single generator for counts {ell_vec} in {lam}"
        )
    return ExcitedDiagram(best, origin)


def count_feasible_sequences(lam: Partition, d: ThickHookDecomposition, ell: int) -> int:
    """Number of per-hook count vectors realized by excited rows of length ell."""
    _check_int("ell", ell, 1, lam.part(1))
    return len(_row_family(lam, d, Partition((ell,))))


def stairs_decomposition(mu: Partition) -> StairsDecomposition:
    """Split mu into row and column lines along its diagonal.

    Diagonal index i contributes the two lines of its diagonal hook, the
    row and, when non-empty, the column.  Lines are ordered row before
    column per index.
    """
    lines: list[StairsLine] = []
    for i in range(1, mu.diagonal_length + 1):
        row, col = _diagonal_hook(mu, i)
        lines.append(StairsLine("row", len(row), Box(i, i), row))
        if col:
            lines.append(StairsLine("column", len(col), Box(i + 1, i), col))
    return StairsDecomposition(mu, tuple(lines))


def bound_S_row(lam: Partition, ell: int) -> Fraction:
    """Closed-form upper bound for the excited sum of the row [ell].

    Case (a), ell <= n/s: (8n/ell)^ell.  Case (b): (4 e^2 s)^ell with
    e^2 replaced by its rational upper bound.
    """
    _check_int("ell", ell, 1, lam.part(1))
    n = lam.n
    s = lam.max_hook
    if ell * s <= n:
        return Fraction(8 * n, ell) ** ell
    return (FOUR_E_SQ_UPPER * s) ** ell


def bound_S_general(lam: Partition, a: int, ell: int) -> int:
    """Thick-hook bound binom(ell + floor(n/a), ell) * (4a)^ell."""
    n = lam.n
    s = lam.max_hook
    _check_int("a", a, s, n)
    _check_int("ell", ell, 1, lam.part(1))
    return comb(ell + n // a, ell) * (4 * a) ** ell


def bound_skew_general(n: int, k: int, s: int, C: Fraction) -> Fraction:
    """Evaluate (C * max(n/sqrt(k), s))^k exactly.

    The max is decided by comparing n^2 with s^2 k.  When n/sqrt(k)
    dominates, sqrt(k) is replaced by isqrt(k), exact for perfect
    squares and an upper rounding of the bound otherwise.
    """
    _check_int("n", n, 1)
    _check_int("k", k, 1, n)
    _check_int("s", s, 1)
    if C <= 0:
        raise ValueError(f"C={C} must be positive")
    if s * s * k >= n * n:
        m = Fraction(s)
    else:
        m = Fraction(n, isqrt(k))
    return (Fraction(C) * m) ** k
