"""Ribbons, ribbon tableaux, and symmetric group characters.

Characters come from the Murnaghan-Nakayama rule, read in two
directions (Sagan, The Symmetric Group, 4.10; Stanley, EC2, 7.17).
Strip positions come from beta-numbers: with r rows, the set
B = {parts[i] + r - i} determines a strip of size j for each bead b in
B whose target b - j (removal) or b + j (addition) is free and not
negative; the strip height counts the beads passed over.

- Backwards, per entry: character_mn peels border strips (ribbons)
  whose sizes follow the cycle type off one shape, one level at a time,
  with the sign tracking ribbon heights.  Fixed points are never
  peeled: ribbon tableaux of weight (1, ..., 1) are the standard Young
  tableaux, so once only 1s remain each shape contributes its hook
  length dimension.  It serves point queries and is the oracle.
- Forwards, per n: character_table expands p_alpha in Schur functions
  by p_j s_mu = sum of (-1)^ht(lam/mu) s_lam over the j-ribbons lam/mu,
  so one pass gives every value of S_n at once.  Its shapes are the
  node ids of young_lattice(n); character_mn is its oracle in the
  tests.

Neither character_mn nor character_table recurses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .dimensions import SkewShape, _dim, dim_hlf, skew_dim_det
from .partitions import Box, CycleType, Partition, enumerate_subdiagrams, young_lattice


@dataclass(frozen=True)
class Ribbon:
    """A connected border strip with no 2x2 block."""

    boxes: tuple[Box, ...]

    @property
    def size(self) -> int:
        return len(self.boxes)

    @property
    def height(self) -> int:
        rows = [b.row for b in self.boxes]
        return max(rows) - min(rows)


@dataclass(frozen=True)
class RibbonTableau:
    """A chain of partitions whose consecutive differences are ribbons."""

    chain: tuple[Partition, ...]

    @property
    def shape(self) -> Partition:
        return self.chain[-1]

    @property
    def ribbons(self) -> tuple[Ribbon, ...]:
        return tuple(
            Ribbon(_diff_boxes(self.chain[i + 1], self.chain[i]))
            for i in range(len(self.chain) - 1)
        )

    @property
    def weight(self) -> tuple[int, ...]:
        return tuple(
            self.chain[i + 1].n - self.chain[i].n for i in range(len(self.chain) - 1)
        )

    @property
    def total_height(self) -> int:
        return sum(r.height for r in self.ribbons)


@dataclass(frozen=True)
class CharacterValue:
    """An irreducible character value with its normalized form."""

    value: int
    normalized: Fraction

    @property
    def dim(self) -> int:
        if self.normalized == 0:
            raise ValueError("dimension is not recoverable from a zero value")
        return int(Fraction(self.value) / self.normalized)


def _diff_boxes(outer: Partition, inner: Partition) -> tuple[Box, ...]:
    out = []
    for i in range(1, len(outer) + 1):
        for j in range(inner.part(i) + 1, outer.part(i) + 1):
            out.append(Box(i, j))
    return tuple(out)


def _ribbon_moves(parts: tuple[int, ...], step: int) -> list[tuple[tuple[int, ...], int]]:
    """All (shape, strip height) reached by one strip of size |step|.

    A negative step removes the strip, a positive one adds it.  The
    beta-set has one bead per row of parts, padded by step rows when
    adding, which leaves room for the tallest new strip; each bead b
    whose target b + step is free and not negative gives one shape, and
    the height is the number of beads it passes.
    """
    rows = len(parts) + max(step, 0)
    beta = [p + rows - 1 - i for i, p in enumerate(parts)]
    beta += range(rows - len(parts) - 1, -1, -1)
    bset = set(beta)
    out = []
    for i, b in enumerate(beta):
        t = b + step
        if t < 0 or t in bset:
            continue
        moved = beta.copy()
        moved[i] = t
        moved.sort(reverse=True)
        newparts = [c - (rows - 1 - m) for m, c in enumerate(moved)]
        while newparts and newparts[-1] == 0:
            newparts.pop()
        out.append((tuple(newparts), abs(moved.index(t) - i)))
    return out


def removable_ribbons(lam: Partition, j: int) -> list[Ribbon]:
    """All size-j border strips whose removal leaves a partition.

    Ordered by box list, lowest-leftmost first; at most
    2 * diagonal_length(lam) * j of them exist.
    """
    if j < 1:
        raise ValueError(f"strip size {j} must be positive")
    ribbons = [
        Ribbon(_diff_boxes(lam, Partition(nu))) for nu, _ in _ribbon_moves(lam.parts, -j)
    ]
    ribbons.sort(key=lambda r: r.boxes)
    return ribbons


def _normalize_weights(alpha) -> tuple[int, ...]:
    if isinstance(alpha, CycleType):
        return alpha.lengths
    return tuple(alpha)


def _peel(shape: tuple[int, ...], weights: tuple[int, ...], signed: bool) -> int:
    """Sum over the ribbon tableaux of a shape with ordered weight weights.

    Each tableau counts 1, or (-1)^(total height) when signed.  Strips
    of size weights[-1] come off first, one level per entry; shapes
    reached by different strips merge into one coefficient.  A leading
    run of 1s is not peeled: the shapes left then carry f^shape
    standard fillings each.
    """
    ones = 0
    while ones < len(weights) and weights[ones] == 1:
        ones += 1
    level = {shape: 1}
    for j in reversed(weights[ones:]):
        nxt: dict[tuple[int, ...], int] = {}
        for parts, coeff in level.items():
            for smaller, height in _ribbon_moves(parts, -j):
                term = -coeff if signed and height % 2 else coeff
                nxt[smaller] = nxt.get(smaller, 0) + term
        level = {parts: coeff for parts, coeff in nxt.items() if coeff}
    return sum(coeff * _dim(parts) for parts, coeff in level.items())


def count_ribbon_tableaux(lam: Partition, alpha) -> int:
    """Number of ribbon tableaux of shape lam and ordered weight alpha.

    The order of the weight entries matters; sorting them can change
    the count.  The last entry is peeled first and a leading run of 1s
    is counted by the hook length formula instead of being peeled.
    """
    weights = _normalize_weights(alpha)
    if sum(weights) != lam.n:
        raise ValueError(f"weights sum to {sum(weights)}, expected {lam.n}")
    return _peel(lam.parts, weights, signed=False)


def ribbon_tableaux(lam: Partition, alpha) -> Iterator[RibbonTableau]:
    """Generate every ribbon tableau of shape lam and ordered weight alpha."""
    weights = _normalize_weights(alpha)
    if sum(weights) != lam.n:
        raise ValueError(f"weights sum to {sum(weights)}, expected {lam.n}")

    def build(shape: tuple[int, ...], m: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        if m == 0:
            yield (shape,)
            return
        for smaller, _ in _ribbon_moves(shape, -weights[m - 1]):
            for prefix in build(smaller, m - 1):
                yield prefix + (shape,)

    for chain in build(lam.parts, len(weights)):
        yield RibbonTableau(tuple(Partition(c) for c in chain))


def character_mn(lam: Partition, alpha: CycleType) -> CharacterValue:
    """Irreducible character at a cycle type, by border-strip peeling.

    The result does not depend on the order of alpha's entries; they
    are peeled largest first, which prunes the levels hardest, and the
    fixed points left at the end give the dimension of each remaining
    shape (the branching identity), so the identity class costs one
    hook length product.
    """
    if alpha.n != lam.n:
        raise ValueError(f"cycle type sums to {alpha.n}, expected {lam.n}")
    value = _peel(lam.parts, tuple(sorted(alpha.lengths)), signed=True)
    return CharacterValue(value, Fraction(value, dim_hlf(lam)))


def character_table(n: int) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
    """Every irreducible character of S_n: {cycle type parts: {shape parts: value}}.

    Both key sets are the partitions of n in enumerate_partitions order,
    and every entry is stored, zeros included, so table[alpha][lam] never
    misses.  The cycle types are walked as a trie of non-increasing parts,
    depth first; each node holds the Schur expansion {shape: coefficient}
    of the product of its p_j, and a child adds every j-ribbon to every
    shape of its parent's vector.  The shapes are the node ids of
    young_lattice(n), and the ribbon additions are memoized as (id, sign)
    lists on (id, j) for this call only.
    """
    lattice = young_lattice(n)
    nodes, index = lattice.parts, lattice.index
    zeros = dict.fromkeys(nodes[lattice.start[n] :], 0)
    additions: list[list[list[tuple[int, int]] | None]] = [[None] * len(nodes) for _ in range(n + 1)]
    table = {}
    stack: list[tuple[tuple[int, ...], int, dict[int, int]]] = [((), 0, {0: 1})]
    while stack:
        alpha, size, vector = stack.pop()
        if size == n:
            column = table[alpha] = zeros.copy()
            for lam, coeff in vector.items():
                column[nodes[lam]] = coeff
            continue
        # pushed smallest j first, so the leaves come out in enumeration order
        for j in range(1, min(alpha[-1] if alpha else n, n - size) + 1):
            memo = additions[j]
            child: dict[int, int] = {}
            for mu, coeff in vector.items():
                moves = memo[mu]
                if moves is None:
                    moves = memo[mu] = [
                        (index[lam], -1 if height % 2 else 1) for lam, height in _ribbon_moves(nodes[mu], j)
                    ]
                for lam, sign in moves:
                    child[lam] = child.get(lam, 0) + sign * coeff
            stack.append((alpha + (j,), size + j, {lam: c for lam, c in child.items() if c}))
    return table


def sigma_star(alpha: CycleType) -> CycleType:
    """Drop all fixed points, keeping cycles of length 2 and more.

    The survivors are returned in decreasing order; character values do
    not depend on the ordering.
    """
    kept = tuple(sorted((e for e in alpha.lengths if e >= 2), reverse=True))
    if not kept:
        raise ValueError("the identity cycle type has no fixed-point-free part")
    return CycleType(kept)


def character_branching(lam: Partition, alpha: CycleType) -> CharacterValue:
    """Character via restriction to the support of the permutation.

    Sums character(mu, alpha minus fixed points) * skew dimension over
    all mu inside lam of size supp(alpha).  Must agree with the direct
    peeling computation.
    """
    if alpha.n != lam.n:
        raise ValueError(f"cycle type sums to {alpha.n}, expected {lam.n}")
    star = sigma_star(alpha)
    total = 0
    for mu in enumerate_subdiagrams(lam, star.n):
        term = character_mn(mu, star).value
        if term:
            total += term * skew_dim_det(SkewShape(lam, mu))
    return CharacterValue(total, Fraction(total, dim_hlf(lam)))


def diag_cycle_bound(lam: Partition, alpha: CycleType) -> int:
    """The bound 2^n * diagonal_length^cyc on absolute character values."""
    if alpha.n != lam.n:
        raise ValueError(f"cycle type sums to {alpha.n}, expected {lam.n}")
    return 2**lam.n * lam.diagonal_length**alpha.cyc
