"""Ribbons, ribbon tableaux, and symmetric group characters.

Characters come from the Murnaghan-Nakayama rule, read three ways
(Sagan, The Symmetric Group, 4.10; Stanley, EC2, 7.17).
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
  node ids of young_lattice(n), and it keeps one shape per conjugate
  pair, since the involution omega gives chi^{lam'}(alpha) =
  sgn(alpha) chi^lam(alpha) (Macdonald, Symmetric Functions, I.2-I.3).
  character_mn is its oracle in the tests.
- By restriction, per entry: character_branching peels the support
  sigma* of the cycle type from every subdiagram mu of its size in one
  pass, and weights each nonzero chi^mu(sigma*) by f^{lam/mu}.

No route of this module recurses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .dimensions import SkewShape, _dim, dim_hlf, skew_dim_det
from .partitions import Box, CycleType, Partition, _check_int, enumerate_subdiagrams, young_lattice


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
    _check_int("j", j, 1)
    ribbons = [
        Ribbon(_diff_boxes(lam, Partition(nu))) for nu, _ in _ribbon_moves(lam.parts, -j)
    ]
    ribbons.sort(key=lambda r: r.boxes)
    return ribbons


def _weights(alpha, n: int) -> tuple[int, ...]:
    """The entries of a weight or cycle type, which must be positive ints summing to n."""
    weights = alpha.lengths if isinstance(alpha, CycleType) else tuple(alpha)
    for i, w in enumerate(weights):
        _check_int(f"alpha[{i}]", w, 1)
    if sum(weights) != n:
        raise ValueError(f"weights sum to {sum(weights)}, expected {n}")
    return weights


def _peel(shapes, weights: tuple[int, ...], signed: bool) -> dict[tuple[int, ...], int]:
    """Sum over the ribbon tableaux of each shape with ordered weight weights.

    Returns {shape: sum} for the given shapes, each tableau counting 1,
    or (-1)^(total height) when signed; a shape whose sum is 0 may be
    missing.  Strips of size weights[-1] come off first, one level per
    entry.  A level keys each coefficient by (shape, start shape), so
    the start shapes stay apart while the strips of a shape are found
    once per level, however many start shapes reach it.  A leading run
    of 1s is not peeled: the shapes left then carry f^shape standard
    fillings each.
    """
    ones = 0
    while ones < len(weights) and weights[ones] == 1:
        ones += 1
    level = {(parts, parts): 1 for parts in shapes}
    for j in reversed(weights[ones:]):
        nxt: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        moves: dict[tuple[int, ...], list] = {}
        for (parts, start), coeff in level.items():
            if parts not in moves:
                moves[parts] = _ribbon_moves(parts, -j)
            for smaller, height in moves[parts]:
                term = -coeff if signed and height % 2 else coeff
                nxt[smaller, start] = nxt.get((smaller, start), 0) + term
        level = {key: coeff for key, coeff in nxt.items() if coeff}
    sums: dict[tuple[int, ...], int] = {}
    for (parts, start), coeff in level.items():
        sums[start] = sums.get(start, 0) + coeff * _dim(parts)
    return sums


def count_ribbon_tableaux(lam: Partition, alpha) -> int:
    """Number of ribbon tableaux of shape lam and ordered weight alpha.

    The order of the weight entries matters; sorting them can change
    the count.
    """
    return _peel([lam.parts], _weights(alpha, lam.n), signed=False).get(lam.parts, 0)


def ribbon_tableaux(lam: Partition, alpha) -> Iterator[RibbonTableau]:
    """Generate every ribbon tableau of shape lam and ordered weight alpha.

    Depth first from lam, last weight entry first, by an explicit stack of
    (shape, entries left, linked chain above); each shape's moves are
    pushed in reverse, so the tableaux come in a recursive walk's order.
    """
    weights = _weights(alpha, lam.n)
    stack = [(lam.parts, len(weights), None)]
    while stack:
        shape, m, above = stack.pop()
        if m:
            moves = _ribbon_moves(shape, -weights[m - 1])
            stack.extend((smaller, m - 1, (shape, above)) for smaller, _ in reversed(moves))
            continue
        chain = [Partition(shape)]
        while above is not None:
            shape, above = above
            chain.append(Partition(shape))
        yield RibbonTableau(tuple(chain))


def _check_sizes(lam: Partition, alpha: CycleType) -> None:
    """Refuse a cycle type whose size is not that of lam."""
    if alpha.n != lam.n:
        raise ValueError(f"cycle type sums to {alpha.n}, expected {lam.n}")


def character_mn(lam: Partition, alpha: CycleType) -> CharacterValue:
    """Irreducible character at a cycle type, by border-strip peeling.

    The result does not depend on the order of alpha's entries; they
    are peeled largest first, which prunes the levels hardest, and the
    fixed points left at the end give the dimension of each remaining
    shape (the branching identity), so the identity class costs one
    hook length product.
    """
    _check_sizes(lam, alpha)
    value = _peel([lam.parts], tuple(sorted(alpha.lengths)), signed=True).get(lam.parts, 0)
    return CharacterValue(value, Fraction(value, dim_hlf(lam)))


def character_table(n: int) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
    """Every irreducible character of S_n: {cycle type parts: {shape parts: value}}.

    Both key sets are the partitions of n in enumerate_partitions order,
    and every entry is stored, zeros included, so table[alpha][lam] never
    misses.  The cycle types are walked as a trie of non-increasing parts,
    depth first; each node holds the Schur expansion {shape: coefficient}
    of the product p_beta of its p_j, and a child adds every j-ribbon to
    every shape of its parent's vector.  The shapes are the node ids of
    young_lattice(n).

    Since omega(p_beta) = sgn(beta) p_beta and omega(s_mu) = s_mu', the
    coefficient of mu' is sgn(beta) times that of mu, with
    sgn(beta) = (-1)^(|beta| - len(beta)).  So a vector holds only the
    representatives, the shapes whose id is at most their conjugate's
    (mu >= mu' in that order).  A representative nu with coefficient c
    that reaches kappa by a j-ribbon of height h gives (-1)^h c to kappa
    if kappa is a representative; if nu is not self-conjugate, its
    conjugate, with coefficient sgn(beta) c, reaches kappa' by a ribbon of
    height j - 1 - h, so kappa' gets (-1)^(j-1-h) sgn(beta) c if it is a
    representative.  Both terms of nu and j are memoized as one (id, sign)
    list per sign of beta, for this call only.  A leaf writes c for each
    representative and sgn(alpha) c for its conjugate.
    """
    lattice = young_lattice(n)
    nodes, index, conjugate = lattice.parts, lattice.index, lattice.conjugate
    zeros = dict.fromkeys(nodes[lattice.start[n] :], 0)
    # additions[j][odd][nu]: the (id, sign) moves of nu by j-ribbons when sgn(beta) = (-1)^odd
    additions: list[list[list[list[tuple[int, int]] | None]]] = [
        [[None] * len(nodes), [None] * len(nodes)] for _ in range(n + 1)
    ]
    table = {}
    stack: list[tuple[tuple[int, ...], int, dict[int, int]]] = [((), 0, {0: 1})]
    while stack:
        alpha, size, vector = stack.pop()
        odd = (size - len(alpha)) & 1
        if size == n:
            column = table[alpha] = zeros.copy()
            for lam, coeff in vector.items():
                column[nodes[lam]] = coeff
                column[nodes[conjugate[lam]]] = -coeff if odd else coeff
            continue
        # pushed smallest j first, so the leaves come out in enumeration order
        for j in range(1, min(alpha[-1] if alpha else n, n - size) + 1):
            memo = additions[j][odd]
            child: dict[int, int] = {}
            for mu, coeff in vector.items():
                moves = memo[mu]
                if moves is None:
                    moves = memo[mu] = _half_moves(nodes, index, conjugate, mu, j, odd)
                for lam, sign in moves:
                    child[lam] = child.get(lam, 0) + sign * coeff
            stack.append((alpha + (j,), size + j, {lam: c for lam, c in child.items() if c}))
    return table


def _half_moves(nodes, index, conjugate, mu: int, j: int, odd: int) -> list[tuple[int, int]]:
    """The (id, sign) terms that representative mu sends to representatives by j-ribbons.

    odd is the parity of sgn(beta) for the parent's cycle type beta; the
    signs follow character_table's docstring.
    """
    moves = []
    mirrored = conjugate[mu] != mu
    for lam, height in _ribbon_moves(nodes[mu], j):
        kappa = index[lam]
        dual = conjugate[kappa]
        if kappa <= dual:
            moves.append((kappa, -1 if height & 1 else 1))
        if mirrored and dual <= kappa:
            moves.append((dual, -1 if (j - 1 - height + odd) & 1 else 1))
    return moves


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

    The sum of f^{lam/mu} chi^mu(sigma*) over every mu inside lam of
    size supp(alpha).  One peel of sigma* gives chi^mu(sigma*) for all
    those mu, finding the strips of each shape once, and only the
    nonzero values cost a skew dimension.  A cycle longer than lam's
    largest hook gives 0 at once: no mu inside lam has a hook, so a
    strip, that long.  Must agree with the direct peeling computation.
    """
    _check_sizes(lam, alpha)
    star = sigma_star(alpha)
    if star.lengths[0] > lam.max_hook:
        return CharacterValue(0, Fraction(0))
    mus = [mu.parts for mu in enumerate_subdiagrams(lam, star.n)]
    chis = _peel(mus, tuple(sorted(star.lengths)), signed=True)
    total = sum(chi * skew_dim_det(SkewShape(lam, Partition(mu))) for mu, chi in chis.items() if chi)
    return CharacterValue(total, Fraction(total, dim_hlf(lam)))


def diag_cycle_bound(lam: Partition, alpha: CycleType) -> int:
    """The bound 2^n * diagonal_length^cyc on absolute character values."""
    _check_sizes(lam, alpha)
    return 2**lam.n * lam.diagonal_length**alpha.cyc
