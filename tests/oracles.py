"""The test-only oracles of the writer and the max-constant fold.

record_json and result_json build the JSON document from the record
fields themselves and share no layout code with the emitter's
templates, so json.dumps(result_json(result), indent=2) checks the JSON
the program writes.  write_csv writes one table of records through the
emitter, for the tests that read it back with csv.  _max_record and
_max_constant fold a whole list at once, where a sweep folds batch by
batch.

tuple_closure is the excited-family closure over sorted box tuples
with a seen set, box by box through can_excite; the library walks
bitmasks level by level.  loop_bareiss_det is the fraction-free
elimination by index loops over a full copy of the matrix; the library
updates whole rows of a shrinking matrix.

full_character_table is the forwards Murnaghan-Nakayama trie over every
shape; the library's character_table keeps one shape per conjugate pair.
gram_rows is the orthogonality Gram matrix by class-weighted inner
products, where the library packs each column into one integer.
recursive_ribbon_chains is the ribbon tableau walk by recursion, one
level per weight entry; the library walks an explicit stack.
per_shape_branching is the branching rule with one Murnaghan-Nakayama
peel per subdiagram mu; the library peels every mu in one pass.
box_walk counts the saturated chains of a skew shape box by box down to
the empty remainder; the library's skew_dim_oracle takes the last box
as given.
"""

from collections import deque
from functools import reduce
from operator import mul

from hookchar.characters import _ribbon_moves, character_mn, sigma_star
from hookchar.dimensions import SkewShape, skew_dim_det
from hookchar.harness import SWEEPS, BoundRecord, SweepResult, _max_entry, _max_step
from hookchar.output import JSON_NAMES, _fill, _jsonable, _layout
from hookchar.partitions import enumerate_subdiagrams, young_lattice

_RECORDS = frozenset(sweep.record for sweep in SWEEPS.values())


def record_json(rec) -> dict:
    """A record as a JSON object, read from its own fields."""
    if type(rec) not in _RECORDS:
        raise TypeError(f"not a sweep record: {rec!r}")
    return {JSON_NAMES.get(name, name): _jsonable(value) for name, value in zip(rec._fields, rec)}


def result_json(result: SweepResult) -> dict:
    return {
        "command": result.command,
        "n": result.n,
        "sections": {
            name: [record_json(rec) for rec in records]
            for name, records in result.sections.items()
        },
        "summary": _jsonable(result.summary),
    }


def write_csv(records, stream, kind: type | None = None) -> None:
    """One table of records of one type; kind sets the header of an empty table."""
    if kind is None:
        kind = type(records[0]) if records else BoundRecord
    stream.write(_layout(kind, "csv").header)
    _fill((("", records),), kind, "csv", {"": stream.write})


def _max_record(records) -> BoundRecord | None:
    """The first record with the largest implied_constant**(1/exponent); None if every ratio is zero."""
    best = reduce(_max_step, records, None)
    return None if best is None else best[0]


def _max_constant(records) -> dict:
    """The summary entry of _max_record."""
    return _max_entry(_max_record(records))


def can_excite(parts: tuple[int, ...], occupied: set, u: tuple[int, int]) -> bool:
    """Whether box u of an occupied set admits an excitation move inside parts."""
    i, j = u
    # (i+1, j+1) in the shape implies the whole 2x2 corner is too
    if i >= len(parts) or parts[i] < j + 1:
        return False
    return (
        (i + 1, j) not in occupied
        and (i, j + 1) not in occupied
        and (i + 1, j + 1) not in occupied
    )


def tuple_closure(parts: tuple[int, ...], start: tuple) -> tuple[tuple, ...]:
    """All box tuples reachable from the sorted tuple start by excitation moves, sorted."""
    seen = {start}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        occupied = set(cur)
        for u in cur:
            if can_excite(parts, occupied, u):
                i, j = u
                nxt = tuple(sorted(occupied - {u} | {(i + 1, j + 1)}))
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return tuple(sorted(seen))


def loop_bareiss_det(mat: list[list[int]]) -> int:
    """Exact determinant of a non-empty integer matrix, fraction-free, entry by entry."""
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


def full_character_table(n: int) -> dict[tuple[int, ...], dict[tuple[int, ...], int]]:
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


def gram_rows(rows: list[list[int]], class_sizes: list[int]) -> list[list[int]]:
    """sum over k of class_sizes[k] * rows[i][k] * rows[j][k], for every pair of rows."""
    out = []
    for row in rows:
        weighted = list(map(mul, class_sizes, row))
        out.append([sum(map(mul, weighted, other)) for other in rows])
    return out


def recursive_ribbon_chains(parts: tuple[int, ...], weights: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """Every chain () = c_0 < ... < c_m = parts whose steps are ribbons of sizes weights, depth first."""

    def build(shape: tuple[int, ...], m: int):
        if m == 0:
            yield (shape,)
            return
        for smaller, _ in _ribbon_moves(shape, -weights[m - 1]):
            for prefix in build(smaller, m - 1):
                yield prefix + (shape,)

    return list(build(parts, len(weights)))


def per_shape_branching(lam, alpha) -> int:
    """chi^lam(alpha) as the sum of chi^mu(sigma*) f^{lam/mu}, one character_mn per mu."""
    star = sigma_star(alpha)
    total = 0
    for mu in enumerate_subdiagrams(lam, star.n):
        term = character_mn(mu, star).value
        if term:
            total += term * skew_dim_det(SkewShape(lam, mu))
    return total


def box_walk(shape: SkewShape) -> int:
    """f^{outer/inner} as the number of saturated chains, every box walked, the last one too."""
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

    return walk(shape.size)
