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

per_shape_compression is the compression sweep with one skew-dimension
table, one level row and one batch of arithmetic per shape, conjugate
or not, and a Fraction summary per (k, lam) batch; the library computes
each conjugate pair once and folds its summary in integers.

two_loop_excited_bounds is the excited-bounds sweep with two loops per
shape: the one-row shapes [ell] first, for the row and general records,
then every subdiagram for the skew_sum records, so S(lam, [ell]) is
computed twice, and with one skew-dimension table per shape, conjugate
or not; the library walks each shape's subdiagrams once and builds one
table per conjugate pair.  per_shape_thm_main, per_shape_thm_diag and
per_shape_skew_bound are those sweeps with every shape's records
computed from its own table values or skew-dimension table; the library
computes each conjugate pair once and replays the second member.

column_counts_by_sum is the conjugate's parts, one count per column;
the library's _column_counts walks the rows once, from the last up.
"""

from collections import deque
from fractions import Fraction
from functools import reduce
from math import factorial, perm
from operator import mul

from hookchar.characters import _ribbon_moves, character_mn, diag_cycle_bound, sigma_star
from hookchar.decompositions import CHAIN_CONSTANT_UPPER, E_UPPER, bound_S_general, bound_S_row
from hookchar.dimensions import SkewShape, dim_hlf, lattice_skew_dims, skew_dim_det
from hookchar.harness import (
    SWEEPS,
    _ZERO,
    BoundRecord,
    CompressionRecord,
    Rational,
    SweepResult,
    SweepStream,
    _by_rank,
    _classes,
    _max_entry,
    _max_step,
    _rational,
    _record,
    _reduced,
)
from hookchar.output import JSON_NAMES, _fill, _jsonable, _layout
from hookchar.partitions import (
    Partition,
    enumerate_subdiagrams,
    format_cycle_type,
    format_partition,
    young_lattice,
)

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


def column_counts_by_sum(parts: tuple[int, ...]) -> tuple[int, ...]:
    """The height of each column j of the shape: the number of parts at least j."""
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1)) if parts else ()


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


def _compression_level(lattice, k: int) -> list:
    """(node id, text, f^nu, Pl(nu), bound) for every nu of size k, each computed from nu itself."""
    kfact = factorial(k)
    rows = []
    for node in range(lattice.start[k], lattice.start[k + 1]):
        nu = Partition(lattice.parts[node])
        d_nu = dim_hlf(nu)
        bound = (Fraction(nu.max_hook**2, k) * E_UPPER) ** k
        rows.append((node, lattice.text[node], d_nu, _reduced(d_nu * d_nu, kfact), _rational(bound)))
    return rows


def _compression_batch(lam: Partition, k: int, dims: dict[int, int], level: list):
    """One (k, lam) batch of compression records and its summary of Fractions."""
    d_lam = dim_hlf(lam)
    kfact = factorial(k)
    records = []
    p_num = 0
    tv_num = 0
    dev_num, dev_den = 0, 1
    all_ok = True
    lam_text = format_partition(lam)
    for nu, nu_text, d_nu, pl, bound in level:
        skew = dims.get(nu)
        if skew is not None:
            p_raw = d_nu * skew
            p = _reduced(p_raw, d_lam)
            a = _reduced(kfact * skew, d_lam * d_nu)
            a_num, a_den = a
            ok = a_num * bound.denominator <= bound.numerator * a_den
            p_num += p_raw
            tv_num += abs(p_raw * kfact - d_nu * d_nu * d_lam)
            dev = abs(a_num - a_den)
            if dev * dev_den > dev_num * a_den:
                dev_num, dev_den = dev, a_den
            all_ok = all_ok and ok
            records.append(CompressionRecord(lam_text, nu_text, k, p, pl, a, bound, True, ok))
        else:
            tv_num += d_nu * d_nu * d_lam
            records.append(CompressionRecord(lam_text, nu_text, k, _ZERO, pl, _ZERO, bound, False, True))
    p_total = Fraction(p_num, d_lam)
    summary = {
        "p_total": p_total,
        "tv": Fraction(tv_num, 2 * d_lam * kfact),
        "max_a_dev": Fraction(dev_num, dev_den),
        "all_bounded": all_ok,
        "p_total_ok": p_total == 1,
    }
    return records, summary


def per_shape_compression(max_n: int) -> SweepStream:
    """The compression sweep with every (k, lam) batch computed from lam's own skew-dimension table."""

    def body(stream: SweepStream):
        lattice = young_lattice(max_n)
        rank = lattice.rank
        levels = [
            sorted(_compression_level(lattice, k), key=lambda row: rank[row[0]]) for k in range(1, max_n + 1)
        ]
        shapes = _by_rank(lattice, 1, max_n)
        tables = [lattice_skew_dims(lattice, top) for top, _ in shapes]
        bad_totals = 0
        bad_bounds = 0
        max_tv = Fraction(0)
        for k, level in enumerate(levels, start=1):
            for (_, lam), dims in zip(shapes, tables):
                if lam.n < k:
                    continue
                records, stats = _compression_batch(lam, k, dims, level)
                yield "records", records
                bad_totals += 0 if stats["p_total_ok"] else 1
                bad_bounds += 0 if stats["all_bounded"] else 1
                max_tv = max(max_tv, stats["tv"])
        plancherel_ok = all(sum(Fraction(*pl) for _, _, _, pl, _ in level) == 1 for level in levels)
        stream.violations += bad_totals
        return {
            "levels_with_bad_total": bad_totals, "shapes_with_bad_bound": bad_bounds,
            "max_tv": max_tv, "plancherel_normalized": plancherel_ok,
        }

    return SweepStream("compression", max_n, ("records",), body, ("records",))


def _excited_value(falling: int, skew: int, d: int, lam_text: str, mu_text: str) -> int:
    """S(lam, mu) = n!/(n-k)! * f^{lam/mu} / f^lam, the Naruse hook-length formula."""
    value, rem = divmod(falling * skew, d)
    if rem:
        raise ArithmeticError(f"non-integral excited sum for {lam_text}/{mu_text}")
    return value


def two_loop_excited_bounds(n: int) -> SweepStream:
    """The excited-bounds sweep with a one-row loop and a subdiagram loop per shape."""
    chain_sq = CHAIN_CONSTANT_UPPER * CHAIN_CONSTANT_UPPER

    def body(stream: SweepStream):
        falling = [perm(n, k) for k in range(n + 1)]
        lattice = young_lattice(n)
        text, size, rank = lattice.text, lattice.size, lattice.rank
        one_rows = sorted((lattice.index[(ell,)] for ell in range(1, n + 1)), key=rank.__getitem__)
        for top, lam in _by_rank(lattice, n, n):
            s = lam.max_hook
            lam_text = text[top]
            dims = lattice_skew_dims(lattice, top)
            d = dims.pop(0)
            rows, edge, general = [], [], []
            for row in one_rows:
                ell = size[row]
                if ell > lam.part(1):
                    continue
                excited = _excited_value(falling[ell], dims[row], d, lam_text, text[row])
                value = Rational(excited, 1)
                row_rec = _record(n, lam_text, text[row], value, _rational(bound_S_row(lam, ell)), ell)
                (edge if ell * s > n and n // s < 2 else rows).append(row_rec)
                for a in sorted({s, n}, key=str):
                    bound = Rational(bound_S_general(lam, a, ell), 1)
                    general.append(_record(n, lam_text, f"{text[row]} a={a}", value, bound, ell))
            yield "records", rows
            yield "rows_edge", edge
            yield "general", general
            skew_sum = []
            for mu in sorted(dims, key=rank.__getitem__):
                k = size[mu]
                excited = _excited_value(falling[k], dims[mu], d, lam_text, text[mu])
                rhs = _rational((chain_sq * max(Fraction(s * s), Fraction(n * n, k))) ** k)
                skew_sum.append(_record(n, lam_text, text[mu], Rational(excited * excited, 1), rhs, 2 * k))
            yield "skew_sum", skew_sum
        return {
            "edge_regime": stream.count["rows_edge"],
            "edge_satisfied": stream.satisfied("rows_edge"),
            "max_constant": stream.max_constant(),
        }

    return SweepStream(
        "excited-bounds", n, ("records", "rows_edge", "general", "skew_sum"), body,
        ("records", "general", "skew_sum"), "skew_sum",
    )


def per_shape_thm_main(n: int, balanced: Fraction | None = None) -> SweepStream:
    """The thm-main sweep with every shape's records computed from its own table values."""

    def rhs2(w: int, s: int, supp: int) -> Rational:
        rhs = Fraction(1, w) ** w
        if balanced is None:
            rhs *= max(Fraction(1), Fraction(s * s * w, n * n)) ** supp
        return _rational(rhs)

    def body(stream: SweepStream):
        shapes = _classes(n)
        lams = [shape for shape in shapes if balanced is None or shape[2].max_hook ** 2 <= balanced**2 * n]
        for _, lam_text, lam, _, _ in lams:
            s = lam.max_hook
            d = dim_hlf(lam)
            batch = []
            for _, _, _, column, alpha in shapes:
                if alpha.is_identity():
                    continue
                lhs2 = _rational(Fraction(column[lam.parts], d) ** 2)
                w = alpha.word_length
                batch.append(_record(n, lam_text, format_cycle_type(alpha), lhs2, rhs2(w, s, alpha.supp), 2 * w))
            yield "records", batch
        return {
            "satisfied_at_c1": stream.satisfied("records"),
            "max_constant": stream.max_constant(),
            "balanced": None if balanced is None else str(balanced),
            "shapes": len(lams),
        }

    return SweepStream("thm-main", n, ("records",), body, max_section="records")


def per_shape_thm_diag(n: int) -> SweepStream:
    """The thm-diag sweep with every shape's records computed from its own table values."""

    def body(stream: SweepStream):
        shapes = _classes(n)
        for _, lam_text, lam, _, _ in shapes:
            batch = []
            for _, _, _, column, alpha in shapes:
                value = Rational(abs(column[lam.parts]), 1)
                bound = Rational(diag_cycle_bound(lam, alpha), 1)
                batch.append(_record(n, lam_text, format_cycle_type(alpha), value, bound, 1))
            yield "records", batch
        return {"max_constant": stream.max_constant()}

    return SweepStream("thm-diag", n, ("records",), body, ("records",), "records")


def per_shape_skew_bound(n: int) -> SweepStream:
    """The skew-bound sweep with one skew-dimension table per shape, conjugate or not."""

    def body(stream: SweepStream):
        lattice = young_lattice(n)
        text, size, rank = lattice.text, lattice.size, lattice.rank
        for top, lam in _by_rank(lattice, n, n):
            s = lam.max_hook
            dims = lattice_skew_dims(lattice, top)
            d = dims.pop(0)
            batch = []
            for mu in sorted(dims, key=rank.__getitem__):
                k = size[mu]
                ratio2 = _rational(Fraction(dims[mu], d) ** 2)
                rhs = _rational(max(Fraction(1, k), Fraction(s * s, n * n)) ** k)
                batch.append(_record(n, text[top], text[mu], ratio2, rhs, 2 * k))
            yield "records", batch
        return {"satisfied_at_c1": stream.satisfied("records"), "max_constant": stream.max_constant()}

    return SweepStream("skew-bound", n, ("records",), body, max_section="records")
