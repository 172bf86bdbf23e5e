"""Exhaustive desk-scale verification sweeps over partitions.

Each sweep instantiates one of the character or excited-sum bounds on
every instance up to a size budget and emits typed records.  Checks
that the underlying statements make with no free constant are hard
assertions (a violation is a failure); checks of bounds that hold up
to an unspecified constant record the per-instance implied constant
and report the maximum instead.

Square roots never appear at runtime: root-bearing comparisons are
squared, so records of those sweeps carry squared lhs/rhs values and
an exponent field of 2|sigma| or 2k.  The implied constant column is
always the exact ratio lhs/rhs of the stored values; the per-instance
constant is its exponent-th root, compared across records by
cross-powering.

Records are NamedTuples, so they compare as tuples and rec._asdict()
names their fields.  Every rational field of a record is a Rational: a
coprime integer pair with a positive denominator, built from integers in
the sweep loops, so no Fraction is made per record.  Fraction(*rec.lhs)
gives the Fraction.  Summaries keep Fraction values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from math import exp, factorial, gcd, isqrt, log, perm
from operator import attrgetter, mul
from typing import NamedTuple

from .characters import character_table, diag_cycle_bound
from .decompositions import (
    CHAIN_CONSTANT_UPPER,
    E_UPPER,
    TWO_E_UPPER,
    bound_S_general,
    bound_S_row,
)
from .dimensions import SkewShape, dim_hlf, skew_dim_det, skew_dims
from .excited import excited_count, hook_product
from .partitions import (
    CycleType,
    Partition,
    enumerate_partitions,
    falling_factorial,
    format_cycle_type,
    format_partition,
    format_parts,
)


class Rational(NamedTuple):
    """An exact rational as a coprime pair with a positive denominator."""

    numerator: int
    denominator: int


def _reduced(num: int, den: int) -> Rational:
    """num/den in lowest terms, for den > 0."""
    g = gcd(num, den)
    return Rational(num // g, den // g)


def _rational(value: Fraction | int) -> Rational:
    return Rational(value.numerator, value.denominator)


class BoundRecord(NamedTuple):
    """One instantiated inequality; lhs, rhs, and their exact ratio."""

    n: int
    lam: str
    alpha_or_mu: str
    lhs: Rational
    rhs: Rational
    implied_constant: Rational
    exponent: int
    satisfied: bool


class CompressionRecord(NamedTuple):
    """Restriction measure P, Plancherel measure Pl, and their ratio A."""

    lam: str
    mu: str
    k: int
    p: Rational
    pl: Rational
    a: Rational
    bound: Rational
    contained: bool
    satisfied: bool


class SharpnessRecord(NamedTuple):
    """Rectangle lower-bound instance; case 2 is reported, not asserted."""

    s_tilde: int
    h: int
    k: int
    case: int
    lam: str
    mu: str
    ratio: Rational
    rhs: Rational
    satisfied: bool | None


@dataclass
class SweepResult:
    command: str
    n: int
    sections: dict[str, list]
    summary: dict

    @property
    def records(self) -> list:
        return self.sections["records"]

    @property
    def violations(self) -> int:
        return self.summary["violations"]


class Sweep(NamedTuple):
    """A verification sweep: its function in this module, size cap, record type."""

    function: str
    budget: int
    record: type


# Every sweep is called as function(n, budget=None).
SWEEPS = {
    "orthogonality": Sweep("verify_orthogonality", 15, BoundRecord),
    "thm-main": Sweep("sweep_thm_main", 15, BoundRecord),
    "thm-diag": Sweep("sweep_thm_diag", 15, BoundRecord),
    "skew-bound": Sweep("sweep_skew_bound", 15, BoundRecord),
    "excited-bounds": Sweep("sweep_excited_bounds", 15, BoundRecord),
    "sharpness": Sweep("sweep_sharpness", 30, SharpnessRecord),
    "compression": Sweep("sweep_compression", 12, CompressionRecord),
}


def _record(n: int, lam: str, other: str, lhs: Rational, rhs: Rational, exponent: int) -> BoundRecord:
    """One bound record, for rhs > 0; the ratio lhs/rhs is reduced as Fraction divides.

    Both pairs are coprime, so once gcd(ln, rn) and gcd(rd, ld) are divided
    out the cross products ln*rd and ld*rn are coprime too.
    """
    ln, ld = lhs
    rn, rd = rhs
    g1 = gcd(ln, rn)
    g2 = gcd(rd, ld)
    qn = (ln // g1) * (rd // g2)
    qd = (ld // g2) * (rn // g1)
    return BoundRecord(n, lam, other, lhs, rhs, Rational(qn, qd), exponent, qn <= qd)


def root_greater(r1: Rational | Fraction, e1: int, r2: Rational | Fraction, e2: int) -> bool:
    """Exact comparison r1**(1/e1) > r2**(1/e2) for non-negative ratios.

    Both sides are raised to the least common multiple of the exponents,
    so the powers taken are e2/g and e1/g with g = gcd(e1, e2), and the
    powers are compared by cross-multiplying.
    """
    g = gcd(e1, e2)
    p1, p2 = e2 // g, e1 // g
    return r1.numerator**p1 * r2.denominator**p2 > r2.numerator**p2 * r1.denominator**p1


def root_approx(ratio: Rational | Fraction, exponent: int) -> float:
    """Float estimate of ratio**(1/exponent), display only."""
    if ratio.numerator == 0:
        return 0.0
    return exp((log(ratio.numerator) - log(ratio.denominator)) / exponent)


def _max_record(records) -> BoundRecord | None:
    """The first record with the largest implied_constant**(1/exponent), exactly.

    Ratios are non-negative and zeros are skipped; None if every ratio is
    zero.  A float estimate of each root's logarithm screens out a record
    clearly below the best so far, by more than any rounding of that
    estimate; every other record is compared exactly by root_greater, so
    a tie goes to the first.
    """
    best = None
    best_key = 0.0
    for rec in records:
        ratio = rec.implied_constant
        num, den = ratio
        if num == 0:
            continue
        key = (log(num) - log(den)) / rec.exponent
        if best is not None and key < best_key - 1e-9 * (1 + abs(best_key)):
            continue
        if best is None or root_greater(ratio, rec.exponent, best.implied_constant, best.exponent):
            best = rec
            best_key = key
    return best


def _max_constant(records) -> dict:
    """The summary entry of _max_record: its ratio as a Fraction, exponent and root."""
    best = _max_record(records)
    if best is None:
        return {"ratio": Fraction(0), "exponent": 1, "approx": 0.0}
    ratio = Fraction(*best.implied_constant)
    return {"ratio": ratio, "exponent": best.exponent, "approx": root_approx(ratio, best.exponent)}


def _check_budget(name: str, n: int, budget: int | None) -> None:
    cap = SWEEPS[name].budget if budget is None else budget
    if n > cap:
        raise ValueError(f"n={n} exceeds the {name} budget {cap}")
    if n < 0:
        raise ValueError(f"n={n} is negative")


# Each record type's output order: every section of a result is sorted by it.
_ORDER = {
    BoundRecord: attrgetter("n", "lam", "alpha_or_mu"),
    CompressionRecord: attrgetter("k", "lam", "mu"),
    SharpnessRecord: lambda rec: (rec.s_tilde * rec.h, rec.h, rec.k),
}


def _result(
    command: str, n: int, sections: dict[str, list],
    asserted: tuple[str, ...] = (), **extra,
) -> SweepResult:
    """Sort every section; summarize as records, violations, hard, then extra.

    Each section is sorted by the order of the command's record type.  The
    sweep is hard when it asserts some of its sections, and violations
    counts the unsatisfied records of those.  The extra entries follow in
    the order given.  A max_constant entry names the section it is taken
    over; it is taken after sorting, so a tie goes to the first record.
    """
    order = _ORDER[SWEEPS[command].record]
    for records in sections.values():
        records.sort(key=order)
    if "max_constant" in extra:
        extra["max_constant"] = _max_constant(sections[extra["max_constant"]])
    summary = {
        "records": sum(map(len, sections.values())),
        "violations": sum(not rec.satisfied for name in asserted for rec in sections[name]),
        "hard": bool(asserted),
        **extra,
    }
    return SweepResult(command, n, sections, summary)


# ---------------------------------------------------------------- characters


def verify_orthogonality(n: int, budget: int | None = None) -> SweepResult:
    """Check the first orthogonality relation for all pairs of shapes.

    The rows are read from one character_table(n); the pairs are
    class-weighted inner products of rows, each row weighted by the
    class sizes once.  The implied-constant column holds the absolute
    deviation from the expected value, zero on success.
    """
    _check_budget("orthogonality", n, budget)
    shapes = list(enumerate_partitions(n))
    labels = [format_partition(p) for p in shapes]
    class_sizes = [CycleType(p.parts).class_size() for p in shapes]
    columns = character_table(n).values()
    rows = [[column[lam.parts] for column in columns] for lam in shapes]
    records = []
    for i, (lam, row) in enumerate(zip(labels, rows)):
        weighted = list(map(mul, class_sizes, row))
        for j, (mu, other) in enumerate(zip(labels, rows)):
            total = sum(map(mul, weighted, other))
            expected = factorial(n) if i == j else 0
            records.append(
                BoundRecord(
                    n,
                    lam,
                    mu,
                    Rational(total, 1),
                    Rational(expected, 1),
                    Rational(abs(total - expected), 1),
                    1,
                    total == expected,
                )
            )
    return _result(
        "orthogonality", n, {"records": records}, ("records",), pairs=len(shapes) ** 2
    )


def sweep_thm_main(
    n: int,
    budget: int | None = None,
    *,
    balanced: Fraction | None = None,
) -> SweepResult:
    """Character bound sweep over all shapes and non-identity classes.

    Records carry squared values: lhs = normalized character squared,
    rhs = (1/|sigma|)^|sigma| * max(1, s^2 |sigma| / n^2)^supp, and the
    per-instance constant is implied_constant**(1/(2|sigma|)).  With
    balanced=C the sweep restricts to shapes with s(lam) <= C*sqrt(n)
    and drops the max factor from the rhs.  Every value is read from one
    character_table(n).
    """
    _check_budget("thm-main", n, budget)
    if balanced is not None and balanced <= 0:
        raise ValueError(f"balanced bound must be positive, got {balanced}")
    bal = None if balanced is None else Fraction(balanced)
    partitions = list(enumerate_partitions(n))
    lams = [p for p in partitions if bal is None or p.max_hook**2 <= bal * bal * n]
    classes = [CycleType(p.parts) for p in partitions]
    classes = [
        (alpha.lengths, format_cycle_type(alpha), alpha.word_length, alpha.supp)
        for alpha in classes
        if not alpha.is_identity()
    ]

    @cache
    def rhs2(w: int, s: int, supp: int) -> Rational:
        rhs = Fraction(1, w) ** w
        if bal is None:
            rhs *= max(Fraction(1), Fraction(s * s * w, n * n)) ** supp
        return _rational(rhs)

    table = character_table(n)
    records = []
    for lam in lams:
        s = lam.max_hook
        d = dim_hlf(lam)
        parts = lam.parts
        lam_text = format_partition(lam)
        for lengths, alpha_text, w, supp in classes:
            # lhs = value^2 / d^2, reduced by one gcd
            value = table[lengths][parts]
            g = gcd(value, d)
            v, e = value // g, d // g
            lhs2 = Rational(v * v, e * e)
            records.append(_record(n, lam_text, alpha_text, lhs2, rhs2(w, s, supp), 2 * w))
    return _result(
        "thm-main", n, {"records": records},
        satisfied_at_c1=sum(1 for r in records if r.satisfied), max_constant="records",
        balanced=None if bal is None else str(bal), shapes=len(lams),
    )


def sweep_thm_diag(n: int, budget: int | None = None) -> SweepResult:
    """Hard sweep of |ch| <= 2^n * delta^cyc over all shapes and classes.

    Every value is read from one character_table(n).
    """
    _check_budget("thm-diag", n, budget)
    lams = list(enumerate_partitions(n))
    classes = [CycleType(p.parts) for p in lams]
    classes = [(alpha, format_cycle_type(alpha)) for alpha in classes]
    table = character_table(n)
    records = []
    for lam in lams:
        lam_text = format_partition(lam)
        for alpha, alpha_text in classes:
            value = abs(table[alpha.lengths][lam.parts])
            bound = diag_cycle_bound(lam, alpha)
            records.append(
                _record(n, lam_text, alpha_text, Rational(value, 1), Rational(bound, 1), 1)
            )
    return _result(
        "thm-diag", n, {"records": records}, ("records",), max_constant="records"
    )


# ------------------------------------------------------------- skew measures


def sweep_skew_bound(n: int, budget: int | None = None) -> SweepResult:
    """Skew-dimension ratio against max(1/sqrt(k), s/n)^k, squared records.

    The ratio f^{lam/mu}/f^lam of every mu inside lam is read from one
    skew_dims table per lam; the rhs depends on (s, k) only.
    """
    _check_budget("skew-bound", n, budget)

    @cache
    def rhs2(s: int, k: int) -> Rational:
        return _rational(max(Fraction(1, k), Fraction(s * s, n * n)) ** k)

    mu_text = cache(format_parts)  # one text per subdiagram, shared by its records
    records = []
    for lam in enumerate_partitions(n):
        s = lam.max_hook
        lam_text = format_partition(lam)
        dims = skew_dims(lam)
        d = dims[()]
        for mu, skew in dims.items():
            k = sum(mu)
            if k == 0:
                continue
            g = gcd(skew, d)
            f, e = skew // g, d // g
            ratio2 = Rational(f * f, e * e)
            records.append(_record(n, lam_text, mu_text(mu), ratio2, rhs2(s, k), 2 * k))
    return _result(
        "skew-bound", n, {"records": records},
        satisfied_at_c1=sum(1 for r in records if r.satisfied), max_constant="records",
    )


def _excited_value(falling: int, skew: int, d: int, lam_text: str, mu: tuple[int, ...]) -> int:
    """S(lam, mu) = n!/(n-k)! * f^{lam/mu} / f^lam, the Naruse hook-length formula."""
    value, rem = divmod(falling * skew, d)
    if rem:
        raise ArithmeticError(f"non-integral excited sum for {lam_text}/{format_parts(mu)}")
    return value


def sweep_excited_bounds(n: int, budget: int | None = None) -> SweepResult:
    """Hard sweep of the closed-form excited-sum bounds.

    Sections: "records" for the row bound (8n/ell or 4e^2 s cases),
    "rows_edge" for the separately reported s > n/2 case-(b) regime,
    "general" for the thick-hook binomial bound at a in {s, n}, and
    "skew_sum" for the squared chain bound (8e^3 max(n/sqrt k, s))^k
    over every contained shape.  Every excited sum S(lam, mu) comes from
    f^{lam/mu} in one skew_dims table per lam, not from the excited
    family.  The rhs of a skew_sum record depends on (s, k) only, of a
    row record on (s, ell), and of a general record on (a, ell); each is
    built once per key.
    """
    _check_budget("excited-bounds", n, budget)
    rows: list[BoundRecord] = []
    edge: list[BoundRecord] = []
    general: list[BoundRecord] = []
    skew_sum: list[BoundRecord] = []
    chain_sq = CHAIN_CONSTANT_UPPER * CHAIN_CONSTANT_UPPER
    falling = [perm(n, k) for k in range(n + 1)]

    @cache
    def rhs2(s: int, k: int) -> Rational:
        return _rational((chain_sq * max(Fraction(s * s), Fraction(n * n, k))) ** k)

    # bound_S_row(lam, ell) by (s, ell) and bound_S_general(lam, a, ell) by
    # (a, ell), each built at the first lam with that key
    row_bounds: dict[tuple[int, int], Rational] = {}
    general_bounds: dict[tuple[int, int], Rational] = {}
    mu_text = cache(format_parts)  # one text per subdiagram, shared by its records
    for lam in enumerate_partitions(n):
        s = lam.max_hook
        lam_text = format_partition(lam)
        dims = skew_dims(lam)
        d = dims[()]
        a_values = sorted({s, n})
        for ell in range(1, lam.part(1) + 1):
            excited = _excited_value(falling[ell], dims[(ell,)], d, lam_text, (ell,))
            value = Rational(excited, 1)
            if (s, ell) not in row_bounds:
                row_bounds[s, ell] = _rational(bound_S_row(lam, ell))
            row_rec = _record(n, lam_text, f"[{ell}]", value, row_bounds[s, ell], ell)
            # case (b) relies on floor(n/a) >= 2 at a = s, absent when s > n/2
            if ell * s > n and n // s < 2:
                edge.append(row_rec)
            else:
                rows.append(row_rec)
            for a in a_values:
                if (a, ell) not in general_bounds:
                    general_bounds[a, ell] = Rational(bound_S_general(lam, a, ell), 1)
                general.append(
                    _record(n, lam_text, f"[{ell}] a={a}", value, general_bounds[a, ell], ell)
                )
        for mu, skew in dims.items():
            k = sum(mu)
            if k == 0:
                continue
            excited = _excited_value(falling[k], skew, d, lam_text, mu)
            value2 = Rational(excited * excited, 1)
            skew_sum.append(_record(n, lam_text, mu_text(mu), value2, rhs2(s, k), 2 * k))
    sections = {"records": rows, "rows_edge": edge, "general": general, "skew_sum": skew_sum}
    return _result(
        "excited-bounds", n, sections, ("records", "general", "skew_sum"),
        edge_regime=len(edge), edge_satisfied=sum(1 for rec in edge if rec.satisfied),
        max_constant="skew_sum",
    )


# ----------------------------------------------------------------- sharpness


def sharpness_rectangles(s_tilde: int, h: int, k: int) -> SharpnessRecord:
    """Lower-bound instance on the rectangle with s_tilde columns, h rows.

    Case 2 applies when k is a perfect square m^2 strictly below h^2
    (so m < h): mu = [m^m] and the product ratio * m^k is reported
    without assertion.  Every other k divisible by h takes case 1:
    mu is the full-height rectangle [l^h], the excited family is the
    single unexcited diagram, and the exact ratio is asserted against
    (2e)^(-k) (s/n)^k with e upper-rounded.
    """
    if s_tilde < 1 or h < 1:
        raise ValueError("rectangle sides must be positive")
    if s_tilde < h:
        raise ValueError(f"wide rectangles only: s_tilde={s_tilde} < h={h}")
    n = s_tilde * h
    if not 1 <= k <= n:
        raise ValueError(f"k={k} not within 1..{n}")
    lam = Partition((s_tilde,) * h)
    s = lam.max_hook
    m = isqrt(k)
    if m * m == k and k < h * h and m <= min(h, s_tilde):
        mu = Partition((m,) * m)
        ratio = Fraction(skew_dim_det(SkewShape(lam, mu)), dim_hlf(lam))
        return SharpnessRecord(
            s_tilde, h, k, 2,
            format_partition(lam), format_partition(mu),
            _rational(ratio), _rational(ratio * Fraction(m) ** k), None,
        )
    if k % h != 0 or k // h > s_tilde:
        raise ValueError(f"k={k} is neither a square below h^2 nor h-divisible")
    ell = k // h
    mu = Partition((ell,) * h)
    if excited_count(lam, mu) != 1:
        raise ArithmeticError(f"family of {mu} in {lam} is not a singleton")
    ratio = Fraction(hook_product(lam, mu.boxes()), falling_factorial(n, k))
    if ratio != Fraction(skew_dim_det(SkewShape(lam, mu)), dim_hlf(lam)):
        raise ArithmeticError(f"ratio mismatch for {lam}/{mu}")
    rhs = Fraction(s, n) ** k / TWO_E_UPPER**k
    return SharpnessRecord(
        s_tilde, h, k, 1,
        format_partition(lam), format_partition(mu),
        _rational(ratio), _rational(rhs), ratio >= rhs,
    )


def sweep_sharpness(max_n: int = 30, budget: int | None = None) -> SweepResult:
    """All rectangle instances with n <= max_n, case 1 asserted, in (n, h, k) order."""
    _check_budget("sharpness", max_n, budget)
    case1: list[SharpnessRecord] = []
    case2: list[SharpnessRecord] = []
    for n in range(1, max_n + 1):
        for h in range(1, isqrt(n) + 1):
            if n % h:
                continue
            s_tilde = n // h
            sizes = {ell * h for ell in range(1, s_tilde + 1)}
            sizes.update(m * m for m in range(1, h + 1) if m * m <= n)
            for k in sorted(sizes):
                rec = sharpness_rectangles(s_tilde, h, k)
                (case1 if rec.case == 1 else case2).append(rec)
    return _result(
        "sharpness", max_n, {"records": case1, "case2": case2}, ("records",),
        case1=len(case1), case2=len(case2),
    )


# --------------------------------------------------------------- compression


# One row per nu of size k: (the parts of nu, its text, f^nu,
# Pl(nu) = f^nu^2 / k!, the bound (s(nu)^2 e / k)^k); none of it depends on lam.
_LevelRow = tuple[tuple[int, ...], str, int, Rational, Rational]
_ZERO = Rational(0, 1)


@lru_cache(maxsize=64)
def _level(k: int) -> tuple[_LevelRow, ...]:
    """The lam-independent part of every compression record at level k."""
    kfact = factorial(k)
    rows = []
    for nu in enumerate_partitions(k):
        d_nu = dim_hlf(nu)
        bound = (Fraction(nu.max_hook**2, k) * E_UPPER) ** k
        rows.append(
            (nu.parts, format_partition(nu), d_nu, _reduced(d_nu * d_nu, kfact), _rational(bound))
        )
    return tuple(rows)


def compression_stats(lam: Partition, k: int):
    """Per-shape restriction vs Plancherel comparison at level k.

    Returns (records, summary); summary carries the exact probability
    total, the total-variation distance with the mass of shapes outside
    lam counted fully, the maximum |A - 1| over contained shapes, and
    whether every contained shape satisfies A <= (s(mu)^2 e / k)^k.
    """
    if not 1 <= k <= lam.n:
        raise ValueError(f"k={k} not within 1..{lam.n}")
    return _compression_stats(lam, k, skew_dims(lam))


def _compression_stats(lam: Partition, k: int, dims: dict[tuple[int, ...], int]):
    """compression_stats at level k, with f^{lam/nu} read from skew_dims(lam)."""
    d_lam = dim_hlf(lam)
    kfact = factorial(k)
    records: list[CompressionRecord] = []
    # The sums stay integers until the end: the total of p over d_lam, and
    # the sum of |p - pl| over d_lam k!, where |p - pl| = pl outside lam.
    # The largest |a - 1| is kept as the pair dev_num/dev_den.
    p_num = 0
    tv_num = 0
    dev_num, dev_den = 0, 1
    all_ok = True
    lam_text = format_partition(lam)
    for nu, nu_text, d_nu, pl, bound in _level(k):
        skew = dims.get(nu)
        if skew is not None:
            p_raw = d_nu * skew
            p = _reduced(p_raw, d_lam)
            a = _reduced(kfact * skew, d_lam * d_nu)  # p / pl
            a_num, a_den = a
            ok = a_num * bound.denominator <= bound.numerator * a_den
            p_num += p_raw
            tv_num += abs(p_raw * kfact - d_nu * d_nu * d_lam)
            dev = abs(a_num - a_den)  # |a - 1| = dev / a_den
            if dev * dev_den > dev_num * a_den:
                dev_num, dev_den = dev, a_den
            all_ok = all_ok and ok
            records.append(CompressionRecord(lam_text, nu_text, k, p, pl, a, bound, True, ok))
        else:
            tv_num += d_nu * d_nu * d_lam
            records.append(
                CompressionRecord(lam_text, nu_text, k, _ZERO, pl, _ZERO, bound, False, True)
            )
    p_total = Fraction(p_num, d_lam)
    summary = {
        "p_total": p_total,
        "tv": Fraction(tv_num, 2 * d_lam * kfact),
        "max_a_dev": Fraction(dev_num, dev_den),
        "all_bounded": all_ok,
        "p_total_ok": p_total == 1,
    }
    return records, summary


def sweep_compression(max_n: int, budget: int | None = None) -> SweepResult:
    """Hard sweep of the compression ratio bound for all shapes, all k.

    One skew_dims table per lam gives f^{lam/nu} at every level k; a
    shape nu outside lam is one the table has no key for.
    """
    _check_budget("compression", max_n, budget)
    records: list[CompressionRecord] = []
    bad_totals = 0
    bad_bounds = 0
    max_tv = Fraction(0)
    for n in range(1, max_n + 1):
        for lam in enumerate_partitions(n):
            dims = skew_dims(lam)
            for k in range(1, n + 1):
                recs, stats = _compression_stats(lam, k, dims)
                records.extend(recs)
                bad_totals += 0 if stats["p_total_ok"] else 1
                bad_bounds += 0 if stats["all_bounded"] else 1
                max_tv = max(max_tv, stats["tv"])
    plancherel_ok = all(
        sum(Fraction(*pl) for _, _, _, pl, _ in _level(k)) == 1 for k in range(1, max_n + 1)
    )
    result = _result(
        "compression", max_n, {"records": records}, ("records",),
        levels_with_bad_total=bad_totals, shapes_with_bad_bound=bad_bounds,
        max_tv=max_tv, plancherel_normalized=plancherel_ok,
    )
    result.summary["violations"] += bad_totals  # a level whose P does not total 1
    return result
