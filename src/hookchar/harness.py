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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from math import exp, factorial, gcd, isqrt, log, perm
from operator import mul
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

@dataclass(frozen=True)
class BoundRecord:
    """One instantiated inequality; lhs, rhs, and their exact ratio."""

    n: int
    lam: str
    alpha_or_mu: str
    lhs: Fraction
    rhs: Fraction
    implied_constant: Fraction
    exponent: int
    satisfied: bool


@dataclass(frozen=True)
class CompressionRecord:
    """Restriction measure P, Plancherel measure Pl, and their ratio A."""

    lam: str
    mu: str
    k: int
    p: Fraction
    pl: Fraction
    a: Fraction
    bound: Fraction
    contained: bool
    satisfied: bool


@dataclass(frozen=True)
class SharpnessRecord:
    """Rectangle lower-bound instance; case 2 is reported, not asserted."""

    s_tilde: int
    h: int
    k: int
    case: int
    lam: str
    mu: str
    ratio: Fraction
    rhs: Fraction
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
        return self.summary.get("violations", 0)


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


def _record(n: int, lam: str, other: str, lhs: Fraction, rhs: Fraction, exponent: int) -> BoundRecord:
    """One bound record; rhs > 0, so lhs <= rhs reads off the reduced ratio."""
    ratio = lhs / rhs
    return BoundRecord(n, lam, other, lhs, rhs, ratio, exponent, ratio.numerator <= ratio.denominator)


def root_greater(r1: Fraction, e1: int, r2: Fraction, e2: int) -> bool:
    """Exact comparison r1**(1/e1) > r2**(1/e2) for non-negative ratios.

    Both sides are raised to the least common multiple of the exponents,
    so the powers taken are e2/g and e1/g with g = gcd(e1, e2).
    """
    g = gcd(e1, e2)
    return r1 ** (e2 // g) > r2 ** (e1 // g)


def root_approx(ratio: Fraction, exponent: int) -> float:
    """Float estimate of ratio**(1/exponent), display only."""
    if ratio == 0:
        return 0.0
    return exp((log(ratio.numerator) - log(ratio.denominator)) / exponent)


def _max_constant(records) -> dict:
    """The record with the largest implied_constant**(1/exponent), exactly.

    Ratios are non-negative and zeros are skipped.  A float estimate of
    each root's logarithm screens out a record clearly below the best so
    far, by more than any rounding of that estimate; every other record
    is compared exactly by root_greater, so a tie goes to the first.
    """
    best: tuple[Fraction, int] | None = None
    best_key = 0.0
    for rec in records:
        ratio, exponent = rec.implied_constant, rec.exponent
        num = ratio.numerator
        if num == 0:
            continue
        key = (log(num) - log(ratio.denominator)) / exponent
        if best is not None and key < best_key - 1e-9 * (1 + abs(best_key)):
            continue
        if best is None or root_greater(ratio, exponent, *best):
            best = (ratio, exponent)
            best_key = key
    if best is None:
        return {"ratio": Fraction(0), "exponent": 1, "approx": 0.0}
    return {"ratio": best[0], "exponent": best[1], "approx": root_approx(*best)}


def _check_budget(name: str, n: int, budget: int | None) -> None:
    cap = SWEEPS[name].budget if budget is None else budget
    if n > cap:
        raise ValueError(f"n={n} exceeds the {name} budget {cap}")
    if n < 0:
        raise ValueError(f"n={n} is negative")


def _bound_order(rec: BoundRecord) -> tuple:
    return (rec.n, rec.lam, rec.alpha_or_mu)


def _bound_result(
    command: str, n: int, sections: dict[str, list[BoundRecord]],
    asserted: tuple[str, ...] = (), **extra,
) -> SweepResult:
    """Sort every section; summarize as records, violations, hard, then extra.

    The sweep is hard when it asserts some of its sections, and violations
    counts the unsatisfied records of those.  The extra entries follow in
    the order given.  A max_constant entry names the section it is taken
    over; it is taken after sorting, so a tie goes to the first record.
    """
    for records in sections.values():
        records.sort(key=_bound_order)
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
                    Fraction(total),
                    Fraction(expected),
                    Fraction(abs(total - expected)),
                    1,
                    total == expected,
                )
            )
    return _bound_result(
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
    classes = [(alpha, format_cycle_type(alpha)) for alpha in classes if not alpha.is_identity()]

    @cache
    def rhs2(w: int, s: int, supp: int) -> Fraction:
        rhs = Fraction(1, w) ** w
        if bal is None:
            rhs *= max(Fraction(1), Fraction(s * s * w, n * n)) ** supp
        return rhs

    table = character_table(n)
    records = []
    for lam in lams:
        s = lam.max_hook
        d = dim_hlf(lam)
        lam_text = format_partition(lam)
        for alpha, alpha_text in classes:
            value = table[alpha.lengths][lam.parts]
            w = alpha.word_length
            lhs2 = Fraction(value * value, d * d)
            records.append(_record(n, lam_text, alpha_text, lhs2, rhs2(w, s, alpha.supp), 2 * w))
    return _bound_result(
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
                _record(
                    n, lam_text, alpha_text,
                    Fraction(value), Fraction(bound), 1,
                )
            )
    return _bound_result(
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
    def rhs2(s: int, k: int) -> Fraction:
        return max(Fraction(1, k), Fraction(s * s, n * n)) ** k

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
            ratio = Fraction(skew, d)
            records.append(_record(n, lam_text, format_parts(mu), ratio * ratio, rhs2(s, k), 2 * k))
    return _bound_result(
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
    family; the skew_sum rhs depends on (s, k) only.
    """
    _check_budget("excited-bounds", n, budget)
    rows: list[BoundRecord] = []
    edge: list[BoundRecord] = []
    general: list[BoundRecord] = []
    skew_sum: list[BoundRecord] = []
    chain_sq = CHAIN_CONSTANT_UPPER * CHAIN_CONSTANT_UPPER
    falling = [perm(n, k) for k in range(n + 1)]

    @cache
    def rhs2(s: int, k: int) -> Fraction:
        return (chain_sq * max(Fraction(s * s), Fraction(n * n, k))) ** k

    for lam in enumerate_partitions(n):
        s = lam.max_hook
        lam_text = format_partition(lam)
        dims = skew_dims(lam)
        d = dims[()]
        for ell in range(1, lam.part(1) + 1):
            value = Fraction(_excited_value(falling[ell], dims[(ell,)], d, lam_text, (ell,)))
            row_rec = _record(n, lam_text, f"[{ell}]", value, bound_S_row(lam, ell), ell)
            # case (b) relies on floor(n/a) >= 2 at a = s, absent when s > n/2
            if ell * s > n and n // s < 2:
                edge.append(row_rec)
            else:
                rows.append(row_rec)
            for a in sorted({s, n}):
                general.append(
                    _record(
                        n, lam_text, f"[{ell}] a={a}",
                        value, Fraction(bound_S_general(lam, a, ell)), ell,
                    )
                )
        for mu, skew in dims.items():
            k = sum(mu)
            if k == 0:
                continue
            value = _excited_value(falling[k], skew, d, lam_text, mu)
            skew_sum.append(
                _record(n, lam_text, format_parts(mu), Fraction(value * value), rhs2(s, k), 2 * k)
            )
    sections = {"records": rows, "rows_edge": edge, "general": general, "skew_sum": skew_sum}
    return _bound_result(
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
            ratio, ratio * Fraction(m) ** k, None,
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
        ratio, rhs, ratio >= rhs,
    )


def sweep_sharpness(max_n: int = 30, budget: int | None = None) -> SweepResult:
    """All rectangle instances with n <= max_n, case 1 asserted."""
    _check_budget("sharpness", max_n, budget)
    case1: list[SharpnessRecord] = []
    case2: list[SharpnessRecord] = []
    for h in range(1, max_n + 1):
        for s_tilde in range(h, max_n // h + 1):
            n = s_tilde * h
            sizes = {ell * h for ell in range(1, s_tilde + 1)}
            sizes.update(m * m for m in range(1, h + 1) if m * m <= n)
            for k in sorted(sizes):
                rec = sharpness_rectangles(s_tilde, h, k)
                (case1 if rec.case == 1 else case2).append(rec)
    for section in (case1, case2):
        section.sort(key=lambda rec: (rec.s_tilde * rec.h, rec.h, rec.k))
    violations = sum(1 for rec in case1 if not rec.satisfied)
    summary = {
        "records": len(case1) + len(case2),
        "violations": violations,
        "hard": True,
        "case1": len(case1),
        "case2": len(case2),
    }
    return SweepResult(
        "sharpness", max_n, {"records": case1, "case2": case2}, summary
    )


# --------------------------------------------------------------- compression


# One row per nu of size k: (the parts of nu, its text, f^nu,
# Pl(nu) = f^nu^2 / k!, the bound (s(nu)^2 e / k)^k); none of it depends on lam.
_LevelRow = tuple[tuple[int, ...], str, int, Fraction, Fraction]
_ZERO = Fraction(0)


@lru_cache(maxsize=64)
def _level(k: int) -> tuple[_LevelRow, ...]:
    """The lam-independent part of every compression record at level k."""
    kfact = factorial(k)
    rows = []
    for nu in enumerate_partitions(k):
        d_nu = dim_hlf(nu)
        bound = (Fraction(nu.max_hook**2, k) * E_UPPER) ** k
        rows.append(
            (nu.parts, format_partition(nu), d_nu, Fraction(d_nu * d_nu, kfact), bound)
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
    p_num = 0
    tv_num = 0
    max_dev = Fraction(0)
    all_ok = True
    lam_text = format_partition(lam)
    for nu, nu_text, d_nu, pl, bound in _level(k):
        skew = dims.get(nu)
        if skew is not None:
            p = Fraction(d_nu * skew, d_lam)
            a = Fraction(kfact * skew, d_lam * d_nu)  # p / pl
            ok = a <= bound
            p_num += d_nu * skew
            tv_num += abs(d_nu * skew * kfact - d_nu * d_nu * d_lam)
            max_dev = max(max_dev, abs(a - 1))
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
        "max_a_dev": max_dev,
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
    records.sort(key=lambda r: (r.k, r.lam, r.mu))
    plancherel_ok = all(
        sum(pl for _, _, _, pl, _ in _level(k)) == 1 for k in range(1, max_n + 1)
    )
    summary = {
        "records": len(records),
        "violations": sum(1 for r in records if not r.satisfied) + bad_totals,
        "hard": True,
        "levels_with_bad_total": bad_totals,
        "shapes_with_bad_bound": bad_bounds,
        "max_tv": max_tv,
        "plancherel_normalized": plancherel_ok,
    }
    return SweepResult("compression", max_n, {"records": records}, summary)
