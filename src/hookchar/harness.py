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
from math import factorial, isqrt
from typing import NamedTuple

from .characters import character_mn, diag_cycle_bound
from .decompositions import (
    CHAIN_CONSTANT_UPPER,
    E_UPPER,
    TWO_E_UPPER,
    bound_S_general,
    bound_S_row,
)
from .dimensions import SkewShape, dim_hlf, skew_dim_det
from .excited import excited_count, excited_sum, hook_product, naruse_ratio
from .partitions import (
    CycleType,
    Partition,
    enumerate_partitions,
    enumerate_subdiagrams,
    falling_factorial,
    format_cycle_type,
    format_partition,
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


# Every sweep is called as function(n, budget=None, mapper=map).
SWEEPS = {
    "orthogonality": Sweep("verify_orthogonality", 8, BoundRecord),
    "thm-main": Sweep("sweep_thm_main", 10, BoundRecord),
    "thm-diag": Sweep("sweep_thm_diag", 9, BoundRecord),
    "skew-bound": Sweep("sweep_skew_bound", 9, BoundRecord),
    "excited-bounds": Sweep("sweep_excited_bounds", 12, BoundRecord),
    "sharpness": Sweep("sweep_sharpness", 30, SharpnessRecord),
    "compression": Sweep("sweep_compression", 10, CompressionRecord),
}


def _record(n: int, lam: str, other: str, lhs: Fraction, rhs: Fraction, exponent: int) -> BoundRecord:
    lhs = Fraction(lhs)
    rhs = Fraction(rhs)
    return BoundRecord(n, lam, other, lhs, rhs, lhs / rhs, exponent, lhs <= rhs)


def root_greater(r1: Fraction, e1: int, r2: Fraction, e2: int) -> bool:
    """Exact comparison r1**(1/e1) > r2**(1/e2) for non-negative ratios."""
    return r1**e2 > r2**e1


def root_approx(ratio: Fraction, exponent: int) -> float:
    """Float estimate of ratio**(1/exponent), display only."""
    if ratio == 0:
        return 0.0
    from math import exp, log

    return exp((log(ratio.numerator) - log(ratio.denominator)) / exponent)


def _max_constant(records) -> dict:
    best: tuple[Fraction, int] | None = None
    for rec in records:
        cand = (rec.implied_constant, rec.exponent)
        if cand[0] == 0:
            continue
        if best is None or root_greater(cand[0], cand[1], best[0], best[1]):
            best = cand
    if best is None:
        return {"ratio": Fraction(0), "exponent": 1, "approx": 0.0}
    return {"ratio": best[0], "exponent": best[1], "approx": root_approx(*best)}


def _check_budget(name: str, n: int, budget: int | None) -> None:
    cap = SWEEPS[name].budget if budget is None else budget
    if n > cap:
        raise ValueError(f"n={n} exceeds the {name} budget {cap}")
    if n < 0:
        raise ValueError(f"n={n} is negative")


def _sorted_records(chunks) -> list[BoundRecord]:
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda r: (r.n, r.lam, r.alpha_or_mu))
    return records


# ---------------------------------------------------------------- characters


def _orthogonality_chunk(args) -> list[BoundRecord]:
    n, lam_parts, mu_parts, columns = args
    lam = Partition(lam_parts)
    total = 0
    for alpha_parts, class_size in columns:
        alpha = CycleType(alpha_parts)
        total += (
            class_size
            * character_mn(lam, alpha).value
            * character_mn(Partition(mu_parts), alpha).value
        )
    expected = factorial(n) if lam_parts == mu_parts else 0
    return [
        BoundRecord(
            n,
            format_partition(lam),
            format_partition(Partition(mu_parts)),
            Fraction(total),
            Fraction(expected),
            Fraction(abs(total - expected)),
            1,
            total == expected,
        )
    ]


def verify_orthogonality(n: int, budget: int | None = None, mapper=map) -> SweepResult:
    """Check the first orthogonality relation for all pairs of shapes.

    The implied-constant column holds the absolute deviation from the
    expected value, zero on success.
    """
    _check_budget("orthogonality", n, budget)
    shapes = [p.parts for p in enumerate_partitions(n)]
    columns = [
        (p.parts, CycleType(p.parts).class_size()) for p in enumerate_partitions(n)
    ]
    items = [(n, a, b, columns) for a in shapes for b in shapes]
    records = _sorted_records(mapper(_orthogonality_chunk, items))
    violations = sum(1 for r in records if not r.satisfied)
    summary = {
        "records": len(records),
        "violations": violations,
        "hard": True,
        "pairs": len(shapes) ** 2,
    }
    return SweepResult("orthogonality", n, {"records": records}, summary)


def _thm_main_chunk(args) -> list[BoundRecord]:
    n, lam_parts, balanced_num, balanced_den = args
    lam = Partition(lam_parts)
    s = lam.max_hook
    d = dim_hlf(lam)
    out = []
    for alpha_p in enumerate_partitions(n):
        alpha = CycleType(alpha_p.parts)
        if alpha.is_identity():
            continue
        value = character_mn(lam, alpha).value
        w = alpha.word_length
        lhs2 = Fraction(value * value, d * d)
        rhs2 = Fraction(1, w) ** w
        if balanced_num is None:
            rhs2 *= max(Fraction(1), Fraction(s * s * w, n * n)) ** alpha.supp
        out.append(
            _record(n, format_partition(lam), format_cycle_type(alpha), lhs2, rhs2, 2 * w)
        )
    return out


def sweep_thm_main(
    n: int,
    budget: int | None = None,
    mapper=map,
    *,
    balanced: Fraction | None = None,
) -> SweepResult:
    """Character bound sweep over all shapes and non-identity classes.

    Records carry squared values: lhs = normalized character squared,
    rhs = (1/|sigma|)^|sigma| * max(1, s^2 |sigma| / n^2)^supp, and the
    per-instance constant is implied_constant**(1/(2|sigma|)).  With
    balanced=C the sweep restricts to shapes with s(lam) <= C*sqrt(n)
    and drops the max factor from the rhs.
    """
    _check_budget("thm-main", n, budget)
    if balanced is not None and balanced <= 0:
        raise ValueError(f"balanced bound must be positive, got {balanced}")
    lams = []
    for p in enumerate_partitions(n):
        if balanced is not None:
            c = Fraction(balanced)
            if p.max_hook ** 2 > c * c * n:
                continue
        lams.append(p.parts)
    bal = Fraction(balanced) if balanced is not None else None
    items = [
        (n, parts, None if bal is None else bal.numerator, None if bal is None else bal.denominator)
        for parts in lams
    ]
    records = _sorted_records(mapper(_thm_main_chunk, items))
    summary = {
        "records": len(records),
        "violations": 0,
        "hard": False,
        "satisfied_at_c1": sum(1 for r in records if r.satisfied),
        "max_constant": _max_constant(records),
        "balanced": None if bal is None else str(bal),
        "shapes": len(lams),
    }
    return SweepResult("thm-main", n, {"records": records}, summary)


def _thm_diag_chunk(args) -> list[BoundRecord]:
    n, lam_parts = args
    lam = Partition(lam_parts)
    out = []
    for alpha_p in enumerate_partitions(n):
        alpha = CycleType(alpha_p.parts)
        value = abs(character_mn(lam, alpha).value)
        bound = diag_cycle_bound(lam, alpha)
        out.append(
            _record(
                n, format_partition(lam), format_cycle_type(alpha),
                Fraction(value), Fraction(bound), 1,
            )
        )
    return out


def sweep_thm_diag(n: int, budget: int | None = None, mapper=map) -> SweepResult:
    """Hard sweep of |ch| <= 2^n * delta^cyc over all shapes and classes."""
    _check_budget("thm-diag", n, budget)
    items = [(n, p.parts) for p in enumerate_partitions(n)]
    records = _sorted_records(mapper(_thm_diag_chunk, items))
    violations = sum(1 for r in records if not r.satisfied)
    summary = {
        "records": len(records),
        "violations": violations,
        "hard": True,
        "max_constant": _max_constant(records),
    }
    return SweepResult("thm-diag", n, {"records": records}, summary)


# ------------------------------------------------------------- skew measures


def _skew_bound_chunk(args) -> list[BoundRecord]:
    n, lam_parts = args
    lam = Partition(lam_parts)
    s = lam.max_hook
    out = []
    for mu in enumerate_subdiagrams(lam):
        k = mu.n
        if k == 0:
            continue
        ratio = naruse_ratio(lam, mu)
        lhs2 = ratio * ratio
        rhs2 = max(Fraction(1, k), Fraction(s * s, n * n)) ** k
        out.append(
            _record(n, format_partition(lam), format_partition(mu), lhs2, rhs2, 2 * k)
        )
    return out


def sweep_skew_bound(n: int, budget: int | None = None, mapper=map) -> SweepResult:
    """Skew-dimension ratio against max(1/sqrt(k), s/n)^k, squared records."""
    _check_budget("skew-bound", n, budget)
    items = [(n, p.parts) for p in enumerate_partitions(n)]
    records = _sorted_records(mapper(_skew_bound_chunk, items))
    summary = {
        "records": len(records),
        "violations": 0,
        "hard": False,
        "satisfied_at_c1": sum(1 for r in records if r.satisfied),
        "max_constant": _max_constant(records),
    }
    return SweepResult("skew-bound", n, {"records": records}, summary)


def _excited_bounds_chunk(args):
    n, lam_parts = args
    lam = Partition(lam_parts)
    s = lam.max_hook
    lam_text = format_partition(lam)
    rows: list[BoundRecord] = []
    edge: list[BoundRecord] = []
    general: list[BoundRecord] = []
    skew_sum: list[BoundRecord] = []
    chain_sq = CHAIN_CONSTANT_UPPER * CHAIN_CONSTANT_UPPER
    for ell in range(1, lam.part(1) + 1):
        value = excited_sum(lam, Partition((ell,)))
        row_rec = _record(
            n, lam_text, f"[{ell}]", Fraction(value), bound_S_row(lam, ell), ell
        )
        # case (b) relies on floor(n/a) >= 2 at a = s, absent when s > n/2
        if ell * s > n and n // s < 2:
            edge.append(row_rec)
        else:
            rows.append(row_rec)
        for a in sorted({s, n}):
            general.append(
                _record(
                    n, lam_text, f"[{ell}] a={a}",
                    Fraction(value), Fraction(bound_S_general(lam, a, ell)), ell,
                )
            )
    for mu in enumerate_subdiagrams(lam):
        k = mu.n
        if k == 0:
            continue
        value = excited_sum(lam, mu)
        lhs2 = Fraction(value * value)
        rhs2 = (chain_sq * max(Fraction(s * s), Fraction(n * n, k))) ** k
        skew_sum.append(
            _record(n, lam_text, format_partition(mu), lhs2, rhs2, 2 * k)
        )
    return rows, edge, general, skew_sum


def sweep_excited_bounds(n: int, budget: int | None = None, mapper=map) -> SweepResult:
    """Hard sweep of the closed-form excited-sum bounds.

    Sections: "records" for the row bound (8n/ell or 4e^2 s cases),
    "rows_edge" for the separately reported s > n/2 case-(b) regime,
    "general" for the thick-hook binomial bound at a in {s, n}, and
    "skew_sum" for the squared chain bound (8e^3 max(n/sqrt k, s))^k
    over every contained shape.
    """
    _check_budget("excited-bounds", n, budget)
    items = [(n, p.parts) for p in enumerate_partitions(n)]
    rows: list[BoundRecord] = []
    edge: list[BoundRecord] = []
    general: list[BoundRecord] = []
    skew_sum: list[BoundRecord] = []
    for r, e, g, c in mapper(_excited_bounds_chunk, items):
        rows.extend(r)
        edge.extend(e)
        general.extend(g)
        skew_sum.extend(c)
    for section in (rows, edge, general, skew_sum):
        section.sort(key=lambda rec: (rec.n, rec.lam, rec.alpha_or_mu))
    violations = sum(
        1 for sec in (rows, general, skew_sum) for rec in sec if not rec.satisfied
    )
    summary = {
        "records": len(rows) + len(edge) + len(general) + len(skew_sum),
        "violations": violations,
        "hard": True,
        "edge_regime": len(edge),
        "edge_satisfied": sum(1 for rec in edge if rec.satisfied),
        "max_constant": _max_constant(skew_sum),
    }
    return SweepResult(
        "excited-bounds",
        n,
        {"records": rows, "rows_edge": edge, "general": general, "skew_sum": skew_sum},
        summary,
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


def _sharpness_chunk(args) -> SharpnessRecord:
    return sharpness_rectangles(*args)


def sweep_sharpness(max_n: int = 30, budget: int | None = None, mapper=map) -> SweepResult:
    """All rectangle instances with n <= max_n, case 1 asserted."""
    _check_budget("sharpness", max_n, budget)
    items = []
    for h in range(1, max_n + 1):
        for s_tilde in range(h, max_n // h + 1):
            n = s_tilde * h
            sizes = {ell * h for ell in range(1, s_tilde + 1)}
            sizes.update(m * m for m in range(1, h + 1) if m * m <= n)
            items.extend((s_tilde, h, k) for k in sorted(sizes))
    case1: list[SharpnessRecord] = []
    case2: list[SharpnessRecord] = []
    for rec in mapper(_sharpness_chunk, items):
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


def compression_stats(lam: Partition, k: int):
    """Per-shape restriction vs Plancherel comparison at level k.

    Returns (records, summary); summary carries the exact probability
    total, the total-variation distance with the mass of shapes outside
    lam counted fully, the maximum |A - 1| over contained shapes, and
    whether every contained shape satisfies A <= (s(mu)^2 e / k)^k.
    """
    if not 1 <= k <= lam.n:
        raise ValueError(f"k={k} not within 1..{lam.n}")
    d_lam = dim_hlf(lam)
    kfact = factorial(k)
    records: list[CompressionRecord] = []
    p_total = Fraction(0)
    tv2 = Fraction(0)
    max_dev = Fraction(0)
    all_ok = True
    lam_text = format_partition(lam)
    for nu in enumerate_partitions(k):
        d_nu = dim_hlf(nu)
        pl = Fraction(d_nu * d_nu, kfact)
        bound = (Fraction(nu.max_hook**2, k) * E_UPPER) ** k
        if lam.contains(nu):
            p = Fraction(d_nu * skew_dim_det(SkewShape(lam, nu)), d_lam)
            a = p / pl
            ok = a <= bound
            p_total += p
            tv2 += abs(p - pl)
            max_dev = max(max_dev, abs(a - 1))
            all_ok = all_ok and ok
            records.append(
                CompressionRecord(lam_text, format_partition(nu), k, p, pl, a, bound, True, ok)
            )
        else:
            tv2 += pl
            records.append(
                CompressionRecord(
                    lam_text, format_partition(nu), k,
                    Fraction(0), pl, Fraction(0), bound, False, True,
                )
            )
    summary = {
        "p_total": p_total,
        "tv": tv2 / 2,
        "max_a_dev": max_dev,
        "all_bounded": all_ok,
        "p_total_ok": p_total == 1,
    }
    return records, summary


def _compression_chunk(args):
    n, lam_parts, k = args
    records, summary = compression_stats(Partition(lam_parts), k)
    return records, summary["p_total_ok"], summary["all_bounded"], summary["tv"]


def sweep_compression(max_n: int, budget: int | None = None, mapper=map) -> SweepResult:
    """Hard sweep of the compression ratio bound for all shapes, all k."""
    _check_budget("compression", max_n, budget)
    items = [
        (n, p.parts, k)
        for n in range(1, max_n + 1)
        for p in enumerate_partitions(n)
        for k in range(1, n + 1)
    ]
    records: list[CompressionRecord] = []
    bad_totals = 0
    bad_bounds = 0
    max_tv = Fraction(0)
    for recs, total_ok, bounded, tv in mapper(_compression_chunk, items):
        records.extend(recs)
        bad_totals += 0 if total_ok else 1
        bad_bounds += 0 if bounded else 1
        max_tv = max(max_tv, tv)
    records.sort(key=lambda r: (r.k, r.lam, r.mu))
    plancherel_ok = all(
        sum(Fraction(dim_hlf(p) ** 2, factorial(k)) for p in enumerate_partitions(k)) == 1
        for k in range(1, max_n + 1)
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
