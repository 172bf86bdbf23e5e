"""Sweep drivers: frozen record values, budgets, and summaries."""

import io
import json
import random
from fractions import Fraction
from math import factorial, gcd
from typing import get_type_hints

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from hookchar import (
    BoundRecord,
    Partition,
    SkewShape,
    SweepResult,
    compression_stats,
    dim_hlf,
    enumerate_partitions,
    format_partition,
    sharpness_rectangles,
    skew_dim_oracle,
    sweep_compression,
    sweep_excited_bounds,
    sweep_sharpness,
    sweep_skew_bound,
    sweep_thm_diag,
    sweep_thm_main,
    verify_orthogonality,
)
from hookchar import harness
from hookchar.cli import main
from hookchar.harness import SWEEPS, Rational, root_approx, root_greater
from hookchar.partitions import parse_partition

from conftest import all_shapes
from oracles import _max_constant, _max_record
from test_golden import GOLDEN


def _pick(records, lam, other):
    found = [r for r in records if r.lam == lam and r.alpha_or_mu == other]
    assert len(found) == 1
    return found[0]


# ------------------------------------------------------------- orthogonality


def test_orthogonality_n5():
    result = verify_orthogonality(5)
    assert result.command == "orthogonality"
    assert len(result.records) == 49
    assert result.violations == 0
    assert result.summary["hard"] is True
    diag = _pick(result.records, "[3,2]", "[3,2]")
    assert Fraction(*diag.lhs) == 120
    assert Fraction(*diag.implied_constant) == 0
    off = _pick(result.records, "[3,2]", "[4,1]")
    assert Fraction(*off.lhs) == 0 and Fraction(*off.rhs) == 0 and off.satisfied


# ----------------------------------------------------------- character sweeps


def test_thm_main_worked_record():
    result = sweep_thm_main(5)
    rec = _pick(result.records, "[3,2]", "(3,1,1)")
    assert Fraction(*rec.lhs) == Fraction(1, 25)
    assert Fraction(*rec.rhs) == Fraction(8192, 15625)
    assert Fraction(*rec.implied_constant) == Fraction(625, 8192)
    assert rec.exponent == 4
    assert rec.satisfied


def test_thm_main_trivial_shape_rows_satisfied():
    result = sweep_thm_main(6)
    rows = [r for r in result.records if r.lam == "[6]"]
    assert len(rows) == 10
    assert all(r.satisfied for r in rows)


def test_thm_main_excludes_identity():
    result = sweep_thm_main(4)
    assert all(r.alpha_or_mu != "(1,1,1,1)" for r in result.records)
    assert len(result.records) == 5 * 4


def test_thm_main_balanced_filter():
    result = sweep_thm_main(5, balanced=Fraction(2))
    assert result.summary["shapes"] == 2
    assert {r.lam for r in result.records} == {"[3,2]", "[2,2,1]"}
    rec = _pick(result.records, "[3,2]", "(3,1,1)")
    assert Fraction(*rec.rhs) == Fraction(1, 4)
    with pytest.raises(ValueError):
        sweep_thm_main(5, balanced=Fraction(-1))


def test_thm_diag_sweep():
    result = sweep_thm_diag(6)
    assert len(result.records) == 121
    assert result.violations == 0
    rec = _pick(sweep_thm_diag(5).records, "[3,2]", "(3,1,1)")
    assert Fraction(*rec.lhs) == 1
    assert Fraction(*rec.rhs) == 256
    assert rec.exponent == 1


# ---------------------------------------------------------------- skew sweeps


def test_skew_bound_smallest_case():
    result = sweep_skew_bound(2)
    rec = _pick(result.records, "[2]", "[1]")
    assert Fraction(*rec.lhs) == 1 and Fraction(*rec.rhs) == 1 and rec.satisfied
    assert rec.exponent == 2


def test_skew_bound_summary_keys():
    result = sweep_skew_bound(6)
    assert result.summary["hard"] is False
    assert result.summary["violations"] == 0
    assert 0 < result.summary["satisfied_at_c1"] <= len(result.records)
    assert result.summary["max_constant"]["ratio"] > 0
    assert all(Fraction(*r.rhs) > 0 for r in result.records)


def test_excited_bounds_sections_and_regime_split():
    result = sweep_excited_bounds(9)
    assert set(result.sections) == {"records", "rows_edge", "general", "skew_sum"}
    assert result.violations == 0
    for name in ("records", "general", "skew_sum"):
        assert result.sections[name]
        assert all(r.satisfied for r in result.sections[name])
    for rec in result.sections["rows_edge"]:
        lam = parse_partition(rec.lam)
        ell = int(rec.alpha_or_mu.strip("[]"))
        assert ell * lam.max_hook > rec.n and rec.n // lam.max_hook < 2
    for rec in result.sections["records"]:
        lam = parse_partition(rec.lam)
        ell = int(rec.alpha_or_mu.strip("[]"))
        assert not (ell * lam.max_hook > rec.n and rec.n // lam.max_hook < 2)
    assert result.summary["edge_regime"] == len(result.sections["rows_edge"]) > 0


def test_excited_bounds_general_labels():
    result = sweep_excited_bounds(4)
    labels = {r.alpha_or_mu for r in result.sections["general"] if r.lam == "[3,1]"}
    assert labels == {"[1] a=4", "[2] a=4", "[3] a=4"}


# ------------------------------------------------------------------ sharpness


def test_sharpness_case1_instances():
    rec = sharpness_rectangles(9, 3, 6)
    assert (rec.case, rec.lam, rec.mu) == (1, "[9,9,9]", "[2,2,2]")
    assert rec.satisfied is True

    rec = sharpness_rectangles(4, 2, 4)
    assert (rec.case, rec.mu) == (1, "[2,2]")
    assert rec.satisfied is True

    rec = sharpness_rectangles(3, 3, 9)
    assert Fraction(*rec.ratio) == Fraction(1, 42)
    assert rec.satisfied is True


def test_sharpness_case2_reported_not_asserted():
    rec = sharpness_rectangles(4, 4, 4)
    assert (rec.case, rec.mu) == (2, "[2,2]")
    assert rec.satisfied is None
    assert Fraction(*rec.rhs) == Fraction(*rec.ratio) * 2**4


def test_sharpness_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sharpness_rectangles(4, 3, 5)
    with pytest.raises(ValueError):
        sharpness_rectangles(3, 4, 2)
    with pytest.raises(ValueError):
        sharpness_rectangles(4, 2, 0)
    with pytest.raises(ValueError):
        sharpness_rectangles(4, 2, 9)
    with pytest.raises(ValueError):
        sharpness_rectangles(0, 1, 1)


def test_sharpness_sweep():
    result = sweep_sharpness(12)
    assert set(result.sections) == {"records", "case2"}
    assert result.violations == 0
    assert all(r.case == 1 and r.satisfied is True for r in result.records)
    case2 = result.sections["case2"]
    assert case2
    assert all(r.case == 2 and r.satisfied is None for r in case2)
    assert result.summary["case1"] == len(result.records)
    for section in result.sections.values():
        keys = [(r.s_tilde * r.h, r.h, r.k) for r in section]
        assert keys == sorted(set(keys))


# ---------------------------------------------------------------- compression


def test_compression_level_one_is_exact():
    records, summary = compression_stats(Partition((4, 2, 1)), 1)
    assert len(records) == 1
    assert Fraction(*records[0].p) == Fraction(*records[0].pl) == Fraction(*records[0].a) == 1
    assert summary["tv"] == 0
    assert summary["p_total_ok"]


def test_compression_two_one_level_two():
    records, summary = compression_stats(Partition((2, 1)), 2)
    assert {r.mu for r in records} == {"[2]", "[1,1]"}
    for rec in records:
        assert Fraction(*rec.p) == Fraction(1, 2)
        assert Fraction(*rec.a) == 1
    assert summary["tv"] == 0
    assert summary["max_a_dev"] == 0


def test_compression_counts_escaping_mass():
    records, summary = compression_stats(Partition((1, 1, 1, 1)), 2)
    row = next(r for r in records if r.mu == "[2]")
    col = next(r for r in records if r.mu == "[1,1]")
    assert not row.contained and Fraction(*row.p) == 0 and row.satisfied
    assert col.contained and Fraction(*col.p) == 1 and Fraction(*col.a) == 2
    assert summary["p_total"] == 1
    assert summary["tv"] == Fraction(1, 2)
    assert summary["max_a_dev"] == 1
    assert summary["all_bounded"]


def test_compression_rejects_bad_level():
    with pytest.raises(ValueError):
        compression_stats(Partition((2, 1)), 0)
    with pytest.raises(ValueError):
        compression_stats(Partition((2, 1)), 4)


def test_compression_stats_match_the_oracle_route():
    """P by the path-count oracle, Pl and the sums recomputed; order-independent."""
    pairs = [(lam, k) for lam in all_shapes(6) for k in range(1, lam.n + 1)]
    results = {}
    for lam, k in pairs:
        records, summary = compression_stats(lam, k)
        assert [r.mu for r in records] == [format_partition(nu) for nu in enumerate_partitions(k)]
        d_lam = dim_hlf(lam)
        p_total = tv2 = max_dev = Fraction(0)
        for rec in records:
            nu = parse_partition(rec.mu)
            pl = Fraction(dim_hlf(nu) ** 2, factorial(k))
            assert Fraction(*rec.pl) == pl
            assert rec.contained == lam.contains(nu)
            if rec.contained:
                p = Fraction(dim_hlf(nu) * skew_dim_oracle(SkewShape(lam, nu)), d_lam)
                assert Fraction(*rec.p) == p
                assert Fraction(*rec.a) == p / pl
                assert rec.satisfied == (p / pl <= Fraction(*rec.bound))
                p_total += p
                tv2 += abs(p - pl)
                max_dev = max(max_dev, abs(p / pl - 1))
            else:
                tv2 += pl
        assert summary["tv"] == tv2 / 2
        assert summary["p_total"] == p_total == 1
        assert summary["max_a_dev"] == max_dev
        results[lam, k] = (records, summary)
    random.Random(0).shuffle(pairs)
    for lam, k in pairs:
        assert compression_stats(lam, k) == results[lam, k]


def test_compression_sweep():
    result = sweep_compression(5)
    assert len(result.records) == 206
    assert result.violations == 0
    assert result.summary["plancherel_normalized"] is True
    assert result.summary["levels_with_bad_total"] == 0
    assert 0 < result.summary["max_tv"] < 1


def test_compression_bad_total_is_a_violation(monkeypatch):
    # one (lam, k) whose restriction measure does not total 1
    real = harness._compression_stats

    def one_bad_total(lam, k, dims):
        records, stats = real(lam, k, dims)
        if lam.parts == (2, 1) and k == 2:
            stats = {**stats, "p_total_ok": False}
        return records, stats

    monkeypatch.setattr(harness, "_compression_stats", one_bad_total)
    result = sweep_compression(3)
    assert result.summary["levels_with_bad_total"] == 1
    assert result.violations == sum(not rec.satisfied for rec in result.records) + 1
    assert main(["verify", "compression", "--n", "3"]) == 1


# -------------------------------------------------------------------- budgets


@pytest.mark.parametrize(
    "sweep,name",
    [
        (verify_orthogonality, "orthogonality"),
        (sweep_thm_main, "thm-main"),
        (sweep_thm_diag, "thm-diag"),
        (sweep_skew_bound, "skew-bound"),
        (sweep_excited_bounds, "excited-bounds"),
        (sweep_compression, "compression"),
        (sweep_sharpness, "sharpness"),
    ],
)
def test_default_budgets_are_enforced(sweep, name):
    with pytest.raises(ValueError, match="budget"):
        sweep(SWEEPS[name].budget + 1)


@pytest.mark.parametrize("name", list(SWEEPS))
def test_every_sweep_is_a_plain_call(name):
    sweep = getattr(harness, SWEEPS[name].function)
    result = sweep(3)
    assert result.records
    assert result == sweep(3, None)
    assert all(
        type(rec) is SWEEPS[name].record
        for records in result.sections.values()
        for rec in records
    )


def test_budget_override_tightens():
    with pytest.raises(ValueError, match="budget"):
        verify_orthogonality(3, budget=2)
    with pytest.raises(ValueError):
        verify_orthogonality(-1)


# ------------------------------------------------------------ root comparison


def test_root_comparison_is_exact():
    assert root_greater(Fraction(9), 2, Fraction(2), 1)
    assert not root_greater(Fraction(4), 2, Fraction(3), 1)
    assert not root_greater(Fraction(4), 2, Fraction(2), 1)
    assert root_greater(Rational(9, 4), 2, Rational(3, 2), 1) is False
    assert root_greater(Rational(9, 4), 2, Fraction(7, 5), 1)
    assert root_approx(Rational(0, 1), 3) == 0.0
    assert root_approx(Fraction(8), 3) == pytest.approx(2.0)
    assert root_approx(Fraction(0), 5) == 0.0


@given(
    st.fractions(min_value=0, max_value=50, max_denominator=30),
    st.integers(min_value=1, max_value=40),
    st.fractions(min_value=0, max_value=50, max_denominator=30),
    st.integers(min_value=1, max_value=40),
)
@example(Fraction(4), 2, Fraction(16), 4)
@example(Fraction(16), 4, Fraction(4), 2)
@example(Fraction(7, 3), 6, Fraction(7, 3), 6)
def test_root_comparison_matches_cross_powers(r1, e1, r2, e2):
    assert root_greater(r1, e1, r2, e2) == (r1**e2 > r2**e1)


def _pair(value: Fraction) -> Rational:
    return Rational(value.numerator, value.denominator)


def _rec(ratio, exponent):
    return BoundRecord(1, "[1]", "(1)", _pair(ratio), Rational(1, 1), _pair(ratio), exponent, True)


def test_max_constant_compares_across_exponents():
    best = _max_constant([_rec(Fraction(4), 2), _rec(Fraction(3), 1)])
    assert best["ratio"] == 3 and best["exponent"] == 1
    best = _max_constant([_rec(Fraction(0), 1), _rec(Fraction(9), 2)])
    assert best["ratio"] == 9 and best["exponent"] == 2
    empty = _max_constant([_rec(Fraction(0), 1)])
    assert empty["ratio"] == 0 and empty["approx"] == 0.0


def _max_record_unscreened(records):
    """The max-constant loop before its float screen, on Fractions: every record compared."""
    best = None
    for rec in records:
        ratio = Fraction(*rec.implied_constant)
        if ratio == 0:
            continue
        if best is None or ratio ** best[1] > best[0] ** rec.exponent:
            best = (ratio, rec.exponent, rec)
    return None if best is None else best[2]


def _assert_same_max(records):
    oracle = _max_record_unscreened(records)
    assert _max_record(records) is oracle  # the same record wins a tie
    summary = _max_constant(records)
    if oracle is None:
        assert summary == {"ratio": 0, "exponent": 1, "approx": 0.0}
    else:
        ratio = Fraction(*oracle.implied_constant)
        assert type(summary["ratio"]) is Fraction
        assert summary == {
            "ratio": ratio, "exponent": oracle.exponent,
            "approx": root_approx(ratio, oracle.exponent),
        }


BOUND_SWEEPS = [name for name, sweep in SWEEPS.items() if sweep.record is BoundRecord]


@pytest.mark.parametrize("name", BOUND_SWEEPS)
def test_max_constant_equals_unscreened_loop_on_every_section(name):
    sweep = getattr(harness, SWEEPS[name].function)
    for n in range(1, 10):
        for records in sweep(n).sections.values():
            _assert_same_max(records)


BIG = 10**30


@pytest.mark.parametrize(
    "pairs",
    [
        [(4, 2), (2, 1)],
        [(2, 1), (4, 2)],
        [(16, 4), (4, 2), (2, 1)],
        [(3, 1), (4, 2), (9, 2)],
        [(0, 1), (4, 2), (0, 3), (2, 1)],
        [(BIG, 2), (BIG + 1, 2), (BIG, 2)],
        [(BIG + 1, 2), ((BIG + 1) ** 2, 4), (BIG, 2)],
        [(Fraction(BIG + 1, BIG), 2), (Fraction(BIG + 2, BIG), 2), (Fraction(BIG + 1, BIG), 2)],
        [(Fraction(1, BIG), 2), (Fraction(1, BIG + 1), 2), (Fraction(1, BIG) ** 2, 4)],
        [(0, 1)],
        [],
    ],
)
def test_max_constant_ties_and_near_ties(pairs):
    # near ties sit below the float screen's resolution; exact ties go to the first
    _assert_same_max([_rec(Fraction(ratio), exponent) for ratio, exponent in pairs])


@given(
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
    st.fractions(min_value=0, max_value=50, max_denominator=30).filter(bool),
)
def test_record_satisfied_is_lhs_at_most_rhs(lhs, rhs):
    assert harness._record(1, "[1]", "(1)", _pair(lhs), _pair(rhs), 1).satisfied == (lhs <= rhs)


_WIDE = st.integers(min_value=-(10**40), max_value=10**40)


@given(
    st.one_of(st.just(0), _WIDE),
    st.integers(min_value=1, max_value=10**40),
    st.integers(min_value=1, max_value=10**40),
    st.integers(min_value=1, max_value=10**40),
    st.integers(min_value=1, max_value=10**6),
)
@example(0, 7, 3, 5, 1)
@example(6, 35, 10, 21, 1)
@example(5, 3, 5, 3, 1)
def test_record_ratio_equals_fraction_division(ln, ld, rn, rd, scale):
    """The integer ratio is the coprime pair of lhs / rhs, signs and zeros included."""
    lhs, rhs = Fraction(ln, ld), Fraction(rn * scale, rd)
    rec = harness._record(1, "[1]", "(1)", _pair(lhs), _pair(rhs), 1)
    ratio = lhs / rhs
    assert rec.lhs == (lhs.numerator, lhs.denominator)
    assert rec.implied_constant == (ratio.numerator, ratio.denominator)
    assert type(rec.implied_constant) is Rational
    assert rec.satisfied == (lhs <= rhs)


@pytest.mark.parametrize("name", list(SWEEPS))
def test_every_rational_field_is_a_coprime_pair(name):
    """Every sweep at its smallest golden n: each Rational in lowest terms, denominator > 0."""
    n = min(row[1] for row in GOLDEN if row[0] == name)
    kind = SWEEPS[name].record
    hints = get_type_hints(kind)
    rational = [name for name in kind._fields if hints[name] is Rational]
    assert rational
    result = getattr(harness, SWEEPS[name].function)(n)
    records = [rec for recs in result.sections.values() for rec in recs]
    assert records
    for rec in records:
        for field in rational:
            value = getattr(rec, field)
            assert type(value) is Rational
            num, den = value
            assert type(num) is int and type(den) is int
            assert den > 0 and gcd(num, den) == 1, (rec, field)


def test_sweep_result_properties():
    result = SweepResult("demo", 3, {"records": [1, 2]}, {"violations": 5})
    assert result.records == [1, 2]
    assert result.violations == 5
