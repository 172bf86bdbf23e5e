"""Sweep drivers: frozen record values, budgets, and summaries."""

import io
import json
from fractions import Fraction

import pytest

from hookchar import (
    BoundRecord,
    Partition,
    SweepResult,
    compression_stats,
    sharpness_rectangles,
    sweep_compression,
    sweep_excited_bounds,
    sweep_sharpness,
    sweep_skew_bound,
    sweep_thm_diag,
    sweep_thm_main,
    verify_orthogonality,
)
from hookchar import harness
from hookchar.harness import SWEEPS, _max_constant, root_approx, root_greater
from hookchar.partitions import parse_partition


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
    assert diag.lhs == 120
    assert diag.implied_constant == 0
    off = _pick(result.records, "[3,2]", "[4,1]")
    assert off.lhs == 0 and off.rhs == 0 and off.satisfied


# ----------------------------------------------------------- character sweeps


def test_thm_main_worked_record():
    result = sweep_thm_main(5)
    rec = _pick(result.records, "[3,2]", "(3,1,1)")
    assert rec.lhs == Fraction(1, 25)
    assert rec.rhs == Fraction(8192, 15625)
    assert rec.implied_constant == Fraction(625, 8192)
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
    assert rec.rhs == Fraction(1, 4)
    with pytest.raises(ValueError):
        sweep_thm_main(5, balanced=Fraction(-1))


def test_thm_diag_sweep():
    result = sweep_thm_diag(6)
    assert len(result.records) == 121
    assert result.violations == 0
    rec = _pick(sweep_thm_diag(5).records, "[3,2]", "(3,1,1)")
    assert rec.lhs == 1
    assert rec.rhs == 256
    assert rec.exponent == 1


# ---------------------------------------------------------------- skew sweeps


def test_skew_bound_smallest_case():
    result = sweep_skew_bound(2)
    rec = _pick(result.records, "[2]", "[1]")
    assert rec.lhs == 1 and rec.rhs == 1 and rec.satisfied
    assert rec.exponent == 2


def test_skew_bound_summary_keys():
    result = sweep_skew_bound(6)
    assert result.summary["hard"] is False
    assert result.summary["violations"] == 0
    assert 0 < result.summary["satisfied_at_c1"] <= len(result.records)
    assert result.summary["max_constant"]["ratio"] > 0
    assert all(r.rhs > 0 for r in result.records)


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
    assert rec.ratio == Fraction(1, 42)
    assert rec.satisfied is True


def test_sharpness_case2_reported_not_asserted():
    rec = sharpness_rectangles(4, 4, 4)
    assert (rec.case, rec.mu) == (2, "[2,2]")
    assert rec.satisfied is None
    assert rec.rhs == rec.ratio * 2**4


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


# ---------------------------------------------------------------- compression


def test_compression_level_one_is_exact():
    records, summary = compression_stats(Partition((4, 2, 1)), 1)
    assert len(records) == 1
    assert records[0].p == records[0].pl == records[0].a == 1
    assert summary["tv"] == 0
    assert summary["p_total_ok"]


def test_compression_two_one_level_two():
    records, summary = compression_stats(Partition((2, 1)), 2)
    assert {r.mu for r in records} == {"[2]", "[1,1]"}
    for rec in records:
        assert rec.p == Fraction(1, 2)
        assert rec.a == 1
    assert summary["tv"] == 0
    assert summary["max_a_dev"] == 0


def test_compression_counts_escaping_mass():
    records, summary = compression_stats(Partition((1, 1, 1, 1)), 2)
    row = next(r for r in records if r.mu == "[2]")
    col = next(r for r in records if r.mu == "[1,1]")
    assert not row.contained and row.p == 0 and row.satisfied
    assert col.contained and col.p == 1 and col.a == 2
    assert summary["p_total"] == 1
    assert summary["tv"] == Fraction(1, 2)
    assert summary["max_a_dev"] == 1
    assert summary["all_bounded"]


def test_compression_rejects_bad_level():
    with pytest.raises(ValueError):
        compression_stats(Partition((2, 1)), 0)
    with pytest.raises(ValueError):
        compression_stats(Partition((2, 1)), 4)


def test_compression_sweep():
    result = sweep_compression(5)
    assert len(result.records) == 206
    assert result.violations == 0
    assert result.summary["plancherel_normalized"] is True
    assert result.summary["levels_with_bad_total"] == 0
    assert 0 < result.summary["max_tv"] < 1


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
def test_every_sweep_maps_through_mapper(name):
    calls = []

    def mapper(fn, items):
        calls.append(len(items))
        return map(fn, items)

    sweep = getattr(harness, SWEEPS[name].function)
    mapped = sweep(3, None, mapper)
    assert calls and calls[0] > 0
    assert mapped == sweep(3)
    assert all(
        type(rec) is SWEEPS[name].record
        for records in mapped.sections.values()
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
    assert root_approx(Fraction(8), 3) == pytest.approx(2.0)
    assert root_approx(Fraction(0), 5) == 0.0


def _rec(ratio, exponent):
    return BoundRecord(1, "[1]", "(1)", ratio, Fraction(1), ratio, exponent, True)


def test_max_constant_compares_across_exponents():
    best = _max_constant([_rec(Fraction(4), 2), _rec(Fraction(3), 1)])
    assert best["ratio"] == 3 and best["exponent"] == 1
    best = _max_constant([_rec(Fraction(0), 1), _rec(Fraction(9), 2)])
    assert best["ratio"] == 9 and best["exponent"] == 2
    empty = _max_constant([_rec(Fraction(0), 1)])
    assert empty["ratio"] == 0 and empty["approx"] == 0.0


def test_sweep_result_properties():
    result = SweepResult("demo", 3, {"records": [1, 2]}, {"violations": 5})
    assert result.records == [1, 2]
    assert result.violations == 5
