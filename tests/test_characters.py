"""Ribbon peeling and character values against independent recounts."""

import importlib.util
import itertools
import random
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from hookchar import characters
from hookchar import (
    Box,
    CharacterValue,
    CycleType,
    Partition,
    character_branching,
    character_mn,
    character_table,
    count_ribbon_tableaux,
    diag_cycle_bound,
    dim_hlf,
    enumerate_partitions,
    enumerate_subdiagrams,
    removable_ribbons,
    ribbon_tableaux,
    sigma_star,
)

from oracles import full_character_table, per_shape_branching, recursive_ribbon_chains


def test_worked_character_values():
    assert character_mn(Partition((3, 2)), CycleType((3, 1, 1))).value == -1
    assert character_mn(Partition((4, 3, 3)), CycleType((3, 3, 2, 1, 1))).value == 2


def test_normalized_value_and_dim():
    result = character_mn(Partition((3, 2)), CycleType((3, 1, 1)))
    assert result == CharacterValue(-1, Fraction(-1, 5))
    assert result.dim == 5


def test_dim_unavailable_on_zero_value():
    result = character_mn(Partition((3, 1)), CycleType((3, 1)))
    assert result.value == 0
    with pytest.raises(ValueError):
        result.dim


def test_weight_sum_mismatch_rejected():
    with pytest.raises(ValueError):
        character_mn(Partition((3, 2)), CycleType((3, 1)))
    with pytest.raises(ValueError):
        count_ribbon_tableaux(Partition((3, 2)), (3, 1))
    with pytest.raises(ValueError):
        list(ribbon_tableaux(Partition((3, 2)), (3, 1)))


def test_trivial_and_sign_columns():
    for n in range(1, 9):
        for alpha_shape in enumerate_partitions(n):
            alpha = CycleType(alpha_shape.parts)
            assert character_mn(Partition((n,)), alpha).value == 1
            sign = (-1) ** alpha.word_length
            assert character_mn(Partition((1,) * n), alpha).value == sign


def test_ribbon_tableau_counts_depend_on_order():
    lam = Partition((4, 3, 3))
    assert count_ribbon_tableaux(lam, (3, 3, 2, 1, 1)) == 12
    assert count_ribbon_tableaux(lam, (1, 3, 3, 2, 1)) == 2
    assert count_ribbon_tableaux(Partition((3, 2)), (3, 1, 1)) == 3


def test_tableau_listing_matches_count_and_sign():
    lam = Partition((4, 3, 3))
    alpha = (3, 3, 2, 1, 1)
    tableaux = list(ribbon_tableaux(lam, alpha))
    assert len(tableaux) == 12
    signs = [(-1) ** t.total_height for t in tableaux]
    assert sum(signs) == 2
    for tab in tableaux:
        assert tab.shape == lam
        assert tab.chain[0] == Partition(())
        assert tab.weight == alpha
        assert tuple(r.size for r in tab.ribbons) == alpha


def test_character_is_order_invariant():
    rng = random.Random(20260819)
    for n in range(2, 8):
        for lam in enumerate_partitions(n):
            for alpha_shape in enumerate_partitions(n):
                base = list(alpha_shape.parts)
                reference = character_mn(lam, CycleType(tuple(base))).value
                for _ in range(3):
                    rng.shuffle(base)
                    assert character_mn(lam, CycleType(tuple(base))).value == reference


def test_character_below_tableau_count():
    for n in range(2, 9):
        for lam in enumerate_partitions(n):
            for alpha_shape in enumerate_partitions(n):
                value = character_mn(lam, CycleType(alpha_shape.parts)).value
                assert abs(value) <= count_ribbon_tableaux(lam, alpha_shape.parts)


def test_identity_column_is_the_dimension():
    for n in range(1, 11):
        for lam in enumerate_partitions(n):
            assert character_mn(lam, CycleType((1,) * n)).value == dim_hlf(lam)


def test_conjugation_sign_twist():
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            for alpha_shape in enumerate_partitions(n):
                alpha = CycleType(alpha_shape.parts)
                plain = character_mn(lam, alpha).value
                flipped = character_mn(lam.conjugate(), alpha).value
                assert flipped == (-1) ** alpha.word_length * plain


# -------------------------------------------------------------------- ribbons


def test_worked_ribbon_peel():
    ribbons = removable_ribbons(Partition((7, 5, 4, 2, 1)), 6)
    assert len(ribbons) == 3
    for ribbon in ribbons:
        assert Box(3, 4) in ribbon.boxes
        assert ribbon.size == 6
        assert ribbon.height == 2


def test_row_shape_has_one_ribbon_per_size():
    for k in range(1, 7):
        ribbons = removable_ribbons(Partition((6,)), k)
        assert len(ribbons) == 1
        assert ribbons[0].height == 0
        assert ribbons[0].boxes == tuple(Box(1, j) for j in range(7 - k, 7))


def test_strip_size_must_be_positive():
    with pytest.raises(ValueError):
        removable_ribbons(Partition((3, 2)), 0)


def _has_square(cells):
    return any(
        Box(b.row + 1, b.col) in cells
        and Box(b.row, b.col + 1) in cells
        and Box(b.row + 1, b.col + 1) in cells
        for b in cells
    )


def _is_edge_connected(cells):
    start = next(iter(cells))
    stack = [start]
    seen = {start}
    while stack:
        r, c = stack.pop()
        for nb in (Box(r + 1, c), Box(r - 1, c), Box(r, c + 1), Box(r, c - 1)):
            if nb in cells and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen == cells


def _ribbons_by_box_sets(lam, j):
    """Brute force: j-subsets whose complement is a shape, connected, no 2x2."""
    found = []
    boxes = list(lam.boxes())
    for removed in itertools.combinations(boxes, j):
        removed_set = set(removed)
        counts = []
        for i in range(1, len(lam) + 1):
            kept = sorted(b.col for b in boxes if b.row == i and b not in removed_set)
            if kept != list(range(1, len(kept) + 1)):
                break
            counts.append(len(kept))
        else:
            if any(counts[i] < counts[i + 1] for i in range(len(counts) - 1)):
                continue
            if _has_square(removed_set) or not _is_edge_connected(removed_set):
                continue
            found.append(tuple(sorted(removed_set)))
    return sorted(found)


@pytest.mark.parametrize("n", range(1, 11))
def test_ribbons_match_box_set_search(n):
    for lam in enumerate_partitions(n):
        for j in range(1, n + 1):
            got = sorted(tuple(sorted(r.boxes)) for r in removable_ribbons(lam, j))
            assert got == _ribbons_by_box_sets(lam, j)


@pytest.mark.parametrize("n", range(1, 13))
def test_ribbon_count_within_peeling_bound(n):
    for lam in enumerate_partitions(n):
        delta = lam.diagonal_length
        for j in range(1, n + 1):
            assert len(removable_ribbons(lam, j)) <= 2 * delta * j


@pytest.mark.parametrize("n", range(2, 10))
def test_tableau_count_within_peeling_bound(n):
    for lam in enumerate_partitions(n):
        for alpha_shape in enumerate_partitions(n):
            bound = 1
            for j in alpha_shape.parts:
                bound *= 2 * lam.diagonal_length * j
            assert count_ribbon_tableaux(lam, alpha_shape.parts) <= bound


def test_ribbon_order_is_deterministic():
    ribbons = removable_ribbons(Partition((7, 5, 4, 2, 1)), 6)
    keys = [r.boxes for r in ribbons]
    assert keys == sorted(keys)


# ------------------------------------------------------------------ branching


def test_sigma_star_examples():
    assert sigma_star(CycleType((4, 2, 1, 1, 1))) == CycleType((4, 2))
    assert sigma_star(CycleType((2, 1, 1))) == CycleType((2,))
    assert sigma_star(CycleType((5,))) == CycleType((5,))
    assert sigma_star(CycleType((1, 3, 1, 2))) == CycleType((3, 2))
    with pytest.raises(ValueError):
        sigma_star(CycleType((1, 1, 1)))


def test_branching_matches_direct_computation():
    for n in range(2, 9):
        for lam in enumerate_partitions(n):
            for alpha_shape in enumerate_partitions(n):
                alpha = CycleType(alpha_shape.parts)
                if alpha.is_identity():
                    continue
                assert (
                    character_branching(lam, alpha).value
                    == character_mn(lam, alpha).value
                    == per_shape_branching(lam, alpha)
                ), (lam, alpha)


@cache
def _benchmark_queries():
    """bench/queries.py, the query batches of the point-queries benchmark."""
    path = Path(__file__).resolve().parents[1] / "bench" / "queries.py"
    spec = importlib.util.spec_from_file_location("bench_queries", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [0, 1])
def test_one_peel_branching_on_the_benchmark_char_queries(seed):
    # n = 30 shapes with one or two fixed points: several mu, whose levels share their strips
    queries = _benchmark_queries()
    checked = 0
    for query in queries.make_queries(seed, queries.FULL):
        if query.kind != "char":
            continue
        route, lam, alpha = query.second
        assert route is character_branching
        assert lam.n == 30
        assert character_branching(lam, alpha).value == per_shape_branching(lam, alpha), query.text
        checked += 1
    assert checked == queries.FULL["per_kind"]


@pytest.mark.parametrize(
    "side, star",
    [(10, (50,)), (10, (10, 10)), (8, (4, 4, 4, 4)), (6, (2, 2, 2, 2)), (5, (3, 2, 2))],
)
def test_branching_with_many_fixed_points(monkeypatch, side, star):
    # many mu inside the square, most with chi^mu(sigma*) = 0: only the others cost a determinant
    lam = Partition((side,) * side)
    alpha = CycleType(star + (1,) * (side * side - sum(star)))
    inner = []
    real = characters.skew_dim_det
    monkeypatch.setattr(characters, "skew_dim_det", lambda shape: inner.append(shape.inner.parts) or real(shape))
    assert character_branching(lam, alpha).value == character_mn(lam, alpha).value
    expected = [
        mu.parts for mu in enumerate_subdiagrams(lam, sum(star)) if character_mn(mu, CycleType(star)).value
    ]
    assert sorted(inner) == sorted(expected)
    assert star != (50,) or not inner  # no 50-hook fits in the 10 x 10 square


@pytest.mark.parametrize(
    "parts, star",
    [((10,) * 10, (50,)), ((10,) * 10, (20, 2)), ((3, 2, 1), (5,)), ((4, 1), (2, 2)), ((2, 2), (4,))],
)
def test_branching_skips_the_subdiagrams_when_a_cycle_outruns_every_hook(monkeypatch, parts, star):
    lam = Partition(parts)
    alpha = CycleType(star + (1,) * (lam.n - sum(star)))
    expected = character_mn(lam, alpha)
    listed = []
    real = characters.enumerate_subdiagrams
    monkeypatch.setattr(characters, "enumerate_subdiagrams", lambda *args: listed.append(args) or real(*args))
    assert character_branching(lam, alpha) == expected
    # a cycle longer than the largest hook of lam fits in no mu inside lam
    assert (listed == []) == (max(star) > lam.max_hook)
    assert max(star) <= lam.max_hook or expected.value == 0


def test_branching_rejects_identity():
    with pytest.raises(ValueError):
        character_branching(Partition((2, 1)), CycleType((1, 1, 1)))


def test_worked_branching_value():
    assert character_branching(Partition((3, 2)), CycleType((3, 1, 1))).value == -1


# ---------------------------------------------------------------- diag bound


def test_diag_bound_values():
    assert diag_cycle_bound(Partition((3, 2)), CycleType((3, 1, 1))) == 2**5 * 2**3
    assert (
        diag_cycle_bound(Partition((4, 3, 3)), CycleType((3, 3, 2, 1, 1)))
        == 2**10 * 3**5
    )
    assert diag_cycle_bound(Partition((5,)), CycleType((5,))) == 2**5


def test_diag_bound_dominates_characters():
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            for alpha_shape in enumerate_partitions(n):
                alpha = CycleType(alpha_shape.parts)
                value = abs(character_mn(lam, alpha).value)
                assert value <= diag_cycle_bound(lam, alpha)


@st.composite
def shape_and_ordered_weight(draw, max_n: int = 8):
    """A shape and a shuffled cycle type of its size, so 1s land anywhere."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    lam = draw(st.sampled_from(list(enumerate_partitions(n))))
    alpha = draw(st.sampled_from(list(enumerate_partitions(n))))
    return lam, tuple(draw(st.permutations(alpha.parts)))


@given(shape_and_ordered_weight())
def test_peel_agrees_with_enumerated_tableaux(case):
    lam, weights = case
    tableaux = list(ribbon_tableaux(lam, weights))
    assert count_ribbon_tableaux(lam, weights) == len(tableaux)
    signed = sum((-1) ** t.total_height for t in tableaux)
    assert signed == character_mn(lam, CycleType(weights)).value


def test_tableaux_walk_equals_the_recursive_walk():
    """Same chains in the same order, for every shape of n <= 7 and every order of every weight."""
    for n in range(8):
        for lam in enumerate_partitions(n):
            for alpha in enumerate_partitions(n):
                # every distinct order: sorted, reversed, as given and the rest
                for weights in sorted(set(itertools.permutations(alpha.parts))):
                    chains = [tuple(p.parts for p in t.chain) for t in ribbon_tableaux(lam, weights)]
                    assert chains == recursive_ribbon_chains(lam.parts, weights), (lam, weights)


def test_tableaux_walk_does_not_recurse_per_weight_entry():
    """A 1200-box row has one standard filling; a walk one frame per entry overflows the stack."""
    row = Partition((1200,))
    tableaux = list(ribbon_tableaux(row, (1,) * 1200))
    assert len(tableaux) == 1 == count_ribbon_tableaux(row, (1,) * 1200)
    assert [p.parts for p in tableaux[0].chain] == [(i,) if i else () for i in range(1201)]


@st.composite
def larger_shape_and_moving_class(draw):
    """A shape of size 9..12, past the exhaustive check, and a shuffled
    non-identity cycle type of its size."""
    n = draw(st.integers(min_value=9, max_value=12))
    lam = draw(st.sampled_from(list(enumerate_partitions(n))))
    alpha = draw(st.sampled_from([p for p in enumerate_partitions(n) if p.parts[0] > 1]))
    return lam, CycleType(tuple(draw(st.permutations(alpha.parts))))


@settings(max_examples=400)
@given(larger_shape_and_moving_class())
def test_branching_agrees_with_mn_beyond_exhaustive(case):
    lam, alpha = case
    assert character_branching(lam, alpha) == character_mn(lam, alpha)


# ----------------------------------------------------------- character table


@cache
def _table(n):
    return character_table(n)


@pytest.mark.parametrize("n", range(13))
def test_table_matches_peeling_entry_by_entry(n):
    parts = [p.parts for p in enumerate_partitions(n)]
    table = _table(n)
    assert list(table) == parts
    for alpha, column in table.items():
        assert list(column) == parts
        for lam, value in column.items():
            assert value == character_mn(Partition(lam), CycleType(alpha)).value


@st.composite
def shape_and_class(draw):
    """A shape of size up to 16 and a shuffled cycle type of its size."""
    n = draw(st.integers(min_value=0, max_value=16))
    lam = draw(st.sampled_from(list(enumerate_partitions(n))))
    alpha = draw(st.sampled_from(list(enumerate_partitions(n))))
    return lam, CycleType(tuple(draw(st.permutations(alpha.parts))))


@settings(max_examples=300)
@given(shape_and_class())
def test_table_entry_agrees_with_both_routes(case):
    lam, alpha = case
    value = _table(lam.n)[alpha.sorted_desc().lengths][lam.parts]
    assert value == character_mn(lam, alpha).value
    if lam.n <= 10 and not alpha.is_identity():
        assert value == character_branching(lam, alpha).value


@pytest.mark.parametrize("n", range(11))
def test_table_columns_are_orthogonal(n):
    """Second orthogonality: sum over lam of ch^lam(a) ch^lam(b) = [a = b] z_a."""
    table = _table(n)
    for alpha, column in table.items():
        for beta, other in table.items():
            total = sum(column[lam] * other[lam] for lam in column)
            assert total == (CycleType(alpha).centralizer_order if alpha == beta else 0)


@pytest.mark.parametrize("n", range(15))
def test_half_table_equals_the_full_trie(n):
    """One shape per conjugate pair in the trie; the table, keys and order too, equals the full trie's."""
    table, full = _table(n), full_character_table(n)
    assert table == full
    assert list(table) == list(full)
    assert all(list(table[alpha]) == list(full[alpha]) for alpha in full)


@pytest.mark.parametrize("n", range(13))
def test_table_conjugate_is_the_sign_twist(n):
    """chi^{lam'}(alpha) = sgn(alpha) chi^lam(alpha) on every entry."""
    for alpha, column in _table(n).items():
        sign = (-1) ** (n - len(alpha))
        for lam, value in column.items():
            assert column[Partition(lam).conjugate().parts] == sign * value
