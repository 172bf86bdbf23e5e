"""Shape primitives checked against brute-force recounts."""

import itertools
import math
from enum import IntEnum

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from hookchar import (
    CHAIN_CONSTANT_UPPER,
    Box,
    CycleType,
    Partition,
    bound_S_general,
    bound_S_row,
    bound_skew_general,
    build_thick_hook_decomposition,
    character_table,
    count_feasible_sequences,
    count_ribbon_tableaux,
    dim_hlf,
    enumerate_partitions,
    enumerate_subdiagrams,
    falling_factorial,
    format_cycle_type,
    format_partition,
    harness,
    hook_product,
    minimally_excited_row,
    parse_cycle_type,
    parse_partition,
    partitions,
    removable_ribbons,
    ribbon_tableaux,
    thick_hook,
)
from hookchar.config import Config
from hookchar.partitions import DEFAULT_PARTITION_CAP, _column_counts, _corners, young_lattice

from conftest import all_shapes, partitions_st
from oracles import column_counts_by_sum

# number of partitions of 0..16
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231]


@pytest.mark.parametrize(
    "parts",
    [(0,), (-1,), (1, 2), (2, 1, 3), (True,), (2.0,), ("2",)],
)
def test_partition_rejects_bad_parts(parts):
    with pytest.raises((ValueError, TypeError)):
        Partition(parts)


@pytest.mark.parametrize("value", [0, -1, 1.0, True, "3"])
def test_partition_and_cycle_type_name_a_bad_entry(value):
    with pytest.raises(ValueError) as part:
        Partition((4, 2, value))
    assert str(part.value) == f"part 3 is {value!r}, expected a positive integer"
    with pytest.raises(ValueError) as cycle:
        CycleType((2, 5, value))
    assert str(cycle.value) == f"cycle 3 is {value!r}, expected a positive integer"


def test_partition_names_the_first_increase_before_a_later_bad_part():
    with pytest.raises(ValueError, match=r"^parts increase at position 2: 3 < 5$"):
        Partition((3, 5, 0))
    assert CycleType((3, 5, 1)).lengths == (3, 5, 1)


def test_int_subclass_entries_are_accepted():
    class Size(IntEnum):
        ONE = 1
        THREE = 3

    lam, alpha = Partition([Size.THREE, Size.ONE]), CycleType([Size.ONE, Size.THREE])
    assert lam.parts == (3, 1)
    assert alpha.lengths == (1, 3)
    # stored as plain ints, so the text is the same on every Python: 3.10's str(Size.THREE) is "Size.THREE"
    assert all(type(entry) is int for entry in lam.parts + alpha.lengths)
    assert str(lam) == "[3,1]"
    assert str(alpha) == "(1,3)"
    assert lam == Partition((3, 1)) and hash(lam) == hash(Partition((3, 1)))


def test_part_indexing_past_end_is_zero():
    p = Partition((5, 2))
    assert [p.part(i) for i in (1, 2, 3, 99)] == [5, 2, 0, 0]
    assert len(p) == 2
    assert p.n == 7


@pytest.mark.parametrize(
    "parts, conj",
    [
        ((), ()),
        ((1,), (1,)),
        ((5, 5, 5, 2), (4, 4, 3, 3, 3)),
        ((7, 5, 4, 2, 1), (5, 4, 3, 3, 2, 1, 1)),
    ],
)
def test_conjugate_fixed_values(parts, conj):
    assert Partition(parts).conjugate().parts == conj


@given(partitions_st(max_part=30, max_len=30))
@example(Partition(()))
@example(Partition((1,) * 20))
@example(Partition((20,)))
def test_column_counts_in_one_pass_equal_one_count_per_column(p):
    assert _column_counts(p.parts) == column_counts_by_sum(p.parts)


@given(partitions_st())
def test_conjugate_is_an_involution(p):
    q = p.conjugate()
    assert q.conjugate() == p
    assert q.n == p.n
    # brute-force column count
    assert q.parts == tuple(
        sum(1 for part in p.parts if part >= j) for j in range(1, p.part(1) + 1)
    )


def _hook_by_scanning(p, box):
    arm = sum(1 for j in range(box.col + 1, p.part(box.row) + 1))
    leg = sum(1 for i in range(box.row + 1, len(p) + 1) if p.part(i) >= box.col)
    return arm + leg + 1


@given(partitions_st())
def test_hooks_match_box_scanning(p):
    hooks = 1
    for box in p.boxes():
        h = p.hook_length(box)
        assert h == _hook_by_scanning(p, box) == hook_product(p, [box])
        assert 1 <= h <= p.max_hook
        hooks *= h
    assert math.factorial(p.n) % hooks == 0
    assert dim_hlf(p) == math.factorial(p.n) // hooks


def test_hook_table_of_small_shape():
    p = Partition((3, 2))
    table = {(b.row, b.col): p.hook_length(b) for b in p.boxes()}
    assert table == {(1, 1): 4, (1, 2): 3, (1, 3): 1, (2, 1): 2, (2, 2): 1}


def test_hook_outside_shape_raises():
    with pytest.raises(ValueError):
        Partition((3, 2)).hook_length(Box(2, 3))


def test_max_hook_is_corner_hook():
    p = Partition((5, 5, 5, 2))
    assert p.max_hook == 8 == p.hook_length(Box(1, 1))
    assert Partition(()).max_hook == 0


@pytest.mark.parametrize(
    "parts, delta",
    [((), 0), ((1,), 1), ((9,), 1), ((5, 5, 5, 2), 3),
     ((24, 19, 14, 12, 11, 10, 9, 7, 6, 3, 1), 7)],
)
def test_diagonal_length(parts, delta):
    assert Partition(parts).diagonal_length == delta


def test_corners_of_worked_example():
    corners = Partition((9, 5, 5, 4, 2, 1, 1)).corners()
    assert len(corners) == 5
    assert corners == [Box(1, 9), Box(3, 5), Box(4, 4), Box(5, 2), Box(7, 1)]


@pytest.mark.parametrize("n", range(13))
def test_shapes_one_corner_below_are_the_subdiagrams_one_box_smaller(n):
    # enumerate_subdiagrams walks rows under bounds (_walk), sharing nothing with _corners
    for lam in enumerate_partitions(n):
        removed = _corners(lam.parts)
        below = [parts for _, parts in removed]
        assert len(set(below)) == len(below)
        assert set(below) == {mu.parts for mu in enumerate_subdiagrams(lam, n - 1)}
        corners = lam.corners()
        assert [box.row for box in corners] == [i for i, _ in removed] == sorted(box.row for box in corners)
        for box, parts in zip(corners, below):
            assert set(lam.boxes()) - set(Partition(parts).boxes()) == {box}


@given(partitions_st())
def test_corners_are_removable_and_bounded(p):
    corners = p.corners()
    assert len(corners) <= 2 * p.diagonal_length or p.n == 0
    for box in corners:
        assert box.col == p.part(box.row)
        shrunk = tuple(
            part - 1 if i == box.row - 1 else part
            for i, part in enumerate(p.parts)
        )
        Partition(tuple(part for part in shrunk if part > 0))


@given(partitions_st())
def test_partition_text_round_trip(p):
    assert parse_partition(format_partition(p)) == p


@pytest.mark.parametrize("text", ["[3,2", "3,2]", "[3,,2]", "[a]", "[3 2]", "[2,3]"])
def test_parse_partition_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_partition(text)


def test_parse_names_the_entry_of_a_digit_int_refuses():
    with pytest.raises(ValueError, match=r"^partition entry 2: '²' is not a positive integer$"):
        parse_partition("[3,²]")


def test_parse_partition_whitespace_and_empty():
    assert parse_partition(" [ 5 , 5 , 5 , 2 ] ") == Partition((5, 5, 5, 2))
    assert parse_partition("[]") == Partition(())


@given(st.integers(0, 40), st.integers(0, 40))
def test_falling_factorial_matches_perm(n, k):
    if k > n:
        with pytest.raises(ValueError):
            falling_factorial(n, k)
    else:
        assert falling_factorial(n, k) == math.perm(n, k)


def test_falling_factorial_rejects_negative():
    with pytest.raises(ValueError):
        falling_factorial(5, -1)


def test_enumeration_counts_match_partition_numbers():
    for n, expected in enumerate(PARTITION_COUNTS):
        shapes = list(enumerate_partitions(n))
        assert len(shapes) == expected
        assert len(set(shapes)) == expected
        assert all(p.n == n for p in shapes)


def test_enumeration_is_reverse_lexicographic():
    shapes = [p.parts for p in enumerate_partitions(6)]
    assert shapes[0] == (6,)
    assert shapes[-1] == (1,) * 6
    assert shapes == sorted(shapes, reverse=True)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        list(enumerate_partitions(41))


@pytest.mark.parametrize("n", range(13))
def test_lattice_nodes_run_size_by_size_in_enumeration_order(n):
    lattice = young_lattice(n)
    shapes = list(all_shapes(n))
    assert lattice.parts == tuple(p.parts for p in shapes)
    assert lattice.text == tuple(map(format_partition, shapes))
    assert lattice.size == tuple(p.n for p in shapes)
    assert lattice.index == {p.parts: node for node, p in enumerate(shapes)}
    for k in range(n + 1):
        level = lattice.parts[lattice.start[k] : lattice.start[k + 1]]
        assert level == tuple(p.parts for p in enumerate_partitions(k))


@pytest.mark.parametrize("n", range(1, 13))
def test_a_shape_has_one_id_in_every_lattice(n):
    big = young_lattice(n)
    for k in range(n):
        small = young_lattice(k)
        assert big.parts[: len(small.parts)] == small.parts
        assert all(big.index[parts] == node for parts, node in small.index.items())


@pytest.mark.parametrize("n", range(13))
def test_lattice_rank_is_the_order_of_the_texts(n):
    lattice = young_lattice(n)
    assert sorted(lattice.rank) == list(range(len(lattice.parts)))
    by_rank = sorted(range(len(lattice.parts)), key=lattice.rank.__getitem__)
    assert [lattice.text[node] for node in by_rank] == sorted(lattice.text)


@pytest.mark.parametrize("n", range(13))
def test_lattice_down_removes_each_corner(n):
    lattice = young_lattice(n)
    for node, parts in enumerate(lattice.parts):
        below = []
        for i, j in Partition(parts).corners():
            rows = list(parts)
            rows[i - 1] = j - 1
            below.append(tuple(r for r in rows if r))
        assert [lattice.parts[mu] for mu in lattice.down[node]] == below


@pytest.mark.parametrize("n", range(13))
def test_lattice_conjugate_is_the_conjugate_shape(n):
    lattice = young_lattice(n)
    conjugate = lattice.conjugate
    assert len(conjugate) == len(lattice.parts)
    for node, parts in enumerate(lattice.parts):
        assert conjugate[conjugate[node]] == node
        assert lattice.parts[conjugate[node]] == Partition(parts).conjugate().parts
        assert (conjugate[node] == node) == (Partition(parts).conjugate().parts == parts)


def test_smallest_lattices():
    assert young_lattice(0).parts == ((),)
    assert young_lattice(0).down == ((),)
    assert young_lattice(0).start == (0, 1)
    one = young_lattice(1)
    assert one.parts == ((), (1,))
    assert one.down == ((), (0,))
    assert one.text == ("[]", "[1]")
    assert one.rank == (1, 0)  # "[1]" sorts before "[]"
    assert one.start == (0, 1, 2)
    assert one.conjugate == (0, 1)


def test_lattice_size_limits():
    with pytest.raises(ValueError):
        young_lattice(-1)
    with pytest.raises(ValueError):
        young_lattice(DEFAULT_PARTITION_CAP + 1)


def test_subdiagrams_of_square():
    subs = [p.parts for p in enumerate_subdiagrams(Partition((2, 2)))]
    assert subs == [(2, 2), (2, 1), (2,), (1, 1), (1,), ()]


@pytest.mark.parametrize("n", range(1, 8))
def test_subdiagrams_match_containment_filter(n):
    for lam in enumerate_partitions(n):
        subs = set(enumerate_subdiagrams(lam))
        brute = {
            mu
            for k in range(n + 1)
            for mu in enumerate_partitions(k)
            if lam.contains(mu)
        }
        assert subs == brute


@pytest.mark.parametrize("n", range(9))
def test_subdiagrams_are_reverse_lexicographic(n):
    for lam in enumerate_partitions(n):
        inside = [
            mu.parts for k in range(n + 1) for mu in enumerate_partitions(k) if lam.contains(mu)
        ]
        assert [mu.parts for mu in enumerate_subdiagrams(lam)] == sorted(inside, reverse=True)
        for size in range(-1, n + 2):
            expected = sorted((mu for mu in inside if sum(mu) == size), reverse=True)
            assert [mu.parts for mu in enumerate_subdiagrams(lam, size)] == expected


def test_subdiagrams_of_tall_shapes_need_no_recursion():
    column = Partition((1,) * 1200)
    assert [len(mu) for mu in enumerate_subdiagrams(column, 1198)] == [1198]
    assert sum(1 for _ in enumerate_subdiagrams(column)) == 1201


def test_subdiagrams_size_filter():
    lam = Partition((3, 2))
    subs = list(enumerate_subdiagrams(lam, size=2))
    assert {p.parts for p in subs} == {(2,), (1, 1)}


def test_contains_and_box_membership():
    lam = Partition((3, 2))
    assert lam.contains(Partition((2, 2)))
    assert not lam.contains(Partition((1, 1, 1)))
    assert Box(2, 2) in lam
    assert Box(2, 3) not in lam


@pytest.mark.parametrize(
    "box,inside",
    [
        ((1, 1), True), (Box(2, 2), True), ((1, 3), True), ([2, 1], True),
        ((2, 3), False), ((3, 1), False), ((0, 1), False), ((1, 0), False), ((-1, -1), False),
        ((1, 2.5), False), ((1.0, 1), True), ((True, 1), True),  # equal numbers are one box
        ((1,), False), ((1, 1, 1), False), ((), False),
    ],
)
def test_box_membership_is_the_hook_table_rule(box, inside):
    lam = Partition((3, 2))
    assert (box in lam) is inside
    if inside:
        assert partitions._boxes_inside(lam, [box]) == [tuple(box)]
    else:
        with pytest.raises(ValueError, match="lies outside"):
            partitions._boxes_inside(lam, [box])


def test_box_membership_is_the_box_set_on_a_grid():
    for lam in all_shapes(7):
        boxes = set(lam.boxes())
        for box in itertools.product(range(-1, 9), repeat=2):
            assert (box in lam) == (box in boxes), (lam, box)


@given(partitions_st(max_part=4, max_len=4), partitions_st(max_part=4, max_len=4))
@example(Partition((3, 2)), Partition((1, 1, 1)))
@example(Partition(), Partition((1,)))
@example(Partition((2,)), Partition())
@example(Partition(), Partition())
@example(Partition((3, 1)), Partition((3, 1)))
def test_contains_is_box_set_inclusion(outer, inner):
    assert outer.contains(inner) == (set(inner.boxes()) <= set(outer.boxes()))


# ----------------------------------------------------------------- CycleType


def test_cycle_type_statistics():
    alpha = CycleType((3, 1, 1))
    assert alpha.n == 5
    assert alpha.cyc == 3
    assert alpha.supp == 3
    assert alpha.word_length == 2
    assert alpha.cyc_j(1) == 2 and alpha.cyc_j(3) == 1 and alpha.cyc_j(2) == 0
    assert alpha.centralizer_order == 6
    assert alpha.class_size() == 20
    assert not alpha.is_identity()
    assert CycleType((1, 1, 1)).is_identity()


@pytest.mark.parametrize("lengths", [(0,), (-2,), (1.5,)])
def test_cycle_type_rejects_bad_lengths(lengths):
    with pytest.raises((ValueError, TypeError)):
        CycleType(lengths)


@pytest.mark.parametrize("n", range(1, 13))
def test_class_sizes_sum_to_group_order(n):
    total = sum(CycleType(p.parts).class_size() for p in enumerate_partitions(n))
    assert total == math.factorial(n)


def test_cycle_type_text_round_trip():
    alpha = parse_cycle_type("(3,1,1)")
    assert alpha == CycleType((3, 1, 1))
    assert format_cycle_type(alpha) == "(3,1,1)"
    assert parse_cycle_type("()") == CycleType(())


def test_sorted_desc_reorders():
    assert CycleType((1, 3, 2)).sorted_desc() == CycleType((3, 2, 1))


def test_all_shapes_helper_is_exhaustive():
    shapes = list(all_shapes(4))
    assert len(shapes) == sum(PARTITION_COUNTS[:5])


# Every integer argument that partitions._check_int checks: the call taking the value, the
# argument's name in the message, a float, and an int outside the argument's range.
_STAIRCASE = Partition((4, 3, 2, 1))  # n = 10, max hook 7, two diagonal hooks, one thick hook at a = 7
INT_ARGUMENTS = {
    "Config budget": (lambda v: Config(budgets={"thm-main": v}), "thm-main", 3.0, 0),
    "Config oracle_cap": (lambda v: Config(oracle_cap=v), "oracle_cap", 3.0, 0),
    "count_feasible_sequences ell": (
        lambda v: count_feasible_sequences(_STAIRCASE, build_thick_hook_decomposition(_STAIRCASE, 7), v),
        "ell", 2.0, 5,
    ),
    "bound_S_row ell": (lambda v: bound_S_row(_STAIRCASE, v), "ell", 1.5, 0),
    "bound_S_general a": (lambda v: bound_S_general(_STAIRCASE, v, 2), "a", 7.5, 6),
    "bound_S_general ell": (lambda v: bound_S_general(_STAIRCASE, 7, v), "ell", 2.0, 5),
    "bound_skew_general n": (lambda v: bound_skew_general(v, 1, 3, CHAIN_CONSTANT_UPPER), "n", 9.0, 0),
    "bound_skew_general k": (lambda v: bound_skew_general(9, v, 3, CHAIN_CONSTANT_UPPER), "k", 2.5, 10),
    "bound_skew_general s": (lambda v: bound_skew_general(9, 4, v, CHAIN_CONSTANT_UPPER), "s", 2.5, 0),
    "minimally_excited_row counts": (
        lambda v: minimally_excited_row(_STAIRCASE, build_thick_hook_decomposition(_STAIRCASE, 7), (v,)),
        "ell_vec[0]", 1.0, -1,
    ),
    "build_thick_hook_decomposition a": (
        lambda v: build_thick_hook_decomposition(Partition((3, 3, 3)), v), "a", 5.5, 4,
    ),
    "thick_hook j": (lambda v: thick_hook(_STAIRCASE, v, 2), "j", 1.0, 0),
    "thick_hook k": (lambda v: thick_hook(_STAIRCASE, 1, v), "k", 2.0, 3),
    "sweep n": (lambda v: harness.sweep_sharpness(v), "n", 3.0, -1),
    "sweep budget": (lambda v: harness.sweep_sharpness(1, v), "budget", 3.0, -1),
    "stream n": (lambda v: harness._thm_main(v), "n", 3.0, -1),
    "sharpness_rectangles s_tilde": (lambda v: harness.sharpness_rectangles(v, 1, 1), "s_tilde", 2.0, 0),
    "sharpness_rectangles h": (lambda v: harness.sharpness_rectangles(3, v, 3), "h", 1.0, 4),
    "sharpness_rectangles k": (lambda v: harness.sharpness_rectangles(3, 1, v), "k", 3.0, 4),
    "compression_stats k": (lambda v: harness.compression_stats(Partition((2, 1)), v), "k", 2.0, 4),
    "enumerate_partitions n": (lambda v: list(enumerate_partitions(v)), "n", 2.5, DEFAULT_PARTITION_CAP + 1),
    "young_lattice n": (young_lattice, "n", 1.0, -1),
    "character_table n": (character_table, "n", 2.5, -1),
    "falling_factorial n": (lambda v: falling_factorial(v, 0), "n", 5.0, -1),
    "falling_factorial k": (lambda v: falling_factorial(5, v), "k", 1.0, 6),
    "enumerate_subdiagrams size": (lambda v: list(enumerate_subdiagrams(_STAIRCASE, v)), "size", 2.5, None),
    "removable_ribbons j": (lambda v: removable_ribbons(_STAIRCASE, v), "j", 1.0, 0),
    "count_ribbon_tableaux weight": (lambda v: count_ribbon_tableaux(Partition((2,)), (1, v)), "alpha[1]", 1.0, 0),
    "ribbon_tableaux weight": (lambda v: list(ribbon_tableaux(Partition((2,)), (1, v))), "alpha[1]", 1.0, 0),
}
_BAD_VALUES = [
    pytest.param(case, value, id=f"{label}={value!r}")
    for label, case in INT_ARGUMENTS.items()
    for value in (True, case[2], case[3])
    if value is not None  # an int size out of range gives enumerate_subdiagrams no shape, not an error
]


@pytest.mark.parametrize("case,value", _BAD_VALUES)
def test_every_integer_argument_refuses_a_bool_a_float_and_an_int_out_of_range(case, value):
    call, name, _, _ = case
    with pytest.raises(ValueError) as err:
        call(value)
    assert str(err.value).startswith(f"{name}={value!r} is not an integer"), str(err.value)


def test_the_integer_rule_message_names_the_argument_and_its_range():
    with pytest.raises(ValueError, match=r"^a=5\.5 is not an integer within 5\.\.9$"):
        build_thick_hook_decomposition(Partition((3, 3, 3)), 5.5)
    with pytest.raises(ValueError, match=r"^j=0 is not an integer at least 1$"):
        removable_ribbons(_STAIRCASE, 0)
    with pytest.raises(ValueError, match=r"^size=True is not an integer$"):
        list(enumerate_subdiagrams(_STAIRCASE, True))
    assert list(enumerate_subdiagrams(_STAIRCASE, -1)) == list(enumerate_subdiagrams(_STAIRCASE, 11)) == []


def test_a_negative_weight_adds_no_strip():
    # 3 + (-1) sums to 2, and peeling a strip of -1 would add a box: () -> [3] -> [2] and () -> [2,1] -> [2]
    with pytest.raises(ValueError, match=r"^alpha\[1\]=-1 is not an integer at least 1$"):
        count_ribbon_tableaux(Partition((2,)), (3, -1))
    with pytest.raises(ValueError, match=r"^alpha\[1\]=-1 is not an integer at least 1$"):
        list(ribbon_tableaux(Partition((2,)), (3, -1)))
    assert count_ribbon_tableaux(Partition((2,)), (1, 1)) == 1
