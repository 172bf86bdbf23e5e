"""Four skew-dimension routes against each other and a filling counter."""

import itertools
import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from hookchar import (
    Partition,
    SkewShape,
    dim_hlf,
    enumerate_partitions,
    enumerate_subdiagrams,
    skew_dim_det,
    skew_dim_naruse,
    skew_dim_oracle,
    skew_dims,
)
from hookchar import characters, decompositions, dimensions, excited, harness, output, partitions
from hookchar.dimensions import _bareiss_det, lattice_skew_dims
from hookchar.partitions import young_lattice

from conftest import all_shapes, partitions_st
from oracles import box_walk, loop_bareiss_det

KNOWN_DIMS = [
    ((), 1),
    ((1,), 1),
    ((5,), 1),
    ((1, 1, 1, 1), 1),
    ((2, 1), 2),
    ((2, 2), 2),
    ((3, 2), 5),
    ((3, 3, 3), 42),
    ((4, 3, 3), 210),
    ((5, 5, 5, 2), 291720),
]


@pytest.mark.parametrize("parts, expected", KNOWN_DIMS)
def test_known_dimensions(parts, expected):
    assert dim_hlf(Partition(parts)) == expected


def _fillings_by_brute_force(outer, inner):
    """Count standard fillings literally; usable only for tiny shapes."""
    cells = [
        (i, j)
        for i in range(1, len(outer) + 1)
        for j in range(inner.part(i) + 1, outer.part(i) + 1)
    ]
    count = 0
    for perm in itertools.permutations(range(1, len(cells) + 1)):
        fill = dict(zip(cells, perm))
        ok = all(
            fill.get((i, j - 1), 0) < v and fill.get((i - 1, j), 0) < v
            for (i, j), v in fill.items()
            if (i, j - 1) in fill or (i - 1, j) in fill
        )
        count += ok
    return count


@pytest.mark.parametrize("n", range(6))
def test_plain_dimension_matches_literal_fillings(n):
    empty = Partition(())
    for lam in enumerate_partitions(n):
        assert dim_hlf(lam) == _fillings_by_brute_force(lam, empty)


def test_skew_routes_match_literal_fillings():
    for outer_parts, inner_parts in [
        ((3, 2), (1,)),
        ((3, 3), (2, 1)),
        ((4, 2, 1), (2,)),
        ((3, 2, 1), (2, 1)),
    ]:
        shape = SkewShape(Partition(outer_parts), Partition(inner_parts))
        brute = _fillings_by_brute_force(shape.outer, shape.inner)
        assert skew_dim_det(shape) == brute
        assert skew_dim_oracle(shape) == brute


def test_worked_skew_dimension():
    shape = SkewShape(Partition((5, 5, 5, 2)), Partition((3, 2, 1, 1)))
    assert skew_dim_det(shape) == 1230
    assert skew_dim_oracle(shape) == 1230


@pytest.mark.parametrize("n", range(1, 8))
def test_det_equals_oracle_exhaustively(n):
    for lam in enumerate_partitions(n):
        for mu in enumerate_subdiagrams(lam):
            shape = SkewShape(lam, mu)
            assert skew_dim_det(shape) == skew_dim_oracle(shape)


def _falling_factorial_det(outer, inner) -> int:
    """size! det[1/(b_i - c_j)!] with row i scaled by b_i!: falling-factorial entries."""
    r = len(outer)
    inner = inner + (0,) * (r - len(inner))
    b = [outer[i] + r - 1 - i for i in range(r)]
    c = [inner[j] + r - 1 - j for j in range(r)]
    mat = [[math.perm(bi, cj) if cj <= bi else 0 for cj in c] for bi in b]
    det = dimensions._bareiss_det(mat) if r else 1
    scale = math.prod(map(math.factorial, b))
    value, rem = divmod(math.factorial(sum(outer) - sum(inner)) * det, scale)
    assert rem == 0
    return value


@pytest.mark.parametrize("n", range(10))
def test_lattice_table_equals_det_exhaustively(n):
    # the binomial determinant against the table and the falling-factorial one
    for lam in enumerate_partitions(n):
        table = skew_dims(lam)
        subdiagrams = [mu.parts for mu in enumerate_subdiagrams(lam)]
        assert sorted(table) == sorted(subdiagrams)
        for mu in subdiagrams:
            value = skew_dim_det(SkewShape(lam, Partition(mu)))
            assert value == table[mu] == _falling_factorial_det(lam.parts, mu)


@pytest.mark.parametrize("n", range(10))
def test_trimmed_determinant_equals_untrimmed(n):
    # skew_dim_det drops the rows at either end where outer and inner agree;
    # _scaled_det gives the binomial determinant and its scale prod b_i!/c_i!
    for lam in enumerate_partitions(n):
        for mu in enumerate_subdiagrams(lam):
            inner = mu.parts + (0,) * (len(lam) - len(mu))
            det, den = dimensions._scaled_det(lam.parts, inner)
            full = math.factorial(n - mu.n) * det
            assert full % den == 0
            assert skew_dim_det(SkewShape(lam, mu)) == full // den


def test_tall_skew_shapes():
    # one column of k boxes in k rows: the trim keeps every row
    for k in (40, 80):
        assert skew_dim_det(SkewShape(Partition((2,) * k), Partition((1,) * k))) == 1
    for k in range(1, 13):
        table = skew_dims(Partition((2,) * k))
        for j in range(k + 1):
            shape = SkewShape(Partition((2,) * k), Partition((1,) * j))
            assert skew_dim_det(shape) == table[(1,) * j]


# Every shape of size <= 14, which keeps each skew shape within the oracle cap.
SHAPES_TO_14 = list(all_shapes(14))


@st.composite
def _shape_pairs(draw):
    """A shape lam with |lam| <= 14 and a shape mu inside it."""
    lam = draw(st.sampled_from(SHAPES_TO_14))
    mu = draw(st.sampled_from(list(enumerate_subdiagrams(lam))))
    return lam, mu


@given(_shape_pairs())
def test_lattice_table_matches_every_route(pair):
    lam, mu = pair
    shape = SkewShape(lam, mu)
    value = skew_dims(lam)[mu.parts]
    assert value == skew_dim_det(shape) == skew_dim_naruse(lam, mu) == skew_dim_oracle(shape)


@pytest.mark.parametrize("n", range(13))
def test_lattice_walk_equals_tuple_walk(n):
    # the id-keyed table of every shape of size n, mapped back to parts
    lattice = young_lattice(n)
    for lam in enumerate_partitions(n):
        table = lattice_skew_dims(lattice, lattice.index[lam.parts])
        assert {lattice.parts[node]: count for node, count in table.items()} == skew_dims(lam)


def test_det_with_empty_inner_is_plain_dimension():
    for lam in enumerate_partitions(7):
        assert skew_dim_det(SkewShape(lam, Partition(()))) == dim_hlf(lam)


def test_full_inner_gives_one():
    lam = Partition((4, 3, 3))
    assert skew_dim_det(SkewShape(lam, lam)) == 1
    assert skew_dim_oracle(SkewShape(lam, lam)) == 1


def test_oracle_cap_enforced():
    shape = SkewShape(Partition((5, 5, 5, 2)), Partition(()))
    with pytest.raises(ValueError):
        skew_dim_oracle(shape, cap=10)
    with pytest.raises(ValueError, match="size 17 exceeds the oracle cap 16"):
        skew_dim_oracle(shape, cap=16)
    assert skew_dim_oracle(shape, cap=17) == 291720
    # one box is accepted at cap 1 and refused at cap 0; no box is accepted at cap 0
    assert skew_dim_oracle(SkewShape(Partition((1,))), cap=1) == 1
    with pytest.raises(ValueError):
        skew_dim_oracle(SkewShape(Partition((1,))), cap=0)
    assert skew_dim_oracle(SkewShape(Partition((2, 1)), Partition((2, 1))), cap=0) == 1


def test_oracle_equals_the_box_walk_and_the_lattice_table():
    # the last box taken as given, every box walked, and the lattice walk
    pairs = 0
    for lam in all_shapes(10):
        for mu, count in skew_dims(lam).items():
            shape = SkewShape(lam, Partition(mu))
            assert skew_dim_oracle(shape) == box_walk(shape) == count, (lam, mu)
            pairs += 1
    assert pairs == 2888


@pytest.mark.parametrize(
    "outer, inner",
    [
        ((), ()),  # no box, and no row
        ((3, 2, 2), (3, 2, 2)),  # no box
        ((1,), ()),  # a single box
        ((4, 3, 1), (4, 2, 1)),
        ((7,), ()),  # one row
        ((6, 2), (2, 2)),
        ((1,) * 7, ()),  # one column
        ((3, 1, 1, 1, 1), (3,)),
    ],
)
def test_oracle_edge_shapes_give_one(outer, inner):
    shape = SkewShape(Partition(outer), Partition(inner))
    assert skew_dim_oracle(shape) == box_walk(shape) == 1


def test_skew_shape_requires_containment():
    with pytest.raises(ValueError):
        SkewShape(Partition((2, 2)), Partition((3,)))


def test_skew_shape_size_and_text():
    shape = SkewShape(Partition((3, 2)), Partition((1,)))
    assert shape.size == 4
    assert str(shape) == "[3,2]\\[1]"


@given(partitions_st(max_part=7, max_len=7))
def test_dimension_invariant_under_conjugation(p):
    assert dim_hlf(p) == dim_hlf(p.conjugate())


@given(partitions_st(max_part=5, max_len=4))
def test_skew_det_invariant_under_conjugation(outer):
    for inner in enumerate_subdiagrams(outer):
        plain = skew_dim_det(SkewShape(outer, inner))
        flipped = skew_dim_det(SkewShape(outer.conjugate(), inner.conjugate()))
        assert plain == flipped


def _random_matrices(seed: int, count: int):
    """Seeded square integer matrices of sizes 1-8: negative entries, many
    zeros (zero pivots, so row swaps), and singular ones."""
    rng = random.Random(seed)
    for index in range(count):
        size = 1 + index % 8
        low, high = rng.choice([(-3, 3), (-40, 40), (0, 1)])
        mat = [
            [rng.randint(low, high) if rng.random() < 0.6 else 0 for _ in range(size)]
            for _ in range(size)
        ]
        if size > 1 and index % 5 == 0:
            # one row a multiple of another: singular
            dst, src = rng.sample(range(size), 2)
            mat[dst] = [3 * x for x in mat[src]]
        if index % 3 == 0:
            mat[0][0] = 0
        yield mat


@pytest.mark.parametrize("seed", range(4))
def test_bareiss_equals_loop_oracle(seed):
    seen = set()
    for mat in _random_matrices(seed, 400):
        copy = [row[:] for row in mat]
        value = _bareiss_det(mat)
        assert value == loop_bareiss_det(mat), mat
        assert mat == copy
        seen.add((len(mat), value == 0, value < 0))
    # every size gives a zero determinant, and every size from 2 a negative one
    assert {size for size, zero, _ in seen if zero} == set(range(1, 9))
    assert {size for size, zero, neg in seen if not zero and neg} >= set(range(2, 9))


def test_bareiss_swap_sign():
    # the zero leading pivot forces one swap, which flips the sign
    assert _bareiss_det([[0, 1], [1, 0]]) == -1
    assert _bareiss_det([[0, 2, 0], [0, 0, 3], [5, 0, 0]]) == 30
    assert _bareiss_det([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert _bareiss_det([[1, 2], [2, 4]]) == 0
    assert _bareiss_det([[-7]]) == -7


def _binomial_matrix(outer, inner) -> list[list[int]]:
    """The matrix [C(b_i, c_j)] that _scaled_det builds, zero where c_j > b_i."""
    r = len(outer)
    inner = inner + (0,) * (r - len(inner))
    b = [outer[i] + r - 1 - i for i in range(r)]
    c = [inner[j] + r - 1 - j for j in range(r)]
    return [[math.comb(bi, cj) for cj in c] for bi in b]


def test_bareiss_on_staircase_matrices():
    # a large inner part leaves a lower-left staircase of zeros, so rows are carried
    carried = 0
    for n in range(2, 11):
        for lam in enumerate_partitions(n):
            for mu in enumerate_subdiagrams(lam):
                if 2 * mu.n < n:
                    continue
                mat = _binomial_matrix(lam.parts, mu.parts)
                assert _bareiss_det(mat) == loop_bareiss_det(mat), (lam, mu)
                carried += any(row[0] == 0 for row in mat[1:])
    assert carried > 1000


def test_bareiss_swap_brings_in_a_carried_row():
    # rows 0 and 1 eliminate row 2's leading entries, so step 2 has a zero pivot;
    # the swap brings in row 3, carried over two steps with its divisor still 1
    mat = [[2, 1, 3, 1], [4, 5, 1, 2], [6, 6, 4, 9], [0, 0, 7, 3]]
    assert _bareiss_det(mat) == loop_bareiss_det(mat) == _leibniz(mat) != 0
    rng = random.Random(7)
    for _ in range(300):
        size = rng.randint(3, 8)
        k = size - 2
        mat = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
        for i in range(k):
            mat[i][i] = rng.choice((-3, -2, 2, 3))
        # row k agrees with a combination of rows 0..k-1 up to column k: its pivot will be 0
        coeffs = [rng.randint(-2, 2) for _ in range(k)]
        mat[k][: k + 1] = [sum(a * mat[i][j] for a, i in zip(coeffs, range(k))) for j in range(k + 1)]
        # the last row is 0 before column k, so it is carried k steps until the swap
        mat[-1][:k] = [0] * k
        mat[-1][k] = rng.choice((-5, 5, 7))
        assert _bareiss_det(mat) == loop_bareiss_det(mat), mat


def test_bareiss_singular_after_carried_rows():
    # both rows below the pivot are carried, then no pivot is left in column 1
    assert _bareiss_det([[2, 1, 3], [0, 0, 5], [0, 0, 7]]) == 0
    # row 2 is carried at step 0, then cancels row 1 exactly
    assert _bareiss_det([[2, 1, 1], [0, 3, 6], [0, 1, 2]]) == 0
    # a carried row proportional to an updated one
    mat = [[3, 1, 2, 5], [6, 4, 1, 1], [0, 0, 2, 4], [0, 0, 3, 6]]
    assert _bareiss_det(mat) == loop_bareiss_det(mat) == 0


def test_bareiss_of_the_empty_matrix_is_one():
    assert _bareiss_det([]) == 1


def _leibniz(mat) -> int:
    """The determinant as a signed sum over permutations."""
    total = 0
    for perm in itertools.permutations(range(len(mat))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
        total += (-1) ** inversions * math.prod(mat[i][perm[i]] for i in range(len(mat)))
    return total


def test_module_caches_are_bounded():
    caches = {
        f"{module.__name__}.{name}": value.cache_parameters()["maxsize"]
        for module in (characters, decompositions, dimensions, excited, harness, output, partitions)
        for name, value in vars(module).items()
        if hasattr(value, "cache_parameters")
    }
    assert "hookchar.dimensions._dim" in caches
    assert "hookchar.excited._hook_table" in caches
    assert "hookchar.excited._excited_sum" in caches
    assert "hookchar.output._layout" in caches
    assert [name for name, size in caches.items() if size is None] == []
    # a lattice holds every shape up to its size: one n at a time, and the next
    assert caches["hookchar.partitions.young_lattice"] <= 2
