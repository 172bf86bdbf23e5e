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

Each sweep is a SweepStream: one generator of (section, records)
batches, one outer shape's records each, every section in output order.
verify_orthogonality and the sweep_* functions are each built from their
stream by one helper, _drained, and drain it into a SweepResult;
``hookchar verify`` hands the stream to the writer, so at most one
shape's records are held.

Records are NamedTuples, so they compare as tuples and rec._asdict()
names their fields.  Every rational field of a record is a Rational: a
coprime integer pair with a positive denominator, built from integers in
the sweep loops, so no Fraction is made per record.  Fraction(*rec.lhs)
gives the Fraction.  Summaries keep Fraction values.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Generator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import compress
from math import exp, factorial, gcd, isqrt, log, perm
from operator import attrgetter, countOf, mul, not_
from typing import NamedTuple

from .characters import character_table, diag_cycle_bound
from .decompositions import (
    CHAIN_CONSTANT_UPPER,
    E_UPPER,
    TWO_E_UPPER,
    bound_S_general,
    bound_S_row,
)
from .dimensions import SkewShape, dim_hlf, lattice_skew_dims, skew_dim_det, skew_dims
from .excited import excited_count, hook_product
from .partitions import (
    CycleType,
    Partition,
    YoungLattice,
    falling_factorial,
    format_cycle_type,
    format_partition,
    young_lattice,
)


class Rational(NamedTuple):
    """An exact rational as a coprime pair with a positive denominator."""

    numerator: int
    denominator: int


# Records and their Rationals are built by tuple.__new__, which skips the
# length check of NamedTuple._make: every call site passes all the fields.
_new = tuple.__new__
_ZERO = Rational(0, 1)


def _reduced(num: int, den: int) -> Rational:
    """num/den in lowest terms, for den > 0."""
    g = gcd(num, den)
    return _new(Rational, (num // g, den // g))


def _rational(value: Fraction | int) -> Rational:
    return _new(Rational, (value.numerator, value.denominator))


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


_SLICE = 4096  # the most records of a drained section a writer transposes at once


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

    def batches(self):
        """Each section as (section, records) batches of at most _SLICE records, handed on in turn."""
        return (
            (section, records[start : start + _SLICE])
            for section, records in self.sections.items()
            for start in range(0, len(records), _SLICE)
        )


class SweepStream:
    """One sweep's records as (section, records) batches, each section in output order.

    A batch is the list of one outer shape's records in one section.
    batches() runs the sweep, once; iterating the stream flattens them into
    (section, record) pairs.  Sections may interleave, but the records of
    each come in their type's order (BoundRecord by (n, lam, alpha_or_mu),
    CompressionRecord by (k, lam, mu), SharpnessRecord by (s_tilde·h, h,
    k)), so a writer can put each batch where it belongs as it arrives.

    The summary is folded batch by batch: a count and an unsatisfied
    count per section, and the max constant of one section by _max_step,
    so a tie goes to the first record in output order.  Every record of
    that section comes from _record, satisfied exactly when its ratio is
    at most 1, so once the best ratio is at least 1 a satisfied record can
    only tie, and only the unsatisfied records are folded.  Then summary
    is set to records, violations, hard and the sweep's own entries;
    before that it is None.

    body(stream) is the sweep's generator of batches.  It returns the
    sweep's own summary entries, and may read count, satisfied() and
    max_constant() as it does, since every batch it yielded has been folded
    by then.  violations counts the unsatisfied records of the asserted
    sections; a sweep adds to it each failed check that is not a record.
    """

    def __init__(
        self, command: str, n: int, sections: tuple[str, ...],
        body: Callable[[SweepStream], Generator], asserted: tuple[str, ...] = (),
        max_section: str | None = None,
    ) -> None:
        self.command = command
        self.n = n
        self.sections = sections
        self.count = dict.fromkeys(sections, 0)
        self.unsatisfied = dict.fromkeys(sections, 0)
        self.violations = 0
        self.summary: dict | None = None
        self._asserted = asserted
        self._max_section = max_section
        self._best = None
        self._batches = self._fold(body(self))

    def batches(self):
        """The sweep's (section, records) batches, each folded before it is handed on."""
        return self._batches

    def __iter__(self):
        return ((section, rec) for section, batch in self._batches for rec in batch)

    def _fold(self, body: Generator):
        count, unsatisfied, max_section = self.count, self.unsatisfied, self._max_section
        while True:
            try:
                batch = next(body)
            except StopIteration as stop:
                extra = stop.value
                break
            section, records = batch
            count[section] += len(records)
            # satisfied is True, False, or None for an unasserted record
            unsatisfied[section] += len(records) - countOf(map(_SATISFIED, records), True)
            if section == max_section:
                best, folded = self._best, records
                if best is not None and (ratio := best[0].implied_constant)[0] >= ratio[1]:
                    # best's root is at least 1, and a satisfied record's at most 1: it can only tie
                    folded = compress(records, map(not_, map(_SATISFIED, records)))
                self._best = reduce(_max_step, folded, best)
            yield batch
        self.violations += sum(unsatisfied[name] for name in self._asserted)
        self.summary = {
            "records": sum(count.values()),
            "violations": self.violations,
            "hard": bool(self._asserted),
            **extra,
        }

    def satisfied(self, section: str) -> int:
        return self.count[section] - self.unsatisfied[section]

    def max_constant(self) -> dict:
        return _max_entry(None if self._best is None else self._best[0])

    def result(self) -> SweepResult:
        """Drain the stream into a SweepResult."""
        sections: dict[str, list] = {name: [] for name in self.sections}
        for name, records in self._batches:
            sections[name] += records
        return SweepResult(self.command, self.n, sections, self.summary)


class Sweep(NamedTuple):
    """A verification sweep: its function and its stream in this module, size cap, record type."""

    function: str
    stream: str
    budget: int
    record: type


# Every sweep is called as function(n, budget=None), and its stream as
# stream(n, budget=None); both check their arguments when called.
SWEEPS = {
    "orthogonality": Sweep("verify_orthogonality", "_orthogonality", 15, BoundRecord),
    "thm-main": Sweep("sweep_thm_main", "_thm_main", 15, BoundRecord),
    "thm-diag": Sweep("sweep_thm_diag", "_thm_diag", 15, BoundRecord),
    "skew-bound": Sweep("sweep_skew_bound", "_skew_bound", 18, BoundRecord),
    "excited-bounds": Sweep("sweep_excited_bounds", "_excited_bounds", 17, BoundRecord),
    "sharpness": Sweep("sweep_sharpness", "_sharpness", 30, SharpnessRecord),
    "compression": Sweep("sweep_compression", "_compression", 12, CompressionRecord),
}


def _record(n: int, lam: str, other: str, lhs: Rational, rhs: Rational, exponent: int) -> BoundRecord:
    """One bound record, for rhs > 0; the ratio lhs/rhs is reduced as Fraction divides.

    Both pairs are coprime, so once gcd(ln, rn) and gcd(rd, ld) are divided
    out the cross products ln*rd and ld*rn are coprime too.  A zero lhs
    (a third of the character table's entries) takes no arithmetic: lhs
    and ratio are both 0/1, and the record is satisfied.
    """
    ln, ld = lhs
    if not ln:
        return _new(BoundRecord, (n, lam, other, _ZERO, rhs, _ZERO, exponent, True))
    rn, rd = rhs
    g1 = gcd(ln, rn)
    g2 = gcd(rd, ld)
    qn = (ln // g1) * (rd // g2)
    qd = (ld // g2) * (rn // g1)
    return _new(BoundRecord, (n, lam, other, lhs, rhs, _new(Rational, (qn, qd)), exponent, qn <= qd))


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


def _max_step(best: tuple[BoundRecord, float] | None, rec: BoundRecord):
    """best, a record and the log of its root, or rec if its root is larger, exactly.

    Ratios are non-negative and zeros are skipped.  A float estimate of
    each root's logarithm screens out a record clearly below best, by more
    than any rounding of that estimate; every other record is compared
    exactly by root_greater, so a tie keeps best.
    """
    ratio = rec.implied_constant
    num, den = ratio
    if num == 0:
        return best
    key = (log(num) - log(den)) / rec.exponent
    if best is not None:
        top, top_key = best
        if key < top_key - 1e-9 * (1 + abs(top_key)):
            return best
        if not root_greater(ratio, rec.exponent, top.implied_constant, top.exponent):
            return best
    return rec, key


def _max_entry(best: BoundRecord | None) -> dict:
    """The summary entry of a max-constant record: its ratio as a Fraction, exponent and root."""
    if best is None:
        return {"ratio": Fraction(0), "exponent": 1, "approx": 0.0}
    ratio = Fraction(*best.implied_constant)
    return {"ratio": ratio, "exponent": best.exponent, "approx": root_approx(ratio, best.exponent)}


def _check_budget(name: str, n: int, budget: int | None) -> None:
    if type(n) is not int or type(budget) not in (int, type(None)):  # a bool is not an int here
        raise ValueError(f"n={n!r} and budget={budget!r} must be integers")
    cap = SWEEPS[name].budget if budget is None else budget
    if n > cap:
        raise ValueError(f"n={n} exceeds the {name} budget {cap}")
    if n < 0:
        raise ValueError(f"n={n} is negative")


def _drained(stream: Callable[..., SweepStream], name: str) -> Callable[..., SweepResult]:
    """The public sweep name: stream(...) drained into a SweepResult, with stream's docstring and parameters."""

    def drained(*args, **kwargs) -> SweepResult:
        return stream(*args, **kwargs).result()

    drained.__name__ = drained.__qualname__ = name
    drained.__doc__ = stream.__doc__
    drained.__annotations__ = {**stream.__annotations__, "return": "SweepResult"}
    drained.__signature__ = inspect.signature(stream).replace(return_annotation="SweepResult")
    return drained


def _by_rank(lattice: YoungLattice, low: int, high: int) -> list[tuple[int, Partition]]:
    """The node id and Partition of every shape of size low to high, in label-text order.

    That is the order the records of the shapes are written in.
    """
    nodes = sorted(range(lattice.start[low], lattice.start[high + 1]), key=lattice.rank.__getitem__)
    return [(node, Partition(lattice.parts[node])) for node in nodes]


_SATISFIED = attrgetter("satisfied")


# ---------------------------------------------------------------- characters


def _packed_gram(rows: list[list[int]], weights: list[int]):
    """Each row i of the Gram matrix [sum over k of weights[k] rows[i][k] rows[j][k] for j], in turn.

    Kronecker substitution: column k is packed into one integer
    C_k = sum over j of rows[j][k] 2^(B j), so row i of the Gram matrix is
    the one integer sum over k of w_ik C_k, with w_ik = weights[k] rows[i][k],
    whose slot j holds entry j.  The slot width B is taken from the values
    themselves: every entry is at most max|rows| * max_i sum_k |w_ik| in
    absolute value, below 2^(B - 1), so once 2^(B - 1) is added to each slot
    every slot is a digit in [0, 2^B), read from to_bytes unsigned.  Nothing
    about the rows is assumed.
    """
    count = len(rows)
    weighted = [list(map(mul, weights, row)) for row in rows]
    top = max((abs(v) for row in rows for v in row), default=0)
    reach = max((sum(map(abs, w)) for w in weighted), default=0)
    width = (max(top * reach, top).bit_length() + 2 + 7) // 8  # bytes per slot
    half = 1 << (8 * width - 1)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")
    packed = [
        int.from_bytes(b"".join([(v + half).to_bytes(width, "little") for v in column]), "little") - bias
        for column in zip(*rows)
    ]
    size = count * width
    for w in weighted:
        data = (sum(map(mul, w, packed)) + bias).to_bytes(size, "little")
        yield [int.from_bytes(data[at : at + width], "little") - half for at in range(0, size, width)]


def _classes(n: int) -> list[tuple[str, Partition, dict[tuple[int, ...], int], CycleType]]:
    """Each shape of n in rank order: its text, Partition, and its class's table column and CycleType.

    A class's label is its shape's with ( ) for [ ], and no label body of
    size n is a prefix of another (the longer would sum to more), so this
    is the text order of the classes too, the identity first.
    """
    lattice, table = young_lattice(n), character_table(n)
    return [
        (lattice.text[node], lam, table[lam.parts], CycleType(lam.parts))
        for node, lam in _by_rank(lattice, n, n)
    ]


def _orthogonality(n: int, budget: int | None = None) -> SweepStream:
    """Check the first orthogonality relation for all pairs of shapes.

    The rows are read from one character_table(n); the pairs are
    class-weighted inner products of rows, taken a whole row of pairs at a
    time by _packed_gram.  The implied-constant column holds the absolute
    deviation from the expected value, zero on success.
    """
    _check_budget("orthogonality", n, budget)

    def body(stream: SweepStream):
        texts, lams, columns, alphas = zip(*_classes(n))
        class_sizes = [alpha.class_size() for alpha in alphas]
        rows = [[column[lam.parts] for column in columns] for lam in lams]

        def pair(lam: str, mu: str, total: int, expected: int) -> BoundRecord:
            return _new(BoundRecord, (
                n, lam, mu, _new(Rational, (total, 1)), _new(Rational, (expected, 1)),
                _new(Rational, (abs(total - expected), 1)), 1, total == expected,
            ))

        grams = _packed_gram(rows, class_sizes)
        for i, (lam, gram) in enumerate(zip(texts, grams)):
            # off the diagonal the expected value is 0, so a 0 needs no arithmetic
            batch = [
                pair(lam, mu, total, 0) if total
                else _new(BoundRecord, (n, lam, mu, _ZERO, _ZERO, _ZERO, 1, True))
                for mu, total in zip(texts, gram)
            ]
            batch[i] = pair(lam, lam, gram[i], factorial(n))
            yield "records", batch
        return {"pairs": len(texts) ** 2}

    return SweepStream("orthogonality", n, ("records",), body, ("records",))


def _thm_main(n: int, budget: int | None = None, *, balanced: Fraction | None = None) -> SweepStream:
    """Character bound sweep over all shapes and non-identity classes.

    Records carry squared values: lhs = normalized character squared,
    rhs = (1/|sigma|)^|sigma| * max(1, s^2 |sigma| / n^2)^supp, and the
    per-instance constant is implied_constant**(1/(2|sigma|)).  With
    balanced=C the sweep restricts to shapes with s(lam) <= C*sqrt(n)
    and drops the max factor from the rhs.  Every value is read from one
    character_table(n), and the rhs of every class once per s.
    """
    _check_budget("thm-main", n, budget)
    if balanced is not None and balanced <= 0:
        raise ValueError(f"balanced bound must be positive, got {balanced}")
    bal = None if balanced is None else Fraction(balanced)

    @cache
    def rhs2(w: int, s: int, supp: int) -> Rational:
        rhs = Fraction(1, w) ** w
        if bal is None:
            rhs *= max(Fraction(1), Fraction(s * s * w, n * n)) ** supp
        return _rational(rhs)

    def body(stream: SweepStream):
        shapes = _classes(n)
        lams = [shape for shape in shapes if bal is None or shape[1].max_hook**2 <= bal * bal * n]
        # each non-identity class as its column of the table, its text, w and supp
        classes = [
            (column, format_cycle_type(alpha), alpha.word_length, alpha.supp)
            for _, _, column, alpha in shapes if not alpha.is_identity()
        ]
        rhs_rows: dict[int, list[Rational]] = {}  # the rhs of every class, by s
        for lam_text, lam, _, _ in lams:
            s = lam.max_hook
            if s not in rhs_rows:
                rhs_rows[s] = [rhs2(w, s, supp) for _, _, w, supp in classes]
            d = dim_hlf(lam)
            parts = lam.parts
            batch = []
            for (column, alpha_text, w, _), rhs in zip(classes, rhs_rows[s]):
                value = column[parts]
                # lhs = value^2 / d^2, reduced by one gcd
                g = gcd(value, d)
                v, e = value // g, d // g
                lhs2 = _new(Rational, (v * v, e * e))
                batch.append(_record(n, lam_text, alpha_text, lhs2, rhs, 2 * w))
            yield "records", batch
        return {
            "satisfied_at_c1": stream.satisfied("records"),
            "max_constant": stream.max_constant(),
            "balanced": None if bal is None else str(bal),
            "shapes": len(lams),
        }

    return SweepStream("thm-main", n, ("records",), body, max_section="records")


def _thm_diag(n: int, budget: int | None = None) -> SweepStream:
    """Hard sweep of |ch| <= 2^n * delta^cyc over all shapes and classes.

    Every value is read from one character_table(n); the bound depends on
    (delta, cyc) only, so each row of bounds is built once per delta.
    """
    _check_budget("thm-diag", n, budget)

    def body(stream: SweepStream):
        classes = _classes(n)
        columns = [(column, format_cycle_type(alpha)) for _, _, column, alpha in classes]
        # the bound of every class, by diagonal length: all diag_cycle_bound reads of lam
        bound_rows: dict[int, list[Rational]] = {}
        for lam_text, lam, _, _ in classes:
            delta = lam.diagonal_length
            if delta not in bound_rows:
                bound_rows[delta] = [
                    _new(Rational, (diag_cycle_bound(lam, alpha), 1)) for _, _, _, alpha in classes
                ]
            parts = lam.parts
            batch = []
            for (column, alpha_text), bound in zip(columns, bound_rows[delta]):
                value = _new(Rational, (abs(column[parts]), 1))
                batch.append(_record(n, lam_text, alpha_text, value, bound, 1))
            yield "records", batch
        return {"max_constant": stream.max_constant()}

    return SweepStream("thm-diag", n, ("records",), body, ("records",), "records")


# ------------------------------------------------------------- skew measures


def _skew_bound(n: int, budget: int | None = None) -> SweepStream:
    """Skew-dimension ratio against max(1/sqrt(k), s/n)^k, squared records.

    The ratio f^{lam/mu}/f^lam of every mu inside lam is read from one
    lattice_skew_dims table per lam, its mu in the order of the lattice's
    rank; the rhs depends on (s, k) only.
    """
    _check_budget("skew-bound", n, budget)

    @cache
    def rhs2(s: int, k: int) -> Rational:
        return _rational(max(Fraction(1, k), Fraction(s * s, n * n)) ** k)

    def body(stream: SweepStream):
        lattice = young_lattice(n)
        text, size, rank = lattice.text, lattice.size, lattice.rank
        for top, lam in _by_rank(lattice, n, n):
            s = lam.max_hook
            lam_text = text[top]
            dims = lattice_skew_dims(lattice, top)
            d = dims.pop(0)
            batch = []
            for mu in sorted(dims, key=rank.__getitem__):
                k = size[mu]
                g = gcd(dims[mu], d)
                f, e = dims[mu] // g, d // g
                ratio2 = _new(Rational, (f * f, e * e))
                batch.append(_record(n, lam_text, text[mu], ratio2, rhs2(s, k), 2 * k))
            yield "records", batch
        return {"satisfied_at_c1": stream.satisfied("records"), "max_constant": stream.max_constant()}

    return SweepStream("skew-bound", n, ("records",), body, max_section="records")


def _excited_value(falling: int, skew: int, d: int, lam_text: str, mu_text: str) -> int:
    """S(lam, mu) = n!/(n-k)! * f^{lam/mu} / f^lam, the Naruse hook-length formula."""
    value, rem = divmod(falling * skew, d)
    if rem:
        raise ArithmeticError(f"non-integral excited sum for {lam_text}/{mu_text}")
    return value


def _excited_bounds(n: int, budget: int | None = None) -> SweepStream:
    """Hard sweep of the closed-form excited-sum bounds.

    Sections: "records" for the row bound (8n/ell or 4e^2 s cases),
    "rows_edge" for the separately reported s > n/2 case-(b) regime,
    "general" for the thick-hook binomial bound at a in {s, n}, and
    "skew_sum" for the squared chain bound (8e^3 max(n/sqrt k, s))^k
    over every contained shape.  Every excited sum S(lam, mu) comes from
    f^{lam/mu} in one lattice_skew_dims table per lam; the rhs of a
    skew_sum record by (s, k), of a row record by (s, ell) and of a
    general record by (a, ell) is built once per key.  Each batch is built
    in order: the one-row shapes [ell] and each mu by rank, a by text.
    """
    _check_budget("excited-bounds", n, budget)
    chain_sq = CHAIN_CONSTANT_UPPER * CHAIN_CONSTANT_UPPER

    @cache
    def rhs2(s: int, k: int) -> Rational:
        return _rational((chain_sq * max(Fraction(s * s), Fraction(n * n, k))) ** k)

    def body(stream: SweepStream):
        falling = [perm(n, k) for k in range(n + 1)]
        # bound_S_row(lam, ell) by (s, ell) and bound_S_general(lam, a, ell) by
        # (a, ell), each built at the first lam with that key
        row_bounds: dict[tuple[int, int], Rational] = {}
        general_bounds: dict[tuple[int, int], Rational] = {}
        lattice = young_lattice(n)
        text, size, rank = lattice.text, lattice.size, lattice.rank
        # the node of each one-row shape [ell], in rank order
        one_rows = sorted((lattice.index[(ell,)] for ell in range(1, n + 1)), key=rank.__getitem__)
        for top, lam in _by_rank(lattice, n, n):
            s = lam.max_hook
            lam_text = text[top]
            dims = lattice_skew_dims(lattice, top)
            d = dims.pop(0)
            a_values = sorted({s, n}, key=str)
            rows, edge, general = [], [], []  # the batches of records, rows_edge and general
            for row in one_rows:
                ell = size[row]
                if ell > lam.part(1):
                    continue
                excited = _excited_value(falling[ell], dims[row], d, lam_text, text[row])
                value = _new(Rational, (excited, 1))
                if (s, ell) not in row_bounds:
                    row_bounds[s, ell] = _rational(bound_S_row(lam, ell))
                row_rec = _record(n, lam_text, text[row], value, row_bounds[s, ell], ell)
                # case (b) relies on floor(n/a) >= 2 at a = s, absent when s > n/2
                if ell * s > n and n // s < 2:
                    edge.append(row_rec)
                else:
                    rows.append(row_rec)
                for a in a_values:
                    if (a, ell) not in general_bounds:
                        general_bounds[a, ell] = _new(Rational, (bound_S_general(lam, a, ell), 1))
                    general.append(
                        _record(n, lam_text, f"{text[row]} a={a}", value, general_bounds[a, ell], ell)
                    )
            yield "records", rows
            yield "rows_edge", edge
            yield "general", general
            skew_sum = []
            for mu in sorted(dims, key=rank.__getitem__):
                k = size[mu]
                excited = _excited_value(falling[k], dims[mu], d, lam_text, text[mu])
                value2 = _new(Rational, (excited * excited, 1))
                skew_sum.append(_record(n, lam_text, text[mu], value2, rhs2(s, k), 2 * k))
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
    if any(type(v) is not int for v in (s_tilde, h, k)) or s_tilde < 1 or h < 1:  # a bool is not an int
        raise ValueError(f"s_tilde={s_tilde!r} and h={h!r} must be positive integers, k={k!r} an integer")
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
        return _new(SharpnessRecord, (
            s_tilde, h, k, 2,
            format_partition(lam), format_partition(mu),
            _rational(ratio), _rational(ratio * Fraction(m) ** k), None,
        ))
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
    return _new(SharpnessRecord, (
        s_tilde, h, k, 1,
        format_partition(lam), format_partition(mu),
        _rational(ratio), _rational(rhs), ratio >= rhs,
    ))


def _sharpness(max_n: int = 30, budget: int | None = None) -> SweepStream:
    """All rectangle instances with n <= max_n, case 1 asserted, in (n, h, k) order."""
    _check_budget("sharpness", max_n, budget)

    def body(stream: SweepStream):
        for n in range(1, max_n + 1):
            for h in range(1, isqrt(n) + 1):
                if n % h:
                    continue
                s_tilde = n // h
                sizes = {ell * h for ell in range(1, s_tilde + 1)}
                sizes.update(m * m for m in range(1, h + 1) if m * m <= n)
                for k in sorted(sizes):
                    rec = sharpness_rectangles(s_tilde, h, k)
                    yield ("records" if rec.case == 1 else "case2"), [rec]
        return {"case1": stream.count["records"], "case2": stream.count["case2"]}

    return SweepStream("sharpness", max_n, ("records", "case2"), body, ("records",))


# --------------------------------------------------------------- compression


# One row per nu of size k, in enumerate_partitions order: (the node id of nu,
# its text, f^nu, Pl(nu) = f^nu^2 / k!, the bound (s(nu)^2 e / k)^k); none of it
# depends on lam.
_LevelRow = tuple[int, str, int, Rational, Rational]


def _level(lattice: YoungLattice, k: int) -> list[_LevelRow]:
    """The lam-independent part of every compression record at level k, from lattice's size-k nodes."""
    kfact = factorial(k)
    rows = []
    for node in range(lattice.start[k], lattice.start[k + 1]):
        nu = Partition(lattice.parts[node])
        d_nu = dim_hlf(nu)
        bound = (Fraction(nu.max_hook**2, k) * E_UPPER) ** k
        rows.append((node, lattice.text[node], d_nu, _reduced(d_nu * d_nu, kfact), _rational(bound)))
    return rows


def compression_stats(lam: Partition, k: int):
    """Per-shape restriction vs Plancherel comparison at level k.

    Returns (records, summary); summary carries the exact probability
    total, the total-variation distance with the mass of shapes outside
    lam counted fully, the maximum |A - 1| over contained shapes, and
    whether every contained shape satisfies A <= (s(mu)^2 e / k)^k.
    """
    if type(k) is not int or not 1 <= k <= lam.n:  # a bool is not an int here
        raise ValueError(f"k={k!r} is not an integer within 1..{lam.n}")
    # keyed by node id, from the lattice of size k, not of lam's size
    lattice = young_lattice(k)
    dims = {lattice.index[mu]: f for mu, f in skew_dims(lam).items() if mu in lattice.index}
    return _compression_stats(lam, k, dims, _level(lattice, k))


def _compression_stats(lam: Partition, k: int, dims: dict[int, int], level: list[_LevelRow]):
    """compression_stats at level k, with f^{lam/nu} read from lam's skew dimensions by node id."""
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
    for nu, nu_text, d_nu, pl, bound in level:
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
            records.append(_new(CompressionRecord, (lam_text, nu_text, k, p, pl, a, bound, True, ok)))
        else:
            tv_num += d_nu * d_nu * d_lam
            records.append(
                _new(CompressionRecord, (lam_text, nu_text, k, _ZERO, pl, _ZERO, bound, False, True))
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


def _compression(max_n: int, budget: int | None = None) -> SweepStream:
    """Hard sweep of the compression ratio bound for all shapes, all k.

    One young_lattice(max_n) gives every level's shapes nu, each level
    sorted by rank once, so every (k, lam) batch is built in mu-text order;
    one lattice_skew_dims table per lam gives f^{lam/nu} at every level k,
    and a shape nu outside lam is one the table has no key for.  The sweep
    is k-major: at each level it visits every lam of at least that size,
    so the tables are kept for the whole sweep.
    """
    _check_budget("compression", max_n, budget)

    def body(stream: SweepStream):
        lattice = young_lattice(max_n)
        rank = lattice.rank
        levels = [sorted(_level(lattice, k), key=lambda row: rank[row[0]]) for k in range(1, max_n + 1)]
        shapes = _by_rank(lattice, 1, max_n)
        tables = [lattice_skew_dims(lattice, top) for top, _ in shapes]
        bad_totals = 0
        bad_bounds = 0
        max_tv = Fraction(0)
        for k, level in enumerate(levels, start=1):
            for (_, lam), dims in zip(shapes, tables):
                if lam.n < k:
                    continue
                records, stats = _compression_stats(lam, k, dims, level)
                yield "records", records
                bad_totals += 0 if stats["p_total_ok"] else 1
                bad_bounds += 0 if stats["all_bounded"] else 1
                max_tv = max(max_tv, stats["tv"])
        plancherel_ok = all(sum(Fraction(*pl) for _, _, _, pl, _ in level) == 1 for level in levels)
        stream.violations += bad_totals  # a level whose P does not total 1
        return {
            "levels_with_bad_total": bad_totals, "shapes_with_bad_bound": bad_bounds,
            "max_tv": max_tv, "plancherel_normalized": plancherel_ok,
        }

    return SweepStream("compression", max_n, ("records",), body, ("records",))


# The public sweeps, in SWEEPS order: each is its stream, drained.
verify_orthogonality = _drained(_orthogonality, "verify_orthogonality")
sweep_thm_main = _drained(_thm_main, "sweep_thm_main")
sweep_thm_diag = _drained(_thm_diag, "sweep_thm_diag")
sweep_skew_bound = _drained(_skew_bound, "sweep_skew_bound")
sweep_excited_bounds = _drained(_excited_bounds, "sweep_excited_bounds")
sweep_sharpness = _drained(_sharpness, "sweep_sharpness")
sweep_compression = _drained(_compression, "sweep_compression")
