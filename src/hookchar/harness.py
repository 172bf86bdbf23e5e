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
``hookchar verify`` hands the stream to the writer, so one shape's
records are in hand at a time, but for what a paired sweep holds.

lam' and lam have one set of records up to labels: chi^{lam'}(alpha) =
sgn(alpha) chi^lam(alpha), f^{lam'} = f^lam, s(lam') = s(lam), delta(lam')
= delta(lam) and f^{lam'/mu'} = f^{lam/mu}.  So thm-main, thm-diag,
skew-bound, excited-bounds and compression compute each conjugate pair
once, through one step, _paired: the pair's first member in rank order
is computed, and what its conjugate's batch needs is held until the
conjugate comes up.  Three types mark a batch's role.  A _Held batch
is a first member's list, which _lend lends to the writer: thm-main's,
thm-diag's, and skew-bound's and excited-bounds' skew_sum through
_skew_tables.  Its conjugate's records are a _Relabeled of that very
list, made at the first member's turn and built only when read, in the
same order in thm-main and thm-diag and permuted by the rank of mu' in
the skew tables; they only tie earlier records, so the max-constant
fold counts them and skips them.  A compression batch is a _Patched
one: the level's records for the shapes outside lam, which
depend on the level alone, with the records of the shapes inside lam
in their places; a conjugate's patches are its first member's,
relabeled and moved, made at the first member's turn.
excited-bounds' other sections are not symmetric in lam: a conjugate's
come from its own one-row entries, held from its first member's table.

Records are NamedTuples, so they compare as tuples and rec._asdict()
names their fields.  Every rational field of a record is a Rational: a
coprime integer pair with a positive denominator, built from integers in
the sweep loops, so no Fraction is made per record.  Fraction(*rec.lhs)
gives the Fraction.  Summaries keep Fraction values.
"""

from __future__ import annotations

import inspect
from bisect import bisect_left
from collections.abc import Callable, Generator, Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import compress, repeat
from math import exp, factorial, gcd, isqrt, log, perm
from operator import attrgetter, countOf, itemgetter, mul, not_
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
    _check_int,
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


class _Held(NamedTuple):
    """A (section, records) batch whose records a later _Relabeled batch replays, in order or moved by its flip.

    Its records are one shape's, so they share every field up to lam.  The
    records list is lent to the writer, which may empty it once it has
    kept what the replay needs; only a writer empties it.
    """

    section: str
    records: list


_SATISFIED = attrgetter("satisfied")


def _unsatisfied(records) -> int:
    """The records whose satisfied is not True: False, or None for an unasserted record."""
    return len(records) - countOf(map(_SATISFIED, records), True)


class _Lazy(Sequence):
    """A read-only batch whose build() makes its records the first time one is read, once.

    Its length (size) and its unsatisfied count are set when it is made,
    so the fold counts it without a build.
    """

    size: int
    unsatisfied: int

    @cached_property
    def _records(self) -> list:
        return self.build()

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self._records)

    def __getitem__(self, index):
        return self._records[index]


class _Relabeled(_Lazy):
    """A conjugate's batch: record j is record flip[j] of first, with lam and mus[j] for its labels.

    _lend makes it at its first member's turn, from the first member's
    records (at least one) and lam''s text.  thm-main and thm-diag keep
    first's order and other labels: flip, mus and olds are None.
    _skew_tables gives the order of the mu' by rank, their texts, and
    olds, first's own mu texts in its order, which only a writer replaying
    first's text reads.  It takes its length and its unsatisfied count
    from first when made, so they hold after a writer empties first; its
    columns need no build.  Built or read after first was emptied, it
    raises a RuntimeError rather than give wrong records.
    """

    def __init__(
        self, first: list, flip: list[int] | None, lam: str, mus: list[str] | None, olds: list[str] | None
    ) -> None:
        self.first, self.flip, self.lam, self.mus, self.olds = first, flip, lam, mus, olds
        self.size, self.unsatisfied, self.kind = len(first), _unsatisfied(first), type(first[0])

    def relabel(self, columns: tuple) -> tuple:
        """The records' fields as columns, from first's columns as tuple(zip(*first)) gives them."""
        # a flip of one record is the identity, and itemgetter of one index gives no tuple
        pick = None if self.flip is None or self.size == 1 else itemgetter(*self.flip)
        moved = [column if pick is None else pick(column) for column in columns]
        at = self.kind._fields.index("lam")
        moved[at] = (self.lam,) * self.size
        if self.mus is not None:
            moved[at + 1] = tuple(self.mus)
        return tuple(moved)

    def columns(self) -> tuple:
        """The records' fields as columns, as tuple(zip(*self)) gives them, without building a record."""
        if len(self.first) != self.size:
            raise RuntimeError("a replayed batch read after a writer emptied its first member's records")
        return self.relabel(tuple(zip(*self.first)))

    def build(self) -> list:
        return list(map(_new, repeat(self.kind), zip(*self.columns())))


class _Patched(_Lazy):
    """A compression batch: the level's base with lam for label, and patches[i] in place of record at[i].

    level.base holds each nu's fields after lam as they are for a lam that
    does not contain nu; the patches are the records of the nu inside lam,
    at their positions, in any order.  Its length is the level's, and its
    unsatisfied count the patches', since a record outside lam is
    satisfied.  A writer writes it from the level's base and the patches
    without building a record; the first read builds them all.
    """

    kind = CompressionRecord

    def __init__(self, level: _Level, lam: str, at: list[int], patches: list[CompressionRecord]):
        self.level, self.lam, self.at, self.patches = level, lam, at, patches
        self.size, self.unsatisfied = len(level.base), _unsatisfied(patches)

    def build(self) -> list:
        records = [_new(CompressionRecord, (self.lam, *tail)) for tail in self.level.base]
        for j, rec in zip(self.at, self.patches):
            records[j] = rec
        return records


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
    so a tie goes to the first record in output order.  So a _Relabeled
    batch, whose records only tie earlier ones, is counted and not folded
    into the max constant.  A lazy batch (a _Relabeled or a _Patched one)
    is counted from the length and unsatisfied count it took when it was
    made, so only result() and iterating the stream build its records,
    each batch once, and a writer may empty the _Held list a _Relabeled
    one was made from.  Every record of that
    section comes from _record, satisfied exactly when its ratio is
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
            lazy = isinstance(records, _Lazy)  # counted when it was made, so it is not built
            count[section] += records.size if lazy else len(records)
            unsatisfied[section] += records.unsatisfied if lazy else _unsatisfied(records)
            if section == max_section and type(records) is not _Relabeled:
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
    "compression": Sweep("sweep_compression", "_compression", 14, CompressionRecord),
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
    cap = SWEEPS[name].budget if budget is None else budget
    _check_int("budget", cap, 0)
    _check_int("n", n, 0)
    if n > cap:
        raise ValueError(f"n={n} exceeds the {name} budget {cap}")


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


def _paired(shapes: list[tuple[int, Partition]], conjugate: tuple[int, ...], compute):
    """(node, lam, value) for each (node, lam) of shapes in turn, each conjugate pair computed once.

    shapes come in rank order and hold the conjugate of each of their
    shapes.  Of a pair {lam, lam'} the member that comes first is computed:
    compute(node, lam) returns its value and what the replay of its
    conjugate needs, which is held until the conjugate comes up and then
    handed on as the conjugate's value.  A self-conjugate shape is
    computed and holds nothing.
    """
    held = {}
    for node, lam in shapes:
        if node in held:
            yield node, lam, held.pop(node)
        else:
            value, keep = compute(node, lam)
            if (conj := conjugate[node]) != node:
                held[conj] = keep
            yield node, lam, value


def _lend(
    records: list, node: int, lattice: YoungLattice, flip: list[int] | None = None, mus=None, olds=None,
    section: str = "records",
):
    """A shape's batch of section and its conjugate's, as _paired's compute returns them.

    For a shape whose conjugate comes later, that is a _Held batch of
    records and a plain pair of a _Relabeled of that very list, made now
    from the conjugate's text, flip, mus and olds; a self-conjugate
    shape's batch is a plain pair, and holds nothing.
    """
    if (conj := lattice.conjugate[node]) == node:
        return (section, records), None
    return _Held(section, records), (section, _Relabeled(records, flip, lattice.text[conj], mus, olds))


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


def _classes(n: int) -> list[tuple[int, str, Partition, dict[tuple[int, ...], int], CycleType]]:
    """Each shape of n in rank order: its node id, text, Partition, and its class's table column and CycleType.

    A class's label is its shape's with ( ) for [ ], and no label body of
    size n is a prefix of another (the longer would sum to more), so this
    is the text order of the classes too, the identity first.
    """
    lattice, table = young_lattice(n), character_table(n)
    return [
        (node, lattice.text[node], lam, table[lam.parts], CycleType(lam.parts))
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
        _, texts, lams, columns, alphas = zip(*_classes(n))
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
    character_table(n), and the rhs of every class once per s.  The filter
    and every record but its label are the same for lam and lam', so each
    conjugate pair is computed once, through _paired and _lend.
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
        lattice = young_lattice(n)
        lams = [
            (node, lam) for node, _, lam, _, _ in shapes if bal is None or lam.max_hook**2 <= bal * bal * n
        ]
        # each non-identity class as its column of the table, its text, w and supp
        classes = [
            (column, format_cycle_type(alpha), alpha.word_length, alpha.supp)
            for _, _, _, column, alpha in shapes if not alpha.is_identity()
        ]
        rhs_rows: dict[int, list[Rational]] = {}  # the rhs of every class, by s

        def compute(node: int, lam: Partition):
            s = lam.max_hook
            if s not in rhs_rows:
                rhs_rows[s] = [rhs2(w, s, supp) for _, _, w, supp in classes]
            rhs_row = rhs_rows[s]
            d = dim_hlf(lam)
            parts = lam.parts
            lam_text = lattice.text[node]
            batch = []
            for (column, alpha_text, w, _), rhs in zip(classes, rhs_row):
                value = column[parts]
                # lhs = value^2 / d^2, reduced by one gcd
                g = gcd(value, d)
                v, e = value // g, d // g
                lhs2 = _new(Rational, (v * v, e * e))
                batch.append(_record(n, lam_text, alpha_text, lhs2, rhs, 2 * w))
            return _lend(batch, node, lattice)

        for _, _, batch in _paired(lams, lattice.conjugate, compute):
            yield batch
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
    |chi^{lam'}| = |chi^lam| and delta(lam') = delta(lam), so each conjugate
    pair is computed once, through _paired and _lend.
    """
    _check_budget("thm-diag", n, budget)

    def body(stream: SweepStream):
        classes = _classes(n)
        lattice = young_lattice(n)
        # each class as its column of the table and its text
        class_cells = [(column, format_cycle_type(alpha)) for _, _, _, column, alpha in classes]
        # the bound of every class, by diagonal length: all diag_cycle_bound reads of lam
        bound_rows: dict[int, list[Rational]] = {}

        def compute(node: int, lam: Partition):
            delta = lam.diagonal_length
            if delta not in bound_rows:
                bound_rows[delta] = [
                    _new(Rational, (diag_cycle_bound(lam, alpha), 1)) for _, _, _, _, alpha in classes
                ]
            bound_row = bound_rows[delta]
            parts = lam.parts
            lam_text = lattice.text[node]
            batch = []
            for (column, alpha_text), bound in zip(class_cells, bound_row):
                value = _new(Rational, (abs(column[parts]), 1))
                batch.append(_record(n, lam_text, alpha_text, value, bound, 1))
            return _lend(batch, node, lattice)

        shapes = [(node, lam) for node, _, lam, _, _ in classes]
        for _, _, batch in _paired(shapes, lattice.conjugate, compute):
            yield batch
        return {"max_constant": stream.max_constant()}

    return SweepStream("thm-diag", n, ("records",), body, ("records",), "records")


# ------------------------------------------------------------- skew measures


def _skew_tables(lattice: YoungLattice, n: int, section: str, compute):
    """Each shape lam of n in rank order: its text, Partition, its batch of section and its value.

    compute(lam_text, lam, d, dims, mus) is called for the shapes whose
    lattice_skew_dims table is built: d is f^lam, dims maps each mu != ()
    inside lam to f^{lam/mu}, and mus are those mu in rank order.  It
    returns the shape's records of section, one per mu in that order, its
    value and its conjugate's.  _paired builds one table per conjugate
    pair, for the member that comes first in rank order: transposing a
    standard skew tableau is a bijection, so f^{lam'/mu'} = f^{lam/mu},
    and record j of lam''s batch is record flip[j] of the first member's
    with lam' and mu' for labels, flip being the order of the mu' by rank.
    So _lend hands the first member's batch on as a _Held batch, and lam''s
    as a _Relabeled of it with the first member's own mu texts for olds,
    made at the first member's turn and held, with the conjugate's value,
    until lam' comes up.
    """
    rank, conjugate, text = lattice.rank, lattice.conjugate, lattice.text

    def table(top: int, lam: Partition):
        dims = lattice_skew_dims(lattice, top)
        d = dims.pop(0)
        mus = sorted(dims, key=rank.__getitem__)
        records, value, keep = compute(text[top], lam, d, dims, mus)
        primes = list(map(conjugate.__getitem__, mus))
        flip = sorted(range(len(mus)), key=list(map(rank.__getitem__, primes)).__getitem__)
        labels = [text[primes[j]] for j in flip]
        batch, replayed = _lend(records, top, lattice, flip, labels, list(map(text.__getitem__, mus)), section)
        return (batch, value), (replayed, keep)

    for top, lam, (batch, value) in _paired(_by_rank(lattice, n, n), conjugate, table):
        yield text[top], lam, batch, value


def _skew_bound(n: int, budget: int | None = None) -> SweepStream:
    """Skew-dimension ratio against max(1/sqrt(k), s/n)^k, squared records.

    The ratio f^{lam/mu}/f^lam of every mu inside lam comes from
    _skew_tables, its mu in rank order; the rhs depends on (s, k) only,
    and s(lam') = s(lam).  So a conjugate's batch is its first member's,
    relabeled: _skew_tables hands it on as a _Relabeled of the _Held one.
    """
    _check_budget("skew-bound", n, budget)

    @cache
    def rhs2(s: int, k: int) -> Rational:
        return _rational(max(Fraction(1, k), Fraction(s * s, n * n)) ** k)

    def body(stream: SweepStream):
        lattice = young_lattice(n)
        text, size = lattice.text, lattice.size

        def compute(lam_text: str, lam: Partition, d: int, dims: dict[int, int], mus: list[int]):
            s = lam.max_hook
            batch = []
            for mu, skew in zip(mus, map(dims.__getitem__, mus)):
                k = size[mu]
                g = gcd(skew, d)
                f, e = skew // g, d // g
                ratio2 = _new(Rational, (f * f, e * e))
                batch.append(_record(n, lam_text, text[mu], ratio2, rhs2(s, k), 2 * k))
            return batch, None, None

        for _, _, batch, _ in _skew_tables(lattice, n, "records", compute):
            yield batch
        return {"satisfied_at_c1": stream.satisfied("records"), "max_constant": stream.max_constant()}

    return SweepStream("skew-bound", n, ("records",), body, max_section="records")


def _excited_bounds(n: int, budget: int | None = None) -> SweepStream:
    """Hard sweep of the closed-form excited-sum bounds.

    Sections: "records" for the row bound (8n/ell or 4e^2 s cases),
    "rows_edge" for the separately reported s > n/2 case-(b) regime,
    "general" for the thick-hook binomial bound at a in {s, n}, and
    "skew_sum" for the squared chain bound (8e^3 max(n/sqrt k, s))^k
    over every contained shape.  Each mu inside lam gives the excited sum
    S(lam, mu) = n!/(n-k)! * f^{lam/mu} / f^lam (the Naruse hook-length
    formula), which depends on f^{lam/mu}, f^lam and k only.  So a
    skew_sum batch comes from _skew_tables, and a conjugate's is its
    first member's, relabeled.  A one-row mu = [ell] also gives its row
    record and its general records, a by text, from the same S; those are
    not symmetric in lam, so each shape's come from its own one-row
    entries, S(lam', [ell]) = S(lam, [1^ell]) for a conjugate, taken at its
    first member's turn and held until it comes up.  The rhs of a skew_sum
    record by (s, k), of a row record by (s, ell) and of a general record
    by (a, ell) is built once per key.
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
        text, size, conjugate = lattice.text, lattice.size, lattice.conjugate
        # the node of each one-row [ell], in rank order
        one_rows = sorted((lattice.index[(ell,)] for ell in range(1, n + 1)), key=lattice.rank.__getitem__)

        def excited_sum(lam_text: str, d: int, mu: int, skew: int) -> int:
            excited, rem = divmod(falling[size[mu]] * skew, d)
            if rem:
                raise ArithmeticError(f"non-integral excited sum for {lam_text}/{text[mu]}")
            return excited

        def compute(lam_text: str, lam: Partition, d: int, dims: dict[int, int], mus: list[int]):
            s = lam.max_hook
            skew_sum = []
            for mu, skew in zip(mus, map(dims.__getitem__, mus)):
                k = size[mu]
                excited = excited_sum(lam_text, d, mu, skew)
                value2 = _new(Rational, (excited * excited, 1))
                skew_sum.append(_record(n, lam_text, text[mu], value2, rhs2(s, k), 2 * k))
            # each one-row [ell] inside lam with S(lam, [ell]), and inside lam' with S(lam, [1^ell])
            own = [(row, excited_sum(lam_text, d, row, dims[row])) for row in one_rows if row in dims]
            primed = [
                (row, excited_sum(lam_text, d, col, dims[col])) for row in one_rows if (col := conjugate[row]) in dims
            ]
            return skew_sum, own, primed

        for lam_text, lam, skew_sum, ones in _skew_tables(lattice, n, "skew_sum", compute):
            s = lam.max_hook
            a_values = sorted({s, n}, key=str)
            rows, edge, general = [], [], []  # the batches of the three one-row sections
            for mu, excited in ones:
                k = size[mu]
                value = _new(Rational, (excited, 1))
                if (s, k) not in row_bounds:
                    row_bounds[s, k] = _rational(bound_S_row(lam, k))
                row_rec = _record(n, lam_text, text[mu], value, row_bounds[s, k], k)
                # case (b) relies on floor(n/a) >= 2 at a = s, absent when s > n/2
                if k * s > n and n // s < 2:
                    edge.append(row_rec)
                else:
                    rows.append(row_rec)
                for a in a_values:
                    if (a, k) not in general_bounds:
                        general_bounds[a, k] = _new(Rational, (bound_S_general(lam, a, k), 1))
                    general.append(_record(n, lam_text, f"{text[mu]} a={a}", value, general_bounds[a, k], k))
            yield "records", rows
            yield "rows_edge", edge
            yield "general", general
            yield skew_sum
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
    """Lower-bound instance on the wide rectangle with s_tilde columns, h <= s_tilde rows.

    Case 2 applies when k is a perfect square m^2 strictly below h^2
    (so m < h): mu = [m^m] and the product ratio * m^k is reported
    without assertion.  Every other k divisible by h takes case 1:
    mu is the full-height rectangle [l^h], the excited family is the
    single unexcited diagram, and the exact ratio is asserted against
    (2e)^(-k) (s/n)^k with e upper-rounded.
    """
    _check_int("s_tilde", s_tilde, 1)
    _check_int("h", h, 1, s_tilde)  # wide rectangles only
    n = s_tilde * h
    _check_int("k", k, 1, n)
    lam = Partition((s_tilde,) * h)
    s = lam.max_hook
    m = isqrt(k)
    if m * m == k and k < h * h and m <= min(h, s_tilde):
        case, mu = 2, Partition((m,) * m)
        ratio = Fraction(skew_dim_det(SkewShape(lam, mu)), dim_hlf(lam))
        rhs, satisfied = ratio * Fraction(m) ** k, None
    else:
        if k % h != 0 or k // h > s_tilde:
            raise ValueError(f"k={k} is neither a square below h^2 nor h-divisible")
        case, mu = 1, Partition((k // h,) * h)
        if excited_count(lam, mu) != 1:
            raise ArithmeticError(f"family of {mu} in {lam} is not a singleton")
        ratio = Fraction(hook_product(lam, mu.boxes()), falling_factorial(n, k))
        if ratio != Fraction(skew_dim_det(SkewShape(lam, mu)), dim_hlf(lam)):
            raise ArithmeticError(f"ratio mismatch for {lam}/{mu}")
        rhs = Fraction(s, n) ** k / TWO_E_UPPER**k
        satisfied = ratio >= rhs
    return _new(SharpnessRecord, (
        s_tilde, h, k, case,
        format_partition(lam), format_partition(mu),
        _rational(ratio), _rational(rhs), satisfied,
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


# One row per nu of size k: (the node id of nu, its text, f^nu, Pl(nu) = f^nu^2 / k!,
# the bound (s(nu)^2 e / k)^k); none of it depends on lam.
_LevelRow = tuple[int, str, int, Rational, Rational]


class _Level(NamedTuple):
    """The lam-independent part of every compression record at level k, one row per nu of size k."""

    k: int
    rows: list[_LevelRow]
    at: dict[int, int]  # the position of each nu in rows, by its node id
    # each nu's record fields after lam, for a lam that does not contain nu: (nu, k, 0, Pl, 0, bound, False, True)
    base: list[tuple]


def _level(lattice: YoungLattice, k: int, order: Callable[[int], object] | None = None) -> _Level:
    """Level k of compression from lattice's size-k nodes, in node order, or sorted by order of the node id.

    f^nu' = f^nu and s(nu') = s(nu), so a shape whose conjugate has the
    smaller id copies that row's f^nu, Pl(nu) and bound.
    """
    kfact = factorial(k)
    start, conjugate = lattice.start[k], lattice.conjugate
    rows: list[_LevelRow] = []
    for node in range(start, lattice.start[k + 1]):
        if (conj := conjugate[node]) < node:
            _, _, d_nu, pl, bound = rows[conj - start]
        else:
            nu = Partition(lattice.parts[node])
            d_nu = dim_hlf(nu)
            pl = _reduced(d_nu * d_nu, kfact)
            bound = _rational((Fraction(nu.max_hook**2, k) * E_UPPER) ** k)
        rows.append((node, lattice.text[node], d_nu, pl, bound))
    if order is not None:
        rows.sort(key=lambda row: order(row[0]))
    at = {row[0]: j for j, row in enumerate(rows)}
    return _Level(k, rows, at, [(text, k, _ZERO, pl, _ZERO, bound, False, True) for _, text, _, pl, bound in rows])


class _Sums(NamedTuple):
    """The summary of one (k, lam) batch in integers.

    P totals p_num / d_lam, the total-variation distance is tv_num / tv_den,
    and all_bounded says whether every contained shape meets its bound.
    """

    p_num: int
    d_lam: int
    tv_num: int
    tv_den: int
    all_bounded: bool


def compression_stats(lam: Partition, k: int):
    """Per-shape restriction vs Plancherel comparison at level k.

    Returns (records, summary); summary carries the exact probability
    total, the total-variation distance with the mass of shapes outside
    lam counted fully, the maximum |A - 1| over contained shapes, and
    whether every contained shape satisfies A <= (s(mu)^2 e / k)^k.
    """
    _check_int("k", k, 1, lam.n)
    # keyed by node id, from the lattice of size k, not of lam's size
    lattice = young_lattice(k)
    inside = [(lattice.index[mu], f) for mu, f in skew_dims(lam).items() if sum(mu) == k]
    batch, sums = _compression_stats(format_partition(lam), dim_hlf(lam), inside, _level(lattice, k))
    p_total = Fraction(sums.p_num, sums.d_lam)
    summary = {
        "p_total": p_total,
        "tv": Fraction(sums.tv_num, sums.tv_den),
        # |a - 1| = |a_num - a_den| / a_den, and every lam of size at least k contains some nu
        "max_a_dev": max(Fraction(abs(num - den), den) for num, den in (r.a for r in batch.patches)),
        "all_bounded": sums.all_bounded,
        "p_total_ok": p_total == 1,
    }
    return list(batch), summary


def _compression_stats(lam: str, d_lam: int, inside: Iterable[tuple[int, int]], level: _Level):
    """The (k, lam) batch of compression at level's k, a _Patched batch, and its _Sums.

    lam is the shape's text and d_lam its f^lam; inside holds (the node id
    of nu, f^{lam/nu}) for each nu of size k inside lam, in any order.
    Only those records are made: every other one is the level's base.
    """
    k, rows, at = level.k, level.rows, level.at
    kfact = factorial(k)
    places: list[int] = []
    records: list[CompressionRecord] = []
    # The sums stay integers: the total of p over d_lam, and the sum of
    # |p - pl| over d_lam k!, where |p - pl| = pl outside lam.
    p_num = 0
    tv_num = 0
    squares = 0  # the sum of f^nu^2 over the nu inside lam
    for nu, skew in inside:
        j = at[nu]
        _, nu_text, d_nu, pl, bound = rows[j]
        d_both = d_lam * d_nu
        p_raw = d_nu * skew
        a_num = kfact * skew
        g = gcd(a_num, d_both)
        a_num, a_den = a_num // g, d_both // g  # a = p / pl, in lowest terms
        ok = a_num * bound.denominator <= bound.numerator * a_den
        p_num += p_raw
        tv_num += abs(p_raw * kfact - d_both * d_nu)
        squares += d_nu * d_nu
        places.append(j)
        a = _new(Rational, (a_num, a_den))
        records.append(_new(CompressionRecord, (lam, nu_text, k, _reduced(p_raw, d_lam), pl, a, bound, True, ok)))
    # f^nu^2 summed over every nu of size k is k!, so the nu outside lam add d_lam (k! - squares)
    tv_num += d_lam * (kfact - squares)
    batch = _Patched(level, lam, places, records)
    return batch, _Sums(p_num, d_lam, tv_num, 2 * d_lam * kfact, not batch.unsatisfied)


def _compression(max_n: int, budget: int | None = None) -> SweepStream:
    """Hard sweep of the compression ratio bound for all shapes, all k.

    One young_lattice(max_n) gives every level's shapes nu, each level
    sorted by rank once, so every (k, lam) batch is in mu-text order.  The
    sweep is k-major: at each level it visits every lam of at least that
    size in rank order.  Most nu lie outside lam, and such a record's
    fields after lam depend on (k, nu) only, so a batch is a _Patched one:
    the level's base, labeled with lam, and the records of the nu inside
    lam in their places; the fold counts it and a writer writes it
    without building the base's records.  Each conjugate pair {lam, lam'}
    is computed once, as the member that comes first in rank order: only
    that member has a lattice_skew_dims table, kept for the whole sweep
    sorted by the size of nu, giving f^{lam/nu} for the nu inside lam at
    every level.  Transposing a standard skew tableau is a bijection, so
    f^{lam'/nu'} = f^{lam/nu}, and f^nu' = f^nu, s(nu') = s(nu): nu is
    inside lam' exactly when nu' is inside lam, the record of (lam', nu)
    is the record of (lam, nu') relabeled, and the two batches have one
    summary.  So the first member's turn also makes the conjugate's
    _Patched batch, its patches the first member's relabeled and placed
    by the level's permutation nu -> nu', which _paired holds, with the
    summary, until the conjugate comes up.  At most
    one level's conjugate batches are held, and they hold only records
    of contained shapes.
    """
    _check_budget("compression", max_n, budget)

    def body(stream: SweepStream):
        lattice = young_lattice(max_n)
        rank, conjugate, text, size = lattice.rank, lattice.conjugate, lattice.text, lattice.size
        levels = [_level(lattice, k, rank.__getitem__) for k in range(1, max_n + 1)]
        shapes = _by_rank(lattice, 1, max_n)

        # built for the shapes _paired computes, the first of each pair, and kept for every level: the
        # node ids of the nu inside lam by size, their f^{lam/nu}, and where each size starts; f^lam first
        @cache
        def table(node: int) -> tuple[list[int], list[int], list[int]]:
            dims = lattice_skew_dims(lattice, node)
            nus = sorted(dims, key=size.__getitem__)
            starts = [bisect_left(nus, k, key=size.__getitem__) for k in range(size[node] + 2)]
            return nus, [dims[nu] for nu in nus], starts

        bad_totals = 0
        bad_bounds = 0
        tv_num, tv_den = 0, 1  # the largest tv, compared by cross-multiplying

        # it reads the level being walked: k, level, flip and mus
        def compute(node: int, lam: Partition):
            nus, skews, starts = table(node)
            a, b = starts[k], starts[k + 1]
            batch, sums = _compression_stats(text[node], skews[0], zip(nus[a:b], skews[a:b]), level)
            if (conj := conjugate[node]) == node:
                return (("records", batch), sums), None
            # lam''s record of nu' is lam's record of nu, relabeled, at the place of nu'
            conj_text, places = text[conj], [flip[j] for j in batch.at]
            patches = [_new(CompressionRecord, (conj_text, mus[i], *rec[2:])) for i, rec in zip(places, batch.patches)]
            replay = ("records", _Patched(level, conj_text, places, patches))
            return (("records", batch), sums), (replay, sums)

        for k, level in enumerate(levels, start=1):
            flip = [level.at[conjugate[row[0]]] for row in level.rows]
            mus = [row[1] for row in level.rows]
            sized = [(node, lam) for node, lam in shapes if lam.n >= k]
            for _, _, (batch, sums) in _paired(sized, conjugate, compute):
                yield batch
                bad_totals += sums.p_num != sums.d_lam
                bad_bounds += not sums.all_bounded
                if sums.tv_num * tv_den > tv_num * sums.tv_den:
                    tv_num, tv_den = sums.tv_num, sums.tv_den
        plancherel_ok = all(sum(Fraction(*pl) for _, _, _, pl, _ in level.rows) == 1 for level in levels)
        stream.violations += bad_totals  # a level whose P does not total 1
        return {
            "levels_with_bad_total": bad_totals, "shapes_with_bad_bound": bad_bounds,
            "max_tv": Fraction(tv_num, tv_den), "plancherel_normalized": plancherel_ok,
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
