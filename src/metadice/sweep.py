"""The all-pairs duel sweep, walked one sibling block at a time.

In lexicographic word order the dice under one word prefix are contiguous:
at level p (0-based) a depth-k family splits into blocks of 3^(k-p-1)
dice, and three sibling blocks make up one block of the level above. Two
dice first differ at level p exactly when they sit in different sibling
blocks there, and the cycle 0 beats 1 beats 2 beats 0 between those
blocks' trits names the expected winner. So the sweep never reads a word:
for die i and each level it visits the later sibling blocks, at most two
contiguous index ranges, each with one expected win count.

Each face, a digit string, is read once as an integer, which keeps the
positional comparison order of equal-length faces. A pair passes when the die
favored by the cycle wins exactly 5 of the 9 face comparisons and none of
them tie; ``outcome`` reads such counts as a duel.

Pairs are mutually independent; the sweep runs single-threaded and emits
failures in (i, j) order, which is lexicographic word-pair order, so
reports are deterministic. Each failure carries the level, from 1, at
which its dice first differ, which names their blocks and expected winner.

A failure is one ``int``, its record, which this module lays out: in a
family of n = 3^depth dice the pair i < j with ``wins`` of i and ``ties``
over the 3x3 face grid, first differing at ``level``, is ``(i * n + j)
<< PAIR_SHIFT | (wins * 10 + ties) << OUTCOME_SHIFT | level``. The fields
do not overlap, so records sort as their pairs do, in (i, j) order. One
record costs a 32-byte int and a pointer, where a 5-tuple of ints cost
some 116 bytes. The level takes five bits, which hold the level of any
family whose 3^depth dice fit in memory.

Every record is its lower die's: :func:`scan` records a die j before i
as the pair (j, i) with j's wins, which are i's 9 - wins - ties losses.
This module is the records' one writer and one reader, and no other
names the layout: :func:`pack` and :func:`unpack` convert one record,
and :func:`failure_rows`, :func:`outcome_counts` and :func:`level_counts`
read a report's records in hot loops, with the shifts and masks.

``sweep_pairs`` checks every pair; it is the tests' oracle.
:mod:`metadice.certificate` proves a family from the same block layout
and compares, with :func:`scan` and :func:`scan_later`, only the pairs
its node tables cannot vouch for.

This is the bottom layer, which every command compiles, so it also holds
what every verification path and writer shares: the
:class:`VerificationReport` of the records, with its
:class:`LevelSummary` rows, and :func:`joined`, the JSON writers'
separator. It imports no other module of the package when it loads. Only
the oracles build a ``DuelResult`` or a ``PairFailure``, so
:func:`outcome` and ``VerificationReport.failures`` import theirs when
they run.
"""

from __future__ import annotations

import operator
from collections import Counter
from functools import cache
from itertools import repeat
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

if TYPE_CHECKING:
    from metadice.dice import DuelResult
    from metadice.hierarchy import PairFailure

Faces = tuple[str, str, str]
#: A failure record: see the module docstring.
Failure = int
SweepResult = tuple[list[int], list[Failure]]

#: A record's fields: the pair i * n + j above PAIR_SHIFT, wins * 10 + ties
#: above OUTCOME_SHIFT, in OUTCOME_MASK, and the level in LEVEL_MASK, at the
#: bottom, so that ``record & LEVEL_MASK`` is a cached small int. A mask
#: selects its field in place: ``record & OUTCOME_MASK`` keys an outcome.
PAIR_SHIFT = 12
OUTCOME_SHIFT = 5
OUTCOME_MASK = 127 << OUTCOME_SHIFT
LEVEL_MASK = 31


def pack(i: int, j: int, level: int, wins: int, ties: int, depth: int) -> Failure:
    """The record of dice i < j of a depth-``depth`` family, first differing
    at ``level``, over which i has ``wins`` and the pair ``ties``."""
    outcome = (wins * 10 + ties) << OUTCOME_SHIFT
    return (i * 3 ** depth + j) << PAIR_SHIFT | outcome | level


def unpack(record: Failure, depth: int) -> tuple[int, int, int, int, int]:
    """(i, j, level, wins of i, ties): the fields :func:`pack` laid out."""
    i, j = divmod(record >> PAIR_SHIFT, 3 ** depth)
    wins, ties = divmod((record & OUTCOME_MASK) >> OUTCOME_SHIFT, 10)
    return i, j, record & LEVEL_MASK, wins, ties


def failure_rows(
    records: Iterable[Failure], depth: int
) -> Iterator[tuple[int, int, int, int]]:
    """Per record of a depth-``depth`` family: i, j, the index of the die
    the cycle favors and the outcome key of :func:`outcome_counts`, in one
    pass. Dice i < j that first differ at the record's level sit in sibling
    blocks of 3^(depth - level) dice, and i wins when j's block is the one
    right after its own, that is when j comes before the end of that next
    block.

    The records come sorted, so i is decoded once per run of records with
    the same i. Runs are long when a table near the root fails, and often a
    single record when a few dice were altered, so only the end that a
    record's level needs is worked out, per record."""
    n = 3 ** depth
    sizes = [n // 3 ** level for level in range(depth + 1)]
    # the layout's constants as locals: this loop runs once per failure
    pair, level, outcome = PAIR_SHIFT, LEVEL_MASK, OUTCOME_MASK
    start = stop = 0  # i * n and (i + 1) * n, the pair keys of the run's i
    for record in records:
        key = record >> pair
        if key >= stop:
            i = key // n
            start = i * n
            stop = start + n
        j = key - start
        size = sizes[record & level]
        yield i, j, i if j < (i // size + 2) * size else j, record & outcome


def outcome_counts(records: Iterable[Failure]) -> dict[int, tuple[int, int, int]]:
    """The (wins, ties, losses) in ninths of the lower die of each outcome
    among ``records``, keyed by the records' outcome field in place."""
    counts = {}
    for key in set(map(operator.and_, records, repeat(OUTCOME_MASK))):
        wins, ties = divmod(key >> OUTCOME_SHIFT, 10)
        counts[key] = wins, ties, 9 - wins - ties
    return counts


def level_counts(records: Iterable[Failure]) -> Counter:
    """The number of ``records`` at each level."""
    return Counter(map(operator.and_, records, repeat(LEVEL_MASK)))


class LevelSummary(NamedTuple):
    """All cross-subtree pairs whose first differing trit sits at ``level``."""

    level: int
    pairs: int
    failures: int


class VerificationReport(NamedTuple):
    """What :func:`metadice.hierarchy.verify_family` found, or what
    :func:`metadice.loshu.verify_stack` knows from a stack's depth; the
    rest is derived on each read, so no report can contradict itself.

    ``records`` holds each failing pair as the one ``int`` the pair check
    packed it into, this module's record of (i, j, level, wins of i, ties)
    over the 3x3 face grid, with die indices i < j first differing at that
    level, from 1. Records sort as their pairs, so they come in (i, j)
    order, which is lexicographic word-pair order.
    :func:`unpack` reads one; ``failures`` decodes them into
    :class:`~metadice.hierarchy.PairFailure`s; the CLI writes them through
    :func:`failure_rows`. Only this module reads the layout.
    """

    depth: int
    multiplicity: int
    records: tuple[Failure, ...]
    elapsed: float
    #: Why the certificate could not prove the family; None when it did.
    certificate_detail: str | None
    #: Pairs actually compared: 0 on a certificate, those the node tables
    #: cannot vouch for on a localized scan.
    pairs_scanned: int

    @property
    def dice_count(self) -> int:
        return 3 ** self.depth

    @property
    def pairs_checked(self) -> int:
        return sum(level_pairs(self.depth))

    @property
    def per_level(self) -> tuple[LevelSummary, ...]:
        """Each level's pairs and the failures whose dice first differ there."""
        failed = level_counts(self.records)
        return tuple(
            LevelSummary(level, pairs, failed[level])
            for level, pairs in enumerate(level_pairs(self.depth), 1)
        )

    @property
    def method(self) -> str:
        """``"certificate"`` or ``"localized"``: the path that ran."""
        return "certificate" if self.certificate_detail is None else "localized"

    @property
    def failures(self) -> tuple[PairFailure, ...]:
        """The records decoded, each winner named by the words, not the level.
        Only the oracles read them, so the family layer is imported here."""
        from metadice.hierarchy import PairFailure, predicted_winner, word_of

        failures = []
        for record in self.records:
            i, j, _, wins, ties = unpack(record, self.depth)
            w, v = word_of(i + 1, self.depth), word_of(j + 1, self.depth)
            failures.append(
                PairFailure(w, v, predicted_winner(w, v), outcome(wins, ties))
            )
        return tuple(failures)

    @property
    def passed(self) -> bool:
        return not self.records


def available_backends() -> tuple[str, ...]:
    return ("pure",)


@cache
def outcome(wins: int, ties: int) -> DuelResult:
    """The duel behind a pair's counts over the 3x3 face grid.

    With 3 distinct faces per die at one multiplicity, those counts are
    the exact duel probabilities times 9, so only 55 outcomes exist; each
    is built, and checked, once.
    """
    from fractions import Fraction

    from metadice.dice import DuelResult

    return DuelResult(
        Fraction(wins, 9), Fraction(ties, 9), Fraction(9 - wins - ties, 9)
    )


def level_pairs(depth: int) -> list[int]:
    """Pairs of a depth-``depth`` family per first-difference level (0-based).

    Level p has 3^p parent blocks, 3 sibling block pairs each and
    (3^(depth-p-1))^2 dice pairs per block pair.
    """
    return [3 ** (2 * depth - p - 1) for p in range(depth)]


def sweep_pairs(rank_faces: Sequence[Faces], depth: int) -> SweepResult:
    """Check every unordered pair of a depth-``depth`` family's dice.

    ``rank_faces[i]`` holds die i's three faces, dice in lexicographic word
    order. Returns (pairs per first-difference level, failure records),
    each failure the record of (i, j, level, wins of i, ties), in (i, j)
    order.
    """
    if depth < 1 or len(rank_faces) != 3 ** depth:
        raise ValueError(f"a depth-{depth} sweep needs exactly 3^{depth} dice")
    faces = [(int(f0), int(f1), int(f2)) for f0, f1, f2 in rank_faces]
    # the deepest level first, so the later dice j come in increasing order
    levels = [(3 ** (depth - level), level) for level in range(depth, 0, -1)]
    failures: list[Failure] = []
    for i in range(len(faces)):
        for size, level in levels:
            scan_later(faces, i, size, level, failures)
    return level_pairs(depth), failures


def scan(
    faces: list[tuple[int, int, int]],
    i: int,
    lo: int,
    hi: int,
    expected: int,
    level: int,
    failures: list[Failure],
) -> None:
    """Record each die j in [lo, hi) that die i does not beat by ``expected``/9,
    as the record of the pair's lower die."""
    a0, a1, a2 = faces[i]
    n = len(faces)
    row = i * n
    for j, (b0, b1, b2) in enumerate(faces[lo:hi], lo):
        wins = (
            (a0 > b0) + (a0 > b1) + (a0 > b2)
            + (a1 > b0) + (a1 > b1) + (a1 > b2)
            + (a2 > b0) + (a2 > b1) + (a2 > b2)
        )
        ties = (
            (a0 == b0) + (a0 == b1) + (a0 == b2)
            + (a1 == b0) + (a1 == b1) + (a1 == b2)
            + (a2 == b0) + (a2 == b1) + (a2 == b2)
        )
        if wins != expected or ties:
            # the record of the lower die: before i, j's wins are i's losses
            if j < i:
                pair, wins = j * n + i, 9 - wins - ties
            else:
                pair = row + j
            # pack's record, built with an OR last: CPython sizes its result
            # exactly, while an add leaves a spare digit, a 48-byte int
            # where 32 bytes do
            outcome = (wins * 10 + ties) << OUTCOME_SHIFT
            failures.append(pair << PAIR_SHIFT | outcome | level)


def scan_later(
    faces: list[tuple[int, int, int]],
    i: int,
    size: int,
    level: int,
    failures: list[Failure],
) -> int:
    """Check die i against its later sibling blocks of ``size`` dice at
    ``level`` and return the number of pairs compared."""
    lo, trit = i - i % size, i // size % 3
    # i's block beats its successor block 5/9 and loses 4/9 to the one
    # after it, which only a trit-0 block has as a later sibling
    for start, expected in ((1, 5), (2, 4))[: 2 - trit]:
        first = lo + start * size
        scan(faces, i, first, first + size, expected, level, failures)
    return (2 - trit) * size


def joined(items: Iterable[str], sep: str) -> Iterator[str]:
    """The pieces of ``sep.join(items)``: each item, the separator in front
    of every item but the first. The JSON writers of ``cli`` and
    :mod:`metadice.export` join their entries with it."""
    items = iter(items)
    yield next(items, "")
    for item in items:
        yield sep + item
