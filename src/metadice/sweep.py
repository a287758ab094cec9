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

The same block layout carries a proof that reads no pair, and it decides
which pairs are checked at all. A pair that first differs at level p >= 2
under node N splits its nine comparisons 6 + 3, provided both dice carry
their child blocks' digits at levels 1..p; deeper digits cannot change it.
When the three digits of the pair's level-1 block are distinct, they settle
the six cross-rank comparisons, three wins each way, and N's table settles
the three same-rank ones. At level 1 the level-1 table settles all nine.
``certify`` walks the levels once, in O(3^k·k) steps when every table
holds. At each level it recovers every node's table from its child blocks,
finds each die that leaves its block and each node whose pairs no table
vouches for, and compares those pairs there and then. Verification so
takes one of two paths:

- ``certificate``: no die strays and every table holds, so every pair
  passes and none is read. A validated stack is proven from its depth
  without reading a die: its tables hold by validation and ``generate``
  puts every die on its blocks' digits, so ``hierarchy.verify_stack``
  builds this report with no dice and no call here;
- ``localized``: only the pairs with a stray die at or above their first
  differing level, or under a node no table vouches for, are compared. A
  bad node's pairs are the forward scans, as in ``sweep_pairs``, of the
  dice in its first two child blocks; a stray die scans forward and back.

Both find the same failures, each tagged with its level.
``sweep_pairs`` checks every pair; it is the tests' oracle.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import cache
from itertools import chain
from typing import Iterator, Sequence

from metadice.dice import DuelResult
from metadice.loshu import (
    DigitAssignment,
    StackValidationError,
    validate_leading,
    validate_rankwise,
)

Faces = tuple[str, str, str]
Failure = tuple[int, int, int, int, int]
SweepResult = tuple[list[int], list[Failure]]


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
    each failure an (i, j, level, wins of i, ties) tuple in (i, j) order.
    """
    if depth < 1 or len(rank_faces) != 3 ** depth:
        raise ValueError(f"a depth-{depth} sweep needs exactly 3^{depth} dice")
    faces = [(int(f0), int(f1), int(f2)) for f0, f1, f2 in rank_faces]
    # the deepest level first, so the later dice j come in increasing order
    levels = [(3 ** (depth - level), level) for level in range(depth, 0, -1)]
    failures: list[Failure] = []
    for i in range(len(faces)):
        for size, level in levels:
            _forward(faces, i, size, level, failures)
    return level_pairs(depth), failures


def _scan(
    faces: list[tuple[int, int, int]],
    i: int,
    lo: int,
    hi: int,
    expected: int,
    level: int,
    failures: list[Failure],
) -> None:
    """Record each die j in [lo, hi) that die i does not beat by ``expected``/9."""
    a0, a1, a2 = faces[i]
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
            failures.append((i, j, level, wins, ties))


def certify(
    rank_faces: Sequence[Faces], depth: int
) -> tuple[str | None, list[Failure], int]:
    """Prove from its node tables that every pair duels 5/9 the cycle's way,
    or check every pair the tables cannot vouch for.

    At level p (1-based) each block of 3^(depth-p+1) dice is a node, and
    digit p of its three child blocks' faces, rank by rank, is the node's
    table. A child block's reference digit at a rank is the one most of its
    dice carry; when no digit is carried by more dice than every other, the
    earliest in die order wins. The family is proven when every die carries
    its blocks' reference digits and every table has nine distinct digits
    and is leading at level 1 and rank-wise deeper. Then a pair first
    differing at level 1 duels by the leading property, and one first
    differing at level p >= 2 wins 3 of its 6 cross-rank comparisons on
    its level-1 digits and 2 or 1 of its 3 same-rank ones on the level-p
    table. The walk reads each digit once, takes majorities only in blocks
    whose dice disagree, and validates each distinct table of a level once.

    The certificate is sufficient, not necessary: a family it cannot prove
    may still pass. So at each level the walk compares the pairs first
    differing there that the tables leave open: those with a die that
    strays at that level or above, and those under a node whose table
    fails or whose level-1 block repeats a digit across its ranks.

    Returns (reason, failures, pairs compared). The reason is the first
    fault in walk order, level by level and a stray die before a failed
    table, or None when the family is proven. The failures are
    :func:`sweep_pairs`'s records of the compared pairs, in (i, j) order.
    """
    if depth < 1 or len(rank_faces) != 3 ** depth:
        raise ValueError(f"a depth-{depth} certificate needs exactly 3^{depth} dice")
    # columns[r][p]: digit p of the rank-r face of every die, in die order
    columns = [tuple(zip(*(faces[r] for faces in rank_faces))) for r in range(3)]
    reason, faces = None, None
    failures: list[Failure] = []
    scanned = 0
    strayed: set[int] = set()  # the dice that stray at this level or above
    for p in range(depth):
        size = 3 ** (depth - p - 1)
        digits = [column[p] for column in columns]
        refs, strays = [], set()
        for col in digits:
            heads = col[::size]
            if any(col[offset::size] != heads for offset in range(1, size)):
                heads = _block_majorities(col, size, strays)
            refs.append(heads)
        strayed |= strays
        if strays and reason is None:
            reason = _disagreement(digits, refs, min(strays), size, p, depth)
        check = validate_leading if p == 0 else validate_rankwise
        rows = list(zip(*refs))  # (rank 0, 1, 2) digits of each child block
        verdicts: dict[tuple, str | None] = {}
        bad = set()
        if p == 0:
            # a level-1 block whose digits repeat across ranks cannot settle
            # the cross-rank comparisons of the pairs beneath it
            crowded = [b for b, row in enumerate(rows) if len(set(row)) < 3]
        else:
            width = 3 ** (p - 1)  # the nodes of level p under one such block
            for b in crowded:
                bad.update(range(b * width, (b + 1) * width))
        for node, table in enumerate(zip(rows[0::3], rows[1::3], rows[2::3])):
            if table not in verdicts:
                verdicts[table] = _table_fault(table, check)
            if verdicts[table] is not None:
                bad.add(node)
                if reason is None:
                    reason = (
                        f"level {p + 1}, prefix ({_trits(node, p)}), table"
                        f" {';'.join(map(','.join, table))}:"
                        f" {verdicts[table]}"
                    )
        if (strayed or bad) and faces is None:
            faces = [(int(f0), int(f1), int(f2)) for f0, f1, f2 in rank_faces]
        span = 3 * size
        suspects = sorted(i for i in strayed if i // span not in bad)
        members = (i for n in bad for i in range(n * span, n * span + 2 * size))
        for i in chain(suspects, members):
            scanned += _forward(faces, i, size, p + 1, failures)
        for i in suspects:
            lo, trit = i - i % size, i // size % 3
            # earlier siblings but the suspects, whose own scan covered the
            # pair; i's block loses 4/9 to its predecessor and beats the block
            # before that 5/9
            for start, expected in ((1, 4), (2, 5))[:trit]:
                block = lo - start * size, lo - (start - 1) * size
                for first, stop in _gaps(*block, suspects):
                    backward: list[Failure] = []
                    _scan(faces, i, first, stop, expected, p + 1, backward)
                    failures.extend(
                        (j, i, level, 9 - w - t, t) for _, j, level, w, t in backward
                    )
                    scanned += stop - first
    failures.sort()
    return reason, failures, scanned


def _block_majorities(
    col: tuple[str, ...], size: int, strays: set[int]
) -> tuple[str, ...]:
    """Each child block's reference digit in one rank's column, adding the
    dice that do not carry it to ``strays``."""
    refs = []
    for lo in range(0, len(col), size):
        block = col[lo : lo + size]
        ref = block[0]
        if block.count(ref) != size:
            # most_common keeps first-seen order among equal counts
            ref = Counter(block).most_common(1)[0][0]
            strays.update(i for i, d in enumerate(block, lo) if d != ref)
        refs.append(ref)
    return tuple(refs)


def _table_fault(table, check) -> str | None:
    """Why a node table cannot certify its level, or None when it can."""
    digits = tuple(tuple(map(int, row)) for row in table)
    try:
        result = check(DigitAssignment(digits))
    except StackValidationError as exc:
        return str(exc)
    return None if result else result.detail()


def _disagreement(
    digits: list[tuple[str, ...]],
    refs: list[tuple[str, ...]],
    i: int,
    size: int,
    p: int,
    depth: int,
) -> str:
    """Name die i, which strays from its child block at level p, next to
    the first die of the block that carries the reference digit."""
    block = i // size
    rank = next(r for r, col in enumerate(digits) if col[i] != refs[r][block])
    col, ref = digits[rank], refs[rank][block]
    carrier = col.index(ref, block * size, (block + 1) * size)
    return (
        f"level {p + 1}, prefix ({_trits(i // (3 * size), p)}):"
        f" D{i + 1} ({_trits(i, depth)}) has digit {col[i]} at rank {rank}"
        f" where D{carrier + 1} ({_trits(carrier, depth)}) has {ref}"
    )


def _forward(
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
        _scan(faces, i, first, first + size, expected, level, failures)
    return (2 - trit) * size


def _gaps(lo: int, hi: int, skip: list[int]) -> Iterator[tuple[int, int]]:
    """The runs of [lo, hi) between the indices of the sorted ``skip``."""
    for k in range(bisect_left(skip, lo), len(skip)):
        if skip[k] >= hi:
            break
        if skip[k] > lo:
            yield lo, skip[k]
        lo = skip[k] + 1
    if lo < hi:
        yield lo, hi


def _trits(n: int, length: int) -> str:
    """``n`` as ``length`` base-3 digits: a die's word or a node's prefix."""
    return "".join(str(n // 3 ** (length - 1 - j) % 3) for j in range(length))
