"""The all-pairs duel sweep, walked one sibling block at a time.

In lexicographic word order the dice under one word prefix are contiguous:
at level p (0-based) a depth-k family splits into blocks of 3^(k-p-1)
dice, and three sibling blocks make up one block of the level above. Two
dice first differ at level p exactly when they sit in different sibling
blocks there, and the cycle 0 beats 1 beats 2 beats 0 between those
blocks' trits names the expected winner. So the sweep never reads a word:
for die i and each level it visits the later sibling blocks, at most two
contiguous index ranges, each with one expected win count.

Faces are packed base 10 into integers, which preserves the positional
comparison order for equal-length faces. A pair passes when the die
favored by the cycle wins exactly 5 of the 9 face comparisons and none of
them tie. With one face multiplicity across a family, these counts over
the 3x3 distinct-face grid are the exact duel probabilities times 9.

Pairs are mutually independent; the sweep runs single-threaded and emits
failures in (i, j) order, which is lexicographic word-pair order, so
reports are deterministic. ``bench/run.py`` times it end to end.

The same block layout carries a proof that reads no pair: ``certify``
recovers each node's digit table from its three child blocks and checks
the tables and the blocks' agreement with them in O(3^k·k) steps.
"""

from __future__ import annotations

from typing import Sequence

from metadice.dice import Face
from metadice.loshu import (
    DigitAssignment,
    StackValidationError,
    validate_leading,
    validate_rankwise,
)

Failure = tuple[int, int, int, int]
SweepResult = tuple[list[int], list[Failure]]


def available_backends() -> tuple[str, ...]:
    return ("pure",)


def pack_face(face: Face) -> int:
    """A face's digits read as one base-10 integer (face 221 becomes 221)."""
    code = 0
    for d in face:
        code = code * 10 + d
    return code


def level_pairs(depth: int) -> list[int]:
    """Pairs of a depth-``depth`` family per first-difference level (0-based).

    Level p has 3^p parent blocks, 3 sibling block pairs each and
    (3^(depth-p-1))^2 dice pairs per block pair.
    """
    return [3 ** (2 * depth - p - 1) for p in range(depth)]


def sweep_pairs(
    rank_faces: Sequence[tuple[Face, Face, Face]], depth: int
) -> SweepResult:
    """Check every unordered pair of a depth-``depth`` family's dice.

    ``rank_faces[i]`` holds die i's three faces, dice in lexicographic word
    order. Returns (pairs per first-difference level, failure records),
    each failure an (i, j, wins of i, ties) tuple in (i, j) order.
    """
    if depth < 1 or len(rank_faces) != 3 ** depth:
        raise ValueError(f"a depth-{depth} sweep needs exactly 3^{depth} dice")
    faces = [
        (pack_face(f0), pack_face(f1), pack_face(f2)) for f0, f1, f2 in rank_faces
    ]
    checked = level_pairs(depth)
    sizes = [3 ** (depth - p - 1) for p in range(depth)]
    failures: list[Failure] = []
    for i, die in enumerate(faces):
        # deepest level first, so the later dice j come in increasing order
        for size in reversed(sizes):
            trit = i // size % 3
            if trit == 2:
                continue
            # i's block beats its successor block 5/9 and loses 4/9 to the one
            # after it, which only a trit-0 block has as a later sibling
            nxt = i - i % size + size
            _scan(die, faces, i, nxt, nxt + size, 5, failures)
            if trit == 0:
                _scan(die, faces, i, nxt + size, nxt + 2 * size, 4, failures)
    return checked, failures


def _scan(
    die: tuple[int, int, int],
    faces: list[tuple[int, int, int]],
    i: int,
    lo: int,
    hi: int,
    expected: int,
    failures: list[Failure],
) -> None:
    """Record each die j in [lo, hi) that die i does not beat by ``expected``/9."""
    a0, a1, a2 = die
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
            failures.append((i, j, wins, ties))


def certify(
    rank_faces: Sequence[tuple[Face, Face, Face]], depth: int
) -> str | None:
    """Prove from its node tables that every pair duels 5/9 the cycle's way.

    At level p (1-based) each block of 3^(depth-p+1) dice is a node, and
    digit p of its three child blocks' faces, rank by rank, is the node's
    table. The family is proven when every die agrees at every rank with
    the first die of its child block, and every table has nine distinct
    digits and is leading at level 1 and rank-wise deeper. Then a pair
    first differing at level 1 duels by the leading property, and one first
    differing at level p >= 2 wins 3 of its 6 cross-rank comparisons on
    its level-1 digits and 2 or 1 of its 3 same-rank ones on the level-p
    table. The walk reads each digit once and validates each distinct
    table of a level once.

    Returns None when the family is proven, otherwise one line naming the
    level, the node's word prefix and the failed check. The certificate is
    sufficient, not necessary: a family it cannot prove may still pass
    :func:`sweep_pairs`, which alone decides a verdict.
    """
    if depth < 1 or len(rank_faces) != 3 ** depth:
        raise ValueError(f"a depth-{depth} certificate needs exactly 3^{depth} dice")
    # columns[r][p]: digit p of the rank-r face of every die, in die order
    columns = [tuple(zip(*(faces[r] for faces in rank_faces))) for r in range(3)]
    for p in range(depth):
        size = 3 ** (depth - p - 1)
        digits = [column[p] for column in columns]
        heads = [col[::size] for col in digits]
        if any(
            col[offset::size] != head
            for col, head in zip(digits, heads)
            for offset in range(1, size)
        ):
            return _disagreement(digits, size, p, depth)
        check = validate_leading if p == 0 else validate_rankwise
        rows = list(zip(*heads))  # (rank 0, 1, 2) digits of each child block
        verdicts: dict[tuple, str | None] = {}
        for node, table in enumerate(zip(rows[0::3], rows[1::3], rows[2::3])):
            if table not in verdicts:
                verdicts[table] = _table_fault(table, check)
            if verdicts[table] is not None:
                return (
                    f"level {p + 1}, prefix ({_trits(node, p)}), table"
                    f" {';'.join(','.join(map(str, row)) for row in table)}:"
                    f" {verdicts[table]}"
                )
    return None


def _table_fault(table, check) -> str | None:
    """Why a node table cannot certify its level, or None when it can."""
    try:
        result = check(DigitAssignment(table))
    except StackValidationError as exc:
        return str(exc)
    return None if result else result.detail()


def _disagreement(
    digits: list[tuple[int, ...]], size: int, p: int, depth: int
) -> str:
    """Name the first die whose level-p digit differs from its child block's
    first die; the caller has seen that one does."""
    i, rank = next(
        (i, rank)
        for i in range(len(digits[0]))
        for rank, col in enumerate(digits)
        if col[i] != col[i - i % size]
    )
    head, col = i - i % size, digits[rank]
    return (
        f"level {p + 1}, prefix ({_trits(i // (3 * size), p)}):"
        f" D{i + 1} ({_trits(i, depth)}) has digit {col[i]} at rank {rank}"
        f" where D{head + 1} ({_trits(head, depth)}) has {col[head]}"
    )


def _trits(n: int, length: int) -> str:
    """``n`` as ``length`` base-3 digits: a die's word or a node's prefix."""
    return "".join(str(n // 3 ** (length - 1 - j) % 3) for j in range(length))
