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
"""

from __future__ import annotations

from typing import Sequence

from metadice.dice import Face

#: The one sweep implementation, named in verification reports.
BACKEND = "pure"

Failure = tuple[int, int, int, int]
SweepResult = tuple[list[int], list[Failure]]


def available_backends() -> tuple[str, ...]:
    return (BACKEND,)


def pack_face(face: Face) -> int:
    """A face's digits read as one base-10 integer (face 221 becomes 221)."""
    code = 0
    for d in face:
        code = code * 10 + d
    return code


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
    # 3^p parent blocks, 3 sibling block pairs each, size^2 dice pairs each
    checked = [3 ** (2 * depth - p - 1) for p in range(depth)]
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
