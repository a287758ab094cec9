"""Recursive dice-family generation and exhaustive dominance verification.

A depth-k family holds one die per ternary word of length k. The digit a die
receives at nesting level j is looked up in the stack's level-j table using
the word's j-th trit (the subset) and the face's rank, so dice sharing a word
prefix agree rank-by-rank on all prefix levels. Two distinct dice therefore
duel exactly like their first differing trits: the cycle 0 beats 1 beats 2
beats 0 decides the winner, always at probability 5/9.

``verify_family`` proves that claim for a concrete family by checking every
unordered pair exactly.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from metadice.dice import (
    Die,
    DuelResult,
    Face,
    LengthMismatchError,
    duel,
    face_text,
    is_digit_string,
)
from metadice.loshu import AssignmentStack, StackValidationError, parse_stack
from metadice.sweep import BACKEND, sweep_pairs

Word = tuple[int, ...]


class FamilyFormatError(ValueError):
    """A family document (JSON or listing) violates the schema."""


def die_number(word: Word) -> int:
    """1-based position of a word in its family's numbering (D1, D2, ...).

    Words are numbered lexicographically: n = 1 + sum of w_j * 3^(k-j).
    """
    n = 0
    for t in word:
        if t not in (0, 1, 2):
            raise ValueError(f"word trits must be 0, 1 or 2, got {t}")
        n = 3 * n + t
    return n + 1


def word_of(n: int, depth: int) -> Word:
    """Inverse of :func:`die_number` for a depth-``depth`` family."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    size = 3 ** depth
    if not 1 <= n <= size:
        raise ValueError(f"die number {n} outside 1..{size}")
    rest = n - 1
    trits = []
    for _ in range(depth):
        rest, t = divmod(rest, 3)
        trits.append(t)
    return tuple(reversed(trits))


def predicted_winner(w: Word, v: Word) -> Word | None:
    """The word favored by the first-differing-trit cycle; None when w == v."""
    if len(w) != len(v):
        raise LengthMismatchError("words of different lengths are incomparable")
    for a, b in zip(w, v):
        if a != b:
            return w if (a + 1) % 3 == b else v
    return None


def face_value(word: Word, rank: int, stack: AssignmentStack) -> Face:
    """Digits of the rank-``rank`` face of the die at ``word``."""
    if len(word) != stack.depth:
        raise ValueError(
            f"word length {len(word)} does not match stack depth {stack.depth}"
        )
    if rank not in (0, 1, 2):
        raise ValueError(f"rank must be 0, 1 or 2, got {rank}")
    return _stack_faces(stack, (word,))[0][rank]


@dataclass(frozen=True)
class DiceFamily:
    """All 3^depth dice of one construction, addressed by ternary words.

    ``rank_faces[i]`` are die i's faces in rank order; ``dice[i]`` is the
    corresponding die with every face at the family multiplicity. Entries
    follow lexicographic word order, so index = die number - 1. ``stack`` is
    None for families imported from documents that carry no construction.
    """

    depth: int
    multiplicity: int
    words: tuple[Word, ...]
    rank_faces: tuple[tuple[Face, Face, Face], ...]
    stack: AssignmentStack | None = None
    dice: tuple[Die, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.depth < 1:
            raise FamilyFormatError("depth must be at least 1")
        if self.multiplicity < 1:
            raise FamilyFormatError("face multiplicity must be positive")
        size = len(self.words)
        # a depth above the entry count cannot match, so 3^depth is not built
        if (
            self.depth > size
            or 3 ** self.depth != size
            or len(self.rank_faces) != size
        ):
            raise FamilyFormatError(
                f"a depth-{self.depth} family needs exactly 3^{self.depth} dice"
            )
        for idx, word in enumerate(self.words):
            if word != word_of(idx + 1, self.depth):
                raise FamilyFormatError(
                    f"words must cover all of them in lexicographic order;"
                    f" entry {idx} is {word}"
                )
        for word, faces in zip(self.words, self.rank_faces):
            if len(faces) != 3 or len(set(faces)) != 3:
                raise FamilyFormatError(
                    f"die {face_word_label(word)} needs 3 distinct faces"
                )
            if any(len(f) != self.depth for f in faces):
                raise FamilyFormatError(
                    f"die {face_word_label(word)} has a face whose length"
                    f" is not the family depth {self.depth}"
                )
        object.__setattr__(
            self,
            "dice",
            tuple(
                Die.from_values(faces, self.multiplicity)
                for faces in self.rank_faces
            ),
        )

    @property
    def size(self) -> int:
        return len(self.words)

    def die_at(self, word: Word) -> Die:
        return self.dice[die_number(word) - 1]

    def faces_at(self, word: Word) -> tuple[Face, Face, Face]:
        return self.rank_faces[die_number(word) - 1]


def face_word_label(word: Word) -> str:
    """Human label for a word: its D-number plus the trits."""
    return f"D{die_number(word)} ({''.join(str(t) for t in word)})"


def _stack_faces(
    stack: AssignmentStack, words: Sequence[Word]
) -> tuple[tuple[Face, Face, Face], ...]:
    """Rank faces of the die at each word, read off the stack's tables."""
    k = stack.depth
    rank_faces = []
    for w in words:
        tables = [stack.assignment_at(j, w[: j - 1]) for j in range(1, k + 1)]
        rank_faces.append(
            tuple(
                tuple(tables[j][w[j]][rank] for j in range(k))
                for rank in range(3)
            )
        )
    return tuple(rank_faces)


def generate(stack: AssignmentStack, multiplicity: int = 2) -> DiceFamily:
    """Fill the whole depth-``stack.depth`` family from an assignment stack.

    Stack validity is established at stack construction; this walk only
    reads tables. Dice come out pairwise distinct because the level-1
    digits already separate the three subsets; a collision is still raised
    as a :class:`StackValidationError` rather than returned.
    """
    if multiplicity < 1:
        raise ValueError("face multiplicity must be positive")
    words = tuple(itertools.product((0, 1, 2), repeat=stack.depth))
    family = DiceFamily(
        stack.depth, multiplicity, words, _stack_faces(stack, words), stack
    )
    if len(set(family.dice)) != family.size:
        raise StackValidationError("the stack generates colliding dice")
    return family


@dataclass(frozen=True)
class PairFailure:
    """One pair that missed the exact (5/9, 0, 4/9) outcome."""

    word_a: Word
    word_b: Word
    expected_winner: Word
    observed: DuelResult

    def describe(self) -> str:
        return (
            f"{face_word_label(self.word_a)} vs {face_word_label(self.word_b)}:"
            f" expected {face_word_label(self.expected_winner)} to win 5/9,"
            f" observed win {self.observed.win} tie {self.observed.tie}"
            f" loss {self.observed.loss}"
        )


@dataclass(frozen=True)
class LevelSummary:
    """All cross-subtree pairs whose first differing trit sits at ``level``."""

    level: int
    pairs: int
    failures: int

    @property
    def ok(self) -> bool:
        return self.failures == 0


@dataclass(frozen=True)
class VerificationReport:
    depth: int
    dice_count: int
    multiplicity: int
    pairs_checked: int
    failures: tuple[PairFailure, ...]
    per_level: tuple[LevelSummary, ...]
    elapsed: float
    backend: str

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_family(family: DiceFamily) -> VerificationReport:
    """Exhaustively check that every pair duels at exactly (5/9, 0, 4/9)
    in favor of :func:`predicted_winner`.

    Failures are data, not errors; the report carries them in lexicographic
    word-pair order together with a per-level summary, so it is the same
    regardless of how the independent pair checks are scheduled.
    """
    start = time.perf_counter()
    checked, raw_failures = sweep_pairs(family.rank_faces, family.depth)

    failures = []
    fail_levels: Counter[int] = Counter()
    for i, j, _wins, _ties in raw_failures:
        w, v = family.words[i], family.words[j]
        p = next(idx for idx, (a, b) in enumerate(zip(w, v)) if a != b)
        fail_levels[p] += 1
        failures.append(
            PairFailure(w, v, predicted_winner(w, v), duel(family.dice[i], family.dice[j]))
        )
    per_level = tuple(
        LevelSummary(p + 1, checked[p], fail_levels.get(p, 0))
        for p in range(family.depth)
    )
    return VerificationReport(
        depth=family.depth,
        dice_count=family.size,
        multiplicity=family.multiplicity,
        pairs_checked=sum(checked),
        failures=tuple(failures),
        per_level=per_level,
        elapsed=time.perf_counter() - start,
        backend=BACKEND,
    )


def monte_carlo(x: Die, y: Die, trials: int, seed: int = 0) -> float:
    """Estimated frequency of x beating y over seeded independent rolls.

    Deterministic for a fixed seed; ties count as non-wins. This is the
    stochastic cross-check of the exact :func:`metadice.dice.duel` engine.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if x.digit_length != y.digit_length:
        raise LengthMismatchError("dice with different face lengths cannot duel")
    fx = x.expand()
    fy = y.expand()
    nx, ny = len(fx), len(fy)
    rng = random.Random(seed)
    wins = 0
    for _ in range(trials):
        if fx[rng.randrange(nx)] > fy[rng.randrange(ny)]:
            wins += 1
    return wins / trials


def family_to_json(family: DiceFamily) -> dict:
    """The family document: construction echo plus all dice in number order."""
    doc: dict = {"depth": family.depth, "multiplicity": family.multiplicity}
    if family.stack is not None:
        doc["stack"] = family.stack.lines()
    doc["dice"] = [
        {
            "word": list(word),
            "paper_number": die_number(word),
            "faces": [face_text(f) for f in faces],
        }
        for word, faces in zip(family.words, family.rank_faces)
    ]
    return doc


def family_from_json(doc: dict) -> DiceFamily:
    """Rebuild a family from its document form, validating the schema.

    The stack echo, when present, is re-parsed, re-validated and must
    generate exactly the listed dice; dice are checked for completeness and
    consistent numbering either way, so third-party families can be
    verified without a construction. Every schema fault raises
    :class:`FamilyFormatError`.
    """
    if not isinstance(doc, dict):
        raise FamilyFormatError("family document must be a JSON object")
    if "depth" not in doc or "dice" not in doc:
        raise FamilyFormatError("missing family field: need depth and dice")
    depth = _int_field(doc["depth"], "depth")
    entries = doc["dice"]
    multiplicity = _int_field(doc.get("multiplicity", 2), "multiplicity")
    stack = None
    if doc.get("stack") is not None:
        stack_lines = doc["stack"]
        if not isinstance(stack_lines, list) or not all(
            isinstance(line, str) for line in stack_lines
        ):
            raise FamilyFormatError("stack must be a list of level descriptors")
        stack = parse_stack("\n".join(stack_lines), allow_zero=True)
        if stack.depth != depth:
            raise FamilyFormatError(
                f"stack depth {stack.depth} does not match family depth {depth}"
            )
    if not isinstance(entries, list):
        raise FamilyFormatError("dice must be a list")
    words = []
    rank_faces = []
    for pos, entry in enumerate(entries):
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("word"), list)
            and isinstance(entry.get("faces"), list)
        ):
            raise FamilyFormatError(
                f"dice entry {pos} is malformed: need an object with"
                " word and faces lists"
            )
        word = tuple(_int_field(t, "a trit", pos) for t in entry["word"])
        if any(t not in (0, 1, 2) for t in word):
            raise FamilyFormatError(f"dice entry {pos} has a bad trit")
        number = entry.get("paper_number")
        if number is not None and _int_field(
            number, "paper_number", pos
        ) != die_number(word):
            raise FamilyFormatError(
                f"dice entry {pos}: paper_number {number} does not match"
                f" word {list(word)}"
            )
        faces = []
        for s in entry["faces"]:
            if not is_digit_string(s):
                raise FamilyFormatError(
                    f"dice entry {pos}: faces must be digit strings"
                )
            faces.append(tuple(int(c) for c in s))
        words.append(word)
        rank_faces.append(tuple(faces))
    family = DiceFamily(depth, multiplicity, tuple(words), tuple(rank_faces), stack)
    if stack is not None:
        built = _stack_faces(stack, family.words)
        for word, faces, echo in zip(family.words, family.rank_faces, built):
            if faces != echo:
                raise FamilyFormatError(
                    f"die {face_word_label(word)} has faces"
                    f" {' '.join(map(face_text, faces))} but the stack echo"
                    f" generates {' '.join(map(face_text, echo))}"
                )
    return family


def _int_field(value: object, name: str, pos: int | None = None) -> int:
    """An integer document field: a JSON integer or a string of ASCII digits."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or is_digit_string(value)
    ):
        where = "" if pos is None else f"dice entry {pos}: "
        raise FamilyFormatError(f"{where}{name} must be an integer, got {value!r}")
    return int(value)


def family_from_rows(
    face_rows: Iterable[Sequence[str]], multiplicity: int = 2
) -> DiceFamily:
    """Build a family from face-string rows in die-number order.

    Used for the plain text listing format, where the construction is not
    recorded: row n holds the three faces of die n.
    """
    rank_faces = []
    depth = None
    for pos, row in enumerate(face_rows):
        if len(row) != 3:
            raise FamilyFormatError(f"row {pos + 1}: expected 3 faces")
        if not all(map(is_digit_string, row)):
            raise FamilyFormatError(f"row {pos + 1}: faces must be digit strings")
        if depth is None:
            depth = len(row[0])
        rank_faces.append(tuple(tuple(int(c) for c in s) for s in row))
    if depth is None or depth < 1:
        raise FamilyFormatError("listing contains no dice")
    size = len(rank_faces)
    k = 0
    while 3 ** k < size:
        k += 1
    if 3 ** k != size or k != depth:
        raise FamilyFormatError(
            f"{size} dice with {depth}-digit faces do not form a complete family"
        )
    words = tuple(word_of(n, depth) for n in range(1, size + 1))
    return DiceFamily(depth, multiplicity, words, tuple(rank_faces), None)
