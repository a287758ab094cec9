"""The family layer: dice families, their documents, generation and
dominance verification.

A depth-k family holds one die per ternary word of length k. The digit a die
receives at nesting level j is looked up in the stack's level-j table using
the word's j-th trit (the subset) and the face's rank, so dice sharing a word
prefix agree rank-by-rank on all prefix levels. Two distinct dice therefore
duel exactly like their first differing trits: the cycle 0 beats 1 beats 2
beats 0 decides the winner, always at probability 5/9.

``generate`` keeps the dice of :func:`metadice.loshu.walk_dice` as a
family, and ``face_value`` follows a single word's path.

A family is stored as its depth, face multiplicity, rank faces in word
order and, when it has one, its stack. A face is its digit string, one Lo
Shu digit per nesting level, as the documents write it; for equal lengths
string order is the positional digit order. Words follow from the depth and
are derived on first use. No ``Die`` is ever built from a family: its node
tables or integer win counts over the 3x3 face grid settle verification,
and the full dominance graph reads its failing pairs from
:func:`verify_family`'s report.

``verify_family`` proves that claim for a concrete family in one walk of its
levels, by the node-table certificate or by checking, level by level, the
pairs the tables cannot vouch for; the :mod:`metadice.certificate`
docstring describes the two paths. A validated stack needs none of this:
:func:`metadice.loshu.verify_stack` proves it from its depth, so a command
on a stack never compiles this module. ``monte_carlo`` is the stochastic
cross-check of the exact duel engine, :mod:`metadice.dice`, which this
module does not import.
"""

from __future__ import annotations

import itertools
import operator
import time
from bisect import bisect_right
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from metadice.loshu import AssignmentStack, LengthMismatchError, Value, family_header
from metadice.loshu import is_digit_string, is_int, parse_stack, walk_dice
from metadice.sweep import VerificationReport

if TYPE_CHECKING:
    from metadice.dice import Die, DuelResult

Word = tuple[int, ...]


class FamilyFormatError(ValueError):
    """A family document (JSON or listing) violates the schema."""


def die_number(word: Word) -> int:
    """1-based position of a word in its family's numbering (D1, D2, ...).

    Words are numbered lexicographically: n = 1 + sum of w_j * 3^(k-j).
    """
    n = 0
    for t in word:
        if not is_int(t) or t not in (0, 1, 2):
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


def face_value(word: Word, rank: int, stack: AssignmentStack) -> str:
    """Digit string of the rank-``rank`` face of the die at ``word``."""
    if len(word) != stack.depth:
        raise ValueError(
            f"word length {len(word)} does not match stack depth {stack.depth}"
        )
    if isinstance(rank, bool) or rank not in (0, 1, 2):
        raise ValueError(f"rank must be 0, 1 or 2, got {rank}")
    die_number(word)  # checks the trits before they index the tables
    return "".join(
        str(stack.assignment_at(j, word)[t][rank]) for j, t in enumerate(word, 1)
    )


class DiceFamily(Value):
    """All 3^depth dice of one construction, addressed by ternary words.

    ``rank_faces[i]`` are die i's faces in rank order, each a string of
    ``depth`` ASCII digits, entries in lexicographic word order, so index =
    die number - 1. ``stack`` is None for families imported from documents
    that carry no construction.
    ``words`` is derived from the depth on first use and cached; a die is
    read as its rank faces, each at the family multiplicity. A family is
    a :class:`~metadice.loshu.Value` of its four fields. The constructor
    checks every die; only :func:`generate` skips the checks.
    """

    _fields = ("depth", "multiplicity", "rank_faces", "stack")
    depth: int
    multiplicity: int
    rank_faces: tuple[tuple[str, str, str], ...]
    stack: AssignmentStack | None

    def __init__(
        self,
        depth: int,
        multiplicity: int,
        rank_faces: tuple[tuple[str, str, str], ...],
        stack: AssignmentStack | None = None,
    ):
        for name, value in (("depth", depth), ("multiplicity", multiplicity)):
            if not is_int(value):
                raise FamilyFormatError(f"{name} must be an integer, got {value!r}")
        if depth < 1:
            raise FamilyFormatError("depth must be at least 1")
        if multiplicity < 1:
            raise FamilyFormatError("face multiplicity must be positive")
        size = len(rank_faces)
        # a depth above the entry count cannot match, so 3^depth is not built
        if depth > size or 3 ** depth != size:
            raise FamilyFormatError(
                f"a depth-{depth} family needs exactly 3^{depth} dice"
            )
        if not _dice_sound(rank_faces, depth):
            _check_each_die(rank_faces, depth)
        self._set(
            depth=depth, multiplicity=multiplicity, rank_faces=rank_faces, stack=stack
        )

    @classmethod
    def _trusted(cls, depth, multiplicity, rank_faces, stack) -> DiceFamily:
        """The family of these fields without the constructor's checks, for
        :func:`generate` only."""
        family = object.__new__(cls)
        family._set(
            depth=depth, multiplicity=multiplicity, rank_faces=rank_faces, stack=stack
        )
        return family

    @cached_property
    def words(self) -> tuple[Word, ...]:
        return tuple(itertools.product((0, 1, 2), repeat=self.depth))

    @property
    def size(self) -> int:
        return len(self.rank_faces)


def _dice_sound(rank_faces: Sequence, depth: int) -> bool:
    """True when every die is a tuple or list of three distinct strings of
    ``depth`` ASCII digits, checked over all faces at once. False may also
    mean a subclass that the per-die checks accept."""
    if set(map(type, rank_faces)) - {tuple, list} or set(map(len, rank_faces)) != {3}:
        return False
    columns = tuple(zip(*rank_faces))
    faces = list(itertools.chain.from_iterable(columns))
    if set(map(type, faces)) != {str} or set(map(len, faces)) != {depth}:
        return False
    text = "".join(faces)
    first, second, third = columns
    return (
        text.isascii()
        and text.isdigit()
        and all(map(operator.ne, first, second))
        and all(map(operator.ne, second, third))
        and all(map(operator.ne, first, third))
    )


def _check_each_die(rank_faces: Sequence, depth: int) -> None:
    """Raise :class:`FamilyFormatError` naming the first die that is not
    three distinct faces of ``depth`` ASCII digits."""
    for n, faces in enumerate(rank_faces, start=1):
        # shape and face types before set(), which hashes the faces
        shaped = isinstance(faces, (tuple, list)) and len(faces) == 3
        strings = shaped and all(map(is_digit_string, faces))
        if not shaped or (strings and len(set(faces)) != 3):
            raise FamilyFormatError(
                f"die {face_word_label(word_of(n, depth))} needs 3 distinct faces"
            )
        if not strings or not (
            len(faces[0]) == len(faces[1]) == len(faces[2]) == depth
        ):
            raise FamilyFormatError(
                f"die {face_word_label(word_of(n, depth))} has a face"
                f" that is not {depth} digits from 0..9"
            )


def face_word_label(word: Word) -> str:
    """Human label for a word: its D-number plus the trits."""
    return f"D{die_number(word)} ({''.join(str(t) for t in word)})"


def generate(stack: AssignmentStack, multiplicity: int = 2) -> DiceFamily:
    """The whole depth-``stack.depth`` family of an assignment stack: the
    dice of :func:`~metadice.loshu.walk_dice`, at face multiplicity
    ``multiplicity``.

    Every die is valid by construction, so this is the one builder that
    skips :class:`DiceFamily`'s per-die checks, which take as long as the
    walk. The commands that write a stack's family read the walk itself.
    """
    if multiplicity < 1:
        raise ValueError("face multiplicity must be positive")
    rank_faces = tuple(walk_dice(stack))
    return DiceFamily._trusted(stack.depth, multiplicity, rank_faces, stack)


class PairFailure(NamedTuple):
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


def verify_family(family: DiceFamily) -> VerificationReport:
    """Check that every pair duels at exactly (5/9, 0, 4/9) in favor of
    :func:`predicted_winner`.

    One walk of the family's levels tries the certificate and, where it
    cannot prove the family, checks the pairs the node tables cannot vouch
    for as it goes (see the :mod:`metadice.certificate` docstring). Every
    path reports the same counts and failures; ``method`` says which ran
    and ``pairs_scanned`` how many pairs it compared.

    Failures are data, not errors: the scan's integer records, each with
    its level, in lexicographic word-pair order, however the independent
    pair checks are scheduled. No failure is decoded here.
    """
    # imported here, so that only the commands that check a family's dice
    # compile and hold the certificate
    from metadice.certificate import certify

    start = time.perf_counter()
    reason, records, scanned = certify(family.rank_faces, family.depth)
    elapsed = time.perf_counter() - start
    return VerificationReport(
        family.depth, family.multiplicity, tuple(records), elapsed, reason, scanned
    )


def monte_carlo(x: Die, y: Die, trials: int, seed: int = 0) -> float:
    """Estimated frequency of x beating y over seeded independent rolls.

    Deterministic for a fixed seed; ties count as non-wins. This is the
    stochastic cross-check of the exact :func:`metadice.dice.duel` engine.
    """
    # imported here, so that only ``simulate`` loads it
    import random

    if trials < 1:
        raise ValueError("trials must be at least 1")
    if x.digit_length != y.digit_length:
        raise LengthMismatchError("dice with different face lengths cannot duel")
    # a roll draws an index into the faces as expand() would list them,
    # which bisecting the running multiplicity totals maps to its face
    fx, fy = ([face for face, _ in die.faces] for die in (x, y))
    cx, cy = (list(itertools.accumulate(m for _, m in die.faces)) for die in (x, y))
    nx, ny = cx[-1], cy[-1]
    rng = random.Random(seed)
    wins = 0
    for _ in range(trials):
        roll = fx[bisect_right(cx, rng.randrange(nx))]
        if roll > fy[bisect_right(cy, rng.randrange(ny))]:
            wins += 1
    return wins / trials


def family_to_json(family: DiceFamily) -> dict:
    """The family document: construction echo plus all dice in number order.
    ``cli.family_json_text`` writes its text without building it."""
    doc = family_header(family.depth, family.multiplicity, family.stack)
    doc["dice"] = [
        {"word": list(word), "paper_number": n, "faces": list(faces)}
        for n, (word, faces) in enumerate(zip(family.words, family.rank_faces), 1)
    ]
    return doc


def family_from_json(doc: dict) -> DiceFamily:
    """Rebuild a family from its document form.

    This checks the document: its fields, each entry's shape, and that
    entry n lists the n-th word of the lexicographic walk and paper number
    n + 1, when it gives one. :class:`DiceFamily` checks the dice: their
    count, and three distinct faces of ``depth`` ASCII digits each. The
    stack echo, when present, is re-parsed, re-validated and its walk must
    yield exactly the listed dice, which are compared die by die as it
    goes; without one, third-party families are verified from their faces.
    Every fault raises :class:`FamilyFormatError`.
    """
    depth = document_depth(doc)
    entries = doc["dice"]
    multiplicity = _int_field(doc.get("multiplicity", 2), "multiplicity")
    stack = None
    if doc.get("stack") is not None:
        stack_lines = doc["stack"]
        if not isinstance(stack_lines, list) or not all(
            isinstance(line, str) for line in stack_lines
        ):
            raise FamilyFormatError("stack must be a list of level descriptors")
        stack = parse_stack("\n".join(stack_lines))
        if stack.depth != depth:
            raise FamilyFormatError(
                f"stack depth {stack.depth} does not match family depth {depth}"
            )
    if not isinstance(entries, list):
        raise FamilyFormatError("dice must be a list")
    # a document may claim any depth: DiceFamily refuses one below 1 or
    # above the entry count, so its walk is never built
    walk = None
    if 1 <= depth <= len(entries):
        walk = itertools.product((0, 1, 2), repeat=depth)
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
        word = tuple([_int_field(t, "a trit", pos) for t in entry["word"]])
        if walk is not None and word != next(walk, None):
            raise FamilyFormatError(
                f"words must cover all of them in lexicographic order;"
                f" entry {pos} is {word}"
            )
        number = entry.get("paper_number")
        if number is not None and _int_field(number, "paper_number", pos) != pos + 1:
            raise FamilyFormatError(
                f"dice entry {pos}: paper_number {number} does not match"
                f" word {list(word)}"
            )
        rank_faces.append(tuple(entry["faces"]))
    family = DiceFamily(depth, multiplicity, tuple(rank_faces), stack)
    if stack is not None:
        for n, (listed, built) in enumerate(zip(family.rank_faces, walk_dice(stack))):
            if listed != built:
                raise FamilyFormatError(
                    f"die {face_word_label(word_of(n + 1, depth))} has faces"
                    f" {' '.join(listed)} but the stack echo"
                    f" generates {' '.join(built)}"
                )
    return family


def document_depth(doc: object) -> int:
    """The depth a family document claims, read as :func:`family_from_json`
    reads it before any die, so a caller can refuse the depth first: a JSON
    integer or a string of ASCII digits. A document that is not an object
    with depth and dice, or whose depth is neither, raises
    :class:`FamilyFormatError`."""
    if not isinstance(doc, dict):
        raise FamilyFormatError("family document must be a JSON object")
    if "depth" not in doc or "dice" not in doc:
        raise FamilyFormatError("missing family field: need depth and dice")
    return _int_field(doc["depth"], "depth")


def _int_field(value: object, name: str, pos: int | None = None) -> int:
    """An integer document field: a JSON integer or a string of ASCII digits."""
    if type(value) is int:  # bool, an int subclass, is refused below
        return value
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
    recorded: row n holds the three faces of die n. The first face's length
    is the depth; :class:`DiceFamily` refuses every other fault.
    """
    rank_faces = tuple(map(tuple, face_rows))
    if not rank_faces:
        raise FamilyFormatError("listing contains no dice")
    first = rank_faces[0][:1]
    if not (first and is_digit_string(first[0])):
        raise FamilyFormatError("row 1: faces must be digit strings")
    return DiceFamily(len(first[0]), multiplicity, rank_faces)
