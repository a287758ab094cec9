"""The family layer: dice families, their documents, generation and
dominance verification.

A depth-k family holds one die per ternary word of length k. The digit a die
receives at nesting level j is looked up in the stack's level-j table using
the word's j-th trit (the subset) and the face's rank, so dice sharing a word
prefix agree rank-by-rank on all prefix levels. Two distinct dice therefore
duel exactly like their first differing trits: the cycle 0 beats 1 beats 2
beats 0 decides the winner, always at probability 5/9.

``generate`` builds a family of the dice of
:func:`metadice.loshu.walk_dice` through the one constructor, which checks
every family however it was made, and ``face_value`` follows a single
word's path.

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
on a stack never compiles this module. It does not import the exact duel
engine, :mod:`metadice.dice`, which holds ``monte_carlo``, its stochastic
cross-check.
"""

from __future__ import annotations

import itertools
import operator
import time
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from metadice.loshu import AssignmentStack, LengthMismatchError, Value, check_counts
from metadice.loshu import die_label, family_header, is_digit_string, is_int
from metadice.loshu import parse_stack, trits, walk_dice
from metadice.sweep import VerificationReport

if TYPE_CHECKING:
    from metadice.dice import DuelResult

Word = tuple[int, ...]


class FamilyFormatError(ValueError):
    """A family document (JSON or listing) violates the schema."""


def die_number(word: Word) -> int:
    """1-based position of a word in its family's numbering (D1, D2, ...).

    Words are numbered lexicographically: n = 1 + sum of w_j * 3^(k-j).
    """
    for t in word:
        if not is_int(t) or t not in (0, 1, 2):
            raise ValueError(f"word trits must be 0, 1 or 2, got {t}")
    return int("0" + "".join(map(str, word)), 3) + 1


def word_of(n: int, depth: int) -> Word:
    """Inverse of :func:`die_number` for a depth-``depth`` family."""
    for name, value in (("die number", n), ("depth", depth)):
        if not is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    size = 3 ** depth
    if not 1 <= n <= size:
        raise ValueError(f"die number {n} outside 1..{size}")
    return tuple(map(int, trits(n - 1, depth)))


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
    is the one way to build one, :func:`generate` included: it takes the
    dice as any iterable, read only once the depth and multiplicity pass,
    checks every die and keeps the dice as tuples, copying dice given as
    lists.
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
        rank_faces: Iterable[Sequence[str]],
        stack: AssignmentStack | None = None,
    ):
        check_counts(depth, multiplicity, FamilyFormatError)
        rank_faces = tuple(rank_faces)
        size = len(rank_faces)
        # a depth above the entry count cannot match, so 3^depth is not built
        if depth > size or 3 ** depth != size:
            raise FamilyFormatError(
                f"a depth-{depth} family needs exactly 3^{depth} dice"
            )
        kinds = set(map(type, rank_faces))
        if not (kinds <= {tuple, list} and _dice_sound(rank_faces, depth)):
            _check_each_die(rank_faces, depth)
        if kinds != {tuple}:
            # a caller's lists would leave the value unhashable and open to
            # edits past these checks; the loaders and the walk give tuples
            rank_faces = tuple(map(tuple, rank_faces))
        self._set(
            depth=depth, multiplicity=multiplicity, rank_faces=rank_faces, stack=stack
        )

    @cached_property
    def words(self) -> tuple[Word, ...]:
        return tuple(itertools.product((0, 1, 2), repeat=self.depth))

    @property
    def size(self) -> int:
        return len(self.rank_faces)


def _dice_sound(rank_faces: Sequence, depth: int) -> bool:
    """True when the dice, each a tuple or list, are three distinct strings
    of ``depth`` ASCII digits each, checked at C speed one rank at a time:
    beside a list of pointers per rank, only one rank's joined text is
    built at once, never a copy of every face. False may also mean a
    subclass that the per-die checks accept."""
    if set(map(len, rank_faces)) != {3}:
        return False
    ranks = [list(map(operator.itemgetter(r), rank_faces)) for r in range(3)]
    for faces in ranks:
        if set(map(type, faces)) != {str} or set(map(len, faces)) != {depth}:
            return False
        text = "".join(faces)
        if not (text.isascii() and text.isdigit()):
            return False
    first, second, third = ranks
    return (
        all(map(operator.ne, first, second))
        and all(map(operator.ne, second, third))
        and all(map(operator.ne, first, third))
    )


def _check_each_die(rank_faces: Sequence, depth: int) -> None:
    """Raise :class:`FamilyFormatError` naming the first die that is not
    three distinct faces of ``depth`` ASCII digits."""
    for i, faces in enumerate(rank_faces):
        # shape and face types before set(), which hashes the faces
        shaped = isinstance(faces, (tuple, list)) and len(faces) == 3
        strings = shaped and all(map(is_digit_string, faces))
        if not shaped or (strings and len(set(faces)) != 3):
            raise FamilyFormatError(f"die {die_label(i, depth)} needs 3 distinct faces")
        if not strings or not (
            len(faces[0]) == len(faces[1]) == len(faces[2]) == depth
        ):
            raise FamilyFormatError(
                f"die {die_label(i, depth)} has a face"
                f" that is not {depth} digits from 0..9"
            )


def generate(stack: AssignmentStack, multiplicity: int = 2) -> DiceFamily:
    """The whole depth-``stack.depth`` family of an assignment stack: the
    dice of :func:`~metadice.loshu.walk_dice`, at face multiplicity
    ``multiplicity``, built by :class:`DiceFamily`, which checks them and
    refuses what it refuses, a bad multiplicity before it reads the walk.

    Every die is valid by construction, yet no family skips the checks:
    they take about as long as the walk, and at their peak they hold a
    sixth of the family beside it. The commands that write a stack's
    family read the walk itself, so only a library caller pays for them.
    """
    return DiceFamily(stack.depth, multiplicity, walk_dice(stack), stack)


class PairFailure(NamedTuple):
    """One pair that missed the exact (5/9, 0, 4/9) outcome."""

    word_a: Word
    word_b: Word
    expected_winner: Word
    observed: DuelResult

    def describe(self) -> str:
        # the three words: word_a, word_b and expected_winner
        a, b, winner = (die_label(die_number(w) - 1, len(w)) for w in self[:3])
        return (
            f"{a} vs {b}: expected {winner} to win 5/9,"
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
                    f"die {die_label(n, depth)} has faces"
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
