"""Recursive dice-family generation and dominance verification.

A depth-k family holds one die per ternary word of length k. The digit a die
receives at nesting level j is looked up in the stack's level-j table using
the word's j-th trit (the subset) and the face's rank, so dice sharing a word
prefix agree rank-by-rank on all prefix levels. Two distinct dice therefore
duel exactly like their first differing trits: the cycle 0 beats 1 beats 2
beats 0 decides the winner, always at probability 5/9.

The word prefixes form a tree whose node at level j holds one level-j
table. ``walk_dice`` walks that tree a level at a time, builds each
level's tables as one column from the level's rule, without a lookup per
node, and yields the dice a block of 729 at a time, so a writer holds
one block of a stack's family, never the whole of it; ``generate`` keeps
the walk's dice as a family, and ``face_value`` follows a single word's
path.

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
docstring describes the two paths. ``verify_stack`` proves it for a
validated stack from its depth alone: every family it generates passes
the certificate, so its report is built without a die.
"""

from __future__ import annotations

import itertools
import operator
import time
from bisect import bisect_right
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from metadice.dice import Die, DuelResult, LengthMismatchError, Value
from metadice.dice import is_digit_string, is_int
from metadice.loshu import AssignmentStack, parse_stack
from metadice.sweep import Failure, level_counts, level_pairs, outcome, unpack

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
    a :class:`~metadice.dice.Value` of its four fields. The constructor
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


#: Levels :func:`walk_dice` grows a node through at once, into its block
#: of 3^6 = 729 dice. A fixed size, not an option: smaller blocks pay each
#: level's fixed cost, such as building its table column, more often. The
#: depth-8 walk took 2.3 ms in whole levels, 2.4 ms in blocks of 729,
#: 3.0 ms in blocks of 81 and 5.0 ms in blocks of 9 dice (Python 3.11,
#: 2-core Xeon, best of 15), while a block of depth-8 dice holds under
#: 200 KB of faces.
_BLOCK_LEVELS = 6


def walk_dice(stack: AssignmentStack) -> Iterator[tuple[str, str, str]]:
    """Every die of the depth-``stack.depth`` family, as its rank faces, in
    word order, grown from the stack's tables a block at a time.

    The walk goes a level at a time: every die of the level above is a
    node that spawns three, one per subset of its node's table, and their
    rank faces append that subset's digits. A level's node tables are one
    column built from its rule, not looked up node by node: one table for
    every node, unless the level rotates by one of the nodes' own trits,
    and then the three rotations in runs. The faces of each rank are kept
    as one column, which a level replaces one rank at a time.
    The top ``depth - 6`` levels are grown for the whole family; each of
    their nodes is then grown through the last six levels into its block of
    729 dice, which are yielded before the next node is grown. A family of
    depth 6 or less is one block. The walk holds the top levels' faces and
    one block, never the family.

    Stack validity is established at stack construction; this walk only
    reads tables, and every die it yields is valid by construction: a face
    is a digit from 0..9 per level, and a die's faces differ at level 1,
    whose table has nine distinct digits. Two dice that first differ at
    level p take their level-p digits from different subsets of one node
    table, so they share no face.
    """
    top = max(stack.depth - _BLOCK_LEVELS, 0)
    heads = _grow(stack, (), [[""], [""], [""]], range(1, top + 1))
    levels = range(top + 1, stack.depth + 1)
    for prefix, *faces in zip(itertools.product((0, 1, 2), repeat=top), *heads):
        yield from zip(*_grow(stack, prefix, [[face] for face in faces], levels))


def _grow(stack: AssignmentStack, prefix: Word, columns: list, levels: range) -> list:
    """``columns``, the rank columns of faces of the nodes below ``prefix``
    at the level before ``levels``, grown through ``levels`` in place."""
    for level in levels:
        # the dice so far are the nodes of this level, in prefix order: the
        # trits of ``prefix``, then level - 1 - len(prefix) free ones
        rule = stack.levels[level - 1]
        nodes = 3 ** (level - 1 - len(prefix))
        q = rule.rotate_by
        if q is None:
            tables = [rule.base.subsets] * nodes
        elif q <= len(prefix):
            tables = [rule.tables[prefix[q - 1]].subsets] * nodes
        else:
            # the free trit at position q changes every 3^(level - 1 - q)
            # nodes, and its cycle of three runs repeats over the trits above
            run = 3 ** (level - 1 - q)
            cycle = [table.subsets for table in rule.tables for _ in range(run)]
            tables = cycle * (nodes // (3 * run))
        for rank in range(3):
            # indexing gives each digit's one shared string; str() makes one a face
            columns[rank] = [
                face + "0123456789"[subset[rank]]
                for face, table in zip(columns[rank], tables)
                for subset in table
            ]
    return columns


def generate(stack: AssignmentStack, multiplicity: int = 2) -> DiceFamily:
    """The whole depth-``stack.depth`` family of an assignment stack: the
    dice of :func:`walk_dice`, at face multiplicity ``multiplicity``.

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


class LevelSummary(NamedTuple):
    """All cross-subtree pairs whose first differing trit sits at ``level``."""

    level: int
    pairs: int
    failures: int


class VerificationReport(NamedTuple):
    """What :func:`verify_family` found; the rest is derived on each read,
    so no report can contradict itself.

    ``records`` holds each failing pair as the one ``int`` the pair check
    packed it into, the :mod:`metadice.sweep` record of (i, j, level, wins
    of i, ties) over the 3x3 face grid, with die indices i < j first
    differing at that level, from 1. Records sort as their pairs, so they
    come in (i, j) order, which is lexicographic word-pair order.
    :func:`metadice.sweep.unpack` reads one; ``failures`` decodes them into
    :class:`PairFailure`s; the CLI writes them through
    :func:`metadice.sweep.failure_rows`. Only that module reads the layout.
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
        """The records decoded, each winner named by the words, not the level."""
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


def verify_stack(stack: AssignmentStack, multiplicity: int = 2) -> VerificationReport:
    """The report :func:`verify_family` gives ``generate(stack, multiplicity)``,
    built from the stack's depth alone, with no dice.

    A stack is validated when it is built: its level-1 table has nine
    distinct digits and is leading, and every deeper table, each of whose
    rotations keeps its same-rank counts, is rank-wise with nine distinct
    digits. :func:`generate` puts every die on its blocks' digits, so the
    certificate proves each family of the stack, no pair is read and the
    report's ``elapsed`` is 0.
    """
    if multiplicity < 1:
        raise ValueError("face multiplicity must be positive")
    return VerificationReport(stack.depth, multiplicity, (), 0.0, None, 0)


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


def joined(items: Iterable[str], sep: str) -> Iterator[str]:
    """The pieces of ``sep.join(items)``: each item, the separator in front
    of every item but the first. The JSON writers of ``cli`` and
    :mod:`metadice.export` join their entries with it."""
    items = iter(items)
    yield next(items, "")
    for item in items:
        yield sep + item


def family_header(
    depth: int, multiplicity: int, stack: AssignmentStack | None
) -> dict:
    """The family document's fields before its dice: the construction echo."""
    doc: dict = {"depth": depth, "multiplicity": multiplicity}
    if stack is not None:
        doc["stack"] = stack.lines()
    return doc


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
