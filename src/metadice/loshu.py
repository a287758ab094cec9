"""The stack layer: the value core, Lo Shu digit tables and their stacks,
the walk of a stack's family and its proof from the depth.

A digit assignment is a 3x3 table of distinct digits: three subsets (which
arm of the dominance cycle a die sits on at one nesting level) times three
ranks (which of the die's three faces receives the digit). Two properties
make the recursive construction work, and :func:`table_fault` states both,
and which holds at which level:

* leading: around the subset cycle 0 -> 1 -> 2 -> 0, each subset's digits
  beat the next subset's in exactly 5 of the 9 cross pairs. The level-1
  table needs this; it decides duels between dice whose addresses differ in
  the first trit.
* rank-wise: around the cycle, each subset's digit is larger at exactly 2 of
  the 3 ranks. Tables at deeper levels need this; combined with the
  automatic 3-3 split of the six cross-rank comparisons it yields
  3/9 + 2/9 = 5/9 for dice that first differ at that level.

An assignment stack fixes one table per nesting level, optionally rotated by
an earlier trit of the die's address, and checks each level's table with
:func:`table_fault` on construction; :mod:`metadice.certificate` checks each
distinct node table of a family with the same function, so a stack's
refusal and a family's certificate give one verdict in one text. A stack
names the level it refuses; :func:`parse_stack` adds the file line of that
level and checks nothing again. :func:`parse_assignment` reads a table's
digits and leaves its shape to :class:`DigitAssignment`. Of the presets,
``paper-1`` and ``paper-2`` are the uniform stacks of depth 1 and 2, and
``paper-3`` alone lists its levels.

The word prefixes of a stack's family form a tree whose node at level j
holds one level-j table. :func:`walk_dice` walks that tree a level at a
time, builds each level's tables as one column from the level's rule,
without a lookup per node, and yields the dice a block of 729 at a time,
so a writer holds one block of a stack's family, never the whole of it.
:func:`verify_stack` proves a validated stack from its depth alone, and
:func:`family_header` is the construction echo of a family document.

The module also hosts what every layer shares: :class:`Value`, the value
protocol of the library's immutable classes, the input checks
:func:`is_int`, :func:`is_digit_string` and :func:`check_counts`, ``Face``,
:class:`LengthMismatchError`, and the spelling of output: :data:`NINTHS`,
the text of a family's duels; :func:`trits` and :func:`die_label`, the
text of a prefix and of a die; and :func:`words`, every word of a length
in die order, which the walk and every writer of words read, so that the
order and the trits' alphabet are stated once. A command that works on a
stack compiles this module and :mod:`metadice.sweep` alone.
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property
from typing import Iterator, Sequence

from metadice.sweep import VerificationReport

Face = tuple[int, ...]

#: ``NINTHS[k]`` is ``str(Fraction(k, 9))``, k in 0..9: the text of every
#: probability of a duel between two dice of three faces at one multiplicity.
NINTHS = ("0", "1/9", "2/9", "1/3", "4/9", "5/9", "2/3", "7/9", "8/9", "1")


def trits(n: int, length: int) -> str:
    """``n`` as ``length`` base-3 digits: a die's word or a node's prefix."""
    return "".join(str(n // 3 ** (length - 1 - j) % 3) for j in range(length))


def words(length: int) -> Iterator[tuple[str, ...]]:
    """Every ``length``-trit word in die order, as tuples of one-character
    trits: the bulk form of :func:`trits`, whose ``n``-th word is
    ``trits(n, length)``. A die's index is its word's rank in this order."""
    return itertools.product("012", repeat=length)


def die_label(i: int, depth: int) -> str:
    """How output names die ``i`` of a depth-``depth`` family: its D-number
    and its word, ``D<i + 1> (<trits>)``."""
    return f"D{i + 1} ({trits(i, depth)})"


class LengthMismatchError(ValueError):
    """Faces or dice with different digit lengths cannot be compared."""


def is_digit_string(text: object) -> bool:
    """True for a non-empty string of ASCII digits only."""
    return isinstance(text, str) and text.isascii() and text.isdigit()


def is_int(value: object) -> bool:
    """True for an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_counts(depth: object, multiplicity: object, error=ValueError) -> None:
    """Raise ``error`` unless ``depth`` and ``multiplicity`` are ints, not
    bools, of at least 1: what every family, generated or loaded, and every
    report of one must hold."""
    for name, value in (("depth", depth), ("multiplicity", multiplicity)):
        if not is_int(value):
            raise error(f"{name} must be an integer, got {value!r}")
    if depth < 1:
        raise error("depth must be at least 1")
    if multiplicity < 1:
        raise error("face multiplicity must be positive")


class Value:
    """An immutable value of the fields named in ``_fields``, which a
    subclass's ``__init__`` stores with :meth:`_set` once its checks pass.

    Values of one class are equal, and hash alike, when their fields are;
    a value of another class, a tuple included, is never equal. No
    ``__slots__``: ``cached_property`` needs the instance ``__dict__``.
    """

    _fields: tuple[str, ...] = ()

    def _set(self, **fields) -> None:
        vars(self).update(fields)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


Triple = tuple[int, int, int]

#: The 3x3 magic square, rows top to bottom.
SQUARE: tuple[Triple, Triple, Triple] = ((4, 9, 2), (3, 5, 7), (8, 1, 6))

#: Why a table whose nine digits are not all distinct is refused.
_REPEATED_DIGITS = "the 9 digits of an assignment must be pairwise distinct"


class StackValidationError(ValueError):
    """An assignment or stack violates a construction invariant; ``level``
    is the stack level refused, when a stack refuses one."""

    def __init__(self, message: str, level: int | None = None):
        super().__init__(message)
        self.level = level


class DigitAssignment(Value):
    """Three digit triples, one per subset; all nine digits distinct.

    ``subsets[s][i]`` is the digit for cycle position ``s`` at face rank
    ``i``, an int that is not converted. The digit alphabet is 0..9
    structurally; the bundled tables use the Lo Shu digits 1..9 only.
    Assignments are immutable values.
    """

    _fields = ("subsets",)
    subsets: tuple[Triple, Triple, Triple]

    def __init__(self, subsets: Sequence[Sequence[int]]):
        subsets = tuple(tuple(sub) for sub in subsets)
        if len(subsets) != 3 or any(len(sub) != 3 for sub in subsets):
            raise StackValidationError("an assignment needs 3 subsets of 3 digits")
        digits = [d for sub in subsets for d in sub]
        if not all(is_int(d) and 0 <= d <= 9 for d in digits):
            raise StackValidationError("assignment digits must be ints in 0..9")
        if len(set(digits)) != 9:
            raise StackValidationError(_REPEATED_DIGITS)
        self._set(subsets=subsets)

    def __getitem__(self, subset: int) -> Triple:
        return self.subsets[subset]

    def text(self) -> str:
        return ";".join(",".join(str(d) for d in sub) for sub in self.subsets)


#: Each magic-square row sorted ascending; the base three-dice digit triples.
SORTED_ROWS = DigitAssignment(((2, 4, 9), (1, 6, 8), (3, 5, 7)))

#: Digits grouped by residue mod 3; middle level of the 27-die preset.
RESIDUE_ROWS = DigitAssignment(((2, 8, 5), (9, 6, 3), (4, 1, 7)))

#: Sorted rows with the upper two ranks exchanged; innermost level of the
#: 27-die preset, rotated there by the middle trit of the die's address.
SWAPPED_ROWS = DigitAssignment(((2, 9, 4), (1, 8, 6), (3, 7, 5)))


def table_fault(subsets: Sequence[Sequence], level: int) -> str | None:
    """Why the 3x3 table ``subsets`` cannot be a stack's level-``level``
    table, or None when it can: nine distinct digits, leading at level 1
    and rank-wise deeper.

    Digits are compared as given, ints or one-character digit strings
    alike, since for single ASCII digits string order is numeric order.
    """
    if len({d for sub in subsets for d in sub}) != 9:
        return _REPEATED_DIGITS
    # leading compares all nine cross pairs, rank-wise the three same-rank ones
    predicate, need, pairs = (
        ("leading", 5, itertools.product) if level == 1 else ("rank-wise", 2, zip)
    )
    for s in range(3):
        t = (s + 1) % 3
        count = sum(x > y for x, y in pairs(subsets[s], subsets[t]))
        if count != need:
            return (
                f"{predicate} property fails for subset pair {s}->{t}:"
                f" {count} winning comparisons, need exactly {need}"
            )
    return None


def rotate(a: DigitAssignment, r: int) -> DigitAssignment:
    """Cyclically left-rotate every subset's ranks by ``r``.

    The same rotation is applied to all three subsets, so same-rank win
    counts, and with them the rank-wise property, are unchanged.
    """
    r %= 3
    return DigitAssignment(
        tuple(tuple(sub[(i + r) % 3] for i in range(3)) for sub in a.subsets)
    )


class LevelRule(Value):
    """One level of a stack: a base table, optionally rotated by an earlier trit.

    ``rotate_by`` is the 1-based word position whose trit picks the rotation
    amount; ``None`` means the level uses ``base`` everywhere.
    """

    _fields = ("base", "rotate_by")
    base: DigitAssignment
    rotate_by: int | None

    def __init__(self, base: DigitAssignment, rotate_by: int | None = None):
        self._set(base=base, rotate_by=rotate_by)

    @cached_property
    def tables(self) -> tuple[DigitAssignment, ...]:
        """``base`` under rotations 0, 1 and 2, indexed by the selecting trit."""
        return tuple(rotate(self.base, r) for r in range(3))

    def text(self) -> str:
        suffix = "" if self.rotate_by is None else f" rot=w{self.rotate_by}"
        return self.base.text() + suffix


class AssignmentStack(Value):
    """A validated per-level sequence of digit assignments.

    Level 1 must satisfy the leading property, deeper levels the rank-wise
    property; a rotated level may only point at an earlier word position.
    Rotation preserves the rank-wise counts, so validating the base table of
    a rotated rule covers all three of its rotations.
    """

    _fields = ("levels",)
    levels: tuple[LevelRule, ...]

    def __init__(self, levels: tuple[LevelRule, ...]):
        if not levels:
            raise StackValidationError("a stack needs at least one level")
        for level, rule in enumerate(levels, start=1):
            q = rule.rotate_by
            fault = table_fault(rule.base.subsets, level)
            # level 1 has no earlier position to rotate by
            if q is not None and not (is_int(q) and 1 <= q < level):
                fault = f"rotation selector w{q} must name an earlier word position"
            if fault is not None:
                raise StackValidationError(f"level {level}: {fault}", level)
        self._set(levels=levels)

    @property
    def depth(self) -> int:
        return len(self.levels)

    def assignment_at(
        self, level: int, prefix: Sequence[int]
    ) -> DigitAssignment:
        """The table used at ``level`` (1-based) for a word with this prefix.

        ``prefix`` must cover at least the first ``level - 1`` trits; uniform
        levels ignore it.
        """
        if not 1 <= level <= self.depth:
            raise ValueError(f"level {level} outside 1..{self.depth}")
        rule = self.levels[level - 1]
        if rule.rotate_by is None:
            return rule.base
        if len(prefix) < rule.rotate_by:
            raise ValueError(
                f"level {level} needs word position w{rule.rotate_by},"
                f" but the prefix has only {len(prefix)} trits"
            )
        return rule.tables[prefix[rule.rotate_by - 1] % 3]

    def lines(self) -> list[str]:
        """Level descriptors in the stack file syntax, one per level."""
        return [rule.text() for rule in self.levels]


#: Each preset's name and depth, in the order the CLI lists them; the
#: uniform preset takes the depth it is given.
PRESET_DEPTHS = {"paper-1": 1, "paper-2": 2, "paper-3": 3, "uniform": None}


def preset_stack(name: str, depth: int | None = None) -> AssignmentStack:
    """Return a built-in stack.

    ``paper-1``, ``paper-2`` and ``paper-3`` are the bundled reference
    families of 3, 9 and 27 dice; ``uniform`` repeats the sorted
    magic-square rows at every one of ``depth`` levels, and ``paper-1``
    and ``paper-2`` are the uniform stacks of depth 1 and 2. A depth that
    is given must be an int, not a bool, as :func:`check_counts` asks.
    """
    if depth is not None and not is_int(depth):
        raise ValueError(f"depth must be an integer, got {depth!r}")
    if name not in PRESET_DEPTHS:
        raise ValueError(f"unknown preset {name!r}")
    fixed = PRESET_DEPTHS[name]
    if fixed is not None:
        if depth is not None and depth != fixed:
            raise ValueError(f"preset {name!r} has depth {fixed}, not {depth}")
        depth = fixed
        if name == "paper-3":
            rules = LevelRule(SORTED_ROWS), LevelRule(RESIDUE_ROWS)
            return AssignmentStack((*rules, LevelRule(SWAPPED_ROWS, rotate_by=2)))
    elif depth is None:
        raise ValueError("the uniform preset needs a depth")
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    return AssignmentStack(tuple(LevelRule(SORTED_ROWS) for _ in range(depth)))


def parse_assignment(text: str) -> DigitAssignment:
    """Parse ``2,4,9;1,6,8;3,5,7`` into a digit assignment of digits 0..9.

    Each comma-separated token must be a string of ASCII digits;
    :class:`DigitAssignment` refuses any shape but three subsets of three
    digits, and any digit outside 0..9.
    """
    subsets = [[d.strip() for d in part.split(",")] for part in text.split(";")]
    if not all(is_digit_string(d) for sub in subsets for d in sub):
        raise StackValidationError(
            f"bad assignment syntax {text!r}: expected three"
            " comma-separated digit triples joined by semicolons"
        )
    return DigitAssignment([[int(d) for d in sub] for sub in subsets])


def parse_stack(text: str) -> AssignmentStack:
    """Parse the line-oriented stack format (one level per line).

    Lines beginning with ``#`` are comments; blank lines are skipped. A
    level may carry a ``rot=w<j>`` suffix naming the word position that
    selects its rotation. A refused level line is named as ``line <n>:
    level <k>: `` and its fault: its syntax, its table's shape or digits,
    or what :class:`AssignmentStack` refuses, which names the violated
    predicate, the offending subset pair and the offending count.
    """
    # compiled here, as only a stack file's text needs it
    level_line = re.compile(
        r"(?P<table>[0-9,;\s]+?)(?:\s+rot=w(?P<rot>[0-9]+))?\s*\Z"
    )
    rules, linenos = [], []  # linenos[k]: the line of level k + 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        linenos.append(lineno)
        m = level_line.match(line)
        try:
            if m is None:
                raise StackValidationError(f"cannot parse {line!r}")
            base = parse_assignment(m.group("table").strip())
            rot = int(m.group("rot")) if m.group("rot") else None
        except ValueError as exc:  # int() also refuses a number too long to read
            where = f"line {lineno}: level {len(linenos)}"
            raise StackValidationError(f"{where}: {exc}") from None
        rules.append(LevelRule(base, rot))
    if not rules:
        raise StackValidationError("stack text contains no levels")
    try:
        return AssignmentStack(tuple(rules))
    except StackValidationError as exc:  # it names the level it refuses
        raise StackValidationError(f"line {linenos[exc.level - 1]}: {exc}") from None


def format_stack(stack: AssignmentStack) -> str:
    return "\n".join(stack.lines()) + "\n"


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
    for prefix, *faces in zip(words(top), *heads):
        yield from zip(*_grow(stack, prefix, [[face] for face in faces], levels))


def _grow(
    stack: AssignmentStack, prefix: tuple[str, ...], columns: list, levels: range
) -> list:
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
            tables = [rule.tables[int(prefix[q - 1])].subsets] * nodes
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


def verify_stack(stack: AssignmentStack, multiplicity: int = 2) -> VerificationReport:
    """The report :func:`metadice.hierarchy.verify_family` gives the family
    ``generate(stack, multiplicity)``, built from the stack's depth alone,
    with no dice.

    A stack is validated when it is built: its level-1 table has nine
    distinct digits and is leading, and every deeper table, each of whose
    rotations keeps its same-rank counts, is rank-wise with nine distinct
    digits. :func:`walk_dice` puts every die on its blocks' digits, so the
    certificate proves each family of the stack, no pair is read and the
    report's ``elapsed`` is 0. A multiplicity that no family can hold is
    refused by :func:`check_counts`, as
    :class:`~metadice.hierarchy.DiceFamily` refuses it.
    """
    check_counts(stack.depth, multiplicity)
    return VerificationReport(stack.depth, multiplicity, (), 0.0, None, 0)


def family_header(
    depth: int, multiplicity: int, stack: AssignmentStack | None
) -> dict:
    """The family document's fields before its dice: the construction echo."""
    doc: dict = {"depth": depth, "multiplicity": multiplicity}
    if stack is not None:
        doc["stack"] = stack.lines()
    return doc
