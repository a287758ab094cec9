"""Lo Shu constants, digit-assignment tables, and construction validity checks.

A digit assignment is a 3x3 table of distinct digits: three subsets (which
arm of the dominance cycle a die sits on at one nesting level) times three
ranks (which of the die's three faces receives the digit). Two properties
make the recursive construction work:

* leading: around the subset cycle 0 -> 1 -> 2 -> 0, each subset's digits
  beat the next subset's in exactly 5 of the 9 cross pairs. The level-1
  table needs this; it decides duels between dice whose addresses differ in
  the first trit.
* rank-wise: around the cycle, each subset's digit is larger at exactly 2 of
  the 3 ranks. Tables at deeper levels need this; combined with the
  automatic 3-3 split of the six cross-rank comparisons it yields
  3/9 + 2/9 = 5/9 for dice that first differ at that level.

An assignment stack fixes one table per nesting level, optionally rotated by
an earlier trit of the die's address, and is validated on construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from metadice.dice import is_digit_string

Triple = tuple[int, int, int]

#: The 3x3 magic square, rows top to bottom.
SQUARE: tuple[Triple, Triple, Triple] = ((4, 9, 2), (3, 5, 7), (8, 1, 6))

_LEVEL_LINE = re.compile(
    r"(?P<table>[0-9,;\s]+?)(?:\s+rot=w(?P<rot>[0-9]+))?\s*\Z"
)


class StackValidationError(ValueError):
    """An assignment or stack violates a construction invariant."""


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of a validity predicate; falsy results carry the counterexample."""

    ok: bool
    predicate: str
    pair: tuple[int, int] | None = None
    count: int | None = None
    required: int | None = None

    def __bool__(self) -> bool:
        return self.ok

    def detail(self) -> str:
        if self.ok:
            return f"{self.predicate} property holds"
        s, t = self.pair
        return (
            f"{self.predicate} property fails for subset pair {s}->{t}:"
            f" {self.count} winning comparisons, need exactly {self.required}"
        )


@dataclass(frozen=True)
class DigitAssignment:
    """Three digit triples, one per subset; all nine digits distinct.

    ``subsets[s][i]`` is the digit for cycle position ``s`` at face rank
    ``i``. The digit alphabet is 0..9 structurally; the bundled tables use
    the Lo Shu digits 1..9 only.
    """

    subsets: tuple[Triple, Triple, Triple]

    def __post_init__(self):
        subsets = tuple(tuple(int(d) for d in sub) for sub in self.subsets)
        if len(subsets) != 3 or any(len(sub) != 3 for sub in subsets):
            raise StackValidationError("an assignment needs 3 subsets of 3 digits")
        digits = [d for sub in subsets for d in sub]
        if any(not 0 <= d <= 9 for d in digits):
            raise StackValidationError("assignment digits must lie in 0..9")
        if len(set(digits)) != 9:
            raise StackValidationError(
                "the 9 digits of an assignment must be pairwise distinct"
            )
        object.__setattr__(self, "subsets", subsets)

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


def sorted_rows() -> DigitAssignment:
    """The magic-square rows, each sorted ascending, in cycle order."""
    return SORTED_ROWS


def validate_leading(a: DigitAssignment) -> ValidationResult:
    """Check 5-of-9 all-pairs dominance around the subset cycle."""
    for s in range(3):
        t = (s + 1) % 3
        count = sum(x > y for x in a[s] for y in a[t])
        if count != 5:
            return ValidationResult(False, "leading", (s, t), count, 5)
    return ValidationResult(True, "leading")


def validate_rankwise(a: DigitAssignment) -> ValidationResult:
    """Check 2-of-3 same-rank dominance around the subset cycle."""
    for s in range(3):
        t = (s + 1) % 3
        count = sum(a[s][i] > a[t][i] for i in range(3))
        if count != 2:
            return ValidationResult(False, "rank-wise", (s, t), count, 2)
    return ValidationResult(True, "rank-wise")


def rotate(a: DigitAssignment, r: int) -> DigitAssignment:
    """Cyclically left-rotate every subset's ranks by ``r``.

    The same rotation is applied to all three subsets, so same-rank win
    counts, and with them the rank-wise property, are unchanged.
    """
    r %= 3
    return DigitAssignment(
        tuple(tuple(sub[(i + r) % 3] for i in range(3)) for sub in a.subsets)
    )


@dataclass(frozen=True)
class LevelRule:
    """One level of a stack: a base table, optionally rotated by an earlier trit.

    ``rotate_by`` is the 1-based word position whose trit picks the rotation
    amount; ``None`` means the level uses ``base`` everywhere.
    """

    base: DigitAssignment
    rotate_by: int | None = None

    def text(self) -> str:
        suffix = "" if self.rotate_by is None else f" rot=w{self.rotate_by}"
        return self.base.text() + suffix


@dataclass(frozen=True)
class AssignmentStack:
    """A validated per-level sequence of digit assignments.

    Level 1 must satisfy the leading property, deeper levels the rank-wise
    property; a rotated level may only point at an earlier word position.
    Rotation preserves the rank-wise counts, so validating the base table of
    a rotated rule covers all three of its rotations.
    """

    levels: tuple[LevelRule, ...]

    def __post_init__(self):
        if not self.levels:
            raise StackValidationError("a stack needs at least one level")
        for level, rule in enumerate(self.levels, start=1):
            if rule.rotate_by is not None:
                if level == 1:
                    raise StackValidationError(
                        "level 1 cannot be rotated: there is no earlier position"
                    )
                if not 1 <= rule.rotate_by < level:
                    raise StackValidationError(
                        f"level {level}: rotation selector w{rule.rotate_by}"
                        " must name an earlier word position"
                    )
            check = (
                validate_leading(rule.base)
                if level == 1
                else validate_rankwise(rule.base)
            )
            if not check:
                raise StackValidationError(f"level {level}: {check.detail()}")

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
        return rotate(rule.base, prefix[rule.rotate_by - 1])

    def lines(self) -> list[str]:
        """Level descriptors in the stack file syntax, one per level."""
        return [rule.text() for rule in self.levels]


PRESET_DEPTHS = {"paper-1": 1, "paper-2": 2, "paper-3": 3}


def preset_stack(name: str, depth: int | None = None) -> AssignmentStack:
    """Return a built-in stack.

    ``paper-1``, ``paper-2`` and ``paper-3`` are the bundled reference
    families of 3, 9 and 27 dice; ``uniform`` (or ``uniform-<k>``) repeats
    the sorted magic-square rows at every one of ``depth`` levels.
    """
    if name == "uniform" or name.startswith("uniform-"):
        if name != "uniform":
            try:
                parsed = int(name.split("-", 1)[1])
            except ValueError:
                raise ValueError(f"bad uniform preset name {name!r}") from None
            if depth is not None and depth != parsed:
                raise ValueError(
                    f"preset {name!r} conflicts with depth {depth}"
                )
            depth = parsed
        if depth is None:
            raise ValueError("the uniform preset needs a depth")
        if depth < 1:
            raise ValueError(f"depth must be at least 1, got {depth}")
        return AssignmentStack(tuple(LevelRule(SORTED_ROWS) for _ in range(depth)))
    if name not in PRESET_DEPTHS:
        raise ValueError(f"unknown preset {name!r}")
    if depth is not None and depth != PRESET_DEPTHS[name]:
        raise ValueError(
            f"preset {name!r} has depth {PRESET_DEPTHS[name]}, not {depth}"
        )
    if name == "paper-1":
        levels = (LevelRule(SORTED_ROWS),)
    elif name == "paper-2":
        levels = (LevelRule(SORTED_ROWS), LevelRule(SORTED_ROWS))
    else:
        levels = (
            LevelRule(SORTED_ROWS),
            LevelRule(RESIDUE_ROWS),
            LevelRule(SWAPPED_ROWS, rotate_by=2),
        )
    return AssignmentStack(levels)


def parse_assignment(text: str, *, allow_zero: bool = False) -> DigitAssignment:
    """Parse ``2,4,9;1,6,8;3,5,7`` into a digit assignment."""
    subsets = []
    for part in text.split(";"):
        digits = [p.strip() for p in part.split(",")]
        if len(digits) != 3 or not all(map(is_digit_string, digits)):
            raise StackValidationError(
                f"bad assignment syntax {text!r}: expected three"
                " comma-separated digit triples joined by semicolons"
            )
        subsets.append(tuple(int(d) for d in digits))
    if len(subsets) != 3:
        raise StackValidationError(
            f"bad assignment syntax {text!r}: expected exactly three subsets"
        )
    if not allow_zero and any(d == 0 for sub in subsets for d in sub):
        raise StackValidationError("digit 0 is not allowed here")
    return DigitAssignment(tuple(subsets))


def parse_stack(text: str, *, allow_zero: bool = False) -> AssignmentStack:
    """Parse the line-oriented stack format (one level per line).

    Lines beginning with ``#`` are comments; blank lines are skipped. A
    level may carry a ``rot=w<j>`` suffix naming the word position that
    selects its rotation. Validation failures name the violated predicate,
    the offending subset pair and the offending count.
    """
    rules = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _LEVEL_LINE.match(line)
        if m is None:
            raise StackValidationError(f"line {lineno}: cannot parse {line!r}")
        try:
            base = parse_assignment(m.group("table").strip(), allow_zero=allow_zero)
        except StackValidationError as exc:
            raise StackValidationError(f"line {lineno}: {exc}") from None
        rot = int(m.group("rot")) if m.group("rot") else None
        rules.append(LevelRule(base, rot))
    if not rules:
        raise StackValidationError("stack text contains no levels")
    return AssignmentStack(tuple(rules))


def format_stack(stack: AssignmentStack) -> str:
    return "\n".join(stack.lines()) + "\n"
