"""Exact dice arithmetic: face comparison, duel probabilities, round-robin play.

A face is a fixed-length digit sequence compared positionally (most
significant digit first), so families of any nesting depth never need
big-integer arithmetic. All probabilities are exact ``fractions.Fraction``
values; nothing in this module touches floating point.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Face = tuple[int, ...]

#: return values of :func:`compare_faces`
LESS, EQUAL, GREATER = -1, 0, 1

#: Digits are ASCII only: ``str.isdigit()``, ``\d`` and ``int()`` also take
#: other scripts' digits (Arabic-Indic two reads as 2), so every parser
#: matches ``[0-9]`` instead.
_DIGIT_STRING = re.compile(r"[0-9]+\Z")
_FACE_TOKEN = re.compile(r"([0-9]+)(?:x([0-9]+))?\Z")


class LengthMismatchError(ValueError):
    """Faces or dice with different digit lengths cannot be compared."""


class TeamOverlapError(ValueError):
    """Round-robin teams share a value, so the outcome would be ambiguous."""


class DieParseError(ValueError):
    """Malformed die text; ``position`` is the character offset of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def make_face(digits: Iterable[int], *, allow_zero: bool = False) -> Face:
    """Build a face from a digit sequence, checking the digit alphabet.

    Digits run 1..9 by default; ``allow_zero`` admits 0 for custom
    constructions (comparison stays positional, so leading zeros are fine).
    """
    face = tuple(int(d) for d in digits)
    if not face:
        raise ValueError("a face needs at least one digit")
    low = 0 if allow_zero else 1
    for d in face:
        if not low <= d <= 9:
            raise ValueError(f"digit {d} outside {low}..9")
    return face


def is_digit_string(text: object) -> bool:
    """True for a non-empty string of ASCII digits only."""
    return isinstance(text, str) and _DIGIT_STRING.match(text) is not None


def face_text(face: Face) -> str:
    return "".join(str(d) for d in face)


def compare_faces(a: Face, b: Face) -> int:
    """Compare two equal-length faces positionally; returns -1, 0 or 1.

    For equal-length digit sequences this is exactly the numeric comparison
    of the denoted integers.
    """
    if len(a) != len(b):
        raise LengthMismatchError(
            f"cannot compare a {len(a)}-digit face with a {len(b)}-digit face"
        )
    return (a > b) - (a < b)


@dataclass(frozen=True)
class Die:
    """A die as a multiset of equal-length faces.

    ``faces`` holds (face, multiplicity) pairs; construction merges duplicate
    faces and sorts, so two dice with the same multiset compare equal. The
    classic six-sided sets use three distinct faces at multiplicity 2.
    """

    faces: tuple[tuple[Face, int], ...]

    def __post_init__(self):
        if not self.faces:
            raise ValueError("a die needs at least one face")
        merged: dict[Face, int] = {}
        length: int | None = None
        for face, mult in self.faces:
            face = tuple(int(d) for d in face)
            if not face:
                raise ValueError("a face needs at least one digit")
            if length is None:
                length = len(face)
            elif len(face) != length:
                raise LengthMismatchError(
                    "all faces of a die must share one digit length"
                )
            if any(not 0 <= d <= 9 for d in face):
                raise ValueError(f"face {face_text(face)} has a digit outside 0..9")
            if mult < 1:
                raise ValueError(f"face multiplicity must be positive, got {mult}")
            merged[face] = merged.get(face, 0) + int(mult)
        object.__setattr__(self, "faces", tuple(sorted(merged.items())))

    @classmethod
    def from_values(
        cls, values: Iterable[int | Sequence[int]], multiplicity: int = 1
    ) -> "Die":
        """Build a die from face values, every face at the same multiplicity.

        Integers are read as decimal digit sequences (222 becomes (2, 2, 2));
        sequences are taken as digits directly.
        """
        faces = []
        for v in values:
            if isinstance(v, int):
                if v < 0:
                    raise ValueError("face values must be nonnegative")
                digits = tuple(int(c) for c in str(v))
            else:
                digits = tuple(int(d) for d in v)
            faces.append((digits, multiplicity))
        return cls(tuple(faces))

    @property
    def digit_length(self) -> int:
        return len(self.faces[0][0])

    @property
    def total(self) -> int:
        """Total face count, multiplicities included."""
        return sum(m for _, m in self.faces)

    def expand(self) -> tuple[Face, ...]:
        """All faces with multiplicities applied (one entry per physical face)."""
        out: list[Face] = []
        for face, mult in self.faces:
            out.extend([face] * mult)
        return tuple(out)

    def text(self) -> str:
        """Render in the CLI die format, e.g. ``2x2,4x2,9x2`` or ``2,4,9``."""
        parts = []
        for face, mult in self.faces:
            s = face_text(face)
            parts.append(s if mult == 1 else f"{s}x{mult}")
        return ",".join(parts)

    def __str__(self) -> str:
        return self.text()


def parse_die(text: str, *, allow_zero: bool = False) -> Die:
    """Parse the die text format: comma-separated faces, optional xN suffix.

    ``2x2,4x2,9x2`` and the shorthand ``2,4,9`` (multiplicity 1) are both
    accepted. Digit length is set by the longest face; a shorter face is an
    error, never zero-padded.
    """
    faces: list[tuple[Face, int]] = []
    positions: list[int] = []
    offset = 0
    for raw in text.split(","):
        token = raw.strip()
        here = offset + (len(raw) - len(raw.lstrip()))
        offset += len(raw) + 1
        m = _FACE_TOKEN.match(token)
        if m is None:
            raise DieParseError(f"bad face token {token!r}", here)
        digits = tuple(int(c) for c in m.group(1))
        if not allow_zero and 0 in digits:
            raise DieParseError("digit 0 is not allowed here", here)
        mult = int(m.group(2)) if m.group(2) else 1
        if mult < 1:
            raise DieParseError("multiplicity must be at least 1", here)
        faces.append((digits, mult))
        positions.append(here)
    width = max(len(f) for f, _ in faces)
    for (face, _), pos in zip(faces, positions):
        if len(face) != width:
            raise DieParseError(
                f"face {face_text(face)} is shorter than the longest face"
                " (no implicit zero padding)",
                pos,
            )
    return Die(tuple(faces))


@dataclass(frozen=True)
class DuelResult:
    """Exact (win, tie, loss) probability triple of one die against another."""

    win: Fraction
    tie: Fraction
    loss: Fraction

    def __post_init__(self):
        if self.win + self.tie + self.loss != 1:
            raise ValueError("duel probabilities must sum to exactly 1")
        for p in (self.win, self.tie, self.loss):
            if not 0 <= p <= 1:
                raise ValueError(f"probability {p} outside [0, 1]")

    def __str__(self) -> str:
        return f"{self.win} {self.tie} {self.loss}"


def duel(x: Die, y: Die) -> DuelResult:
    """Exact duel of two dice under independent uniform rolls.

    Every face pair is weighted by the product of its multiplicities; the
    result is reduced to lowest terms by the Fraction arithmetic.
    """
    if x.digit_length != y.digit_length:
        raise LengthMismatchError(
            "dice with different face lengths cannot duel"
        )
    win = tie = 0
    for fx, mx in x.faces:
        for fy, my in y.faces:
            if fx > fy:
                win += mx * my
            elif fx == fy:
                tie += mx * my
    total = x.total * y.total
    return DuelResult(
        Fraction(win, total),
        Fraction(tie, total),
        Fraction(total - win - tie, total),
    )


def beats(x: Die, y: Die) -> bool:
    """True when x wins a duel strictly more often than it loses.

    Strict majority rather than p > 1/2, so the relation stays meaningful
    for dice that can tie.
    """
    result = duel(x, y)
    return result.win > result.loss


def round_robin(
    team_x: Sequence[int], team_y: Sequence[int]
) -> tuple[int, int]:
    """Deterministic all-pairs play between two teams of strengths.

    Every member of one team meets every member of the other once; the
    stronger number wins. Returns (wins of x, wins of y).
    """
    sx, sy = set(team_x), set(team_y)
    if len(sx) != len(team_x) or len(sy) != len(team_y):
        raise TeamOverlapError("team members must be distinct")
    if sx & sy:
        shared = sorted(sx & sy)
        raise TeamOverlapError(
            f"teams share value(s) {shared}, outcome would be ambiguous"
        )
    wins_x = sum(a > b for a in team_x for b in team_y)
    return wins_x, len(team_x) * len(team_y) - wins_x
