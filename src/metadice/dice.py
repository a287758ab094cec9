"""The exact duel engine: dice as face multisets, duel probabilities,
their Monte Carlo cross-check, round-robin play.

A face is a fixed-length digit sequence compared positionally (most
significant digit first), so families of any nesting depth never need
big-integer arithmetic. All probabilities are exact ``fractions.Fraction``
values; only :func:`monte_carlo`, the stochastic cross-check of
:func:`duel`, returns a float, its seeded estimate. :func:`duel` imports
``fractions`` and :func:`monte_carlo` ``random`` when they run, not when
the module loads.

Only ``prob``, ``roundrobin`` and ``simulate`` compile this module. A
family's duels, k/9 each, are counted over its 3x3 face grids by
:mod:`metadice.sweep` and written as :data:`metadice.loshu.NINTHS`, so no
family or stack command builds a ``Die``; the tests duel a family's dice
here as their oracle.
"""

from __future__ import annotations

import re
from itertools import accumulate
from typing import TYPE_CHECKING, Iterable, Sequence

from metadice.loshu import Face, LengthMismatchError, Value, is_int

if TYPE_CHECKING:
    from fractions import Fraction

class TeamOverlapError(ValueError):
    """Round-robin teams share a value, so the outcome would be ambiguous."""


class DieParseError(ValueError):
    """Malformed die text; ``position`` is the character offset of the fault."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def face_text(face: Face) -> str:
    return "".join(str(d) for d in face)


class Die(Value):
    """A die as a multiset of equal-length faces.

    ``faces`` holds (face, multiplicity) pairs; construction merges duplicate
    faces and sorts, so two dice with the same multiset compare equal. A
    face is a sequence of int digits in 0..9 and a multiplicity an int of at
    least 1; nothing is converted. The classic six-sided sets use three
    distinct faces at multiplicity 2.
    """

    _fields = ("faces",)
    faces: tuple[tuple[Face, int], ...]

    def __init__(self, faces: tuple[tuple[Face, int], ...]):
        if not faces:
            raise ValueError("a die needs at least one face")
        if not isinstance(faces, Iterable):
            raise ValueError(f"faces {faces!r} must be (face, multiplicity) pairs")
        merged: dict[Face, int] = {}
        length: int | None = None
        for entry in faces:
            if not isinstance(entry, Sequence) or len(entry) != 2:
                raise ValueError(f"entry {entry!r} must be a (face, multiplicity) pair")
            face, mult = entry
            if not isinstance(face, Sequence):
                raise ValueError(f"face {face!r} must be a sequence of digits")
            face = tuple(face)
            if not face:
                raise ValueError("a face needs at least one digit")
            if length is None:
                length = len(face)
            elif len(face) != length:
                raise LengthMismatchError(
                    "all faces of a die must share one digit length"
                )
            if not all(is_int(d) and 0 <= d <= 9 for d in face):
                raise ValueError(f"face {face!r} needs int digits in 0..9")
            if not is_int(mult) or mult < 1:
                raise ValueError(
                    f"face multiplicity must be an int of at least 1, got {mult!r}"
                )
            merged[face] = merged.get(face, 0) + mult
        self._set(faces=tuple(sorted(merged.items())))

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


def parse_die(text: str) -> Die:
    """Parse the die text format: comma-separated faces, optional xN suffix.

    ``2x2,4x2,9x2`` and the shorthand ``2,4,9`` (multiplicity 1) are both
    accepted. Digit length is set by the longest face; a shorter face is an
    error, never zero-padded. Digit 0 is refused: the Lo Shu digits are 1..9.
    """
    # digits are ASCII only: ``str.isdigit()``, ``\d`` and ``int()`` also
    # take other scripts' digits (Arabic-Indic two reads as 2), so every
    # parser matches ``[0-9]`` or also tests ``str.isascii()``; compiled
    # here, as only the commands that duel given dice read it
    face_token = re.compile(r"([0-9]+)(?:x([0-9]+))?\Z")
    faces: list[tuple[Face, int]] = []
    positions: list[int] = []
    offset = 0
    for raw in text.split(","):
        token = raw.strip()
        here = offset + (len(raw) - len(raw.lstrip()))
        offset += len(raw) + 1
        m = face_token.match(token)
        if m is None:
            raise DieParseError(f"bad face token {token!r}", here)
        digits = tuple(int(c) for c in m.group(1))
        if 0 in digits:
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


class DuelResult(Value):
    """Exact (win, tie, loss) probability triple of one die against another."""

    _fields = ("win", "tie", "loss")
    win: Fraction
    tie: Fraction
    loss: Fraction

    def __init__(self, win: Fraction, tie: Fraction, loss: Fraction):
        if win + tie + loss != 1:
            raise ValueError("duel probabilities must sum to exactly 1")
        for p in (win, tie, loss):
            if not 0 <= p <= 1:
                raise ValueError(f"probability {p} outside [0, 1]")
        self._set(win=win, tie=tie, loss=loss)


def duel(x: Die, y: Die) -> DuelResult:
    """Exact duel of two dice under independent uniform rolls.

    Every face pair is weighted by the product of its multiplicities; the
    result is reduced to lowest terms by the Fraction arithmetic.
    """
    from fractions import Fraction

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


def monte_carlo(x: Die, y: Die, trials: int, seed: int = 0) -> float:
    """Estimated frequency of x beating y over seeded independent rolls.

    Deterministic for a fixed seed; ties count as non-wins. This is the
    stochastic cross-check of the exact :func:`duel` engine.
    """
    # imported here, so that only ``simulate`` loads them
    import random
    from bisect import bisect_right

    if trials < 1:
        raise ValueError("trials must be at least 1")
    if x.digit_length != y.digit_length:
        raise LengthMismatchError("dice with different face lengths cannot duel")
    # a roll draws an index into the faces as expand() would list them,
    # which bisecting the running multiplicity totals maps to its face
    fx, fy = ([face for face, _ in die.faces] for die in (x, y))
    cx, cy = (list(accumulate(m for _, m in die.faces)) for die in (x, y))
    nx, ny = cx[-1], cy[-1]
    rng = random.Random(seed)
    wins = 0
    for _ in range(trials):
        roll = fx[bisect_right(cx, rng.randrange(nx))]
        if roll > fy[bisect_right(cy, rng.randrange(ny))]:
            wins += 1
    return wins / trials


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
