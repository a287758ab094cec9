"""Seeded benchmark inputs and the independent oracles that check outputs.

Nothing here imports ``metadice``. Digit tables are certified by naive
counting, families come from this module's own table walk, and every
expected output is derived from those, so a defect in the library cannot
hide behind its own reference code.

A workload is one *pass*: an ordered list of CLI invocations, each with the
exit code it must return and a check of its stdout. ``run.py`` repeats the
pass; the same seed always writes the same files and the same pass.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

Triple = tuple[int, int, int]
Table = tuple[Triple, Triple, Triple]
#: One stack level: a digit table and the 1-based word position whose trit
#: rotates it, or None for an unrotated level.
Level = tuple[Table, "int | None"]
Word = tuple[int, ...]

WHY = {
    "verify-deep": (
        "valid depth-6/7 stacks: the all-pairs sweep is about three quarters"
        " of the time, so a certificate or a faster kernel shows here"
    ),
    "verify-tampered": (
        "depth-6 families with 1-20 altered digits: verify_family on the failing"
        " path, where a certificate falls back to the sweep, plus parsing and"
        " failure decoding"
    ),
    "export": (
        "generate/normalize at depth 8 and graph --full-graph at depth 5 on"
        " rotated stacks: table walk, eager dice and rendering, no sweep"
    ),
}

#: Problem sizes. The smoke scale keeps every depth at 3 or less, for the
#: benchmark's self-tests.
FULL = {
    "verify-deep": {"shallow": 6, "deep": 7},
    "verify-tampered": {"depth": 6, "tampers": (1, 2, 3, 5, 8, 12, 16, 20)},
    "export": {"table": 8, "graph": 5},
}
SMOKE = {
    "verify-deep": {"shallow": 2, "deep": 3},
    "verify-tampered": {"depth": 3, "tampers": (1, 2, 4)},
    "export": {"table": 3, "graph": 2},
}


# -- digit tables, certified by naive counting --------------------------------


def leading_counts(table: Table) -> list[int]:
    """Cross-pair wins of each subset over the next one around the cycle."""
    counts = []
    for s in range(3):
        c = 0
        for x in table[s]:
            for y in table[(s + 1) % 3]:
                if x > y:
                    c += 1
        counts.append(c)
    return counts


def rankwise_counts(table: Table) -> list[int]:
    """Same-rank wins of each subset over the next one around the cycle."""
    counts = []
    for s in range(3):
        c = 0
        for i in range(3):
            if table[s][i] > table[(s + 1) % 3][i]:
                c += 1
        counts.append(c)
    return counts


def is_leading(table: Table) -> bool:
    return leading_counts(table) == [5, 5, 5]


def is_rankwise(table: Table) -> bool:
    return rankwise_counts(table) == [2, 2, 2]


def _pool(valid: Callable[[Table], bool], seed: int, want: int = 40):
    rng = random.Random(seed)
    digits = list(range(1, 10))
    pool: list[Table] = []
    while len(pool) < want:
        rng.shuffle(digits)
        table = (tuple(digits[0:3]), tuple(digits[3:6]), tuple(digits[6:9]))
        if valid(table) and table not in pool:
            pool.append(table)
    return tuple(pool)


@functools.cache
def leading_pool() -> tuple[Table, ...]:
    return _pool(is_leading, seed=2311_1)


@functools.cache
def rankwise_pool() -> tuple[Table, ...]:
    return _pool(is_rankwise, seed=2311_2)


@functools.cache
def uniform_pool() -> tuple[Table, ...]:
    """Tables valid at every level: leading and rank-wise at once."""
    return _pool(lambda t: is_leading(t) and is_rankwise(t), seed=2311_3)


# -- stacks and the reference table walk --------------------------------------


def draw_stack(rng: random.Random, depth: int, rotated: bool) -> list[Level]:
    """A valid stack: one table repeated, or a fresh table per level with
    every level below the first rotated by a random earlier trit."""
    if not rotated:
        return [(rng.choice(uniform_pool()), None)] * depth
    levels: list[Level] = [(rng.choice(leading_pool()), None)]
    for level in range(2, depth + 1):
        levels.append((rng.choice(rankwise_pool()), rng.randint(1, level - 1)))
    return levels


def stack_lines(levels: list[Level]) -> list[str]:
    lines = []
    for table, rot in levels:
        text = ";".join(",".join(str(d) for d in sub) for sub in table)
        lines.append(text if rot is None else f"{text} rot=w{rot}")
    return lines


def words(depth: int) -> list[Word]:
    """All ternary words in lexicographic order; index = die number - 1."""
    return list(itertools.product(range(3), repeat=depth))


def family_faces(levels: list[Level]) -> list[list[list[int]]]:
    """Rank-ordered faces (digit lists) of every die, in word order.

    The level-j digit of a die's rank-r face is its level-j table's entry
    for the word's j-th trit at rank r, with the ranks left-rotated by the
    selected earlier trit.
    """
    family = []
    for w in words(len(levels)):
        faces = []
        for rank in range(3):
            face = []
            for j, (table, rot) in enumerate(levels):
                shift = 0 if rot is None else w[rot - 1]
                face.append(table[w[j]][(rank + shift) % 3])
            faces.append(face)
        family.append(faces)
    return family


def face_str(face) -> str:
    return "".join(str(d) for d in face)


def family_doc(levels: list[Level] | None, faces, depth: int) -> dict:
    """A family document in the CLI's JSON schema, multiplicity 2."""
    doc: dict = {"depth": depth, "multiplicity": 2}
    if levels is not None:
        doc["stack"] = stack_lines(levels)
    doc["dice"] = [
        {"word": list(w), "paper_number": n, "faces": [face_str(f) for f in fs]}
        for n, (w, fs) in enumerate(zip(words(depth), faces), start=1)
    ]
    return doc


def winner(w: Word, v: Word) -> Word:
    """The word favoured at the first differing trit: 0 > 1 > 2 > 0."""
    for a, b in zip(w, v):
        if a != b:
            return w if (a + 1) % 3 == b else v
    raise ValueError("identical words have no winner")


def first_difference(w: Word, v: Word) -> int:
    return next(p for p, (a, b) in enumerate(zip(w, v)) if a != b)


def pairs_per_level(depth: int) -> list[int]:
    """Pairs whose first differing trit is at each level, 1..depth."""
    return [3 ** (p - 1) * 3 * 9 ** (depth - p) for p in range(1, depth + 1)]


# -- invocations and oracles --------------------------------------------------


@dataclass(frozen=True)
class Invocation:
    """One CLI call: arguments after ``metadice``, its exit code, its check."""

    label: str
    argv: tuple[str, ...]
    exit_code: int
    check: Callable[[bytes], "str | None"]


@dataclass(frozen=True)
class Workload:
    """One pass of invocations and the fewest passes a run makes.

    ``cmd_tail_s`` is the 11th-slowest invocation of a run. Each pass repeats
    its slowest kind of invocation often enough that ``min_passes`` passes
    hold at least 11 of them, so the tail stays on that kind however many
    passes fit in a run.
    """

    name: str
    why: str
    invocations: tuple[Invocation, ...]
    min_passes: int


def _mismatch(what: str, got, want) -> str | None:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


def check_report(stdout: bytes, depth: int, failures: list[dict]) -> str | None:
    """Check a ``verify --format json`` report against the expected failures."""
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    n = 3 ** depth
    levels = pairs_per_level(depth)
    fail_levels = [0] * depth
    for f in failures:
        fail_levels[first_difference(tuple(f["word_a"]), tuple(f["word_b"]))] += 1
    want = {
        "depth": depth,
        "dice": n,
        "multiplicity": 2,
        "pairs_checked": comb(n, 2),
        "per_level": [
            {"level": p + 1, "pairs": levels[p], "failures": fail_levels[p]}
            for p in range(depth)
        ],
        "failures": failures,
        "passed": not failures,
    }
    if not isinstance(doc, dict):
        return "report is not a JSON object"
    for key, value in want.items():
        problem = _mismatch(f"report {key}", doc.get(key), value)
        if problem:
            return problem[:300]
    return None


def check_family_doc(stdout: bytes, want: dict) -> str | None:
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return f"family document is not JSON: {exc}"
    if doc == want:
        return None
    for key in want:
        if doc.get(key) != want[key]:
            return f"family document differs in {key!r}"
    return "family document has extra keys"


def normalized_rows(faces, depth: int) -> list[list[str]]:
    rows = [["word", "paper_number", "rank", "decimal", "numerator", "denominator"]]
    for n, (w, fs) in enumerate(zip(words(depth), faces), start=1):
        for rank, face in enumerate(fs):
            value = Fraction(int(face_str(face)), 10 ** depth)
            rows.append(
                [
                    face_str(w),
                    str(n),
                    str(rank),
                    "0." + face_str(face),
                    str(value.numerator),
                    str(value.denominator),
                ]
            )
    return rows


def check_csv(stdout: bytes, want: list[list[str]]) -> str | None:
    rows = list(csv.reader(io.StringIO(stdout.decode())))
    if rows == want:
        return None
    if len(rows) != len(want):
        return f"csv has {len(rows)} rows, want {len(want)}"
    bad = next(i for i, (a, b) in enumerate(zip(rows, want)) if a != b)
    return f"csv row {bad}: got {rows[bad]}, want {want[bad]}"


def check_full_graph(stdout: bytes, depth: int) -> str | None:
    """Every pair is one edge labelled 5/9, from the predicted winner."""
    text = stdout.decode()
    lines = text.splitlines()
    if not lines or lines[0] != "digraph dominance {" or lines[-1] != "}":
        return "not a dominance digraph"
    ws = words(depth)
    name = {w: f"D{n}" for n, w in enumerate(ws, start=1)}
    nodes = [ln for ln in lines[1:-1] if "->" not in ln]
    edges = [ln for ln in lines[1:-1] if "->" in ln]
    if sorted(nodes) != sorted(f'  "{name[w]}";' for w in ws):
        return "graph nodes are not the family's dice"
    if len(edges) != comb(len(ws), 2):
        return f"graph has {len(edges)} edges, want {comb(len(ws), 2)}"
    want = set()
    for w, v in itertools.combinations(ws, 2):
        win = winner(w, v)
        lose = v if win == w else w
        want.add(f'  "{name[win]}" -> "{name[lose]}" [label="5/9"];')
    wrong = [ln for ln in edges if ln not in want]
    if wrong or len(set(edges)) != len(edges):
        return f"unexpected edge {wrong[0] if wrong else 'duplicate'}"
    return None


# -- tampering -----------------------------------------------------------------


def naive_duel(a: list[int], b: list[int]) -> tuple[int, int]:
    """(wins of a, ties) over the 3x3 grid of face pairs, faces as numbers."""
    wins = ties = 0
    for x in a:
        for y in b:
            wins += x > y
            ties += x == y
    return wins, ties


def expected_failures(faces, depth: int, touched: set[int]) -> list[dict]:
    """Failure records for every pair touching a tampered die, in pair order.

    Pairs between untouched dice come from a valid stack and pass.
    """
    ws = words(depth)
    numbers = [[int(face_str(f)) for f in fs] for fs in faces]
    failures = []
    for i, j in itertools.combinations(range(len(ws)), 2):
        if i not in touched and j not in touched:
            continue
        w, v = ws[i], ws[j]
        wins, ties = naive_duel(numbers[i], numbers[j])
        win = winner(w, v)
        if (wins if win == w else 9 - wins - ties) == 5 and ties == 0:
            continue
        failures.append(
            {
                "word_a": list(w),
                "word_b": list(v),
                "expected_winner": list(win),
                "observed": {
                    "win": str(Fraction(wins, 9)),
                    "tie": str(Fraction(ties, 9)),
                    "loss": str(Fraction(9 - wins - ties, 9)),
                },
            }
        )
    return failures


def tamper(rng: random.Random, faces, tamper_levels: list[int]):
    """Copy of ``faces`` with one digit moved by 1 at each listed level.

    Returns the altered faces and the indices of the dice touched. Each
    digit changes at a distinct (die, rank, level) position.
    """
    out = [[list(f) for f in fs] for fs in faces]
    used = set()
    for level in tamper_levels:
        while True:
            die, rank = rng.randrange(len(out)), rng.randrange(3)
            if (die, rank, level) not in used:
                break
        used.add((die, rank, level))
        d = out[die][rank][level - 1]
        step = rng.choice((-1, 1)) if 1 < d < 9 else (1 if d == 1 else -1)
        out[die][rank][level - 1] = d + step
    return out, {die for die, _, _ in used}


# -- workload generators ---------------------------------------------------------


def _write(workdir: Path, name: str, text: str) -> str:
    (workdir / name).write_text(text)
    return name


def _write_stack(workdir: Path, name: str, levels: list[Level]) -> str:
    return _write(workdir, name, "\n".join(stack_lines(levels)) + "\n")


def build_verify_deep(rng, workdir, shallow: int, deep: int) -> Workload:
    invocations = []
    # One uniform and one rotated shallow stack, then four deep rotated ones.
    # Four passes hold 16 deep runs, so the tail, their 6th fastest, sits
    # inside that group rather than at its edge, and so does the median.
    kinds = ((shallow, False, 1), (shallow, True, 1), (deep, True, 4))
    for depth, rotated, copies in kinds:
        for c in range(copies):
            name = _write_stack(
                workdir, f"deep-{depth}-{int(rotated)}-{c}.stack",
                draw_stack(rng, depth, rotated),
            )
            invocations.append(
                Invocation(
                    f"verify d{depth} {'rot' if rotated else 'uniform'} {c}",
                    ("verify", "--stack", name, "--format", "json"),
                    0,
                    functools.partial(check_report, depth=depth, failures=[]),
                )
            )
    return Workload("verify-deep", WHY["verify-deep"], tuple(invocations), 4)


def build_verify_tampered(rng, workdir, depth: int, tampers) -> Workload:
    # Each document alters digits at levels 1, 2, ..., depth, 1, 2, ... in
    # turn. A level-1 change touches hundreds of pairs and a deep one a few,
    # so fixing the levels keeps failure decoding steady from seed to seed.
    docs, failing = [], []
    for d, count in enumerate(tampers):
        doc_levels = [1 + i % depth for i in range(count)]
        faces = family_faces(draw_stack(rng, depth, rotated=True))
        while True:
            altered, touched = tamper(rng, faces, doc_levels)
            failures = expected_failures(altered, depth, touched)
            if failures:
                break
        failing.append(len(failures))
        name = _write(
            workdir, f"tampered-{d}.json",
            json.dumps(family_doc(None, altered, depth), indent=2) + "\n",
        )
        docs.append(
            Invocation(
                f"verify tampered x{count}",
                ("verify", "--family", name, "--format", "json"),
                1,
                functools.partial(check_report, depth=depth, failures=failures),
            )
        )
    # The document with the most failing pairs is the slowest; run it three
    # times a pass so four passes put 12 of its runs at the tail.
    heaviest = docs[failing.index(max(failing))]
    return Workload(
        "verify-tampered", WHY["verify-tampered"], tuple(docs) + (heaviest,) * 2, 4
    )


def build_export(rng, workdir, table: int, graph: int) -> Workload:
    levels = draw_stack(rng, table, rotated=True)
    faces = family_faces(levels)
    stack = _write_stack(workdir, "export.stack", levels)
    invocations = [
        Invocation(
            f"generate d{table}",
            ("generate", "--stack", stack, "--format", "json"),
            0,
            functools.partial(check_family_doc, want=family_doc(levels, faces, table)),
        ),
        Invocation(
            f"normalize d{table}",
            ("normalize", "--stack", stack, "--format", "csv"),
            0,
            functools.partial(check_csv, want=normalized_rows(faces, table)),
        ),
    ]
    name = _write_stack(workdir, "graph.stack", draw_stack(rng, graph, rotated=True))
    invocations.append(
        Invocation(
            f"graph d{graph}",
            ("graph", "--stack", name, "--full-graph", "--format", "dot"),
            0,
            functools.partial(check_full_graph, depth=graph),
        )
    )
    # Three commands of distinct cost: the median falls on the middle one,
    # and eleven passes put the slowest one at the tail.
    return Workload("export", WHY["export"], tuple(invocations), 11)


WORKLOADS = {
    "verify-deep": build_verify_deep,
    "verify-tampered": build_verify_tampered,
    "export": build_export,
}


def build(name: str, seed: int, workdir: Path, scale: dict = FULL) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir``."""
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name](rng, workdir, **scale[name])
