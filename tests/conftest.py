"""Shared test fixtures: hypothesis strategies, assignment pools, CLI runner.

The assignment pools are built with the naive counting oracles below (not
the library's ``table_fault``) so that family-level property tests draw
from independently certified construction data.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st

from metadice.cli import main
from metadice.dice import Die
from metadice.hierarchy import DiceFamily, generate
from metadice.loshu import AssignmentStack, DigitAssignment, LevelRule, preset_stack

settings.register_profile("metadice", deadline=None)
settings.load_profile("metadice")


def naive_leading_counts(subsets) -> list[int]:
    """Cross-pair win counts around the cycle, by explicit double loop."""
    counts = []
    for s in range(3):
        t = (s + 1) % 3
        c = 0
        for x in subsets[s]:
            for y in subsets[t]:
                if x > y:
                    c += 1
        counts.append(c)
    return counts


def naive_rankwise_counts(subsets) -> list[int]:
    """Same-rank win counts around the cycle, by explicit loop."""
    counts = []
    for s in range(3):
        t = (s + 1) % 3
        c = 0
        for i in range(3):
            if subsets[s][i] > subsets[t][i]:
                c += 1
        counts.append(c)
    return counts


def _assignment_pool(is_valid, seed: int, want: int = 60):
    rng = random.Random(seed)
    digits = list(range(1, 10))
    pool, seen = [], set()
    for _ in range(500_000):
        if len(pool) >= want:
            break
        rng.shuffle(digits)
        subsets = (tuple(digits[0:3]), tuple(digits[3:6]), tuple(digits[6:9]))
        if subsets in seen:
            continue
        seen.add(subsets)
        if is_valid(subsets):
            pool.append(DigitAssignment(subsets))
    assert len(pool) >= want, "assignment pool search did not converge"
    return tuple(pool)


LEADING_POOL = _assignment_pool(
    lambda s: naive_leading_counts(s) == [5, 5, 5], seed=2024_01
)
RANKWISE_POOL = _assignment_pool(
    lambda s: naive_rankwise_counts(s) == [2, 2, 2], seed=2024_02
)


def face_digits(k: int):
    return st.tuples(*([st.integers(1, 9)] * k))


@st.composite
def die_pair(draw, max_depth=3):
    """Two dice sharing one digit length, arbitrary faces and multiplicities."""
    k = draw(st.integers(1, max_depth))

    def one():
        entries = draw(
            st.lists(
                st.tuples(face_digits(k), st.integers(1, 3)),
                min_size=1,
                max_size=4,
            )
        )
        return Die(tuple(entries))

    return one(), one()


@st.composite
def valid_stacks(draw, max_depth=3):
    """Random valid stacks: leading-valid level 1, rank-wise deeper levels."""
    depth = draw(st.integers(1, max_depth))
    levels = [LevelRule(draw(st.sampled_from(LEADING_POOL)))]
    for level in range(2, depth + 1):
        base = draw(st.sampled_from(RANKWISE_POOL))
        if draw(st.booleans()):
            levels.append(LevelRule(base, draw(st.integers(1, level - 1))))
        else:
            levels.append(LevelRule(base))
    return AssignmentStack(tuple(levels))


def random_rank_faces(rng: random.Random, depth: int, high: int = 9):
    """3^depth dice of 3 distinct random digit-string faces each, digits
    1..``high``."""
    rank_faces = []
    for _ in range(3 ** depth):
        faces = set()
        while len(faces) < 3:
            faces.add("".join(str(rng.randint(1, high)) for _ in range(depth)))
        rank_faces.append(tuple(sorted(faces)))
    return tuple(rank_faces)


def die_of(family, i: int) -> Die:
    """Die i of a family, every face at the family multiplicity: the bridge
    from a family's rank faces to the ``duel()`` oracle."""
    return Die.from_values(family.rank_faces[i], family.multiplicity)


def level1_failed_family(depth=3):
    """Uniform dice whose subset-0 rank-0 faces start with digit 0: the
    level-1 table 0,4,9;1,6,8;3,5,7 fails the leading property, so the
    localized scan checks every pair that first differs at level 1."""
    faces = [list(die) for die in generate(preset_stack("uniform", depth)).rank_faces]
    for die in faces[: 3 ** (depth - 1)]:
        die[0] = "0" + die[0][1:]
    return DiceFamily(depth, 2, tuple(map(tuple, faces)))


def assert_same_text(got, want):
    """``got == want`` for long texts, naming the first line that differs:
    pytest's own diff of two such texts can take minutes."""
    if got != want:
        lines = zip(got.splitlines(), want.splitlines())
        at = next((n for n, (a, b) in enumerate(lines, 1) if a != b), None)
        pytest.fail(f"texts differ at line {at}: {len(got)} vs {len(want)} chars")


def run_cli_main(argv, stdin_text=None):
    """Invoke the CLI in process; returns (exit code, stdout, stderr)."""
    out_io, err_io = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out_io), redirect_stderr(err_io):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out_io.getvalue(), err_io.getvalue()


@pytest.fixture
def run_cli():
    return run_cli_main


SRC = Path(__file__).resolve().parent.parent / "src"

#: A child's ``sitecustomize``: it records the file of every ``compile``
#: audit event from start-up on and, from the first ``atexit`` callback
#: registered, so the last to run, the collector's freeze count. It writes
#: both to ``probe.json`` beside itself.
PROBE = """\
import atexit, gc, json, os, sys

compiled = []


def audit(event, args):
    if event == "compile" and isinstance(args[1], str):
        compiled.append(args[1])


def report():
    doc = {"compiled": compiled, "freeze_count": gc.get_freeze_count()}
    with open(os.path.join(os.path.dirname(__file__), "probe.json"), "w") as f:
        json.dump(doc, f)


sys.addaudithook(audit)
atexit.register(report)
"""


def run_probed(args, probe_dir: Path, *, stdin: bytes = b"", **env):
    """Run ``python *args`` in a fresh process with :data:`PROBE` as its
    ``sitecustomize``, ``src`` on its path and ``stdin`` as its input;
    returns the completed process, stdout and stderr as bytes, and the
    probe's record."""
    probe_dir.mkdir(exist_ok=True)
    (probe_dir / "sitecustomize.py").write_text(PROBE)
    env = dict(os.environ, PYTHONPATH=f"{probe_dir}{os.pathsep}{SRC}", **env)
    argv = [sys.executable, *args]
    proc = subprocess.run(argv, input=stdin, env=env, capture_output=True)
    with open(probe_dir / "probe.json") as f:
        return proc, json.load(f)
