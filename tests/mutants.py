"""Mutants of ``src/metadice`` that the tests must kill. Each replaces one
exact text of one module, and the tests it names, run with ``-x`` on a copy
of ``src`` and ``tests`` that holds the mutant, must fail; they must pass on
the copy without it. A mutant that survives means a missing test: add the
test, or, if no output can tell the mutant from the code, remove it with a
note in ``CHANGES.md`` that says why. Tier-1 collects only ``test_*.py``,
and ``tests/test_records.py`` checks that each mutant's text occurs exactly
once in ``src``; run the mutants by name:
``PYTHONPATH=src python -m pytest -q tests/mutants.py``."""

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    #: The module's file name in ``src/metadice``.
    file: str
    text: str
    replacement: str
    #: Test ids, from the repository root, of which one at least must fail.
    tests: tuple[str, ...]


HIERARCHY = "tests/test_hierarchy.py"
EXPORT = "tests/test_export.py"

MUTANTS = (
    Mutant(
        "siblings-owed-wins-swapped",
        "sweep.py",
        "(parent + (trit + 1) % 3 * size, 5), (parent + (trit + 2) % 3 * size, 4)",
        "(parent + (trit + 1) % 3 * size, 4), (parent + (trit + 2) % 3 * size, 5)",
        (
            f"{HIERARCHY}::test_siblings_is_the_cycle_of_the_words_and_the_records",
            f"{HIERARCHY}::TestCertificate::test_single_faults_match_the_sweep",
            f"{EXPORT}::test_graphs_match_duel_oracle_on_random_families",
        ),
    ),
    Mutant(
        "scan-lower-die-flipped",
        "sweep.py",
        "if j < i:",
        "if j > i:",
        (
            f"{HIERARCHY}::test_scan_before_a_die_records_the_lower_die",
            f"{HIERARCHY}::TestCertificate::test_single_faults_match_the_sweep",
        ),
    ),
    Mutant(
        "certify-crowded-blocks-dropped",
        "certificate.py",
        "crowded = [b for b, row in enumerate(rows) if len(set(row)) < 3]",
        "crowded = []",
        (
            f"{HIERARCHY}::TestCertificate"
            "::test_crowded_level1_block_scans_every_pair_beneath_it",
            f"{HIERARCHY}::TestCertificate"
            "::test_crowded_level1_block_overrules_valid_tables_beneath_it",
        ),
    ),
    Mutant(
        "certify-block-size-a-level-up",
        "certificate.py",
        "size = 3 ** (depth - p - 1)",
        "size = 3 ** (depth - p)",
        (
            f"{HIERARCHY}::TestCertificate::test_sound_and_verdict_is_the_sweeps",
            f"{HIERARCHY}::TestCertificate::test_single_faults_match_the_sweep",
        ),
    ),
    Mutant(
        "walk-rotations-in-reverse",
        "loshu.py",
        "for table in rule.tables for _ in range(run)",
        "for table in rule.tables[::-1] for _ in range(run)",
        (
            f"{HIERARCHY}::TestWalkDice::test_presets",
            f"{HIERARCHY}::TestGenerate::test_matches_per_word_reference",
        ),
    ),
    Mutant(
        "walk-prefix-trit-misread",
        "loshu.py",
        "rule.tables[int(prefix[q - 1])]",
        "rule.tables[int(prefix[-q])]",
        (f"{HIERARCHY}::TestWalkDice::test_rotations_above_and_inside_the_block",),
    ),
    Mutant(
        "dice-sound-without-isascii",
        "hierarchy.py",
        "if not (text.isascii() and text.isdigit()):",
        "if not text.isdigit():",
        (
            f"{HIERARCHY}::TestFamilyJson::test_non_ascii_digit_faces_rejected",
            "tests/test_cli.py::test_bad_family_document_exits_2"
            "[non-ASCII face digit, no stack-verify]",
        ),
    ),
    Mutant(
        "record-pairs-swapped",
        "sweep.py",
        "map(divmod, map(operator.rshift, records, repeat(PAIR_SHIFT)), repeat(n))",
        "((j, i) for i, j in map(divmod, map(operator.rshift, records,"
        " repeat(PAIR_SHIFT)), repeat(n)))",
        (f"{HIERARCHY}::test_record_layout_round_trips_and_sorts_as_pairs",),
    ),
    Mutant(
        "preset-depth-type-unchecked",
        "loshu.py",
        'if depth is not None and not is_int(depth):\n'
        '        raise ValueError(f"depth must be an integer, got {depth!r}")\n'
        "    ",
        "",
        (
            "tests/test_loshu.py::TestPresets"
            "::test_a_depth_that_is_not_an_int_rejected",
        ),
    ),
    Mutant(
        "full-graph-wins-and-losses-swapped",
        "export.py",
        "wins, _, loss = counts[key]",
        "loss, _, wins = counts[key]",
        (
            f"{EXPORT}::test_graphs_match_duel_oracle_on_random_families",
            f"{EXPORT}::test_full_graph_matches_the_sweep_on_every_path",
        ),
    ),
    Mutant(
        "die-label-numbered-from-zero",
        "loshu.py",
        'f"D{i + 1} ({trits(i, depth)})"',
        'f"D{i} ({trits(i, depth)})"',
        (
            f"{HIERARCHY}::TestFamilyInvariants::test_duplicate_faces_rejected",
            f"{HIERARCHY}::TestVerify::test_tampering_detected",
        ),
    ),
    Mutant(
        "trits-in-reverse",
        "loshu.py",
        "for j in range(length))",
        "for j in reversed(range(length)))",
        (
            f"{HIERARCHY}::TestCertificate::test_disagreeing_die_named",
            f"{HIERARCHY}::TestVerify::test_tampering_detected",
        ),
    ),
    Mutant(
        "generate-builds-the-walk-first",
        "hierarchy.py",
        "DiceFamily(stack.depth, multiplicity, walk_dice(stack), stack)",
        "DiceFamily(stack.depth, multiplicity, tuple(walk_dice(stack)), stack)",
        (
            f"{HIERARCHY}::TestGenerate"
            "::test_refuses_a_multiplicity_before_it_reads_the_walk",
        ),
    ),
    Mutant(
        "full-graph-run-one-target-long",
        "export.py",
        "tails[first:end]",
        "tails[first:end + 1]",
        (
            f"{EXPORT}::test_full_graph_matches_the_sweep_on_every_path",
            f"{EXPORT}::TestOnePassWriters::test_corpus",
        ),
    ),
    Mutant(
        "full-graph-runs-cut-at-eight",
        "export.py",
        "first + 9 if first + 9 < end else end",
        "first + 8 if first + 9 < end else end",
        (f"{EXPORT}::test_full_graph_runs_hold_at_most_nine_edges",),
    ),
    Mutant(
        "full-graph-block-end-overrun",
        "export.py",
        "runs.append((lo, end, FIVE))",
        "runs.append((lo, end + 1, FIVE))",
        (f"{EXPORT}::TestBuildGraph::test_full_graph_edge_count",),
    ),
    Mutant(
        "full-graph-runs-of-ten",
        "export.py",
        "range(lo, end, 9)",
        "range(lo, end, 10)",
        (f"{EXPORT}::test_full_graph_runs_hold_at_most_nine_edges",),
    ),
    Mutant(
        "full-graph-failing-pair-labelled-five",
        "export.py",
        "runs.append((target, target + 1, NINTHS[ninths]))",
        "runs.append((target, target + 1, FIVE))",
        (f"{EXPORT}::test_graphs_match_duel_oracle_on_random_families",),
    ),
    Mutant(
        "report-labels-only-the-lower-dice",
        "cli.py",
        "set(chain.from_iterable(record_pairs(report.records, report.depth)))",
        "{i for i, _ in record_pairs(report.records, report.depth)}",
        (
            "tests/test_cli.py"
            "::test_failing_text_report_labels_only_the_dice_it_names",
        ),
    ),
)


def copy_tree(root: Path) -> Path:
    """Copy ``src``, ``tests`` and ``pyproject.toml`` under ``root``, so that
    the tests that read ``src`` through their own path read the copy."""
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, root / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", root)
    return root


def run_tests(root: Path, tests) -> subprocess.CompletedProcess:
    """Run ``tests`` with ``-x`` on the copy at ``root``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    return subprocess.run(
        [*argv, *tests], cwd=root, env=env, capture_output=True, text=True
    )


@pytest.fixture(scope="module")
def unmutated(tmp_path_factory):
    """Every named test passes on a copy without a mutant, so that a
    mutant's failure is its own."""
    root = copy_tree(tmp_path_factory.mktemp("unmutated"))
    proc = run_tests(root, sorted({test for m in MUTANTS for test in m.tests}))
    assert proc.returncode == 0, proc.stdout[-3000:]


def test_the_named_tests_pass_without_a_mutant(unmutated):
    pass


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_fails_its_tests(unmutated, mutant, tmp_path):
    root = copy_tree(tmp_path)
    path = root / "src" / "metadice" / mutant.file
    text = path.read_text()
    assert text.count(mutant.text) == 1
    path.write_text(text.replace(mutant.text, mutant.replacement))
    proc = run_tests(root, mutant.tests)
    # the same run passed without the mutant, so any failure is the mutant's,
    # be it a failed test or a module that no longer loads
    assert proc.returncode != 0, proc.stdout[-3000:]
