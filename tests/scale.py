"""The 5/9 claim and the memory bounds at depths 6-11, where tier-1 does
not go, each command run by :func:`run` in a fresh process. Tier-1 collects
only ``test_*.py``: ``PYTHONPATH=src python -m pytest -q tests/scale.py``."""

import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

import pytest

from conftest import SRC, assert_same_text, level1_failed_family
from metadice.cli import report_json
from metadice.export import build_graph, graph_to_json, normalized_values, to_dot
from metadice.export import points_to_csv, points_to_json
from metadice.hierarchy import family_from_json, family_to_json, generate, verify_family
from metadice.loshu import parse_stack, preset_stack
from metadice.sweep import unpack

#: ``python -c LAUNCH report timeout *args`` runs ``python *args``, kills it
#: after ``timeout`` seconds unless that is 0, and writes to ``report`` its
#: exit code, its peak resident memory in KB from ``os.wait4`` and 1 if it
#: was killed. Exec keeps the peak of the memory it replaces, so a child of
#: the larger test process would count that process's memory as its own.
LAUNCH = """\
import os, signal, sys
report, timeout, *args = sys.argv[1:]
pid = os.fork()
if not pid:
    os.execv(sys.executable, [sys.executable, *args])
signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
signal.setitimer(signal.ITIMER_REAL, float(timeout))
_, status, usage = os.wait4(pid, 0)
late = float(timeout) > 0 and not signal.setitimer(signal.ITIMER_REAL, 0)[0]
with open(report, "w") as f:
    f.write(f"{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss} {int(late)}")
"""

Child = namedtuple("Child", "code stdout lines peak_mb stderr")
UNIFORM = ("--preset", "uniform", "--depth")


def run(*args, timeout=0, count=None) -> Child:
    """Run ``python *args`` through :data:`LAUNCH`, with ``src`` on its path.
    Keep its stdout as text or, if ``count`` is given, read it from a pipe
    and count its lines that start with ``count``; raise TimeoutExpired if
    it was killed after ``timeout`` seconds."""
    with tempfile.TemporaryDirectory() as tmp:
        report, out, err = (Path(tmp, name) for name in ("report", "out", "err"))
        argv = [sys.executable, "-c", LAUNCH, str(report), str(timeout), *args]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(out, "wb") as stdout, open(err, "wb") as stderr:
            pipe = stdout if count is None else subprocess.PIPE
            with subprocess.Popen(argv, stdout=pipe, stderr=stderr, env=env) as child:
                lines = sum(line.startswith(count) for line in child.stdout or ())
        code, kb, late = map(int, report.read_text().split())
        if late:
            raise subprocess.TimeoutExpired(args, timeout)
        return Child(code, out.read_bytes().decode(), lines, kb / 1024, err.read_bytes())


def metadice(*args, **kwargs) -> Child:
    return run("-m", "metadice", *map(str, args), **kwargs)


def stackless(path: Path, depth: int) -> dict:
    """Write the uniform depth-``depth`` family's document, as ``generate``
    writes it, to ``path``; return it without its stack echo."""
    large = ("--allow-large",) if depth > 8 else ()
    child = metadice("generate", *UNIFORM, depth, *large, "--format", "json")
    assert child.code == 0
    path.write_text(child.stdout)
    return {key: value for key, value in json.loads(child.stdout).items() if key != "stack"}


def altered_d2(doc: dict) -> dict:
    """``doc`` with the first digit of D2, not the first die of any block,
    altered: the stack echo would reject it on load."""
    faces = doc["dice"][1]["faces"]
    faces[0] = str((int(faces[0][0]) + 1) % 10) + faces[0][1:]
    return doc


def failed_level1(path: Path, depth: int) -> Path:
    path.write_text(json.dumps(family_to_json(level1_failed_family(depth))))
    return path


@pytest.fixture(scope="module")
def failed7(tmp_path_factory) -> Path:
    return failed_level1(tmp_path_factory.mktemp("failed7") / "uniform7.json", 7)


def test_commands_under_dev_mode_write_only_their_own_stderr(tmp_path):
    """A command's process freezes the collector as it exits, so shutdown
    collects no cycle and would not close a file left in one. Under
    -X dev with -W error, a file freed unclosed is reported on stderr,
    so each command must write only its own stderr: nothing when it
    passes, fails or writes --output, and its error: line alone when
    its source is missing."""
    family, dot, missing = (tmp_path / n for n in ("family.json", "out.dot", "missing.txt"))
    family.write_text(json.dumps(altered_d2(stackless(family, 3))))
    dev = ("-X", "dev", "-W", "error", "-m", "metadice")
    for code, *args in (
        (0, "verify", *UNIFORM, "4", "--format", "json"),
        (1, "verify", "--family", str(family)),
        (0, "graph", *UNIFORM, "3", "--full-graph", "--output", str(dot)),
    ):
        child = run(*dev, *args)
        assert (child.code, child.stderr) == (code, b""), args
    assert dot.stat().st_size > 0
    child = run(*dev, "verify", "--stack", str(missing))
    assert child.code == 2
    want = f"error: [Errno 2] No such file or directory: '{missing}'"
    assert child.stderr.decode().rstrip("\n") == want


def test_depth_10_by_certificate():
    """A validated stack is proven from its depth alone: none of the
    59,049 dice of this family is built and no pair is compared."""
    argv = ("verify", *UNIFORM, 10, "--allow-large", "--format", "json")
    child = metadice(*argv, timeout=120)
    assert child.code == 0
    assert '"passed": true' in child.stdout


def test_stackless_depth_10_family_by_certificate(tmp_path):
    """Without its stack echo the same family is proven from its listed
    faces: the certificate reads all 59,049 dice, in about a second, and
    compares no pair. Comparing all of them would take some 1.7e9 pair
    checks, so a certificate that failed here would run into the timeout."""
    family = tmp_path / "uniform10.json"
    family.write_text(json.dumps(stackless(family, 10)))
    argv = ("verify", "--family", family, "--allow-large", "--format", "text")
    child = metadice(*argv, timeout=120)
    assert child.code == 0
    last = child.stdout.splitlines()[-1]
    assert re.fullmatch(r"PASS \([0-9.]+s, certificate\)", last)


ROT8 = """\
2,4,9;1,6,8;3,5,7
2,8,5;9,6,3;4,1,7 rot=w1
2,9,4;1,8,6;3,7,5 rot=w2
2,4,9;1,6,8;3,5,7 rot=w1
2,8,5;9,6,3;4,1,7 rot=w4
2,9,4;1,8,6;3,7,5 rot=w2
2,4,9;1,6,8;3,5,7 rot=w5
2,8,5;9,6,3;4,1,7 rot=w7
"""


def test_export_outputs_at_depth_8_match_the_standard_librarys_rendering(tmp_path):
    """The golden hashes stop at depth 5. At export scale, each JSON text
    must equal the standard library's indented dump of itself and the
    CSV its own csv.reader -> csv.writer round trip. The points JSON and
    the full-graph DOT and JSON, written straight from their rows, must
    equal the record path's rendering: the points at depth 8, and the
    graphs on a passing family and on one with an altered digit, whose
    failing pairs flip or tie some edges. A rotated depth-8 stack, whose
    levels rotate by trits above its 729-die blocks (w1, w2) and inside
    them (w4, w5, w7), is written by generate and normalize straight from
    its walk: the family document, the points JSON and the CSV must equal
    the record path's text of the generated family. Its first six levels
    make a rotated depth-6 stack, whose graph is drawn from its depth
    alone: in full and at levels 1-3, as DOT and as JSON, it must equal
    the record path's rendering of the generated family's graph."""
    rot8, rot6, altered = (tmp_path / n for n in ("rot8.txt", "rot6.txt", "altered5.json"))
    rot8.write_text(ROT8)
    rot6.write_text("".join(ROT8.splitlines(True)[:6]))
    altered.write_text(json.dumps(altered_d2(stackless(altered, 5))))

    def output(*args):
        child = metadice(*args)
        assert child.code == 0, args
        return child.stdout

    def indented(doc):
        return json.dumps(doc, indent=2) + "\n"

    points_json = output("normalize", *UNIFORM, 8, "--format", "json")
    for text in (
        output("generate", *UNIFORM, 8, "--format", "json"),
        points_json,
        output("graph", *UNIFORM, 4, "--full-graph", "--format", "json"),
    ):
        assert_same_text(text, indented(json.loads(text)))
    text = output("normalize", *UNIFORM, 8, "--format", "csv")
    again = io.StringIO()
    csv.writer(again, lineterminator="\n").writerows(csv.reader(io.StringIO(text)))
    assert_same_text(again.getvalue(), text)
    uniform = generate(preset_stack("uniform", 5))
    family = family_from_json(json.loads(altered.read_text()))
    assert verify_family(family).records, "altered5.json fails no pair"
    for source, oracle in (((*UNIFORM, 5), uniform), (("--family", altered), family)):
        dot = output("graph", *source, "--full-graph", "--format", "dot")
        assert_same_text(dot, to_dot(build_graph(oracle, full=True)))
    points = normalized_values(generate(preset_stack("uniform", 8)))
    assert_same_text(points_json, indented(points_to_json(points)))
    graph = output("graph", "--family", altered, "--full-graph", "--format", "json")
    assert_same_text(graph, indented(graph_to_json(build_graph(family, full=True))))
    stack = parse_stack(ROT8)
    rotations = [rule.rotate_by for rule in stack.levels]
    assert stack.depth == 8 and rotations == [None, 1, 2, 1, 4, 2, 5, 7], rotations
    rotated = generate(stack)
    written = output("generate", "--stack", rot8, "--format", "json")
    assert_same_text(written, indented(family_to_json(rotated)))
    points = normalized_values(rotated)
    written = output("normalize", "--stack", rot8, "--format", "json")
    assert_same_text(written, indented(points_to_json(points)))
    written = output("normalize", "--stack", rot8, "--format", "csv")
    assert_same_text(written, points_to_csv(points))
    rotated = generate(parse_stack(rot6.read_text()))
    assert rotated.stack.depth == 6, rotated.stack.depth
    for level in (None, 1, 2, 3):
        graph = build_graph(rotated, level, full=level is None)
        scope = ("--full-graph",) if level is None else ("--level", level)
        dot = output("graph", "--stack", rot6, *scope, "--format", "dot")
        assert_same_text(dot, to_dot(graph))
        written = output("graph", "--stack", rot6, *scope, "--format", "json")
        assert_same_text(written, indented(graph_to_json(graph)))


def test_depth_11_stack_streams_in_bounded_memory():
    """A stack's dice are written as its walk grows them, one block of 729
    dice at a time, so the 177,147 dice of depth 11 are never held at
    once. Read from a pipe and dropped, their listing and their 531,441
    points must come from processes that each peak below 24 MB of
    resident memory; holding the family took 65 MB."""
    source = (*UNIFORM, 11, "--allow-large")
    deadline = time.monotonic() + 120  # for both commands
    for command, want in (
        (("generate", *source, "--format", "text"), 177_147),
        (("normalize", *source, "--format", "csv"), 531_442),
    ):
        child = metadice(*command, count=b"", timeout=deadline - time.monotonic())
        assert (child.code, child.lines) == (0, want), command[0]
        assert child.peak_mb < 24, f"{command[0]} peaked at {child.peak_mb:.1f} MB"


def test_tampered_depth_9_family_by_localized_scan(tmp_path):
    """One altered digit in a 19,683-die family: the localized scan compares
    only the altered die's pairs, in a few seconds. Comparing every pair
    would need some 1.9e8 pair checks, so a scan that reached far beyond
    the altered die runs into the timeout.

    Without --allow-large the document is refused by its depth before
    its dice are read: exit 2, nothing on stdout, the ceiling message.
    Loading the untouched document first walks its stack echo and
    compares each of the 19,683 dice it yields with the listed faces."""
    family = tmp_path / "uniform9.json"
    doc = stackless(family, 9)
    refused = metadice("verify", "--family", family, timeout=10)
    assert (refused.code, refused.stdout) == (2, "")
    assert b"error: depth 9 exceeds the default ceiling of 8" in refused.stderr
    argv = ("verify", "--family", family, "--allow-large", "--format", "json")
    child = metadice(*argv, timeout=60)
    assert child.code == 0
    assert '"passed": true' in child.stdout
    family.write_text(json.dumps(altered_d2(doc)))
    child = metadice(*argv, timeout=60)
    assert child.code == 1
    assert '"passed": false' in child.stdout


def test_depth_6_failed_level_1_table_by_localized_scan(tmp_path):
    """Digit 0 at level 1 of rank 0 in the whole first subset breaks the
    level-1 table (0,4,9;1,6,8;3,5,7 fails the leading property). Its
    blocks' digits stay distinct, so the localized scan compares the
    177,147 pairs that first differ at level 1, of the family's 265,356,
    and writes 59,049 failures in under a second, each recorded at
    level 1, where its dice first differ. Both reports are
    written from the integer failure records: the JSON must equal the
    standard library's dump of the record path's document (23,029,689
    bytes), and each failure line of the text report its describe().
    The JSON is streamed a batch of failures at a time, so the process
    holds the records, one int each, not the 23 MB text: it must peak
    below 64 MB of resident memory."""
    family = failed_level1(tmp_path / "uniform6.json", 6)
    text = metadice("verify", "--family", family, "--format", "text", timeout=30)
    assert text.code == 1
    lines = text.stdout.splitlines()
    assert lines[0] == "depth 6, 729 dice, 265356 pairs, 59049 failures"
    assert re.fullmatch(r"FAIL \([0-9.]+s, localized\)", lines[-1])
    child = metadice("verify", "--family", family, "--format", "json", timeout=30)
    assert child.code == 1
    assert child.peak_mb < 64, f"verify peaked at {child.peak_mb:.1f} MB"
    report = verify_family(family_from_json(json.loads(family.read_text())))
    assert report.pairs_scanned == 177147
    assert {unpack(record, 6)[2] for record in report.records} == {1}
    assert [s.failures for s in report.per_level] == [59049, 0, 0, 0, 0, 0]
    failures = report.failures
    assert len(failures) == 59049
    assert len(child.stdout) == 23029689
    assert_same_text(child.stdout, json.dumps(report_json(report), indent=2) + "\n")
    want = "\n".join("  " + failure.describe() for failure in failures)
    assert_same_text("\n".join(lines[7:-2]), want)
    assert lines[-2].startswith("certificate: level 1, prefix ()")


def test_depth_7_failed_level_1_table_in_bounded_memory(failed7):
    """The same fault at depth 7 fails 531,441 pairs, 225 MB of JSON. Each
    failure is held as one int and the family is dropped before the
    report is written, so, read from a pipe and counted, the report must
    come from a process that peaks below 64 MB of resident memory; a
    tuple per failure took 82 MB."""
    argv = ("verify", "--family", failed7, "--format", "json")
    child = metadice(*argv, count=b'      "word_a"', timeout=120)
    assert (child.code, child.lines) == (1, 531_441)
    assert child.peak_mb < 64, f"verify peaked at {child.peak_mb:.1f} MB"


def test_full_graph_of_failing_depth_7_family_in_bounded_memory(failed7):
    """The full graph of the depth-7 family with a failed level-1 table,
    531,441 failing pairs among its 2,390,391 edges, is written from the
    failure records, one int each, and each die's list of its failing
    pairs: read from a pipe and counted, it must come from a process that
    peaks below 64 MB of resident memory; a set entry per die and a moved
    edge per failing pair took 146 MB."""
    child = metadice("graph", "--family", failed7, "--full-graph", count=b"", timeout=120)
    assert (child.code, child.lines) == (0, 2_392_580)
    assert child.peak_mb < 64, f"graph peaked at {child.peak_mb:.1f} MB"


def test_depth_7_full_graph_streams_in_bounded_memory():
    """The depth-7 full graph has 2,390,391 edges, 84 MB of DOT. It is drawn
    from the stack's depth and written a batch of runs at a time, so the
    process holds no die and not the text: read from a pipe and dropped,
    the 2,392,580 lines must come from a process that peaks below 64 MB
    of resident memory."""
    child = metadice("graph", *UNIFORM, 7, "--full-graph", count=b"", timeout=120)
    assert (child.code, child.lines) == (0, 2_392_580)
    assert child.peak_mb < 64, f"graph peaked at {child.peak_mb:.1f} MB"
