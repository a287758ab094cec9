"""The CLI exit-code contract: 2 and an ``error:`` line on malformed input,
and on any input an exit code in {0, 1, 2}, no traceback, repeatable stdout.
Also the verify reports written from failure records against the record
path."""

import argparse
import gc
import inspect
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    assert_same_text,
    level1_failed_family,
    random_rank_faces,
    run_cli_main,
    run_probed,
)
from metadice import certificate, cli, export, hierarchy
from metadice.cli import (
    DEPTH_CEILING,
    report_json,
    report_json_text,
    report_text,
)
from metadice.export import build_graph, graph_to_json, to_dot
from metadice.hierarchy import (
    DiceFamily,
    family_from_json,
    family_to_json,
    generate,
    verify_family,
)
from metadice.loshu import parse_stack, preset_stack, walk_dice
from metadice.sweep import level_pairs, unpack
from test_export import corpus
from test_golden import ROTATED_STACK, tampered_document
from test_hierarchy import (
    assert_levels_are_first_differing_trits,
    crowded_block_family,
    crowded_over_valid_table_family,
)

SRC = Path(__file__).resolve().parent.parent / "src"
PAPER1 = family_to_json(generate(preset_stack("paper-1")))
PAPER2 = family_to_json(generate(preset_stack("paper-2")))


def paper1_with(**changes):
    """The paper-1 document with top-level fields or the first entry changed."""
    doc = json.loads(json.dumps(PAPER1))
    if "first" in changes:
        doc["dice"][0] = changes.pop("first")
    doc.update(changes)
    return doc


def first_entry(**changes):
    return dict(PAPER1["dice"][0], **changes)


def without_stack(doc):
    return {key: value for key, value in doc.items() if key != "stack"}


def entries_swapped():
    """Entries 0 and 1 swapped whole, word and paper_number with them, and
    no stack echo: each entry is consistent, only their order is wrong."""
    doc = without_stack(paper1_with())
    doc["dice"][:2] = doc["dice"][1::-1]
    return doc


BAD_DOCUMENTS = {
    "a list": [],
    "null": None,
    "a number": 3,
    "a string": "x",
    "depth alone": {"depth": 1},
    "null multiplicity": {"depth": 1, "multiplicity": None, "dice": []},
    "non-ASCII depth": paper1_with(depth="\u0661"),
    "boolean depth": paper1_with(depth=True),
    "faces not a list": paper1_with(first=first_entry(faces=5)),
    "faces a string": paper1_with(first=first_entry(faces="249")),
    "entry a list": paper1_with(first=[0]),
    "entry null": paper1_with(first=None),
    "word a string": paper1_with(first=first_entry(word="0")),
    "word a number": paper1_with(first=first_entry(word=0)),
    "paper_number a list": paper1_with(first=first_entry(paper_number=[1])),
    "stack line a number": paper1_with(stack=[249]),
    "stack echo differs": paper1_with(stack=["1,6,8;3,5,7;2,4,9"]),
    "non-ASCII face digit": paper1_with(first=first_entry(faces=["\u0662", "4", "9"])),
    # with no stack echo to compare, only the dice checks refuse it
    "non-ASCII face digit, no stack": without_stack(
        paper1_with(first=first_entry(faces=["\u0662", "4", "9"]))
    ),
    "entries out of order": entries_swapped(),
    "boolean trit": paper1_with(first=first_entry(word=[False])),
    "float trit": paper1_with(first=first_entry(word=[0.0])),
    "boolean paper_number": paper1_with(first=first_entry(paper_number=True)),
    "trit of 3": paper1_with(first=first_entry(word=[3])),
    "depth 10**18, three dice": without_stack(paper1_with(depth=10**18)),
    "depth 0, paper-1 dice": without_stack(paper1_with(depth=0)),
}


@pytest.mark.parametrize("command", ["verify", "generate"])
@pytest.mark.parametrize("doc", BAD_DOCUMENTS.values(), ids=BAD_DOCUMENTS.keys())
def test_bad_family_document_exits_2(run_cli, tmp_path, command, doc):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli([command, "--family", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_document_that_is_not_an_object_is_named(run_cli, tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(BAD_DOCUMENTS["a list"]))
    code, out, err = run_cli(["verify", "--family", str(path)])
    assert (code, out, err) == (2, "", "error: family document must be a JSON object\n")


def test_digit_string_integers_load_and_verify(run_cli, tmp_path):
    """Every integer field may be a string of ASCII digits."""
    doc = paper1_with(depth="1", multiplicity="2")
    for n, entry in enumerate(doc["dice"], 1):
        entry["word"] = [str(t) for t in entry["word"]]
        entry["paper_number"] = str(n)
    assert family_from_json(doc) == family_from_json(PAPER1)
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["verify", "--family", str(path)])
    assert (code, err) == (0, "") and out.splitlines()[-1].startswith("PASS")


def test_source_is_one_required_choice(run_cli, tmp_path):
    """The parser refuses a missing or second source with its usage error."""
    stack = tmp_path / "stack"
    stack.write_text("2,4,9;1,6,8;3,5,7\n")
    code, out, err = run_cli(["verify", "--depth", "1"])
    assert (code, out) == (2, "")
    assert "one of the arguments --preset --stack --family --stdin is required" in err
    code, out, err = run_cli(["generate", "--preset", "paper-1", "--stack", str(stack)])
    assert (code, out) == (2, "")
    assert "argument --stack: not allowed with argument --preset" in err


def test_deeply_nested_document_exits_2(run_cli, tmp_path):
    path = tmp_path / "family.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(["verify", "--family", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_non_ascii_digits_exit_2(run_cli, tmp_path):
    two = "\u0662"
    stack = tmp_path / "stack.txt"
    stack.write_text(f"{two},4,9;1,6,8;3,5,7\n")
    listing = f"D1 {two} 4 9\nD2 1 6 8\nD3 3 5 7\n"
    for argv, stdin in (
        (["prob", f"{two},4,9", "1,6,8"], None),
        (["roundrobin", f"4,9,{two}", "3,5,7"], None),
        (["verify", "--stdin"], listing),
        (["generate", "--stack", str(stack)], None),
    ):
        code, out, err = run_cli(argv, stdin)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: "), argv


def test_ascii_inputs_still_parse(run_cli):
    assert run_cli(["prob", "2,4,9", "1,6,8"])[1].startswith("5/9 0 4/9")
    assert run_cli(["roundrobin", "4, 9, 2", "+3,5,7"]) == (0, "A:4 B:5\n", "")
    code, out, _ = run_cli(["verify", "--stdin"], "D1 2 4 9\nD2 1 6 8\nD3 3 5 7\n")
    assert code == 0 and "PASS" in out


@pytest.mark.parametrize(
    "argv",
    [["tables", "--depth", depth] for depth in ("1", "2", "3")]
    + [
        ["generate", "--preset", "uniform", "--depth", depth, "--format", "text"]
        for depth in ("1", "2", "3", "4")
    ],
)
def test_listing_round_trips_through_verify(run_cli, argv):
    """The listings ``tables`` and ``generate --format text`` write, with
    their names, colour comments and blank lines, verify as written."""
    code, listing, _ = run_cli(argv)
    assert code == 0
    code, out, err = run_cli(["verify", "--stdin"], listing)
    assert (code, err) == (0, "") and out.endswith(", certificate)\n")


def test_listing_names_may_mix_the_written_forms(run_cli):
    listing = "Die A 2 4 9\nDie 2 1 6 8\nD3 3 5 7\n"
    assert run_cli(["verify", "--stdin"], listing)[0] == 0


#: Listings whose row k does not carry the name D<k>, Die <k> or, for
#: k <= 3, Die A, B or C, followed by exactly three faces, with that k.
MISNAMED_LISTINGS = {
    "swapped rows": ("D2 1 6 8\nD1 2 4 9\nD3 3 5 7\n", 1),
    "wrong name": ("D1 2 4 9\nD2 1 6 8\nE3 3 5 7\n", 3),
    "letter past C": ("Die A 2 4 9\nDie B 1 6 8\nDie D 3 5 7\n", 3),
    "bare number": ("1 2 4 9\n2 1 6 8\n3 3 5 7\n", 1),
    "fourth face": ("D1 2 4 9\nD2 1 6 8\nD3 3 5 7 9\n", 3),
    "two faces": ("D1 2 4 9\nD2 1 6\nD3 3 5 7\n", 2),
}


@pytest.mark.parametrize(
    "listing, row", MISNAMED_LISTINGS.values(), ids=MISNAMED_LISTINGS.keys()
)
def test_listing_rows_must_name_their_dice(run_cli, listing, row):
    """A row is read by its name, not its position: a misnamed row or one
    with other than three faces is refused, naming the row, before
    anything is written."""
    code, out, err = run_cli(["verify", "--stdin"], listing)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: listing row {row} "), err


def test_every_library_error_is_a_value_error():
    """``main`` turns a ValueError or OSError into exit 2, so each exception
    class metadice defines must be a ValueError."""
    errors = {
        cls
        for name, module in sys.modules.items()
        if name.startswith("metadice")
        for cls in vars(module).values()
        if inspect.isclass(cls)
        and issubclass(cls, BaseException)
        and cls.__module__.startswith("metadice")
    }
    assert len(errors) >= 5
    assert all(issubclass(cls, ValueError) for cls in errors), errors


#: The listing of a uniform stack's dice, one level over the ceiling.
DEEP_LISTING = "".join(
    cli.family_listing(walk_dice(preset_stack("uniform", DEPTH_CEILING + 1)))
)

#: Calls refused by the --depth or --multiplicity match or the depth
#: ceiling, with a phrase of the error; {name} is an input file written by
#: the test.
DEPTH_REFUSALS = {
    "preset mismatch": (
        ["generate", "--preset", "paper-3", "--depth", "2"], None, "not 2"
    ),
    "stack mismatch": (
        ["generate", "--stack", "{stack}", "--depth", "2"], None, "does not match"
    ),
    "family mismatch": (
        ["verify", "--family", "{family}", "--depth", "2"], None, "does not match"
    ),
    "listing mismatch": (
        ["verify", "--stdin", "--depth", "2"],
        "D1 2 4 9\nD2 1 6 8\nD3 3 5 7\n",
        "does not match",
    ),
    "family multiplicity mismatch": (
        ["generate", "--family", "{family}", "--multiplicity", "5"],
        None,
        "--multiplicity 5 does not match the family's multiplicity 2",
    ),
    "uniform preset too deep": (
        ["generate", "--preset", "uniform", "--depth", "9"], None, "ceiling"
    ),
    "stack too deep": (["generate", "--stack", "{deep_stack}"], None, "ceiling"),
    "verified stack too deep": (
        ["verify", "--stack", "{deep_stack}"], None, "ceiling"
    ),
    "family too deep": (["verify", "--family", "{deep_family}"], None, "ceiling"),
    "listing too deep": (["verify", "--stdin"], DEEP_LISTING, "ceiling"),
}

#: Paper-1's dice under a depth one over the ceiling: the ceiling refuses
#: it before ``DiceFamily`` would refuse its dice count.
DEEP_FAMILY = json.dumps(without_stack(paper1_with(depth=DEPTH_CEILING + 1)))


@pytest.mark.parametrize("case", DEPTH_REFUSALS.values(), ids=DEPTH_REFUSALS.keys())
def test_depth_refused_for_every_source(run_cli, tmp_path, case):
    argv, stdin, phrase = case
    files = {
        "stack": "2,4,9;1,6,8;3,5,7\n",
        "family": json.dumps(PAPER1),
        "deep_stack": "2,4,9;1,6,8;3,5,7\n" * 9,
        "deep_family": DEEP_FAMILY,
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [arg.format(**{name: str(tmp_path / name) for name in files}) for arg in argv]
    code, out, err = run_cli(argv, stdin)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and phrase in err


def test_listing_depth_refused_before_its_rows(run_cli, monkeypatch):
    """Row 1's first face gives a listing's depth, so a listing over the
    ceiling is refused before its rows are read into a family, also when a
    later row is malformed; ``--allow-large`` lets it through to them."""

    def rows_read(lines, multiplicity):
        raise ValueError("rows read")

    monkeypatch.setattr(hierarchy, "family_from_rows", rows_read)
    argv, stdin, _ = DEPTH_REFUSALS["listing too deep"]
    refusal = (
        f"error: depth {DEPTH_CEILING + 1} exceeds the default ceiling of"
        f" {DEPTH_CEILING} (pass --allow-large to run anyway)\n"
    )
    assert run_cli(argv, stdin) == (2, "", refusal)
    assert run_cli([*argv, "--allow-large"], stdin) == (2, "", "error: rows read\n")
    monkeypatch.undo()
    malformed = stdin.replace("D2 ", "D7 ", 1)
    assert run_cli(argv, malformed) == (2, "", refusal)
    code, out, err = run_cli([*argv, "--allow-large"], malformed)
    assert (code, out) == (2, "") and "listing row 2" in err


@pytest.mark.parametrize("command", ["verify", "generate", "normalize", "graph"])
def test_preset_depth_over_the_ceiling_refused_before_the_stack(
    run_cli, monkeypatch, command
):
    """``--preset uniform --depth N`` builds N levels, so a depth over the
    ceiling is refused before any stack is built; ``--allow-large`` lets
    the depth through to ``preset_stack``."""
    calls = []

    def preset_stack_below_ceiling(name, depth=None):
        if depth is not None and depth > DEPTH_CEILING:
            calls.append(depth)
            raise ValueError("stack not built")
        return preset_stack(name, depth)

    monkeypatch.setattr(cli, "preset_stack", preset_stack_below_ceiling)
    for depth in (DEPTH_CEILING + 1, 10_000_000):
        argv = [command, "--preset", "uniform", "--depth", str(depth)]
        assert run_cli(argv) == (
            2, "", f"error: depth {depth} exceeds the default ceiling of"
            f" {DEPTH_CEILING} (pass --allow-large to run anyway)\n",
        )
        assert calls == []
        assert run_cli([*argv, "--allow-large"]) == (2, "", "error: stack not built\n")
        assert calls == [depth]
        calls.clear()
    assert run_cli([command, "--preset", "uniform", "--depth", "2"])[0] == 0


def test_family_over_the_ceiling_refused_before_its_dice(
    run_cli, monkeypatch, tmp_path
):
    """A document whose depth is over the ceiling, as a JSON integer or as a
    string of digits, is refused before ``family_from_json`` reads its
    dice."""
    stack = preset_stack("uniform", 9)
    doc = "".join(cli.family_json_text(9, 2, stack, walk_dice(stack)))
    path, digits = tmp_path / "uniform9.json", tmp_path / "digits9.json"
    path.write_text(doc)
    digits.write_text(json.dumps(dict(json.loads(doc), depth="9")))
    ceiling = (
        f"error: depth 9 exceeds the default ceiling of {DEPTH_CEILING}"
        " (pass --allow-large to run anyway)\n"
    )
    monkeypatch.setattr(hierarchy, "family_from_json", unreachable)
    for command in ("verify", "generate", "graph", "normalize"):
        for source in (path, digits):
            assert run_cli([command, "--family", str(source)]) == (2, "", ceiling)


@pytest.mark.parametrize("depth", [9, "9", "0009"])
def test_deep_document_refused_by_depth_whatever_its_dice(run_cli, tmp_path, depth):
    """The ceiling is checked on the depth as ``family_from_json`` reads it,
    an integer or a string of digits, before any die: malformed dice
    entries get the ceiling's message, not their own."""
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"depth": depth, "dice": [{"word": 0}, 7]}))
    ceiling = (
        f"error: depth 9 exceeds the default ceiling of {DEPTH_CEILING}"
        " (pass --allow-large to run anyway)\n"
    )
    assert run_cli(["verify", "--family", str(path)]) == (2, "", ceiling)
    code, out, err = run_cli(["verify", "--family", str(path), "--allow-large"])
    assert (code, out) == (2, "")
    assert err.startswith("error: dice entry 0 is malformed")


def test_allow_large_lets_a_deep_document_reach_its_dice(run_cli, tmp_path):
    """Past the ceiling, ``DiceFamily`` refuses a depth its entries cannot
    fill."""
    path = tmp_path / "family.json"
    path.write_text(json.dumps(BAD_DOCUMENTS["depth 10**18, three dice"]))
    depth = 10**18
    code, out, err = run_cli(["verify", "--family", str(path), "--allow-large"])
    assert (code, out) == (2, "")
    assert err == f"error: a depth-{depth} family needs exactly 3^{depth} dice\n"


@pytest.mark.parametrize("multiplicity", ["0", "-1"])
@pytest.mark.parametrize(
    "command, source, stdin",
    [
        (command, source, None)
        for command in ("generate", "verify")
        for source in (
            ["--preset", "paper-2"], ["--stack", "{stack}"], ["--family", "{family}"]
        )
    ]
    + [("verify", ["--stdin"], "D1 2 4 9\nD2 1 6 8\nD3 3 5 7\n")]
    + [
        ("normalize", source, None)
        for source in (
            ["--preset", "paper-2"], ["--stack", "{stack}"], ["--family", "{family}"]
        )
    ],
)
def test_multiplicity_below_one_refused(
    run_cli, tmp_path, multiplicity, command, source, stdin
):
    """A multiplicity below 1 is refused before anything is written: by
    the source check for a stack, whose walk is written as it goes, by
    ``DiceFamily`` for a listing, and by the match with a family
    document's own."""
    files = {"stack": "2,4,9;1,6,8;3,5,7\n", "family": json.dumps(PAPER1)}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    names = {name: str(tmp_path / name) for name in files}
    argv = [command, *(arg.format(**names) for arg in source)]
    code, out, err = run_cli([*argv, "--multiplicity", multiplicity], stdin)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "multiplicity" in err


@pytest.mark.parametrize("depth", ["0", "-2"])
def test_depth_below_one_refused(run_cli, tmp_path, depth):
    """Every source refuses a depth below 1 with its own message, before
    the depth ceiling is checked."""
    stack, family = tmp_path / "stack", tmp_path / "family.json"
    stack.write_text("2,4,9;1,6,8;3,5,7\n")
    family.write_text(json.dumps(PAPER1))
    uniform = run_cli(["generate", "--preset", "uniform", "--depth", depth])
    assert uniform == (2, "", f"error: depth must be at least 1, got {depth}\n")
    for source in (
        ["--preset", "paper-3"], ["--stack", str(stack)], ["--family", str(family)]
    ):
        code, out, err = run_cli(["verify", *source, "--depth", depth])
        assert (code, out) == (2, "") and err.startswith("error: ")
    listing = "D1 2 4 9\nD2 1 6 8\nD3 3 5 7\n"
    code, out, err = run_cli(["verify", "--stdin", "--depth", depth], listing)
    assert (code, out) == (2, "") and "does not match" in err


def test_family_keeps_its_multiplicity(run_cli, tmp_path):
    """Unset, --multiplicity takes the document's value, not the default 2;
    a given value is accepted when it matches."""
    path = tmp_path / "family.json"
    path.write_text(json.dumps(paper1_with(multiplicity=3)))
    plain = run_cli(["generate", "--family", str(path)])
    assert plain[0] == 0 and '"multiplicity": 3' in plain[1]
    assert run_cli(["generate", "--family", str(path), "--multiplicity", "3"]) == plain


def test_graph_level_and_full_graph_exclusive(run_cli):
    code, out, err = run_cli(
        ["graph", "--preset", "paper-2", "--full-graph", "--level", "1"]
    )
    assert (code, out) == (2, "")
    assert "not allowed with argument" in err


#: A depth-2 listing that passes the sweep but not the certificate: its
#: node (1) table, 2,2,9;1,6,8;3,5,7, repeats digit 2 across ranks.
REPEATED_DIGIT_LISTING = """\
D1 22 44 99
D2 21 46 98
D3 23 45 97
D4 12 62 89
D5 11 66 88
D6 13 65 87
D7 32 54 79
D8 31 56 78
D9 33 55 77
"""


@pytest.mark.parametrize(
    "argv, stdin, code, method, detail",
    [
        (["--preset", "paper-3"], None, 0, "certificate", None),
        (
            ["--stdin"],
            REPEATED_DIGIT_LISTING,
            0,
            "localized",
            "level 2, prefix (1), table 2,2,9;1,6,8;3,5,7: the 9 digits of an"
            " assignment must be pairwise distinct",
        ),
        (
            ["--stdin"],
            REPEATED_DIGIT_LISTING.replace("D1 22 44 99", "D1 22 44 91"),
            1,
            "localized",
            "level 2, prefix (0), table 2,4,1;1,6,8;3,5,7: the 9 digits of an"
            " assignment must be pairwise distinct",
        ),
        (
            ["--stdin"],
            "D1 2 4 8\nD2 1 6 9\nD3 3 5 7\n",
            1,
            "localized",
            "level 1, prefix (), table 2,4,8;1,6,9;3,5,7: leading property fails"
            " for subset pair 0->1: 4 winning comparisons, need exactly 5",
        ),
    ],
    ids=["certified", "localized-pass", "localized-fail", "level1-fail"],
)
def test_text_report_names_the_method(run_cli, argv, stdin, code, method, detail):
    """The text report ends with the verdict, the time and the method; when
    the certificate could not prove the family, a ``certificate:`` line
    before it says why."""
    got, out, err = run_cli(["verify", *argv], stdin)
    assert (got, err) == (code, "")
    lines = out.splitlines()
    status = "PASS" if code == 0 else "FAIL"
    assert re.fullmatch(rf"{status} \(\d+\.\d{{3}}s, {method}\)", lines[-1])
    certificate_lines = [line for line in lines if line.startswith("certificate:")]
    if detail is None:
        assert certificate_lines == []
    else:
        assert certificate_lines == [lines[-2]] == [f"certificate: {detail}"]


def tampered(doc):
    doc = json.loads(json.dumps(without_stack(doc)))
    doc["dice"][0]["faces"][2] = "91"
    return doc


#: Well-formed starting points: passing, stackless and failing families.
VALID_DOCUMENTS = (PAPER1, PAPER2, without_stack(PAPER2), tampered(PAPER2))

FUZZ_TOKENS = list("0123456789,;x#") + [
    " ", "\t", "\n", "rot=w", "-", "+", "_", "\u0662",
]
fuzz_text = st.lists(st.sampled_from(FUZZ_TOKENS), max_size=30).map("".join)

json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.integers(-3, 12),
    fuzz_text,
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.sampled_from(["word", "faces"]), st.integers(0, 2), max_size=2),
)


@st.composite
def family_documents(draw):
    """A valid document with up to three fields nulled, retyped or dropped."""
    doc = json.loads(json.dumps(draw(st.sampled_from(VALID_DOCUMENTS))))
    for _ in range(draw(st.integers(0, 3))):
        target = draw(st.sampled_from(
            ["field", "drop", "entry", "word", "paper_number", "faces", "face"]
        ))
        dice = doc["dice"]
        if target == "field":
            field = draw(st.sampled_from(["depth", "multiplicity", "stack", "dice"]))
            doc[field] = draw(json_values)
            continue
        if not isinstance(dice, list) or not dice:
            continue
        pos = draw(st.integers(0, len(dice) - 1))
        entry = dice[pos]
        if target == "drop":
            del dice[pos]
        elif target == "entry":
            dice[pos] = draw(json_values)
        elif not isinstance(entry, dict):
            continue
        elif target == "face":
            # an earlier step may have left an entry without faces
            faces = entry.get("faces")
            if isinstance(faces, list) and faces:
                faces[draw(st.integers(0, len(faces) - 1))] = draw(fuzz_text)
        else:
            entry[target] = draw(json_values)
    return doc


FILE = object()  # stands for the input file in a drawn argv


@st.composite
def cli_calls(draw):
    """(argv, stdin text, input file text) for one fuzzed CLI call."""
    kind = draw(st.sampled_from(["family", "stack", "listing", "die", "team"]))
    family_command = draw(st.sampled_from(["verify", "generate", "normalize", "graph"]))
    json_format = ["--format", "json"] if family_command == "verify" else []
    if kind == "family":
        doc = json.dumps(draw(family_documents()))
        return [family_command, "--family", FILE, *json_format], None, doc
    if kind == "stack":
        return [family_command, "--stack", FILE, *json_format], None, draw(fuzz_text)
    if kind == "listing":
        return ["verify", "--stdin", "--format", "json"], draw(fuzz_text), None
    a, b = draw(fuzz_text), draw(fuzz_text)
    if kind == "team":
        return ["roundrobin", a, b], None, None
    command = draw(st.sampled_from([["prob"], ["simulate", "--trials", "20"]]))
    return [*command, a, b], None, None


@given(cli_calls())
@settings(max_examples=300)
def test_exit_code_contract_holds_on_fuzzed_input(tmp_path_factory, call):
    argv, stdin, file_text = call
    if file_text is not None:
        path = tmp_path_factory.getbasetemp() / "fuzz-input"
        path.write_text(file_text)
        argv = [str(path) if arg is FILE else arg for arg in argv]
    code, out, err = run_cli_main(argv, stdin)
    assert code in (0, 1, 2)
    assert code != 1 or argv[0] == "verify"
    assert "Traceback" not in err
    assert run_cli_main(argv, stdin)[:2] == (code, out)


def assert_reports_match_records(report):
    """The report texts written from the failure records equal the record
    path: the JSON document as ``json.dumps(indent=2)`` writes it, and one
    text line per failure as ``describe()`` words it."""
    document = json.dumps(report_json(report), indent=2) + "\n"
    assert_same_text("".join(report_json_text(report)), document)
    lines = "".join(report_text(report)).splitlines()
    count, depth = len(report.records), report.depth
    assert lines[0].endswith(f" {count} failures")
    want = ["  " + failure.describe() for failure in report.failures]
    assert len(want) == count
    assert_same_text("\n".join(lines[1 + depth : 1 + depth + count]), "\n".join(want))
    tail = lines[1 + depth + count :]
    assert tail[-1].startswith("PASS" if report.passed else "FAIL")
    assert len(tail) == 1 + (report.certificate_detail is not None)


#: A depth-1 family whose level-1 table fails the leading property.
LEVEL1_FAIL = DiceFamily(1, 2, (("2", "4", "8"), ("1", "6", "9"), ("3", "5", "7")))


#: Random depth-3 dice, which fail pairs at every level, both those the
#: cycle favours the earlier die of and those it favours the later die of.
EVERY_LEVEL_FAIL = DiceFamily(3, 2, random_rank_faces(random.Random(25), 3))


def test_report_writers_match_the_record_path():
    """On every verification path: the certificate corpus, single faults
    of paper-3, failed and crowded level-1 tables, failures at every
    level, and every preset."""
    families = corpus() + (
        crowded_block_family(),
        crowded_over_valid_table_family(),
        LEVEL1_FAIL,
        EVERY_LEVEL_FAIL,
        *(generate(preset_stack("uniform", depth)) for depth in range(1, 6)),
    )
    report = verify_family(EVERY_LEVEL_FAIL)
    sides = {
        (unpack(record, 3)[2], failure.expected_winner == failure.word_a)
        for record, failure in zip(report.records, report.failures)
    }
    assert sides == {(level, a) for level in (1, 2, 3) for a in (True, False)}
    later_wins = shared_wins = 0
    for family in families:
        report = verify_family(family)
        assert_levels_are_first_differing_trits(report.records, report.depth)
        assert_reports_match_records(report)
        later_wins += any(f.expected_winner == f.word_b for f in report.failures)
        outcomes = {unpack(record, report.depth)[3:] for record in report.records}
        shared_wins += len({wins for wins, _ in outcomes}) < len(outcomes)
    # a later die favored, and one wins count with and without ties
    assert later_wins and shared_wins


def test_record_level_is_the_first_differing_trit():
    """On the tampered golden document, and on the failed level-1 depth-6
    family of CI, whose 59,049 failures all first differ at level 1."""
    tampered = verify_family(family_from_json(tampered_document()))
    assert tampered.records
    assert_levels_are_first_differing_trits(tampered.records, 4)
    failed = verify_family(level1_failed_family(6))
    assert len(failed.records) == 59049
    assert_levels_are_first_differing_trits(failed.records, 6)
    assert {unpack(record, 6)[2] for record in failed.records} == {1}


def test_failing_report_with_ties_is_indented_dumps(run_cli, tmp_path):
    """A depth-4 report at multiplicity 3 whose failures include ties, as
    the CLI writes it and as ``json.dumps(indent=2)`` writes its document."""
    doc = dict(tampered_document(), multiplicity=3)
    report = verify_family(family_from_json(doc))
    assert any(unpack(record, report.depth)[4] for record in report.records)
    want = json.dumps(report_json(report), indent=2) + "\n"
    assert '"multiplicity": 3' in want
    assert_same_text("".join(report_json_text(report)), want)
    path = tmp_path / "family.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["verify", "--family", str(path), "--format", "json"])
    assert (code, err) == (1, "")
    assert_same_text(out, want)


def unreachable(*args, **kwargs):
    raise AssertionError("the verify path called a function it must not reach")


def test_verify_proves_a_stack_without_dice(run_cli, monkeypatch, tmp_path):
    """``verify --preset`` and ``--stack`` neither generate the family nor
    certify it, and write what the family path writes."""
    path = tmp_path / "rotated.txt"
    path.write_text(ROTATED_STACK)
    cases = [
        (["--preset", "paper-3"], preset_stack("paper-3"), 2),
        (["--preset", "uniform", "--depth", "5"], preset_stack("uniform", 5), 2),
        (
            ["--stack", str(path), "--multiplicity", "3"],
            parse_stack(ROTATED_STACK),
            3,
        ),
    ]
    expected = [
        "".join(report_json_text(verify_family(generate(stack, multiplicity))))
        for _, stack, multiplicity in cases
    ]
    monkeypatch.setattr(hierarchy, "generate", unreachable)
    monkeypatch.setattr(certificate, "certify", unreachable)
    for (argv, *_), want in zip(cases, expected):
        code, out, err = run_cli(["verify", *argv, "--format", "json"])
        assert (code, err) == (0, "")
        assert_same_text(out, want)
        code, out, err = run_cli(["verify", *argv])
        assert (code, err) == (0, "")
        assert re.fullmatch(r"PASS \(\d+\.\d{3}s, certificate\)", out.splitlines()[-1])


def test_verify_reads_the_faces_of_a_family(run_cli, monkeypatch, tmp_path):
    """``--family``, with or without a stack echo, and ``--stdin`` go through
    ``verify_family``: a tampered document keeps its localized report."""
    calls = []

    def counted(family):
        calls.append(family.depth)
        return verify_family(family)

    echo, stackless = tmp_path / "echo.json", tmp_path / "stackless.json"
    doc = tampered_document()
    echo.write_text(json.dumps(PAPER2))
    stackless.write_text(json.dumps(doc))
    want = "".join(report_json_text(verify_family(family_from_json(doc))))
    listing = "D1 2 4 8\nD2 1 6 9\nD3 3 5 7\n"
    monkeypatch.setattr(hierarchy, "verify_family", counted)
    monkeypatch.setattr(cli, "verify_stack", unreachable)
    code, out, err = run_cli(["verify", "--family", str(echo)])
    assert (code, err, calls) == (0, "", [2])
    assert out.splitlines()[-1].endswith(", certificate)")
    code, out, err = run_cli(["verify", "--family", str(stackless), "--format", "json"])
    assert (code, err, calls) == (1, "", [2, 4])
    assert_same_text(out, want)
    code, out, err = run_cli(["verify", "--family", str(stackless)])
    assert (code, calls) == (1, [2, 4, 4])
    assert out.splitlines()[-1].endswith(", localized)")
    code, out, err = run_cli(["verify", "--stdin"], listing)
    assert (code, calls) == (1, [2, 4, 4, 1])
    assert out.splitlines()[-1].endswith(", localized)")


def test_verify_a_deep_stack_from_its_depth(run_cli, monkeypatch):
    """A depth-40 stack is proven at once; the ceiling still refuses depth
    9 without --allow-large. Building its 3^40 dice would exhaust memory,
    so generating them fails the test instead."""
    monkeypatch.setattr(hierarchy, "generate", unreachable)
    argv = ["verify", "--preset", "uniform", "--depth", "40", "--allow-large"]
    start = time.perf_counter()
    code, out, err = run_cli([*argv, "--format", "json"])
    assert time.perf_counter() - start < 1
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["passed"] and doc["failures"] == []
    assert doc["dice"] == 3 ** 40
    assert doc["pairs_checked"] == (9 ** 40 - 3 ** 40) // 2
    assert [level["pairs"] for level in doc["per_level"]] == level_pairs(40)
    assert all(level["failures"] == 0 for level in doc["per_level"])
    code, out, err = run_cli(["verify", "--preset", "uniform", "--depth", "9"])
    assert (code, out) == (2, "") and "ceiling" in err


def test_verify_writes_pair_counts_past_the_int_digit_limit(run_cli, tmp_path):
    """From depth 4,507 on, the pairs first differing at level 1 number
    over 4,300 digits, CPython's limit for writing an int as text. A
    document's depth of 5,000 digits is still refused on input."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    argv = ["verify", "--preset", "uniform", "--depth", "4507", "--allow-large"]
    code, out, err = run_cli([*argv, "--format", "json"])
    assert (code, err) == (0, "")
    assert out.endswith('"failures": [],\n  "passed": true\n}\n')
    assert len(out.split('"pairs_checked": ')[1].split(",")[0]) > 4300
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].startswith("PASS")
    path = tmp_path / "family.json"
    path.write_text('{"depth": 1' + "0" * 4999 + ', "dice": []}')
    code, out, err = run_cli(["verify", "--family", str(path)])
    assert (code, out) == (2, "") and err.startswith("error: ")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


#: Calls that exit 2, with their stdin and the family document a
#: ``{doc}`` argument names: every bad document and depth refusal above,
#: and refusals of dice, teams, options and input files.
REFUSED_CALLS = {
    **{
        f"{name}-{command}": ([command, "--family", "{doc}"], None, doc)
        for name, doc in BAD_DOCUMENTS.items()
        for command in ("verify", "graph")
    },
    **{name: (argv, stdin, None) for name, (argv, stdin, _) in DEPTH_REFUSALS.items()},
    "non-ASCII die": (["prob", "\u0662,4,9", "1,6,8"], None, None),
    "non-ASCII team": (["roundrobin", "4,9,\u0662", "3,5,7"], None, None),
    "non-ASCII listing": (
        ["verify", "--stdin", "--format", "json"], "D1 \u0662 4 9\n", None
    ),
    "zero trials": (["simulate", "2,4,9", "1,6,8", "--trials", "0"], None, None),
    "negative seed": (["simulate", "2,4,9", "1,6,8", "--seed", "-1"], None, None),
    "seed past 64 bits": (
        ["simulate", "2,4,9", "1,6,8", "--seed", str(2 ** 64)], None, None
    ),
    "dice of two face lengths": (["simulate", "22,44,99", "1,6,8"], None, None),
    "two subsets": (["verify", "--stack", "{two_subsets}"], None, None),
    "four subsets": (["verify", "--stack", "{four_subsets}"], None, None),
    "no source": (["normalize"], None, None),
    "two sources": (
        ["normalize", "--preset", "paper-1", "--stack", "{stack}"], None, None
    ),
    "missing family file": (["generate", "--family", "{missing}"], None, None),
    "level outside the family": (
        ["graph", "--preset", "paper-2", "--level", "3"], None, None
    ),
    "level with full graph": (
        ["graph", "--preset", "paper-2", "--full-graph", "--level", "1"], None, None
    ),
    "no such table": (["tables", "--depth", "4"], None, None),
    "preset too deep": (
        ["graph", "--preset", "uniform", "--depth", "9", "--full-graph"], None, None
    ),
}


@pytest.mark.parametrize("case", REFUSED_CALLS.values(), ids=REFUSED_CALLS.keys())
def test_refused_call_writes_nothing(run_cli, tmp_path, case):
    """Every error is raised before the first piece is written: a call that
    exits 2 writes nothing to stdout and leaves an existing ``--output``
    file as it was."""
    argv, stdin, doc = case
    files = {
        "stack": "2,4,9;1,6,8;3,5,7\n",
        "two_subsets": "2,4,9;1,6,8\n",
        "four_subsets": "2,4,9;1,6,8;3,5,7;0,0,0\n",
        "family": json.dumps(PAPER1),
        "deep_stack": "2,4,9;1,6,8;3,5,7\n" * 9,
        "deep_family": DEEP_FAMILY,
        "doc": json.dumps(doc),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    names = {name: str(tmp_path / name) for name in [*files, "missing"]}
    argv = [arg.format(**names) for arg in argv]
    earlier = b"earlier output\n"
    output = tmp_path / "output"
    output.write_bytes(earlier)
    code, out, err = run_cli([*argv, "--output", str(output)], stdin)
    assert (code, out) == (2, "")
    assert "error: " in err and "Traceback" not in err
    assert output.read_bytes() == earlier
    assert run_cli(argv, stdin) == (code, out, err)


UNIFORM5 = ["--preset", "uniform", "--depth", "5"]

#: One call per streamed writer; verify reads a failing family document.
WRITER_CALLS = {
    "tables": ["tables", "--depth", "3"],
    "generate-json": ["generate", *UNIFORM5],
    "generate-text": ["generate", *UNIFORM5, "--format", "text"],
    "verify-json": ["verify", "--family", "{failing}", "--format", "json"],
    "verify-text": ["verify", "--family", "{failing}"],
    "graph-dot": ["graph", "--preset", "paper-3", "--full-graph"],
    "graph-json": ["graph", *UNIFORM5, "--level", "5", "--format", "json"],
    "normalize-csv": ["normalize", *UNIFORM5],
    "normalize-json": ["normalize", *UNIFORM5, "--format", "json"],
}


@pytest.mark.parametrize("argv", WRITER_CALLS.values(), ids=WRITER_CALLS.keys())
def test_output_file_holds_the_stdout_bytes(run_cli, monkeypatch, tmp_path, argv):
    """``--output`` receives exactly the bytes stdout does, and the batch
    size changes no byte: with one piece per batch, a few, or the default."""
    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps(tampered_document()))
    argv = [arg.format(failing=failing) for arg in argv]
    output = tmp_path / "output"
    code, out, err = run_cli(argv)
    assert code in (0, 1) and err == ""
    # the verify text report's last line carries its time
    timed = re.compile(r"\(\d+\.\d{3}s, ")
    for batch in (cli._BATCH, 7, 1):
        monkeypatch.setattr(cli, "_BATCH", batch)
        assert run_cli([*argv, "--output", str(output)]) == (code, "", "")
        got = output.read_bytes().decode("ascii")
        assert_same_text(timed.sub("(", got), timed.sub("(", out))


class ByteCounter:
    """A stdout that counts the bytes written to it and keeps none."""

    def __init__(self):
        self.bytes = 0

    def write(self, text):
        self.bytes += len(text.encode())
        return len(text)

    def flush(self):
        pass


def traced_peak(call) -> int:
    """The most memory ``call()`` held at once, as ``tracemalloc`` saw it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_graph_holds_the_family_not_its_edges(monkeypatch):
    """The depth-5 full graph of a stack, 29,403 edges, is drawn from the
    stack's depth, with no die built, and written holding a batch of runs:
    a quarter of its text is more than enough."""
    sink = ByteCounter()
    monkeypatch.setattr(sys, "stdout", sink)
    argv = ["graph", "--preset", "uniform", "--depth", "5", "--full-graph"]
    cli.main(["graph", "--preset", "paper-1", "--full-graph"])  # imports, once
    sink.bytes = 0
    peak = traced_peak(lambda: cli.main(argv))
    graph = build_graph(generate(preset_stack("uniform", 5)), full=True)
    assert sink.bytes == len(to_dot(graph))
    assert peak < sink.bytes / 4


def test_failing_full_graph_holds_its_records_and_little_more(monkeypatch):
    """The full graph of the failed level-1 depth-6 family is written from
    its 59,049 failure records, each held as one int, and each die's list
    of its failing pairs: under 40 bytes per record beyond the records
    themselves."""
    family = level1_failed_family(6)
    tracemalloc.start()
    try:
        report = verify_family(family)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(report.records) == 59049
    del report
    sink = ByteCounter()
    monkeypatch.setattr(sys, "stdout", sink)
    args = argparse.Namespace(output=None)

    def write():
        cli._emit(args, export.graph_dot(export.graph_rows(family, full=True)))

    peak = traced_peak(write)
    assert sink.bytes == len(to_dot(build_graph(family, full=True)))
    assert peak - held < 40 * 59049, (peak - held) / 59049


@pytest.mark.parametrize("writer", [report_json_text, report_text])
def test_failing_report_holds_its_records_not_its_text(monkeypatch, writer):
    """A report of 6,561 failures is written holding the records, each
    die's word and a batch of failures, not the text of every failure."""
    report = verify_family(level1_failed_family(5))
    assert len(report.records) == 6561
    sink = ByteCounter()
    monkeypatch.setattr(sys, "stdout", sink)
    args = argparse.Namespace(output=None)
    peak = traced_peak(lambda: cli._emit(args, writer(report)))
    assert sink.bytes == len("".join(writer(report)))
    assert peak < sink.bytes / 4


def test_failing_text_report_labels_only_the_dice_it_names(monkeypatch):
    """A depth-6 family with one altered digit fails 2 pairs: its text
    report labels the dice of those pairs, not all 729 dice."""
    dice = list(walk_dice(preset_stack("uniform", 6)))
    a, b, c = dice[100]
    dice[100] = (a[:-1] + "9", b, c)
    report = verify_family(DiceFamily(6, 2, dice))
    want = "".join(report_text(report))
    named = {die for f in report.failures for die in (f.word_a, f.word_b)}
    assert 0 < len(named) < report.dice_count
    labelled, die_label = [], cli.die_label

    def counted(i, depth):
        labelled.append(i)
        return die_label(i, depth)

    monkeypatch.setattr(cli, "die_label", counted)
    assert "".join(report_text(report)) == want
    assert len(labelled) <= len(named)


def test_report_holds_each_failure_as_one_small_int():
    """The 59,049 failures of the failed level-1 depth-6 family are held
    in under 64 bytes each, the family built before tracing starts: a
    record is one int and a pointer, where a tuple of five took 116."""
    family = level1_failed_family(6)
    tracemalloc.start()
    try:
        report = verify_family(family)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(report.records) == 59049
    assert held / 59049 < 64, held / 59049


@pytest.mark.parametrize("format", ["json", "text"])
def test_verify_drops_the_family_before_its_first_write(monkeypatch, tmp_path, format):
    """The report refers to none of the family, so ``verify --family``
    writes without it: what ``_load_source`` returned is gone by the time
    stdout's first write runs, and no argument parser of the command is
    left when its source is loaded."""
    path = tmp_path / "family.json"
    path.write_text(json.dumps(tampered_document()))
    load, loaded, alive = cli._load_source, [], []

    def load_source(args):
        parsers = [
            o for o in gc.get_objects()
            if isinstance(o, argparse.ArgumentParser) and o.prog.startswith("metadice")
        ]
        assert parsers == []
        source, multiplicity = load(args)
        loaded.append(weakref.ref(source))
        return source, multiplicity

    class Sink(ByteCounter):
        def write(self, text):
            alive.append(loaded[0]() is not None)
            return super().write(text)

    monkeypatch.setattr(cli, "_load_source", load_source)
    monkeypatch.setattr(sys, "stdout", Sink())
    assert cli.main(["verify", "--family", str(path), "--format", format]) == 1
    assert len(loaded) == 1 and alive and not any(alive)


@pytest.mark.parametrize("writer", ["json", "listing", "csv", "points"])
def test_family_writers_hold_one_block_of_the_walk(writer):
    """Each family writer, fed the depth-9 walk of 19,683 dice and read a
    piece at a time, holds one block of 729 dice and one piece: under
    1 MB, where writing from the whole family held 5.2 MB."""
    stack = preset_stack("uniform", 9)
    writers = {
        "json": lambda dice: cli.family_json_text(9, 2, stack, dice),
        "listing": cli.family_listing,
        "csv": lambda dice: export.family_csv(9, dice),
        "points": lambda dice: export.points_json_text(9, dice),
    }
    pieces = []

    def count_pieces():
        pieces.append(sum(1 for _ in writers[writer](walk_dice(stack))))

    peak = traced_peak(count_pieces)
    assert pieces[0] >= 3 ** 9
    assert peak < 2 ** 20, peak


def test_graph_writers_build_no_edge_record(run_cli, monkeypatch):
    """``graph`` writes every level and the full graph from the integer
    walks: with ``build_graph`` and ``Edge`` unreachable, each call writes
    what it wrote before."""
    scopes = [["--level", "1"], ["--level", "2"], ["--level", "3"], ["--full-graph"]]
    calls = [
        ["graph", "--preset", "paper-3", *scope, "--format", fmt]
        for scope in scopes
        for fmt in ("dot", "json")
    ]
    wants = [run_cli(argv) for argv in calls]
    monkeypatch.setattr(export, "build_graph", unreachable)
    monkeypatch.setattr(export, "Edge", unreachable)
    for argv, want in zip(calls, wants):
        assert want[0] == 0
        assert run_cli(argv) == want


#: The stack echo of a family whose tables hold digit 0 in place of 1.
ZERO_DIGIT_ECHO = ["2,4,9;0,6,8;3,5,7", "2,8,5;9,6,3;4,0,7 rot=w1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["generate"],
        ["verify", "--format", "json"],
        ["normalize"],
        ["graph", "--full-graph"],
    ],
    ids=["generate", "verify", "normalize", "graph"],
)
def test_stack_with_digit_zero_reads_as_a_documents_echo(run_cli, tmp_path, argv):
    """``--stack`` is read as a family document's stack echo is, digit 0
    allowed: the echo of the document ``generate --family`` writes, given
    back as ``--stack``, exits 0 and writes what the document does."""
    echo = parse_stack("\n".join(ZERO_DIGIT_ECHO))
    document = tmp_path / "family.json"
    document.write_text(json.dumps(family_to_json(generate(echo))))
    code, out, err = run_cli(["generate", "--family", str(document)])
    assert (code, err) == (0, "")
    document.write_text(out)
    stack = tmp_path / "stack.txt"
    stack.write_text("\n".join(json.loads(out)["stack"]) + "\n")
    want = run_cli([*argv, "--family", str(document)])
    assert want[0] == 0
    assert run_cli([*argv, "--stack", str(stack)]) == want


def test_a_stacks_graph_reads_no_die(run_cli, monkeypatch, tmp_path):
    """``graph --preset`` and ``--stack``, at a level and in full, write the
    record path's text for the generated family with every way to build or
    check a die made unreachable: the graph is drawn from the depth."""
    path = tmp_path / "rotated.txt"
    path.write_text(ROTATED_STACK)
    sources = [
        (["--preset", "paper-3"], preset_stack("paper-3")),
        (["--preset", "uniform", "--depth", "4"], preset_stack("uniform", 4)),
        (["--stack", str(path)], parse_stack(ROTATED_STACK)),
    ]
    scopes = [(["--level", "1"], 1, False), (["--level", "3"], 3, False)]
    scopes.append((["--full-graph"], None, True))
    calls = [
        (["graph", *argv, *scope], build_graph(generate(stack), level, full=full))
        for argv, stack in sources
        for scope, level, full in scopes
    ]
    monkeypatch.setattr(hierarchy, "generate", unreachable)
    monkeypatch.setattr(hierarchy, "walk_dice", unreachable)
    monkeypatch.setattr(cli, "walk_dice", unreachable)
    monkeypatch.setattr(hierarchy, "verify_family", unreachable)
    monkeypatch.setattr(DiceFamily, "__init__", unreachable)
    for argv, graph in calls:
        assert run_cli(argv) == (0, to_dot(graph), "")
        code, out, err = run_cli([*argv, "--format", "json"])
        assert (code, err) == (0, "")
        assert out == json.dumps(graph_to_json(graph), indent=2) + "\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["graph", "--preset", "uniform", "--depth", "6", "--full-graph"], 0),
        (["verify", "--family", "{failing}"], 1),
    ],
    ids=["graph", "failing-verify"],
)
def test_closed_pipe_keeps_the_exit_code(tmp_path, argv, code):
    """A reader that takes one line and closes the pipe, as ``head -1``
    does, leaves the command its own exit code and an empty stderr."""
    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps(family_to_json(level1_failed_family(5))))
    argv = [arg.format(failing=failing) for arg in argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, "-m", "metadice", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (code, b"")


def _script_target() -> str:
    """The installed ``metadice`` script's entry point, as
    ``pyproject.toml`` names it; ``tomllib`` is new in Python 3.11."""
    tomllib = pytest.importorskip("tomllib")
    with open(SRC.parent / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]["scripts"]["metadice"]


@pytest.mark.parametrize("entry", ["module", "script"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["verify", "--preset", "uniform", "--depth", "3", "--format", "json"], 0),
        (["verify", "--family", "{failing}", "--format", "json"], 1),
        (["verify", "--stack", "{missing}"], 2),
        (["verify", "--depth", "3"], 2),
    ],
    ids=["pass", "fail", "missing-file", "usage"],
)
def test_a_process_writes_what_main_writes_and_exits_frozen(
    monkeypatch, tmp_path, entry, argv, code
):
    """``python -m metadice`` and the installed script's entry point write
    the stdout bytes and the stderr of :func:`cli.main` run in process and
    exit with its code. Both have frozen the collector by the time the
    ``atexit`` callbacks run; ``cli.main`` in process leaves nothing
    frozen."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to it
    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps(family_to_json(level1_failed_family(2))))
    missing = tmp_path / "missing.txt"
    argv = [arg.format(failing=failing, missing=missing) for arg in argv]
    if entry == "module":
        args = ["-m", "metadice"]
    else:
        # what the installed console script runs
        module, _, name = _script_target().partition(":")
        args = ["-c", f"import sys; from {module} import {name}; sys.exit({name}())"]
    proc, probe = run_probed([*args, *argv], tmp_path / "probe")
    main_code, out, err = run_cli_main(argv)
    assert gc.get_freeze_count() == 0
    assert main_code == code
    assert (proc.returncode, proc.stdout, proc.stderr.decode()) == (code, out.encode(), err)
    assert probe["freeze_count"] > 0


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_output_write_error_exits_2(run_cli):
    """A write that fails on ``--output`` is an input error, not a closed
    reader."""
    code, out, err = run_cli(
        ["normalize", "--preset", "paper-3", "--output", "/dev/full"]
    )
    assert (code, out) == (2, "")
    assert "No space left on device" in err
