"""The CLI exit-code contract: 2 and an ``error:`` line on malformed input,
and on any input an exit code in {0, 1, 2}, no traceback, repeatable stdout.
Also the JSON writer's byte identity with ``json.dumps(indent=2)``."""

import inspect
import json
import re
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import run_cli_main
from metadice.cli import _json_text
from metadice.hierarchy import family_to_json, generate
from metadice.loshu import preset_stack

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
    "entries out of order": entries_swapped(),
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
}


@pytest.mark.parametrize("case", DEPTH_REFUSALS.values(), ids=DEPTH_REFUSALS.keys())
def test_depth_refused_for_every_source(run_cli, tmp_path, case):
    argv, stdin, phrase = case
    files = {
        "stack": "2,4,9;1,6,8;3,5,7\n",
        "family": json.dumps(PAPER1),
        "deep_stack": "2,4,9;1,6,8;3,5,7\n" * 9,
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [arg.format(**{name: str(tmp_path / name) for name in files}) for arg in argv]
    code, out, err = run_cli(argv, stdin)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and phrase in err


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


#: Strings that need escapes: quotes, backslashes, control characters and
#: text outside ASCII, down to a character outside the basic plane.
escaped_text = st.text(
    alphabet=st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f a9\u00e9\u2603\U0001f600')
)
json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(), escaped_text
)
json_documents = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.one_of(st.text(max_size=4), escaped_text), inner, max_size=4),
        # the lists the writer joins in one call, and near misses of them
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=5),
        st.lists(st.one_of(st.text(max_size=4), escaped_text), max_size=5),
        st.lists(st.one_of(st.integers(), st.floats(), st.none()), max_size=5),
    ),
    max_leaves=24,
)


@given(json_documents)
@example({"word": [0, True, 2], "paper_number": 2, "faces": ["249", "\u0662\"\\"]})
@example([[], {}, [1, False], [1.5, 2], ["a", None], {"": -0.0}])
def test_json_text_is_indented_dumps(doc):
    """The CLI's JSON writer prints exactly what ``json.dumps(indent=2)``
    prints, including booleans inside a list of ints."""
    assert _json_text(doc) == json.dumps(doc, indent=2) + "\n"
