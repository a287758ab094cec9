"""The CLI exit-code contract on malformed input: 2 and an ``error:`` line."""

import json

import pytest

from metadice.hierarchy import family_to_json, generate
from metadice.loshu import preset_stack

PAPER1 = family_to_json(generate(preset_stack("paper-1")))


def paper1_with(**changes):
    """The paper-1 document with top-level fields or the first entry changed."""
    doc = json.loads(json.dumps(PAPER1))
    if "first" in changes:
        doc["dice"][0] = changes.pop("first")
    doc.update(changes)
    return doc


def first_entry(**changes):
    return dict(PAPER1["dice"][0], **changes)


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
