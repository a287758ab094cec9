"""Self-tests of the benchmark: generator, oracles and a smoke pass.

Run from the repository root with ``python -m pytest bench``.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from metadice.cli import main as cli_main  # noqa: E402

NAMES = list(workloads.WORKLOADS)


def contents(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def outputs(workload, workdir, monkeypatch):
    """Run every invocation of one pass in process, in the workload's dir."""
    monkeypatch.chdir(workdir)
    results = []
    for inv in workload.invocations:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(list(inv.argv))
        results.append((inv, code, out.getvalue().encode()))
    return results


@pytest.mark.parametrize("name", NAMES)
def test_generator_is_deterministic_for_a_seed(tmp_path, name):
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    first = workloads.build(name, 7, dirs[0], workloads.SMOKE)
    again = workloads.build(name, 7, dirs[1], workloads.SMOKE)
    workloads.build(name, 8, dirs[2], workloads.SMOKE)
    assert contents(dirs[0]) == contents(dirs[1])
    assert [i.argv for i in first.invocations] == [i.argv for i in again.invocations]
    assert contents(dirs[0]) != contents(dirs[2])


@pytest.mark.parametrize("name", NAMES)
def test_oracles_accept_the_cli_outputs(tmp_path, monkeypatch, name):
    workload = workloads.build(name, 3, tmp_path, workloads.SMOKE)
    for inv, code, stdout in outputs(workload, tmp_path, monkeypatch):
        assert code == inv.exit_code, inv.label
        assert inv.check(stdout) is None, inv.label


def _edit_json(stdout: bytes, edit) -> bytes:
    doc = json.loads(stdout)
    edit(doc)
    return (json.dumps(doc, indent=2) + "\n").encode()


def test_verify_oracle_rejects_a_wrong_verdict(tmp_path, monkeypatch):
    workload = workloads.build("verify-deep", 3, tmp_path, workloads.SMOKE)
    inv, _, stdout = outputs(workload, tmp_path, monkeypatch)[-1]
    for edit in (
        lambda d: d.update(passed=False),
        lambda d: d.update(pairs_checked=d["pairs_checked"] - 1),
        lambda d: d["per_level"][0].update(failures=1),
    ):
        assert inv.check(_edit_json(stdout, edit)) is not None


def other_word(failure: dict) -> list[int]:
    """The word of a failing pair that is not its expected winner."""
    a, b = failure["word_a"], failure["word_b"]
    return b if failure["expected_winner"] == a else a


def test_verify_oracle_rejects_a_wrong_failure_set(tmp_path, monkeypatch):
    workload = workloads.build("verify-tampered", 3, tmp_path, workloads.SMOKE)
    inv, _, stdout = max(
        outputs(workload, tmp_path, monkeypatch),
        key=lambda r: len(json.loads(r[2])["failures"]),
    )
    bogus = {
        "word_a": [0, 0, 0],
        "word_b": [0, 0, 1],
        "expected_winner": [0, 0, 0],
        "observed": {"win": "4/9", "tie": "0", "loss": "5/9"},
    }
    for edit in (
        lambda d: d["failures"].pop(),
        lambda d: d["failures"].append(bogus),
        lambda d: d["failures"][0]["observed"].update(win="5/9"),
        lambda d: d["failures"][0].update(expected_winner=other_word(d["failures"][0])),
        lambda d: d.update(passed=True),
    ):
        assert inv.check(_edit_json(stdout, edit)) is not None


def test_export_oracles_reject_wrong_faces_and_edges(tmp_path, monkeypatch):
    workload = workloads.build("export", 3, tmp_path, workloads.SMOKE)
    (gen, _, doc), (norm, _, table), (graph, _, dot) = outputs(
        workload, tmp_path, monkeypatch
    )

    def bump_face(d):
        face = d["dice"][4]["faces"][1]
        d["dice"][4]["faces"][1] = face[:-1] + str(int(face[-1]) % 9 + 1)

    assert gen.check(_edit_json(doc, bump_face)) is not None
    assert norm.check(table.replace(b"0.", b"0.1", 1)) is not None
    lines = dot.decode().splitlines()
    edge = next(i for i, line in enumerate(lines) if "->" in line)
    src, rest = lines[edge].split(" -> ")
    for wrong in (
        f'{rest.split(" [")[0]} -> {src.strip()} [label="5/9"];',
        lines[edge].replace("5/9", "4/9"),
    ):
        bad = lines[:edge] + ["  " + wrong.strip()] + lines[edge + 1:]
        assert graph.check(("\n".join(bad) + "\n").encode()) is not None
    dropped = lines[:edge] + lines[edge + 1:]
    assert graph.check(("\n".join(dropped) + "\n").encode()) is not None


def test_tail_leaves_ten_samples_beyond_it():
    assert run.tail([float(v) for v in range(1, 31)]) == (20.0, pytest.approx(200 / 3))
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_pass_reports_every_metric(capsys, name, trace):
    argv = ["--workload", name, "--seed", "5", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, smoke=True) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["workloads"] == [{"name": n, "why": workloads.WHY[n]} for n in NAMES]
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
