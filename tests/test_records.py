"""The record classes: value semantics, what a CLI process imports, and
the code-line counter."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import metadice.cli  # noqa: F401  (registers the layer modules it binds)
import code_lines
from conftest import run_probed
from mutants import MUTANTS
from metadice.dice import Die, DuelResult
from metadice.export import DominanceGraph, Edge
from metadice.hierarchy import DiceFamily, PairFailure
from metadice.loshu import (
    SORTED_ROWS,
    SWAPPED_ROWS,
    AssignmentStack,
    DigitAssignment,
    LevelRule,
    Value,
    words,
)
from metadice.sweep import LevelSummary, VerificationReport, pack

SRC = Path(__file__).resolve().parent.parent / "src"
FACES = (("2", "4", "9"), ("1", "6", "8"), ("3", "5", "7"))
WIN = DuelResult(Fraction(5, 9), Fraction(0), Fraction(4, 9))
#: D1 loses 4/9 to D2 at level 1 of a depth-1 family.
RECORD = pack(0, 1, 1, 4, 0, 1)


def _report(**changes):
    fields = dict(
        depth=1,
        multiplicity=2,
        records=(RECORD,),
        elapsed=0.0,
        certificate_detail=None,
        pairs_scanned=0,
    )
    fields.update(changes)
    return VerificationReport(**fields)


#: name -> (build an instance, build one that differs in a field, a field)
RECORDS = {
    "Die": (
        lambda: Die((((2,), 2), ((4,), 2), ((9,), 2))),
        lambda: Die((((2,), 2), ((4,), 2), ((8,), 2))),
        "faces",
    ),
    "DuelResult": (
        lambda: DuelResult(Fraction(5, 9), Fraction(0), Fraction(4, 9)),
        lambda: DuelResult(Fraction(4, 9), Fraction(0), Fraction(5, 9)),
        "win",
    ),
    "DigitAssignment": (
        lambda: DigitAssignment(((2, 4, 9), (1, 6, 8), (3, 5, 7))),
        lambda: DigitAssignment(((2, 9, 4), (1, 8, 6), (3, 7, 5))),
        "subsets",
    ),
    "LevelRule": (
        lambda: LevelRule(SWAPPED_ROWS, rotate_by=2),
        lambda: LevelRule(SWAPPED_ROWS),
        "rotate_by",
    ),
    "AssignmentStack": (
        lambda: AssignmentStack((LevelRule(SORTED_ROWS), LevelRule(SORTED_ROWS))),
        lambda: AssignmentStack((LevelRule(SORTED_ROWS),)),
        "levels",
    ),
    "DiceFamily": (
        lambda: DiceFamily(1, 2, FACES, stack=None),
        lambda: DiceFamily(1, 1, FACES),
        "multiplicity",
    ),
    "PairFailure": (
        lambda: PairFailure((0,), (1,), (0,), WIN),
        lambda: PairFailure((0,), (2,), (0,), WIN),
        "word_b",
    ),
    "LevelSummary": (
        lambda: LevelSummary(1, 27, 0),
        lambda: LevelSummary(1, 27, 1),
        "failures",
    ),
    "VerificationReport": (
        _report,
        lambda: _report(certificate_detail="level 1"),
        "certificate_detail",
    ),
    "DominanceGraph": (
        lambda: DominanceGraph(1, 1, False, ((0,), (1,)), (Edge((0,), (1,), WIN.win),)),
        lambda: DominanceGraph(1, 1, True, ((0,), (1,)), ()),
        "full",
    ),
}

_ASSIGNMENT = "DigitAssignment(subsets=((2, 4, 9), (1, 6, 8), (3, 5, 7)))"
_WIN = "DuelResult(win=Fraction(5, 9), tie=Fraction(0, 1), loss=Fraction(4, 9))"
_FAILURE = (
    f"PairFailure(word_a=(0,), word_b=(1,), expected_winner=(0,), observed={_WIN})"
)
#: name -> repr of RECORDS[name]'s first instance
REPRS = {
    "Die": "Die(faces=(((2,), 2), ((4,), 2), ((9,), 2)))",
    "DuelResult": _WIN,
    "DigitAssignment": _ASSIGNMENT,
    "LevelRule": (
        "LevelRule(base=DigitAssignment(subsets=((2, 9, 4), (1, 8, 6), (3, 7, 5))),"
        " rotate_by=2)"
    ),
    "AssignmentStack": (
        f"AssignmentStack(levels=(LevelRule(base={_ASSIGNMENT}, rotate_by=None),"
        f" LevelRule(base={_ASSIGNMENT}, rotate_by=None)))"
    ),
    "DiceFamily": (
        "DiceFamily(depth=1, multiplicity=2, rank_faces=(('2', '4', '9'),"
        " ('1', '6', '8'), ('3', '5', '7')), stack=None)"
    ),
    "PairFailure": _FAILURE,
    "LevelSummary": "LevelSummary(level=1, pairs=27, failures=0)",
    "VerificationReport": (
        f"VerificationReport(depth=1, multiplicity=2, records=({RECORD},),"
        " elapsed=0.0, certificate_detail=None, pairs_scanned=0)"
    ),
    "DominanceGraph": (
        "DominanceGraph(depth=1, level=1, full=False, nodes=((0,), (1,)),"
        " edges=(Edge(source=(0,), target=(1,), probability=Fraction(5, 9)),))"
    ),
}
PROTOCOL = {"__eq__", "__hash__", "__setattr__", "__delattr__", "__repr__"}
#: the RECORDS that are not NamedTuples, which are tuples by design
VALUES = sorted(name for name in RECORDS if not isinstance(RECORDS[name][0](), tuple))


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_names_every_field(name):
    assert repr(RECORDS[name][0]()) == REPRS[name]


@pytest.mark.parametrize("name", VALUES)
def test_value_is_not_the_tuple_of_its_fields(name):
    record = RECORDS[name][0]()
    fields = tuple(vars(record).values())  # a fresh value holds only its fields
    assert fields and record != fields and not record == fields


def test_every_value_class_shares_the_one_protocol():
    classes = {
        obj
        for name, module in list(sys.modules.items())
        if name.startswith("metadice.")
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == name
    }
    values = [
        cls
        for cls in classes
        if not issubclass(cls, BaseException)
        and not (issubclass(cls, tuple) and hasattr(cls, "_fields"))
    ]
    assert {Value, Die, DiceFamily} <= set(values)
    for cls in values:
        assert issubclass(cls, Value) and "_fields" in vars(cls), cls


def test_only_value_defines_the_protocol_in_source():
    defining = set()
    for path in sorted((SRC / "metadice").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            names = set()
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.add(stmt.name)
                elif isinstance(stmt, ast.Assign):
                    names.update(t.id for t in stmt.targets if isinstance(t, ast.Name))
            if PROTOCOL & names:
                defining.add(f"{path.name}:{node.name}")
    assert defining == {"loshu.py:Value"}


#: The package's modules, layer by layer from the bottom: what a module
#: imports as it loads lies in a lower layer, so a command compiles the
#: layers it runs and those below them. Modules of one layer import none of
#: each other; an import inside a function runs only when it is called.
LAYERS = (
    {"__init__"},
    {"sweep"},
    {"loshu"},
    {"dice", "hierarchy"},
    {"certificate", "export"},
    {"cli"},
    {"__main__"},
)


def _load_time_imports(body):
    """The import statements of ``body`` that run when its module loads:
    those outside functions and outside ``if TYPE_CHECKING:``."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            yield from _load_time_imports(node.orelse)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _load_time_imports(getattr(node, field, ()))


def _package_modules(node):
    """The ``metadice`` modules an import statement loads; a name taken
    from the package itself is the package's ``__init__``."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif node.module == "metadice":
        names = [f"metadice.{alias.name}" for alias in node.names]
    else:
        names = [node.module]
    for name in names:
        package, _, module = name.partition(".")
        if package == "metadice":
            yield module.partition(".")[0] or "__init__"


def test_no_module_imports_its_own_or_a_higher_layer_as_it_loads():
    layer_of = {module: n for n, layer in enumerate(LAYERS) for module in layer}
    paths = sorted((SRC / "metadice").glob("*.py"))
    assert {path.stem for path in paths} == set(layer_of)
    climbs = []
    for path in paths:
        own = layer_of[path.stem]
        for node in _load_time_imports(ast.parse(path.read_text()).body):
            for module in _package_modules(node):
                if layer_of.get(module, 0) >= own:
                    climbs.append(f"{path.name}:{node.lineno} imports {module}")
    assert climbs == []


#: The failure record's layout, which only metadice.sweep reads and writes.
LAYOUT = {"PAIR_SHIFT", "OUTCOME_SHIFT", "OUTCOME_MASK", "LEVEL_MASK"}


def test_only_sweep_names_the_record_layout_in_source():
    """No module but ``sweep.py`` names a layout constant, whether it
    imports it, reads it as an attribute or binds it, or shifts an int."""
    naming = set()
    for path in sorted((SRC / "metadice").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named = node.id in LAYOUT
            elif isinstance(node, ast.Attribute):
                named = node.attr in LAYOUT
            elif isinstance(node, ast.alias):
                named = node.name in LAYOUT
            elif isinstance(node, (ast.BinOp, ast.AugAssign)):
                named = isinstance(node.op, (ast.LShift, ast.RShift))
            else:
                named = False
            if named:
                naming.add(path.name)
    assert naming == {"sweep.py"}


def test_only_loshu_words_spells_the_order_of_the_words():
    """Die order and the trits' alphabet are stated once: the literal
    ``"012"`` occurs in ``src/metadice`` only in ``loshu.words``, and
    neither ``cli`` nor ``export`` imports or reads a ``product``."""
    spelled, products = [], []
    for path in sorted((SRC / "metadice").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and node.value == "012":
                spelled.append(path.name)
            elif isinstance(node, (ast.alias, ast.Attribute)):
                name = node.name if isinstance(node, ast.alias) else node.attr
                if name == "product" and path.name in ("cli.py", "export.py"):
                    products.append(f"{path.name}:{node.lineno}")
    assert spelled == ["loshu.py"] and "012" in words.__code__.co_consts
    assert products == []


#: Seven code lines: the class and def lines, the string statement after
#: the method's docstring, and the four lines of the call; the three
#: docstrings, the comment and the blank lines hold none.
SNIPPET = '''"""A module docstring."""

# a comment line


class Record:
    """A class docstring."""

    def method(self):
        """A function docstring
        over two lines."""
        "a string statement that is not a docstring"
        return print(
            "a multi-line call",
            self,
        )
'''


def test_code_lines_counts_the_lines_that_hold_code():
    assert code_lines.code_lines(SNIPPET) == 7
    assert code_lines.code_lines("") == 0


def test_code_lines_prints_a_row_per_module_and_a_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main(tmp_path) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "7"], ["b.py", "2"], ["total", "9"]]


def test_each_mutant_text_occurs_once_in_its_module():
    """Each mutant of ``tests/mutants.py`` names a text that occurs exactly
    once in ``src/metadice``, in the module it names, so a change that
    moves or copies the text must update the table."""
    sources = {path.name: path.read_text() for path in (SRC / "metadice").glob("*.py")}
    assert len({mutant.name for mutant in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        found = {
            name: text.count(mutant.text)
            for name, text in sources.items()
            if mutant.text in text
        }
        assert found == {mutant.file: 1}, mutant.name


def _runs_at_load(node):
    """``node`` and the nodes beneath it that run when their module loads:
    all but the body of a function or a lambda, which runs when it is
    called. Decorators and default values run where it is defined."""
    yield node
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        children = [
            *getattr(node, "decorator_list", ()),
            *args.defaults,
            *filter(None, args.kw_defaults),
        ]
    else:
        children = ast.iter_child_nodes(node)
    for child in children:
        yield from _runs_at_load(child)


def _load_time_compiles(source: str) -> list[int]:
    """The lines of ``source`` whose ``re.compile`` runs as it loads."""
    return [
        node.lineno
        for node in _runs_at_load(ast.parse(source))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "re.compile"
    ]


def test_no_module_compiles_a_pattern_as_it_loads():
    """A pattern is compiled in the function that matches it, so a command
    that never parses a stack file, a die or a team compiles no pattern."""
    sample = (
        "import re\n"
        "TOKEN = re.compile('a')\n"
        "class Parser:\n"
        "    LINE = re.compile('b')\n"
        "    def parse(self, text, line=re.compile('c')):\n"
        "        return re.compile('d').match(text)\n"
        "match = lambda text: re.compile('e').match(text)\n"
    )
    assert _load_time_compiles(sample) == [2, 4, 5]
    compiling = [
        f"{path.name}:{line}"
        for path in sorted((SRC / "metadice").glob("*.py"))
        for line in _load_time_compiles(path.read_text())
    ]
    assert compiling == []


def test_the_module_map_names_what_each_module_holds():
    """Each bullet of the package docstring starts with a module's name,
    and every other name it quotes is an attribute of that module; the
    bullets cover every module but the package and ``__main__``."""
    import metadice

    mapped, missing = set(), []
    for bullet in metadice.__doc__.split("\n- ")[1:]:
        module, *names = re.findall(r"``(\w+)``", bullet)
        assert bullet.startswith(f"``{module}``")
        mapped.add(module)
        held = importlib.import_module(f"metadice.{module}")
        missing += [f"{module}.{name}" for name in names if not hasattr(held, name)]
    assert missing == []
    modules = {path.stem for path in (SRC / "metadice").glob("*.py")}
    assert mapped == modules - {"__init__", "__main__"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_equality_and_hashing_follow_the_fields(name):
    make, make_other, _ = RECORDS[name]
    a, b, other = make(), make(), make_other()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other and not a == other
    assert len({a, b, other}) == 2


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_are_read_only(name):
    make, make_other, field = RECORDS[name]
    record = make()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(make_other(), field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == before


def test_keyword_and_default_construction():
    rule = LevelRule(SORTED_ROWS, rotate_by=2)
    assert (rule.base, rule.rotate_by) == (SORTED_ROWS, 2)
    assert LevelRule(SORTED_ROWS).rotate_by is None
    assert LevelRule(base=SORTED_ROWS) == LevelRule(SORTED_ROWS, None)

    family = DiceFamily(1, 2, FACES, stack=None)
    assert (family.depth, family.multiplicity, family.rank_faces) == (1, 2, FACES)
    assert family.stack is None
    assert DiceFamily(
        depth=1, multiplicity=2, rank_faces=FACES
    ) == DiceFamily(1, 2, FACES, None)


def test_derived_values_are_computed_once():
    rule = LevelRule(SWAPPED_ROWS, rotate_by=2)
    assert rule.tables is rule.tables
    assert rule.tables[0] == SWAPPED_ROWS
    family = DiceFamily(1, 2, FACES)
    assert family.words is family.words
    assert family.words == ((0,), (1,), (2,))


def test_report_decodes_its_records_on_each_read():
    report = _report()
    lost = DuelResult(Fraction(4, 9), Fraction(0), Fraction(5, 9))
    assert report.failures == (PairFailure((0,), (1,), (0,), lost),)
    assert not report.passed and _report(records=()).passed


def test_report_derives_what_follows_from_its_fields():
    """A report stores only what the level walk found: its counts, the
    per-level summary and the method are read from those fields, never
    given, so no report can contradict itself."""
    assert VerificationReport._fields == (
        "depth",
        "multiplicity",
        "records",
        "elapsed",
        "certificate_detail",
        "pairs_scanned",
    )
    for derived, value in (
        ("dice_count", 3),
        ("pairs_checked", 3),
        ("per_level", (LevelSummary(1, 3, 1),)),
        ("method", "certificate"),
    ):
        with pytest.raises(TypeError, match=derived):
            _report(**{derived: value})
    fields = ((0, 4, 1, 4, 0), (3, 4, 2, 5, 1))
    report = _report(depth=2, records=tuple(pack(*f, 2) for f in fields))
    assert (report.dice_count, report.pairs_checked) == (9, 36)
    assert report.per_level == (LevelSummary(1, 27, 1), LevelSummary(2, 9, 1))
    assert report.method == "certificate"
    assert _report(certificate_detail="level 1").method == "localized"


#: Standard modules a CLI process does without: ``fractions`` loads
#: ``decimal`` and ``numbers``, and only an exact duel builds a ``Fraction``;
#: only ``simulate`` draws from ``random``, and a source file is read with
#: ``open``, not ``pathlib``.
SKIPPED = (
    "dataclasses",
    "inspect",
    "fractions",
    "decimal",
    "numbers",
    "pathlib",
    "random",
)


def test_cli_import_skips_dataclasses_and_inspect():
    # every CLI command pays its imports again (ROADMAP: "Start-up is now ...")
    code = (
        "import metadice.cli, sys, types;"
        "print(*sorted(m for m in sys.modules"
        f" if m in {SKIPPED!r} or m.startswith('metadice.')));"
        "lazy = [sys.modules[f'metadice.{m}'] for m in ('export', 'hierarchy')];"
        "print(*(type(m) is types.ModuleType for m in lazy));"
        "[m.__name__ for m in lazy];"
        "print(*(type(m) is types.ModuleType for m in lazy))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    loaded, lazy_loaded, lazy_loaded_once_read = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    out = loaded.split()
    assert not set(SKIPPED) & set(out)
    for layer in ("loshu", "sweep", "hierarchy", "export"):
        assert f"metadice.{layer}" in out
    # export and hierarchy are registered but are lazy modules whose code has
    # not run; each runs when one of its attributes is first read (reading
    # any would)
    assert (lazy_loaded, lazy_loaded_once_read) == ("False False", "True True")
    # only the commands that duel given dice load the duel engine, and only
    # a command that checks a family's dice loads the certificate
    assert "metadice.dice" not in out
    assert "metadice.certificate" not in out


#: The files of ``metadice`` that every ``python -m metadice`` compiles: the
#: package, the front end and the stack layer.
COMPILED_BY_EVERY_COMMAND = {
    "__init__.py",
    "__main__.py",
    "cli.py",
    "loshu.py",
    "sweep.py",
}
#: The family layer and its certificate, compiled to check a family's dice.
CHECKED = {"hierarchy.py", "certificate.py"}


@pytest.mark.parametrize(
    "argv, runs",
    [
        (["verify", "--stack", "STACK"], set()),
        (["verify", "--family", "FAMILY"], CHECKED),
        (["verify", "--stdin"], CHECKED),
        (["generate", "--preset", "uniform", "--depth", "3"], set()),
        (["generate", "--stack", "STACK"], set()),
        (["generate", "--family", "FAMILY"], {"hierarchy.py"}),
        (["tables", "--depth", "2"], set()),
        (["prob", "2,4,9", "1,6,8"], {"dice.py"}),
        (["roundrobin", "4,9,2", "3,5,7"], {"dice.py"}),
        (["simulate", "2,4,9", "1,6,8", "--trials", "9"], {"dice.py"}),
        (["graph", "--stack", "STACK", "--full-graph"], {"export.py"}),
        (["graph", "--family", "FAMILY", "--full-graph"], {"export.py"} | CHECKED),
        (["normalize", "--preset", "uniform", "--depth", "3"], {"export.py"}),
        (["normalize", "--stack", "STACK"], {"export.py"}),
    ],
    ids=[
        "verify-stack",
        "verify-family",
        "verify-stdin",
        "generate",
        "generate-stack",
        "generate-family",
        "tables",
        "prob",
        "roundrobin",
        "simulate",
        "graph-stack",
        "graph-family",
        "normalize",
        "normalize-stack",
    ],
)
def test_a_command_compiles_only_what_it_runs(tmp_path, argv, runs):
    """Each command is a fresh ``python -m metadice`` with no bytecode to
    read or write, so the process compiles every source file it imports,
    and the probe sees each compile: a stack's commands compile the stack
    layer alone, ``graph`` and ``normalize`` add ``export.py``, a family's
    source adds ``hierarchy.py``, and only the duels of given dice
    compile ``dice.py``."""
    stack = tmp_path / "stack.txt"
    stack.write_text("2,4,9;1,6,8;3,5,7\n" * 2)
    family = tmp_path / "family.json"
    dice = [{"word": [n], "faces": list(faces)} for n, faces in enumerate(FACES)]
    family.write_text(json.dumps({"depth": 1, "dice": dice}))
    sources = {"STACK": str(stack), "FAMILY": str(family)}
    listing = "".join(f"D{n} {' '.join(faces)}\n" for n, faces in enumerate(FACES, 1))
    cache = tmp_path / "pycache"
    cache.mkdir()
    proc, probe = run_probed(
        ["-m", "metadice", *(sources.get(arg, arg) for arg in argv)],
        tmp_path / "probe",
        stdin=listing.encode(),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONPYCACHEPREFIX=str(cache),
    )
    assert proc.returncode == 0, proc.stderr
    package = SRC / "metadice"
    compiled = {Path(f).name for f in probe["compiled"] if Path(f).parent == package}
    assert compiled == COMPILED_BY_EVERY_COMMAND | runs
    assert not any(cache.iterdir())


def test_only_exact_duels_load_fractions(tmp_path):
    """Each command runs in one process, in turn, and the process says
    whether ``fractions`` is loaded after it: only ``prob``, which runs
    last, builds a ``Fraction``."""
    stack = tmp_path / "stack.txt"
    stack.write_text("2,4,9;1,6,8;3,5,7\n" * 3)
    altered = tmp_path / "altered.json"
    dice = [{"word": [n], "faces": list(faces)} for n, faces in enumerate(FACES)]
    dice[0]["faces"][0] = "1"  # D1 ties D2 on its lowest face
    altered.write_text(json.dumps({"depth": 1, "dice": dice}))
    runs = [
        (["verify", "--stack", str(stack), "--format", "json"], 0),
        (["verify", "--family", str(altered)], 1),
        (["verify", "--family", str(altered), "--format", "json"], 1),
        (["generate", "--preset", "uniform", "--depth", "3"], 0),
        (["normalize", "--preset", "uniform", "--depth", "3"], 0),
        (["graph", "--family", str(altered), "--full-graph"], 0),
        (["graph", "--preset", "paper-2", "--level", "2", "--format", "json"], 0),
        (["tables", "--depth", "3"], 0),
        (["prob", "2x2,4x2,9x2", "1x2,6x2,8x2"], 0),
    ]
    code = (
        "import sys\n"
        "from metadice.cli import main\n"
        f"for n, argv in enumerate({[argv for argv, _ in runs]!r}):\n"
        "    code = main([*argv, '--output', f'{sys.argv[1]}/{n}.out'])\n"
        "    print(code, 'fractions' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    assert out == [f"{exit_code} {argv[0] == 'prob'}" for argv, exit_code in runs]


def test_a_stacks_graph_loads_no_certificate(tmp_path):
    """``graph`` of a stack or a preset draws its graph from the depth, so
    the process never loads the certificate; ``graph --family``, which
    checks the family's pairs, does."""
    stack = tmp_path / "stack.txt"
    stack.write_text("2,4,9;1,6,8;3,5,7\n" * 3)
    family = tmp_path / "family.json"
    dice = [{"word": [n], "faces": list(faces)} for n, faces in enumerate(FACES)]
    family.write_text(json.dumps({"depth": 1, "dice": dice}))
    runs = [
        ["graph", "--stack", str(stack), "--full-graph"],
        ["graph", "--stack", str(stack), "--level", "2", "--format", "json"],
        ["graph", "--preset", "uniform", "--depth", "4", "--full-graph"],
        ["graph", "--family", str(family), "--full-graph"],
    ]
    code = (
        "import sys\n"
        "from metadice.cli import main\n"
        f"for n, argv in enumerate({runs!r}):\n"
        "    code = main([*argv, '--output', f'{sys.argv[1]}/{n}.out'])\n"
        "    print(code, 'metadice.certificate' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    assert out == ["0 False", "0 False", "0 False", "0 True"]


def test_package_root_imports_no_module():
    """Every name is imported from its module: ``import metadice`` loads no
    ``metadice.`` module, and ``python -m metadice`` still runs."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "import metadice, sys;"
        "print(*sorted(m for m in sys.modules if m.startswith('metadice.')))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "\n"
    help_run = subprocess.run(
        [sys.executable, "-S", "-m", "metadice", "--help"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert help_run.returncode == 0 and help_run.stdout.startswith("usage: metadice")
