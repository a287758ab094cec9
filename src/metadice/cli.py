"""Command-line front end.

Exit codes are a stable contract: 0 for success (verification passed),
1 for a verification failure, 2 for usage, parse or input errors. A reader
that closes stdout early, as ``head`` does, changes no exit code. Machine
readable outputs (json, csv, dot) carry no timing, so byte-identical inputs
give byte-identical outputs; timing appears only in the human text report.

Each command has one writer per format. Every JSON text is
``json.dumps(doc, indent=2)`` of its record document plus a line break:
families, reports, points and graphs are written from their rows with one
f-string per die, point, failure or node, a graph's 5/9 edges a run at a
time as one join, and the small documents by ``json.dumps`` itself. A
writer is a generator of text pieces: one per die of a family, its listing
line, its document entry or its three CSV rows; one per point of its JSON
points; one per failure of a report; one per node of a graph and one per
run of up to 9 of its edges. :func:`_emit` joins and writes them
``_BATCH`` at a time: a command never holds its whole output.
``generate``, ``normalize`` and ``tables`` write a stack's dice as
:func:`~metadice.loshu.walk_dice` yields them, so they hold one block
of 729 dice, not the family. ``graph`` draws a stack's graph from its
depth and reads no die; it holds a loaded family whole.
``verify`` drops the family once it has been checked and writes its
report holding one ``int`` per failing pair, the :mod:`metadice.sweep`
record, which only that module decodes: the writers read each failure's
dice, winner and outcome from :func:`~metadice.sweep.failure_rows`.
Nothing is written before the source has loaded, so a command that exits
2 writes nothing.

A command's process compiles only the layers it runs. Every command
compiles the package, :mod:`metadice.__main__`, this module and the stack
layer, :mod:`metadice.loshu` and :mod:`metadice.sweep`, and that is all
that ``verify``, ``generate`` and ``tables`` of a stack compile.
``graph`` and ``normalize`` add :mod:`metadice.export`. A family document
or listing adds the family layer, :mod:`metadice.hierarchy`, and checking
its dice, as ``verify`` and ``graph --full-graph`` do, adds
:mod:`metadice.certificate`. ``prob`` and ``roundrobin`` add the duel
engine, :mod:`metadice.dice`, and ``simulate`` adds it and
:mod:`metadice.hierarchy`. ``export`` and ``hierarchy`` are bound lazily,
with :class:`importlib.util.LazyLoader`, and compiled when a command first
reads one of their names once the source has loaded; ``dice`` is imported
by the three commands that run it, and ``certificate`` by
:func:`~metadice.hierarchy.verify_family`. ``python -m metadice`` and
the installed script run :func:`main` through :mod:`metadice.__main__`,
which freezes the collector once the command has written its output, so
the interpreter's shutdown collections walk none of the objects left.
:func:`main` itself leaves nothing frozen, because tests and library
callers run it in process.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import re
import sys
from contextlib import contextmanager, nullcontext
from itertools import islice, product
from typing import Iterable, Iterator, Sequence

from metadice.loshu import NINTHS, AssignmentStack, family_header, is_digit_string
from metadice.loshu import parse_stack, preset_stack, verify_stack, walk_dice
from metadice.sweep import VerificationReport, failure_rows, joined, outcome_counts


def _lazy_import(name: str):
    """The module ``name``, compiled and run when one of its attributes is
    first read: :class:`importlib.util.LazyLoader`'s recipe, registered in
    ``sys.modules`` and bound on its package, as the import system does."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        package, _, child = name.rpartition(".")
        setattr(sys.modules[package], child, module)
    return module


# Only graph and normalize read export, and only a family's source or
# simulate reads hierarchy. Lazy rather than imported inside the commands,
# because bench/traced_cli.py reads sys.modules["metadice.export"] and
# sys.modules["metadice.hierarchy"] right after ``import metadice.cli``;
# once ROADMAP item 1's rewrite of bench/ drops that, these can be plain
# imports where they are read.
export = _lazy_import("metadice.export")
hierarchy = _lazy_import("metadice.hierarchy")

#: Depth accepted without --allow-large. It guards the dice path: the
#: memory of a loaded family's 3^k dice, the failure records held in memory
#: (one int each, some 40 bytes; their text is streamed, not held), and the
#: scan of every pair that first differs at level 1 when a family's level-1
#: table fails (14,348,907 pairs at depth 8). ``verify`` and ``graph`` of a
#: stack read no die, and ``generate`` and ``normalize`` of a stack hold one
#: block of its dice, but all keep the ceiling: the time and the output
#: still grow as 3^k, and exit codes do not depend on the command.
DEPTH_CEILING = 8

#: Cycle position to display color, fixed as 0=red, 1=blue, 2=green.
SUBSET_COLORS = ("red", "blue", "green")

PRESET_CHOICES = ("paper-1", "paper-2", "paper-3", "uniform")


def main(argv=None) -> int:
    # The parser's subparsers and groups refer to one another, so only the
    # collector frees them: some 80 KB, which the command then reuses to
    # load its source. Frozen, the objects made before the parser are not
    # walked, so the collection takes 0.1 ms, not 1 ms.
    gc.freeze()
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    finally:
        gc.collect()
        gc.unfreeze()
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # every metadice error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metadice",
        description=(
            "Construct, verify and export self-similar nontransitive dice"
            " families built from the Lo Shu magic square."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "tables", help="print a built-in reference family as a plain listing"
    )
    p.add_argument("--depth", type=int, choices=(1, 2, 3), required=True)
    _add_output(p, cmd_tables)

    p = sub.add_parser("generate", help="generate a family from a preset or stack")
    _add_family_source(p)
    _add_output(p, cmd_generate, "json", "text")

    p = sub.add_parser(
        "verify",
        help=(
            "prove every pair duels at exactly 5/9 the right way: a validated"
            " stack from its depth without reading a die, a family from its"
            " node tables and by checking the pairs they cannot vouch for"
        ),
    )
    _add_family_source(p, stdin=True)
    _add_output(p, cmd_verify, "text", "json")

    p = sub.add_parser("prob", help="exact duel probabilities of two dice")
    p.add_argument("die_a", help="die text, e.g. 2,4,9 or 222x2,489x2,954x2")
    p.add_argument("die_b")
    _add_output(p, cmd_prob, "text", "json")

    p = sub.add_parser(
        "roundrobin", help="deterministic all-pairs play of two strength teams"
    )
    p.add_argument("team_a", help="comma-separated integers, e.g. 4,9,2")
    p.add_argument("team_b")
    _add_output(p, cmd_roundrobin, "text", "json")

    p = sub.add_parser(
        "graph", help="export a dominance graph; a stack's is drawn from its depth"
    )
    _add_family_source(p)
    scope = p.add_mutually_exclusive_group()
    scope.add_argument("--level", type=int, help="prefix level (default 1)")
    scope.add_argument(
        "--full-graph",
        action="store_true",
        help="one edge per die pair instead of the sibling cycles",
    )
    _add_output(p, cmd_graph, "dot", "json")

    p = sub.add_parser(
        "normalize", help="emit all face values normalized into (0, 1)"
    )
    _add_family_source(p)
    _add_output(p, cmd_normalize, "csv", "json")

    p = sub.add_parser(
        "simulate", help="seeded Monte Carlo cross-check of a duel"
    )
    p.add_argument("die_a")
    p.add_argument("die_b")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    _add_output(p, cmd_simulate, "text", "json")

    return parser


def _add_output(p: argparse.ArgumentParser, func, *formats: str) -> None:
    """The command's --format, whose first choice is its default, its
    --output, and the function that runs it."""
    if formats:
        p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--output", metavar="PATH", help="write here instead of stdout")
    p.set_defaults(func=func)


def _add_family_source(p: argparse.ArgumentParser, *, stdin: bool = False) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=PRESET_CHOICES)
    source.add_argument("--stack", metavar="FILE", help="assignment stack file")
    source.add_argument("--family", metavar="FILE", help="family JSON document")
    if stdin:
        source.add_argument(
            "--stdin",
            action="store_true",
            help="read a plain listing (as printed by tables/generate)",
        )
    p.add_argument("--depth", type=int)
    p.add_argument("--multiplicity", type=int)
    p.add_argument(
        "--allow-large",
        action="store_true",
        help=f"lift the default depth ceiling of {DEPTH_CEILING}",
    )


def _check_depth(depth: int, allow_large: bool) -> None:
    if depth > DEPTH_CEILING and not allow_large:
        raise ValueError(
            f"depth {depth} exceeds the default ceiling of {DEPTH_CEILING}"
            " (pass --allow-large to run anyway)"
        )


def _load_source(args) -> tuple[AssignmentStack | hierarchy.DiceFamily, int]:
    """The validated stack or family the arguments name, with its face
    multiplicity.

    The parser has picked exactly one source, and each reader checks its
    own input: ``parse_stack`` a stack, ``family_from_json`` a document's
    fields and word order, and ``DiceFamily`` the dice of a document
    or listing. This checks the options against the source: the depth
    ceiling, and a given --depth or --multiplicity against its own.
    """
    # 2 when unset; a family document keeps its own, which a given one must
    # match. A stack's is refused below 1 here, before a walk is written,
    # and DiceFamily refuses a listing's.
    multiplicity = 2 if args.multiplicity is None else args.multiplicity
    if args.preset is not None:
        if args.depth is not None:  # before a uniform stack of that depth is built
            _check_depth(args.depth, args.allow_large)
        source, noun = preset_stack(args.preset, args.depth), "preset"
    elif args.stack is not None:
        source, noun = parse_stack(_read(args.stack)), "stack"
    elif args.family is not None:
        try:
            doc = json.loads(_read(args.family))
        except RecursionError:
            message = "family document nests too deeply"
            raise hierarchy.FamilyFormatError(message) from None
        _check_depth(hierarchy.document_depth(doc), args.allow_large)  # before the dice
        source, noun = hierarchy.family_from_json(doc), "family"
    else:
        lines = sys.stdin.read().splitlines()
        # row 1's first face is as long as the listing is deep: refuse the
        # depth before any row is parsed
        first = next(_listing_rows(lines), None)
        if first is not None and is_digit_string(first[0]):
            _check_depth(len(first[0]), args.allow_large)
        rows = _listing_rows(lines)
        source, noun = hierarchy.family_from_rows(rows, multiplicity), "listing"
    if args.depth is not None and args.depth != source.depth:
        raise ValueError(
            f"--depth {args.depth} does not match the {noun}'s depth {source.depth}"
        )
    # a stack is checked before any of its 3^depth dice is built
    _check_depth(source.depth, args.allow_large)
    if isinstance(source, AssignmentStack):
        if multiplicity < 1:
            raise ValueError("face multiplicity must be positive")
        return source, multiplicity
    if args.multiplicity not in (None, source.multiplicity):
        raise ValueError(
            f"--multiplicity {multiplicity} does not match the {noun}'s"
            f" multiplicity {source.multiplicity}"
        )
    return source, source.multiplicity


def _read(path: str) -> str:
    """The text of the file at ``path``, as ``pathlib.Path.read_text`` reads
    it, with its errors, without loading ``pathlib``."""
    with open(path) as f:
        return f.read()


def _load_dice(args) -> tuple[int, int, AssignmentStack | None, Iterable]:
    """The depth, multiplicity, stack and dice of the source the arguments
    name: a stack's dice as its walk yields them, a family's rank faces."""
    source, multiplicity = _load_source(args)
    if isinstance(source, AssignmentStack):
        return source.depth, multiplicity, source, walk_dice(source)
    return source.depth, multiplicity, source.stack, source.rank_faces


def _listing_rows(lines: Iterable[str]) -> Iterator[list[str]]:
    """Blank and ``#`` lines aside, row k is die k's name as ``tables`` or
    ``generate`` writes it (``D<k>``, ``Die <k>``, ``Die A|B|C``), then three
    faces: yield each row's faces as it is read."""
    k = 0
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        k += 1
        tokens = line.split()
        cut = 2 if tokens[0] == "Die" else 1
        names = (f"D{k}", f"Die {k}", f"Die {'ABC'[k - 1]}" if k <= 3 else None)
        if " ".join(tokens[:cut]) not in names or len(tokens) != cut + 3:
            raise hierarchy.FamilyFormatError(
                f"listing row {k} {line!r} is not die {k}'s name and three faces"
            )
        yield tokens[cut:]


#: Pieces joined per write. A writer yields one piece per die, point,
#: failure, graph node or graph row, and a batch is held three times at its
#: peak: as pieces, joined and encoded. The largest pieces are a full
#: graph's rows, runs of up to 9 edges: ~760 bytes as JSON and ~320 as DOT
#: at depth 7, so 64 of them take ~50 KB each time. A verify report's
#: failures take ~390 bytes (a depth-8 die's family entry ~240, its three
#: CSV rows ~135 and a JSON point ~160), 64 of them ~25 KB, where 256 took
#: ~100 KB. Measured with
#: ``tracemalloc`` on a depth-6 document with five altered digits: with 256
#: pieces and the family held, writing the JSON report peaked at 991 KB,
#: above the 766 KB of loading and checking it; with 64 and the family
#: dropped, writing peaks at 567 KB. Any size writes the same bytes.
_BATCH = 64


def _emit(args, pieces: Iterable[str]) -> None:
    """Write a writer's pieces to ``--output`` or stdout, ``_BATCH`` at a
    time. Commands call it once their source has loaded, so a file is
    opened only when the command will write it.

    A reader that closes stdout early, as ``head`` does, wants no more:
    the rest goes to the null device, so neither this write nor the flush
    at exit fails, and the command keeps its exit code."""
    pieces = iter(pieces)
    target = open(args.output, "w") if args.output else nullcontext(sys.stdout)
    try:
        with target as out:
            while batch := list(islice(pieces, _BATCH)):
                out.write("".join(batch))
            out.flush()
    except BrokenPipeError:
        if args.output:
            raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def tables_text(depth: int, dice: Iterable[Sequence[str]]) -> Iterator[str]:
    """The listing of a depth-1, 2 or 3 reference family's dice, one line
    per piece, with its subsets' colors."""
    faces = map(" ".join, dice)
    if depth == 1:
        for label, row in zip("ABC", faces):
            yield f"Die {label} {row}\n"
    elif depth == 2:
        for n, row in enumerate(faces, start=1):
            if n % 3 == 1:
                yield f"# {SUBSET_COLORS[(n - 1) // 3]} dice\n"
            yield f"Die {n} {row}\n"
    else:
        for n, row in enumerate(faces, start=1):
            if n % 9 == 1:
                circle = (n - 1) // 9
                yield (
                    f"# {SUBSET_COLORS[circle]} circle:"
                    f" D{9 * circle + 1}-D{9 * circle + 9}\n"
                )
            elif n % 3 == 1:
                yield "\n"
            yield f"D{n} {row}\n"


def family_json_text(
    depth: int,
    multiplicity: int,
    stack: AssignmentStack | None,
    dice: Iterable[Sequence[str]],
) -> Iterator[str]:
    """``json.dumps(family_to_json(family), indent=2)`` plus a line break,
    byte for byte, for the family of these fields whose rank faces ``dice``
    yields in word order, one die per piece, each but the first led by its
    separator: one f-string per die over its word's trits, written once per
    family, and its faces, ASCII digits that JSON writes as they are."""
    words = (",\n        ".join(w) for w in product("012", repeat=depth))
    # the header's text ends "\n}": the dice go in before its closing brace
    head = json.dumps(family_header(depth, multiplicity, stack), indent=2)[:-2]
    yield f'{head},\n  "dice": [\n    '
    sep = ""
    for n, (word, (a, b, c)) in enumerate(zip(words, dice), 1):
        yield (
            f'{sep}{{\n      "word": [\n        {word}\n      ],\n'
            f'      "paper_number": {n},\n      "faces": [\n        "{a}",\n'
            f'        "{b}",\n        "{c}"\n      ]\n    }}'
        )
        sep = ",\n    "
    yield "\n  ]\n}\n"


def family_listing(dice: Iterable[Sequence[str]]) -> Iterator[str]:
    """One ``D<n> <faces>`` line per die of ``dice``, the rank faces in word
    order, one line per piece."""
    for n, (a, b, c) in enumerate(dice, start=1):
        yield f"D{n} {a} {b} {c}\n"


def report_text(report: VerificationReport) -> Iterator[str]:
    """The human report, one line per piece: counts, one line per failure,
    the certificate's complaint and the verdict with its time and method.

    Each failure line is ``"  " + failure.describe()``, written from the
    report's records: each die's ``D<n> (<trits>)`` label and each
    (wins, ties) outcome's text are written once.
    """
    yield (
        f"depth {report.depth}, {report.dice_count} dice,"
        f" {report.pairs_checked} pairs, {len(report.records)} failures\n"
    )
    for level in report.per_level:
        yield (
            f"level {level.level}: {level.pairs} pairs, {level.failures} failures\n"
        )
    if report.records:
        labels = [
            f"D{n} ({''.join(word)})"
            for n, word in enumerate(product("012", repeat=report.depth), 1)
        ]
        observed = {
            key: f"observed win {NINTHS[win]} tie {NINTHS[tie]}"
            f" loss {NINTHS[loss]}\n"
            for key, (win, tie, loss) in outcome_counts(report.records).items()
        }
        for i, j, winner, key in failure_rows(report.records, report.depth):
            yield (
                f"  {labels[i]} vs {labels[j]}:"
                f" expected {labels[winner]} to win 5/9, {observed[key]}"
            )
    if report.certificate_detail is not None:
        yield f"certificate: {report.certificate_detail}\n"
    status = "PASS" if report.passed else "FAIL"
    yield f"{status} ({report.elapsed:.3f}s, {report.method})\n"


def _report_header(report: VerificationReport) -> dict:
    """The report document's fields before its failures."""
    return {
        "depth": report.depth,
        "dice": report.dice_count,
        "multiplicity": report.multiplicity,
        "pairs_checked": report.pairs_checked,
        "per_level": [
            {"level": s.level, "pairs": s.pairs, "failures": s.failures}
            for s in report.per_level
        ],
    }


def report_json(report: VerificationReport) -> dict:
    """The report document. :func:`report_json_text` writes its text
    without building it."""
    doc = _report_header(report)
    doc["failures"] = [
        {
            "word_a": list(f.word_a),
            "word_b": list(f.word_b),
            "expected_winner": list(f.expected_winner),
            "observed": {
                "win": str(f.observed.win),
                "tie": str(f.observed.tie),
                "loss": str(f.observed.loss),
            },
        }
        for f in report.failures
    ]
    doc["passed"] = report.passed
    return doc


def report_json_text(report: VerificationReport) -> Iterator[str]:
    """``json.dumps(report_json(report), indent=2)`` plus a line break,
    byte for byte, from the report's records, one failure per piece: each
    die's word is written once as its indented list and each (wins, ties)
    outcome once as its ``observed`` object, so a failure is one f-string
    over four lookups."""
    # the header's text ends "\n}": the failures go in before its brace
    head = json.dumps(_report_header(report), indent=2)[:-2]
    passed = "true" if report.passed else "false"
    if not report.records:
        yield f'{head},\n  "failures": [],\n  "passed": {passed}\n}}\n'
        return
    words = [
        "[\n        " + ",\n        ".join(word) + "\n      ]"
        for word in product("012", repeat=report.depth)
    ]
    observed = {
        key: f'{{\n        "win": "{NINTHS[win]}",\n'
        f'        "tie": "{NINTHS[tie]}",\n        "loss": "{NINTHS[loss]}"\n      }}'
        for key, (win, tie, loss) in outcome_counts(report.records).items()
    }
    yield f'{head},\n  "failures": [\n    '
    yield from joined(
        (
            f'{{\n      "word_a": {words[i]},\n      "word_b": {words[j]},\n'
            f'      "expected_winner": {words[winner]},\n'
            f'      "observed": {observed[key]}\n    }}'
            for i, j, winner, key in failure_rows(report.records, report.depth)
        ),
        ",\n    ",
    )
    yield f'\n  ],\n  "passed": {passed}\n}}\n'


def cmd_tables(args) -> int:
    dice = walk_dice(preset_stack(f"paper-{args.depth}"))
    _emit(args, tables_text(args.depth, dice))
    return 0


def cmd_generate(args) -> int:
    depth, multiplicity, stack, dice = _load_dice(args)
    if args.format == "json":
        _emit(args, family_json_text(depth, multiplicity, stack, dice))
    else:
        _emit(args, family_listing(dice))
    return 0


def cmd_verify(args) -> int:
    # a validated stack is proven from its depth; a family's faces are read
    source, multiplicity = _load_source(args)
    if isinstance(source, AssignmentStack):
        report = verify_stack(source, multiplicity)
    else:
        report = hierarchy.verify_family(source)
    del source  # the report holds none of it: write without the family
    write = report_json_text if args.format == "json" else report_text
    with _unlimited_int_digits():
        _emit(args, write(report))
    return 0 if report.passed else 1


@contextmanager
def _unlimited_int_digits() -> Iterator[None]:
    """Lift CPython's limit on an int's decimal digits, which guards parsing
    input, while the program writes its own counts: a depth-k stack has
    3^(2k-p-1) pairs at level p, over 4,300 digits from depth 4,507 on."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def cmd_prob(args) -> int:
    from metadice.dice import duel, parse_die

    result = duel(parse_die(args.die_a), parse_die(args.die_b))
    decimals = f"{float(result.win):.6f} {float(result.tie):.6f} {float(result.loss):.6f}"
    if args.format == "json":
        doc = {
            "win": str(result.win),
            "tie": str(result.tie),
            "loss": str(result.loss),
            "decimal": decimals,
        }
        _emit(args, (json.dumps(doc, indent=2) + "\n",))
    else:
        _emit(args, (f"{result.win} {result.tie} {result.loss}\n{decimals}\n",))
    return 0


def _parse_team(text: str) -> list[int]:
    # one member is a signed integer in ASCII digits (int() alone would
    # also read other scripts' digits and underscores); compiled here, as
    # only roundrobin reads it
    member = re.compile(r"\s*[+-]?[0-9]+\s*\Z")
    tokens = text.split(",")
    if not all(member.match(tok) for tok in tokens):
        raise ValueError(f"bad team {text!r}: expected comma-separated integers")
    return [int(tok) for tok in tokens]


def cmd_roundrobin(args) -> int:
    from metadice.dice import round_robin

    wins_a, wins_b = round_robin(_parse_team(args.team_a), _parse_team(args.team_b))
    if args.format == "json":
        _emit(args, (json.dumps({"a": wins_a, "b": wins_b}, indent=2) + "\n",))
    else:
        _emit(args, (f"A:{wins_a} B:{wins_b}\n",))
    return 0


def cmd_graph(args) -> int:
    source, _ = _load_source(args)  # before export is compiled
    graph = export.graph_rows(source, args.level, full=args.full_graph)
    write = export.graph_json_text if args.format == "json" else export.graph_dot
    _emit(args, write(graph))
    return 0


def cmd_normalize(args) -> int:
    depth, _, _, dice = _load_dice(args)
    write = export.points_json_text if args.format == "json" else export.family_csv
    _emit(args, write(depth, dice))
    return 0


def cmd_simulate(args) -> int:
    from metadice.dice import duel, parse_die

    if not 0 <= args.seed < 2 ** 64:
        raise ValueError("seed must fit an unsigned 64-bit integer")
    x = parse_die(args.die_a)
    y = parse_die(args.die_b)
    estimate = hierarchy.monte_carlo(x, y, args.trials, args.seed)
    exact = duel(x, y).win
    if args.format == "json":
        doc = {
            "estimate": estimate,
            "exact": str(exact),
            "trials": args.trials,
            "seed": args.seed,
        }
        _emit(args, (json.dumps(doc, indent=2) + "\n",))
    else:
        _emit(
            args,
            (
                f"estimate {estimate:.6f}\nexact {exact} = {float(exact):.6f}\n"
                f"trials {args.trials} seed {args.seed}\n",
            ),
        )
    return 0
