"""Command-line front end.

Exit codes are a stable contract: 0 for success (verification passed),
1 for a verification failure, 2 for usage, parse or input errors. Machine
readable outputs (json, csv, dot) carry no timing, so byte-identical inputs
give byte-identical outputs; timing appears only in the human text report.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from metadice.dice import (
    Die,
    DieParseError,
    LengthMismatchError,
    TeamOverlapError,
    duel,
    face_text,
    parse_die,
    round_robin,
)
from metadice.export import (
    build_graph,
    graph_to_json,
    normalized_values,
    points_to_csv,
    points_to_json,
    to_dot,
)
from metadice.hierarchy import (
    DiceFamily,
    FamilyFormatError,
    VerificationReport,
    family_from_json,
    family_from_rows,
    family_to_json,
    generate,
    monte_carlo,
    verify_family,
)
from metadice.loshu import StackValidationError, parse_stack, preset_stack

#: Depth accepted without --allow-large (3^8 dice is about 21.5M pairs).
DEPTH_CEILING = 8

#: Cycle position to display color, fixed as 0=red, 1=blue, 2=green.
SUBSET_COLORS = ("red", "blue", "green")

PRESET_CHOICES = ("paper-1", "paper-2", "paper-3", "uniform")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (
        DieParseError,
        LengthMismatchError,
        TeamOverlapError,
        StackValidationError,
        FamilyFormatError,
        ValueError,
        OSError,
    ) as exc:
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
    _add_output(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("generate", help="generate a family from a preset or stack")
    _add_family_source(p)
    p.add_argument("--format", choices=("json", "text"), default="json")
    _add_output(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "verify",
        help="exhaustively check every pair duels at exactly 5/9 the right way",
    )
    _add_family_source(p, stdin=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_output(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("prob", help="exact duel probabilities of two dice")
    p.add_argument("die_a", help="die text, e.g. 2,4,9 or 222x2,489x2,954x2")
    p.add_argument("die_b")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_output(p)
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser(
        "roundrobin", help="deterministic all-pairs play of two strength teams"
    )
    p.add_argument("team_a", help="comma-separated integers, e.g. 4,9,2")
    p.add_argument("team_b")
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_output(p)
    p.set_defaults(func=cmd_roundrobin)

    p = sub.add_parser("graph", help="export a dominance graph")
    _add_family_source(p)
    p.add_argument("--level", type=int, default=None, help="prefix level (default 1)")
    p.add_argument(
        "--full-graph",
        action="store_true",
        help="one edge per die pair instead of the sibling cycles",
    )
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    _add_output(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser(
        "normalize", help="emit all face values normalized into (0, 1)"
    )
    _add_family_source(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_output(p)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser(
        "simulate", help="seeded Monte Carlo cross-check of a duel"
    )
    p.add_argument("die_a")
    p.add_argument("die_b")
    p.add_argument("--trials", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_output(p)
    p.set_defaults(func=cmd_simulate)

    return parser


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", metavar="PATH", help="write here instead of stdout")


def _add_family_source(p: argparse.ArgumentParser, *, stdin: bool = False) -> None:
    p.add_argument("--preset", choices=PRESET_CHOICES)
    p.add_argument("--stack", metavar="FILE", help="assignment stack file")
    p.add_argument("--family", metavar="FILE", help="family JSON document")
    if stdin:
        p.add_argument(
            "--stdin",
            action="store_true",
            help="read a plain listing (as printed by tables/generate)",
        )
    p.add_argument("--depth", type=int)
    p.add_argument("--multiplicity", type=int, default=2)
    p.add_argument(
        "--allow-large",
        action="store_true",
        help=f"lift the default depth ceiling of {DEPTH_CEILING}",
    )


def _check_depth(depth: int, allow_large: bool) -> None:
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if depth > DEPTH_CEILING and not allow_large:
        raise ValueError(
            f"depth {depth} exceeds the default ceiling of {DEPTH_CEILING}"
            " (pass --allow-large to run anyway)"
        )


def _load_family(args) -> DiceFamily:
    use_stdin = getattr(args, "stdin", False)
    picked = [
        name
        for name, given in (
            ("--preset", args.preset is not None),
            ("--stack", args.stack is not None),
            ("--family", args.family is not None),
            ("--stdin", use_stdin),
        )
        if given
    ]
    if len(picked) != 1:
        raise ValueError(
            "choose exactly one family source (--preset, --stack, --family"
            + (", --stdin)" if hasattr(args, "stdin") else ")")
        )
    if args.multiplicity < 1:
        raise ValueError("multiplicity must be at least 1")
    if args.preset is not None:
        stack = preset_stack(args.preset, args.depth)
        _check_depth(stack.depth, args.allow_large)
        return generate(stack, args.multiplicity)
    if args.stack is not None:
        stack = parse_stack(Path(args.stack).read_text())
        if args.depth is not None and args.depth != stack.depth:
            raise ValueError(
                f"--depth {args.depth} does not match the stack's"
                f" {stack.depth} levels"
            )
        _check_depth(stack.depth, args.allow_large)
        return generate(stack, args.multiplicity)
    if args.family is not None:
        try:
            doc = json.loads(Path(args.family).read_text())
        except RecursionError:
            raise FamilyFormatError("family document nests too deeply") from None
        family = family_from_json(doc)
        if args.depth is not None and args.depth != family.depth:
            raise ValueError(
                f"--depth {args.depth} does not match the family's"
                f" depth {family.depth}"
            )
        _check_depth(family.depth, args.allow_large)
        return family
    family = _family_from_listing(sys.stdin.read(), args.multiplicity)
    if args.depth is not None and args.depth != family.depth:
        raise ValueError(
            f"--depth {args.depth} does not match the listing's"
            f" depth {family.depth}"
        )
    _check_depth(family.depth, args.allow_large)
    return family


def _family_from_listing(text: str, multiplicity: int) -> DiceFamily:
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) < 4:
            raise FamilyFormatError(
                f"listing row {line!r} needs a die name and three faces"
            )
        rows.append(tokens[-3:])
    return family_from_rows(rows, multiplicity)


def _emit(args, text: str) -> None:
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def tables_text(depth: int) -> str:
    family = generate(preset_stack(f"paper-{depth}"))
    faces = [
        " ".join(face_text(f) for f in triple) for triple in family.rank_faces
    ]
    lines: list[str] = []
    if depth == 1:
        for label, row in zip("ABC", faces):
            lines.append(f"Die {label} {row}")
    elif depth == 2:
        for n, row in enumerate(faces, start=1):
            if n % 3 == 1:
                lines.append(f"# {SUBSET_COLORS[(n - 1) // 3]} dice")
            lines.append(f"Die {n} {row}")
    else:
        for n, row in enumerate(faces, start=1):
            if n % 9 == 1:
                circle = (n - 1) // 9
                lines.append(
                    f"# {SUBSET_COLORS[circle]} circle: D{9 * circle + 1}-D{9 * circle + 9}"
                )
            elif n % 3 == 1:
                lines.append("")
            lines.append(f"D{n} {row}")
    return "\n".join(lines) + "\n"


def family_listing(family: DiceFamily) -> str:
    lines = [
        f"D{n} " + " ".join(face_text(f) for f in triple)
        for n, triple in enumerate(family.rank_faces, start=1)
    ]
    return "\n".join(lines) + "\n"


def report_text(report: VerificationReport) -> str:
    lines = [
        f"depth {report.depth}, {report.dice_count} dice,"
        f" {report.pairs_checked} pairs, {len(report.failures)} failures"
    ]
    for level in report.per_level:
        lines.append(
            f"level {level.level}: {level.pairs} pairs, {level.failures} failures"
        )
    for failure in report.failures:
        lines.append("  " + failure.describe())
    status = "PASS" if report.passed else "FAIL"
    lines.append(f"{status} ({report.elapsed:.3f}s, {report.backend} backend)")
    return "\n".join(lines) + "\n"


def report_json(report: VerificationReport) -> dict:
    return {
        "depth": report.depth,
        "dice": report.dice_count,
        "multiplicity": report.multiplicity,
        "pairs_checked": report.pairs_checked,
        "per_level": [
            {"level": s.level, "pairs": s.pairs, "failures": s.failures}
            for s in report.per_level
        ],
        "failures": [
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
        ],
        "passed": report.passed,
    }


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def cmd_tables(args) -> int:
    _emit(args, tables_text(args.depth))
    return 0


def cmd_generate(args) -> int:
    family = _load_family(args)
    if args.format == "json":
        _emit(args, _json_text(family_to_json(family)))
    else:
        _emit(args, family_listing(family))
    return 0


def cmd_verify(args) -> int:
    family = _load_family(args)
    report = verify_family(family)
    if args.format == "json":
        _emit(args, _json_text(report_json(report)))
    else:
        _emit(args, report_text(report))
    return 0 if report.passed else 1


def cmd_prob(args) -> int:
    result = duel(parse_die(args.die_a), parse_die(args.die_b))
    decimals = f"{float(result.win):.6f} {float(result.tie):.6f} {float(result.loss):.6f}"
    if args.format == "json":
        doc = {
            "win": str(result.win),
            "tie": str(result.tie),
            "loss": str(result.loss),
            "decimal": decimals,
        }
        _emit(args, _json_text(doc))
    else:
        _emit(args, f"{result.win} {result.tie} {result.loss}\n{decimals}\n")
    return 0


#: One team member: a signed integer in ASCII digits (int() alone would
#: also read other scripts' digits and underscores).
_TEAM_MEMBER = re.compile(r"\s*[+-]?[0-9]+\s*\Z")


def _parse_team(text: str) -> list[int]:
    tokens = text.split(",")
    if not all(_TEAM_MEMBER.match(tok) for tok in tokens):
        raise ValueError(f"bad team {text!r}: expected comma-separated integers")
    return [int(tok) for tok in tokens]


def cmd_roundrobin(args) -> int:
    wins_a, wins_b = round_robin(_parse_team(args.team_a), _parse_team(args.team_b))
    if args.format == "json":
        _emit(args, _json_text({"a": wins_a, "b": wins_b}))
    else:
        _emit(args, f"A:{wins_a} B:{wins_b}\n")
    return 0


def cmd_graph(args) -> int:
    family = _load_family(args)
    graph = build_graph(family, args.level, full=args.full_graph)
    if args.format == "json":
        _emit(args, _json_text(graph_to_json(graph)))
    else:
        _emit(args, to_dot(graph))
    return 0


def cmd_normalize(args) -> int:
    family = _load_family(args)
    points = normalized_values(family)
    if args.format == "json":
        _emit(args, _json_text(points_to_json(points)))
    else:
        _emit(args, points_to_csv(points))
    return 0


def cmd_simulate(args) -> int:
    if args.trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0 <= args.seed < 2 ** 64:
        raise ValueError("seed must fit an unsigned 64-bit integer")
    x = parse_die(args.die_a)
    y = parse_die(args.die_b)
    estimate = monte_carlo(x, y, args.trials, args.seed)
    exact = duel(x, y).win
    if args.format == "json":
        doc = {
            "estimate": estimate,
            "exact": str(exact),
            "trials": args.trials,
            "seed": args.seed,
        }
        _emit(args, _json_text(doc))
    else:
        _emit(
            args,
            f"estimate {estimate:.6f}\nexact {exact} = {float(exact):.6f}\n"
            f"trials {args.trials} seed {args.seed}\n",
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
