"""Dominance graphs and normalized points, as records and as text.

Graphs come in two flavors: the sibling view at a level m (all 3^m word
prefixes as nodes, each trio of siblings wired into its 3-cycle) and the
full view (every pair of dice, one edge per pair). Sibling edges follow the
cycle and carry the source's exact win probability, so on a failing family
one can point from a loser; full-view edges point from winner to loser.
Each view is one integer walk in (source, target) order. A sibling trio's
win counts are read off its three representative dice's 3x3 face grids; the
full view takes the failing pairs from :func:`metadice.hierarchy.verify_family`,
the path ``verify`` runs, and every other pair duels 5/9 the cycle's way.

Normalized points read each face as a decimal fraction in (0, 1), the
scale-free presentation of a family's face values.

Each text has one writer, a generator of text pieces: one per node, edge
or JSON point, and one per die for the CSV, whose three rows make one
piece, with the separators that make the joined pieces the whole text.
The CLI writes them a batch at a time, so no output is ever held whole.
:func:`graph_rows` gives a graph as its node names and (source, target,
label) rows straight from its walk, and :func:`graph_dot` and
:func:`graph_json_text` write its DOT and JSON from them.
:func:`family_csv` and :func:`points_json_text` write the points from a
family's rank faces as they come, a loaded family's or a stack's walk.
No writer builds a record. The record API, :func:`build_graph`
(the same walks, labeled with fractions), :func:`normalized_values` and
their renderers, returning whole strings and documents, is the tests' oracle.
"""

from __future__ import annotations

from itertools import chain, product, repeat
from math import gcd
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from metadice.dice import NINTHS, Face
from metadice.hierarchy import DiceFamily, Word, die_number, verify_family
from metadice.sweep import unpack

if TYPE_CHECKING:
    from fractions import Fraction

Prefix = tuple[int, ...]


class Edge(NamedTuple):
    source: Prefix
    target: Prefix
    probability: Fraction


class DominanceGraph(NamedTuple):
    depth: int
    level: int
    full: bool
    nodes: tuple[Prefix, ...]
    edges: tuple[Edge, ...]


def node_name(prefix: Prefix, depth: int) -> str:
    """D-numbers at full depth, trit strings for shallower prefixes."""
    if len(prefix) == depth:
        return f"D{die_number(prefix)}"
    return "".join(str(t) for t in prefix)


def build_graph(
    family: DiceFamily, level: int | None = None, *, full: bool = False
) -> DominanceGraph:
    """Dominance graph of a family, drawn from integer win counts.

    Sibling mode (default) at level m: nodes are the 3^m prefixes; each
    group of three siblings gets its cycle edges, labeled with the win
    probability of the source's representative die (its prefix padded with
    zeros) over the target's, counted over the 3x3 grid of their faces;
    for a valid family every cross-group pair duels alike, so the label is
    the group claim. Full mode emits one edge per unordered pair of dice,
    winner to loser, in (source, target) order; a pair with no strict
    winner keeps word order and its win probability. It reads the failing
    pairs from :func:`metadice.hierarchy.verify_family`, so a certified
    family compares no pair. A level given with ``full`` is refused.
    """
    from fractions import Fraction

    level = _graph_level(family, level, full)
    nodes = tuple(product((0, 1, 2), repeat=level))
    ninths = [Fraction(k, 9) for k in range(10)]
    rows = _full_rows(family, ninths) if full else _sibling_rows(family, level, ninths)
    edges = tuple(Edge(nodes[s], nodes[t], p) for s, t, p in rows)
    return DominanceGraph(family.depth, level, full, nodes, edges)


def _graph_level(family: DiceFamily, level: int | None, full: bool) -> int:
    """The level a graph is drawn at: 1 by default, and the depth for a
    full graph, which refuses a given level."""
    if full:
        if level is not None:
            raise ValueError("a full graph has no level: it pairs every die")
        return family.depth
    if level is None:
        return 1
    if not 1 <= level <= family.depth:
        raise ValueError(f"level {level} outside 1..{family.depth}")
    return level


def _sibling_rows(family: DiceFamily, level: int, labels: Sequence) -> Iterator[tuple]:
    """The sibling edges at ``level`` as (source, target, ``labels[k]``) rows
    over node indices, where k/9 is the source's win probability: sibling s
    of a trio points to sibling s + 1 around the cycle, so the rows come in
    (source, target) order. Equal-length faces compare as their values."""
    stride = 3 ** (family.depth - level)
    for n in range(3 ** (level - 1)):
        a, b, c = family.rank_faces[3 * n * stride : 3 * (n + 1) * stride : stride]
        yield 3 * n, 3 * n + 1, labels[sum(x > y for x in a for y in b)]
        yield 3 * n + 1, 3 * n + 2, labels[sum(x > y for x in b for y in c)]
        yield 3 * n + 2, 3 * n, labels[sum(x > y for x in c for y in a)]


def _full_rows(family: DiceFamily, labels: Sequence) -> Iterator[tuple]:
    """Every full-graph edge as a (source, target, label) row, dice by
    index, in (source, target) order; ``labels[k]`` labels a win of k/9.

    A failing pair points from the die with more wins, in index order on
    equal wins. Every other pair is won 5/9 by the die the cycle favors: at
    each level, a die's block beats the next sibling block around the cycle.
    """
    moved: dict[int, list[tuple[int, int]]] = {}  # source -> (target, wins)
    failed: dict[int, set[int]] = {}  # die -> the dice it fails against
    for record in verify_family(family).records:
        i, j, _, wins, ties = unpack(record, family.depth)
        loss = 9 - wins - ties
        source, target, ninths = (j, i, loss) if loss > wins else (i, j, wins)
        moved.setdefault(source, []).append((target, ninths))
        failed.setdefault(i, set()).add(j)
        failed.setdefault(j, set()).add(i)
    sizes = [3 ** p for p in range(family.depth)]
    for s in range(family.size):
        # (first die, size) of the block that s's block beats, at each level
        beaten = sorted(
            (s - s % (3 * size) + (s // size + 1) % 3 * size, size) for size in sizes
        )
        targets = chain.from_iterable(range(lo, lo + size) for lo, size in beaten)
        if s not in failed:
            yield from zip(repeat(s), targets, repeat(labels[5]))
            continue
        rows = [(t, 5) for t in targets if t not in failed[s]] + moved.get(s, [])
        yield from ((s, t, labels[ninths]) for t, ninths in sorted(rows))


class GraphRows(NamedTuple):
    """A graph as its writers read it: node names in node order, and edges
    as (source, target, label) rows over them, in order, read once."""

    depth: int
    level: int
    full: bool
    names: Sequence[str]
    rows: Iterable[tuple[int, int, str]]


def graph_rows(
    family: DiceFamily, level: int | None = None, *, full: bool = False
) -> GraphRows:
    """The rows of ``build_graph(family, level, full=full)``, straight from
    the walk: no ``Edge`` is built and no edge sorted."""
    level = _graph_level(family, level, full)
    nodes = product((0, 1, 2), repeat=level)
    names = [node_name(prefix, family.depth) for prefix in nodes]
    rows = _full_rows(family, NINTHS) if full else _sibling_rows(family, level, NINTHS)
    return GraphRows(family.depth, level, full, names, rows)


def _graph_rows(graph: DominanceGraph) -> GraphRows:
    nodes = sorted(graph.nodes)
    position = {prefix: k for k, prefix in enumerate(nodes)}
    rows = sorted(
        (position[source], position[target], str(probability))
        for source, target, probability in graph.edges
    )
    names = [node_name(prefix, graph.depth) for prefix in nodes]
    return GraphRows(graph.depth, graph.level, graph.full, names, rows)


def joined(items: Iterable[str], sep: str) -> Iterator[str]:
    """The pieces of ``sep.join(items)``: each item, the separator in front
    of every item but the first."""
    items = iter(items)
    yield next(items, "")
    for item in items:
        yield sep + item


def graph_dot(graph: GraphRows) -> Iterator[str]:
    """DOT text of the named nodes and the rows, one line per piece."""
    names = graph.names
    yield "digraph dominance {\n"
    for name in names:
        yield f'  "{name}";\n'
    for source, target, label in graph.rows:
        yield f'  "{names[source]}" -> "{names[target]}" [label="{label}"];\n'
    yield "}\n"


def to_dot(graph: DominanceGraph) -> str:
    """Byte-deterministic DOT text: sorted nodes, then sorted edges."""
    return "".join(graph_dot(_graph_rows(graph)))


def graph_to_json(graph: DominanceGraph) -> dict:
    """The graph document. :func:`graph_json_text` writes its text
    without building it."""
    depth, level, full, names, rows = _graph_rows(graph)
    return {
        "depth": depth,
        "level": level,
        "full": full,
        "nodes": names,
        "edges": [
            {"from": names[source], "to": names[target], "probability": label}
            for source, target, label in rows
        ],
    }


def graph_json_text(graph: GraphRows) -> Iterator[str]:
    """The graph document's indented JSON, as ``json.dumps(indent=2)``
    writes it, with one f-string per node and per edge. Names and labels
    need no JSON escapes."""
    names = graph.names
    full = "true" if graph.full else "false"
    yield (
        f'{{\n  "depth": {graph.depth},\n  "level": {graph.level},\n'
        f'  "full": {full},\n  "nodes": [\n    '
    )
    yield from joined((f'"{name}"' for name in names), ",\n    ")
    yield '\n  ],\n  "edges": [\n    '
    yield from joined(
        (
            f'{{\n      "from": "{names[source]}",\n      "to": "{names[target]}",\n'
            f'      "probability": "{label}"\n    }}'
            for source, target, label in graph.rows
        ),
        ",\n    ",
    )
    yield "\n  ]\n}\n"


class NormalizedPoint(NamedTuple):
    """One face read as a decimal fraction: face 221 becomes 0.221.

    ``numerator`` and ``denominator`` are the value in lowest terms (221/1000
    here; face 012 gives 0.012 = 3/250), and ``digits`` is the face as text,
    which keeps the leading zeros the fraction drops. ``number`` is the
    die's D-number and ``word`` the family's own word tuple.
    """

    word: Word
    number: int
    rank: int
    digits: str
    numerator: int
    denominator: int

    @property
    def face(self) -> Face:
        return tuple(map(int, self.digits))

    @property
    def value(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.numerator, self.denominator)

    @property
    def decimal(self) -> str:
        return "0." + self.digits


def _lowest_terms(digits: str, scale: int) -> tuple[int, int]:
    """The face ``digits`` read over ``scale``, as (numerator, denominator)
    in lowest terms."""
    code = int(digits)
    common = gcd(code, scale)
    return code // common, scale // common


def normalized_values(family: DiceFamily) -> tuple[NormalizedPoint, ...]:
    """All 3 * 3^depth faces of a family as points in (0, 1).

    Point order follows (die number, rank); values are order-isomorphic to
    the positional face comparison.
    """
    scale = 10 ** family.depth
    return tuple(
        NormalizedPoint(word, number, rank, digits, *_lowest_terms(digits, scale))
        for number, (word, faces) in enumerate(zip(family.words, family.rank_faces), 1)
        for rank, digits in enumerate(faces)
    )


_CSV_HEADER = "word,paper_number,rank,decimal,numerator,denominator\n"


def points_to_csv(points: Sequence[NormalizedPoint]) -> str:
    """One row per point; no field can hold a comma, quote or line break,
    so rows need no CSV quoting."""
    rows = [_CSV_HEADER]
    rows.extend(
        f"{''.join(map(str, word))},{number},{rank},0.{digits},{numerator},"
        f"{denominator}\n"
        for word, number, rank, digits, numerator, denominator in points
    )
    return "".join(rows)


def family_csv(depth: int, dice: Iterable[Sequence[str]]) -> Iterator[str]:
    """``points_to_csv(normalized_values(family))``, byte for byte, written
    from ``dice``, the depth-``depth`` family's rank faces in word order,
    one die's three rows per piece: no point is built."""
    scale = 10 ** depth
    words = map("".join, product("012", repeat=depth))
    yield _CSV_HEADER
    for number, (word, (a, b, c)) in enumerate(zip(words, dice), 1):
        x, y, z = int(a), int(b), int(c)
        gx, gy, gz = gcd(x, scale), gcd(y, scale), gcd(z, scale)
        head = f"{word},{number},"
        yield (
            f"{head}0,0.{a},{x // gx},{scale // gx}\n"
            f"{head}1,0.{b},{y // gy},{scale // gy}\n"
            f"{head}2,0.{c},{z // gz},{scale // gz}\n"
        )


def points_json_text(depth: int, dice: Iterable[Sequence[str]]) -> Iterator[str]:
    """``json.dumps(points_to_json(normalized_values(family)), indent=2)``
    plus a line break, byte for byte, written from ``dice``, the
    depth-``depth`` family's rank faces in word order, one point per piece:
    no point is built."""
    scale = 10 ** depth
    words = map("".join, product("012", repeat=depth))
    yield "[\n  "
    yield from joined(
        (
            f'{{\n    "word": "{word}",\n    "paper_number": {number},\n'
            f'    "rank": {rank},\n    "decimal": "0.{digits}",\n'
            f'    "numerator": {numerator},\n    "denominator": {denominator}\n  }}'
            for number, (word, faces) in enumerate(zip(words, dice), 1)
            for rank, digits in enumerate(faces)
            for numerator, denominator in (_lowest_terms(digits, scale),)
        ),
        ",\n  ",
    )
    yield "\n]\n"


def points_to_json(points: Sequence[NormalizedPoint]) -> list[dict]:
    return [
        {
            "word": "".join(map(str, word)),
            "paper_number": number,
            "rank": rank,
            "decimal": "0." + digits,
            "numerator": numerator,
            "denominator": denominator,
        }
        for word, number, rank, digits, numerator, denominator in points
    ]
