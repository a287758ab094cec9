"""Dominance graphs and normalized points, as records and as text.

Graphs come in two flavors: the sibling view at a level m (all 3^m word
prefixes as nodes, each trio of siblings wired into its 3-cycle) and the
full view (every pair of dice, one edge per pair). Sibling edges follow the
cycle and carry the source's exact win probability, so on a failing family
one can point from a loser; full-view edges point from winner to loser.
Each view is one integer walk in (source, target) order. A validated
stack's graph is drawn from its depth alone and reads no die: every pair
of its family duels 5/9 the cycle's way. A loaded family's sibling trio is
labeled from its three representative dice's 3x3 face grids, and its full
view takes the failing pairs from :func:`metadice.hierarchy.verify_family`,
the path ``verify`` runs, and every other pair duels 5/9 the cycle's way.
Only that path and the record API's die names import
:mod:`metadice.hierarchy`, when they run, so a stack's graph and points
compile no family code.

Normalized points read each face as a decimal fraction in (0, 1), the
scale-free presentation of a family's face values.

Each text has one writer, a generator of text pieces: one per node, graph
row or JSON point, and one per die for the CSV, whose three rows make one
piece, with the separators that make the joined pieces the whole text.
The CLI writes them a batch at a time, so no output is ever held whole.
:func:`graph_rows` gives a graph as its node names and its edges in runs
(source, first target, end, label) straight from its walk, and
:func:`graph_dot` and :func:`graph_json_text` write its DOT and JSON from
them, a run of 5/9 edges as one join of its targets' text.
:func:`family_csv` and :func:`points_json_text` write the points from a
family's rank faces as they come, a loaded family's or a stack's walk.
No writer builds a record. The record API, :func:`build_graph`
(the runs expanded, labeled with fractions), :func:`normalized_values` and
their renderers, returning whole strings and documents, is the tests' oracle.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import product
from math import gcd
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from metadice.loshu import NINTHS, AssignmentStack, Face
from metadice.sweep import failure_rows, joined, outcome_counts

if TYPE_CHECKING:
    from fractions import Fraction

    from metadice.hierarchy import DiceFamily, Word

    Source = DiceFamily | AssignmentStack

Prefix = tuple[int, ...]
FIVE = NINTHS[5]


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
        from metadice.hierarchy import die_number

        return f"D{die_number(prefix)}"
    return "".join(str(t) for t in prefix)


def build_graph(
    source: Source, level: int | None = None, *, full: bool = False
) -> DominanceGraph:
    """Dominance graph of a family or of a validated stack's family: the
    runs of :func:`graph_rows`, one :class:`Edge` per edge, labeled with
    fractions.

    Sibling mode (default) at level m: nodes are the 3^m prefixes; each
    group of three siblings gets its cycle edges, labeled with the win
    probability of the source's representative die (its prefix padded with
    zeros) over the target's, counted over the 3x3 grid of their faces;
    for a valid family every cross-group pair duels alike, so the label is
    the group claim. Full mode emits one edge per unordered pair of dice,
    winner to loser, in (source, target) order; a pair with no strict
    winner keeps word order and its win probability. A family's failing
    pairs come from :func:`metadice.hierarchy.verify_family`, so a
    certified family compares no pair; a stack's family has none. A level
    given with ``full`` is refused.
    """
    from fractions import Fraction

    depth, level, full, _, rows = graph_rows(source, level, full=full)
    nodes = tuple(product((0, 1, 2), repeat=level))
    ninths = {text: Fraction(k, 9) for k, text in enumerate(NINTHS)}
    edges = tuple(
        Edge(nodes[s], nodes[t], ninths[label])
        for s, first, end, label in rows for t in range(first, end)
    )
    return DominanceGraph(depth, level, full, nodes, edges)


def _sibling_rows(depth: int, level: int, family: DiceFamily | None) -> Iterator:
    """The sibling edges at ``level`` as runs of one edge over node indices:
    sibling s of a trio points to sibling s + 1 around the cycle, so the
    rows come in (source, target) order. A stack's edges are 5/9; a
    family's are labeled with the source's wins over the 3x3 grid of the
    representative dice's faces, where equal-length faces compare as their
    values."""
    faces = None if family is None else family.rank_faces[:: 3 ** (depth - level)]
    for s in range(3 ** level):
        t = s - s % 3 + (s + 1) % 3
        wins = 5 if faces is None else sum(x > y for x in faces[s] for y in faces[t])
        yield s, t, t + 1, NINTHS[wins]


def _full_rows(depth: int, family: DiceFamily | None) -> Iterator:
    """Every full-graph edge, dice by index, in (source, target) order, in
    runs of at most 9 edges.

    Each pair is won 5/9 by the die the cycle favors: at each level, a die's
    block beats the next sibling block around the cycle, so a source's
    targets are one block per level. A stack's family fails no pair. A
    family's failing pairs, the records of :func:`verify_family` in (i, j)
    order, are cut out of those blocks: a failing pair points from the die
    with more wins, in index order on equal wins, as a run of its own.
    """
    records = ()
    if family is not None:
        from metadice.hierarchy import verify_family

        records = verify_family(family).records
    counts = outcome_counts(records)
    n = 3 ** depth
    sizes = [3 ** p for p in range(depth)]
    # each die's failing pairs in order of its partner in them: the records
    # come in (i, j) order, so a die's pairs as j come before those as i
    fails = [[] for _ in range(n)]
    for record, (i, j, _, _) in zip(records, failure_rows(records, depth)):
        fails[i].append(record)
        fails[j].append(record)
    for s in range(n):
        cuts, runs = [], []  # s's partner in each failing pair, in order
        # a stack's lists are all empty: decode only a die's own failures
        for i, j, _, key in failure_rows(fails[s], depth) if fails[s] else ():
            wins, _, loss = counts[key]
            source, target, ninths = (j, i, loss) if loss > wins else (i, j, wins)
            cuts.append(i + j - s)
            if source == s:
                runs.append((target, target + 1, NINTHS[ninths]))
        # (first die, size) of the block that s's block beats, at each level
        beaten = sorted((s - s % (3 * k) + (s // k + 1) % 3 * k, k) for k in sizes)
        for lo, size in beaten:
            end = lo + size
            for cut in cuts[bisect_left(cuts, lo) : bisect_left(cuts, end)]:
                runs.append((lo, cut, FIVE))
                lo = cut + 1
            runs.append((lo, end, FIVE))
        runs.sort()
        for lo, end, label in runs:
            for first in range(lo, end, 9):
                yield s, first, first + 9 if first + 9 < end else end, label


class GraphRows(NamedTuple):
    """A graph as its writers read it: node names in node order, and edges
    in runs (source, first target, end, label), each one source's edges to
    the targets first..end - 1 under one label, in (source, target) order,
    read once. A run holds at most 9 edges, and one unless labeled 5/9."""

    depth: int
    level: int
    full: bool
    names: Sequence[str]
    rows: Iterable[tuple[int, int, int, str]]


def graph_rows(
    source: Source, level: int | None = None, *, full: bool = False
) -> GraphRows:
    """The rows of ``build_graph(source, level, full=full)``, straight from
    the walk, drawn at level 1 by default and at the depth in full.

    A validated stack's graph is drawn from its depth alone, every edge 5/9
    the cycle's way: no die is read. A family's sibling labels are read off
    its dice, and its full view checks its pairs as ``verify`` does.
    """
    depth = source.depth
    if full and level is not None:
        raise ValueError("a full graph has no level: it pairs every die")
    level = depth if full else 1 if level is None else level
    if not 1 <= level <= depth:
        raise ValueError(f"level {level} outside 1..{depth}")
    if level == depth:
        names = [f"D{n}" for n in range(1, 3 ** depth + 1)]
    else:
        names = ["".join(prefix) for prefix in product("012", repeat=level)]
    family = None if isinstance(source, AssignmentStack) else source
    if full:
        rows = _full_rows(depth, family)
    else:
        rows = _sibling_rows(depth, level, family)
    return GraphRows(depth, level, full, names, rows)


def _graph_rows(graph: DominanceGraph) -> GraphRows:
    nodes = sorted(graph.nodes)
    position = {prefix: k for k, prefix in enumerate(nodes)}
    rows = sorted(
        (position[source], position[target], position[target] + 1, str(probability))
        for source, target, probability in graph.edges
    )
    names = [node_name(prefix, graph.depth) for prefix in nodes]
    return GraphRows(graph.depth, graph.level, graph.full, names, rows)


def _edge_pieces(graph: GraphRows, lead: str, tail: str, sep: str) -> Iterator[str]:
    """One piece per row: each edge's text is ``lead`` formatted with the
    source's name and ``tail`` with the target's name and the label, and
    ``sep`` joins a row's edges. Each node's lead and 5/9 tail are
    formatted once per graph, so a 5/9 run is one join of its targets'
    tails."""
    names = graph.names
    heads = [lead.format(name) for name in names]
    tails = [tail.format(name, FIVE) for name in names]
    for source, first, end, label in graph.rows:
        head = heads[source]
        if label == FIVE:
            yield head + (sep + head).join(tails[first:end])
        else:  # a run of one edge
            yield head + tail.format(names[first], label)


def graph_dot(graph: GraphRows) -> Iterator[str]:
    """DOT text of the named nodes and the rows: one line per node, and
    one row's lines per piece."""
    yield "digraph dominance {\n"
    for name in graph.names:
        yield f'  "{name}";\n'
    yield from _edge_pieces(graph, '  "{}" -> ', '"{}" [label="{}"];\n', "")
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
            for source, target, _, label in rows
        ],
    }


def graph_json_text(graph: GraphRows) -> Iterator[str]:
    """The graph document's indented JSON, as ``json.dumps(indent=2)``
    writes it: one piece per node and one row's edges per piece. Names and
    labels need no JSON escapes."""
    full = "true" if graph.full else "false"
    yield (
        f'{{\n  "depth": {graph.depth},\n  "level": {graph.level},\n'
        f'  "full": {full},\n  "nodes": [\n    '
    )
    yield from joined((f'"{name}"' for name in graph.names), ",\n    ")
    yield '\n  ],\n  "edges": [\n    '
    lead = '{{\n      "from": "{}",\n      "to": '
    tail = '"{}",\n      "probability": "{}"\n    }}'
    yield from joined(_edge_pieces(graph, lead, tail, ",\n    "), ",\n    ")
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
