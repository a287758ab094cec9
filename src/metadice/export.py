"""Dominance-graph construction and serialization, plus normalized points.

Graphs come in two flavors: the sibling view at a level m (all 3^m word
prefixes as nodes, each trio of siblings wired into its 3-cycle) and the
full view (every pair of dice, one edge per pair). Edges always point from
winner to loser and carry the exact win probability.

Normalized points read each face as a decimal fraction in (0, 1), the
scale-free presentation of a family's face values.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from metadice.dice import Face, duel, face_text
from metadice.hierarchy import DiceFamily, Word, die_number
from metadice.sweep import pack_face

Prefix = tuple[int, ...]


@dataclass(frozen=True)
class Edge:
    source: Prefix
    target: Prefix
    probability: Fraction


@dataclass(frozen=True)
class DominanceGraph:
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


def _representative(prefix: Prefix, depth: int) -> Word:
    return prefix + (0,) * (depth - len(prefix))


def build_graph(
    family: DiceFamily, level: int | None = None, *, full: bool = False
) -> DominanceGraph:
    """Dominance graph of a family.

    Sibling mode (default) at level m: nodes are the 3^m prefixes; each
    group of three siblings gets its cycle edges, labeled with the duel of
    the groups' representative dice (for a valid family every cross-group
    pair duels alike, so the label is the group claim). Full mode emits one
    edge per unordered pair of dice; a pair with no strict winner keeps
    word order and its (tied) win probability.
    """
    if full:
        level = family.depth
    elif level is None:
        level = 1
    if not 1 <= level <= family.depth:
        raise ValueError(f"level {level} outside 1..{family.depth}")

    if full:
        nodes = family.words
        edges = []
        for w, v in combinations(family.words, 2):
            result = duel(family.die_at(w), family.die_at(v))
            if result.loss > result.win:
                edges.append(Edge(v, w, result.loss))
            else:
                edges.append(Edge(w, v, result.win))
        return DominanceGraph(family.depth, level, True, nodes, tuple(edges))

    nodes = tuple(product((0, 1, 2), repeat=level))
    edges = []
    for head in product((0, 1, 2), repeat=level - 1):
        for s in range(3):
            src = head + (s,)
            dst = head + ((s + 1) % 3,)
            result = duel(
                family.die_at(_representative(src, family.depth)),
                family.die_at(_representative(dst, family.depth)),
            )
            edges.append(Edge(src, dst, result.win))
    edges.sort(key=lambda e: (e.source, e.target))
    return DominanceGraph(family.depth, level, False, nodes, tuple(edges))


def to_dot(graph: DominanceGraph) -> str:
    """Byte-deterministic DOT text: sorted nodes, then sorted edges."""
    lines = ["digraph dominance {"]
    for prefix in sorted(graph.nodes):
        lines.append(f'  "{node_name(prefix, graph.depth)}";')
    for edge in sorted(graph.edges, key=lambda e: (e.source, e.target)):
        lines.append(
            f'  "{node_name(edge.source, graph.depth)}"'
            f' -> "{node_name(edge.target, graph.depth)}"'
            f' [label="{edge.probability}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: DominanceGraph) -> dict:
    return {
        "depth": graph.depth,
        "level": graph.level,
        "full": graph.full,
        "nodes": [node_name(p, graph.depth) for p in sorted(graph.nodes)],
        "edges": [
            {
                "from": node_name(e.source, graph.depth),
                "to": node_name(e.target, graph.depth),
                "probability": str(e.probability),
            }
            for e in sorted(graph.edges, key=lambda e: (e.source, e.target))
        ],
    }


@dataclass(frozen=True)
class NormalizedPoint:
    """One face read as a decimal fraction: face 221 becomes 0.221."""

    word: Word
    rank: int
    face: Face
    value: Fraction

    @property
    def decimal(self) -> str:
        return "0." + face_text(self.face)


def normalized_values(family: DiceFamily) -> tuple[NormalizedPoint, ...]:
    """All 3 * 3^depth faces of a family as points in (0, 1).

    Point order follows (die number, rank); values are order-isomorphic to
    the positional face comparison.
    """
    scale = 10 ** family.depth
    points = []
    for word, faces in zip(family.words, family.rank_faces):
        for rank, face in enumerate(faces):
            points.append(
                NormalizedPoint(word, rank, face, Fraction(pack_face(face), scale))
            )
    return tuple(points)


def points_to_csv(points: tuple[NormalizedPoint, ...]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["word", "paper_number", "rank", "decimal", "numerator", "denominator"]
    )
    for p in points:
        writer.writerow(
            [
                "".join(str(t) for t in p.word),
                die_number(p.word),
                p.rank,
                p.decimal,
                p.value.numerator,
                p.value.denominator,
            ]
        )
    return out.getvalue()


def points_to_json(points: tuple[NormalizedPoint, ...]) -> list[dict]:
    return [
        {
            "word": "".join(str(t) for t in p.word),
            "paper_number": die_number(p.word),
            "rank": p.rank,
            "decimal": p.decimal,
            "numerator": p.value.numerator,
            "denominator": p.value.denominator,
        }
        for p in points
    ]
