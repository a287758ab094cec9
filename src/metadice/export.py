"""Dominance-graph construction and serialization, plus normalized points.

Graphs come in two flavors: the sibling view at a level m (all 3^m word
prefixes as nodes, each trio of siblings wired into its 3-cycle) and the
full view (every pair of dice, one edge per pair). Sibling edges follow the
cycle and carry the source's exact win probability, so on a failing family
one can point from a loser; full-view edges point from winner to loser.
Both views read their win counts from the sweep.

Normalized points read each face as a decimal fraction in (0, 1), the
scale-free presentation of a family's face values.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

from metadice.dice import Face, face_text
from metadice.hierarchy import DiceFamily, Word, die_number, predicted_winner
from metadice.sweep import outcome, pack_face, sweep_pairs

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


def _missed(
    rank_faces: Sequence[tuple[Face, Face, Face]], depth: int
) -> dict[tuple[int, int], tuple[int, int]]:
    """(i, j) -> die i's (wins, ties) over the face grid, for each pair the
    sweep lists.

    The sweep lists only the pairs that miss the cycle's exact outcome; every
    other pair is won 5 to 4, with no tie, by the die the cycle favors.
    """
    _, failures = sweep_pairs(rank_faces, depth)
    return {(i, j): (wins, ties) for i, j, wins, ties in failures}


def build_graph(
    family: DiceFamily, level: int | None = None, *, full: bool = False
) -> DominanceGraph:
    """Dominance graph of a family, drawn from the sweep's win counts.

    Sibling mode (default) at level m: nodes are the 3^m prefixes; each
    group of three siblings gets its cycle edges, labeled with the win
    probability of the source's representative die (its prefix padded with
    zeros) over the target's. A trio's representatives are a depth-1
    family, so one small sweep settles it; for a valid family every
    cross-group pair duels alike, so the label is the group claim. Full
    mode sweeps once and emits one edge per unordered pair of dice, winner
    to loser; a pair with no strict winner keeps word order and its win
    probability.
    """
    if full:
        level = family.depth
    elif level is None:
        level = 1
    if not 1 <= level <= family.depth:
        raise ValueError(f"level {level} outside 1..{family.depth}")

    if full:
        words = family.words
        missed = _missed(family.rank_faces, family.depth)
        edges = []
        for i, j in combinations(range(family.size), 2):
            w, v = words[i], words[j]
            expected = (5 if predicted_winner(w, v) == w else 4, 0)
            wins, ties = missed.get((i, j), expected)
            if 9 - wins - ties > wins:
                edges.append(Edge(v, w, outcome(wins, ties).loss))
            else:
                edges.append(Edge(w, v, outcome(wins, ties).win))
        return DominanceGraph(family.depth, level, True, words, tuple(edges))

    nodes = tuple(product((0, 1, 2), repeat=level))
    stride = 3 ** (family.depth - level)
    edges = []
    for n, head in enumerate(product((0, 1, 2), repeat=level - 1)):
        trio = family.rank_faces[3 * n * stride : 3 * (n + 1) * stride : stride]
        missed = _missed(trio, 1)
        # win probability of sibling s over sibling s + 1 around the cycle
        wins = (
            outcome(*missed.get((0, 1), (5, 0))).win,
            outcome(*missed.get((1, 2), (5, 0))).win,
            outcome(*missed.get((0, 2), (4, 0))).loss,
        )
        for s in range(3):
            edges.append(Edge(head + (s,), head + ((s + 1) % 3,), wins[s]))
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
