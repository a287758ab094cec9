"""Dominance-graph construction and serialization, plus normalized points.

Graphs come in two flavors: the sibling view at a level m (all 3^m word
prefixes as nodes, each trio of siblings wired into its 3-cycle) and the
full view (every pair of dice, one edge per pair). Sibling edges follow the
cycle and carry the source's exact win probability, so on a failing family
one can point from a loser; full-view edges point from winner to loser.
A sibling trio's win counts come from a sweep of its three representative
dice; the full view takes the failing pairs from
:func:`metadice.hierarchy.check_pairs`, the path ``verify`` runs, and every
other pair duels exactly 5/9 the cycle's way.

Normalized points read each face as a decimal fraction in (0, 1), the
scale-free presentation of a family's face values. Points hold ints and
the renderers write their rows from those ints.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd
from typing import NamedTuple, Sequence

from metadice.dice import Face
from metadice.hierarchy import DiceFamily, Word, check_pairs, die_number
from metadice.sweep import outcome, sweep_pairs

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
    zeros) over the target's. A trio's representatives are a depth-1
    family, so one small sweep settles it; for a valid family every
    cross-group pair duels alike, so the label is the group claim. Full
    mode emits one edge per unordered pair of dice, winner to loser; a pair
    with no strict winner keeps word order and its win probability. It
    reads the failing pairs from :func:`metadice.hierarchy.check_pairs`, so
    a certified family compares no pair.
    """
    if full:
        level = family.depth
    elif level is None:
        level = 1
    if not 1 <= level <= family.depth:
        raise ValueError(f"level {level} outside 1..{family.depth}")

    if full:
        words, n = family.words, family.size
        edges = _cycle_edges(words, family.depth)
        for i, j, wins, ties in check_pairs(family).failures:
            # pair (i, j)'s place in (i, j) order
            at = i * (2 * n - i - 1) // 2 + j - i - 1
            if 9 - wins - ties > wins:
                edges[at] = Edge(words[j], words[i], outcome(wins, ties).loss)
            else:
                edges[at] = Edge(words[i], words[j], outcome(wins, ties).win)
        return DominanceGraph(family.depth, level, True, words, tuple(edges))

    nodes = tuple(product((0, 1, 2), repeat=level))
    stride = 3 ** (family.depth - level)
    edges = []
    for n, head in enumerate(product((0, 1, 2), repeat=level - 1)):
        trio = family.rank_faces[3 * n * stride : 3 * (n + 1) * stride : stride]
        # (i, j) -> die i's (wins, ties) for the pairs that miss the cycle's
        # exact outcome; every other pair is won 5 to 4 the cycle's way
        missed = {(i, j): (w, t) for i, j, w, t in sweep_pairs(trio, 1)[1]}
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


def _cycle_edges(words: Sequence[Word], depth: int) -> list[Edge]:
    """One edge per pair of a depth-``depth`` family, in (i, j) order, as
    the cycle predicts it: 5/9 from the die it favors to the other.

    The walk is :func:`metadice.sweep.sweep_pairs`'s: for die i and each
    level, deepest first, i's block beats its successor block and loses to
    the one after it, which only a trit-0 block has as a later sibling.
    """
    five_ninths = outcome(5, 0).win
    sizes = [3 ** p for p in range(depth)]
    edges: list[Edge] = []
    for i, w in enumerate(words):
        for size in sizes:
            trit = i // size % 3
            if trit == 2:
                continue
            nxt = i - i % size + size
            edges.extend(Edge(w, v, five_ninths) for v in words[nxt : nxt + size])
            if trit == 0:
                later = words[nxt + size : nxt + 2 * size]
                edges.extend(Edge(v, w, five_ninths) for v in later)
    return edges


def _node_names(graph: DominanceGraph) -> dict[Prefix, str]:
    return {prefix: node_name(prefix, graph.depth) for prefix in graph.nodes}


def _sorted_edges(graph: DominanceGraph) -> list[Edge]:
    """The edges in (source, target) order, compared as node positions."""
    position = {prefix: k for k, prefix in enumerate(sorted(graph.nodes))}
    n = len(position)
    return sorted(
        graph.edges, key=lambda e: position[e.source] * n + position[e.target]
    )


def _labels(edges: Sequence[Edge]) -> dict[int, str]:
    """Each probability's text, keyed by the id of its object: the edges
    share a few ``Fraction`` objects, which are slow to hash and to print."""
    labels: dict[int, str] = {}
    for edge in edges:
        if id(edge.probability) not in labels:
            labels[id(edge.probability)] = str(edge.probability)
    return labels


def to_dot(graph: DominanceGraph) -> str:
    """Byte-deterministic DOT text: sorted nodes, then sorted edges."""
    names, labels = _node_names(graph), _labels(graph.edges)
    lines = ["digraph dominance {"]
    lines.extend(f'  "{names[prefix]}";' for prefix in sorted(graph.nodes))
    lines.extend(
        f'  "{names[source]}" -> "{names[target]}"'
        f' [label="{labels[id(probability)]}"];'
        for source, target, probability in _sorted_edges(graph)
    )
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: DominanceGraph) -> dict:
    names, labels = _node_names(graph), _labels(graph.edges)
    return {
        "depth": graph.depth,
        "level": graph.level,
        "full": graph.full,
        "nodes": [names[prefix] for prefix in sorted(graph.nodes)],
        "edges": [
            {
                "from": names[source],
                "to": names[target],
                "probability": labels[id(probability)],
            }
            for source, target, probability in _sorted_edges(graph)
        ],
    }


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
        return Fraction(self.numerator, self.denominator)

    @property
    def decimal(self) -> str:
        return "0." + self.digits


def normalized_values(family: DiceFamily) -> tuple[NormalizedPoint, ...]:
    """All 3 * 3^depth faces of a family as points in (0, 1).

    Point order follows (die number, rank); values are order-isomorphic to
    the positional face comparison.
    """
    scale = 10 ** family.depth
    points = []
    for number, (word, faces) in enumerate(zip(family.words, family.rank_faces), 1):
        for rank, digits in enumerate(faces):
            code = int(digits)
            common = gcd(code, scale)
            points.append(
                NormalizedPoint(
                    word, number, rank, digits, code // common, scale // common
                )
            )
    return tuple(points)


def _word_texts(points: Sequence[NormalizedPoint]) -> dict[Word, str]:
    """Each distinct word's trits as text, written once for its three points."""
    return {w: "".join(map(str, w)) for w in dict.fromkeys(p.word for p in points)}


def points_to_csv(points: Sequence[NormalizedPoint]) -> str:
    """One row per point; no field can hold a comma, quote or line break,
    so rows need no CSV quoting."""
    words = _word_texts(points)
    rows = ["word,paper_number,rank,decimal,numerator,denominator\n"]
    rows.extend(
        f"{words[word]},{number},{rank},0.{digits},{numerator},{denominator}\n"
        for word, number, rank, digits, numerator, denominator in points
    )
    return "".join(rows)


def points_to_json(points: Sequence[NormalizedPoint]) -> list[dict]:
    words = _word_texts(points)
    return [
        {
            "word": words[word],
            "paper_number": number,
            "rank": rank,
            "decimal": "0." + digits,
            "numerator": numerator,
            "denominator": denominator,
        }
        for word, number, rank, digits, numerator, denominator in points
    ]
