"""Dominance graphs, DOT/JSON serialization, normalized point emission."""

import csv
import hashlib
import io
import json
import random
import re
from fractions import Fraction
from functools import cache
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from conftest import (
    assert_same_text,
    die_of,
    face_digits,
    level1_failed_family,
    random_rank_faces,
    valid_stacks,
)
from metadice.cli import family_json_text
from metadice.dice import duel
from metadice.export import (
    DominanceGraph,
    Edge,
    build_graph,
    family_csv,
    graph_dot,
    graph_json_text,
    graph_rows,
    graph_to_json,
    node_name,
    normalized_values,
    points_json_text,
    points_to_csv,
    points_to_json,
    to_dot,
)
from metadice.hierarchy import (
    DiceFamily,
    FamilyFormatError,
    die_number,
    family_from_rows,
    family_to_json,
    generate,
    predicted_winner,
    verify_family,
)
from metadice.loshu import parse_stack, preset_stack, walk_dice
from metadice.sweep import sweep_pairs, unpack
from test_hierarchy import (
    ZERO_DIGIT_STACK,
    block_rotated_stack,
    certificate_families,
    frozen,
)

FIVE_NINTHS = Fraction(5, 9)

PAPER1 = generate(preset_stack("paper-1"))
PAPER2 = generate(preset_stack("paper-2"))
PAPER3 = generate(preset_stack("paper-3"))


def read_dot(text):
    """Minimal DOT reader: recovers the node and edge sets of our output."""
    lines = text.strip().splitlines()
    assert lines[0] == "digraph dominance {"
    assert lines[-1] == "}"
    nodes, edges = set(), set()
    edge_re = re.compile(r'"([^"]+)" -> "([^"]+)" \[label="([^"]+)"\]')
    node_re = re.compile(r'"([^"]+)"')
    for raw in lines[1:-1]:
        line = raw.strip().rstrip(";")
        if not line:
            continue
        m = edge_re.fullmatch(line)
        if m:
            edges.add((m.group(1), m.group(2), m.group(3)))
        else:
            m = node_re.fullmatch(line)
            assert m, f"unparseable DOT line: {raw!r}"
            nodes.add(m.group(1))
    return nodes, edges


class TestBuildGraph:
    def test_base_cycle(self):
        graph = build_graph(PAPER1, 1)
        assert [node_name(n, 1) for n in graph.nodes] == ["D1", "D2", "D3"]
        assert [(e.source, e.target) for e in graph.edges] == [
            ((0,), (1,)),
            ((1,), (2,)),
            ((2,), (0,)),
        ]
        assert all(e.probability == FIVE_NINTHS for e in graph.edges)

    def test_deep_family_top_view(self):
        graph = build_graph(PAPER3, 1)
        assert len(graph.nodes) == 3 and len(graph.edges) == 3
        assert all(e.probability == FIVE_NINTHS for e in graph.edges)

    def test_level_2_sibling_cycles(self):
        graph = build_graph(PAPER2, 2)
        assert len(graph.nodes) == 9 and len(graph.edges) == 9
        for head in ((0,), (1,), (2,)):
            cycle = {
                (e.source, e.target) for e in graph.edges if e.source[:1] == head
            }
            assert cycle == {
                (head + (0,), head + (1,)),
                (head + (1,), head + (2,)),
                (head + (2,), head + (0,)),
            }

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_sibling_edge_count(self, level):
        graph = build_graph(PAPER3, level)
        assert len(graph.edges) == 3 ** level
        assert len(graph.nodes) == 3 ** level

    def test_full_graph_edge_count(self):
        graph = build_graph(PAPER2, full=True)
        assert len(graph.edges) == 9 * 8 // 2
        assert all(e.probability == FIVE_NINTHS for e in graph.edges)

    def test_full_graph_depth_1(self):
        graph = build_graph(PAPER1, full=True)
        assert len(graph.edges) == 3

    @pytest.mark.parametrize("level", [1, 2])
    def test_full_graph_refuses_a_level(self, level):
        """Even the level a full graph reports is refused, as the CLI's
        --level and --full-graph exclude each other."""
        with pytest.raises(ValueError, match="full graph has no level"):
            build_graph(PAPER2, level, full=True)
        with pytest.raises(ValueError, match="full graph has no level"):
            graph_rows(PAPER2, level, full=True)

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            build_graph(PAPER2, 3)
        with pytest.raises(ValueError):
            build_graph(PAPER2, 0)


def test_graphs_match_duel_oracle_on_random_families():
    """Both graph modes against duel() on the dice themselves, and the
    sibling rows the writers read too. Faces use digits 1-3 only, so ties
    and edges against the cycle occur."""
    ties = reversed_edges = 0
    for depth in (1, 2, 3, 4):
        rng = random.Random(321 + depth)
        rank_faces = random_rank_faces(rng, depth, high=3)
        family = DiceFamily(depth, rng.randint(1, 3), rank_faces)
        words = family.words
        dice = [die_of(family, i) for i in range(family.size)]

        full = build_graph(family, full=True)
        assert list(full.edges) == sorted(full.edges)
        pairs = list(combinations(range(family.size), 2))
        assert len(full.edges) == len(pairs)
        by_pair = sorted(full.edges, key=lambda e: sorted((e.source, e.target)))
        for (i, j), edge in zip(pairs, by_pair):
            r = duel(dice[i], dice[j])
            if r.loss > r.win:
                assert (edge.source, edge.target, edge.probability) == (
                    words[j], words[i], r.loss
                )
            else:
                assert (edge.source, edge.target, edge.probability) == (
                    words[i], words[j], r.win
                )
            ties += r.tie > 0
            reversed_edges += edge.source != predicted_winner(words[i], words[j])

        for level in range(1, depth + 1):
            graph = build_graph(family, level)
            pad = (0,) * (depth - level)
            assert sorted(e.source for e in graph.edges) == sorted(graph.nodes)
            for edge in graph.edges:
                assert edge.target == edge.source[:-1] + ((edge.source[-1] + 1) % 3,)
                rep = [die_number(p + pad) - 1 for p in (edge.source, edge.target)]
                assert edge.probability == duel(dice[rep[0]], dice[rep[1]]).win
            prefixes = list(product((0, 1, 2), repeat=level))
            rows = graph_rows(family, level)
            if level == depth:
                assert rows.names == [f"D{die_number(p)}" for p in prefixes]
            else:
                assert rows.names == ["".join(map(str, p)) for p in prefixes]
            # one edge out of every node, in node order, around its cycle
            rows = list(rows.rows)
            assert [source for source, _, _, _ in rows] == list(range(3 ** level))
            for source, target, end, label in rows:
                assert end == target + 1
                a, b = prefixes[source], prefixes[target]
                assert b == a[:-1] + ((a[-1] + 1) % 3,)
                rep = [die_number(p + pad) - 1 for p in (a, b)]
                assert label == str(duel(dice[rep[0]], dice[rep[1]]).win)
    assert ties and reversed_edges


def sweep_graph_edges(family):
    """(source, target, probability) of every full-graph edge, in (i, j)
    order, from the raw counts of the all-pairs sweep."""
    _, failures = sweep_pairs(family.rank_faces, family.depth)
    fields = (unpack(record, family.depth) for record in failures)
    missed = {(i, j): (wins, ties) for i, j, _, wins, ties in fields}
    words = family.words
    edges = []
    for i, j in combinations(range(family.size), 2):
        w, v = words[i], words[j]
        expected = (5 if predicted_winner(w, v) == w else 4, 0)
        wins, ties = missed.get((i, j), expected)
        if 9 - wins - ties > wins:
            edges.append((v, w, Fraction(9 - wins - ties, 9)))
        else:
            edges.append((w, v, Fraction(wins, 9)))
    return edges


def paper3_single_faults(count, seed=4242):
    """A sample of the one-digit alterations of paper-3 that still form a
    family."""
    rng = random.Random(seed)
    sites = list(product(range(27), range(3), range(3), range(10)))
    for i, rank, pos, digit in rng.sample(sites, count):
        faces = [list(map(list, die)) for die in PAPER3.rank_faces]
        faces[i][rank][pos] = str(digit)
        yield 3, frozen(faces)


@cache
def corpus():
    """Families on every verification path, with flipped and tied edges:
    the certificate corpus, single faults of paper-3, a failed level-1
    table, and the presets with their stacks."""
    faces = [(d, f) for d, f, _ in certificate_families()]
    faces += paper3_single_faults(60)
    families = []
    for depth, rank_faces in faces:
        try:
            families.append(DiceFamily(depth, 2, rank_faces))
        except FamilyFormatError:
            continue  # an altered digit repeated a face
    families.append(level1_failed_family())
    families += [PAPER1, generate(PAPER2.stack, 3), generate(PAPER3.stack, 1)]
    return tuple(families)


def test_full_graph_matches_the_sweep_on_every_path():
    """The full graph takes its failing pairs from the path verify runs;
    on every path it equals the graph drawn from the sweep's own counts,
    and so do the DOT text written straight from the row walk and the
    JSON document."""
    methods = set()
    flipped = tied = 0
    for family in corpus():
        edges = sweep_graph_edges(family)
        want = sorted(edges)
        graph = build_graph(family, full=True)
        assert [(e.source, e.target, e.probability) for e in graph.edges] == want
        oracle = DominanceGraph(
            family.depth, family.depth, True, family.words,
            tuple(Edge(*edge) for edge in edges),
        )
        dot = "".join(graph_dot(graph_rows(family, full=True)))
        assert_same_text(dot, to_dot(oracle))
        assert graph_to_json(graph) == graph_to_json(oracle)
        report = verify_family(family)
        methods.add(report.method)
        flipped += sum(predicted_winner(w, v) != w for w, v, _ in want)
        tied += sum(unpack(record, family.depth)[4] > 0 for record in report.records)
    assert methods == {"certificate", "localized"}
    assert flipped and tied


def indented(doc):
    return json.dumps(doc, indent=2) + "\n"


class TestOnePassWriters:
    """The family document and the points, written from the rank faces,
    and the graphs, written from their rows, are the record path's text
    byte for byte: the graphs at every sibling level and in full."""

    @staticmethod
    def assert_match_records(family):
        fields = family.depth, family.multiplicity, family.stack
        text = "".join(family_json_text(*fields, family.rank_faces))
        assert_same_text(text, indented(family_to_json(family)))
        points = normalized_values(family)
        text = "".join(family_csv(family.depth, family.rank_faces))
        assert_same_text(text, points_to_csv(points))
        text = "".join(points_json_text(family.depth, family.rank_faces))
        assert_same_text(text, indented(points_to_json(points)))
        scopes = [(level, False) for level in range(1, family.depth + 1)]
        for level, full in scopes + [(None, True)]:
            graph = build_graph(family, level, full=full)
            dot = "".join(graph_dot(graph_rows(family, level, full=full)))
            assert_same_text(dot, to_dot(graph))
            text = "".join(graph_json_text(graph_rows(family, level, full=full)))
            assert_same_text(text, indented(graph_to_json(graph)))

    def test_corpus(self):
        for family in corpus():
            self.assert_match_records(family)

    @given(valid_stacks(max_depth=5), st.integers(1, 3))
    def test_random_stacks(self, stack, multiplicity):
        self.assert_match_records(generate(stack, multiplicity))

    @pytest.mark.parametrize(
        "name, depth",
        [("paper-1", None), ("paper-2", None), ("paper-3", None)]
        + [("uniform", depth) for depth in range(1, 6)],
    )
    def test_presets(self, name, depth):
        self.assert_match_records(generate(preset_stack(name, depth)))

    @pytest.mark.parametrize("depth", [7, 8])
    def test_rotated_blocks_from_the_walk(self, depth):
        """Written from the walk of a stack of several 729-die blocks, whose
        rotations select trits above and inside the blocks, the points and
        the family document are the record path's text: faces that start
        with digit 0 lose it in their numerators, and faces that end in 0
        or 5 reduce their fractions."""
        stack = zero_digit_rotated_stack(depth)
        family = generate(stack, 3)
        faces = [face for die in family.rank_faces for face in die]
        assert any(face[0] == "0" for face in faces)
        assert any(face[-1] in "05" for face in faces)
        points = normalized_values(family)
        text = "".join(family_csv(depth, walk_dice(stack)))
        assert_same_text(text, points_to_csv(points))
        text = "".join(points_json_text(depth, walk_dice(stack)))
        assert_same_text(text, indented(points_to_json(points)))
        text = "".join(family_json_text(depth, 3, stack, walk_dice(stack)))
        assert_same_text(text, indented(family_to_json(family)))


def zero_digit_rotated_stack(depth):
    """A stack of the Lo Shu tables with digit 1 lowered to 0, whose level
    j is unrotated, rotated by the last trit above the 729-die blocks or
    rotated by trit j - 1, inside the block from depth - 4 on, as j % 3 is
    0, 1 or 2. Every table holds a 0 and a 5."""
    tables = ("2,8,5;9,6,3;4,0,7", "2,9,4;0,8,6;3,7,5", "2,4,9;0,6,8;3,5,7")
    lines = ["2,4,9;0,6,8;3,5,7"]
    for level in range(2, depth + 1):
        rotation = ("", f" rot=w{depth - 6}", f" rot=w{level - 1}")[level % 3]
        lines.append(tables[level % 3] + rotation)
    return parse_stack("\n".join(lines))


def digest(pieces):
    """The SHA-256 of the joined pieces, read one at a time: a depth-7 full
    graph's text is never held whole."""
    hasher = hashlib.sha256()
    for piece in pieces:
        hasher.update(piece.encode())
    return hasher.hexdigest()


class TestStackGraphs:
    """A validated stack's graph is drawn from its depth alone. At every
    sibling level and in full, its DOT and JSON are the family path's text
    for ``generate(stack)``, whose sibling labels are read off its dice and
    whose full view checks its pairs."""

    @staticmethod
    def assert_graphs_match_family(stack):
        family = generate(stack)
        scopes = [(level, False) for level in range(1, stack.depth + 1)]
        for level, full in scopes + [(None, True)]:
            for write in (graph_dot, graph_json_text):
                got = digest(write(graph_rows(stack, level, full=full)))
                want = digest(write(graph_rows(family, level, full=full)))
                assert got == want, (write.__name__, level, full)

    @given(valid_stacks(max_depth=5))
    def test_random_stacks(self, stack):
        self.assert_graphs_match_family(stack)

    @pytest.mark.parametrize(
        "name, depth",
        [("paper-1", None), ("paper-2", None), ("paper-3", None)]
        + [("uniform", depth) for depth in range(1, 7)],
    )
    def test_presets(self, name, depth):
        self.assert_graphs_match_family(preset_stack(name, depth))

    @pytest.mark.parametrize(
        "stack",
        [
            ZERO_DIGIT_STACK,
            zero_digit_rotated_stack(7),
            block_rotated_stack(7, "both"),
        ],
        ids=["zero-digit-4", "zero-digit-rotated-7", "block-rotated-7"],
    )
    def test_rotated_and_zero_digit_stacks(self, stack):
        self.assert_graphs_match_family(stack)

    def test_stack_graph_equals_the_record_path(self):
        """The runs expanded are the record path's edges, every one 5/9."""
        stack = preset_stack("uniform", 4)
        for level, full in [(1, False), (3, False), (None, True)]:
            graph = build_graph(stack, level, full=full)
            assert graph == build_graph(generate(stack), level, full=full)
            assert {edge.probability for edge in graph.edges} == {FIVE_NINTHS}
            text = "".join(graph_dot(graph_rows(stack, level, full=full)))
            assert_same_text(text, to_dot(graph))
            text = "".join(graph_json_text(graph_rows(stack, level, full=full)))
            assert_same_text(text, indented(graph_to_json(graph)))


def test_full_graph_runs_hold_at_most_nine_edges():
    """Each full-graph row is one source's run of 1 to 9 consecutive
    targets, rows in (source, target) order, and together they are every
    pair once; a run under any label but 5/9 holds one edge. On a passing
    and on a failing family, whose failing pairs cut 5/9 runs apart."""
    for family in (generate(preset_stack("uniform", 4)), level1_failed_family(4)):
        rows = list(graph_rows(family, full=True).rows)
        assert all(1 <= end - first <= 9 for _, first, end, _ in rows)
        assert all(end - first == 1 for _, first, end, label in rows if label != "5/9")
        edges = [(s, t) for s, first, end, _ in rows for t in range(first, end)]
        assert edges == sorted(edges)
        pairs = sorted(tuple(sorted(edge)) for edge in edges)
        assert pairs == list(combinations(range(family.size), 2))


class TestDot:
    def test_cycle_structure(self):
        nodes, edges = read_dot(to_dot(build_graph(PAPER1, 1)))
        assert nodes == {"D1", "D2", "D3"}
        assert edges == {
            ("D1", "D2", "5/9"),
            ("D2", "D3", "5/9"),
            ("D3", "D1", "5/9"),
        }

    def test_prefix_names_below_full_depth(self):
        nodes, edges = read_dot(to_dot(build_graph(PAPER3, 2)))
        assert nodes == {"".join(p) for p in (f"{a}{b}" for a in "012" for b in "012")}
        assert len(edges) == 9

    def test_full_depth_sibling_cycles(self):
        nodes, edges = read_dot(to_dot(build_graph(PAPER3, 3)))
        assert len(nodes) == 27 and len(edges) == 27
        assert ("D1", "D2", "5/9") in edges
        assert ("D3", "D1", "5/9") in edges

    def test_round_trip_matches_graph(self):
        graph = build_graph(PAPER2, 2)
        nodes, edges = read_dot(to_dot(graph))
        assert nodes == {node_name(n, graph.depth) for n in graph.nodes}
        assert edges == {
            (
                node_name(e.source, graph.depth),
                node_name(e.target, graph.depth),
                str(e.probability),
            )
            for e in graph.edges
        }

    def test_byte_deterministic(self):
        one = to_dot(build_graph(generate(preset_stack("paper-3")), 1))
        two = to_dot(build_graph(generate(preset_stack("paper-3")), 1))
        assert one == two

    def test_graph_json_shape(self):
        doc = graph_to_json(build_graph(PAPER1, 1))
        assert doc["nodes"] == ["D1", "D2", "D3"]
        assert doc["edges"][0] == {"from": "D1", "to": "D2", "probability": "5/9"}


class TestNormalizedValues:
    def test_place_value_reading(self):
        points = normalized_values(PAPER3)
        by_key = {(p.word, p.rank): p for p in points}
        d2_low = by_key[((0, 0, 1), 0)]
        assert d2_low.decimal == "0.221"
        assert d2_low.value == Fraction(221, 1000)

    def test_depth_one_place_value(self):
        points = normalized_values(PAPER1)
        top = [p for p in points if p.word == (0,) and p.rank == 2][0]
        assert top.decimal == "0.9"
        assert top.value == Fraction(9, 10)

    def test_deep_family_point_set(self):
        points = normalized_values(PAPER3)
        assert len(points) == 81
        values = [p.value for p in points]
        assert len(set(values)) == 81
        assert all(Fraction(1, 10) < v < 1 for v in values)

    def test_order_isomorphic_to_face_comparison(self):
        points = normalized_values(PAPER3)
        for a, b in combinations(points, 2):
            assert (a.value < b.value) == (a.face < b.face)
            assert (a.value == b.value) == (a.face == b.face)

    @given(face_digits(3), face_digits(3))
    def test_order_isomorphism_random_faces(self, f, g):
        scale = 10 ** 3

        def value(face):
            code = 0
            for d in face:
                code = code * 10 + d
            return Fraction(code, scale)

        assert (value(f) < value(g)) == (f < g)

    def test_csv_layout(self):
        text = points_to_csv(normalized_values(PAPER1))
        lines = text.splitlines()
        assert lines[0] == "word,paper_number,rank,decimal,numerator,denominator"
        assert lines[1] == "0,1,0,0.2,1,5"
        assert lines[3] == "0,1,2,0.9,9,10"
        assert len(lines) == 1 + 9

    @staticmethod
    def csv_writer_rendering(family):
        """The CSV text ``csv.writer`` gives for a family's faces, every
        field worked out from its words and rank faces."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["word", "paper_number", "rank", "decimal", "numerator", "denominator"]
        )
        for word, faces in zip(family.words, family.rank_faces):
            for rank, face in enumerate(faces):
                digits = "".join(str(d) for d in face)
                value = Fraction(int(digits), 10 ** len(digits))
                writer.writerow([
                    "".join(str(t) for t in word), die_number(word), rank,
                    "0." + digits, value.numerator, value.denominator,
                ])
        return out.getvalue()

    @given(valid_stacks(max_depth=5))
    def test_csv_matches_csv_writer(self, stack):
        family = generate(stack)
        text = points_to_csv(normalized_values(family))
        assert text == self.csv_writer_rendering(family)

    def test_csv_leading_zeros(self):
        """Faces 000 to 080: leading zeros stay in the decimal, and the
        values reduce, 0.012 to 3/250 and 0.000 to 0/1."""
        rows = [[f"{3 * n + r:03d}" for r in range(3)] for n in range(27)]
        family = family_from_rows(rows)
        points = normalized_values(family)
        by_face = {p.decimal: p for p in points}
        assert (by_face["0.012"].numerator, by_face["0.012"].denominator) == (3, 250)
        assert (by_face["0.000"].numerator, by_face["0.000"].denominator) == (0, 1)
        assert by_face["0.012"].value == Fraction(3, 250)
        assert points_to_csv(points) == self.csv_writer_rendering(family)
        assert "".join(family_csv(3, family.rank_faces)) == points_to_csv(points)

    def test_csv_deterministic(self):
        assert points_to_csv(normalized_values(PAPER2)) == points_to_csv(
            normalized_values(generate(preset_stack("paper-2")))
        )
