"""Family generation, the winner rule, verification by certificate and by
localized scan against the all-pairs sweep, Monte Carlo."""

import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    LEADING_POOL,
    RANKWISE_POOL,
    die_of,
    naive_leading_counts,
    naive_rankwise_counts,
    random_rank_faces,
    run_cli_main,
    valid_stacks,
)
from metadice import hierarchy
from metadice.dice import Die, DuelResult, duel, monte_carlo
from metadice.hierarchy import (
    DiceFamily,
    FamilyFormatError,
    PairFailure,
    die_number,
    face_value,
    family_from_json,
    family_from_rows,
    family_to_json,
    generate,
    predicted_winner,
    verify_family,
    word_of,
)
from metadice.loshu import (
    RESIDUE_ROWS,
    SORTED_ROWS,
    AssignmentStack,
    LengthMismatchError,
    LevelRule,
    format_stack,
    parse_stack,
    preset_stack,
    trits,
    verify_stack,
    walk_dice,
)
from metadice.certificate import certify
from metadice.sweep import LevelSummary, failure_rows, pack, scan, siblings
from metadice.sweep import record_pairs, sweep_pairs, unpack

FIVE_NINTHS = Fraction(5, 9)
FOUR_NINTHS = Fraction(4, 9)

PAPER3 = generate(preset_stack("paper-3"))


def expected_result(family, i, j):
    """Brute-force pass/fail for one pair, straight from duel()."""
    w, v = family.words[i], family.words[j]
    r = duel(die_of(family, i), die_of(family, j))
    winner = predicted_winner(w, v)
    if winner == w:
        return (r.win, r.tie, r.loss) == (FIVE_NINTHS, 0, FOUR_NINTHS)
    return (r.win, r.tie, r.loss) == (FOUR_NINTHS, 0, FIVE_NINTHS)


def brute_failure_pairs(family):
    return {
        (family.words[i], family.words[j])
        for i, j in combinations(range(family.size), 2)
        if not expected_result(family, i, j)
    }


def first_level(i, j, depth):
    """The 1-based level of the first trit at which the words of dice i and
    j differ, read from ``word_of``."""
    w, v = word_of(i + 1, depth), word_of(j + 1, depth)
    return 1 + next(p for p, (a, b) in enumerate(zip(w, v)) if a != b)


def assert_levels_are_first_differing_trits(records, depth):
    for record in records:
        i, j, level, _, _ = unpack(record, depth)
        assert level == first_level(i, j, depth), (i, j, level)


def test_record_layout_round_trips_and_sorts_as_pairs():
    """Every pair i < j at depths 1-3, at every level, with every (wins,
    ties) of a 3x3 grid, packs into a record that unpacks to its fields,
    whose pair :func:`record_pairs` reads alike, and sorted records come in
    (i, j) order."""
    rng = random.Random(26)
    for depth in (1, 2, 3):
        fields = [
            (i, j, level, wins, ties)
            for i, j in combinations(range(3 ** depth), 2)
            for level in range(1, depth + 1)
            for wins in range(10)
            for ties in range(10 - wins)
        ]
        records = [pack(*f, depth) for f in fields]
        assert [unpack(record, depth) for record in records] == fields
        assert list(record_pairs(records, depth)) == [f[:2] for f in fields]
        rng.shuffle(records)
        pairs = [unpack(record, depth)[:2] for record in sorted(records)]
        assert pairs == sorted(pairs)
        assert len(set(records)) == len(fields)


def test_scan_before_a_die_records_the_lower_die():
    """A scan over a sibling block before die i gives the records that
    ``sweep_pairs`` gives for those pairs, each the record of its lower
    die, at every level of random depth-3 dice that fail pairs at every
    level, on the pairs the cycle favours either die of."""
    failing = set()
    for seed in (25, 26, 27):
        rank_faces = random_rank_faces(random.Random(seed), 3)
        _, swept = sweep_pairs(rank_faces, 3)
        faces = [tuple(map(int, die)) for die in rank_faces]
        for i, level in product(range(27), (1, 2, 3)):
            size = 3 ** (3 - level)
            for first, expected in siblings(i, size):
                if first > i:
                    continue
                records = []
                scan(faces, i, first, first + size, expected, level, records)
                pairs = {(j, i) for j in range(first, first + size)}
                assert records == [r for r in swept if unpack(r, 3)[:2] in pairs]
                if records:
                    failing.add((level, expected))
    assert failing == {(level, e) for level in (1, 2, 3) for e in (4, 5)}


def test_siblings_is_the_cycle_of_the_words_and_the_records():
    """For every two dice i != j of a family at depths 1-4, :func:`siblings`
    at the level where they first differ names j's block, owing i 5 wins
    when the words favour i and 4 when they favour j; and the record of
    each pair i < j names that winner in :func:`failure_rows`."""
    for depth in range(1, 5):
        n = 3 ** depth
        words = [word_of(i + 1, depth) for i in range(n)]
        records, winners = [], []
        for i, j in product(range(n), repeat=2):
            if i == j:
                continue
            level = first_level(min(i, j), max(i, j), depth)
            size = 3 ** (depth - level)
            owed = dict(siblings(i, size))
            assert sorted(owed.values()) == [4, 5]
            winner = i if owed[j - j % size] == 5 else j
            assert words[winner] == predicted_winner(words[i], words[j]), (i, j)
            if i < j:
                records.append(pack(i, j, level, 4, 0, depth))
                winners.append(winner)
        assert [row[2] for row in failure_rows(records, depth)] == winners


def sweep_only_report(family):
    """Pair counts, per-level summaries and failures as the all-pairs sweep
    alone finds them, decoded here rather than by ``verify_family``; each
    record's level must be its words' first differing trit."""
    checked, raw = sweep_pairs(family.rank_faces, family.depth)
    failures, fail_levels = [], Counter()
    for record in raw:
        i, j, level, wins, ties = unpack(record, family.depth)
        assert level == first_level(i, j, family.depth), (i, j, level)
        fail_levels[level] += 1
        w, v = family.words[i], family.words[j]
        observed = DuelResult(
            Fraction(wins, 9), Fraction(ties, 9), Fraction(9 - wins - ties, 9)
        )
        failures.append(PairFailure(w, v, predicted_winner(w, v), observed))
    return SimpleNamespace(
        pairs_checked=sum(checked),
        per_level=tuple(
            LevelSummary(level, pairs, fail_levels[level])
            for level, pairs in enumerate(checked, 1)
        ),
        records=tuple(raw),
        failures=tuple(failures),
        passed=not failures,
    )


def assert_same_outcome(report, sweep_report):
    assert report.pairs_checked == sweep_report.pairs_checked
    assert report.per_level == sweep_report.per_level
    assert report.records == sweep_report.records
    assert report.failures == sweep_report.failures


def tree_rank_faces(depth, table_at):
    """Rank faces of the family whose node at ``prefix`` on ``level`` has
    the table ``table_at(level, prefix)``, indexed [subset][rank]."""
    return tuple(
        tuple(
            "".join(
                str(table_at(j + 1, word[:j])[t][rank]) for j, t in enumerate(word)
            )
            for rank in range(3)
        )
        for word in product(range(3), repeat=depth)
    )


def random_tree_faces(rng, depth, odd_node=None, odd_table=None):
    """A family with its own pool table at every node, leading at level 1
    and rank-wise deeper, except ``odd_table`` at the ``odd_node``
    (level, prefix)."""
    tables = {}

    def table_at(level, prefix):
        if (level, prefix) == odd_node:
            return odd_table
        if (level, prefix) not in tables:
            pool = LEADING_POOL if level == 1 else RANKWISE_POOL
            tables[level, prefix] = rng.choice(pool)
        return tables[level, prefix]

    return tree_rank_faces(depth, table_at)


def odd_table(rng, level):
    """A node table for ``level`` that no stack holds: nine distinct digits,
    which mostly fail the level's predicate, or digits that repeat but pass
    it."""

    def table(digits):
        return (tuple(digits[0:3]), tuple(digits[3:6]), tuple(digits[6:9]))

    if rng.random() < 0.5:
        return table(rng.sample(range(1, 10), 9))
    counts, want = (
        (naive_leading_counts, [5, 5, 5])
        if level == 1
        else (naive_rankwise_counts, [2, 2, 2])
    )
    while True:
        repeating = table([rng.randint(1, 9) for _ in range(9)])
        if counts(repeating) == want:
            return repeating


def frozen(faces):
    """Mutable ``[die][rank][level]`` digit lists back to rank faces."""
    return tuple(tuple(map("".join, die)) for die in faces)


def certificate_families():
    """(depth, rank faces, whether the certificate must prove them) around
    the certificate's edges: node-table trees, which it must prove, trees
    with one altered digit, with digits below level 1 scrambled or with one
    odd node table, and random garbage."""
    rng = random.Random(5309)
    for depth in (1, 2, 3, 4):
        for _ in range(8):
            yield depth, random_tree_faces(rng, depth), True
        for _ in range(12):
            faces = [list(map(list, die)) for die in random_tree_faces(rng, depth)]
            die = faces[rng.randrange(3 ** depth)]
            rank, pos = rng.randrange(3), rng.randrange(depth)
            die[rank][pos] = rng.choice(
                [str(d) for d in range(10) if str(d) != die[rank][pos]]
            )
            yield depth, frozen(faces), False
        for _ in range(12):
            level = rng.randint(1, depth)
            prefix = tuple(rng.randrange(3) for _ in range(level - 1))
            odd = odd_table(rng, level)
            yield depth, random_tree_faces(rng, depth, (level, prefix), odd), False
        for high in (3, 9):
            for _ in range(3 if depth < 4 else 1):
                yield depth, random_rank_faces(rng, depth, high), False
    # many stray dice and failed nodes under a valid level-1 table
    rng = random.Random(8642)
    for depth in (2, 3, 4):
        for _ in range(6):
            faces = [list(map(list, die)) for die in random_tree_faces(rng, depth)]
            rate, high = rng.choice((0.05, 0.3, 1.0)), rng.choice((3, 9))
            for face in (face for die in faces for face in die):
                for pos in range(1, depth):
                    if rng.random() < rate:
                        face[pos] = str(rng.randint(1, high))
            yield depth, frozen(faces), False


def level1_table_fails(rank_faces):
    """Whether the level-1 table, each level-1 block's most common leading
    digit at each rank (the first seen on a tie), is not nine distinct
    digits that win 5 of 9 around the cycle."""
    size = len(rank_faces) // 3
    table = [
        [
            Counter(faces[rank][0] for faces in rank_faces[lo : lo + size])
            .most_common(1)[0][0]
            for rank in range(3)
        ]
        for lo in range(0, 3 * size, size)
    ]
    digits = {digit for row in table for digit in row}
    return len(digits) < 9 or naive_leading_counts(table) != [5, 5, 5]


def crowded_block_family():
    """Uniform depth-3 dice whose level-1 block 0 takes rank-1 faces 2 +
    the rank-2 tail, which repeats digit 2 across that block's ranks."""
    faces = [list(die) for die in generate(preset_stack("uniform", 3)).rank_faces]
    for die in faces[:9]:
        die[1] = "2" + die[2][1:]
    return DiceFamily(3, 2, tuple(map(tuple, faces)))


def crowded_over_valid_table_family():
    """A depth-2 family whose level-1 table repeats digit 2 across the
    ranks of subset 0, above a valid node (0) table that lets D1 beat D2
    6/9."""
    crowded = ((2, 2, 9), (1, 6, 8), (3, 5, 7))
    node0 = ((7, 8, 1), (5, 4, 6), (9, 3, 2))
    return DiceFamily(2, 2, tree_rank_faces(
        2,
        lambda level, prefix: (
            crowded if level == 1 else node0 if prefix == (0,) else SORTED_ROWS
        ),
    ))


class TestNumbering:
    def test_examples(self):
        assert die_number((0, 0, 0)) == 1
        assert die_number((1, 0, 0)) == 10
        assert die_number((2, 2, 2)) == 27

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            word_of(28, 3)
        with pytest.raises(ValueError):
            word_of(0, 3)
        with pytest.raises(ValueError, match="^depth must be at least 1$"):
            word_of(1, 0)
        for n, text in ((1.5, r"1\.5"), (2.0, r"2\.0"), (True, "True")):
            message = f"^die number must be an integer, got {text}$"
            with pytest.raises(ValueError, match=message):
                word_of(n, 2)
        with pytest.raises(ValueError, match=r"^depth must be an integer, got 2\.0$"):
            word_of(1, 2.0)

    @given(st.integers(1, 5), st.data())
    def test_round_trip(self, depth, data):
        n = data.draw(st.integers(1, 3 ** depth))
        assert die_number(word_of(n, depth)) == n

    @pytest.mark.parametrize("depth", range(1, 7))
    def test_word_of_is_the_int_form_of_trits(self, depth):
        for n in range(3 ** depth):
            assert word_of(n + 1, depth) == tuple(map(int, trits(n, depth)))

    def test_bool_trits_rejected(self):
        with pytest.raises(ValueError, match="trits must be 0, 1 or 2, got True"):
            die_number((True, False))

    @pytest.mark.parametrize("word", [(1.0,), (0, 2.0), (0.0, 0)])
    def test_float_trits_rejected(self, word):
        with pytest.raises(ValueError, match="trits must be 0, 1 or 2, got [0-9.]+"):
            die_number(word)


class TestPredictedWinner:
    def test_first_position_decides(self):
        assert predicted_winner((0, 1), (2, 0)) == (2, 0)

    def test_last_position_decides(self):
        assert predicted_winner((0, 0, 0), (0, 0, 1)) == (0, 0, 0)

    def test_middle_position_with_duel_confirmation(self):
        w, v = (1, 2, 0), (1, 0, 2)
        assert predicted_winner(w, v) == w
        r = duel(*(die_of(PAPER3, die_number(x) - 1) for x in (w, v)))
        assert (r.win, r.tie, r.loss) == (FIVE_NINTHS, 0, FOUR_NINTHS)

    def test_equal_words(self):
        assert predicted_winner((0, 1), (0, 1)) is None

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            predicted_winner((0,), (0, 1))

    @given(st.integers(1, 4), st.data())
    def test_antisymmetric_irreflexive(self, depth, data):
        trits = st.tuples(*([st.integers(0, 2)] * depth))
        w, v = data.draw(trits), data.draw(trits)
        if w == v:
            assert predicted_winner(w, v) is None
        else:
            winner = predicted_winner(w, v)
            assert winner in (w, v)
            assert winner == predicted_winner(v, w)


class TestFaceValue:
    def test_deep_preset(self):
        assert face_value((0, 0, 0), 1, preset_stack("paper-3")) == "489"

    def test_middle_preset(self):
        assert face_value((0, 1), 2, preset_stack("paper-2")) == "98"

    def test_base(self):
        assert face_value((2,), 0, preset_stack("uniform", 1)) == "3"

    def test_word_length_checked(self):
        with pytest.raises(ValueError):
            face_value((0, 1), 0, preset_stack("paper-3"))

    def test_bool_rank_rejected(self):
        with pytest.raises(ValueError, match="rank must be 0, 1 or 2, got True"):
            face_value((0,), True, preset_stack("paper-1"))

    @pytest.mark.parametrize("word", [(-1,), (True,), (5,), (1.0,)])
    def test_bad_trit_rejected(self, word):
        with pytest.raises(ValueError, match="word trits must be 0, 1 or 2"):
            face_value(word, 0, preset_stack("paper-1"))


class TestGenerate:
    def test_base_family_exact(self):
        family = generate(preset_stack("paper-1"))
        assert tuple(die_of(family, i) for i in range(3)) == (
            Die.from_values([2, 4, 9], 2),
            Die.from_values([1, 6, 8], 2),
            Die.from_values([3, 5, 7], 2),
        )

    def test_uniform_4_shape(self):
        family = generate(preset_stack("uniform", 4), 1)
        assert family.size == 81
        for faces in family.rank_faces:
            assert len(set(faces)) == 3
            assert all(len(f) == 4 for f in faces)

    @given(valid_stacks(max_depth=5), st.integers(1, 3))
    @settings(max_examples=40)
    def test_all_dice_distinct(self, stack, multiplicity):
        """No check in the walk keeps dice apart: two that first differ at
        level p take their level-p digits from different subsets of one
        node table, whose nine digits are distinct."""
        family = generate(stack, multiplicity)
        assert len({die_of(family, i) for i in range(family.size)}) == family.size

    def test_prefix_groups_share_prefix_digits(self):
        for word, faces in zip(PAPER3.words, PAPER3.rank_faces):
            sibling = (word[0], word[1], (word[2] + 1) % 3)
            other = PAPER3.rank_faces[die_number(sibling) - 1]
            for rank in range(3):
                assert faces[rank][:2] == other[rank][:2]

    def test_multiplicity_respected(self):
        family = generate(preset_stack("paper-1"), 3)
        assert all(die_of(family, i).total == 9 for i in range(family.size))

    def test_bad_multiplicity(self):
        with pytest.raises(ValueError):
            generate(preset_stack("paper-1"), 0)

    @pytest.mark.parametrize("multiplicity", [True, 2.5, 0])
    def test_refuses_what_a_family_refuses(self, multiplicity):
        """A multiplicity that :class:`DiceFamily` refuses is refused by
        ``generate`` and ``verify_stack`` with its message, so no family
        document or report holds one."""
        stack = preset_stack("paper-1")
        with pytest.raises(FamilyFormatError) as refused:
            DiceFamily(1, multiplicity, generate(stack).rank_faces)
        for build in (generate, verify_stack):
            with pytest.raises(ValueError) as exc:
                build(stack, multiplicity)
            assert str(exc.value) == str(refused.value)

    @pytest.mark.parametrize("multiplicity", [0, True, 1.5])
    def test_refuses_a_multiplicity_before_it_reads_the_walk(self, multiplicity):
        """``DiceFamily`` reads its dice only once the multiplicity passes,
        so ``generate`` refuses a bad one before the walk yields a die, at
        any depth."""

        def unread_walk(stack):
            raise AssertionError("the walk was read")
            yield

        with pytest.raises(FamilyFormatError) as refused:
            DiceFamily(1, multiplicity, PAPER3.rank_faces[:3])
        with mock.patch.object(hierarchy, "walk_dice", unread_walk):
            with pytest.raises(FamilyFormatError) as exc:
                generate(preset_stack("uniform", 10), multiplicity)
        assert str(exc.value) == str(refused.value)

    @pytest.mark.parametrize(
        "stack",
        [preset_stack(f"paper-{d}") for d in (1, 2, 3)]
        + [preset_stack("uniform", d) for d in (1, 4, 6)],
    )
    def test_trusted_family_passes_the_checked_constructor(self, stack):
        """``generate``'s family, whose dice are valid by construction, is
        built through the checked constructor too; it equals the family
        built from the same fields."""
        for multiplicity in (1, 2, 3):
            family = generate(stack, multiplicity)
            checked = DiceFamily(stack.depth, multiplicity, family.rank_faces, stack)
            assert family == checked
            assert family.words == checked.words

    @given(valid_stacks(max_depth=6), st.integers(1, 3))
    @settings(max_examples=40)
    def test_trusted_family_passes_the_checked_constructor_on_random_stacks(
        self, stack, multiplicity
    ):
        family = generate(stack, multiplicity)
        assert family == DiceFamily(
            stack.depth, multiplicity, family.rank_faces, stack
        )

    def test_walk_holds_little_beside_the_family(self):
        """The walk replaces one rank column of faces at a time and zips the
        dice once, so it peaks at no more than a fifth above the family it
        returns; building each level's dice from the last took a quarter."""
        stack = preset_stack("uniform", 8)
        tracemalloc.start()
        try:
            family = generate(stack)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert family.size == 3 ** 8
        assert peak - held <= held / 5, (held, peak)

    def test_checks_hold_little_beside_the_dice(self):
        """The constructor checks the dice one rank at a time, so on a
        depth-8 walk's dice it peaks under 320 KB above what it holds;
        checking every face at once took some 580 KB."""
        stack = preset_stack("uniform", 8)
        rank_faces = tuple(walk_dice(stack))
        tracemalloc.start()
        try:
            family = DiceFamily(8, 2, rank_faces, stack)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert family.rank_faces is rank_faces
        assert peak - held < 320 * 1024, (held, peak)

    @given(valid_stacks(max_depth=5))
    @settings(max_examples=60)
    def test_matches_per_word_reference(self, stack):
        """Every digit computed per word from the base tables alone, with no
        rotated table, node walk or ``assignment_at``."""

        def digit(word, rule, t, rank):
            shift = 0 if rule.rotate_by is None else word[rule.rotate_by - 1]
            return rule.base[t][(rank + shift) % 3]

        words = list(product(range(3), repeat=stack.depth))
        expected = tuple(
            tuple(
                "".join(
                    str(digit(w, rule, t, rank)) for rule, t in zip(stack.levels, w)
                )
                for rank in range(3)
            )
            for w in words
        )
        assert generate(stack).rank_faces == expected
        for word, faces in zip(words, expected):
            for rank in range(3):
                assert face_value(word, rank, stack) == faces[rank]


def whole_level_walk(stack):
    """Every die's rank faces grown a whole level at a time, one column per
    rank over all the dice of the level, in word order."""
    columns = [[""], [""], [""]]
    for level in range(1, stack.depth + 1):
        prefixes = product((0, 1, 2), repeat=level - 1)
        tables = [stack.assignment_at(level, prefix) for prefix in prefixes]
        for rank in range(3):
            columns[rank] = [
                face + str(table[t][rank])
                for face, table in zip(columns[rank], tables)
                for t in range(3)
            ]
    return tuple(zip(*columns))


def rotated_stack(rng, depth, rotations):
    """A stack of random pool tables whose level j is rotated by the trit at
    position ``rotations[j]``, when it names one."""
    levels = [LevelRule(rng.choice(LEADING_POOL))]
    for level in range(2, depth + 1):
        levels.append(LevelRule(rng.choice(RANKWISE_POOL), rotations.get(level)))
    return AssignmentStack(tuple(levels))


def block_rotated_stack(depth, place):
    """A depth-``depth`` stack whose levels below the top ``depth - 6``
    rotate by a trit of the block's prefix (``above``), by one inside the
    block (``inside``) or by either, level by level (``both``)."""
    top = depth - 6
    rng = random.Random(f"{depth}:{place}")
    rotations = {}
    for level in range(top + 1, depth + 1):
        above = rng.randint(1, top)
        inside = rng.randint(top + 1, level - 1) if level > top + 1 else above
        pick = {"above": above, "inside": inside}.get(place)
        rotations[level] = pick or rng.choice((above, inside))
    return rotated_stack(rng, depth, rotations)


class TestWalkDice:
    """The walk grows the levels above the last six for the whole family
    and each of their nodes into its block of 729 dice; it yields what a
    walk of whole levels and what ``face_value``, word by word, give."""

    @staticmethod
    def assert_walk_matches(stack):
        dice = tuple(walk_dice(stack))
        assert dice == whole_level_walk(stack)
        assert generate(stack).rank_faces == dice
        words = product((0, 1, 2), repeat=stack.depth)
        assert dice == tuple(
            tuple(face_value(word, rank, stack) for rank in range(3))
            for word in words
        )

    @pytest.mark.parametrize(
        "stack",
        [preset_stack(f"paper-{d}") for d in (1, 2, 3)]
        + [preset_stack("uniform", d) for d in range(1, 10)],
    )
    def test_presets(self, stack):
        self.assert_walk_matches(stack)

    @given(valid_stacks(max_depth=8))
    @settings(max_examples=30)
    def test_random_stacks(self, stack):
        self.assert_walk_matches(stack)

    @pytest.mark.parametrize("depth", [7, 8, 9])
    @pytest.mark.parametrize("place", ["above", "inside", "both"])
    def test_rotations_above_and_inside_the_block(self, depth, place):
        """Below the top ``depth - 6`` levels, a rotation points at a trit
        of the block's prefix, above the block, or at one inside it."""
        self.assert_walk_matches(block_rotated_stack(depth, place))

    @pytest.mark.parametrize(
        "stack",
        [preset_stack("paper-3"), preset_stack("uniform", 9)]
        + [
            block_rotated_stack(depth, place)
            for depth in (7, 8, 9)
            for place in ("above", "inside", "both")
        ],
        ids=["paper-3", "uniform-9"]
        + [
            f"rotated-{place}-{depth}"
            for depth in (7, 8, 9)
            for place in ("above", "inside", "both")
        ],
    )
    def test_walk_reads_no_node_table(self, stack, tmp_path, monkeypatch):
        """Each level's tables come from its rule, not from a lookup per
        node: with ``assignment_at`` refusing every call, the walk, the
        family and the commands that write a stack's dice give what they
        gave before."""
        path = tmp_path / "stack.txt"
        path.write_text(format_stack(stack))
        source = ["--stack", str(path), "--allow-large"]
        commands = [
            ["generate", *source, "--format", "json"],
            ["generate", *source, "--format", "text"],
            ["normalize", *source, "--format", "csv"],
            ["normalize", *source, "--format", "json"],
        ]
        if stack == preset_stack("paper-3"):
            commands.append(["tables", "--depth", "3"])

        def outputs():
            return (
                tuple(walk_dice(stack)),
                generate(stack).rank_faces,
                [run_cli_main(argv) for argv in commands],
            )

        before = outputs()
        assert before[0] == whole_level_walk(stack)

        def refused(self, level, prefix):
            raise AssertionError(f"assignment_at({level}, {prefix}) called")

        monkeypatch.setattr(AssignmentStack, "assignment_at", refused)
        assert outputs() == before


class TestFamilyInvariants:
    def test_dice_are_kept_as_tuples(self):
        """Dice given as lists are kept as tuples: the family hashes, equals
        the family of the same dice as tuples, and a later edit to the
        caller's lists changes none of its faces."""
        dice = [["2", "4", "9"], ["1", "6", "8"], ["3", "5", "7"]]
        family = DiceFamily(1, 2, dice)
        as_tuples = DiceFamily(1, 2, tuple(map(tuple, dice)))
        assert family == as_tuples and hash(family) == hash(as_tuples)
        dice[0][0] = "3"
        assert family.rank_faces == (("2", "4", "9"), ("1", "6", "8"), ("3", "5", "7"))

    def test_dice_may_come_as_any_iterable(self):
        """An iterator or generator of dice, as ``generate`` passes its
        walk, builds the family its tuple builds."""
        dice = PAPER3.rank_faces
        for given in (iter(dice), (list(faces) for faces in dice)):
            assert DiceFamily(3, 2, given, PAPER3.stack) == PAPER3

    def test_tuples_are_kept_as_given(self):
        """Dice that are all tuples, as the loaders pass them, are stored
        as they are, with no pass over them to copy."""
        rank_faces = generate(preset_stack("paper-2")).rank_faces
        assert DiceFamily(2, 2, rank_faces).rank_faces is rank_faces

    def test_wrong_size_rejected(self):
        with pytest.raises(FamilyFormatError, match=r"exactly 3\^2 dice"):
            DiceFamily(2, 2, (("11", "22", "33"),))

    def test_duplicate_faces_rejected(self):
        faces = (("2", "2", "9"), ("1", "6", "8"), ("3", "5", "7"))
        with pytest.raises(FamilyFormatError, match=r"D1 \(0\) needs 3 distinct"):
            DiceFamily(1, 2, faces)

    @pytest.mark.parametrize(
        "faces",
        [
            ((1,), (6,), (8,)),  # the old digit-tuple form
            (1, 6, 8),
            (b"1", b"6", b"8"),
            (None, "6", "8"),
            (["1"], "6", "8"),
        ],
        ids=["digit tuples", "ints", "bytes", "None", "unhashable"],
    )
    def test_non_string_faces_rejected(self, faces):
        rank_faces = (("2", "4", "9"), faces, ("3", "5", "7"))
        with pytest.raises(FamilyFormatError, match=r"die D2 \(1\) has a face"):
            DiceFamily(1, 2, rank_faces)

    @pytest.mark.parametrize("die", [None, 249, "249"], ids=["None", "int", "str"])
    def test_die_that_is_not_a_face_sequence_rejected(self, die):
        rank_faces = (("1", "6", "8"), die, ("3", "5", "7"))
        with pytest.raises(FamilyFormatError, match=r"die D2 \(1\) needs 3"):
            DiceFamily(1, 2, rank_faces)

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 8),
                st.integers(0, 2),
                st.sampled_from(
                    ["", "1", "123", "1\u0663", "\u00b2\u00b2", " 1", "1\n"]
                    + [12, b"12", None, ["12"], "sibling", "die"]
                ),
            ),
            max_size=3,
        )
    )
    @example([(4, 0, "sibling")])
    @example([(4, 1, "sibling")])
    @example([(4, 2, "sibling")])
    def test_faces_checked_at_once_as_die_by_die(self, changes):
        """The constructor checks all faces at once and walks the dice only
        to name a bad one: it refuses a family exactly when some die is not
        three distinct strings of ``depth`` ASCII digits."""
        dice = [list(faces) for faces in generate(preset_stack("paper-2")).rank_faces]
        for n, rank, new in changes:
            if len(dice[n]) < 3:  # already cut short
                continue
            if new == "sibling":  # a repeated face
                new = dice[n][(rank + 1) % 3]
            if new == "die":  # a die that is not three faces
                dice[n] = dice[n][:rank]
            else:
                dice[n][rank] = new
        rank_faces = tuple(
            tuple(faces) if n % 2 else faces for n, faces in enumerate(dice)
        )

        def sound(faces):
            face = re.compile("[0-9]{2}")
            digits = all(isinstance(f, str) and face.fullmatch(f) for f in faces)
            return len(faces) == 3 and digits and len(set(faces)) == 3

        if all(map(sound, rank_faces)):
            # kept as tuples, whatever sequences the dice came as
            family = DiceFamily(2, 2, rank_faces)
            assert family.rank_faces == tuple(map(tuple, rank_faces))
        else:
            first = next(n for n, faces in enumerate(rank_faces, 1) if not sound(faces))
            with pytest.raises(FamilyFormatError, match=rf"^die D{first} "):
                DiceFamily(2, 2, rank_faces)

    @pytest.mark.parametrize(
        "depth, multiplicity, message",
        [
            (True, 2, "depth must be an integer, got True"),
            (1.0, 2, "depth must be an integer, got 1.0"),
            (1, "2", "multiplicity must be an integer, got '2'"),
            (1, False, "multiplicity must be an integer, got False"),
        ],
    )
    def test_non_integer_depth_or_multiplicity_rejected(
        self, depth, multiplicity, message
    ):
        faces = (("2", "4", "9"), ("1", "6", "8"), ("3", "5", "7"))
        with pytest.raises(FamilyFormatError, match=message):
            DiceFamily(depth, multiplicity, faces)


class TestVerify:
    def test_depth_2_counts(self):
        report = verify_family(generate(preset_stack("paper-2")))
        assert report.passed
        assert report.pairs_checked == 36
        assert [(s.level, s.pairs, s.failures) for s in report.per_level] == [
            (1, 27, 0),
            (2, 9, 0),
        ]

    def test_depth_3_counts(self):
        report = verify_family(PAPER3)
        assert report.passed
        assert report.pairs_checked == 351
        assert [(s.level, s.pairs, s.failures) for s in report.per_level] == [
            (1, 243, 0),
            (2, 81, 0),
            (3, 27, 0),
        ]

    def test_uniform_4(self):
        report = verify_family(generate(preset_stack("uniform", 4), 1))
        assert report.passed and report.pairs_checked == 3240

    def test_multiplicity_never_matters(self):
        for multiplicity in (1, 2, 5):
            family = generate(preset_stack("paper-2"), multiplicity)
            assert verify_family(family).passed

    def test_sweep_matches_duel_oracle_on_random_garbage(self):
        """Every level offset of the block walk against duel(): failure
        set and order, raw win and tie counts, and per-level tallies."""
        for depth in (1, 2, 3, 4):
            rng = random.Random(987 + depth)
            words = tuple(word_of(n, depth) for n in range(1, 3 ** depth + 1))
            family = DiceFamily(depth, 2, random_rank_faces(rng, depth))
            assert family.words == words

            checked, raw = sweep_pairs(family.rank_faces, depth)
            fields = [unpack(record, depth) for record in raw]
            order = [(i, j) for i, j, _, _, _ in fields]
            assert order == sorted(order)
            for i, j, _, wins, ties in fields:
                r = duel(die_of(family, i), die_of(family, j))
                assert (Fraction(wins, 9), Fraction(ties, 9)) == (r.win, r.tie)
            assert_levels_are_first_differing_trits(raw, depth)

            expected = brute_failure_pairs(family)
            assert {(words[i], words[j]) for i, j, _, _, _ in fields} == expected
            pairs, fails = [0] * depth, [0] * depth
            for w, v in combinations(words, 2):
                p = TestDecomposition.decision_depth(w, v)
                pairs[p] += 1
                fails[p] += (w, v) in expected
            assert checked == pairs
            report = verify_family(family)
            assert report.records == tuple(raw)
            assert {(f.word_a, f.word_b) for f in report.failures} == expected
            assert [(s.level, s.pairs, s.failures) for s in report.per_level] == [
                (p + 1, pairs[p], fails[p]) for p in range(depth)
            ]
            for multiplicity in (1, 2, 3):
                scaled = DiceFamily(depth, multiplicity, family.rank_faces)
                report = verify_family(scaled)
                assert len(report.failures) == len(raw)
                for failure, (i, j, _, _, _) in zip(report.failures, fields):
                    assert (failure.word_a, failure.word_b) == (words[i], words[j])
                    assert failure.observed == duel(die_of(scaled, i), die_of(scaled, j))

    def test_tampering_detected(self):
        doc = family_to_json(PAPER3)
        del doc["stack"]  # a stack echo would reject the tampering on load
        assert doc["dice"][0]["faces"][2] == "954"
        doc["dice"][0]["faces"][2] = "914"
        tampered = family_from_json(doc)
        report = verify_family(tampered)
        assert not report.passed
        assert report.method == "localized"
        # D2 and D3 outvote the altered D1 in their block
        assert report.certificate_detail == (
            "level 2, prefix (0): D1 (000) has digit 1 at rank 2"
            " where D2 (001) has 5"
        )
        assert_same_outcome(report, sweep_only_report(tampered))
        flagged = {(f.word_a, f.word_b) for f in report.failures}
        assert ((0, 0, 0), (0, 1, 0)) in flagged
        for failure in report.failures:
            assert (0, 0, 0) in (failure.word_a, failure.word_b)
        assert {(f.word_a, f.word_b) for f in report.failures} == brute_failure_pairs(
            tampered
        )

    @given(valid_stacks(), st.integers(1, 3))
    @settings(max_examples=40)
    def test_random_valid_stacks_verify(self, stack, multiplicity):
        family = generate(stack, multiplicity)
        report = verify_family(family)
        assert report.passed
        assert report.method == "certificate"
        assert report.pairs_checked == family.size * (family.size - 1) // 2
        assert_same_outcome(report, sweep_only_report(family))

    def test_method_names_the_path(self):
        report = verify_family(generate(preset_stack("paper-1")))
        assert report.elapsed >= 0
        assert (report.method, report.certificate_detail) == ("certificate", None)
        assert report.pairs_scanned == 0
        faces = (("2", "4", "8"), ("1", "6", "9"), ("3", "5", "7"))
        report = verify_family(DiceFamily(1, 2, faces))
        assert report.elapsed >= 0 and not report.passed
        assert report.method == "localized"
        assert report.pairs_scanned == report.pairs_checked == 3
        assert report.certificate_detail == (
            "level 1, prefix (), table 2,4,8;1,6,9;3,5,7: leading property"
            " fails for subset pair 0->1: 4 winning comparisons, need exactly 5"
        )


class TestCertificate:
    def test_refuses_a_family_of_the_wrong_size(self):
        """``certify`` and ``sweep_pairs`` refuse dice that are not 3^depth."""
        two = (("2", "4", "9"), ("1", "6", "8"))
        with pytest.raises(ValueError, match=r"^a depth-1 certificate needs exactly"):
            certify(two, 1)
        with pytest.raises(ValueError, match=r"^a depth-1 sweep needs exactly 3\^1"):
            sweep_pairs(two, 1)

    def test_sound_and_verdict_is_the_sweeps(self):
        """A certified family passes the sweep, and verify_family reports
        exactly what the sweep alone would, on every path."""
        methods = []
        for depth, rank_faces, must_prove in certificate_families():
            try:
                family = DiceFamily(depth, 2, rank_faces)
            except FamilyFormatError:
                continue  # an altered digit repeated a face
            report, sweep_report = verify_family(family), sweep_only_report(family)
            reason = report.certificate_detail
            assert reason is None or not must_prove, reason
            if reason is None:
                assert report.method == "certificate"
                assert report.pairs_scanned == 0
                assert sweep_report.passed
            else:
                assert report.method == "localized"
                assert 0 < report.pairs_scanned <= report.pairs_checked
            assert reason is None or reason.startswith("level ")
            assert_same_outcome(report, sweep_report)
            methods.append(
                (report.method, report.passed, level1_table_fails(rank_faces))
            )
        # every combination but a certified failure shows up, and a failed
        # level-1 table both passes and fails
        assert set(methods) == {
            ("certificate", True, False),
            ("localized", True, False),
            ("localized", False, False),
            ("localized", True, True),
            ("localized", False, True),
        }

    def test_single_faults_match_the_sweep(self):
        """Every one-digit alteration of paper-3 (each die, rank and level,
        each other digit) reports what the sweep alone finds."""
        methods = Counter()
        for i, rank, pos in product(range(27), range(3), range(3)):
            for digit in "0123456789":
                faces = [list(map(list, die)) for die in PAPER3.rank_faces]
                if faces[i][rank][pos] == digit:
                    continue
                faces[i][rank][pos] = digit
                try:
                    family = DiceFamily(3, 2, frozen(faces))
                except FamilyFormatError:
                    continue  # the altered face repeats another
                report = verify_family(family)
                assert_same_outcome(report, sweep_only_report(family))
                if pos < 2:
                    # the altered die strays at level pos + 1 and is compared
                    # once with each die that shares its first pos trits
                    assert report.pairs_scanned == 3 ** (3 - pos) - 1
                methods[report.method] += 1
        # no altered face repeats, and no single digit outvotes a level-1
        # block of nine dice; 27 alterations leave every table valid
        assert methods == {"localized": 2160, "certificate": 27}

    def test_sweep_decides_when_certificate_fails(self):
        """Digit 2 twice in one subset of the node (1) table is harmless to
        the duels, which only compare its digits rank by rank, but it is not
        a nine-distinct-digit table, so the pairs under that node are
        checked one by one."""
        repeated = ((2, 2, 9), (1, 6, 8), (3, 5, 7))
        family = DiceFamily(2, 2, tree_rank_faces(
            2, lambda level, prefix: repeated if prefix == (1,) else SORTED_ROWS
        ))
        report = verify_family(family)
        assert report.passed and report.method == "localized"
        assert report.pairs_scanned == 3
        assert report.certificate_detail == (
            "level 2, prefix (1), table 2,2,9;1,6,8;3,5,7:"
            " the 9 digits of an assignment must be pairwise distinct"
        )
        assert_same_outcome(report, sweep_only_report(family))

    def test_crowded_level1_block_scans_every_pair_beneath_it(self):
        """Rank-1 faces 2 + the rank-2 tail in level-1 block 0 repeat digit
        2 across its ranks, so its level-1 digits settle none of its pairs'
        cross-rank comparisons: every node beneath it is checked pair by
        pair, besides every pair that first differs at level 1."""
        family = crowded_block_family()
        assert family.rank_faces[0] == ("222", "299", "999")
        report = verify_family(family)
        assert report.method == "localized"
        # every level-1 pair, then all pairs under block 0 at levels 2 and 3:
        # node (0) and nodes (00), (01), (02), with no stray die
        assert report.pairs_scanned == 243 + 27 + 9
        assert [s.failures for s in report.per_level] == [81, 18, 6]
        assert_same_outcome(report, sweep_only_report(family))

    def test_crowded_level1_block_overrules_valid_tables_beneath_it(self):
        """Digit 2 at ranks 0 and 1 of level-1 block 0 leaves those ranks'
        cross comparisons to level 2. There node (0)'s table holds, yet it
        makes D1 beat D2 6/9, so the node is checked pair by pair."""
        family = crowded_over_valid_table_family()
        report = verify_family(family)
        # the pairs that first differ at level 1, and those under node (0)
        assert report.pairs_scanned == 27 + 3
        assert [s.failures for s in report.per_level] == [9, 1]
        assert report.failures[0].word_a == (0, 0)
        assert report.failures[0].word_b == (0, 1)
        assert report.failures[0].observed.win == Fraction(6, 9)
        assert_same_outcome(report, sweep_only_report(family))

    def test_disagreeing_die_named(self):
        faces = [list(die) for die in PAPER3.rank_faces]
        faces[13][1] = faces[13][1][0] + "0" + faces[13][1][2]
        report = verify_family(DiceFamily(3, 2, tuple(map(tuple, faces))))
        assert report.certificate_detail == (
            "level 2, prefix (1): D14 (111) has digit 0 at rank 1"
            f" where D13 (110) has {faces[12][1][1]}"
        )

    def test_deep_certificate_reads_no_pair(self):
        family = generate(preset_stack("uniform", 9), 1)
        # verify_family reaches the sweep only through its module
        assert not hasattr(hierarchy, "sweep_pairs")
        with mock.patch("metadice.sweep.sweep_pairs") as sweep:
            report = verify_family(family)
        sweep.assert_not_called()
        assert report.passed and report.method == "certificate"
        n = family.size
        assert report.pairs_checked == n * (n - 1) // 2
        assert [s.pairs for s in report.per_level] == [
            3 ** (2 * 9 - p - 1) for p in range(9)
        ]

    def test_deep_faults_scan_few_pairs(self):
        """Three altered digits of a depth-7 family: only pairs with an
        altered die are compared, and the sweep never runs."""
        family = generate(preset_stack("uniform", 7), 1)
        faces = [list(map(list, die)) for die in family.rank_faces]
        altered = {100: (0, 0), 1500: (2, 3), 2186: (1, 6)}
        for i, (rank, pos) in altered.items():
            faces[i][rank][pos] = str((int(faces[i][rank][pos]) + 1) % 10)
        tampered = DiceFamily(7, 1, frozen(faces))
        with mock.patch("metadice.sweep.sweep_pairs") as sweep:
            report = verify_family(tampered)
        sweep.assert_not_called()
        assert not report.passed and report.method == "localized"
        assert report.pairs_checked == 2187 * 2186 // 2
        assert 0 < report.pairs_scanned < report.pairs_checked // 100
        words = {family.words[i] for i in altered}
        for failure in report.failures:
            assert {failure.word_a, failure.word_b} & words


#: (the lines a stack file starts with, the tables of its depth-1 or
#: depth-2 stack, the file line and the level its refusal names, those of
#: the last table, and the one text a stack and a certificate refuse it with)
REFUSED_TABLES = [
    (
        "",
        (RESIDUE_ROWS.subsets,),
        "line 1: level 1",
        "leading property fails for subset pair 0->1:"
        " 3 winning comparisons, need exactly 5",
    ),
    (
        "",
        (SORTED_ROWS.subsets, ((1, 2, 3), (4, 5, 6), (7, 8, 9))),
        "line 2: level 2",
        "rank-wise property fails for subset pair 0->1:"
        " 0 winning comparisons, need exactly 2",
    ),
    (
        "",
        (SORTED_ROWS.subsets, ((1, 2, 3), (4, 5, 6), (7, 8, 8))),
        "line 2: level 2",
        "the 9 digits of an assignment must be pairwise distinct",
    ),
    (
        "# a comment line comes first\n",
        (SORTED_ROWS.subsets, ((1, 2, 3), (4, 5, 6), (7, 8, 9))),
        "line 3: level 2",
        "rank-wise property fails for subset pair 0->1:"
        " 0 winning comparisons, need exactly 2",
    ),
]


@pytest.mark.parametrize(
    "head, tables, where, fault",
    REFUSED_TABLES,
    ids=["leading", "rank-wise", "repeated-digit", "after-a-comment"],
)
def test_a_stack_and_the_certificate_refuse_a_table_alike(
    run_cli, tmp_path, head, tables, where, fault
):
    """A stack file whose last table fails is refused, at that table's file
    line and level, with the text that ends the ``certificate:`` line of the
    family whose every node at that level holds that table."""
    texts = [";".join(",".join(map(str, row)) for row in t) for t in tables]
    stack = tmp_path / "stack.txt"
    stack.write_text(head + "".join(f"{text}\n" for text in texts))
    assert run_cli(["verify", "--stack", str(stack)]) == (
        2, "", f"error: {where}: {fault}\n"
    )
    depth = len(tables)
    faces = tree_rank_faces(depth, lambda level, prefix: tables[level - 1])
    listing = "".join(f"D{n} {' '.join(die)}\n" for n, die in enumerate(faces, 1))
    code, out, err = run_cli(["verify", "--stdin"], listing)
    assert err == "" and code in (0, 1)
    assert out.splitlines()[-2] == (
        f"certificate: level {depth}, prefix ({'0' * (depth - 1)}),"
        f" table {texts[-1]}: {fault}"
    )


#: Stacks beside the presets: the Lo Shu tables with digit 1 lowered to 0,
#: which keeps every comparison, and rotated deeper levels.
ZERO_DIGIT_STACK = parse_stack(
    "2,4,9;0,6,8;3,5,7\n"
    "2,8,5;9,6,3;4,0,7 rot=w1\n"
    "2,9,4;0,8,6;3,7,5 rot=w2\n"
    "2,4,9;0,6,8;3,5,7 rot=w1\n"
)


def assert_stack_report_is_the_familys(stack, multiplicity):
    """``verify_stack`` gives what ``verify_family`` finds on the generated
    family, time aside, and the all-pairs sweep finds no failure there."""
    family = generate(stack, multiplicity)
    report, family_report = verify_stack(stack, multiplicity), verify_family(family)
    assert report.elapsed >= 0
    assert report._replace(elapsed=0) == family_report._replace(elapsed=0)
    for derived in ("dice_count", "pairs_checked", "per_level", "method"):
        assert getattr(report, derived) == getattr(family_report, derived), derived
    assert sweep_pairs(family.rank_faces, family.depth)[1] == []


class TestVerifyStack:
    @given(valid_stacks(max_depth=5), st.integers(1, 3))
    @settings(max_examples=40)
    def test_random_stacks_match_the_family_path(self, stack, multiplicity):
        assert_stack_report_is_the_familys(stack, multiplicity)

    @pytest.mark.parametrize(
        "stack",
        [preset_stack(name) for name in ("paper-1", "paper-2", "paper-3")]
        + [preset_stack("uniform", depth) for depth in range(1, 7)]
        + [ZERO_DIGIT_STACK],
        ids=[f"paper-{k}" for k in (1, 2, 3)]
        + [f"uniform-{depth}" for depth in range(1, 7)]
        + ["zero-digit-4"],
    )
    def test_presets_match_the_family_path(self, stack):
        for multiplicity in (1, 2, 3):
            assert_stack_report_is_the_familys(stack, multiplicity)

    def test_bad_multiplicity(self):
        stack = preset_stack("paper-2")
        for multiplicity in (0, -1):
            with pytest.raises(ValueError, match="multiplicity must be positive"):
                verify_stack(stack, multiplicity)


class TestDecomposition:
    """Pairs that differ first at level m >= 2 split 6 + 3: the six cross-rank
    comparisons are settled by the leading digits three wins each way, and the
    three same-rank comparisons are settled at level m, two for the winner."""

    @staticmethod
    def decision_depth(a, b):
        for idx, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return idx
        return None

    def test_split_on_deep_pairs(self):
        for family in (PAPER3, generate(preset_stack("uniform", 3), 1)):
            for i, j in combinations(range(family.size), 2):
                w, v = family.words[i], family.words[j]
                m = self.decision_depth(w, v)
                if m == 0:
                    continue
                fa, fb = family.rank_faces[i], family.rank_faces[j]
                off_diagonal = [
                    self.decision_depth(fa[r], fb[s])
                    for r in range(3)
                    for s in range(3)
                    if r != s
                ]
                assert all(d == 0 for d in off_diagonal)
                off_wins = sum(
                    fa[r] > fb[s] for r in range(3) for s in range(3) if r != s
                )
                assert off_wins == 3
                diagonal = [self.decision_depth(fa[r], fb[r]) for r in range(3)]
                assert all(d == m for d in diagonal)
                winner_is_a = predicted_winner(w, v) == w
                diag_wins = sum(fa[r] > fb[r] for r in range(3))
                assert diag_wins == (2 if winner_is_a else 1)

    def test_no_ties_in_generated_families(self):
        for name in ("paper-1", "paper-2", "paper-3"):
            family = generate(preset_stack(name))
            for i, j in combinations(range(family.size), 2):
                assert duel(die_of(family, i), die_of(family, j)).tie == 0


class TestMonteCarlo:
    def test_deterministic_dominance(self):
        assert monte_carlo(Die.from_values([9]), Die.from_values([1]), 50, 7) == 1.0

    def test_matches_exact_probability(self):
        x = Die.from_values([2, 4, 9], 2)
        y = Die.from_values([1, 6, 8], 2)
        # 3 binomial standard deviations at 10^5 trials
        bound = 0.0047
        for seed in (11, 23, 37, 53, 71):
            assert abs(monte_carlo(x, y, 100_000, seed) - 5 / 9) <= bound

    def test_self_duel_near_third(self):
        x = Die.from_values([2, 4, 9], 2)
        assert abs(monte_carlo(x, x, 100_000, 3) - 1 / 3) <= 0.0045

    def test_seed_reproducibility(self):
        x = Die.from_values([2, 4, 9], 2)
        y = Die.from_values([3, 5, 7], 2)
        assert monte_carlo(x, y, 10_000, 42) == monte_carlo(x, y, 10_000, 42)
        assert monte_carlo(x, y, 10_000, 42) != monte_carlo(x, y, 10_000, 43)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            monte_carlo(Die.from_values([1]), Die.from_values([2]), 0, 0)

    @staticmethod
    def expanded_estimate(x, y, trials, seed):
        """The estimate drawn over every physical face listed out."""
        fx, fy = x.expand(), y.expand()
        rng = random.Random(seed)
        wins = sum(
            fx[rng.randrange(len(fx))] > fy[rng.randrange(len(fy))]
            for _ in range(trials)
        )
        return wins / trials

    def test_matches_the_expanded_faces(self):
        """Rolls map through the running multiplicity totals to the face
        the listed-out faces hold at the same index, so every estimate
        is the one drawn from ``expand()``."""
        rng = random.Random(5)
        for _ in range(200):
            x, y = (
                Die(tuple(((rng.randrange(10),), rng.randint(1, 7)) for _ in range(3)))
                for _ in range(2)
            )
            seed = rng.randrange(2 ** 32)
            assert monte_carlo(x, y, 50, seed) == self.expanded_estimate(x, y, 50, seed)

    def test_lists_no_faces(self, monkeypatch):
        def refuse(die):
            raise AssertionError("monte_carlo listed every face")

        monkeypatch.setattr(Die, "expand", refuse)
        x = Die.from_values([2, 4, 9], 2)
        y = Die.from_values([1, 6, 8], 2)
        assert 0 < monte_carlo(x, y, 100, 3) < 1


class TestFamilyJson:
    def test_round_trip_with_stack(self):
        doc = family_to_json(PAPER3)
        assert doc["dice"][0] == {
            "word": [0, 0, 0],
            "paper_number": 1,
            "faces": ["222", "489", "954"],
        }
        assert [e["paper_number"] for e in doc["dice"]] == list(range(1, 28))
        rebuilt = family_from_json(doc)
        assert rebuilt.rank_faces == PAPER3.rank_faces
        assert rebuilt.words == PAPER3.words
        assert rebuilt.stack == PAPER3.stack

    def test_round_trip_without_stack(self):
        doc = family_to_json(PAPER3)
        del doc["stack"]
        rebuilt = family_from_json(doc)
        assert rebuilt.stack is None
        assert rebuilt.rank_faces == PAPER3.rank_faces

    def test_missing_field(self):
        with pytest.raises(FamilyFormatError):
            family_from_json({"dice": []})

    def test_number_word_consistency_checked(self):
        doc = family_to_json(generate(preset_stack("paper-1")))
        doc["dice"][0]["paper_number"] = 2
        with pytest.raises(FamilyFormatError):
            family_from_json(doc)

    def test_incomplete_family_rejected(self):
        doc = family_to_json(generate(preset_stack("paper-1")))
        doc["dice"] = doc["dice"][:2]
        with pytest.raises(FamilyFormatError):
            family_from_json(doc)

    def test_non_digit_faces_rejected(self):
        doc = family_to_json(generate(preset_stack("paper-1")))
        doc["dice"][0]["faces"] = ["2", "4x", "9"]
        with pytest.raises(FamilyFormatError):
            family_from_json(doc)

    @pytest.mark.parametrize("face", ["\u0662", "\u00b2"])
    def test_non_ascii_digit_faces_rejected(self, face):
        doc = family_to_json(generate(preset_stack("paper-1")))
        del doc["stack"]
        doc["dice"][0]["faces"] = [face, "4", "9"]
        with pytest.raises(FamilyFormatError):
            family_from_json(doc)

    def test_stack_echo_must_match_dice(self):
        doc = family_to_json(PAPER3)
        doc["dice"][0]["faces"][2] = "914"
        names_die = r"D1 \(000\) has faces 222 489 914 .* generates 222 489 954"
        with pytest.raises(FamilyFormatError, match=names_die):
            family_from_json(doc)

    def test_stack_depth_mismatch_rejected(self):
        doc = family_to_json(PAPER3)
        doc["depth"] = 3
        doc["stack"] = doc["stack"][:2]
        with pytest.raises(FamilyFormatError):
            family_from_json(doc)


class TestFamilyFromRows:
    def test_listing_rows_verify(self):
        rows = [["".join(map(str, f)) for f in faces] for faces in PAPER3.rank_faces]
        family = family_from_rows(rows)
        assert verify_family(family).passed

    def test_incomplete_listing_rejected(self):
        with pytest.raises(FamilyFormatError):
            family_from_rows([["2", "4", "9"], ["1", "6", "8"]])

    def test_non_ascii_digits_rejected(self):
        with pytest.raises(FamilyFormatError):
            family_from_rows([["\u0662", "4", "9"], ["1", "6", "8"], ["3", "5", "7"]])

    def test_depth_size_mismatch_rejected(self):
        rows = [["2", "4", "9"]] * 9  # 9 dice but 1-digit faces
        with pytest.raises(FamilyFormatError):
            family_from_rows(rows)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([], "listing contains no dice"),
            ([[249, "168", "357"]], "faces must be digit strings"),
            ([[]], "faces must be digit strings"),
            ([["2", "4"], ["1", "6", "8"], ["3", "5", "7"]], "3 distinct faces"),
            ([["24", "4", "9"]] * 9, "not 2 digits"),
            ([["2", "4", "9"], ["1", "6", "8"]], "depth-1 family needs exactly 3"),
        ],
    )
    def test_every_fault_is_a_format_error(self, rows, message):
        """The first face's length is the depth; ``DiceFamily`` refuses
        the rest, and nothing raises a ``TypeError``."""
        with pytest.raises(FamilyFormatError, match=message):
            family_from_rows(rows)
