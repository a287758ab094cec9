"""Assignment tables, the one table check, rotation, presets, stack files."""

import pytest
from hypothesis import given, strategies as st

from conftest import naive_leading_counts, naive_rankwise_counts, valid_stacks
from metadice.loshu import (
    RESIDUE_ROWS,
    SORTED_ROWS,
    SQUARE,
    SWAPPED_ROWS,
    AssignmentStack,
    DigitAssignment,
    LevelRule,
    StackValidationError,
    format_stack,
    parse_assignment,
    parse_stack,
    preset_stack,
    rotate,
    table_fault,
    trits,
    words,
)

random_assignments = st.permutations(list(range(1, 10))).map(
    lambda d: DigitAssignment((tuple(d[0:3]), tuple(d[3:6]), tuple(d[6:9])))
)


def test_square_is_magic():
    digits = [d for row in SQUARE for d in row]
    assert sorted(digits) == list(range(1, 10))
    cols = list(zip(*SQUARE))
    diagonals = [
        [SQUARE[i][i] for i in range(3)],
        [SQUARE[i][2 - i] for i in range(3)],
    ]
    for line in list(SQUARE) + cols + diagonals:
        assert sum(line) == 15


def test_sorted_rows_subsets():
    assert SORTED_ROWS[0] == (2, 4, 9)
    assert SORTED_ROWS[1] == (1, 6, 8)
    assert SORTED_ROWS[2] == (3, 5, 7)
    assert {tuple(sorted(row)) for row in SQUARE} == set(SORTED_ROWS.subsets)


def test_the_deeper_preset_tables_come_from_the_square():
    """The middle and innermost tables of ``paper-3`` are read off the Lo
    Shu square too, as the sorted rows are above: the residue rows are its
    digits grouped by residue mod 3, and the swapped rows are the sorted
    rows with ranks 1 and 2 exchanged."""
    digits = [d for row in SQUARE for d in row]
    residues = {frozenset(d for d in digits if d % 3 == r) for r in range(3)}
    assert set(map(frozenset, RESIDUE_ROWS.subsets)) == residues
    assert SWAPPED_ROWS.subsets == tuple((a, c, b) for a, b, c in SORTED_ROWS.subsets)


@pytest.mark.parametrize("length", range(7))
def test_words_are_the_trits_of_each_index_in_order(length):
    """``words`` is the bulk form of ``trits``: its n-th word is n's trits.
    Length 0 gives one empty word, the walk's one prefix at depth 6 or less."""
    assert list(words(length)) == [tuple(trits(n, length)) for n in range(3 ** length)]


#: An ordered partition of 1..9: neither leading nor rank-wise.
ORDERED = ((1, 2, 3), (4, 5, 6), (7, 8, 9))


def naive_fault_free(subsets, level):
    """The conftest oracle's verdict on a table of distinct digits."""
    if level == 1:
        return naive_leading_counts(subsets) == [5, 5, 5]
    return naive_rankwise_counts(subsets) == [2, 2, 2]


class TestTableFault:
    def test_sorted_rows_lead(self):
        assert table_fault(SORTED_ROWS.subsets, 1) is None

    def test_residue_rows_do_not_lead(self):
        assert table_fault(RESIDUE_ROWS.subsets, 1) == (
            "leading property fails for subset pair 0->1:"
            " 3 winning comparisons, need exactly 5"
        )

    def test_ordered_partition_does_not_lead(self):
        assert table_fault(ORDERED, 1) == (
            "leading property fails for subset pair 0->1:"
            " 0 winning comparisons, need exactly 5"
        )

    @given(random_assignments)
    def test_leading_matches_naive_oracle(self, a):
        assert (table_fault(a.subsets, 1) is None) == naive_fault_free(a.subsets, 1)

    def test_bundled_tables_are_rankwise(self):
        for level in (2, 3):
            assert table_fault(SORTED_ROWS.subsets, level) is None
            assert table_fault(RESIDUE_ROWS.subsets, level) is None
            assert table_fault(SWAPPED_ROWS.subsets, level) is None

    def test_ordered_partition_is_not_rankwise(self):
        assert table_fault(ORDERED, 2) == (
            "rank-wise property fails for subset pair 0->1:"
            " 0 winning comparisons, need exactly 2"
        )

    @given(random_assignments, st.integers(2, 3))
    def test_rankwise_matches_naive_oracle(self, a, level):
        assert (table_fault(a.subsets, level) is None) == naive_fault_free(
            a.subsets, level
        )

    @pytest.mark.parametrize("level", [1, 2])
    def test_repeated_digit_is_the_assignments_refusal(self, level):
        """A table that repeats a digit gets the text
        :class:`DigitAssignment` refuses it with, whatever its counts."""
        table = ((1, 2, 3), (4, 5, 6), (7, 8, 8))
        with pytest.raises(StackValidationError) as exc:
            DigitAssignment(table)
        assert table_fault(table, level) == str(exc.value) == (
            "the 9 digits of an assignment must be pairwise distinct"
        )

    @given(st.lists(st.integers(0, 9), min_size=9, max_size=9), st.integers(1, 3))
    def test_digit_strings_give_the_ints_verdict(self, digits, level):
        """A node table of one-character digit strings, as a family's faces
        give it, gets the verdict and text of the same table of ints."""
        ints = (tuple(digits[0:3]), tuple(digits[3:6]), tuple(digits[6:9]))
        strings = tuple(tuple(map(str, row)) for row in ints)
        assert table_fault(strings, level) == table_fault(ints, level)


class TestRotate:
    def test_identity(self):
        assert rotate(SWAPPED_ROWS, 0) == SWAPPED_ROWS

    def test_by_one(self):
        assert rotate(SWAPPED_ROWS, 1)[0] == (9, 4, 2)

    def test_by_two(self):
        assert rotate(SWAPPED_ROWS, 2)[1] == (6, 1, 8)

    def test_three_rotations_cycle(self):
        a = rotate(SWAPPED_ROWS, 1)
        assert rotate(rotate(a, 1), 1) == rotate(SWAPPED_ROWS, 0)

    @given(random_assignments, st.integers(0, 2), st.integers(2, 3))
    def test_preserves_rankwise(self, a, r, level):
        # rotating every subset alike keeps each pair's same-rank counts
        rotated = rotate(a, r).subsets
        assert table_fault(a.subsets, level) == table_fault(rotated, level)

    @given(random_assignments, st.integers(0, 2))
    def test_preserves_leading(self, a, r):
        # leading counts only look at digit sets, untouched by rotation
        assert table_fault(a.subsets, 1) == table_fault(rotate(a, r).subsets, 1)


class TestDigitAssignment:
    def test_duplicate_digits_rejected(self):
        with pytest.raises(StackValidationError):
            DigitAssignment(((1, 2, 3), (4, 5, 6), (7, 8, 8)))

    def test_out_of_range_digit_rejected(self):
        with pytest.raises(StackValidationError):
            DigitAssignment(((1, 2, 3), (4, 5, 6), (7, 8, 11)))

    @pytest.mark.parametrize(
        "first", [2.7, "2", "\u0662", True, 2.0], ids=repr
    )
    def test_digits_are_not_converted(self, first):
        """A float, string, Arabic-Indic or bool digit is refused, not read
        as 2 (or 1)."""
        with pytest.raises(StackValidationError, match="ints in 0..9"):
            DigitAssignment(((first, 4, 9), (1, 6, 8), (3, 5, 7)))

    def test_text_form(self):
        assert SORTED_ROWS.text() == "2,4,9;1,6,8;3,5,7"


class TestPresets:
    def test_paper_1(self):
        stack = preset_stack("paper-1")
        assert stack.depth == 1
        assert stack.assignment_at(1, ()) == SORTED_ROWS

    def test_paper_2_uniform(self):
        stack = preset_stack("paper-2")
        assert stack.depth == 2
        for prefix in ((0,), (1,), (2,)):
            assert stack.assignment_at(2, prefix) == SORTED_ROWS

    def test_paper_3_rotates_by_middle_trit(self):
        stack = preset_stack("paper-3")
        assert stack.depth == 3
        assert stack.assignment_at(1, ()) == SORTED_ROWS
        assert stack.assignment_at(2, (1,)) == RESIDUE_ROWS
        assert stack.assignment_at(3, (0, 1)) == rotate(SWAPPED_ROWS, 1)
        assert stack.assignment_at(3, (2, 0)) == SWAPPED_ROWS
        assert stack.assignment_at(3, (1, 2)) == rotate(SWAPPED_ROWS, 2)

    def test_uniform_needs_depth(self):
        with pytest.raises(ValueError):
            preset_stack("uniform")

    def test_uniform_with_depth(self):
        stack = preset_stack("uniform", 4)
        assert stack.depth == 4
        assert stack.assignment_at(4, (0, 1, 2)) == SORTED_ROWS

    def test_uniform_dash_name(self):
        """The depth is an argument, never part of the name."""
        for name in ("uniform-3", "uniform-\u0663", "uniform-+3"):
            with pytest.raises(ValueError, match="unknown preset"):
                preset_stack(name)
            with pytest.raises(ValueError, match="unknown preset"):
                preset_stack(name, 3)

    @pytest.mark.parametrize("depth", [1, 2])
    def test_paper_1_and_2_are_the_uniform_stacks(self, depth):
        assert preset_stack(f"paper-{depth}") == preset_stack("uniform", depth)

    def test_depth_mismatch_rejected(self):
        with pytest.raises(ValueError):
            preset_stack("paper-2", 3)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_stack("paper-9")

    @pytest.mark.parametrize(
        "name, depth",
        [
            ("uniform", True),
            ("paper-1", 1.0),
            ("paper-2", 2.0),
            ("uniform", 2.0),
            ("uniform", "3"),
        ],
    )
    def test_a_depth_that_is_not_an_int_rejected(self, name, depth):
        """A bool, float or string depth is refused before it is compared,
        worded as a family's depth is refused, even where it equals the
        preset's own depth."""
        with pytest.raises(ValueError) as exc:
            preset_stack(name, depth)
        assert str(exc.value) == f"depth must be an integer, got {depth!r}"


class TestAssignmentStack:
    def test_level_one_must_lead(self):
        with pytest.raises(StackValidationError) as exc:
            AssignmentStack((LevelRule(RESIDUE_ROWS),))
        message = str(exc.value)
        assert "leading" in message and "0->1" in message and "3" in message

    def test_deep_levels_must_be_rankwise(self):
        bad = DigitAssignment(((1, 2, 3), (4, 5, 6), (7, 8, 9)))
        with pytest.raises(StackValidationError) as exc:
            AssignmentStack((LevelRule(SORTED_ROWS), LevelRule(bad)))
        assert "rank-wise" in str(exc.value)

    def test_level_one_rotation_rejected(self):
        """A stack built in code names the level it refuses, with no line."""
        with pytest.raises(StackValidationError) as exc:
            AssignmentStack((LevelRule(SORTED_ROWS, rotate_by=1),))
        assert str(exc.value) == (
            "level 1: rotation selector w1 must name an earlier word position"
        )
        assert exc.value.level == 1

    def test_rotation_must_point_backwards(self):
        with pytest.raises(StackValidationError):
            AssignmentStack(
                (LevelRule(SORTED_ROWS), LevelRule(SWAPPED_ROWS, rotate_by=2))
            )

    @pytest.mark.parametrize("selector", [True, "1", 1.0], ids=repr)
    def test_a_selector_that_is_not_an_int_rejected(self, selector):
        """A bool, string or float selector is refused, not compared or
        written back as ``rot=wTrue``."""
        with pytest.raises(StackValidationError) as exc:
            AssignmentStack((LevelRule(SORTED_ROWS), LevelRule(SWAPPED_ROWS, selector)))
        assert str(exc.value) == (
            f"level 2: rotation selector w{selector} must name an earlier word position"
        )

    def test_no_levels_rejected(self):
        with pytest.raises(StackValidationError, match="^a stack needs at least"):
            AssignmentStack(())

    def test_level_outside_the_stack(self):
        with pytest.raises(ValueError, match=r"^level 0 outside 1\.\.1$"):
            preset_stack("paper-1").assignment_at(0, ())

    def test_prefix_too_short(self):
        stack = preset_stack("paper-3")
        with pytest.raises(ValueError):
            stack.assignment_at(3, (0,))

    @given(valid_stacks())
    def test_random_valid_stacks_construct(self, stack):
        assert 1 <= stack.depth <= 3


class TestStackFiles:
    def test_parse_preset_syntax(self):
        text = "# base family\n2,4,9;1,6,8;3,5,7\n2,8,5;9,6,3;4,1,7\n\n2,9,4;1,8,6;3,7,5 rot=w2\n"
        stack = parse_stack(text)
        assert stack == preset_stack("paper-3")

    def test_round_trip(self):
        for name in ("paper-1", "paper-2", "paper-3"):
            stack = preset_stack(name)
            assert parse_stack(format_stack(stack)) == stack

    def test_bad_syntax_names_line(self):
        with pytest.raises(StackValidationError) as exc:
            parse_stack("2,4,9;1,6,8;3,5,7\n2,4;1,6,8;3,5,7\n")
        assert "line 2" in str(exc.value)

    @pytest.mark.parametrize(
        "line, fault",
        [
            ("2,4,9;1,6,8;3,5,x", "cannot parse '2,4,9;1,6,8;3,5,x'"),
            (
                "2,4,9;1,6,8;3,,7",
                "bad assignment syntax '2,4,9;1,6,8;3,,7': expected three"
                " comma-separated digit triples joined by semicolons",
            ),
            ("2,4,9;1,6,8", "an assignment needs 3 subsets of 3 digits"),
            ("2,4;1,6,8;3,5,7", "an assignment needs 3 subsets of 3 digits"),
            ("2,4,9;1,6,8;3,5,7;0,0,0", "an assignment needs 3 subsets of 3 digits"),
            ("2,4,9;1,6,8;3,5,17", "assignment digits must be ints in 0..9"),
            (
                "2,8,5;9,6,3;4,1,4",
                "the 9 digits of an assignment must be pairwise distinct",
            ),
            (
                "1,2,3;4,5,6;7,8,9",
                "rank-wise property fails for subset pair 0->1:"
                " 0 winning comparisons, need exactly 2",
            ),
            (
                "2,9,4;1,8,6;3,7,5 rot=w2",
                "rotation selector w2 must name an earlier word position",
            ),
        ],
        ids=[
            "syntax", "empty token", "two subsets", "short subset",
            "four subsets", "digit 17", "repeated digit", "rank-wise",
            "rotation",
        ],
    )
    def test_a_refused_level_names_its_line_and_level(self, line, fault):
        """Every refusal of a level line names its file line, then its
        level, which differ past comment and blank lines."""
        text = f"# a comment\n\n2,4,9;1,6,8;3,5,7\n{line}\n"
        with pytest.raises(StackValidationError) as exc:
            parse_stack(text)
        assert str(exc.value) == f"line 4: level 2: {fault}"

    @pytest.mark.parametrize(
        "line",
        ["2,4,9;1,6,8;3,5," + "7" * 5000, "2,9,4;1,8,6;3,7,5 rot=w" + "1" * 5000],
        ids=["digit", "rotation"],
    )
    def test_a_number_too_long_to_read_names_its_line_and_level(self, line):
        """A number past CPython's limit on an int's decimal digits is
        refused at its line and level too."""
        with pytest.raises(StackValidationError) as exc:
            parse_stack(f"# a comment\n\n2,4,9;1,6,8;3,5,7\n{line}\n")
        assert str(exc.value).startswith("line 4: level 2: ")

    def test_a_rotated_first_level_names_its_line(self):
        with pytest.raises(StackValidationError) as exc:
            parse_stack("\n2,4,9;1,6,8;3,5,7 rot=w1\n")
        assert str(exc.value) == (
            "line 2: level 1: rotation selector w1 must name an earlier word position"
        )

    def test_invalid_level_names_predicate_pair_count(self):
        with pytest.raises(StackValidationError) as exc:
            parse_stack("1,2,3;4,5,6;7,8,9\n")
        message = str(exc.value)
        assert "level 1" in message
        assert "leading" in message
        assert "0->1" in message
        assert "0" in message

    def test_empty_rejected(self):
        with pytest.raises(StackValidationError):
            parse_stack("# only a comment\n")

    @pytest.mark.parametrize(
        "text",
        [
            "\u0662,4,9;1,6,8;3,5,7\n",
            "2,4,9;1,6,8;3,5,7\n2,9,4;1,8,6;3,7,5 rot=w\u0661\n",
        ],
    )
    def test_non_ascii_digits_rejected(self, text):
        with pytest.raises(StackValidationError):
            parse_stack(text)

    def test_non_ascii_assignment_digit_rejected(self):
        with pytest.raises(StackValidationError):
            parse_assignment("\u0662,4,9;1,6,8;3,5,7")

    def test_zero_digit_parses(self):
        """Digit 0 is a digit like any other, as :class:`DigitAssignment`
        takes it, in an assignment and in a stack."""
        assert parse_assignment("0,4,9;1,6,8;3,5,7")[0] == (0, 4, 9)
        stack = parse_stack("2,4,9;0,6,8;3,5,7\n2,8,5;9,6,3;4,0,7 rot=w1\n")
        assert stack.levels[0].base[1] == (0, 6, 8)
        assert stack.levels[1].base[2] == (4, 0, 7)
