"""Assignment tables, validity predicates, rotation, presets, stack files."""

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
    sorted_rows,
    validate_leading,
    validate_rankwise,
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
    assert sorted_rows()[0] == (2, 4, 9)
    assert sorted_rows()[1] == (1, 6, 8)
    assert sorted_rows()[2] == (3, 5, 7)
    assert {tuple(sorted(row)) for row in SQUARE} == set(sorted_rows().subsets)


class TestValidateLeading:
    def test_sorted_rows_pass(self):
        assert validate_leading(SORTED_ROWS)

    def test_residue_rows_fail_with_detail(self):
        result = validate_leading(RESIDUE_ROWS)
        assert not result
        assert result.pair == (0, 1)
        assert result.count == 3 and result.required == 5
        assert "leading" in result.detail()

    def test_ordered_partition_fails(self):
        result = validate_leading(DigitAssignment(((1, 2, 3), (4, 5, 6), (7, 8, 9))))
        assert not result and result.count == 0

    @given(random_assignments)
    def test_matches_naive_oracle(self, a):
        assert bool(validate_leading(a)) == (naive_leading_counts(a.subsets) == [5, 5, 5])


class TestValidateRankwise:
    def test_bundled_tables_pass(self):
        assert validate_rankwise(SORTED_ROWS)
        assert validate_rankwise(RESIDUE_ROWS)
        assert validate_rankwise(SWAPPED_ROWS)

    def test_failure_carries_counterexample(self):
        result = validate_rankwise(DigitAssignment(((1, 2, 3), (4, 5, 6), (7, 8, 9))))
        assert not result
        assert result.pair == (0, 1) and result.count == 0 and result.required == 2

    @given(random_assignments)
    def test_matches_naive_oracle(self, a):
        assert bool(validate_rankwise(a)) == (
            naive_rankwise_counts(a.subsets) == [2, 2, 2]
        )


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

    @given(random_assignments, st.integers(0, 2))
    def test_preserves_rankwise(self, a, r):
        assert bool(validate_rankwise(a)) == bool(validate_rankwise(rotate(a, r)))

    @given(random_assignments, st.integers(0, 2))
    def test_preserves_leading(self, a, r):
        # leading counts only look at digit sets, untouched by rotation
        assert bool(validate_leading(a)) == bool(validate_leading(rotate(a, r)))


class TestDigitAssignment:
    def test_duplicate_digits_rejected(self):
        with pytest.raises(StackValidationError):
            DigitAssignment(((1, 2, 3), (4, 5, 6), (7, 8, 8)))

    def test_out_of_range_digit_rejected(self):
        with pytest.raises(StackValidationError):
            DigitAssignment(((1, 2, 3), (4, 5, 6), (7, 8, 11)))

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
        assert preset_stack("uniform-4") == preset_stack("uniform", 4)
        with pytest.raises(ValueError):
            preset_stack("uniform-4", 5)

    def test_depth_mismatch_rejected(self):
        with pytest.raises(ValueError):
            preset_stack("paper-2", 3)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_stack("paper-9")


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
        with pytest.raises(StackValidationError):
            AssignmentStack((LevelRule(SORTED_ROWS, rotate_by=1),))

    def test_rotation_must_point_backwards(self):
        with pytest.raises(StackValidationError):
            AssignmentStack(
                (LevelRule(SORTED_ROWS), LevelRule(SWAPPED_ROWS, rotate_by=2))
            )

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

    def test_zero_digit_needs_flag(self):
        with pytest.raises(StackValidationError):
            parse_assignment("0,4,9;1,6,8;3,5,7")
        assert parse_assignment("0,4,9;1,6,8;3,5,7", allow_zero=True)[0] == (0, 4, 9)
