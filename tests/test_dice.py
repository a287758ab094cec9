"""Core dice arithmetic: exact duels, die parsing, round-robin play, digit
strings."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import die_pair
from metadice.dice import (
    Die,
    DieParseError,
    DuelResult,
    TeamOverlapError,
    duel,
    face_text,
    parse_die,
    round_robin,
)
from metadice.loshu import NINTHS, LengthMismatchError, is_digit_string

DIE_A = Die.from_values([2, 4, 9], 2)
DIE_B = Die.from_values([1, 6, 8], 2)
DIE_C = Die.from_values([3, 5, 7], 2)

FIVE_NINTHS = Fraction(5, 9)
FOUR_NINTHS = Fraction(4, 9)


def oracle_duel(x: Die, y: Die):
    """Independent duel count over fully expanded face lists."""
    fx, fy = x.expand(), y.expand()
    win = sum(1 for a in fx for b in fy if a > b)
    tie = sum(1 for a in fx for b in fy if a == b)
    n = len(fx) * len(fy)
    return Fraction(win, n), Fraction(tie, n), Fraction(n - win - tie, n)


class TestDuel:
    def test_base_pair(self):
        assert duel(DIE_A, DIE_B) == DuelResult(FIVE_NINTHS, Fraction(0), FOUR_NINTHS)

    def test_self_duel_with_distinct_faces(self):
        r = duel(DIE_A, DIE_A)
        assert (r.win, r.tie, r.loss) == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))

    def test_third_pair_closes_cycle(self):
        r = duel(DIE_C, DIE_A)
        assert (r.win, r.tie, r.loss) == (FIVE_NINTHS, 0, FOUR_NINTHS)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            duel(DIE_A, Die.from_values([12, 64, 89], 2))

    @given(die_pair())
    def test_matches_expansion_oracle(self, pair):
        x, y = pair
        r = duel(x, y)
        assert (r.win, r.tie, r.loss) == oracle_duel(x, y)

    @given(die_pair())
    def test_normalization_and_antisymmetry(self, pair):
        x, y = pair
        r, s = duel(x, y), duel(y, x)
        assert r.win + r.tie + r.loss == 1
        assert r.win == s.loss and r.tie == s.tie and r.loss == s.win

    @given(die_pair())
    def test_self_duel_balance(self, pair):
        x, _ = pair
        r = duel(x, x)
        assert r.win == r.loss

    @given(die_pair(), st.integers(2, 5))
    def test_multiplicity_invariance(self, pair, scale):
        x, y = pair
        scaled = Die(tuple((f, m * scale) for f, m in x.faces))
        assert duel(x, y) == duel(scaled, y)

    @given(die_pair(), st.data())
    def test_monotone_relabeling_invariance(self, pair, data):
        x, y = pair
        used = sorted({d for die in (x, y) for f, _ in die.faces for d in f})
        image = data.draw(
            st.sets(st.integers(1, 9), min_size=len(used), max_size=len(used))
        )
        relabel = dict(zip(used, sorted(image)))
        remap = lambda die: Die(
            tuple((tuple(relabel[d] for d in f), m) for f, m in die.faces)
        )
        assert duel(x, y) == duel(remap(x), remap(y))


class TestRoundRobin:
    def test_square_rows(self):
        assert round_robin((4, 9, 2), (3, 5, 7)) == (4, 5)
        assert round_robin((3, 5, 7), (8, 1, 6)) == (4, 5)
        assert round_robin((8, 1, 6), (4, 9, 2)) == (4, 5)

    def test_single_comparison(self):
        assert round_robin((1,), (2,)) == (0, 1)

    def test_overlap_rejected(self):
        with pytest.raises(TeamOverlapError):
            round_robin((1, 2, 3), (3, 4, 5))

    def test_duplicate_within_team_rejected(self):
        with pytest.raises(TeamOverlapError):
            round_robin((1, 1, 2), (3, 4, 5))

    @given(st.data())
    def test_antisymmetric_and_total(self, data):
        values = data.draw(st.sets(st.integers(-50, 50), min_size=2, max_size=9))
        values = sorted(values)
        cut = data.draw(st.integers(1, len(values) - 1))
        x, y = values[:cut], values[cut:]
        wx, wy = round_robin(x, y)
        assert (wy, wx) == round_robin(y, x)
        assert wx + wy == len(x) * len(y)


class TestDieParsing:
    def test_explicit_multiplicity(self):
        assert parse_die("2x2,4x2,9x2") == DIE_A

    def test_shorthand(self):
        assert parse_die("2,4,9") == Die.from_values([2, 4, 9])

    def test_multi_digit_faces(self):
        die = parse_die("222,489,954")
        assert [face_text(f) for f, _ in die.faces] == ["222", "489", "954"]

    def test_short_face_is_error(self):
        with pytest.raises(DieParseError):
            parse_die("22,4,9")

    def test_bad_token_reports_position(self):
        with pytest.raises(DieParseError) as exc:
            parse_die("2,4,nine")
        assert exc.value.position == 4

    def test_zero_digit_rejected_by_default(self):
        with pytest.raises(DieParseError):
            parse_die("102,345,678")

    @pytest.mark.parametrize("text", ["\u0662,4,9", "2x\u0662,4,9"])
    def test_non_ascii_digits_rejected(self, text):
        with pytest.raises(DieParseError):
            parse_die(text)

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(DieParseError):
            parse_die("2x0,4,9")

    def test_text_round_trip(self):
        for text in ("2x2,4x2,9x2", "222,489,954", "1,2x3,9"):
            assert parse_die(parse_die(text).text()) == parse_die(text)


class TestDieInvariants:
    def test_duplicate_faces_merge(self):
        die = Die((((2,), 1), ((2,), 1), ((4,), 2)))
        assert die == Die((((2,), 2), ((4,), 2)))
        assert die.total == 4

    def test_mixed_lengths_rejected(self):
        with pytest.raises(LengthMismatchError):
            Die((((2,), 1), ((2, 2), 1)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Die(())

    @pytest.mark.parametrize(
        "faces",
        [
            (((2,), 1.5), ((4,), True)),  # a float and a bool multiplicity
            (((2,), "2"),),
            (((2,), 0),),
            (((2.9,), 1),),  # a float digit
            (((True,), 1),),
            (((1, "2"), 1),),
            ((("\u0662",), 1),),  # Arabic-Indic two
            (((10,), 1),),
            (((-1,), 1),),
            (249, 1),  # entries that are not (face, multiplicity) pairs
            (((2,), 1, 1),),
            ("249",),
            5,  # no entries at all
        ],
    )
    def test_nothing_is_converted(self, faces):
        """Digits are ints in 0..9 and multiplicities ints of at least 1,
        in (face, multiplicity) pairs, taken as given: a float, bool or
        string is refused, not truncated or parsed."""
        with pytest.raises(ValueError):
            Die(faces)

    @pytest.mark.parametrize("face", [249, None, 2.5, {2, 4, 9}])
    def test_face_that_is_not_a_sequence_rejected(self, face):
        with pytest.raises(ValueError, match="must be a sequence of digits"):
            Die(((face, 1),))

    def test_empty_face_rejected(self):
        with pytest.raises(ValueError, match="^a face needs at least one digit$"):
            Die((((), 1),))

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError, match="^face values must be nonnegative$"):
            Die.from_values([-1])

    def test_expand_applies_multiplicity(self):
        assert DIE_A.expand() == ((2,),) * 2 + ((4,),) * 2 + ((9,),) * 2


class TestDuelResult:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DuelResult(Fraction(1, 2), Fraction(0), Fraction(1, 3))

    def test_components_in_range(self):
        with pytest.raises(ValueError):
            DuelResult(Fraction(3, 2), Fraction(0), Fraction(-1, 2))


def test_ninths_are_the_fractions_text():
    assert NINTHS == tuple(str(Fraction(k, 9)) for k in range(10))


class TestDigitString:
    """``is_digit_string`` validates every face of a family: ASCII digits
    only, although ``str.isdigit`` also takes other scripts' digits and
    superscripts."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("", False),
            ("0", True),
            ("0123456789", True),
            ("12\n", False),
            ("\u0663", False),  # Arabic-Indic three
            ("\u00b2", False),  # superscript two
            (" 1", False),
            ("-1", False),
            (12, False),
            (b"12", False),
            (None, False),
        ],
    )
    def test_cases(self, text, expected):
        assert is_digit_string(text) is expected

    # plain text, and text of Unicode digits and numbers that isdigit takes
    @given(st.text() | st.text(st.characters(categories=("Nd", "No"))))
    def test_matches_ascii_digit_pattern(self, text):
        assert is_digit_string(text) == (re.fullmatch(r"[0-9]+", text) is not None)
