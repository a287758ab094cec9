"""Family generation, the winner rule, exhaustive verification, Monte Carlo."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import valid_stacks
from metadice.dice import Die, LengthMismatchError, duel
from metadice.hierarchy import (
    DiceFamily,
    FamilyFormatError,
    die_number,
    face_value,
    family_from_json,
    family_from_rows,
    family_to_json,
    generate,
    monte_carlo,
    predicted_winner,
    verify_family,
    word_of,
)
from metadice.loshu import preset_stack
from metadice.sweep import sweep_pairs

FIVE_NINTHS = Fraction(5, 9)
FOUR_NINTHS = Fraction(4, 9)

PAPER3 = generate(preset_stack("paper-3"))


def expected_result(family, i, j):
    """Brute-force pass/fail for one pair, straight from duel()."""
    w, v = family.words[i], family.words[j]
    r = duel(family.dice[i], family.dice[j])
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

    @given(st.integers(1, 5), st.data())
    def test_round_trip(self, depth, data):
        n = data.draw(st.integers(1, 3 ** depth))
        assert die_number(word_of(n, depth)) == n


class TestPredictedWinner:
    def test_first_position_decides(self):
        assert predicted_winner((0, 1), (2, 0)) == (2, 0)

    def test_last_position_decides(self):
        assert predicted_winner((0, 0, 0), (0, 0, 1)) == (0, 0, 0)

    def test_middle_position_with_duel_confirmation(self):
        w, v = (1, 2, 0), (1, 0, 2)
        assert predicted_winner(w, v) == w
        r = duel(PAPER3.die_at(w), PAPER3.die_at(v))
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
        assert face_value((0, 0, 0), 1, preset_stack("paper-3")) == (4, 8, 9)

    def test_middle_preset(self):
        assert face_value((0, 1), 2, preset_stack("paper-2")) == (9, 8)

    def test_base(self):
        assert face_value((2,), 0, preset_stack("uniform", 1)) == (3,)

    def test_word_length_checked(self):
        with pytest.raises(ValueError):
            face_value((0, 1), 0, preset_stack("paper-3"))


class TestGenerate:
    def test_base_family_exact(self):
        family = generate(preset_stack("paper-1"))
        assert family.dice == (
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

    def test_all_dice_distinct(self):
        family = generate(preset_stack("uniform", 3))
        assert len(set(family.dice)) == 27

    def test_prefix_groups_share_prefix_digits(self):
        for word, faces in zip(PAPER3.words, PAPER3.rank_faces):
            other = PAPER3.faces_at((word[0], word[1], (word[2] + 1) % 3))
            for rank in range(3):
                assert faces[rank][:2] == other[rank][:2]

    def test_multiplicity_respected(self):
        family = generate(preset_stack("paper-1"), 3)
        assert all(die.total == 9 for die in family.dice)

    def test_bad_multiplicity(self):
        with pytest.raises(ValueError):
            generate(preset_stack("paper-1"), 0)


class TestFamilyInvariants:
    def test_wrong_size_rejected(self):
        with pytest.raises(FamilyFormatError):
            DiceFamily(2, 2, ((0, 0),), (((1, 1), (2, 2), (3, 3)),))

    def test_duplicate_faces_rejected(self):
        words = tuple(word_of(n, 1) for n in range(1, 4))
        faces = (((2,), (2,), (9,)), ((1,), (6,), (8,)), ((3,), (5,), (7,)))
        with pytest.raises(FamilyFormatError):
            DiceFamily(1, 2, words, faces)

    def test_word_order_enforced(self):
        words = ((1,), (0,), (2,))
        faces = (((2,), (4,), (9,)), ((1,), (6,), (8,)), ((3,), (5,), (7,)))
        with pytest.raises(FamilyFormatError):
            DiceFamily(1, 2, words, faces)


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
            size = 3 ** depth
            words = tuple(word_of(n, depth) for n in range(1, size + 1))
            rank_faces = []
            for _ in range(size):
                faces = set()
                while len(faces) < 3:
                    faces.add(tuple(rng.randint(1, 9) for _ in range(depth)))
                rank_faces.append(tuple(sorted(faces)))
            family = DiceFamily(depth, 2, words, tuple(rank_faces))

            checked, raw = sweep_pairs(family.rank_faces, depth)
            order = [(i, j) for i, j, _, _ in raw]
            assert order == sorted(order)
            for i, j, wins, ties in raw:
                r = duel(family.dice[i], family.dice[j])
                assert (Fraction(wins, 9), Fraction(ties, 9)) == (r.win, r.tie)

            expected = brute_failure_pairs(family)
            assert {(words[i], words[j]) for i, j, _, _ in raw} == expected
            pairs, fails = [0] * depth, [0] * depth
            for w, v in combinations(words, 2):
                p = TestDecomposition.decision_depth(w, v)
                pairs[p] += 1
                fails[p] += (w, v) in expected
            assert checked == pairs
            report = verify_family(family)
            assert {(f.word_a, f.word_b) for f in report.failures} == expected
            assert [(s.level, s.pairs, s.failures) for s in report.per_level] == [
                (p + 1, pairs[p], fails[p]) for p in range(depth)
            ]

    def test_tampering_detected(self):
        doc = family_to_json(PAPER3)
        del doc["stack"]  # a stack echo would reject the tampering on load
        assert doc["dice"][0]["faces"][2] == "954"
        doc["dice"][0]["faces"][2] = "914"
        tampered = family_from_json(doc)
        report = verify_family(tampered)
        assert not report.passed
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
        assert report.pairs_checked == family.size * (family.size - 1) // 2

    def test_elapsed_and_backend_present(self):
        report = verify_family(generate(preset_stack("paper-1")))
        assert report.elapsed >= 0
        assert report.backend == "pure"


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
                assert duel(family.dice[i], family.dice[j]).tie == 0


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
