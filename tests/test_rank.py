"""Scoring, ranking, and classification rules."""

import numpy as np
import pytest

from shoprank.cli import _write_ranking
from shoprank.errors import ValidationError
from shoprank.model import TASK_T1, EsciLabel, Example
from shoprank.rank import (
    RankedList,
    best_threshold,
    classify_t2_rows,
    classify_t3_rows,
    expected_gain_rows,
    rank_group,
    rank_groups,
)

from helpers import examples_from_rows


def exhaustive_threshold(probs, truth):
    """Reference sweep: accuracy of every candidate threshold, first best wins."""
    p, y = np.asarray(probs, dtype=np.float64), np.asarray(truth)
    candidates = [t for t in np.unique(p) if 0.0 < t < 1.0] or [0.5]
    best_t, best_acc = 0.5, -1.0
    for t in candidates:
        acc = float(((p >= t).astype(np.int64) == y).mean())
        if acc > best_acc:
            best_t, best_acc = float(t), acc
    return best_t, best_acc


class TestExpectedGain:
    def test_one_hot_values(self):
        assert expected_gain_rows(np.eye(4)).tolist() == [1.0, 0.1, 0.01, 0.0]

    def test_mixture(self):
        # 0.5*1 + 0.3*0.1 + 0.2*0.01 = 0.532
        assert expected_gain_rows(np.array([[0.5, 0.3, 0.2, 0.0]]))[0] == pytest.approx(0.532)

    def test_rows_vectorized(self):
        arr = np.array([[0.5, 0.3, 0.2, 0.0], [0.0, 0.0, 0.0, 1.0]])
        np.testing.assert_allclose(expected_gain_rows(arr), [0.532, 0.0])
        with pytest.raises(ValidationError):
            expected_gain_rows(np.zeros((2, 3)))

    def test_linearity_over_averaging(self):
        """Averaging gains equals the gain of averaged probabilities."""
        rng = np.random.default_rng(1)
        for _ in range(100):
            rows = rng.dirichlet(np.ones(4), size=3)
            avg_first = expected_gain_rows(rows.mean(axis=0, keepdims=True))[0]
            gain_first = float(np.mean(expected_gain_rows(rows)))
            assert avg_first == pytest.approx(gain_first, abs=1e-12)


class TestRankGroup:
    def test_sorts_by_score_descending(self):
        ranked = rank_group("q1", ["a", "b", "c"], [0.1, 0.9, 0.5])
        assert ranked.product_ids == ("b", "c", "a")
        assert ranked.scores == (0.9, 0.5, 0.1)

    def test_ties_break_by_product_id(self):
        ranked = rank_group("q1", ["z", "a", "m"], [0.5, 0.5, 0.5])
        assert ranked.product_ids == ("a", "m", "z")

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValidationError):
            rank_group("q1", ["a", "b"], [0.5, float("nan")])

    def test_score_count_must_match(self):
        with pytest.raises(ValidationError):
            rank_group("q1", ["a", "b"], [0.5])

    def test_noiseless_scores_sort_by_label(self):
        """With one-hot probabilities, expected gain reproduces label order."""
        labels = [
            EsciLabel.COMPLEMENT,
            EsciLabel.EXACT,
            EsciLabel.IRRELEVANT,
            EsciLabel.SUBSTITUTE,
        ]
        onehots = np.eye(4)[[lab.index for lab in labels]]
        scores = expected_gain_rows(onehots)
        ranked = rank_group("q1", ["p0", "p1", "p2", "p3"], scores)
        assert ranked.product_ids == ("p1", "p3", "p0", "p2")

    def test_rank_groups_ranks_each_query_in_first_seen_order(self):
        examples = examples_from_rows(
            [Example(q, "t", p, "us", None) for q, p in (("q2", "c"), ("q1", "a"), ("q2", "d"), ("q1", "b"))],
            TASK_T1,
        )
        ranked = rank_groups(examples, np.array([0.1, 0.2, 0.3, 0.7]))
        assert [(rl.query_id, rl.product_ids, rl.scores) for rl in ranked] == [
            ("q2", ("d", "c"), (0.3, 0.1)),
            ("q1", ("b", "a"), (0.7, 0.2)),
        ]

    def test_ranked_list_validates_order(self):
        with pytest.raises(ValidationError):
            RankedList("q1", ("a", "b"), (0.1, 0.9))
        with pytest.raises(ValidationError):
            RankedList("q1", ("a", "b"), (0.9,))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_ranked_list_rejects_non_finite_scores(self, bad):
        # NaN compares false both ways, so the order check alone would let it through.
        for scores in ((0.5, bad, 0.9), (bad, 0.5), (0.9, bad)):
            with pytest.raises(ValidationError, match="non-finite score"):
                RankedList("q", ("a", "b", "c")[: len(scores)], scores)

    def test_text_rendering(self, tmp_path):
        ranked = rank_group("q1", ["b", "a"], [0.25, 0.75])
        _write_ranking(tmp_path / "r.tsv", [ranked])
        assert (tmp_path / "r.tsv").read_bytes() == b"q1\t1\ta\t0.750000\nq1\t2\tb\t0.250000\n"


class TestClassifyT2:
    def test_argmax(self):
        assert classify_t2_rows(np.array([[0.1, 0.6, 0.2, 0.1]])).tolist() == [EsciLabel.SUBSTITUTE.index]

    def test_tie_prefers_class_order(self):
        # E before S before C before I on exact ties
        arr = np.array([[0.4, 0.4, 0.1, 0.1], [0.1, 0.4, 0.4, 0.1]])
        assert classify_t2_rows(arr).tolist() == [EsciLabel.EXACT.index, EsciLabel.SUBSTITUTE.index]

    def test_rows(self):
        arr = np.array([[0.7, 0.1, 0.1, 0.1], [0.1, 0.1, 0.1, 0.7]])
        np.testing.assert_array_equal(classify_t2_rows(arr), [0, 3])


class TestClassifyT3:
    def test_threshold_boundary_inclusive(self):
        flags = classify_t3_rows(np.array([0.5, 0.499999, 0.2, 1.0, 0.0]), threshold=0.5)
        assert flags.tolist() == [True, False, False, True, False]
        assert classify_t3_rows(np.array([0.2]), threshold=0.1).tolist() == [True]

    def test_validation(self):
        for threshold in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                classify_t3_rows(np.array([0.5]), threshold)


class TestBestThreshold:
    def test_perfectly_separable(self):
        probs = [0.1, 0.2, 0.8, 0.9]
        truth = [0, 0, 1, 1]
        t, acc = best_threshold(probs, truth)
        assert acc == 1.0
        assert 0.2 < t <= 0.8

    def test_prefers_lowest_threshold_on_tie(self):
        probs = [0.3, 0.7]
        truth = [1, 1]
        t, acc = best_threshold(probs, truth)
        assert acc == 1.0
        assert t == 0.3

    def test_degenerate_probs_fall_back(self):
        t, acc = best_threshold([0.0, 1.0], [0, 1])
        assert t == 0.5
        assert acc == 1.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            best_threshold([], [])
        with pytest.raises(ValidationError):
            best_threshold([0.5], [1, 0])
        with pytest.raises(ValidationError):
            best_threshold([0.5, float("nan")], [1, 0])

    def test_matches_exhaustive_sweep(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            n = int(rng.integers(1, 40))
            # Few distinct values, so ties are common; 0 and 1 are never candidates.
            probs = rng.choice([0.0, 0.1, 0.25, 0.5, 0.5000001, 0.9, 1.0], size=n)
            if rng.random() < 0.5:
                probs = np.where(rng.random(n) < 0.5, probs, rng.random(n))
            truth = rng.integers(0, 2, size=n)
            assert best_threshold(probs, truth) == exhaustive_threshold(probs, truth)
