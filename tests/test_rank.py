"""Scoring, ranking, and classification rules."""

import numpy as np
import pytest

from shoprank.cli import _read_ranking_file, _write_ranking
from shoprank.errors import ParseError, ValidationError
from shoprank.model import TASK_T1, EsciLabel, Example
from shoprank.rank import (
    best_threshold,
    classify_t2_rows,
    classify_t3_rows,
    expected_gain_rows,
    list_positions,
    rank_order,
)

from helpers import coded, examples_from_rows


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


def ranked(pairs, scores):
    """(query_id, product_id, score) of each row of pairs, in rank_order."""
    order = rank_order(coded(pairs), scores)
    return [(*pairs[i], float(scores[i])) for i in order.tolist()]


class TestRankGroup:
    def test_sorts_by_score_descending(self):
        pairs = [("q1", "a"), ("q1", "b"), ("q1", "c")]
        assert ranked(pairs, [0.1, 0.9, 0.5]) == [("q1", "b", 0.9), ("q1", "c", 0.5), ("q1", "a", 0.1)]

    def test_ties_break_by_product_id(self):
        pairs = [("q1", "z"), ("q1", "a\0"), ("q1", "m"), ("q1", "a"), ("q1", "B")]
        # Python string order: "B" < "a" < "a\0" < "m" < "z" (a numpy string sort would equate "a" and "a\0").
        assert [pid for _, pid, _ in ranked(pairs, [0.5] * 5)] == ["B", "a", "a\0", "m", "z"]

    def test_non_finite_scores_rejected(self):
        with pytest.raises(ValidationError):
            rank_order(coded([("q1", "a"), ("q1", "b")]), [0.5, float("nan")])

    def test_score_count_must_match(self):
        with pytest.raises(ValidationError, match="1 scores for 2 pairs"):
            rank_order(coded([("q1", "a"), ("q1", "b")]), [0.5])

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
        pairs = [("q1", "p0"), ("q1", "p1"), ("q1", "p2"), ("q1", "p3")]
        assert [pid for _, pid, _ in ranked(pairs, scores)] == ["p1", "p3", "p0", "p2"]

    def test_rank_groups_ranks_each_query_in_first_seen_order(self):
        examples = examples_from_rows(
            [Example(q, "t", p, "us", None) for q, p in (("q2", "c"), ("q1", "a"), ("q2", "d"), ("q1", "b"))],
            TASK_T1,
        )
        order = rank_order(examples, np.array([0.1, 0.2, 0.3, 0.7]))
        assert order.tolist() == [2, 0, 3, 1]
        starts, position = list_positions(examples.take(order))
        assert (starts.tolist(), position.tolist()) == ([0, 2], [1, 2, 1, 2])

    def test_ranked_list_validates_order(self, tmp_path):
        """A ranking file whose scores rise within a query is an error naming the file, the row and the query."""
        path = tmp_path / "r.tsv"
        path.write_text("q0\t1\ta\t0.900000\nq1\t2\tb\t0.250000\nq1\t1\ta\t0.500000\nq1\t3\tc\t0.750000\n")
        with pytest.raises(ParseError) as err:
            _read_ranking_file(path)
        assert str(err.value) == f"{path}: row 4: query 'q1': score above the one ranked before it"
        path.write_text("q1\t1\ta\t0.5\nq1\t1\tb\t0.5\n")
        with pytest.raises(ParseError, match=r"query 'q1': ranks are not 1\.\.2"):
            _read_ranking_file(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_ranked_list_rejects_non_finite_scores(self, bad):
        pairs = coded([("q0", "x"), ("q", "a"), ("q", "b"), ("q", "c")])
        for scores in ((0.1, 0.5, bad, 0.9), (0.1, bad, 0.5, 0.2), (0.1, 0.9, bad, bad)):
            with pytest.raises(ValidationError, match=f"query 'q': non-finite score {bad!r}"):
                rank_order(pairs, np.array(scores))

    def test_text_rendering(self, tmp_path):
        pairs, scores = coded([("q1", "b"), ("q1", "a")]), np.array([0.25, 0.75])
        order = rank_order(pairs, scores)
        _write_ranking(tmp_path / "r.tsv", pairs.take(order), scores[order])
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
