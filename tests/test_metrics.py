"""Hand-computed oracles and properties for the gain-based metrics."""

import math

import numpy as np
import pytest

from shoprank.errors import MissingKeyError, ValidationError
from shoprank.metrics import (
    Report,
    dcg,
    evaluate_classification,
    evaluate_ranking,
    micro_f1,
    ndcg,
)
from shoprank.model import EsciLabel
from shoprank.rank import RankedList

E = EsciLabel.EXACT
S = EsciLabel.SUBSTITUTE
C = EsciLabel.COMPLEMENT
I = EsciLabel.IRRELEVANT


def _ranked(labels, query="q"):
    """RankedList whose product ids are p0, p1, ... plus a label lookup for them."""
    pids = tuple(f"p{i}" for i in range(len(labels)))
    scores = tuple(float(len(labels) - i) for i in range(len(labels)))
    return RankedList(query, pids, scores), dict(zip(pids, labels))


def test_default_gain_table():
    assert dcg([E]) == 1.0
    assert dcg([I, S]) == 0.1 / math.log2(3)
    assert dcg([I, I, C]) == 0.01 / 2.0
    assert dcg([I]) == 0.0


def test_dcg_single_exact():
    assert dcg([E]) == pytest.approx(1.0, abs=1e-12)


def test_dcg_hand_values():
    # position discounts: 1/log2(2), 1/log2(3)
    assert dcg([I, E]) == pytest.approx(1.0 / math.log2(3), abs=1e-9)
    assert dcg([E, S]) == pytest.approx(1.0 + 0.1 / math.log2(3), abs=1e-9)


def test_dcg_empty_rejected():
    with pytest.raises(ValidationError):
        dcg([])


def test_dcg_append_monotone():
    rng = np.random.default_rng(42)
    labels = list(EsciLabel)
    for _ in range(50):
        seq = [labels[i] for i in rng.integers(0, 4, size=rng.integers(1, 12))]
        extended = seq + [labels[int(rng.integers(0, 4))]]
        assert dcg(extended) >= dcg(seq) - 1e-12


def test_ndcg_worst_order_two_items():
    ranked, truth = _ranked([I, E])
    assert ndcg(ranked, truth) == pytest.approx((1.0 / math.log2(3)) / 1.0, abs=1e-9)


def test_ndcg_all_exact_any_permutation():
    ranked, truth = _ranked([E, E, E])
    assert ndcg(ranked, truth) == pytest.approx(1.0, abs=1e-12)


def test_ndcg_all_irrelevant_convention():
    ranked, truth = _ranked([I, I, I])
    assert ndcg(ranked, truth) == 1.0


def test_ndcg_perfect_order_is_one():
    ranked, truth = _ranked([E, S, C, I])
    assert ndcg(ranked, truth) == pytest.approx(1.0, abs=1e-12)


def test_ndcg_missing_truth_label():
    ranked, truth = _ranked([E, S])
    del truth["p1"]
    with pytest.raises(MissingKeyError):
        ndcg(ranked, truth)


def test_ndcg_bounds_random():
    rng = np.random.default_rng(42)
    labels = list(EsciLabel)
    for _ in range(200):
        seq = [labels[i] for i in rng.integers(0, 4, size=rng.integers(1, 20))]
        ranked, truth = _ranked(seq)
        value = ndcg(ranked, truth)
        assert 0.0 <= value <= 1.0 + 1e-12


def test_ndcg_adjacent_swap_strictly_improves():
    """Swapping an item above a strictly higher-gain one must increase ndcg."""
    rng = np.random.default_rng(7)
    labels = list(EsciLabel)
    checked = 0
    while checked < 300:
        seq = [labels[i] for i in rng.integers(0, 4, size=rng.integers(2, 15))]
        pos = int(rng.integers(0, len(seq) - 1))
        upper, lower = seq[pos], seq[pos + 1]
        if upper.gain >= lower.gain:
            continue
        r1, t1 = _ranked(seq)
        # reorder the same products so the higher-gain item moves up one slot
        ids = list(r1.product_ids)
        ids[pos], ids[pos + 1] = ids[pos + 1], ids[pos]
        r2 = RankedList(r1.query_id, tuple(ids), r1.scores)
        assert ndcg(r2, t1) > ndcg(r1, t1)
        checked += 1


def test_micro_f1_counting():
    assert micro_f1([E, E, S, C], [E, E, S, S]) == pytest.approx(0.75)
    assert micro_f1([E, S], [E, S]) == 1.0


def test_micro_f1_binary_half():
    preds = [True] * 8
    truth = [True] * 4 + [False] * 4
    assert micro_f1(preds, truth) == pytest.approx(0.5)


def test_micro_f1_errors():
    with pytest.raises(ValidationError):
        micro_f1([E], [E, S])
    with pytest.raises(ValidationError):
        micro_f1([], [])


def test_micro_f1_permutation_invariant():
    rng = np.random.default_rng(42)
    preds = list(rng.integers(0, 4, size=60))
    truth = list(rng.integers(0, 4, size=60))
    base = micro_f1(preds, truth)
    order = rng.permutation(60)
    assert micro_f1([preds[i] for i in order], [truth[i] for i in order]) == pytest.approx(base)


def test_evaluate_ranking_mean_and_locales():
    r1, t1 = _ranked([E, S], query="q1")
    r2, t2 = _ranked([I, E], query="q2")
    truth = {"q1": t1, "q2": t2}
    locales = {"q1": "us", "q2": "jp"}
    report = evaluate_ranking([r1, r2], truth, locales)
    expect_q2 = (1.0 / math.log2(3)) / 1.0
    assert report.overall == pytest.approx((1.0 + expect_q2) / 2, abs=1e-12)
    assert dict(report.by_locale) == {
        "us": pytest.approx(1.0),
        "jp": pytest.approx(expect_q2),
    }
    assert report.n_queries == 2


def test_evaluate_ranking_empty_rejected():
    with pytest.raises(ValidationError):
        evaluate_ranking([], {}, {})


def test_evaluate_classification_breakdown():
    report = evaluate_classification(
        "T2",
        [E, S, E, E],
        [E, S, S, E],
        ["us", "us", "jp", "jp"],
    )
    assert report.overall == pytest.approx(0.75)
    assert dict(report.by_locale) == {"us": pytest.approx(1.0), "jp": pytest.approx(0.5)}


def test_report_renders_fixed_precision():
    report = Report(task="T2", metric_name="micro_f1", overall=1 / 3, n_rows=3)
    assert "micro_f1: 0.333333" in report.to_text()
    assert report.to_kv_lines().startswith("micro_f1\toverall\t0.333333")
