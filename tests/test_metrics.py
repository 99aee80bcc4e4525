"""Hand-computed oracles and properties for the gain-based metrics, and the array forms against a
per-row reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shoprank.errors import MissingKeyError, ValidationError
from shoprank.metrics import (
    Report,
    dcg,
    evaluate_classification,
    evaluate_ranking,
    ndcg,
)
from shoprank.model import GAINS, LOCALES, TASK_T1, EsciLabel, Example
from shoprank.rank import rank_order

from helpers import coded, examples_from_rows

E = EsciLabel.EXACT
S = EsciLabel.SUBSTITUTE
C = EsciLabel.COMPLEMENT
I = EsciLabel.IRRELEVANT

ONE_LIST = np.array([0])


def gains(labels):
    return GAINS[[label.index for label in labels]]


def lists(*label_lists, locales=None):
    """An ExampleSet holding query q<i>'s products p0, p1, ... with label_lists[i], in list order.

    Its rows are grouped by query in list order, so it is its own ranked lists.
    """
    locales = locales or ["us"] * len(label_lists)
    rows = [
        Example(f"q{i}", "t", f"p{j}", locale, label)
        for i, (labels, locale) in enumerate(zip(label_lists, locales))
        for j, label in enumerate(labels)
    ]
    return examples_from_rows(rows, TASK_T1)


def micro_f1(predictions, truth):
    """evaluate_classification's overall value, with every row in one query."""
    rows = examples_from_rows([Example("q", "t", f"p{i}", "us", None) for i in range(len(truth))], TASK_T1)
    return evaluate_classification("T2", np.array(predictions), np.array(truth), rows).overall


def test_default_gain_table():
    assert dcg(gains([E]), ONE_LIST)[0] == 1.0
    assert dcg(gains([I, S]), ONE_LIST)[0] == 0.1 / math.log2(3)
    assert dcg(gains([I, I, C]), ONE_LIST)[0] == 0.01 / 2.0
    assert dcg(gains([I]), ONE_LIST)[0] == 0.0


def test_dcg_single_exact():
    assert dcg(gains([E]), ONE_LIST)[0] == pytest.approx(1.0, abs=1e-12)


def test_dcg_hand_values():
    # position discounts: 1/log2(2), 1/log2(3); two lists at once
    values = dcg(gains([I, E, E, S]), np.array([0, 2]))
    assert values[0] == pytest.approx(1.0 / math.log2(3), abs=1e-9)
    assert values[1] == pytest.approx(1.0 + 0.1 / math.log2(3), abs=1e-9)


def test_dcg_empty_rejected():
    with pytest.raises(ValidationError, match="dcg of an empty ranking is undefined"):
        dcg(np.zeros(0), ONE_LIST)
    with pytest.raises(ValidationError):
        dcg(gains([E, S]), np.array([0, 1, 1]))


def test_dcg_append_monotone():
    rng = np.random.default_rng(42)
    labels = list(EsciLabel)
    for _ in range(50):
        seq = [labels[i] for i in rng.integers(0, 4, size=rng.integers(1, 12))]
        extended = seq + [labels[int(rng.integers(0, 4))]]
        assert dcg(gains(extended), ONE_LIST)[0] >= dcg(gains(seq), ONE_LIST)[0] - 1e-12


def test_ndcg_worst_order_two_items():
    assert ndcg(gains([I, E]), ONE_LIST)[0] == pytest.approx((1.0 / math.log2(3)) / 1.0, abs=1e-9)


def test_ndcg_all_exact_any_permutation():
    assert ndcg(gains([E, E, E]), ONE_LIST)[0] == pytest.approx(1.0, abs=1e-12)


def test_ndcg_all_irrelevant_convention():
    assert ndcg(gains([I, I, I, I, E]), np.array([0, 3])).tolist() == [1.0, pytest.approx(1 / math.log2(3))]


def test_ndcg_perfect_order_is_one():
    assert ndcg(gains([E, S, C, I]), ONE_LIST)[0] == pytest.approx(1.0, abs=1e-12)


def test_ndcg_missing_truth_label():
    truth = lists([E, S], [I, E])
    ranked = coded([("q0", "p0"), ("q0", "p1"), ("q1", "p0"), ("q1", "p2"), ("q9", "p0")])
    with pytest.raises(MissingKeyError, match="query 'q1': no truth label for product 'p2'"):
        evaluate_ranking(ranked, truth)
    with pytest.raises(MissingKeyError, match="no truth labels for query 'q9'"):
        evaluate_ranking(ranked.take([0, 1, 4, 2]), truth)


def test_ndcg_bounds_random():
    rng = np.random.default_rng(42)
    labels = list(EsciLabel)
    seqs = [[labels[i] for i in rng.integers(0, 4, size=rng.integers(1, 20))] for _ in range(200)]
    starts = np.cumsum([0] + [len(seq) for seq in seqs[:-1]])
    values = ndcg(gains([label for seq in seqs for label in seq]), starts)
    assert ((values >= 0.0) & (values <= 1.0 + 1e-12)).all()


def test_ndcg_adjacent_swap_strictly_improves():
    """Swapping an item above a strictly higher-gain one must increase ndcg."""
    rng = np.random.default_rng(7)
    labels = list(EsciLabel)
    checked = 0
    while checked < 300:
        seq = [labels[i] for i in rng.integers(0, 4, size=rng.integers(2, 15))]
        pos = int(rng.integers(0, len(seq) - 1))
        upper, lower = seq[pos], seq[pos + 1]
        if GAINS[upper.index] >= GAINS[lower.index]:
            continue
        swapped = list(seq)
        swapped[pos], swapped[pos + 1] = swapped[pos + 1], swapped[pos]
        assert ndcg(gains(swapped), ONE_LIST)[0] > ndcg(gains(seq), ONE_LIST)[0]
        checked += 1


def test_micro_f1_counting():
    assert micro_f1([0, 0, 1, 2], [0, 0, 1, 1]) == pytest.approx(0.75)
    assert micro_f1([0, 1], [0, 1]) == 1.0


def test_micro_f1_binary_half():
    preds = [True] * 8
    truth = [True] * 4 + [False] * 4
    assert micro_f1(preds, truth) == pytest.approx(0.5)


def test_micro_f1_errors():
    with pytest.raises(ValidationError, match="must align"):
        micro_f1([0], [0, 1])
    with pytest.raises(ValidationError, match="micro_f1 of empty inputs is undefined"):
        micro_f1([], [])


def test_micro_f1_permutation_invariant():
    rng = np.random.default_rng(42)
    preds = rng.integers(0, 4, size=60)
    truth = rng.integers(0, 4, size=60)
    base = micro_f1(preds, truth)
    order = rng.permutation(60)
    assert micro_f1(preds[order], truth[order]) == pytest.approx(base)


def test_evaluate_ranking_mean_and_locales():
    truth = lists([E, S], [I, E], locales=["us", "jp"])
    report = evaluate_ranking(truth, truth)
    expect_q2 = (1.0 / math.log2(3)) / 1.0
    assert report.overall == pytest.approx((1.0 + expect_q2) / 2, abs=1e-12)
    assert report.by_locale == (("jp", pytest.approx(expect_q2)), ("us", pytest.approx(1.0)))
    assert (report.n_queries, report.n_rows) == (2, 4)


def test_evaluate_ranking_empty_rejected():
    truth = lists([E])
    with pytest.raises(ValidationError, match="cannot evaluate an empty set of rankings"):
        evaluate_ranking(truth.take(np.zeros(0, dtype=np.int64)), truth)


def test_evaluate_classification_breakdown():
    rows = lists([E, S], [S, E], locales=["us", "jp"])
    report = evaluate_classification("T2", np.array([E.index, S.index, E.index, E.index]), rows.label_index, rows)
    assert report.overall == pytest.approx(0.75)
    assert report.by_locale == (("jp", pytest.approx(0.5)), ("us", pytest.approx(1.0)))
    assert (report.n_queries, report.n_rows) == (2, 4)


def test_report_renders_fixed_precision():
    report = Report(task="T2", metric_name="micro_f1", overall=1 / 3, n_rows=3)
    assert "micro_f1: 0.333333" in report.to_text()
    assert report.to_kv_lines().startswith("micro_f1\toverall\t0.333333")


# --- the array forms against a per-row reference -----------------------------------------------------

PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)


def reference_dcg(labels):
    """A running sum of gain / log2(position + 1) down the list (Python's sum of floats before 3.12)."""
    total = 0.0
    for position, label in enumerate(labels, start=1):
        total += float(GAINS[label.index]) / math.log2(position + 1)
    return total


def reference_ndcg(labels):
    ideal = reference_dcg(sorted(labels, key=lambda label: -GAINS[label.index]))
    return 1.0 if ideal == 0.0 else reference_dcg(labels) / ideal


def reference_mean(values):
    return sum(values) / len(values)


#: Lists of one to 14 labels, gainless ones common, each with a locale.
label_lists = st.lists(
    st.tuples(st.lists(st.sampled_from([E, S, C, I, I]), min_size=1, max_size=14), st.sampled_from(LOCALES)),
    min_size=1,
    max_size=25,
)


@PROPERTY
@given(label_lists)
def test_grouped_ndcg_matches_the_per_row_reference(groups):
    truth = lists(*[labels for labels, _ in groups], locales=[locale for _, locale in groups])
    report = evaluate_ranking(truth, truth)
    per_query = [(locale, reference_ndcg(labels)) for labels, locale in groups]
    assert report.overall == reference_mean([value for _, value in per_query])
    assert report.by_locale == tuple(
        (locale, reference_mean([value for at, value in per_query if at == locale]))
        for locale in sorted({locale for locale, _ in per_query})
    )
    assert (report.n_queries, report.n_rows) == (len(groups), sum(len(labels) for labels, _ in groups))


@PROPERTY
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["q1", "q2", "q3", "q4"]),
            st.sampled_from(["a", "a\0", "a\0\0", "\0", "A", "b", "é"]),  # numpy string sorts tie "a" and "a\0"
            st.sampled_from([0.0, 0.25, 0.25, 1.0]),
        ),
        max_size=40,
        unique_by=lambda row: row[:2],
    )
)
def test_rank_order_matches_the_per_row_reference(rows):
    pairs = coded([row[:2] for row in rows])
    order = rank_order(pairs, np.array([score for _, _, score in rows]))
    queries = list(dict.fromkeys(query for query, _, _ in rows))
    expected = [
        row[:2]
        for query in queries
        for row in sorted((row for row in rows if row[0] == query), key=lambda row: (-row[2], row[1]))
    ]
    assert [rows[i][:2] for i in order.tolist()] == expected


@PROPERTY
@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=60),
    st.lists(st.sampled_from(LOCALES), min_size=6, max_size=6),
    st.booleans(),
)
def test_micro_f1_per_locale_matches_the_per_row_reference(rows, query_locales, flags):
    if flags:  # T3: substitute flags
        rows = [(query, prediction == 1, truth == 1) for query, prediction, truth in rows]
    examples = examples_from_rows(
        [Example(f"q{query}", "t", f"p{i}", query_locales[query], None) for i, (query, _, _) in enumerate(rows)],
        TASK_T1,
    )
    predictions, truth = (np.array([row[k] for row in rows]) for k in (1, 2))
    report = evaluate_classification("T3" if flags else "T2", predictions, truth, examples)
    by_locale = {}
    for query, prediction, label in rows:
        by_locale.setdefault(query_locales[query], []).append(prediction == label)
    assert report.overall == sum(prediction == label for _, prediction, label in rows) / len(rows)
    assert report.by_locale == tuple((locale, sum(hits) / len(hits)) for locale, hits in sorted(by_locale.items()))
    assert report.n_queries == len({query for query, _, _ in rows})
