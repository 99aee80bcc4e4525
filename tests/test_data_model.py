"""Core domain types: labels, catalogs, the example and probability tables."""

import numpy as np
import pytest

from shoprank.dataio import load_probs
from shoprank.errors import (
    DuplicateKeyError,
    IncompleteInputError,
    ParseError,
    ReferentialError,
    ValidationError,
)
from shoprank.model import (
    CLASS_ORDER,
    GAINS,
    Catalog,
    EsciLabel,
    Example,
    ExampleSet,
    N_CLASSES,
    Pairs,
    ProbTable,
    TASK_T2T3,
)

from helpers import examples_from_rows


def ex(query_id, product_id, label=None, locale="us", query="q"):
    return Example(query_id, query, product_id, locale, label)


def examples_of(*rows):
    return examples_from_rows(rows, TASK_T2T3)


def load_prob_rows(tmp_path, *rows):
    path = tmp_path / "probs.csv"
    lines = ["query_id,product_id,model,p_e,p_s,p_c,p_i"]
    lines += [f"q1,p{i},0," + ",".join(map(str, row)) for i, row in enumerate(rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return load_probs(path)


class TestLabels:
    def test_gains(self):
        assert GAINS[EsciLabel.EXACT.index] == 1.0
        assert GAINS[EsciLabel.SUBSTITUTE.index] == 0.1
        assert GAINS[EsciLabel.COMPLEMENT.index] == 0.01
        assert GAINS[EsciLabel.IRRELEVANT.index] == 0.0
        with pytest.raises(ValueError):
            GAINS[0] = 2.0

    def test_class_order_and_indices(self):
        assert N_CLASSES == 4
        assert [lbl.index for lbl in CLASS_ORDER] == [0, 1, 2, 3]
        for lbl in CLASS_ORDER:
            assert EsciLabel.from_code(lbl.value) is lbl

    def test_unknown_code_or_index_rejected(self):
        with pytest.raises(ValidationError):
            EsciLabel.from_code("X")


class TestProbVector:
    def test_roundtrip(self):
        values = np.array([[[0.7, 0.2, 0.05, 0.05]], [[0.0, 1.0, 0.0, 0.0]]])
        table = ProbTable(Pairs(("q1", "q1"), ("p1", "p2")), values)
        assert len(table) == 2
        np.testing.assert_array_equal(table.align(Pairs(("q1", "q1"), ("p2", "p1"))), values[::-1])

    def test_sum_tolerance(self, tmp_path):
        load_prob_rows(tmp_path, (0.25, 0.25, 0.25, 0.25 + 5e-7))  # inside 1e-6
        with pytest.raises(ParseError, match="row 2: probabilities sum to 2.0"):
            load_prob_rows(tmp_path, (1.0, 0.0, 0.0, 0.0), (0.5, 0.5, 0.5, 0.5))

    def test_negative_rejected(self, tmp_path):
        with pytest.raises(ParseError, match=r"row 1: p_s=-0.1 is not a probability"):
            load_prob_rows(tmp_path, (1.1, -0.1, 0.0, 0.0))
        for bad in ("nan", "inf"):
            with pytest.raises(ParseError, match=f"row 1: p_e={bad} is not a probability"):
                load_prob_rows(tmp_path, (bad, 0.0, 0.0, 1.0))


def catalog_of(*products):
    """Catalog of (product_id, locale) rows, with fixed text columns."""
    ids, locales = zip(*products)
    n = len(ids)
    return Catalog(ids, ("t",) * n, ("x",) * n, ("",) * n, locales)


class TestCatalog:
    def test_file_order_is_dense_index(self):
        cat = catalog_of(("B000000001", "us"), ("B000000002", "jp"))
        assert len(cat) == 2
        assert cat.row_of == {"B000000001": 0, "B000000002": 1}
        assert cat.rows(["B000000002", "B000000001", "B000000002"]).tolist() == [1, 0, 1]
        assert cat.locale[cat.rows(["B000000002"])[0]] == "jp"

    def test_duplicate_product_id(self):
        with pytest.raises(DuplicateKeyError, match="row 3: duplicate product_id 'B000000001'"):
            catalog_of(("B000000001", "us"), ("B000000002", "us"), ("B000000001", "us"))

    def test_empty_product_id(self):
        with pytest.raises(ValidationError, match="row 2: product_id must be non-empty"):
            catalog_of(("B000000001", "us"), ("", "us"))

    def test_columns_must_have_equal_length(self):
        with pytest.raises(ValidationError, match="catalog columns differ in length"):
            Catalog(("B000000001", "B000000002"), ("a",), ("x", "x"), ("", ""), ("us", "us"))

    def test_missing_lookup(self):
        cat = catalog_of(("B000000001", "us"))
        with pytest.raises(ReferentialError, match="product_id 'B999999999' not in catalog"):
            cat.rows(["B000000001", "B999999999", "B888888888"])

    def test_bad_locale(self):
        with pytest.raises(ValidationError, match="row 2: unknown locale 'fr' for product B000000002"):
            catalog_of(("B000000001", "us"), ("B000000002", "fr"))


class TestExampleSet:
    def test_duplicate_pair_rejected(self):
        with pytest.raises(DuplicateKeyError, match=r"row 3: duplicate pair \('q1', 'p1'\)"):
            examples_of(ex("q1", "p0"), ex("q1", "p1"), ex("q1", "p1"))

    def test_query_ids_first_seen_order(self):
        s = examples_of(ex("q2", "p1"), ex("q1", "p2"), ex("q2", "p3"))
        assert s.query_ids() == ("q2", "q1")

    def test_labeled_filters_unlabeled(self):
        s = examples_of(ex("q1", "p1", EsciLabel.EXACT), ex("q1", "p2"))
        assert s.label_index.tolist() == [0, -1]
        assert list(s) == [ex("q1", "p1", EsciLabel.EXACT), ex("q1", "p2")]
        labeled = s.labeled()
        assert [e.pair for e in labeled] == [("q1", "p1")]
        assert labeled.task == TASK_T2T3

    def test_mixed_locale_pair_rejected(self):
        with pytest.raises(ValidationError, match="row 2: unknown locale 'fr' for pair"):
            examples_of(ex("q1", "p0"), ex("q1", "p1", locale="fr"))


class TestGroups:
    def test_groups_follow_first_seen_query_order(self):
        s = examples_of(ex("qb", "p1"), ex("qa", "p2"), ex("qb", "p3"))
        assert s.query_code.tolist() == [0, 1, 0]
        assert s.offsets.tolist() == [0, 2, 3]
        assert s.order.tolist() == [0, 2, 1]

    def test_empty_set_has_no_groups(self):
        assert (examples_of().order.tolist(), examples_of().offsets.tolist()) == ([], [0])

    def test_probs_align_to_example_rows(self):
        s = examples_of(ex("q1", "p1"), ex("q1", "p2"))
        table = ProbTable(Pairs(("q1", "q1"), ("p2", "p1")), np.eye(N_CLASSES)[[1, 0]][:, None, :])
        aligned = table.align(s)
        assert aligned.shape == (2, 1, N_CLASSES)
        assert aligned[0, 0, 0] == 1.0
        assert aligned[1, 0, 1] == 1.0

    def test_align_names_missing_pairs(self):
        s = examples_of(ex("q1", "p1"), ex("q1", "p2"))
        table = ProbTable(Pairs(("q1",), ("p1",)), np.eye(N_CLASSES)[:1][:, None, :])
        with pytest.raises(IncompleteInputError, match="p2"):
            table.align(s)

    def test_mixed_locales_in_group_rejected(self):
        with pytest.raises(ValidationError, match=r"row 3: query 'q1' mixes locales \['jp', 'us'\]"):
            examples_of(ex("q0", "p0", locale="es"), ex("q1", "p1", locale="us"), ex("q1", "p2", locale="jp"))

    def test_query_text_is_held_once_per_query(self):
        s = examples_of(ex("q0", "p0", query="a"), ex("q1", "p1", query="b"), ex("q0", "p2", query="a"))
        assert (s.query_texts, s.query_text) == (("a", "b"), ("a", "b", "a"))
        with pytest.raises(ValidationError, match=r"row 3: query 'q0' mixes texts \['a', 'c'\]"):
            examples_of(ex("q0", "p0", query="a"), ex("q1", "p1", query="b"), ex("q0", "p2", query="c"))

    def test_group_validation(self):
        with pytest.raises(ValidationError):
            ExampleSet(("q1",), ("q",), ("p1", "p2"), ("us",), np.array([-1]), TASK_T2T3)
        with pytest.raises(ValidationError):
            ProbTable(Pairs(("q1",), ("p1",)), np.full((2, 1, N_CLASSES), 0.25))
