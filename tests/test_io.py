"""File round-trips: catalog, examples, probability vectors, splits; fold assignment."""

import pytest

from shoprank.dataio import (
    load_catalog,
    load_examples,
    load_probs,
    load_splits,
    split_folds,
    write_catalog,
    write_examples,
    write_probs,
    write_splits,
)
from shoprank.errors import (
    ConfigurationError,
    DuplicateKeyError,
    ParseError,
    ReferentialError,
    SchemaError,
    ValidationError,
)
from shoprank.model import (
    Catalog,
    EsciLabel,
    Example,
    ExampleSet,
    FoldAssignment,
    ProbVector,
    Product,
    TASK_T2T3,
)


@pytest.fixture
def catalog():
    return Catalog(
        [
            Product("9780000000001", "book, first edition", "penguin", "", "us", 0),
            Product("B000000002", 'widget "deluxe"', "acme", "red", "us", 1),
            Product("B000000003", "gadget\nwith newline", "acme", "", "jp", 2),
        ]
    )


@pytest.fixture
def examples():
    return ExampleSet(
        [
            Example("q1", "shoes, red", "9780000000001", "us", EsciLabel.EXACT, frozenset({TASK_T2T3})),
            Example("q1", "shoes, red", "B000000002", "us", EsciLabel.IRRELEVANT, frozenset({TASK_T2T3})),
            Example("q2", "mug", "B000000003", "jp", None, frozenset({TASK_T2T3})),
        ]
    )


class TestCatalogIO:
    def test_roundtrip_preserves_order_and_fields(self, tmp_path, catalog):
        path = tmp_path / "catalog.csv"
        write_catalog(catalog, path)
        loaded = load_catalog(path)
        assert [p.product_id for p in loaded] == [p.product_id for p in catalog]
        assert loaded.get("B000000002").title == 'widget "deluxe"'
        assert loaded.get("B000000003").title == "gadget\nwith newline"
        assert loaded.get("9780000000001").brand == "penguin"
        assert loaded.get("B000000002").catalog_index == 1

    def test_missing_column_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("product_id,title,brand\nB1,a,x\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_catalog(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "product_id,title,brand,color,locale\nB1,a,x,,us\nB1,b,x,,us\n", encoding="utf-8"
        )
        with pytest.raises(DuplicateKeyError):
            load_catalog(path)


class TestExampleIO:
    def test_roundtrip_order_insensitive_by_pair(self, tmp_path, examples):
        path = tmp_path / "examples.csv"
        write_examples(examples, path)
        loaded = load_examples(path, TASK_T2T3)
        assert {e.pair for e in loaded} == {e.pair for e in examples}
        for e in examples:
            got = loaded.get(e.pair)
            assert got.label == e.label
            assert got.query_text == e.query_text
            assert got.locale == e.locale

    def test_unlabeled_rows_keep_none(self, tmp_path, examples):
        path = tmp_path / "examples.csv"
        write_examples(examples, path)
        loaded = load_examples(path, TASK_T2T3)
        assert loaded.get(("q2", "B000000003")).label is None

    def test_bad_label_reports_row_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "query_id,query,product_id,locale,esci_label\n"
            "q1,a,B1,us,E\n"
            "q1,a,B2,us,Z\n",
            encoding="utf-8",
        )
        # data rows are numbered from 1, so the bad row is row 2
        with pytest.raises(ParseError, match="row 2"):
            load_examples(path, TASK_T2T3)

    def test_catalog_reference_enforced(self, tmp_path, catalog):
        path = tmp_path / "examples.csv"
        path.write_text(
            "query_id,query,product_id,locale,esci_label\nq1,a,B999,us,E\n", encoding="utf-8"
        )
        with pytest.raises(ReferentialError):
            load_examples(path, TASK_T2T3, catalog=catalog)

    def test_label_column_optional(self, tmp_path):
        path = tmp_path / "test_rows.csv"
        path.write_text("query_id,query,product_id,locale\nq1,a,B1,us\n", encoding="utf-8")
        loaded = load_examples(path, TASK_T2T3)
        assert loaded.get(("q1", "B1")).label is None


class TestProbIO:
    def test_roundtrip_is_value_exact(self, tmp_path):
        probs = {
            ("q1", "p1"): (ProbVector(0.1, 0.2, 0.3, 0.4), ProbVector(1 / 3, 1 / 3, 1 / 6, 1 / 6)),
            ("q1", "p2"): (ProbVector(1.0, 0.0, 0.0, 0.0), ProbVector(0.0, 0.0, 0.0, 1.0)),
        }
        path = tmp_path / "probs.csv"
        write_probs(probs, path)
        loaded = load_probs(path)
        assert loaded == probs  # repr-formatted floats round-trip bit-exactly

    def test_model_indices_must_be_dense(self, tmp_path):
        path = tmp_path / "probs.csv"
        path.write_text(
            "query_id,product_id,model,p_e,p_s,p_c,p_i\n"
            "q1,p1,0,1.0,0.0,0.0,0.0\n"
            "q1,p1,2,1.0,0.0,0.0,0.0\n",
            encoding="utf-8",
        )
        with pytest.raises(SchemaError):
            load_probs(path)

    def test_pairs_must_agree_on_model_count(self, tmp_path):
        path = tmp_path / "probs.csv"
        path.write_text(
            "query_id,product_id,model,p_e,p_s,p_c,p_i\n"
            "q1,p1,0,1.0,0.0,0.0,0.0\n"
            "q1,p1,1,1.0,0.0,0.0,0.0\n"
            "q1,p2,0,1.0,0.0,0.0,0.0\n",
            encoding="utf-8",
        )
        with pytest.raises(SchemaError):
            load_probs(path)

    def test_duplicate_model_row_rejected(self, tmp_path):
        path = tmp_path / "probs.csv"
        path.write_text(
            "query_id,product_id,model,p_e,p_s,p_c,p_i\n"
            "q1,p1,0,1.0,0.0,0.0,0.0\n"
            "q1,p1,0,1.0,0.0,0.0,0.0\n",
            encoding="utf-8",
        )
        with pytest.raises(DuplicateKeyError):
            load_probs(path)


def queries_in_fold(folds, fold):
    return [q for q, f in folds.by_query.items() if f == fold]


class TestFolds:
    def _examples(self, n_queries):
        return ExampleSet(
            Example(f"q{i:03d}", "t", f"p{i:03d}", "us", EsciLabel.EXACT, frozenset())
            for i in range(n_queries)
        )

    def test_two_folds_of_two(self):
        folds = split_folds(self._examples(4), 2, seed=0)
        sizes = [len(queries_in_fold(folds, f)) for f in range(2)]
        assert sorted(sizes) == [2, 2]

    def test_deterministic(self):
        a = split_folds(self._examples(10), 3, seed=7)
        b = split_folds(self._examples(10), 3, seed=7)
        assert a.by_query == b.by_query
        c = split_folds(self._examples(10), 3, seed=8)
        assert a.by_query != c.by_query

    def test_101_queries_two_folds(self):
        folds = split_folds(self._examples(101), 2, seed=1)
        sizes = sorted(len(queries_in_fold(folds, f)) for f in range(2))
        assert sizes == [50, 51]

    def test_partition_property(self):
        examples = self._examples(23)
        folds = split_folds(examples, 4, seed=3)
        seen = [q for f in range(4) for q in queries_in_fold(folds, f)]
        assert sorted(seen) == sorted(examples.query_ids())
        assert max(len(queries_in_fold(folds, f)) for f in range(4)) - min(
            len(queries_in_fold(folds, f)) for f in range(4)
        ) <= 1

    def test_k_validation(self):
        with pytest.raises(ConfigurationError):
            split_folds(self._examples(3), 1, seed=0)
        with pytest.raises(ConfigurationError):
            split_folds(self._examples(3), 4, seed=0)
        with pytest.raises(ConfigurationError):
            split_folds(ExampleSet([]), 2, seed=0)

class TestSplits:
    def test_roundtrip(self, tmp_path):
        splits = {"q1": "train", "q2": "private", "q3": "public"}
        path = tmp_path / "splits.csv"
        write_splits(splits, path)
        assert load_splits(path) == splits

    def test_unknown_split_name_rejected(self, tmp_path):
        path = tmp_path / "splits.csv"
        path.write_text("query_id,split\nq1,validation\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_splits(path)

    def test_duplicate_query_rejected(self, tmp_path):
        path = tmp_path / "splits.csv"
        path.write_text("query_id,split\nq1,train\nq1,public\n", encoding="utf-8")
        with pytest.raises(DuplicateKeyError):
            load_splits(path)
