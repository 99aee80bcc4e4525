"""File round-trips: catalog, examples, probability vectors, splits; fold assignment."""

import gc
import re
from unittest import mock

import numpy as np
import pytest

from shoprank import dataio
from shoprank.dataio import (
    CATALOG_COLUMNS,
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
    Pairs,
    ProbTable,
    TASK_T2T3,
)

from shoprank.synth import SynthConfig, synth_generate

from helpers import examples_from_rows


@pytest.fixture
def catalog():
    return Catalog(
        ("9780000000001", "B0,4", 'B0"5', "B0\n6", "B000000002", "B000000003"),
        ("book, first edition", "comma id", "quote id", "newline id", 'widget "deluxe"', "gadget\nwith newline"),
        ("penguin", "acme, inc", 'say "acme"', "", "acme", "acme"),
        ("", "red", "", "line\nbreak", "red", ""),
        ("us", "us", "es", "jp", "us", "jp"),
    )


@pytest.fixture
def examples():
    return examples_from_rows(
        [
            Example("q1", "shoes, red", "9780000000001", "us", EsciLabel.EXACT),
            Example("q1", "shoes, red", "B000000002", "us", EsciLabel.IRRELEVANT),
            Example("q2", "mug", "B000000003", "jp", None),
        ],
        TASK_T2T3,
    )


class TestCatalogIO:
    def test_roundtrip_preserves_order_and_fields(self, tmp_path, catalog):
        path = tmp_path / "catalog.csv"
        write_catalog(catalog, path)
        loaded = load_catalog(path)
        for name in CATALOG_COLUMNS:
            assert getattr(loaded, name) == getattr(catalog, name), name
        assert loaded.row_of == catalog.row_of

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
        with pytest.raises(DuplicateKeyError, match=f"^{re.escape(str(path))}: row 2: duplicate product_id 'B1'"):
            load_catalog(path)


class TestExampleIO:
    def test_roundtrip_order_insensitive_by_pair(self, tmp_path, examples):
        path = tmp_path / "examples.csv"
        write_examples(examples, path)
        loaded = load_examples(path, TASK_T2T3)
        assert loaded.task == TASK_T2T3
        assert sorted(loaded) == sorted(examples)

    def test_unlabeled_rows_keep_none(self, tmp_path, examples):
        path = tmp_path / "examples.csv"
        write_examples(examples, path)
        loaded = load_examples(path, TASK_T2T3)
        assert {e.pair: e.label for e in loaded}[("q2", "B000000003")] is None

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
        assert list(loaded) == [Example("q1", "a", "B1", "us", None)]


class TestProbIO:
    def test_roundtrip_is_value_exact(self, tmp_path):
        probs = ProbTable(
            Pairs(("q1", "q1"), ("p1", "p2")),
            np.array(
                [
                    [[0.1, 0.2, 0.3, 0.4], [1 / 3, 1 / 3, 1 / 6, 1 / 6]],
                    [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
                ]
            ),
        )
        path = tmp_path / "probs.csv"
        write_probs(probs, path)
        loaded = load_probs(path)
        assert loaded.pairs == probs.pairs
        np.testing.assert_array_equal(loaded.values, probs.values)  # repr round-trips bit-exactly

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
        return examples_from_rows(
            (Example(f"q{i:03d}", "t", f"p{i:03d}", "us", EsciLabel.EXACT) for i in range(n_queries)),
            TASK_T2T3,
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
            split_folds(examples_from_rows([], TASK_T2T3), 2, seed=0)

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


class TestRowWidth:
    @pytest.mark.parametrize(
        "load, text, short_row",
        [
            (load_catalog, "product_id,title,brand,color,locale\nB1,a,x,,us\n", "B9,short"),
            (
                lambda path: load_examples(path, TASK_T2T3),
                "query_id,query,product_id,locale,esci_label\nq1,a,B1,us,E\n",
                "trn00000,short",
            ),
            (load_probs, "query_id,product_id,model,p_e,p_s,p_c,p_i\nq1,p1,0,1.0,0.0,0.0,0.0\n", "q1,p2,0,1.0"),
            (load_splits, "query_id,split\nq1,train\n", "q2"),
        ],
        ids=["catalog", "examples", "probs", "splits"],
    )
    def test_short_row_or_extra_cell_names_path_and_row(self, tmp_path, load, text, short_row):
        path = tmp_path / "input.csv"
        width = len(text.splitlines()[0].split(","))
        extra_cell = text.splitlines()[1] + ",extra"
        for row, cells in ((short_row, short_row.count(",") + 1), (extra_cell, width + 1)):
            path.write_text(text + row + "\n", encoding="utf-8")
            with pytest.raises(ParseError, match=f"row 2: {cells} fields, expected {width}") as err:
                load(path)
            assert str(path) in str(err.value)

    @pytest.mark.parametrize("chunk_rows", [1, 2])
    def test_rows_over_several_chunks_load_as_in_one(self, tmp_path, chunk_rows):
        """The readers move rows into columns a chunk at a time; the chunk size changes nothing."""
        corpus = synth_generate(SynthConfig(n_queries=6), 4)
        write_catalog(corpus.catalog, tmp_path / "catalog.csv")
        write_examples(corpus.t2t3_examples, tmp_path / "t2t3.csv")
        write_probs(corpus.probs, tmp_path / "probs.csv")

        def load():
            catalog = load_catalog(tmp_path / "catalog.csv")
            examples = load_examples(tmp_path / "t2t3.csv", TASK_T2T3, catalog)
            probs = load_probs(tmp_path / "probs.csv")
            return [getattr(catalog, name) for name in CATALOG_COLUMNS], list(examples), probs.pairs, probs.values

        whole = load()
        with mock.patch.object(dataio, "_CHUNK_ROWS", chunk_rows):
            assert load()[:3] == whole[:3]
            assert load()[3].tobytes() == whole[3].tobytes()
            lines = (tmp_path / "t2t3.csv").read_text(encoding="utf-8").splitlines()
            for bad_row, message in (("trn00000,short", "2 fields, expected 5"),
                                     ("x" * 200_000, r"field larger than field limit \(131072\)")):
                lines[5] = bad_row
                (tmp_path / "t2t3.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
                with pytest.raises(ParseError, match=f"row 5: {message}"):
                    load_examples(tmp_path / "t2t3.csv", TASK_T2T3)

    def test_gc_is_enabled_again_after_a_failed_read(self, tmp_path):
        path = tmp_path / "input.csv"
        path.write_text("query_id,split\nq1,train\nq2\n", encoding="utf-8")
        assert gc.isenabled()
        with pytest.raises(ParseError, match="row 2"):
            load_splits(path)
        assert gc.isenabled()

    def test_a_read_leaves_disabled_gc_disabled(self, tmp_path):
        path = tmp_path / "input.csv"
        path.write_text("query_id,split\nq1,train\n", encoding="utf-8")
        gc.disable()
        try:
            load_splits(path)
            assert not gc.isenabled()
        finally:
            gc.enable()
