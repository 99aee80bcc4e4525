"""Feature assembly: per-op hand oracles, broadcasting, schema round-trips."""

from dataclasses import replace

import numpy as np
import pytest

from shoprank.errors import FormatError, IncompleteInputError, ParseError, SchemaError, ValidationError
from shoprank.features import (
    FEATURE_FAMILIES,
    FeatureMatrix,
    assemble_features,
    brand_features,
    canonical_columns,
    column_family,
    column_type,
    group_prob_stats,
    isbn_flags,
    query_product_count,
    t1_membership_ratio,
)
from shoprank.model import (
    Catalog,
    EsciLabel,
    Example,
    ExampleSet,
    GroupMember,
    ProbVector,
    Product,
    QueryGroup,
    TASK_T2T3,
)
from shoprank.synth import SynthConfig, synth_generate

V = ProbVector


def group_of(product_ids, probs=None):
    members = tuple(GroupMember(p, None) for p in product_ids)
    vectors = tuple(tuple(vs) for vs in probs) if probs is not None else ()
    return QueryGroup("q1", "us", members, vectors)


class TestScalarOps:
    def test_membership_ratio(self):
        g = group_of(["a", "b", "c", "d"])
        assert t1_membership_ratio(g, {"a", "c"}) == 0.5
        assert t1_membership_ratio(g, set()) == 0.0
        assert t1_membership_ratio(g, {"a", "b", "c", "d", "zzz"}) == 1.0

    def test_product_count(self):
        assert query_product_count(group_of(["a", "b", "c"])) == 3

    def test_isbn_flags(self):
        flags = isbn_flags(group_of(["B0A", "12AB"]))
        assert flags == [(0, 1), (1, 1)]
        flags = isbn_flags(group_of(["B0A", "BXY"]))
        assert flags == [(0, 0), (0, 0)]

    def test_brand_features_majority(self):
        cat = Catalog(
            [
                Product("a", "t", "X", "", "us", 0),
                Product("b", "t", "X", "", "us", 1),
                Product("c", "t", "Y", "", "us", 2),
            ]
        )
        assert brand_features(group_of(["a", "b", "c"]), cat) == [(2, 1), (2, 1), (2, 0)]

    def test_brand_features_tie_flags_both(self):
        cat = Catalog(
            [
                Product("a", "t", "X", "", "us", 0),
                Product("b", "t", "Y", "", "us", 1),
            ]
        )
        assert brand_features(group_of(["a", "b"]), cat) == [(2, 1), (2, 1)]

    def test_empty_brand_is_its_own_value(self):
        cat = Catalog(
            [
                Product("a", "t", "", "", "us", 0),
                Product("b", "t", "", "", "us", 1),
                Product("c", "t", "Y", "", "us", 2),
            ]
        )
        assert brand_features(group_of(["a", "b", "c"]), cat) == [(2, 1), (2, 1), (2, 0)]


class TestGroupStats:
    def test_odd_count_median_is_middle(self):
        probs = [
            [V(0.2, 0.3, 0.1, 0.4)],
            [V(0.6, 0.2, 0.1, 0.1)],
            [V(0.4, 0.1, 0.2, 0.3)],
        ]
        stats = group_prob_stats(group_of(["a", "b", "c"], probs), 0)
        assert stats["g_e_min_m0"] == pytest.approx(0.2)
        assert stats["g_e_med_m0"] == pytest.approx(0.4)
        assert stats["g_e_max_m0"] == pytest.approx(0.6)

    def test_even_count_median_is_midpoint(self):
        probs = [[V(0.1, 0.4, 0.2, 0.3)], [V(0.5, 0.2, 0.2, 0.1)]]
        stats = group_prob_stats(group_of(["a", "b"], probs), 0)
        assert stats["g_e_med_m0"] == pytest.approx(0.3)
        assert stats["g_s_med_m0"] == pytest.approx(0.3)

    def test_singleton_group(self):
        probs = [[V(0.7, 0.1, 0.1, 0.1)]]
        stats = group_prob_stats(group_of(["a"], probs), 0)
        assert stats["g_e_min_m0"] == stats["g_e_med_m0"] == stats["g_e_max_m0"] == 0.7

    def test_missing_model_raises(self):
        probs = [[V(1.0, 0.0, 0.0, 0.0)]]
        with pytest.raises(IncompleteInputError):
            group_prob_stats(group_of(["a"], probs), 1)
        with pytest.raises(IncompleteInputError):
            group_prob_stats(group_of(["a"]), 0)


class TestColumnSchema:
    def test_column_counts(self):
        # 6 scalars + 4 probabilities + 12 group stats per model
        assert len(canonical_columns(1)) == 22
        assert len(canonical_columns(3)) == 6 + 3 * 16

    def test_family_mapping(self):
        assert column_family("t1_membership_ratio") == "leakage"
        assert column_family("query_product_count") == "product_count"
        assert column_family("is_isbn") == "isbn"
        assert column_family("brand_unique_count") == "brand"
        assert column_family("g_e_min_m0") == "group_stats"
        assert column_family("p_e_m0") is None

    def test_types(self):
        assert column_type("is_isbn") == "binary"
        assert column_type("query_product_count") == "integer"
        assert column_type("g_i_max_m0") == "real"
        assert column_type("t1_membership_ratio") == "real"


def small_corpus():
    catalog = Catalog(
        [
            Product("9780000000001", "t", "X", "", "us", 0),
            Product("B000000002", "t", "X", "", "us", 1),
            Product("B000000003", "t", "Y", "", "us", 2),
            Product("B000000004", "t", "Z", "", "us", 3),
        ]
    )
    examples = ExampleSet(
        [
            Example("q1", "w", "9780000000001", "us", EsciLabel.EXACT, frozenset({TASK_T2T3})),
            Example("q1", "w", "B000000002", "us", EsciLabel.SUBSTITUTE, frozenset({TASK_T2T3})),
            Example("q2", "v", "B000000003", "us", EsciLabel.EXACT, frozenset({TASK_T2T3})),
            Example("q2", "v", "B000000004", "us", EsciLabel.IRRELEVANT, frozenset({TASK_T2T3})),
        ]
    )
    probs = {
        ("q1", "9780000000001"): (V(0.8, 0.1, 0.05, 0.05),),
        ("q1", "B000000002"): (V(0.2, 0.6, 0.1, 0.1),),
        ("q2", "B000000003"): (V(0.9, 0.05, 0.03, 0.02),),
        ("q2", "B000000004"): (V(0.1, 0.1, 0.2, 0.6),),
    }
    return catalog, examples, probs


class TestAssemble:
    def test_rows_follow_example_order_and_groups_broadcast(self):
        catalog, examples, probs = small_corpus()
        m = assemble_features(examples, catalog, probs, t1_products=["9780000000001"])
        assert m.pairs == examples.pairs
        assert m.columns == canonical_columns(1)
        ratio = m.column("t1_membership_ratio")
        np.testing.assert_allclose(ratio, [0.5, 0.5, 0.0, 0.0])
        np.testing.assert_allclose(m.column("query_product_count"), [2, 2, 2, 2])
        np.testing.assert_allclose(m.column("is_isbn"), [1, 0, 0, 0])
        np.testing.assert_allclose(m.column("group_has_isbn"), [1, 1, 0, 0])
        np.testing.assert_allclose(m.column("p_e_m0"), [0.8, 0.2, 0.9, 0.1])
        np.testing.assert_allclose(m.column("g_e_min_m0"), [0.2, 0.2, 0.1, 0.1])
        np.testing.assert_allclose(m.column("g_e_max_m0"), [0.8, 0.8, 0.9, 0.9])
        np.testing.assert_allclose(m.column("g_e_med_m0"), [0.5, 0.5, 0.5, 0.5])

    def test_group_features_identical_within_group(self):
        res = synth_generate(SynthConfig(n_queries=30), seed=21)
        m = assemble_features(
            res.t2t3_examples,
            res.catalog,
            res.probs,
            res.t1_examples.product_ids(),
        )
        by_query = {}
        for i, (qid, _) in enumerate(m.pairs):
            by_query.setdefault(qid, []).append(i)
        for name in ("t1_membership_ratio", "query_product_count", "group_has_isbn",
                     "brand_unique_count", "g_s_med_m0"):
            col = m.column(name)
            for rows in by_query.values():
                assert len(set(col[rows])) == 1, name

    def test_missing_prob_vector_names_pair(self):
        catalog, examples, probs = small_corpus()
        probs = dict(probs)
        del probs[("q2", "B000000004")]
        with pytest.raises(IncompleteInputError, match="B000000004"):
            assemble_features(examples, catalog, probs, [])

    def test_brand_column_counts_unique_brands(self):
        catalog, examples, probs = small_corpus()
        m = assemble_features(examples, catalog, probs, [])
        np.testing.assert_allclose(m.column("brand_unique_count"), [1, 1, 2, 2])
        np.testing.assert_allclose(m.column("is_most_frequent_brand"), [1, 1, 1, 1])

    def test_unique_brand_mean_below_group_size(self):
        res = synth_generate(SynthConfig(n_queries=40), seed=22)
        m = assemble_features(
            res.t2t3_examples, res.catalog, res.probs, res.t1_examples.product_ids()
        )
        assert m.column("brand_unique_count").mean() < m.column("query_product_count").mean()


class TestFeatureMatrix:
    def matrix(self):
        cols = ("a", "b")
        vals = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        pairs = (("q1", "p1"), ("q1", "p2"), ("q2", "p3"))
        return FeatureMatrix(cols, vals, pairs)

    def test_validation(self):
        with pytest.raises(ValidationError):
            FeatureMatrix(("a",), np.ones((2, 2)), (("q", "p1"), ("q", "p2")))
        with pytest.raises(ValidationError, match="row 1.*column 'a'"):
            FeatureMatrix(
                ("a",), np.array([[1.0], [np.nan]]), (("q", "p1"), ("q", "p2"))
            )

    def test_select_and_drop(self):
        m = self.matrix()
        sel = m.select(("b",))
        np.testing.assert_allclose(sel.values[:, 0], [2.0, 4.0, 6.0])
        with pytest.raises(SchemaError):
            m.select(("zz",))

    def test_drop_family(self):
        catalog, examples, probs = small_corpus()
        m = assemble_features(examples, catalog, probs, ["9780000000001"])
        dropped = m.drop_family("group_stats")
        assert all(not c.startswith("g_") for c in dropped.columns)
        assert len(dropped.columns) == len(m.columns) - 12  # 4 classes x 3 stats
        with pytest.raises(SchemaError):
            m.drop_family("nope")

    def test_restrict_rows(self):
        m = self.matrix()
        r = m.restrict_rows(np.array([True, False, True]))
        assert r.pairs == (("q1", "p1"), ("q2", "p3"))
        np.testing.assert_allclose(r.values[:, 0], [1.0, 5.0])

    def test_save_load_roundtrip(self, tmp_path):
        catalog, examples, probs = small_corpus()
        m = assemble_features(examples, catalog, probs, ["9780000000001"])
        path = tmp_path / "features.csv"
        m.save(path)
        assert (tmp_path / "features.csv.schema").exists()
        loaded = FeatureMatrix.load(path)
        assert loaded.columns == m.columns
        assert loaded.pairs == m.pairs
        np.testing.assert_array_equal(loaded.values, m.values)  # repr round-trip

    def test_load_without_sidecar(self, tmp_path):
        m = self.matrix()
        m.save(tmp_path / "f.csv")
        (tmp_path / "f.csv.schema").unlink()
        with pytest.raises(FormatError):
            FeatureMatrix.load(tmp_path / "f.csv")

    def test_load_reports_bad_cell_and_short_row(self, tmp_path):
        path = tmp_path / "f.csv"
        self.matrix().save(path)
        good = path.read_text(encoding="utf-8").splitlines()
        for row, text, expected in ((2, "abc", "row 2: could not convert"), (3, None, "row 3: 3 fields")):
            lines = list(good)
            cells = lines[row].split(",")
            lines[row] = ",".join(cells[:-1] + [text] if text else cells[:-1])
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            with pytest.raises(ParseError, match=expected) as err:
                FeatureMatrix.load(path)
            assert str(path) in str(err.value)

    def test_sidecar_types_recorded(self, tmp_path):
        catalog, examples, probs = small_corpus()
        m = assemble_features(examples, catalog, probs, [])
        m.save(tmp_path / "f.csv")
        lines = (tmp_path / "f.csv.schema").read_text(encoding="utf-8").splitlines()
        schema = dict(line.split("\t") for line in lines)
        assert schema["is_isbn"] == "binary"
        assert schema["query_product_count"] == "integer"
        assert schema["g_e_min_m0"] == "real"


class TestFamilies:
    def test_family_list_is_stable(self):
        assert FEATURE_FAMILIES == ("leakage", "product_count", "isbn", "brand", "group_stats")

    def test_row_order_independence(self):
        """Reordering examples only permutes rows, never changes values."""
        catalog, examples, probs = small_corpus()
        m1 = assemble_features(examples, catalog, probs, ["9780000000001"])
        reordered = ExampleSet(reversed(tuple(examples)))
        m2 = assemble_features(reordered, catalog, probs, ["9780000000001"])
        lookup = {pair: i for i, pair in enumerate(m2.pairs)}
        for i, pair in enumerate(m1.pairs):
            np.testing.assert_array_equal(m1.values[i], m2.values[lookup[pair]])
