"""Core domain types: labels, probability vectors, catalogs, groups."""

import numpy as np
import pytest

from shoprank.errors import (
    DuplicateKeyError,
    IncompleteInputError,
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
    GroupMember,
    N_CLASSES,
    ProbVector,
    Product,
    QueryGroup,
    TASK_T2T3,
    build_groups,
)


def ex(query_id, product_id, label=None, tasks=(TASK_T2T3,), locale="us", query="q"):
    return Example(
        query_id=query_id,
        query_text=query,
        product_id=product_id,
        locale=locale,
        label=label,
        task_membership=frozenset(tasks),
    )


ONE_HOT_E = ProbVector(1.0, 0.0, 0.0, 0.0)


class TestLabels:
    def test_gains(self):
        assert EsciLabel.EXACT.gain == 1.0
        assert EsciLabel.SUBSTITUTE.gain == 0.1
        assert EsciLabel.COMPLEMENT.gain == 0.01
        assert EsciLabel.IRRELEVANT.gain == 0.0
        assert [lbl.gain for lbl in CLASS_ORDER] == GAINS.tolist()
        with pytest.raises(ValueError):
            GAINS[0] = 2.0

    def test_class_order_and_indices(self):
        assert N_CLASSES == 4
        assert [lbl.index for lbl in CLASS_ORDER] == [0, 1, 2, 3]
        for lbl in CLASS_ORDER:
            assert EsciLabel.from_index(lbl.index) is lbl
            assert EsciLabel.from_code(lbl.value) is lbl

    def test_unknown_code_or_index_rejected(self):
        with pytest.raises(ValidationError):
            EsciLabel.from_code("X")
        with pytest.raises(ValidationError):
            EsciLabel.from_index(4)


class TestProbVector:
    def test_roundtrip(self):
        v = ProbVector(0.7, 0.2, 0.05, 0.05)
        np.testing.assert_allclose(v.as_array(), [0.7, 0.2, 0.05, 0.05])
        assert ProbVector.from_array(v.as_array()) == v

    def test_sum_tolerance(self):
        ProbVector(0.25, 0.25, 0.25, 0.25 + 5e-7)  # inside 1e-6
        with pytest.raises(ValidationError):
            ProbVector(0.5, 0.5, 0.5, 0.5)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            ProbVector(1.1, -0.1, 0.0, 0.0)

class TestCatalog:
    def test_file_order_is_dense_index(self):
        products = [
            Product("B000000001", "a", "x", "", "us", 0),
            Product("B000000002", "b", "x", "", "us", 1),
        ]
        cat = Catalog(products)
        assert cat.get("B000000002").catalog_index == 1
        assert [p.product_id for p in cat] == ["B000000001", "B000000002"]
        assert "B000000001" in cat

    def test_duplicate_product_id(self):
        dup = [
            Product("B000000001", "a", "x", "", "us", 0),
            Product("B000000001", "b", "x", "", "us", 1),
        ]
        with pytest.raises(DuplicateKeyError):
            Catalog(dup)

    def test_index_must_match_position(self):
        with pytest.raises(ValidationError):
            Catalog([Product("B000000001", "a", "x", "", "us", 3)])

    def test_missing_lookup(self):
        cat = Catalog([Product("B000000001", "a", "x", "", "us", 0)])
        with pytest.raises(ReferentialError):
            cat.get("B999999999")

    def test_bad_locale(self):
        with pytest.raises(ValidationError):
            Product("B000000001", "a", "x", "", "fr", 0)


class TestExampleSet:
    def test_duplicate_pair_rejected(self):
        with pytest.raises(DuplicateKeyError):
            ExampleSet([ex("q1", "p1"), ex("q1", "p1")])

    def test_query_ids_first_seen_order(self):
        s = ExampleSet([ex("q2", "p1"), ex("q1", "p2"), ex("q2", "p3")])
        assert s.query_ids() == ("q2", "q1")

    def test_labeled_filters_unlabeled(self):
        s = ExampleSet([ex("q1", "p1", EsciLabel.EXACT), ex("q1", "p2")])
        assert [e.product_id for e in s.labeled()] == ["p1"]

    def test_mixed_locale_pair_rejected(self):
        with pytest.raises(ValidationError):
            ex("q1", "p1", locale="fr")


class TestGroups:
    def test_build_groups_first_seen_query_order(self):
        s = ExampleSet([ex("qb", "p1"), ex("qa", "p2"), ex("qb", "p3")])
        groups = build_groups(s)
        assert [g.query_id for g in groups] == ["qb", "qa"]
        assert [m.product_id for m in groups[0].members] == ["p1", "p3"]
        assert groups[0].size == 2

    def test_build_groups_attaches_probs_per_member(self):
        s = ExampleSet([ex("q1", "p1"), ex("q1", "p2")])
        probs = {
            ("q1", "p1"): (ONE_HOT_E,),
            ("q1", "p2"): (ProbVector(0.0, 1.0, 0.0, 0.0),),
        }
        (g,) = build_groups(s, probs)
        assert g.n_models == 1
        assert g.prob_vectors[0][0].p_e == 1.0
        assert g.prob_vectors[1][0].p_s == 1.0

    def test_build_groups_missing_probs(self):
        s = ExampleSet([ex("q1", "p1"), ex("q1", "p2")])
        probs = {("q1", "p1"): (ONE_HOT_E,)}
        with pytest.raises(IncompleteInputError, match="p2"):
            build_groups(s, probs)

    def test_mixed_locales_in_group_rejected(self):
        s = ExampleSet([ex("q1", "p1", locale="us"), ex("q1", "p2", locale="jp")])
        with pytest.raises(ValidationError):
            build_groups(s)

    def test_group_validation(self):
        with pytest.raises(ValidationError):
            QueryGroup(query_id="q1", locale="us", members=())
        with pytest.raises(ValidationError):
            QueryGroup(
                query_id="q1",
                locale="us",
                members=(GroupMember("p1", None),),
                prob_vectors=((ONE_HOT_E,), (ONE_HOT_E,)),
            )
