"""Synthetic corpus generator: structural fidelity of the generated data.

The assertions mirror the dataset artifacts the pipeline depends on:
block-ordered catalog, mostly single-use products, label-share offsets for
the ranking subset, the 16/40 group-size mixture, digit-leading book ids,
and at least one Exact per labeled group.
"""

import collections
from dataclasses import replace

import numpy as np
import pytest

from shoprank.errors import ConfigurationError
from shoprank.model import CLASS_ORDER, EsciLabel, ExampleSet
from shoprank.synth import (
    SPLIT_ORDER,
    SPLIT_PRIVATE,
    SPLIT_PUBLIC,
    SPLIT_TRAIN,
    SynthConfig,
    query_split,
    synth_generate,
)

BASE = SynthConfig(n_queries=120)


@pytest.fixture(scope="module")
def corpus():
    return synth_generate(BASE, seed=11)


def all_examples(res):
    """Every distinct (query, product) pair of both task files; shared pairs must agree."""
    merged = {}
    for e in (*res.t1_examples, *res.t2t3_examples):
        first = merged.setdefault(e.pair, e)
        assert (first.query_text, first.locale, first.label) == (e.query_text, e.locale, e.label)
    return ExampleSet(merged.values())


def first_use_split(examples):
    """Earliest split (train < private < public) whose queries use each product."""
    first = {}
    for e in examples:
        split = query_split(e.query_id)
        if e.product_id not in first or SPLIT_ORDER.index(split) < SPLIT_ORDER.index(first[e.product_id]):
            first[e.product_id] = split
    return first


class TestBlocks:
    def test_query_split_prefixes(self):
        assert query_split("trn00000") == SPLIT_TRAIN
        assert query_split("prv00003") == SPLIT_PRIVATE
        assert query_split("pub00124") == SPLIT_PUBLIC
        with pytest.raises(ConfigurationError):
            query_split("zzz00000")

    def test_split_sizes_follow_fractions(self, corpus):
        counts = collections.Counter(
            query_split(q) for q in all_examples(corpus).query_ids()
        )
        assert counts[SPLIT_TRAIN] == round(120 * 0.6)
        assert counts[SPLIT_PRIVATE] == round(120 * 0.2)
        assert sum(counts.values()) == 120

    def test_catalog_ordered_train_then_private_then_public(self, corpus):
        """Products introduced by a later block never precede an earlier block."""
        first_use = first_use_split(all_examples(corpus))
        rank = {s: i for i, s in enumerate(SPLIT_ORDER)}
        block_seq = [
            rank[first_use[p.product_id]] for p in corpus.catalog
        ]
        assert block_seq == sorted(block_seq)
        assert set(block_seq) == {0, 1, 2}

    def test_every_catalog_product_is_used(self, corpus):
        used = all_examples(corpus).product_ids()
        assert used == frozenset(p.product_id for p in corpus.catalog)


class TestProductReuse:
    def test_at_least_95_percent_single_use(self, corpus):
        uses = collections.Counter(e.product_id for e in all_examples(corpus))
        single = sum(1 for n in uses.values() if n == 1)
        assert single / len(uses) >= 0.95

    def test_some_reuse_happens(self, corpus):
        uses = collections.Counter(e.product_id for e in all_examples(corpus))
        assert any(n > 1 for n in uses.values())

    def test_reuse_stays_within_locale(self, corpus):
        locales = collections.defaultdict(set)
        for e in all_examples(corpus):
            locales[e.product_id].add(e.locale)
        assert all(len(ls) == 1 for ls in locales.values())


class TestLabelShares:
    def test_base_shares_within_2pct(self):
        res = synth_generate(SynthConfig(n_queries=500, t1_fraction=0.0), seed=3)
        labels = [e.label for e in res.t2t3_examples]
        share_e = labels.count(EsciLabel.EXACT) / len(labels)
        assert abs(share_e - 0.40) <= 0.02

    def test_t1_shares_shifted_by_offset(self):
        cfg = SynthConfig(n_queries=400, t1_fraction=1.0, force_exact=False)
        res = synth_generate(cfg, seed=5)
        labels = [e.label for e in res.t1_examples]
        share_e = labels.count(EsciLabel.EXACT) / len(labels)
        share_s = labels.count(EsciLabel.SUBSTITUTE) / len(labels)
        assert abs(share_e - (0.40 + cfg.t1_exact_offset)) <= 0.02
        assert abs(share_s - (0.30 - cfg.t1_exact_offset)) <= 0.02

    def test_zero_offset_means_same_distribution(self):
        cfg = SynthConfig(n_queries=400, t1_fraction=0.5, t1_exact_offset=0.0, force_exact=False)
        res = synth_generate(cfg, seed=9)
        t1 = [e.label for e in res.t1_examples]
        t2 = [e.label for e in res.t2t3_examples]
        se1 = t1.count(EsciLabel.EXACT) / len(t1)
        se2 = t2.count(EsciLabel.EXACT) / len(t2)
        assert abs(se1 - se2) <= 0.04

    def test_t1_rows_are_subset_of_t2t3_queries_universe(self, corpus):
        # every T1 query also exists in T2T3 (the larger dataset)
        t2_queries = set(corpus.t2t3_examples.query_ids())
        assert set(corpus.t1_examples.query_ids()) <= t2_queries


class TestGroupSizes:
    def test_mixture_sizes_only(self, corpus):
        sizes = collections.Counter()
        per_query = collections.Counter(e.query_id for e in corpus.t2t3_examples)
        for size in per_query.values():
            sizes[size] += 1
        assert set(sizes) <= {16, 40}

    def test_mixture_mass_within_3pct(self):
        res = synth_generate(SynthConfig(n_queries=600), seed=2)
        per_query = collections.Counter(e.query_id for e in res.t2t3_examples)
        n16 = sum(1 for s in per_query.values() if s == 16)
        assert abs(n16 / len(per_query) - 0.6) <= 0.03

    def test_forced_single_size(self):
        res = synth_generate(replace(BASE, count_mixture=((16, 1.0),)), seed=1)
        per_query = collections.Counter(e.query_id for e in res.t2t3_examples)
        assert set(per_query.values()) == {16}


class TestIdsAndBrands:
    def test_isbn_ids_start_with_digit(self, corpus):
        for p in corpus.catalog:
            if p.product_id[0].isdigit():
                assert len(p.product_id) == 13
            else:
                assert p.product_id[0] == "B"

    def test_isbn_rate_controls_digit_ids(self):
        res = synth_generate(replace(BASE, isbn_query_rate=0.0), seed=4)
        assert all(not p.product_id[0].isdigit() for p in res.catalog)

    def test_brand_pools_are_small(self, corpus):
        """Each group draws from a small brand pool, so brand counts repeat.

        Reused products bring their original brand along, so the distinct
        count can exceed the pool size by the number of reused members; it
        must still stay below the group size, and one dominant brand should
        cover a substantial share of members.
        """
        brands = collections.defaultdict(list)
        for e in corpus.t2t3_examples:
            brands[e.query_id].append(corpus.catalog.get(e.product_id).brand)
        top_shares = []
        for q, blist in brands.items():
            distinct = len(set(blist))
            assert distinct < len(blist), q
            top_shares.append(collections.Counter(blist).most_common(1)[0][1] / len(blist))
        assert np.mean(top_shares) >= 0.3  # dominant brand configured at 0.4


class TestExactGuarantee:
    def test_every_labeled_group_has_an_exact(self, corpus):
        has_exact = collections.defaultdict(bool)
        for e in corpus.t2t3_examples:
            if e.label is EsciLabel.EXACT:
                has_exact[e.query_id] = True
        for q in corpus.t2t3_examples.query_ids():
            assert has_exact[q], q

    def test_tiny_exact_share_still_forced(self):
        cfg = replace(
            BASE,
            n_queries=60,
            label_shares=(("E", 0.01), ("S", 0.39), ("C", 0.20), ("I", 0.40)),
            t1_exact_offset=0.0,
        )
        res = synth_generate(cfg, seed=6)
        by_query = collections.defaultdict(list)
        for e in res.t2t3_examples:
            by_query[e.query_id].append(e.label)
        assert all(EsciLabel.EXACT in labs for labs in by_query.values())


class TestProbVectors:
    def test_noiseless_vectors_are_one_hot(self):
        res = synth_generate(replace(BASE, noise=0.0), seed=8)
        for e in res.t2t3_examples:
            for vec in res.probs[e.pair]:
                arr = vec.as_array()
                assert arr[e.label.index] == 1.0
                assert arr.sum() == 1.0

    def test_every_pair_has_n_models_vectors(self):
        res = synth_generate(replace(BASE, n_models=3), seed=8)
        for e in all_examples(res):
            assert len(res.probs[e.pair]) == 3

    def test_noisy_vectors_remain_label_correlated(self, corpus):
        hits = 0
        total = 0
        for e in corpus.t2t3_examples:
            arr = corpus.probs[e.pair][0].as_array()
            hits += int(CLASS_ORDER[int(np.argmax(arr))] is e.label)
            total += 1
        # at default noise the raw argmax still beats 4-way chance (0.25)
        # by a wide margin, which is the learnable signal the trainer fuses
        assert hits / total >= 0.35


class TestDeterminismAndValidation:
    def test_same_seed_same_corpus(self):
        a = synth_generate(BASE, seed=42)
        b = synth_generate(BASE, seed=42)
        assert [p.product_id for p in a.catalog] == [p.product_id for p in b.catalog]
        assert tuple(a.t2t3_examples.pairs) == tuple(b.t2t3_examples.pairs)
        for pair in a.t2t3_examples.pairs:
            assert a.probs[pair] == b.probs[pair]

    def test_different_seed_differs(self):
        a = synth_generate(BASE, seed=42)
        b = synth_generate(BASE, seed=43)
        assert [p.product_id for p in a.catalog] != [p.product_id for p in b.catalog] or tuple(
            a.t2t3_examples.pairs
        ) != tuple(b.t2t3_examples.pairs)

    def test_infeasible_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            synth_generate(replace(BASE, noise=1.5), seed=0)
        with pytest.raises(ConfigurationError):
            synth_generate(
                replace(BASE, label_shares=(("E", 0.0), ("S", 0.5), ("C", 0.25), ("I", 0.25)),
                        t1_exact_offset=0.0),
                seed=0,
            )
        with pytest.raises(ConfigurationError):
            synth_generate(replace(BASE, train_fraction=0.9, private_fraction=0.3), seed=0)
        with pytest.raises(ConfigurationError):
            synth_generate(replace(BASE, t1_exact_offset=0.7), seed=0)
        with pytest.raises(ConfigurationError):
            synth_generate(replace(BASE, count_mixture=((16, 0.5), (40, 0.4))), seed=0)
