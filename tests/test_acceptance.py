"""Acceptance gate: one test per release criterion, one printed verdict line each.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the verdict
lines alongside pytest's own status. Each criterion pins its tolerance inline;
a failure prints FAIL for that criterion and surfaces the underlying assert.
"""

import collections
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from shoprank.cli import main
from shoprank.gbdt import (
    OBJECTIVE_BINARY,
    OBJECTIVE_MULTICLASS,
    GbdtParams,
    binary_grad_hess,
    load_model,
    multiclass_grad_hess,
    predict_proba,
    save_model,
    train,
)
from shoprank.metrics import dcg, ndcg
from shoprank.model import EsciLabel
from shoprank.pipeline import PipelineConfig, PipelineData, run_ablation, run_pipeline
from shoprank.rank import RankedList, expected_gain_rows
from shoprank.sched import (
    TokenRecord,
    padding_waste,
    presort_batches,
    run_inference,
    sequential_batches,
)
from shoprank.synth import (
    SPLIT_ORDER,
    SPLIT_TRAIN,
    SynthConfig,
    query_split,
    synth_generate,
)

from test_gbdt import assert_stump_matches_oracle, _random_instance, mat
from test_synth import all_examples, first_use_split


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}", flush=True)
        raise
    print(f"PASS  {name}", flush=True)


def make_data(config, seed):
    res = synth_generate(config, seed)
    eval_queries = frozenset(
        q for q in res.t2t3_examples.query_ids() if query_split(q) != SPLIT_TRAIN
    )
    return PipelineData(res.catalog, res.t1_examples, res.t2t3_examples, res.probs, eval_queries)


GAIN = {
    EsciLabel.EXACT: 1.0,
    EsciLabel.SUBSTITUTE: 0.1,
    EsciLabel.COMPLEMENT: 0.01,
    EsciLabel.IRRELEVANT: 0.0,
}


class TestCriteria:
    def test_1_metric_hand_values_and_swap_monotonicity(self):
        with criterion("1. ranking metric hand values; swap monotonicity on 1000 groups; < 1 s"):
            t0 = time.perf_counter()

            # Irrelevant above Exact: DCG 1/log2(3), ideal 1; 5-dp value 0.63093.
            truth = {"a": EsciLabel.IRRELEVANT, "b": EsciLabel.EXACT}
            v = ndcg(RankedList("q", ("a", "b"), (0.0, 0.0)), truth)
            assert abs(v - 1.0 / math.log2(3)) < 1e-9
            assert round(v, 5) == 0.63093

            # Exact then Substitute: DCG = 1 + 0.1/log2(3); 5-dp value 1.06309.
            d = dcg([EsciLabel.EXACT, EsciLabel.SUBSTITUTE])
            assert abs(d - (1.0 + 0.1 / math.log2(3))) < 1e-9
            assert round(d, 5) == 1.06309

            all_exact = {p: EsciLabel.EXACT for p in ("a", "b", "c")}
            v = ndcg(RankedList("q", ("b", "c", "a"), (0.0,) * 3), all_exact)
            assert abs(v - 1.0) < 1e-9

            # Swapping two adjacent items moves the metric with the gain order:
            # lower gain above higher gain -> swap improves, and vice versa.
            labels = list(GAIN)
            rng = np.random.default_rng(2024)
            for _ in range(1000):
                n = int(rng.integers(2, 12))
                lab = [labels[i] for i in rng.integers(0, 4, size=n)]
                lab[0], lab[1] = EsciLabel.EXACT, EsciLabel.IRRELEVANT
                pids = [f"p{i}" for i in range(n)]
                truth = dict(zip(pids, lab))
                order = list(rng.permutation(pids))
                i = next(
                    i for i in range(n - 1)
                    if GAIN[truth[order[i]]] != GAIN[truth[order[i + 1]]]
                )
                before = ndcg(RankedList("q", tuple(order), (0.0,) * n), truth)
                worse_first = GAIN[truth[order[i]]] < GAIN[truth[order[i + 1]]]
                order[i], order[i + 1] = order[i + 1], order[i]
                after = ndcg(RankedList("q", tuple(order), (0.0,) * n), truth)
                assert (after > before) if worse_first else (after < before)

            assert time.perf_counter() - t0 < 1.0

    def test_2_expected_gain_commutes_with_averaging(self):
        with criterion("2. expected gain is linear: mean of gains == gain of mean, < 1e-12"):
            rng = np.random.default_rng(99)
            for _ in range(1000):
                m = int(rng.integers(2, 9))
                rows = rng.dirichlet(np.ones(4), size=m)
                fused = expected_gain_rows(rows.mean(axis=0, keepdims=True))[0]
                averaged = float(np.mean(expected_gain_rows(rows)))
                assert abs(fused - averaged) < 1e-12

    def test_3_boosting_matches_bruteforce_and_calculus(self):
        with criterion("3. stump == brute force (1e-9); grad/hess vs finite diff (1e-5 rel); loss monotone"):
            # Depth-1, one round, against exhaustive split search on 50 instances.
            rng = np.random.default_rng(42)
            for _ in range(50):
                X, y, msl = _random_instance(rng)
                params = GbdtParams(num_rounds=1, max_depth=1, min_samples_leaf=msl)
                model = train(mat(X), y, OBJECTIVE_BINARY, params)
                pos = y.mean()
                p0 = 1.0 / (1.0 + math.exp(-math.log(pos / (1 - pos))))
                g = np.full(len(y), p0) - y
                h = np.full(len(y), p0 * (1 - p0))
                assert_stump_matches_oracle(
                    model.trees[0], X, g, h, params.l2_reg, msl, params.learning_rate
                )

            # Analytic softmax derivatives against central differences.
            rng = np.random.default_rng(7)
            eps_g, eps_h = 1e-4, 1e-3

            def row_loss(margin, target):
                shifted = margin - margin.max()
                return -(shifted[target] - math.log(np.exp(shifted).sum()))

            for _ in range(20):
                margin = rng.normal(size=4)
                target = int(rng.integers(0, 4))
                g, h = multiclass_grad_hess(margin[None, :], np.array([target]))
                for k in range(4):
                    def at(delta, k=k):
                        m = margin.copy()
                        m[k] += delta
                        return row_loss(m, target)

                    fd_g = (at(eps_g) - at(-eps_g)) / (2 * eps_g)
                    fd_h = (at(eps_h) - 2 * at(0.0) + at(-eps_h)) / eps_h**2
                    assert abs(g[0, k] - fd_g) <= 1e-5 * max(abs(fd_g), 1e-3)
                    assert abs(h[0, k] - fd_h) <= 1e-5 * max(abs(fd_h), 1e-3)

            def bin_loss(m, t):
                p = 1.0 / (1.0 + math.exp(-m))
                return -(t * math.log(p) + (1 - t) * math.log(1 - p))

            for _ in range(20):
                m = float(rng.normal())
                t = float(rng.integers(0, 2))
                g, h = binary_grad_hess(np.array([m]), np.array([t]))
                fd_g = (bin_loss(m + eps_g, t) - bin_loss(m - eps_g, t)) / (2 * eps_g)
                fd_h = (bin_loss(m + eps_h, t) - 2 * bin_loss(m, t) + bin_loss(m - eps_h, t)) / eps_h**2
                assert abs(g[0] - fd_g) <= 1e-5 * max(abs(fd_g), 1e-3)
                assert abs(h[0] - fd_h) <= 1e-5 * max(abs(fd_h), 1e-3)

            # Training log-loss never increases across 200 rounds.
            rng = np.random.default_rng(42)
            y = rng.integers(0, 4, size=300)
            X = np.column_stack(
                [
                    (y % 2) + rng.normal(scale=0.15, size=300),
                    (y // 2) + rng.normal(scale=0.15, size=300),
                    rng.normal(size=300),
                ]
            )
            model = train(
                mat(X), y, OBJECTIVE_MULTICLASS,
                GbdtParams(num_rounds=200, max_depth=3, min_samples_leaf=5),
            )
            assert len(model.train_loss) == 200
            assert np.all(np.diff(np.array(model.train_loss)) <= 1e-10)

    def test_4_noiseless_end_to_end_is_perfect(self):
        with criterion("4. noiseless 500-query run: T1 nDCG = T2 F1 = T3 F1 = 1.0, < 2 min"):
            t0 = time.perf_counter()
            data = make_data(SynthConfig(n_queries=500, noise=0.0), seed=11)
            params = GbdtParams(num_rounds=40, max_depth=4, min_samples_leaf=10)
            result = run_pipeline(data, PipelineConfig(params=params, seed=0))
            assert result.report("T1").overall == 1.0
            assert result.report("T2").overall == 1.0
            assert result.report("T3").overall == 1.0
            assert time.perf_counter() - t0 < 120.0

    def test_5_feature_families_carry_signal_on_noisy_data(self):
        with criterion("5. noisy-data ablations: group stats > 0, membership > 0, ~0 at zero offset"):
            # Slowest criterion: 5 seeds x (baseline + ablations) at 150 queries,
            # on the generator's default noise level (documented in SynthConfig).
            params = GbdtParams(num_rounds=40, max_depth=4, min_samples_leaf=10)
            group_deltas, leak_deltas = [], []
            for seed in range(5):
                data = make_data(SynthConfig(n_queries=150), seed)
                rows = run_ablation(
                    data,
                    PipelineConfig(tasks=("T2",), params=params, seed=seed),
                    "T2",
                    ("group_stats", "leakage"),
                )
                by_family = {r.family: r.delta for r in rows}
                group_deltas.append(by_family["group_stats"])
                leak_deltas.append(by_family["leakage"])
            assert np.mean(group_deltas) > 0.0, group_deltas
            assert np.mean(leak_deltas) > 0.0, leak_deltas

            # With identical label proportions across task files the membership
            # ratio carries no information; its mean delta collapses toward 0.
            zero_deltas = []
            for seed in range(5):
                data = make_data(SynthConfig(n_queries=150, t1_exact_offset=0.0), seed)
                rows = run_ablation(
                    data,
                    PipelineConfig(tasks=("T2",), params=params, seed=seed),
                    "T2",
                    ("leakage",),
                )
                zero_deltas.append(rows[0].delta)
            assert abs(np.mean(zero_deltas)) < 0.01, zero_deltas

    def test_6_presorting_dominates_and_batching_is_transparent(self):
        with criterion("6. presorted waste <= unsorted on 100 vectors; outputs equal at sizes 1/4/32"):
            rng = np.random.default_rng(13)
            for _ in range(100):
                n = int(rng.integers(9, 80))
                lengths = rng.integers(1, 65, size=n)
                batch_size = int(rng.choice([2, 4, 8]))
                items = [(("q", f"p{i}"), int(ln)) for i, ln in enumerate(lengths)]
                sorted_waste = padding_waste(presort_batches(items, batch_size))
                seq_waste = padding_waste(sequential_batches(items, batch_size))
                if len(set(lengths.tolist())) > 1:
                    assert sorted_waste < seq_waste
                else:
                    assert sorted_waste == seq_waste

            constant = [(("q", f"p{i}"), 7) for i in range(10)]
            assert padding_waste(presort_batches(constant, 4)) == padding_waste(
                sequential_batches(constant, 4)
            )

            records = {
                f"B{i:03d}": TokenRecord(f"B{i:03d}", tuple(range(1, ln + 1)))
                for i, ln in enumerate([5, 1, 17, 3, 9, 2, 30, 8, 4, 12])
            }
            items = [(("q0", pid), rec.token_length) for pid, rec in records.items()]

            def scorer(tokens, lengths, pairs):
                # padding cells are zero, so the sum ignores them
                return tokens.sum(axis=1) * 0.001 + lengths * 0.01

            outputs = [
                run_inference(plan_fn(items, bs), records, scorer)
                for bs in (1, 4, 32)
                for plan_fn in (presort_batches, sequential_batches)
            ]
            for other in outputs[1:]:
                np.testing.assert_array_equal(outputs[0], other)

    def test_7_reruns_are_byte_identical_and_models_persist(self, tmp_path, capsys):
        with criterion("7. seeded pipeline rerun byte-identical; saved model predicts bit-identically"):
            corpus = tmp_path / "corpus"
            assert main(["synth", "--seed", "5", "--queries", "40", "--out", str(corpus)]) == 0
            run_args = [
                "pipeline",
                "--catalog", str(corpus / "catalog.csv"),
                "--t1", str(corpus / "t1.csv"),
                "--t2t3", str(corpus / "t2t3.csv"),
                "--probs", str(corpus / "probs.csv"),
                "--splits", str(corpus / "splits.csv"),
                "--seed", "0",
                "--rounds", "12", "--depth", "3", "--min-leaf", "10",
            ]
            a, b = tmp_path / "a", tmp_path / "b"
            assert main(run_args + ["--out", str(a)]) == 0
            assert main(run_args + ["--out", str(b)]) == 0
            report_names = [f"report_{t}.{ext}" for t in ("T1", "T2", "T3") for ext in ("txt", "kv")]
            for name in report_names:
                assert (a / name).read_bytes() == (b / name).read_bytes(), name

            rng = np.random.default_rng(8)
            X = rng.normal(size=(200, 5))
            y = rng.integers(0, 4, size=200)
            model = train(
                mat(X), y, OBJECTIVE_MULTICLASS,
                GbdtParams(num_rounds=20, max_depth=3, min_samples_leaf=5),
            )
            path = tmp_path / "model.json"
            save_model(model, path)
            loaded = load_model(path)
            fresh = mat(rng.normal(size=(50, 5)))
            np.testing.assert_array_equal(predict_proba(model, fresh), predict_proba(loaded, fresh))

    def test_8_synthetic_corpus_structural_invariants(self):
        with criterion("8. corpus structure: block order, reuse <= 5%, size mix +-3%, id shapes, exact per group"):
            res = synth_generate(SynthConfig(n_queries=600), seed=9)
            everything = all_examples(res)

            # Catalog is written in first-use block order: train, private, public.
            first_use = first_use_split(everything)
            rank = {s: i for i, s in enumerate(SPLIT_ORDER)}
            block_seq = [rank[first_use[p.product_id]] for p in res.catalog]
            assert block_seq == sorted(block_seq)
            assert set(block_seq) == {0, 1, 2}

            uses = collections.Counter(e.product_id for e in everything)
            assert sum(1 for n in uses.values() if n == 1) / len(uses) >= 0.95

            per_query = collections.Counter(e.query_id for e in res.t2t3_examples)
            assert set(per_query.values()) <= {16, 40}
            n16 = sum(1 for s in per_query.values() if s == 16)
            assert abs(n16 / len(per_query) - 0.6) <= 0.03

            digit_led = 0
            for p in res.catalog:
                if p.product_id[0].isdigit():
                    assert len(p.product_id) == 13
                    digit_led += 1
                else:
                    assert p.product_id[0] == "B"
            assert digit_led > 0

            has_exact = collections.defaultdict(bool)
            for e in res.t2t3_examples:
                if e.label is EsciLabel.EXACT:
                    has_exact[e.query_id] = True
            assert all(has_exact[q] for q in res.t2t3_examples.query_ids())
