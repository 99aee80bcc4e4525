"""Cross-fit training pipeline: leakage guard, fold ensembling, ablation."""

import hashlib
import os
import pickle
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest

from shoprank import pipeline
from shoprank.cli import main
from shoprank.errors import ConfigurationError, ParseError, StageError, ValidationError
from shoprank.gbdt import GbdtParams
from shoprank.model import EsciLabel, ExampleSet, pair_rows
from shoprank.pipeline import (
    PipelineConfig,
    PipelineData,
    ablation_to_text,
    run_ablation,
    run_pipeline,
    run_task,
)
from shoprank.pipeline import _leakage_guard
from shoprank.rank import expected_gain_rows
from shoprank.synth import SPLIT_TRAIN, SynthConfig, query_split, synth_generate

FAST = GbdtParams(num_rounds=12, max_depth=3, min_samples_leaf=10)


def make_data(synth_config, seed):
    res = synth_generate(synth_config, seed)
    eval_queries = frozenset(
        q for q in res.t2t3_examples.query_ids() if query_split(q) != SPLIT_TRAIN
    )
    return PipelineData(res.catalog, res.t1_examples, res.t2t3_examples, res.probs, eval_queries)


@pytest.fixture(scope="module")
def noiseless():
    return make_data(SynthConfig(n_queries=60, noise=0.0), seed=31)


class TestNoiselessOracle:
    def test_all_three_tasks_perfect(self, noiseless):
        result = run_pipeline(noiseless, PipelineConfig(params=FAST, seed=0))
        assert result.report("T1").overall == 1.0
        assert result.report("T2").overall == 1.0
        assert result.report("T3").overall == 1.0

    def test_reports_carry_counts(self, noiseless):
        result = run_pipeline(noiseless, PipelineConfig(tasks=("T2",), params=FAST, seed=0))
        rep = result.report("T2")
        assert rep.n_rows > 0
        assert rep.n_queries > 0
        assert {loc for loc, _ in rep.by_locale} <= {"us", "es", "jp"}


class TestLeakageGuard:
    def test_disjoint_ok(self):
        _leakage_guard([("q1", "p1")], [("q2", "p1")])

    def test_overlap_rejected(self):
        with pytest.raises(ValidationError, match="leakage guard"):
            _leakage_guard([("q1", "p1"), ("q2", "p2")], [("q2", "p2")])

    def test_eval_queries_never_trained_on(self, noiseless):
        out = run_task(noiseless, PipelineConfig(params=FAST, seed=0), "T2")
        eval_query_ids = {q for q, _ in out.eval_pairs}
        trained_queries = set(out.folds.by_query)
        assert eval_query_ids
        assert not (eval_query_ids & trained_queries)
        assert eval_query_ids <= noiseless.eval_queries


class TestDeterminism:
    def test_rerun_identical(self, noiseless):
        cfg = PipelineConfig(tasks=("T2", "T3"), params=FAST, seed=5)
        a = run_pipeline(noiseless, cfg)
        b = run_pipeline(noiseless, cfg)
        for task in ("T2", "T3"):
            assert a.report(task).overall == b.report(task).overall
            np.testing.assert_array_equal(
                a.outputs[task].eval_probs, b.outputs[task].eval_probs
            )

    def test_seed_changes_folds(self, noiseless):
        a = run_task(noiseless, PipelineConfig(params=FAST, seed=1), "T2")
        b = run_task(noiseless, PipelineConfig(params=FAST, seed=2), "T2")
        assert dict(a.folds.by_query) != dict(b.folds.by_query)


class TestTaskSpecifics:
    def test_t1_ranks_by_the_fused_t2t3_rows(self, noiseless):
        cfg = PipelineConfig(params=FAST, seed=0)
        result = run_pipeline(noiseless, cfg)
        t1, t2 = result.outputs["T1"], result.outputs["T2"]
        assert t1.models == t2.models and t1.folds == t2.folds
        at = pair_rows(t2.eval_pairs, t1.eval_pairs)
        assert (at >= 0).all()
        np.testing.assert_array_equal(t1.eval_probs, t2.eval_probs[at])
        scores = dict(zip(t1.eval_pairs, expected_gain_rows(t1.eval_probs).tolist()))
        for ranked in t1.predictions:
            assert list(ranked.scores) == [scores[(ranked.query_id, pid)] for pid in ranked.product_ids]

    @pytest.mark.parametrize("fault", ["absent", "relabelled"])
    def test_t1_pair_without_its_t2t3_label_is_named(self, noiseless, fault):
        t1 = noiseless.t1_examples
        row = int(np.flatnonzero(np.isin(t1.query_id, sorted(noiseless.eval_queries)) & (t1.label_index >= 0))[0])
        pair = t1.pairs[row]
        t2t3 = noiseless.t2t3_examples
        at = t2t3.pairs.index(pair)
        if fault == "absent":
            t2t3 = t2t3.subset(np.arange(len(t2t3)) != at)
            expected = "in T1 but absent in T2T3"
        else:
            labels = t2t3.label_index.copy()
            labels[at] = (labels[at] + 1) % 4
            t2t3 = ExampleSet(t2t3.query_id, t2t3.query_text, t2t3.product_id, t2t3.locale, labels, t2t3.task)
            expected = f"in T1 but labelled {EsciLabel.from_index(int(labels[at])).value} in T2T3"
        data = replace(noiseless, t2t3_examples=t2t3)
        with pytest.raises(StageError, match=r"\[pipeline:T1\]") as err:
            run_pipeline(data, PipelineConfig(params=FAST, seed=0))
        assert isinstance(err.value.cause, ValidationError)
        assert f"T1 evaluation pair {pair} is labelled" in str(err.value)
        assert expected in str(err.value)

    def test_t1_predictions_are_ranked_lists(self, noiseless):
        out = run_task(noiseless, PipelineConfig(params=FAST, seed=0), "T1")
        for ranked in out.predictions:
            assert list(ranked.scores) == sorted(ranked.scores, reverse=True)

    def test_t2_predictions_are_labels(self, noiseless):
        out = run_task(noiseless, PipelineConfig(params=FAST, seed=0), "T2")
        assert all(isinstance(p, EsciLabel) for p in out.predictions)
        assert out.eval_probs.shape == (len(out.eval_pairs), 4)

    def test_t3_thresholds_the_fused_substitute_probability(self, noiseless):
        result = run_pipeline(noiseless, PipelineConfig(tasks=("T2", "T3"), params=FAST, seed=0))
        t2, t3 = result.outputs["T2"], result.outputs["T3"]
        assert t3.threshold == 0.5
        assert t3.models == t2.models and t3.eval_pairs == t2.eval_pairs
        np.testing.assert_array_equal(t3.eval_probs, t2.eval_probs)
        assert t3.predictions == tuple((t3.eval_probs[:, EsciLabel.SUBSTITUTE.index] >= 0.5).tolist())
        assert all(isinstance(p, bool) for p in t3.predictions)

    def test_t3_threshold_sweep(self, noiseless):
        cfg = PipelineConfig(params=FAST, seed=0, sweep_t3_threshold=True)
        out = run_task(noiseless, cfg, "T3")
        assert 0.0 < out.threshold < 1.0
        assert out.report.overall == 1.0

    def test_fold_count_matches_config(self, noiseless):
        out = run_task(noiseless, PipelineConfig(params=FAST, seed=0, n_folds=3), "T2")
        assert len(out.models) == 3
        assert out.folds.n_folds == 3


class TestDisabledFamilies:
    def test_disabled_family_absent_from_models(self, noiseless):
        cfg = PipelineConfig(params=FAST, seed=0, disabled_families=("group_stats",))
        out = run_task(noiseless, cfg, "T2")
        for model in out.models:
            assert all(not c.startswith("g_") for c in model.feature_schema)

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(disabled_families=("nope",))

    def test_unknown_task_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(tasks=("T9",))


class TestErrorWrapping:
    def test_task_failures_carry_stage(self):
        data = make_data(SynthConfig(n_queries=20, noise=0.0), seed=2)
        starved = PipelineConfig(params=GbdtParams(min_samples_leaf=100000), seed=0)
        with pytest.raises(StageError, match=r"\[pipeline:T1\]"):
            run_pipeline(data, starved)

    def test_stage_error_pickles(self):
        exc = pickle.loads(pickle.dumps(StageError("pipeline:T1", ParseError("x"))))
        assert (exc.stage, type(exc.cause), str(exc.cause), str(exc)) == (
            "pipeline:T1", ParseError, "x", "[pipeline:T1] x"
        )


class TestAblation:
    def test_noiseless_deltas_are_zero(self, noiseless):
        rows = run_ablation(
            noiseless,
            PipelineConfig(tasks=("T2",), params=FAST, seed=0),
            task="T2",
            families=("group_stats", "leakage"),
        )
        assert [r.family for r in rows] == ["group_stats", "leakage"]
        for row in rows:
            assert row.metric_on == 1.0
            assert abs(row.delta) < 1e-12

    def test_noisy_group_stats_help(self):
        data = make_data(SynthConfig(n_queries=120), seed=7)
        (row,) = run_ablation(
            data,
            PipelineConfig(tasks=("T2",), params=FAST, seed=7),
            task="T2",
            families=("group_stats",),
        )
        assert row.delta > 0.0

    def test_unknown_family_rejected(self, noiseless):
        with pytest.raises(ConfigurationError):
            run_ablation(noiseless, PipelineConfig(tasks=("T2",), params=FAST), "T2", ("bogus",))

    def test_table_rendering(self, noiseless):
        rows = run_ablation(
            noiseless,
            PipelineConfig(tasks=("T2",), params=FAST, seed=0),
            task="T2",
            families=("isbn",),
        )
        text = ablation_to_text(rows, "micro_f1")
        assert "isbn" in text
        assert "micro_f1" in text
        assert "delta" in text


def corpus_args(corpus):
    return [arg for name in ("catalog", "t1", "t2t3", "probs", "splits")
            for arg in (f"--{name}", str(corpus / f"{name}.csv"))]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--seed", "3", "--queries", "40", "--out", str(out)]) == 0
    return out


class TestWorkers:
    """Runs go to forked workers, one per usable CPU; the outputs never depend on how many."""

    @staticmethod
    def output_hashes(corpus, out, capsys):
        small = ["--seed", "3", "--rounds", "3", "--depth", "3", "--min-leaf", "5", *corpus_args(corpus)]
        capsys.readouterr()
        assert main(["pipeline", *small, "--sweep-t3-threshold", "--out", str(out / "pipe")]) == 0
        assert main(["ablate", *small, "--task", "T1", "--out", str(out / "ablation.tsv")]) == 0
        hashes = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            hashes[str(path.relative_to(out))] = hashlib.sha256(path.read_bytes()).hexdigest()
        return hashes

    def test_outputs_identical_for_one_and_two_workers(self, corpus, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
        one = self.output_hashes(corpus, tmp_path / "one", capsys)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
        two = self.output_hashes(corpus, tmp_path / "two", capsys)
        assert len(one) == 17  # stdout, 6 reports, 6 models, ranking, 2 prediction files, ablation table
        assert one == two

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_ablate_assembles_the_full_matrix_once_per_process(self, tmp_path, monkeypatch, cpus):
        """Six runs of two folds each; the calling process assembles nothing when workers run them."""
        log = tmp_path / "assembled.txt"
        assemble = pipeline.assemble_features

        def logged(*args):
            with log.open("a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
            return assemble(*args)

        monkeypatch.setattr(pipeline, "assemble_features", logged)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
        data = make_data(SynthConfig(n_queries=40), seed=4)
        run_ablation(data, PipelineConfig(tasks=("T2",), params=FAST, seed=0), "T2")
        pids = log.read_text(encoding="utf-8").split()
        assert 1 <= len(pids) == len(set(pids)) <= cpus
        assert (str(os.getpid()) in pids) == (cpus == 1)

    def test_first_failing_task_reported_with_two_workers(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
        data = make_data(SynthConfig(n_queries=20, noise=0.0), seed=2)
        starved = PipelineConfig(params=GbdtParams(min_samples_leaf=100000), seed=0)
        with pytest.raises(StageError, match=r"\[pipeline:T1\]"):
            run_pipeline(data, starved)

    def test_worker_that_dies_is_an_error(self, corpus, tmp_path):
        script = textwrap.dedent(f"""
            import os, sys
            from shoprank import cli, pipeline
            pipeline._usable_cpus = lambda: 2
            pipeline.fit_fold = lambda data, config, fold: os._exit(3)
            sys.exit(cli.main(sys.argv[1:]))
        """)
        argv = ["pipeline", "--seed", "3", "--rounds", "2", *corpus_args(corpus), "--out", str(tmp_path / "run")]
        result = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=10)
        assert result.returncode == 1
        assert result.stderr.startswith("error: [pipeline:T1]")
        assert "died" in result.stderr
        assert "Traceback" not in result.stderr
