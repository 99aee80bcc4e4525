"""Command line surface: full command chains, determinism, exit codes."""

import csv
import json
import os
import subprocess
import sys

import pytest

from shoprank import gbdt
from shoprank.cli import main
from shoprank.dataio import load_examples
from shoprank.features import FeatureMatrix
from shoprank.metrics import evaluate_ranking, ranking_truth
from shoprank.model import TASK_T1, pair_rows
from shoprank.rank import expected_gain_rows, rank_groups

SYNTH_ARGS = ["synth", "--seed", "3", "--queries", "40", "--noise", "0"]


def run(argv, capsys=None):
    code = main(argv)
    return code


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(SYNTH_ARGS + ["--out", str(out)]) == 0
    return out


def rename_ids(source, dest, renamed):
    """Copy the corpus files from source to dest, renaming query and product ids."""
    for name in ("catalog.csv", "t1.csv", "t2t3.csv", "probs.csv"):
        with (source / name).open(encoding="utf-8", newline="") as handle:
            header, *rows = csv.reader(handle)
        ids = [header.index(c) for c in ("query_id", "product_id") if c in header]
        for row in rows:
            for i in ids:
                row[i] = renamed.get(row[i], row[i])
        with (dest / name).open("w", encoding="utf-8", newline="") as handle:
            csv.writer(handle).writerows([header, *rows])


class TestSynthCommand:
    def test_writes_all_artifacts(self, corpus_dir):
        for name in ("catalog.csv", "t1.csv", "t2t3.csv", "probs.csv", "splits.csv", "synth_config.txt"):
            assert (corpus_dir / name).exists(), name

    def test_rerun_is_byte_identical(self, corpus_dir, tmp_path):
        again = tmp_path / "again"
        assert main(SYNTH_ARGS + ["--out", str(again)]) == 0
        for name in ("catalog.csv", "t1.csv", "t2t3.csv", "probs.csv", "splits.csv"):
            assert (again / name).read_bytes() == (corpus_dir / name).read_bytes(), name

    def test_missing_seed_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["synth", "--queries", "10", "--out", str(tmp_path)])
        assert err.value.code == 2

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("queries = 12\nnoise = 0\nseed = 9\n", encoding="utf-8")
        out = tmp_path / "from_config"
        assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        config_echo = (out / "synth_config.txt").read_text(encoding="utf-8")
        assert "queries = 12" in config_echo

        out2 = tmp_path / "override"
        assert main(["synth", "--config", str(cfg), "--queries", "16", "--out", str(out2)]) == 0
        assert "queries = 16" in (out2 / "synth_config.txt").read_text(encoding="utf-8")

    def test_written_config_regenerates_the_corpus(self, corpus_dir, tmp_path):
        again = tmp_path / "again"
        assert main(["synth", "--config", str(corpus_dir / "synth_config.txt"), "--out", str(again)]) == 0
        for name in ("catalog.csv", "t1.csv", "t2t3.csv", "probs.csv", "splits.csv", "synth_config.txt"):
            assert (again / name).read_bytes() == (corpus_dir / name).read_bytes(), name

    def test_config_keys_follow_the_options(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("seed = 2\nqueries = 8\nforce_exact = off\nmin_leaf = 3\n", encoding="utf-8")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        written = (tmp_path / "a" / "synth_config.txt").read_text(encoding="utf-8")
        assert "force_exact = False" in written  # min_leaf names no synth option, so it is ignored
        assert main(["synth", "--config", str(cfg), "--force-exact", "yes", "--out", str(tmp_path / "b")]) == 0
        assert "force_exact = True" in (tmp_path / "b" / "synth_config.txt").read_text(encoding="utf-8")

        cfg.write_text("seed = 2\nqueries = 8\n\nnoise = half\n", encoding="utf-8")
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 1
        assert capsys.readouterr().err.startswith(f"error: [synth] {cfg}: line 4: noise: could not convert")

    def test_config_value_outside_choices_names_the_line(self, tmp_path, capsys):
        cfg = tmp_path / "eval.cfg"
        cfg.write_text("task = T4\n", encoding="utf-8")
        assert main(["evaluate", "--config", str(cfg), "--truth", "t.csv", "--predictions", "p.csv"]) == 1
        assert capsys.readouterr().err == f"error: [evaluate] {cfg}: line 1: task: expected one of T1, T2, T3\n"

    def test_missing_option_from_neither_flag_nor_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("seed = 2\n", encoding="utf-8")
        with pytest.raises(SystemExit) as err:
            main(["synth", "--config", str(cfg)])
        assert err.value.code == 2
        assert "synth: missing required option --out" in capsys.readouterr().err

    def test_bad_pair_list_flag_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["synth", "--seed", "1", "--count-mixture", "16", "--out", str(tmp_path / "x")])
        assert err.value.code == 2
        err_text = capsys.readouterr().err
        assert "argument --count-mixture: entry '16' lacks a colon" in err_text
        assert "_parse" not in err_text and "Traceback" not in err_text
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("count_mixture = 16\n", encoding="utf-8")
        assert main(["synth", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "y")]) == 1
        assert capsys.readouterr().err == f"error: [synth] {cfg}: line 1: count_mixture: entry '16' lacks a colon\n"

    def test_bad_config_value_exits_1(self, tmp_path, capsys):
        assert main(["synth", "--seed", "1", "--noise", "1.5", "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [synth]")

    @pytest.mark.parametrize(
        "command, line, reason",
        [
            (["synth", "--seed", "1"], "noise = 2", "noise=2.0 outside [0, 1]"),
            (["pipeline"], "rounds = 0", "num_rounds must be at least 1"),
            (["pipeline"], "t3_threshold = 1.5", "t3_threshold must be in (0, 1)"),
            (["train", "--features", "f.csv", "--examples", "e.csv"], "l2 = -1", "l2_reg must be nonnegative"),
            (["classify", "--task", "T3", "--model", "m.json", "--features", "f.csv"], "threshold = 1.5",
             "t3_threshold must be in (0, 1)"),
        ],
        ids=["synth-noise", "pipeline-rounds", "pipeline-t3-threshold", "train-l2", "classify-threshold"],
    )
    def test_config_value_out_of_range_names_the_line(self, tmp_path, capsys, command, line, reason):
        """A value that casts but that the settings reject still names its file, line and key."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# settings\nseed = 4\n{line}\n", encoding="utf-8")
        corpus = [] if command[0] != "pipeline" else [
            arg for name in ("catalog", "t1", "t2t3", "probs", "splits") for arg in (f"--{name}", f"{name}.csv")
        ]
        assert main([*command, *corpus, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        key = line.split(" = ")[0]
        assert capsys.readouterr().err == f"error: [{command[0]}] {cfg}: line 3: {key}: {reason}\n"

    def test_classify_threshold_checked_before_inputs(self, tmp_path, capsys):
        """An out-of-range T3 threshold is reported, not the model file that is missing."""
        argv = ["classify", "--task", "T3", "--threshold", "1.5", "--model", str(tmp_path / "none.json"),
                "--features", "f.csv", "--out", str(tmp_path / "p.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: [classify] t3_threshold must be in (0, 1)\n"


class TestStepwiseCommands:
    def test_features_train_rank_classify_evaluate(self, corpus_dir, tmp_path, capsys):
        feats = tmp_path / "features.csv"
        assert main([
            "features",
            "--catalog", str(corpus_dir / "catalog.csv"),
            "--examples", str(corpus_dir / "t2t3.csv"),
            "--probs", str(corpus_dir / "probs.csv"),
            "--t1", str(corpus_dir / "t1.csv"),
            "--out", str(feats),
        ]) == 0
        assert feats.exists() and (tmp_path / "features.csv.schema").exists()

        model = tmp_path / "model.json"
        assert main([
            "train",
            "--features", str(feats),
            "--examples", str(corpus_dir / "t2t3.csv"),
            "--objective", "multiclass",
            "--rounds", "12", "--depth", "3", "--min-leaf", "5",
            "--out", str(model),
        ]) == 0
        assert model.exists()

        ranking = tmp_path / "ranking.tsv"
        assert main([
            "rank",
            "--model", str(model),
            "--features", str(feats),
            "--examples", str(corpus_dir / "t2t3.csv"),
            "--out", str(ranking),
        ]) == 0
        first = ranking.read_text(encoding="utf-8").splitlines()[0].split("\t")
        assert first[1] == "1"  # rank column starts at 1

        preds = tmp_path / "predictions.csv"
        assert main([
            "classify",
            "--model", str(model),
            "--features", str(feats),
            "--task", "T2",
            "--out", str(preds),
        ]) == 0
        header = preds.read_text(encoding="utf-8").splitlines()[0]
        assert header == "query_id,product_id,prediction"

        capsys.readouterr()
        assert main([
            "evaluate",
            "--task", "T2",
            "--truth", str(corpus_dir / "t2t3.csv"),
            "--predictions", str(preds),
        ]) == 0
        out = capsys.readouterr().out
        assert "micro_f1" in out
        # noiseless corpus, trained and evaluated on the same rows
        assert "1.000000" in out

    def test_prediction_files_round_trip_ids_with_comma_and_quote(self, corpus_dir, tmp_path, capsys):
        """Ids are quoted as CSV cells, so evaluate reads back what classify wrote."""
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        with (corpus_dir / "t2t3.csv").open(encoding="utf-8", newline="") as handle:
            first = next(csv.DictReader(handle))
        rename_ids(corpus_dir, corpus, {first["product_id"]: 'B0,x"y', first["query_id"]: 'q,"1"'})
        feats, model = tmp_path / "f.csv", tmp_path / "m.json"
        assert main(["features", "--catalog", str(corpus / "catalog.csv"), "--examples", str(corpus / "t2t3.csv"),
                     "--probs", str(corpus / "probs.csv"), "--t1", str(corpus / "t1.csv"), "--out", str(feats)]) == 0
        assert main(["train", "--features", str(feats), "--examples", str(corpus / "t2t3.csv"), "--rounds", "12",
                     "--depth", "3", "--min-leaf", "5", "--out", str(model)]) == 0
        preds = tmp_path / "p.csv"
        assert main(["classify", "--model", str(model), "--features", str(feats), "--task", "T2",
                     "--out", str(preds)]) == 0
        with preds.open(encoding="utf-8", newline="") as handle:
            assert ('q,"1"', 'B0,x"y') in {(r["query_id"], r["product_id"]) for r in csv.DictReader(handle)}
        capsys.readouterr()
        assert main(["evaluate", "--task", "T2", "--truth", str(corpus / "t2t3.csv"),
                     "--predictions", str(preds)]) == 0
        assert "micro_f1: 1.000000" in capsys.readouterr().out

    def test_ranking_files_round_trip_ids_with_tab_newline_and_quote(self, corpus_dir, tmp_path, capsys):
        """Ids are quoted as tab-separated cells, so evaluate reads back what rank wrote."""
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        with (corpus_dir / "t1.csv").open(encoding="utf-8", newline="") as handle:
            originals = [row["product_id"] for row, _ in zip(csv.DictReader(handle), range(3))]
        new_ids = ["B0\tx", "B0\nx", 'B0"x']
        rename_ids(corpus_dir, corpus, dict(zip(originals, new_ids)))
        feats, model, ranking = tmp_path / "f.csv", tmp_path / "m.json", tmp_path / "r.tsv"
        assert main(["features", "--catalog", str(corpus / "catalog.csv"), "--examples", str(corpus / "t2t3.csv"),
                     "--probs", str(corpus / "probs.csv"), "--t1", str(corpus / "t1.csv"), "--out", str(feats)]) == 0
        assert main(["train", "--features", str(feats), "--examples", str(corpus / "t2t3.csv"), "--rounds", "12",
                     "--depth", "3", "--min-leaf", "5", "--out", str(model)]) == 0
        assert main(["rank", "--model", str(model), "--features", str(feats),
                     "--examples", str(corpus / "t1.csv"), "--out", str(ranking)]) == 0
        with ranking.open(encoding="utf-8", newline="") as handle:
            assert set(new_ids) <= {row[2] for row in csv.reader(handle, delimiter="\t")}
        capsys.readouterr()
        assert main(["evaluate", "--task", "T1", "--truth", str(corpus / "t1.csv"),
                     "--predictions", str(ranking)]) == 0
        t1 = load_examples(corpus / "t1.csv", TASK_T1)
        matrix = FeatureMatrix.load(feats)
        gains = expected_gain_rows(gbdt.predict_proba(gbdt.load_model(model), matrix))
        ranked = rank_groups(t1, gains[pair_rows(matrix.pairs, t1.pairs)])
        expected = evaluate_ranking(ranked, *ranking_truth(t1.labeled())).overall
        assert f"mean_ndcg: {expected:.6f}\n" in capsys.readouterr().out

    def test_evaluate_t1_ranking(self, corpus_dir, tmp_path, capsys):
        feats = tmp_path / "f.csv"
        model = tmp_path / "m.json"
        ranking = tmp_path / "r.tsv"
        main(["features", "--catalog", str(corpus_dir / "catalog.csv"),
              "--examples", str(corpus_dir / "t1.csv"), "--probs", str(corpus_dir / "probs.csv"),
              "--t1", str(corpus_dir / "t1.csv"), "--out", str(feats)])
        main(["train", "--features", str(feats), "--examples", str(corpus_dir / "t1.csv"),
              "--objective", "multiclass", "--rounds", "12", "--depth", "3",
              "--min-leaf", "5", "--out", str(model)])
        main(["rank", "--model", str(model), "--features", str(feats),
              "--examples", str(corpus_dir / "t1.csv"), "--out", str(ranking)])
        capsys.readouterr()
        assert main(["evaluate", "--task", "T1", "--truth", str(corpus_dir / "t1.csv"),
                     "--predictions", str(ranking)]) == 0
        out = capsys.readouterr().out
        assert "ndcg" in out

        bad = tmp_path / "bad.tsv"
        bad.write_text(ranking.read_text(encoding="utf-8").replace("\t1\t", "\tx\t", 1), encoding="utf-8")
        assert main(["evaluate", "--task", "T1", "--truth", str(corpus_dir / "t1.csv"),
                     "--predictions", str(bad)]) == 1
        assert f"{bad}: line 1: invalid literal for int()" in capsys.readouterr().err

        # The features hold T1 pairs only, so T2T3 pairs have no score to rank by.
        assert main(["rank", "--model", str(model), "--features", str(feats),
                     "--examples", str(corpus_dir / "t2t3.csv"), "--out", str(ranking)]) == 1
        assert "no score (feature row) for pair" in capsys.readouterr().err


class TestModelObjectives:
    """classify --task T3 takes p_s from a multiclass or a binary model; rank takes multiclass only."""

    @pytest.fixture(scope="class")
    def trained(self, corpus_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("objectives")
        assert main(["features", "--catalog", str(corpus_dir / "catalog.csv"),
                     "--examples", str(corpus_dir / "t2t3.csv"), "--probs", str(corpus_dir / "probs.csv"),
                     "--t1", str(corpus_dir / "t1.csv"), "--out", str(out / "features.csv")]) == 0
        for objective in ("multiclass", "binary"):
            assert main(["train", "--features", str(out / "features.csv"),
                         "--examples", str(corpus_dir / "t2t3.csv"), "--objective", objective,
                         "--rounds", "6", "--depth", "3", "--min-leaf", "5",
                         "--out", str(out / f"{objective}.json")]) == 0
        return out

    @pytest.mark.parametrize("objective", ["multiclass", "binary"])
    def test_classify_t3_thresholds_p_s_of_either_objective(self, trained, objective):
        model, preds = trained / f"{objective}.json", trained / f"t3_{objective}.csv"
        assert main(["classify", "--task", "T3", "--threshold", "0.3", "--model", str(model),
                     "--features", str(trained / "features.csv"), "--out", str(preds)]) == 0
        matrix = FeatureMatrix.load(trained / "features.csv")
        probs = gbdt.predict_proba(gbdt.load_model(model), matrix)
        p_s = probs[:, 1] if objective == "multiclass" else probs
        with preds.open(encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        assert rows == [[q, p, str(int(x >= 0.3))] for (q, p), x in zip(matrix.pairs, p_s.tolist())]
        assert {flag for _, _, flag in rows} == {"0", "1"}

    def test_rank_rejects_a_binary_model_before_other_work(self, trained, corpus_dir, capsys):
        """The model is checked first: the feature file it would score does not exist."""
        assert main(["rank", "--model", str(trained / "binary.json"), "--features", str(trained / "none.csv"),
                     "--examples", str(corpus_dir / "t1.csv"), "--out", str(trained / "r.tsv")]) == 1
        assert capsys.readouterr().err == "error: [rank] ranking requires a multiclass model\n"
        assert not (trained / "r.tsv").exists()


class TestPipelineCommand:
    def pipeline_args(self, corpus_dir, out):
        return [
            "pipeline",
            "--catalog", str(corpus_dir / "catalog.csv"),
            "--t1", str(corpus_dir / "t1.csv"),
            "--t2t3", str(corpus_dir / "t2t3.csv"),
            "--probs", str(corpus_dir / "probs.csv"),
            "--splits", str(corpus_dir / "splits.csv"),
            "--seed", "0",
            "--rounds", "12", "--depth", "3", "--min-leaf", "10",
            "--out", str(out),
        ]

    def test_outputs_and_perfect_noiseless_reports(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(self.pipeline_args(corpus_dir, out)) == 0
        for name in (
            "report_T1.txt", "report_T1.kv",
            "report_T2.txt", "report_T2.kv",
            "report_T3.txt", "report_T3.kv",
            "ranking_T1.tsv", "predictions_T2.csv", "predictions_T3.csv",
            "model_T1_fold0.json", "model_T2_fold1.json", "model_T3_fold0.json",
        ):
            assert (out / name).exists(), name
        for task in ("T1", "T2", "T3"):
            kv = (out / f"report_{task}.kv").read_text(encoding="utf-8")
            assert "overall\t1.000000" in kv

    def test_t1_and_t3_model_files_hold_the_fused_models(self, corpus_dir, tmp_path):
        out = tmp_path / "run"
        assert main(self.pipeline_args(corpus_dir, out)) == 0
        for fold in (0, 1):
            fused = (out / f"model_T2_fold{fold}.json").read_bytes()
            assert (out / f"model_T1_fold{fold}.json").read_bytes() == fused
            assert (out / f"model_T3_fold{fold}.json").read_bytes() == fused

    def test_rerun_byte_identical(self, corpus_dir, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(self.pipeline_args(corpus_dir, a)) == 0
        assert main(self.pipeline_args(corpus_dir, b)) == 0
        for name in sorted(os.listdir(a)):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_task_subset(self, corpus_dir, tmp_path):
        out = tmp_path / "t2only"
        args = self.pipeline_args(corpus_dir, out)
        assert main(args + ["--tasks", "T2"]) == 0
        assert (out / "report_T2.txt").exists()
        assert not (out / "report_T1.txt").exists()

    def test_disable_feature_family(self, corpus_dir, tmp_path):
        out = tmp_path / "nogroup"
        args = self.pipeline_args(corpus_dir, out)
        assert main(args + ["--tasks", "T2", "--disable-feature", "group_stats"]) == 0
        model = (out / "model_T2_fold0.json").read_text(encoding="utf-8")
        assert "g_e_min_m0" not in model


class TestAblateCommand:
    def test_writes_table(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "ablation.txt"
        assert main([
            "ablate",
            "--catalog", str(corpus_dir / "catalog.csv"),
            "--t1", str(corpus_dir / "t1.csv"),
            "--t2t3", str(corpus_dir / "t2t3.csv"),
            "--probs", str(corpus_dir / "probs.csv"),
            "--splits", str(corpus_dir / "splits.csv"),
            "--task", "T2",
            "--families", "group_stats,leakage",
            "--seed", "0",
            "--rounds", "12", "--depth", "3", "--min-leaf", "10",
            "--out", str(out),
        ]) == 0
        table = out.read_text(encoding="utf-8")
        assert "group_stats" in table and "leakage" in table


class TestBatchSimCommand:
    def test_reports_both_plans(self, corpus_dir, tmp_path, capsys):
        cache = tmp_path / "tokens.bin"
        assert main([
            "batch-sim",
            "--catalog", str(corpus_dir / "catalog.csv"),
            "--examples", str(corpus_dir / "t2t3.csv"),
            "--batch-size", "4",
            "--cache", str(cache),
        ]) == 0
        out = capsys.readouterr().out
        assert cache.exists()
        assert "presorted" in out and "unsorted" in out
        assert "padding_waste" in out


class TestErrorSurface:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_file_is_stage_tagged(self, tmp_path, capsys):
        assert main([
            "features",
            "--catalog", str(tmp_path / "nope.csv"),
            "--examples", str(tmp_path / "nope2.csv"),
            "--probs", str(tmp_path / "nope3.csv"),
            "--t1", str(tmp_path / "nope4.csv"),
            "--out", str(tmp_path / "f.csv"),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [features]")

    def test_train_takes_no_seed(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["train", "--seed", "0"])
        assert err.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_corrupt_feature_cell_and_cyclic_model_fail_fast(self, corpus_dir, tmp_path):
        feats, model = tmp_path / "features.csv", tmp_path / "model.json"
        assert main(["features", "--catalog", str(corpus_dir / "catalog.csv"),
                     "--examples", str(corpus_dir / "t2t3.csv"), "--probs", str(corpus_dir / "probs.csv"),
                     "--t1", str(corpus_dir / "t1.csv"), "--out", str(feats)]) == 0
        assert main(["train", "--features", str(feats), "--examples", str(corpus_dir / "t2t3.csv"),
                     "--rounds", "2", "--depth", "2", "--min-leaf", "5", "--out", str(model)]) == 0

        bad_feats = tmp_path / "bad.csv"
        lines = feats.read_text(encoding="utf-8").splitlines()
        cells = lines[3].split(",")
        cells[4] = "abc"
        lines[3] = ",".join(cells)
        bad_feats.write_text("\n".join(lines) + "\n", encoding="utf-8")
        (tmp_path / "bad.csv.schema").write_bytes((tmp_path / "features.csv.schema").read_bytes())

        payload = json.loads(model.read_text(encoding="utf-8"))
        payload["trees"][0]["left"][0] = 0
        cyclic = tmp_path / "cyclic.json"
        cyclic.write_text(json.dumps(payload), encoding="utf-8")

        for model_path, feats_path, expected in ((model, bad_feats, "row 3"), (cyclic, feats, "tree 0")):
            result = subprocess.run(
                [sys.executable, "-m", "shoprank.cli", "classify", "--model", str(model_path),
                 "--features", str(feats_path), "--task", "T2", "--out", str(tmp_path / "p.csv")],
                capture_output=True, text=True, timeout=10,
            )
            assert result.returncode == 1
            assert result.stderr.startswith("error: [classify]")
            assert expected in result.stderr
            assert "Traceback" not in result.stderr

    def test_console_script_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "shoprank.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "batch-sim" in result.stdout
