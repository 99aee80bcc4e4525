"""Command line surface: full command chains, determinism, exit codes."""

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shoprank import gbdt
from shoprank.cli import main
from shoprank.dataio import load_examples
from shoprank.features import FeatureMatrix
from shoprank.metrics import evaluate_ranking
from shoprank.model import TASK_T1, pair_rows
from shoprank.rank import expected_gain_rows, rank_order

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
        ranked = t1.take(rank_order(t1, gains[pair_rows(matrix.pairs, t1)]))
        expected = evaluate_ranking(ranked, t1).overall
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
        assert f"{bad}: row 1: invalid literal for int()" in capsys.readouterr().err

        # The features hold T1 pairs only, so T2T3 pairs have no score to rank by.
        assert main(["rank", "--model", str(model), "--features", str(feats),
                     "--examples", str(corpus_dir / "t2t3.csv"), "--out", str(ranking)]) == 1
        assert "no score (feature row) for pair" in capsys.readouterr().err


class TestEvaluateRejectsRepeats:
    """A pair listed twice in a prediction file, or a product ranked twice in one query, is an error
    naming the file and the data row of the repeat, not a silently changed score."""

    def labeled_rows(self, corpus_dir, name, count):
        with (corpus_dir / name).open(encoding="utf-8", newline="") as handle:
            rows = [row for row in csv.DictReader(handle) if row["esci_label"]]
        return rows[:count]

    def test_pair_listed_twice_in_predictions(self, corpus_dir, tmp_path, capsys):
        rows = self.labeled_rows(corpus_dir, "t2t3.csv", 3)
        lines = ["query_id,product_id,prediction"] + [f"{r['query_id']},{r['product_id']},E" for r in rows]
        lines.insert(3, f"{rows[0]['query_id']},{rows[0]['product_id']},S")
        preds = tmp_path / "p.csv"
        preds.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["evaluate", "--task", "T2", "--truth", str(corpus_dir / "t2t3.csv"),
                     "--predictions", str(preds)])
        message = f"{preds}: row 3: pair {(rows[0]['query_id'], rows[0]['product_id'])} listed again"
        assert (code, capsys.readouterr().err) == (1, f"error: [evaluate] {message}\n")

    def test_product_ranked_twice_in_a_query(self, corpus_dir, tmp_path, capsys):
        first, second = self.labeled_rows(corpus_dir, "t1.csv", 2)
        query, products = first["query_id"], [first["product_id"], second["product_id"], first["product_id"]]
        ranking = tmp_path / "r.tsv"
        ranking.write_text("".join(f"{query}\t{rank}\t{product}\t{1.0 / rank:.6f}\n"
                                   for rank, product in enumerate(products, start=1)), encoding="utf-8")
        code = main(["evaluate", "--task", "T1", "--truth", str(corpus_dir / "t1.csv"),
                     "--predictions", str(ranking)])
        message = f"{ranking}: row 3: product {products[0]!r} ranked again in query {query!r}"
        assert (code, capsys.readouterr().err) == (1, f"error: [evaluate] {message}\n")


class TestEvaluateRejectsMalformedFiles:
    """A ranking whose scores rise within a query, or a prediction cell that `_write_predictions` never
    writes, is a ParseError naming the file and the data row, not a silently changed score."""

    def test_rising_score_names_file_line_and_query(self, corpus_dir, tmp_path, capsys):
        rows = TestEvaluateRejectsRepeats().labeled_rows(corpus_dir, "t1.csv", 3)
        query = rows[0]["query_id"]
        ranking = tmp_path / "r.tsv"
        ranking.write_text("".join(f"{query}\t{rank}\t{row['product_id']}\t{score}\n"
                                   for rank, (row, score) in enumerate(zip(rows, ("0.5", "0.9", "0.1")), start=1)),
                           encoding="utf-8")
        code = main(["evaluate", "--task", "T1", "--truth", str(corpus_dir / "t1.csv"), "--predictions", str(ranking)])
        message = f"{ranking}: row 2: query {query!r}: score above the one ranked before it"
        assert (code, capsys.readouterr().err) == (1, f"error: [evaluate] {message}\n")

    def test_ranking_line_of_empty_cells_names_file_and_line(self, corpus_dir, tmp_path, capsys):
        """A line of four empty cells is a row, not a blank line to skip."""
        rows = TestEvaluateRejectsRepeats().labeled_rows(corpus_dir, "t1.csv", 2)
        lines = [f"{row['query_id']}\t{rank}\t{row['product_id']}\t0.5\n" for rank, row in enumerate(rows, start=1)]
        ranking = tmp_path / "r.tsv"
        ranking.write_text(lines[0] + "\t\t\t\n" + lines[1], encoding="utf-8")
        code = main(["evaluate", "--task", "T1", "--truth", str(corpus_dir / "t1.csv"), "--predictions", str(ranking)])
        message = f"{ranking}: row 2: invalid literal for int() with base 10: ''"
        assert (code, capsys.readouterr().err) == (1, f"error: [evaluate] {message}\n")

    @pytest.mark.parametrize("task, cell, codes", [("T2", "X", "E, S, C, I"), ("T2", "e", "E, S, C, I"),
                                                   ("T3", "yes", "0, 1"), ("T3", "E", "0, 1")])
    def test_unknown_prediction_cell_names_file_and_line(self, corpus_dir, tmp_path, capsys, task, cell, codes):
        rows = TestEvaluateRejectsRepeats().labeled_rows(corpus_dir, "t2t3.csv", 3)
        good = "E" if task == "T2" else "1"
        preds = tmp_path / "p.csv"
        preds.write_text("query_id,product_id,prediction\n" + "".join(
            f"{r['query_id']},{r['product_id']},{cell if i == 2 else good}\n" for i, r in enumerate(rows)
        ), encoding="utf-8")
        code = main(["evaluate", "--task", task, "--truth", str(corpus_dir / "t2t3.csv"),
                     "--predictions", str(preds)])
        message = f"{preds}: row 3: prediction {cell!r} is not one of {codes}"
        assert (code, capsys.readouterr().err) == (1, f"error: [evaluate] {message}\n")


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
        assert rows == [[q, p, str(int(x >= 0.3))] for (q, p), x in zip(matrix.pairs.pairs, p_s.tolist())]
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

    def test_evaluate_reproduces_the_pipeline_reports(self, tmp_path, capsys):
        """evaluate on the pipeline's ranking and prediction files writes the pipeline's own report bytes."""
        corpus, out = tmp_path / "corpus", tmp_path / "run"
        assert main(["synth", "--seed", "5", "--queries", "60", "--out", str(corpus)]) == 0
        assert main(self.pipeline_args(corpus, out) + ["--sweep-t3-threshold"]) == 0
        for task, truth, predictions in (("T1", "t1.csv", "ranking_T1.tsv"), ("T2", "t2t3.csv", "predictions_T2.csv"),
                                         ("T3", "t2t3.csv", "predictions_T3.csv")):
            report = tmp_path / f"evaluated_{task}.txt"
            assert main(["evaluate", "--task", task, "--truth", str(corpus / truth),
                         "--predictions", str(out / predictions), "--out", str(report)]) == 0
            assert report.read_bytes() == (out / f"report_{task}.txt").read_bytes()
            assert (tmp_path / f"evaluated_{task}.txt.kv").read_bytes() == (out / f"report_{task}.kv").read_bytes()
        assert "mean_ndcg: 1.000000" not in capsys.readouterr().out  # a noisy corpus: imperfect lists

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


class TestInputsThatEndInOneErrorLine:
    """An input that is not a regular file, a byte that is not UTF-8, and a prediction or ranking
    file that leaves out a pair of a query it lists: each exits 1 with one `error:` line naming the
    file, and no traceback."""

    @pytest.fixture(scope="class")
    def made(self, corpus_dir, tmp_path_factory):
        """The corpus's pipeline outputs, a feature file and a config file, by kind of file."""
        out = tmp_path_factory.mktemp("made")
        corpus = [arg for name in ("catalog", "t1", "t2t3", "probs", "splits")
                  for arg in (f"--{name}", str(corpus_dir / f"{name}.csv"))]
        assert main(["pipeline", *corpus, "--seed", "3", "--rounds", "2", "--depth", "2", "--out", str(out)]) == 0
        assert main(["features", "--catalog", str(corpus_dir / "catalog.csv"), "--examples",
                     str(corpus_dir / "t2t3.csv"), "--probs", str(corpus_dir / "probs.csv"),
                     "--t1", str(corpus_dir / "t1.csv"), "--out", str(out / "features.csv")]) == 0
        (out / "config.txt").write_text("# rounds for every command\nrounds = 2\ndepth = 2\n", encoding="utf-8")
        return corpus, out

    def commands(self, corpus_dir, made, bad):
        """The command that reads each kind of file, with the file of that kind replaced by bad."""
        corpus, out = made

        def pipeline(name):
            args = [str(bad) if arg == str(corpus_dir / f"{name}.csv") else arg for arg in corpus]
            return ["pipeline", *args, "--seed", "3", "--rounds", "1", "--out", str(bad.parent / "run")]

        def classify(features):
            return ["classify", "--model", str(out / "model_T2_fold0.json"), "--features", str(features),
                    "--out", str(bad.parent / "p.csv")]

        return {
            **{name: (corpus_dir / f"{name}.csv", pipeline(name)) for name in ("catalog", "t1", "t2t3", "probs",
                                                                                "splits")},
            "features": (out / "features.csv", classify(bad)),
            "schema": (out / "features.csv.schema", classify(bad.with_suffix(""))),
            "predictions": (out / "predictions_T2.csv", ["evaluate", "--task", "T2", "--truth",
                                                          str(corpus_dir / "t2t3.csv"), "--predictions", str(bad)]),
            "ranking": (out / "ranking_T1.tsv", ["evaluate", "--task", "T1", "--truth",
                                                 str(corpus_dir / "t1.csv"), "--predictions", str(bad)]),
            "config": (out / "config.txt", ["pipeline", "--config", str(bad), *pipeline("none")[1:]]),
        }

    @staticmethod
    def one_error_line(err, path):
        assert err.count("\n") == 1 and err.startswith("error: ") and str(path) in err, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("kind", ["device", "fifo"])
    def test_a_path_that_is_not_a_regular_file(self, corpus_dir, tmp_path, kind):
        if kind == "device":
            path = "/dev/zero"
        else:
            path = tmp_path / "fifo"
            os.mkfifo(path)
        argv = ["features", "--catalog", str(path), "--examples", str(corpus_dir / "t2t3.csv"),
                "--probs", str(corpus_dir / "probs.csv"), "--t1", str(corpus_dir / "t1.csv"),
                "--out", str(tmp_path / "f.csv")]
        result = subprocess.run([sys.executable, "-m", "shoprank.cli", *argv], capture_output=True, text=True,
                                timeout=20)
        assert result.returncode == 1
        self.one_error_line(result.stderr, f"{path}: not a regular file")

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["catalog", "t1", "t2t3", "probs", "splits", "features", "schema", "predictions",
                                 "ranking", "config"]),
           at=st.floats(0.0, 1.0),
           bad=st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xf4\x90\x80\x80"]))
    def test_a_byte_that_is_not_utf8_names_its_row(self, corpus_dir, made, tmp_path_factory, kind, at, bad):
        """bad, an invalid start byte or a truncated, surrogate or out-of-range character, cut into
        the file anywhere; the error names the 1-based row it lands on (the line, in a file
        without a header row or in a config or schema file), or the header."""
        work = tmp_path_factory.mktemp("bytes")
        suffix = {"schema": ".csv.schema", "ranking": ".tsv"}.get(kind, ".csv" if kind != "config" else ".txt")
        path = work / f"bad{suffix}"
        source, argv = self.commands(corpus_dir, made, path)[kind]
        data = source.read_bytes()
        cut = int(at * len(data))
        path.write_bytes(data[:cut] + bad + data[cut:])
        if kind == "features":
            path.with_name(path.name + ".schema").write_bytes((made[1] / "features.csv.schema").read_bytes())
        elif kind == "schema":
            path.with_suffix("").write_bytes((made[1] / "features.csv").read_bytes())
        line = len(re.findall(rb"\r\n|\r|\n", data[:cut])) + 1
        row = line - (kind not in ("ranking", "config", "schema"))
        where = "header" if row == 0 else f"{'line' if kind in ('config', 'schema') else 'row'} {row}"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            assert main(argv) == 1
        self.one_error_line(err.getvalue(), path)
        assert f"{path}: {where}: not UTF-8 text (" in err.getvalue()

    @pytest.mark.parametrize("task", ["T1", "T2", "T3"])
    def test_a_file_that_leaves_out_a_pair_of_a_listed_query(self, corpus_dir, made, tmp_path, capsys, task):
        out = made[1]
        name, truth = ("ranking_T1.tsv", "t1.csv") if task == "T1" else (f"predictions_{task}.csv", "t2t3.csv")
        lines = (out / name).read_text(encoding="utf-8").splitlines(keepends=True)
        dropped = len(lines) - 1 if task == "T1" else 1  # a ranking's last line has its query's last rank
        cells = lines[dropped].rstrip("\n").split("\t" if task == "T1" else ",")
        pair = (cells[0], cells[2] if task == "T1" else cells[1])
        partial = tmp_path / name
        partial.write_text("".join(lines[:dropped] + lines[dropped + 1 :]), encoding="utf-8")
        argv = ["evaluate", "--task", task, "--truth", str(corpus_dir / truth)]
        capsys.readouterr()
        assert main(argv + ["--predictions", str(out / name)]) == 0
        capsys.readouterr()
        assert main(argv + ["--predictions", str(partial)]) == 1
        err = capsys.readouterr().err
        self.one_error_line(err, partial)
        assert f"{partial}: 1 labeled pair(s) of the queries it lists are missing, the first {pair}" in err
