"""The three workloads: their set-up, timed commands, output checks and quality.

Every command is a `shoprank` CLI argument list. Set-up commands run as
separate `python -m shoprank.cli` processes; timed commands run in one worker
process (see worker.py). Why each workload was chosen is stated in
BENCHMARK.json and README.md. Sizes are cut so that a 30-second run on 2 CPUs
holds two or more iterations of each workload; see README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from checks import Check, eval_queries, read_labels, report_value
from worker import SCORER_MODULUS

# The score workload trains its models on a corpus from a different seed.
TRAIN_SEED_OFFSET = 100_003


def _corpus_args(corpus: Path) -> list[str]:
    return [
        "--catalog", str(corpus / "catalog.csv"),
        "--t1", str(corpus / "t1.csv"),
        "--t2t3", str(corpus / "t2t3.csv"),
        "--probs", str(corpus / "probs.csv"),
        "--splits", str(corpus / "splits.csv"),
    ]


def _synth(seed: int, queries: int, out: Path) -> list[str]:
    return ["synth", "--seed", str(seed), "--queries", str(queries), "--out", str(out)]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Path, int], list[list[str]]]  # (setup_dir, seed) -> commands
    commands: Callable[[Path, Path, int], list[list[str]]]  # (setup_dir, out_dir, seed) -> commands
    check: Callable[[Path, Path], list[Check]]  # (setup_dir, out_dir) -> checks
    quality: Callable[[Path, Path], dict[str, float]]  # (setup_dir, out_dir) -> named values
    inference: bool = False  # append sched.run_inference over the corpus


# --- crossfit: the full pipeline, training-bound ---------------------------

CROSSFIT_QUERIES = 500
CROSSFIT_ROUNDS = 15


def _crossfit_setup(setup: Path, seed: int) -> list[list[str]]:
    return [_synth(seed, CROSSFIT_QUERIES, setup / "corpus")]


def _crossfit_commands(setup: Path, out: Path, seed: int) -> list[list[str]]:
    return [
        ["pipeline", *_corpus_args(setup / "corpus"), "--out", str(out), "--seed", str(seed),
         "--rounds", str(CROSSFIT_ROUNDS), "--sweep-t3-threshold"]
    ]


def _crossfit_check(setup: Path, out: Path) -> list[Check]:
    corpus = setup / "corpus"
    queries = eval_queries(corpus / "splits.csv")
    t2t3 = read_labels(corpus / "t2t3.csv", queries)
    return (
        checks.check_ranking(out / "ranking_T1.tsv", read_labels(corpus / "t1.csv", queries), out / "report_T1.txt")
        + checks.check_predictions("T2", out / "predictions_T2.csv", t2t3, out / "report_T2.txt")
        + checks.check_predictions("T3", out / "predictions_T3.csv", t2t3, out / "report_T3.txt")
    )


def _three_task_quality(setup: Path, out: Path) -> dict[str, float]:
    return {
        "t1_ndcg": report_value(out / "report_T1.txt", "mean_ndcg"),
        "t2_micro_f1": report_value(out / "report_T2.txt", "micro_f1"),
        "t3_micro_f1": report_value(out / "report_T3.txt", "micro_f1"),
    }


# --- score: apply trained models to a fresh corpus, data-bound -------------

SCORE_QUERIES = 800
SCORE_TRAIN_QUERIES = 150
SCORE_TRAIN_ROUNDS = 5
BATCH_SIM_SIZE = 32


def _score_setup(setup: Path, seed: int) -> list[list[str]]:
    train = setup / "train_corpus"
    return [
        _synth(seed, SCORE_QUERIES, setup / "corpus"),
        _synth(seed + TRAIN_SEED_OFFSET, SCORE_TRAIN_QUERIES, train),
        ["pipeline", *_corpus_args(train), "--out", str(setup / "models"), "--seed", str(seed),
         "--rounds", str(SCORE_TRAIN_ROUNDS)],
    ]


def _score_commands(setup: Path, out: Path, seed: int) -> list[list[str]]:
    c, m = setup / "corpus", setup / "models"
    features = str(out / "features.csv")
    commands = [
        ["features", "--catalog", str(c / "catalog.csv"), "--examples", str(c / "t2t3.csv"),
         "--probs", str(c / "probs.csv"), "--t1", str(c / "t1.csv"), "--out", features],
        ["rank", "--model", str(m / "model_T1_fold0.json"), "--features", features,
         "--examples", str(c / "t1.csv"), "--out", str(out / "ranking_T1.tsv")],
    ]
    for task in ("T2", "T3"):
        commands.append(["classify", "--model", str(m / f"model_{task}_fold0.json"), "--features", features,
                         "--task", task, "--out", str(out / f"predictions_{task}.csv")])
    for task, truth, predictions in (
        ("T1", "t1.csv", "ranking_T1.tsv"),
        ("T2", "t2t3.csv", "predictions_T2.csv"),
        ("T3", "t2t3.csv", "predictions_T3.csv"),
    ):
        commands.append(["evaluate", "--task", task, "--truth", str(c / truth),
                         "--predictions", str(out / predictions), "--out", str(out / f"report_{task}.txt")])
    commands.append(["batch-sim", "--catalog", str(c / "catalog.csv"), "--examples", str(c / "t2t3.csv"),
                     "--batch-size", str(BATCH_SIM_SIZE), "--out", str(out / "batch_sim.txt")])
    return commands


def _score_check(setup: Path, out: Path) -> list[Check]:
    corpus = setup / "corpus"
    t2t3 = read_labels(corpus / "t2t3.csv")
    return (
        checks.check_ranking(out / "ranking_T1.tsv", read_labels(corpus / "t1.csv"), out / "report_T1.txt")
        + checks.check_predictions("T2", out / "predictions_T2.csv", t2t3, out / "report_T2.txt")
        + checks.check_predictions("T3", out / "predictions_T3.csv", t2t3, out / "report_T3.txt")
        + checks.check_batch_sim(out / "batch_sim.txt", len(t2t3))
        + checks.check_inference(out / "inference_scores.csv", corpus / "catalog.csv", t2t3, SCORER_MODULUS)
    )


# --- ablate: many small training calls -------------------------------------

ABLATE_QUERIES = 150
ABLATE_ROUNDS = 8


def _ablate_setup(setup: Path, seed: int) -> list[list[str]]:
    return [_synth(seed, ABLATE_QUERIES, setup / "corpus")]


def _ablate_commands(setup: Path, out: Path, seed: int) -> list[list[str]]:
    return [
        ["ablate", *_corpus_args(setup / "corpus"), "--task", "T2", "--seed", str(seed),
         "--rounds", str(ABLATE_ROUNDS), "--depth", "4", "--min-leaf", "10",
         "--out", str(out / "ablation_T2.tsv")]
    ]


def _ablate_check(setup: Path, out: Path) -> list[Check]:
    return checks.check_ablation(out / "ablation_T2.tsv")


def _ablate_quality(setup: Path, out: Path) -> dict[str, float]:
    first_row = (out / "ablation_T2.tsv").read_text(encoding="utf-8").splitlines()[1]
    return {"t2_micro_f1": float(first_row.split("\t")[1])}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("crossfit", _crossfit_setup, _crossfit_commands, _crossfit_check, _three_task_quality),
        Workload("score", _score_setup, _score_commands, _score_check, _three_task_quality, inference=True),
        Workload("ablate", _ablate_setup, _ablate_commands, _ablate_check, _ablate_quality),
    )
}
