"""Command-line entry point.

Subcommands: synth, features, train, rank, classify, evaluate, ablate,
batch-sim, pipeline. Every option can also come from a key-value config file
(`key = value`, `#` comments); explicit flags win over the file, the file
wins over built-in defaults. Commands that fit models or generate data
require a seed. Exit code 0 on success; failures print a stage-tagged
message to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import dataio, gbdt, sched
from .errors import ConfigurationError, ParseError, ShoprankError, StageError, ValidationError
from .features import FEATURE_FAMILIES, FeatureMatrix, assemble_features
from .metrics import evaluate_classification, evaluate_ranking, ranking_truth
from .model import TASK_T1, TASK_T2T3, EsciLabel, ExampleSet, pair_rows
from .pipeline import (
    PipelineConfig,
    PipelineData,
    ablation_to_text,
    label_targets,
    run_ablation,
    run_pipeline,
)
from .rank import (
    RankedList, classify_t2_rows, classify_t3_rows, expected_gain_rows, rank_groups, ranked_lists_to_text,
)
from .synth import SynthConfig, query_split, synth_generate

_SPLIT_FULL_NAME = {"trn": "train", "prv": "private", "pub": "public"}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"cannot parse boolean from {text!r}")


def _parse_count_mixture(text: str) -> tuple[tuple[int, float], ...]:
    """Parse \"16:0.6,40:0.4\" into ((16, 0.6), (40, 0.4))."""
    out = []
    for part in text.split(","):
        if ":" not in part:
            raise ConfigurationError(f"count mixture entry {part!r} lacks a colon")
        k, v = part.split(":", 1)
        out.append((int(k), float(v)))
    return tuple(out)


def _parse_label_shares(text: str) -> tuple[tuple[str, float], ...]:
    out = []
    for part in text.split(","):
        if ":" not in part:
            raise ConfigurationError(f"label share entry {part!r} lacks a colon")
        k, v = part.split(":", 1)
        out.append((k.strip(), float(v)))
    return tuple(out)


def _parse_name_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def load_config_file(path: str | Path) -> dict[str, str]:
    """key = value lines; blank lines and # comments ignored."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"{path}: line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


class _Options:
    """Merges CLI values (already typed), config file strings, and defaults."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = load_config_file(args.config) if getattr(args, "config", None) else {}

    def get(self, name: str, cast: Callable, default=None):
        cli_value = getattr(self.args, name, None)
        if cli_value is not None:
            return cli_value
        if name in self.config:
            return cast(self.config[name])
        return default

    def require(self, name: str, cast: Callable, parser_hint: str):
        value = self.get(name, cast, None)
        if value is None:
            raise _UsageError(f"missing required option --{parser_hint}")
        return value


class _UsageError(Exception):
    pass


def _gbdt_params(opt: _Options) -> gbdt.GbdtParams:
    return gbdt.GbdtParams(
        num_rounds=opt.get("rounds", int, 200),
        max_depth=opt.get("depth", int, 6),
        min_samples_leaf=opt.get("min_leaf", int, 20),
        learning_rate=opt.get("learning_rate", float, 0.1),
        l2_reg=opt.get("l2", float, 1.0),
    )


def _add_config_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key-value config file; flags override it")


def _add_gbdt_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rounds", type=int, help="boosting rounds (default 200)")
    p.add_argument("--depth", type=int, help="max tree depth (default 6)")
    p.add_argument("--min-leaf", dest="min_leaf", type=int, help="min rows per leaf (default 20)")
    p.add_argument("--learning-rate", dest="learning_rate", type=float, help="shrinkage (default 0.1)")
    p.add_argument("--l2", type=float, help="leaf L2 regularization (default 1.0)")


def _synth_config(opt: _Options) -> SynthConfig:
    base = SynthConfig()
    return SynthConfig(
        n_queries=opt.get("queries", int, base.n_queries),
        t1_fraction=opt.get("t1_fraction", float, base.t1_fraction),
        train_fraction=opt.get("train_fraction", float, base.train_fraction),
        private_fraction=opt.get("private_fraction", float, base.private_fraction),
        count_mixture=opt.get("count_mixture", _parse_count_mixture, base.count_mixture),
        label_shares=opt.get("label_shares", _parse_label_shares, base.label_shares),
        t1_exact_offset=opt.get("t1_exact_offset", float, base.t1_exact_offset),
        force_exact=opt.get("force_exact", _parse_bool, base.force_exact),
        isbn_query_rate=opt.get("isbn_query_rate", float, base.isbn_query_rate),
        isbn_member_rate=opt.get("isbn_member_rate", float, base.isbn_member_rate),
        brand_pool_size=opt.get("brand_pool_size", int, base.brand_pool_size),
        dominant_brand_share=opt.get("dominant_brand_share", float, base.dominant_brand_share),
        product_reuse_rate=opt.get("product_reuse_rate", float, base.product_reuse_rate),
        noise=opt.get("noise", float, base.noise),
        group_noise_share=opt.get("group_noise_share", float, base.group_noise_share),
        n_models=opt.get("models", int, base.n_models),
        locale_weights=base.locale_weights,
    )


def _config_to_text(config: SynthConfig, seed: int) -> str:
    pairs = [
        ("seed", seed),
        ("queries", config.n_queries),
        ("t1_fraction", config.t1_fraction),
        ("train_fraction", config.train_fraction),
        ("private_fraction", config.private_fraction),
        ("count_mixture", ",".join(f"{c}:{p}" for c, p in config.count_mixture)),
        ("label_shares", ",".join(f"{k}:{v}" for k, v in config.label_shares)),
        ("t1_exact_offset", config.t1_exact_offset),
        ("force_exact", config.force_exact),
        ("isbn_query_rate", config.isbn_query_rate),
        ("isbn_member_rate", config.isbn_member_rate),
        ("brand_pool_size", config.brand_pool_size),
        ("dominant_brand_share", config.dominant_brand_share),
        ("product_reuse_rate", config.product_reuse_rate),
        ("noise", config.noise),
        ("group_noise_share", config.group_noise_share),
        ("models", config.n_models),
    ]
    return "".join(f"{k} = {v}\n" for k, v in pairs)


def cmd_synth(args: argparse.Namespace) -> int:
    opt = _Options(args)
    seed = opt.require("seed", int, "seed")
    out_dir = Path(opt.require("out", str, "out"))
    config = _synth_config(opt)
    result = synth_generate(config, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataio.write_catalog(result.catalog, out_dir / "catalog.csv")
    dataio.write_examples(result.t1_examples, out_dir / "t1.csv")
    dataio.write_examples(result.t2t3_examples, out_dir / "t2t3.csv")
    dataio.write_probs(result.probs, out_dir / "probs.csv")
    splits = {
        qid: _SPLIT_FULL_NAME[query_split(qid)] for qid in result.t2t3_examples.query_ids()
    }
    dataio.write_splits(splits, out_dir / "splits.csv")
    (out_dir / "synth_config.txt").write_text(_config_to_text(config, seed), encoding="utf-8")
    print(
        f"wrote {len(result.catalog)} products, {len(result.t2t3_examples)} pairs "
        f"({len(result.t1_examples)} in T1) to {out_dir}"
    )
    return 0


def _load_pipeline_data(opt: _Options) -> PipelineData:
    catalog = dataio.load_catalog(opt.require("catalog", str, "catalog"))
    t1 = dataio.load_examples(opt.require("t1", str, "t1"), TASK_T1, catalog)
    t2t3 = dataio.load_examples(opt.require("t2t3", str, "t2t3"), TASK_T2T3, catalog)
    probs = dataio.load_probs(opt.require("probs", str, "probs"))
    splits = dataio.load_splits(opt.require("splits", str, "splits"))
    missing = [q for q in t2t3.query_ids() if q not in splits]
    if missing:
        raise ConfigurationError(
            f"splits file lacks {len(missing)} query id(s), e.g. {missing[:3]}"
        )
    eval_queries = frozenset(q for q, s in splits.items() if s != "train")
    return PipelineData(
        catalog=catalog,
        t1_examples=t1,
        t2t3_examples=t2t3,
        probs=probs,
        eval_queries=eval_queries,
    )


def cmd_features(args: argparse.Namespace) -> int:
    opt = _Options(args)
    catalog = dataio.load_catalog(opt.require("catalog", str, "catalog"))
    examples = dataio.load_examples(opt.require("examples", str, "examples"), TASK_T2T3, catalog)
    probs = dataio.load_probs(opt.require("probs", str, "probs"))
    t1 = dataio.load_examples(opt.require("t1", str, "t1"), TASK_T1)
    out = opt.require("out", str, "out")
    matrix = assemble_features(examples, catalog, probs, t1.product_id)
    matrix.save(out)
    print(f"wrote {matrix.n_rows} rows x {len(matrix.columns)} columns to {out}")
    return 0


def _labeled_targets(
    examples: ExampleSet, matrix: FeatureMatrix, objective: str
) -> tuple[FeatureMatrix, np.ndarray]:
    """Restrict matrix rows to labeled examples and derive targets from labels."""
    rows = pair_rows(examples.pairs, matrix.pairs)
    label_index = np.where(rows >= 0, examples.label_index[rows], -1)
    mask = label_index >= 0
    if not mask.any():
        raise ValidationError("no labeled rows shared between the feature matrix and examples")
    return matrix.restrict_rows(mask), label_targets(label_index[mask], objective)


def cmd_train(args: argparse.Namespace) -> int:
    opt = _Options(args)
    matrix = FeatureMatrix.load(opt.require("features", str, "features"))
    examples = dataio.load_examples(opt.require("examples", str, "examples"), TASK_T2T3)
    objective = opt.get("objective", str, gbdt.OBJECTIVE_MULTICLASS)
    out = opt.require("out", str, "out")
    sub, targets = _labeled_targets(examples, matrix, objective)
    model = gbdt.train(sub, targets, objective, _gbdt_params(opt))
    gbdt.save_model(model, out)
    print(
        f"trained {objective} model: {len(model.trees)} trees, "
        f"final loss {model.train_loss[-1]:.6f}, saved to {out}"
    )
    return 0


def cmd_rank(args: argparse.Namespace) -> int:
    opt = _Options(args)
    model = gbdt.load_model(opt.require("model", str, "model"))
    matrix = FeatureMatrix.load(opt.require("features", str, "features"))
    examples = dataio.load_examples(opt.require("examples", str, "examples"), TASK_T1)
    out = opt.require("out", str, "out")
    probs = gbdt.predict_proba(model, matrix)
    if model.objective != gbdt.OBJECTIVE_MULTICLASS:
        raise ValidationError("ranking requires a multiclass model")
    rows = pair_rows(matrix.pairs, examples.pairs)
    if (rows < 0).any():
        raise ValidationError(f"no score (feature row) for pair {examples.pairs[np.argmin(rows)]}")
    ranked = rank_groups(examples, expected_gain_rows(probs)[rows])
    Path(out).write_text(ranked_lists_to_text(ranked), encoding="utf-8")
    print(f"wrote rankings for {len(ranked)} queries to {out}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    opt = _Options(args)
    model = gbdt.load_model(opt.require("model", str, "model"))
    matrix = FeatureMatrix.load(opt.require("features", str, "features"))
    task = opt.get("task", str, "T2")
    out = opt.require("out", str, "out")
    if task == "T2":
        if model.objective != gbdt.OBJECTIVE_MULTICLASS:
            raise ValidationError("T2 classification requires a multiclass model")
        probs = gbdt.predict_proba(model, matrix)
        preds = [EsciLabel.from_index(int(i)) for i in classify_t2_rows(probs)]
    elif task == "T3":
        if model.objective != gbdt.OBJECTIVE_BINARY:
            raise ValidationError("T3 classification requires a binary model")
        threshold = opt.get("threshold", float, 0.5)
        preds = classify_t3_rows(gbdt.predict_proba(model, matrix), threshold)
    else:
        raise _UsageError(f"unknown task {task!r}; classify supports T2 and T3")
    _write_predictions(out, matrix.pairs, preds)
    print(f"wrote {len(preds)} predictions to {out}")
    return 0


def _write_predictions(path: str | Path, pairs: Sequence[tuple[str, str]], predictions) -> None:
    """query_id,product_id,prediction rows: T2 label codes, or T3 flags as 1/0."""
    lines = ["query_id,product_id,prediction"]
    for (qid, pid), pred in zip(pairs, predictions):
        lines.append(f"{qid},{pid},{pred.value if isinstance(pred, EsciLabel) else int(pred)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_ranking_file(path: str | Path) -> list[RankedList]:
    per_query: dict[str, list[tuple[int, str, float]]] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ParseError(f"{path}: line {lineno}: expected 4 tab-separated fields")
        qid, rank_str, pid, score_str = parts
        try:
            per_query.setdefault(qid, []).append((int(rank_str), pid, float(score_str)))
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from None
    ranked = []
    for qid, rows in per_query.items():
        rows.sort(key=lambda r: r[0])
        if [r[0] for r in rows] != list(range(1, len(rows) + 1)):
            raise ParseError(f"{path}: query {qid!r}: ranks are not 1..{len(rows)}")
        ranked.append(
            RankedList(qid, tuple(r[1] for r in rows), tuple(r[2] for r in rows))
        )
    if not ranked:
        raise ParseError(f"{path}: no ranking rows")
    return ranked


def _read_prediction_file(path: str | Path) -> dict[tuple[str, str], str]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "query_id,product_id,prediction":
        raise ParseError(f"{path}: missing prediction header")
    out: dict[tuple[str, str], str] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"{path}: line {lineno}: expected 3 comma-separated fields")
        out[(parts[0], parts[1])] = parts[2]
    if not out:
        raise ParseError(f"{path}: no prediction rows")
    return out


def cmd_evaluate(args: argparse.Namespace) -> int:
    opt = _Options(args)
    task = opt.require("task", str, "task")
    truth = dataio.load_examples(opt.require("truth", str, "truth"), TASK_T2T3)
    pred_path = opt.require("predictions", str, "predictions")
    out = opt.get("out", str, None)

    if task == "T1":
        ranked = _read_ranking_file(pred_path)
        truth_map, locales = ranking_truth(truth.labeled())
        ranked = [rl for rl in ranked if rl.query_id in truth_map]
        if not ranked:
            raise ValidationError("no ranked queries overlap the labeled truth set")
        report = evaluate_ranking(ranked, truth_map, locales)
    elif task in ("T2", "T3"):
        preds = _read_prediction_file(pred_path)
        labeled = truth.labeled()
        rows = labeled.subset(np.fromiter(map(preds.__contains__, labeled.pairs), dtype=bool))
        if len(rows) == 0:
            raise ValidationError("no predicted pairs overlap the labeled truth set")
        if task == "T2":
            y_pred = [preds[ex.pair] for ex in rows]
            y_true = [ex.label.value for ex in rows]
        else:
            y_pred = [preds[ex.pair] == "1" for ex in rows]
            y_true = [ex.label is EsciLabel.SUBSTITUTE for ex in rows]
        report = evaluate_classification(task, y_pred, y_true, rows.locale, rows.query_id)
    else:
        raise _UsageError(f"unknown task {task!r}; expected T1, T2, or T3")

    text = report.to_text()
    sys.stdout.write(text)
    if out:
        Path(out).write_text(text, encoding="utf-8")
        Path(str(out) + ".kv").write_text(report.to_kv_lines(), encoding="utf-8")
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    opt = _Options(args)
    seed = opt.require("seed", int, "seed")
    out_dir = Path(opt.require("out", str, "out"))
    data = _load_pipeline_data(opt)
    tasks = opt.get("tasks", _parse_name_list, ("T1", "T2", "T3"))
    config = PipelineConfig(
        tasks=tuple(tasks),
        n_folds=opt.get("folds", int, 2),
        params=_gbdt_params(opt),
        seed=seed,
        disabled_families=tuple(opt.get("disable_feature", _parse_name_list, ())),
        t3_threshold=opt.get("t3_threshold", float, 0.5),
        sweep_t3_threshold=opt.get("sweep_t3_threshold", _parse_bool, False),
    )
    result = run_pipeline(data, config)
    out_dir.mkdir(parents=True, exist_ok=True)
    for task, output in result.outputs.items():
        (out_dir / f"report_{task}.txt").write_text(output.report.to_text(), encoding="utf-8")
        (out_dir / f"report_{task}.kv").write_text(output.report.to_kv_lines(), encoding="utf-8")
        for fold, model in enumerate(output.models):
            gbdt.save_model(model, out_dir / f"model_{task}_fold{fold}.json")
        if task == "T1":
            (out_dir / "ranking_T1.tsv").write_text(
                ranked_lists_to_text(output.predictions), encoding="utf-8"
            )
        else:
            _write_predictions(out_dir / f"predictions_{task}.csv", output.eval_pairs, output.predictions)
        sys.stdout.write(output.report.to_text())
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    opt = _Options(args)
    seed = opt.require("seed", int, "seed")
    data = _load_pipeline_data(opt)
    task = opt.get("task", str, "T2")
    families = opt.get("families", _parse_name_list, None)
    config = PipelineConfig(
        tasks=(task,),
        n_folds=opt.get("folds", int, 2),
        params=_gbdt_params(opt),
        seed=seed,
    )
    rows = run_ablation(data, config, task=task, families=families)
    metric_name = "mean_ndcg" if task == "T1" else "micro_f1"
    text = ablation_to_text(rows, metric_name)
    sys.stdout.write(text)
    out = opt.get("out", str, None)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    return 0


def cmd_batch_sim(args: argparse.Namespace) -> int:
    opt = _Options(args)
    catalog = dataio.load_catalog(opt.require("catalog", str, "catalog"))
    examples = dataio.load_examples(opt.require("examples", str, "examples"), TASK_T2T3)
    batch_size = opt.get("batch_size", int, sched.DEFAULT_BATCH_SIZE)
    cache_path = opt.get("cache", str, None)
    cache = sched.build_token_cache(catalog, path=cache_path)
    pairs = [
        (ex.pair, cache.get(ex.product_id).token_length) for ex in examples
    ]
    presorted = sched.presort_batches(pairs, batch_size)
    unsorted = sched.sequential_batches(pairs, batch_size)
    lines = [
        f"pairs: {len(pairs)}",
        f"batch_size: {batch_size}",
        f"padded_cells_unsorted: {sched.padded_cells(unsorted)}",
        f"padded_cells_presorted: {sched.padded_cells(presorted)}",
        f"padding_waste_unsorted: {sched.padding_waste(unsorted):.6f}",
        f"padding_waste_presorted: {sched.padding_waste(presorted):.6f}",
    ]
    saved = sched.padded_cells(unsorted) - sched.padded_cells(presorted)
    lines.append(f"cells_saved_by_presort: {saved}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    out = opt.get("out", str, None)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shoprank",
        description="Two-stage search relevance pipeline over per-pair class probabilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    _add_config_arg(p)
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, help="generator seed (required)")
    p.add_argument("--queries", type=int, help="number of queries (default 500)")
    p.add_argument("--noise", type=float, help="probability noise level in [0,1] (default 0.9)")
    p.add_argument("--models", type=int, help="upstream models per pair (default 1)")
    p.add_argument("--t1-fraction", dest="t1_fraction", type=float)
    p.add_argument("--train-fraction", dest="train_fraction", type=float)
    p.add_argument("--private-fraction", dest="private_fraction", type=float)
    p.add_argument("--t1-exact-offset", dest="t1_exact_offset", type=float)
    p.add_argument("--count-mixture", dest="count_mixture", type=_parse_count_mixture)
    p.add_argument("--label-shares", dest="label_shares", type=_parse_label_shares)
    p.add_argument("--isbn-query-rate", dest="isbn_query_rate", type=float)
    p.add_argument("--isbn-member-rate", dest="isbn_member_rate", type=float)
    p.add_argument("--brand-pool-size", dest="brand_pool_size", type=int)
    p.add_argument("--dominant-brand-share", dest="dominant_brand_share", type=float)
    p.add_argument("--product-reuse-rate", dest="product_reuse_rate", type=float)
    p.add_argument("--group-noise-share", dest="group_noise_share", type=float)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", help="assemble the feature matrix")
    _add_config_arg(p)
    p.add_argument("--catalog")
    p.add_argument("--examples")
    p.add_argument("--probs")
    p.add_argument("--t1", help="T1 examples file backing the membership feature")
    p.add_argument("--out")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("train", help="fit a boosted-tree model on a feature matrix")
    _add_config_arg(p)
    p.add_argument("--features")
    p.add_argument("--examples", help="labeled examples supplying targets")
    p.add_argument("--objective", choices=(gbdt.OBJECTIVE_MULTICLASS, gbdt.OBJECTIVE_BINARY))
    p.add_argument("--out")
    _add_gbdt_args(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("rank", help="rank query groups by expected gain")
    _add_config_arg(p)
    p.add_argument("--model")
    p.add_argument("--features")
    p.add_argument("--examples")
    p.add_argument("--out")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("classify", help="emit T2 labels or T3 substitute flags")
    _add_config_arg(p)
    p.add_argument("--model")
    p.add_argument("--features")
    p.add_argument("--task", choices=("T2", "T3"))
    p.add_argument("--threshold", type=float, help="T3 decision threshold (default 0.5)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evaluate", help="score predictions against labeled truth")
    _add_config_arg(p)
    p.add_argument("--task", choices=("T1", "T2", "T3"))
    p.add_argument("--truth", help="labeled examples file")
    p.add_argument("--predictions", help="ranking or prediction file")
    p.add_argument("--out", help="also write the report here (plus .kv)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pipeline", help="full run: features, folds, models, outputs, reports")
    _add_config_arg(p)
    p.add_argument("--catalog")
    p.add_argument("--t1")
    p.add_argument("--t2t3")
    p.add_argument("--probs")
    p.add_argument("--splits")
    p.add_argument("--out")
    p.add_argument("--seed", type=int, help="fold assignment seed (required)")
    p.add_argument("--tasks", type=_parse_name_list, help="subset of T1,T2,T3")
    p.add_argument("--folds", type=int, help="fold count (default 2)")
    p.add_argument(
        "--disable-feature",
        dest="disable_feature",
        type=_parse_name_list,
        help=f"comma-separated families to drop; families: {', '.join(FEATURE_FAMILIES)}",
    )
    p.add_argument("--t3-threshold", dest="t3_threshold", type=float)
    p.add_argument(
        "--sweep-t3-threshold",
        dest="sweep_t3_threshold",
        action="store_const",
        const=True,
        default=None,
        help="pick the T3 threshold from out-of-fold predictions",
    )
    _add_gbdt_args(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("ablate", help="paired runs with each feature family off")
    _add_config_arg(p)
    p.add_argument("--catalog")
    p.add_argument("--t1")
    p.add_argument("--t2t3")
    p.add_argument("--probs")
    p.add_argument("--splits")
    p.add_argument("--task", choices=("T1", "T2", "T3"))
    p.add_argument("--families", type=_parse_name_list, help="subset to ablate (default all)")
    p.add_argument("--folds", type=int)
    p.add_argument("--out")
    p.add_argument("--seed", type=int, help="fold assignment seed (required)")
    _add_gbdt_args(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("batch-sim", help="compare presorted vs unsorted batch padding")
    _add_config_arg(p)
    p.add_argument("--catalog")
    p.add_argument("--examples")
    p.add_argument("--batch-size", dest="batch_size", type=int, help="default 4")
    p.add_argument("--cache", help="also persist the token cache here")
    p.add_argument("--out")
    p.set_defaults(func=cmd_batch_sim)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        parser.error(f"{args.command}: {exc}")  # exits 2
        return 2
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ShoprankError, OSError) as exc:
        print(f"error: [{args.command}] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
