"""Command-line entry point.

Subcommands: synth, features, train, rank, classify, evaluate, ablate,
batch-sim, pipeline. Each option is declared once, on its command's parser.
Every option can also come from a `--config` file of `key = value` lines
(`#` comments), keyed by the option name with underscores (`min_leaf` for
`--min-leaf`). Flags win over the file and the file wins over the defaults,
which the SynthConfig, GbdtParams and PipelineConfig dataclasses hold. Keys
that name no option of the command are ignored, so one file can serve several
commands; a value the option's type rejects fails naming the file and line.
`synth` writes its settings to `synth_config.txt`, which `synth --config`
reads back. Commands that fit models or generate data require a seed. Exit
code 0 on success; failures print a stage-tagged message to stderr and exit
nonzero.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import shutil
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import dataio, gbdt, sched
from .errors import ConfigurationError, DuplicateKeyError, ParseError, ShoprankError, StageError, ValidationError
from .features import FEATURE_FAMILIES, FeatureMatrix, assemble_features
from .metrics import evaluate_classification, evaluate_ranking, ranking_truth
from .model import CLASS_ORDER, TASK_T1, TASK_T2T3, EsciLabel, ExampleSet, Pairs, first_repeat_row, pair_rows
from .pipeline import (
    PipelineConfig,
    PipelineData,
    ablation_to_text,
    run_ablation,
    run_pipeline,
)
from .rank import RankedList, classify_t2_rows, classify_t3_rows, expected_gain_rows, rank_groups
from .synth import SynthConfig, query_split, synth_generate

_SPLIT_FULL_NAME = {"trn": "train", "prv": "private", "pub": "public"}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"cannot parse boolean from {text!r}")


def _parse_pairs(text: str, key_type: Callable) -> tuple:
    """Parse \"16:0.6,40:0.4\" into ((16, 0.6), (40, 0.4)), casting each key with key_type.

    A bad entry raises ArgumentTypeError, whose text argparse prints as the reason.
    """
    out = []
    try:
        for part in text.split(","):
            key, colon, value = part.partition(":")
            if not colon:
                raise ValueError(f"entry {part!r} lacks a colon")
            out.append((key_type(key.strip()), float(value)))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return tuple(out)


def _parse_count_mixture(text: str) -> tuple[tuple[int, float], ...]:
    return _parse_pairs(text, int)


def _parse_label_shares(text: str) -> tuple[tuple[str, float], ...]:
    return _parse_pairs(text, str)


def _parse_name_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _setting_text(value) -> str:
    """A setting as a config file writes it: lists comma-separated, pairs as key:value."""
    if isinstance(value, tuple):
        return ",".join(":".join(map(str, v)) if isinstance(v, tuple) else str(v) for v in value)
    return str(value)


#: Option type for each dataclass field annotation (the modules postpone annotations).
_FIELD_TYPES = {
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "tuple[str, ...]": _parse_name_list,
    "tuple[tuple[int, float], ...]": _parse_count_mixture,
    "tuple[tuple[str, float], ...]": _parse_label_shares,
}

# Options that set a dataclass field: option name -> (field name, help).
_GBDT_OPTIONS = {
    "rounds": ("num_rounds", "boosting rounds"),
    "depth": ("max_depth", "max tree depth"),
    "min_leaf": ("min_samples_leaf", "min rows per leaf"),
    "learning_rate": ("learning_rate", "shrinkage"),
    "l2": ("l2_reg", "leaf L2 regularization"),
}
_FOLD_OPTIONS = {"folds": ("n_folds", "fold count")}
_PIPELINE_OPTIONS = {
    **_FOLD_OPTIONS,
    "tasks": ("tasks", "subset of T1,T2,T3"),
    "disable_feature": ("disabled_families", "families to drop, of " + ",".join(FEATURE_FAMILIES)),
    "t3_threshold": ("t3_threshold", "T3 decision threshold"),
    "sweep_t3_threshold": ("sweep_t3_threshold", "pick the T3 threshold from out-of-fold predictions"),
}
_CLASSIFY_OPTIONS = {"threshold": ("t3_threshold", "T3 threshold")}
# Every generator setting but the fixed locale_weights; two keys drop the n_ prefix.
_SYNTH_OPTIONS = {
    {"n_queries": "queries", "n_models": "models"}.get(f.name, f.name): (f.name, f"SynthConfig.{f.name}")
    for f in dataclasses.fields(SynthConfig)
    if f.name != "locale_weights"
}


def _add_field_options(p: argparse.ArgumentParser, cls, options: dict[str, tuple[str, str]]) -> None:
    """Declare each option with the type and default of the cls field it sets; a bool
    field that defaults to False is a bare switch, still cast by _parse_bool from a file."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key, (name, about) in options.items():
        field = fields[name]
        cast = _FIELD_TYPES[field.type]
        kind = {"action": "store_const", "const": True} if field.default is False else {"type": cast}
        about += f" (default {_setting_text(field.default) or 'none'})"
        action = p.add_argument("--" + key.replace("_", "-"), help=about, **kind)
        action.type = cast


def _from_options(cls, args: argparse.Namespace, options: dict[str, tuple[str, str]], **fixed):
    """cls built from fixed and the options that were set; the rest keep the cls defaults.

    When cls rejects the values, the first --config line whose value cls also
    rejects on its own is named in a ParseError; otherwise the error stands.
    """
    values = {name: getattr(args, key) for key, (name, _) in options.items()}
    values = {name: v for name, v in values.items() if v is not None}
    try:
        return cls(**fixed, **values)
    except (ConfigurationError, ValidationError):
        for key, lineno in args.config_lines.items():
            if key in options:
                name = options[key][0]
                try:
                    cls(**fixed, **{name: values[name]})
                except (ConfigurationError, ValidationError) as exc:
                    raise ParseError(f"{args.config}: line {lineno}: {key}: {exc}") from None
        raise


def _apply_config(args: argparse.Namespace) -> None:
    """Set each option that no flag gave from the --config file, cast by the option's own type.

    The file holds `key = value` lines (blank lines and # comments ignored); a
    later line for the same key wins. Keys that name no option are ignored.
    args.config_lines maps each key set from the file to its line number.
    """
    args.config_lines = {}
    if not args.config:
        return
    options = {a.dest: a for a in args.parser._actions if a.dest not in ("help", "config")}
    given = {key for key in options if getattr(args, key) is not None}
    for lineno, raw in enumerate(Path(args.config).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, equals, text = (part.strip() for part in line.partition("="))
        if not equals:
            raise ParseError(f"{args.config}: line {lineno}: expected key = value, got {raw!r}")
        if key not in options or key in given:
            continue
        action = options[key]
        try:
            value = action.type(text) if action.type else text
            if action.choices is not None and value not in action.choices:
                raise ValueError(f"expected one of {', '.join(action.choices)}")
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ParseError(f"{args.config}: line {lineno}: {key}: {exc}") from None
        setattr(args, key, value)
        args.config_lines[key] = lineno


def cmd_synth(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    config = _from_options(SynthConfig, args, _SYNTH_OPTIONS)
    result = synth_generate(config, args.seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataio.write_catalog(result.catalog, out_dir / "catalog.csv")
    dataio.write_examples(result.t1_examples, out_dir / "t1.csv")
    dataio.write_examples(result.t2t3_examples, out_dir / "t2t3.csv")
    dataio.write_probs(result.probs, out_dir / "probs.csv")
    splits = {
        qid: _SPLIT_FULL_NAME[query_split(qid)] for qid in result.t2t3_examples.query_ids()
    }
    dataio.write_splits(splits, out_dir / "splits.csv")
    settings = [("seed", args.seed)]
    settings += [(key, getattr(config, name)) for key, (name, _) in _SYNTH_OPTIONS.items()]
    (out_dir / "synth_config.txt").write_text(
        "".join(f"{key} = {_setting_text(value)}\n" for key, value in settings), encoding="utf-8"
    )
    print(
        f"wrote {len(result.catalog)} products, {len(result.t2t3_examples)} pairs "
        f"({len(result.t1_examples)} in T1) to {out_dir}"
    )
    return 0


def _load_pipeline_data(args: argparse.Namespace) -> PipelineData:
    catalog = dataio.load_catalog(args.catalog)
    t1 = dataio.load_examples(args.t1, TASK_T1, catalog)
    t2t3 = dataio.load_examples(args.t2t3, TASK_T2T3, catalog)
    probs = dataio.load_probs(args.probs)
    splits = dataio.load_splits(args.splits)
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
    catalog = dataio.load_catalog(args.catalog)
    examples = dataio.load_examples(args.examples, TASK_T2T3, catalog)
    probs = dataio.load_probs(args.probs)
    t1 = dataio.load_examples(args.t1, TASK_T1)
    matrix = assemble_features(examples, catalog, probs, t1.product_id)
    matrix.save(args.out)
    print(f"wrote {matrix.n_rows} rows x {len(matrix.columns)} columns to {args.out}")
    return 0


def _labeled_targets(
    examples: ExampleSet, matrix: FeatureMatrix, objective: str
) -> tuple[FeatureMatrix, np.ndarray]:
    """Matrix rows of labeled examples, and their class indices (for binary: is Substitute)."""
    rows = pair_rows(examples, matrix.pairs)
    label_index = np.where(rows >= 0, examples.label_index[rows], -1)
    mask = label_index >= 0
    if not mask.any():
        raise ValidationError("no labeled rows shared between the feature matrix and examples")
    targets = label_index[mask]
    if objective == gbdt.OBJECTIVE_BINARY:
        targets = targets == EsciLabel.SUBSTITUTE.index
    return matrix.restrict_rows(mask), targets


def cmd_train(args: argparse.Namespace) -> int:
    params = _from_options(gbdt.GbdtParams, args, _GBDT_OPTIONS)
    matrix = FeatureMatrix.load(args.features)
    examples = dataio.load_examples(args.examples, TASK_T2T3)
    objective = args.objective or gbdt.OBJECTIVE_MULTICLASS
    sub, targets = _labeled_targets(examples, matrix, objective)
    model = gbdt.train(sub, targets, objective, params)
    gbdt.save_model(model, args.out)
    print(
        f"trained {objective} model: {len(model.trees)} trees, "
        f"final loss {model.train_loss[-1]:.6f}, saved to {args.out}"
    )
    return 0


def _model_and_features(args: argparse.Namespace, use: str | None) -> tuple[gbdt.GbdtModel, FeatureMatrix]:
    """The --model file, then the --features file; when use names what needs a multiclass
    model, another objective fails before the feature file is read."""
    model = gbdt.load_model(args.model)
    if use and model.objective != gbdt.OBJECTIVE_MULTICLASS:
        raise ValidationError(f"{use} requires a multiclass model")
    return model, FeatureMatrix.load(args.features)


def cmd_rank(args: argparse.Namespace) -> int:
    model, matrix = _model_and_features(args, "ranking")
    examples = dataio.load_examples(args.examples, TASK_T1)
    rows = pair_rows(matrix.pairs, examples)
    if (rows < 0).any():
        raise ValidationError(f"no score (feature row) for pair {examples.take([np.argmin(rows)]).pairs[0]}")
    scored = gbdt.predict_proba(model, matrix.restrict_rows(rows))  # only the ranked rows
    ranked = rank_groups(examples, expected_gain_rows(scored))
    _write_ranking(args.out, ranked)
    print(f"wrote rankings for {len(ranked)} queries to {args.out}")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    task = args.task or "T2"
    if task == "T3":
        threshold = _from_options(PipelineConfig, args, _CLASSIFY_OPTIONS).t3_threshold
    model, matrix = _model_and_features(args, "T2 classification" if task == "T2" else None)
    probs = gbdt.predict_proba(model, matrix)
    if task == "T2":
        preds = [EsciLabel.from_index(int(i)) for i in classify_t2_rows(probs)]
    else:
        # p_s is column S of a multiclass model's probabilities, or a binary model's p.
        preds = classify_t3_rows(probs[:, EsciLabel.SUBSTITUTE.index] if probs.ndim == 2 else probs, threshold)
    _write_predictions(args.out, matrix.pairs, preds)
    print(f"wrote {len(preds)} predictions to {args.out}")
    return 0


_PREDICTION_HEADER = ("query_id", "product_id", "prediction")


def _write_predictions(path: str | Path, pairs: Pairs, predictions) -> None:
    """query_id,product_id,prediction rows: T2 label codes, or T3 flags as 1/0.

    Ids holding a comma, quote or line break are quoted as in the input CSVs.
    """
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_PREDICTION_HEADER)
        writer.writerows(
            (qid, pid, pred.value if isinstance(pred, EsciLabel) else int(pred))
            for qid, pid, pred in zip(pairs.query_id, pairs.product_id, predictions)
        )


def _write_ranking(path: str | Path, ranked: Sequence[RankedList]) -> None:
    """One tab-separated line per ranked product: query_id, rank, product_id, score.

    Ids holding a tab, quote or line break are quoted as CSV cells.
    """
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter="\t", lineterminator="\n")
        for rl in ranked:
            for position, (pid, score) in enumerate(zip(rl.product_ids, rl.scores), start=1):
                writer.writerow((rl.query_id, position, pid, f"{score:.6f}"))


def _read_ranking_file(path: str | Path) -> list[RankedList]:
    """Each query's ranked list; a product ranked twice in one query is an error naming the second line."""
    per_query: dict[str, list[tuple[int, str, float]]] = {}
    query_ids, product_ids, lines = [], [], []
    with Path(path).open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle, delimiter="\t")
        try:
            for row in reader:
                if not "".join(row).strip():  # a blank line
                    continue
                if len(row) != 4:
                    raise ParseError(f"{path}: line {reader.line_num}: expected 4 tab-separated fields")
                qid, rank_str, pid, score_str = row
                try:
                    rank, score = int(rank_str), float(score_str)
                except ValueError as exc:
                    raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
                if not math.isfinite(score):
                    raise ParseError(f"{path}: line {reader.line_num}: score {score_str!r} is not finite")
                per_query.setdefault(qid, []).append((rank, pid, score))
                query_ids.append(qid)
                product_ids.append(pid)
                lines.append(reader.line_num)
        except csv.Error as exc:  # a cell past the csv module's field size limit, say
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    row = first_repeat_row(Pairs(query_ids, product_ids).keys())
    if row >= 0:
        raise DuplicateKeyError(
            f"{path}: line {lines[row]}: product {product_ids[row]!r} ranked again in query {query_ids[row]!r}"
        )
    ranked = []
    for qid, rows in per_query.items():
        ranks, product_ids, scores = zip(*sorted(rows))  # rank order, once ranks are distinct
        if ranks != tuple(range(1, len(rows) + 1)):
            raise ParseError(f"{path}: query {qid!r}: ranks are not 1..{len(rows)}")
        ranked.append(RankedList(qid, product_ids, scores))
    if not ranked:
        raise ParseError(f"{path}: no ranking rows")
    return ranked


def _read_prediction_file(path: str | Path) -> tuple[Pairs, tuple[str, ...]]:
    """The pairs of a prediction file and their predictions, in file order; a pair listed twice is an
    error naming the second line."""
    rows, lines = [], []
    with Path(path).open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            if next(reader, None) != list(_PREDICTION_HEADER):
                raise ParseError(f"{path}: missing prediction header")
            for row in reader:
                if len(row) < 2 and not "".join(row).strip():  # a blank line
                    continue
                if len(row) != 3:
                    raise ParseError(f"{path}: line {reader.line_num}: expected 3 comma-separated fields")
                rows.append(row)
                lines.append(reader.line_num)
        except csv.Error as exc:  # a cell past the csv module's field size limit, say
            raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: no prediction rows")
    query_id, product_id, predictions = zip(*rows)
    pairs = Pairs(query_id, product_id)
    row = first_repeat_row(pairs.keys())
    if row >= 0:
        raise DuplicateKeyError(f"{path}: line {lines[row]}: pair {pairs.take([row]).pairs[0]} listed again")
    return pairs, predictions


def cmd_evaluate(args: argparse.Namespace) -> int:
    labeled = dataio.load_examples(args.truth, TASK_T2T3).labeled()
    if args.task == "T1":
        ranked = _read_ranking_file(args.predictions)
        truth_map, locales = ranking_truth(labeled)
        ranked = [rl for rl in ranked if rl.query_id in truth_map]
        if not ranked:
            raise ValidationError("no ranked queries overlap the labeled truth set")
        report = evaluate_ranking(ranked, truth_map, locales)
    else:
        pairs, predictions = _read_prediction_file(args.predictions)
        at = pair_rows(pairs, labeled)
        rows = labeled.subset(at >= 0)
        if len(rows) == 0:
            raise ValidationError("no predicted pairs overlap the labeled truth set")
        y_pred = [predictions[i] for i in at[at >= 0].tolist()]
        if args.task == "T2":
            y_true = [CLASS_ORDER[i].value for i in rows.label_index.tolist()]
        else:
            y_pred = [pred == "1" for pred in y_pred]
            y_true = (rows.label_index == EsciLabel.SUBSTITUTE.index).tolist()
        report = evaluate_classification(args.task, y_pred, y_true, rows.locale, rows.query_id)
    text = report.to_text()
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        Path(args.out + ".kv").write_text(report.to_kv_lines(), encoding="utf-8")
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    params = _from_options(gbdt.GbdtParams, args, _GBDT_OPTIONS)
    config = _from_options(PipelineConfig, args, _PIPELINE_OPTIONS, params=params, seed=args.seed)
    result = run_pipeline(_load_pipeline_data(args), config)
    out_dir.mkdir(parents=True, exist_ok=True)
    saved: dict[int, Path] = {}  # the tasks share one fused model per fold: write it once, copy it
    for task, output in result.outputs.items():
        (out_dir / f"report_{task}.txt").write_text(output.report.to_text(), encoding="utf-8")
        (out_dir / f"report_{task}.kv").write_text(output.report.to_kv_lines(), encoding="utf-8")
        for fold, model in enumerate(output.models):
            path = out_dir / f"model_{task}_fold{fold}.json"
            if id(model) in saved:
                shutil.copyfile(saved[id(model)], path)
            else:
                gbdt.save_model(model, path)
                saved[id(model)] = path
        if task == "T1":
            _write_ranking(out_dir / "ranking_T1.tsv", output.predictions)
        else:
            _write_predictions(out_dir / f"predictions_{task}.csv", output.eval_pairs, output.predictions)
        sys.stdout.write(output.report.to_text())
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    task = args.task or "T2"
    params = _from_options(gbdt.GbdtParams, args, _GBDT_OPTIONS)
    config = _from_options(PipelineConfig, args, _FOLD_OPTIONS, tasks=(task,), params=params, seed=args.seed)
    rows = run_ablation(_load_pipeline_data(args), config, task=task, families=args.families)
    metric_name = "mean_ndcg" if task == "T1" else "micro_f1"
    text = ablation_to_text(rows, metric_name)
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


def cmd_batch_sim(args: argparse.Namespace) -> int:
    catalog = dataio.load_catalog(args.catalog)
    examples = dataio.load_examples(args.examples, TASK_T2T3, catalog)
    batch_size = sched.DEFAULT_BATCH_SIZE if args.batch_size is None else args.batch_size
    cache = sched.build_token_cache(catalog, path=args.cache)
    lengths = cache.lengths[examples.product_code]
    # Presorting orders by length, so its batches' cells depend on the sorted lengths alone.
    unsorted, presorted = (sched.batch_cells(ordered, batch_size) for ordered in (lengths, np.sort(lengths)))
    lines = [
        f"pairs: {len(lengths)}",
        f"batch_size: {batch_size}",
        f"padded_cells_unsorted: {unsorted.padded}",
        f"padded_cells_presorted: {presorted.padded}",
        f"padding_waste_unsorted: {unsorted.waste:.6f}",
        f"padding_waste_presorted: {presorted.waste:.6f}",
        f"cells_saved_by_presort: {unsorted.padded - presorted.padded}",
    ]
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shoprank",
        description="Two-stage search relevance pipeline over per-pair class probabilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func: Callable, about: str, out: str = "output file", out_required: bool = True):
        p = sub.add_parser(name, help=about)
        p.add_argument("--config", help="key = value file, keys named like the options; flags override it")
        p.add_argument("--out", help=out, required=out_required)
        p.set_defaults(func=func, parser=p)
        return p

    p = command("synth", cmd_synth, "generate a synthetic corpus", out="output directory")
    p.add_argument("--seed", type=int, required=True, help="generator seed (required)")
    _add_field_options(p, SynthConfig, _SYNTH_OPTIONS)

    p = command("features", cmd_features, "assemble the feature matrix")
    p.add_argument("--catalog", required=True)
    p.add_argument("--examples", required=True)
    p.add_argument("--probs", required=True)
    p.add_argument("--t1", required=True, help="T1 examples file backing the membership feature")

    p = command("train", cmd_train, "fit a boosted-tree model on a feature matrix")
    p.add_argument("--features", required=True)
    p.add_argument("--examples", required=True, help="labeled examples supplying targets")
    p.add_argument("--objective", choices=(gbdt.OBJECTIVE_MULTICLASS, gbdt.OBJECTIVE_BINARY))
    _add_field_options(p, gbdt.GbdtParams, _GBDT_OPTIONS)

    p = command("rank", cmd_rank, "rank query groups by expected gain")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--examples", required=True)

    p = command("classify", cmd_classify, "emit T2 labels or T3 substitute flags")
    p.add_argument("--model", required=True,
                   help="a multiclass model; T3 also takes a binary one (p_s is column S or its p)")
    p.add_argument("--features", required=True)
    p.add_argument("--task", choices=("T2", "T3"), help="default T2")
    _add_field_options(p, PipelineConfig, _CLASSIFY_OPTIONS)

    p = command("evaluate", cmd_evaluate, "score predictions against labeled truth",
                out="also write the report here (plus .kv)", out_required=False)
    p.add_argument("--task", required=True, choices=("T1", "T2", "T3"))
    p.add_argument("--truth", required=True, help="labeled examples file")
    p.add_argument("--predictions", required=True, help="ranking or prediction file")

    pipeline = command("pipeline", cmd_pipeline, "full run: features, folds, models, outputs, reports",
                       out="output directory")
    _add_field_options(pipeline, PipelineConfig, _PIPELINE_OPTIONS)
    ablate = command("ablate", cmd_ablate, "paired runs with each feature family off",
                     out="also write the table here", out_required=False)
    ablate.add_argument("--task", choices=("T1", "T2", "T3"), help="default T2")
    ablate.add_argument("--families", type=_parse_name_list, help="subset to ablate (default all)")
    _add_field_options(ablate, PipelineConfig, _FOLD_OPTIONS)
    for p in (pipeline, ablate):
        p.add_argument("--seed", type=int, required=True, help="fold assignment seed (required)")
        for name in ("catalog", "t1", "t2t3", "probs", "splits"):
            p.add_argument(f"--{name}", required=True)
        _add_field_options(p, gbdt.GbdtParams, _GBDT_OPTIONS)

    p = command("batch-sim", cmd_batch_sim, "compare presorted vs unsorted batch padding",
                out="also write the summary here", out_required=False)
    p.add_argument("--catalog", required=True)
    p.add_argument("--examples", required=True)
    p.add_argument("--batch-size", type=int, help=f"default {sched.DEFAULT_BATCH_SIZE}")
    p.add_argument("--cache", help="also persist the token cache here")

    # A --config file may supply a required option, so main() checks them after reading it.
    for p in sub.choices.values():
        required = [action for action in p._actions if action.required]
        for action in required:
            action.required = False
        p.set_defaults(required=required)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args)
        missing = [action.option_strings[0] for action in args.required if getattr(args, action.dest) is None]
        if missing:
            parser.error(f"{args.command}: missing required option {missing[0]}")  # exits 2
        return args.func(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ShoprankError, OSError) as exc:
        print(f"error: [{args.command}] {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
