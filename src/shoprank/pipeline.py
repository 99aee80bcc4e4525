"""End-to-end orchestration: features, grouped folds, fold-model ensembling, metrics.

The training protocol is the same for every task: queries marked for
evaluation are excluded from training entirely, the remaining labeled
queries are split into k query-wise folds, one model is trained per fold on
the other folds' rows, each training row receives its out-of-fold
prediction, and evaluation rows receive the average of all fold models'
predictions. T1 trains on T1 rows only; T2 and T3 train on the full T2T3
set. A guard checks that no evaluation pair ever enters a training matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from . import gbdt
from .dataio import split_folds
from .errors import ConfigurationError, ShoprankError, StageError, ValidationError
from .features import FEATURE_FAMILIES, FeatureMatrix, assemble_features
from .metrics import Report, evaluate_classification, evaluate_ranking, ranking_truth
from .model import Catalog, EsciLabel, ExampleSet, FoldAssignment, PairKey, ProbTable
from .rank import best_threshold, classify_t2_rows, classify_t3_rows, expected_gain_rows, rank_groups

TASKS = ("T1", "T2", "T3")


@dataclass(frozen=True)
class PipelineConfig:
    tasks: tuple[str, ...] = TASKS
    n_folds: int = 2
    params: gbdt.GbdtParams = field(default_factory=gbdt.GbdtParams)
    seed: int = 0
    disabled_families: tuple[str, ...] = ()
    t3_threshold: float = 0.5
    sweep_t3_threshold: bool = False

    def __post_init__(self):
        for t in self.tasks:
            if t not in TASKS:
                raise ConfigurationError(f"unknown task {t!r}; expected ones of {TASKS}")
        for fam in self.disabled_families:
            if fam not in FEATURE_FAMILIES:
                raise ConfigurationError(
                    f"unknown feature family {fam!r}; expected ones of {FEATURE_FAMILIES}"
                )
        if self.n_folds < 2:
            raise ConfigurationError("n_folds must be at least 2")
        if not 0.0 < self.t3_threshold < 1.0:
            raise ConfigurationError("t3_threshold must be in (0, 1)")


@dataclass(frozen=True)
class PipelineData:
    """Inputs the pipeline consumes; eval queries never reach a training matrix."""

    catalog: Catalog
    t1_examples: ExampleSet
    t2t3_examples: ExampleSet
    probs: ProbTable
    eval_queries: frozenset[str]


@dataclass(frozen=True)
class TaskOutput:
    report: Report
    models: tuple[gbdt.GbdtModel, ...]
    folds: FoldAssignment
    eval_pairs: tuple[PairKey, ...]
    eval_probs: np.ndarray  # fused probabilities on eval rows
    predictions: tuple = ()  # task-shaped: RankedLists / labels / bools
    threshold: float | None = None  # T3 only


@dataclass(frozen=True)
class PipelineResult:
    outputs: dict[str, TaskOutput]

    def report(self, task: str) -> Report:
        return self.outputs[task].report


def _leakage_guard(train_pairs: Iterable[PairKey], eval_pairs: Iterable[PairKey]) -> None:
    overlap = set(train_pairs) & set(eval_pairs)
    if overlap:
        raise ValidationError(
            f"leakage guard: {len(overlap)} evaluation pair(s) present in training input, "
            f"e.g. {sorted(overlap)[:3]}"
        )


def label_targets(label_index: np.ndarray, objective: str) -> np.ndarray:
    """Training targets from class indices: the index for multiclass, "is Substitute" for binary.

    Unlabeled rows (index -1) keep -1 (multiclass) or get 0 (binary) and must
    not be trained on.
    """
    if objective == gbdt.OBJECTIVE_BINARY:
        return (label_index == EsciLabel.SUBSTITUTE.index).astype(np.int64)
    return label_index.astype(np.int64)


def _fold_models(
    matrix: FeatureMatrix,
    targets: np.ndarray,
    row_fold: np.ndarray,
    n_folds: int,
    objective: str,
    params: gbdt.GbdtParams,
) -> tuple[tuple[gbdt.GbdtModel, ...], np.ndarray]:
    """Train one model per fold on the complementary rows; return OOF predictions.

    row_fold == -1 marks rows outside the training universe (they get no OOF
    prediction and never train).
    """
    n = matrix.n_rows
    width = 4 if objective == gbdt.OBJECTIVE_MULTICLASS else 1
    oof = np.full((n, width), np.nan)
    models = []
    for f in range(n_folds):
        train_mask = (row_fold >= 0) & (row_fold != f)
        hold_mask = row_fold == f
        model = gbdt.train(matrix.restrict_rows(train_mask), targets[train_mask], objective, params)
        models.append(model)
        if hold_mask.any():
            pred = gbdt.predict_proba(model, matrix.restrict_rows(hold_mask))
            oof[hold_mask] = pred.reshape(hold_mask.sum(), width)
    return tuple(models), oof


def _ensemble_eval(
    models: Sequence[gbdt.GbdtModel], matrix: FeatureMatrix, eval_mask: np.ndarray
) -> np.ndarray:
    """Average fold-model probabilities on the evaluation rows."""
    sub = matrix.restrict_rows(eval_mask)
    preds = [gbdt.predict_proba(m, sub).reshape(sub.n_rows, -1) for m in models]
    return np.stack(preds).mean(axis=0)


def _build_matrix(
    examples: ExampleSet, data: PipelineData, config: PipelineConfig
) -> FeatureMatrix:
    matrix = assemble_features(examples, data.catalog, data.probs, data.t1_examples.product_id)
    for family in config.disabled_families:
        matrix = matrix.drop_family(family)
    return matrix


def run_task(data: PipelineData, config: PipelineConfig, task: str) -> TaskOutput:
    examples = data.t1_examples if task == "T1" else data.t2t3_examples
    matrix = _build_matrix(examples, data, config)

    in_eval = np.fromiter(
        map(data.eval_queries.__contains__, examples.query_id), dtype=bool, count=len(examples)
    )
    labeled = examples.label_index >= 0
    eval_mask = labeled & in_eval
    train_mask = labeled & ~in_eval
    if not train_mask.any():
        raise ConfigurationError(f"{task}: no labeled training rows outside the evaluation set")
    if not eval_mask.any():
        raise ConfigurationError(f"{task}: no labeled evaluation rows")

    train_examples = examples.subset(train_mask)
    eval_examples = examples.subset(eval_mask)
    _leakage_guard(train_examples.pairs, eval_examples.pairs)

    folds = split_folds(train_examples, config.n_folds, config.seed)
    query_fold = np.array([folds.by_query.get(q, -1) for q in examples.query_ids()], dtype=np.int64)
    row_fold = np.where(train_mask, query_fold[examples.query_code], -1)

    objective = gbdt.OBJECTIVE_BINARY if task == "T3" else gbdt.OBJECTIVE_MULTICLASS
    targets = label_targets(examples.label_index, objective)

    models, oof = _fold_models(matrix, targets, row_fold, config.n_folds, objective, config.params)
    eval_probs = _ensemble_eval(models, matrix, eval_mask)
    eval_pairs = eval_examples.pairs
    eval_truth = eval_examples.label_index
    eval_locales, eval_queries = eval_examples.locale, eval_examples.query_id

    if task == "T1":
        ranked = tuple(rank_groups(eval_examples, expected_gain_rows(eval_probs)))
        report = evaluate_ranking(ranked, *ranking_truth(eval_examples))
        return TaskOutput(report, models, folds, eval_pairs, eval_probs, ranked)

    if task == "T2":
        pred_idx = classify_t2_rows(eval_probs)
        predictions = tuple(EsciLabel.from_index(int(i)) for i in pred_idx)
        report = evaluate_classification(
            "T2", pred_idx.tolist(), eval_truth.tolist(), eval_locales, eval_queries
        )
        return TaskOutput(report, models, folds, eval_pairs, eval_probs, predictions)

    # T3: probability of the Substitute class from the dedicated binary model.
    p_sub = eval_probs[:, 0]
    threshold = config.t3_threshold
    if config.sweep_t3_threshold:
        oof_mask = row_fold >= 0
        threshold, _ = best_threshold(oof[oof_mask, 0], targets[oof_mask])
    predictions = tuple(classify_t3_rows(p_sub, threshold).tolist())
    truth_flags = (eval_truth == EsciLabel.SUBSTITUTE.index).tolist()
    report = evaluate_classification("T3", predictions, truth_flags, eval_locales, eval_queries)
    return TaskOutput(
        report, models, folds, eval_pairs, eval_probs, predictions, threshold=threshold
    )


def run_pipeline(data: PipelineData, config: PipelineConfig) -> PipelineResult:
    outputs = {}
    for task in config.tasks:
        try:
            outputs[task] = run_task(data, config, task)
        except ShoprankError as exc:
            raise StageError(f"pipeline:{task}", exc) from exc
    return PipelineResult(outputs)


@dataclass(frozen=True)
class AblationRow:
    family: str
    metric_on: float
    metric_off: float

    @property
    def delta(self) -> float:
        return self.metric_on - self.metric_off


def run_ablation(
    data: PipelineData,
    config: PipelineConfig,
    task: str = "T2",
    families: Sequence[str] | None = None,
) -> tuple[AblationRow, ...]:
    """Paired runs per feature family: full feature set vs family removed."""
    if families is None:
        families = FEATURE_FAMILIES
    for fam in families:
        if fam not in FEATURE_FAMILIES:
            raise ConfigurationError(
                f"unknown feature family {fam!r}; expected ones of {FEATURE_FAMILIES}"
            )
    baseline = run_task(data, replace(config, disabled_families=()), task).report.overall
    rows = []
    for fam in families:
        off = run_task(data, replace(config, disabled_families=(fam,)), task).report.overall
        rows.append(AblationRow(family=fam, metric_on=baseline, metric_off=off))
    return tuple(rows)


def ablation_to_text(rows: Sequence[AblationRow], metric_name: str) -> str:
    lines = [f"family\t{metric_name}_on\t{metric_name}_off\tdelta"]
    for row in rows:
        lines.append(
            f"{row.family}\t{row.metric_on:.6f}\t{row.metric_off:.6f}\t{row.delta:+.6f}"
        )
    return "\n".join(lines) + "\n"
