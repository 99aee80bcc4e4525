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
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import gbdt
from .dataio import split_folds
from .errors import ConfigurationError, ShoprankError, StageError, ValidationError
from .features import FEATURE_FAMILIES, FeatureMatrix, assemble_features
from .metrics import Report, evaluate_classification, evaluate_ranking
from .model import (
    Catalog,
    EsciLabel,
    ExampleSet,
    FoldAssignment,
    PairKey,
    ProbVector,
    build_groups,
)
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
    probs: Mapping[PairKey, tuple[ProbVector, ...]]
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


def label_targets(labels: Sequence[EsciLabel | None], objective: str) -> np.ndarray:
    """Training targets: the class index for multiclass, "is Substitute" for binary.

    Unlabeled rows get -1 (multiclass) or 0 (binary) and must not be trained on.
    """
    if objective == gbdt.OBJECTIVE_BINARY:
        return np.array([1 if lab is EsciLabel.SUBSTITUTE else 0 for lab in labels], dtype=np.int64)
    return np.array([-1 if lab is None else lab.index for lab in labels], dtype=np.int64)


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


def _task_universe(
    data: PipelineData, task: str
) -> tuple[ExampleSet, frozenset[str]]:
    """Examples a task sees, and the product list backing the leakage feature."""
    t1_products = data.t1_examples.product_ids()
    examples = data.t1_examples if task == "T1" else data.t2t3_examples
    return examples, t1_products


def _build_matrix(
    examples: ExampleSet, data: PipelineData, config: PipelineConfig
) -> FeatureMatrix:
    matrix = assemble_features(examples, data.catalog, data.probs, _task_universe(data, "T1")[1])
    for family in config.disabled_families:
        matrix = matrix.drop_family(family)
    return matrix


def run_task(data: PipelineData, config: PipelineConfig, task: str) -> TaskOutput:
    examples, _ = _task_universe(data, task)
    matrix = _build_matrix(examples, data, config)

    labeled_mask = np.array([ex.label is not None for ex in examples], dtype=bool)
    eval_mask = np.array(
        [ex.query_id in data.eval_queries and ex.label is not None for ex in examples], dtype=bool
    )
    train_mask = labeled_mask & ~np.array(
        [ex.query_id in data.eval_queries for ex in examples], dtype=bool
    )
    if not train_mask.any():
        raise ConfigurationError(f"{task}: no labeled training rows outside the evaluation set")
    if not eval_mask.any():
        raise ConfigurationError(f"{task}: no labeled evaluation rows")

    train_examples = ExampleSet(ex for ex, keep in zip(examples, train_mask) if keep)
    eval_examples = ExampleSet(ex for ex, keep in zip(examples, eval_mask) if keep)
    _leakage_guard(train_examples.pairs, eval_examples.pairs)

    folds = split_folds(train_examples, config.n_folds, config.seed)
    fold_by_query = dict(folds.by_query)
    row_fold = np.array(
        [
            fold_by_query.get(ex.query_id, -1) if keep else -1
            for ex, keep in zip(examples, train_mask)
        ],
        dtype=np.int64,
    )

    objective = gbdt.OBJECTIVE_BINARY if task == "T3" else gbdt.OBJECTIVE_MULTICLASS
    targets = label_targets([ex.label for ex in examples], objective)

    models, oof = _fold_models(matrix, targets, row_fold, config.n_folds, objective, config.params)
    eval_probs = _ensemble_eval(models, matrix, eval_mask)
    eval_pairs = tuple(eval_examples.pairs)
    eval_locales = [ex.locale for ex in eval_examples]
    eval_truth = [ex.label for ex in eval_examples]

    if task == "T1":
        groups = build_groups(eval_examples)
        ranked = tuple(rank_groups(groups, dict(zip(eval_pairs, expected_gain_rows(eval_probs)))))
        truth = {
            g.query_id: {m.product_id: m.label for m in g.members} for g in groups
        }
        locales = {g.query_id: g.locale for g in groups}
        report = evaluate_ranking(ranked, truth, locales)
        return TaskOutput(report, models, folds, eval_pairs, eval_probs, ranked)

    if task == "T2":
        pred_idx = classify_t2_rows(eval_probs)
        predictions = tuple(EsciLabel.from_index(int(i)) for i in pred_idx)
        report = evaluate_classification(
            "T2", predictions, eval_truth, eval_locales, [q for q, _ in eval_pairs]
        )
        return TaskOutput(report, models, folds, eval_pairs, eval_probs, predictions)

    # T3: probability of the Substitute class from the dedicated binary model.
    p_sub = eval_probs[:, 0]
    threshold = config.t3_threshold
    if config.sweep_t3_threshold:
        oof_mask = row_fold >= 0
        threshold, _ = best_threshold(oof[oof_mask, 0], targets[oof_mask])
    predictions = tuple(classify_t3_rows(p_sub, threshold).tolist())
    truth_flags = [lab is EsciLabel.SUBSTITUTE for lab in eval_truth]
    report = evaluate_classification(
        "T3", predictions, truth_flags, eval_locales, [q for q, _ in eval_pairs]
    )
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
