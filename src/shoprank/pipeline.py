"""End-to-end orchestration: features, grouped folds, one fused model per fold, task heads.

Queries marked for evaluation are excluded from training entirely. The
remaining labeled T2T3 queries are split into k query-wise folds, and one
softmax model per fold is trained on the other folds' rows. Each training row
receives its out-of-fold prediction, and each evaluation row the average of
all fold models' predictions: the fused (E, S, C, I) probabilities, which all
three heads read. T2 takes the most probable class. T1 ranks each T1
evaluation pair by the expected gain of its T2T3 row, which must hold the
same label. T3 flags p_s at or above the threshold, which can be swept on the
out-of-fold p_s. A guard checks that no evaluation pair ever enters a
training matrix.

The folds of a pipeline, and the (run, fold) units of an ablation, go to
forked worker processes, one per usable CPU (so `taskset` limits them), and
their results are collected in run order, so the outputs are the same bytes
for any worker count. With one usable CPU, or one unit, they run in this
process. An ablation fits the full run's folds first: each family-off fit
takes over, unbuilt, the full fit's trees before its first split on a
dropped column, which are the trees it would build itself (_shared_prefix).
A process assembles the feature matrix once and drops a run's disabled
families from it; the fold draw, the matrix and the training stay in the
workers, and the calling process only averages their predictions, derives
the heads and hands each family-off unit its prefix.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from . import gbdt
from .dataio import split_folds
from .errors import ConfigurationError, ShoprankError, StageError, ValidationError, WorkerError
from .features import FEATURE_FAMILIES, FeatureMatrix, assemble_features, column_family
from .metrics import Report, evaluate_classification, evaluate_ranking
from .model import Catalog, EsciLabel, ExampleSet, FoldAssignment, Pairs, ProbTable, pair_rows
from .rank import best_threshold, classify_t2_rows, classify_t3_rows, expected_gain_rows, rank_order

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
    eval_pairs: Pairs  # T1: in ranked-list order (see rank.rank_order)
    eval_probs: np.ndarray  # fused probabilities, aligned with eval_pairs
    predictions: np.ndarray  # aligned with eval_pairs: T1 expected gains, T2 class indices, T3 flags
    threshold: float | None = None  # T3 only


@dataclass(frozen=True)
class PipelineResult:
    outputs: dict[str, TaskOutput]

    def report(self, task: str) -> Report:
        return self.outputs[task].report


def _leakage_guard(train_pairs: Pairs, eval_pairs: Pairs) -> None:
    overlap = sorted(set(eval_pairs.take(pair_rows(train_pairs, eval_pairs) >= 0).pairs))
    if overlap:
        raise ValidationError(
            f"leakage guard: {len(overlap)} evaluation pair(s) present in training input, "
            f"e.g. {overlap[:3]}"
        )


@dataclass(frozen=True)
class FoldFit:
    """One fold's model, with its predictions on the evaluation rows and, for the T3 threshold
    sweep alone, on its hold-out rows."""

    model: gbdt.GbdtModel
    folds: FoldAssignment
    eval_probs: np.ndarray  # (evaluation rows, 4)
    hold_rows: np.ndarray | None = None  # T2T3 rows of the fold, which its model never trains on
    hold_probs: np.ndarray | None = None  # (len(hold_rows), 4)


def _eval_rows(data: PipelineData, examples: ExampleSet) -> np.ndarray:
    """Mask of the labeled rows of evaluation queries."""
    in_eval = np.array([query in data.eval_queries for query in examples.queries], dtype=bool)
    return in_eval[examples.query_code] & (examples.label_index >= 0)


def _row_roles(data: PipelineData) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the T2T3 rows that evaluate and of those that may train (labeled, outside eval queries)."""
    eval_mask = _eval_rows(data, data.t2t3_examples)
    train_mask = (data.t2t3_examples.label_index >= 0) & ~eval_mask
    if not train_mask.any():
        raise ConfigurationError("no labeled T2T3 training rows outside the evaluation set")
    if not eval_mask.any():
        raise ConfigurationError("no labeled T2T3 evaluation rows")
    return eval_mask, train_mask


# The full feature matrix of one PipelineData, kept by the process that assembled it.
_assembled: tuple[PipelineData, FeatureMatrix] | None = None


def _matrix(data: PipelineData, config: PipelineConfig) -> FeatureMatrix:
    """The T2T3 feature matrix without config's disabled families; assembled once per process."""
    global _assembled
    if _assembled is None or _assembled[0] is not data:
        full = assemble_features(data.t2t3_examples, data.catalog, data.probs, data.t1_examples.product_id)
        _assembled = (data, full)
    matrix = _assembled[1]
    for family in config.disabled_families:
        matrix = matrix.drop_family(family)
    return matrix


def fit_fold(data: PipelineData, config: PipelineConfig, fold: int, prefix: Sequence[gbdt.Tree] = ()) -> FoldFit:
    """Train fold's softmax model on the other folds' rows, its first trees taken from prefix (see
    gbdt.train); predict the evaluation rows, and its own rows when the T3 threshold is swept."""
    examples = data.t2t3_examples
    eval_mask, train_mask = _row_roles(data)
    folds = split_folds(examples.subset(train_mask), config.n_folds, config.seed)
    query_fold = np.array([folds.by_query.get(q, -1) for q in examples.query_ids()], dtype=np.int64)
    row_fold = np.where(train_mask, query_fold[examples.query_code], -1)
    matrix = _matrix(data, config)
    fit_mask = (row_fold >= 0) & (row_fold != fold)
    fit = matrix.restrict_rows(fit_mask)
    _leakage_guard(fit.pairs, examples.subset(eval_mask))
    model = gbdt.train(fit, examples.label_index[fit_mask], gbdt.OBJECTIVE_MULTICLASS, config.params, prefix)
    eval_probs = gbdt.predict_proba(model, matrix.restrict_rows(eval_mask))
    if not (config.sweep_t3_threshold and "T3" in config.tasks):
        return FoldFit(model, folds, eval_probs)
    hold_mask = row_fold == fold
    hold_probs = gbdt.predict_proba(model, matrix.restrict_rows(hold_mask))
    return FoldFit(model, folds, eval_probs, np.flatnonzero(hold_mask), hold_probs)


def _task_outputs(
    data: PipelineData, config: PipelineConfig, fits: Sequence[FoldFit]
) -> Iterator[TaskOutput]:
    """Each task's head, in config.tasks order, over the fused probabilities (the
    fold models' mean on the evaluation rows)."""
    examples = data.t2t3_examples
    rows = examples.subset(_row_roles(data)[0])
    models = tuple(fit.model for fit in fits)
    folds = fits[0].folds
    eval_probs = np.stack([fit.eval_probs for fit in fits]).mean(axis=0)
    substitute = EsciLabel.SUBSTITUTE.index
    for task in config.tasks:
        if task == "T1":
            t1_eval = data.t1_examples.subset(_eval_rows(data, data.t1_examples))
            if len(t1_eval) == 0:
                raise ConfigurationError("T1: no labeled evaluation rows")
            at = pair_rows(rows, t1_eval)
            differs = np.flatnonzero(np.where(at >= 0, rows.label_index[at], -2) != t1_eval.label_index)
            if differs.size:
                i = differs[0]
                pair = t1_eval.take([i])
                (row,) = pair_rows(examples, pair)
                there = examples.label_index[row] if row >= 0 else -2
                raise ValidationError(
                    f"T1 evaluation pair {pair.pairs[0]} is {_LABELLED[t1_eval.label_index[i]]} in T1 "
                    f"but {_LABELLED[there]} in T2T3"
                )
            gains = expected_gain_rows(eval_probs[at])
            order = rank_order(t1_eval, gains)
            ranked = t1_eval.take(order)
            report = evaluate_ranking(ranked, t1_eval)
            yield TaskOutput(report, models, folds, ranked, eval_probs[at[order]], gains[order])
        elif task == "T2":
            classes = classify_t2_rows(eval_probs)
            report = evaluate_classification("T2", classes, rows.label_index, rows)
            yield TaskOutput(report, models, folds, rows, eval_probs, classes)
        else:  # T3: the fused probability of the Substitute class.
            threshold = config.t3_threshold
            if config.sweep_t3_threshold:
                hold_rows = np.concatenate([fit.hold_rows for fit in fits])
                hold_p = np.concatenate([fit.hold_probs[:, substitute] for fit in fits])
                threshold, _ = best_threshold(hold_p, examples.label_index[hold_rows] == substitute)
            flags = classify_t3_rows(eval_probs[:, substitute], threshold)
            report = evaluate_classification("T3", flags, rows.label_index == substitute, rows)
            yield TaskOutput(report, models, folds, rows, eval_probs, flags, threshold=threshold)


#: A pair's label in an error: the class index's code, unlabelled (-1) or absent (-2).
_LABELLED = {**{lab.index: f"labelled {lab.value}" for lab in EsciLabel}, -1: "unlabelled", -2: "absent"}


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The inputs of a worker's units, set once per worker process by the pool initializer.
_worker_data: PipelineData | None = None


def _set_worker_data(data: PipelineData) -> None:
    global _worker_data
    _worker_data = data


def _run_in_worker(*unit) -> FoldFit:
    # fit_fold is looked up at call time, so a replaced fit_fold reaches the workers too. unit is
    # (config, fold) or (config, fold, prefix), as _scheduled submits it.
    return fit_fold(_worker_data, *unit)


def _shared_prefix(full: gbdt.GbdtModel, config: PipelineConfig) -> tuple[tuple[gbdt.Tree, ...], int]:
    """The trees of full, a fold's model with every family, that the fold's fit without config's
    disabled families builds too, renumbered to the kept columns; and the count of kept columns.

    They are full's trees before the first one that splits on a dropped column. Up to that tree
    both fits have the same margins, so each node sees the same rows, g and h. A column's left
    sums depend only on its own sorted order and the node's rows, and drop_family keeps the
    column order, so the lowest-index tie-break still picks the kept column full picked.
    """
    dropped = np.array([column_family(c) in config.disabled_families for c in full.feature_schema] + [False])
    renumber = (np.cumsum(~dropped) - 1).astype(np.int32)
    renumber[-1] = -1  # a leaf's feature -1 indexes this last slot, and stays -1
    prefix = []
    for tree in full.trees:
        if dropped[tree.feature].any():
            break
        prefix.append(tree._replace(feature=renumber[tree.feature]))
    return tuple(prefix), int(np.count_nonzero(~dropped[:-1]))


def _scheduled(configs: Sequence[PipelineConfig], submit: Callable, result: Callable) -> Iterator[list[FoldFit]]:
    """The fold fits of each config in turn. configs[0] has every family on; the others differ from
    it only in the families they drop.

    submit(config, fold[, prefix]) starts a unit, and result(unit, fold) gives its FoldFit.
    configs[0]'s units go first. Once they are back, every other (config, fold) unit goes with
    its fold's shared prefix, longest first: by trees left to build times kept columns, ties in
    config order. So no worker idles while a long unit runs alone at the end.
    """
    full = [submit(configs[0], fold) for fold in range(configs[0].n_folds)]
    fits = [result(unit, fold) for fold, unit in enumerate(full)]
    later = []
    for i, config in enumerate(configs[1:], start=1):
        for fold, fit in enumerate(fits):
            prefix, kept = _shared_prefix(fit.model, config)
            later.append(((len(fit.model.trees) - len(prefix)) * kept, i, fold, prefix))
    later.sort(key=lambda unit: -unit[0])  # a stable sort: equal lengths keep config order
    units = {(i, fold): submit(configs[i], fold, prefix) for _, i, fold, prefix in later}
    yield fits
    for i, config in enumerate(configs[1:], start=1):
        yield [result(units[i, fold], fold) for fold in range(config.n_folds)]


def _fit_runs(data: PipelineData, configs: Sequence[PipelineConfig]) -> Iterator[list[FoldFit]]:
    """Yield the fold fits of each config in turn, from one fit_fold unit per (config, fold), in
    the order _scheduled gives.

    The units go to min(units, usable CPUs) forked workers, which inherit data
    through the fork instead of a pickle; with one worker they run here, in
    the same order. A config's fits are yielded once its folds are done, while
    later units still train. In workers the first failing unit's error is
    raised in its turn (here, when it runs); a worker that dies raises
    WorkerError naming the first fold it takes down.
    """
    global _assembled
    workers = min(sum(config.n_folds for config in configs), _usable_cpus())
    if workers <= 1:
        try:
            yield from _scheduled(configs, lambda *unit: fit_fold(data, *unit), lambda fit, _: fit)
        finally:
            _assembled = None  # the calling process keeps no matrix
        return
    # Imported here: they cost every CLI process some 20 ms, and only this path needs them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=fork, initializer=_set_worker_data, initargs=(data,)) as pool:
        futures = []

        def submit(*unit):
            futures.append(pool.submit(_run_in_worker, *unit))
            return futures[-1]

        def result(future, fold: int) -> FoldFit:
            try:
                return future.result()
            except BrokenProcessPool:
                raise WorkerError(f"the worker process fitting fold {fold} died") from None

        try:
            yield from _scheduled(configs, submit, result)
        finally:
            for future in futures:
                future.cancel()


def run_pipeline(data: PipelineData, config: PipelineConfig) -> PipelineResult:
    """One fused fit, staged as the first task, and each task's head over it."""
    try:
        (fits,) = _fit_runs(data, [config])
    except ShoprankError as exc:
        raise StageError(f"pipeline:{config.tasks[0]}", exc) from exc
    outputs = {}
    heads = _task_outputs(data, config, fits)
    for task in config.tasks:
        try:
            outputs[task] = next(heads)
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
    families = FEATURE_FAMILIES if families is None else families
    # PipelineConfig rejects an unknown family before any run starts.
    configs = [replace(config, tasks=(task,), disabled_families=off) for off in [(), *zip(families)]]
    baseline, *metrics_off = (
        next(_task_outputs(data, run, fits)).report.overall
        for run, fits in zip(configs, _fit_runs(data, configs))
    )
    return tuple(AblationRow(fam, baseline, off) for fam, off in zip(families, metrics_off))


def ablation_to_text(rows: Sequence[AblationRow], metric_name: str) -> str:
    lines = [f"family\t{metric_name}_on\t{metric_name}_off\tdelta"]
    for row in rows:
        lines.append(f"{row.family}\t{row.metric_on:.6f}\t{row.metric_off:.6f}\t{row.delta:+.6f}")
    return "\n".join(lines) + "\n"
