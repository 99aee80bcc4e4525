"""Evaluation: discounted cumulative gain with the ESCI label gains, micro-F1, reports."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import MissingKeyError, ValidationError
from .model import EsciLabel, ExampleSet
from .rank import RankedList


def dcg(labels_in_rank_order: Sequence[EsciLabel]) -> float:
    """Sum of gain / log2(position + 1) over 1-based positions, full list."""
    if not labels_in_rank_order:
        raise ValidationError("dcg of an empty ranking is undefined")
    return sum(
        label.gain / math.log2(i + 1) for i, label in enumerate(labels_in_rank_order, start=1)
    )


def ndcg(ranked: RankedList, truth: Mapping[str, EsciLabel]) -> float:
    """DCG over ideal DCG; a list of all-zero gains counts as perfectly ranked."""
    try:
        labels = [truth[pid] for pid in ranked.product_ids]
    except KeyError as exc:
        raise MissingKeyError(
            f"query {ranked.query_id!r}: no truth label for product {exc.args[0]!r}"
        ) from None
    ideal = dcg(sorted(labels, key=lambda lab: -lab.gain))
    return 1.0 if ideal == 0.0 else dcg(labels) / ideal


def micro_f1(predictions: Sequence, truth: Sequence) -> float:
    """Single-label micro-averaged F1, which reduces to plain accuracy."""
    if len(predictions) != len(truth):
        raise ValidationError(
            f"length mismatch: {len(predictions)} predictions vs {len(truth)} truths"
        )
    if not predictions:
        raise ValidationError("micro_f1 of empty inputs is undefined")
    correct = sum(1 for p, t in zip(predictions, truth) if p == t)
    return correct / len(predictions)


@dataclass(frozen=True)
class Report:
    """Evaluation summary: overall metric value plus per-locale breakdown."""

    task: str
    metric_name: str
    overall: float
    by_locale: tuple[tuple[str, float], ...] = ()
    n_queries: int = 0
    n_rows: int = 0
    extras: tuple[tuple[str, float], ...] = ()

    def to_text(self) -> str:
        lines = [
            f"task: {self.task}",
            f"queries: {self.n_queries}",
            f"rows: {self.n_rows}",
            f"{self.metric_name}: {self.overall:.6f}",
        ]
        for locale, value in self.by_locale:
            lines.append(f"{self.metric_name}[{locale}]: {value:.6f}")
        for key, value in self.extras:
            lines.append(f"{key}: {value:.6f}")
        return "\n".join(lines) + "\n"

    def to_kv_lines(self) -> str:
        """Machine-readable triples: metric <TAB> locale <TAB> value."""
        lines = [f"{self.metric_name}\toverall\t{self.overall:.6f}"]
        for locale, value in self.by_locale:
            lines.append(f"{self.metric_name}\t{locale}\t{value:.6f}")
        for key, value in self.extras:
            lines.append(f"{key}\toverall\t{value:.6f}")
        return "\n".join(lines) + "\n"


def ranking_truth(
    examples: ExampleSet,
) -> tuple[dict[str, dict[str, EsciLabel | None]], dict[str, str]]:
    """The truth and locale maps evaluate_ranking reads, from labeled examples."""
    truth: dict[str, dict[str, EsciLabel | None]] = {}
    for ex in examples:
        truth.setdefault(ex.query_id, {})[ex.product_id] = ex.label
    return truth, dict(zip(examples.query_id, examples.locale))


def evaluate_ranking(
    ranked: Sequence[RankedList],
    truth: Mapping[str, Mapping[str, EsciLabel]],
    locales: Mapping[str, str],
) -> Report:
    """Unweighted mean ndcg over queries, with per-locale means."""
    if not ranked:
        raise ValidationError("cannot evaluate an empty set of rankings")
    per_query: list[tuple[str, float]] = []
    for rl in ranked:
        if rl.query_id not in truth:
            raise MissingKeyError(f"no truth labels for query {rl.query_id!r}")
        per_query.append((rl.query_id, ndcg(rl, truth[rl.query_id])))
    overall = sum(v for _, v in per_query) / len(per_query)
    by_locale: dict[str, list[float]] = {}
    n_rows = sum(len(rl.product_ids) for rl in ranked)
    for qid, value in per_query:
        by_locale.setdefault(locales[qid], []).append(value)
    breakdown = tuple(
        (loc, sum(vals) / len(vals)) for loc, vals in sorted(by_locale.items())
    )
    return Report(
        task="T1",
        metric_name="mean_ndcg",
        overall=overall,
        by_locale=breakdown,
        n_queries=len(per_query),
        n_rows=n_rows,
    )


def evaluate_classification(
    task: str,
    predictions: Sequence,
    truth: Sequence,
    locales: Sequence[str],
    query_ids: Sequence[str] | None = None,
) -> Report:
    """Micro-F1 (accuracy) overall and per locale."""
    if not (len(predictions) == len(truth) == len(locales)):
        raise ValidationError("predictions, truth, and locales must align")
    if query_ids is not None and len(query_ids) != len(predictions):
        raise ValidationError("query_ids must align with predictions")
    overall = micro_f1(predictions, truth)
    by_locale: dict[str, list[tuple]] = {}
    for p, t, loc in zip(predictions, truth, locales):
        by_locale.setdefault(loc, []).append((p, t))
    breakdown = tuple(
        (loc, micro_f1([p for p, _ in pairs], [t for _, t in pairs]))
        for loc, pairs in sorted(by_locale.items())
    )
    return Report(
        task=task,
        metric_name="micro_f1",
        overall=overall,
        by_locale=breakdown,
        n_queries=len(set(query_ids)) if query_ids is not None else 0,
        n_rows=len(predictions),
    )
