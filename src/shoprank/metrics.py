"""Evaluation: discounted cumulative gain with the ESCI label gains, micro-F1, reports.

Both metrics work on arrays over the evaluated pairs. Ranked lists are the
rows of a Pairs in list order (see rank.rank_order), so a list is a run of
one query code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingKeyError, ValidationError
from .model import GAINS, LOCALES, ExampleSet, Pairs, pair_rows
from .rank import list_positions

_SORTED_LOCALES = tuple(sorted(LOCALES))


def dcg(gains: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each list's sum of gain / log2(position + 1) over 1-based positions; the lists start at rows starts.

    The terms are added position by position across all lists at once, which
    is the order of a running sum down each list.
    """
    sizes = np.diff(starts, append=len(gains))
    if not (sizes > 0).all():
        raise ValidationError("dcg of an empty ranking is undefined")
    total = np.zeros(len(starts))
    for offset in range(int(sizes.max(initial=0))):
        alive = np.flatnonzero(sizes > offset)
        total[alive] += gains[starts[alive] + offset] / math.log2(offset + 2)
    return total


def ndcg(gains: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each list's DCG over its ideal DCG (its gains sorted descending); a list whose ideal DCG is 0 scores 1."""
    sizes = np.diff(starts, append=len(gains))
    ideal = dcg(gains[np.lexsort((-gains, np.repeat(np.arange(len(starts)), sizes)))], starts)
    return np.divide(dcg(gains, starts), ideal, out=np.ones(len(starts)), where=ideal != 0.0)


@dataclass(frozen=True)
class Report:
    """Evaluation summary: overall metric value plus per-locale breakdown."""

    task: str
    metric_name: str
    overall: float
    by_locale: tuple[tuple[str, float], ...] = ()
    n_queries: int = 0
    n_rows: int = 0

    def to_text(self) -> str:
        lines = [
            f"task: {self.task}",
            f"queries: {self.n_queries}",
            f"rows: {self.n_rows}",
            f"{self.metric_name}: {self.overall:.6f}",
        ]
        for locale, value in self.by_locale:
            lines.append(f"{self.metric_name}[{locale}]: {value:.6f}")
        return "\n".join(lines) + "\n"

    def to_kv_lines(self) -> str:
        """Machine-readable triples: metric <TAB> locale <TAB> value."""
        lines = [f"{self.metric_name}\toverall\t{self.overall:.6f}"]
        for locale, value in self.by_locale:
            lines.append(f"{self.metric_name}\t{locale}\t{value:.6f}")
        return "\n".join(lines) + "\n"


def _locale_codes(examples: ExampleSet, query_code: np.ndarray) -> np.ndarray:
    """Index in _SORTED_LOCALES of the locale of each query code of examples."""
    per_query = np.array([_SORTED_LOCALES.index(locale) for locale in examples.query_locales], dtype=np.int64)
    return per_query[query_code]


def evaluate_ranking(ranked: Pairs, truth: ExampleSet) -> Report:
    """Unweighted mean nDCG over the ranked lists, with per-locale means; truth labels every ranked pair.

    The means add the lists' values in list order with Python's sum.
    """
    if len(ranked) == 0:
        raise ValidationError("cannot evaluate an empty set of rankings")
    at = pair_rows(truth, ranked)
    label = np.append(truth.label_index, -1)[at]  # at -1 (absent) reads the appended -1
    if (label < 0).any():
        query, product = ranked.take([int(np.argmax(label < 0))]).pairs[0]
        if query not in truth.queries:
            raise MissingKeyError(f"no truth labels for query {query!r}")
        raise MissingKeyError(f"query {query!r}: no truth label for product {product!r}")
    starts, _ = list_positions(ranked)
    values = ndcg(GAINS[label], starts)
    locale = _locale_codes(truth, truth.query_code[at[starts]])
    per_locale = [values[locale == code].tolist() for code in range(len(_SORTED_LOCALES))]
    return Report(
        task="T1",
        metric_name="mean_ndcg",
        overall=sum(values.tolist()) / len(values),
        by_locale=tuple((name, sum(v) / len(v)) for name, v in zip(_SORTED_LOCALES, per_locale) if v),
        n_queries=len(starts),
        n_rows=len(ranked),
    )


def evaluate_classification(task: str, predictions: np.ndarray, truth: np.ndarray, rows: ExampleSet) -> Report:
    """Micro-F1 (accuracy: the share of equal entries) overall and per locale.

    predictions and truth (class indices or flags) align with rows, whose
    queries give the locales and the query count.
    """
    predictions, truth = np.asarray(predictions), np.asarray(truth)
    if not (len(predictions) == len(truth) == len(rows)):
        raise ValidationError("predictions, truth, and rows must align")
    if len(rows) == 0:
        raise ValidationError("micro_f1 of empty inputs is undefined")
    equal = predictions == truth
    locale = _locale_codes(rows, rows.query_code)
    counts = np.bincount(locale, minlength=len(_SORTED_LOCALES)).tolist()
    hits = np.bincount(locale[equal], minlength=len(_SORTED_LOCALES)).tolist()
    return Report(
        task=task,
        metric_name="micro_f1",
        overall=int(equal.sum()) / len(rows),
        by_locale=tuple((name, hit / n) for name, hit, n in zip(_SORTED_LOCALES, hits, counts) if n),
        n_queries=len(rows.queries),
        n_rows=len(rows),
    )
