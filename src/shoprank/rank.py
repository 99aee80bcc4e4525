"""Task outputs from probabilities: ranked lists, 4-way labels, substitute flags."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .model import GAINS, N_CLASSES, ExampleSet


def expected_gain_rows(probs: np.ndarray) -> np.ndarray:
    """Expected ranking gain of each row of an (n, 4) probability array (weights: GAINS)."""
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != N_CLASSES:
        raise ValidationError(f"expected an (n, {N_CLASSES}) array, got shape {arr.shape}")
    return arr @ GAINS


@dataclass(frozen=True)
class RankedList:
    """Products of one query in score order, scores finite and non-increasing."""

    query_id: str
    product_ids: tuple[str, ...]
    scores: tuple[float, ...]

    def __post_init__(self):
        if len(self.product_ids) != len(self.scores):
            raise ValidationError("product_ids and scores must align")
        for s in self.scores:
            if not math.isfinite(s):
                raise ValidationError(f"query {self.query_id!r}: non-finite score {s!r}")
        for a, b in zip(self.scores, self.scores[1:]):
            if b > a:
                raise ValidationError("scores must be non-increasing in list order")


def rank_group(query_id: str, product_ids: Sequence[str], scores: Sequence[float]) -> RankedList:
    """Sort one query's products by score descending; ties fall back to ascending product_id."""
    if len(scores) != len(product_ids):
        raise ValidationError(
            f"group {query_id!r}: {len(scores)} scores for {len(product_ids)} members"
        )
    order = sorted(range(len(product_ids)), key=lambda i: (-scores[i], product_ids[i]))
    return RankedList(query_id, tuple(product_ids[i] for i in order), tuple(float(scores[i]) for i in order))


def rank_groups(examples: ExampleSet, scores: np.ndarray) -> list[RankedList]:
    """T1 head: rank_group over each query of examples, in first-seen order.

    scores[i] is the score of examples' row i.
    """
    product_id = examples.product_id
    ranked = []
    for query_id, rows in zip(examples.queries, examples.groups()):
        ranked.append(rank_group(query_id, [product_id[i] for i in rows.tolist()], scores[rows].tolist()))
    return ranked


def classify_t2_rows(probs: np.ndarray) -> np.ndarray:
    """Class indices for an (n, 4) array; ties resolve to the lowest index (gain order)."""
    return np.asarray(probs, dtype=np.float64).argmax(axis=1)


def classify_t3_rows(p_substitute: np.ndarray, threshold: float) -> np.ndarray:
    """Substitute flags: probability at or above the threshold (boundary inclusive)."""
    if not 0.0 < threshold < 1.0:
        raise ValidationError(f"threshold must be in (0, 1), got {threshold!r}")
    return np.asarray(p_substitute, dtype=np.float64) >= threshold


def best_threshold(probs: Sequence[float], truth: Sequence[int]) -> tuple[float, float]:
    """Threshold among the observed probabilities maximizing accuracy.

    Returns (threshold, accuracy). Candidates are the distinct observed
    probabilities strictly inside (0, 1) (each makes the boundary case flip),
    or 0.5 when there is none; ties prefer the lower threshold, keeping the
    choice deterministic. A row is predicted positive when its probability is
    at or above the threshold, so after one sort the correct count of every
    candidate is the negatives below it plus the positives from it on.
    """
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(truth, dtype=np.int64)
    if p.shape != y.shape or p.size == 0:
        raise ValidationError("probs and truth must be equal-length and non-empty")
    if np.isnan(p).any():
        raise ValidationError("probs must not contain NaN")
    order = np.argsort(p, kind="stable")
    ascending = p[order]
    candidates = ascending[np.concatenate(([True], ascending[1:] != ascending[:-1]))]
    candidates = candidates[(candidates > 0.0) & (candidates < 1.0)]
    if candidates.size == 0:
        candidates = np.array([0.5])
    negatives_below = np.concatenate(([0], np.cumsum(y[order] == 0)))
    positives_below = np.concatenate(([0], np.cumsum(y[order] == 1)))
    cut = np.searchsorted(ascending, candidates, side="left")
    correct = negatives_below[cut] + positives_below[-1] - positives_below[cut]
    best = int(np.argmax(correct))
    return float(candidates[best]), float(correct[best] / p.size)
