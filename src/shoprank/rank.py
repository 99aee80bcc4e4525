"""Task outputs from probabilities: ranked lists, 4-way labels, substitute flags."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ValidationError
from .model import GAINS, N_CLASSES, Pairs


def expected_gain_rows(probs: np.ndarray) -> np.ndarray:
    """Expected ranking gain of each row of an (n, 4) probability array (weights: GAINS)."""
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != N_CLASSES:
        raise ValidationError(f"expected an (n, {N_CLASSES}) array, got shape {arr.shape}")
    return arr @ GAINS


def rank_order(pairs: Pairs, scores: np.ndarray) -> np.ndarray:
    """T1 head: the rows of pairs in ranked-list order; scores[i] scores row i.

    A ranked list is such an order: the lists of the queries in first-seen
    (code) order, each by score descending, tied scores by product id
    ascending in Python string order. One lexsort makes it; its last key is
    each product's rank in one sorted() of the distinct products, since a
    numpy string sort drops trailing NULs. Ranked lists travel as the pairs
    and scores taken in this order, and list_positions reads them back.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (len(pairs),):
        raise ValidationError(f"{scores.size} scores for {len(pairs)} pairs")
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        row = bad[np.argmin(pairs.query_code[bad])]  # in the first query that holds one
        query = pairs.queries[pairs.query_code[row]]
        raise ValidationError(f"query {query!r}: non-finite score {float(scores[row])!r}")
    used, product = np.unique(pairs.product_code, return_inverse=True)
    ids = list(map(pairs.products.__getitem__, used.tolist()))
    id_rank = np.empty(len(used), dtype=np.int64)
    id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return np.lexsort((id_rank[product], -scores, pairs.query_code))


def list_positions(ranked: Pairs) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each ranked list (a run of one query code) and each row's 1-based position in its list."""
    starts = np.flatnonzero(np.diff(ranked.query_code, prepend=-1))
    return starts, np.arange(len(ranked)) - np.repeat(starts, np.diff(starts, append=len(ranked))) + 1


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
