"""Task outputs from probabilities: ranked lists, 4-way labels, substitute flags."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .model import GAINS, N_CLASSES, PairKey, QueryGroup


def expected_gain_rows(probs: np.ndarray) -> np.ndarray:
    """Expected ranking gain of each row of an (n, 4) probability array (weights: GAINS)."""
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != N_CLASSES:
        raise ValidationError(f"expected an (n, {N_CLASSES}) array, got shape {arr.shape}")
    return arr @ GAINS


@dataclass(frozen=True)
class RankedList:
    """Products of one query in score order, scores non-increasing."""

    query_id: str
    product_ids: tuple[str, ...]
    scores: tuple[float, ...]

    def __post_init__(self):
        if len(self.product_ids) != len(self.scores):
            raise ValidationError("product_ids and scores must align")
        for a, b in zip(self.scores, self.scores[1:]):
            if b > a:
                raise ValidationError("scores must be non-increasing in list order")


def rank_group(group: QueryGroup, scores: Sequence[float]) -> RankedList:
    """Sort members by score descending; ties fall back to ascending product_id."""
    if len(scores) != group.size:
        raise ValidationError(
            f"group {group.query_id!r}: {len(scores)} scores for {group.size} members"
        )
    for s in scores:
        if not math.isfinite(s):
            raise ValidationError(f"group {group.query_id!r}: non-finite score {s!r}")
    order = sorted(
        range(group.size), key=lambda i: (-scores[i], group.members[i].product_id)
    )
    return RankedList(
        query_id=group.query_id,
        product_ids=tuple(group.members[i].product_id for i in order),
        scores=tuple(float(scores[i]) for i in order),
    )


def rank_groups(groups: Iterable[QueryGroup], scores: Mapping[PairKey, float]) -> list[RankedList]:
    """T1 head: rank_group over each group, reading scores by (query_id, product_id)."""
    ranked = []
    for group in groups:
        pairs = [(group.query_id, m.product_id) for m in group.members]
        missing = [pair for pair in pairs if pair not in scores]
        if missing:
            raise ValidationError(f"no score (feature row) for pair {missing[0]}")
        ranked.append(rank_group(group, [float(scores[pair]) for pair in pairs]))
    return ranked


def classify_t2_rows(probs: np.ndarray) -> np.ndarray:
    """Class indices for an (n, 4) array; ties resolve to the lowest index (gain order)."""
    arr = np.asarray(probs, dtype=np.float64)
    return arr.argmax(axis=1)


def classify_t3_rows(p_substitute: np.ndarray, threshold: float) -> np.ndarray:
    """Substitute flags: probability at or above the threshold (boundary inclusive)."""
    if not 0.0 < threshold < 1.0:
        raise ValidationError(f"threshold must be in (0, 1), got {threshold!r}")
    return np.asarray(p_substitute, dtype=np.float64) >= threshold


def best_threshold(probs: Sequence[float], truth: Sequence[int]) -> tuple[float, float]:
    """Exhaustive sweep over observed probabilities maximizing accuracy.

    Returns (threshold, accuracy). Candidates are the distinct observed
    probabilities (each makes the boundary case flip); ties prefer the
    lower threshold, keeping the sweep deterministic.
    """
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(truth, dtype=np.int64)
    if p.shape != y.shape or p.size == 0:
        raise ValidationError("probs and truth must be equal-length and non-empty")
    candidates = np.unique(p)
    candidates = candidates[(candidates > 0.0) & (candidates < 1.0)]
    if candidates.size == 0:
        candidates = np.array([0.5])
    best_t, best_acc = 0.5, -1.0
    for t in candidates:
        acc = float(((p >= t).astype(np.int64) == y).mean())
        if acc > best_acc:
            best_t, best_acc = float(t), acc
    return best_t, best_acc


def ranked_lists_to_text(ranked: Iterable[RankedList]) -> str:
    """One line per (query, product): query_id, rank, product_id, score."""
    lines = []
    for rl in ranked:
        for position, (pid, score) in enumerate(zip(rl.product_ids, rl.scores), start=1):
            lines.append(f"{rl.query_id}\t{position}\t{pid}\t{score:.6f}")
    return "\n".join(lines) + "\n"
