"""From-scratch gradient-boosted decision trees (second-order boosting).

Two objectives: 4-class softmax and binary logistic. Each round fits one
regression tree per class (class-major order) to the Newton direction of the
log-loss: gradient g = p - y, hessian h = p(1 - p). Splits come from an exact
greedy scan over presorted feature columns maximizing

    gain = 1/2 * [GL^2/(HL+lam) + GR^2/(HR+lam) - (GL+GR)^2/(HL+HR+lam)]

with rows routed left iff value <= threshold, thresholds at midpoints of
adjacent distinct values, and leaf values -G/(H+lam) scaled by the learning
rate. A node splits only if the best gain is strictly positive; ties are
broken by lowest feature index, then lowest threshold. No row or column
subsampling, so training is fully deterministic for fixed inputs.

The implementation is vectorized level by level: feature orders are argsorted
once per training call, rows are re-bucketed per tree level with a stable
sort on node ids, and all candidate splits of one level are scored in a
handful of array passes (segmented cumulative sums plus reduceat).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DegenerateTrainingError, FormatError, SchemaError, ValidationError
from .features import FeatureMatrix
from .model import N_CLASSES

OBJECTIVE_MULTICLASS = "multiclass"
OBJECTIVE_BINARY = "binary"

_FORMAT_NAME = "shoprank-gbdt"
_FORMAT_VERSION = 2


@dataclass(frozen=True)
class GbdtParams:
    num_rounds: int = 200
    max_depth: int = 6
    min_samples_leaf: int = 20
    learning_rate: float = 0.1
    l2_reg: float = 1.0

    def __post_init__(self):
        if self.num_rounds < 1:
            raise ValidationError("num_rounds must be at least 1")
        if self.max_depth < 1:
            raise ValidationError("max_depth must be at least 1")
        if self.min_samples_leaf < 1:
            raise ValidationError("min_samples_leaf must be at least 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValidationError("learning_rate must be in (0, 1]")
        if self.l2_reg < 0.0:
            raise ValidationError("l2_reg must be nonnegative")


@dataclass(frozen=True, eq=False)
class Tree:
    """Flat node arrays; feature[i] == -1 marks node i as a leaf."""

    feature: np.ndarray  # int32
    threshold: np.ndarray  # float64
    left: np.ndarray  # int32, -1 on leaves
    right: np.ndarray  # int32, -1 on leaves
    value: np.ndarray  # float64, leaf output (already learning-rate scaled)

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.int64)
        # A root-to-leaf path visits each node at most once, so a walk that
        # is still inside after len(feature) steps can only be a cycle.
        for _ in range(len(self.feature)):
            idx = np.nonzero(self.feature[node] >= 0)[0]
            if idx.size == 0:
                return self.value[node]
            nd = node[idx]
            go_left = X[idx, self.feature[nd]] <= self.threshold[nd]
            node[idx] = np.where(go_left, self.left[nd], self.right[nd])
        raise FormatError("tree walk did not reach a leaf; the node links form a cycle")


@dataclass(frozen=True, eq=False)
class GbdtModel:
    objective: str
    n_classes: int  # 4 for multiclass, 1 for binary
    trees: tuple[Tree, ...]  # class-major within each round
    base_score: np.ndarray  # (n_classes,)
    feature_schema: tuple[str, ...]
    params: GbdtParams
    train_loss: tuple[float, ...] = ()


def _leaf_value(G: float, H: float, lam: float, lr: float) -> float:
    denom = H + lam
    if denom <= 0.0:
        return 0.0
    return -G / denom * lr


def _build_tree(
    X: np.ndarray,
    orders: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    params: GbdtParams,
) -> tuple[Tree, np.ndarray]:
    """Fit one regression tree; returns (tree, per-row leaf node id)."""
    n, d = X.shape
    lam = params.l2_reg
    msl = params.min_samples_leaf
    lr = params.learning_rate

    feature = [-1]
    threshold = [0.0]
    left = [-1]
    right = [-1]
    value = [0.0]

    node_of = np.zeros(n, dtype=np.int64)
    frontier: dict[int, tuple[float, float, int]] = {0: (float(g.sum()), float(h.sum()), n)}

    for _depth in range(params.max_depth):
        try_ids = [nid for nid, (_, _, c) in frontier.items() if c >= 2 * msl]
        for nid in frontier:
            if nid not in try_ids:
                G, H, _ = frontier[nid]
                value[nid] = _leaf_value(G, H, lam, lr)
        if not try_ids:
            frontier = {}
            break

        n_active = len(try_ids)
        dense = np.full(len(feature), -1, dtype=np.int64)
        dense[try_ids] = np.arange(n_active)
        seg_of_row = dense[node_of]
        active_mask = seg_of_row >= 0

        G_tot = np.array([frontier[nid][0] for nid in try_ids])
        H_tot = np.array([frontier[nid][1] for nid in try_ids])
        cnt_tot = np.array([frontier[nid][2] for nid in try_ids], dtype=np.int64)

        best_gain = np.zeros(n_active)
        best_feat = np.full(n_active, -1, dtype=np.int64)
        best_thr = np.zeros(n_active)
        best_GL = np.zeros(n_active)
        best_HL = np.zeros(n_active)
        best_lcnt = np.zeros(n_active, dtype=np.int64)

        for j in range(d):
            ord_j = orders[:, j]
            rows = ord_j[active_mask[ord_j]]
            segs = seg_of_row[rows]
            perm = np.argsort(segs, kind="stable")
            rows = rows[perm]
            segs = segs[perm]

            xs = X[rows, j]
            counts = np.bincount(segs, minlength=n_active)
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            P = rows.shape[0]
            cg = np.concatenate(([0.0], np.cumsum(g[rows])))
            ch = np.concatenate(([0.0], np.cumsum(h[rows])))
            pos = np.arange(P)

            seg_starts = starts[segs]
            GL = cg[1:] - cg[seg_starts]
            HL = ch[1:] - ch[seg_starts]
            left_cnt = pos - seg_starts + 1
            right_cnt = counts[segs] - left_cnt
            GR = G_tot[segs] - GL
            HR = H_tot[segs] - HL

            nxt = np.empty_like(xs)
            nxt[:-1] = xs[1:]
            nxt[-1] = xs[-1]
            valid = (left_cnt >= msl) & (right_cnt >= msl) & (xs < nxt)
            valid[starts + counts - 1] = False

            with np.errstate(divide="ignore", invalid="ignore"):
                gain = 0.5 * (
                    GL * GL / (HL + lam)
                    + GR * GR / (HR + lam)
                    - (GL + GR) ** 2 / (HL + HR + lam)
                )
            gain = np.where(valid & np.isfinite(gain), gain, -np.inf)

            seg_best = np.maximum.reduceat(gain, starts)
            cand = np.where(gain == seg_best[segs], pos, P)
            first_best = np.minimum.reduceat(cand, starts)

            ok = np.isfinite(seg_best) & (seg_best > best_gain)
            if not ok.any():
                continue
            p_best = first_best[ok]
            a = xs[p_best]
            b = xs[p_best + 1]
            mid = a + (b - a) * 0.5
            thr = np.where(mid < b, mid, a)
            best_gain[ok] = seg_best[ok]
            best_feat[ok] = j
            best_thr[ok] = thr
            best_GL[ok] = GL[p_best]
            best_HL[ok] = HL[p_best]
            best_lcnt[ok] = left_cnt[p_best]

        child_left = np.full(n_active, -1, dtype=np.int64)
        child_right = np.full(n_active, -1, dtype=np.int64)
        new_frontier: dict[int, tuple[float, float, int]] = {}
        for k, nid in enumerate(try_ids):
            if best_feat[k] < 0:
                value[nid] = _leaf_value(G_tot[k], H_tot[k], lam, lr)
                continue
            lid = len(feature)
            rid = lid + 1
            feature[nid] = int(best_feat[k])
            threshold[nid] = float(best_thr[k])
            left[nid] = lid
            right[nid] = rid
            for _ in range(2):
                feature.append(-1)
                threshold.append(0.0)
                left.append(-1)
                right.append(-1)
                value.append(0.0)
            child_left[k] = lid
            child_right[k] = rid
            new_frontier[lid] = (float(best_GL[k]), float(best_HL[k]), int(best_lcnt[k]))
            new_frontier[rid] = (
                float(G_tot[k] - best_GL[k]),
                float(H_tot[k] - best_HL[k]),
                int(cnt_tot[k] - best_lcnt[k]),
            )

        split_rows = np.nonzero(active_mask)[0]
        segs_all = seg_of_row[split_rows]
        did_split = best_feat[segs_all] >= 0
        rr = split_rows[did_split]
        if rr.size:
            sg = segs_all[did_split]
            go_left = X[rr, best_feat[sg]] <= best_thr[sg]
            node_of[rr] = np.where(go_left, child_left[sg], child_right[sg])
        frontier = new_frontier

    for nid, (G, H, _) in frontier.items():
        value[nid] = _leaf_value(G, H, lam, lr)

    tree = Tree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.float64),
    )
    return tree, node_of


def softmax(margins: np.ndarray) -> np.ndarray:
    shifted = margins - margins.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def sigmoid(margin: np.ndarray) -> np.ndarray:
    out = np.empty_like(margin, dtype=np.float64)
    pos = margin >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-margin[pos]))
    ez = np.exp(margin[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def multiclass_grad_hess(margins: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-class diagonal Newton quantities of the softmax log-loss.

    Returns (g, h), each (n, K): g = p - onehot(y), h = p * (1 - p).
    """
    p = softmax(margins)
    g = p.copy()
    g[np.arange(len(targets)), targets] -= 1.0
    h = p * (1.0 - p)
    return g, h


def binary_grad_hess(margin: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    p = sigmoid(margin)
    return p - targets, p * (1.0 - p)


def multiclass_log_loss(margins: np.ndarray, targets: np.ndarray) -> float:
    p = softmax(margins)
    picked = np.clip(p[np.arange(len(targets)), targets], 1e-15, None)
    return float(-np.mean(np.log(picked)))


def binary_log_loss(margin: np.ndarray, targets: np.ndarray) -> float:
    p = np.clip(sigmoid(margin), 1e-15, 1.0 - 1e-15)
    return float(-np.mean(targets * np.log(p) + (1.0 - targets) * np.log(1.0 - p)))


def _validate_training_inputs(
    matrix: FeatureMatrix, targets: np.ndarray, objective: str, params: GbdtParams
) -> np.ndarray:
    if objective not in (OBJECTIVE_MULTICLASS, OBJECTIVE_BINARY):
        raise ValidationError(f"unknown objective {objective!r}")
    y = np.asarray(targets)
    if y.ndim != 1 or len(y) != matrix.n_rows:
        raise ValidationError(
            f"targets shape {y.shape} does not match {matrix.n_rows} matrix rows"
        )
    y = y.astype(np.int64)
    hi = N_CLASSES if objective == OBJECTIVE_MULTICLASS else 2
    if y.min(initial=0) < 0 or y.max(initial=0) >= hi:
        raise ValidationError(f"targets must lie in 0..{hi - 1}")
    if len(np.unique(y)) < 2:
        raise DegenerateTrainingError("all targets share one class; nothing to fit")
    if matrix.n_rows < 2 * params.min_samples_leaf:
        raise ValidationError(
            f"{matrix.n_rows} rows cannot satisfy two leaves of min_samples_leaf="
            f"{params.min_samples_leaf}"
        )
    return y


def train(
    matrix: FeatureMatrix,
    targets: Sequence[int] | np.ndarray,
    objective: str,
    params: GbdtParams,
) -> GbdtModel:
    """Fit a boosted ensemble. Deterministic for fixed (matrix, targets, params)."""
    y = _validate_training_inputs(matrix, targets, objective, params)
    X = matrix.values
    n = X.shape[0]
    orders = np.argsort(X, axis=0, kind="stable")

    trees: list[Tree] = []
    losses: list[float] = []

    if objective == OBJECTIVE_MULTICLASS:
        priors = np.bincount(y, minlength=N_CLASSES) / n
        base = np.log(np.clip(priors, 1e-12, None))
        margins = np.tile(base, (n, 1))
        for _round in range(params.num_rounds):
            g, h = multiclass_grad_hess(margins, y)
            for k in range(N_CLASSES):
                tree, leaf_of = _build_tree(X, orders, g[:, k], h[:, k], params)
                trees.append(tree)
                margins[:, k] += tree.value[leaf_of]
            losses.append(multiclass_log_loss(margins, y))
        return GbdtModel(
            objective=objective,
            n_classes=N_CLASSES,
            trees=tuple(trees),
            base_score=base,
            feature_schema=matrix.columns,
            params=params,
            train_loss=tuple(losses),
        )

    pos_rate = float(y.mean())
    base = np.array([np.log(pos_rate / (1.0 - pos_rate))])
    margin = np.full(n, base[0])
    yf = y.astype(np.float64)
    for _round in range(params.num_rounds):
        g, h = binary_grad_hess(margin, yf)
        tree, leaf_of = _build_tree(X, orders, g, h, params)
        trees.append(tree)
        margin += tree.value[leaf_of]
        losses.append(binary_log_loss(margin, yf))
    return GbdtModel(
        objective=objective,
        n_classes=1,
        trees=tuple(trees),
        base_score=base,
        feature_schema=matrix.columns,
        params=params,
        train_loss=tuple(losses),
    )


def _aligned_values(model: GbdtModel, matrix: FeatureMatrix) -> np.ndarray:
    """Column values in schema order; name-based alignment, set equality required."""
    if matrix.columns == model.feature_schema:
        return matrix.values
    have = set(matrix.columns)
    want = set(model.feature_schema)
    if have != want:
        missing = sorted(want - have)
        extra = sorted(have - want)
        raise SchemaError(
            f"feature schema mismatch: missing columns {missing}, unexpected columns {extra}"
        )
    return matrix.select(model.feature_schema).values


def predict_margins(model: GbdtModel, matrix: FeatureMatrix) -> np.ndarray:
    """Raw additive scores, shape (n, n_classes)."""
    X = _aligned_values(model, matrix)
    margins = np.tile(model.base_score, (X.shape[0], 1))
    for i, tree in enumerate(model.trees):
        margins[:, i % model.n_classes] += tree.predict(X)
    return margins


def predict_proba(model: GbdtModel, matrix: FeatureMatrix) -> np.ndarray:
    """Multiclass: (n, 4) softmax probabilities. Binary: (n,) positive-class probability."""
    margins = predict_margins(model, matrix)
    if model.objective == OBJECTIVE_MULTICLASS:
        return softmax(margins)
    return sigmoid(margins[:, 0])


def save_model(model: GbdtModel, path: str | Path) -> None:
    """JSON text format; floats round-trip bit-exactly via repr."""
    payload = {
        "format": _FORMAT_NAME,
        "version": _FORMAT_VERSION,
        "objective": model.objective,
        "n_classes": model.n_classes,
        "base_score": model.base_score.tolist(),
        "feature_schema": list(model.feature_schema),
        "params": {
            "num_rounds": model.params.num_rounds,
            "max_depth": model.params.max_depth,
            "min_samples_leaf": model.params.min_samples_leaf,
            "learning_rate": model.params.learning_rate,
            "l2_reg": model.params.l2_reg,
        },
        "train_loss": list(model.train_loss),
        "trees": [
            {
                "feature": t.feature.tolist(),
                "threshold": t.threshold.tolist(),
                "left": t.left.tolist(),
                "right": t.right.tolist(),
                "value": t.value.tolist(),
            }
            for t in model.trees
        ],
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_model(path: str | Path) -> GbdtModel:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"{path}: not a model file ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != _FORMAT_NAME:
        raise FormatError(f"{path}: missing or wrong format marker")
    if payload.get("version") != _FORMAT_VERSION:
        raise FormatError(
            f"{path}: unsupported version {payload.get('version')!r}, expected {_FORMAT_VERSION}"
        )
    try:
        params = GbdtParams(**payload["params"])
        trees = tuple(
            Tree(
                feature=np.array(t["feature"], dtype=np.int32),
                threshold=np.array(t["threshold"], dtype=np.float64),
                left=np.array(t["left"], dtype=np.int32),
                right=np.array(t["right"], dtype=np.int32),
                value=np.array(t["value"], dtype=np.float64),
            )
            for t in payload["trees"]
        )
        model = GbdtModel(
            objective=payload["objective"],
            n_classes=int(payload["n_classes"]),
            trees=trees,
            base_score=np.array(payload["base_score"], dtype=np.float64),
            feature_schema=tuple(payload["feature_schema"]),
            params=params,
            train_loss=tuple(payload["train_loss"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError, ValidationError) as exc:
        raise FormatError(f"{path}: truncated or malformed model payload ({exc})") from None
    problem = _model_problem(model)
    if problem is not None:
        raise FormatError(f"{path}: {problem}")
    return model


def _model_problem(model: GbdtModel) -> str | None:
    """Why a loaded model cannot be used for prediction, or None if it can."""
    n_classes = {OBJECTIVE_MULTICLASS: N_CLASSES, OBJECTIVE_BINARY: 1}.get(model.objective)
    if n_classes is None or model.n_classes != n_classes:
        return f"objective {model.objective!r} does not fit n_classes {model.n_classes}"
    if model.base_score.shape != (n_classes,) or not np.isfinite(model.base_score).all():
        return f"base_score must hold {n_classes} finite value(s)"
    if len(model.trees) % n_classes:
        return f"{len(model.trees)} trees is not a multiple of n_classes {n_classes}"
    for i, tree in enumerate(model.trees):
        problem = _tree_problem(tree, len(model.feature_schema))
        if problem is not None:
            return f"tree {i}: {problem}"
    return None


def _tree_problem(tree: Tree, n_features: int) -> str | None:
    """Why the node arrays are not a tree over n_features columns, or None; children follow parents."""
    arrays = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
    n = tree.feature.size
    if n == 0 or any(a.shape != (n,) for a in arrays):
        return "node arrays must be flat, non-empty and of one length"
    if (tree.feature < -1).any() or (tree.feature >= n_features).any():
        return f"feature index outside -1..{n_features - 1}"
    leaf = tree.feature == -1
    if (tree.left[leaf] != -1).any() or (tree.right[leaf] != -1).any():
        return "a leaf (feature -1) has a child"
    parent = np.nonzero(~leaf)[0]
    for child in (tree.left[~leaf], tree.right[~leaf]):
        if (child <= parent).any() or (child >= n).any():
            return "a child index is not after its parent or is out of range"
    if not (np.isfinite(tree.threshold).all() and np.isfinite(tree.value).all()):
        return "non-finite threshold or value"
    return None
