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

The implementation is vectorized level by level. Each column is argsorted
once per training call into (columns, rows) tables of row ids and value
codes. g and h travel as the real and imaginary parts of one complex vector:
numpy adds the two parts in separate chains, so one gather and one running
sum per column give both sums with the bits of two float sums. Each level
scores every column at once: that running sum over the rows of all
splittable nodes (grouped by node id, presorted within a node), gains only
at boundaries between distinct values, and a reduceat for the best split per
node. After the split, a stable partition of each column's row ids by child
keeps the tables grouped, so no level sorts the rows again. A level's
temporaries go to scratch buffers made once per training call. The sums add
the rows in that fixed order, which makes every tree, and every model file,
bit-for-bit reproducible; histogram binning would add in another order.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .dataio import regular_file
from .errors import DegenerateTrainingError, FormatError, SchemaError, ValidationError
from .features import FeatureMatrix
from .model import N_CLASSES, first_repeat_row, first_seen_codes

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


class Tree(NamedTuple):
    """Flat node arrays, also the model file's node record; feature[i] == -1 marks node i as a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray  # -1 on leaves
    right: np.ndarray  # -1 on leaves
    value: np.ndarray  # leaf output (already learning-rate scaled)


_NODE_DTYPES = Tree(np.int32, np.float64, np.int32, np.int32, np.float64)


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


class _Presorted:
    """A training matrix X sorted once per column, plus the tree builder's scratch buffers.

    orders[j] lists the row ids in the stable sorted order of column j, and
    codes[j] numbers the distinct values of column j in increasing order,
    in that same order; both are (d, n), codes in the narrowest unsigned
    type. buffer() and table() hand out views of flat d * n buffers that live
    for the whole training call: fresh arrays at every tree level made the
    allocator return memory to the OS and fault it back in. Takes into them
    use mode="clip", which writes straight into out (the default mode copies
    through a temporary); every index the builder makes is in range.
    """

    def __init__(self, X: np.ndarray):
        self.X = X
        orders = np.argsort(X, axis=0, kind="stable")
        in_order = np.take_along_axis(X, orders, axis=0)
        codes = np.zeros(X.shape, dtype=np.int64)
        np.cumsum(in_order[1:] > in_order[:-1], axis=0, out=codes[1:])
        self.orders = np.ascontiguousarray(orders.T)
        self.codes = np.ascontiguousarray(codes.T, dtype=np.min_scalar_type(codes.max(initial=0)))
        self._buffers: dict[tuple[str, np.dtype], np.ndarray] = {}

    def buffer(self, name: str, size: int, dtype) -> np.ndarray:
        """The first size items of a flat scratch buffer; a name and dtype always return the same memory."""
        key = (name, np.dtype(dtype))
        if key not in self._buffers:
            self._buffers[key] = np.empty(self.orders.size, dtype=dtype)
        return self._buffers[key][:size]

    def table(self, name: str, P: int, dtype) -> np.ndarray:
        """A (d, P) scratch table over buffer(name)."""
        return self.buffer(name, self.orders.shape[0] * P, dtype).reshape(-1, P)


def _left_sums(
    gh: np.ndarray, rows: np.ndarray, starts: np.ndarray, idx: np.ndarray, key: np.ndarray, presorted: _Presorted
) -> np.ndarray:
    """gh summed over each candidate's segment up to and including the candidate.

    gh packs g and h as the real and imaginary parts of one complex vector;
    numpy adds the two parts in separate chains, so the sums of both come
    from one take and one cumsum with the bits of two float sums. idx are
    the candidates' flat positions in rows and key their (column, segment)
    numbers. One running sum over the whole of each rows[j], less its value
    just before the segment: every sum is a difference of two prefix sums of
    one fixed row order, which fixes it to the last bit.
    """
    running = gh.take(rows, out=presorted.table("sums", rows.shape[1], np.complex128), mode="clip")
    np.cumsum(running, axis=1, out=running)
    before = np.zeros((rows.shape[0], starts.size), dtype=np.complex128)
    before[:, 1:] = running[:, starts[1:] - 1]
    out = running.ravel().take(idx, out=presorted.buffer("left", idx.size, np.complex128), mode="clip")
    out -= before.ravel().take(key, out=presorted.buffer("before", idx.size, np.complex128), mode="clip")
    return out


def _split_gain(GHL: np.ndarray, GHR: np.ndarray, lam: float, presorted: _Presorted) -> np.ndarray:
    """Gain of splitting into (GL, HL) and (GR, HR), packed as complex; -inf where it is not finite.

    The expression and its order are those of the module docstring, written
    into scratch buffers.
    """
    GL, HL, GR, HR = GHL.real, GHL.imag, GHR.real, GHR.imag
    gain, t, u = (presorted.buffer(name, GL.size, np.float64) for name in ("gain", "gain_t", "gain_u"))
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(np.multiply(GL, GL, out=gain), np.add(HL, lam, out=t), out=gain)
        gain += np.divide(np.multiply(GR, GR, out=t), np.add(HR, lam, out=u), out=t)
        np.square(np.add(GL, GR, out=t), out=t)
        gain -= np.divide(t, np.add(np.add(HL, HR, out=u), lam, out=u), out=t)
        gain *= 0.5
    finite = presorted.buffer("finite", gain.size, bool)
    np.copyto(gain, -np.inf, where=np.logical_not(np.isfinite(gain, out=finite), out=finite))
    return gain


def _best_splits(
    codes: np.ndarray,
    rows: np.ndarray,
    gh: np.ndarray,
    GH_tot: np.ndarray,
    counts: np.ndarray,
    lam: float,
    msl: int,
    presorted: _Presorted,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Best split of each segment: (feature, threshold, packed GL + i*HL, left count); feature -1 if none.

    rows[j] holds the rows of every segment, counts[s] consecutive positions
    each, in the presorted order of column j; codes[j] are their value codes.
    GH_tot packs each segment's G and H like gh.
    """
    d, P = rows.shape
    k = counts.size
    starts = np.cumsum(counts) - counts
    seg = np.repeat(np.arange(k), counts)
    left_cnt = np.arange(1, P + 1) - starts[seg]
    feat = np.full(k, -1, dtype=np.int64)
    thr = np.zeros(k)
    GHL_best = np.zeros(k, dtype=np.complex128)
    lcnt = np.zeros(k, dtype=np.int64)

    # A candidate is a boundary between distinct values leaving msl rows on each side.
    cand = presorted.table("cand", P, bool)
    np.less(codes[:, :-1], codes[:, 1:], out=cand[:, :-1])
    cand[:, -1] = False
    cand &= (left_cnt >= msl) & (counts[seg] - left_cnt >= msl)
    idx = np.flatnonzero(cand)
    if idx.size == 0:
        return feat, thr, GHL_best, lcnt
    # key numbers the (column, segment) of each candidate; it is non-decreasing.
    key_table = np.add((np.arange(d) * k)[:, None], seg, out=presorted.table("key_table", P, np.intp))
    key = key_table.ravel().take(idx, out=presorted.buffer("key", idx.size, np.intp), mode="clip")
    GHL = _left_sums(gh, rows, starts, idx, key, presorted)
    GHR = np.tile(GH_tot, d).take(key, out=presorted.buffer("right", idx.size, np.complex128), mode="clip")
    GHR -= GHL
    gain = _split_gain(GHL, GHR, lam, presorted)

    # The candidates of (column, segment) c are bounds[c]:bounds[c + 1].
    bounds = np.searchsorted(key, np.arange(d * k + 1))
    full = np.flatnonzero(bounds[1:] > bounds[:-1])
    best = np.full((d, k), -np.inf)
    best.ravel()[full] = np.maximum.reduceat(gain, bounds[full])
    best_col = best.argmax(axis=0)  # the lowest feature among equal gains
    ok = np.flatnonzero(best[best_col, np.arange(k)] > 0.0)
    if ok.size == 0:
        return feat, thr, GHL_best, lcnt
    # The first candidate at the winning group's maximum: the lowest threshold among equal gains.
    group = best_col[ok] * k + ok
    pick = np.array([lo + int(gain[lo:hi].argmax()) for lo, hi in zip(bounds[group], bounds[group + 1])])

    j = best_col[ok]
    p = idx[pick] - j * P
    a = presorted.X[rows[j, p], j]
    b = presorted.X[rows[j, p + 1], j]
    mid = a + (b - a) * 0.5
    feat[ok] = j
    thr[ok] = np.where(mid < b, mid, a)
    GHL_best[ok] = GHL[pick]
    lcnt[ok] = p - starts[ok] + 1
    return feat, thr, GHL_best, lcnt


def _partition(
    rows: np.ndarray, codes: np.ndarray, key_row: np.ndarray, P: int, presorted: _Presorted, buffer: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stable partition of every column's rows (and codes) by key_row[row]; keeps the first P.

    The sort runs on the narrowest unsigned key, which numpy sorts by radix
    for 1 and 2 bytes. The results go to the scratch tables numbered buffer,
    which must not be the ones rows and codes live in.
    """
    d, width = rows.shape
    keys = key_row.take(rows, out=presorted.table("keys", width, key_row.dtype), mode="clip")
    perm = np.argsort(keys, axis=1, kind="stable")[:, :P]
    perm += np.arange(d)[:, None] * width
    return (
        rows.ravel().take(perm, out=presorted.table(f"rows{buffer}", P, np.intp), mode="clip"),
        codes.ravel().take(perm, out=presorted.table(f"codes{buffer}", P, codes.dtype), mode="clip"),
    )


def _build_tree(
    presorted: _Presorted, g: np.ndarray, h: np.ndarray, params: GbdtParams
) -> tuple[Tree, np.ndarray]:
    """Fit one regression tree; returns (tree, per-row leaf node id)."""
    d, n = presorted.orders.shape
    lam = params.l2_reg
    msl = params.min_samples_leaf
    lr = params.learning_rate
    # Set part by part: g + 1j*h would turn a -0.0 in g into +0.0 and an infinite h into a NaN real part.
    gh = np.empty(n, dtype=np.complex128)
    gh.real = g
    gh.imag = h

    # One [feature, threshold, left, right, value] row per node.
    nodes = [[-1, 0.0, -1, -1, 0.0]]
    node_of = np.zeros(n, dtype=np.int64)
    # Nodes that may split, as (id, G + i*H, row count) in ascending id order;
    # rows[j] holds their rows in that order and codes[j] their column-j codes.
    frontier = [(0, complex(g.sum(), h.sum()), n)]
    rows = presorted.orders
    codes = presorted.codes

    for depth in range(params.max_depth):
        GH_tot = np.array([GH for _, GH, _ in frontier], dtype=np.complex128)
        counts = np.array([c for *_, c in frontier], dtype=np.int64)
        feat, thr, GHL, lcnt = _best_splits(codes, rows, gh, GH_tot, counts, lam, msl, presorted)
        splits = zip(feat.tolist(), thr.tolist(), GHL.tolist(), (GH_tot - GHL).tolist(), lcnt.tolist())
        starts = (np.cumsum(counts) - counts).tolist()

        # In the order of its node's split column, a row goes left iff it lies
        # within the left count (all values past it exceed the threshold). A
        # child that may split again gets a slot in the next frontier, and its
        # rows that key; any other child gets its leaf value now, and its rows
        # keep the largest key, so they sort last and are cut off.
        next_frontier: list[tuple[int, complex, int]] = []
        drop = 2 * len(frontier)
        key_row = np.full(n, drop, dtype=np.min_scalar_type(drop))
        for (nid, GH, count), (f, t, GHL_s, GHR_s, lc), start in zip(frontier, splits, starts):
            if f < 0:
                nodes[nid][4] = _leaf_value(GH.real, GH.imag, lam, lr)
                continue
            lid = len(nodes)
            nodes[nid][:4] = f, t, lid, lid + 1
            middle = start + lc
            for side, (cGH, lo, hi) in enumerate(((GHL_s, start, middle), (GHR_s, middle, start + count))):
                nodes.append([-1, 0.0, -1, -1, 0.0])
                side_rows = rows[f, lo:hi]
                node_of[side_rows] = lid + side
                if hi - lo >= 2 * msl and depth + 1 < params.max_depth:
                    key_row[side_rows] = len(next_frontier)
                    next_frontier.append((lid + side, cGH, hi - lo))
                else:
                    nodes[lid + side][4] = _leaf_value(cGH.real, cGH.imag, lam, lr)
        frontier = next_frontier
        if not frontier:
            break
        rows, codes = _partition(rows, codes, key_row, sum(c for *_, c in frontier), presorted, depth % 2)

    return Tree(*map(np.array, zip(*nodes), _NODE_DTYPES)), node_of


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
    prefix: Sequence[Tree] = (),
) -> GbdtModel:
    """Fit a boosted ensemble, one tree per margin column (4, or 1 for binary) and round.

    The first len(prefix) trees are prefix's, not built: each training row
    takes the leaf the prediction walk gives it, and the margins and losses
    advance as if the trees had been built here. So a prefix of the model
    that the same inputs give returns that model. Deterministic for fixed
    (matrix, targets, params, prefix).
    """
    y = _validate_training_inputs(matrix, targets, objective, params)
    n, d = matrix.values.shape
    if objective == OBJECTIVE_MULTICLASS:
        priors = np.bincount(y, minlength=N_CLASSES) / n
        base = np.log(np.clip(priors, 1e-12, None))
        grad_hess, log_loss = multiclass_grad_hess, multiclass_log_loss
    else:
        pos_rate = float(y.mean())
        base = np.array([np.log(pos_rate / (1.0 - pos_rate))])
        y = y.astype(np.float64)[:, None]  # the binary functions act elementwise on (n, 1) margins
        grad_hess, log_loss = binary_grad_hess, binary_log_loss
    n_trees = params.num_rounds * len(base)
    if len(prefix) > n_trees:
        raise ValidationError(f"a prefix of {len(prefix)} trees is longer than the {n_trees} to fit")
    for i, tree in enumerate(prefix):
        problem = _tree_problem(tree, d)
        if problem is not None:
            raise ValidationError(f"prefix tree {i}: {problem}")
    X, row_start = np.ascontiguousarray(matrix.values), np.arange(n) * d
    presorted = _Presorted(X) if len(prefix) < n_trees else None
    margins = np.tile(base, (n, 1))
    trees, losses = list(prefix), []
    for i in range(n_trees):
        k = i % len(base)
        if k == 0:
            g, h = grad_hess(margins, y)
        if i < len(prefix):
            leaf_of = _walk(prefix[i], X, row_start)
        else:
            tree, leaf_of = _build_tree(presorted, g[:, k], h[:, k], params)
            trees.append(tree)
        margins[:, k] += trees[i].value[leaf_of]
        if k == len(base) - 1:
            losses.append(log_loss(margins, y))
    return GbdtModel(objective=objective, n_classes=len(base), trees=tuple(trees), base_score=base,
                     feature_schema=matrix.columns, params=params, train_loss=tuple(losses))


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


def _walk(tree: Tree, X: np.ndarray, row_start: np.ndarray) -> np.ndarray | None:
    """The leaf each row of the C-contiguous X reaches in tree, row_start[r] being row r's flat
    offset; None if the walk is still inside after len(tree.feature) steps.

    All rows walk one level per step until every row is at a leaf. A row
    moves to max(node, child): a leaf's children are -1, so rows at a leaf
    stay put, and its feature -1 reads a cell that is ignored. Children
    follow their parents, so a walk that does not end in that many steps can
    only be a cycle.
    """
    node = np.zeros(len(row_start), dtype=np.intp)
    for _ in range(len(tree.feature)):
        split_on = tree.feature[node]
        if (split_on < 0).all():
            return node
        go_left = X.take(row_start + split_on) <= tree.threshold[node]
        node = np.maximum(node, np.where(go_left, tree.left[node], tree.right[node]))
    return None


def predict_margins(model: GbdtModel, matrix: FeatureMatrix) -> np.ndarray:
    """Raw additive scores, shape (n, n_classes); each tree's rows take the leaf _walk gives them."""
    X = np.ascontiguousarray(_aligned_values(model, matrix))
    n, d = X.shape
    row_start = np.arange(n) * d
    margins = np.tile(model.base_score, (n, 1))
    for i, tree in enumerate(model.trees):
        node = _walk(tree, X, row_start)
        if node is None:
            raise FormatError(f"tree {i}: the walk did not reach a leaf; the node links form a cycle")
        margins[:, i % model.n_classes] += tree.value[node]
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
        "params": asdict(model.params),
        "train_loss": list(model.train_loss),
        "trees": [{name: a.tolist() for name, a in tree._asdict().items()} for tree in model.trees],
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_model(path: str | Path) -> GbdtModel:
    try:
        payload = json.loads(regular_file(path).read_text(encoding="utf-8"))
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
            Tree._make(_numbers(t[name], dtype) for name, dtype in _NODE_DTYPES._asdict().items())
            for t in payload["trees"]
        )
        if not isinstance(payload["feature_schema"], list):
            raise TypeError("feature_schema must be a list")
        model = GbdtModel(
            objective=payload["objective"],
            n_classes=payload["n_classes"],
            trees=trees,
            base_score=_numbers(payload["base_score"], np.float64),
            feature_schema=tuple(payload["feature_schema"]),
            params=params,
            train_loss=tuple(_numbers(payload["train_loss"], np.float64).tolist()),
        )
    except (KeyError, TypeError, ValueError, OverflowError, ValidationError) as exc:
        raise FormatError(f"{path}: truncated or malformed model payload ({exc})") from None
    problem = _model_problem(model)
    if problem is not None:
        raise FormatError(f"{path}: {problem}")
    return model


def _numbers(values, dtype) -> np.ndarray:
    """A flat JSON number list as dtype; strings, bools, nesting and integer fractions are a TypeError."""
    integral = np.issubdtype(dtype, np.integer)
    array = np.array(values)
    if array.ndim != 1 or array.dtype.kind not in ("i" if integral else "if"):
        raise TypeError(f"expected a flat list of {'integers' if integral else 'numbers'}")
    return np.array(values, dtype=dtype)


def _model_problem(model: GbdtModel) -> str | None:
    """Why a loaded model cannot be used for prediction, or None if it can."""
    if not isinstance(model.objective, str) or not all(isinstance(c, str) for c in model.feature_schema):
        return "objective and feature_schema entries must be strings"
    repeat = first_repeat_row(first_seen_codes(model.feature_schema)[0])
    if repeat >= 0:
        return f"feature_schema lists {model.feature_schema[repeat]!r} twice"
    if type(model.n_classes) is not int:
        return f"n_classes must be an integer, got {model.n_classes!r}"
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
    n = tree.feature.size
    if n == 0 or any(a.shape != (n,) for a in tree):
        return "node arrays must be non-empty and of one length"
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
