"""Boosted-tree trainer: brute-force split oracle, gradient checks, invariants.

The oracle below re-implements the split search naively (enumerate every
feature and every adjacent distinct-value boundary) so the vectorized
training path has an independent reference. A second reference, the
per-column builder that sorts the rows by node at every level, pins the
production builder bit for bit: same tree arrays, dtypes and leaf rows.
"""

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shoprank import gbdt
from shoprank.errors import DegenerateTrainingError, FormatError, SchemaError, ValidationError
from shoprank.features import FeatureMatrix
from shoprank.gbdt import (
    GbdtModel,
    GbdtParams,
    OBJECTIVE_BINARY,
    OBJECTIVE_MULTICLASS,
    binary_grad_hess,
    load_model,
    multiclass_grad_hess,
    predict_proba,
    save_model,
    softmax,
    train,
)
from shoprank.model import Pairs

from helpers import coded


def mat(X, prefix="f"):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    cols = tuple(f"{prefix}{j}" for j in range(X.shape[1]))
    pairs = Pairs(("q",) * X.shape[0], tuple(f"p{i}" for i in range(X.shape[0])))
    return FeatureMatrix(cols, X, pairs)


# ---------------------------------------------------------------------------
# Brute-force stump oracle


def split_stats(X, g, h, lam, lr, feature, threshold):
    """Gain and leaf values of one explicit split, summed independently."""
    left = X[:, feature] <= threshold
    G, H = g.sum(), h.sum()
    GL, HL = g[left].sum(), h[left].sum()
    GR, HR = G - GL, H - HL
    gain = 0.5 * (GL**2 / (HL + lam) + GR**2 / (HR + lam) - G**2 / (H + lam))
    return gain, -GL / (HL + lam) * lr, -GR / (HR + lam) * lr


def stump_oracle(X, g, h, lam, msl, lr):
    """Exhaustive best-split search with the production tie rules.

    Returns (feature, threshold, gain, left_value, right_value); feature is
    None when no strictly positive gain exists, with the root leaf value in
    the left slot.
    """
    n, d = X.shape
    G, H = g.sum(), h.sum()
    best = None  # (gain, feature, threshold)
    for j in range(d):
        values = np.unique(X[:, j])
        for a, b in zip(values[:-1], values[1:]):
            mid = a + (b - a) * 0.5
            thr = mid if mid < b else a
            left = X[:, j] <= thr
            nl = int(left.sum())
            if nl < msl or n - nl < msl:
                continue
            gain, _, _ = split_stats(X, g, h, lam, lr, j, thr)
            if gain <= 0:
                continue
            if best is None or gain > best[0]:
                best = (gain, j, thr)
    if best is None:
        return None, None, 0.0, -G / (H + lam) * lr, None
    gain, j, thr = best
    _, lv, rv = split_stats(X, g, h, lam, lr, j, thr)
    return j, thr, gain, lv, rv


def assert_stump_matches_oracle(tree, X, g, h, lam, msl, lr):
    """The trained stump must realize the brute-force optimum within 1e-9.

    Exact gain ties are broken by summation order, so a trained split that
    differs from the oracle's pick is accepted only when its independently
    recomputed gain ties the oracle's best within 1e-9; its leaf values must
    always match a from-scratch recomputation for the chosen split.
    """
    feat_o, thr_o, gain_o, lv_o, rv_o = stump_oracle(X, g, h, lam, msl, lr)
    if tree.feature[0] == -1:
        assert feat_o is None or gain_o <= 1e-9
        assert tree.value[0] == pytest.approx(lv_o if feat_o is None else -g.sum() / (h.sum() + lam) * lr, abs=1e-9)
        return
    feat_t = int(tree.feature[0])
    thr_t = float(tree.threshold[0])
    gain_t, lv_t, rv_t = split_stats(X, g, h, lam, lr, feat_t, thr_t)
    if feat_o is not None and feat_t == feat_o and thr_t == pytest.approx(thr_o, abs=1e-9):
        lv_t, rv_t = lv_o, rv_o
    else:
        best = gain_o if feat_o is not None else 0.0
        assert gain_t == pytest.approx(best, abs=1e-9), (
            f"trained split f{feat_t}<={thr_t} gain {gain_t} vs oracle {best}"
        )
    assert tree.value[tree.left[0]] == pytest.approx(lv_t, abs=1e-9)
    assert tree.value[tree.right[0]] == pytest.approx(rv_t, abs=1e-9)


def _random_instance(rng):
    n = int(rng.integers(4, 65))
    d = int(rng.integers(1, 5))
    # coarse value grid forces ties and equal-value runs
    grid = np.sort(rng.normal(size=8))
    X = grid[rng.integers(0, 8, size=(n, d))]
    y = rng.integers(0, 2, size=n)
    if len(np.unique(y)) < 2:
        y[0], y[1] = 0, 1
    msl = int(rng.choice([1, 1, 2, min(5, n // 2)]))
    return X, y, msl


def test_stump_matches_bruteforce_binary():
    rng = np.random.default_rng(42)
    for _ in range(50):
        X, y, msl = _random_instance(rng)
        params = GbdtParams(num_rounds=1, max_depth=1, min_samples_leaf=msl)
        model = train(mat(X), y, OBJECTIVE_BINARY, params)

        pos = y.mean()
        p0 = 1.0 / (1.0 + math.exp(-math.log(pos / (1 - pos))))
        g = np.full(len(y), p0) - y
        h = np.full(len(y), p0 * (1 - p0))
        assert_stump_matches_oracle(
            model.trees[0], X, g, h, params.l2_reg, msl, params.learning_rate
        )


def test_stump_matches_bruteforce_multiclass():
    rng = np.random.default_rng(7)
    for _ in range(25):
        X, _, msl = _random_instance(rng)
        n = X.shape[0]
        y = rng.integers(0, 4, size=n)
        while len(np.unique(y)) < 2:
            y = rng.integers(0, 4, size=n)
        params = GbdtParams(num_rounds=1, max_depth=1, min_samples_leaf=msl)
        model = train(mat(X), y, OBJECTIVE_MULTICLASS, params)

        priors = np.bincount(y, minlength=4) / n
        base = np.log(np.clip(priors, 1e-12, None))
        margins = np.tile(base, (n, 1))
        g, h = multiclass_grad_hess(margins, y)
        for k in range(4):
            assert_stump_matches_oracle(
                model.trees[k], X, g[:, k], h[:, k], params.l2_reg, msl, params.learning_rate
            )


def test_stump_on_binary_indicator():
    # 1-D x in {0,1}, y = x: the only boundary is between 0 and 1.
    X = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    y = X.astype(int)
    model = train(mat(X), y, OBJECTIVE_BINARY, GbdtParams(num_rounds=1, max_depth=1, min_samples_leaf=1))
    tree = model.trees[0]
    assert tree.feature[0] == 0
    assert tree.threshold[0] == pytest.approx(0.5)
    assert tree.value[tree.left[0]] < 0 < tree.value[tree.right[0]]
    p = predict_proba(model, mat(np.array([1.0])))
    assert p[0] > 0.5


# ---------------------------------------------------------------------------
# Gradient and hessian finite-difference checks


def _softmax_row_loss(margin, target):
    shifted = margin - margin.max()
    return -(shifted[target] - math.log(np.exp(shifted).sum()))


def test_multiclass_grad_hess_match_finite_differences():
    rng = np.random.default_rng(42)
    eps_g = 1e-4
    eps_h = 1e-3  # second difference needs a wider step to avoid cancellation
    for _ in range(20):
        margin = rng.normal(size=4)
        target = int(rng.integers(0, 4))
        g, h = multiclass_grad_hess(margin[None, :], np.array([target]))
        for k in range(4):
            def shifted(delta):
                m = margin.copy()
                m[k] += delta
                return _softmax_row_loss(m, target)

            fd_g = (shifted(eps_g) - shifted(-eps_g)) / (2 * eps_g)
            fd_h = (shifted(eps_h) - 2 * shifted(0.0) + shifted(-eps_h)) / eps_h**2
            assert abs(g[0, k] - fd_g) <= 1e-5 * max(abs(fd_g), 1e-3)
            assert abs(h[0, k] - fd_h) <= 1e-5 * max(abs(fd_h), 1e-3)


def test_binary_grad_hess_match_finite_differences():
    rng = np.random.default_rng(3)
    eps_g = 1e-4
    eps_h = 1e-3

    def loss(m, t):
        p = 1.0 / (1.0 + math.exp(-m))
        return -(t * math.log(p) + (1 - t) * math.log(1 - p))

    for _ in range(20):
        m = float(rng.normal())
        t = float(rng.integers(0, 2))
        g, h = binary_grad_hess(np.array([m]), np.array([t]))
        fd_g = (loss(m + eps_g, t) - loss(m - eps_g, t)) / (2 * eps_g)
        fd_h = (loss(m + eps_h, t) - 2 * loss(m, t) + loss(m - eps_h, t)) / eps_h**2
        assert abs(g[0] - fd_g) <= 1e-5 * max(abs(fd_g), 1e-3)
        assert abs(h[0] - fd_h) <= 1e-5 * max(abs(fd_h), 1e-3)


# ---------------------------------------------------------------------------
# Training behaviour


def _separable_multiclass(rng, n=400):
    """Four blobs on a 2-D grid, plus one noise column."""
    y = rng.integers(0, 4, size=n)
    X = np.column_stack(
        [
            (y % 2) + rng.normal(scale=0.15, size=n),
            (y // 2) + rng.normal(scale=0.15, size=n),
            rng.normal(size=n),
        ]
    )
    return X, y


def test_training_loss_nonincreasing_200_rounds():
    rng = np.random.default_rng(42)
    X, y = _separable_multiclass(rng, n=300)
    params = GbdtParams(num_rounds=200, max_depth=3, min_samples_leaf=5)
    model = train(mat(X), y, OBJECTIVE_MULTICLASS, params)
    losses = np.array(model.train_loss)
    assert len(losses) == 200
    assert np.all(np.diff(losses) <= 1e-10)


def test_training_accuracy_on_separable_data():
    rng = np.random.default_rng(0)
    X, y = _separable_multiclass(rng, n=400)
    model = train(mat(X), y, OBJECTIVE_MULTICLASS, GbdtParams(num_rounds=50, max_depth=3, min_samples_leaf=5))
    pred = predict_proba(model, mat(X)).argmax(axis=1)
    assert (pred == y).mean() >= 0.99


def test_degenerate_single_class():
    X = np.arange(10.0)
    with pytest.raises(DegenerateTrainingError):
        train(mat(X), np.zeros(10, dtype=int), OBJECTIVE_MULTICLASS, GbdtParams(min_samples_leaf=1))


def test_too_few_rows_for_leaves():
    X = np.arange(6.0)
    y = np.array([0, 1, 0, 1, 0, 1])
    with pytest.raises(ValidationError):
        train(mat(X), y, OBJECTIVE_BINARY, GbdtParams(min_samples_leaf=20))


def test_target_validation():
    X = np.arange(8.0)
    with pytest.raises(ValidationError):
        train(mat(X), np.array([0, 1, 2, 3, 0, 1, 2, 9]), OBJECTIVE_MULTICLASS, GbdtParams(min_samples_leaf=1))
    with pytest.raises(ValidationError):
        train(mat(X), np.array([0, 1, 0, 1]), OBJECTIVE_BINARY, GbdtParams(min_samples_leaf=1))


def test_params_validation():
    with pytest.raises(ValidationError):
        GbdtParams(num_rounds=0)
    with pytest.raises(ValidationError):
        GbdtParams(learning_rate=0.0)
    with pytest.raises(ValidationError):
        GbdtParams(l2_reg=-0.1)


# ---------------------------------------------------------------------------
# Bit-identical builder: the level-wise partitioning builder against the
# builder that re-sorts every column's rows by node id at every level


def sorting_build_tree(X, orders, g, h, params):
    """Reference builder; orders is (n, d), argsorted per column."""
    n, d = X.shape
    lam = params.l2_reg
    msl = params.min_samples_leaf
    lr = params.learning_rate
    _leaf_value = gbdt._leaf_value

    feature = [-1]
    threshold = [0.0]
    left = [-1]
    right = [-1]
    value = [0.0]

    node_of = np.zeros(n, dtype=np.int64)
    frontier = {0: (float(g.sum()), float(h.sum()), n)}

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
        new_frontier = {}
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

    tree = gbdt.Tree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.float64),
    )
    return tree, node_of


def assert_same_build(presorted, g, h, params, build_tree=gbdt._build_tree):
    """Both builders on one presorted matrix: identical node arrays (bytes and dtype) and leaf rows.

    Returns the production result.
    """
    X = presorted.X
    np.testing.assert_array_equal(presorted.orders.T, np.argsort(X, axis=0, kind="stable"))
    tree, leaf_of = build_tree(presorted, g, h, params)
    ref_tree, ref_leaf_of = sorting_build_tree(X, presorted.orders.T, g, h, params)
    for name in ("feature", "threshold", "left", "right", "value"):
        got, want = getattr(tree, name), getattr(ref_tree, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert leaf_of.dtype == ref_leaf_of.dtype
    np.testing.assert_array_equal(leaf_of, ref_leaf_of)
    return tree, leaf_of


@pytest.fixture
def checked_builds(monkeypatch):
    """Route every tree that train builds through assert_same_build; yields the trees.

    Each training call's trees share one presorted matrix and its scratch tables.
    """
    trees = []
    build_tree = gbdt._build_tree

    def build(presorted, g, h, params):
        tree, leaf_of = assert_same_build(presorted, g, h, params, build_tree)
        trees.append(tree)
        return tree, leaf_of

    monkeypatch.setattr(gbdt, "_build_tree", build)
    return trees


def _mixed_columns(rng, n):
    """Continuous, duplicated, binary, constant and group-level (few distinct) columns."""
    cont = rng.normal(size=n)
    return np.column_stack(
        [
            cont,
            np.round(cont, 1),  # runs of equal values
            (rng.random(n) < 0.3).astype(float),  # binary
            np.full(n, 2.5),  # constant: never a candidate
            np.repeat(rng.normal(size=n // 8 + 1), 8)[:n],  # one value per group of 8 rows
            rng.integers(0, 3, size=n).astype(float),
        ]
    )


@pytest.mark.parametrize("objective", [OBJECTIVE_MULTICLASS, OBJECTIVE_BINARY])
@pytest.mark.parametrize(
    "depth, min_leaf", [(1, 1), (3, 5), (6, 20), (6, 90)], ids=["stump", "shallow", "default", "unsplittable"]
)
def test_builder_matches_sorting_builder(checked_builds, objective, depth, min_leaf):
    rng = np.random.default_rng(depth * 100 + min_leaf)
    n = 400
    X = _mixed_columns(rng, n)
    y = rng.integers(0, 4 if objective == OBJECTIVE_MULTICLASS else 2, size=n)
    y[X[:, 2] > 0] = 1  # some signal in the binary column
    train(mat(X), y, objective, GbdtParams(num_rounds=3, max_depth=depth, min_samples_leaf=min_leaf))
    assert len(checked_builds) == (12 if objective == OBJECTIVE_MULTICLASS else 3)
    assert any(t.feature[0] >= 0 for t in checked_builds)
    if min_leaf == 90:
        # 400 rows and min_samples_leaf 90: some children hold fewer than 180 rows and cannot split.
        assert all(len(t.feature) < 2 ** (depth + 1) - 1 for t in checked_builds)


def test_builder_matches_on_a_deep_tree_with_wide_keys():
    """More than 255 splittable nodes on one level: the partition key needs two bytes."""
    rng = np.random.default_rng(5)
    x = rng.permutation(1024)
    # Bit b of x moves g by 3**b, so every node splits at the middle of its values.
    bits = (x[:, None] >> np.arange(10)) & 1
    g = ((2 * bits - 1) * 3.0 ** np.arange(10)).sum(axis=1)
    h = np.ones(x.size)
    X = np.column_stack([x.astype(float), rng.normal(size=x.size)])
    params = GbdtParams(max_depth=10, min_samples_leaf=1, l2_reg=0.0)
    tree, _ = assert_same_build(gbdt._Presorted(X), g, h, params)
    depth = node_depths(tree)
    assert ((depth == 8) & (tree.feature >= 0)).sum() == 256


def node_depths(tree):
    """Each node's distance from the root; children follow their parents."""
    depth = np.zeros(len(tree.feature), dtype=np.int64)
    for i in np.flatnonzero(tree.feature >= 0):
        depth[[tree.left[i], tree.right[i]]] = depth[i] + 1
    return depth


def test_builder_handles_unsplittable_root():
    presorted = gbdt._Presorted(np.arange(6.0)[:, None])
    g = np.array([0.5, -0.5, 0.25, -0.25, 0.1, -0.1])
    h = np.full(6, 0.25)
    for params in (GbdtParams(min_samples_leaf=4), GbdtParams(min_samples_leaf=1, max_depth=1)):
        assert_same_build(presorted, g, h, params)
    # Zero gradients give every split a gain of exactly 0, and only gain > 0 splits.
    tree, _ = assert_same_build(presorted, np.zeros(6), h, GbdtParams(min_samples_leaf=1))
    assert len(tree.feature) == 1
    tree, _ = assert_same_build(gbdt._Presorted(np.zeros((6, 2))), g, h, GbdtParams(min_samples_leaf=1))
    assert len(tree.feature) == 1


def test_builder_keeps_the_sign_of_a_zero_gradient_sum():
    """Every row of the left child has g = -0.0, so its G is -0.0 and its leaf value +0.0.

    The builder packs g and h into one complex vector; packing them as
    g + 1j*h would add +0.0 to each -0.0 and give that leaf -0.0.
    """
    n = 40
    X = np.arange(n, dtype=float)[:, None]
    g = np.where(np.arange(n) < n // 2, -0.0, 1.0)
    h = np.where(np.arange(n) % 2 == 0, 0.0, 0.25)  # zero-hessian rows on both sides
    tree, leaf_of = assert_same_build(gbdt._Presorted(X), g, h, GbdtParams(max_depth=1, min_samples_leaf=1))
    assert tree.feature[0] == 0 and tree.threshold[0] == 19.5
    zero_side = tree.value[leaf_of[0]]
    assert zero_side == 0.0 and not np.signbit(zero_side)


def test_left_sums_of_packed_g_and_h_match_two_float_sums():
    """The real and imaginary parts of one complex running sum carry the bits of two float64 ones."""
    rng = np.random.default_rng(3)
    n, d = 500, 4
    presorted = gbdt._Presorted(rng.normal(size=(n, d)))
    g = rng.normal(size=n) * rng.integers(0, 2, size=n)  # zero rows, some of them -0.0
    h = rng.random(n) * 1e3 ** rng.integers(-3, 4, size=n)  # spread exponents, so rounding shows
    gh = np.empty(n, dtype=np.complex128)
    gh.real = g
    gh.imag = h
    rows = presorted.orders
    counts = np.array([120, 200, 180])
    starts = np.cumsum(counts) - counts
    idx = np.sort(rng.choice(d * n, size=300, replace=False))
    key = idx // n * counts.size + np.searchsorted(starts, idx % n, side="right") - 1
    sums = gbdt._left_sums(gh, rows, starts, idx, key, presorted)
    for part, v in ((sums.real, g), (sums.imag, h)):
        running = np.cumsum(v[rows], axis=1)
        before = np.zeros((d, counts.size))
        before[:, 1:] = running[:, starts[1:] - 1]
        want = running.ravel()[idx] - before.ravel()[key]
        np.testing.assert_array_equal(np.ascontiguousarray(part).view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("lam", [0.0, 1.0, 3.5])
def test_split_gain_is_the_docstring_expression_bit_for_bit(lam):
    """The in-place gain keeps the expression's operations and their order; non-finite gains are -inf."""
    rng = np.random.default_rng(11)
    n = 2000
    GL, GR = rng.normal(size=(2, n)) * 10.0 ** rng.integers(-8, 9, size=(2, n))
    HL, HR = rng.random((2, n)) * 10.0 ** rng.integers(-8, 9, size=(2, n)) * rng.integers(0, 4, size=(2, n))
    GHL, GHR = np.empty(n, dtype=np.complex128), np.empty(n, dtype=np.complex128)
    GHL.real, GHL.imag, GHR.real, GHR.imag = GL, HL, GR, HR
    got = gbdt._split_gain(GHL, GHR, lam, gbdt._Presorted(np.zeros((n, 1))))
    with np.errstate(divide="ignore", invalid="ignore"):
        want = 0.5 * (GL * GL / (HL + lam) + GR * GR / (HR + lam) - (GL + GR) ** 2 / (HL + HR + lam))
    want[~np.isfinite(want)] = -np.inf
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 60),
    d=st.integers(1, 4),
    levels=st.integers(1, 8),
    depth=st.integers(1, 5),
    min_leaf=st.integers(1, 6),
    lam=st.sampled_from([0.0, 1.0, 3.5]),
)
def test_builder_matches_on_random_small_matrices(seed, n, d, levels, depth, min_leaf, lam):
    rng = np.random.default_rng(seed)
    X = np.sort(rng.normal(size=levels))[rng.integers(0, levels, size=(n, d))]
    # Rows with g = h = 0 move no sum, so thresholds on either side of them tie in gain.
    weight = rng.integers(0, 2, size=n)
    g = rng.normal(size=n) * weight
    h = rng.random(n) * weight
    assert_same_build(gbdt._Presorted(X), g, h, GbdtParams(max_depth=depth, min_samples_leaf=min_leaf, l2_reg=lam))


# ---------------------------------------------------------------------------
# Prediction contracts


def test_zero_round_model_returns_priors():
    priors = np.array([0.5, 0.25, 0.125, 0.125])
    model = GbdtModel(
        objective=OBJECTIVE_MULTICLASS,
        n_classes=4,
        trees=(),
        base_score=np.log(priors),
        feature_schema=("f0",),
        params=GbdtParams(),
    )
    p = predict_proba(model, mat(np.zeros(3)))
    np.testing.assert_allclose(p, np.tile(priors, (3, 1)), atol=1e-12)


def test_multiclass_probabilities_sum_to_one():
    rng = np.random.default_rng(5)
    X, y = _separable_multiclass(rng, n=200)
    model = train(mat(X), y, OBJECTIVE_MULTICLASS, GbdtParams(num_rounds=10, max_depth=3, min_samples_leaf=5))
    p = predict_proba(model, mat(X))
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-6)
    assert (p >= 0).all()


def test_schema_mismatch_lists_columns():
    X = np.arange(8.0)
    y = np.array([0, 1] * 4)
    model = train(mat(X), y, OBJECTIVE_BINARY, GbdtParams(num_rounds=1, max_depth=1, min_samples_leaf=1))
    other = FeatureMatrix(("g0",), X[:, None], Pairs(("q",) * 8, tuple(f"p{i}" for i in range(8))))
    with pytest.raises(SchemaError, match="f0"):
        predict_proba(model, other)


def test_column_permutation_equivariance():
    rng = np.random.default_rng(9)
    X, y = _separable_multiclass(rng, n=150)
    matrix = mat(X)
    model = train(matrix, y, OBJECTIVE_MULTICLASS, GbdtParams(num_rounds=5, max_depth=3, min_samples_leaf=5))
    permuted = matrix.select(("f2", "f0", "f1"))
    np.testing.assert_array_equal(predict_proba(model, matrix), predict_proba(model, permuted))


def reference_margins(model, X):
    """Margins from a per-row walk over the node links, one tree at a time."""
    margins = np.tile(model.base_score, (len(X), 1))
    for i, tree in enumerate(model.trees):
        for r, row in enumerate(X):
            node = 0
            while tree.feature[node] >= 0:
                go_left = row[tree.feature[node]] <= tree.threshold[node]
                node = tree.left[node] if go_left else tree.right[node]
            margins[r, i % model.n_classes] += tree.value[node]
    return margins


@functools.lru_cache(maxsize=None)
def _walk_model(objective):
    """A small model fitted to noise; its fourth column splits at 0.0, so -0.0 and +0.0 meet a threshold."""
    rng = np.random.default_rng(37)
    y = rng.integers(0, 4, size=300)
    X = np.column_stack([rng.normal(size=(300, 3)), rng.choice([-2.0, -1.0, 1.0, 2.0], size=300)])
    targets = y if objective == OBJECTIVE_MULTICLASS else y % 2
    model = train(mat(X), targets, objective, GbdtParams(num_rounds=5, max_depth=3, min_samples_leaf=5))
    thresholds = [sorted({float(t.threshold[i]) for t in model.trees for i in np.flatnonzero(t.feature == j)})
                  for j in range(X.shape[1])]
    assert 0.0 in thresholds[3]
    return model, thresholds


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(data=st.data(), objective=st.sampled_from([OBJECTIVE_MULTICLASS, OBJECTIVE_BINARY]))
def test_predict_margins_matches_a_per_row_walk(data, objective):
    """Cells at thresholds, signed zeros and permuted columns: the same margin bytes as the reference."""
    model, thresholds = _walk_model(objective)
    n = data.draw(st.integers(1, 30))
    X = np.array([
        [data.draw(st.sampled_from(at) | st.sampled_from([0.0, -0.0]) | st.floats(-3.0, 3.0)) for at in thresholds]
        for _ in range(n)
    ])
    order = data.draw(st.permutations(model.feature_schema))
    got = gbdt.predict_margins(model, mat(X).select(tuple(order)))
    assert got.tobytes() == reference_margins(model, X).tobytes()


def test_classify_margin_scale_invariance():
    # argmax of softmax(margins) equals argmax of margins, so positive rescaling
    # of margins never changes the predicted class.
    rng = np.random.default_rng(11)
    margins = rng.normal(size=(50, 4))
    base = softmax(margins).argmax(axis=1)
    scaled = softmax(margins * 3.7).argmax(axis=1)
    np.testing.assert_array_equal(base, margins.argmax(axis=1))
    np.testing.assert_array_equal(scaled, margins.argmax(axis=1))


# ---------------------------------------------------------------------------
# Persistence


def test_save_load_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    X, y = _separable_multiclass(rng, n=200)
    matrix = mat(X)
    model = train(matrix, y, OBJECTIVE_MULTICLASS, GbdtParams(num_rounds=8, max_depth=4, min_samples_leaf=5))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    np.testing.assert_array_equal(predict_proba(model, matrix), predict_proba(loaded, matrix))
    assert loaded.feature_schema == model.feature_schema
    assert loaded.params == model.params
    again = tmp_path / "again.json"
    save_model(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_a_model_deeper_than_its_params_predicts_unchanged(tmp_path):
    """The walk's length comes from the trees, not from params.max_depth."""
    rng = np.random.default_rng(31)
    X, y = rng.normal(size=(300, 3)), rng.integers(0, 4, size=300)
    matrix = mat(X)
    path = tmp_path / "model.json"
    save_model(train(matrix, y, OBJECTIVE_MULTICLASS, GbdtParams(num_rounds=4, max_depth=4, min_samples_leaf=5)), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["params"]["max_depth"] = 1
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(payload), encoding="utf-8")
    loaded = load_model(edited)
    assert loaded.params.max_depth == 1
    assert max(node_depths(tree).max() for tree in loaded.trees) == 4
    assert predict_proba(loaded, matrix).tobytes() == predict_proba(load_model(path), matrix).tobytes()


def test_save_determinism(tmp_path):
    rng = np.random.default_rng(17)
    X, y = _separable_multiclass(rng, n=120)
    params = GbdtParams(num_rounds=4, max_depth=3, min_samples_leaf=5)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(train(mat(X), y, OBJECTIVE_MULTICLASS, params), a)
    save_model(train(mat(X), y, OBJECTIVE_MULTICLASS, params), b)
    assert a.read_bytes() == b.read_bytes()


def test_load_rejects_corrupted_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json", encoding="utf-8")
    with pytest.raises(FormatError):
        load_model(bad)

    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"format": "something-else", "version": 1}), encoding="utf-8")
    with pytest.raises(FormatError):
        load_model(wrong)

    truncated = tmp_path / "trunc.json"
    truncated.write_text(json.dumps({"format": "shoprank-gbdt", "version": 2}), encoding="utf-8")
    with pytest.raises(FormatError):
        load_model(truncated)

    X, y = _separable_multiclass(np.random.default_rng(29), n=120)
    model = tmp_path / "model.json"
    save_model(train(mat(X), y, OBJECTIVE_MULTICLASS, GbdtParams(num_rounds=2, max_depth=2, min_samples_leaf=5)), model)
    saved = json.loads(model.read_text(encoding="utf-8"))
    assert saved["trees"][0]["feature"][0] == 0  # so a fraction above it would truncate to a valid index
    # Values that a lenient cast would let through: a non-string objective or
    # schema entry, a fractional node index, a number as a string, a non-integer class count.
    for mutate in (
        _set(("objective",), ["multiclass"]),
        _set(("objective",), 4),
        _set(("feature_schema", 1), 7),
        _set(("trees", 0, "feature", 0), 1.5),
        _set(("trees", 0, "left", 0), 1.0),
        _set(("trees", 0, "threshold", 0), "0.5"),
        _set(("n_classes",), "4"),
        _set(("n_classes",), 4.7),
        _set(("n_classes",), True),
    ):
        payload = json.loads(json.dumps(saved))
        mutate(payload)
        model.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(FormatError):
            load_model(model)


def test_load_rejects_a_feature_schema_that_repeats_a_name(tmp_path):
    """Columns are picked by name, so a repeated name would feed one column to two split indices."""
    X, y = _separable_multiclass(np.random.default_rng(23), n=120)
    path = tmp_path / "model.json"
    save_model(train(mat(X), y, OBJECTIVE_MULTICLASS, GbdtParams(num_rounds=2, max_depth=2, min_samples_leaf=5)), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["feature_schema"][2] = payload["feature_schema"][0]
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(FormatError, match="feature_schema lists 'f0' twice") as err:
        load_model(path)
    assert str(path) in str(err.value)


def _set(path, value):
    """Mutation that assigns value at a key path into the model payload."""

    def mutate(payload):
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        _set(("version",), 1),
        _set(("params", "seed"), 0),
        _set(("trees", 0, "value"), [0.0]),
        _set(("trees", 0, "feature"), [[0]]),
        _set(("trees", 0, "left", 0), 0),
        _set(("trees", 0, "right", 0), 99),
        _set(("trees", 0, "feature", -1), 0),  # the last node is always a leaf
        _set(("trees", 0, "feature", 0), -1),
        _set(("trees", 0, "feature", 0), 3),
        _set(("trees", 0, "threshold", 0), "x"),
        _set(("trees", 0, "value", 1), float("nan")),
        _set(("n_classes",), 1),
        _set(("base_score",), [0.0, 0.0]),
        lambda payload: payload["trees"].pop(),
        _set(("feature_schema",), "ab"),
        _set(("train_loss",), "xyz"),
    ],
    ids=[
        "v1", "seed-key", "unequal-lengths", "nested-array", "cycle", "child-out-of-range",
        "leaf-with-feature", "root-without-feature", "feature-past-schema", "non-number",
        "non-finite", "classes-vs-objective", "base-score-width", "tree-count",
        "schema-string", "loss-string",
    ],
)
def test_load_rejects_structurally_invalid_models(tmp_path, mutate):
    rng = np.random.default_rng(23)
    X, y = _separable_multiclass(rng, n=120)
    path = tmp_path / "model.json"
    save_model(train(mat(X), y, OBJECTIVE_MULTICLASS, GbdtParams(num_rounds=2, max_depth=2, min_samples_leaf=5)), path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["trees"][0]["feature"][0] >= 0  # the root splits, so each mutation applies
    load_model(path)
    mutate(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(FormatError) as err:
        load_model(path)
    assert str(path) in str(err.value)


def test_tree_walk_stops_on_a_cycle():
    cyclic = gbdt.Tree(
        feature=np.array([0, -1], dtype=np.int32),
        threshold=np.array([0.5, 0.0]),
        left=np.array([0, -1], dtype=np.int32),
        right=np.array([1, -1], dtype=np.int32),
        value=np.array([0.0, 1.0]),
    )
    model = GbdtModel(objective=OBJECTIVE_BINARY, n_classes=1, trees=(cyclic,), base_score=np.zeros(1),
                      feature_schema=("f0",), params=GbdtParams())
    np.testing.assert_array_equal(gbdt.predict_margins(model, mat([1.0])), [[1.0]])
    with pytest.raises(FormatError, match="tree 0"):
        gbdt.predict_margins(model, mat([0.0, 1.0]))


def test_cross_fold_models_interchangeable(tmp_path):
    """Two models trained on disjoint halves share the schema and both predict."""
    rng = np.random.default_rng(19)
    X, y = _separable_multiclass(rng, n=200)
    matrix = mat(X)
    params = GbdtParams(num_rounds=3, max_depth=2, min_samples_leaf=5)
    half = FeatureMatrix(matrix.columns, matrix.values[:100], coded(matrix.pairs.pairs[:100]))
    other = FeatureMatrix(matrix.columns, matrix.values[100:], coded(matrix.pairs.pairs[100:]))
    m1 = train(half, y[:100], OBJECTIVE_MULTICLASS, params)
    m2 = train(other, y[100:], OBJECTIVE_MULTICLASS, params)
    save_model(m1, tmp_path / "m1.json")
    save_model(m2, tmp_path / "m2.json")
    p1 = predict_proba(load_model(tmp_path / "m1.json"), matrix)
    p2 = predict_proba(load_model(tmp_path / "m2.json"), matrix)
    assert p1.shape == p2.shape == (200, 4)


# ---------------------------------------------------------------------------
# A replayed prefix: the first trees are taken as given, the rest are built


def assert_same_model(model, expected):
    assert [a.dtype for tree in model.trees for a in tree] == [a.dtype for tree in expected.trees for a in tree]
    assert [a.tobytes() for tree in model.trees for a in tree] == [a.tobytes() for tree in expected.trees for a in tree]
    assert model.train_loss == expected.train_loss


@pytest.mark.parametrize("objective", [OBJECTIVE_MULTICLASS, OBJECTIVE_BINARY])
def test_a_replayed_prefix_gives_the_model_back(monkeypatch, objective):
    """No prefix, one round, a round and a tree (a prefix that ends mid-round for multiclass), all trees."""
    X, y = _separable_multiclass(np.random.default_rng(23), n=300)
    y = y if objective == OBJECTIVE_MULTICLASS else (y == 1).astype(int)
    params = GbdtParams(num_rounds=5, max_depth=3, min_samples_leaf=5)
    model = train(mat(X), y, objective, params)
    built = []
    build = gbdt._build_tree
    monkeypatch.setattr(gbdt, "_build_tree", lambda *args: built.append(1) or build(*args))
    k = model.n_classes
    for t in sorted({0, k, 2 * k + 1, len(model.trees)}):
        built.clear()
        assert_same_model(train(mat(X), y, objective, params, prefix=model.trees[:t]), model)
        assert len(built) == len(model.trees) - t


def test_a_prefix_longer_than_the_fit_or_off_the_matrix_is_rejected():
    X, y = _separable_multiclass(np.random.default_rng(5), n=100)
    params = GbdtParams(num_rounds=2, max_depth=2, min_samples_leaf=5)
    model = train(mat(X), y, OBJECTIVE_MULTICLASS, params)
    with pytest.raises(ValidationError, match="prefix of 9 trees is longer than the 8"):
        train(mat(X), y, OBJECTIVE_MULTICLASS, params, prefix=model.trees + model.trees[:1])
    tree = model.trees[1]
    off = tree._replace(feature=np.where(tree.feature >= 0, 3, -1).astype(np.int32))
    with pytest.raises(ValidationError, match=r"prefix tree 1: feature index outside -1\.\.2"):
        train(mat(X), y, OBJECTIVE_MULTICLASS, params, prefix=(model.trees[0], off))
