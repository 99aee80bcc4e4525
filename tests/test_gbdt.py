"""Boosted-tree trainer: brute-force split oracle, gradient checks, invariants.

The oracle below re-implements the split search naively (enumerate every
feature and every adjacent distinct-value boundary) so the vectorized
training path has an independent reference.
"""

import json
import math

import numpy as np
import pytest

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


def mat(X, prefix="f"):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    cols = tuple(f"{prefix}{j}" for j in range(X.shape[1]))
    pairs = tuple(("q", f"p{i}") for i in range(X.shape[0]))
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
    other = FeatureMatrix(("g0",), X[:, None], tuple(("q", f"p{i}") for i in range(8)))
    with pytest.raises(SchemaError, match="f0"):
        predict_proba(model, other)


def test_column_permutation_equivariance():
    rng = np.random.default_rng(9)
    X, y = _separable_multiclass(rng, n=150)
    matrix = mat(X)
    model = train(matrix, y, OBJECTIVE_MULTICLASS, GbdtParams(num_rounds=5, max_depth=3, min_samples_leaf=5))
    permuted = matrix.select(("f2", "f0", "f1"))
    np.testing.assert_array_equal(predict_proba(model, matrix), predict_proba(model, permuted))


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
    ],
    ids=[
        "v1", "seed-key", "unequal-lengths", "nested-array", "cycle", "child-out-of-range",
        "leaf-with-feature", "root-without-feature", "feature-past-schema", "non-number",
        "non-finite", "classes-vs-objective", "base-score-width", "tree-count",
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
    with pytest.raises(FormatError):
        load_model(path)


def test_tree_walk_stops_on_a_cycle():
    cyclic = gbdt.Tree(
        feature=np.array([0, -1], dtype=np.int32),
        threshold=np.array([0.5, 0.0]),
        left=np.array([0, -1], dtype=np.int32),
        right=np.array([1, -1], dtype=np.int32),
        value=np.array([0.0, 1.0]),
    )
    np.testing.assert_array_equal(cyclic.predict(np.array([[1.0]])), [1.0])
    with pytest.raises(FormatError):
        cyclic.predict(np.array([[0.0], [1.0]]))


def test_cross_fold_models_interchangeable(tmp_path):
    """Two models trained on disjoint halves share the schema and both predict."""
    rng = np.random.default_rng(19)
    X, y = _separable_multiclass(rng, n=200)
    matrix = mat(X)
    params = GbdtParams(num_rounds=3, max_depth=2, min_samples_leaf=5)
    half = FeatureMatrix(matrix.columns, matrix.values[:100], matrix.pairs[:100])
    other = FeatureMatrix(matrix.columns, matrix.values[100:], matrix.pairs[100:])
    m1 = train(half, y[:100], OBJECTIVE_MULTICLASS, params)
    m2 = train(other, y[100:], OBJECTIVE_MULTICLASS, params)
    save_model(m1, tmp_path / "m1.json")
    save_model(m2, tmp_path / "m2.json")
    p1 = predict_proba(load_model(tmp_path / "m1.json"), matrix)
    p2 = predict_proba(load_model(tmp_path / "m2.json"), matrix)
    assert p1.shape == p2.shape == (200, 4)
