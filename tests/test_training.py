import math

import mpmath
import numpy as np
import pytest

from ktfm import (
    FMParams,
    Link,
    TrainConfig,
    TrainingDivergedError,
    init_params,
    nll,
    raw_scores,
    train_gibbs_probit,
    train_map_logit,
)
from ktfm.training import _GroupState, _logistic, _row_gradient, sample_truncated_normal
from tests.conftest import matrix_from_rows
from tests.test_model import random_instance


def make_matrix(rng, n_rows=40, width=12, max_nnz=5, untouched=0):
    """Random counter-like rows; the last ``untouched`` columns appear in none."""
    rows, labels = [], []
    for _ in range(n_rows):
        nnz = int(rng.integers(1, max_nnz + 1))
        idx = np.sort(rng.choice(width - untouched, size=nnz, replace=False))
        vals = rng.integers(1, 4, size=nnz).astype(float)
        rows.append(list(zip(idx.tolist(), vals.tolist())))
        labels.append(int(rng.integers(0, 2)))
    return matrix_from_rows(width, rows, np.array(labels))


class TestNll:
    def test_uniform_predictor(self):
        assert nll([0.5, 0.5], [0, 1]) == pytest.approx(math.log(2), rel=1e-12)

    def test_perfect_predictor_is_tiny(self):
        assert nll([0.0, 1.0], [0, 1]) < 1e-10

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(0.01, 0.99, size=50)
        y = rng.integers(0, 2, size=50)
        with mpmath.workdps(60):
            total = mpmath.mpf(0)
            for pi, yi in zip(p, y):
                pi = mpmath.mpf(float(pi))
                total += yi * mpmath.log(pi) + (1 - yi) * mpmath.log(1 - pi)
            expected = float(-total / len(p))
        assert nll(p, y) == pytest.approx(expected, rel=1e-10)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            nll([0.5], [0, 1])

    def test_extreme_probabilities_are_clamped(self):
        value = nll([0.0], [1])
        assert math.isfinite(value)
        assert value == pytest.approx(-math.log(1e-12), rel=1e-9)


class TestInitParams:
    def test_d0_has_no_factors(self):
        params = init_params(TrainConfig(d=0, seed=1), 10)
        assert params.V is None
        assert (params.w == 0).all() and params.bias == 0.0

    def test_same_seed_same_init(self):
        a = init_params(TrainConfig(d=5, seed=42), 10)
        b = init_params(TrainConfig(d=5, seed=42), 10)
        assert np.array_equal(a.V, b.V)

    def test_different_seed_differs(self):
        a = init_params(TrainConfig(d=5, seed=1), 10)
        b = init_params(TrainConfig(d=5, seed=2), 10)
        assert not np.array_equal(a.V, b.V)

    def test_factor_spread_across_seeds(self):
        draws = np.concatenate(
            [init_params(TrainConfig(d=5, seed=s), 10).V.ravel() for s in range(100)]
        )
        assert 0.005 <= draws.std() <= 0.02


def moderate_instance(rng, n=12, d=0, max_nnz=6):
    """Random instance whose score stays far from link saturation."""
    w = 0.3 * rng.normal(size=n)
    V = 0.3 * rng.normal(size=(n, d)) if d else None
    params = FMParams(0.3 * rng.normal(), w, V)
    nnz = int(rng.integers(1, max_nnz + 1))
    idx = np.sort(rng.choice(n, size=nnz, replace=False))
    vals = rng.integers(1, 3, size=nnz).astype(float)
    return params, matrix_from_rows(n, [list(zip(idx.tolist(), vals.tolist()))])


def row_gradient(params: FMParams, row, label: int):
    """Dense (d/d bias, d/d w, d/d V) of one row's logit NLL, from the SGD kernel."""
    Vk = None if params.V is None else params.V[row.indices]
    g, gV_rows = _row_gradient(params.bias, params.w[row.indices], Vk, row.data, label)
    g_w = np.zeros(params.n_features)
    g_w[row.indices] = g * row.data
    g_V = None
    if params.V is not None:
        g_V = np.zeros_like(params.V)
        g_V[row.indices] = gV_rows
    return g, g_w, g_V


def logit_loss(params: FMParams, row, label: int) -> float:
    p = float(Link.LOGIT.inverse(raw_scores(params, row)[0]))
    return -(label * math.log(p) + (1 - label) * math.log(1 - p))


class TestGradients:
    @pytest.mark.parametrize("d", [0, 5])
    def test_matches_central_differences(self, d):
        rng = np.random.default_rng(40 + d)
        step = 1e-5
        for _ in range(20):
            params, row = moderate_instance(rng, n=12, d=d)
            y = int(rng.integers(0, 2))
            g_bias, g_w, g_V = row_gradient(params, row, y)

            def loss_at(bias, w, V):
                return logit_loss(FMParams(bias, w, V), row, y)

            def rel_err(analytic, numeric):
                # the floor keeps finite-difference roundoff (~1e-10 at this
                # step size) from dominating near-zero coordinates
                return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-5)

            fd_bias = (
                loss_at(params.bias + step, params.w, params.V)
                - loss_at(params.bias - step, params.w, params.V)
            ) / (2 * step)
            assert rel_err(g_bias, fd_bias) <= 1e-4

            for k in row.indices:
                w_hi, w_lo = params.w.copy(), params.w.copy()
                w_hi[k] += step
                w_lo[k] -= step
                fd = (loss_at(params.bias, w_hi, params.V) - loss_at(params.bias, w_lo, params.V)) / (2 * step)
                assert rel_err(g_w[k], fd) <= 1e-4

            if d:
                for k in row.indices:
                    for f in range(d):
                        V_hi, V_lo = params.V.copy(), params.V.copy()
                        V_hi[k, f] += step
                        V_lo[k, f] -= step
                        fd = (
                            loss_at(params.bias, params.w, V_hi)
                            - loss_at(params.bias, params.w, V_lo)
                        ) / (2 * step)
                        assert rel_err(g_V[k, f], fd) <= 1e-4

    def test_untouched_coordinates_have_zero_gradient(self):
        # one SGD step on one row moves only that row's coordinates
        rng = np.random.default_rng(77)
        _, row = random_instance(rng, n=10, d=2)
        row = matrix_from_rows(10, [list(zip(row.indices.tolist(), row.data.tolist()))], [1])
        cfg = TrainConfig(d=2, epochs=1, learning_rate=0.5, seed=4)
        start = init_params(cfg, 10)
        with pytest.warns(UserWarning, match="identical"):
            params = train_map_logit(row, cfg)
        untouched = np.setdiff1d(np.arange(10), row.indices)
        assert (params.w[untouched] == 0).all()
        assert np.array_equal(params.V[untouched], start.V[untouched])
        assert (params.V[row.indices] != start.V[row.indices]).all()


class TestMapTrainer:
    def test_loss_decreases_on_separable_toy(self):
        labels = np.array([i % 2 for i in range(20)])
        data = matrix_from_rows(2, [[(i % 2, 1.0)] for i in range(20)], labels)
        log: list = []
        train_map_logit(data, TrainConfig(epochs=10, learning_rate=0.5, seed=0), epoch_log=log)
        losses = [row["train_nll"] for row in log]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_full_batch_monotonically_decreases_regularized_nll(self):
        rng = np.random.default_rng(12)
        data = make_matrix(rng, n_rows=60, width=10)
        l2 = 0.01
        cfg = TrainConfig(epochs=40, learning_rate=0.1, l2=l2, seed=0, full_batch=True)

        # replay epoch by epoch so the regularized objective itself is visible
        objective = []
        for epochs in range(1, 21):
            params = train_map_logit(data, cfg.replace(epochs=epochs))
            loss = nll(Link.LOGIT.inverse(raw_scores(params, data)), data.labels)
            objective.append(loss + 0.5 * l2 * float(params.w @ params.w))
        assert all(b < a for a, b in zip(objective, objective[1:]))

    def test_seeded_determinism(self):
        rng = np.random.default_rng(3)
        data = make_matrix(rng, n_rows=50, width=10)
        cfg = TrainConfig(d=3, epochs=15, seed=9)
        a = train_map_logit(data, cfg)
        b = train_map_logit(data, cfg)
        assert a.bias == b.bias
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.V, b.V)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_learning_rate_raises(self):
        rng = np.random.default_rng(8)
        data = make_matrix(rng, n_rows=30, width=8)
        with pytest.raises(TrainingDivergedError):
            train_map_logit(data, TrainConfig(epochs=400, learning_rate=1e12, d=2, init_scale=5.0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_full_batch_factor_overflow_raises(self):
        # the first step sends V, and only V, past the float range
        data = matrix_from_rows(3, [[(0, 1.0), (1, 2.0)], [(1, 1.0), (2, 1.0)], [(0, 1.0), (2, 3.0)]], [1, 0, 1])
        cfg = TrainConfig(d=2, epochs=5, learning_rate=1e250, init_scale=1e100, full_batch=True)
        with pytest.raises(TrainingDivergedError, match="at epoch 0$"):
            train_map_logit(data, cfg)

    def test_sgd_step_uses_the_row_gradient(self):
        # one epoch over one row is one step of the kernel's gradient
        rng = np.random.default_rng(5)
        _, row = moderate_instance(rng, n=8, d=3)
        row = matrix_from_rows(8, [list(zip(row.indices.tolist(), row.data.tolist()))], [1])
        cfg = TrainConfig(d=3, epochs=1, learning_rate=0.1, l2=0.0, seed=6)
        start = init_params(cfg, 8)
        g_bias, g_w, g_V = row_gradient(start, row, 1)
        with pytest.warns(UserWarning, match="identical"):
            params = train_map_logit(row, cfg)
        assert params.bias == start.bias - 0.1 * g_bias
        np.testing.assert_allclose(params.w, start.w - 0.1 * g_w, rtol=1e-15, atol=0)
        np.testing.assert_allclose(params.V, start.V - 0.1 * g_V, rtol=1e-15, atol=0)

    def test_constant_labels_warn(self):
        data = matrix_from_rows(2, [[(0, 1.0)]] * 5, np.ones(5, dtype=int))
        with pytest.warns(UserWarning, match="identical"):
            train_map_logit(data, TrainConfig(epochs=1))

    def test_empty_matrix_rejected(self):
        data = matrix_from_rows(2, [], np.array([], dtype=int))
        with pytest.raises(ValueError):
            train_map_logit(data, TrainConfig(epochs=1))

    def test_agrees_with_reference_logistic_regression(self):
        # at d = 0 the objective is plain L2 logistic regression, so an
        # off-the-shelf solver must land on the same predictions
        sklearn = pytest.importorskip("sklearn.linear_model")
        rng = np.random.default_rng(31)
        data = make_matrix(rng, n_rows=200, width=12, max_nnz=4)
        l2 = 0.1
        cfg = TrainConfig(epochs=4000, learning_rate=0.5, l2=l2, seed=0, full_batch=True)
        params = train_map_logit(data, cfg)
        ours = Link.LOGIT.inverse(raw_scores(params, data))

        X = data.csr.toarray()
        y = data.labels
        clf = sklearn.LogisticRegression(
            C=1.0 / (l2 * len(data)), solver="lbfgs", max_iter=10000, tol=1e-12
        )
        clf.fit(X, y)
        theirs = clf.predict_proba(X)[:, 1]
        assert np.abs(ours - theirs).mean() <= 1e-3


class TestTruncatedSampling:
    def test_signs_follow_labels(self):
        rng = np.random.default_rng(5)
        means = rng.normal(scale=4.0, size=2000)
        positive = rng.integers(0, 2, size=2000).astype(bool)
        z = sample_truncated_normal(means, positive, rng)
        assert (z[positive] > 0).all()
        assert (z[~positive] < 0).all()

    def test_extreme_means_stay_finite(self):
        rng = np.random.default_rng(6)
        means = np.array([-40.0, -12.0, 0.0, 12.0, 40.0])
        positive = np.ones(5, dtype=bool)
        z = sample_truncated_normal(means, positive, rng)
        assert np.isfinite(z).all() and (z > 0).all()

    def test_matches_moments_of_known_case(self):
        # mean 0 truncated to the positive side has expectation sqrt(2/pi)
        rng = np.random.default_rng(7)
        z = sample_truncated_normal(np.zeros(200_000), np.ones(200_000, dtype=bool), rng)
        assert z.mean() == pytest.approx(math.sqrt(2 / math.pi), abs=5e-3)


class TestGibbsTrainer:
    def test_positive_labels_push_prediction_up(self):
        data = matrix_from_rows(1, [[(0, 1.0)]] * 30, np.ones(30, dtype=int))
        with pytest.warns(UserWarning):
            out = train_gibbs_probit(data, data, TrainConfig(epochs=100, seed=0))
        assert (out.test_predictions > 0.5).all()

    def test_same_seed_identical_output(self):
        rng = np.random.default_rng(11)
        data = make_matrix(rng, n_rows=60, width=10)
        test = make_matrix(np.random.default_rng(12), n_rows=20, width=10)
        cfg = TrainConfig(d=2, epochs=50, seed=21)
        a = train_gibbs_probit(data, test, cfg)
        b = train_gibbs_probit(data, test, cfg)
        assert a.params.bias == b.params.bias
        assert np.array_equal(a.params.w, b.params.w)
        assert np.array_equal(a.params.V, b.params.V)
        assert np.array_equal(a.test_predictions, b.test_predictions)

    def test_predictions_live_in_unit_interval(self):
        rng = np.random.default_rng(14)
        data = make_matrix(rng, n_rows=50, width=8)
        test = make_matrix(np.random.default_rng(15), n_rows=25, width=8)
        out = train_gibbs_probit(data, test, TrainConfig(d=3, epochs=40, seed=2))
        assert (out.test_predictions > 0).all()
        assert (out.test_predictions < 1).all()
        assert np.isfinite(out.params.w).all()

    def test_tracks_oracle_on_probit_generated_data(self):
        from ktfm import SynthSpec, auc, encode_dataset, generate_synthetic
        from ktfm import oracle_probabilities, preset_encoding

        data = generate_synthetic(
            SynthSpec("rasch", n_students=50, n_items=20, seed=11, link=Link.PROBIT)
        )
        config, _ = preset_encoding("irt")
        dm = encode_dataset(data.triplets, None, config, 50, n_items=20)
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(dm))
        cut = int(0.8 * len(dm))
        train_idx, test_idx = np.sort(perm[:cut]), np.sort(perm[cut:])
        out = train_gibbs_probit(
            dm.subset(train_idx),
            dm.subset(test_idx),
            TrainConfig(epochs=500, burn_in=100, seed=1),
        )
        oracle = oracle_probabilities(data.truth, data.triplets)[test_idx]
        oracle_auc = auc(oracle, dm.labels[test_idx])
        gibbs_auc = auc(out.test_predictions, dm.labels[test_idx])
        assert abs(gibbs_auc - oracle_auc) <= 0.05

    def test_burn_in_default_is_fifth(self):
        assert TrainConfig(epochs=500).effective_burn_in == 100
        assert TrainConfig(epochs=500, burn_in=42).effective_burn_in == 42


def reference_sgd(data, config):
    """The per-row SGD epochs as written before the loop was made lean: a
    numpy logistic per row, and w[idx] and V[idx] each gathered twice."""
    start = init_params(config, data.space.width)
    bias, w = start.bias, start.w.copy()
    V = None if start.V is None else start.V.copy()
    lr, l2 = config.learning_rate, config.l2
    y = data.labels.astype(np.float64)
    X = data.csr
    indptr, cols, vals = X.indptr, X.indices, X.data
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(2)[1])
    for _ in range(config.epochs):
        for r in shuffle_rng.permutation(len(data)):
            lo, hi = indptr[r], indptr[r + 1]
            idx, xv = cols[lo:hi], vals[lo:hi]
            z = bias + w[idx] @ xv
            if V is not None:
                Vk = V[idx]
                vx = Vk * xv[:, None]
                qf = vx.sum(axis=0)
                z += 0.5 * (qf @ qf - (vx * vx).sum())
            g = float(Link.LOGIT.inverse(z)) - y[r]
            bias -= lr * g
            w[idx] -= lr * (g * xv + l2 * w[idx])
            if V is not None:
                gV = g * (xv[:, None] * qf[None, :] - (xv * xv)[:, None] * Vk)
                Vk = V[idx]
                V[idx] = Vk - lr * (gV + l2 * Vk)
    return FMParams(bias, w, V)


def reference_gibbs(train, test, config):
    """The Gibbs sampler as written before its column loops were merged: one
    scalar normal per column, and e[rows] and q_f[rows] gathered twice."""
    n, d = train.space.width, config.d
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(3)[2])
    start = init_params(config, n)
    bias, w = start.bias, start.w.copy()
    V = None if start.V is None else start.V.copy()
    X = train.csr
    Xc = X.tocsc()
    col_rows = [Xc.indices[Xc.indptr[k] : Xc.indptr[k + 1]] for k in range(n)]
    col_vals = [Xc.data[Xc.indptr[k] : Xc.indptr[k + 1]] for k in range(n)]
    col_sq = [float(v @ v) for v in col_vals]
    positive = train.labels.astype(bool)
    bias_group = _GroupState()
    dim_groups = [_GroupState() for _ in range(d)]

    def draw(group, h_dot_r, h_dot_h):
        var = 1.0 / (group.precision + h_dot_h)
        mean = (group.precision * group.mean + h_dot_r) * var
        return mean + rng.standard_normal() * np.sqrt(var)

    kept, bias_sum, w_sum = 0, 0.0, np.zeros_like(w)
    V_sum = None if V is None else np.zeros_like(V)
    test_sum = np.zeros(len(test))
    params = start
    for it in range(config.epochs):
        scores = raw_scores(params, train)
        e = scores - sample_truncated_normal(scores, positive, rng)
        new_bias = draw(bias_group, float((bias - e).sum()), float(len(train)))
        e += new_bias - bias
        bias = new_bias
        for k in range(n):
            rows, hv = col_rows[k], col_vals[k]
            if rows.size == 0:
                w[k] = bias_group.mean + rng.standard_normal() / np.sqrt(bias_group.precision)
                continue
            new = draw(bias_group, float(hv @ (w[k] * hv - e[rows])), col_sq[k])
            e[rows] += (new - w[k]) * hv
            w[k] = new
        for f in range(d):
            group = dim_groups[f]
            qf = X @ V[:, f]
            for k in range(n):
                rows, xv = col_rows[k], col_vals[k]
                old = V[k, f]
                if rows.size == 0:
                    V[k, f] = group.mean + rng.standard_normal() / np.sqrt(group.precision)
                    continue
                h = xv * (qf[rows] - xv * old)
                new = draw(group, float(h @ (old * h - e[rows])), float(h @ h))
                e[rows] += (new - old) * h
                qf[rows] += (new - old) * xv
                V[k, f] = new
        bias_group.resample(np.concatenate(([bias], w)), rng)
        for f in range(d):
            dim_groups[f].resample(V[:, f], rng)
        params = FMParams(bias, w, V)
        if it >= config.effective_burn_in:
            kept += 1
            bias_sum += bias
            w_sum += w
            if V_sum is not None:
                V_sum += V
            test_sum += Link.PROBIT.inverse(raw_scores(params, test))
    mean = FMParams(bias_sum / kept, w_sum / kept, None if V_sum is None else V_sum / kept)
    return mean, np.clip(test_sum / kept, 1e-15, 1.0 - 1e-15)


def assert_same_bits(params: FMParams, reference: FMParams):
    assert np.float64(params.bias).tobytes() == np.float64(reference.bias).tobytes()
    assert params.w.tobytes() == reference.w.tobytes()
    assert (params.V is None) == (reference.V is None)
    if params.V is not None:
        assert params.V.tobytes() == reference.V.tobytes()


class TestLeanLoopsAreBitExact:
    """The trainers' loops against the reference loops above: equal bits, not closeness."""

    @pytest.mark.parametrize("l2", [0.0, 0.05])
    @pytest.mark.parametrize("d", [0, 3])
    def test_sgd_matches_reference_epochs(self, d, l2):
        rng = np.random.default_rng(60 + d)
        data = make_matrix(rng, n_rows=80, width=12, untouched=2)
        cfg = TrainConfig(d=d, epochs=4, learning_rate=0.05, l2=l2, seed=3, init_scale=0.1)
        assert_same_bits(train_map_logit(data, cfg), reference_sgd(data, cfg))

    @pytest.mark.parametrize("d", [0, 3])
    def test_gibbs_matches_reference_sweeps(self, d):
        # two columns no training row touches take the prior-draw branch
        rng = np.random.default_rng(70 + d)
        train = make_matrix(rng, n_rows=60, width=12, untouched=2)
        test = make_matrix(rng, n_rows=20, width=12)
        cfg = TrainConfig(d=d, epochs=12, burn_in=4, seed=5)
        out = train_gibbs_probit(train, test, cfg)
        params, predictions = reference_gibbs(train, test, cfg)
        assert_same_bits(out.params, params)
        assert out.test_predictions.tobytes() == predictions.tobytes()

    def test_scalar_logistic_equals_the_link(self):
        # 0 and -0, the clip edges near |z| = 34.5, exp's overflow near
        # -709.8 and the float64 underflow of expit near -745, then random z
        rng = np.random.default_rng(17)
        edges = np.linspace(34.0, 37.0, 3001)
        tails = np.linspace(708.0, 746.0, 3801)
        z = np.concatenate(
            [[0.0, -0.0], edges, -edges, tails, -tails, rng.normal(scale=30.0, size=5000),
             rng.uniform(-800.0, 800.0, size=5000)]
        )
        expected = Link.LOGIT.inverse(z).tobytes()
        assert np.array([_logistic(v) for v in z.tolist()]).tobytes() == expected
        assert np.array([_logistic(v) for v in z]).tobytes() == expected  # numpy scalars
