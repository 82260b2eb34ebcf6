import hashlib
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import expit, log_ndtr
from scipy.stats import kstest

from ktfm import (
    DesignMatrix,
    FeatureSpace,
    FMParams,
    Link,
    TrainConfig,
    TrainingDivergedError,
    nll,
    raw_scores,
    train_gibbs_probit,
    train_map_logit,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ktfm.evaluation import fit
from ktfm.training import (
    _class_steps,
    _colour_blocks,
    _finite,
    _GroupState,
    _init_factors,
    _probability,
    _setup,
    _stable_order,
    _sweep,
    sample_truncated_normal,
)
from tests.conftest import matrix_from_dense, matrix_from_rows, scipy_csr, to_dense
from tests.test_model import random_instance
from tests.test_sparse import design_matrices


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


class SweepLog(list):
    """An ``after_sweep`` callback that keeps (sweep, a copy of the scores, objective) per sweep."""

    def __call__(self, sweep, scores, objective):
        self.append((sweep, scores.copy(), objective))


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


def start_params(config, n_features):
    """The parameters that ``_setup`` starts both trainers from."""
    return FMParams(0.0, np.zeros(n_features), _init_factors(config, n_features))


class TestInitParams:
    """The start parameters: zero biases and ``_init_factors``'s V."""

    def test_d0_has_no_factors(self):
        with pytest.warns(UserWarning, match="identical"):
            bias, w, V, *_ = _setup(matrix_from_rows(10, [[(3, 1.0)]], [1]), TrainConfig(d=0, seed=1))
        assert V.shape == (10, 0)
        assert (w == 0).all() and bias == 0.0

    # each call on a line of its own: the warning must name that line, whether
    # the trainer is called directly, as in the README, or through ``fit``
    @pytest.mark.parametrize(
        "call",
        [
            lambda data: fit(data, [TrainConfig(epochs=1)], Link.LOGIT),
            lambda data: fit(data, [TrainConfig(d=1, epochs=2)], Link.PROBIT),
            lambda data: train_map_logit(data, TrainConfig(epochs=1)),
            lambda data: train_gibbs_probit(data, None, TrainConfig(epochs=2)),
        ],
        ids=["fit-logit", "fit-probit", "train_map_logit", "train_gibbs_probit"],
    )
    def test_constant_labels_warn_at_the_callers_line(self, call):
        data = matrix_from_rows(4, [[(0, 1.0)], [(1, 1.0), (3, 1.0)]], [1, 1])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call(data)
        assert [(w.filename, w.lineno) for w in caught if "identical" in str(w.message)] == [
            (call.__code__.co_filename, call.__code__.co_firstlineno)
        ]

    def test_same_seed_same_init(self):
        a = _init_factors(TrainConfig(d=5, seed=42), 10)
        b = _init_factors(TrainConfig(d=5, seed=42), 10)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        a = _init_factors(TrainConfig(d=5, seed=1), 10)
        b = _init_factors(TrainConfig(d=5, seed=2), 10)
        assert not np.array_equal(a, b)

    def test_factor_spread_across_seeds(self):
        draws = np.concatenate(
            [_init_factors(TrainConfig(d=5, seed=s), 10).ravel() for s in range(100)]
        )
        assert 0.005 <= draws.std() <= 0.02


def moderate_instance(rng, n=12, d=0, max_nnz=6, n_rows=1):
    """Random parameters and ``n_rows`` labelled rows whose scores stay far from link saturation."""
    w = 0.3 * rng.normal(size=n)
    V = 0.3 * rng.normal(size=(n, d)) if d else None
    params = FMParams(0.3 * rng.normal(), w, V)
    rows = []
    for _ in range(n_rows):
        nnz = int(rng.integers(1, max_nnz + 1))
        idx = np.sort(rng.choice(n, size=nnz, replace=False))
        vals = rng.integers(1, 3, size=nnz).astype(float)
        rows.append(list(zip(idx.tolist(), vals.tolist())))
    return params, matrix_from_rows(n, rows, rng.integers(0, 2, size=n_rows))


def map_objective(params: FMParams, data, l2: float) -> float:
    """The MAP objective, mean logit NLL + (l2 / 2) * (|w|^2 + |V|^2), from the one FM score."""
    z = raw_scores(params, data)
    penalty = params.w @ params.w + (params.V**2).sum()
    return float(np.mean(np.logaddexp(0.0, z) - data.labels * z)) + 0.5 * l2 * penalty


def objective_gradient(params: FMParams, data, l2: float):
    """N times the gradient of ``map_objective`` (d/d bias, d/d w, d/d V), as
    the MAP trainer forms it: its blocked kernel builds h and sums h (p - y)
    per column, and a step rule that moves nothing adds them to l2 N theta."""
    w, V = params.w.copy(), params.V.copy()
    blocks, _ = _colour_blocks(data)
    scores = raw_scores(params, data)
    Q = (scipy_csr(data) @ V).T.copy()
    y = data.labels.astype(np.float64)

    def residual(rows, old, h):
        return _probability(scores[rows]) - y[rows]

    def adding_to(gradient):
        def step(cols, old, hh, hr):
            gradient[cols] += hr
            return old

        return step

    g_w = l2 * len(data) * w
    _class_steps(w, blocks, None, scores, residual, adding_to(g_w))
    g_V = l2 * len(data) * V
    for f in range(V.shape[1]):
        _class_steps(V[:, f], blocks, Q[f], scores, residual, adding_to(g_V[:, f]))
    return float((_probability(scores) - y).sum()), g_w, g_V


def assert_matches_central_differences(params: FMParams, data, l2: float, step: float = 1e-5):
    """Every coordinate of ``objective_gradient`` within 1e-4 of central differences."""
    g_bias, g_w, g_V = objective_gradient(params, data, l2)

    def loss_at(bias, w, V):
        return len(data) * map_objective(FMParams(bias, w, V), data, l2)

    def check(analytic, numeric):
        # the floor keeps finite-difference roundoff (~1e-10 at this step
        # size) from dominating near-zero coordinates
        assert abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-5) <= 1e-4

    check(g_bias, (loss_at(params.bias + step, params.w, params.V)
                   - loss_at(params.bias - step, params.w, params.V)) / (2 * step))
    for k in range(params.n_features):
        w_hi, w_lo = params.w.copy(), params.w.copy()
        w_hi[k] += step
        w_lo[k] -= step
        check(g_w[k], (loss_at(params.bias, w_hi, params.V) - loss_at(params.bias, w_lo, params.V)) / (2 * step))
        for f in range(params.d):
            V_hi, V_lo = params.V.copy(), params.V.copy()
            V_hi[k, f] += step
            V_lo[k, f] -= step
            check(g_V[k, f], (loss_at(params.bias, params.w, V_hi) - loss_at(params.bias, params.w, V_lo)) / (2 * step))


class TestGradients:
    @pytest.mark.parametrize("d", [0, 5])
    def test_matches_central_differences(self, d):
        # the trainer's g = sum h (p - y) + l2 N theta, untouched columns included
        rng = np.random.default_rng(40 + d)
        for _ in range(10):
            params, data = moderate_instance(rng, n=12, d=d, n_rows=8)
            assert_matches_central_differences(params, data, l2=0.05)

    def test_untouched_coordinates_have_zero_gradient(self):
        # without a penalty, a column no row touches has zero gradient and
        # keeps its start; with one, the penalty alone pulls it to zero
        rng = np.random.default_rng(77)
        _, row = random_instance(rng, n=10, d=2)
        row = matrix_from_rows(10, [list(zip(row.indices.tolist(), row.data.tolist()))], [1])
        untouched = np.setdiff1d(np.arange(10), row.indices)
        for l2 in (0.0, 0.1):
            cfg = TrainConfig(d=2, epochs=1, l2=l2, seed=4)
            start = start_params(cfg, 10)
            with pytest.warns(UserWarning, match="identical"):
                params = train_map_logit(row, cfg)
            assert (params.w[untouched] == 0).all()
            assert np.array_equal(params.V[untouched], start.V[untouched] if l2 == 0 else np.zeros((untouched.size, 2)))
            assert (params.V[row.indices] != start.V[row.indices]).all()


def map_sweep_loop(data, config):
    """One MAP sweep written one column at a time, in the colouring's class
    order, each step from fresh scores of the whole dense matrix."""
    start = start_params(config, data.space.width)
    bias, w, V = start.bias, start.w.copy(), start.V.copy()
    X, y = to_dense(data), data.labels.astype(np.float64)
    lam = config.l2 * len(data)
    blocks, empty = _colour_blocks(data)
    order = np.concatenate([cols for cols, *_ in blocks]).tolist()
    if lam:
        w[empty] = 0.0
        V[empty] = 0.0

    def residual():
        return expit(raw_scores(FMParams(bias, w, V), data)) - y

    bias -= 4.0 * residual().mean()
    for values, f in [(w, None)] + [(V[:, f], f) for f in range(config.d)]:
        for k in order:
            h = X[:, k] if f is None else X[:, k] * (X @ V[:, f] - X[:, k] * V[k, f])
            curvature = 0.25 * h @ h + lam
            if curvature > 0:
                values[k] -= (h @ residual() + lam * values[k]) / curvature
    return FMParams(bias, w, V)


class TestMapTrainer:
    def test_loss_decreases_on_separable_toy(self):
        labels = np.array([i % 2 for i in range(20)])
        data = matrix_from_rows(2, [[(i % 2, 1.0)] for i in range(20)], labels)
        log = SweepLog()
        train_map_logit(data, TrainConfig(epochs=10, seed=0), after_sweep=log)
        losses = [nll(Link.LOGIT.inverse(scores), labels) for _, scores, _ in log]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_seeded_determinism(self):
        rng = np.random.default_rng(3)
        data = make_matrix(rng, n_rows=50, width=10)
        cfg = TrainConfig(d=3, epochs=15, seed=9)
        a = train_map_logit(data, cfg)
        b = train_map_logit(data, cfg)
        assert a.bias == b.bias
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.V, b.V)

    def test_factor_overflow_alone_raises(self):
        # the end-of-epoch check sees a non-finite V even when bias and w are finite
        V = np.zeros((3, 2))
        V[1, 0] = np.inf
        with pytest.raises(TrainingDivergedError, match="at epoch 0$"):
            _finite(0.0, np.zeros(3), V, 0)

    @pytest.mark.parametrize("l2", [0.0, 0.05])
    @pytest.mark.parametrize("d", [0, 3])
    def test_one_sweep_equals_a_column_loop_in_class_order(self, d, l2):
        # columns of one class share no row, so stepping them together is
        # stepping them one at a time
        rng = np.random.default_rng(60 + d)
        data = make_matrix(rng, n_rows=60, width=12, untouched=2)
        cfg = TrainConfig(d=d, epochs=1, l2=l2, seed=3)
        ours, loop = train_map_logit(data, cfg), map_sweep_loop(data, cfg)
        assert ours.bias == pytest.approx(loop.bias, rel=1e-12)
        np.testing.assert_allclose(ours.w, loop.w, rtol=0, atol=1e-12 * np.abs(loop.w).max())
        if d:
            np.testing.assert_allclose(ours.V, loop.V, rtol=0, atol=1e-12 * np.abs(loop.V).max())

    def test_constant_labels_warn(self):
        data = matrix_from_rows(2, [[(0, 1.0)]] * 5, np.ones(5, dtype=int))
        with pytest.warns(UserWarning, match="identical"):
            train_map_logit(data, TrainConfig(epochs=1))

    def test_empty_matrix_rejected(self):
        data = matrix_from_rows(2, [], np.array([], dtype=int))
        with pytest.raises(ValueError):
            train_map_logit(data, TrainConfig(epochs=1))

    def test_fits_the_penalized_objective(self):
        # at d = 0 the fit minimizes mean NLL + (l2 / 2) * |w|^2, bias
        # unpenalized: it stops on its tolerance, hands after_sweep the objective
        # of what it returns, and lands within 1e-6 of an L-BFGS fit's objective and
        # within 1e-3 of its predictions
        rng = np.random.default_rng(5)
        data = make_matrix(rng, n_rows=100, width=12, max_nnz=4)
        l2 = 0.1
        log = SweepLog()
        params = train_map_logit(data, TrainConfig(epochs=2000, l2=l2, seed=0), after_sweep=log)
        assert len(log) < 2000
        assert log[-1][2] == pytest.approx(map_objective(params, data, l2), rel=1e-12)

        X = to_dense(data)
        y = data.labels.astype(np.float64)

        def objective(theta):
            z = theta[0] + X @ theta[1:]
            r = (expit(z) - y) / len(y)
            value = np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * theta[1:] @ theta[1:]
            return value, np.concatenate(([r.sum()], X.T @ r + l2 * theta[1:]))

        fit = minimize(objective, np.zeros(X.shape[1] + 1), jac=True, method="L-BFGS-B",
                       options={"maxiter": 10_000, "ftol": 1e-15, "gtol": 1e-10})
        assert np.abs(fit.jac).max() <= 1e-6
        assert map_objective(params, data, l2) - fit.fun <= 1e-6
        oracle = expit(fit.x[0] + X @ fit.x[1:])
        assert np.abs(Link.LOGIT.inverse(raw_scores(params, data)) - oracle).max() <= 1e-3

    @settings(max_examples=100, deadline=None)
    @given(dm=design_matrices(), d=st.integers(0, 2), l2=st.sampled_from([0.0, 1e-3]))
    def test_objective_never_rises(self, dm, d, l2):
        # each step minimizes a quadratic that lies above the objective, so no
        # sweep raises it beyond float64 rounding. |x| is clipped into
        # [1e-3, 300], the range of one-hots and counters: far beyond it the
        # cancellation in the pairwise term, not the fit, moves the score
        # by more than that rounding
        assume(len(dm) > 0)
        dm = DesignMatrix(dm.space, dm.indptr, dm.indices,
                          np.sign(dm.data) * np.clip(np.abs(dm.data), 1e-3, 300.0), dm.labels)
        cfg = TrainConfig(d=d, epochs=8, l2=l2, seed=1)
        log = SweepLog()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # constant labels
            train_map_logit(dm, cfg, after_sweep=log)
        objectives = [map_objective(start_params(cfg, dm.space.width), dm, l2)]
        objectives += [objective for _, _, objective in log]
        assert all(b <= a + 1e-12 * abs(a) for a, b in zip(objectives, objectives[1:]))


def test_epoch_logs_read_the_carried_scores(monkeypatch):
    # a fit hands after_sweep the scores it carries, and re-scores no train set for
    # it: the MAP fit never calls raw_scores, and Gibbs calls it once, to check its
    # carried scores at the end
    import ktfm.training as training

    calls = []
    monkeypatch.setattr(training, "raw_scores", lambda *args: calls.append(1) or raw_scores(*args))
    data = make_matrix(np.random.default_rng(8), n_rows=50, width=10)
    log = SweepLog()
    params = train_map_logit(data, TrainConfig(d=2, epochs=5, seed=1), after_sweep=log)
    assert len(calls) == 0 and [sweep for sweep, _, _ in log] == [0, 1, 2, 3, 4]
    np.testing.assert_allclose(log[-1][1], raw_scores(params, data), rtol=1e-12, atol=1e-12)
    log.clear()
    train_gibbs_probit(data, None, TrainConfig(d=2, epochs=5, seed=1), after_sweep=log)
    assert len(calls) == 1 and [sweep for sweep, _, _ in log] == [0, 1, 2, 3, 4]
    assert all(objective is None for _, _, objective in log)


@pytest.mark.parametrize("d", [0, 2])
def test_after_sweep_sees_the_fit_and_leaves_it_alone(d):
    # a fit with a callback gives the bytes of one without, and the scores it hands
    # over are read-only
    data = make_matrix(np.random.default_rng(9), n_rows=50, width=10, untouched=1)
    test = make_matrix(np.random.default_rng(10), n_rows=20, width=10)
    config = TrainConfig(d=d, epochs=6, seed=2)

    def meddle(sweep, scores, objective):
        with pytest.raises(ValueError, match="read-only"):
            scores[0] = 0.0
        seen.append(sweep)

    for fit in (lambda **kw: train_map_logit(data, config, **kw),
                lambda **kw: train_gibbs_probit(data, test, config, **kw)):
        seen: list = []
        assert TestWholeRowClasses.fitted(lambda: fit(after_sweep=meddle)) == TestWholeRowClasses.fitted(fit)
        assert seen == list(range(6))


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

    @pytest.mark.parametrize("positive", [True, False])
    @pytest.mark.parametrize("mean", [-40.0, -8.0, -2.0, -1e-3, 0.0, 0.5, 3.0, 12.0])
    def test_matches_the_exact_truncated_cdf(self, mean, positive):
        # both proposals (plain normals above zero, Robert's exponential
        # below) against the exact CDF of Normal(mean, 1) given the sign
        n = 4000
        rng = np.random.default_rng(int(abs(mean) * 1000) + positive)
        z = sample_truncated_normal(np.full(n, mean), np.full(n, positive), rng)
        m, t = (mean, z) if positive else (-mean, -z)  # as a draw above zero
        assert (t > 0).all()
        # P(T <= t) = 1 - P(Normal(m, 1) > t) / P(Normal(m, 1) > 0)
        assert kstest(t, lambda x: -np.expm1(log_ndtr(m - x) - log_ndtr(m))).pvalue > 0.01

    def test_same_seed_same_bytes(self):
        means = np.random.default_rng(8).normal(scale=5.0, size=5000)
        positive = np.random.default_rng(9).random(5000) < 0.5
        draws = [sample_truncated_normal(means, positive, np.random.default_rng(10)).tobytes() for _ in range(2)]
        assert draws[0] == draws[1]
        assert draws[0] != sample_truncated_normal(means, positive, np.random.default_rng(11)).tobytes()

    def test_nan_mean_gives_nan(self):
        z = sample_truncated_normal(np.array([np.nan, -1.0, np.nan]), np.array([True, True, False]),
                                    np.random.default_rng(12))
        assert np.isnan(z[[0, 2]]).all() and z[1] > 0


class TestGibbsTrainer:
    def test_positive_labels_push_prediction_up(self):
        data = matrix_from_rows(1, [[(0, 1.0)]] * 30, np.ones(30, dtype=int))
        with pytest.warns(UserWarning):
            _, predictions = train_gibbs_probit(data, data, TrainConfig(epochs=100, seed=0))
        assert (predictions > 0.5).all()

    def test_same_seed_identical_output(self):
        rng = np.random.default_rng(11)
        data = make_matrix(rng, n_rows=60, width=10)
        test = make_matrix(np.random.default_rng(12), n_rows=20, width=10)
        cfg = TrainConfig(d=2, epochs=50, seed=21)
        a, a_predictions = train_gibbs_probit(data, test, cfg)
        b, b_predictions = train_gibbs_probit(data, test, cfg)
        assert a.bias == b.bias
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.V, b.V)
        assert np.array_equal(a_predictions, b_predictions)

    def test_seeded_fit_is_pinned_to_the_byte(self):
        # the sampler checks compare draws within a tolerance, so a change to the
        # arithmetic of a draw (say, dividing by prec + hh instead of multiplying by
        # its reciprocal) passes them; this digest of the posterior means does not.
        # A change meant to move the probit outputs updates it and says so.
        data = make_matrix(np.random.default_rng(11), n_rows=60, width=10)
        params, _ = train_gibbs_probit(data, None, TrainConfig(d=2, epochs=30, seed=21))
        fitted = np.float64(params.bias).tobytes() + params.w.tobytes() + params.V.tobytes()
        assert hashlib.sha256(fitted).hexdigest() == (
            "5e3959d981a30621112fd18315f89c743fe761968bac7ce6634194674cdba305"
        )

    def test_predictions_live_in_unit_interval(self):
        rng = np.random.default_rng(14)
        data = make_matrix(rng, n_rows=50, width=8)
        test = make_matrix(np.random.default_rng(15), n_rows=25, width=8)
        params, predictions = train_gibbs_probit(data, test, TrainConfig(d=3, epochs=40, seed=2))
        assert (predictions > 0).all()
        assert (predictions < 1).all()
        assert np.isfinite(params.w).all()

    def test_tracks_oracle_on_probit_generated_data(self):
        from ktfm import SynthSpec, auc, encode_dataset, generate_synthetic
        from ktfm import oracle_probabilities, preset_encoding

        data = generate_synthetic(
            SynthSpec("rasch", n_students=50, n_items=20, seed=11, link=Link.PROBIT)
        )
        config = preset_encoding("irt", d=0)
        dm = encode_dataset(data.triplets, None, config, 50, n_items=20)
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(dm))
        cut = int(0.8 * len(dm))
        train_idx, test_idx = np.sort(perm[:cut]), np.sort(perm[cut:])
        _, predictions = train_gibbs_probit(
            dm.subset(train_idx),
            dm.subset(test_idx),
            TrainConfig(epochs=500, burn_in=100, seed=1),
        )
        oracle = oracle_probabilities(data.truth, data.triplets)[test_idx]
        oracle_auc = auc(oracle, dm.labels[test_idx])
        gibbs_auc = auc(predictions, dm.labels[test_idx])
        assert abs(gibbs_auc - oracle_auc) <= 0.05

    def test_tracks_oracle_on_probit_ktm_data(self):
        # the ktm generator's own block set, counters included, fitted by Gibbs
        from ktfm import SynthSpec, auc, encode_dataset, generate_synthetic, oracle_probabilities
        from ktfm.datasets import GENERATOR_BLOCKS
        from ktfm.encoding import EncodingConfig

        data = generate_synthetic(
            SynthSpec("ktm", 80, 20, n_skills=4, d=2, attempts=2, link=Link.PROBIT, seed=2)
        )
        config = EncodingConfig(GENERATOR_BLOCKS["ktm"])
        dm = encode_dataset(data.triplets, data.qmatrix, config, 80)
        perm = np.random.default_rng(0).permutation(len(dm))
        cut = int(0.8 * len(dm))
        train_idx, test_idx = np.sort(perm[:cut]), np.sort(perm[cut:])
        _, predictions = train_gibbs_probit(
            dm.subset(train_idx), dm.subset(test_idx), TrainConfig(d=2, epochs=200, seed=1)
        )
        oracle = oracle_probabilities(data.truth, data.triplets)[test_idx]
        oracle_auc = auc(oracle, dm.labels[test_idx])
        gibbs_auc = auc(predictions, dm.labels[test_idx])
        assert abs(gibbs_auc - oracle_auc) <= 0.05

    def test_drifting_carried_scores_raise(self, monkeypatch):
        # a sweep that knocks the carried residuals off the scores its draws imply
        import ktfm.training as training

        sweep = training._sweep

        def drifting(values, blocks, empty, qf, e, group, rng):
            sweep(values, blocks, empty, qf, e, group, rng)
            e += 1e-5

        data = make_matrix(np.random.default_rng(3), n_rows=40, width=8)
        config = TrainConfig(d=1, epochs=3, seed=0)
        train_gibbs_probit(data, None, config)
        monkeypatch.setattr(training, "_sweep", drifting)
        with pytest.raises(TrainingDivergedError, match="drifted"):
            train_gibbs_probit(data, None, config)

    def test_burn_in_default_is_fifth(self):
        assert TrainConfig(epochs=500).effective_burn_in == 100
        assert TrainConfig(epochs=500, burn_in=42).effective_burn_in == 42


def reference_gibbs(train, test, config):
    """The Gibbs sampler as written before its sweep was blocked: one column
    at a time in column order, one scalar normal per column, and e[rows] and
    q_f[rows] gathered twice."""
    n, d = train.space.width, config.d
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(3)[2])
    start = start_params(config, n)
    bias, w, V = start.bias, start.w.copy(), start.V.copy()
    X = train.csr
    Xc = scipy_csr(train).tocsc()
    col_rows = [Xc.indices[Xc.indptr[k] : Xc.indptr[k + 1]] for k in range(n)]
    col_vals = [Xc.data[Xc.indptr[k] : Xc.indptr[k + 1]] for k in range(n)]
    col_sq = [float(v @ v) for v in col_vals]
    positive = train.labels.astype(bool)
    bias_group = _GroupState("bias and w")
    dim_groups = [_GroupState(f"V[:, {f}]") for f in range(d)]

    def draw(group, h_dot_r, h_dot_h):
        var = 1.0 / (group.precision + h_dot_h)
        mean = (group.precision * group.mean + h_dot_r) * var
        return mean + rng.standard_normal() * np.sqrt(var)

    kept, bias_sum, w_sum, V_sum = 0, 0.0, np.zeros_like(w), np.zeros_like(V)
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
        bias_group.resample(np.concatenate(([bias], w)), rng, it)
        for f in range(d):
            dim_groups[f].resample(V[:, f], rng, it)
        params = FMParams(bias, w, V)
        if it >= config.effective_burn_in:
            kept += 1
            bias_sum += bias
            w_sum += w
            V_sum += V
            test_sum += Link.PROBIT.inverse(raw_scores(params, test))
    mean = FMParams(bias_sum / kept, w_sum / kept, V_sum / kept)
    return mean, np.clip(test_sum / kept, 1e-15, 1.0 - 1e-15)


def column_loop(data, values, qf, e, group, noise):
    """One half-sweep drawn one column at a time, in the colouring's class order."""
    blocks, empty = _colour_blocks(data)
    Xc = scipy_csr(data).tocsc()
    prec, mean = group.precision, group.mean
    for k in np.concatenate([cols for cols, *_ in blocks]).tolist():
        rows, xv = Xc.indices[Xc.indptr[k] : Xc.indptr[k + 1]], Xc.data[Xc.indptr[k] : Xc.indptr[k + 1]]
        old = values[k]
        h = xv if qf is None else xv * (qf[rows] - xv * old)
        var = 1.0 / (prec + h @ h)
        new = (prec * mean + h @ (old * h - e[rows])) * var + noise[k] * math.sqrt(var)
        e[rows] += (new - old) * h
        if qf is not None:
            qf[rows] += (new - old) * xv
        values[k] = new
    values[empty] = mean + noise[empty] / math.sqrt(prec)


def reference_colours(data):
    """First-fit classes of the columns of ``data`` (-1 for a column no row
    touches), a column at a time: every touched column, in column order, takes
    the smallest class none of its rows is in yet, read from a rows x classes
    bool table that doubles when all its classes are taken."""
    Xc = scipy_csr(data).tocsc()
    colour = np.full(data.space.width, -1)
    used = np.zeros((len(data), 8), dtype=bool)
    for k in range(data.space.width):
        rows = Xc.indices[Xc.indptr[k] : Xc.indptr[k + 1]]
        if not rows.size:
            continue
        free = np.flatnonzero(~used[rows].any(axis=0))
        if free.size:
            c = free[0]
        else:
            c = used.shape[1]
            used = np.hstack([used, np.zeros_like(used)])
        colour[k] = c
        used[rows, c] = True
    return colour


def general_form(blocks, n_rows):
    """The classes of ``_colour_blocks`` with every whole-row class (rows and values
    None) spelt out as the general form: rows = arange, values = ones."""
    every, ones = np.arange(n_rows), np.ones(n_rows)
    return [(cols, every, ones, seg) if rows is None else (cols, rows, xv, seg) for cols, rows, xv, seg in blocks]


def whole_row(block, n_rows):
    """Whether a general-form class has an entry in every row, each of value 1."""
    cols, rows, xv, seg = block
    return rows.size == n_rows and bool((xv == 1.0).all())


def colours(data):
    """The class of every column in ``_colour_blocks(data)``, -1 for the untouched."""
    blocks, empty = _colour_blocks(data)
    colour = np.full(data.space.width, -1)
    for c, (cols, *_) in enumerate(blocks):
        colour[cols] = c
    assert (colour[empty] == -1).all()
    return colour


@st.composite
def blocked_matrices(draw):
    """Matrices over several blocks, some one-hot (at most one column per row)
    and some not, so that runs of row-disjoint columns span, stop inside and
    cross the blocks."""
    blocks = draw(st.lists(st.tuples(st.integers(1, 6), st.booleans()), min_size=1, max_size=5))
    space = FeatureSpace(tuple((f"b{i}", width) for i, (width, _) in enumerate(blocks)))
    rows = []
    for _ in range(draw(st.integers(0, 25))):
        row, offset = [], 0
        for width, one_hot in blocks:
            cols = draw(st.sets(st.integers(0, width - 1), max_size=1 if one_hot else width))
            row += [(offset + c, draw(st.sampled_from([1.0, 2.0, 7.0]))) for c in sorted(cols)]
            offset += width
        rows.append(row)
    return matrix_from_rows(space, rows, np.zeros(len(rows), dtype=np.int8))


class TestColouringOracle:
    @settings(max_examples=100, deadline=None)
    @given(dm=design_matrices())
    def test_single_block_matrices(self, dm):
        assert colours(dm).tolist() == reference_colours(dm).tolist()

    @settings(max_examples=150, deadline=None)
    @given(dm=blocked_matrices())
    # a conflict reaching back past the current run does not cut it: columns 1 and 2 share class 1
    @example(dm=matrix_from_rows(FeatureSpace((("b0", 3),)), [[(0, 1.0), (1, 1.0)], [(0, 1.0), (2, 1.0)]]))
    # the latest conflict of column 2 is the row's previous entry, column 1
    @example(dm=matrix_from_rows(FeatureSpace((("b0", 3),)), [[(0, 1.0), (1, 1.0), (2, 1.0)]]))
    # conflicts cross the block boundary: column 2 shares a row with 1, and 3 with 0
    @example(dm=matrix_from_rows(FeatureSpace((("b0", 2), ("b1", 2))), [[(0, 1.0), (3, 1.0)], [(1, 1.0), (2, 1.0)]]))
    def test_one_hot_and_shared_blocks(self, dm):
        assert colours(dm).tolist() == reference_colours(dm).tolist()

    @settings(max_examples=150, deadline=None)
    @given(dm=blocked_matrices())
    def test_each_class_holds_its_entries_in_row_order(self, dm):
        # the class steps gather and scatter by rows, and each bincount adds a
        # column's entries in row order, as the column loop does
        row_of_entry = np.repeat(np.arange(len(dm)), np.diff(dm.indptr))
        for cols, rows, vals, seg in general_form(_colour_blocks(dm)[0], len(dm)):
            assert np.all(np.diff(rows) > 0)
            ours = np.isin(dm.indices, cols)
            assert rows.tolist() == row_of_entry[ours].tolist()
            assert cols[seg].tolist() == dm.indices[ours].tolist()
            assert vals.tobytes() == dm.data[ours].tobytes()
            for j in range(cols.size):
                assert np.all(np.diff(rows[seg == j]) > 0)

    def test_more_than_64_classes(self):
        # an item block, then 140 skills that some rows hold all of, then
        # users whose rows already sit in 64 or more classes: three words
        rng = np.random.default_rng(23)
        space = FeatureSpace((("items", 30), ("skills", 140), ("users", 40)))
        rows = []
        for r in range(300):
            skills = np.arange(140) if r % 50 == 0 else np.sort(rng.choice(140, rng.integers(0, 70), replace=False))
            rows.append([(int(rng.integers(30)), 1.0)] + [(30 + int(k), 1.0) for k in skills]
                        + [(170 + int(rng.integers(40)), 1.0)])
        dm = matrix_from_rows(space, rows, rng.integers(0, 2, 300))
        expected = reference_colours(dm)
        assert expected[170:].max() >= 64 and expected.max() >= 128
        assert colours(dm).tolist() == expected.tolist()

    def test_zero_rows(self):
        dm = matrix_from_rows(FeatureSpace((("items", 3), ("skills", 2))), [], np.array([], dtype=np.int8))
        blocks, empty = _colour_blocks(dm)
        assert blocks == [] and empty.tolist() == [0, 1, 2, 3, 4]


class TestSharedColouring:
    @staticmethod
    def fitted_bytes(params):
        return np.float64(params.bias).tobytes() + params.w.tobytes() + params.V.tobytes()

    @pytest.mark.parametrize("d", [0, 2])
    def test_fits_handed_a_colouring_equal_fits_that_build_it(self, d):
        # cv fits every d of a preset on one fold's colouring, which must give the
        # bytes each fit gives alone and come back as it went in
        data = make_matrix(np.random.default_rng(31), n_rows=60, width=12, untouched=2)
        test = make_matrix(np.random.default_rng(32), n_rows=20, width=12)
        classes = _colour_blocks(data)
        arrays = [*(a for block in classes[0] for a in block), classes[1]]
        before = [a.tobytes() for a in arrays]
        config = TrainConfig(d=d, epochs=8, seed=5)
        for _ in range(2):
            shared = train_map_logit(data, config, classes=classes)
            assert self.fitted_bytes(shared) == self.fitted_bytes(train_map_logit(data, config))
            shared, shared_predictions = train_gibbs_probit(data, test, config, classes=classes)
            alone, alone_predictions = train_gibbs_probit(data, test, config)
            assert self.fitted_bytes(shared) == self.fitted_bytes(alone)
            assert shared_predictions.tobytes() == alone_predictions.tobytes()
        assert [a.tobytes() for a in arrays] == before
        assert not any(a.flags.writeable for a in arrays)


@st.composite
def whole_row_matrices(draw):
    """A ``design_matrices`` draw behind a one-hot block (so in class 0) that every
    row has with value 1, but for at most one flawed row, and with some of its own
    columns set to 1 on every row (each alone in a later class), so that whole-row
    classes and classes one entry short of them both come up."""
    dm = draw(design_matrices())
    n_rows, width = len(dm), dm.space.width
    tail = to_dense(dm)
    tail[:, sorted(draw(st.sets(st.integers(0, width - 1), max_size=2)))] = 1.0
    m = draw(st.integers(1, 3))
    head = np.zeros((n_rows, m))
    head[np.arange(n_rows), draw(st.lists(st.integers(0, m - 1), min_size=n_rows, max_size=n_rows))] = 1.0
    if n_rows and draw(st.booleans()):
        r = draw(st.integers(0, n_rows - 1))
        head[r] *= draw(st.sampled_from([0.0, 2.0, -1.0]))  # the row left out, or a value not 1
    space = FeatureSpace((("head", m), ("tail", width)))
    return matrix_from_dense(space, np.hstack([head, tail]), dm.labels)


class TestWholeRowClasses:
    @staticmethod
    def swept(values, classes, empty, qf, e, group, seed):
        """The error of one Gibbs half-sweep, if any, and the bytes it leaves."""
        try:
            _sweep(values, classes, empty, qf, e, group, np.random.default_rng(seed))
            raised = None
        except TrainingDivergedError as exc:
            raised = str(exc)
        return raised, values.tobytes(), e.tobytes(), None if qf is None else qf.tobytes()

    @staticmethod
    def fitted(fit):
        """The error of a fit, or the bytes of its parameters and test predictions."""
        try:
            out = fit()
        except TrainingDivergedError as exc:
            return str(exc)
        if isinstance(out, FMParams):
            return TestSharedColouring.fitted_bytes(out)
        params, predictions = out
        return TestSharedColouring.fitted_bytes(params), predictions.tobytes()

    @pytest.mark.filterwarnings("ignore")  # constant labels; products that overflow float64
    @settings(max_examples=150, deadline=None)
    @given(dm=design_matrices() | whole_row_matrices(), d=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_marked_classes_step_as_the_general_form(self, dm, d, seed):
        # a class is whole-row (rows and values None) just when it holds an entry
        # of value 1 in every row; stepping it on whole arrays gives the bytes of
        # the general path with rows = arange and values = ones
        blocks, empty = _colour_blocks(dm)
        general = general_form(blocks, len(dm))
        for block, spelt in zip(blocks, general):
            assert (block[1] is None) == (block[2] is None) == whole_row(spelt, len(dm))
        assume(len(dm))
        rng = np.random.default_rng(seed)
        group = _GroupState("g")
        group.mean, group.precision = rng.normal(), rng.gamma(2.0)
        w, V, e = rng.normal(size=dm.space.width), rng.normal(size=(dm.space.width, d)), rng.normal(size=len(dm))
        Q = (scipy_csr(dm) @ V).T
        config = TrainConfig(d=d, epochs=1, seed=seed)
        with np.errstate(all="ignore"):
            # one Gibbs half-sweep of w, then of each column of V
            for values, qf in [(w, None), *zip(V.T, Q)]:
                marked, spelt = (self.swept(values.copy(), classes, empty, None if qf is None else qf.copy(), e.copy(),
                                            group, seed) for classes in (blocks, general))
                assert marked == spelt
            # one MAP sweep and one Gibbs iteration, start scores included
            for fit in (lambda classes: train_map_logit(dm, config, classes=classes),
                        lambda classes: train_gibbs_probit(dm, dm, config, classes=classes)):
                assert self.fitted(lambda: fit((blocks, empty))) == self.fitted(lambda: fit((general, empty)))


def factor_scores_by_class_steps(V, blocks, n_rows):
    """The start scores and Q as both trainers once built them: every column of
    V stepped from zero to its value by ``_class_steps``, a class at a time."""
    scores, Q = np.zeros(n_rows), np.zeros((V.shape[1], n_rows))
    for f in range(V.shape[1]):
        _class_steps(np.zeros(len(V)), blocks, Q[f], scores, lambda rows, old, h: 0.0,
                     lambda cols, old, hh, hr: V[cols, f])
    return scores, Q


class TestSetup:
    def assert_same_start(self, dm, d, seed):
        assume(len(dm))
        config = TrainConfig(d=d, seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # constant labels
            bias, w, V, blocks, empty, scores, Q = _setup(dm, config)
        start = start_params(config, dm.space.width)
        assert bias == 0.0 and w.tobytes() == start.w.tobytes() and V.tobytes() == start.V.tobytes()
        expected_blocks, expected_empty = _colour_blocks(dm)
        assert empty.tolist() == expected_empty.tolist() and len(blocks) == len(expected_blocks)
        expected_scores, expected_Q = factor_scores_by_class_steps(V, expected_blocks, len(dm))
        assert scores.tobytes() == expected_scores.tobytes()
        assert Q.tobytes() == expected_Q.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # products that overflow float64
    @pytest.mark.parametrize("d", [1, 3])
    @settings(max_examples=60, deadline=None)
    @given(dm=design_matrices(), seed=st.integers(0, 2**32 - 1))
    def test_start_scores_equal_the_class_steps_on_one_block(self, d, dm, seed):
        self.assert_same_start(dm, d, seed)

    @pytest.mark.parametrize("d", [1, 3])
    @settings(max_examples=60, deadline=None)
    @given(dm=blocked_matrices(), seed=st.integers(0, 2**32 - 1))
    def test_start_scores_equal_the_class_steps_on_blocks(self, d, dm, seed):
        self.assert_same_start(dm, d, seed)

    def test_d0_starts_from_zero_scores(self):
        data = make_matrix(np.random.default_rng(3))
        bias, w, V, blocks, empty, scores, Q = _setup(data, TrainConfig(d=0))
        assert V.shape == (12, 0) and Q.shape == (0, 40) and not scores.any() and not w.any()


class TestBlockedSweep:
    @pytest.mark.parametrize("d", [0, 3])
    def test_half_sweeps_equal_a_column_loop_in_class_order(self, d):
        rng = np.random.default_rng(70 + d)
        data = make_matrix(rng, n_rows=60, width=12, untouched=2)
        X = data.csr
        blocks, empty = _colour_blocks(data)
        assert len(blocks) > 1 and empty.tolist() == [10, 11]
        group = _GroupState("g")
        group.mean, group.precision = 0.3, 2.5
        w, e = rng.normal(size=12), rng.normal(size=60)
        V = rng.normal(size=(12, d))

        def same(blocked, looped):
            # relative to the array's scale: an update can cancel one residual to near zero
            assert np.abs(blocked - looped).max() <= 1e-12 * np.abs(looped).max()

        w_blocked, e_blocked, w_loop, e_loop = w.copy(), e.copy(), w.copy(), e.copy()
        _sweep(w_blocked, blocks, empty, None, e_blocked, group, np.random.default_rng(5))
        column_loop(data, w_loop, None, e_loop, group, np.random.default_rng(5).standard_normal(12))
        same(w_blocked, w_loop)
        same(e_blocked, e_loop)
        assert not np.allclose(w_blocked, w)

        for f in range(d):
            # the sweep writes through the view V[:, f] and leaves the other factors alone
            V_blocked, e_blocked, V_loop, e_loop = V.copy(), e.copy(), V.copy(), e.copy()
            qf_blocked, qf_loop = X @ V[:, f], X @ V[:, f]
            _sweep(V_blocked[:, f], blocks, empty, qf_blocked, e_blocked, group, np.random.default_rng(f))
            column_loop(data, V_loop[:, f], qf_loop, e_loop, group, np.random.default_rng(f).standard_normal(12))
            same(V_blocked, V_loop)
            same(e_blocked, e_loop)
            same(qf_blocked, qf_loop)
            same(qf_blocked, X @ V_blocked[:, f])
            assert np.delete(V_blocked, f, axis=1).tobytes() == np.delete(V, f, axis=1).tobytes()
            assert not np.allclose(V_blocked[:, f], V[:, f])

    @settings(max_examples=100, deadline=None)
    @given(dm=design_matrices())
    def test_colouring_splits_touched_columns_into_row_disjoint_classes(self, dm):
        Xc = scipy_csr(dm).tocsc()
        blocks, empty = _colour_blocks(dm)
        counts = np.diff(Xc.indptr)
        touches = Xc.toarray() != 0
        coloured = [k for cols, *_ in blocks for k in cols.tolist()]
        assert sorted(coloured) == np.flatnonzero(counts).tolist()
        assert empty.tolist() == np.flatnonzero(counts == 0).tolist()
        for c, (cols, rows, vals, seg) in enumerate(general_form(blocks, len(dm))):
            assert cols.size and np.all(np.diff(cols) > 0)
            assert np.unique(rows).size == rows.size  # no two columns of a class share a row
            for j, k in enumerate(cols.tolist()):
                lo, hi = Xc.indptr[k], Xc.indptr[k + 1]
                assert rows[seg == j].tolist() == Xc.indices[lo:hi].tolist()
                assert vals[seg == j].tobytes() == Xc.data[lo:hi].tobytes()
                # first fit: every lower class holds an earlier column sharing a row with k
                for lower in blocks[:c]:
                    assert any((touches[:, i] & touches[:, k]).any() for i in lower[0].tolist() if i < k)
        # fast indexing; a whole-row class has no rows
        assert all(a.dtype == np.intp for _, rows, _, seg in blocks for a in (rows, seg) if a is not None)
        again, again_empty = _colour_blocks(dm)
        assert again_empty.tobytes() == empty.tobytes()
        assert [rows is None for _, rows, *_ in again] == [rows is None for _, rows, *_ in blocks]
        for ours, theirs in zip(general_form(blocks, len(dm)), general_form(again, len(dm))):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(ours, theirs))

    def test_colouring_reads_columns_past_16_bits(self):
        # the column sort runs in two 16-bit passes, so columns that agree in
        # their low 16 bits must still come apart, in column order
        rng = np.random.default_rng(9)
        picks = np.array([3, 3 + 2**16, 5 + 2**16, 3 + 2**17, 2**17 + 2**16 + 1])
        rows = [
            [(int(c), float(v)) for c, v in zip(np.sort(rng.choice(picks, 3, replace=False)), rng.integers(1, 9, 3))]
            for _ in range(30)
        ]
        dm = matrix_from_rows(2**18, rows, rng.integers(0, 2, 30))
        Xc = scipy_csr(dm).tocsc()
        blocks, empty = _colour_blocks(dm)
        assert sorted(k for cols, *_ in blocks for k in cols.tolist()) == picks.tolist()
        assert empty.size == 2**18 - picks.size
        for cols, rows, vals, seg in blocks:
            for j, k in enumerate(cols.tolist()):
                lo, hi = Xc.indptr[k], Xc.indptr[k + 1]
                assert rows[seg == j].tolist() == Xc.indices[lo:hi].tolist()
                assert vals[seg == j].tobytes() == Xc.data[lo:hi].tobytes()

    @pytest.mark.parametrize("top", [0, 3, 255, 256, 2**16 - 1, 2**16, 2**33])
    def test_stable_order_is_numpys_stable_argsort(self, top):
        # keys of 8, 16, 32 and more bits: numpy's radix sort takes 16 at most
        keys = np.random.default_rng(top % 997).integers(0, top + 1, 3000)
        keys[17] = top
        assert _stable_order(keys).tolist() == np.argsort(keys, kind="stable").tolist()

    def test_non_finite_conditional_variance_raises(self):
        # zero factors make h vanish, so a zero prior precision leaves a zero conditional one
        blocks, empty = _colour_blocks(matrix_from_rows(2, [[(0, 1.0), (1, 2.0)], [(1, 1.0)]]))
        group = _GroupState("V[:, 0]")
        group.precision = 0.0
        with np.errstate(divide="ignore"), pytest.raises(TrainingDivergedError, match="variance"):
            _sweep(np.zeros(2), blocks, empty, np.zeros(2), np.zeros(2), group, np.random.default_rng(0))

    def test_precision_underflow_raises(self):
        # a huge spread sends the gamma rate to inf and the drawn precision to 0
        match = r"group V\[:, 1\] drew precision 0.0 at sweep 7"
        with np.errstate(over="ignore"), pytest.raises(TrainingDivergedError, match=match):
            _GroupState("V[:, 1]").resample(np.array([1e200, 0.0]), np.random.default_rng(0), 7)

    def test_matches_the_column_order_sampler_over_seeds(self):
        # the blocked scan changes the draw order, not the stationary law: over
        # seeds, the held-out AUC and NLL of both samplers agree within three
        # standard errors of their seed-to-seed spread
        from ktfm import SynthSpec, auc, encode_dataset, generate_synthetic, preset_encoding

        data = generate_synthetic(
            SynthSpec("mirt", n_students=30, n_items=15, d=2, link=Link.PROBIT, seed=3, scale=1.5)
        )
        dm = encode_dataset(data.triplets, None, preset_encoding("mirtb", d=2), 30, n_items=15)
        perm = np.random.default_rng(0).permutation(len(dm))
        cut = int(0.8 * len(dm))
        train, test = dm.subset(np.sort(perm[:cut])), dm.subset(np.sort(perm[cut:]))
        seeds = range(1, 9)

        def scores(predictions):
            return auc(predictions, test.labels), nll(predictions, test.labels)

        configs = [TrainConfig(d=2, epochs=60, burn_in=20, seed=s) for s in seeds]
        new = np.array([scores(train_gibbs_probit(train, test, cfg)[1]) for cfg in configs])
        old = np.array([scores(reference_gibbs(train, test, cfg)[1]) for cfg in configs])
        standard_error = np.sqrt((new.var(axis=0, ddof=1) + old.var(axis=0, ddof=1)) / len(seeds))
        assert (np.abs(new.mean(axis=0) - old.mean(axis=0)) <= 3 * standard_error).all()
