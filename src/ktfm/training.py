"""Model fitting: MAP gradient descent (logit) and Gibbs sampling (probit).

MAP descent fits the logit NLL plus an L2 penalty on the per-feature
parameters (the penalty plays the role of fixed Gaussian priors; the global
bias is not penalized). The two modes fit different objectives when l2 > 0:

- per-row SGD shrinks only the columns the current row touches, so an epoch
  penalizes a column once per row that contains it. It minimizes
  mean NLL + (l2 / 2) * sum_k (n_k / N) * |theta_k|^2, where n_k of the N
  rows touch column k: frequent columns are penalized more;
- full-batch descent penalizes every column once per epoch, minimizing
  mean NLL + (l2 / 2) * sum_k |theta_k|^2.

The Gibbs sampler treats each binary outcome through a latent Gaussian
utility:

    z_i ~ Normal(score_i, 1), truncated to (0, inf) when y_i = 1
                              and to (-inf, 0) when y_i = 0,

then draws every parameter from its Gaussian conditional, which is available
in closed form because the score is linear in each single parameter. Biases
share one (mean, precision) prior group; each factor dimension gets its own
group; group means and precisions are resampled from fixed Normal(0, 1) and
Gamma(1, 1) hyperpriors, as in libFM's MCMC. Test predictions are averaged
over the post-burn-in iterations.

Both inner loops keep scalars as plain floats, with one gather and one scatter
per SGD row or Gibbs column. A sweep takes its noise as one vector of normals,
the same stream as one draw per column; tests pin both loops bit for bit to
reference loops that gather twice and draw per column.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from .model import PROB_EPS, FMParams, Link, raw_scores
from .sparse import DesignMatrix

NLL_EPS = 1e-12
_TINY = np.finfo(np.float64).tiny
# Hyperpriors of every Gibbs group: mean ~ Normal(0, 1 / _MEAN_PRIOR_PRECISION),
# precision ~ Gamma(_PRECISION_SHAPE, _PRECISION_RATE)
_MEAN_PRIOR_PRECISION = 1.0
_PRECISION_SHAPE = 1.0
_PRECISION_RATE = 1.0


class TrainingDivergedError(RuntimeError):
    """Loss or parameters became non-finite (learning rate too large)."""


@dataclass(frozen=True)
class TrainConfig:
    """Knobs shared by both trainers; `epochs` doubles as MCMC iterations."""

    d: int = 0
    epochs: int = 200
    learning_rate: float = 0.01
    l2: float = 0.0
    seed: int = 0
    init_scale: float = 0.01
    full_batch: bool = False
    burn_in: int | None = None  # Gibbs only; defaults to epochs // 5

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("d must be >= 0")
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if self.l2 < 0:
            raise ValueError("l2 must be nonnegative")
        if self.init_scale <= 0:
            raise ValueError("init scale must be positive")
        if self.burn_in is not None and not 0 <= self.burn_in < self.epochs:
            raise ValueError("burn-in must lie in [0, epochs)")

    def replace(self, **kwargs) -> "TrainConfig":
        return replace(self, **kwargs)

    @property
    def effective_burn_in(self) -> int:
        return self.epochs // 5 if self.burn_in is None else self.burn_in


@dataclass(frozen=True)
class GibbsOutput:
    """Posterior-mean parameters plus, given a test set, averaged test predictions."""

    params: FMParams
    test_predictions: np.ndarray | None


def nll(predictions: Sequence[float], labels: Sequence[int]) -> float:
    """Mean negative log-likelihood of Bernoulli outcomes.

    Probabilities are clamped to [eps, 1 - eps] with eps = 1e-12 so that
    saturated predictions stay finite.
    """
    p = np.asarray(predictions, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if p.shape != y.shape or p.ndim != 1:
        raise ValueError(f"shape mismatch: {p.shape} predictions, {y.shape} labels")
    if p.size == 0:
        raise ValueError("empty prediction list")
    p = np.clip(p, NLL_EPS, 1.0 - NLL_EPS)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))


def init_params(config: TrainConfig, n_features: int) -> FMParams:
    """Zero biases; factor entries i.i.d. Normal(0, init_scale^2)."""
    if config.d == 0:
        return FMParams(0.0, np.zeros(n_features))
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    V = config.init_scale * rng.standard_normal((n_features, config.d))
    return FMParams(0.0, np.zeros(n_features), V)


def _check_labels(data: DesignMatrix) -> None:
    labels = data.labels
    if labels.size and (labels == labels[0]).all():
        warnings.warn(
            "all training labels are identical; the fit is degenerate",
            stacklevel=3,
        )


def _finite(bias: float, w: np.ndarray, V: np.ndarray | None, epoch: int) -> FMParams:
    """The current parameters, or TrainingDivergedError if any is not finite."""
    if not (np.isfinite(bias) and np.isfinite(w).all() and (V is None or np.isfinite(V).all())):
        raise TrainingDivergedError(f"non-finite parameters at epoch {epoch}")
    return FMParams(bias, w, V)


def _epoch_metrics(params: FMParams, train, test, link) -> dict:
    from .evaluation import accuracy, auc  # local import to avoid a cycle

    row = {"train_nll": nll(link.inverse(raw_scores(params, train)), train.labels)}
    if test is not None:
        p = link.inverse(raw_scores(params, test))
        row["test_acc"] = accuracy(p, test.labels)
        try:
            row["test_auc"] = auc(p, test.labels)
        except ValueError:
            row["test_auc"] = float("nan")
        row["test_nll"] = nll(p, test.labels)
    return row


def _logistic(z: float) -> float:
    """``float(Link.LOGIT.inverse(z))`` without numpy's per-call cost (exp(-z) overflows below -709)."""
    return PROB_EPS if z < -709.0 else min(max(1.0 / (1.0 + math.exp(-z)), PROB_EPS), 1.0 - PROB_EPS)


def _row_gradient(
    bias: float, wk: np.ndarray, Vk: np.ndarray | None, xv: np.ndarray, y: float
) -> tuple[float, np.ndarray | None]:
    """Logit-NLL gradient of one row with entries ``xv``, given ``wk = w[idx]`` and ``Vk = V[idx]``.

    Returns the residual g = p - y, which is d loss / d bias and, times
    ``xv``, d loss / d w[idx]; and, when Vk is set, d loss / d V[idx]. The SGD
    loop takes every step from this function, so checking it against finite
    differences checks the trainer's own gradient.
    """
    z = bias + wk @ xv
    if Vk is not None:
        vx = Vk * xv[:, None]
        qf = vx.sum(axis=0)
        z += 0.5 * (qf @ qf - (vx * vx).sum())
    g = _logistic(z) - y
    if Vk is None:
        return g, None
    return g, g * (xv[:, None] * qf[None, :] - (xv * xv)[:, None] * Vk)


def train_map_logit(
    data: DesignMatrix,
    config: TrainConfig,
    *,
    test: DesignMatrix | None = None,
    epoch_log: list | None = None,
) -> FMParams:
    """MAP fit under the logit link.

    Default mode is per-row stochastic gradient descent with seed-driven
    shuffling each epoch; ``full_batch=True`` switches to deterministic
    full-gradient descent (the convex d = 0 case decreases monotonically
    there). The per-example update uses the residual (p - y) times

        d score / d w_k    = x_k
        d score / d V_kf   = x_k * q_f - x_k^2 * V_kf,   q_f = sum_l x_l V_lf.
    """
    if len(data) == 0:
        raise ValueError("cannot train on an empty design matrix")
    _check_labels(data)

    start = init_params(config, data.space.width)
    bias = start.bias
    w = start.w.copy()
    V = None if start.V is None else start.V.copy()
    lr, l2 = config.learning_rate, config.l2
    y = data.labels.astype(np.float64)
    X = data.csr
    cols, vals = X.indices, X.data
    row_ptr, labels = X.indptr.tolist(), y.tolist()

    shuffle_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(2)[1])

    params = start
    for epoch in range(config.epochs):
        if config.full_batch:
            r = (Link.LOGIT.inverse(raw_scores(params, data)) - y) * (1.0 / len(data))
            bias -= lr * float(r.sum())
            w -= lr * (X.T @ r + l2 * w)
            if V is not None:
                q = X @ V
                V -= lr * (X.T @ (r[:, None] * q) - (data.csr_squared.T @ r)[:, None] * V + l2 * V)
        else:
            for r in shuffle_rng.permutation(len(data)).tolist():
                lo, hi = row_ptr[r], row_ptr[r + 1]
                idx = cols[lo:hi]
                xv = vals[lo:hi]
                wk = w[idx]
                Vk = None if V is None else V[idx]
                g, gV = _row_gradient(bias, wk, Vk, xv, labels[r])
                bias -= lr * g
                w[idx] = wk - lr * (g * xv + l2 * wk)
                if V is not None:
                    V[idx] = Vk - lr * (gV + l2 * Vk)
        params = _finite(bias, w, V, epoch)
        if epoch_log is not None:
            epoch_log.append({"epoch": epoch, **_epoch_metrics(params, data, test, Link.LOGIT)})
    return params


def sample_truncated_normal(
    means: np.ndarray, positive: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Unit-variance normal draws constrained to the sign given by ``positive``.

    Uses the inverse upper-tail CDF, which stays accurate when the mean sits
    many standard deviations on the wrong side of zero.
    """
    means = np.asarray(means, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    signed = np.where(positive, means, -means)
    u = rng.uniform(size=means.shape)
    tail = ndtr(signed)  # P(z > 0) for a unit normal centered at `signed`
    v = np.clip(u * tail, _TINY, 1.0)
    z = signed - ndtri(v)
    z = np.maximum(z, _TINY)  # guard the exact-zero corner
    return np.where(positive, z, -z)


class _GroupState:
    """Prior mean and precision of one parameter group."""

    __slots__ = ("mean", "precision")

    def __init__(self):
        self.mean = 0.0
        self.precision = 1.0

    def resample(self, values: np.ndarray, rng) -> None:
        n = values.size
        # precision | values ~ Gamma(shape + n/2, rate + sum sq dev / 2)
        shape = _PRECISION_SHAPE + 0.5 * n
        rate = _PRECISION_RATE + 0.5 * float(((values - self.mean) ** 2).sum())
        lam = rng.gamma(shape, 1.0 / rate)
        if not np.isfinite(lam) or lam <= 0.0:
            lam = 1.0  # precision underflow guard
        self.precision = float(lam)
        # mean | values: Normal(0, 1 / _MEAN_PRIOR_PRECISION) prior
        post_prec = _MEAN_PRIOR_PRECISION + n * self.precision
        post_mean = self.precision * float(values.sum()) / post_prec
        self.mean = float(post_mean + rng.standard_normal() / np.sqrt(post_prec))


def _draw(prior: float, prior_prec: float, h_dot_r: float, h_dot_h: float, noise: float) -> float:
    """Gaussian conditional draw given unit normal ``noise``; ``prior`` = prior precision * mean."""
    prec = prior_prec + h_dot_h
    var = 1.0 / prec
    if not math.isfinite(var):
        raise TrainingDivergedError("non-finite conditional variance in Gibbs sweep")
    return (prior + h_dot_r) * var + noise * math.sqrt(var)


def _sweep(values: np.ndarray, columns, qf: np.ndarray | None, e: np.ndarray, group, rng) -> None:
    """Draw every entry of ``values`` in column order, in place.

    On the rows of column k, d score / d entry k is h: the column's values for
    w (``qf`` None), or x_k * (q_f - x_k * V[k, f]) for factor f, whose
    q_f = X @ V[:, f] is kept in sync, as are the residuals ``e``. A column no
    row touches is a pure prior draw. Entry k takes the k-th of one vector of normals.
    """
    mean, prec = group.mean, group.precision
    prior, root = prec * mean, math.sqrt(prec)
    noise = rng.standard_normal(len(values)).tolist()
    drawn = values.tolist()
    for k, (rows, xv) in enumerate(columns):
        if not rows.size:
            drawn[k] = mean + noise[k] / root
            continue
        old = drawn[k]
        er = e[rows]
        qr = None if qf is None else qf[rows]
        h = xv if qf is None else xv * (qr - xv * old)
        new = _draw(prior, prec, float(h @ (old * h - er)), float(h @ h), noise[k])
        delta = new - old
        e[rows] = er + delta * h
        if qf is not None:
            qf[rows] = qr + delta * xv
        drawn[k] = new
    values[:] = drawn


def train_gibbs_probit(
    train: DesignMatrix,
    test: DesignMatrix | None = None,
    config: TrainConfig = TrainConfig(),
    *,
    epoch_log: list | None = None,
) -> GibbsOutput:
    """Bayesian fit under the probit link via latent-utility Gibbs sampling.

    Each iteration (1) draws the latent utilities truncated to the side their
    label dictates, (2) sweeps bias, w, and V in fixed order drawing each from
    its Gaussian conditional while keeping the score residuals in sync, and
    (3) resamples the per-group prior means and precisions. After burn-in,
    parameters are accumulated into a posterior mean and test probabilities
    into a running average.
    """
    if len(train) == 0:
        raise ValueError("cannot train on an empty design matrix")
    _check_labels(train)

    n = train.space.width
    d = config.d
    iters = config.epochs
    burn_in = config.effective_burn_in

    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(3)[2])

    start = init_params(config, n)
    bias = start.bias
    w = start.w.copy()
    V = None if start.V is None else start.V.copy()

    X = train.csr
    Xc = X.tocsc()
    cut = Xc.indptr.tolist()
    columns = [(Xc.indices[a:b], Xc.data[a:b]) for a, b in zip(cut, cut[1:])]
    positive = train.labels.astype(bool)

    bias_group = _GroupState()
    dim_groups = [_GroupState() for _ in range(d)]

    kept = 0
    bias_sum = 0.0
    w_sum = np.zeros_like(w)
    V_sum = None if V is None else np.zeros_like(V)
    test_sum = None if test is None else np.zeros(len(test))

    params = start
    for it in range(iters):
        scores = raw_scores(params, train)
        z = sample_truncated_normal(scores, positive, rng)
        e = scores - z  # running residual, kept in sync below

        # global bias: d score / d bias = 1 for every row
        prec, h_dot_r = bias_group.precision, float((bias - e).sum())
        new_bias = _draw(prec * bias_group.mean, prec, h_dot_r, float(len(train)), rng.standard_normal())
        e += new_bias - bias
        bias = new_bias

        _sweep(w, columns, None, e, bias_group, rng)
        if V is not None:
            for f in range(d):
                _sweep(V[:, f], columns, X @ V[:, f], e, dim_groups[f], rng)

        bias_group.resample(np.concatenate(([bias], w)), rng)
        if V is not None:
            for f in range(d):
                dim_groups[f].resample(V[:, f], rng)

        params = _finite(bias, w, V, it)
        if it >= burn_in:
            kept += 1
            bias_sum += bias
            w_sum += w
            if V_sum is not None:
                V_sum += V
            if test_sum is not None:
                test_sum += Link.PROBIT.inverse(raw_scores(params, test))

        if epoch_log is not None:
            epoch_log.append({"epoch": it, **_epoch_metrics(params, train, test, Link.PROBIT)})

    mean_params = FMParams(
        bias_sum / kept,
        w_sum / kept,
        None if V_sum is None else V_sum / kept,
    )
    test_pred = None if test is None else np.clip(test_sum / kept, 1e-15, 1.0 - 1e-15)
    return GibbsOutput(mean_params, test_pred)
