"""Model fitting: MAP by per-row SGD (logit) and Gibbs sampling (probit).

The MAP fit is per-row stochastic gradient descent on the logit NLL with an
L2 penalty on the per-feature parameters (fixed Gaussian priors; the global
bias is not penalized). A step shrinks only the columns its row touches, so
an epoch penalizes a column once per row that contains it, and the fit
minimizes

    mean NLL + (l2 / 2) * sum_k (n_k / N) * |theta_k|^2,

where n_k of the N rows touch column k and theta_k is w_k and V[k]: frequent
columns are penalized more.

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

The SGD loop keeps scalars as plain floats, with one gather and one scatter
per row; a test pins it bit for bit to a reference loop that gathers twice.

A Gibbs half-sweep (w, or one column of V) is blocked: columns that share no
training row have independent conditionals given the residuals, so the
columns are coloured once per fit, first-fit in column order, into classes
whose columns share no row, and each class is drawn in one numpy step
(Freudenthaler et al., Bayesian Factorization Machines, 2011). Within a
half-sweep the classes are drawn in class order, and column k takes the k-th
of one vector of normals. Tests check a blocked half-sweep against a loop that
draws one column at a time in that order, and the sampler against the older
column-order one by held-out AUC and NLL over several seeds.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import PROB_EPS, FMParams, Link, raw_scores
from .sparse import DesignMatrix

NLL_EPS = 1e-12
_INIT_SCALE = 0.01  # standard deviation of the initial factor entries
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
        if self.burn_in is not None and not 0 <= self.burn_in < self.epochs:
            raise ValueError("burn-in must lie in [0, epochs)")

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
    """Zero biases; factor entries i.i.d. Normal(0, 0.01^2)."""
    if config.d == 0:
        return FMParams(0.0, np.zeros(n_features))
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    V = _INIT_SCALE * rng.standard_normal((n_features, config.d))
    return FMParams(0.0, np.zeros(n_features), V)


def _start(data: DesignMatrix, config: TrainConfig) -> tuple[float, np.ndarray, np.ndarray | None]:
    """Both trainers' opening: reject empty data, warn on constant labels, and
    return writable copies of the bias, w and V of ``init_params``."""
    if len(data) == 0:
        raise ValueError("cannot train on an empty design matrix")
    labels = data.labels
    if (labels == labels[0]).all():
        warnings.warn(
            "all training labels are identical; the fit is degenerate",
            stacklevel=3,
        )
    start = init_params(config, data.space.width)
    return start.bias, start.w.copy(), None if start.V is None else start.V.copy()


def _finite(bias: float, w: np.ndarray, V: np.ndarray | None, epoch: int) -> FMParams:
    """The current parameters, or TrainingDivergedError if any is not finite."""
    if not (np.isfinite(bias) and np.isfinite(w).all() and (V is None or np.isfinite(V).all())):
        raise TrainingDivergedError(f"non-finite parameters at epoch {epoch}")
    return FMParams(bias, w, V)


def _epoch_row(epoch: int, params: FMParams, data: DesignMatrix, link: Link) -> dict:
    """One row of the epoch log: the epoch and its train NLL."""
    return {"epoch": epoch, "train_nll": nll(link.inverse(raw_scores(params, data)), data.labels)}


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
    data: DesignMatrix, config: TrainConfig, *, epoch_log: list | None = None
) -> FMParams:
    """MAP fit under the logit link by per-row SGD, shuffled by the seed each epoch.

    A step on row i with label y takes the residual (p - y) times

        d score / d w_k    = x_k
        d score / d V_kf   = x_k * q_f - x_k^2 * V_kf,   q_f = sum_l x_l V_lf,

    plus l2 times each touched parameter, so the fit minimizes
    mean NLL + (l2 / 2) * sum_k (n_k / N) * |theta_k|^2.
    """
    bias, w, V = _start(data, config)
    lr, l2 = config.learning_rate, config.l2
    cols, vals = data.indices, data.data
    row_ptr, labels = data.indptr.tolist(), data.labels.astype(np.float64).tolist()

    shuffle_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(2)[1])

    for epoch in range(config.epochs):
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
            epoch_log.append(_epoch_row(epoch, params, data, Link.LOGIT))
    return params


def sample_truncated_normal(
    means: np.ndarray, positive: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Unit-variance normal draws constrained to the sign given by ``positive``.

    Uses the inverse upper-tail CDF, which stays accurate when the mean sits
    many standard deviations on the wrong side of zero.
    """
    from scipy.special import ndtr, ndtri  # here, so that a logit fit never imports scipy

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

    __slots__ = ("name", "mean", "precision")

    def __init__(self, name: str):
        self.name = name
        self.mean = 0.0
        self.precision = 1.0

    def resample(self, values: np.ndarray, rng, sweep: int) -> None:
        n = values.size
        # precision | values ~ Gamma(shape + n/2, rate + sum sq dev / 2)
        shape = _PRECISION_SHAPE + 0.5 * n
        rate = _PRECISION_RATE + 0.5 * float(((values - self.mean) ** 2).sum())
        lam = rng.gamma(shape, 1.0 / rate)
        if not np.isfinite(lam) or lam <= 0.0:
            raise TrainingDivergedError(f"group {self.name} drew precision {lam} at sweep {sweep}")
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


def _colour_blocks(Xc) -> tuple[list[tuple[np.ndarray, ...]], np.ndarray]:
    """Split the columns of the CSC matrix ``Xc`` into classes that share no row.

    Columns are coloured first-fit in column order: each takes the smallest
    class none of its rows is in yet. Returns, per class in class order, its
    columns in column order, the concatenation of their rows and values, and
    each entry's segment (the position of its column within the class); and,
    apart, the columns no row touches.
    """
    counts = np.diff(Xc.indptr)
    touched = np.flatnonzero(counts)
    colour = np.full(Xc.shape[1], -1)
    used = np.zeros((Xc.shape[0], 8), dtype=bool)  # used[r, c]: a column of class c has row r
    for k in touched.tolist():
        rows = Xc.indices[Xc.indptr[k] : Xc.indptr[k + 1]]
        free = np.flatnonzero(~used[rows].any(axis=0))
        if free.size:
            c = free[0]
        else:
            c = used.shape[1]
            used = np.hstack([used, np.zeros_like(used)])
        colour[k] = c
        used[rows, c] = True
    edges = np.arange(colour.max(initial=-1) + 2)  # class c spans [edges[c], edges[c + 1])
    cols = touched[np.argsort(colour[touched], kind="stable")]
    col_cut = np.searchsorted(colour[cols], edges)
    local = np.zeros(colour.size, dtype=np.intp)
    local[cols] = np.arange(cols.size) - col_cut[colour[cols]]
    # CSC entries run in column order, and a stable sort by class keeps that order
    entry_colour = np.repeat(colour, counts)
    order = np.argsort(entry_colour, kind="stable")
    cut = np.searchsorted(entry_colour[order], edges)
    rows, vals, seg = Xc.indices[order], Xc.data[order], np.repeat(local, counts)[order]
    blocks = [
        (cols[a:b], rows[c:d], vals[c:d], seg[c:d])
        for a, b, c, d in zip(col_cut, col_cut[1:], cut, cut[1:])
    ]
    return blocks, np.flatnonzero(counts == 0)


def _sweep(
    values: np.ndarray, blocks, empty: np.ndarray, qf: np.ndarray | None, e: np.ndarray, group, rng
) -> None:
    """Draw every entry of ``values`` in place, one class of ``_colour_blocks`` at a time.

    On the rows of column k, d score / d entry k is h: the column's values for
    w (``qf`` None), or x_k * (q_f - x_k * V[k, f]) for factor f, whose
    q_f = X @ V[:, f] is kept in sync, as are the residuals ``e``. Columns of
    one class share no row, so their conditionals are independent given the
    rest and one numpy step draws them all; a column no row touches is a pure
    prior draw. Entry k takes the k-th of one vector of normals.
    """
    mean, prec = group.mean, group.precision
    noise = rng.standard_normal(len(values))
    values[empty] = mean + noise[empty] / math.sqrt(prec)
    for cols, rows, xv, seg in blocks:
        old = values[cols]
        old_e = old[seg]
        h = xv if qf is None else xv * (qf[rows] - xv * old_e)
        var = 1.0 / (prec + np.bincount(seg, h * h, len(cols)))
        if not np.isfinite(var).all():
            raise TrainingDivergedError("non-finite conditional variance in Gibbs sweep")
        h_dot_r = np.bincount(seg, h * (old_e * h - e[rows]), len(cols))
        new = (prec * mean + h_dot_r) * var + noise[cols] * np.sqrt(var)
        delta = (new - old)[seg]
        e[rows] += delta * h
        if qf is not None:
            qf[rows] += delta * xv
        values[cols] = new


def train_gibbs_probit(
    train: DesignMatrix,
    test: DesignMatrix | None = None,
    config: TrainConfig = TrainConfig(),
    *,
    epoch_log: list | None = None,
) -> GibbsOutput:
    """Bayesian fit under the probit link via latent-utility Gibbs sampling.

    Each iteration (1) draws the latent utilities truncated to the side their
    label dictates, (2) draws the bias, then w, then each column of V from
    their Gaussian conditionals, one class of row-disjoint columns at a time
    (the classes are coloured once per fit), while keeping the score
    residuals in sync, and (3) resamples the per-group prior means and
    precisions; a drawn precision that is zero or not finite raises
    TrainingDivergedError. After burn-in, parameters are accumulated into a
    posterior mean and test probabilities into a running average.
    """
    bias, w, V = _start(train, config)
    d = config.d
    iters = config.epochs
    burn_in = config.effective_burn_in

    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(3)[2])

    X = train.csr
    blocks, empty = _colour_blocks(X.tocsc())
    positive = train.labels.astype(bool)

    bias_group = _GroupState("bias and w")
    dim_groups = [_GroupState(f"V[:, {f}]") for f in range(d)]

    kept = 0
    bias_sum = 0.0
    w_sum = np.zeros_like(w)
    V_sum = None if V is None else np.zeros_like(V)
    test_sum = None if test is None else np.zeros(len(test))

    params = FMParams(bias, w, V)
    for it in range(iters):
        scores = raw_scores(params, train)
        z = sample_truncated_normal(scores, positive, rng)
        e = scores - z  # running residual, kept in sync below

        # global bias: d score / d bias = 1 for every row
        prec, h_dot_r = bias_group.precision, float((bias - e).sum())
        new_bias = _draw(prec * bias_group.mean, prec, h_dot_r, float(len(train)), rng.standard_normal())
        e += new_bias - bias
        bias = new_bias

        _sweep(w, blocks, empty, None, e, bias_group, rng)
        if V is not None:
            for f in range(d):
                _sweep(V[:, f], blocks, empty, X @ V[:, f], e, dim_groups[f], rng)

        bias_group.resample(np.concatenate(([bias], w)), rng, it)
        if V is not None:
            for f in range(d):
                dim_groups[f].resample(V[:, f], rng, it)

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
            epoch_log.append(_epoch_row(it, params, train, Link.PROBIT))

    mean_params = FMParams(
        bias_sum / kept,
        w_sum / kept,
        None if V_sum is None else V_sum / kept,
    )
    test_pred = None if test is None else np.clip(test_sum / kept, 1e-15, 1.0 - 1e-15)
    return GibbsOutput(mean_params, test_pred)
