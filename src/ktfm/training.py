"""Model fitting: MAP by coordinate descent (logit) and Gibbs sampling (probit).

Both trainers move the parameters one class of columns at a time. The score
is linear in each single parameter, and columns that share no training row
touch disjoint scores, so the columns are coloured once per fit, first-fit in
column order, into classes of row-disjoint columns, and one numpy step moves a
whole class (``_class_steps``); a half-sweep (w, or one column of V) takes the
classes in class order. The trainers differ only in the step.

The MAP fit minimizes mean NLL + (l2 / 2) * (|w|^2 + |V|^2) under the logit
link, the global bias unpenalized. A sweep steps the bias, then w, then each
column of V. With h = d score / d theta_k on the rows of column k and
lam = l2 * N, a column steps to theta_k - g / H, where g = sum h (p - y) +
lam theta_k and H = sum h^2 / 4 + lam (the bias likewise, with h = 1 and no
penalty): as p (1 - p) <= 1/4, the minimum of a quadratic lying above the
objective (Böhning & Lindsay, 1988), so no step raises the objective and there
is no step size. A column with H = 0 keeps its value. This is libFM's
coordinate descent (Rendle, 2012) with the bound in place of the curvature.

The Gibbs sampler treats each binary outcome through a latent utility
z_i ~ Normal(score_i, 1), truncated to the side of zero its label dictates,
and draws every parameter from its Gaussian conditional. Biases share one
(mean, precision) prior group and each factor dimension has its own, each
resampled under fixed Normal(0, 1) and Gamma(1, 1) hyperpriors as in libFM's
MCMC. Given the residuals, the columns of a class have independent
conditionals, so a class is drawn in one step (Freudenthaler et al., 2011).
Test predictions are averaged over the post-burn-in iterations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import FMParams, Link, raw_scores
from .sparse import DesignMatrix

NLL_EPS = 1e-12
_INIT_SCALE = 0.01  # standard deviation of the initial factor entries
_MAP_TOL = 1e-6  # a MAP fit stops once a sweep lowers its objective by less than this share
_TINY = np.finfo(np.float64).tiny
# Hyperpriors of every Gibbs group: mean ~ Normal(0, 1 / _MEAN_PRIOR_PRECISION),
# precision ~ Gamma(_PRECISION_SHAPE, _PRECISION_RATE)
_MEAN_PRIOR_PRECISION = 1.0
_PRECISION_SHAPE = 1.0
_PRECISION_RATE = 1.0


class TrainingDivergedError(RuntimeError):
    """Parameters or a Gibbs precision or variance became non-finite or zero."""


@dataclass(frozen=True)
class TrainConfig:
    """Knobs shared by both trainers; `epochs` caps the MAP sweeps and counts the MCMC iterations."""

    d: int = 0
    epochs: int = 200
    l2: float = 1e-4  # MAP only
    seed: int = 0
    burn_in: int | None = None  # Gibbs only; defaults to epochs // 5

    def __post_init__(self):
        if self.d < 0:
            raise ValueError("d must be >= 0")
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
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


def _probability(z: np.ndarray) -> np.ndarray:
    """The logistic function, by tanh so that no exp overflows (scipy is not imported)."""
    return 0.5 + 0.5 * np.tanh(0.5 * z)


def train_map_logit(
    data: DesignMatrix, config: TrainConfig, *, epoch_log: list | None = None
) -> FMParams:
    """MAP fit under the logit link by colour-blocked coordinate descent: one sweep per
    epoch, until a sweep lowers the objective by less than ``_MAP_TOL`` of its value
    or ``config.epochs`` sweeps have run. Epoch-log rows also carry the objective."""
    bias, w, V = _start(data, config)
    y = data.labels.astype(np.float64)
    lam = config.l2 * len(data)
    blocks, empty = _colour_blocks(data)

    def residual(rows, old, h):
        return _probability(scores[rows]) - y[rows]

    scores, Q = np.zeros(len(data)), None  # the bias and w start at zero
    if V is not None:
        # V steps from zero to its start, which fills in the scores and
        # Q[f] = X @ V[:, f]; the penalty alone pulls a column no row touches to zero
        start, V[:] = V.copy(), 0.0
        Q = np.zeros((config.d, len(data)))
        for f in range(config.d):
            _class_steps(V[:, f], blocks, Q[f], scores, residual, lambda cols, old, hh, hr: start[cols, f])
        if not lam:
            V[empty] = start[empty]

    def objective():  # mean logit NLL + (l2 / 2) * (|w|^2 + |V|^2)
        penalty = float(w @ w) + (0.0 if V is None else float((V * V).sum()))
        return float(np.mean(np.logaddexp(0.0, scores) - y * scores)) + 0.5 * config.l2 * penalty

    def bound_step(cols, old, hh, hr):  # old - g / H, or old where H = 0
        curvature = 0.25 * hh + lam
        return old - np.divide(hr + lam * old, curvature, out=np.zeros_like(old), where=curvature > 0)

    current = objective()
    for epoch in range(config.epochs):
        step = 4.0 * float(np.mean(_probability(scores) - y))  # the bias: h = 1, so H = N / 4
        bias -= step
        scores -= step
        _class_steps(w, blocks, None, scores, residual, bound_step)
        if V is not None:
            for f in range(config.d):
                _class_steps(V[:, f], blocks, Q[f], scores, residual, bound_step)
        params = _finite(bias, w, V, epoch)
        previous, current = current, objective()
        if epoch_log is not None:
            epoch_log.append({**_epoch_row(epoch, params, data, Link.LOGIT), "objective": current})
        if previous - current < _MAP_TOL * abs(current):
            break
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


def _colour_blocks(data: DesignMatrix) -> tuple[list[tuple[np.ndarray, ...]], np.ndarray]:
    """Split the columns of ``data`` into classes that share no row.

    Columns are coloured first-fit in column order: each takes the smallest
    class none of its rows is in yet. Returns, per class in class order, its
    columns in column order, the concatenation of their rows (ascending per
    column) and values, and each entry's segment (the position of its column
    within the class); and, apart, the columns no row touches.
    """
    # CSC order without scipy: stable radix sorts (numpy's take 16-bit keys) by the low, then the high
    # half of the column; rows and segments are intp, as int32 indices gather at half speed or less
    by_column = np.argsort(data.indices.astype(np.uint16), kind="stable")
    by_column = by_column[np.argsort((data.indices[by_column] >> 16).astype(np.uint16), kind="stable")]
    col_rows = np.repeat(np.arange(len(data)), np.diff(data.indptr))[by_column]
    counts = np.bincount(data.indices, minlength=data.space.width)
    col_ptr = np.r_[0, np.cumsum(counts)]
    touched = np.flatnonzero(counts)
    colour = np.full(counts.size, -1)
    used = np.zeros((len(data), 8), dtype=bool)  # used[r, c]: a column of class c has row r
    for k in touched.tolist():
        rows = col_rows[col_ptr[k] : col_ptr[k + 1]]
        free = np.flatnonzero(~used[rows].any(axis=0))
        if free.size:
            c = free[0]
        else:
            c = used.shape[1]
            used = np.hstack([used, np.zeros_like(used)])
        colour[k] = c
        used[rows, c] = True
    del used
    edges = np.arange(colour.max(initial=-1) + 2)  # class c spans [edges[c], edges[c + 1])
    cols = touched[np.argsort(colour[touched], kind="stable")]
    col_cut = np.searchsorted(colour[cols], edges)
    # each column's CSC entries, the columns in class order
    sizes = counts[cols]
    ends = np.cumsum(sizes)
    order = np.repeat(col_ptr[cols] + sizes - ends, sizes)
    order += np.arange(order.size)
    cut = np.r_[0, ends][col_cut]
    seg = np.repeat(np.arange(cols.size) - col_cut[colour[cols]], sizes)
    rows, vals = col_rows[order], data.data[by_column[order]]
    blocks = [
        (cols[a:b], rows[c:d], vals[c:d], seg[c:d])
        for a, b, c, d in zip(col_cut, col_cut[1:], cut, cut[1:])
    ]
    return blocks, np.flatnonzero(counts == 0)


def _class_steps(values: np.ndarray, blocks, qf: np.ndarray | None, target: np.ndarray, residual, step) -> None:
    """Move every touched entry of ``values`` in place, one class of ``_colour_blocks`` at a time.

    On the rows of column k, h = d score / d entry k: the column's values for
    w (``qf`` None), or x_k * (q_f - x_k * V[k, f]) for factor f, with q_f =
    X @ V[:, f]. ``step(cols, old, hh, hr)`` maps the old values and the sums
    hh = sum h^2 and hr = sum h * residual(rows, old, h) per column to the new
    values; ``target`` (scores or residuals) and q_f move by the change.
    """
    for cols, rows, xv, seg in blocks:
        old = values[cols]
        old_e = old[seg]
        h = xv if qf is None else xv * (qf[rows] - xv * old_e)
        hh = np.bincount(seg, h * h, len(cols))
        hr = np.bincount(seg, h * residual(rows, old_e, h), len(cols))
        new = step(cols, old, hh, hr)
        delta = (new - old)[seg]
        target[rows] += delta * h
        if qf is not None:
            qf[rows] += delta * xv
        values[cols] = new


def _sweep(
    values: np.ndarray, blocks, empty: np.ndarray, qf: np.ndarray | None, e: np.ndarray, group, rng
) -> None:
    """Draw every entry of ``values`` in place from its Gaussian conditional given
    the residuals ``e``; entry k takes the k-th of one vector of normals."""
    mean, prec = group.mean, group.precision
    noise = rng.standard_normal(len(values))
    values[empty] = mean + noise[empty] / math.sqrt(prec)

    def draw(cols, old, hh, hr):
        var = 1.0 / (prec + hh)
        if not np.isfinite(var).all():
            raise TrainingDivergedError("non-finite conditional variance in Gibbs sweep")
        return (prec * mean + hr) * var + noise[cols] * np.sqrt(var)

    _class_steps(values, blocks, qf, e, lambda rows, old, h: old * h - e[rows], draw)


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
    blocks, empty = _colour_blocks(train)
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
