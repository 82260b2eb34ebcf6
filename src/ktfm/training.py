"""Model fitting: MAP by coordinate descent (logit) and Gibbs sampling (probit).

Both trainers move the parameters one class of columns at a time. The score
is linear in each single parameter, and columns that share no training row
touch disjoint scores, so the columns are coloured first-fit in column order
into classes of row-disjoint columns, and one numpy step moves a whole class
(``_class_steps``), its entries in row order; a half-sweep (w, or one column
of V) takes the classes in class order. A class with an entry of value 1 in
every row (a one-hot block that every row has, such as items, users or an
extra column, when it lands in one class) is whole-row: it steps on whole
arrays by in-place adds, with no row gather, scatter or multiply by x, and
each of its float operations is the one the general step does with x = 1 on
every row, so the bytes are the same. A fit colours its train set itself,
or takes that colouring as ``classes`` (read-only arrays), so that fits of
several d on one set colour it once. The trainers differ only in the step.
Each carries its train scores and Q[f] = X @ V[:, f] from step to step, so no
sweep re-scores the train set; at d = 0, V has no columns and Q no rows.
Both call ``after_sweep(sweep, scores, objective)``, if given, after each sweep
whose parameters are finite: the sweep from 0, a read-only view of the carried
train scores, and the MAP objective (None from Gibbs); ``--log`` is one.

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
and draws every parameter from its Gaussian conditional. The utilities are
drawn by exact rejection (plain normals, or Robert's (1995) exponential
proposal where the score lies on the wrong side), so no draw needs a special
function. Biases share one (mean, precision) prior group and each factor
dimension has its own, each resampled under fixed Normal(0, 1) and Gamma(1, 1)
hyperpriors as in libFM's MCMC. Given the residuals, the columns of a class
have independent conditionals, so a class is drawn in one step (Freudenthaler
et al., 2011). Test predictions are averaged over the post-burn-in
iterations. At the end of a fit the carried scores are checked against one
fresh score of the train set.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import PROB_EPS, FMParams, Link, raw_scores
from .sparse import DesignMatrix, _readonly

_INIT_SCALE = 0.01  # standard deviation of the initial factor entries
_MAP_TOL = 1e-6  # a MAP fit stops once a sweep lowers its objective by less than this share
# the largest gap between a Gibbs fit's carried train scores and a fresh
# score, relative to the largest score magnitude (or 1, if larger)
_DRIFT_TOL = 1e-6
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


def _init_factors(config: TrainConfig, n_features: int) -> np.ndarray:
    """The start V, of shape (n_features, d): entries i.i.d. Normal(0, 0.01^2)."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
    return _INIT_SCALE * rng.standard_normal((n_features, config.d))


def _outside_level() -> int:
    """The ``stacklevel`` that names the first caller outside the package, for a
    ``warnings.warn`` in the function that calls this one."""
    frame, level = sys._getframe(1), 1
    while frame.f_back and os.path.dirname(frame.f_code.co_filename) == os.path.dirname(__file__):
        frame, level = frame.f_back, level + 1
    return level


def _setup(data: DesignMatrix, config: TrainConfig, classes: tuple | None = None):
    """Both trainers' opening: reject empty data, warn on constant labels, and
    colour the columns (``_colour_blocks``), unless ``classes`` holds that
    colouring already. Returns the start parameters, writable: a zero bias and
    w, and the V of ``_init_factors`` (of shape (width, 0) at d = 0); then the
    classes, the untouched columns, and the train scores and Q = [X @ V[:, f]
    per f] (d by n) of those parameters, written a class at a time (the bias
    and w are zero, so only the pairwise term adds)."""
    if len(data) == 0:
        raise ValueError("cannot train on an empty design matrix")
    labels = data.labels
    if (labels == labels[0]).all():
        warnings.warn(
            "all training labels are identical; the fit is degenerate",
            stacklevel=_outside_level(),
        )
    w = np.zeros(data.space.width)
    V = _init_factors(config, data.space.width)
    blocks, empty = _colour_blocks(data) if classes is None else classes
    scores = np.zeros(len(data))
    Q = np.zeros((config.d, len(data)))
    for column, qf in zip(V.T, Q):
        for cols, rows, xv, seg in blocks:
            delta = column[cols][seg]
            if rows is None:  # whole-row: x = 1 on every row
                scores += delta * qf
                qf += delta
            else:
                np.add.at(scores, rows, delta * (xv * qf[rows]))
                np.add.at(qf, rows, delta * xv)
    return 0.0, w, V, blocks, empty, scores, Q


def _finite(bias: float, w: np.ndarray, V: np.ndarray, epoch: int) -> FMParams:
    """The current parameters, or TrainingDivergedError if any is not finite."""
    try:
        return FMParams(bias, w, V)
    except ValueError:  # FMParams checks that every parameter is finite
        raise TrainingDivergedError(f"non-finite parameters at epoch {epoch}") from None


def _probability(z: np.ndarray) -> np.ndarray:
    """The logistic function, by tanh so that no exp overflows."""
    return 0.5 + 0.5 * np.tanh(0.5 * z)


def train_map_logit(
    data: DesignMatrix, config: TrainConfig, *, after_sweep: Callable | None = None, classes: tuple | None = None
) -> FMParams:
    """MAP fit under the logit link by colour-blocked coordinate descent: one sweep per
    epoch, until a sweep lowers the objective by less than ``_MAP_TOL`` of its value
    or ``config.epochs`` sweeps have run. ``after_sweep`` is handed that objective,
    the one the stop reads. ``classes``, if given, is ``_colour_blocks(data)``,
    which the fit then does not build."""
    bias, w, V, blocks, empty, scores, Q = _setup(data, config, classes)
    y = data.labels.astype(np.float64)
    lam = config.l2 * len(data)

    def residual(rows, old, h):
        return _probability(scores[rows]) - y[rows]

    if lam:
        V[empty] = 0.0  # the penalty alone pulls a column no row touches to zero

    def objective():  # mean logit NLL + (l2 / 2) * (|w|^2 + |V|^2)
        # summed like V, not by w @ w: a BLAS dot at a wide w wakes a thread pool that spins
        penalty = float((w * w).sum()) + float((V * V).sum())
        return float(np.mean(np.logaddexp(0.0, scores) - y * scores)) + 0.5 * config.l2 * penalty

    def bound_step(cols, old, hh, hr):  # old - g / H, or old where H = 0
        curvature = 0.25 * hh + lam
        return old - np.divide(hr + lam * old, curvature, out=np.zeros_like(old), where=curvature > 0)

    current = objective()
    for epoch in range(config.epochs):
        step = 4.0 * float(np.mean(_probability(scores) - y))  # the bias: h = 1, so H = N / 4
        bias -= step
        scores -= step
        for values, qf in [(w, None), *zip(V.T, Q)]:
            _class_steps(values, blocks, qf, scores, residual, bound_step)
        params = _finite(bias, w, V, epoch)
        previous, current = current, objective()
        if after_sweep is not None:
            after_sweep(epoch, _readonly(scores.view()), current)
        if previous - current < _MAP_TOL * abs(current):
            break
    return params


def sample_truncated_normal(
    means: np.ndarray, positive: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Unit-variance normal draws constrained to the sign given by ``positive``.

    Exact rejection sampling, repeated over the rows still rejected; as every
    kept proposal is an exact draw, a row may switch proposals between rounds.
    Every row first proposes a plain normal, kept if it lands on the allowed
    side of zero. After that, a row whose mean lies on the allowed side keeps
    proposing plain normals (acceptance above 1/2); a row whose mean lies a
    distance a > 0 on the other side proposes its distance past zero from an
    exponential of rate r = (a + sqrt(a^2 + 4)) / 2, kept with probability
    exp(-(a + x - r)^2 / 2) (Robert, 1995, *Simulation of truncated normal
    variables*; acceptance above 0.76), which stays exact however far the mean
    sits from zero. A NaN mean gives a NaN draw.
    """
    sign = np.asarray(positive, dtype=bool) * 2.0 - 1.0
    signed = np.asarray(means, dtype=np.float64) * sign  # draw from Normal(signed, 1) above zero
    out = signed + rng.standard_normal(signed.shape)
    todo = np.flatnonzero(out <= 0)
    far = signed[todo] < 0
    near = todo[~far]
    while near.size:
        draw = signed[near]
        draw += rng.standard_normal(near.size)
        out[near] = draw
        near = near[draw <= 0]
    todo = todo[far]
    a = -signed[todo]
    with np.errstate(over="ignore"):  # a^2 = inf gives r = inf and a draw of 0
        rate = a + np.sqrt(a * a + 4.0)
    gap = 2.0 / rate  # r - a, without the cancellation
    rate *= 0.5
    while todo.size:
        e = rng.standard_exponential((2, todo.size))
        draw = e[0] / rate
        out[todo] = draw
        draw -= gap  # a + x - r
        keep = 2.0 * e[1] < draw * draw  # rejected: -log(uniform) < (a + x - r)^2 / 2
        todo, rate, gap = todo[keep], rate[keep], gap[keep]
    np.maximum(out, _TINY, out=out)  # guard the exact-zero corner
    out *= sign
    return out


def _conditional(prec, mean, hh, hr, noise):
    """A draw from the Gaussian conditional of parameters under a Normal(mean, 1 / prec)
    prior, given hh = sum h^2 and hr = sum h * residual over their rows and unit
    normal ``noise``: scalars for the bias, arrays for a class of columns."""
    var = 1.0 / (prec + hh)
    if not np.isfinite(var).all():
        raise TrainingDivergedError("non-finite conditional variance in Gibbs sweep")
    return (prec * mean + hr) * var + noise * np.sqrt(var)


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


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """The stable argsort of non-negative integer ``keys``, by numpy's radix sort, which
    takes keys of at most 16 bits: the lowest 16 bits first (8 if no key needs more),
    then each higher 16 that some key uses."""
    top = int(keys.max(initial=0))
    order = np.argsort(keys.astype(np.uint8 if top < 256 else np.uint16), kind="stable")
    for shift in range(16, top.bit_length(), 16):
        order = order[np.argsort((keys[order] >> shift).astype(np.uint16), kind="stable")]
    return order


def _colour_blocks(data: DesignMatrix) -> tuple[list[tuple[np.ndarray, ...]], np.ndarray]:
    """Split the columns of ``data`` into classes that share no row.

    Columns are coloured first-fit in column order: each takes the smallest
    class none of its rows is in yet. Returns, per class in class order, its
    columns in column order, and its entries in row order (a row has at most
    one): their rows, which rise strictly, values and segments (the position
    of each entry's column within the class), so each column's rows still
    ascend; and, apart, the columns no row touches. Every array is read-only.
    A whole-row class, whose entries are every row once, each of value 1,
    holds None for its rows and values, which ``_class_steps`` reads as
    rows = arange and values = ones.

    Each column's class depends only on the columns before it that share one
    of its rows, so the touched columns are cut into runs: maximal spans of
    consecutive columns in which none shares a row with an earlier one of its
    span. A run's columns cannot block one another, so each run is coloured
    in one numpy step. The classes of each row are kept as bits of uint64
    words, one bit per class, word-major.
    """
    # rows and segments are intp, as int32 indices gather at half speed or less
    row_of_entry = np.repeat(np.arange(len(data)), np.diff(data.indptr))
    col_rows = row_of_entry[_stable_order(data.indices)]  # CSC order, without scipy
    counts = np.bincount(data.indices, minlength=data.space.width)
    col_ptr = np.r_[0, np.cumsum(counts)]
    # a row's entries ascend by column, so each column's latest earlier column in
    # one of its rows is the entry just before one of its own; in the dtype of the
    # indices, as ufunc.at with mixed dtypes leaves its fast path
    latest = np.full(counts.size, -1, dtype=data.indices.dtype)
    np.maximum.at(latest, data.indices[1:], np.where(row_of_entry[1:] == row_of_entry[:-1], data.indices[:-1], -1))
    touched = np.flatnonzero(counts)
    latest = latest[touched]  # by position among the touched columns
    colour = np.full(counts.size, -1)
    # bit c % 64 of used[c // 64, r]: class c holds row r. Word-major, so that a
    # run's OR is a gather and its write a scatter along one flat array
    used = np.zeros((1, len(data)), dtype=np.uint64)
    start = 0
    while start < touched.size:
        # the run ends before the first column that shares a row with one from its start on
        ends = latest[start + 1 :] >= touched[start]
        stop = start + 1 + int(ends.argmax()) if ends.any() else touched.size
        cols, start = touched[start:stop], stop
        n = counts[cols]
        # OR each column's rows' words, take each word's lowest clear bit (as a power
        # of two, 0 for a full word), then the first word that has one
        lo = col_ptr[cols[0]]
        rows = col_rows[lo : lo + n.sum()]
        words = np.bitwise_or.reduceat(used.take(rows, axis=1), col_ptr[cols] - lo, axis=1)
        bit = np.frexp((~words & (words + np.uint64(1))).astype(np.float64))[1] - 1
        n_words = len(used)
        colour[cols] = c = np.where(bit < 0, 64 * n_words, 64 * np.arange(n_words)[:, None] + bit).min(axis=0)
        if c.max() >= 64 * n_words:  # classes grow one at a time
            used = np.vstack([used, np.zeros((1, len(data)), dtype=used.dtype)])
        # set each column's bit on its rows (no row twice): one 1-D scatter along a flat view
        at = np.repeat(c // 64 * len(data), n) + rows
        used.reshape(-1)[at] |= np.repeat(np.left_shift(np.uint64(1), (c % 64).astype(np.uint64)), n)
        del rows  # a view, which would keep col_rows alive past the loop
    del used, col_rows, latest
    edges = np.arange(colour.max(initial=-1) + 2)  # class c spans [edges[c], edges[c + 1])
    cols = touched[np.argsort(colour[touched], kind="stable")]
    col_cut = np.searchsorted(colour[cols], edges)
    cut = np.r_[0, np.cumsum(counts[cols])][col_cut]
    position = np.zeros(counts.size, dtype=np.intp)  # of each column within its class
    position[cols] = np.arange(cols.size) - col_cut[colour[cols]]
    # the CSR entries by class; a stable sort keeps each class's entries in row order
    order = _stable_order(colour[data.indices])
    rows = row_of_entry[order]
    del row_of_entry  # before the next copy, to lower the peak
    seg = position[data.indices[order]]
    vals = data.data[order]
    empty = np.flatnonzero(counts == 0)
    for array in (cols, rows, vals, seg, empty):  # read-only, as fits of several d share them
        array.flags.writeable = False
    n_rows = len(data)
    blocks = [
        # a class with an entry in every row (its rows are distinct), each of value 1, is whole-row
        (cols[a:b], None, None, seg[c:d]) if d - c == n_rows and (vals[c:d] == 1.0).all()
        else (cols[a:b], rows[c:d], vals[c:d], seg[c:d])
        for a, b, c, d in zip(col_cut, col_cut[1:], cut, cut[1:])
    ]
    return blocks, empty


def _class_steps(values: np.ndarray, blocks, qf: np.ndarray | None, target: np.ndarray, residual, step) -> None:
    """Move every touched entry of ``values`` in place, one class of ``_colour_blocks`` at a time.

    On the rows of column k, h = d score / d entry k: the column's values for
    w (``qf`` None), or x_k * (q_f - x_k * V[k, f]) for factor f, with q_f =
    X @ V[:, f]. ``step(cols, old, hh, hr)`` maps the old values and the sums
    hh = sum h^2 and hr = sum h * residual(rows, old, h) per column to the new
    values; ``target`` (scores or residuals) and q_f move by the change.

    A class's rows are distinct and rise, so the gathers walk memory in order
    and each move is one ``np.add.at`` pass, which adds to every row once,
    where ``target[rows] +=`` would gather, add and scatter; each column's
    entries stay in row order, so every sum is that of a column loop. A
    whole-row class (rows None: every row once, x = 1) takes h = 1 for w and
    h = q_f - old for V, and moves ``target`` and q_f by in-place adds on the
    whole arrays: x * y = y and a scatter onto distinct rows adds once per
    row, so each operation, and so each byte, is that of the general step.
    """
    for cols, rows, xv, seg in blocks:
        old = values[cols]
        old_e = old[seg]
        if rows is not None:
            h = xv if qf is None else xv * (qf[rows] - xv * old_e)
            hh = np.bincount(seg, h * h, len(cols))
            hr = np.bincount(seg, h * residual(rows, old_e, h), len(cols))
            new = step(cols, old, hh, hr)
            delta = (new - old)[seg]
            np.add.at(target, rows, delta * h)
            if qf is not None:
                np.add.at(qf, rows, delta * xv)
        elif qf is None:  # whole-row, w: h = 1
            hh = np.bincount(seg, None, len(cols))  # the count of ones, as sum 1 * 1 gives
            hr = np.bincount(seg, residual(slice(None), old_e, 1.0), len(cols))
            new = step(cols, old, hh, hr)
            target += (new - old)[seg]
        else:  # whole-row, V: h = q_f - old
            h = qf - old_e
            hh = np.bincount(seg, h * h, len(cols))
            hr = np.bincount(seg, h * residual(slice(None), old_e, h), len(cols))
            new = step(cols, old, hh, hr)
            delta = (new - old)[seg]
            qf += delta
            delta *= h
            target += delta
        values[cols] = new


def _sweep(
    values: np.ndarray, blocks, empty: np.ndarray, qf: np.ndarray | None, e: np.ndarray, group, rng
) -> None:
    """Draw every entry of ``values`` in place from its Gaussian conditional given
    the residuals ``e``; entry k takes the k-th of one vector of normals."""
    mean, prec = group.mean, group.precision
    noise = rng.standard_normal(len(values))
    values[empty] = mean + noise[empty] / math.sqrt(prec)
    _class_steps(values, blocks, qf, e, lambda rows, old, h: old * h - e[rows],
                 lambda cols, old, hh, hr: _conditional(prec, mean, hh, hr, noise[cols]))


def train_gibbs_probit(
    train: DesignMatrix,
    test: DesignMatrix | None = None,
    config: TrainConfig = TrainConfig(),
    *,
    after_sweep: Callable | None = None,
    classes: tuple | None = None,
) -> tuple[FMParams, np.ndarray | None]:
    """Bayesian fit under the probit link via latent-utility Gibbs sampling.

    Each iteration (1) draws the latent utilities truncated to the side their
    label dictates, (2) draws the bias, then w, then each column of V from
    their Gaussian conditionals, one class of row-disjoint columns at a time
    (the classes of ``_colour_blocks(train)``, passed as ``classes`` or else
    built here), while keeping the score residuals and each Q[f] = X @ V[:, f]
    in sync, and (3) resamples the per-group prior means and precisions; a
    drawn precision that is zero or not finite raises TrainingDivergedError.
    The next iteration starts from the scores the residuals carry (latent
    utility plus residual). After burn-in, parameters are accumulated into a
    posterior mean and test probabilities into a running average, and the fit
    returns the pair (mean params, average), the average None without ``test``.
    A fit whose carried scores end up further than ``_DRIFT_TOL`` from a fresh
    score raises TrainingDivergedError.
    """
    bias, w, V, blocks, empty, scores, Q = _setup(train, config, classes)
    rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(3)[2])

    positive = train.labels.astype(bool)

    # w, then each column of V with its Q row, and the prior group of each
    halves = [(w, None), *zip(V.T, Q)]
    groups = [_GroupState("bias and w"), *(_GroupState(f"V[:, {f}]") for f in range(config.d))]

    kept, bias_sum = 0, 0.0
    w_sum = np.zeros_like(w)
    V_sum = np.zeros_like(V)
    test_sum = None if test is None else np.zeros(len(test))

    for it in range(config.epochs):
        z = sample_truncated_normal(scores, positive, rng)
        e = scores - z  # running residual, kept in sync below

        # global bias: d score / d bias = 1 for every row
        new_bias = _conditional(groups[0].precision, groups[0].mean, float(len(train)),
                                float((bias - e).sum()), rng.standard_normal())
        e += new_bias - bias
        bias = new_bias

        for (values, qf), group in zip(halves, groups):
            _sweep(values, blocks, empty, qf, e, group, rng)
        scores = z + e

        groups[0].resample(np.concatenate(([bias], w)), rng, it)
        for column, group in zip(V.T, groups[1:]):
            group.resample(column, rng, it)

        params = _finite(bias, w, V, it)
        if it >= config.effective_burn_in:
            kept += 1
            bias_sum += bias
            w_sum += w
            V_sum += V
            if test_sum is not None:
                test_sum += Link.PROBIT.inverse(raw_scores(params, test))

        if after_sweep is not None:
            after_sweep(it, _readonly(scores.view()), None)

    del blocks, classes  # before the fresh score, to lower the peak (when no caller holds them too)
    fresh = raw_scores(params, train)
    drift = float(np.abs(scores - fresh).max())
    if not drift <= _DRIFT_TOL * max(1.0, float(np.abs(fresh).max())):
        raise TrainingDivergedError(f"carried train scores drifted {drift:.3g} from a fresh score")

    mean_params = FMParams(bias_sum / kept, w_sum / kept, V_sum / kept)
    test_pred = None if test is None else np.clip(test_sum / kept, PROB_EPS, 1.0 - PROB_EPS)
    return mean_params, test_pred
