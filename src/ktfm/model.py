"""Factorization-machine score, link functions, and embedding export.

The score of a row x is

    bias + sum_k w[k] x[k] + sum_{k<l} x[k] x[l] <V[k], V[l]>

with the pairwise term evaluated per factor dimension f as
``0.5 * ((sum_k x_k V[k,f])^2 - sum_k (x_k V[k,f])^2)``, which costs
O(nnz * d) instead of O(nnz^2 * d) and excludes self-interactions.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .sparse import DesignMatrix, FeatureSpace, _readonly

# open-interval guard for predicted probabilities
PROB_EPS = 1e-15

_SQRT2 = math.sqrt(2.0)
# erf(x) = 2 / sqrt(pi) * sum_n (-1)^n x^(2n+1) / (n! (2n+1)), in powers of x^2,
# highest first; 18 terms reach float64 precision for |x| < 1
_ERF_SERIES = [2 / math.sqrt(math.pi) * (-1) ** n / (math.factorial(n) * (2 * n + 1)) for n in range(17, -1, -1)]
# erfc(x) = exp(-x^2) P(x) / Q(x) for x >= 1, highest power first: mpmath's
# rational fit (``mpmath.math2._erfc_coeff_P``, ``_erfc_coeff_Q``)
_ERFC_P = [
    0.00044560259661560421715, 0.0063065951710717791934, 0.045459713768411264339,
    0.20924776504163751585, 0.66275911699770787537, 1.4695509105618423961,
    2.2280433377390253297, 2.1275306946297962644, 1.0000000161203922312,
]
_ERFC_Q = [
    0.00078981003831980423513, 0.011178148899483545902, 0.080970149639040548613,
    0.37647108453729465912, 1.2146026030046904138, 2.7845640601891186528,
    4.4971472894498014205, 4.9019435608903239131, 3.2559100272784894318, 1.0,
]
_ERFC_ZERO = 27.0  # erfc(x) is taken as 0 from here on; erfc(27) is 5.2e-319, a subnormal


def normal_cdf(z) -> np.ndarray:
    """Standard normal CDF, 0.5 * erfc(-z / sqrt(2)), in numpy; NaN stays NaN.

    With x = -z / sqrt(2): 1 - erf(x) by its Taylor series where |x| < 1,
    exp(-x^2) P(|x|) / Q(|x|) (mirrored as 2 minus that for x < 0) up to
    |x| = 27, and 0 (or 2) beyond. Within 2e-14 of the exact value, relative,
    on [-8, 8].
    """
    x = np.asarray(z, dtype=np.float64) / -_SQRT2
    a = np.abs(x)
    out = np.empty_like(x)
    small = a < 1.0
    t = x[small]
    out[small] = 1.0 - t * np.polyval(_ERF_SERIES, t * t)
    large = ~small  # NaN included
    t = np.minimum(a[large], _ERFC_ZERO)  # keeps P(t) / Q(t) finite
    tail = np.exp(-t * t) * np.polyval(_ERFC_P, t) / np.polyval(_ERFC_Q, t)
    tail[t == _ERFC_ZERO] = 0.0
    out[large] = np.where(x[large] > 0, tail, 2.0 - tail)
    return 0.5 * out


class Link(str, enum.Enum):
    """Map between the real score line and probabilities."""

    LOGIT = "logit"
    PROBIT = "probit"

    def inverse(self, z):
        """Probability for score ``z``, clipped into the open unit interval:
        1 / (1 + exp(-z)) for logit, ``normal_cdf(z)`` for probit (both numpy)."""
        z = np.asarray(z, dtype=np.float64)
        if self is Link.LOGIT:
            with np.errstate(over="ignore"):  # exp(-z) = inf gives p = 0
                p = 1.0 / (1.0 + np.exp(-z))
        else:
            p = normal_cdf(z)
        return np.clip(p, PROB_EPS, 1.0 - PROB_EPS)


@dataclass(frozen=True, eq=False)
class FMParams:
    """Trained model: global bias, per-feature biases w, factor matrix V.

    ``V`` is ``None`` exactly when the factor dimension d is zero, in which
    case the model is plain (regularized) logistic/probit regression.
    """

    bias: float
    w: np.ndarray
    V: np.ndarray | None = None

    def __post_init__(self):
        w = np.array(self.w, dtype=np.float64, copy=True)
        if w.ndim != 1:
            raise ValueError("w must be a vector")
        if not math.isfinite(self.bias) or not np.all(np.isfinite(w)):
            raise ValueError("parameters must be finite")
        object.__setattr__(self, "bias", float(self.bias))
        object.__setattr__(self, "w", _readonly(w))
        if self.V is not None:
            V = np.array(self.V, dtype=np.float64, copy=True)
            if V.ndim != 2 or V.shape[0] != w.size:
                raise ValueError(f"V must be {w.size} x d, got {V.shape}")
            if V.shape[1] == 0:
                raise ValueError("V must be None when d = 0")
            if not np.all(np.isfinite(V)):
                raise ValueError("parameters must be finite")
            object.__setattr__(self, "V", _readonly(V))

    @property
    def n_features(self) -> int:
        return int(self.w.size)

    @property
    def d(self) -> int:
        return 0 if self.V is None else int(self.V.shape[1])


def raw_scores(params: FMParams, data: DesignMatrix) -> np.ndarray:
    """Model score of every row of ``data`` on the link scale.

    This is the one FM score: prediction, Gibbs test averages and the check
    of the Gibbs sampler's carried train scores all call it. For each factor
    f, each entry's product ``x_k V[k,f]`` is formed once: its row sums give
    ``q_f``, and its square is added into one per-entry sum, so the factor
    term takes d + 1 ``bincount``s. A square overflows only where the score does.
    """
    if data.space.width != params.n_features:
        raise IndexError(
            f"matrix width {data.space.width} != model features {params.n_features}"
        )
    X = data.csr
    z = params.bias + X @ params.w
    if params.V is not None:
        # sum over f of q_f^2 per row, and of (x_k V[k,f])^2 per entry
        q2, xv2 = np.zeros(len(data)), np.zeros(X.data.size)
        for column in np.ascontiguousarray(params.V.T):
            xv = X.data * column[X.indices]
            q = X.row_sums(xv)
            q2 += q * q
            xv2 += xv * xv
        z = z + 0.5 * (q2 - X.row_sums(xv2))
    return np.asarray(z, dtype=np.float64)


def predict_proba_matrix(params: FMParams, data: DesignMatrix, link: Link) -> np.ndarray:
    """Probability of a positive outcome for every row of ``data``."""
    return link.inverse(raw_scores(params, data))


EMBEDDING_HEADER = ("block", "local_id", "bias")


def _fmt(v: float) -> str:
    return repr(float(v))


def export_embeddings(params: FMParams, space: FeatureSpace, stream: TextIO) -> None:
    """Write one CSV row per feature: block label, local id, bias, factors."""
    if space.width != params.n_features:
        raise IndexError(
            f"space width {space.width} != model features {params.n_features}"
        )
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(list(EMBEDDING_HEADER) + [f"v{f}" for f in range(params.d)])
    labels = ((block, local) for block, width in space.blocks for local in range(width))
    for col, (block, local) in enumerate(labels):
        row = [block, str(local), _fmt(params.w[col])]
        if params.V is not None:
            row.extend(_fmt(v) for v in params.V[col])
        writer.writerow(row)
