"""Factorization-machine score, link functions, and embedding export.

The score of a row x is

    bias + sum_k w[k] x[k] + sum_{k<l} x[k] x[l] <V[k], V[l]>

with the pairwise term evaluated per factor dimension f as
``0.5 * ((sum_k x_k V[k,f])^2 - sum_k x_k^2 V[k,f]^2)``, which costs
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


class Link(str, enum.Enum):
    """Map between the real score line and probabilities."""

    LOGIT = "logit"
    PROBIT = "probit"

    def inverse(self, z):
        """Probability for score ``z``, clipped into the open unit interval."""
        z = np.asarray(z, dtype=np.float64)
        if self is Link.LOGIT:
            with np.errstate(over="ignore"):  # exp(-z) = inf gives p = 0
                p = 1.0 / (1.0 + np.exp(-z))
        else:
            from scipy.special import erfc  # here, so that only probit commands import scipy

            p = 0.5 * erfc(-z / _SQRT2)
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

    @classmethod
    def zeros(cls, n_features: int, d: int = 0) -> "FMParams":
        V = np.zeros((n_features, d)) if d > 0 else None
        return cls(0.0, np.zeros(n_features), V)


def raw_scores(params: FMParams, data: DesignMatrix) -> np.ndarray:
    """Model score of every row of ``data`` on the link scale.

    This is the one FM score: prediction, Gibbs test averages and the check
    of the Gibbs sampler's carried train scores all call it.
    """
    if data.space.width != params.n_features:
        raise IndexError(
            f"matrix width {data.space.width} != model features {params.n_features}"
        )
    X = data.csr
    z = params.bias + X @ params.w
    if params.V is not None:
        q = X @ params.V
        s2 = data.csr_squared @ (params.V**2)
        z = z + 0.5 * ((q * q).sum(axis=1) - s2.sum(axis=1))
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
    for col in range(space.width):
        block, local = space.owner(col)
        row = [block, str(local), _fmt(params.w[col])]
        if params.V is not None:
            row.extend(_fmt(v) for v in params.V[col])
        writer.writerow(row)
