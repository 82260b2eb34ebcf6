"""Metrics, fold construction, and the cross-validated experiment runner.

AUC uses the rank-sum form of the Mann-Whitney statistic with average ranks
(from one stable sort and its tie groups), so tied scores count one half; it
is exactly the all-pairs computation at O(S log S) cost. Accuracy thresholds
at 0.5 with ties predicting positive. The three metrics take two non-empty
vectors of one length.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, replace
from itertools import groupby
from typing import Callable, Sequence, TextIO

import numpy as np

from .encoding import EncodingConfig, encode_dataset, preset_encoding
from .model import FMParams, Link, raw_scores
from .sparse import DesignMatrix
from .training import TrainConfig, _colour_blocks, train_gibbs_probit, train_map_logit


NLL_EPS = 1e-12


def _checked(predictions: Sequence[float], labels: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The predictions as float64 and the labels as an array, once they are two
    non-empty vectors of one length."""
    p = np.asarray(predictions, dtype=np.float64)
    y = np.asarray(labels)
    if p.shape != y.shape or p.ndim != 1:
        raise ValueError(f"shape mismatch: {p.shape} predictions, {y.shape} labels")
    if p.size == 0:
        raise ValueError("empty prediction list")
    return p, y


def accuracy(predictions: Sequence[float], labels: Sequence[int]) -> float:
    """Fraction of rows where thresholding at 0.5 recovers the label."""
    p, y = _checked(predictions, labels)
    return float(np.mean((p >= 0.5) == (y == 1)))


def nll(predictions: Sequence[float], labels: Sequence[int]) -> float:
    """Mean negative log-likelihood of Bernoulli outcomes, each probability clamped
    to [NLL_EPS, 1 - NLL_EPS] so that saturated predictions stay finite."""
    p, y = _checked(predictions, labels)
    p = np.clip(p, NLL_EPS, 1.0 - NLL_EPS)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log1p(-p)))


def auc(predictions: Sequence[float], labels: Sequence[int]) -> float:
    """Probability a random positive outranks a random negative; ties = 1/2."""
    p, y = _checked(predictions, labels)
    n_pos = int((y == 1).sum())
    n_neg = int(y.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC is undefined when all labels are the same class")
    order = np.argsort(p, kind="stable")
    sorted_p = p[order]
    starts_group = np.r_[True, sorted_p[1:] != sorted_p[:-1]]
    bounds = np.r_[np.flatnonzero(starts_group), p.size]
    group = np.cumsum(starts_group) - 1
    ranks = np.empty(p.size)
    # the sorted positions bounds[g]..bounds[g+1]-1 share the mean of ranks
    # bounds[g]+1..bounds[g+1]
    ranks[order] = 0.5 * (bounds[group] + bounds[group + 1] + 1)
    rank_sum = float(ranks[y == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass(frozen=True)
class FoldSpec:
    """How to split rows for cross-validation."""

    k: int = 5
    seed: int = 0
    mode: str = "by_row"  # or "by_student"

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("need at least two folds")
        if self.mode not in ("by_row", "by_student"):
            raise ValueError(f"unknown split mode {self.mode!r}")


def make_folds(
    n_rows: int, spec: FoldSpec, student_of_row: Sequence[int] | None = None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Disjoint (train, test) index pairs covering every row exactly once.

    ``by_student`` partitions students instead of rows; a fold's test set is
    every row of its students, which evaluates performance on learners the
    model never saw. Fewer rows (by_row) or students (by_student) than folds
    raise ``ValueError``, since some fold would test nothing.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(1)[0])
    if spec.mode == "by_row":
        if n_rows < spec.k:
            raise ValueError(f"cannot make {spec.k} row folds from {n_rows} rows")
        order, student_pos = rng.permutation(n_rows), None
    else:
        if student_of_row is None:
            raise ValueError("by_student mode needs the row-to-student map")
        students = np.asarray(student_of_row)
        if students.size != n_rows:
            raise ValueError("row-to-student map length mismatch")
        unique, student_pos = np.unique(students, return_inverse=True)
        if unique.size < spec.k:
            raise ValueError(
                f"cannot make {spec.k} student folds from {unique.size} students"
            )
        order = np.searchsorted(unique, rng.permutation(unique))
    # the fold of each row (by_row) or student (by_student), then of each row
    part = np.empty(order.size, dtype=np.intp)
    for i, chunk in enumerate(np.array_split(order, spec.k)):
        part[chunk] = i
    if student_pos is not None:
        part = part[student_pos]
    return [(np.flatnonzero(part != i), np.flatnonzero(part == i)) for i in range(spec.k)]


@dataclass(frozen=True)
class FoldMetrics:
    fold: int
    acc: float
    auc: float | None  # None when the fold's test labels are single-class
    nll: float


@dataclass(frozen=True)
class CVReport:
    """Per-fold and aggregate metrics for one (preset, dimension) cell."""

    preset: str
    d: int
    folds: tuple[FoldMetrics, ...]

    def _mean(self, values: list[float]) -> float | None:
        return float(np.mean(values)) if values else None

    @property
    def mean_acc(self) -> float:
        return float(np.mean([f.acc for f in self.folds]))

    @property
    def mean_auc(self) -> float | None:
        return self._mean([f.auc for f in self.folds if f.auc is not None])

    @property
    def mean_nll(self) -> float:
        return float(np.mean([f.nll for f in self.folds]))


def evaluate_predictions(predictions, labels, fold: int) -> FoldMetrics:
    try:
        fold_auc = auc(predictions, labels)
    except ValueError:
        warnings.warn(
            f"fold {fold}: test labels are single-class, AUC reported as missing"
        )
        fold_auc = None
    return FoldMetrics(
        fold=fold,
        acc=accuracy(predictions, labels),
        auc=fold_auc,
        nll=nll(predictions, labels),
    )


def _encode(ds, config: EncodingConfig) -> DesignMatrix:
    return encode_dataset(ds.triplets, ds.qmatrix, config, ds.n_students, extras=ds.extras, n_items=ds.n_items)


def encode_preset(dataset, preset: str, d: int) -> tuple[EncodingConfig, DesignMatrix]:
    """Encode a loaded dataset with a named preset, once the preset allows ``d``."""
    config = preset_encoding(preset, dataset.extra_columns, d=d)
    return config, _encode(dataset, config)


def fit(
    train: DesignMatrix,
    configs: Sequence[TrainConfig],
    link: Link,
    *,
    test: DesignMatrix | None = None,
    after_sweep: Callable | None = None,
) -> list[tuple[FMParams, np.ndarray | None]]:
    """One (params, test probabilities) pair per config, fitted on ``train`` in order: the
    MAP under logit, with the link of its scores of ``test``; Gibbs under probit, with its
    running average; None without ``test``. ``after_sweep`` goes to every fit. ``train`` is
    coloured once (``_colour_blocks``), the colouring each fit would build. Each fit pops
    one reference to it, so the last holds the only one, and a Gibbs fit can free the
    classes before its closing score."""
    handed = [_colour_blocks(train)] * len(configs)
    if link is Link.PROBIT:
        return [train_gibbs_probit(train, test, config, after_sweep=after_sweep, classes=handed.pop())
                for config in configs]
    fits = []
    for config in configs:
        params = train_map_logit(train, config, after_sweep=after_sweep, classes=handed.pop())
        fits.append((params, None if test is None else link.inverse(raw_scores(params, test))))
    return fits


def run_cv(
    dataset,
    grid: Sequence[tuple[str, int]],
    fold_spec: FoldSpec,
    train_config: TrainConfig,
    link: Link = Link.LOGIT,
    *,
    skip: Callable[[str, int, ValueError], None] | None = None,
) -> list[CVReport]:
    """Cross-validate every (preset, d) grid cell on one dataset.

    Every cell is checked once, before any work: a bad cell raises, or is
    handed to ``skip`` and left out. Each run of consecutive cells with one
    preset shares one encoding of the full log (counters always see the whole
    history), and all cells share one fold partition. A run goes fold by
    fold: it subsets the fold's train and test rows once and fits every cell
    of the run on them through one ``fit``.
    Reports give per-fold ACC/AUC/NLL, one per cell in grid order (a repeated
    cell gives two), and come back stably sorted by mean AUC, best first.
    """
    cells, configs = [], {}
    for preset, d in grid:
        try:
            config = preset_encoding(preset, dataset.extra_columns, d=d)
        except ValueError as exc:
            if skip is None:
                raise
            skip(preset, d, exc)
            continue
        cells.append((preset, d))
        configs[preset] = config
    if not cells:
        raise ValueError("no valid (preset, d) grid cells")
    folds = make_folds(len(dataset.triplets), fold_spec, dataset.triplets[:, 0])
    reports = []
    for preset, run in groupby(cells, key=lambda cell: cell[0]):
        encoded = _encode(dataset, configs[preset])
        configs_of_run = [replace(train_config, d=d) for _, d in run]
        metrics = [[] for _ in configs_of_run]
        for fold, (train_idx, test_idx) in enumerate(folds):
            train, test = encoded.subset(train_idx), encoded.subset(test_idx)
            for (_, predictions), cell_metrics in zip(fit(train, configs_of_run, link, test=test), metrics):
                cell_metrics.append(evaluate_predictions(predictions, encoded.labels[test_idx], fold))
            del train, test  # before the next fold's subsets
        reports.extend(
            CVReport(preset=preset, d=config.d, folds=tuple(cell_metrics))
            for config, cell_metrics in zip(configs_of_run, metrics)
        )
        del encoded  # one encoded matrix alive at a time
    reports.sort(key=lambda r: -1.0 if r.mean_auc is None else r.mean_auc, reverse=True)
    return reports


def _fmt(x: float | None) -> str:
    return "" if x is None else repr(float(x))


def write_fold_report(reports: Sequence[CVReport], stream: TextIO) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["preset", "d", "fold", "acc", "auc", "nll"])
    for report in reports:
        for fm in report.folds:
            writer.writerow(
                [report.preset, report.d, fm.fold, _fmt(fm.acc), _fmt(fm.auc), _fmt(fm.nll)]
            )


def write_summary(reports: Sequence[CVReport], stream: TextIO) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["preset", "d", "acc", "auc", "nll"])
    for report in reports:
        writer.writerow(
            [
                report.preset,
                report.d,
                _fmt(report.mean_acc),
                _fmt(report.mean_auc),
                _fmt(report.mean_nll),
            ]
        )


def format_table(reports: Sequence[CVReport]) -> str:
    """Aligned text summary, best AUC first."""
    lines = [f"{'preset':<12} {'d':>3} {'ACC':>7} {'AUC':>7} {'NLL':>7}"]
    for report in reports:
        auc_txt = "--" if report.mean_auc is None else f"{report.mean_auc:.3f}"
        lines.append(
            f"{report.preset:<12} {report.d:>3} {report.mean_acc:>7.3f} "
            f"{auc_txt:>7} {report.mean_nll:>7.3f}"
        )
    return "\n".join(lines)
