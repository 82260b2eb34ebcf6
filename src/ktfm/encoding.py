"""Turn chronological (student, item, outcome) logs into a sparse design matrix.

This module owns the feature-block set: ``EncodingConfig`` names the blocks a
model uses, and the presets (IRT, MIRT, AFM, PFA, KTM) are named block sets
with a rule on the factor dimension.

Each row one-hot encodes the student and/or item, activates the skills the
item exercises, and writes the student's running win/fail (or attempt)
counters for those skills, *as they stood before the attempt*. Counters are
replayed over the full log in order, so a later train/test split applies to
rows, not to counter history. The replay is vectorized: every (row, skill)
pair of the log is sorted by (student, skill), which keeps time order inside
each pair, and exclusive running sums of the outcomes give the counters.
"""

from __future__ import annotations

import csv
import enum
import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .sparse import CHUNK_ROWS, DesignMatrix, FeatureSpace, _readonly


class EncodingError(ValueError):
    """Inconsistent encoding inputs (bad ids, misaligned extras, ...)."""


@dataclass(frozen=True, eq=False)
class QMatrix:
    """Binary item-by-skill incidence matrix: ``matrix[j, k]`` is 1 when
    item ``j`` exercises skill ``k``."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.int8, copy=True)
        if m.ndim != 2:
            raise EncodingError("q-matrix must be 2-d")
        if not ((m == 0) | (m == 1)).all():
            raise EncodingError("q-matrix entries must be 0 or 1")
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def n_items(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_skills(self) -> int:
        return self.matrix.shape[1]

    def reordered(self, item_order: Sequence[int]) -> "QMatrix":
        """Rows permuted so that row ``j`` describes ``item_order[j]``."""
        order = np.asarray(item_order, dtype=np.int64)
        if order.size and (order.min() < 0 or order.max() >= self.n_items):
            raise EncodingError("item order references rows outside the q-matrix")
        return QMatrix(self.matrix[order])


_BITS = {"0": 0, "1": 1}


def _csv_chunks(reader, first_line: int):
    """The reader's non-blank records, at most ``CHUNK_ROWS`` at a time: each
    batch as (line numbers counted from ``first_line`` with blank records
    included, records, field counts)."""
    for start in itertools.count(first_line, CHUNK_ROWS):
        records = list(itertools.islice(reader, CHUNK_ROWS))
        if not records:
            return
        lengths = np.fromiter(map(len, records), np.int64, len(records))
        kept = lengths > 1
        single = np.flatnonzero(lengths == 1)  # a lone field is blank unless it holds text
        kept[single] = [bool(records[i][0].strip()) for i in single]
        if kept.all():
            yield start + np.arange(len(records)), records, lengths
        elif kept.any():
            kept = np.flatnonzero(kept)
            yield start + kept, [records[i] for i in kept], lengths[kept]
        del records  # before the next batch is read


def _lookup(mapping: dict[str, int], values: Sequence[str], extend: bool = False) -> np.ndarray:
    """``mapping[v]`` for every value, -1 where it has none; with ``extend``,
    values new to ``mapping`` first take the next dense ids by first appearance."""
    if extend:
        new = [v for v in dict.fromkeys(values) if v not in mapping]
        mapping.update(zip(new, range(len(mapping), len(mapping) + len(new))))
    return np.fromiter(map(mapping.get, values, itertools.repeat(-1)), np.int64, len(values))


_COMMA, _NL = ord(","), ord("\n")


def _plain_qmatrix(text: bytes) -> np.ndarray | None:
    """The cells of a q-matrix text whose every line is ``w`` bare 0/1 cells
    split by "," and ended by "\\n", as a uint8 array; None for any other text.

    Such a text is a grid of lines of 2w bytes: cell c of line r is byte
    r * 2w + 2c, and the separator after it byte r * 2w + 2c + 1.
    """
    stride = text.find(b"\n") + 1
    if not stride or stride % 2 or len(text) % stride:
        return None
    grid = np.frombuffer(text, np.uint8).reshape(-1, stride)
    cells, seps = grid[:, 0::2], grid[:, 1::2]
    # "0" and "1" are the two bytes b with b | 1 == "1"
    if ((cells | 1) != ord("1")).any() or (seps[:, :-1] != _COMMA).any() or (seps[:, -1] != _NL).any():
        return None
    return cells - np.uint8(ord("0"))


def load_qmatrix(path) -> QMatrix:
    """Read a headerless CSV of 0/1 cells, one row per item; cells may be
    quoted or padded with spaces.

    A file of bare cells, split by "," and ended by "\\n" on every line, as
    ``synth``, ``import-assistments`` and numpy's ``savetxt`` write it, is
    read as one byte grid; any other file, and any faulty one, by the csv
    loop, which names the first fault.
    """
    with open(path, "rb") as fh:
        cells = _plain_qmatrix(fh.read())
    if cells is not None:
        return QMatrix(cells)
    parts, width = [], 0
    with open(path, newline="") as fh:
        for lines, rows, lengths in _csv_chunks(csv.reader(fh), first_line=1):
            width = width or len(rows[0])
            ragged = lengths != width
            end = int(np.argmax(ragged)) if ragged.any() else len(rows)
            cells = map(str.strip, itertools.chain.from_iterable(rows[: end + 1]))
            bits = np.fromiter(map(_BITS.get, cells, itertools.repeat(-1)), np.int8)
            bad = bits < 0
            if bad.any():  # the first bad cell, which may lie in the ragged row
                flat = int(np.argmax(bad))
                r = min(flat // width, end)
                cell = rows[r][flat - r * width].strip()
                raise EncodingError(f"{path}: line {lines[r]}: cell {cell!r} is not 0/1")
            if end < len(rows):
                raise EncodingError(
                    f"{path}: line {lines[end]}: expected {width} columns, got {len(rows[end])}"
                )
            parts.append(bits.reshape(-1, width))
            del rows  # free this batch before the next is read
    if not parts:
        raise EncodingError(f"{path}: empty q-matrix")
    return QMatrix(np.concatenate(parts))


# canonical block order; presets pick subsets, extras append in declared order
BLOCK_ORDER = ("users", "items", "skills", "wins", "fails", "attempts")


@dataclass(frozen=True)
class EncodingConfig:
    """Which feature blocks to emit: built-in block names, kept in
    ``BLOCK_ORDER``, then the extra side columns in declared order."""

    blocks: tuple[str, ...] = ()
    extra_columns: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        blocks = tuple(self.blocks)
        unknown = [b for b in blocks if b not in BLOCK_ORDER]
        if unknown:
            raise EncodingError(f"unknown blocks {unknown}; known: {', '.join(BLOCK_ORDER)}")
        if len(set(blocks)) != len(blocks):
            raise EncodingError(f"repeated block names: {list(blocks)}")
        object.__setattr__(self, "blocks", tuple(b for b in BLOCK_ORDER if b in blocks))
        object.__setattr__(
            self,
            "extra_columns",
            tuple((str(n), int(c)) for n, c in self.extra_columns),
        )
        if not self.blocks and not self.extra_columns:
            raise EncodingError("encoding must enable at least one block")
        if "attempts" in self.blocks and ("wins" in self.blocks or "fails" in self.blocks):
            raise EncodingError(
                "attempt counters and win/fail counters are mutually exclusive"
            )
        for name, card in self.extra_columns:
            if card <= 0:
                raise EncodingError(f"extra column {name!r} needs positive cardinality")
        names = [n for n, _ in self.extra_columns]
        if len(names) != len(set(names)):
            raise EncodingError(f"duplicate extra column names: {names}")
        if set(names) & set(BLOCK_ORDER):
            raise EncodingError("extra columns cannot shadow built-in block names")

    @property
    def needs_counters(self) -> bool:
        return any(b in self.blocks for b in ("wins", "fails", "attempts"))

    @property
    def needs_skills(self) -> bool:
        return "skills" in self.blocks or self.needs_counters

    def enabled_blocks(self) -> tuple[str, ...]:
        return self.blocks + tuple(n for n, _ in self.extra_columns)

    def feature_space(self, n_students: int, n_items: int, n_skills: int) -> FeatureSpace:
        widths = {
            "users": n_students,
            "items": n_items,
            "skills": n_skills,
            "wins": n_skills,
            "fails": n_skills,
            "attempts": n_skills,
        }
        widths.update(dict(self.extra_columns))
        blocks = tuple((b, widths[b]) for b in self.enabled_blocks())
        return FeatureSpace(blocks)


class DimensionRule(str, enum.Enum):
    """What factor dimensions a preset admits."""

    ZERO = "d = 0"
    POSITIVE = "d > 0"
    ANY = "any d"

    def check(self, d: int) -> None:
        if d < 0:
            raise ValueError(f"dimension must be >= 0, got {d}")
        if self is DimensionRule.ZERO and d != 0:
            raise ValueError(f"this preset requires d = 0, got d = {d}")
        if self is DimensionRule.POSITIVE and d <= 0:
            raise ValueError(f"this preset requires d > 0, got d = {d}")


# preset -> (enabled blocks, dimension rule, wants extra side columns)
_PRESETS: dict[str, tuple[tuple[str, ...], DimensionRule, bool]] = {
    "irt": (("users", "items"), DimensionRule.ZERO, False),
    "mirtb": (("users", "items"), DimensionRule.POSITIVE, False),
    "afm": (("skills", "attempts"), DimensionRule.ZERO, False),
    "pfa": (("skills", "wins", "fails"), DimensionRule.ZERO, False),
    "ktm-iswf": (("items", "skills", "wins", "fails"), DimensionRule.ANY, False),
    "ktm-iswfe": (("items", "skills", "wins", "fails"), DimensionRule.ANY, True),
}
_ALIASES = {"iswf": "ktm-iswf", "iswfe": "ktm-iswfe"}

PRESET_NAMES = tuple(_PRESETS)


def preset_encoding(
    name: str, extra_columns: Sequence[tuple[str, int]] = ()
) -> tuple[EncodingConfig, DimensionRule]:
    """Named block set and its dimension constraint.

    Presets that use extra side information need the dataset's extra columns
    passed in, since their widths depend on the data.
    """
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    blocks, rule, wants_extras = _PRESETS[key]
    if wants_extras and not extra_columns:
        raise ValueError(f"preset {name!r} needs extra side columns but none were given")
    return EncodingConfig(blocks, tuple(extra_columns) if wants_extras else ()), rule


def _reject(broken: np.ndarray, describe) -> None:
    """Raise for the first row where ``broken`` holds."""
    if broken.any():
        r = int(np.argmax(broken))
        raise EncodingError(f"row {r}: {describe(r)}")


def _prior_counts(
    student: np.ndarray, skill: np.ndarray, outcome: np.ndarray, n_skills: int
) -> tuple[np.ndarray, np.ndarray]:
    """Wins and fails of each (student, skill) pair before each of its attempts.

    The inputs list one entry per (attempt, skill) in time order; the stable
    sort by pair keeps that order inside each pair.
    """
    pair = student * n_skills + skill
    order = np.argsort(pair, kind="stable")
    pair = pair[order]
    won = outcome[order]
    lost = 1 - won
    wins = np.cumsum(won) - won  # exclusive running sums over the sorted log
    fails = np.cumsum(lost) - lost
    first = np.flatnonzero(np.diff(pair, prepend=-1))
    sizes = np.diff(np.r_[first, pair.size])
    wins -= np.repeat(wins[first], sizes)  # restart both at each pair's first attempt
    fails -= np.repeat(fails[first], sizes)
    out_wins, out_fails = np.empty_like(wins), np.empty_like(fails)
    out_wins[order], out_fails[order] = wins, fails
    return out_wins, out_fails


def encode_dataset(
    triplets,
    q: QMatrix | None,
    config: EncodingConfig,
    n_students: int,
    extras: Mapping[str, Sequence[int]] | None = None,
    n_items: int | None = None,
) -> DesignMatrix:
    """One sparse row per (student, item, outcome) row of the ``(N, 3)`` int
    array-like ``triplets``, in order, labels = outcomes.

    Counter blocks reflect the state *before* each attempt and cover only the
    skills of the attempted item. A negative student or item id means "unknown
    at encode time" and simply drops that one-hot (cold-start convention); an
    unknown student's attempts neither carry nor update counters.
    """
    if config.needs_skills and q is None:
        raise EncodingError("this encoding needs skill information but no q-matrix was given")
    student, item, outcome = np.array(triplets, dtype=np.int64).reshape(-1, 3).T
    if n_items is None:
        n_items = q.n_items if q is not None else 1 + int(item.max(initial=-1))
    n_skills = q.n_skills if q is not None else 0
    if "users" in config.blocks and n_students <= 0:
        raise EncodingError("users block enabled but no students declared")
    if ("items" in config.blocks or config.needs_skills) and n_items <= 0:
        raise EncodingError("items/skills blocks enabled but no items declared")

    space = config.feature_space(n_students, n_items, n_skills)

    extras = dict(extras or {})
    for name, _ in config.extra_columns:
        if name not in extras:
            raise EncodingError(f"dataset has no values for extra column {name!r}")
        if len(extras[name]) != len(student):
            raise EncodingError(
                f"extra column {name!r} has {len(extras[name])} values for "
                f"{len(student)} triplets"
            )

    _reject(student >= n_students, lambda r: f"student {student[r]} >= {n_students}")
    _reject(item >= n_items, lambda r: f"item {item[r]} >= {n_items}")
    _reject((outcome != 0) & (outcome != 1), lambda r: f"outcome {outcome[r]} is not 0/1")
    if q is not None:
        _reject(item >= q.n_items, lambda r: f"item {item[r]} outside [0, {q.n_items})")

    entries: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (row, column, value)

    def add(block: str, rows: np.ndarray, local: np.ndarray, values=1.0) -> None:
        values = np.broadcast_to(np.asarray(values, dtype=np.float64), rows.shape)
        entries.append((rows, space.offset(block) + local, values))

    if "users" in config.blocks:
        known = np.flatnonzero(student >= 0)
        add("users", known, student[known])
    if "items" in config.blocks:
        known = np.flatnonzero(item >= 0)
        add("items", known, item[known])
    if config.needs_skills:
        # one (row, skill) pair per skill of each attempted item, in row order
        attempted = np.flatnonzero(item >= 0)
        _, tagged = np.nonzero(q.matrix)  # row-major: item j's skills are one run of ``tagged``
        per_item = np.count_nonzero(q.matrix, axis=1)
        run_start = np.cumsum(per_item) - per_item
        counts = per_item[item[attempted]]
        pair_row = np.repeat(attempted, counts)
        # each pair's rank among its row's pairs, shifted to the start of its item's run
        shift = np.repeat(run_start[item[attempted]] - (np.cumsum(counts) - counts), counts)
        pair_skill = tagged[np.arange(shift.size) + shift].astype(np.int64)
        if "skills" in config.blocks:
            add("skills", pair_row, pair_skill)
    if config.needs_counters:
        known = student[pair_row] >= 0
        rows, skills = pair_row[known], pair_skill[known]
        wins, fails = _prior_counts(student[rows], skills, outcome[rows], n_skills)
        counters = {"wins": wins, "fails": fails, "attempts": wins + fails}
        for block in config.blocks:
            if block in counters:
                kept = counters[block] > 0
                add(block, rows[kept], skills[kept], counters[block][kept])
    for name, card in config.extra_columns:
        values = np.asarray(extras[name], dtype=np.int64)
        _reject(
            (values < 0) | (values >= card),
            lambda r: f"extra column {name!r}: value {values[r]} outside cardinality {card}",
        )
        add(name, np.arange(len(values)), values)

    rows, columns, values = (np.concatenate(parts) for parts in zip(*entries))
    entries.clear()  # free the parts before sorting, to keep the peak low
    indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=len(student)))]
    order = np.argsort(rows * space.width + columns, kind="stable")
    del rows
    columns, values = columns[order], values[order]
    del order
    return DesignMatrix(space, indptr, columns, values, outcome)
