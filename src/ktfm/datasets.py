"""Dataset loading, id vocabularies, and synthetic data generation.

This module reads every input file, the log and the q-matrix: a plain file in
one numpy pass over its text, any other or faulty one row by row by
``csv.reader``, which names the first faulty line. Raw logs arrive with
string ids; everything downstream wants dense 0-based ids, so loaders build
(or reuse) a vocabulary mapping raw ids to dense indices by first
appearance. The synthetic generators exist as verification oracles: they
save the parameters that produced the data so recovery can be checked
against ground truth. Each generator is the FM of a block set
(``GENERATOR_BLOCKS``); its outcomes are drawn against the same oracle that
``oracle_probabilities`` exposes, so the encoder's counter replay is the
only one in the package.
"""

from __future__ import annotations

import array
import csv
import hashlib
import itertools
import json
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .encoding import EncodingConfig, EncodingError, QMatrix, encode_dataset
from .model import FMParams, Link, raw_scores
from .sparse import _readonly


class DataFormatError(ValueError):
    """Malformed or inconsistent input files."""


@dataclass
class Vocabulary:
    """Raw-string id to dense index maps for users, items, and extra columns."""

    users: dict[str, int] = field(default_factory=dict)
    items: dict[str, int] = field(default_factory=dict)
    extras: dict[str, dict[str, int]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"users": self.users, "items": self.items, "extras": self.extras}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "Vocabulary":
        return cls(
            users=dict(payload.get("users", {})),
            items=dict(payload.get("items", {})),
            extras={k: dict(v) for k, v in payload.get("extras", {}).items()},
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    def save(self, path) -> None:
        with open(path, "w", newline="\n", encoding="utf-8") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """Read what ``save`` wrote; anything else raises one
        ``DataFormatError`` that names the file."""
        with open(path, "rb") as fh:
            text = fh.read()
        try:
            vocab = cls.from_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: not a vocabulary file: invalid JSON ({exc})") from None
        except (AttributeError, TypeError, ValueError):  # JSON of another shape
            raise DataFormatError(f"{path}: not a vocabulary file") from None
        maps = [("users", vocab.users), ("items", vocab.items),
                *((f"extra column {name!r}", ids) for name, ids in vocab.extras.items())]
        for name, mapping in maps:
            # dense ids index arrays, so each map takes its raw ids one-to-one onto 0..n-1
            ids = list(mapping.values())
            if not all(type(i) is int for i in ids) or sorted(ids) != list(range(len(ids))):
                raise DataFormatError(
                    f"{path}: the {name} ids are not the distinct integers 0..{len(ids) - 1}"
                )
        return vocab


_BITS = {"0": 0, "1": 1}
_COMMA, _NL = ord(","), ord("\n")


def _lookup(mapping: dict[str, int], values: Sequence[str], extend: bool = False) -> np.ndarray:
    """``mapping[v]`` for every value, -1 where it has none; with ``extend``,
    values new to ``mapping`` first take the next dense ids by first appearance."""
    if extend:
        new = [v for v in dict.fromkeys(values) if v not in mapping]
        mapping.update(zip(new, range(len(mapping), len(mapping) + len(new))))
    return np.fromiter(map(mapping.get, values, itertools.repeat(-1)), np.int64, len(values))


def load_triplets(
    path,
    vocab: Vocabulary | None = None,
    *,
    allow_unknown: bool = False,
) -> tuple[np.ndarray, dict[str, np.ndarray], Vocabulary]:
    """Read `user_id,item_id,correct[,extra...]` rows in chronological order
    into a read-only ``(N, 3)`` int64 array of (student, item, outcome).

    Without a vocabulary, dense ids are assigned by first appearance. A
    provided vocabulary is frozen: unknown users/items raise, unless
    ``allow_unknown`` maps them to id -1 (their one-hot drops out at encode
    time). Unseen values in a frozen extra column always raise; extra columns
    a frozen vocabulary does not know are ignored entirely. A faulty file
    raises for its first faulty line.

    A plain file (see ``_read_plain_log``), as ``synth`` and
    ``import-assistments`` write it, is read in one numpy pass over its whole
    text; any other file, and any faulty one, row by row by ``csv.reader``
    (``_read_csv_log``), which alone names a faulty line. Either read hands
    over one array of codes, of which the triplets and each extra column are
    views.
    """
    fresh = vocab is None
    read = _read_plain_log(path, Vocabulary() if fresh else vocab, fresh, allow_unknown)
    if read is None:
        read = _read_csv_log(path, Vocabulary() if fresh else vocab, fresh, allow_unknown)
    codes, names, vocab = read
    unknown = int(np.count_nonzero((codes[0] < 0) | (codes[1] < 0)))
    if unknown:
        warnings.warn(f"{path}: {unknown} rows reference ids outside the vocabulary")
    return _readonly(codes[:3].T), {name: codes[k] for k, name in enumerate(names, start=3)}, vocab


def _log_columns(path, header: list[str], vocab: Vocabulary, fresh: bool, allow_unknown: bool):
    """The extra columns that a log's header names and ``load_triplets``
    reads; the (position, mapping, extend, fault) of each column read, in
    header order; and the order in which a row's columns are checked."""
    header = [h.strip() for h in header]
    if header[:3] != ["user_id", "item_id", "correct"]:
        raise DataFormatError(
            f"{path}: header must start with user_id,item_id,correct, got {header[:3]}"
        )
    names = [name for name in header[3:] if fresh or name in vocab.extras]
    if len(set(names)) < len(names):
        raise DataFormatError(f"{path}: header repeats an extra column name: {names}")
    columns = [
        (0, vocab.users, fresh, lambda value: "id not in the provided vocabulary"),
        (1, vocab.items, fresh, lambda value: "id not in the provided vocabulary"),
        (2, _BITS, False, lambda value: f"correct must be 0 or 1, got {value!r}"),
        *(
            (header.index(name, 3), vocab.extras.setdefault(name, {}), fresh,
             lambda value, name=name: f"unseen value {value!r} for extra column {name!r}")
            for name in names
        ),
    ]
    return names, columns, [2, *(() if allow_unknown else (0, 1)), *range(3, len(columns))]


# a field of at most 8 bytes packs into one uint64 key, whose low L bytes
# _KEY_MASKS[L] keeps
_KEY_BYTES = 8
_KEY_MASKS = np.array([(1 << 8 * n) - 1 for n in range(_KEY_BYTES + 1)], dtype="<u8")


def _read_plain_log(path, vocab: Vocabulary, fresh: bool, allow_unknown: bool):
    """The codes (one row per column read), extra names and vocabulary of a
    plain log, read in one pass over its whole text; None for a log that is
    not plain or that holds a fault.

    A plain log holds printable ASCII but no space or quote, ends every line,
    its header included, with "\\n", and has as many fields on every line as
    in its header, each read field of at most 8 bytes. Each column's fields
    pack into uint64 keys, which hold their field's bytes in order,
    zero-padded, so two fields share a key only if they are equal; each
    distinct key is decoded and looked up once, in order of first appearance.
    Besides the text, the pass holds its separators' offsets (8 bytes per
    field) and the codes (8 bytes per field read).
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        raw = np.zeros(size + _KEY_BYTES, np.uint8)  # the spare zeros end the last fields' words
        text = raw[: fh.readinto(raw[:size])]
    ends = text == _NL
    n_lines = int(np.count_nonzero(ends))  # the header's included
    # the bytes of a plain log: line ends, and printable ASCII but the space and the
    # quote, so that neither csv.reader nor str.strip changes a field
    plain = ((text > 0x20) & (text < 0x7F) & (text != ord('"')) | ends).all()
    if n_lines < 2 or text[-1] != _NL or not plain:
        return None
    header = text[: int(np.argmax(ends))].tobytes().decode().split(",")
    try:
        names, columns, checked = _log_columns(path, header, vocab, fresh, allow_unknown)
    except DataFormatError:
        return None
    n_fields = len(header)
    ends |= text == _COMMA
    seps = np.flatnonzero(ends)
    del ends
    # the text holds n_lines "\n"; when each is the last separator of a line,
    # no line holds more or fewer than n_fields fields
    if seps.size != n_lines * n_fields or (text[seps[n_fields - 1 :: n_fields]] != _NL).any():
        return None
    # the little-endian word of the 8 bytes at each offset
    words = np.ndarray(text.shape, dtype="<u8", buffer=raw, strides=(1,))
    codes = np.empty((len(columns), n_lines - 1), np.int64)
    for row, (pos, mapping, extend, _) in enumerate(columns):
        # the separators before and after field pos of every line but the header
        starts = seps[n_fields + pos - 1 :: n_fields][: n_lines - 1] + 1
        lengths = seps[n_fields + pos :: n_fields] - starts
        if (lengths > _KEY_BYTES).any():
            return None
        keys = words[starts] & _KEY_MASKS[lengths]
        distinct, inverse = np.unique(keys, return_inverse=True)
        first = np.full(distinct.size, keys.size)
        np.minimum.at(first, inverse, np.arange(keys.size))
        order = np.argsort(first)  # by first appearance
        values = distinct[order].astype("<u8").view(f"S{_KEY_BYTES}").astype(str).tolist()
        ids = np.empty(distinct.size, np.int64)
        ids[order] = _lookup(mapping, values, extend)
        if row in checked and (ids < 0).any():
            return None
        codes[row] = ids[inverse]
    return codes, names, vocab


def _read_csv_log(path, vocab: Vocabulary, fresh: bool, allow_unknown: bool):
    """The codes (one row per column read, a view of one row-major array),
    extra names and vocabulary of any log, read row by row by ``csv.reader``;
    a faulty log raises for its first faulty line."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        names, columns, order = _log_columns(path, header, vocab, fresh, allow_unknown)
        positions, mappings, extends, faults = zip(*columns)
        codes = array.array("q")
        for line, record in enumerate(reader, start=2):
            if len(record) != len(header):
                if len(record) > 1 or record and record[0].strip():
                    raise DataFormatError(f"{path}: line {line}: expected {len(header)} fields, got {len(record)}")
                continue  # a blank line
            values = [record[pos].strip() for pos in positions]
            row = list(map(dict.get, mappings, values))
            if None in row:  # a value new to its column, or a fault
                for k in order:
                    if row[k] is None and not extends[k]:
                        raise DataFormatError(f"{path}: line {line}: {faults[k](values[k])}")
                for k, mapping in enumerate(mappings):
                    if row[k] is None:  # -1 for an unknown id that ``allow_unknown`` lets through
                        row[k] = mapping.setdefault(values[k], len(mapping)) if extends[k] else -1
            codes.extend(row)
    if not codes:
        raise DataFormatError(f"{path}: no data rows")
    return np.frombuffer(codes, np.int64).reshape(-1, len(columns)).T, names, vocab


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
    quoted or padded with spaces, and blank lines are skipped.

    A file of bare cells, split by "," and ended by "\\n" on every line, as
    ``synth``, ``import-assistments`` and numpy's ``savetxt`` write it, is
    read as one byte grid (``_plain_qmatrix``); any other file, and any faulty
    one, row by row by ``csv.reader``, which names the first fault.
    """
    with open(path, "rb") as fh:
        cells = _plain_qmatrix(fh.read())
    if cells is not None:
        return QMatrix(cells)
    text, width = bytearray(), 0  # the cells of each row read, as the bytes "0" and "1"
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for line, record in enumerate(csv.reader(fh), start=1):
            if len(record) < 2 and not "".join(record).strip():
                continue  # a blank line
            row = list(map(str.strip, record))
            if not _BITS.keys() >= set(row):
                cell = next(cell for cell in row if cell not in _BITS)
                raise EncodingError(f"{path}: line {line}: cell {cell!r} is not 0/1")
            width = width or len(row)
            if len(row) != width:
                raise EncodingError(f"{path}: line {line}: expected {width} columns, got {len(row)}")
            text += "".join(row).encode()
    if not text:
        raise EncodingError(f"{path}: empty q-matrix")
    grid = np.frombuffer(text, np.uint8).reshape(-1, width)
    grid -= np.uint8(ord("0"))
    return QMatrix(grid)


def write_triplets(path, triplets, vocab: Vocabulary | None = None) -> None:
    """Inverse of :func:`load_triplets` for an ``(N, 3)`` int array-like;
    dense ids map back through the vocab."""
    student, item, outcome = np.asarray(triplets).reshape(-1, 3).T.tolist()
    if vocab is not None:
        student = list(map({v: k for k, v in vocab.users.items()}.__getitem__, student))
        item = list(map({v: k for k, v in vocab.items.items()}.__getitem__, item))
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user_id", "item_id", "correct"])
        writer.writerows(zip(student, item, outcome))


def align_qmatrix(q: QMatrix, item_vocab: Mapping[str, int], *, vocab_order: bool = False) -> QMatrix:
    """Permute q-matrix rows into dense item order.

    When every raw item id is an integer, q-matrix rows follow those ids (0-
    or 1-based, detected from the id range), whatever ``vocab_order`` says,
    so a log aligns the same way with or without a vocabulary file. Ids that
    fit both bases (all >= 1 and below the row count) are taken as 0-based,
    with a warning: such a log cannot tell whether row 0 or the last row is
    the one no item uses. Only for non-integer ids do the rows follow the
    vocabulary's dense indexing, which ``vocab_order`` declares and which
    needs an explicit vocabulary file.
    """
    n_dense = len(item_vocab)
    if n_dense == 0:
        raise EncodingError("empty item vocabulary")
    try:
        raw_ids = {raw: int(raw) for raw in item_vocab}
    except ValueError:
        if not vocab_order:
            raise EncodingError(
                "item ids are not integers; supply a vocabulary file whose dense "
                "order matches the q-matrix rows"
            ) from None
        if q.n_items < n_dense:
            raise EncodingError(
                f"q-matrix has {q.n_items} rows but vocabulary names {n_dense} items"
            ) from None
        return q  # trailing rows are simply items never attempted
    low, high = min(raw_ids.values()), max(raw_ids.values())
    if low >= 1 and high == q.n_items:
        base = 1
    elif low >= 0 and high < q.n_items:
        base = 0
        if low >= 1:
            warnings.warn(
                f"item ids span [{low}, {high}], which index a {q.n_items}-row q-matrix "
                f"0- or 1-based; reading them as 0-based, so q-matrix row 0 goes unused",
                stacklevel=2,
            )
    else:
        raise EncodingError(
            f"item ids span [{low}, {high}] which does not index "
            f"a {q.n_items}-row q-matrix"
        )
    order = np.zeros(n_dense, dtype=np.int64)
    for raw, dense in item_vocab.items():
        order[dense] = raw_ids[raw] - base
    return q.reordered(order)


@dataclass
class Dataset:
    """A loaded log plus everything needed to encode it; ``triplets`` is
    stored as a read-only ``(N, 3)`` int64 array of (student, item, outcome)."""

    triplets: np.ndarray
    qmatrix: QMatrix | None
    vocab: Vocabulary
    extras: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.triplets = _readonly(np.asarray(self.triplets, dtype=np.int64).reshape(-1, 3))

    @property
    def n_students(self) -> int:
        return len(self.vocab.users)

    @property
    def n_items(self) -> int:
        if self.qmatrix is not None:
            return self.qmatrix.n_items
        return len(self.vocab.items)

    @property
    def extra_columns(self) -> tuple[tuple[str, int], ...]:
        return tuple((name, len(self.vocab.extras[name])) for name in self.extras)


def load_dataset(
    triplets_path,
    qmatrix_path=None,
    vocab_path=None,
) -> Dataset:
    vocab = Vocabulary.load(vocab_path) if vocab_path else None
    triplets, extras, vocab = load_triplets(triplets_path, vocab)
    qmatrix = None
    if qmatrix_path:
        raw = load_qmatrix(qmatrix_path)
        qmatrix = align_qmatrix(raw, vocab.items, vocab_order=vocab_path is not None)
    return Dataset(triplets, qmatrix, vocab, extras)


# ---------------------------------------------------------------------------
# synthetic generators


# each generator is the FM of one block set
GENERATOR_BLOCKS = {
    "rasch": ("users", "items"),
    "mirt": ("users", "items"),
    "pfa": ("skills", "wins", "fails"),
    "ktm": ("users", "items", "skills", "wins", "fails"),
}


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic log with known ground truth."""

    generator: str  # rasch | mirt | pfa | ktm
    n_students: int
    n_items: int
    n_skills: int = 0
    d: int = 0
    attempts: int = 1  # per (student, item) pair
    link: Link = Link.LOGIT
    seed: int = 0
    scale: float = 1.0  # std dev of the true parameters

    def __post_init__(self):
        if self.generator not in GENERATOR_BLOCKS:
            raise ValueError(f"unknown generator {self.generator!r}")
        if min(self.n_students, self.n_items, self.attempts) <= 0:
            raise ValueError("counts must be positive")
        if self.generator in ("mirt", "ktm") and self.d < 1:
            raise ValueError(f"{self.generator} needs d >= 1")
        if self.generator in ("pfa", "ktm") and self.n_skills <= 0:
            raise ValueError(f"{self.generator} needs skills")
        if self.scale <= 0:
            raise ValueError("scale must be positive")


@dataclass
class SyntheticData:
    triplets: np.ndarray  # read-only (N, 3) int64: student, item, outcome
    qmatrix: QMatrix | None
    truth: dict


def _random_qmatrix(n_items: int, n_skills: int, rng) -> QMatrix:
    """Each item exercises one or two distinct skills."""
    m = np.zeros((n_items, n_skills), dtype=np.int8)
    for j in range(n_items):
        count = 1 if n_skills == 1 else int(rng.integers(1, 3))
        for k in rng.choice(n_skills, size=count, replace=False):
            m[j, k] = 1
    return QMatrix(m)


def generate_synthetic(spec: SynthSpec) -> SyntheticData:
    """Draw the FM parameters of the generator's block set, the attempt order
    and one uniform per attempt, then settle the outcomes against the oracle.

    rasch/mirt shuffle every (student, item, pass) together; pfa/ktm let each
    student take the items in a fresh random order on every pass.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(1)[0])
    n, m = spec.n_students, spec.n_items
    truth: dict = {
        "generator": spec.generator,
        "link": spec.link.value,
        "seed": spec.seed,
        "n_students": n,
        "n_items": m,
    }
    q = None
    if spec.generator in ("rasch", "mirt"):
        truth["ability"] = rng.normal(0.0, spec.scale, size=n).tolist()
        truth["difficulty"] = rng.normal(0.0, spec.scale, size=m).tolist()
        if spec.generator == "mirt":
            emb_scale = spec.scale / np.sqrt(spec.d)
            truth["user_vectors"] = rng.normal(0.0, emb_scale, size=(n, spec.d)).tolist()
            truth["item_vectors"] = rng.normal(0.0, emb_scale, size=(m, spec.d)).tolist()
        pair = np.tile(np.arange(n * m), spec.attempts)[rng.permutation(n * m * spec.attempts)]
        students, items = np.divmod(pair, m)
        uniforms = rng.random(pair.size)
    else:
        q = _random_qmatrix(m, spec.n_skills, rng)
        truth["qmatrix"] = q.matrix.tolist()
        if spec.generator == "pfa":
            truth["skill_bias"] = rng.normal(0.0, spec.scale, size=spec.n_skills).tolist()
            truth["win_gain"] = np.abs(rng.normal(0.0, spec.scale / 4, size=spec.n_skills)).tolist()
            truth["fail_gain"] = (-np.abs(rng.normal(0.0, spec.scale / 4, size=spec.n_skills))).tolist()
        else:
            space = EncodingConfig(GENERATOR_BLOCKS["ktm"]).feature_space(n, m, spec.n_skills)
            truth["w"] = rng.normal(0.0, spec.scale / 2, size=space.width).tolist()
            v_scale = spec.scale / (2 * np.sqrt(spec.d))
            truth["V"] = rng.normal(0.0, v_scale, size=(space.width, spec.d)).tolist()
            truth["blocks"] = list(space.blocks)
        students = np.repeat(np.arange(n), m * spec.attempts)
        draws = [(rng.permutation(m), rng.random(m)) for _ in range(n * spec.attempts)]
        items, uniforms = (np.concatenate(parts) for parts in zip(*draws))
    return SyntheticData(settle_outcomes(truth, students, items, uniforms), q, truth)


def _truth_model(truth: Mapping) -> tuple[EncodingConfig, QMatrix | None, FMParams]:
    """The FM that ``truth`` describes: block set, q-matrix and parameters."""
    kind = truth["generator"]
    if kind not in GENERATOR_BLOCKS:
        raise ValueError(f"no oracle for generator {kind!r}")
    config = EncodingConfig(GENERATOR_BLOCKS[kind])
    if kind in ("rasch", "mirt"):
        w = np.concatenate([truth["ability"], np.negative(truth["difficulty"])])
        V = np.vstack([truth["user_vectors"], truth["item_vectors"]]) if kind == "mirt" else None
        return config, None, FMParams(0.0, w, V)
    q = QMatrix(np.array(truth["qmatrix"], dtype=np.int8))
    if kind == "pfa":
        w = np.concatenate([truth["skill_bias"], truth["win_gain"], truth["fail_gain"]])
        return config, q, FMParams(0.0, w)
    return config, q, FMParams(0.0, truth["w"], truth["V"])


def oracle_probabilities(truth: Mapping, triplets) -> np.ndarray:
    """True success probabilities under the generating parameters of every
    row of the ``(N, 3)`` int array-like ``triplets``.

    Every generator is an FM, so this is its score on the encoded log. The
    encoder replays the observed outcomes into the counter blocks, so the
    returned probability is the one each attempt was actually drawn from.
    """
    config, q, params = _truth_model(truth)
    data = encode_dataset(triplets, q, config, int(truth["n_students"]), n_items=int(truth["n_items"]))
    return Link(truth["link"]).inverse(raw_scores(params, data))


def settle_outcomes(truth: Mapping, students, items, uniforms) -> np.ndarray:
    """The log, as a read-only ``(N, 3)`` int64 array, whose outcome ``r`` is
    ``uniforms[r] < p_r``, with ``p_r`` the oracle probability given the log's
    own earlier outcomes.

    An outcome depends only on its student's earlier ones, so re-scoring until
    nothing changes settles at least one more attempt of every student per
    round: the loop ends within the longest per-student run plus one rounds.
    """
    log = np.stack([students, items, np.zeros_like(students)], axis=1)
    while True:
        outcome = uniforms < oracle_probabilities(truth, log)
        if np.array_equal(outcome, log[:, 2]):
            return _readonly(log)
        log[:, 2] = outcome


def write_synthetic(data: SyntheticData, outdir) -> dict[str, str]:
    """Write triplets.csv (+ qmatrix.csv) and truth.json; returns the paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {"triplets": str(outdir / "triplets.csv"), "truth": str(outdir / "truth.json")}
    write_triplets(paths["triplets"], data.triplets)
    if data.qmatrix is not None:
        paths["qmatrix"] = str(outdir / "qmatrix.csv")
        np.savetxt(paths["qmatrix"], data.qmatrix.matrix, fmt="%d", delimiter=",", encoding="utf-8")
    with open(paths["truth"], "w", newline="\n", encoding="utf-8") as fh:
        json.dump(data.truth, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return paths


# ---------------------------------------------------------------------------
# Assistments 2009-2010 skill-builder CSV

ASSISTMENTS_EXTRAS = ("first_action", "school_id", "teacher_id", "tutor_mode")


def convert_assistments(path, out_triplets, out_qmatrix) -> None:
    """Rewrite the public skill-builder CSV into the plain triplet format.

    Expects at least ``order_id, user_id, problem_id, correct, skill_id`` plus
    the four extra columns. Multi-skill problems appear as repeated rows with
    the same order id; they are merged into one interaction whose item maps to
    all its skills in the q-matrix. Rows without a skill tag keep an empty
    skill set. An order id that is not an integer, or an export without a row
    whose correct is 0 or 1, raises ``DataFormatError`` before anything is
    written.
    """
    by_order: dict[int, list[str]] = {}  # the output row of each order id
    problem_skills: dict[str, set[str]] = {}
    with open(path, newline="", encoding="utf-8-sig", errors="replace") as fh:
        reader = csv.DictReader(fh)
        need = {"order_id", "user_id", "problem_id", "correct"}
        if not need.issubset(reader.fieldnames or ()):
            raise DataFormatError(
                f"{path}: missing columns {sorted(need - set(reader.fieldnames or ()))}"
            )
        for record in reader:
            try:
                order = int(record["order_id"])
            except ValueError:
                raise DataFormatError(
                    f"{path}: line {reader.line_num}: order_id must be an integer, "
                    f"got {record['order_id']!r}"
                ) from None
            problem = record["problem_id"].strip()
            skill = (record.get("skill_id") or "").strip()
            if skill and skill.lower() != "na":
                problem_skills.setdefault(problem, set()).add(skill)
            if order in by_order:
                continue
            correct = record["correct"].strip()
            if correct not in ("0", "1"):
                continue  # scaffolding rows carry partial credit; skip them
            by_order[order] = [
                record["user_id"].strip(),
                problem,
                correct,
                *((record.get(name) or "unknown").strip() or "unknown" for name in ASSISTMENTS_EXTRAS),
            ]

    if not by_order:
        raise DataFormatError(f"{path}: no rows with a correct of 0 or 1")
    skills = sorted({s for group in problem_skills.values() for s in group})
    skill_col = {s: k for k, s in enumerate(skills)}
    rows = [by_order[order] for order in sorted(by_order)]
    problems = {problem: str(dense) for dense, problem in enumerate(dict.fromkeys(row[1] for row in rows))}
    with open(out_triplets, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user_id", "item_id", "correct", *ASSISTMENTS_EXTRAS])
        writer.writerows([user, problems[problem], *rest] for user, problem, *rest in rows)
    matrix = np.zeros((len(problems), max(len(skills), 1)), dtype=np.int8)
    for dense, problem in enumerate(problems):
        for skill in problem_skills.get(problem, ()):
            matrix[dense, skill_col[skill]] = 1
    np.savetxt(out_qmatrix, matrix, fmt="%d", delimiter=",", encoding="utf-8")
