"""Dataset loading, id vocabularies, and synthetic data generation.

Raw logs arrive as CSV with string ids; everything downstream wants dense
0-based ids, so loaders build (or reuse) a vocabulary mapping raw ids to
dense indices by first appearance. The synthetic generators exist as
verification oracles: they save the parameters that produced the data so
recovery can be checked against ground truth. Each generator is the FM of a
block set (``GENERATOR_BLOCKS``); its outcomes are drawn against the same
oracle that ``oracle_probabilities`` exposes, so the encoder's counter replay
is the only one in the package.
"""

from __future__ import annotations

import csv
import hashlib
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .encoding import EncodingConfig, EncodingError, QMatrix, Triplet, encode_dataset, load_qmatrix
from .model import FMParams, Link, raw_scores


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
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _assign(mapping: dict[str, int], raw: str, extend: bool) -> int:
    if raw in mapping:
        return mapping[raw]
    if not extend:
        return -1
    mapping[raw] = len(mapping)
    return mapping[raw]


def load_triplets(
    path,
    vocab: Vocabulary | None = None,
    *,
    allow_unknown: bool = False,
) -> tuple[list[Triplet], dict[str, np.ndarray], Vocabulary]:
    """Read `user_id,item_id,correct[,extra...]` rows in chronological order.

    Without a vocabulary, dense ids are assigned by first appearance. A
    provided vocabulary is frozen: unknown users/items raise, unless
    ``allow_unknown`` maps them to id -1 (their one-hot drops out at encode
    time). Unseen values in a frozen extra column always raise; extra columns
    a frozen vocabulary does not know are ignored entirely.
    """
    fresh = vocab is None
    vocab = Vocabulary() if fresh else vocab
    triplets: list[Triplet] = []
    extras: dict[str, list[int]] = {}
    unknown = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if header[:3] != ["user_id", "item_id", "correct"]:
            raise DataFormatError(
                f"{path}: header must start with user_id,item_id,correct, got {header[:3]}"
            )
        tracked = [
            (pos, name)
            for pos, name in enumerate(header[3:], start=3)
            if fresh or name in vocab.extras
        ]
        for _, name in tracked:
            extras[name] = []
            vocab.extras.setdefault(name, {})
        for lineno, record in enumerate(reader, start=2):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            if len(record) != len(header):
                raise DataFormatError(
                    f"{path}: line {lineno}: expected {len(header)} fields, got {len(record)}"
                )
            raw_user, raw_item, raw_correct = (f.strip() for f in record[:3])
            if raw_correct not in ("0", "1"):
                raise DataFormatError(
                    f"{path}: line {lineno}: correct must be 0 or 1, got {raw_correct!r}"
                )
            user = _assign(vocab.users, raw_user, fresh)
            item = _assign(vocab.items, raw_item, fresh)
            if user < 0 or item < 0:
                if not allow_unknown:
                    raise DataFormatError(
                        f"{path}: line {lineno}: id not in the provided vocabulary"
                    )
                unknown += 1
            triplets.append(Triplet(user, item, int(raw_correct)))
            for pos, name in tracked:
                raw_value = record[pos].strip()
                column = vocab.extras[name]
                if raw_value not in column:
                    if not fresh:
                        raise DataFormatError(
                            f"{path}: line {lineno}: unseen value {raw_value!r} "
                            f"for extra column {name!r}"
                        )
                    column[raw_value] = len(column)
                extras[name].append(column[raw_value])
    if not triplets:
        raise DataFormatError(f"{path}: no data rows")
    if unknown:
        warnings.warn(f"{path}: {unknown} rows reference ids outside the vocabulary")
    return triplets, {k: np.array(v) for k, v in extras.items()}, vocab


def write_triplets(path, triplets: Sequence[Triplet], vocab: Vocabulary | None = None) -> None:
    """Inverse of :func:`load_triplets`; dense ids map back through the vocab."""
    inv_users = inv_items = None
    if vocab is not None:
        inv_users = {v: k for k, v in vocab.users.items()}
        inv_items = {v: k for k, v in vocab.items.items()}
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user_id", "item_id", "correct"])
        for t in triplets:
            user = inv_users[t.student] if inv_users else str(t.student)
            item = inv_items[t.item] if inv_items else str(t.item)
            writer.writerow([user, item, str(t.outcome)])


def align_qmatrix(q: QMatrix, item_vocab: Mapping[str, int], *, vocab_order: bool = False) -> QMatrix:
    """Permute q-matrix rows into dense item order.

    When every raw item id is an integer, q-matrix rows follow those ids (0-
    or 1-based, detected from the id range), whatever ``vocab_order`` says,
    so a log aligns the same way with or without a vocabulary file. Only for
    non-integer ids do the rows follow the vocabulary's dense indexing, which
    ``vocab_order`` declares and which needs an explicit vocabulary file.
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
    values = raw_ids.values()
    if min(values) >= 1 and max(values) == q.n_items:
        base = 1
    elif min(values) >= 0 and max(values) < q.n_items:
        base = 0
    else:
        raise EncodingError(
            f"item ids span [{min(values)}, {max(values)}] which does not index "
            f"a {q.n_items}-row q-matrix"
        )
    order = np.zeros(n_dense, dtype=np.int64)
    for raw, dense in item_vocab.items():
        order[dense] = raw_ids[raw] - base
    return q.reordered(order)


@dataclass
class Dataset:
    """A loaded log plus everything needed to encode it."""

    triplets: list[Triplet]
    qmatrix: QMatrix | None
    vocab: Vocabulary
    extras: dict[str, np.ndarray] = field(default_factory=dict)

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
    triplets: list[Triplet]
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


def oracle_probabilities(truth: Mapping, triplets: Sequence[Triplet]) -> np.ndarray:
    """True success probabilities under the generating parameters.

    Every generator is an FM, so this is its score on the encoded log. The
    encoder replays the observed outcomes into the counter blocks, so the
    returned probability is the one each attempt was actually drawn from.
    ``triplets`` may also be an ``(N, 3)`` int array.
    """
    config, q, params = _truth_model(truth)
    data = encode_dataset(triplets, q, config, int(truth["n_students"]), n_items=int(truth["n_items"]))
    return Link(truth["link"]).inverse(raw_scores(params, data))


def settle_outcomes(truth: Mapping, students, items, uniforms) -> list[Triplet]:
    """The log whose outcome ``r`` is ``uniforms[r] < p_r``, with ``p_r`` the
    oracle probability given the log's own earlier outcomes.

    An outcome depends only on its student's earlier ones, so re-scoring until
    nothing changes settles at least one more attempt of every student per
    round: the loop ends within the longest per-student run plus one rounds.
    """
    log = np.stack([students, items, np.zeros_like(students)], axis=1)
    while True:
        outcome = uniforms < oracle_probabilities(truth, log)
        if np.array_equal(outcome, log[:, 2]):
            return list(map(Triplet._make, log.tolist()))
        log[:, 2] = outcome


def write_synthetic(data: SyntheticData, outdir) -> dict[str, str]:
    """Write triplets.csv (+ qmatrix.csv) and truth.json; returns the paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {"triplets": str(outdir / "triplets.csv"), "truth": str(outdir / "truth.json")}
    write_triplets(paths["triplets"], data.triplets)
    if data.qmatrix is not None:
        paths["qmatrix"] = str(outdir / "qmatrix.csv")
        with open(paths["qmatrix"], "w", newline="\n") as fh:
            for row in data.qmatrix.matrix:
                fh.write(",".join(str(int(c)) for c in row) + "\n")
    with open(paths["truth"], "w", newline="\n") as fh:
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
    skill set.
    """
    by_order: dict[int, dict] = {}
    problem_skills: dict[str, set[str]] = {}
    with open(path, newline="", encoding="utf-8", errors="replace") as fh:
        reader = csv.DictReader(fh)
        need = {"order_id", "user_id", "problem_id", "correct"}
        if not need.issubset(reader.fieldnames or ()):
            raise DataFormatError(
                f"{path}: missing columns {sorted(need - set(reader.fieldnames or ()))}"
            )
        for record in reader:
            order = int(record["order_id"])
            problem = record["problem_id"].strip()
            skill = (record.get("skill_id") or "").strip()
            if skill and skill.lower() != "na":
                problem_skills.setdefault(problem, set()).add(skill)
            if order in by_order:
                continue
            correct = record["correct"].strip()
            if correct not in ("0", "1"):
                continue  # scaffolding rows carry partial credit; skip them
            entry = {
                "user_id": record["user_id"].strip(),
                "item_id": problem,
                "correct": correct,
            }
            for name in ASSISTMENTS_EXTRAS:
                entry[name] = (record.get(name) or "unknown").strip() or "unknown"
            by_order[order] = entry

    skills = sorted({s for group in problem_skills.values() for s in group})
    skill_col = {s: k for k, s in enumerate(skills)}
    problems: dict[str, int] = {}
    rows = [by_order[order] for order in sorted(by_order)]
    for entry in rows:
        problems.setdefault(entry["item_id"], len(problems))

    with open(out_triplets, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["user_id", "item_id", "correct", *ASSISTMENTS_EXTRAS])
        for entry in rows:
            writer.writerow(
                [entry["user_id"], str(problems[entry["item_id"]]), entry["correct"]]
                + [entry[name] for name in ASSISTMENTS_EXTRAS]
            )
    matrix = np.zeros((len(problems), max(len(skills), 1)), dtype=np.int8)
    for problem, dense in problems.items():
        for skill in problem_skills.get(problem, ()):
            matrix[dense, skill_col[skill]] = 1
    with open(out_qmatrix, "w", newline="\n") as fh:
        for row in matrix:
            fh.write(",".join(str(int(c)) for c in row) + "\n")
