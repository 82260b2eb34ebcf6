"""Reference computations and output checks that share no code with ``ktfm``.

Everything here reads the program's files (design text, model JSON,
predictions, reports) and the generator's inputs with the standard library
alone, and recomputes what the program should have written:

- a replay encoder: vocabularies by first appearance, the q-matrix aligned by
  raw item id, and per-skill win/fail counters as they stood before each
  attempt, masked to the attempted item's skills;
- the factorization-machine score of a replayed row from ``bias``/``w``/``V``;
- accuracy, AUC (average ranks, ties count one half) and NLL.

Each ``check_*`` function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

# built-in blocks of each preset, and whether the extra columns follow them
PRESET_BLOCKS = {
    "ktm-iswf": (("items", "skills", "wins", "fails"), False),
    "ktm-iswfe": (("items", "skills", "wins", "fails"), True),
}
PROB_EPS = 1e-15
NLL_EPS = 1e-12
# how far a model's AUC may exceed the generating oracle's on the same rows
ORACLE_AUC_MARGIN = 0.03
REL_TOL = 1e-9


@dataclass
class Log:
    """A triplet CSV as raw strings: header and records."""

    header: list[str]
    records: list[list[str]]

    @property
    def extra_names(self) -> list[str]:
        return self.header[3:]

    @property
    def labels(self) -> list[int]:
        return [int(r[2]) for r in self.records]


def read_log(path) -> Log:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return Log([h.strip() for h in rows[0]], [[c.strip() for c in r] for r in rows[1:] if r])


def read_qmatrix(path) -> tuple[list[tuple[int, ...]], int]:
    """Skills of each raw item id, in q-matrix row order, and the skill count."""
    with open(path) as fh:
        cells = [line.strip().split(",") for line in fh if line.strip()]
    return [tuple(k for k, c in enumerate(row) if c == "1") for row in cells], len(cells[0])


@dataclass
class Vocab:
    users: dict[str, int] = field(default_factory=dict)
    items: dict[str, int] = field(default_factory=dict)
    extras: dict[str, dict[str, int]] = field(default_factory=dict)

    @classmethod
    def of(cls, log: Log) -> "Vocab":
        """Dense ids by first appearance, as a fresh load assigns them."""
        v = cls(extras={name: {} for name in log.extra_names})
        for r in log.records:
            v.users.setdefault(r[0], len(v.users))
            v.items.setdefault(r[1], len(v.items))
            for name, value in zip(log.extra_names, r[3:]):
                column = v.extras[name]
                column.setdefault(value, len(column))
        return v

    def as_dict(self) -> dict:
        return {"users": self.users, "items": self.items, "extras": self.extras}


@dataclass
class Encoded:
    width: int
    blocks: list[tuple[str, int]]
    rows: list[list[tuple[int, float]]]
    labels: list[int]


def replay_encode(
    log: Log,
    vocab: Vocab,
    item_skills: list[tuple[int, ...]],
    n_skills: int,
    names: tuple[str, ...],
    wants_extras: bool = False,
) -> Encoded:
    """Rows the program should encode for ``log`` with the blocks ``names``.

    ``item_skills`` is indexed by dense item id (already aligned). Ids the
    vocabulary does not know drop their one-hot; an unknown item has no
    skills, and an unknown student keeps no counters.
    """
    widths = {
        "users": len(vocab.users),
        "items": len(vocab.items),
        "skills": n_skills,
        "wins": n_skills,
        "fails": n_skills,
    }
    blocks = [(b, widths[b]) for b in names]
    extra_pos = []
    if wants_extras:
        for name, column in vocab.extras.items():
            blocks.append((name, len(column)))
            extra_pos.append((name, 3 + log.extra_names.index(name)))
    offset, at = {}, 0
    for b, w in blocks:
        offset[b] = at
        at += w
    wins: dict[tuple[int, int], int] = {}
    fails: dict[tuple[int, int], int] = {}
    rows = []
    for r in log.records:
        student = vocab.users.get(r[0], -1)
        item = vocab.items.get(r[1], -1)
        kc = item_skills[item] if item >= 0 else ()
        entries: list[tuple[int, float]] = []
        if "users" in offset and student >= 0:
            entries.append((offset["users"] + student, 1.0))
        if "items" in offset and item >= 0:
            entries.append((offset["items"] + item, 1.0))
        if "skills" in offset:
            entries.extend((offset["skills"] + k, 1.0) for k in kc)
        if student >= 0:
            for block, counts in (("wins", wins), ("fails", fails)):
                for k in kc:
                    c = counts.get((student, k), 0)
                    if c:
                        entries.append((offset[block] + k, float(c)))
        for name, pos in extra_pos:
            entries.append((offset[name] + vocab.extras[name][r[pos]], 1.0))
        rows.append(entries)
        if student >= 0:
            counts = wins if r[2] == "1" else fails
            for k in kc:
                counts[(student, k)] = counts.get((student, k), 0) + 1
    return Encoded(at, blocks, rows, [int(r[2]) for r in log.records])


def aligned_skills(vocab: Vocab, qrows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """q-matrix rows in dense item order, each row found by the item's raw id."""
    out: list[tuple[int, ...]] = [()] * len(vocab.items)
    for raw, dense in vocab.items.items():
        out[dense] = qrows[int(raw)]
    return out


def read_design(path) -> tuple[int, list[int], list[list[tuple[int, float]]]]:
    with open(path) as fh:
        width = int(fh.readline().split()[1])
        labels, rows = [], []
        for line in fh:
            fields = line.split()
            labels.append(int(fields[0]))
            rows.append([(int(i), float(v)) for i, v in (f.split(":") for f in fields[1:])])
    return width, labels, rows


# ---------------------------------------------------------------------------
# scores and metrics


def fm_scores(model: dict, rows: list[list[tuple[int, float]]]) -> list[float]:
    """bias + sum w_k x_k + sum_{k<l} x_k x_l <V_k, V_l>, for each row."""
    bias, w, V = model["bias"], model["w"], model["V"]
    d = 0 if V is None else len(V[0])
    out = []
    for entries in rows:
        z = bias + sum(w[i] * x for i, x in entries)
        for f in range(d):
            s = sum(x * V[i][f] for i, x in entries)
            s2 = sum((x * V[i][f]) ** 2 for i, x in entries)
            z += 0.5 * (s * s - s2)
        out.append(z)
    return out


def probit(z: float) -> float:
    return min(max(0.5 * math.erfc(-z / math.sqrt(2.0)), PROB_EPS), 1.0 - PROB_EPS)


def accuracy(p: list[float], y: list[int]) -> float:
    return sum((pi >= 0.5) == (yi == 1) for pi, yi in zip(p, y)) / len(y)


def auc(p: list[float], y: list[int]) -> float:
    """Mann-Whitney AUC with average ranks: tied pairs count one half."""
    order = sorted(range(len(p)), key=p.__getitem__)
    rank = [0.0] * len(p)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and p[order[j + 1]] == p[order[i]]:
            j += 1
        for t in range(i, j + 1):
            rank[order[t]] = (i + j) / 2.0 + 1.0
        i = j + 1
    n_pos = sum(y)
    n_neg = len(y) - n_pos
    rank_sum = sum(r for r, yi in zip(rank, y) if yi == 1)
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def nll(p: list[float], y: list[int]) -> float:
    total = 0.0
    for pi, yi in zip(p, y):
        pi = min(max(pi, NLL_EPS), 1.0 - NLL_EPS)
        total += math.log(pi) if yi == 1 else math.log1p(-pi)
    return -total / len(y)


def base_rate_nll(y: list[int]) -> float:
    """NLL of the constant predictor that always says the mean label."""
    m = sum(y) / len(y)
    return -(m * math.log(m) + (1 - m) * math.log(1 - m))


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# checks


def check_design(path, expected: Encoded) -> list[str]:
    """The design text equals the replay encoding, entry for entry."""
    width, labels, rows = read_design(path)
    problems = []
    if width != expected.width:
        problems.append(f"width {width} != {expected.width}")
    if len(rows) != len(expected.rows):
        return problems + [f"{len(rows)} rows != {len(expected.rows)}"]
    bad = [r for r in range(len(rows)) if rows[r] != expected.rows[r] or labels[r] != expected.labels[r]]
    if bad:
        r = bad[0]
        problems.append(f"{len(bad)} rows differ; first row {r}: {rows[r]} != {expected.rows[r]}")
    return problems


def check_model(model: dict, vocab_written: dict, expected: Encoded, vocab: Vocab, d: int) -> list[str]:
    """The model's layout and the vocabulary ``train`` wrote match the replay."""
    problems = []
    if [tuple(b) for b in model["feature_space"]] != expected.blocks:
        problems.append(f"feature space {model['feature_space']} != {expected.blocks}")
    if vocab_written != vocab.as_dict():
        problems.append("written vocabulary differs from first-appearance ids")
    if len(model["w"]) != expected.width or (d and len(model["V"]) != expected.width):
        problems.append("parameter count differs from the layout width")
    if model["d"] != d or (d and any(len(v) != d for v in model["V"])):
        problems.append(f"factor dimension is not {d}")
    values = [model["bias"], *model["w"], *(x for v in model["V"] or () for x in v)]
    if not all(math.isfinite(x) for x in values):
        problems.append("non-finite parameters")
    return problems


def check_fit(model: dict, expected: Encoded) -> list[str]:
    """On its own training rows, the model beats the base rate."""
    p = [probit(z) for z in fm_scores(model, expected.rows)]
    got, base = nll(p, expected.labels), base_rate_nll(expected.labels)
    return [] if got < base else [f"training NLL {got:.4f} not below base rate {base:.4f}"]


def read_predictions(path) -> list[float]:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "row,proba":
            raise ValueError(f"bad predictions header {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        raise ValueError("prediction rows out of order")
    return [float(r[1]) for r in rows]


def check_predictions(got: list[float], want: list[float]) -> list[str]:
    """``predict``'s probabilities equal the reference FM probabilities."""
    if len(got) != len(want):
        return [f"{len(got)} predictions for {len(want)} rows"]
    bad = [r for r, (a, b) in enumerate(zip(got, want)) if not _close(a, b)]
    if bad:
        r = bad[0]
        return [f"{len(bad)} of {len(want)} probabilities differ; first row {r}: {got[r]!r} != {want[r]!r}"]
    return []


def read_eval(path) -> dict[str, float]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        values = fh.readline().strip().split(",")
    return {k: float(v) for k, v in zip(header, values)}


def check_eval(got: dict[str, float], p: list[float], y: list[int], oracle_auc: float) -> list[str]:
    """``evaluate``'s acc/AUC/NLL equal this module's metrics for ``p``."""
    want = {"acc": accuracy(p, y), "auc": auc(p, y), "nll": nll(p, y)}
    problems = [
        f"{k} {got.get(k)!r} != {want[k]!r}"
        for k in ("acc", "auc", "nll")
        if k not in got or not (abs(got[k] - want[k]) <= 1e-12 if k == "auc" else _close(got[k], want[k]))
    ]
    if got.get("auc", 0.0) > oracle_auc + ORACLE_AUC_MARGIN:
        problems.append(f"AUC {got['auc']:.4f} beats the oracle's {oracle_auc:.4f} by more than {ORACLE_AUC_MARGIN}")
    return problems


def check_embeddings(path, model: dict) -> list[str]:
    """The exported CSV carries exactly the model's per-feature w and V."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    d = model["d"]
    if rows[0] != ["block", "local_id", "bias"] + [f"v{f}" for f in range(d)]:
        return [f"bad header {rows[0]}"]
    owners = [(name, local) for name, width in model["feature_space"] for local in range(width)]
    if len(rows) - 1 != len(owners):
        return [f"{len(rows) - 1} rows for {len(owners)} features"]
    for col, (row, (name, local)) in enumerate(zip(rows[1:], owners)):
        values = [float(x) for x in row[2:]]
        want = [model["w"][col]] + (list(model["V"][col]) if d else [])
        if row[0] != name or int(row[1]) != local or values != want:
            return [f"feature {col} ({name}, {local}) differs: {row}"]
    return []


def read_csv_dicts(path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_cv(report_path, summary_path, cells: list[tuple[str, int]], folds: int, y: list[int], oracle_auc: float) -> dict[tuple[str, int], list[str]]:
    """Problems per grid cell of one ``cv`` run.

    The summary's means equal the means of the per-fold report, the summary
    is sorted by mean AUC, every cell beats the constant base-rate predictor
    on NLL and none beats the generating oracle's AUC by more than
    ``ORACLE_AUC_MARGIN``.
    """
    report, summary = read_csv_dicts(report_path), read_csv_dicts(summary_path)
    base = base_rate_nll(y)
    out: dict[tuple[str, int], list[str]] = {cell: [] for cell in cells}
    seen = [(r["preset"], int(r["d"])) for r in summary]
    if sorted(seen) != sorted(cells):
        for cell in cells:
            out[cell].append(f"summary cells {seen} != grid {cells}")
        return out
    aucs = [float(r["auc"]) for r in summary]
    if aucs != sorted(aucs, reverse=True):
        for cell in cells:
            out[cell].append("summary is not sorted by mean AUC")
    for row in summary:
        cell = (row["preset"], int(row["d"]))
        per_fold = [r for r in report if (r["preset"], int(r["d"])) == cell]
        problems = out[cell]
        if [int(r["fold"]) for r in per_fold] != list(range(folds)):
            problems.append(f"folds {[r['fold'] for r in per_fold]}")
            continue
        for key in ("acc", "auc", "nll"):
            mean = sum(float(r[key]) for r in per_fold) / folds
            if not _close(float(row[key]), mean, 1e-12):
                problems.append(f"summary {key} {row[key]} != fold mean {mean!r}")
        if not float(row["nll"]) < base:
            problems.append(f"mean NLL {float(row['nll']):.4f} not below base rate {base:.4f}")
        if float(row["auc"]) > oracle_auc + ORACLE_AUC_MARGIN:
            problems.append(f"mean AUC {float(row['auc']):.4f} beats the oracle's {oracle_auc:.4f} by more than {ORACLE_AUC_MARGIN}")
    return out
