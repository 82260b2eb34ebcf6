"""Tests of the benchmark's own reference computations and checkers.

Run with ``python3 -m pytest perfbench/test_checkers.py`` from the repository
root, with ``src`` on ``PYTHONPATH`` (only to read the hand-computed worked
example of ``tests/conftest.py``; the checkers themselves import no ``ktfm``).
"""

from __future__ import annotations

import csv
import importlib.util
import itertools
import math
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen_log  # noqa: E402

FULL_BLOCKS = ("users", "items", "skills", "wins", "fails")


def _worked_example():
    spec = importlib.util.spec_from_file_location("worked_example", HERE.parent / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_replay_reproduces_the_worked_example():
    ex = _worked_example()
    log = checks.Log(
        ["user_id", "item_id", "correct"],
        [[str(t.student), str(t.item), str(t.outcome)] for t in ex.EXAMPLE_TRIPLETS],
    )
    vocab = checks.Vocab(users={"0": 0, "1": 1}, items={"0": 0, "1": 1, "2": 2})
    item_skills = [tuple(k for k, c in enumerate(row) if c) for row in ex.EXAMPLE_QMATRIX]
    enc = checks.replay_encode(log, vocab, item_skills, 3, FULL_BLOCKS)
    dense = [[0.0] * enc.width for _ in enc.rows]
    for r, entries in enumerate(enc.rows):
        for col, value in entries:
            dense[r][col] = value
    assert enc.width == 14
    assert dense == ex.EXAMPLE_ENCODED.tolist()
    assert enc.labels == ex.EXAMPLE_LABELS


@pytest.fixture(scope="module")
def small_log(tmp_path_factory):
    out = tmp_path_factory.mktemp("log")
    gen_log.generate(3, out, train_rows=600)
    train = checks.read_log(out / "train.csv")
    vocab = checks.Vocab.of(train)
    qrows, n_skills = checks.read_qmatrix(out / "qmatrix.csv")
    return out, train, vocab, qrows, n_skills


def _write_design(path, enc: checks.Encoded) -> None:
    with open(path, "w") as fh:
        fh.write(f"#N {enc.width}\n")
        for label, entries in zip(enc.labels, enc.rows):
            fh.write(" ".join([str(label)] + [f"{c}:{int(v) if v.is_integer() else v!r}" for c, v in entries]) + "\n")


def test_generator_is_seeded_and_heldout_values_are_known(small_log, tmp_path):
    out, train, vocab, qrows, n_skills = small_log
    gen_log.generate(3, tmp_path, train_rows=600)
    for name in ("train.csv", "heldout.csv", "qmatrix.csv", "truth.json"):
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes()
    heldout = checks.read_log(out / "heldout.csv")
    for r in heldout.records:
        assert r[0] in vocab.users and r[1] in vocab.items
        for name, value in zip(heldout.extra_names, r[3:]):
            assert value in vocab.extras[name]
    assert n_skills == gen_log.N_SKILLS
    assert all(int(raw) < len(qrows) for raw in vocab.items)


def test_design_check_rejects_wrong_counters_and_permuted_qmatrix(small_log, tmp_path):
    _, train, vocab, qrows, n_skills = small_log
    skills = checks.aligned_skills(vocab, qrows)
    enc = checks.replay_encode(train, vocab, skills, n_skills, *checks.PRESET_BLOCKS["ktm-iswfe"])
    path = tmp_path / "design.txt"
    _write_design(path, enc)
    assert checks.check_design(path, enc) == []

    # rows in vocabulary order instead of by raw id, as predict reads them
    misaligned = checks.replay_encode(train, vocab, qrows[: len(skills)], n_skills, *checks.PRESET_BLOCKS["ktm-iswfe"])
    assert misaligned.rows != enc.rows
    _write_design(path, misaligned)
    assert checks.check_design(path, enc)

    r = next(r for r, entries in enumerate(enc.rows) if any(v > 1 for _, v in entries))
    bumped = [list(entries) for entries in enc.rows]
    bumped[r] = [(c, v + 1 if v > 1 else v) for c, v in bumped[r]]
    _write_design(path, checks.Encoded(enc.width, enc.blocks, bumped, enc.labels))
    assert checks.check_design(path, enc)


def _model(enc: checks.Encoded, d: int, seed: int = 0) -> dict:
    rng = random.Random(seed)
    return {
        "format": "ktfm-model",
        "d": d,
        "bias": 0.3,
        "w": [rng.gauss(0, 0.1) for _ in range(enc.width)],
        "V": [[rng.gauss(0, 0.1) for _ in range(d)] for _ in range(enc.width)] if d else None,
        "feature_space": [list(b) for b in enc.blocks],
    }


def test_fm_scores_match_the_pairwise_double_loop():
    rng = random.Random(1)
    model = {"bias": 0.2, "w": [rng.gauss(0, 1) for _ in range(6)], "V": [[rng.gauss(0, 1) for _ in range(3)] for _ in range(6)]}
    rows = [[(0, 1.0), (2, 3.0), (5, 2.0)], [(1, 1.0)], []]
    want = []
    for entries in rows:
        z = model["bias"] + sum(model["w"][i] * x for i, x in entries)
        for (i, xi), (j, xj) in itertools.combinations(entries, 2):
            z += xi * xj * sum(a * b for a, b in zip(model["V"][i], model["V"][j]))
        want.append(z)
    assert checks.fm_scores(model, rows) == pytest.approx(want, rel=1e-12)


def test_prediction_check_rejects_a_permuted_qmatrix(small_log):
    out, train, vocab, qrows, n_skills = small_log
    heldout = checks.read_log(out / "heldout.csv")
    blocks = checks.PRESET_BLOCKS["ktm-iswfe"]
    skills = checks.aligned_skills(vocab, qrows)
    enc = checks.replay_encode(heldout, vocab, skills, n_skills, *blocks)
    model = _model(checks.replay_encode(train, vocab, skills, n_skills, *blocks), 5)
    want = [checks.probit(z) for z in checks.fm_scores(model, enc.rows)]
    assert checks.check_predictions(list(want), want) == []
    permuted = checks.replay_encode(heldout, vocab, qrows[: len(skills)], n_skills, *blocks)
    got = [checks.probit(z) for z in checks.fm_scores(model, permuted.rows)]
    assert checks.check_predictions(got, want)
    assert checks.check_predictions(want[:-1], want)


def _all_pairs_auc(p, y):
    pos = [a for a, b in zip(p, y) if b]
    neg = [a for a, b in zip(p, y) if not b]
    wins = sum((a > b) + 0.5 * (a == b) for a in pos for b in neg)
    return wins / (len(pos) * len(neg))


def test_auc_equals_all_pairs_with_ties():
    rng = random.Random(4)
    for _ in range(20):
        p = [rng.choice([0.1, 0.2, 0.5, 0.7, 0.9]) for _ in range(40)]
        y = [rng.random() < 0.5 for _ in p]
        if 0 < sum(y) < len(y):
            assert checks.auc(p, [int(v) for v in y]) == pytest.approx(_all_pairs_auc(p, y), abs=1e-15)


def test_eval_check_rejects_an_auc_off_by_one_tied_pair():
    p = [0.2, 0.4, 0.4, 0.6, 0.6, 0.9, 0.3, 0.8]
    y = [0, 1, 0, 1, 0, 1, 0, 1]
    n_pos = sum(y)
    n_neg = len(y) - n_pos
    want = {"acc": checks.accuracy(p, y), "auc": checks.auc(p, y), "nll": checks.nll(p, y)}
    assert checks.check_eval(dict(want), p, y, oracle_auc=1.0) == []
    for sign in (1, -1):
        off = dict(want, auc=want["auc"] + sign * 0.5 / (n_pos * n_neg))
        assert checks.check_eval(off, p, y, oracle_auc=1.0)
    assert checks.check_eval(dict(want, nll=want["nll"] * (1 + 1e-6)), p, y, oracle_auc=1.0)
    assert checks.check_eval(dict(want, acc=want["acc"] - 1 / len(y)), p, y, oracle_auc=1.0)
    # better than the generating oracle by more than the margin
    assert checks.check_eval(dict(want), p, y, oracle_auc=want["auc"] - 2 * checks.ORACLE_AUC_MARGIN)


def test_embeddings_check_rejects_a_changed_factor(small_log, tmp_path):
    _, train, vocab, qrows, n_skills = small_log
    enc = checks.replay_encode(train, vocab, checks.aligned_skills(vocab, qrows), n_skills, *checks.PRESET_BLOCKS["ktm-iswf"])
    model = _model(enc, 2)
    path = tmp_path / "emb.csv"

    def write(m):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["block", "local_id", "bias", "v0", "v1"])
            col = 0
            for name, width in m["feature_space"]:
                for local in range(width):
                    writer.writerow([name, local, repr(m["w"][col])] + [repr(v) for v in m["V"][col]])
                    col += 1

    write(model)
    assert checks.check_embeddings(path, model) == []
    changed = dict(model, V=[list(v) for v in model["V"]])
    changed["V"][7][1] += 1e-12
    write(changed)
    assert checks.check_embeddings(path, model)


def test_model_check_rejects_a_wrong_layout_or_vocabulary(small_log):
    _, train, vocab, qrows, n_skills = small_log
    enc = checks.replay_encode(train, vocab, checks.aligned_skills(vocab, qrows), n_skills, *checks.PRESET_BLOCKS["ktm-iswfe"])
    model = _model(enc, 5)
    assert checks.check_model(model, vocab.as_dict(), enc, vocab, 5) == []
    swapped = dict(vocab.as_dict(), items={raw: len(vocab.items) - 1 - dense for raw, dense in vocab.items.items()})
    assert checks.check_model(model, swapped, enc, vocab, 5)
    narrow = dict(model, feature_space=[list(b) for b in enc.blocks[:-1]])
    assert checks.check_model(narrow, vocab.as_dict(), enc, vocab, 5)
    assert checks.check_model(dict(model, bias=math.inf), vocab.as_dict(), enc, vocab, 5)


def _write_cv(tmp_path, cells: dict[tuple[str, int], list[tuple[float, float, float]]]):
    report, summary = tmp_path / "report.csv", tmp_path / "summary.csv"
    means = {
        cell: tuple(sum(f[i] for f in folds) / len(folds) for i in range(3))
        for cell, folds in cells.items()
    }
    with open(report, "w") as fh:
        fh.write("preset,d,fold,acc,auc,nll\n")
        for (p, d), folds in cells.items():
            for i, (acc, auc, nll) in enumerate(folds):
                fh.write(f"{p},{d},{i},{acc!r},{auc!r},{nll!r}\n")
    with open(summary, "w") as fh:
        fh.write("preset,d,acc,auc,nll\n")
        for (p, d), (acc, auc, nll) in sorted(means.items(), key=lambda kv: -kv[1][1]):
            fh.write(f"{p},{d},{acc!r},{auc!r},{nll!r}\n")
    return report, summary


def test_cv_check_flags_only_the_bad_cell(tmp_path):
    y = [1] * 60 + [0] * 40  # base-rate NLL about 0.673
    good = [(0.7, 0.74 + 0.01 * i, 0.60) for i in range(5)]
    worse_than_base = [(0.6, 0.55, 10.6 + i) for i in range(5)]
    cells = {("pfa", 0): good, ("ktm-iswf", 5): worse_than_base}
    report, summary = _write_cv(tmp_path, cells)
    problems = checks.check_cv(report, summary, list(cells), 5, y, oracle_auc=0.8)
    assert problems[("pfa", 0)] == []
    assert problems[("ktm-iswf", 5)]

    beats_oracle = checks.check_cv(report, summary, list(cells), 5, y, oracle_auc=0.7)
    assert beats_oracle[("pfa", 0)]

    lines = summary.read_text().splitlines()
    lines[1] = lines[1].replace(lines[1].split(",")[2], "0.71")
    summary.write_text("\n".join(lines) + "\n")
    assert checks.check_cv(report, summary, list(cells), 5, y, oracle_auc=0.8)[("pfa", 0)]
