import codecs
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import click
import numpy as np
import pytest
from click.testing import CliRunner

from ktfm import cli, datasets
from ktfm.cli import main
from ktfm.datasets import load_dataset
from ktfm.encoding import encode_dataset
from ktfm.model import predict_proba_matrix
from ktfm.persistence import config_digest, file_digest, load_model
from tests.conftest import EXAMPLE_ENCODED, EXAMPLE_LABELS, EXAMPLE_QMATRIX


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


class TestSynthCommand:
    def test_writes_files_and_manifest(self, runner, tmp_path):
        out = tmp_path / "synth"
        invoke(
            runner,
            [
                "synth", "--generator", "pfa", "--students", "6", "--items", "4",
                "--skills", "2", "--seed", "3", "--out-dir", str(out),
            ],
        )
        assert (out / "triplets.csv").exists()
        assert (out / "qmatrix.csv").exists()
        assert (out / "truth.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "synth"

    def test_identical_seeds_identical_outputs(self, runner, tmp_path):
        args = [
            "synth", "--generator", "rasch", "--students", "5", "--items", "3",
            "--seed", "9",
        ]
        invoke(runner, args + ["--out-dir", str(tmp_path / "a")])
        invoke(runner, args + ["--out-dir", str(tmp_path / "b")])
        for name in ("triplets.csv", "truth.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestEncodeCommand:
    def test_pfa_encoding_matches_hand_computed_table(self, runner, example_log_csv, tmp_path):
        data, qfile = example_log_csv
        out = tmp_path / "dm.txt"
        invoke(
            runner,
            [
                "encode", "--data", str(data), "--qmatrix", str(qfile),
                "--preset", "pfa", "--out", str(out),
            ],
        )
        # the pfa columns (skills, wins, fails) of the hand-computed table, one
        # line per attempt in log order, counters written as bare integers
        expected = np.hstack(
            [EXAMPLE_ENCODED[:, 5:8], EXAMPLE_ENCODED[:, 8:11], EXAMPLE_ENCODED[:, 11:14]]
        )
        lines = [f"#N {expected.shape[1]}"]
        for label, row in zip(EXAMPLE_LABELS, expected):
            lines.append(" ".join([str(label), *(f"{c}:{int(row[c])}" for c in np.flatnonzero(row))]))
        assert out.read_text() == "\n".join(lines) + "\n"
        assert (tmp_path / "dm.manifest.json").exists()

    def test_design_text_bytes_are_pinned(self, runner, tmp_path):
        # 4,500 rows: the text writer's chunks end inside the log
        synth = tmp_path / "synth"
        invoke(runner, ["synth", "--generator", "ktm", "--students", "100", "--items", "15", "--skills", "4",
                        "--d", "2", "--attempts", "3", "--seed", "7", "--out-dir", str(synth)])
        out = tmp_path / "dm.txt"
        invoke(runner, ["encode", "--data", str(synth / "triplets.csv"), "--qmatrix", str(synth / "qmatrix.csv"),
                        "--preset", "ktm-iswf", "--out", str(out)])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "abc3c818a8d85a2716e1770f2f6b799a43b07f4c36e4eeffa093b6b1f8e6a735"
        )

    def test_incompatible_preset_fails(self, runner, example_log_csv, tmp_path):
        data, _ = example_log_csv
        result = runner.invoke(
            main,
            ["encode", "--data", str(data), "--preset", "pfa", "--out", str(tmp_path / "x.txt")],
        )
        assert result.exit_code != 0
        assert "q-matrix" in result.output


class TestTrainPredictEvaluate:
    @pytest.fixture
    def synth_dir(self, runner, tmp_path):
        out = tmp_path / "synth"
        invoke(
            runner,
            [
                "synth", "--generator", "rasch", "--students", "20", "--items", "8",
                "--seed", "5", "--out-dir", str(out),
            ],
        )
        return out

    def test_full_cycle_logit(self, runner, synth_dir, tmp_path):
        model = tmp_path / "model.json"
        vocab = tmp_path / "vocab.json"
        log = tmp_path / "log.csv"
        invoke(
            runner,
            [
                "train", "--data", str(synth_dir / "triplets.csv"),
                "--preset", "irt", "--link", "logit", "--epochs", "30",
                "--seed", "1", "--out", str(model), "--vocab-out", str(vocab),
                "--log", str(log),
            ],
        )
        assert model.exists() and vocab.exists()
        assert log.read_text().splitlines()[0] == "epoch,train_nll"

        preds = tmp_path / "preds.csv"
        invoke(
            runner,
            [
                "predict", "--model", str(model), "--data", str(synth_dir / "triplets.csv"),
                "--vocab", str(vocab), "--out", str(preds),
            ],
        )
        lines = preds.read_text().splitlines()
        assert lines[0] == "row,proba"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(values) == 160
        assert all(0.0 < v < 1.0 for v in values)

        metrics = tmp_path / "metrics.csv"
        result = invoke(
            runner,
            [
                "evaluate", "--model", str(model), "--data", str(synth_dir / "triplets.csv"),
                "--vocab", str(vocab), "--out", str(metrics),
            ],
        )
        assert "acc=" in result.output and "auc=" in result.output
        header, row = metrics.read_text().splitlines()
        assert header == "acc,auc,nll"

    def test_train_probit_gibbs(self, runner, synth_dir, tmp_path):
        model = tmp_path / "model.json"
        invoke(
            runner,
            [
                "train", "--data", str(synth_dir / "triplets.csv"),
                "--preset", "mirtb", "--d", "2", "--link", "probit",
                "--iters", "20", "--seed", "2", "--out", str(model),
            ],
        )
        payload = json.loads(model.read_text())
        assert payload["link"] == "probit"
        assert payload["d"] == 2

    def test_train_probit_writes_epoch_log(self, runner, synth_dir, tmp_path):
        log = tmp_path / "log.csv"
        invoke(
            runner,
            [
                "train", "--data", str(synth_dir / "triplets.csv"), "--preset", "irt",
                "--link", "probit", "--epochs", "4", "--seed", "2",
                "--out", str(tmp_path / "model.json"), "--log", str(log),
            ],
        )
        header, *rows = log.read_text().splitlines()
        assert header == "epoch,train_nll"
        assert [int(row.split(",")[0]) for row in rows] == [0, 1, 2, 3]
        assert all(np.isfinite(float(row.split(",")[1])) for row in rows)

    def test_identical_train_runs_byte_identical_models(self, runner, synth_dir, tmp_path):
        args = [
            "train", "--data", str(synth_dir / "triplets.csv"), "--preset", "mirtb",
            "--d", "2", "--epochs", "10", "--seed", "3",
        ]
        invoke(runner, args + ["--out", str(tmp_path / "m1.json")])
        invoke(runner, args + ["--out", str(tmp_path / "m2.json")])
        assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()

    def test_predict_rejects_wrong_vocab(self, runner, synth_dir, tmp_path):
        model = tmp_path / "model.json"
        vocab = tmp_path / "vocab.json"
        invoke(
            runner,
            [
                "train", "--data", str(synth_dir / "triplets.csv"), "--preset", "irt",
                "--epochs", "2", "--out", str(model), "--vocab-out", str(vocab),
            ],
        )
        other = tmp_path / "other_vocab.json"
        other.write_text('{"users":{"x":0},"items":{"y":0},"extras":{}}')
        result = runner.invoke(
            main,
            [
                "predict", "--model", str(model), "--data", str(synth_dir / "triplets.csv"),
                "--vocab", str(other), "--out", str(tmp_path / "p.csv"),
            ],
        )
        assert result.exit_code != 0
        assert "digest" in result.output

    def test_predict_without_qmatrix_is_one_error_line(self, runner, tmp_path, example_log_csv):
        data, qfile = example_log_csv
        model, vocab, preds = tmp_path / "m.json", tmp_path / "v.json", tmp_path / "p.csv"
        invoke(
            runner,
            [
                "train", "--data", str(data), "--qmatrix", str(qfile), "--preset", "pfa",
                "--epochs", "1", "--out", str(model), "--vocab-out", str(vocab),
            ],
        )
        result = runner.invoke(
            main,
            ["predict", "--model", str(model), "--data", str(data), "--vocab", str(vocab), "--out", str(preds)],
        )
        assert result.exit_code != 0
        assert result.output.startswith("Error:") and "q-matrix" in result.output
        assert result.output.count("\n") == 1
        assert not preds.exists()

    def test_train_manifest_digest_covers_burn_in(self, runner, synth_dir, tmp_path):
        digests = []
        for burn_in in (1, 2):
            model = tmp_path / f"m{burn_in}.json"
            invoke(
                runner,
                [
                    "train", "--data", str(synth_dir / "triplets.csv"), "--preset", "irt",
                    "--link", "probit", "--epochs", "4", "--burn-in", str(burn_in),
                    "--out", str(model),
                ],
            )
            manifest = json.loads(model.with_suffix(".manifest.json").read_text())
            assert manifest["options"]["burn_in"] == burn_in
            digests.append(manifest["config_digest"])
        assert digests[0] != digests[1]

    def test_predict_aligns_the_qmatrix_like_train(self, runner, tmp_path):
        # raw item ids 2, 0, 1 first appear in that order, so vocabulary order
        # and raw-id order disagree; each item exercises its own skill
        rng = np.random.default_rng(3)
        data = tmp_path / "log.csv"
        lines = ["user_id,item_id,correct"]
        for _ in range(60):
            item = int(rng.integers(0, 3))
            lines.append(f"u{rng.integers(0, 5)},{item},{int(rng.random() < (0.2, 0.5, 0.9)[item])}")
        lines[1:4] = ["u0,2,1", "u1,0,0", "u2,1,1"]
        data.write_text("\n".join(lines) + "\n")
        qfile = tmp_path / "q.csv"
        qfile.write_text("1,0,0\n0,1,0\n0,0,1\n")
        model, vocab, preds = tmp_path / "m.json", tmp_path / "v.json", tmp_path / "p.csv"
        invoke(
            runner,
            [
                "train", "--data", str(data), "--qmatrix", str(qfile), "--preset", "pfa",
                "--epochs", "20", "--out", str(model), "--vocab-out", str(vocab),
            ],
        )
        invoke(
            runner,
            [
                "predict", "--model", str(model), "--data", str(data), "--qmatrix", str(qfile),
                "--vocab", str(vocab), "--out", str(preds),
            ],
        )
        got = [float(line.split(",")[1]) for line in preds.read_text().splitlines()[1:]]
        bundle = load_model(model)
        dataset = load_dataset(data, qfile)
        dm = encode_dataset(
            dataset.triplets, dataset.qmatrix, bundle.encoding, dataset.n_students,
            n_items=dataset.n_items,
        )
        assert got == predict_proba_matrix(bundle.params, dm, bundle.link).tolist()


@pytest.mark.parametrize("command", ["train", "cv"])
@pytest.mark.parametrize("option", [("--lr", "0.01"), ("--l2", "0.0")])
def test_probit_rejects_explicit_sgd_options(runner, tmp_path, example_log_csv, monkeypatch, command, option):
    # the defaults, given explicitly: the option's presence is the error, not its value
    def no_loading(*args, **kwargs):
        raise AssertionError("data loaded before the options were checked")

    monkeypatch.setattr("ktfm.cli.load_dataset", no_loading)
    data, qfile = example_log_csv
    out = ["--out", str(tmp_path / "m.json")] if command == "train" else ["--out-dir", str(tmp_path / "cv")]
    result = runner.invoke(
        main, [command, "--data", str(data), "--qmatrix", str(qfile), "--link", "probit", *option, *out]
    )
    assert result.exit_code != 0
    assert result.output.startswith(f"Error: {option[0]} ") and result.output.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["qmatrix.csv", "triplets.csv"]


def test_logit_rejects_burn_in(runner, tmp_path, example_log_csv, monkeypatch):
    # the MAP fit reads no burn-in, so giving one is an error, not a manifest entry
    def no_loading(*args, **kwargs):
        raise AssertionError("data loaded before the options were checked")

    monkeypatch.setattr("ktfm.cli.load_dataset", no_loading)
    data, qfile = example_log_csv
    result = runner.invoke(
        main, ["train", "--data", str(data), "--qmatrix", str(qfile), "--link", "logit", "--burn-in", "3",
               "--out", str(tmp_path / "m.json")]
    )
    assert result.exit_code != 0
    assert result.output == "Error: --burn-in applies only to --link probit; the MAP fit does not read it\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["qmatrix.csv", "triplets.csv"]


class TestCvCommand:
    def test_smoke_single_cell(self, runner, tmp_path):
        synth = tmp_path / "synth"
        invoke(
            runner,
            [
                "synth", "--generator", "rasch", "--students", "15", "--items", "6",
                "--seed", "4", "--out-dir", str(synth),
            ],
        )
        out = tmp_path / "cv"
        result = invoke(
            runner,
            [
                "cv", "--data", str(synth / "triplets.csv"), "--preset", "irt",
                "--d", "0", "--folds", "5", "--seed", "42", "--epochs", "10",
                "--out-dir", str(out),
            ],
        )
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "preset,d,acc,auc,nll"
        assert len(summary) == 2
        report = (out / "report.csv").read_text().splitlines()
        assert len(report) == 6  # header + 5 folds
        assert "irt" in result.output

    def test_identical_seeds_byte_identical_reports(self, runner, tmp_path):
        synth = tmp_path / "synth"
        invoke(
            runner,
            [
                "synth", "--generator", "rasch", "--students", "12", "--items", "5",
                "--seed", "8", "--out-dir", str(synth),
            ],
        )
        args = [
            "cv", "--data", str(synth / "triplets.csv"), "--preset", "irt",
            "--d", "0", "--folds", "3", "--seed", "7", "--epochs", "8",
        ]
        invoke(runner, args + ["--out-dir", str(tmp_path / "r1")])
        invoke(runner, args + ["--out-dir", str(tmp_path / "r2")])
        assert (tmp_path / "r1" / "report.csv").read_bytes() == (tmp_path / "r2" / "report.csv").read_bytes()
        assert (tmp_path / "r1" / "summary.csv").read_bytes() == (tmp_path / "r2" / "summary.csv").read_bytes()

    def test_each_cell_is_checked_once(self, runner, tmp_path, monkeypatch):
        import ktfm.evaluation as evaluation

        checked = []
        lookup = evaluation.preset_encoding
        monkeypatch.setattr(
            evaluation, "preset_encoding", lambda name, *a, **kw: checked.append(name) or lookup(name, *a, **kw)
        )
        synth = tmp_path / "synth"
        invoke(runner, ["synth", "--students", "12", "--items", "5", "--seed", "8", "--out-dir", str(synth)])
        result = invoke(
            runner,
            [
                "cv", "--data", str(synth / "triplets.csv"), "--preset", "irt", "--preset", "mirtb",
                "--d", "0", "--d", "2", "--folds", "2", "--epochs", "2", "--out-dir", str(tmp_path / "cv"),
            ],
        )
        assert checked == ["irt", "irt", "mirtb", "mirtb"]
        assert result.stderr.splitlines() == [
            "skipping irt at d=2: this preset requires d = 0, got d = 2",
            "skipping mirtb at d=0: this preset requires d > 0, got d = 0",
        ]

    def test_benchmark_invocation_beats_the_base_rate(self, runner, tmp_path):
        # the flags of perfbench's sgd-cv workload, --lr included, on a small ktm log
        synth = tmp_path / "synth"
        invoke(
            runner,
            [
                "synth", "--generator", "ktm", "--students", "40", "--items", "15", "--skills", "4",
                "--d", "2", "--attempts", "2", "--seed", "3", "--out-dir", str(synth),
            ],
        )
        out = tmp_path / "cv"
        result = runner.invoke(
            main,
            [
                "cv", "--data", str(synth / "triplets.csv"), "--qmatrix", str(synth / "qmatrix.csv"),
                "--link", "logit", "--lr", "0.0001", "--epochs", "1",
                "--preset", "pfa", "--preset", "ktm-iswf", "--d", "0", "--d", "5",
                "--folds", "5", "--seed", "1", "--out-dir", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        assert result.stderr.count("--lr is ignored") == 1
        labels = np.array([int(line.split(",")[2]) for line in (synth / "triplets.csv").read_text().splitlines()[1:]])
        rate = labels.mean()
        base_nll = -(rate * np.log(rate) + (1 - rate) * np.log(1 - rate))
        header, *rows = (out / "summary.csv").read_text().splitlines()
        cells = {"/".join(row.split(",")[:2]): float(row.split(",")[4]) for row in rows}
        assert sorted(cells) == ["ktm-iswf/0", "ktm-iswf/5", "pfa/0"]
        assert all(nll < base_nll for nll in cells.values())


@pytest.fixture(scope="module")
def ktm_log(tmp_path_factory):
    """The seed-3 ktm log of ``test_benchmark_invocation_beats_the_base_rate``: 1,200 rows."""
    out = tmp_path_factory.mktemp("ktm")
    invoke(CliRunner(), ["synth", "--generator", "ktm", "--students", "40", "--items", "15", "--skills", "4",
                         "--d", "2", "--attempts", "2", "--seed", "3", "--out-dir", str(out)])
    return ["--data", str(out / "triplets.csv"), "--qmatrix", str(out / "qmatrix.csv")]


@pytest.fixture(scope="module")
def ktm_report(ktm_log, tmp_path_factory):
    """The lines of a logit ``cv`` report of ktm-iswf at d = 0 and d = 2 on that log, by d."""
    out = tmp_path_factory.mktemp("cv")
    invoke(CliRunner(), ["cv", *ktm_log, "--link", "logit", "--preset", "ktm-iswf", "--d", "0", "--d", "2",
                         "--folds", "5", "--seed", "1", "--epochs", "20", "--out-dir", str(out)])
    rows = {}
    for line in (out / "report.csv").read_text().splitlines(keepends=True)[1:]:
        rows.setdefault(line.split(",")[1], []).append(line)
    return rows


@pytest.fixture(scope="module")
def ktm_extra_log(ktm_log, tmp_path_factory):
    """That log with one seeded extra side column, ``mode`` (three values), on every row."""
    out = tmp_path_factory.mktemp("ktm_extra")
    lines = Path(ktm_log[1]).read_text().splitlines()
    modes = np.random.default_rng(8).choice(["a", "b", "c"], len(lines) - 1)
    (out / "triplets.csv").write_text(
        "".join(f"{line},{mode}\n" for line, mode in zip(lines, ["mode", *modes]))
    )
    return ["--data", str(out / "triplets.csv"), ktm_log[2], ktm_log[3]]


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestOutputBytesArePinned:
    """Seeded fits and their scores, pinned to the byte. A d = 0 score is the
    linear term alone; a d > 0 score also carries the factor term's rounding,
    so its last bits move whenever the FM score's sums are reordered."""

    def test_cv_report_d0_rows(self, ktm_report):
        assert len(ktm_report["0"]) == 5
        assert sha256_text("".join(ktm_report["0"])) == (
            "c99db3c717c28e125b5af224aa95a70dcb72635cf55d242324e1f2a1b46da763"
        )

    def test_cv_report_d2_rows(self, ktm_report):
        assert len(ktm_report["2"]) == 5
        assert sha256_text("".join(ktm_report["2"])) == (
            "50cfc67f237dbd2217a208a9f8eb3b5398c72fc6cf8793bae1854523c673583c"
        )

    def test_probit_model_and_predictions(self, ktm_log, runner, tmp_path):
        model, vocab, preds, log = (tmp_path / name for name in ("m.json", "v.json", "p.csv", "log.csv"))
        invoke(runner, ["train", *ktm_log, "--link", "probit", "--preset", "ktm-iswf", "--d", "2", "--epochs", "20",
                        "--seed", "1", "--out", str(model), "--vocab-out", str(vocab), "--log", str(log)])
        invoke(runner, ["predict", "--model", str(model), *ktm_log, "--vocab", str(vocab), "--out", str(preds)])
        assert sha256_text(model.read_text()) == (
            "dc7209e642d15dc89d050c54ff1e49928ff6d265c78c10cef3a24433829ff30b"
        )
        assert sha256_text(preds.read_text()) == (
            "977f4cac9f09ce47f871dc4c7d461be24d714ee1dadca27a4aba51a362af182a"
        )
        assert sha256_text(log.read_text()) == (
            "e646edc04361c78f64312bc27af6817afd29d8aee2037bfc77284138489c22b3"
        )

    def test_logit_epoch_log(self, ktm_log, runner, tmp_path):
        log = tmp_path / "log.csv"
        invoke(runner, ["train", *ktm_log, "--link", "logit", "--preset", "ktm-iswf", "--d", "2", "--epochs", "20",
                        "--seed", "1", "--out", str(tmp_path / "m.json"), "--log", str(log)])
        assert len(log.read_text().splitlines()) == 21
        assert sha256_text(log.read_text()) == (
            "6307d6a249b67428d38d52f336f17ed31178b41800e0ae2a4c175df0f094a95c"
        )

    def test_probit_cv_of_two_cells_with_an_extra_column(self, ktm_extra_log, runner, tmp_path):
        # two cells of one preset share each fold's colouring, which holds whole-row
        # classes (items, every row once with value 1) and classes that are not
        from ktfm.evaluation import FoldSpec, encode_preset, make_folds
        from ktfm.training import _colour_blocks
        from tests.test_training import general_form, whole_row

        dataset = load_dataset(ktm_extra_log[1], ktm_extra_log[3])
        encoded = encode_preset(dataset, "ktm-iswfe", 2)[1]
        train = encoded.subset(make_folds(len(encoded), FoldSpec(k=3, seed=1), dataset.triplets[:, 0])[0][0])
        kinds = {whole_row(block, len(train)) for block in general_form(_colour_blocks(train)[0], len(train))}
        assert kinds == {True, False}
        invoke(runner, ["cv", *ktm_extra_log, "--link", "probit", "--preset", "ktm-iswfe", "--d", "0", "--d", "2",
                        "--folds", "3", "--seed", "1", "--epochs", "12", "--out-dir", str(tmp_path)])
        assert sha256_text((tmp_path / "report.csv").read_text()) == (
            "3512a803418a116ea42d79926a10522e17f012f09dfe141b167e632ccbf336de"
        )
        assert sha256_text((tmp_path / "summary.csv").read_text()) == (
            "4f81c1b4190022b04352e47632f61226beb574fd0fbc80105dd560cca0d306e5"
        )


def _log_inputs(a):
    return {"data": a["data"], "qmatrix": a["qmatrix"] or "", "vocab": a["vocab"] or ""}


# The options and inputs each command once passed to ``write_manifest`` by hand,
# kept as the reference for manifests built from the command's own parameters;
# ``a`` is click's parse of the command's arguments.
HAND_WRITTEN_MANIFESTS = {
    "encode": lambda a: ({"preset": a["preset"], "d": a["d"]}, _log_inputs(a)),
    "train": lambda a: (
        {"preset": a["preset"], "d": a["d"], "link": a["link"], "epochs": a["epochs"], "l2": a["l2"],
         "burn_in": a["burn_in"], "seed": a["seed"]},
        _log_inputs(a),
    ),
    "predict": lambda a: (
        {}, {"model": a["model"], "data": a["data"], "qmatrix": a["qmatrix"] or "", "vocab": a["vocab"]}
    ),
    "cv": lambda a: (
        {"presets": list(a["presets"]), "dims": list(a["dims"]), "link": a["link"], "epochs": a["epochs"],
         "l2": a["l2"], "folds": a["folds"], "split": a["split"], "seed": a["seed"]},
        _log_inputs(a),
    ),
    "synth": lambda a: (
        {name: a[name] for name in ("generator", "students", "items", "skills", "d", "attempts", "link", "scale", "seed")},
        {},
    ),
}


class TestManifests:
    def test_each_command_records_what_its_hand_written_manifest_did(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        log = ["--data", "s/triplets.csv", "--qmatrix", "s/qmatrix.csv"]
        runs = [
            ["synth", "--generator", "pfa", "--students", "12", "--items", "6", "--skills", "3", "--d", "2",
             "--seed", "3", "--out-dir", "s"],
            ["synth", "--out-dir", "s0"],
            ["encode", *log, "--preset", "pfa", "--out", "dm.txt", "--vocab-out", "v.json"],
            ["encode", *log, "--vocab", "v.json", "--preset", "ktm-iswf", "--d", "3", "--out", "dm2.txt"],
            ["train", *log, "--preset", "ktm-iswf", "--d", "2", "--lr", "0.1", "--epochs", "3", "--seed", "2",
             "--out", "logit.json", "--vocab-out", "lv.json", "--log", "log.csv"],
            ["train", *log, "--vocab", "v.json", "--preset", "pfa", "--link", "probit", "--burn-in", "2",
             "--epochs", "4", "--out", "probit.json"],
            ["train", "--data", "s/triplets.csv", "--epochs", "2", "--out", "irt.json"],
            ["predict", "--model", "logit.json", *log, "--vocab", "lv.json", "--out", "p.csv"],
            ["cv", *log, "--preset", "irt", "--preset", "pfa", "--d", "0", "--d", "2", "--epochs", "2",
             "--folds", "2", "--out-dir", "cv"],
            ["cv", *log, "--vocab", "v.json", "--preset", "afm", "--link", "probit", "--epochs", "3",
             "--folds", "2", "--split", "student", "--out-dir", "cv2"],
        ]
        for command, *args in runs:
            invoke(runner, [command, *args])
            parsed = main.commands[command].make_context(command, list(args)).params
            options, inputs = HAND_WRITTEN_MANIFESTS[command](parsed)
            if "out_dir" in parsed:
                path = Path(parsed["out_dir"]) / "manifest.json"
            else:
                path = Path(parsed["out"]).with_suffix(".manifest.json")
            manifest = json.loads(path.read_text())
            assert manifest["command"] == command
            assert manifest["options"] == json.loads(json.dumps(options)), args
            assert manifest["config_digest"] == config_digest(options), args
            assert manifest["inputs"] == {name: file_digest(p) for name, p in inputs.items() if p}, args

    def test_the_rule_on_a_toy_command(self, tmp_path):
        @click.command("toy")
        @click.option("--data", type=click.Path(exists=True, dir_okay=False))
        @click.option("--qmatrix", type=click.Path(exists=True, dir_okay=False))
        @click.option("--rate", type=float, hidden=True)
        @click.option("--tag", "tags", multiple=True)
        @click.option("--k", default=3)
        @click.option("--out", type=click.Path(dir_okay=False))
        @click.option("--out-dir", type=click.Path(file_okay=False))
        def toy(out, **_):
            cli._manifest(out)

        data, out = tmp_path / "in.csv", tmp_path / "m.json"
        data.write_text("abc")
        CliRunner().invoke(
            toy,
            ["--data", str(data), "--rate", "0.5", "--tag", "a", "--tag", "b", "--out", str(out),
             "--out-dir", str(tmp_path)],
            catch_exceptions=False,
        )
        manifest = json.loads(out.read_text())
        # the hidden --rate, the unset --qmatrix and both output paths leave no trace
        assert manifest["command"] == "toy"
        assert manifest["options"] == {"k": 3, "tags": ["a", "b"]}
        assert manifest["inputs"] == {"data": file_digest(data)}


class TestExportEmbeddings:
    def test_export_after_training(self, runner, tmp_path):
        synth = tmp_path / "synth"
        invoke(
            runner,
            [
                "synth", "--generator", "rasch", "--students", "8", "--items", "4",
                "--seed", "6", "--out-dir", str(synth),
            ],
        )
        model = tmp_path / "model.json"
        invoke(
            runner,
            [
                "train", "--data", str(synth / "triplets.csv"), "--preset", "mirtb",
                "--d", "2", "--epochs", "5", "--out", str(model),
            ],
        )
        out = tmp_path / "emb.csv"
        invoke(runner, ["export-embeddings", "--model", str(model), "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "block,local_id,bias,v0,v1"
        assert len(lines) == 13  # 8 users + 4 items + header


def _gen_log():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen_log.py"
    spec = importlib.util.spec_from_file_location("gen_log", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestWrittenFilesSkipTheCsvModule:
    """The logs and q-matrices that ``synth``, ``import-assistments`` and
    ``perfbench/gen_log.py`` write are plain, so the loaders read them in numpy
    passes and never reach their csv loops."""

    @staticmethod
    def block_csv_reader(monkeypatch):
        def reader(*args, **kwargs):
            raise AssertionError("a plain file went through the csv loop")

        monkeypatch.setattr(datasets, "csv", SimpleNamespace(reader=reader))

    def load(self, log, qmatrix, heldout=None):
        dataset = load_dataset(log, qmatrix)
        assert len(dataset.triplets) and dataset.qmatrix.n_items
        if heldout is not None:
            triplets, _, _ = datasets.load_triplets(heldout, dataset.vocab, allow_unknown=True)
            assert len(triplets)
        return dataset

    def test_synth(self, runner, tmp_path, monkeypatch):
        out = tmp_path / "synth"
        invoke(runner, ["synth", "--generator", "ktm", "--students", "12", "--items", "9", "--skills", "3",
                        "--d", "2", "--attempts", "2", "--seed", "3", "--out-dir", str(out)])
        self.block_csv_reader(monkeypatch)
        self.load(out / "triplets.csv", out / "qmatrix.csv")

    def test_import_assistments(self, runner, tmp_path, monkeypatch):
        raw = tmp_path / "raw.csv"
        raw.write_text(
            "order_id,assignment_id,user_id,problem_id,correct,skill_id,skill_name,"
            "first_action,school_id,teacher_id,tutor_mode\n"
            "5,1,70123,p1,1,s9,frac,0,73,22,tutor\n"
            "5,1,70123,p1,1,s7,dec,0,73,22,tutor\n"
            "2,1,70456,p2,0,,,1,73,25,test\n"
            "9,1,70123,p2,1,,,2,73,22,pre_test\n"
        )
        data, qmatrix = tmp_path / "data.csv", tmp_path / "q.csv"
        invoke(runner, ["import-assistments", "--raw", str(raw), "--out-data", str(data), "--out-qmatrix", str(qmatrix)])
        self.block_csv_reader(monkeypatch)
        dataset = self.load(data, qmatrix)
        assert sorted(dataset.extras) == ["first_action", "school_id", "teacher_id", "tutor_mode"]

    def test_gen_log(self, tmp_path, monkeypatch):
        _gen_log().generate(5, tmp_path, train_rows=300)
        self.block_csv_reader(monkeypatch)
        self.load(tmp_path / "train.csv", tmp_path / "qmatrix.csv", heldout=tmp_path / "heldout.csv")


class TestImportAssistments:
    HEADER = "order_id,user_id,problem_id,correct,skill_id\n"

    def run(self, runner, tmp_path, raw_bytes):
        raw = tmp_path / "raw.csv"
        raw.write_bytes(raw_bytes)
        out_data, out_q = tmp_path / "data.csv", tmp_path / "q.csv"
        result = runner.invoke(
            main, ["import-assistments", "--raw", str(raw), "--out-data", str(out_data), "--out-qmatrix", str(out_q)]
        )
        return result, raw, out_data, out_q

    def test_a_bom_export_is_read_like_the_plain_one(self, runner, tmp_path):
        text = (self.HEADER + "2,u1,p1,1,s1\n1,u2,p2,0,s2\n").encode()
        outputs = []
        for prefix in (b"", codecs.BOM_UTF8):
            result, _, out_data, out_q = self.run(runner, tmp_path, prefix + text)
            assert result.exit_code == 0, result.output
            outputs.append((out_data.read_bytes(), out_q.read_bytes()))
        assert outputs[1] == outputs[0]

    def test_a_non_integer_order_id_is_one_line_naming_the_file_and_line(self, runner, tmp_path):
        result, raw, out_data, out_q = self.run(runner, tmp_path, (self.HEADER + "1,u1,p1,1,s1\nx2,u1,p2,0,s1\n").encode())
        assert result.exit_code == 1
        assert result.output == f"Error: {raw}: line 3: order_id must be an integer, got 'x2'\n"
        assert not out_data.exists() and not out_q.exists()

    def test_an_export_without_a_0_1_row_is_one_error_line(self, runner, tmp_path):
        result, raw, out_data, out_q = self.run(runner, tmp_path, (self.HEADER + "1,u1,p1,0.5,s1\n").encode())
        assert result.exit_code == 1
        assert result.output == f"Error: {raw}: no rows with a correct of 0 or 1\n"
        assert not out_data.exists() and not out_q.exists()


class TestWarnings:
    @pytest.mark.parametrize("command", ["train", "predict", "evaluate"])
    def test_each_warning_is_one_line(self, runner, tmp_path, command):
        # constant training labels, an id outside the vocabulary, single-class test labels:
        # each warning is one line, as an error is, with no module path or source line
        log, heldout = tmp_path / "log.csv", tmp_path / "heldout.csv"
        log.write_text("user_id,item_id,correct\n1,1,1\n2,2,1\n")
        heldout.write_text("user_id,item_id,correct\n1,1,0\n9,1,1\n")
        model, vocab = tmp_path / "model.json", tmp_path / "vocab.json"
        args = {
            "train": ["train", "--data", str(log), "--out", str(model), "--vocab-out", str(vocab)],
            "predict": ["predict", "--model", str(model), "--data", str(heldout), "--vocab", str(vocab),
                        "--out", str(tmp_path / "p.csv")],
            "evaluate": ["evaluate", "--model", str(model), "--data", str(log), "--vocab", str(vocab)],
        }
        message = {
            "train": "all training labels are identical; the fit is degenerate",
            "predict": f"{heldout}: 1 rows reference ids outside the vocabulary",
            "evaluate": "fold 0: test labels are single-class, AUC reported as missing",
        }
        if command != "train":
            invoke(runner, args["train"])
        result = invoke(runner, args[command])
        assert result.stderr.splitlines() == [f"Warning: {message[command]}"]
        assert ".py:" not in result.stderr


class TestErrors:
    def test_unknown_preset_message(self, runner, tmp_path, example_log_csv):
        data, _ = example_log_csv
        result = runner.invoke(
            main, ["encode", "--data", str(data), "--preset", "dkt", "--out", str(tmp_path / "x")]
        )
        assert result.exit_code != 0
        assert "unknown preset" in result.output

    def test_output_error_is_one_line(self, runner, tmp_path, example_log_csv):
        data, _ = example_log_csv
        result = runner.invoke(
            main,
            ["train", "--data", str(data), "--epochs", "1", "--out", str(tmp_path / "missing" / "m.json")],
        )
        assert result.exit_code != 0
        assert not isinstance(result.exception, FileNotFoundError)
        assert result.output.startswith("Error:") and "m.json" in result.output

    @pytest.mark.parametrize("vocab_text", ["[]", '{"users": [1, 2]}', '{"extras": {"mode": 3}}'])
    def test_vocabulary_of_the_wrong_shape_is_one_line(self, runner, tmp_path, example_log_csv, vocab_text):
        data, _ = example_log_csv
        vocab = tmp_path / "v.json"
        vocab.write_text(vocab_text)
        result = runner.invoke(main, ["train", "--data", str(data), "--vocab", str(vocab), "--out", str(tmp_path / "m.json")])
        assert result.exit_code != 0
        assert result.output == f"Error: {vocab}: not a vocabulary file\n"

    @pytest.mark.parametrize(
        "vocab_text, message",
        [
            ('{"users": {"a": 0', "not a vocabulary file: invalid JSON"),
            ('{"users": {"a": 0, "b": 0}}', "the users ids are not the distinct integers 0..1"),
            ('{"items": {"1": 0, "2": 2}}', "the items ids are not the distinct integers 0..1"),
            ('{"users": {"a": "0"}}', "the users ids are not the distinct integers 0..0"),
            ('{"users": {"a": 0.0}}', "the users ids are not the distinct integers 0..0"),
            ('{"extras": {"mode": {"x": true}}}', "the extra column 'mode' ids are not the distinct integers 0..0"),
        ],
        ids=["invalid-json", "two-on-one", "gap", "string", "float", "true"],
    )
    def test_vocabulary_that_is_not_one_to_one_is_one_line(
        self, runner, tmp_path, example_log_csv, vocab_text, message
    ):
        data, _ = example_log_csv
        vocab = tmp_path / "v.json"
        vocab.write_text(vocab_text)
        result = runner.invoke(main, ["train", "--data", str(data), "--vocab", str(vocab), "--out", str(tmp_path / "m.json")])
        assert result.exit_code != 0
        assert result.output.startswith(f"Error: {vocab}: {message}")
        assert result.output.count("\n") == 1
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("split, unit", [("row", "rows"), ("student", "students")])
    def test_fewer_rows_than_folds_is_one_line_before_any_fit(self, runner, tmp_path, monkeypatch, split, unit):
        def unreachable(*args, **kwargs):
            raise AssertionError("cv fitted a fold it could not make")

        monkeypatch.setattr("ktfm.evaluation.train_map_logit", unreachable)
        data = tmp_path / "log.csv"
        data.write_text("user_id,item_id,correct\na,1,1\nb,2,0\nc,1,0\n")
        result = runner.invoke(main, ["cv", "--data", str(data), "--preset", "irt", "--d", "0",
                                      "--folds", "5", "--split", split, "--out-dir", str(tmp_path / "cv")])
        assert result.exit_code != 0
        assert result.output == f"Error: cannot make 5 {split} folds from 3 {unit}\n"

    def test_model_without_a_vocabulary_digest_is_one_line(self, runner, tmp_path, example_log_csv):
        data, _ = example_log_csv
        model, vocab = tmp_path / "m.json", tmp_path / "v.json"
        invoke(runner, ["train", "--data", str(data), "--epochs", "1", "--out", str(model), "--vocab-out", str(vocab)])
        payload = json.loads(model.read_text())
        del payload["vocab_digest"]
        model.write_text(json.dumps(payload))
        result = runner.invoke(main, ["predict", "--model", str(model), "--data", str(data), "--vocab", str(vocab),
                                      "--out", str(tmp_path / "p.csv")])
        assert result.exit_code != 0
        assert result.output.startswith("Error:") and "corrupt model file" in result.output
        assert result.output.count("\n") == 1

    @pytest.mark.parametrize("option", ["--out", "--vocab-out", "--log"])
    def test_train_checks_output_directories_before_loading(
        self, runner, tmp_path, example_log_csv, monkeypatch, option
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("train loaded the data before checking its outputs")

        monkeypatch.setattr("ktfm.cli.load_dataset", unreachable)
        data, _ = example_log_csv
        paths = {"--out": tmp_path / "m.json", option: tmp_path / "missing" / "o.txt"}
        args = ["train", "--data", str(data)] + [str(a) for pair in paths.items() for a in pair]
        result = runner.invoke(main, args)
        assert result.exit_code != 0
        assert result.output.startswith("Error:") and "o.txt" in result.output
        assert result.output.count("\n") == 1

    @pytest.mark.parametrize(
        "command, option", [("encode", "--out"), ("encode", "--vocab-out"), ("predict", "--out"), ("evaluate", "--out")]
    )
    def test_commands_check_output_directories_before_loading(
        self, runner, tmp_path, example_log_csv, monkeypatch, command, option
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError(f"{command} loaded its inputs before checking its outputs")

        monkeypatch.setattr("ktfm.cli.load_dataset", unreachable)
        monkeypatch.setattr("ktfm.cli._score_with_model", unreachable)
        data, _ = example_log_csv
        model = tmp_path / "model.json"
        model.write_text("{}")  # never read
        inputs = ["--data", data] if command == "encode" else ["--model", model, "--data", data, "--vocab", model]
        paths = {"--out": tmp_path / "o.txt", option: tmp_path / "missing" / "o.txt"}
        args = [command, *inputs] + [a for pair in paths.items() for a in pair]
        result = runner.invoke(main, [str(a) for a in args])
        assert result.exit_code != 0
        assert result.output.startswith("Error:") and "missing" in result.output
        assert result.output.count("\n") == 1
        assert not (tmp_path / "o.txt").exists()

    def test_export_embeddings_checks_its_output_directory_before_loading(self, runner, tmp_path):
        # a corrupt model would fail too: the missing directory must be the error reported
        model = tmp_path / "model.json"
        model.write_text("{not json")
        out = tmp_path / "missing" / "emb.csv"
        result = runner.invoke(main, ["export-embeddings", "--model", str(model), "--out", str(out)])
        assert result.exit_code != 0
        assert result.output.startswith("Error:") and "missing" in result.output
        assert result.output.count("\n") == 1

    @pytest.mark.parametrize(
        "command, work", [("cv", "load_dataset"), ("synth", "generate_synthetic")], ids=["cv", "synth"]
    )
    def test_command_checks_its_out_dir_before_working(
        self, runner, tmp_path, example_log_csv, monkeypatch, command, work
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError(f"{command} called {work} before creating its out-dir")

        monkeypatch.setattr(f"ktfm.cli.{work}", unreachable)
        data, _ = example_log_csv
        blocker = tmp_path / "a_file"
        blocker.write_text("")
        args = ["--data", str(data)] if command == "cv" else []
        result = runner.invoke(main, [command, *args, "--out-dir", str(blocker / command)])
        assert result.exit_code != 0
        assert result.output.startswith("Error:") and "a_file" in result.output
        assert result.output.count("\n") == 1

    def test_import_checks_both_outputs_before_writing(self, runner, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text("order_id,user_id,problem_id,correct,skill_id\n1,u1,p1,1,s1\n")
        out_data = tmp_path / "data.csv"
        result = runner.invoke(
            main,
            ["import-assistments", "--raw", str(raw), "--out-data", str(out_data),
             "--out-qmatrix", str(tmp_path / "nodir" / "q.csv")],
        )
        assert result.exit_code == 1
        assert result.output.startswith("Error:") and "q.csv" in result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == ["raw.csv"]

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_qmatrix_of_another_skill_count_is_one_line(self, runner, tmp_path, example_log_csv, command):
        data, qfile = example_log_csv
        model, vocab, out = tmp_path / "m.json", tmp_path / "v.json", tmp_path / "o.csv"
        invoke(runner, ["train", "--data", str(data), "--qmatrix", str(qfile), "--preset", "pfa", "--epochs", "1",
                        "--out", str(model), "--vocab-out", str(vocab)])
        wider = tmp_path / "wider.csv"
        wider.write_text("".join(line + ",0\n" for line in qfile.read_text().splitlines()))
        result = runner.invoke(main, [command, "--model", str(model), "--data", str(data), "--qmatrix", str(wider),
                                      "--vocab", str(vocab), "--out", str(out)])
        n = EXAMPLE_QMATRIX.shape[1]
        assert result.exit_code != 0
        assert result.output == f"Error: {wider}: the q-matrix has {n + 1} skills, the model was trained on {n}\n"
        assert not out.exists()

    def test_model_whose_d_disagrees_with_its_factors_is_one_line(self, runner, tmp_path, example_log_csv):
        data, _ = example_log_csv
        model, out = tmp_path / "m.json", tmp_path / "emb.csv"
        invoke(runner, ["train", "--data", str(data), "--preset", "mirtb", "--d", "2", "--epochs", "1",
                        "--out", str(model)])
        payload = json.loads(model.read_text())
        payload["d"] = 7
        model.write_text(json.dumps(payload))
        result = runner.invoke(main, ["export-embeddings", "--model", str(model), "--out", str(out)])
        assert result.exit_code != 0
        assert result.output == f"Error: {model}: d 7 != factor columns 2\n"
        assert not out.exists()

    def test_the_boundary_catches_every_package_error(self):
        # the boundary names ValueError rather than its package subclasses
        modules = [importlib.import_module(f"ktfm.{path.stem}") for path in Path(cli.__file__).parent.glob("*.py")]
        errors = {obj for module in modules for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__.startswith("ktfm")}
        assert {"DataFormatError", "ModelFormatError", "TrainingDivergedError"} <= {e.__name__ for e in errors}
        assert all(issubclass(error, cli._ERRORS) for error in errors)

    def test_missing_file(self, runner, tmp_path):
        result = runner.invoke(
            main, ["encode", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x")]
        )
        assert result.exit_code != 0


# Runs CLI commands in one fresh interpreter and prints, after the import and
# after each command, whether any scipy module is loaded.
_SCIPY_PROBE = """
import json, sys
import ktfm.cli

def loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)

seen = [loaded()]
for args in json.loads(sys.argv[1]):
    ktfm.cli.main.main(args, standalone_mode=False)
    seen.append(loaded())
print(json.dumps(seen))
"""


def scipy_after_each(commands):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(commands)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


def test_no_command_loads_scipy(tmp_path, example_log_csv):
    # importing scipy costs more than a third of a logit cv: the sparse
    # products, both links and the truncated-normal draws are numpy
    data, qfile = example_log_csv
    log = ["--data", str(data), "--qmatrix", str(qfile)]
    fit = ["--preset", "ktm-iswf", "--d", "2", "--epochs", "2"]

    def commands(link):
        model, vocab = str(tmp_path / f"{link}.json"), str(tmp_path / f"{link}-vocab.json")
        scored = ["--model", model, *log, "--vocab", vocab]
        return [
            ["train", *log, "--link", link, *fit, "--out", model, "--vocab-out", vocab],
            ["predict", *scored, "--out", str(tmp_path / f"{link}-p.csv")],
            ["evaluate", *scored, "--out", str(tmp_path / f"{link}-eval.csv")],
            ["cv", *log, "--link", link, *fit, "--folds", "2", "--out-dir", str(tmp_path / f"{link}-cv")],
            ["export-embeddings", "--model", model, "--out", str(tmp_path / f"{link}-emb.csv")],
        ]

    everything = [
        ["encode", *log, "--preset", "pfa", "--out", str(tmp_path / "dm.txt")],
        ["synth", "--generator", "ktm", "--skills", "3", "--d", "2", "--link", "probit",
         "--out-dir", str(tmp_path / "synth")],
        *commands("logit"),
        *commands("probit"),
    ]
    assert scipy_after_each(everything) == [False] * (1 + len(everything))
