"""The benchmark's tracer wraps names in ``ktfm``; renaming one must fail here.

``perfbench/trace_cli.py`` replaces module attributes and ``DesignMatrix``
members by name and reads the arguments they get. This runs it on the worked
example the way the benchmark does, one subprocess per command.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def trace(tmp_path, name, args):
    spans_path = tmp_path / f"{name}.spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_cli.py"), str(spans_path), "--", *args],
        capture_output=True, text=True, encoding="utf-8", env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return {span["name"] for span in json.loads(spans_path.read_text(encoding="utf-8"))["spans"]}


@pytest.mark.filterwarnings("ignore")
def test_trace_cli_spans_encode_and_cv(example_log_csv, tmp_path):
    data, qfile = example_log_csv
    encode = trace(
        tmp_path, "encode",
        ["encode", "--data", str(data), "--qmatrix", str(qfile), "--preset", "pfa",
         "--out", str(tmp_path / "dm.txt")],
    )
    assert {"encoding.encode", "sparse.dump", "datasets.load_dataset"} <= encode
    cv = trace(
        tmp_path, "cv",
        ["cv", "--data", str(data), "--qmatrix", str(qfile), "--preset", "pfa", "--d", "0",
         "--folds", "2", "--epochs", "1", "--out-dir", str(tmp_path / "cv")],
    )
    assert {"sparse.csr", "sparse.subset", "encoding.encode", "training.sgd", "model.score"} <= cv


@pytest.mark.filterwarnings("ignore")
def test_trace_cli_spans_probit_train_predict_evaluate_cv(example_log_csv, tmp_path):
    data, qfile = example_log_csv
    log = ["--data", str(data), "--qmatrix", str(qfile)]
    model, vocab = str(tmp_path / "m.json"), str(tmp_path / "vocab.json")
    train = trace(
        tmp_path, "train",
        ["train", *log, "--link", "probit", "--preset", "ktm-iswf", "--d", "1", "--epochs", "2",
         "--out", model, "--vocab-out", vocab],
    )
    assert {"encoding.encode", "training.gibbs", "persistence.model_io"} <= train
    scoring = ["--model", model, *log, "--vocab", vocab]
    predict = trace(tmp_path, "predict", ["predict", *scoring, "--out", str(tmp_path / "p.csv")])
    assert {"persistence.model_io", "encoding.encode", "model.score"} <= predict
    evaluate = trace(tmp_path, "evaluate", ["evaluate", *scoring, "--out", str(tmp_path / "e.csv")])
    assert {"persistence.model_io", "encoding.encode", "model.score", "evaluation.metrics"} <= evaluate
    cv = trace(
        tmp_path, "cv",
        ["cv", *log, "--link", "probit", "--preset", "ktm-iswf", "--d", "1", "--folds", "2",
         "--epochs", "2", "--out-dir", str(tmp_path / "cv")],
    )
    assert {"encoding.encode", "training.gibbs", "sparse.subset", "evaluation.metrics"} <= cv
