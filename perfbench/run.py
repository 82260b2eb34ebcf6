"""Assistments-shaped benchmark of the ``ktfm`` command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sgd-cv --seed 1 --seconds 30 --trace 0

It writes a seeded log with ``gen_log.py``, then runs whole rounds of the
workload's commands, each as ``python -m ktfm.cli ...`` in its own process and
one at a time, until the next round would end after ``--seconds``; at least
two rounds run, so that repeats can be compared byte for byte. Every output is
checked against ``checks.py``, which shares no code with ``ktfm``. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Times are CPU seconds of the commands scaled to a quiet host: while a command
runs, a probe thread on the same CPU times a fixed piece of Python work every
50 ms, and the command's CPU time is divided by how much slower the probe ran
than ``PROBE_QUIET_S`` (see README, "Host speed").

With ``--trace 0`` the metrics are the end-to-end ones (medians over rounds).
With ``--trace 1`` untraced and traced rounds alternate; a traced round runs
each command through ``trace_cli.py``, and the metrics are the per-module
ones derived from its spans plus the tracing overhead. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen_log  # noqa: E402

FOLDS = 5
# gibbs-cv sweeps more than score trains, so that one cv command is long
# enough for its CPU time to be steady on a noisy host
CV_SWEEPS = 5
TRAIN_SWEEPS = 3
SGD_EPOCHS = 1
# The CLI's default of 0.01 diverges on counter features (see README, F2):
# after one epoch |V| of the d=5 cell lies anywhere from 1e11 to 1e68,
# depending on the seed, and an overflow aborts the whole grid. At 1e-4,
# lr * x^2 stays near 1 for all but the largest counters, and every cell
# converges.
SGD_LR = "0.0001"
COMMAND_TIMEOUT_S = 150
# Probe of the host's speed: PROBE_LOOPS iterations of probe_work, every
# PROBE_PERIOD_S of wall time while a command runs. PROBE_QUIET_S is the
# probe's CPU time on a quiet 2-vCPU Xeon VM (Python 3.11); the ratio of the
# probe's mean time to it is the host's slowdown during the command.
PROBE_LOOPS = 20_000
PROBE_PERIOD_S = 0.05
PROBE_QUIET_S = 0.0047
CHECK_ERRORS = (OSError, ValueError, KeyError, IndexError, TypeError)

# Operations that fail on every input because of a known fault (README, F1):
# predict and evaluate align the q-matrix in vocabulary order, train by raw id.
KNOWN_FAULTS = {("score", "predict"), ("score", "evaluate")}

WORKLOADS = ("sgd-cv", "gibbs-cv", "score")
SETUP_PRESET = {"sgd-cv": "ktm-iswf", "gibbs-cv": "ktm-iswfe", "score": "ktm-iswfe"}
CV_GRID = {
    "sgd-cv": (["--link", "logit", "--lr", SGD_LR, "--epochs", str(SGD_EPOCHS),
                "--preset", "pfa", "--preset", "ktm-iswf", "--d", "0", "--d", "5"],
               [("pfa", 0), ("ktm-iswf", 0), ("ktm-iswf", 5)]),
    "gibbs-cv": (["--link", "probit", "--epochs", str(CV_SWEEPS), "--preset", "ktm-iswfe", "--d", "5"],
                 [("ktm-iswfe", 5)]),
}

END_TO_END_UNITS = {"norm_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "heldout_auc": "1"}
PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "datasets.load_s": "s",
    "datasets.load_calls": "count",
    "encoding.encode_s": "s",
    "encoding.encode_calls": "count",
    "encoding.us_per_row": "us",
    "encoding.rss_delta_mb": "MB",
    "sparse.subset_s": "s",
    "sparse.subset_calls": "count",
    "sparse.csr_s": "s",
    "sparse.dump_s": "s",
    "training.sgd_s": "s",
    "training.sgd_us_per_row_epoch": "us",
    "training.gibbs_s": "s",
    "training.gibbs_s_per_sweep": "s",
    "training.gibbs_us_per_column_sweep": "us",
    "model.score_s": "s",
    "model.score_calls": "count",
    "evaluation.folds_s": "s",
    "evaluation.metrics_s": "s",
    "evaluation.report_s": "s",
    "persistence.model_io_s": "s",
    "persistence.manifest_s": "s",
    "trace.cpu_s": "s",
    "trace.overhead_s": "s",
    "host.raw_cpu_s": "s",
    "host.slowdown": "ratio",
}


@dataclass
class Command:
    wall_s: float
    cpu_s: float
    slowdown: float
    rss_mb: float
    code: int
    spans: list[dict] | None

    @property
    def norm_cpu_s(self) -> float:
        return self.cpu_s / self.slowdown


def probe_work() -> int:
    """A fixed piece of interpreter work: dict updates and integer arithmetic."""
    table: dict[int, int] = {}
    total = 0
    for i in range(PROBE_LOOPS):
        table[i & 1023] = table.get(i & 1023, 0) + i
        total += i * 3 % 7
    return total


class HostProbe:
    """Times probe_work on this process's CPU until stopped.

    The probe shares the pinned CPU with the command it watches; a command's
    own CPU time excludes the probe's, and the probe times itself with its
    thread's CPU clock, so neither counts the other's work.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while True:
            start = time.thread_time()
            probe_work()
            self.samples.append(time.thread_time() - start)
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def __enter__(self) -> "HostProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def slowdown(self) -> float:
        return statistics.fmean(self.samples) / PROBE_QUIET_S


@dataclass
class Round:
    traced: bool
    setup_s: float = 0.0
    norm_cpu_s: float = 0.0
    raw_cpu_s: float = 0.0
    wall_s: float = 0.0
    rss_mb: float = 0.0
    elapsed_s: float = 0.0
    ops: list[tuple[str, list[str]]] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    auc: float = float("nan")
    spans: list[tuple[list[dict], float]] = field(default_factory=list)


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, work: Path):
        self.root, self.workload, self.seed, self.work = root, workload, seed, work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.data = work / "data"
        self._fit_cache: dict[str, tuple[list[str], list[float]]] = {}

    # -- inputs and references, built once before any timing --------------

    def prepare(self) -> None:
        gen_log.generate(self.seed, self.data)
        truth = json.loads((self.data / "truth.json").read_text())
        self.train = checks.read_log(self.data / "train.csv")
        self.vocab = checks.Vocab.of(self.train)
        qrows, self.n_skills = checks.read_qmatrix(self.data / "qmatrix.csv")
        self.skills = checks.aligned_skills(self.vocab, qrows)
        self.expected_setup = checks.replay_encode(
            self.train, self.vocab, self.skills, self.n_skills, *checks.PRESET_BLOCKS[SETUP_PRESET[self.workload]]
        )
        self.y = self.train.labels
        self.oracle_auc = checks.auc(truth["train"], self.y)
        if self.workload == "score":
            self.heldout = checks.read_log(self.data / "heldout.csv")
            self.expected_heldout = checks.replay_encode(
                self.heldout, self.vocab, self.skills, self.n_skills, *checks.PRESET_BLOCKS["ktm-iswfe"]
            )
            self.oracle_auc_heldout = checks.auc(truth["heldout"], self.heldout.labels)
        # compile and cache the program's modules outside the timed region
        self._run(["-c", "import ktfm.cli"], "warmup", traced=False)

    # -- commands ------------------------------------------------------------

    def _run(self, args: list[str], tag: str, traced: bool) -> Command:
        if traced:
            spans_path = self.work / f"{tag}.spans.json"
            argv = [sys.executable, str(HERE / "trace_cli.py"), str(spans_path), "--", *args]
        else:
            argv = [sys.executable, *args]
        with open(self.work / f"{tag}.out", "w") as out, open(self.work / f"{tag}.err", "w") as err:
            start = time.perf_counter()
            with HostProbe() as probe:
                proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out, stderr=err)
                watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
                watchdog.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        spans = json.loads(spans_path.read_text())["spans"] if traced and spans_path.exists() else None
        return Command(wall, usage.ru_utime + usage.ru_stime, probe.slowdown, usage.ru_maxrss / 1024.0,
                       proc.returncode, spans)

    def _ktfm(self, rnd: Round, tag: str, args: list[str], timed: bool = True) -> Command:
        if rnd.traced:
            cmd = self._run(args, tag, traced=True)
            rnd.spans.append((cmd.spans or [], cmd.slowdown))
        else:
            cmd = self._run(["-m", "ktfm.cli", *args], tag, traced=False)
        rnd.rss_mb = max(rnd.rss_mb, cmd.rss_mb)
        if timed:
            rnd.norm_cpu_s += cmd.norm_cpu_s
            rnd.raw_cpu_s += cmd.cpu_s
            rnd.wall_s += cmd.wall_s
        return cmd

    def _failed(self, cmd: Command, tag: str) -> list[str]:
        if cmd.code == 0:
            return []
        err = (self.work / f"{tag}.err").read_text().strip().splitlines()
        return [f"exit code {cmd.code}: {err[-1] if err else ''}"]

    def _digest(self, rnd: Round, name: str, path: Path) -> None:
        if path.exists():
            rnd.digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()

    # -- one round -----------------------------------------------------------

    def round(self, index: int, traced: bool) -> Round:
        rnd = Round(traced)
        out = self.work / f"round{index}"
        out.mkdir()
        train, qmatrix = str(self.data / "train.csv"), str(self.data / "qmatrix.csv")

        design = out / "design.txt"
        tag = f"r{index}-encode"
        cmd = self._ktfm(rnd, tag, ["encode", "--data", train, "--qmatrix", qmatrix,
                                    "--preset", SETUP_PRESET[self.workload], "--out", str(design)], timed=False)
        rnd.setup_s = cmd.norm_cpu_s
        rnd.ops.append(("encode", self._failed(cmd, tag) or _checked(checks.check_design, design, self.expected_setup)))
        self._digest(rnd, "design.txt", design)

        if self.workload == "score":
            self._score(rnd, index, out, train, qmatrix)
        else:
            self._cv(rnd, index, out, train, qmatrix)
        return rnd

    def _cv(self, rnd: Round, index: int, out: Path, train: str, qmatrix: str) -> None:
        flags, cells = CV_GRID[self.workload]
        tag = f"r{index}-cv"
        cmd = self._ktfm(rnd, tag, ["cv", "--data", train, "--qmatrix", qmatrix, *flags,
                                    "--folds", str(FOLDS), "--seed", str(self.seed), "--out-dir", str(out)])
        failure = self._failed(cmd, tag)
        if not failure:
            try:
                problems = checks.check_cv(out / "report.csv", out / "summary.csv", cells, FOLDS, self.y, self.oracle_auc)
                rnd.auc = float(checks.read_csv_dicts(out / "summary.csv")[0]["auc"])
            except CHECK_ERRORS as exc:
                failure = [f"unreadable output: {exc!r}"]
        if failure:
            problems = {cell: failure for cell in cells}
        rnd.ops.extend((f"cv {p}/{d}", problems[(p, d)]) for p, d in cells)
        for name in ("report.csv", "summary.csv"):
            self._digest(rnd, name, out / name)

    def _score(self, rnd: Round, index: int, out: Path, train: str, qmatrix: str) -> None:
        heldout = str(self.data / "heldout.csv")
        model, vocab = out / "model.json", out / "vocab.json"
        preds, evals, emb = out / "predictions.csv", out / "eval.csv", out / "embeddings.csv"
        commands = [
            ("train", ["train", "--data", train, "--qmatrix", qmatrix, "--link", "probit",
                       "--preset", "ktm-iswfe", "--d", "5", "--epochs", str(TRAIN_SWEEPS),
                       "--seed", str(self.seed), "--out", str(model), "--vocab-out", str(vocab)]),
            ("predict", ["predict", "--model", str(model), "--data", heldout, "--qmatrix", qmatrix,
                         "--vocab", str(vocab), "--out", str(preds)]),
            ("evaluate", ["evaluate", "--model", str(model), "--data", heldout, "--qmatrix", qmatrix,
                          "--vocab", str(vocab), "--out", str(evals)]),
            ("export-embeddings", ["export-embeddings", "--model", str(model), "--out", str(emb)]),
        ]
        failures = {}
        for name, args in commands:
            tag = f"r{index}-{name}"
            failures[name] = self._failed(self._ktfm(rnd, tag, args), tag)
        for name, path in (("model.json", model), ("vocab.json", vocab), ("predictions.csv", preds),
                           ("eval.csv", evals), ("embeddings.csv", emb)):
            self._digest(rnd, name, path)

        problems = failures["train"]
        if not problems:
            try:
                params = json.loads(model.read_text())
                fit_problems, reference = self._model_checks(rnd.digests["model.json"], params, vocab)
            except CHECK_ERRORS as exc:
                problems = [f"unreadable output: {exc!r}"]
        if problems:
            # without a readable model, nothing after train can be checked
            rnd.ops.extend((name, problems) for name, _ in commands)
            return
        rnd.ops.append(("train", fit_problems))

        def predict_problems() -> list[str]:
            nonlocal reference
            got = checks.read_predictions(preds)
            problems = checks.check_predictions(got, reference)
            if not problems:
                reference = got  # evaluate must then agree with these exact floats
            return problems

        def evaluate_problems() -> list[str]:
            got = checks.read_eval(evals)
            rnd.auc = got["auc"]
            return checks.check_eval(got, reference, self.heldout.labels, self.oracle_auc_heldout)

        rnd.ops.append(("predict", failures["predict"] or _checked(predict_problems)))
        rnd.ops.append(("evaluate", failures["evaluate"] or _checked(evaluate_problems)))
        rnd.ops.append(("export-embeddings", failures["export-embeddings"] or _checked(checks.check_embeddings, emb, params)))

    def _model_checks(self, digest: str, params: dict, vocab: Path) -> tuple[list[str], list[float]]:
        """Model checks and reference held-out probabilities, once per distinct model."""
        if digest not in self._fit_cache:
            train_enc = self.expected_setup  # the score workload encodes ktm-iswfe
            problems = checks.check_model(params, json.loads(vocab.read_text()), train_enc, self.vocab, 5)
            if not problems:
                problems = checks.check_fit(params, train_enc)
            reference = [checks.probit(z) for z in checks.fm_scores(params, self.expected_heldout.rows)]
            self._fit_cache[digest] = (problems, reference)
        return self._fit_cache[digest]


def _checked(check, *args) -> list[str]:
    """A check's problems, or why the output it reads could not be read."""
    try:
        return check(*args)
    except CHECK_ERRORS as exc:
        return [f"unreadable output: {exc!r}"]


# -- per-module figures from spans -------------------------------------------


def layer_figures(commands: list[tuple[list[dict], float]]) -> dict[str, float]:
    """Per-module totals of one traced round; times are self times, scaled
    to a quiet host by each command's slowdown."""
    total: dict[str, float] = {name: 0.0 for name in PER_LAYER_UNITS}
    imports, rows_encoded, row_epochs, column_sweeps, sweeps = [], 0, 0, 0, 0
    for spans, slowdown in commands:
        child_time = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        for s, covered in zip(spans, child_time):
            own = (s["end"] - s["start"] - covered) / slowdown
            name, attrs = s["name"], s["attrs"]
            if name == "cli.import":
                imports.append(own)
            elif name == "cli.command":
                total["cli.self_s"] += own
            elif name.startswith("datasets."):
                total["datasets.load_s"] += own
                total["datasets.load_calls"] += name in ("datasets.load_dataset", "datasets.load_triplets")
            elif name == "encoding.encode":
                total["encoding.encode_s"] += own
                total["encoding.encode_calls"] += 1
                total["encoding.rss_delta_mb"] = max(total["encoding.rss_delta_mb"], s["rss_growth_kb"] / 1024.0)
                rows_encoded += attrs["rows"]
            elif name == "training.sgd":
                total["training.sgd_s"] += own
                row_epochs += attrs["rows"] * attrs["epochs"]
            elif name == "training.gibbs":
                total["training.gibbs_s"] += own
                sweeps += attrs["epochs"]
                column_sweeps += attrs["epochs"] * attrs["width"]
            else:
                total[f"{name}_s"] += own
                if f"{name}_calls" in total:
                    total[f"{name}_calls"] += 1
    total["cli.import_s"] = statistics.median(imports) if imports else 0.0
    total["encoding.us_per_row"] = 1e6 * total["encoding.encode_s"] / rows_encoded if rows_encoded else 0.0
    total["training.sgd_us_per_row_epoch"] = 1e6 * total["training.sgd_s"] / row_epochs if row_epochs else 0.0
    total["training.gibbs_s_per_sweep"] = total["training.gibbs_s"] / sweeps if sweeps else 0.0
    total["training.gibbs_us_per_column_sweep"] = 1e6 * total["training.gibbs_s"] / column_sweeps if column_sweeps else 0.0
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Assistments-shaped benchmark of the ktfm CLI.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ktfm" / "cli.py").is_file():
        print(f"{root}: no src/ktfm/cli.py; run from the root of a ktfm checkout", file=sys.stderr)
        return 2
    # one CPU for this process and every child, so that no command migrates
    # between CPUs while it is measured
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(root, args.workload, args.seed, work)
        bench.prepare()
        rounds: list[Round] = []
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            rnd = bench.round(len(rounds), traced=bool(args.trace) and len(rounds) % 2 == 1)
            rnd.elapsed_s = time.perf_counter() - round_start
            rounds.append(rnd)
            typical = statistics.median(r.elapsed_s for r in rounds)
            if len(rounds) >= 2 and time.perf_counter() - start + typical > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = True
    failed = 0
    for i, rnd in enumerate(rounds):
        for name, problems in rnd.ops:
            if problems:
                failed += 1
                known = (args.workload, name) in KNOWN_FAULTS
                correct &= known
                print(f"round {i} {name}: {'known fault: ' if known else ''}{'; '.join(problems)}", file=sys.stderr)
        if rnd.digests != rounds[0].digests:
            correct = False
            diff = sorted(k for k in rnd.digests.keys() | rounds[0].digests.keys()
                          if rnd.digests.get(k) != rounds[0].digests.get(k))
            print(f"round {i}: outputs differ from round 0: {diff}", file=sys.stderr)
    attempted = sum(len(r.ops) for r in rounds)
    for i, rnd in enumerate(rounds):
        print(f"round {i}{' traced' if rnd.traced else ''}: cpu {rnd.raw_cpu_s:.3f} s, scaled cpu {rnd.norm_cpu_s:.3f} s, "
              f"wall {rnd.wall_s:.3f} s, scaled setup cpu {rnd.setup_s:.3f} s", file=sys.stderr)

    plain = [r for r in rounds if not r.traced]
    if args.trace:
        traced = [r for r in rounds if r.traced]
        figures = [layer_figures(r.spans) for r in traced]
        values = {name: statistics.median(f[name] for f in figures) for name in PER_LAYER_UNITS}
        values["trace.cpu_s"] = statistics.median(r.norm_cpu_s for r in traced)
        values["trace.overhead_s"] = values["trace.cpu_s"] - statistics.median(r.norm_cpu_s for r in plain)
        values["host.raw_cpu_s"] = statistics.median(r.raw_cpu_s for r in plain)
        values["host.slowdown"] = statistics.median(r.raw_cpu_s / r.norm_cpu_s for r in plain)
        units = PER_LAYER_UNITS
    else:
        values = {
            "norm_cpu_s": statistics.median(r.norm_cpu_s for r in plain),
            "setup_s": statistics.median(r.setup_s for r in plain),
            "peak_rss_mb": statistics.median(r.rss_mb for r in plain),
            "heldout_auc": rounds[0].auc if math.isfinite(rounds[0].auc) else 0.0,
        }
        units = END_TO_END_UNITS
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
