"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. The real-data criteria (8-10) need the public Assistments
2009-2010 skill-builder CSV; point KTFM_ASSISTMENTS_CSV at it to enable them
(they train for hundreds of epochs over ~300k rows, so expect a long run;
KTFM_ASSISTMENTS_EPOCHS overrides the epoch count for quicker, looser runs).
"""

import os
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner

import ktfm
from ktfm import (
    FMParams,
    FoldSpec,
    Link,
    SynthSpec,
    TrainConfig,
    auc,
    encode_dataset,
    generate_synthetic,
    oracle_probabilities,
    predict_proba_matrix,
    preset_encoding,
    raw_scores,
    train_gibbs_probit,
    train_map_logit,
)
from ktfm.cli import main as cli_main
from tests.conftest import EXAMPLE_ENCODED, EXAMPLE_LABELS, EXAMPLE_TRIPLETS, FULL_CONFIG, matrix_from_rows, to_dense
from tests.test_evaluation import all_pairs_auc
from tests.test_model import brute_force_score, random_instance
from tests.test_training import (
    assert_matches_central_differences,
    make_matrix,
    moderate_instance,
    objective_gradient,
)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[PASS] {label}")


def test_criterion_1_worked_example_encoding(example_qmatrix):
    with criterion("C1 encoding fidelity: 7x14 worked example reproduced exactly"):
        dm = encode_dataset(EXAMPLE_TRIPLETS, example_qmatrix, FULL_CONFIG, n_students=2)
        dense = to_dense(dm)
        assert dense.shape == (7, 14)
        assert np.array_equal(dense, EXAMPLE_ENCODED)
        assert dm.labels.tolist() == EXAMPLE_LABELS
        # the later rows accumulate multi-count cells
        assert dense[3, 9] == 2.0 and dense[4, 9] == 2.0
        assert dense[4, 12] == 2.0


def test_criterion_2_fast_score_identity():
    with criterion("C2 fast-FM identity: 1000 random pairs match the double loop at 1e-10"):
        rng = np.random.default_rng(2024)
        checked = 0
        for d in (0, 1, 3, 8):
            for _ in range(250):
                n = int(rng.integers(2, 51))
                params, row = random_instance(rng, n=n, d=d, max_nnz=min(10, n))
                fast = raw_scores(params, row)[0]
                slow = brute_force_score(params, row)
                assert fast == pytest.approx(slow, rel=1e-10, abs=1e-12)
                checked += 1
        assert checked == 1000


def test_criterion_3_gradient_check():
    with criterion("C3 gradient check: the MAP objective's gradient vs central differences at 1e-4"):
        for d in (0, 5):
            rng = np.random.default_rng(300 + d)
            for _ in range(10):
                params, data = moderate_instance(rng, n=12, d=d, n_rows=8)
                assert_matches_central_differences(params, data, l2=0.05)

    with criterion("C3 first-order optimality: |gradient| <= 1e-3 at a converged fit"):
        for d in (0, 3):
            data = make_matrix(np.random.default_rng(30), n_rows=80, width=10, max_nnz=4)
            log: list = []
            params = train_map_logit(data, TrainConfig(d=d, epochs=5000, l2=0.05, seed=0),
                                     after_sweep=lambda *sweep: log.append(sweep))
            assert len(log) < 5000  # stopped on its tolerance
            g_bias, g_w, g_V = objective_gradient(params, data, l2=0.05)
            gradient = np.concatenate([[g_bias], g_w, g_V.ravel()]) / len(data)
            assert np.abs(gradient).max() <= 1e-3


def test_criterion_4_auc_oracle():
    with criterion("C4 AUC: rank-based equals all-pairs exactly on 100 instances"):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(4, 301))
            if rng.random() < 0.5:
                p = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=n)  # force ties
            else:
                p = rng.uniform(size=n)
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            assert auc(p, y) == all_pairs_auc(p, y)
        labels = np.array([0, 1] * 20)
        assert auc(np.full(40, 0.7), labels) == 0.5


def _irt_row(space, user, item):
    return [(space.offset("users") + user, 1.0), (space.offset("items") + item, 1.0)]


def test_criterion_5_model_reductions():
    rng = np.random.default_rng(55)
    with criterion("C5a additive-preset invariance under bias reparametrization at 1e-12"):
        n_users, n_items = 15, 8
        config = preset_encoding("irt", d=0)
        space = config.feature_space(n_users, n_items, 0)
        w = rng.normal(size=space.width)
        params = FMParams(rng.normal(), w)
        c = 0.7312
        w_shift = w.copy()
        w_shift[: n_users] += c
        shifted = FMParams(params.bias - c, w_shift)
        rows = matrix_from_rows(space, [
            _irt_row(space, int(rng.integers(n_users)), int(rng.integers(n_items)))
            for _ in range(200)
        ])
        for link in (Link.LOGIT, Link.PROBIT):
            a = predict_proba_matrix(params, rows, link)
            b = predict_proba_matrix(shifted, rows, link)
            assert np.abs(a - b).max() <= 1e-12

    with criterion("C5b counter-preset score equals the explicit skill formula at 1e-12"):
        s = 6
        config = preset_encoding("pfa", d=0)
        space = config.feature_space(0, 0, s)
        beta = rng.normal(size=s)
        win_gain = rng.normal(size=s)
        fail_gain = rng.normal(size=s)
        params = FMParams(0.0, np.concatenate([beta, win_gain, fail_gain]))
        rows, explicit = [], []
        for _ in range(200):
            kc = np.sort(rng.choice(s, size=int(rng.integers(1, 4)), replace=False))
            wins = rng.integers(0, 6, size=kc.size)
            fails = rng.integers(0, 6, size=kc.size)
            pairs = [(space.offset("skills") + int(k), 1.0) for k in kc]
            pairs += [
                (space.offset("wins") + int(k), float(wc))
                for k, wc in zip(kc, wins) if wc
            ]
            pairs += [
                (space.offset("fails") + int(k), float(fc))
                for k, fc in zip(kc, fails) if fc
            ]
            rows.append(pairs)
            explicit.append(float(
                sum(beta[k] + win_gain[k] * wc + fail_gain[k] * fc
                    for k, wc, fc in zip(kc, wins, fails))
            ))
        scores = raw_scores(params, matrix_from_rows(space, rows))
        assert np.abs(scores - np.array(explicit)).max() <= 1e-12

    with criterion("C5c attempt-preset equals counter-preset when gains coincide at 1e-12"):
        q = ktfm.QMatrix((rng.random((5, 4)) < 0.5).astype(np.int8))
        triplets = [
            (int(rng.integers(3)), int(rng.integers(5)), int(rng.integers(2)))
            for _ in range(150)
        ]
        afm_cfg = preset_encoding("afm", d=0)
        pfa_cfg = preset_encoding("pfa", d=0)
        dm_afm = encode_dataset(triplets, q, afm_cfg, n_students=3)
        dm_pfa = encode_dataset(triplets, q, pfa_cfg, n_students=3)
        beta = rng.normal(size=4)
        gain = rng.normal(size=4)
        afm_params = FMParams(0.3, np.concatenate([beta, gain]))
        pfa_params = FMParams(0.3, np.concatenate([beta, gain, gain]))
        scores_afm = raw_scores(afm_params, dm_afm)
        scores_pfa = raw_scores(pfa_params, dm_pfa)
        assert np.abs(scores_afm - scores_pfa).max() <= 1e-12


def test_criterion_6_parameter_recovery():
    spec = SynthSpec("rasch", n_students=200, n_items=20, seed=7)
    data = generate_synthetic(spec)
    config = preset_encoding("irt", d=0)
    dm = encode_dataset(data.triplets, None, config, 200, n_items=20)

    with criterion("C6a MAP recovery: item-difficulty correlation >= 0.9"):
        params = train_map_logit(dm, TrainConfig(epochs=200, seed=0))
        recovered = -params.w[dm.space.offset("items") : dm.space.offset("items") + 20]
        r = np.corrcoef(np.array(data.truth["difficulty"]), recovered)[0, 1]
        assert r >= 0.9

    with criterion("C6b Gibbs held-out AUC within 0.05 of the generating oracle"):
        rng = np.random.default_rng(123)
        perm = rng.permutation(len(dm))
        cut = int(0.8 * len(dm))
        train_idx, test_idx = np.sort(perm[:cut]), np.sort(perm[cut:])
        train, test = dm.subset(train_idx), dm.subset(test_idx)
        oracle = oracle_probabilities(data.truth, data.triplets)[test_idx]
        oracle_auc = auc(oracle, test.labels)
        _, predictions = train_gibbs_probit(
            train, test, TrainConfig(epochs=500, burn_in=100, seed=0)
        )
        gibbs_auc = auc(predictions, test.labels)
        assert abs(gibbs_auc - oracle_auc) <= 0.05


def test_criterion_7_cv_determinism(tmp_path):
    with criterion("C7 determinism: identical seeds give byte-identical cv reports"):
        runner = CliRunner()
        synth_dir = tmp_path / "synth"
        result = runner.invoke(
            cli_main,
            [
                "synth", "--generator", "rasch", "--students", "40", "--items", "10",
                "--seed", "13", "--out-dir", str(synth_dir),
            ],
            catch_exceptions=False,
        )
        assert result.exit_code == 0, result.output
        args = [
            "cv", "--data", str(synth_dir / "triplets.csv"),
            "--preset", "irt", "--d", "0",
            "--folds", "5", "--seed", "42", "--epochs", "15",
        ]
        for run in ("r1", "r2"):
            result = runner.invoke(
                cli_main, args + ["--out-dir", str(tmp_path / run)], catch_exceptions=False
            )
            assert result.exit_code == 0, result.output
        assert (tmp_path / "r1" / "report.csv").read_bytes() == (
            tmp_path / "r2" / "report.csv"
        ).read_bytes()
        assert (tmp_path / "r1" / "summary.csv").read_bytes() == (
            tmp_path / "r2" / "summary.csv"
        ).read_bytes()


# ---------------------------------------------------------------------------
# real-data criteria (optional): public Assistments 2009-2010 CSV

ASSISTMENTS_CSV = os.environ.get("KTFM_ASSISTMENTS_CSV", "")
ASSISTMENTS_EPOCHS = int(os.environ.get("KTFM_ASSISTMENTS_EPOCHS", "500"))

needs_assistments = pytest.mark.skipif(
    not ASSISTMENTS_CSV,
    reason="set KTFM_ASSISTMENTS_CSV to the public 2009-2010 skill-builder CSV",
)

_cell_cache: dict = {}


@pytest.fixture(scope="module")
def assistments_dataset(tmp_path_factory):
    from ktfm.datasets import convert_assistments, load_dataset

    base = tmp_path_factory.mktemp("assistments")
    convert_assistments(
        ASSISTMENTS_CSV, base / "triplets.csv", base / "qmatrix.csv"
    )
    return load_dataset(base / "triplets.csv", base / "qmatrix.csv")


def _assistments_auc(dataset, preset, d):
    # the MAP fit at the CLI's default penalty, l2 = 1e-4; --epochs caps its
    # sweeps, and the fit stops earlier once the objective settles
    from ktfm.evaluation import run_cv

    key = (preset, d)
    if key not in _cell_cache:
        reports = run_cv(
            dataset,
            [(preset, d)],
            FoldSpec(k=5, seed=42),
            TrainConfig(epochs=ASSISTMENTS_EPOCHS, l2=1e-4, seed=42),
        )
        _cell_cache[key] = reports[0].mean_auc
    return _cell_cache[key]


@needs_assistments
def test_criterion_8_assistments_additive_baseline(assistments_dataset):
    with criterion("C8 user+item baseline: mean AUC = 0.691 +/- 0.02"):
        value = _assistments_auc(assistments_dataset, "irt", 0)
        assert value == pytest.approx(0.691, abs=0.02)


@needs_assistments
def test_criterion_9_counter_features_beat_baselines(assistments_dataset):
    with criterion("C9 item+skill+counter preset: AUC = 0.759 +/- 0.02 and ordering holds"):
        iswf = _assistments_auc(assistments_dataset, "iswf", 0)
        pfa = _assistments_auc(assistments_dataset, "pfa", 0)
        afm = _assistments_auc(assistments_dataset, "afm", 0)
        assert iswf == pytest.approx(0.759, abs=0.02)
        assert iswf > pfa > afm


@needs_assistments
def test_criterion_10_side_information_lift(assistments_dataset):
    with criterion("C10 extra side columns lift AUC to 0.815-0.819 +/- 0.02"):
        iswf = _assistments_auc(assistments_dataset, "iswf", 0)
        e0 = _assistments_auc(assistments_dataset, "iswfe", 0)
        e5 = _assistments_auc(assistments_dataset, "iswfe", 5)
        for value in (e0, e5):
            assert 0.815 - 0.02 <= value <= 0.819 + 0.02
        assert min(e0, e5) - iswf >= 0.03
