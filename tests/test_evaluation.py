import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktfm import (
    Dataset,
    FoldSpec,
    Link,
    SynthSpec,
    TrainConfig,
    accuracy,
    auc,
    generate_synthetic,
    make_folds,
    nll,
    raw_scores,
    run_cv,
    train_gibbs_probit,
    train_map_logit,
)
from ktfm.datasets import Vocabulary
from ktfm.evaluation import encode_preset, fit, format_table, write_fold_report, write_summary


def all_pairs_auc(predictions, labels):
    """O(S^2) reference: credit 1 per correctly ordered pair, 0.5 per tie."""
    p = np.asarray(predictions, dtype=float)
    y = np.asarray(labels)
    pos = p[y == 1]
    neg = p[y == 0]
    total = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([0.9, 0.1], [1, 0]) == 1.0

    def test_tie_predicts_positive(self):
        assert accuracy([0.5, 0.5], [1, 0]) == 0.5

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            p = rng.uniform(size=n)
            y = rng.integers(0, 2, size=n)
            expected = sum(1 for pi, yi in zip(p, y) if (pi >= 0.5) == (yi == 1)) / n
            assert accuracy(p, y) == expected

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([0.5], [1, 0])


class TestMetricChecks:
    @pytest.mark.parametrize("metric", [accuracy, auc, nll], ids=["accuracy", "auc", "nll"])
    def test_every_metric_rejects_alike(self, metric):
        # auc([], []) once said the labels were single-class
        with pytest.raises(ValueError, match="^empty prediction list$"):
            metric([], [])
        with pytest.raises(ValueError, match=f"^{re.escape('shape mismatch: (1,) predictions, (2,) labels')}$"):
            metric([0.5], [1, 0])
        with pytest.raises(ValueError, match=f"^{re.escape('shape mismatch: (1, 2) predictions, (1, 2) labels')}$"):
            metric([[0.4, 0.6]], [[0, 1]])


class TestAuc:
    def test_perfect_ordering(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties_is_half(self):
        assert auc([0.4] * 10, [0, 1] * 5) == 0.5

    def test_matches_all_pairs_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(5, 300))
            # coarse grid of scores forces plenty of ties
            p = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=n)
            y = rng.integers(0, 2, size=n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            assert auc(p, y) == all_pairs_auc(p, y)

    @settings(max_examples=200, deadline=None)
    @given(
        scored=st.lists(
            # a few shared values force ties, free floats fill in the rest
            st.tuples(st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0]) | st.floats(allow_nan=False),
                      st.integers(0, 1)),
            max_size=60,
        )
    )
    def test_equals_all_pairs_with_ties(self, scored):
        p = [-1.0, 2.0] + [s for s, _ in scored]
        y = [0, 1] + [label for _, label in scored]
        assert auc(p, y) == all_pairs_auc(p, y)

    def test_degenerate_labels_rejected(self):
        with pytest.raises(ValueError):
            auc([0.5, 0.6], [1, 1])

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(4)
        p = rng.uniform(size=100)
        y = rng.integers(0, 2, size=100)
        y[0], y[1] = 0, 1
        assert auc(p, y) == auc(np.exp(3 * p) + 7, y)

    def test_flip_symmetry_without_ties(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(size=101)  # continuous, ties have probability zero
        y = rng.integers(0, 2, size=101)
        y[0], y[1] = 0, 1
        base = auc(p, y)
        # flipping labels alone (or scores alone) complements the statistic;
        # flipping both leaves it unchanged
        assert auc(p, 1 - y) == pytest.approx(1 - base, abs=1e-12)
        assert auc(1 - p, y) == pytest.approx(1 - base, abs=1e-12)
        assert auc(1 - p, 1 - y) == pytest.approx(base, abs=1e-12)


def chunk_membership_folds(n_rows, spec, student_of_row=None):
    """``make_folds`` as it was first written: each chunk of the permutation is
    a test set (its students' rows, found by ``np.isin``, for by_student), and
    its train set is ``np.setdiff1d`` of all rows and the test set."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed).spawn(1)[0])
    if spec.mode == "by_row":
        parts = np.array_split(rng.permutation(n_rows), spec.k)
    else:
        students = np.asarray(student_of_row)
        unique = np.unique(students)
        if unique.size < spec.k:
            raise ValueError("too few students")
        order = rng.permutation(unique)
        parts = [np.flatnonzero(np.isin(students, chunk)) for chunk in np.array_split(order, spec.k)]
    folds = []
    for part in parts:
        test = np.sort(part)
        folds.append((np.setdiff1d(np.arange(n_rows), test), test))
    return folds


class TestMakeFolds:
    @settings(max_examples=200, deadline=None)
    @given(
        students=st.lists(st.integers(-(2**40), 2**40) | st.integers(0, 6), max_size=60),
        k=st.integers(2, 7),
        seed=st.integers(0, 2**32 - 1),
        by_student=st.booleans(),
    )
    def test_equals_the_chunk_membership_folds(self, students, k, seed, by_student):
        spec = FoldSpec(k=k, seed=seed, mode="by_student" if by_student else "by_row")
        if len(set(students) if by_student else students) < k:
            with pytest.raises(ValueError, match=f"cannot make {k} (student|row) folds"):
                make_folds(len(students), spec, students)
            return
        ours = make_folds(len(students), spec, students)
        expected = chunk_membership_folds(len(students), spec, students)
        assert len(ours) == len(expected) == k
        for (train, test), (train_ref, test_ref) in zip(ours, expected):
            assert np.array_equal(train, train_ref) and np.array_equal(test, test_ref)
            assert train.dtype == train_ref.dtype and test.dtype == test_ref.dtype


    def test_row_partition(self):
        folds = make_folds(10, FoldSpec(k=5, seed=0))
        seen = np.concatenate([test for _, test in folds])
        assert sorted(seen.tolist()) == list(range(10))
        assert all(len(test) == 2 for _, test in folds)
        for train, test in folds:
            assert sorted(np.concatenate([train, test]).tolist()) == list(range(10))

    def test_by_student_isolates_each_student(self):
        students = [0, 0, 1, 2, 2, 2, 3, 4]
        folds = make_folds(8, FoldSpec(k=5, seed=1, mode="by_student"), students)
        for train, test in folds:
            test_students = {students[i] for i in test}
            train_students = {students[i] for i in train}
            assert len(test_students) == 1
            assert test_students.isdisjoint(train_students)

    def test_same_seed_same_partition(self):
        a = make_folds(40, FoldSpec(k=5, seed=7))
        b = make_folds(40, FoldSpec(k=5, seed=7))
        for (ta, sa), (tb, sb) in zip(a, b):
            assert np.array_equal(ta, tb) and np.array_equal(sa, sb)

    def test_too_few_students(self):
        with pytest.raises(ValueError):
            make_folds(6, FoldSpec(k=5, mode="by_student"), [0, 0, 1, 1, 2, 2])

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="^cannot make 5 row folds from 3 rows$"):
            make_folds(3, FoldSpec(k=5))

    def test_by_student_needs_map(self):
        with pytest.raises(ValueError):
            make_folds(6, FoldSpec(k=2, mode="by_student"))

    def test_fold_count_validation(self):
        with pytest.raises(ValueError):
            FoldSpec(k=1)


def synthetic_dataset(seed=0, n_students=40, n_items=12):
    data = generate_synthetic(
        SynthSpec("rasch", n_students=n_students, n_items=n_items, seed=seed)
    )
    vocab = Vocabulary(
        users={str(i): i for i in range(n_students)},
        items={str(j): j for j in range(n_items)},
    )
    return Dataset(data.triplets, None, vocab)


class TestRunCv:
    def test_grid_report_shape(self):
        dataset = synthetic_dataset()
        reports = run_cv(
            dataset,
            [("irt", 0), ("mirtb", 5)],
            FoldSpec(k=5, seed=0),
            TrainConfig(epochs=5, seed=0),
        )
        assert len(reports) == 2
        assert all(len(r.folds) == 5 for r in reports)
        assert {(r.preset, r.d) for r in reports} == {("irt", 0), ("mirtb", 5)}

    def test_reports_sorted_by_auc(self):
        dataset = synthetic_dataset(seed=3)
        reports = run_cv(
            dataset,
            [("irt", 0), ("mirtb", 2)],
            FoldSpec(k=3, seed=1),
            TrainConfig(epochs=8, seed=0),
        )
        aucs = [r.mean_auc for r in reports]
        assert aucs == sorted(aucs, reverse=True)

    def test_dimension_rule_enforced(self):
        dataset = synthetic_dataset()
        with pytest.raises(ValueError):
            run_cv(dataset, [("irt", 5)], FoldSpec(k=2), TrainConfig(epochs=2))

    def test_one_encode_per_run_of_a_preset(self, monkeypatch):
        import ktfm.evaluation as evaluation

        calls = []
        encode = evaluation.encode_dataset
        monkeypatch.setattr(
            evaluation, "encode_dataset", lambda *a, **k: calls.append(1) or encode(*a, **k)
        )
        dataset = synthetic_dataset(seed=4, n_students=12, n_items=6)
        args = (FoldSpec(k=2, seed=0), TrainConfig(epochs=2, seed=0))
        shared = run_cv(dataset, [("mirtb", 1), ("mirtb", 2), ("irt", 0)], *args)
        assert len(calls) == 2
        alone = [run_cv(dataset, [cell], *args)[0] for cell in [("mirtb", 1), ("mirtb", 2), ("irt", 0)]]
        key = lambda r: (r.preset, r.d)  # noqa: E731
        assert sorted(shared, key=key) == sorted(alone, key=key)

    @pytest.mark.parametrize("link", [Link.LOGIT, Link.PROBIT])
    def test_one_fit_per_cell_and_fold(self, monkeypatch, link):
        # each name is looked up as a module global, with the config where
        # ``perfbench/trace_cli.py`` reads it: position 1 (MAP) or 2 (Gibbs)
        import ktfm.evaluation as evaluation

        calls = []

        def counting(name, config_pos=None):
            wrapped = getattr(evaluation, name)

            def wrapper(*args, **kwargs):
                if config_pos is None:
                    calls.append((name, None))
                else:
                    config = args[config_pos] if len(args) > config_pos else kwargs["config"]
                    calls.append((name, config.d))
                return wrapped(*args, **kwargs)

            monkeypatch.setattr(evaluation, name, wrapper)

        counting("train_map_logit", 1)
        counting("train_gibbs_probit", 2)
        counting("raw_scores")
        grid = [("irt", 0), ("mirtb", 1), ("mirtb", 2)]
        run_cv(synthetic_dataset(seed=8, n_students=12, n_items=6), grid,
               FoldSpec(k=3, seed=0), TrainConfig(epochs=2, seed=0), link=link)
        per_fit = ["train_map_logit", "raw_scores"] if link is Link.LOGIT else ["train_gibbs_probit"]
        # fold-major within each run of one preset: every d of the run on fold 0, then on fold 1 ...
        runs = [[0], [1, 2]]
        assert calls == [
            (name, None if name == "raw_scores" else d)
            for run in runs for _ in range(3) for d in run for name in per_fit
        ]

    @pytest.mark.parametrize("link", [Link.LOGIT, Link.PROBIT])
    def test_one_colouring_per_fold_of_a_run(self, monkeypatch, link):
        # a run colours each fold's train set once and hands the colouring to every fit
        import ktfm.evaluation as evaluation
        import ktfm.training as training

        calls = []
        colour = training._colour_blocks

        def counting(data):
            calls.append(len(data))
            return colour(data)

        monkeypatch.setattr(training, "_colour_blocks", counting)
        monkeypatch.setattr(evaluation, "_colour_blocks", counting)
        dataset = synthetic_dataset(seed=8, n_students=12, n_items=6)
        args = (FoldSpec(k=3, seed=0), TrainConfig(epochs=2, seed=0))
        run_cv(dataset, [("mirtb", 1), ("mirtb", 2)], *args, link=link)
        assert len(calls) == 3
        calls.clear()
        run_cv(dataset, [("mirtb", 1), ("irt", 0)], *args, link=link)
        assert len(calls) == 6

    @pytest.mark.parametrize(
        "grid, expected",
        [([("mirtb", 1), ("mirtb", 2)], [(True, True), (False, False)]), ([("mirtb", 1)], [(False, False)])],
        ids=["two-cells", "lone-cell"],
    )
    def test_the_last_fit_of_a_fold_frees_the_shared_colouring(self, monkeypatch, grid, expected):
        # each Gibbs fit closes with a fresh score of its train set: the shared
        # colouring must outlive that of the fold's first fit and be gone by the last's
        import weakref

        import ktfm.evaluation as evaluation
        import ktfm.training as training

        colourings, closing = [], []
        colour, score = training._colour_blocks, training.raw_scores

        def colouring(data):
            classes = colour(data)
            colourings.append([weakref.ref(seg) for *_, seg in classes[0]])
            return classes

        def scoring(params, data):
            if len(data) == 48:  # a train set; the test sets hold 24 rows
                closing.append([ref() is not None for ref in colourings[-1]])
            return score(params, data)

        monkeypatch.setattr(evaluation, "_colour_blocks", colouring)
        monkeypatch.setattr(training, "raw_scores", scoring)
        run_cv(synthetic_dataset(seed=8, n_students=12, n_items=6), grid,
               FoldSpec(k=3, seed=0), TrainConfig(epochs=2, seed=0), link=Link.PROBIT)
        assert len(colourings) == 3 and all(colourings)
        assert [(all(alive), any(alive)) for alive in closing] == expected * 3

    def test_a_repeated_cell_gives_two_equal_reports(self):
        dataset = synthetic_dataset(seed=9, n_students=12, n_items=6)
        args = (FoldSpec(k=3, seed=0), TrainConfig(epochs=3, seed=0))
        twice = run_cv(dataset, [("mirtb", 1), ("mirtb", 1)], *args)
        assert len(twice) == 2 and twice[0] == twice[1]
        assert twice[0] == run_cv(dataset, [("mirtb", 1)], *args)[0]

    def test_every_cell_checked_before_encoding(self, monkeypatch):
        import ktfm.evaluation as evaluation

        def fail(*args, **kwargs):
            raise AssertionError("encoded before the grid was checked")

        monkeypatch.setattr(evaluation, "encode_dataset", fail)
        with pytest.raises(ValueError, match="d = 0"):
            run_cv(synthetic_dataset(), [("irt", 0), ("irt", 5)], FoldSpec(k=2), TrainConfig(epochs=2))

    def test_skipped_cells_are_handed_over_and_left_out(self):
        skipped = []
        reports = run_cv(
            synthetic_dataset(seed=1, n_students=12, n_items=6),
            [("irt", 5), ("irt", 0), ("nope", 0)],
            FoldSpec(k=2, seed=0),
            TrainConfig(epochs=2, seed=0),
            skip=lambda preset, d, exc: skipped.append((preset, d, type(exc))),
        )
        assert [(r.preset, r.d) for r in reports] == [("irt", 0)]
        assert skipped == [("irt", 5, ValueError), ("nope", 0, ValueError)]
        with pytest.raises(ValueError, match="no valid"):
            run_cv(synthetic_dataset(), [("irt", 5)], FoldSpec(k=2), TrainConfig(epochs=2), skip=lambda *a: None)

    def test_degenerate_fold_reports_missing_auc(self):
        # one student answers everything right; splitting by student makes
        # that fold's test labels single-class
        triplets = []
        for s in range(3):
            for j in range(6):
                outcome = 1 if s == 0 else (j % 2)
                triplets.append((s, j, outcome))
        vocab = Vocabulary(
            users={str(i): i for i in range(3)}, items={str(j): j for j in range(6)}
        )
        dataset = Dataset(triplets, None, vocab)
        with pytest.warns(UserWarning, match="single-class"):
            reports = run_cv(
                dataset,
                [("irt", 0)],
                FoldSpec(k=3, seed=0, mode="by_student"),
                TrainConfig(epochs=3, seed=0),
            )
        report = reports[0]
        missing = [f for f in report.folds if f.auc is None]
        assert len(missing) == 1
        assert report.mean_auc is not None  # mean over the remaining folds

    def test_report_is_reproducible(self, tmp_path):
        def render():
            reports = run_cv(
                synthetic_dataset(seed=5),
                [("irt", 0)],
                FoldSpec(k=4, seed=2),
                TrainConfig(epochs=6, seed=2),
            )
            report, summary = tmp_path / "report.csv", tmp_path / "summary.csv"
            write_fold_report(reports, report)
            write_summary(reports, summary)
            return report.read_bytes() + summary.read_bytes()

        assert render() == render()

    def test_probit_route_runs(self):
        reports = run_cv(
            synthetic_dataset(seed=6, n_students=12, n_items=6),
            [("irt", 0)],
            FoldSpec(k=2, seed=0),
            TrainConfig(epochs=20, seed=0),
            link=Link.PROBIT,
        )
        assert len(reports[0].folds) == 2
        for fm in reports[0].folds:
            assert 0.0 < fm.nll

    def test_format_table_mentions_presets(self):
        reports = run_cv(
            synthetic_dataset(seed=7, n_students=10, n_items=5),
            [("irt", 0)],
            FoldSpec(k=2, seed=0),
            TrainConfig(epochs=3, seed=0),
        )
        text = format_table(reports)
        assert "irt" in text and "AUC" in text


class TestFit:
    @pytest.mark.parametrize("link", [Link.LOGIT, Link.PROBIT])
    @pytest.mark.parametrize("with_test", [True, False], ids=["test", "no-test"])
    def test_each_fit_equals_its_trainer_called_alone(self, link, with_test):
        # fit shares one colouring between its configs; every pair must still be
        # the bytes of the link's trainer (and the MAP's scored test set) alone
        _, dm = encode_preset(synthetic_dataset(seed=8, n_students=12, n_items=6), "mirtb", 2)
        train, test = dm.subset(np.arange(0, len(dm), 2)), dm.subset(np.arange(1, len(dm), 2))
        test = test if with_test else None
        configs = [TrainConfig(d=0, epochs=4, seed=1), TrainConfig(d=2, epochs=4, seed=2)]
        fits = fit(train, configs, link, test=test)
        assert len(fits) == len(configs)
        for config, (params, predictions) in zip(configs, fits):
            if link is Link.PROBIT:
                alone, want = train_gibbs_probit(train, test, config)
            else:
                alone = train_map_logit(train, config)
                want = None if test is None else link.inverse(raw_scores(alone, test))
            assert np.float64(params.bias) == np.float64(alone.bias)
            assert params.w.tobytes() == alone.w.tobytes() and params.V.tobytes() == alone.V.tobytes()
            if test is None:
                assert predictions is None and want is None
            else:
                assert predictions.tobytes() == want.tobytes()
