import ast
import csv
import io
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ktfm import (
    FMParams,
    FeatureSpace,
    Link,
    export_embeddings,
    predict_proba_matrix,
    preset_encoding,
    raw_scores,
)
from ktfm.encoding import DimensionRule
from ktfm.model import PROB_EPS, normal_cdf
from tests.conftest import matrix_from_rows, to_dense
from tests.test_sparse import design_matrices


def brute_force_score(params: FMParams, row) -> float:
    """Explicit double loop over all ordered pairs k < l of a one-row matrix."""
    dense = to_dense(row)[0]
    z = params.bias + float(dense @ params.w)
    if params.V is not None:
        n = params.n_features
        for k in range(n):
            for l in range(k + 1, n):
                z += dense[k] * dense[l] * float(params.V[k] @ params.V[l])
    return z


def random_instance(rng, n=20, d=3, max_nnz=6):
    """Random parameters and a random one-row design matrix of width n."""
    w = rng.normal(size=n)
    V = rng.normal(size=(n, d)) if d else None
    params = FMParams(rng.normal(), w, V)
    nnz = int(rng.integers(1, max_nnz + 1))
    idx = np.sort(rng.choice(n, size=nnz, replace=False))
    vals = rng.integers(1, 4, size=nnz).astype(float)  # counter-like values
    return params, matrix_from_rows(n, [list(zip(idx.tolist(), vals.tolist()))])


def score(params: FMParams, pairs) -> float:
    """Score of the one row holding the (column, value) ``pairs``."""
    return float(raw_scores(params, matrix_from_rows(params.n_features, [pairs]))[0])


class TestRawScore:
    def test_zero_model_scores_zero(self):
        assert score(FMParams(0.0, np.zeros(10), np.zeros((10, 2))), [(0, 1.0), (4, 2.0)]) == 0.0

    def test_additive_form_at_d0(self):
        # one-hot user + one-hot item reduces to bias + two weights
        rng = np.random.default_rng(3)
        n_users, n_items = 4, 5
        params = FMParams(rng.normal(), rng.normal(size=n_users + n_items))
        i, j = 2, 3
        expected = params.bias + params.w[i] + params.w[n_users + j]
        assert score(params, [(i, 1.0), (n_users + j, 1.0)]) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("d", [0, 1, 3, 8])
    def test_matches_pairwise_double_loop(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(50):
            params, row = random_instance(rng, n=20, d=d)
            fast = raw_scores(params, row)[0]
            slow = brute_force_score(params, row)
            assert fast == pytest.approx(slow, rel=1e-10, abs=1e-12)

    def test_d0_is_linear_in_x(self):
        rng = np.random.default_rng(8)
        params = FMParams(rng.normal(), rng.normal(size=12))
        za = score(params, [(1, 1.0), (5, 2.0)]) - params.bias
        zb = score(params, [(1, 2.0), (5, 4.0)]) - params.bias
        assert zb == pytest.approx(2 * za, rel=1e-12)

    def test_batch_scores_agree_with_single(self):
        rng = np.random.default_rng(21)
        rows, labels = [], []
        for _ in range(40):
            _, row = random_instance(rng, n=15, d=4)
            rows.append(list(zip(row.indices.tolist(), row.data.tolist())))
            labels.append(int(rng.integers(0, 2)))
        params, _ = random_instance(rng, n=15, d=4)
        dm = matrix_from_rows(15, rows, np.array(labels))
        batch = raw_scores(params, dm)
        single = np.array([raw_scores(params, dm.subset([r]))[0] for r in range(len(dm))])
        np.testing.assert_allclose(batch, single, rtol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # rows that overflow float64
    @settings(max_examples=80, deadline=None)
    @given(dm=design_matrices(), d=st.sampled_from([0, 1, 4]), seed=st.integers(0, 2**32 - 1))
    def test_batch_score_matches_dense_double_loop(self, dm, d, seed):
        rng = np.random.default_rng(seed)
        n = dm.space.width
        params = FMParams(rng.normal(), rng.normal(size=n), rng.normal(size=(n, d)) if d else None)
        fast = raw_scores(params, dm)
        V = np.zeros((n, 0)) if params.V is None else params.V
        for r, x in enumerate(to_dense(dm)):
            slow = params.bias + float(x @ params.w)
            # bounds the rounding of both forms: the factor term is formed
            # from (sum_k x_k V_kf)^2 in one and from x_k x_l V_k.V_l in the other
            scale = abs(params.bias) + float(np.abs(x * params.w).sum())
            scale += float(((np.abs(x) @ np.abs(V)) ** 2).sum())
            for k in range(n):
                for l in range(k + 1, n):
                    slow += x[k] * x[l] * float(V[k] @ V[l])
                    scale += abs(x[k] * x[l]) * float(np.abs(V[k]) @ np.abs(V[l]))
            if math.isfinite(scale):  # else the row overflows float64 in either form
                assert abs(fast[r] - slow) <= 1e-10 * scale

    def test_out_of_range_column(self):
        params = FMParams(0.0, np.zeros(3))
        with pytest.raises(IndexError):
            raw_scores(params, matrix_from_rows(4, [[(3, 1.0)]]))


class TestLinks:
    def test_zero_score_is_even_odds_logit(self):
        assert predict_proba_matrix(FMParams(0.0, np.zeros(2)), matrix_from_rows(2, [[]]), Link.LOGIT)[0] == 0.5

    def test_logit_is_expit_to_within_its_last_bit(self):
        # 1 / (1 + exp(-z)) in numpy, without scipy: numpy's exp may differ
        # from libm's in the last bit, which moves p by at most about 1e-16
        from scipy.special import expit

        z = np.linspace(-800.0, 800.0, 320_001)
        z = np.r_[z, np.geomspace(1e-300, 800.0, 20_001), -np.geomspace(1e-300, 800.0, 20_001)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # exp(800) overflows quietly
            ours = Link.LOGIT.inverse(z)
        assert np.abs(ours - np.clip(expit(z), PROB_EPS, 1.0 - PROB_EPS)).max() <= 2.3e-16

    def test_zero_score_is_even_odds_probit(self):
        assert predict_proba_matrix(FMParams(0.0, np.zeros(2)), matrix_from_rows(2, [[]]), Link.PROBIT)[0] == 0.5

    @pytest.mark.parametrize("z", [-10.0, -1.0, 0.0, 1.0, 10.0])
    def test_logit_matches_high_precision(self, z):
        with mpmath.workdps(60):
            expected = float(1 / (1 + mpmath.e ** (-mpmath.mpf(z))))
        got = float(Link.LOGIT.inverse(z))
        assert got == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("z", [-8.0, -1.0, 0.0, 1.0, 8.0])
    def test_probit_matches_high_precision(self, z):
        with mpmath.workdps(60):
            expected = float(mpmath.ncdf(mpmath.mpf(z)))
        got = float(Link.PROBIT.inverse(z))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_normal_cdf_matches_high_precision(self):
        z = np.r_[np.linspace(-8.0, 8.0, 4001), -np.geomspace(1e-300, 8.0, 301), np.geomspace(1e-300, 8.0, 301)]
        with mpmath.workdps(60):
            expected = np.array([float(mpmath.ncdf(mpmath.mpf(float(v)))) for v in z])
        assert np.abs(normal_cdf(z) / expected - 1.0).max() <= 2e-14

    def test_normal_cdf_matches_ndtr_into_the_far_tail(self):
        from scipy.special import ndtr

        z = np.linspace(-38.0, 38.0, 200_001)
        expected = ndtr(z)
        kept = expected > 1e-300
        assert kept.sum() > 190_000
        assert np.abs(normal_cdf(z)[kept] / expected[kept] - 1.0).max() <= 1e-12
        assert (normal_cdf(np.array([-39.0, -np.inf])) == 0.0).all()
        assert (normal_cdf(np.array([39.0, np.inf])) == 1.0).all()

    def test_normal_cdf_passes_nan_and_keeps_shape(self):
        got = normal_cdf(np.array([[np.nan, 0.0], [-40.0, np.nan]]))
        assert got.shape == (2, 2)
        assert np.isnan(got[0, 0]) and np.isnan(got[1, 1]) and got[0, 1] == 0.5 and got[1, 0] == 0.0
        assert normal_cdf(0.0).shape == () and float(normal_cdf(0.0)) == 0.5

    @pytest.mark.parametrize(
        "link,span",
        [(Link.LOGIT, 30.0), (Link.PROBIT, 7.0)],
    )
    def test_strictly_increasing(self, link, span):
        # within the float64-distinguishable range of each inverse link
        zs = np.linspace(-span, span, 400)
        ps = link.inverse(zs)
        assert (np.diff(ps) > 0).all()

    @pytest.mark.parametrize("link", [Link.LOGIT, Link.PROBIT])
    def test_open_unit_interval(self, link):
        ps = link.inverse(np.array([-1e9, -50.0, 0.0, 50.0, 1e9]))
        assert (ps > 0).all() and (ps < 1).all()


class TestPresets:
    def test_pfa_blocks_and_dimension(self):
        config, rule = preset_encoding("PFA")
        assert config.enabled_blocks() == ("skills", "wins", "fails")
        assert rule is DimensionRule.ZERO
        rule.check(0)

    def test_irt_blocks(self):
        config, rule = preset_encoding("IRT")
        assert config.enabled_blocks() == ("users", "items")
        rule.check(0)
        with pytest.raises(ValueError):
            rule.check(3)

    def test_afm_blocks(self):
        config, rule = preset_encoding("afm")
        assert config.enabled_blocks() == ("skills", "attempts")

    def test_mirtb_accepts_positive_d(self):
        config, rule = preset_encoding("MIRTb")
        assert config.enabled_blocks() == ("users", "items")
        rule.check(10)
        with pytest.raises(ValueError):
            rule.check(0)

    def test_iswf_alias(self):
        config, rule = preset_encoding("iswf")
        assert config.enabled_blocks() == ("items", "skills", "wins", "fails")
        rule.check(0)
        rule.check(20)

    def test_iswfe_requires_extras(self):
        with pytest.raises(ValueError):
            preset_encoding("iswfe")
        config, _ = preset_encoding("ktm-iswfe", (("school", 7),))
        assert config.extra_columns == (("school", 7),)
        assert config.enabled_blocks()[-1] == "school"

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_encoding("dkt")


class TestEmbeddingExport:
    def _export(self, params, space):
        buf = io.StringIO()
        export_embeddings(params, space, buf)
        return buf.getvalue()

    def test_shape_with_factors(self):
        space = FeatureSpace((("users", 2), ("items", 3), ("skills", 9)))
        rng = np.random.default_rng(4)
        params = FMParams(0.1, rng.normal(size=14), rng.normal(size=(14, 2)))
        lines = self._export(params, space).splitlines()
        assert lines[0] == "block,local_id,bias,v0,v1"
        assert len(lines) == 15
        assert all(len(line.split(",")) == 5 for line in lines[1:])

    def test_bias_only_export(self):
        space = FeatureSpace((("users", 3),))
        params = FMParams(0.0, np.array([1.0, -2.0, 0.5]))
        lines = self._export(params, space).splitlines()
        assert lines[0] == "block,local_id,bias"
        assert lines[1] == "users,0,1.0"

    def test_round_trip_exact(self, tmp_path):
        space = FeatureSpace((("users", 4), ("items", 2)))
        rng = np.random.default_rng(9)
        params = FMParams(rng.normal(), rng.normal(size=6), rng.normal(size=(6, 3)))
        path = tmp_path / "emb.csv"
        with open(path, "w", newline="\n") as fh:
            export_embeddings(params, space, fh)
        with open(path, newline="") as fh:
            header, *records = list(csv.reader(fh))
        assert header == ["block", "local_id", "bias", "v0", "v1", "v2"]
        assert [(block, int(local)) for block, local, *_ in records] == [
            space.owner(col) for col in range(space.width)
        ]
        values = np.array([[float(v) for v in record[2:]] for record in records])
        assert np.array_equal(values[:, 0], params.w)
        assert np.array_equal(values[:, 1:], params.V)


class TestFMParams:
    def test_v_none_iff_d_zero(self):
        assert FMParams(0.0, np.zeros(3)).d == 0
        assert FMParams(0.0, np.zeros(3), np.zeros((3, 2))).d == 2
        with pytest.raises(ValueError):
            FMParams(0.0, np.zeros(3), np.zeros((3, 0)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            FMParams(float("nan"), np.zeros(2))
        with pytest.raises(ValueError):
            FMParams(0.0, np.array([np.inf, 0.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FMParams(0.0, np.zeros(3), np.zeros((4, 2)))


def ktfm_imports(path: Path) -> set[str]:
    """The ``ktfm`` modules one source file imports, relative or absolute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.add(".".join(filter(None, ["ktfm", node.module])))
        elif isinstance(node, ast.ImportFrom):
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
    return {name for name in found if name == "ktfm" or name.startswith("ktfm.")}


def test_score_and_matrix_layers_import_only_sparse():
    # the block set and the presets live in encoding; the FM score and the
    # design matrix below it must not depend on them
    src = Path(__file__).resolve().parents[1] / "src" / "ktfm"
    imports = {path.stem: ktfm_imports(path) for path in src.glob("*.py")}
    assert imports["encoding"] >= {"ktfm.sparse"}  # the reader sees relative imports
    assert imports["model"] <= {"ktfm.sparse"}
    assert imports["training"] <= {"ktfm.model", "ktfm.sparse"}
    assert imports["sparse"] <= {"ktfm.sparse"}


def all_imports(source: str) -> set[str]:
    """Every absolute import of one module's source, function bodies included;
    ``from a import b`` counts as both ``a`` and ``a.b``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def test_no_module_imports_scipy():
    # the sparse products, both links and the truncated-normal draws are
    # numpy, so no command imports scipy, not even inside a function body
    src = Path(__file__).resolve().parents[1] / "src" / "ktfm"
    scipy = {
        path.name: sorted(name for name in all_imports(path.read_text()) if name.split(".")[0] == "scipy")
        for path in src.glob("*.py")
    }
    assert scipy == {name: [] for name in scipy}
    assert "numpy" in all_imports((src / "model.py").read_text())  # the walk does see the top
    nested = "def f():\n    from scipy.special import ndtr\n\n    def g():\n        import scipy.sparse\n"
    assert {"scipy.special.ndtr", "scipy.sparse"} <= all_imports(nested)  # and function bodies
