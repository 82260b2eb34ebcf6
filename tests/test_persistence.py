import json
import time
from pathlib import Path

import numpy as np
import pytest

from ktfm import EncodingConfig, FMParams, FeatureSpace, Link, Vocabulary, preset_encoding
from ktfm.encoding import PRESET_NAMES
from ktfm.persistence import (
    ModelBundle,
    ModelFormatError,
    load_model,
    save_model,
    write_json,
    write_manifest,
    write_table,
)


def small_bundle(d=2):
    space = FeatureSpace((("users", 3), ("items", 2)))
    rng = np.random.default_rng(1)
    params = FMParams(
        rng.normal(),
        rng.normal(size=5),
        rng.normal(size=(5, d)) if d else None,
    )
    return ModelBundle(
        params=params,
        space=space,
        link=Link.LOGIT,
        encoding=EncodingConfig(("users", "items")),
        vocab_digest=Vocabulary(users={"a": 0}, items={"b": 0}).digest(),
        n_students=3,
        n_items=2,
    )


class TestModelRoundTrip:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        bundle = small_bundle()
        first = tmp_path / "m1.json"
        second = tmp_path / "m2.json"
        save_model(first, bundle)
        loaded = load_model(first)
        save_model(second, loaded)
        assert first.read_bytes() == second.read_bytes()

    def test_parameters_survive_exactly(self, tmp_path):
        bundle = small_bundle()
        path = tmp_path / "m.json"
        save_model(path, bundle)
        loaded = load_model(path)
        assert loaded.params.bias == bundle.params.bias
        assert np.array_equal(loaded.params.w, bundle.params.w)
        assert np.array_equal(loaded.params.V, bundle.params.V)
        assert loaded.space == bundle.space
        assert loaded.encoding == bundle.encoding
        assert loaded.link is Link.LOGIT

    def test_bias_only_model(self, tmp_path):
        bundle = small_bundle(d=0)
        path = tmp_path / "m.json"
        save_model(path, bundle)
        assert json.loads(path.read_text(encoding="utf-8"))["V"] is None  # the file keeps its d = 0 bytes
        loaded = load_model(path).params
        assert loaded.d == 0 and loaded.V.shape == (bundle.params.n_features, 0)

    def test_digest_check(self, tmp_path):
        bundle = small_bundle()
        path = tmp_path / "m.json"
        save_model(path, bundle)
        load_model(path, expected_vocab_digest=bundle.vocab_digest)
        with pytest.raises(ModelFormatError, match="digest"):
            load_model(path, expected_vocab_digest="0" * 64)

    def test_tampered_digest_detected(self, tmp_path):
        bundle = small_bundle()
        path = tmp_path / "m.json"
        save_model(path, bundle)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["vocab_digest"] = "f" * 64
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path, expected_vocab_digest=bundle.vocab_digest)

    def test_version_mismatch_rejected(self, tmp_path):
        bundle = small_bundle()
        path = tmp_path / "m.json"
        save_model(path, bundle)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["version"] = 99
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    @pytest.mark.parametrize("d", [0, 2])
    def test_d_that_disagrees_with_the_factor_columns_rejected(self, tmp_path, d):
        path = tmp_path / "m.json"
        save_model(path, small_bundle(d))
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["d"] = 7
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError, match=f"d 7 != factor columns {d}"):
            load_model(path)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)
        path.write_text(json.dumps({"format": "ktfm-model", "version": 1}), encoding="utf-8")
        with pytest.raises(ModelFormatError):
            load_model(path)
        with pytest.raises(ModelFormatError, match="corrupt"):  # checked for a digest, none there
            load_model(path, "0" * 64)

    def test_foreign_json_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"hello": "world"}), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="not a model file"):
            load_model(path)

    def test_large_model_round_trips_quickly(self, tmp_path):
        # the big public dataset needs ~31k features; d = 20 is the largest
        # dimension in routine use
        n, d = 31138, 20
        rng = np.random.default_rng(0)
        space = FeatureSpace((("items", n),))
        bundle = ModelBundle(
            params=FMParams(0.1, rng.normal(size=n), rng.normal(size=(n, d))),
            space=space,
            link=Link.PROBIT,
            encoding=EncodingConfig(("items",)),
            vocab_digest="0" * 64,
            n_students=1,
            n_items=n,
        )
        path = tmp_path / "big.json"
        start = time.perf_counter()
        save_model(path, bundle)
        loaded = load_model(path)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        assert np.array_equal(loaded.params.V, bundle.params.V)

    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_encoding_is_stored_as_six_flags(self, tmp_path, preset):
        config = preset_encoding(preset, [("tutor_mode", 3)], d=int(preset == "mirtb"))  # mirtb admits only d > 0
        space = config.feature_space(2, 3, 4)
        bundle = ModelBundle(FMParams(0.0, np.zeros(space.width)), space, Link.LOGIT, config, "0" * 64, 2, 3)
        path = tmp_path / "m.json"
        save_model(path, bundle)
        payload = json.loads(path.read_text(encoding="utf-8"))
        flags = ("users", "items", "skills", "wins", "fails", "attempts")
        assert set(payload["encoding"]) == {f"use_{b}" for b in flags} | {"extra_columns"}
        assert [b for b in flags if payload["encoding"][f"use_{b}"]] == list(config.blocks)
        assert load_model(path).encoding == config
        del payload["encoding"]["use_wins"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ModelFormatError, match="use_wins"):
            load_model(path)


class TestManifest:
    def test_manifest_records_inputs_and_digests(self, tmp_path):
        data = tmp_path / "in.csv"
        data.write_text("abc", encoding="utf-8")
        out = tmp_path / "manifest.json"
        write_manifest(out, "train", {"seed": 1, "preset": "irt"}, {"data": str(data)})
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["command"] == "train"
        assert payload["options"]["seed"] == 1
        assert len(payload["inputs"]["data"]) == 64
        assert "created_at" in payload

    def test_config_digest_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_manifest(a, "cv", {"x": 1, "y": "z"}, {})
        write_manifest(b, "cv", {"y": "z", "x": 1}, {})
        da = json.loads(a.read_text(encoding="utf-8"))["config_digest"]
        db = json.loads(b.read_text(encoding="utf-8"))["config_digest"]
        assert da == db


class TestWriters:
    def test_table_cells(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [[0, "é,x", 0.1, None], [12, "b", np.float64(1 / 3), 1e-20]]
        write_table(path, ["row", "name", "p", "auc"], rows)
        assert path.read_bytes() == (
            'row,name,p,auc\n0,"é,x",0.1,\n12,b,0.3333333333333333,1e-20\n'.encode("utf-8")
        )

    def test_table_without_header(self, tmp_path):
        path = tmp_path / "q.csv"
        write_table(path, None, np.array([[0, 1], [1, 0]], dtype=np.int8).tolist())
        assert path.read_bytes() == b"0,1\n1,0\n"

    def test_json_is_compact_sorted_and_ends_with_a_newline(self, tmp_path):
        path = tmp_path / "a.json"
        write_json(path, {"b": [1, 0.5], "a": "é", "c": Path("x")})
        assert path.read_bytes() == b'{"a":"\\u00e9","b":[1,0.5],"c":"x"}\n'

    def test_indented_json(self, tmp_path):
        path = tmp_path / "a.json"
        write_json(path, {"b": [1], "a": None}, indent=2)
        assert path.read_bytes() == b'{\n  "a": null,\n  "b": [\n    1\n  ]\n}\n'
