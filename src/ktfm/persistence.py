"""Model files and run manifests.

A model file is versioned JSON carrying the link, the feature-space layout,
the encoding that produced it, all parameters, and a digest of the id
vocabulary; loading against a different vocabulary is refused so that
predictions can never silently use a drifted column layout.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .encoding import BLOCK_ORDER, EncodingConfig
from .model import FMParams, Link
from .sparse import FeatureSpace

MODEL_FORMAT = "ktfm-model"
MODEL_VERSION = 1


class ModelFormatError(ValueError):
    """Unreadable, wrong-version, or digest-mismatched model file."""


@dataclass(frozen=True)
class ModelBundle:
    """Everything needed to score new raw data with a trained model."""

    params: FMParams
    space: FeatureSpace
    link: Link
    encoding: EncodingConfig
    vocab_digest: str
    n_students: int
    n_items: int


def save_model(path, bundle: ModelBundle) -> None:
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "link": bundle.link.value,
        "d": bundle.params.d,
        "bias": bundle.params.bias,
        "w": bundle.params.w.tolist(),
        "V": bundle.params.V.tolist() if bundle.params.d else None,
        "feature_space": [list(b) for b in bundle.space.blocks],
        "encoding": {
            **{f"use_{b}": b in bundle.encoding.blocks for b in BLOCK_ORDER},
            "extra_columns": [list(c) for c in bundle.encoding.extra_columns],
        },
        "n_students": bundle.n_students,
        "n_items": bundle.n_items,
        "vocab_digest": bundle.vocab_digest,
    }
    # one dumps string: json.dump to a file always runs the pure-Python encoder
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def load_model(path, expected_vocab_digest: str | None = None) -> ModelBundle:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ModelFormatError(f"{path}: not a model file")
    if payload.get("version") != MODEL_VERSION:
        raise ModelFormatError(
            f"{path}: model version {payload.get('version')} not supported "
            f"(expected {MODEL_VERSION})"
        )
    try:
        params = FMParams(
            payload["bias"],
            np.array(payload["w"], dtype=np.float64),
            None if payload["V"] is None else np.array(payload["V"], dtype=np.float64),
        )
        space = FeatureSpace(tuple((n, w) for n, w in payload["feature_space"]))
        enc = payload["encoding"]
        encoding = EncodingConfig(
            tuple(b for b in BLOCK_ORDER if enc[f"use_{b}"]),
            tuple((n, c) for n, c in enc["extra_columns"]),
        )
        bundle = ModelBundle(
            params=params,
            space=space,
            link=Link(payload["link"]),
            encoding=encoding,
            vocab_digest=payload["vocab_digest"],
            n_students=payload["n_students"],
            n_items=payload["n_items"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: corrupt model file ({exc})") from None
    if expected_vocab_digest is not None and bundle.vocab_digest != expected_vocab_digest:
        raise ModelFormatError(
            f"{path}: vocabulary digest mismatch; the model was trained with a "
            "different id mapping"
        )
    if bundle.space.width != params.n_features:
        raise ModelFormatError(
            f"{path}: layout width {bundle.space.width} != parameter count "
            f"{params.n_features}"
        )
    if payload.get("d") != params.d:
        raise ModelFormatError(f"{path}: d {payload.get('d')} != factor columns {params.d}")
    return bundle


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def config_digest(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":"), default=str).encode()
    ).hexdigest()


def write_manifest(path, command: str, options: dict, inputs: dict[str, str]) -> None:
    """Record what produced a run's outputs; timestamps are the only
    non-reproducible field."""
    from . import __version__

    payload = {
        "tool": "ktfm",
        "version": __version__,
        "command": command,
        "options": {k: v for k, v in sorted(options.items())},
        "config_digest": config_digest(options),
        "inputs": {name: file_digest(p) for name, p in sorted(inputs.items()) if p},
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=str)
        fh.write("\n")
