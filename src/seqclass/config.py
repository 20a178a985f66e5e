"""Experiment configuration: the dataclass, its flat key = value file and its checks.

Every key is also a `seqclass run` flag. This module does not import
scipy, so the CLI can build its parser without loading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import InvalidConfig, IoFailure
from .ingest import CLASS_LEVELS

MODELS = ("majority", "nb", "lr", "ridge", "nn")

ENCODING_KMERS = "kmers"
ENCODING_OHE = "ohe"
ENCODINGS = (ENCODING_KMERS, ENCODING_OHE)


@dataclass
class ExperimentConfig:
    # inputs: either a prebuilt corpus file or fasta+metadata
    fasta: str | None = None
    metadata: str | None = None
    corpus: str | None = None
    # task
    class_level: str = "country"
    encoding: str = ENCODING_KMERS
    k: int = 3
    expected_len: int | None = None
    l2_normalize: bool = False
    # random Fourier features
    use_rff: bool = False
    rff_dim: int = 1000
    rff_gamma: float | None = None  # None -> 1/feature_dim, the nominal width 21^k or 21*L
    rff_seed: int = 0
    # model and hyperparameters
    model: str = "majority"
    lr_l2_lambda: float = 1e-4
    lr_max_iters: int = 1000
    lr_tol: float = 1e-6
    ridge_alpha: float = 1.0
    nn_hidden_width: int | None = None
    nn_batch_size: int = 100
    nn_epochs: int = 10
    nn_learning_rate: float = 0.001
    nn_seed: int = 0
    # split and protocol
    train_fraction: float = 0.10
    stratified: bool = True
    split_seed: int = 0
    runs: int = 5
    parallel_runs: bool = False
    workers: int = 1
    output_dir: str | None = None

    def validate(self) -> None:
        for key, kind in _ANNOTATIONS.items():
            value = getattr(self, key)
            if kind.startswith("float") and value is not None and not math.isfinite(value):
                raise InvalidConfig(f"config key {key!r} must be finite, got {value}")
        if self.class_level not in CLASS_LEVELS:
            raise InvalidConfig(f"class_level must be one of {CLASS_LEVELS}")
        if self.encoding not in ENCODINGS:
            raise InvalidConfig(f"encoding must be 'kmers' or 'ohe', got {self.encoding!r}")
        if self.model not in MODELS:
            raise InvalidConfig(f"model must be one of {MODELS}")
        if self.runs < 1:
            raise InvalidConfig("runs must be >= 1")
        if self.workers < 1:
            raise InvalidConfig("workers must be >= 1")
        if not 0.0 < self.train_fraction < 1.0:
            raise InvalidConfig("train_fraction must be in (0,1)")
        if self.use_rff and self.rff_dim < 1:
            raise InvalidConfig("rff_dim must be >= 1")
        # a negative penalty leaves lr's objective unbounded below; a negative tol is never met
        if not self.lr_l2_lambda >= 0.0:
            raise InvalidConfig(f"lr_l2_lambda must be >= 0, got {self.lr_l2_lambda}")
        if not self.lr_tol >= 0.0:
            raise InvalidConfig(f"lr_tol must be >= 0, got {self.lr_tol}")
        if self.lr_max_iters < 1:  # would return the unfitted zero-weight model
            raise InvalidConfig(f"lr_max_iters must be >= 1, got {self.lr_max_iters}")
        for key in ("split_seed", "rff_seed", "nn_seed"):  # numpy rejects negative seeds
            if getattr(self, key) < 0:
                raise InvalidConfig(f"{key} must be >= 0, got {getattr(self, key)}")


# each key's annotation as written, e.g. "int" or "float | None"
_ANNOTATIONS = {f.name: f.type for f in fields(ExperimentConfig)}


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


_PARSERS = {"bool": _parse_bool, "int": int, "float": float, "str": str}


def parse_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` lines; '#' starts a comment."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is not data
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"cannot read config {path!r}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfig(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def config_from_mapping(mapping: dict[str, str]) -> ExperimentConfig:
    """Build a config from string key/values (file or CLI overrides)."""
    kwargs: dict = {}
    for key, raw in mapping.items():
        if key not in _ANNOTATIONS:
            raise InvalidConfig(f"unknown config key {key!r}")
        kind, _, optional = _ANNOTATIONS[key].partition(" | ")
        if raw is None or raw == "" or raw.lower() == "none":
            if not optional:
                raise InvalidConfig(f"config key {key!r} cannot be empty")
            kwargs[key] = None
            continue
        try:
            kwargs[key] = _PARSERS[kind](raw)
        except ValueError:
            shown = "a boolean" if kind == "bool" else kind
            raise InvalidConfig(f"config key {key!r} expects {shown}, got {raw!r}") from None
    config = ExperimentConfig(**kwargs)
    config.validate()
    return config
