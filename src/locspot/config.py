"""Declarative pipeline configuration for the CLI.

A config file is a JSON object:

    {
      "gazetteers": [{"path": "chennai.json", "format": "generic_json"}],
      "bbox": [12.8, 80.0, 13.3, 80.4],
      "assets": {"tweet_stopwords": "/override/stopwords.txt"},
      "spelling_correction": false,
      "max_edit_distance": 2,
      "partial_tp_credit": 0,
      "eval_mode": "standard",
      "workers": 1
    }

Relative gazetteer and asset paths resolve against the config file's
directory. Unlisted assets fall back to the packaged data files (or the
LOCSPOT_DATA directory when that environment variable is set).
spelling_correction must be a JSON boolean; a string such as "false"
is rejected rather than read as true. max_edit_distance and workers
must be JSON integers from 1 to MAX_EDIT_DISTANCE and MAX_WORKERS (2.5,
"3" and true are rejected, not rounded or converted; --workers is held
to the same bound), partial_tp_credit a finite number in [0, 1], and
bbox a list of four finite numbers ("1234" and true are rejected). A
value of the wrong shape or type raises ConfigError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from . import assets
from .errors import ConfigError
from .evaluation import MODES
from .gazetteer import FORMATS, is_finite_number

# each step of the distance doubles the shadows every spelling lookup
# makes; the paper's typos are one or two edits
MAX_EDIT_DISTANCE = 3
# each lane forks a copy of the model that turns private as it is used
MAX_WORKERS = 32


@dataclass
class GazetteerSource:
    path: Path
    format: str


@dataclass
class PipelineConfig:
    gazetteers: list[GazetteerSource] = field(default_factory=list)
    bbox: tuple[float, float, float, float] | None = None
    asset_paths: dict[str, Path] = field(default_factory=dict)
    spelling_correction: bool = False
    max_edit_distance: int = 2
    partial_tp_credit: float = 0.0
    eval_mode: str = "standard"
    workers: int = 1

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must be a JSON object")

        base = path.parent
        config = cls()

        specs = raw.get("gazetteers", [])
        if not isinstance(specs, list) or not all(
                isinstance(spec, dict) for spec in specs):
            raise ConfigError("gazetteers must be a list of "
                              '{"path": ..., "format": ...} objects')
        for spec in specs:
            fmt = spec.get("format")
            if fmt not in FORMATS:
                raise ConfigError(f"unknown gazetteer format: {fmt!r}")
            source = base / _relative_path(spec.get("path", ""), "gazetteer")
            if not source.exists():
                raise ConfigError(f"gazetteer file does not exist: {source}")
            config.gazetteers.append(GazetteerSource(source, fmt))

        bbox = raw.get("bbox")
        if bbox is not None:
            if not (isinstance(bbox, list) and len(bbox) == 4
                    and all(map(is_finite_number, bbox))):
                raise ConfigError("bbox must be [south, west, north, east] "
                                  f"as four numbers, got {bbox!r}")
            south, west, north, east = map(float, bbox)
            if not (south < north and west < east):
                raise ConfigError(f"bbox is not well-ordered: {bbox}")
            config.bbox = (south, west, north, east)

        asset_specs = raw.get("assets") or {}
        if not isinstance(asset_specs, dict):
            raise ConfigError("assets must be an object of asset key: path")
        assets.check_asset_keys(asset_specs)
        for key, value in asset_specs.items():
            asset = base / _relative_path(value, f"asset {key!r}")
            if not asset.exists():
                raise ConfigError(f"asset file does not exist: {asset}")
            config.asset_paths[key] = asset

        config.spelling_correction = raw.get("spelling_correction", False)
        if not isinstance(config.spelling_correction, bool):
            raise ConfigError("spelling_correction must be true or false, got "
                              f"{config.spelling_correction!r}")
        config.max_edit_distance = bounded_count(
            "max_edit_distance", raw.get("max_edit_distance", 2),
            MAX_EDIT_DISTANCE)
        config.partial_tp_credit = _credit(raw, "partial_tp_credit")
        config.eval_mode = raw.get("eval_mode", "standard")
        if config.eval_mode not in MODES:
            raise ConfigError(f"unknown eval_mode: {config.eval_mode!r}")
        config.workers = bounded_count(
            "workers", raw.get("workers", 1), MAX_WORKERS)
        return config

    def asset(self, key: str) -> Path:
        """Resolved path for one dictionary asset."""
        return assets.asset_path(key, self.asset_paths)


def _relative_path(value, what) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{what} path must be a string, got {value!r}")
    return value


def bounded_count(key: str, value, most: int) -> int:
    """value, if it is an int from 1 to most; else ConfigError."""
    # bool is a subclass of int, and true is not a count
    if type(value) is not int or not 1 <= value <= most:
        raise ConfigError(f"{key} must be an integer from 1 to {most}, "
                          f"got {value!r}")
    return value


def _credit(raw: dict, key: str) -> float:
    value = raw.get(key, 0.0)
    if not is_finite_number(value) or not 0 <= value <= 1:
        raise ConfigError(f"{key} must be a number in [0, 1], got {value!r}")
    return float(value)
