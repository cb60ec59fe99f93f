"""Flat key=value experiment config files and the run manifest.

The config document is deliberately line-oriented and diff-friendly.  All
randomness flows from the seeds it names; a manifest written by a completed
run embeds the resolved config snapshot so the run can be reproduced
bit-exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, NamedTuple

from .dataio import read_json, read_key_values, read_text
from .errors import ConfigError, ValidationError
from .graph import FULL
from .lifelong import ExperimentConfig
from .openworld import DOC, GDOC, DetectorConfig

MODE_SEQUENCE = "sequence"
MODE_TWO_TASK = "two-task"


def _parse_bool(field: str, value: str) -> bool:
    if value.lower() in ("true", "1", "yes"):
        return True
    if value.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"{field}: expected true/false, got {value!r}")


def _parse_number(field: str, value: str, conv):
    try:
        return conv(value)
    except ValueError:
        raise ConfigError(f"{field}: cannot parse {value!r}") from None


# a value's (parse, show[, argparse options of a flag that sets it]); see _Field
_TEXT = (lambda key, text: text, str)
_INT = (lambda key, text: _parse_number(key, text, int), str)
_FLOAT = (lambda key, text: _parse_number(key, text, float), repr, {"type": float})
_BOOL = (_parse_bool, lambda value: "true" if value else "false", {"choices": ["true", "false"]})
# "none" is no detector (None), ExperimentConfig's default
_VARIANT = (
    lambda key, text: None if text == "none" else text,
    lambda value: value or "none",
    {"choices": ["none", DOC, GDOC]},
)
_HISTORY = (
    lambda key, text: FULL if text == "full" else _parse_number(key, text, int),
    lambda value: "full" if value is FULL else str(value),
)
_SEEDS = (
    lambda key, text: tuple(_parse_number(key, s.strip(), int) for s in text.split(",") if s.strip()),
    lambda seeds: ",".join(map(str, seeds)),
)


class _Field(NamedTuple):
    """The dataclass field that a config key sets.  ``parse(key, text)``
    raises a ConfigError that names the key, ``show(value)`` is the text a
    snapshot records, and ``flag`` holds a command-line flag's options."""

    owner: type  # ExperimentConfig or DetectorConfig
    name: str
    parse: Callable
    show: Callable
    flag: dict = {}


# every config key, in config_text's order: the dataclass field it sets, or,
# for a run-level key, its default text.  A field's default is its class's.
_KEYS = {
    "format_version": "1",
    "mode": MODE_SEQUENCE,
    "dataset": "",
    "model": _Field(ExperimentConfig, "model", *_TEXT),
    "hidden_dim": _Field(ExperimentConfig, "hidden_dim", *_INT),
    "sgc_k": _Field(ExperimentConfig, "sgc_k", *_INT),
    "dropout": _Field(ExperimentConfig, "dropout_rate", *_FLOAT),
    "learning_rate": _Field(ExperimentConfig, "learning_rate", *_FLOAT),
    "weight_decay": _Field(ExperimentConfig, "weight_decay", *_FLOAT),
    "epochs": _Field(ExperimentConfig, "epochs", *_INT),
    "loss_mode": _Field(ExperimentConfig, "loss_mode", *_TEXT),
    "history_size": _Field(ExperimentConfig, "history_size", *_HISTORY),
    "restart": _Field(ExperimentConfig, "restart", *_TEXT),
    "label_rate": _Field(ExperimentConfig, "label_rate", *_FLOAT),
    "label_seed": _Field(ExperimentConfig, "label_seed", *_INT),
    "detector": _Field(DetectorConfig, "variant", *_VARIANT),
    "tau_min": _Field(DetectorConfig, "tau_min", *_FLOAT),
    "alpha": _Field(DetectorConfig, "alpha", *_FLOAT),
    "risk_reduction": _Field(DetectorConfig, "use_risk_reduction", *_BOOL),
    "seeds": _Field(ExperimentConfig, "seeds", *_SEEDS),
    "pretrain_epochs": "200",
    "inference_epochs": "35",
}
_DETECTOR = _KEYS["detector"]

# the keys that choose and tune ExperimentConfig's detector
DETECTOR_KEYS = {
    key: row for key, row in _KEYS.items() if isinstance(row, _Field) and row.owner is DetectorConfig
}


def _defaults(variant) -> dict:
    """Each key's default text.  A detector field's is that of ``variant``'s
    DetectorConfig (gDOC's if it names none); the detector key's is
    ExperimentConfig's: no detector."""
    experiment = ExperimentConfig()
    detector = DetectorConfig(variant) if variant in (DOC, GDOC) else DetectorConfig()
    values = {ExperimentConfig: experiment, DetectorConfig: detector}
    text = {
        key: row.show(getattr(values[row.owner], row.name)) if isinstance(row, _Field) else row
        for key, row in _KEYS.items()
    }
    text["detector"] = _DETECTOR.show(experiment.detector and experiment.detector.variant)
    return text


class RunSpec:
    """A parsed config document: experiment config plus run-level fields."""

    def __init__(self, entries: dict):
        unknown = set(entries) - set(_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        vals = {**_defaults(entries.get("detector")), **entries}
        if vals["format_version"] != "1":
            raise ConfigError(f"format_version: unsupported {vals['format_version']!r}")
        if vals["mode"] not in (MODE_SEQUENCE, MODE_TWO_TASK):
            raise ConfigError(f"mode: expected sequence or two-task, got {vals['mode']!r}")
        if not vals["dataset"]:
            raise ConfigError("dataset: required")
        if vals["detector"] not in _DETECTOR.flag["choices"]:
            raise ConfigError(f"detector: expected none, doc, or gdoc, got {vals['detector']!r}")
        variant = _DETECTOR.parse("detector", vals["detector"])
        self.mode = vals["mode"]
        self.dataset = vals["dataset"]
        self.pretrain_epochs = _parse_number("pretrain_epochs", vals["pretrain_epochs"], int)
        self.inference_epochs = _parse_number("inference_epochs", vals["inference_epochs"], int)
        if min(self.pretrain_epochs, self.inference_epochs) < 0:
            raise ConfigError("pretrain_epochs and inference_epochs must be >= 0")

        # the fields are only parsed here, the detector's only if one is chosen;
        # their config classes check the ranges
        fields = {ExperimentConfig: {}, DetectorConfig: {}}
        for key, row in _KEYS.items():
            if isinstance(row, _Field) and (row.owner is ExperimentConfig or variant):
                fields[row.owner][row.name] = row.parse(key, vals[key])
        try:
            detector = DetectorConfig(**fields[DetectorConfig]) if variant else None
            self.experiment = ExperimentConfig(detector=detector, **fields[ExperimentConfig])
        except ValidationError as exc:
            raise ConfigError(str(exc)) from exc
        self._snapshot = vals

    def snapshot(self) -> dict:
        """The fully resolved key=value view of this run specification."""
        return dict(self._snapshot)


def parse_config_text(text: str) -> RunSpec:
    return RunSpec(read_key_values(text, "<config>", ConfigError))


def load_config(path) -> dict:
    """The config file's ``key=value`` entries, for :class:`RunSpec` to parse."""
    return read_key_values(read_text(Path(path), ConfigError), str(path), ConfigError)


def config_text(snapshot: dict) -> str:
    return "".join(f"{k}={snapshot[k]}\n" for k in _KEYS)


def write_manifest(path, *, snapshot: dict, dataset_fingerprint: str, reports: dict, summary: str, version: str) -> None:
    payload = {
        "format_version": 1,
        "tool_version": version,
        "config": snapshot,
        "dataset_fingerprint": dataset_fingerprint,
        "reports": reports,
        "summary": summary,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_manifest(path) -> dict:
    """A run manifest; its ``config`` holds ``key=value`` entries for :class:`RunSpec`."""
    p = Path(path)
    payload = read_json(p, ConfigError, ("config", "dataset_fingerprint", "reports", "summary"))
    if payload.get("format_version") != 1:
        raise ConfigError(f"{p}: unsupported format_version")
    config = payload["config"]
    if not isinstance(config, dict) or not all(isinstance(v, str) for v in config.values()):
        raise ConfigError(f"{p}: config must be an object of string values")
    if not isinstance(payload["summary"], str) or not isinstance(payload["dataset_fingerprint"], str):
        raise ConfigError(f"{p}: summary and dataset_fingerprint must be strings")
    return payload
