"""Flat key=value experiment config files and the run manifest.

The config document is deliberately line-oriented and diff-friendly.  All
randomness flows from the seeds it names; a manifest written by a completed
run embeds the resolved config snapshot so the run can be reproduced
bit-exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from .dataio import read_json, read_key_values, read_text
from .errors import ConfigError, ValidationError
from .graph import FULL
from .lifelong import ExperimentConfig, LOSS_AUTO
from .openworld import DEFAULT_TAU_MIN, DOC, GDOC, DetectorConfig

MODE_SEQUENCE = "sequence"
MODE_TWO_TASK = "two-task"

_DEFAULTS = {
    "format_version": "1",
    "mode": MODE_SEQUENCE,
    "dataset": "",
    "model": "sage",
    "hidden_dim": "32",
    "sgc_k": "2",
    "dropout": "0.5",
    "learning_rate": "0.01",
    "weight_decay": "0.0005",
    "epochs": "200",
    "loss_mode": LOSS_AUTO,
    "history_size": "full",
    "restart": "warm",
    "label_rate": "1.0",
    "label_seed": "0",
    "detector": "none",
    "tau_min": repr(DEFAULT_TAU_MIN[GDOC]),
    "alpha": "0.0",
    "risk_reduction": "false",
    "seeds": "0",
    "pretrain_epochs": "200",
    "inference_epochs": "35",
}


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


class RunSpec:
    """A parsed config document: experiment config plus run-level fields."""

    def __init__(self, entries: dict):
        unknown = set(entries) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        vals = dict(_DEFAULTS)
        vals.update(entries)
        if vals["detector"] == DOC and "tau_min" not in entries:
            vals["tau_min"] = repr(DEFAULT_TAU_MIN[DOC])
        if vals["format_version"] != "1":
            raise ConfigError(f"format_version: unsupported {vals['format_version']!r}")
        if vals["mode"] not in (MODE_SEQUENCE, MODE_TWO_TASK):
            raise ConfigError(f"mode: expected sequence or two-task, got {vals['mode']!r}")
        if not vals["dataset"]:
            raise ConfigError("dataset: required")
        if vals["detector"] not in ("none", DOC, GDOC):
            raise ConfigError(f"detector: expected none, doc, or gdoc, got {vals['detector']!r}")
        self.mode = vals["mode"]
        self.dataset = vals["dataset"]
        self.pretrain_epochs = _parse_number("pretrain_epochs", vals["pretrain_epochs"], int)
        self.inference_epochs = _parse_number("inference_epochs", vals["inference_epochs"], int)
        if min(self.pretrain_epochs, self.inference_epochs) < 0:
            raise ConfigError("pretrain_epochs and inference_epochs must be >= 0")

        # the experiment fields are only parsed here; their config classes check the ranges
        history = vals["history_size"]
        history_size = FULL if history == "full" else _parse_number("history_size", history, int)
        seeds = tuple(
            _parse_number("seeds", s.strip(), int) for s in vals["seeds"].split(",") if s.strip()
        )
        try:
            detector: Optional[DetectorConfig] = None
            if vals["detector"] != "none":
                detector = DetectorConfig(
                    variant=vals["detector"],
                    tau_min=_parse_number("tau_min", vals["tau_min"], float),
                    alpha=_parse_number("alpha", vals["alpha"], float),
                    use_risk_reduction=_parse_bool("risk_reduction", vals["risk_reduction"]),
                )
            self.experiment = ExperimentConfig(
                model=vals["model"],
                hidden_dim=_parse_number("hidden_dim", vals["hidden_dim"], int),
                sgc_k=_parse_number("sgc_k", vals["sgc_k"], int),
                dropout_rate=_parse_number("dropout", vals["dropout"], float),
                learning_rate=_parse_number("learning_rate", vals["learning_rate"], float),
                weight_decay=_parse_number("weight_decay", vals["weight_decay"], float),
                epochs=_parse_number("epochs", vals["epochs"], int),
                loss_mode=vals["loss_mode"],
                history_size=history_size,
                restart=vals["restart"],
                label_rate=_parse_number("label_rate", vals["label_rate"], float),
                label_seed=_parse_number("label_seed", vals["label_seed"], int),
                detector=detector,
                seeds=seeds,
            )
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
    return "".join(f"{k}={snapshot[k]}\n" for k in _DEFAULTS)


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
