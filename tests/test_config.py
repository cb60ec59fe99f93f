import dataclasses
import re
from collections import Counter

import pytest

import evograph as eg
from evograph import config
from evograph.config import RunSpec, config_text, load_config, parse_config_text
from evograph.errors import ConfigError

MINIMAL = "format_version=1\ndataset=somewhere\n"

# config_text of a RunSpec that names only the dataset and the detector
DEFAULT_TEXT = """\
format_version=1
mode=sequence
dataset=x
model=sage
hidden_dim=32
sgc_k=2
dropout=0.5
learning_rate=0.01
weight_decay=0.0005
epochs=200
loss_mode=auto
history_size=full
restart=warm
label_rate=1.0
label_seed=0
detector={detector}
tau_min={tau_min}
alpha=0.0
risk_reduction=false
seeds=0
pretrain_epochs=200
inference_epochs=35
"""


def test_defaults_fill_in():
    spec = parse_config_text(MINIMAL)
    assert spec.mode == "sequence"
    assert spec.experiment.model == "sage"
    assert spec.experiment.history_size is eg.FULL
    assert spec.experiment.seeds == (0,)
    assert spec.experiment.detector is None


@pytest.mark.parametrize("detector, tau_min", [("none", "0.75"), ("doc", "0.5"), ("gdoc", "0.75")])
def test_default_config_text_pinned(detector, tau_min):
    text = config_text(RunSpec({"dataset": "x", "detector": detector}).snapshot())
    assert text == DEFAULT_TEXT.format(detector=detector, tau_min=tau_min)


def test_every_library_field_has_one_config_key():
    # a new ExperimentConfig or DetectorConfig field with no config key fails here
    rows = [row for row in config._KEYS.values() if not isinstance(row, str)]
    reached = Counter((row.owner, row.name) for row in rows)
    fields = {(cls, f.name) for cls in (eg.ExperimentConfig, eg.DetectorConfig) for f in dataclasses.fields(cls)}
    # ExperimentConfig.detector is the DetectorConfig that the detector keys build
    assert set(reached) == fields - {(eg.ExperimentConfig, "detector")}
    assert set(reached.values()) == {1}
    assert list(config.DETECTOR_KEYS) == ["detector", "tau_min", "alpha", "risk_reduction"]


def test_snapshot_round_trips():
    spec = parse_config_text(MINIMAL + "seeds=3,4\nhistory_size=2\nrestart=cold\ndetector=doc\ntau_min=0.5\n")
    text = config_text(spec.snapshot())
    again = parse_config_text(text)
    assert again.snapshot() == spec.snapshot()
    assert again.experiment == spec.experiment


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="no_such_key"):
        parse_config_text(MINIMAL + "no_such_key=1\n")


def test_field_errors_name_the_field():
    with pytest.raises(ConfigError, match="learning_rate"):
        parse_config_text(MINIMAL + "learning_rate=-1\n")
    with pytest.raises(ConfigError, match="label_rate"):
        parse_config_text(MINIMAL + "label_rate=2\n")
    with pytest.raises(ConfigError, match="history_size"):
        parse_config_text(MINIMAL + "history_size=0\n")
    with pytest.raises(ConfigError, match="seeds"):
        parse_config_text(MINIMAL + "seeds=\n")
    with pytest.raises(ConfigError, match="mode"):
        parse_config_text(MINIMAL + "mode=weird\n")


def test_dataset_required():
    with pytest.raises(ConfigError, match="dataset"):
        parse_config_text("format_version=1\n")


def test_detector_block():
    spec = parse_config_text(
        MINIMAL + "detector=gdoc\ntau_min=0.7\nalpha=2.5\nrisk_reduction=true\n"
    )
    det = spec.experiment.detector
    assert det.variant == eg.GDOC
    assert det.tau_min == 0.7
    assert det.alpha == 2.5
    assert det.use_risk_reduction


def test_detector_variant_defaults():
    # gdoc keeps the 0.75 default, plain doc drops to the inflection point
    assert parse_config_text(MINIMAL + "detector=gdoc\n").experiment.detector.tau_min == 0.75
    assert parse_config_text(MINIMAL + "detector=doc\n").experiment.detector.tau_min == 0.5
    explicit = parse_config_text(MINIMAL + "detector=doc\ntau_min=0.9\n")
    assert explicit.experiment.detector.tau_min == 0.9
    # the snapshot a manifest records
    for detector, tau_min in [("none", "0.75"), ("doc", "0.5"), ("gdoc", "0.75")]:
        spec = parse_config_text(MINIMAL + f"detector={detector}\n")
        assert spec.snapshot()["tau_min"] == tau_min


def test_comments_and_blank_lines_ignored():
    spec = parse_config_text("# comment\n\n" + MINIMAL + "# another\nepochs=7\n")
    assert spec.experiment.epochs == 7


def test_syntax_error_names_file_and_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# header\n" + MINIMAL + "\nepochs 7\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:5: expected key=value, got 'epochs 7'$"):
        load_config(path)
    with pytest.raises(ConfigError, match="^<config>:1: expected key=value"):
        parse_config_text("epochs 7\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="nope.cfg: cannot read"):
        load_config(tmp_path / "nope.cfg")


def test_auto_loss_mode_resolution():
    base = parse_config_text(MINIMAL).experiment
    assert base.effective_loss_mode() == eg.CATEGORICAL
    doc = parse_config_text(MINIMAL + "detector=doc\n").experiment
    assert doc.effective_loss_mode() == eg.BCE
    gdoc = parse_config_text(MINIMAL + "detector=gdoc\n").experiment
    assert gdoc.effective_loss_mode() == eg.WEIGHTED_BCE
    forced = parse_config_text(MINIMAL + "detector=gdoc\nloss_mode=bce\n").experiment
    assert forced.effective_loss_mode() == eg.BCE
