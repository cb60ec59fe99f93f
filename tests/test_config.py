import re

import pytest

import evograph as eg
from evograph.config import RunSpec, config_text, load_config, parse_config_text
from evograph.errors import ConfigError

MINIMAL = "format_version=1\ndataset=somewhere\n"


def test_defaults_fill_in():
    spec = parse_config_text(MINIMAL)
    assert spec.mode == "sequence"
    assert spec.experiment.model == "sage"
    assert spec.experiment.history_size is eg.FULL
    assert spec.experiment.seeds == (0,)
    assert spec.experiment.detector is None


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
