import json

import pytest

from locspot.config import PipelineConfig
from locspot.errors import ConfigError


def write_config(tmp_path, body):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(body), encoding="utf-8")
    return path


def test_defaults(tmp_path):
    config = PipelineConfig.load(write_config(tmp_path, {}))
    assert config.workers == 1
    assert config.eval_mode == "standard"
    assert config.partial_tp_credit == 0.0
    assert not config.spelling_correction
    assert config.asset("tweet_stopwords").exists()


def test_gazetteer_paths_resolve_relative(tmp_path):
    (tmp_path / "gaz.json").write_text('[{"id": "1", "name": "X"}]')
    config = PipelineConfig.load(write_config(tmp_path, {
        "gazetteers": [{"path": "gaz.json", "format": "generic_json"}]}))
    assert config.gazetteers[0].path == tmp_path / "gaz.json"


def test_missing_gazetteer_rejected(tmp_path):
    with pytest.raises(ConfigError):
        PipelineConfig.load(write_config(tmp_path, {
            "gazetteers": [{"path": "absent.json",
                            "format": "generic_json"}]}))


def test_unknown_format_rejected(tmp_path):
    (tmp_path / "gaz.xml").write_text("")
    with pytest.raises(ConfigError):
        PipelineConfig.load(write_config(tmp_path, {
            "gazetteers": [{"path": "gaz.xml", "format": "xml"}]}))


def test_bbox_must_be_ordered(tmp_path):
    with pytest.raises(ConfigError):
        PipelineConfig.load(write_config(tmp_path, {
            "bbox": [13.3, 80.0, 12.8, 80.4]}))
    config = PipelineConfig.load(write_config(tmp_path, {
        "bbox": [12.8, 80.0, 13.3, 80.4]}))
    assert config.bbox == (12.8, 80.0, 13.3, 80.4)


def test_unknown_asset_key_rejected(tmp_path):
    with pytest.raises(ConfigError):
        PipelineConfig.load(write_config(tmp_path, {
            "assets": {"mystery": "x.txt"}}))


def test_asset_override(tmp_path):
    override = tmp_path / "stops.txt"
    override.write_text("custom\n")
    config = PipelineConfig.load(write_config(tmp_path, {
        "assets": {"tweet_stopwords": "stops.txt"}}))
    assert config.asset("tweet_stopwords") == override


def test_workers_must_be_positive(tmp_path):
    with pytest.raises(ConfigError):
        PipelineConfig.load(write_config(tmp_path, {"workers": 0}))


def test_bad_eval_mode_rejected(tmp_path):
    with pytest.raises(ConfigError):
        PipelineConfig.load(write_config(tmp_path, {"eval_mode": "idk"}))


def test_not_json_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("not json at all")
    with pytest.raises(ConfigError):
        PipelineConfig.load(path)


@pytest.mark.parametrize("body", [
    {"gazetteers": ["x.json"]},
    {"gazetteers": {"path": "x.json"}},
    {"gazetteers": [{"path": 3, "format": "generic_json"}]},
    {"bbox": 5},
    {"bbox": [12.8, 80.0, "north", 80.4]},
    {"bbox": [12.8, 80.0, 13.3]},
    {"bbox": "1234"},
    {"bbox": [True, False, 2, 3]},
    {"bbox": [12.8, 80.0, 13.3, "80.4"]},
    {"bbox": [-float("inf"), 80.0, 13.3, 80.4]},
    {"assets": ["tweet_stopwords"]},
    {"assets": {"tweet_stopwords": 3}},
    {"max_edit_distance": "two"},
    {"max_edit_distance": 0, "spelling_correction": True},
    {"workers": "many"},
    {"workers": None},
    {"partial_tp_credit": "half"},
    {"partial_tp_credit": [0.5]},
    {"spelling_correction": "false"},
    {"workers": 2.5},
    {"workers": "3"},
    {"workers": True},
    {"max_edit_distance": 1.9},
    {"max_edit_distance": True},
    {"partial_tp_credit": -0.5},
    {"partial_tp_credit": 1.5},
    {"partial_tp_credit": True},
    {"partial_tp_credit": float("nan")},
    {"partial_tp_credit": float("inf")},
])
def test_malformed_values_rejected(tmp_path, body):
    with pytest.raises(ConfigError):
        PipelineConfig.load(write_config(tmp_path, body))


def test_numbers_kept_as_written(tmp_path):
    config = PipelineConfig.load(write_config(tmp_path, {
        "workers": 3, "max_edit_distance": 1, "partial_tp_credit": 1}))
    assert (config.workers, config.max_edit_distance) == (3, 1)
    assert config.partial_tp_credit == 1.0
    assert isinstance(config.partial_tp_credit, float)
    config = PipelineConfig.load(write_config(tmp_path, {
        "partial_tp_credit": 0.5}))
    assert config.partial_tp_credit == 0.5
