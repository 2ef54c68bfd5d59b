import json

import pytest

from youngquiver.config import (
    BoundExceededError,
    Bounds,
    DEFAULT_BOUNDS,
    ENV_CONFIG_PATH,
    UsageError,
    check_bound,
    load_bounds,
)


def test_defaults_without_env(monkeypatch):
    monkeypatch.delenv(ENV_CONFIG_PATH, raising=False)
    assert load_bounds() == DEFAULT_BOUNDS


def test_load_from_file(tmp_path):
    config = tmp_path / "bounds.json"
    config.write_text(json.dumps({"max_group_degree": 7, "max_qdual_size": 9}))
    bounds = load_bounds(str(config))
    assert bounds.max_group_degree == 7
    assert bounds.max_qdual_size == 9
    assert bounds.max_partition_size == DEFAULT_BOUNDS.max_partition_size


def test_env_var_points_at_file(tmp_path, monkeypatch):
    config = tmp_path / "bounds.json"
    config.write_text(json.dumps({"max_induction_degree": 8}))
    monkeypatch.setenv(ENV_CONFIG_PATH, str(config))
    assert load_bounds().max_induction_degree == 8


def test_unknown_keys_rejected(tmp_path):
    config = tmp_path / "bounds.json"
    config.write_text(json.dumps({"max_banana": 1}))
    with pytest.raises(UsageError, match="max_banana"):
        load_bounds(str(config))


def test_retired_tableau_bound_is_unknown(tmp_path, monkeypatch, capsys):
    from youngquiver.cli import main

    config = tmp_path / "bounds.json"
    config.write_text(json.dumps({"max_tableau_size": 9}))
    monkeypatch.setenv(ENV_CONFIG_PATH, str(config))
    assert main(["verify", "signs", "--max-size", "2"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: unknown bound names in {config}: ['max_tableau_size']\n"


def test_retired_resolution_depth_bound_is_unknown(tmp_path, monkeypatch, capsys):
    # the resolution is bounded by |xi| + depth <= max_partition_size alone
    from youngquiver.cli import main

    assert Bounds._fields == (
        "max_partition_size",
        "max_group_degree",
        "max_direct_hom_degree",
        "max_induction_degree",
        "max_qdual_size",
    )
    config = tmp_path / "bounds.json"
    config.write_text(json.dumps({"max_resolution_depth": 12}))
    monkeypatch.setenv(ENV_CONFIG_PATH, str(config))
    assert main(["verify", "resolution", "--xi", "1", "--depth", "2"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: unknown bound names in {config}: ['max_resolution_depth']\n"


@pytest.mark.parametrize(
    "payload, match",
    [
        ({"max_group_degree": "7"}, "max_group_degree"),
        ({"max_group_degree": True}, "max_group_degree"),
        ({"max_group_degree": 7.0}, "max_group_degree"),
        ({"max_group_degree": None}, "max_group_degree"),
        ({"max_group_degree": -1}, "max_group_degree"),
        (7, "JSON object"),
    ],
)
def test_malformed_config_rejected(tmp_path, payload, match):
    config = tmp_path / "bounds.json"
    config.write_text(json.dumps(payload))
    with pytest.raises(UsageError, match=match):
        load_bounds(str(config))


def test_non_integer_value_is_cli_usage_error(tmp_path, monkeypatch, capsys):
    from youngquiver.cli import main

    config = tmp_path / "bounds.json"
    config.write_text(json.dumps({"max_group_degree": "7"}))
    monkeypatch.setenv(ENV_CONFIG_PATH, str(config))
    assert main(["verify", "idempotents", "--n", "2"]) == 2
    assert "max_group_degree" in capsys.readouterr().err


def test_negative_bound_is_cli_usage_error(tmp_path, monkeypatch, capsys):
    from youngquiver.cli import main

    config = tmp_path / "bounds.json"
    config.write_text(json.dumps({"max_qdual_size": -3}))
    monkeypatch.setenv(ENV_CONFIG_PATH, str(config))
    assert main(["verify", "qdual", "--max-size", "0"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: bound max_qdual_size in {config} must be non-negative, got -3\n"


def test_check_bound():
    check_bound(5, 5, "thing")
    assert issubclass(BoundExceededError, UsageError)
    with pytest.raises(BoundExceededError, match="exceeds"):
        check_bound(6, 5, "thing")


def test_bounds_immutable():
    with pytest.raises(AttributeError):
        DEFAULT_BOUNDS.max_group_degree = 10


def test_override_threads_through_operations():
    # tighter bounds propagate into operations that accept them
    from youngquiver.partitions import partitions_of

    with pytest.raises(BoundExceededError):
        partitions_of(5, Bounds(max_partition_size=4))
