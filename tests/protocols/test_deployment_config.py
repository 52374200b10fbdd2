"""DeploymentConfig serialization: the shared serve/loadgen/experiments surface."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.network.election import ElectionConfig
from repro.network.topology import Bounds
from repro.protocols.deployment import CONFIG_SCHEMA_VERSION, DeploymentConfig


def test_round_trip_identity():
    config = DeploymentConfig(
        node_count=12,
        protocol="ariadne",
        bounds=Bounds(250.0, 100.0),
        radio_range=80.0,
        grid=False,
        directory_capable_fraction=0.25,
        infrastructure_nodes=3,
        forward_window=0.5,
        election=ElectionConfig(advert_interval=1.5, directory_timeout=4.0),
        seed=99,
    )
    assert DeploymentConfig.from_dict(config.to_dict()) == config


def test_to_dict_is_versioned_and_json_expressible():
    data = DeploymentConfig(node_count=2).to_dict()
    assert data["config_version"] == CONFIG_SCHEMA_VERSION
    assert json.loads(json.dumps(data)) == data  # no exotic values
    assert data["bounds"] == {"width": 500.0, "height": 500.0}


def test_partial_dict_keeps_defaults():
    config = DeploymentConfig.from_dict({"node_count": 5, "seed": 3})
    assert config.node_count == 5
    assert config.seed == 3
    assert config.protocol == "sariadne"
    assert config.election == ElectionConfig()
    assert config.bounds == Bounds(500.0, 500.0)


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown DeploymentConfig keys"):
        DeploymentConfig.from_dict({"node_cuont": 5})


def test_wrong_version_rejected():
    with pytest.raises(ValueError, match="config_version"):
        DeploymentConfig.from_dict({"config_version": CONFIG_SCHEMA_VERSION + 1})


def test_load_toml_with_deployment_table(tmp_path):
    path = tmp_path / "c.toml"
    path.write_text(
        "[deployment]\n"
        "node_count = 4\n"
        "protocol = \"sariadne\"\n"
        "[deployment.election]\n"
        "advert_interval = 0.5\n"
    )
    config = DeploymentConfig.load(path)
    assert config.node_count == 4
    assert config.election.advert_interval == 0.5
    # Unnamed election fields keep their defaults too.
    assert config.election.directory_timeout == ElectionConfig().directory_timeout


def test_load_toml_top_level_keys(tmp_path):
    path = tmp_path / "c.toml"
    path.write_text("node_count = 3\nseed = 11\n")
    config = DeploymentConfig.load(path)
    assert (config.node_count, config.seed) == (3, 11)


def test_load_json(tmp_path):
    path = tmp_path / "c.json"
    original = DeploymentConfig(node_count=6, bounds=Bounds(10.0, 20.0))
    path.write_text(json.dumps(original.to_dict()))
    assert DeploymentConfig.load(path) == original


def test_load_rejects_other_extensions(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("node_count: 3\n")
    with pytest.raises(ValueError, match=".toml or .json"):
        DeploymentConfig.load(path)


def test_experiments_share_the_config_surface(tmp_path):
    """chaos_recovery/directory_failover read the same files serve/loadgen do."""
    from repro.experiments import _resolve_deployment_config

    default = DeploymentConfig(node_count=3)
    assert _resolve_deployment_config(None, lambda: default) is default
    ready = DeploymentConfig(node_count=4)
    assert _resolve_deployment_config(ready, lambda: default) is ready
    path = tmp_path / "c.toml"
    path.write_text("[deployment]\nnode_count = 6\n")
    assert _resolve_deployment_config(path, lambda: default).node_count == 6


def test_committed_smoke_config_loads():
    """The config file the CI deployment-smoke job uses must stay valid."""
    import pathlib

    repo = pathlib.Path(__file__).resolve().parents[2]
    config = DeploymentConfig.load(repo / "configs" / "deployment_smoke.toml")
    assert config.node_count == 2
    assert config.election.advert_interval < 1.0  # fast CI timings


def test_retired_directory_shards_key_is_ignored(tmp_path):
    """Version-1 files may still name ``directory_shards``: it loads, has
    no effect, and is no longer written."""
    plain = DeploymentConfig(node_count=4)
    assert DeploymentConfig(node_count=4, directory_shards=2) == plain
    assert replace(plain, directory_shards=8) == plain
    assert "directory_shards" not in plain.to_dict()
    assert DeploymentConfig.from_dict({"node_count": 4, "directory_shards": 2}) == plain
    toml_path = tmp_path / "c.toml"
    toml_path.write_text("[deployment]\nnode_count = 4\ndirectory_shards = 2\n")
    assert DeploymentConfig.load(toml_path) == plain
    json_path = tmp_path / "c.json"
    json_path.write_text(json.dumps({**plain.to_dict(), "directory_shards": 2}))
    assert DeploymentConfig.load(json_path) == plain
