"""Pipeline configuration document parsing and validation."""
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posepartition.config import (
    PipelineConfig,
    config_from_dict,
    config_to_dict,
    dump_config,
    load_config,
)
from posepartition.errors import ConfigurationError
from posepartition.maps import _SIGMA_RANGE
from posepartition.scene import JointSpec, mpii_joint_layout


def test_defaults_round_trip():
    cfg = PipelineConfig()
    back = config_from_dict(config_to_dict(cfg))
    assert back == cfg
    assert back.tau == 0.1
    assert back.sigma == 7.0
    assert back.radius == 7.0
    assert back.nms_radius is None
    assert back.detector_params().nms_radius == 11
    assert back.link_threshold is None
    assert back.joint_layout == mpii_joint_layout()


def test_non_default_round_trip():
    cfg = PipelineConfig(
        tau=0.25,
        sigma=5.0,
        radius=6.0,
        nms_radius=2,
        link_threshold=12.5,
    )
    assert config_from_dict(config_to_dict(cfg)) == cfg


@st.composite
def valid_layouts(draw):
    """1-9 joints with ids and ranks each a drawn permutation, any distinct
    names, and entries in any order."""
    k = draw(st.integers(1, 9))
    ids, ranks = draw(st.permutations(range(k))), draw(st.permutations(range(k)))
    names = draw(st.lists(st.text(max_size=8), min_size=k, max_size=k, unique=True))
    specs = [JointSpec(ids[i], names[i], ranks[i]) for i in range(k)]
    return tuple(draw(st.permutations(specs)))


valid_configs = st.builds(
    PipelineConfig,
    tau=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    sigma=st.floats(*_SIGMA_RANGE),
    radius=st.floats(min_value=0.0, allow_infinity=False) | st.just(-0.0),
    nms_radius=st.none() | st.integers(min_value=1),
    link_threshold=st.none() | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    joint_layout=st.just(mpii_joint_layout()) | valid_layouts(),
)


@settings(max_examples=100, deadline=None)
@given(valid_configs)
@example(PipelineConfig())
@example(PipelineConfig(sigma=_SIGMA_RANGE[1], radius=-0.0, link_threshold=5e-324))
@example(PipelineConfig(tau=5e-324, sigma=_SIGMA_RANGE[1]))
def test_configs_round_trip_through_json_text(cfg):
    back = config_from_dict(json.loads(dump_config(cfg)))
    assert back == cfg
    # repr tells -0.0 from 0.0, which == does not.
    assert repr(back) == repr(cfg)


def test_dump_is_json_and_marks_auto_threshold():
    doc = json.loads(dump_config(PipelineConfig()))
    assert doc["cluster"]["link_threshold"] == "auto"
    assert doc["detector"]["nms_radius"] == "auto"
    assert doc["tau"] == 0.1
    assert config_to_dict(PipelineConfig(nms_radius=4))["detector"] == {"nms_radius": 4}


@settings(max_examples=200, deadline=None)
@given(
    sigma=st.floats(0.1, 1000.0),
    tau=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
@example(sigma=7.0, tau=0.1)
@example(sigma=0.1, tau=1.0 - 2**-53)
def test_auto_nms_radius_is_the_reach_of_a_bump_above_tau(sigma, tau):
    # A bump exp(-d^2 / sigma^2) is above tau one pixel inside the radius
    # and not above it at the radius (compared in log space, up to
    # rounding, since the bump underflows before the smallest tau); the
    # radius is never below 1.
    r = PipelineConfig(sigma=sigma, tau=tau).detector_params().nms_radius
    assert isinstance(r, int) and r >= 1
    reach_sq = -math.log(tau)
    assert ((r - 1) / sigma) ** 2 < reach_sq * (1 + 1e-9)
    assert (r / sigma) ** 2 >= reach_sq * (1 - 1e-9)


def test_auto_nms_radius_follows_sigma_and_tau_and_yields_to_an_int():
    radius = lambda **kw: PipelineConfig(**kw).detector_params().nms_radius
    assert radius() == 11  # ceil(7 * sqrt(ln 10)) = ceil(10.62)
    assert radius(sigma=3.0) == 5
    assert radius(tau=0.5) == 6
    assert radius(sigma=3.0, tau=0.5) == 3
    assert radius(sigma=1.0, tau=0.99) == 1
    assert radius(nms_radius=3) == radius(sigma=3.0, nms_radius=3) == 3
    # A radius past any canvas suppresses alike, so a huge sigma is capped.
    assert radius(sigma=_SIGMA_RANGE[1], tau=5e-324) == sys.maxsize


def test_nms_radius_loads_as_an_int_or_auto():
    cfg = config_from_dict({"detector": {"nms_radius": 3}})
    assert cfg.nms_radius == 3 and type(cfg.nms_radius) is int
    assert type(config_from_dict({"detector": {"nms_radius": 3.0}}).nms_radius) is int
    assert config_from_dict({"detector": {"nms_radius": "auto"}}).nms_radius is None
    with pytest.raises(ConfigurationError, match="detector.nms_radius must be a number or 'auto'"):
        config_from_dict({"detector": {"nms_radius": "wide"}})
    with pytest.raises(ConfigurationError, match="^tau must be a number$"):
        config_from_dict({"tau": "auto"})


def test_empty_document_means_defaults():
    assert config_from_dict({}) == PipelineConfig()


def test_unknown_keys_are_rejected():
    with pytest.raises(ConfigurationError, match="sigma_px"):
        config_from_dict({"sigma_px": 7})
    for doc, message in (
        ({"forward": {"sigma": 3, "sigmaa": 1}}, "unknown forward keys: sigmaa"),
        ({"detector": {"nms_radus": 9}}, "unknown detector keys: nms_radus"),
        ({"cluster": {"link": 5}}, "unknown cluster keys: link"),
    ):
        with pytest.raises(ConfigurationError, match=message):
            config_from_dict(doc)


def test_readme_lists_the_default_config():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    expected = config_to_dict(PipelineConfig())
    del expected["joint_spec"]
    assert json.loads(block) == expected


def test_bad_values_are_rejected():
    with pytest.raises(ConfigurationError):
        config_from_dict({"tau": "high"})
    with pytest.raises(ConfigurationError):
        config_from_dict({"forward": {"sigma": -1}})
    with pytest.raises(ConfigurationError):
        config_from_dict({"forward": "nope"})
    with pytest.raises(ConfigurationError):
        config_from_dict({"cluster": {"link_threshold": -5}})
    with pytest.raises(ConfigurationError):
        config_from_dict({"cluster": {"link_threshold": True}})
    with pytest.raises(ConfigurationError, match="integer"):
        config_from_dict({"detector": {"nms_radius": 3.5}})
    with pytest.raises(ConfigurationError, match="integer"):
        config_from_dict({"detector": {"nms_radius": float("inf")}})
    with pytest.raises(ConfigurationError):
        config_from_dict([])


def test_a_config_is_valid_once_built():
    # Validation runs on construction, so dataclasses.replace cannot return
    # an invalid config either.
    with pytest.raises(ConfigurationError, match="tau"):
        PipelineConfig(tau=1.5)
    with pytest.raises(ConfigurationError, match="nms_radius"):
        replace(PipelineConfig(), nms_radius=0)
    with pytest.raises(ConfigurationError, match="link_threshold"):
        replace(PipelineConfig(), link_threshold=-1.0)
    assert replace(PipelineConfig(), link_threshold=4.0).link_threshold == 4.0
    layout = mpii_joint_layout()
    repeated_name = layout[:-1] + (replace(layout[-1], name=layout[0].name),)
    with pytest.raises(ConfigurationError, match="joint names must be unique, 'r_ankle' repeats"):
        PipelineConfig(joint_layout=repeated_name)
    duplicate_id = layout[:-1] + (replace(layout[-1], joint_id=0),)
    with pytest.raises(ConfigurationError, match="joint ids"):
        replace(PipelineConfig(), joint_layout=duplicate_id)


@pytest.mark.parametrize(
    "doc",
    [
        {"tau": 10**400},
        {"forward": {"sigma": 10**400}},
        {"forward": {"radius": -(10**400)}},
        {"cluster": {"link_threshold": 10**400}},
    ],
)
def test_integers_beyond_float_range_are_configuration_errors(doc):
    with pytest.raises(ConfigurationError, match="too large"):
        config_from_dict(doc)


def setting_names(doc):
    """Dotted names of the settings in a config dump: every key but joint_spec."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from ("%s.%s" % (key, name) for name in value)
        elif key != "joint_spec":
            yield key


NON_DEFAULT = {
    "tau": 0.25,
    "forward.sigma": 5.5,
    "forward.radius": 6.0,
    "detector.nms_radius": 2,
    "cluster.link_threshold": 12.5,
}


def with_setting(name, value):
    *section, key = name.split(".")
    return {section[0]: {key: value}} if section else {key: value}


@pytest.mark.parametrize("name", list(setting_names(config_to_dict(PipelineConfig()))))
def test_each_setting_round_trips_and_rejects_null(name):
    # null is not "use the default": the dump never writes it, and an absent
    # entry already means the default.
    cfg = config_from_dict(with_setting(name, NON_DEFAULT[name]))
    assert cfg != PipelineConfig()
    assert config_from_dict(config_to_dict(cfg)) == cfg
    with pytest.raises(ConfigurationError, match="^%s must be a number" % name):
        config_from_dict(with_setting(name, None))


def test_default_link_threshold_is_tenth_of_diagonal():
    assert PipelineConfig().cluster_params(100.0).link_threshold == 10.0


def test_cluster_params_resolve_auto_threshold():
    auto = PipelineConfig()
    assert auto.cluster_params(100.0).link_threshold == 10.0
    fixed = PipelineConfig(link_threshold=4.0)
    assert fixed.cluster_params(100.0).link_threshold == 4.0


def test_removed_keys_are_rejected_as_unknown():
    for key, value in (("loss_alpha", 1.0), ("seed", 0)):
        with pytest.raises(ConfigurationError, match="unknown config keys: %s" % key):
            config_from_dict({key: value})


def test_weight_count_must_match_the_layout():
    # Per-joint vote weights are no longer configurable, so no count fits:
    # every "weights" list is rejected, and so is an old dump's null.
    for weights in ([1.0, 2.0], [1.0] * 16, None):
        with pytest.raises(ConfigurationError, match="unknown cluster keys: weights"):
            config_from_dict({"cluster": {"link_threshold": "auto", "weights": weights}})


def test_stage_param_accessors_share_tau():
    cfg = PipelineConfig(tau=0.2)
    assert cfg.detector_params().tau == 0.2
    assert not hasattr(cfg.forward_params(), "tau")


def test_custom_joint_spec_round_trip():
    doc = config_to_dict(PipelineConfig())
    doc["joint_spec"] = [
        {"id": 0, "name": "neck", "rank": 0},
        {"id": 1, "name": "torso", "rank": 1},
    ]
    cfg = config_from_dict(doc)
    assert len(cfg.joint_layout) == 2
    assert cfg.joint_layout[1].name == "torso"
    with pytest.raises(ConfigurationError, match="joint_spec"):
        config_from_dict({"joint_spec": [{"id": 0}]})


@pytest.mark.parametrize(
    "key, value",
    [("id", "x"), ("id", 0.5), ("id", True), ("rank", "0"), ("name", 3)],
)
def test_malformed_joint_spec_entries_are_configuration_errors(key, value):
    doc = config_to_dict(PipelineConfig())
    doc["joint_spec"][0][key] = value
    with pytest.raises(ConfigurationError, match=r"joint_spec\[0\]\.%s" % key):
        config_from_dict(doc)


def test_load_config_error_paths(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(dump_config(PipelineConfig(tau=0.3)))
    assert load_config(good).tau == 0.3

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(ConfigurationError, match="broken.json"):
        load_config(broken)

    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"tau": -2}))
    with pytest.raises(ConfigurationError, match="invalid.json"):
        load_config(invalid)
