"""JSON interchange for candidates, partitions, poses, and reports."""
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posepartition.config import PipelineConfig, config_to_dict, dump_config, load_config
from posepartition.corpus import CorpusSpec, generate_corpus
from posepartition.detect import JointCandidate
from posepartition.errors import ConfigurationError, SchemaError
from posepartition.evaluate import EvalReport
from posepartition.infer import PersonPose, PoseSet
from posepartition.iojson import (
    candidates_from_doc,
    candidates_to_doc,
    partitions_to_doc,
    poses_from_doc,
    poses_to_doc,
    report_to_doc,
    save_json,
)
from posepartition.maps import RegressionMapSet
from posepartition.partition import Partition
from posepartition.scene import (
    PersonAnnotation,
    Scene,
    _dumps,
    _load_doc,
    dump_scene,
    load_scene,
    mpii_joint_layout,
    save_scene,
    scene_to_dict,
)


def sample_reg():
    values = np.zeros((2, 48, 48, 2), dtype=np.float32)
    values[1, 9, 14] = (0.01, -0.02)
    return RegressionMapSet(values)


def sample_candidates():
    return [
        JointCandidate(joint_id=0, position=(12, 7), score=0.93),
        JointCandidate(joint_id=1, position=(14, 9), score=0.81),
        JointCandidate(joint_id=1, position=(40, 41), score=0.64),
    ]


def sample_partitions(cands):
    z = sample_reg().norm_factor
    return [
        Partition(
            members=(cands[0], cands[1]),
            votes=((12.0, 7.0), (14 + z * float(np.float32(0.01)), 9 + z * float(np.float32(-0.02)))),
        ),
        Partition(members=(cands[2],), votes=((40.0, 41.0),)),
    ]


def sample_poses():
    return PoseSet(
        poses=(
            PersonPose(
                joints=(
                    JointCandidate(joint_id=0, position=(12, 7), score=0.93),
                    None,
                    JointCandidate(joint_id=2, position=(14, 9), score=0.81),
                ),
                final_centroid=(13.0, 8.0),
            ),
            PersonPose(
                joints=(None, JointCandidate(joint_id=1, position=(40, 41), score=0.64), None),
                final_centroid=(40.0, 41.0),
            ),
        )
    )


def test_candidates_round_trip():
    cands = sample_candidates()
    doc = candidates_to_doc(cands)
    json.dumps(doc)  # must be plain JSON data
    assert candidates_from_doc(doc) == cands
    assert doc[0] == {"joint": 0, "x": 12, "y": 7, "score": 0.93}


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.builds(
            JointCandidate,
            joint_id=st.integers(0, 15),
            position=st.tuples(st.integers(0, 4095), st.integers(0, 4095)),
            score=st.floats(allow_nan=False, allow_infinity=False),
        ),
        max_size=12,
        unique_by=lambda c: (c.joint_id, c.position),
    )
)
@example([
    JointCandidate(0, (0, 0), -0.0),
    JointCandidate(0, (1, 0), 5e-324),
    JointCandidate(1, (0, 0), -2.2250738585072e-308),
    JointCandidate(1, (0, 1), 1.7976931348623157e308),
])
def test_candidates_round_trip_through_json_text(cands):
    back = candidates_from_doc(json.loads(json.dumps(candidates_to_doc(cands))))
    assert back == cands
    # repr tells -0.0 from 0.0, which == does not.
    assert repr(back) == repr(cands)


def test_candidates_schema_errors():
    with pytest.raises(SchemaError):
        candidates_from_doc({"joint": 0})
    with pytest.raises(SchemaError, match="missing"):
        candidates_from_doc([{"joint": 0, "x": 1, "y": 2}])
    with pytest.raises(SchemaError, match="integers"):
        candidates_from_doc([{"joint": 0, "x": 1.5, "y": 2, "score": 0.5}])
    with pytest.raises(SchemaError, match="score"):
        candidates_from_doc([{"joint": 0, "x": 1, "y": 2, "score": "high"}])
    # Python's json reads the NaN and Infinity tokens.
    for token in ("NaN", "Infinity", "-Infinity", "1" + "0" * 400):
        text = '[{"joint": 0, "x": 1, "y": 2, "score": %s}]' % token
        with pytest.raises(SchemaError, match=r"candidates\[0\]\.score must be a finite number"):
            candidates_from_doc(json.loads(text))


def test_candidates_reject_a_repeated_joint_and_position():
    doc = candidates_to_doc(sample_candidates())
    repeat = dict(doc[0], score=0.1)
    with pytest.raises(SchemaError, match=r"candidates\[%d\] repeats .* of candidates\[0\]" % len(doc)):
        candidates_from_doc(doc + [repeat])
    # Another joint at the same pixel, or the same joint elsewhere, is fine.
    others = [dict(doc[0], joint=doc[0]["joint"] + 1), dict(doc[0], x=doc[0]["x"] + 1)]
    assert len(candidates_from_doc(doc + others)) == len(doc) + 2


@pytest.mark.parametrize("key", ["joint", "x", "y"])
def test_candidates_reject_json_booleans(key):
    entry = {"joint": 0, "x": 1, "y": 2, "score": 0.5}
    entry[key] = True
    with pytest.raises(SchemaError, match="integers"):
        candidates_from_doc(json.loads(json.dumps([entry])))


def test_partitions_round_trip():
    cands = sample_candidates()
    parts = sample_partitions(cands)
    doc = partitions_to_doc(parts, cands)
    # Members are candidate indices; the vote points are not stored, only
    # their mean.
    (ax, ay), (bx, by) = parts[0].votes
    assert json.loads(json.dumps(doc)) == {
        "partitions": [
            {"members": [0, 1], "centroid": [(ax + bx) / 2, (ay + by) / 2]},
            {"members": [2], "centroid": [40.0, 41.0]},
        ]
    }


def test_partitions_require_known_members():
    cands = sample_candidates()
    stranger = JointCandidate(joint_id=5, position=(0, 0), score=0.5)
    part = Partition(members=(stranger,), votes=((0.0, 0.0),))
    with pytest.raises(SchemaError, match="candidate list"):
        partitions_to_doc([part], cands)


def pose_sets():
    """Pose sets with finite scores and centroids and absent (None) joints;
    slot j holds a joint-j candidate."""
    finite = st.floats(allow_nan=False, allow_infinity=False)

    def candidate(j):
        return st.builds(
            JointCandidate,
            joint_id=st.just(j),
            position=st.tuples(st.integers(0, 4095), st.integers(0, 4095)),
            score=finite,
        )

    return st.integers(1, 5).flatmap(
        lambda k: st.lists(
            st.builds(
                PersonPose,
                joints=st.tuples(*[st.none() | candidate(j) for j in range(k)]),
                final_centroid=st.tuples(finite, finite),
            ),
            max_size=4,
        )
    ).map(lambda poses: PoseSet(poses=tuple(poses)))


@settings(max_examples=60, deadline=None)
@given(poses=pose_sets(), height=st.integers(1, 4096), width=st.integers(1, 4096))
@example(poses=sample_poses(), height=64, width=48)
def test_poses_round_trip(poses, height, width):
    doc = json.loads(json.dumps(poses_to_doc(poses, height=height, width=width)))
    back, h, w = poses_from_doc(doc)
    assert back == poses
    assert (h, w) == (height, width)
    for pose in back.poses:
        for j, cand in enumerate(pose.joints):
            assert cand is None or (type(cand) is JointCandidate and cand.joint_id == j)
    for entry, pose in zip(doc["poses"], poses.poses):
        for j, est in enumerate(pose.joints):
            if est is None:
                assert entry["joints"][j] is None
                assert entry["scores"][j] is None


def test_poses_schema_errors():
    good = poses_to_doc(sample_poses(), height=64, width=48)

    def corrupt(mutate):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(SchemaError):
            poses_from_doc(doc)

    corrupt(lambda d: d.pop("height"))
    corrupt(lambda d: d.__setitem__("height", 64.0))
    corrupt(lambda d: d.__setitem__("height", True))
    corrupt(lambda d: d.__setitem__("width", False))
    corrupt(lambda d: d["poses"][0]["joints"].__setitem__(0, [True, 2]))
    corrupt(lambda d: d["poses"][0].pop("centroid"))
    corrupt(lambda d: d["poses"][0]["joints"].append([1, 2]))
    corrupt(lambda d: d["poses"][0].__setitem__("scores", [None, 0.5, 0.5]))
    corrupt(lambda d: d["poses"][0]["joints"].__setitem__(0, [1.5, 2]))
    corrupt(lambda d: d["poses"][0]["centroid"].append(3))
    # Python's json reads the NaN and Infinity tokens; a NaN score has no
    # place in the score order that average precision sweeps.
    for token in ("NaN", "Infinity", "-Infinity", "1" + "0" * 400):
        for field, match in (
            ("scores", r"joints\[0\] .* finite score"),
            ("centroid", "centroid must be finite"),
        ):
            doc = json.loads(json.dumps(good))
            doc["poses"][0][field][0] = "X"
            with pytest.raises(SchemaError, match=match):
                poses_from_doc(json.loads(json.dumps(doc).replace('"X"', token)))


def test_report_doc_is_plain_json():
    conf = np.array([[1, 0], [0, 2]], dtype=np.int64)
    conf.flags.writeable = False
    report = EvalReport(
        per_joint_ap=(100.0, None),
        total_ap=100.0,
        count_confusion=conf,
        count_mse=0.0,
        joint_names=("neck", "torso"),
    )
    doc = report_to_doc(report)
    text = json.dumps(doc)
    assert json.loads(text) == {
        "joint_names": ["neck", "torso"],
        "per_joint_ap": [100.0, None],
        "total_ap": 100.0,
        "count_confusion": [[1, 0], [0, 2]],
        "count_mse": 0.0,
    }


def test_save_and_load_json(tmp_path):
    path = tmp_path / "doc.json"
    save_json({"a": [1, 2]}, path)
    assert json.loads(path.read_text(encoding="utf-8")) == {"a": [1, 2]}
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    with pytest.raises(SchemaError, match="bad.json"):
        _load_doc(bad, lambda doc: doc)


# --- the encoder: json.dumps(doc, indent=2) text ------------------------------


class _Float(float):
    """json spells a float subclass by float.__repr__, not by its own repr."""

    def __repr__(self):
        return "_Float()"


class _Int(int):
    def __repr__(self):
        return "_Int()"


_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-7, 0.1, float(2**70)]
_EDGE_STRINGS = ["", '"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "caf\u00e9", "\u2028", "\U0001f600", "[{,:}]"]
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([0, -1, 2**63, 2**70, -(2**70)]),
    st.floats(),
    st.sampled_from(_EDGE_FLOATS),
    st.text(),
    st.sampled_from(_EDGE_STRINGS),
    st.floats().map(_Float),
    st.floats().map(np.float64),
    st.integers().map(_Int),
)
_keys = st.one_of(
    st.text(), st.sampled_from(_EDGE_STRINGS), st.integers(), st.floats(), st.sampled_from(_EDGE_FLOATS),
    st.booleans(), st.none(), st.floats().map(_Float), st.integers().map(_Int),
)
_docs = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple), st.dictionaries(_keys, inner, max_size=4)
    ),
    max_leaves=24,
)


def _nest(doc, depth: int):
    """doc under depth alternating list and dict levels."""
    for level in range(depth):
        doc = [doc, level] if level % 2 else {"level": doc, str(level): ()}
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=st.one_of(_docs, st.builds(_nest, _docs, st.integers(65, 90))))
def test_the_encoder_writes_json_dumps_indent_text(doc):
    assert _dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "doc", [np.float32(1.0), np.int64(3), object(), {1, 2}, {(1, 2): 0}, [b"x"], {"a": {frozenset(): 1}}],
    ids=["float32", "int64", "object", "set", "tuple key", "bytes", "frozenset key"],
)
def test_the_encoder_rejects_what_json_rejects(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError):
        _dumps(doc)


def test_scene_config_and_document_files_hold_json_dumps_text(tmp_path):
    def expected(doc) -> bytes:
        return (json.dumps(doc, indent=2) + "\n").encode("ascii")

    for scene in generate_corpus(CorpusSpec(num_scenes=24), seed=1):
        assert dump_scene(scene) == json.dumps(scene_to_dict(scene), indent=2)
    save_scene(scene, tmp_path / "scene.json")
    assert (tmp_path / "scene.json").read_bytes() == expected(scene_to_dict(scene))
    assert dump_config(PipelineConfig()) == json.dumps(config_to_dict(PipelineConfig()), indent=2)
    doc = {"name": "caf\u00e9 \U0001f600", "poses": poses_to_doc(sample_poses(), 64, 48), "nan": math.nan}
    save_json(doc, tmp_path / "doc.json")
    assert (tmp_path / "doc.json").read_bytes() == expected(doc)  # ASCII, "\n" line ends


# --- every document check, message text pinned --------------------------------

_DROP = object()


def _pinned_scene_doc() -> dict:
    persons = tuple(
        PersonAnnotation(joints=tuple((10.0 + j, 5.0 + 20 * p) for j in range(16)))
        for p in range(2)
    )
    return scene_to_dict(Scene(64, 64, mpii_joint_layout(), persons))


# kind -> (file reader, valid document, error class)
_READERS = {
    "scene": (load_scene, _pinned_scene_doc, SchemaError),
    "config": (load_config, lambda: {"joint_spec": _pinned_scene_doc()["joint_spec"]}, ConfigurationError),
    "poses": (
        lambda path: _load_doc(path, poses_from_doc),
        lambda: poses_to_doc(sample_poses(), height=64, width=48),
        SchemaError,
    ),
    "candidates": (
        lambda path: _load_doc(path, candidates_from_doc),
        lambda: candidates_to_doc(sample_candidates()),
        SchemaError,
    ),
}


@pytest.mark.parametrize(
    "kind, where, value, message",
    [
        ("scene", (), [], "scene document must be a JSON object"),
        ("scene", ("height",), _DROP, "scene document is missing 'height'"),
        ("scene", ("persons",), _DROP, "scene document is missing 'persons'"),
        ("scene", ("joint_spec",), {}, "joint_spec must be a list"),
        ("scene", ("joint_spec", 2), 5, "joint_spec[2] must be an object"),
        ("scene", ("joint_spec", 1, "rank"), _DROP, "joint_spec[1] is missing 'rank'"),
        ("scene", ("joint_spec", 3, "id"), 1.0, "joint_spec[3].id must be an integer"),
        ("scene", ("joint_spec", 0, "rank"), True, "joint_spec[0].rank must be an integer"),
        ("scene", ("joint_spec", 4, "name"), 7, "joint_spec[4].name must be a string"),
        (
            "scene", ("joint_spec", 5, "name"), "neck",
            "invalid joint_spec: joint names must be unique, 'neck' repeats",
        ),
        (
            "scene", ("joint_spec", 8, "rank"), 1,
            "invalid joint_spec: inference ranks must be a permutation of 0..K-1",
        ),
        ("scene", ("persons",), {}, "persons must be a list"),
        ("scene", ("persons", 1), [], "persons[1] must have joints"),
        ("scene", ("persons", 1, "joints"), _DROP, "persons[1] must have joints"),
        ("scene", ("persons", 0, "joints"), "x", "persons[0].joints must be a list"),
        ("scene", ("persons", 1, "joints", 2), [1], "persons[1].joints[2] must be a [x, y] number pair"),
        ("scene", ("persons", 0, "joints", 3), [1, True], "persons[0].joints[3] must be a [x, y] number pair"),
        ("scene", ("persons", 0, "joints", 4), {"x": 1}, "persons[0].joints[4] must be a [x, y] number pair"),
        ("scene", ("persons", 1, "joints", 7), [1, "a"], "persons[1].joints[7] must be a [x, y] number pair"),
        ("scene", ("persons", 0, "joints", 1), [10**400, 3], "persons[0].joints[1] is too large"),
        ("scene", ("persons", 1, "joints", 5), [2, -(10**400)], "persons[1].joints[5] is too large"),
        ("scene", ("persons", 1, "joints", 6), [64, 3], "invalid scene: person 1 joint 6 at (64, 3) is outside the canvas"),
        ("config", ("joint_spec", 0, "id"), "x", "joint_spec[0].id must be an integer"),
        (
            "config", ("joint_spec", 2, "name"), "thorax",
            "invalid joint_spec: joint names must be unique, 'thorax' repeats",
        ),
        ("poses", (), [], "poses document must be an object"),
        ("poses", ("width",), _DROP, "poses document is missing 'width'"),
        ("poses", ("height",), 64.0, "height and width must be integers"),
        ("poses", ("poses",), {}, "'poses' must be a list"),
        ("poses", ("poses", 1), 3, "poses[1] must be an object"),
        ("poses", ("poses", 0, "scores"), _DROP, "poses[0] is missing 'scores'"),
        ("poses", ("poses", 1, "joints"), [None], "poses[1] joints and scores must be lists of equal length"),
        ("poses", ("poses", 0, "scores", 1), 0.5, "poses[0].scores[1] must be null for an absent joint"),
        (
            "poses", ("poses", 0, "joints", 2), [1.5, 2],
            "poses[0].joints[2] must be [x, y] integers with a finite score",
        ),
        (
            "poses", ("poses", 1, "scores", 1), float("nan"),
            "poses[1].joints[1] must be [x, y] integers with a finite score",
        ),
        ("poses", ("poses", 1, "centroid"), [1], "poses[1].centroid must be finite [x, y]"),
        ("poses", ("poses", 0, "centroid"), [1, float("inf")], "poses[0].centroid must be finite [x, y]"),
        ("candidates", (), {}, "candidates document must be a list"),
        ("candidates", (1,), 3, "candidates[1] must be an object"),
        ("candidates", (0, "y"), _DROP, "candidates[0] is missing 'y'"),
        ("candidates", (2, "x"), 1.5, "candidates[2] joint and position must be integers"),
        ("candidates", (0, "score"), "a", "candidates[0].score must be a finite number"),
    ],
)
def test_every_document_check_names_its_file(tmp_path, kind, where, value, message):
    read, valid, error = _READERS[kind]
    doc = valid()
    path = tmp_path / ("%s.json" % kind)
    path.write_text(json.dumps(doc))
    read(path)  # the document is valid before the edit
    if not where:
        doc = value
    else:
        *parents, last = where
        target = doc
        for key in parents:
            target = target[key]
        if value is _DROP:
            del target[last]
        else:
            target[last] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(error) as info:
        read(path)
    assert str(info.value) == "%s: %s" % (path, message)
