"""The scene and poses readers against their one-check-call-per-value
references.

The readers test each value inline for the exact types json.loads makes and
send anything else through the full checks.  The references below are the
readers as they were before that: every value goes through _require,
_is_int, _is_finite or _parse_position.  For every generated document the
reader and its reference return equal values or raise the same class with
the same message.
"""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posepartition.cli import _load_poses_for
from posepartition.detect import JointCandidate
from posepartition.errors import AnnotationError, SchemaError
from posepartition.infer import PersonPose, PoseSet
from posepartition.iojson import poses_from_doc
from posepartition.scene import (
    PersonAnnotation,
    Scene,
    _INT_MAX,
    _is_finite,
    _is_int,
    _load_doc,
    _parse_position,
    _require,
    layout_from_doc,
    scene_from_dict,
)

# --- the references -----------------------------------------------------------


def ref_poses_from_doc(doc) -> tuple[PoseSet, int, int]:
    _require(isinstance(doc, dict), "poses document must be an object")
    for key in ("height", "width", "poses"):
        _require(key in doc, "poses document is missing %r", key)
    _require(
        _is_int(doc["height"]) and _is_int(doc["width"]),
        "height and width must be integers",
    )
    _require(isinstance(doc["poses"], list), "'poses' must be a list")
    poses = []
    for pi, entry in enumerate(doc["poses"]):
        _require(isinstance(entry, dict), "poses[%d] must be an object", pi)
        for key in ("joints", "scores", "centroid"):
            _require(key in entry, "poses[%d] is missing %r", pi, key)
        joints = entry["joints"]
        scores = entry["scores"]
        _require(
            isinstance(joints, list) and isinstance(scores, list) and len(joints) == len(scores),
            "poses[%d] joints and scores must be lists of equal length", pi,
        )
        slots = []
        for j, (pos, sc) in enumerate(zip(joints, scores)):
            if pos is None:
                _require(sc is None, "poses[%d].scores[%d] must be null for an absent joint", pi, j)
                slots.append(None)
                continue
            _require(
                isinstance(pos, list) and len(pos) == 2
                and _is_int(pos[0]) and _is_int(pos[1]) and _is_finite(sc),
                "poses[%d].joints[%d] must be [x, y] integers with a finite score", pi, j,
            )
            slots.append(JointCandidate(j, (pos[0], pos[1]), float(sc)))
        cent = entry["centroid"]
        _require(
            isinstance(cent, list) and len(cent) == 2 and _is_finite(cent[0]) and _is_finite(cent[1]),
            "poses[%d].centroid must be finite [x, y]", pi,
        )
        poses.append(
            PersonPose(joints=tuple(slots), final_centroid=(float(cent[0]), float(cent[1])))
        )
    return PoseSet(poses=tuple(poses)), doc["height"], doc["width"]


def ref_scene_from_dict(doc: dict) -> Scene:
    _require(isinstance(doc, dict), "scene document must be a JSON object")
    for key in ("height", "width", "joint_spec", "persons"):
        _require(key in doc, "scene document is missing %r", key)
    layout = layout_from_doc(doc["joint_spec"])
    _require(isinstance(doc["persons"], list), "persons must be a list")
    persons = []
    for i, entry in enumerate(doc["persons"]):
        _require(isinstance(entry, dict) and "joints" in entry, "persons[%d] must have joints", i)
        _require(isinstance(entry["joints"], list), "persons[%d].joints must be a list", i)
        joints = tuple(
            None if p is None else _parse_position(p, "persons[%d].joints[%d]", i, j)
            for j, p in enumerate(entry["joints"])
        )
        persons.append(PersonAnnotation(joints))
    try:
        return Scene(
            height=doc["height"],
            width=doc["width"],
            joint_layout=layout,
            persons=tuple(persons),
        )
    except AnnotationError as exc:
        raise SchemaError("invalid scene: %s" % exc) from exc


def ref_load_doc(path, parse, error=SchemaError):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise error("%s is not valid JSON: %s" % (path, exc)) from exc
    try:
        return parse(doc)
    except error as exc:
        raise error("%s: %s" % (path, exc)) from exc


def ref_load_poses_for(path, scene: Scene) -> PoseSet:
    poses, h, w = ref_load_doc(path, ref_poses_from_doc)
    if (h, w) != (scene.height, scene.width):
        raise SchemaError(
            "%s canvas %dx%d does not match scene %dx%d" % (path, w, h, scene.width, scene.height)
        )
    for i, pose in enumerate(poses.poses):
        if len(pose.joints) != scene.num_joints:
            raise SchemaError(
                "%s pose %d has %d joint slots, scene has %d"
                % (path, i, len(pose.joints), scene.num_joints)
            )
        for j, est in enumerate(pose.joints):
            if est is not None and not (0 <= est.position[0] < w and 0 <= est.position[1] < h):
                raise SchemaError("%s pose %d joint %d lies outside the %dx%d canvas" % (path, i, j, w, h))
    return poses


def outcome(read, *args):
    """What read(*args) returns, with its repr (which tells 1 from 1.0 and
    0.0 from -0.0), or the class and message of what it raises."""
    try:
        value = read(*args)
        return value, repr(value)
    except Exception as exc:  # noqa: BLE001 - any escape must match the reference
        return type(exc), str(exc)


# --- the generated documents ---------------------------------------------------


class IntSub(int):
    pass


class FloatSub(float):
    pass


class ListSub(list):
    pass


H, W, K = 24, 32, 4  # canvas and joint slots of the documents below


def _small_layout_doc():
    """A K-joint layout document (ids and ranks 0..K-1)."""
    return [{"id": j, "name": "j%d" % j, "rank": (j + 1) % K} for j in range(K)]


BIG = [10**400, -(10**400), 2**1024, _INT_MAX, _INT_MAX + 1, -_INT_MAX - 1, 2**70]
ODD_VALUES = [
    True, False, math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, -1, W, 2.5,
    np.int64(3), np.int32(-1), np.float64(2.5), np.float32(1.5), np.float64(math.nan),
    IntSub(2), FloatSub(1.25), FloatSub(math.inf), "1", None, [1],
] + BIG
JSON_TYPES = (bool, int, float, str, list, type(None))


class Draw:
    """Document parts drawn with a document-wide rate of oddities: at rate 0
    (two documents in five) every value is a plain in-range number and
    every pair a [x, y] list, so the document reads in full."""

    def __init__(self, draw, json_only: bool):
        self.draw, self.json_only = draw, json_only
        self.rate = draw(st.sampled_from([0, 0, 2, 10, 40]))

    def odd(self) -> bool:
        return self.draw(st.integers(0, 99)) < self.rate

    def value(self, plain):
        if not self.odd():
            return self.draw(plain)
        return self.draw(st.sampled_from([v for v in ODD_VALUES if not self.json_only or type(v) in JSON_TYPES]))

    def pair(self, plain):
        x, y = self.value(plain), self.value(plain)
        if not self.odd():
            return [x, y]
        shapes = [[], [x], [x, y, y], "xy", {"x": x, "y": y}]
        if not self.json_only:
            shapes += [(x, y), ListSub([x, y])]
        return self.draw(st.sampled_from(shapes))

    def slots(self) -> int:
        return self.draw(st.sampled_from([K - 1, K + 1])) if self.odd() else K


@st.composite
def pose_docs(draw, json_only=False):
    d = Draw(draw, json_only)
    # On the canvas, or now and then off it: only eval and render check that.
    coord = st.integers(0, H - 1).flatmap(lambda x: st.sampled_from([-1, H, W]) if d.odd() else st.just(x))
    score = st.floats(-10, 10, allow_nan=False)
    poses = []
    for _ in range(draw(st.integers(0, 4))):
        joints, scores = [], []
        for _ in range(d.slots()):
            absent = draw(st.integers(0, 3)) == 0
            joints.append(None if absent else d.pair(coord))
            scores.append((0.5 if d.odd() else None) if absent else d.value(score))
        if d.odd():
            scores.append(0.5)  # unequal lengths
        entry = {"joints": joints, "scores": scores, "centroid": d.pair(score)}
        if d.odd():
            del entry[draw(st.sampled_from(sorted(entry)))]
        poses.append([entry] if d.odd() else entry)
    return {"height": d.value(st.just(H)), "width": d.value(st.just(W)), "poses": poses}


@st.composite
def scene_docs(draw):
    d = Draw(draw, json_only=False)
    coord = st.integers(0, H - 1) | st.floats(0.0, float(H), exclude_max=True)
    persons = []
    for _ in range(draw(st.integers(0, 4))):
        joints = [None if draw(st.integers(0, 3)) == 0 else d.pair(coord) for _ in range(d.slots())]
        persons.append({"joint": joints} if d.odd() else {"joints": joints})
    size = [d.value(st.just(H)), d.value(st.just(W))]
    return {"height": size[0], "width": size[1], "joint_spec": _small_layout_doc(), "persons": persons}


# --- the properties --------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(doc=pose_docs())
def test_poses_from_doc_matches_its_reference(doc):
    assert outcome(poses_from_doc, doc) == outcome(ref_poses_from_doc, doc)


@settings(max_examples=400, deadline=None)
@given(doc=scene_docs())
def test_scene_from_dict_matches_its_reference(doc):
    assert outcome(scene_from_dict, doc) == outcome(ref_scene_from_dict, doc)


@pytest.fixture(scope="module")
def poses_path(tmp_path_factory):
    return tmp_path_factory.mktemp("poses") / "poses.json"


SCENE = Scene(H, W, layout_from_doc(_small_layout_doc()), (PersonAnnotation(((1.0, 2.0),) + (None,) * (K - 1)),))


@settings(max_examples=300, deadline=None)
@given(doc=pose_docs(json_only=True))
def test_load_poses_for_matches_its_reference(poses_path, doc):
    poses_path.write_text(json.dumps(doc))
    assert outcome(_load_poses_for, poses_path, SCENE) == outcome(ref_load_poses_for, poses_path, SCENE)


def test_load_poses_for_names_the_first_joint_off_the_canvas(poses_path):
    pose = {"joints": [[1, 2], [W, 0], None, [0, -1]], "scores": [0.5, 0.5, None, 0.5], "centroid": [1.0, 1.0]}
    poses_path.write_text(json.dumps({"height": H, "width": W, "poses": [pose, pose]}))
    with pytest.raises(SchemaError) as info:
        _load_poses_for(poses_path, SCENE)
    assert str(info.value) == "%s pose 0 joint 1 lies outside the %dx%d canvas" % (poses_path, W, H)


def test_each_odd_value_alone_reads_as_in_the_reference():
    good = {"height": H, "width": W, "poses": [
        {"joints": [[1, 2], None, [3, 4], [5, 6]], "scores": [0.5, None, 1.0, -0.0], "centroid": [3.0, 4.0]},
    ]}
    poses, h, w = poses_from_doc(good)
    assert (h, w) == (H, W)
    assert poses.poses[0].joints[2] == JointCandidate(2, (3, 4), 1.0)
    for value in ODD_VALUES:
        for where in ("x", "score"):
            doc = json.loads(json.dumps(good))
            if where == "x":
                doc["poses"][0]["joints"][0][0] = value
            else:
                doc["poses"][0]["scores"][0] = value
            assert outcome(poses_from_doc, doc) == outcome(ref_poses_from_doc, doc), (where, value)
        scene = {"height": H, "width": W, "joint_spec": _small_layout_doc(),
                 "persons": [{"joints": [[1, 2], [value, 3], None, [2.5, 0]]}]}
        assert outcome(scene_from_dict, scene) == outcome(ref_scene_from_dict, scene), value


@pytest.mark.parametrize(
    "data",
    [b"\xef\xbb\xbf{}", "{}".encode("utf-16"), b'{"a": "\xff"}', b"{\r\n}", b'{"a": "caf\xc3\xa9"}'],
    ids=["utf8-bom", "utf16", "bad-byte", "crlf", "utf8"],
)
def test_load_doc_reads_what_the_text_mode_read_reads(tmp_path, data):
    # A UTF-8 BOM and UTF-16 stay rejected as json.load of a UTF-8 text file
    # rejects them; invalid UTF-8, which that read let escape as a
    # UnicodeDecodeError, is "not valid JSON" too.
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    new = outcome(_load_doc, path, lambda doc: doc)
    if b"\xff" in data:
        with pytest.raises(UnicodeDecodeError):
            ref_load_doc(path, lambda doc: doc)
        assert new[0] is SchemaError and new[1].startswith("%s is not valid JSON: 'utf-8' codec" % path)
    else:
        assert new == outcome(ref_load_doc, path, lambda doc: doc)
