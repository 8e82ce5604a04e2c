"""Annotated multi-person scenes and their JSON codec.

A scene is a pixel canvas plus a joint layout (one JointSpec per joint
category) and a list of person annotations.  Coordinates are (x, y) with x
growing rightward, y growing downward, and the origin at the center of the
top-left pixel, so valid positions live in [0, W) x [0, H).  Readers ignore
unknown keys, so files that carry extra keys still load.  The JSON reader and
writer every document of the package goes through live here too.
"""
from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Sequence

from .errors import AnnotationError, SchemaError

_Position = tuple[float, float]


@dataclass(frozen=True)
class JointSpec:
    """Static description of one joint category.

    inference_rank is the position of the category in the greedy assembly
    order (0 first); the rank-0 joint is the neck PCKh measures from.
    """

    joint_id: int
    name: str
    inference_rank: int


_valid_layout: object = object()  # the last tuple layout accepted; a fresh object is no layout


def validate_joint_layout(layout: Sequence[JointSpec]) -> None:
    """Check the structural invariants of a joint layout.

    The layout must be non-empty, ids and ranks must each be a permutation
    of 0..K-1, and no two joints may share a name.  The last tuple accepted
    is remembered: that same object (the layout every scene of a corpus or a
    directory shares) returns at once.
    """
    global _valid_layout
    if layout is _valid_layout:
        return
    k = len(layout)
    if k == 0:
        raise AnnotationError("joint layout is empty")
    if not all(_is_int(js.joint_id) and _is_int(js.inference_rank) for js in layout):
        raise AnnotationError("joint ids and inference ranks must be integers")
    ids = sorted(js.joint_id for js in layout)
    if ids != list(range(k)):
        raise AnnotationError("joint ids must be a permutation of 0..K-1, got %s" % ids)
    ranks = sorted(js.inference_rank for js in layout)
    if ranks != list(range(k)):
        raise AnnotationError("inference ranks must be a permutation of 0..K-1")
    names = [js.name for js in layout]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise AnnotationError("joint names must be unique, %r repeats" % (name,))
    if type(layout) is tuple:
        _valid_layout = layout


def mpii_joint_layout() -> tuple[JointSpec, ...]:
    """Default 16-joint layout with MPII ordering."""
    # (joint_id, name, inference_rank)
    rows = [
        (0, "r_ankle", 10),
        (1, "r_knee", 8),
        (2, "r_hip", 4),
        (3, "l_hip", 5),
        (4, "l_knee", 9),
        (5, "l_ankle", 11),
        (6, "pelvis", 2),
        (7, "thorax", 1),
        (8, "neck", 0),
        (9, "head_top", 3),
        (10, "r_wrist", 14),
        (11, "r_elbow", 12),
        (12, "r_shoulder", 6),
        (13, "l_shoulder", 7),
        (14, "l_elbow", 13),
        (15, "l_wrist", 15),
    ]
    return tuple(JointSpec(*row) for row in rows)


@dataclass(frozen=True)
class PersonAnnotation:
    """One person: a joint position (or None) per category; person_centroid derives its centroid."""

    joints: tuple[_Position | None, ...]


def person_centroid(person: PersonAnnotation) -> _Position:
    """The mean of the annotated joints (see _mean); AnnotationError if none is."""
    pts = [p for p in person.joints if p is not None]
    if not pts:
        raise AnnotationError("person has no annotated joints")
    return _mean(pts)


def _mean(points: Sequence[_Position]) -> _Position:
    """Each coordinate's sum, left to right from 0.0 (sum() may compensate), over the count."""
    sx = sy = 0.0
    for x, y in points:
        sx, sy = sx + x, sy + y
    return (sx / len(points), sy / len(points))


@dataclass(frozen=True)
class Scene:
    """Canvas dimensions, joint layout, and person annotations.

    Construction, dataclasses.replace included, raises AnnotationError on a
    broken structural invariant, so every Scene is valid.
    """

    height: int
    width: int
    joint_layout: tuple[JointSpec, ...]
    persons: tuple[PersonAnnotation, ...]

    @property
    def num_joints(self) -> int:
        return len(self.joint_layout)

    @property
    def norm_factor(self) -> float:
        """Length of the canvas diagonal, used to normalize offsets."""
        return math.hypot(self.height, self.width)

    def __post_init__(self) -> None:
        if not (_is_int(self.height) and _is_int(self.width)):
            raise AnnotationError("canvas size must be integers, got %r x %r" % (self.height, self.width))
        if self.height < 1 or self.width < 1:
            raise AnnotationError("canvas must be at least 1x1, got %dx%d" % (self.height, self.width))
        validate_joint_layout(self.joint_layout)
        k = self.num_joints
        for i, person in enumerate(self.persons):
            if len(person.joints) != k:
                raise AnnotationError(
                    "person %d has %d joint slots, layout has %d" % (i, len(person.joints), k)
                )
            if not any(p is not None for p in person.joints):
                raise AnnotationError("person %d has no annotated joints" % i)
            for j, pos in enumerate(person.joints):
                if pos is None:
                    continue
                x, y = pos
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise AnnotationError("person %d joint %d is not finite" % (i, j))
                if not (0.0 <= x < self.width and 0.0 <= y < self.height):
                    raise AnnotationError(
                        "person %d joint %d at (%g, %g) is outside the canvas" % (i, j, x, y)
                    )


# --- JSON codec ------------------------------------------------------------

def _num(value: float) -> float | int:
    """Emit integral floats as ints for compact, stable files."""
    f = float(value)
    return int(f) if f.is_integer() else f


def _require(cond: bool, fmt: str, *args) -> None:
    """Raise SchemaError(fmt % args) if cond is false; only then is it formatted."""
    if not cond:
        raise SchemaError(fmt % args)


def _is_num(v) -> bool:
    return type(v) is float or type(v) is int or (isinstance(v, (int, float)) and not isinstance(v, bool))


def _is_finite(v) -> bool:
    """A number within float range (json reads NaN and Infinity)."""
    return _is_num(v) and abs(v) <= sys.float_info.max


def _is_int(v) -> bool:
    """An integer, numpy's included, but not a bool (JSON true/false parse as
    bools); the exact-type test spares readers a 1 us ABC check per value."""
    return type(v) is int or (isinstance(v, numbers.Integral) and not isinstance(v, bool))


def layout_to_doc(layout: Sequence[JointSpec]) -> list:
    """The "joint_spec" list shared by scene and config documents."""
    return [{"id": js.joint_id, "name": js.name, "rank": js.inference_rank} for js in layout]


# (entries as (key, value type, value) triples, layout) of the last joint_spec
# accepted: the scene files of one directory share one.
_last_layout: tuple = (None, None)
_JSON_SCALARS = {str, int, float, bool, type(None)}


def layout_from_doc(doc) -> tuple[JointSpec, ...]:
    """Parse and validate a "joint_spec" list, raising SchemaError on misuse.
    A list equal, type for type, to the last accepted one returns its layout."""
    global _last_layout
    _require(isinstance(doc, list), "joint_spec must be a list")
    exact = [[(k, type(v), v) for k, v in e.items()] if type(e) is dict else None for e in doc]
    last_exact, last_layout = _last_layout
    if exact == last_exact:
        return last_layout
    layout = []
    for i, entry in enumerate(doc):
        _require(isinstance(entry, dict), "joint_spec[%d] must be an object", i)
        for key in ("id", "name", "rank"):
            _require(key in entry, "joint_spec[%d] is missing %r", i, key)
        for key in ("id", "rank"):
            _require(_is_int(entry[key]), "joint_spec[%d].%s must be an integer", i, key)
        _require(isinstance(entry["name"], str), "joint_spec[%d].name must be a string", i)
        layout.append(JointSpec(entry["id"], entry["name"], entry["rank"]))
    layout = tuple(layout)
    try:
        validate_joint_layout(layout)
    except AnnotationError as exc:
        raise SchemaError("invalid joint_spec: %s" % exc) from exc
    if None not in exact and {t for row in exact for _, t, _ in row} <= _JSON_SCALARS:
        _last_layout = (exact, layout)  # plain JSON values only: their == is exact
    return layout


def scene_to_dict(scene: Scene) -> dict:
    persons = [
        {"joints": [None if p is None else [_num(p[0]), _num(p[1])] for p in person.joints]}
        for person in scene.persons
    ]
    return {
        "height": scene.height,
        "width": scene.width,
        "joint_spec": layout_to_doc(scene.joint_layout),
        "persons": persons,
    }


def _parse_position(obj, what: str, *args) -> _Position:
    """obj as an (x, y) float pair; what % args names it in an error."""
    _require(
        isinstance(obj, (list, tuple)) and len(obj) == 2 and _is_num(obj[0]) and _is_num(obj[1]),
        what + " must be a [x, y] number pair", *args,
    )
    # JSON integers are unbounded; past float's range they cannot be read.
    try:
        return (float(obj[0]), float(obj[1]))
    except OverflowError:
        raise SchemaError(what % args + " is too large") from None


def scene_from_dict(doc: dict) -> Scene:
    """Parse and validate a scene document, raising SchemaError on misuse."""
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


def dump_scene(scene: Scene) -> str:
    return _dumps(scene_to_dict(scene))


def save_scene(scene: Scene, path) -> None:
    _save_json(scene_to_dict(scene), path)


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _dumps(o, nl: str = "\n") -> str:
    """json.dumps(o, indent=2) for every document json accepts, one join per
    container instead of the pure-Python generators json uses once indent is
    set.  Scalars are spelled as json spells them: float.__repr__ with NaN and
    Infinity words, int.__repr__ (subclasses too), ASCII string escapes."""
    if isinstance(o, float):
        text = float.__repr__(o)
        return _FLOAT_WORDS.get(text, text)
    if type(o) is int:
        return int.__repr__(o)
    if o is None:
        return "null"
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + "  "
        items = []
        for v in o:  # common scalars inline: a call per item made poses files 20-25% slower
            if type(v) is float:
                text = float.__repr__(v)
                items.append(_FLOAT_WORDS.get(text, text))
            elif type(v) is int:
                items.append(int.__repr__(v))
            elif v is None:
                items.append("null")
            else:
                items.append(_dumps(v, inner))
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if isinstance(o, dict):
        inner = nl + "  "
        items = [_json_key(k) + ": " + _dumps(v, inner) for k, v in o.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}" if o else "{}"
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if isinstance(o, int):
        return "true" if o is True else "false" if o is False else int.__repr__(o)
    raise TypeError("Object of type %s is not JSON serializable" % type(o).__name__)


def _json_key(k) -> str:
    if isinstance(k, str):
        return encode_basestring_ascii(k)
    if k is None or isinstance(k, (int, float)):
        return '"%s"' % _dumps(k)
    raise TypeError("keys must be str, int, float, bool or None, not %s" % type(k).__name__)


def _save_json(doc, path) -> None:
    """_dumps(doc) and a newline in one binary write: ASCII, \\n line ends."""
    with open(path, "wb") as fh:
        fh.write((_dumps(doc) + "\n").encode("ascii"))


def _load_doc(path, parse, error: type[Exception] = SchemaError):
    """parse applied to the JSON document at path; an error (of class error) names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise error("%s is not valid JSON: %s" % (path, exc)) from exc
    try:
        return parse(doc)
    except error as exc:
        raise error("%s: %s" % (path, exc)) from exc


def load_scene(path) -> Scene:
    return _load_doc(path, scene_from_dict)
