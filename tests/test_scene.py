"""Scene model: joint layouts, centroids, validation, JSON codec."""
import json
from contextlib import suppress
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from posepartition import scene as scene_mod
from posepartition.config import PipelineConfig, config_from_dict
from posepartition.corpus import CorpusSpec, generate_corpus
from posepartition.detect import DetectorParams
from posepartition.errors import (
    AnnotationError,
    ConfigurationError,
    ParameterError,
    PipelineError,
    SchemaError,
)
from posepartition.evaluate import MatchParams, evaluate_corpus
from posepartition.infer import PoseSet
from posepartition.maps import ForwardParams, build_regression_maps
from posepartition.partition import ClusterParams
from posepartition.pipeline import synth_maps
from posepartition.render import render_poses
from posepartition.scene import (
    JointSpec,
    PersonAnnotation,
    Scene,
    dump_scene,
    layout_from_doc,
    layout_to_doc,
    load_scene,
    mpii_joint_layout,
    person_centroid,
    save_scene,
    scene_from_dict,
    scene_to_dict,
    validate_joint_layout,
)


def tiny_layout():
    """Four-joint layout: the neck (rank 0), one torso joint, two limb joints."""
    return (
        JointSpec(0, "neck", 0),
        JointSpec(1, "torso", 1),
        JointSpec(2, "r_limb", 2),
        JointSpec(3, "l_limb", 3),
    )


def one_person_scene(positions, height=64, width=64):
    layout = tiny_layout()
    assert len(positions) == len(layout)
    person = PersonAnnotation(joints=tuple(positions))
    return Scene(height=height, width=width, joint_layout=layout, persons=(person,))


# --- joint layouts ----------------------------------------------------------


def test_default_layout_is_valid():
    layout = mpii_joint_layout()
    assert len(layout) == 16
    validate_joint_layout(layout)
    assert [js.name for js in layout if js.inference_rank == 0] == ["neck"]


def test_default_layout_orders_groups_by_rank():
    # Assembly grows each person from the neck through the torso and head,
    # then out along the legs and arms.
    order = [js.name for js in sorted(mpii_joint_layout(), key=lambda js: js.inference_rank)]
    assert order == [
        "neck", "thorax", "pelvis", "head_top", "r_hip", "l_hip", "r_shoulder", "l_shoulder",
        "r_knee", "l_knee", "r_ankle", "l_ankle", "r_elbow", "l_elbow", "r_wrist", "l_wrist",
    ]


def test_layout_validation_rejects_bad_tables():
    good = tiny_layout()
    with pytest.raises(AnnotationError):
        validate_joint_layout(())
    # Duplicate id.
    with pytest.raises(AnnotationError):
        validate_joint_layout((good[0], good[1], good[2], JointSpec(2, "dup", 3)))
    # Duplicate rank.
    with pytest.raises(AnnotationError, match="inference ranks must be a permutation"):
        validate_joint_layout(good[:3] + (replace(good[3], inference_rank=2),))
    # Duplicate name: evaluation, rendering and the CSV report each look
    # joints up by name, so a repeat would make them disagree on its id.
    layout = mpii_joint_layout()
    thorax_as_head = tuple(replace(js, name="head_top") if js.name == "thorax" else js for js in layout)
    with pytest.raises(AnnotationError, match="joint names must be unique, 'head_top' repeats"):
        validate_joint_layout(thorax_as_head)
    # Any rank order is a valid assembly order, a limb before the torso too.
    validate_joint_layout(
        (JointSpec(0, "neck", 0), JointSpec(1, "torso", 2), JointSpec(2, "r_limb", 1), JointSpec(3, "l_limb", 3))
    )


def test_only_the_remembered_tuple_skips_the_checks():
    good = mpii_joint_layout()
    validate_joint_layout(good)
    assert scene_mod._valid_layout is good
    two_heads = tuple(replace(js, name="head_top") if js.name == "thorax" else js for js in good)
    with pytest.raises(AnnotationError, match="'head_top' repeats"):
        validate_joint_layout(two_heads)
    with pytest.raises(AnnotationError, match="'head_top' repeats"):
        Scene(256, 256, two_heads, ())
    assert scene_mod._valid_layout is good
    validate_joint_layout(good)


def test_a_list_layout_is_checked_on_every_call():
    layout = list(tiny_layout())
    validate_joint_layout(layout)
    assert scene_mod._valid_layout is not layout
    layout[0] = replace(layout[0], name="torso")
    with pytest.raises(AnnotationError, match="'torso' repeats"):
        validate_joint_layout(layout)


def test_a_corpus_remembers_its_shared_layout():
    scenes = generate_corpus(CorpusSpec(num_scenes=3), seed=0)
    assert all(s.joint_layout is scenes[0].joint_layout for s in scenes)
    assert scene_mod._valid_layout is scenes[0].joint_layout


# --- centroids --------------------------------------------------------------


def test_person_centroid_mean_of_two():
    person = PersonAnnotation(joints=((10.0, 10.0), (20.0, 30.0), None, None))
    assert person_centroid(person) == (15.0, 20.0)


def test_person_centroid_single_joint_identity():
    person = PersonAnnotation(joints=(None, (5.0, 5.0), None, None))
    assert person_centroid(person) == (5.0, 5.0)


def test_person_centroid_three_joints():
    pts = [(0.0, 0.0), (0.0, 10.0), (30.0, 20.0)]
    person = PersonAnnotation(joints=(pts[0], pts[1], pts[2], None))
    got = person_centroid(person)
    # Independent summation.
    ex = sum(p[0] for p in pts) / 3.0
    ey = sum(p[1] for p in pts) / 3.0
    assert got == (ex, ey) == (10.0, 10.0)


def test_person_centroid_requires_a_joint():
    with pytest.raises(AnnotationError):
        person_centroid(PersonAnnotation(joints=(None, None, None, None)))


def test_person_centroid_translation_equivariance():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        pts = [tuple(float(v) for v in rng.integers(0, 50, size=2)) for _ in range(n)]
        slots = list(pts) + [None] * (4 - n)
        tx, ty = (float(v) for v in rng.integers(-30, 30, size=2))
        base = person_centroid(PersonAnnotation(joints=tuple(slots)))
        shifted = person_centroid(
            PersonAnnotation(
                joints=tuple(None if p is None else (p[0] + tx, p[1] + ty) for p in slots)
            )
        )
        assert abs(shifted[0] - (base[0] + tx)) <= 1e-9
        assert abs(shifted[1] - (base[1] + ty)) <= 1e-9


# --- scene validation -------------------------------------------------------


def test_scene_validation_rejects_out_of_canvas_joint():
    with pytest.raises(AnnotationError):
        Scene(
            height=32,
            width=32,
            joint_layout=tiny_layout(),
            persons=(PersonAnnotation(joints=((0.0, 0.0), (32.0, 5.0), None, None)),),
        )


def test_scene_validation_rejects_wrong_slot_count():
    with pytest.raises(AnnotationError):
        Scene(
            height=32,
            width=32,
            joint_layout=tiny_layout(),
            persons=(PersonAnnotation(joints=((0.0, 0.0),)),),
        )


def test_scene_validation_rejects_jointless_person():
    with pytest.raises(AnnotationError):
        Scene(
            height=32,
            width=32,
            joint_layout=tiny_layout(),
            persons=(PersonAnnotation(joints=(None, None, None, None)),),
        )


def test_scene_validation_rejects_layout_without_neck():
    # The neck is the rank-0 joint, which only an empty layout lacks.
    with pytest.raises(AnnotationError, match="joint layout is empty"):
        Scene(height=32, width=32, joint_layout=(), persons=())


def test_replace_checks_the_new_scene():
    scene = generate_corpus(CorpusSpec(num_scenes=1), seed=0)[0]
    with pytest.raises(AnnotationError, match="outside the canvas"):
        replace(scene, height=50)
    with pytest.raises(AnnotationError, match="at least 1x1"):
        replace(scene, width=0)


def bool_id_layout():
    return (replace(tiny_layout()[0], joint_id=False),) + tiny_layout()[1:]


@pytest.mark.parametrize(
    "build, error",
    [
        pytest.param(lambda: DetectorParams(nms_radius=True), ParameterError, id="nms_radius-bool"),
        pytest.param(lambda: DetectorParams(nms_radius=2.0), ParameterError, id="nms_radius-float"),
        pytest.param(lambda: PipelineConfig(nms_radius=True), ConfigurationError, id="config-nms_radius-bool"),
        pytest.param(lambda: Scene(64.5, 64, tiny_layout(), ()), AnnotationError, id="scene-height-float"),
        pytest.param(lambda: Scene(64, True, tiny_layout(), ()), AnnotationError, id="scene-width-bool"),
        pytest.param(lambda: Scene(8, 8, bool_id_layout(), ()), AnnotationError, id="scene-joint_id-bool"),
        pytest.param(lambda: CorpusSpec(num_scenes=2.5), ParameterError, id="corpus-num_scenes-float"),
        pytest.param(lambda: CorpusSpec(jitter=True), ParameterError, id="corpus-jitter-bool"),
    ],
)
def test_integer_fields_reject_bools_and_non_integers(build, error):
    with pytest.raises(error, match="integer"):
        build()


# Every field of the parameter dataclasses, as (class, field, kind): "int",
# "real", or "real?" where None means "unset".
PARAMETER_FIELDS = [
    *((CorpusSpec, name, "int") for name in ("num_scenes", "min_persons", "max_persons", "height", "width", "jitter")),
    (CorpusSpec, "min_separation", "real"),
    (ForwardParams, "sigma", "real"),
    (ForwardParams, "radius", "real"),
    (DetectorParams, "tau", "real"),
    (DetectorParams, "nms_radius", "int"),
    (ClusterParams, "link_threshold", "real"),
    (MatchParams, "pckh_fraction", "real"),
    (MatchParams, "fallback_px", "real?"),
    (MatchParams, "min_joints", "int"),
    (MatchParams, "min_score", "real?"),
]


def build_params(cls, name, value):
    """cls with one field set; ClusterParams also needs its link_threshold."""
    kwargs = {"link_threshold": 1.0} if cls is ClusterParams else {}
    return cls(**{**kwargs, name: value})


@pytest.mark.parametrize("value", ["1", None, True], ids=repr)
@pytest.mark.parametrize(
    "cls, name, kind", PARAMETER_FIELDS, ids=["%s.%s" % (c.__name__, n) for c, n, _ in PARAMETER_FIELDS]
)
def test_parameter_fields_reject_non_numbers(cls, name, kind, value):
    if value is None and kind == "real?":
        assert getattr(build_params(cls, name, value), name) is None
        return
    with pytest.raises(ParameterError, match=name):
        build_params(cls, name, value)


@pytest.mark.parametrize(
    "cls, name", [(c, n) for c, n, kind in PARAMETER_FIELDS if kind != "int"], ids=lambda v: getattr(v, "__name__", v)
)
def test_real_fields_reject_integers_past_float_range(cls, name):
    with pytest.raises(ParameterError, match=name):
        build_params(cls, name, 10**400)


@pytest.mark.parametrize("value", ["1", None, True, 10**400], ids=repr)
def test_vote_weights_reject_non_numbers(value):
    with pytest.raises(ParameterError, match="weights"):
        ClusterParams(1.0, weights=(1.0, value))


def test_integer_fields_take_numpy_integers():
    assert DetectorParams(nms_radius=np.int64(2)).nms_radius == 2
    scenes = generate_corpus(CorpusSpec(num_scenes=np.int64(2), height=np.int32(256)), seed=np.int64(0))
    assert [s.height for s in scenes] == [256, 256]
    assert scenes == generate_corpus(CorpusSpec(num_scenes=2), seed=0)


@st.composite
def scene_fields(draw):
    """Scene keyword arguments that may break any rule: 1-64 px canvases,
    layouts with a corrupted entry, joints off the canvas or non-finite,
    wrong slot counts, and 0-3 persons."""
    height, width = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    k = draw(st.integers(1, 6))
    # The default layout's first k names in its rank order (head_top from
    # k = 4 on) at drawn ids and ranks: the rank-0 joint may have any name.
    names = [js.name for js in sorted(mpii_joint_layout(), key=lambda js: js.inference_rank)][:k]
    ids, ranks = draw(st.permutations(range(k))), draw(st.permutations(range(k)))
    layout = [JointSpec(ids[i], names[i], ranks[i]) for i in range(k)]
    if draw(st.booleans()):
        i = draw(st.integers(0, k - 1))
        layout[i] = JointSpec(draw(st.integers(-1, k)), draw(st.sampled_from(names)), draw(st.integers(-1, k)))
    # Half the scenes keep every person rule, so that many of them build.
    broken = draw(st.booleans())
    anywhere = st.tuples(st.floats(), st.floats())
    inside = st.tuples(
        st.floats(0.0, width, exclude_max=True), st.floats(0.0, height, exclude_max=True)
    )
    joint = inside | anywhere if broken else inside
    slot_count = st.integers(k - 1, k + 1) if broken else st.just(k)
    persons = [
        PersonAnnotation(joints=tuple(draw(st.none() | joint) for _ in range(draw(slot_count))))
        for _ in range(draw(st.integers(0, 3)))
    ]
    return dict(height=height, width=width, joint_layout=tuple(layout), persons=tuple(persons))


@settings(max_examples=100, deadline=None)
@given(fields=scene_fields())
def test_a_scene_that_builds_is_safe_for_every_stage(fields):
    try:
        scene = Scene(**fields)
    except AnnotationError:
        return
    with suppress(PipelineError):
        synth_maps(scene)
    with suppress(PipelineError):
        evaluate_corpus([(PoseSet(()), scene)])
    with suppress(PipelineError):
        render_poses(PoseSet(()), scene)


# --- JSON codec -------------------------------------------------------------


def seeded_scene():
    """A 16-joint scene with random absent joints."""
    layout = mpii_joint_layout()
    rng = np.random.default_rng(3)
    persons = []
    for _ in range(3):
        slots = []
        for _ in range(16):
            if rng.random() < 0.2:
                slots.append(None)
            else:
                slots.append(tuple(float(v) for v in rng.integers(0, 200, size=2)))
        if not any(s is not None for s in slots):
            slots[0] = (5.0, 5.0)
        persons.append(PersonAnnotation(joints=tuple(slots)))
    return Scene(height=220, width=210, joint_layout=layout, persons=tuple(persons))


@st.composite
def scenes(draw):
    """Valid scenes with non-integer joints and absent joints."""
    height = draw(st.integers(1, 300))
    width = draw(st.integers(1, 300))
    layout = draw(st.sampled_from([tiny_layout(), mpii_joint_layout()]))
    joint = st.tuples(
        st.floats(0.0, width, exclude_max=True), st.floats(0.0, height, exclude_max=True)
    )
    persons = []
    for _ in range(draw(st.integers(0, 3))):
        slots = [draw(st.none() | joint) for _ in layout]
        if all(p is None for p in slots):
            slots[draw(st.integers(0, len(layout) - 1))] = draw(joint)
        persons.append(PersonAnnotation(joints=tuple(slots)))
    return Scene(height=height, width=width, joint_layout=layout, persons=tuple(persons))


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(scene=scenes())
@example(scene=seeded_scene())
def test_scene_json_round_trip(tmp_path, scene):
    assert scene_from_dict(json.loads(json.dumps(scene_to_dict(scene)))) == scene
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    back = load_scene(path)
    assert back == scene
    # Serialization is stable: a second dump of the parsed scene is identical.
    assert dump_scene(back) == dump_scene(scene)


def test_old_scene_documents_with_mirror_ids_and_head_boxes_load():
    # Files written while layouts carried a mirror table and a coarse joint
    # group, and persons an optional head box, hold those keys; readers
    # ignore them, even a group name that was never valid.
    scene = seeded_scene()
    old = scene_to_dict(scene)
    mirrors = (5, 4, 3, 2, 1, 0, 6, 7, 8, 9, 15, 14, 13, 12, 11, 10)
    groups = ["limb"] * 2 + ["torso"] * 2 + ["limb"] * 2 + ["torso", "spine", "neck", "torso"] + ["limb"] * 6
    for entry, mirror, group in zip(old["joint_spec"], mirrors, groups):
        entry["mirror_id"] = mirror
        entry["group"] = group
    old["persons"][0]["head_box"] = [10, 10, 30, 40.5]
    old["persons"][1]["head_box"] = None
    assert scene_from_dict(json.loads(json.dumps(old))) == scene
    assert layout_from_doc(old["joint_spec"]) == mpii_joint_layout()
    assert not any(key in dump_scene(scene) for key in ("head_box", "mirror_id", "group"))


def test_old_scene_documents_with_person_centroids_load_as_the_joint_mean():
    # Dumps once wrote "centroid": null for each person, and readers took an
    # explicit [x, y] in place of the joints' mean.  Readers ignore the key.
    bare = scene_to_dict(seeded_scene())
    old = json.loads(json.dumps(bare))
    old["persons"][0]["centroid"] = [100.5, 90.25]
    old["persons"][1]["centroid"] = None
    scene = scene_from_dict(old)
    assert scene == scene_from_dict(bare)
    maps = build_regression_maps(scene).values
    assert maps.tobytes() == build_regression_maps(scene_from_dict(bare)).values.tobytes()
    assert "centroid" not in dump_scene(scene)


def test_scene_json_integral_floats_written_as_ints():
    scene = one_person_scene([(10.0, 12.0), (20.0, 22.0), (30.5, 31.5), (5.0, 60.0)])
    doc = scene_to_dict(scene)
    assert doc["persons"][0]["joints"][0] == [10, 12]
    assert doc["persons"][0]["joints"][2] == [30.5, 31.5]


def test_scene_json_schema_errors():
    good = scene_to_dict(one_person_scene([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]))

    missing = dict(good)
    del missing["persons"]
    with pytest.raises(SchemaError):
        scene_from_dict(missing)

    repeated_name = json.loads(json.dumps(good))
    repeated_name["joint_spec"][3]["name"] = "r_limb"
    with pytest.raises(SchemaError, match="invalid joint_spec: joint names must be unique, 'r_limb' repeats"):
        scene_from_dict(repeated_name)

    bad_pair = json.loads(json.dumps(good))
    bad_pair["persons"][0]["joints"][0] = [1.0]
    with pytest.raises(SchemaError):
        scene_from_dict(bad_pair)

    for key, value in (("height", 12.5), ("height", True), ("width", True)):
        bad_size = json.loads(json.dumps(good))
        bad_size[key] = value
        with pytest.raises(SchemaError, match="integers"):
            scene_from_dict(bad_size)

    # Structural annotation problems surface as schema errors with context.
    bad_scene = json.loads(json.dumps(good))
    bad_scene["persons"][0]["joints"][0] = [1000.0, 1000.0]
    with pytest.raises(SchemaError):
        scene_from_dict(bad_scene)

    # Python's json reads the NaN and Infinity tokens.
    for token in ("Infinity", "NaN"):
        joints = [[1, 1], [0, "X"]] + good["persons"][0]["joints"][2:]
        text = json.dumps(dict(good, persons=[dict(good["persons"][0], joints=joints)]))
        with pytest.raises(SchemaError, match="person 0 joint 1 is not finite"):
            scene_from_dict(json.loads(text.replace('"X"', token)))


def test_scene_integers_past_float_range_are_schema_errors():
    good = scene_to_dict(one_person_scene([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]))
    joint = json.loads(json.dumps(good))
    joint["persons"][0]["joints"][1] = [10**400, 3]
    with pytest.raises(SchemaError, match=r"persons\[0\]\.joints\[1\] is too large"):
        scene_from_dict(joint)
    joint["persons"][0]["joints"][1] = [2, -(10**400)]
    with pytest.raises(SchemaError, match=r"persons\[0\]\.joints\[1\] is too large"):
        scene_from_dict(joint)


@pytest.mark.parametrize(
    "key, value",
    [
        ("id", "x"),
        ("id", 0.5),
        ("id", 0.0),
        ("id", False),
        ("rank", "0"),
        ("rank", True),
        ("rank", 1.5),
        ("rank", None),
        ("name", 7),
        ("name", None),
    ],
)
def test_joint_spec_fields_must_have_their_json_types(key, value):
    good = scene_to_dict(one_person_scene([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]))
    good["joint_spec"][0][key] = value
    with pytest.raises(SchemaError, match=r"joint_spec\[0\]\.%s" % key):
        scene_from_dict(good)
    with pytest.raises(SchemaError, match=r"joint_spec\[0\]\.%s" % key):
        layout_from_doc(good["joint_spec"])


def test_layout_codec_round_trips_and_validates():
    layout = mpii_joint_layout()
    assert layout_from_doc(layout_to_doc(layout)) == layout
    assert layout_from_doc(json.loads(json.dumps(layout_to_doc(tiny_layout())))) == tiny_layout()
    with pytest.raises(SchemaError, match="list"):
        layout_from_doc({"id": 0})
    swapped = layout_to_doc(tiny_layout())
    swapped[0]["rank"] = 3  # two joints at rank 3, none at rank 0
    with pytest.raises(SchemaError, match="inference ranks"):
        layout_from_doc(swapped)


def test_a_repeated_layout_is_still_checked_type_for_type():
    # A joint_spec equal to the last accepted one returns its layout, but
    # 1.0 and true equal 1 in Python, so each must still be rejected.
    good = scene_to_dict(seeded_scene())
    first = scene_from_dict(good)
    assert first == seeded_scene()
    assert scene_from_dict(json.loads(json.dumps(good))).joint_layout is first.joint_layout
    for index, key, value, message in (
        (1, "id", 1.0, "joint_spec[1].id must be an integer"),
        (7, "rank", True, "joint_spec[7].rank must be an integer"),
        (9, "rank", 3.0, "joint_spec[9].rank must be an integer"),
        (7, "name", "head_top", "invalid joint_spec: joint names must be unique, 'head_top' repeats"),
    ):
        bad = json.loads(json.dumps(good))
        bad["joint_spec"][index][key] = value
        with pytest.raises(SchemaError) as info:
            scene_from_dict(bad)
        assert str(info.value) == message
        with pytest.raises(ConfigurationError) as info:
            config_from_dict({"joint_spec": bad["joint_spec"]})
        assert str(info.value) == message
        assert scene_from_dict(good) == first


def test_layouts_with_extra_keys_or_another_order_load():
    good = scene_to_dict(seeded_scene())
    scene = scene_from_dict(good)
    for make in (str, np.arange, np.arange):  # an array's == compares elementwise
        doc = json.loads(json.dumps(good))
        doc["joint_spec"][3]["extra"] = make(3)
        assert scene_from_dict(doc) == scene
    flipped = json.loads(json.dumps(good))
    flipped["joint_spec"].reverse()
    reversed_scene = replace(scene, joint_layout=scene.joint_layout[::-1])
    for doc, expected in [(good, scene), (flipped, reversed_scene)] * 2:
        assert scene_from_dict(doc) == expected


def test_load_scene_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        load_scene(path)
