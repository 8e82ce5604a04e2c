"""Scene model: joint layouts, centroids, perturbation, augmentation, JSON."""
import json
import math

import numpy as np
import pytest

from posepartition.errors import AnnotationError, ParameterError, SchemaError
from posepartition.scene import (
    AugmentParams,
    JointGroup,
    JointSpec,
    PersonAnnotation,
    Scene,
    augment,
    derive_centroid,
    dump_scene,
    layout_from_doc,
    layout_to_doc,
    load_scene,
    mpii_joint_layout,
    person_centroid,
    perturb_overlapping_centroids,
    save_scene,
    scene_from_dict,
    scene_to_dict,
    validate_joint_layout,
)


def tiny_layout():
    """Four-joint layout: one neck, one torso joint, a mirrored limb pair."""
    return (
        JointSpec(0, "neck", JointGroup.NECK, 0, 0),
        JointSpec(1, "torso", JointGroup.TORSO, 1, 1),
        JointSpec(2, "r_limb", JointGroup.LIMB, 2, 3),
        JointSpec(3, "l_limb", JointGroup.LIMB, 3, 2),
    )


def one_person_scene(positions, height=64, width=64, centroid=None):
    layout = tiny_layout()
    assert len(positions) == len(layout)
    person = PersonAnnotation(joints=tuple(positions), centroid=centroid)
    scene = Scene(height=height, width=width, joint_layout=layout, persons=(person,))
    scene.validate()
    return scene


# --- joint layouts ----------------------------------------------------------


def test_default_layout_is_valid():
    layout = mpii_joint_layout()
    assert len(layout) == 16
    validate_joint_layout(layout)
    necks = [js for js in layout if js.group is JointGroup.NECK]
    assert len(necks) == 1 and necks[0].inference_rank == 0


def test_default_layout_orders_groups_by_rank():
    order = [js.group for js in sorted(mpii_joint_layout(), key=lambda js: js.inference_rank)]
    first_limb = order.index(JointGroup.LIMB)
    assert order[0] is JointGroup.NECK
    assert all(g is JointGroup.TORSO for g in order[1:first_limb])
    assert all(g is JointGroup.LIMB for g in order[first_limb:])


def test_layout_validation_rejects_bad_tables():
    good = tiny_layout()
    with pytest.raises(AnnotationError):
        validate_joint_layout(())
    # Duplicate id.
    with pytest.raises(AnnotationError):
        validate_joint_layout((good[0], good[1], good[2], JointSpec(2, "dup", JointGroup.LIMB, 3, 2)))
    # Two necks.
    with pytest.raises(AnnotationError):
        validate_joint_layout((good[0], JointSpec(1, "neck2", JointGroup.NECK, 1, 1), good[2], good[3]))
    # Limb ranked before a torso joint.
    with pytest.raises(AnnotationError):
        validate_joint_layout(
            (
                JointSpec(0, "neck", JointGroup.NECK, 0, 0),
                JointSpec(1, "torso", JointGroup.TORSO, 2, 1),
                JointSpec(2, "r_limb", JointGroup.LIMB, 1, 3),
                JointSpec(3, "l_limb", JointGroup.LIMB, 3, 2),
            )
        )
    # Mirror table not an involution.
    with pytest.raises(AnnotationError):
        validate_joint_layout(
            (
                JointSpec(0, "neck", JointGroup.NECK, 0, 0),
                JointSpec(1, "torso", JointGroup.TORSO, 1, 1),
                JointSpec(2, "r_limb", JointGroup.LIMB, 2, 3),
                JointSpec(3, "l_limb", JointGroup.LIMB, 3, 3),
            )
        )


# --- centroids --------------------------------------------------------------


def test_derive_centroid_mean_of_two():
    person = PersonAnnotation(joints=((10.0, 10.0), (20.0, 30.0), None, None))
    assert derive_centroid(person) == (15.0, 20.0)


def test_derive_centroid_single_joint_identity():
    person = PersonAnnotation(joints=(None, (5.0, 5.0), None, None))
    assert derive_centroid(person) == (5.0, 5.0)


def test_derive_centroid_three_joints():
    pts = [(0.0, 0.0), (0.0, 10.0), (30.0, 20.0)]
    person = PersonAnnotation(joints=(pts[0], pts[1], pts[2], None))
    got = derive_centroid(person)
    # Independent summation.
    ex = sum(p[0] for p in pts) / 3.0
    ey = sum(p[1] for p in pts) / 3.0
    assert got == (ex, ey) == (10.0, 10.0)


def test_derive_centroid_requires_a_joint():
    with pytest.raises(AnnotationError):
        derive_centroid(PersonAnnotation(joints=(None, None, None, None)))


def test_derive_centroid_translation_equivariance():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        pts = [tuple(float(v) for v in rng.integers(0, 50, size=2)) for _ in range(n)]
        slots = list(pts) + [None] * (4 - n)
        tx, ty = (float(v) for v in rng.integers(-30, 30, size=2))
        base = derive_centroid(PersonAnnotation(joints=tuple(slots)))
        shifted = derive_centroid(
            PersonAnnotation(
                joints=tuple(None if p is None else (p[0] + tx, p[1] + ty) for p in slots)
            )
        )
        assert abs(shifted[0] - (base[0] + tx)) <= 1e-9
        assert abs(shifted[1] - (base[1] + ty)) <= 1e-9


def test_person_centroid_prefers_explicit_value():
    person = PersonAnnotation(joints=((10.0, 10.0), (20.0, 30.0), None, None), centroid=(1.0, 2.0))
    assert person_centroid(person) == (1.0, 2.0)
    bare = PersonAnnotation(joints=((10.0, 10.0), (20.0, 30.0), None, None))
    assert person_centroid(bare) == derive_centroid(bare)


# --- scene validation -------------------------------------------------------


def test_scene_validation_rejects_out_of_canvas_joint():
    scene = Scene(
        height=32,
        width=32,
        joint_layout=tiny_layout(),
        persons=(PersonAnnotation(joints=((0.0, 0.0), (32.0, 5.0), None, None)),),
    )
    with pytest.raises(AnnotationError):
        scene.validate()


def test_scene_validation_rejects_wrong_slot_count():
    scene = Scene(
        height=32,
        width=32,
        joint_layout=tiny_layout(),
        persons=(PersonAnnotation(joints=((0.0, 0.0),)),),
    )
    with pytest.raises(AnnotationError):
        scene.validate()


def test_scene_validation_rejects_jointless_person():
    scene = Scene(
        height=32,
        width=32,
        joint_layout=tiny_layout(),
        persons=(PersonAnnotation(joints=(None, None, None, None)),),
    )
    with pytest.raises(AnnotationError):
        scene.validate()


# --- centroid perturbation --------------------------------------------------


def two_person_scene(c0, c1, height=128, width=128):
    layout = tiny_layout()
    persons = tuple(
        PersonAnnotation(joints=((30.0, 30.0), (40.0, 40.0), None, None), centroid=c)
        for c in (c0, c1)
    )
    return Scene(height=height, width=width, joint_layout=layout, persons=persons)


def pairwise_distances(scene):
    cents = [person_centroid(p) for p in scene.persons]
    return [
        math.dist(cents[i], cents[j])
        for i in range(len(cents))
        for j in range(i + 1, len(cents))
    ]


def test_perturb_separates_coincident_pair():
    scene = two_person_scene((50.0, 50.0), (50.0, 50.0))
    out = perturb_overlapping_centroids(scene, 2.0)
    assert all(d >= 2.0 for d in pairwise_distances(out))


def test_perturb_leaves_separated_scene_unchanged():
    scene = two_person_scene((0.0, 0.0), (100.0, 100.0))
    out = perturb_overlapping_centroids(scene, 2.0)
    assert [person_centroid(p) for p in out.persons] == [
        person_centroid(p) for p in scene.persons
    ]
    assert [p.joints for p in out.persons] == [p.joints for p in scene.persons]


def test_perturb_separates_three_coincident():
    layout = tiny_layout()
    persons = tuple(
        PersonAnnotation(joints=((30.0, 30.0), (40.0, 40.0), None, None), centroid=(60.0, 60.0))
        for _ in range(3)
    )
    scene = Scene(height=128, width=128, joint_layout=layout, persons=persons)
    out = perturb_overlapping_centroids(scene, 2.0)
    dists = pairwise_distances(out)
    assert len(dists) == 3 and all(d >= 2.0 for d in dists)
    # Small groups stay near the original location: moved by at most min_sep.
    for person in out.persons:
        assert math.dist(person_centroid(person), (60.0, 60.0)) <= 2.0


def test_perturb_is_deterministic_and_idempotent():
    scene = two_person_scene((50.0, 50.0), (50.5, 50.0))
    once = perturb_overlapping_centroids(scene, 4.0)
    again = perturb_overlapping_centroids(scene, 4.0)
    assert [person_centroid(p) for p in once.persons] == [
        person_centroid(p) for p in again.persons
    ]
    twice = perturb_overlapping_centroids(once, 4.0)
    assert [person_centroid(p) for p in twice.persons] == [
        person_centroid(p) for p in once.persons
    ]


def test_perturb_rejects_nonpositive_separation():
    with pytest.raises(ParameterError):
        perturb_overlapping_centroids(two_person_scene((0.0, 0.0), (9.0, 9.0)), 0.0)


def test_perturb_random_scenes_reach_separation():
    rng = np.random.default_rng(23)
    layout = tiny_layout()
    for _ in range(30):
        n = int(rng.integers(2, 6))
        persons = tuple(
            PersonAnnotation(
                joints=((10.0, 10.0), (20.0, 20.0), None, None),
                centroid=tuple(float(v) for v in rng.uniform(40, 90, size=2)),
            )
            for _ in range(n)
        )
        scene = Scene(height=256, width=256, joint_layout=layout, persons=persons)
        out = perturb_overlapping_centroids(scene, 8.0)
        assert all(d >= 8.0 for d in pairwise_distances(out))


# --- augmentation -----------------------------------------------------------


def test_augment_identity_recovers_scene():
    scene = one_person_scene([(10.0, 12.0), (20.0, 22.0), (30.5, 31.5), (5.0, 60.0)])
    out = augment(scene, AugmentParams())
    assert [p.joints for p in out.persons] == [p.joints for p in scene.persons]


def test_augment_mirror_reflects_and_swaps_labels():
    scene = one_person_scene(
        [(10.0, 5.0), (20.0, 15.0), (30.0, 25.0), (40.0, 35.0)], height=100, width=100
    )
    out = augment(scene, AugmentParams(mirror=True))
    joints = out.persons[0].joints
    # Midline joints stay in their slots, mirrored x.
    assert joints[0] == (89.0, 5.0)
    assert joints[1] == (79.0, 15.0)
    # The limb pair swaps slots.
    assert joints[2] == (59.0, 35.0)
    assert joints[3] == (69.0, 25.0)
    # Brute-force reflection of every annotated point, slot-by-slot.
    mirror_of = {js.joint_id: js.mirror_id for js in scene.joint_layout}
    expect = [None] * 4
    for j, p in enumerate(scene.persons[0].joints):
        expect[mirror_of[j]] = (99.0 - p[0], p[1])
    assert list(joints) == expect


def test_augment_rotation_matches_matrix_oracle():
    rng = np.random.default_rng(5)
    for _ in range(25):
        h, w = 101, 81
        pts = [tuple(float(v) for v in rng.uniform(20, 60, size=2)) for _ in range(4)]
        deg = float(rng.uniform(-180.0, 180.0))
        scale = float(rng.uniform(0.5, 1.5))
        tx, ty = (float(v) for v in rng.uniform(-5, 5, size=2))
        scene = one_person_scene(pts, height=h, width=w)
        out = augment(scene, AugmentParams(rotation=deg, scale=scale, translate=(tx, ty)))
        th = math.radians(deg)
        rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        center = np.array([(w - 1) / 2.0, (h - 1) / 2.0])
        for got, p in zip(out.persons[0].joints, pts):
            expect = center + scale * rot @ (np.array(p) - center) + np.array([tx, ty])
            assert got is not None
            assert abs(got[0] - expect[0]) <= 1e-9
            assert abs(got[1] - expect[1]) <= 1e-9


def test_augment_quarter_turn_of_unit_offset():
    # One point, one quarter turn: (1, 0) offset from the center maps to a
    # (0, 1) offset, matching the rotation matrix exactly.
    scene = one_person_scene([(2.0, 1.0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0)], height=3, width=3)
    out = augment(scene, AugmentParams(rotation=90.0))
    got = out.persons[0].joints[0]
    assert abs(got[0] - 1.0) <= 1e-9 and abs(got[1] - 2.0) <= 1e-9


def test_augment_inverse_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(30):
        pts = [tuple(float(v) for v in rng.uniform(200, 300, size=2)) for _ in range(4)]
        scene = one_person_scene(pts, height=500, width=500)
        params = AugmentParams(
            rotation=float(rng.uniform(-40, 40)),
            scale=float(rng.uniform(0.7, 1.3)),
            translate=tuple(float(v) for v in rng.uniform(-40, 40, size=2)),
        )
        back = augment(augment(scene, params), params.inverse())
        assert len(back.persons) == 1
        for got, p in zip(back.persons[0].joints, pts):
            assert got is not None
            assert math.dist(got, p) <= 1e-6


def test_augment_drops_joints_leaving_canvas():
    scene = one_person_scene([(1.0, 10.0), (30.0, 30.0), (62.0, 10.0), (30.0, 60.0)])
    out = augment(scene, AugmentParams(translate=(-10.0, 0.0)))
    joints = out.persons[0].joints
    assert joints[0] is None  # pushed past the left edge
    assert joints[1] == (20.0, 30.0)
    assert joints[2] == (52.0, 10.0)


def test_augment_drops_person_losing_all_joints():
    scene = one_person_scene([(1.0, 1.0), (2.0, 2.0), (1.0, 2.0), (2.0, 1.0)])
    out = augment(scene, AugmentParams(translate=(-30.0, -30.0)))
    assert out.persons == ()


def test_augment_parameter_errors():
    scene = one_person_scene([(10.0, 10.0), (20.0, 20.0), (30.0, 30.0), (40.0, 40.0)])
    with pytest.raises(ParameterError):
        augment(scene, AugmentParams(scale=0.0))
    with pytest.raises(ParameterError):
        augment(scene, AugmentParams(scale=-1.0))
    with pytest.raises(ParameterError):
        augment(scene, AugmentParams(rotation=60.0), enforce_ranges=True)
    with pytest.raises(ParameterError):
        augment(scene, AugmentParams(scale=1.5), enforce_ranges=True)
    with pytest.raises(ParameterError):
        augment(scene, AugmentParams(translate=(50.0, 0.0)), enforce_ranges=True)
    with pytest.raises(ParameterError):
        AugmentParams(mirror=True).inverse()
    # In-range params pass the explicit check.
    augment(scene, AugmentParams(rotation=40.0, scale=1.3), enforce_ranges=True)


def test_augment_transforms_explicit_centroid():
    scene = one_person_scene(
        [(10.0, 10.0), (20.0, 20.0), (30.0, 30.0), (40.0, 40.0)], centroid=(25.0, 25.0)
    )
    out = augment(scene, AugmentParams(translate=(3.0, 4.0)))
    assert out.persons[0].centroid == (28.0, 29.0)


# --- JSON codec -------------------------------------------------------------


def test_scene_json_round_trip(tmp_path):
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
        persons.append(
            PersonAnnotation(
                joints=tuple(slots),
                centroid=(100.5, 90.25) if rng.random() < 0.5 else None,
                head_box=(10.0, 10.0, 30.0, 40.0) if rng.random() < 0.5 else None,
            )
        )
    scene = Scene(height=220, width=210, joint_layout=layout, persons=tuple(persons))
    scene.validate()
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    back = load_scene(path)
    assert back == scene
    # Serialization is stable: a second dump of the parsed scene is identical.
    assert dump_scene(back) == dump_scene(scene)


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

    bad_group = json.loads(json.dumps(good))
    bad_group["joint_spec"][0]["group"] = "spine"
    with pytest.raises(SchemaError):
        scene_from_dict(bad_group)

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


@pytest.mark.parametrize(
    "key, value",
    [
        ("id", "x"),
        ("id", 0.5),
        ("id", 0.0),
        ("id", False),
        ("rank", "0"),
        ("rank", True),
        ("mirror_id", 1.5),
        ("mirror_id", None),
        ("name", 7),
        ("name", None),
        ("group", "spine"),
        ("group", ["neck"]),
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
    swapped[0]["group"] = "limb"  # no neck left
    with pytest.raises(SchemaError, match="neck"):
        layout_from_doc(swapped)


def test_load_scene_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError):
        load_scene(path)
