"""Stick-figure PPM rendering."""
import numpy as np
import pytest

from posepartition.detect import JointCandidate
from posepartition.errors import DimensionError
from posepartition.infer import PersonPose, PoseSet
from posepartition.render import PALETTE, render_poses, write_ppm
from posepartition.scene import JointSpec, PersonAnnotation, Scene


def tiny_scene(height=24, width=20):
    layout = (
        JointSpec(0, "neck", 0),
        JointSpec(1, "torso", 1),
    )
    return Scene(
        height=height,
        width=width,
        joint_layout=layout,
        persons=(PersonAnnotation(joints=((5.0, 5.0), (5.0, 10.0))),),
    )


def one_pose():
    return PoseSet(
        poses=(
            PersonPose(
                joints=(
                    JointCandidate(joint_id=0, position=(5, 5), score=1.0),
                    JointCandidate(joint_id=1, position=(5, 10), score=1.0),
                ),
                final_centroid=(5.0, 7.5),
            ),
        )
    )


def parse_ppm(data):
    assert data.startswith(b"P6\n")
    rest = data[3:]
    dims, maxval, payload = rest.split(b"\n", 2)
    w, h = (int(v) for v in dims.split())
    assert maxval == b"255"
    pixels = np.frombuffer(payload, dtype=np.uint8)
    return pixels.reshape(h, w, 3)


def test_header_and_payload_size():
    scene = tiny_scene()
    data = render_poses(one_pose(), scene)
    img = parse_ppm(data)
    assert img.shape == (24, 20, 3)
    assert len(data) == len(b"P6\n20 24\n255\n") + 24 * 20 * 3


def test_assigned_joints_are_painted_in_the_person_color():
    img = parse_ppm(render_poses(one_pose(), tiny_scene()))
    assert tuple(img[5, 5]) == PALETTE[0]
    assert tuple(img[10, 5]) == PALETTE[0]
    # A far corner stays white.
    assert tuple(img[23, 19]) == (255, 255, 255)


def test_empty_pose_set_renders_a_blank_canvas():
    img = parse_ppm(render_poses(PoseSet(poses=()), tiny_scene()))
    assert np.all(img == 255)


def test_rendering_is_deterministic_and_colors_cycle():
    scene = tiny_scene()
    poses = PoseSet(
        poses=(
            PersonPose(
                joints=(JointCandidate(joint_id=0, position=(3, 3), score=1.0), None),
                final_centroid=(3.0, 3.0),
            ),
            PersonPose(
                joints=(JointCandidate(joint_id=0, position=(14, 14), score=1.0), None),
                final_centroid=(14.0, 14.0),
            ),
        )
    )
    a = render_poses(poses, scene)
    b = render_poses(poses, scene)
    assert a == b
    img = parse_ppm(a)
    assert tuple(img[3, 3]) == PALETTE[0]
    assert tuple(img[14, 14]) == PALETTE[1]


def test_joints_near_the_border_are_clipped_not_fatal():
    scene = tiny_scene()
    poses = PoseSet(
        poses=(
            PersonPose(
                joints=(JointCandidate(joint_id=0, position=(0, 0), score=1.0), None),
                final_centroid=(0.0, 0.0),
            ),
        )
    )
    img = parse_ppm(render_poses(poses, scene))
    assert tuple(img[0, 0]) == PALETTE[0]


def test_write_ppm_matches_render(tmp_path):
    scene = tiny_scene()
    path = tmp_path / "out.ppm"
    write_ppm(one_pose(), scene, path)
    assert path.read_bytes() == render_poses(one_pose(), scene)


def test_poses_with_the_wrong_joint_slot_count_are_rejected():
    # One slot short used to raise IndexError; one slot over was ignored.
    scene = tiny_scene()
    good = one_pose().poses[0]
    for slots in (good.joints[:1], good.joints + (None,)):
        bad = PersonPose(joints=slots, final_centroid=(5.0, 5.0))
        with pytest.raises(DimensionError, match="pose 1 has %d joint slots, scene has 2" % len(slots)):
            render_poses(PoseSet(poses=(good, bad)), scene)
