"""Forward model: confidence maps, regression maps, and the map losses."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posepartition.errors import DimensionError, ParameterError
from posepartition.maps import (
    ConfidenceMapSet,
    ForwardParams,
    RegressionMapSet,
    _bump_reach,
    _bump_template,
    build_confidence_maps,
    build_regression_maps,
    map_loss,
)
from posepartition.scene import JointSpec, PersonAnnotation, Scene, person_centroid


def layout_k(k):
    """k-joint layout: neck, then torso joints."""
    specs = [JointSpec(0, "neck", 0)]
    for j in range(1, k):
        specs.append(JointSpec(j, "t%d" % j, j))
    return tuple(specs)


def make_scene(person_joints, height=64, width=64, k=None):
    """Scene from per-person joint lists; None entries mark absent joints."""
    if k is None:
        k = max(len(js) for js in person_joints)
    persons = []
    for joints in person_joints:
        slots = list(joints) + [None] * (k - len(joints))
        persons.append(PersonAnnotation(joints=tuple(slots)))
    return Scene(height=height, width=width, joint_layout=layout_k(k), persons=tuple(persons))


def random_scene(rng, k=3, height=32, width=32, max_persons=3):
    n = int(rng.integers(1, max_persons + 1))
    persons = []
    for _ in range(n):
        joints = [
            tuple(float(v) for v in rng.integers(0, (width, height)))
            for _ in range(k)
        ]
        persons.append(joints)
    return make_scene(persons, height=height, width=width, k=k)


# --- confidence maps --------------------------------------------------------


def test_confidence_peak_is_exactly_one():
    scene = make_scene([[(30.0, 40.0)]], height=64, width=64)
    conf = build_confidence_maps(scene)
    assert conf.values[0, 40, 30] == 1.0


def test_confidence_seven_pixels_from_peak():
    scene = make_scene([[(30.0, 40.0)]], height=64, width=64)
    conf = build_confidence_maps(scene)
    # Bump width 7: seven pixels out, the value is exp(-49/49).
    assert abs(float(conf.values[0, 40, 37]) - math.exp(-1.0)) <= 1e-6


def test_confidence_two_persons_take_the_max():
    scene = make_scene([[(10.0, 10.0)], [(12.0, 10.0)]], height=32, width=32)
    conf = build_confidence_maps(scene)
    # Midway between the two peaks both Gaussians agree; max keeps that value.
    assert abs(float(conf.values[0, 10, 11]) - math.exp(-1.0 / 49.0)) <= 1e-6
    assert conf.values[0, 10, 10] == 1.0
    assert conf.values[0, 10, 12] == 1.0


def test_confidence_matches_per_person_formula_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        scene = random_scene(rng)
        conf = build_confidence_maps(scene)
        k, h, w = conf.values.shape
        oracle = np.zeros((k, h, w))
        for person in scene.persons:
            for j, pos in enumerate(person.joints):
                if pos is None:
                    continue
                for y in range(h):
                    for x in range(w):
                        d2 = (x - pos[0]) ** 2 + (y - pos[1]) ** 2
                        oracle[j, y, x] = max(oracle[j, y, x], math.exp(-d2 / 49.0))
        np.testing.assert_allclose(conf.values, oracle, atol=1e-6)


def test_confidence_is_max_of_single_person_maps():
    rng = np.random.default_rng(7)
    for _ in range(10):
        scene = random_scene(rng)
        conf = build_confidence_maps(scene)
        singles = [
            build_confidence_maps(
                Scene(
                    height=scene.height,
                    width=scene.width,
                    joint_layout=scene.joint_layout,
                    persons=(person,),
                )
            ).values
            for person in scene.persons
        ]
        np.testing.assert_array_equal(conf.values, np.max(singles, axis=0))


def test_confidence_monotone_in_sigma():
    rng = np.random.default_rng(13)
    scene = random_scene(rng)
    narrow = build_confidence_maps(scene, ForwardParams(sigma=5.0))
    wide = build_confidence_maps(scene, ForwardParams(sigma=9.0))
    assert np.all(wide.values >= narrow.values)


def full_canvas_confidence(scene, sigma):
    """Reference synthesis: every bump evaluated over the whole canvas with
    the same float32 expression as build_confidence_maps."""
    k, h, w = scene.num_joints, scene.height, scene.width
    out = np.zeros((k, h, w), dtype=np.float32)
    xs = np.arange(w, dtype=np.float32)
    ys = np.arange(h, dtype=np.float32)
    neg_inv = np.float32(-1.0 / (sigma * sigma))
    for person in scene.persons:
        for j, pos in enumerate(person.joints):
            if pos is None:
                continue
            dx2 = np.square(xs - np.float32(pos[0]))
            dy2 = np.square(ys - np.float32(pos[1]))
            bump = dy2[:, None] + dx2[None, :]
            bump *= neg_inv
            np.exp(bump, out=bump)
            np.maximum(out[j], bump, out=out[j])
    return out


def coordinate(extent):
    """A position in [0, extent): on or next to an edge, on any pixel, or anywhere."""
    edges = [0.0, 0.5, extent - 1.0, extent - 0.5, float(np.nextafter(extent, 0.0))]
    return (
        st.sampled_from([e for e in edges if 0.0 <= e < extent])
        | st.integers(0, extent - 1).map(float)
        | st.floats(0.0, extent, exclude_max=True)
    )


@st.composite
def confidence_scenes(draw):
    h = draw(st.integers(1, 512))
    w = draw(st.integers(1, 512))
    k = draw(st.integers(1, 2))
    persons = [
        [(draw(coordinate(w)), draw(coordinate(h))) for _ in range(k)]
        for _ in range(draw(st.integers(1, 3)))
    ]
    sigma = draw(st.floats(0.2, 40.0))
    return make_scene(persons, height=h, width=w, k=k), sigma


@settings(max_examples=60, deadline=None)
@given(confidence_scenes())
def test_truncated_bumps_match_full_canvas_bytes(case):
    scene, sigma = case
    got = build_confidence_maps(scene, ForwardParams(sigma=sigma)).values
    assert got.tobytes() == full_canvas_confidence(scene, sigma).tobytes()


def test_template_stays_within_the_canvas_for_wide_bumps():
    # The reach at sigma 1e4 is about 102k px; the template must not span it.
    scene = make_scene([[(0.0, 7.0)], [(5.0, 2.0)], [(2.5, 3.0)]], height=8, width=6)
    got = build_confidence_maps(scene, ForwardParams(sigma=1e4)).values
    assert got.tobytes() == full_canvas_confidence(scene, 1e4).tobytes()


def test_the_bump_template_is_cached_read_only():
    scene = make_scene([[(10.0, 20.0), (30.0, 40.0)]])
    first = build_confidence_maps(scene).values
    template = _bump_template(7.0, min(_bump_reach(7.0), 63))
    assert not template.flags.writeable
    with pytest.raises(ValueError):
        template[0, 0] = 0.5
    hits = _bump_template.cache_info().hits
    again = build_confidence_maps(scene).values
    assert _bump_template.cache_info().hits == hits + 1
    assert again.tobytes() == first.tobytes()


def test_confidence_values_in_unit_interval():
    rng = np.random.default_rng(29)
    for _ in range(5):
        conf = build_confidence_maps(random_scene(rng))
        assert float(conf.values.min()) >= 0.0
        assert float(conf.values.max()) <= 1.0


def test_confidence_absent_joint_leaves_plane_empty():
    scene = make_scene([[(10.0, 10.0), None, (20.0, 20.0)]], k=3)
    conf = build_confidence_maps(scene)
    assert np.all(conf.values[1] == 0.0)


# --- regression maps --------------------------------------------------------


def test_regression_offset_toward_centroid():
    # The person's centroid is its joints' mean, (50, 50).
    scene = make_scene([[(50.0, 40.0), (50.0, 60.0)]], height=100, width=100)
    reg = build_regression_maps(scene)
    z = math.hypot(100, 100)
    got = reg.values[0, 40, 50]
    assert abs(float(got[0]) - 0.0) <= 1e-9
    assert abs(float(got[1]) - 10.0 / z) <= 1e-7
    assert abs(reg.norm_factor - z) <= 1e-12


def test_regression_zero_outside_radius():
    scene = make_scene([[(50.0, 40.0), (50.0, 60.0)]], height=100, width=100)
    reg = build_regression_maps(scene)
    # Eight pixels out along an axis, and at a diagonal 5,5 (distance ~7.07),
    # both beyond the radius-7 disk.
    assert tuple(reg.values[0, 40, 58]) == (0.0, 0.0)
    assert tuple(reg.values[0, 45, 55]) == (0.0, 0.0)
    # Exactly 7 pixels out along an axis is inside (closed disk).
    assert tuple(reg.values[0, 40, 57]) != (0.0, 0.0)


def test_regression_matches_formula_oracle():
    rng = np.random.default_rng(31)
    for _ in range(8):
        scene = random_scene(rng, k=2, height=40, width=36)
        reg = build_regression_maps(scene)
        k, h, w = reg.num_joints, reg.height, reg.width
        z = math.hypot(h, w)
        oracle = np.zeros((k, h, w, 2))
        for j in range(k):
            for y in range(h):
                for x in range(w):
                    vecs = []
                    for person in scene.persons:
                        pos = person.joints[j]
                        if pos is None:
                            continue
                        if (x - pos[0]) ** 2 + (y - pos[1]) ** 2 > 49.0:
                            continue
                        cx, cy = (
                            sum(p[0] for p in person.joints if p) / sum(1 for p in person.joints if p),
                            sum(p[1] for p in person.joints if p) / sum(1 for p in person.joints if p),
                        )
                        v = ((cx - x) / z, (cy - y) / z)
                        if v != (0.0, 0.0):
                            vecs.append(v)
                    if vecs:
                        oracle[j, y, x, 0] = sum(v[0] for v in vecs) / len(vecs)
                        oracle[j, y, x, 1] = sum(v[1] for v in vecs) / len(vecs)
        np.testing.assert_allclose(reg.values, oracle, atol=1e-7)


def test_regression_overlap_averages_two_contributors():
    # Joint means (30, 30) and (10, 10).
    scene = make_scene(
        [[(20.0, 20.0), (35.0, 35.0), (35.0, 35.0)], [(26.0, 20.0), (2.0, 5.0), (2.0, 5.0)]],
        height=64,
        width=64,
    )
    reg = build_regression_maps(scene)
    z = math.hypot(64, 64)
    # (23, 20) sits 3 px from both joints: average of the two offsets.
    ex = ((30.0 - 23.0) / z + (10.0 - 23.0) / z) / 2.0
    ey = ((30.0 - 20.0) / z + (10.0 - 20.0) / z) / 2.0
    got = reg.values[0, 20, 23]
    assert abs(float(got[0]) - ex) <= 1e-7
    assert abs(float(got[1]) - ey) <= 1e-7
    # (14, 20) is only in the first person's disk: that offset alone.
    got_single = reg.values[0, 20, 14]
    assert abs(float(got_single[0]) - (30.0 - 14.0) / z) <= 1e-7
    assert abs(float(got_single[1]) - (30.0 - 20.0) / z) <= 1e-7


def test_regression_zero_vector_at_coincident_centroid():
    # A one-joint person stands exactly on their centroid: a zero vector
    # there but proper offsets at the rest of the disk.
    scene = make_scene([[(20.0, 20.0)]], height=64, width=64)
    reg = build_regression_maps(scene)
    assert tuple(reg.values[0, 20, 20]) == (0.0, 0.0)
    z = math.hypot(64, 64)
    assert abs(float(reg.values[0, 20, 23, 0]) - (-3.0 / z)) <= 1e-7


def test_regression_single_person_votes_recover_centroid():
    rng = np.random.default_rng(41)
    for _ in range(10):
        scene = random_scene(rng, k=3, height=48, width=40, max_persons=1)
        conf = build_confidence_maps(scene)
        reg = build_regression_maps(scene)
        z = reg.norm_factor
        cx, cy = (
            sum(p[0] for p in scene.persons[0].joints) / 3.0,
            sum(p[1] for p in scene.persons[0].joints) / 3.0,
        )
        checked = 0
        for j, pos in enumerate(scene.persons[0].joints):
            for y in range(reg.height):
                for x in range(reg.width):
                    in_disk = (x - pos[0]) ** 2 + (y - pos[1]) ** 2 <= 49.0
                    if not in_disk or float(conf.values[j, y, x]) < 0.1:
                        continue
                    hx = x + z * float(reg.values[j, y, x, 0])
                    hy = y + z * float(reg.values[j, y, x, 1])
                    assert math.dist((hx, hy), (cx, cy)) <= 1e-6 * z
                    checked += 1
        assert checked > 0


def full_canvas_regression(scene, radius):
    """Reference synthesis: float64 sums and counts over the whole canvas for
    every channel at once, persons in scene order, each disk clipped to its
    window, then the mean on pixels with several contributors."""
    k, h, w = scene.num_joints, scene.height, scene.width
    z = scene.norm_factor
    sums = np.zeros((k, h, w, 2), dtype=np.float64)
    counts = np.zeros((k, h, w), dtype=np.int32)
    r2 = radius * radius
    ri = math.floor(radius)
    for person in scene.persons:
        cx, cy = person_centroid(person)
        for j, pos in enumerate(person.joints):
            if pos is None:
                continue
            x0, y0 = pos
            if x0 == int(x0) and y0 == int(y0):
                xlo, xhi = max(0, int(x0) - ri), min(w - 1, int(x0) + ri)
                ylo, yhi = max(0, int(y0) - ri), min(h - 1, int(y0) + ri)
            else:
                xlo, xhi = max(0, math.ceil(x0 - radius)), min(w - 1, math.floor(x0 + radius))
                ylo, yhi = max(0, math.ceil(y0 - radius)), min(h - 1, math.floor(y0 + radius))
            if xlo > xhi or ylo > yhi:
                continue
            xs = np.arange(xlo, xhi + 1, dtype=np.float64)
            ys = np.arange(ylo, yhi + 1, dtype=np.float64)
            inside = (ys[:, None] - y0) ** 2 + (xs[None, :] - x0) ** 2 <= r2
            offx = np.broadcast_to((cx - xs)[None, :] / z, inside.shape)
            offy = np.broadcast_to((cy - ys)[:, None] / z, inside.shape)
            nonzero = inside & ((offx != 0.0) | (offy != 0.0))
            sums[j, ylo : yhi + 1, xlo : xhi + 1, 0] += np.where(nonzero, offx, 0.0)
            sums[j, ylo : yhi + 1, xlo : xhi + 1, 1] += np.where(nonzero, offy, 0.0)
            counts[j, ylo : yhi + 1, xlo : xhi + 1] += nonzero
    overlap = counts > 1
    sums[overlap] /= counts[overlap, None]
    return sums.astype(np.float32)


@st.composite
def regression_scenes(draw):
    h = draw(st.integers(1, 64))
    w = draw(st.integers(1, 64))
    k = draw(st.integers(1, 3))
    # Small disks, and disks up to past the whole canvas.
    radius = draw(st.integers(0, 20).map(float) | st.floats(0.0, 20.0) | st.floats(0.0, 100.0))
    # Each category's joints crowd around an anchor, so that the disks of
    # several persons overlap, often three or more on one pixel.
    anchors = [(draw(coordinate(w)), draw(coordinate(h))) for _ in range(k)]

    def near(j):
        ax, ay = anchors[j]
        return st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
            lambda d: (min(max(ax + d[0], 0.0), w - 1.0), min(max(ay + d[1], 0.0), h - 1.0))
        )

    persons = []
    for _ in range(draw(st.integers(2, 8))):
        joints = [
            draw(st.none() | near(j) | st.tuples(coordinate(w), coordinate(h)))
            for j in range(k)
        ]
        if all(p is None for p in joints):
            joints[0] = anchors[0]
        # A joint mean on a pixel inside some disk (a one-joint person on a
        # pixel, say) gives that pixel a zero vector, which is not counted.
        persons.append(PersonAnnotation(joints=tuple(joints)))
    return Scene(height=h, width=w, joint_layout=layout_k(k), persons=tuple(persons)), radius


# Seven persons whose joint-0 disks all cover (20, 20), summed in scene
# order; their second joints pull the centroids every way, one to within
# 1e-9 of the pixel.
CROWDED_PIXEL = make_scene(
    [
        [(20.0, 20.0), (0.0, 39.0)], [(21.0, 20.0), (39.0, 0.0)],
        [(19.5, 20.5), (20.5, 19.5 + 2e-9)], [(20.0, 18.0), (39.0, 39.0)],
        [(22.0, 21.0), (0.5, 0.5)], [(20.25, 19.0), (20.0, 5.0)], [(18.0, 22.0), (31.7, 20.0)],
    ],
    height=40,
    width=40,
)


# Integer joints on all four canvas edges.  Their windows come from the
# same rule as other joints: one ulp under radius 7, x0 - r rounds to
# x0 - 7, so a window grows by a pixel that the disk test then drops.
EDGE_JOINTS = make_scene(
    [[(0.0, 0.0), (23.0, 12.0)], [(23.0, 23.0), (0.0, 17.0)], [(12.0, 23.0), (9.0, 0.0)]],
    height=24,
    width=24,
)


# No two disks share a pixel: every pixel is a lone store.
APART_DISKS = make_scene(
    [[(5.0, 5.0), (30.0, 5.0)], [(5.0, 30.0), (30.0, 30.0)], [(50.5, 50.0), (50.0, 10.25)]],
    height=64,
    width=64,
)


# Joint 0's disks lie apart and joint 1's overlap, so one call stores lone
# pixels and shared ones.
MIXED_DISKS = make_scene(
    [[(5.0, 5.0), (30.0, 30.0)], [(50.0, 5.0), (32.0, 30.0)], [(5.0, 50.0), (30.5, 32.0)]],
    height=64,
    width=64,
)


# 300 persons whose joint-0 disks pile on (20, 20), their second joints all
# over the canvas, so the pile centre sums 300 different offsets in order.
PILED_DISKS = make_scene(
    [[(20.0, 20.0), (float(i * 7 % 64), float(i * 13 % 48))] for i in range(300)],
    height=48,
    width=64,
)


def disk_counts(scene, radius):
    """Contributions per (joint, pixel), from the reference's disk rule."""
    counts = np.zeros((scene.num_joints, scene.height, scene.width), dtype=np.int64)
    ys, xs = np.mgrid[: scene.height, : scene.width]
    for person in scene.persons:
        cx, cy = person_centroid(person)
        for j, pos in enumerate(person.joints):
            if pos is not None:
                inside = (ys - pos[1]) ** 2 + (xs - pos[0]) ** 2 <= radius * radius
                counts[j] += inside & ((xs != cx) | (ys != cy))
    return counts


def test_the_store_examples_have_the_disk_layout_they_name():
    assert disk_counts(APART_DISKS, 5.0).max() == 1
    mixed = disk_counts(MIXED_DISKS, 5.0)
    assert mixed[0].max() == 1 and mixed[1].max() > 1
    assert disk_counts(PILED_DISKS, 7.0)[0, 20, 20] == 300


@settings(max_examples=150, deadline=None)
@given(regression_scenes())
@example((APART_DISKS, 5.0))
@example((MIXED_DISKS, 5.0))
@example((PILED_DISKS, 7.0))
@example((CROWDED_PIXEL, 5.0))
@example((EDGE_JOINTS, math.nextafter(7.0, 0.0)))
@example((EDGE_JOINTS, math.nextafter(7.0, 8.0)))
@example((EDGE_JOINTS, 6.5))
def test_window_local_regression_matches_full_canvas_bytes(case):
    scene, radius = case
    got = build_regression_maps(scene, ForwardParams(radius=radius)).values
    assert got.tobytes() == full_canvas_regression(scene, radius).tobytes()


def test_regression_sums_overlaps_in_scene_order():
    # Three persons share a joint; their second joints put the centroids at
    # about (94.3, 93.7), (33.7, 34.3) and 1e-9 past (64, 64).  At (64, 64)
    # the first two offsets nearly cancel and the third is tiny, so float64
    # addition order shows in the float32 output: the last contribution
    # must be added last.
    persons = [[(64.0, 64.0), (124.6, 123.4)], [(64.0, 64.0), (3.4, 4.6)], [(64.0, 64.0), (64.0 + 2e-9,) * 2]]
    scene = make_scene(persons, height=128, width=128)
    reordered = make_scene(persons[::-1], height=128, width=128)
    params = ForwardParams(radius=3.0)
    assert full_canvas_regression(scene, 3.0).tobytes() != full_canvas_regression(reordered, 3.0).tobytes()
    for s in (scene, reordered):
        assert build_regression_maps(s, params).values.tobytes() == full_canvas_regression(s, 3.0).tobytes()


def test_regression_radius_far_past_the_canvas_matches_full_canvas_bytes():
    # The windows are clipped to the canvas before any array is built, so a
    # radius of 1e6 costs no more than one covering the canvas.
    scene = make_scene(
        [[(0.0, 7.0), (3.5, 2.0)], [(5.0, 2.0), None], [(2.5, 3.0), (5.0, 7.0)]],
        height=8,
        width=6,
    )
    got = build_regression_maps(scene, ForwardParams(radius=1e6)).values
    assert got.tobytes() == full_canvas_regression(scene, 1e6).tobytes()


def test_regression_memory_follows_the_canvas_not_the_radius():
    scene = make_scene([[(3.0, 5.0), (7.5, 0.25)], [(31.0, 31.0), (12.0, 30.5)]], height=32, width=32)
    params = ForwardParams(radius=1e6)
    tracemalloc.start()
    try:
        out = build_regression_maps(scene, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Both disks cover the canvas, so the pixel list holds two entries per
    # output pixel; a disk template of side 2r+1 would need 29 TiB.
    assert peak < 32 * out.values.nbytes


def test_regression_vector_magnitudes_bounded_by_one():
    rng = np.random.default_rng(43)
    for _ in range(5):
        reg = build_regression_maps(random_scene(rng))
        mags = np.hypot(reg.values[..., 0], reg.values[..., 1])
        assert float(mags.max()) <= 1.0


def mean_left_to_right(points):
    sx = sy = 0.0
    for x, y in points:
        sx += x
        sy += y
    return (sx / len(points), sy / len(points))


@settings(max_examples=150, deadline=None)
@given(regression_scenes())
def test_regression_offsets_toward_the_joint_mean_stay_within_one(case):
    # A person's centroid is the mean of its joints, so it lies on the
    # canvas, and no offset from a canvas pixel to it reaches the diagonal Z.
    scene, radius = case
    for person in scene.persons:
        assert person_centroid(person) == mean_left_to_right([p for p in person.joints if p is not None])
    values = build_regression_maps(scene, ForwardParams(radius=radius)).values
    assert float(np.abs(values).max(initial=0.0)) <= 1.0


# --- parameters and container invariants ------------------------------------


def test_forward_params_validation():
    with pytest.raises(ParameterError):
        ForwardParams(sigma=0.0)
    with pytest.raises(ParameterError):
        ForwardParams(radius=-1.0)


def test_sigma_at_either_end_of_its_range_gives_finite_maps():
    lo, hi = 5.421011023986243e-20, 1.762783148868218e307
    for out in (math.nextafter(lo, 0.0), math.nextafter(hi, math.inf)):
        with pytest.raises(ParameterError, match="sigma"):
            ForwardParams(sigma=out)
    scene = make_scene([[(30.0, 40.0), (10.5, 3.25)]], height=64, width=64)
    narrow = build_confidence_maps(scene, ForwardParams(sigma=lo)).values
    wide = build_confidence_maps(scene, ForwardParams(sigma=hi)).values
    assert narrow[0].sum() == narrow[0, 40, 30] == 1.0
    assert not narrow[1].any()
    assert (wide == 1.0).all()


def test_map_sets_are_read_only_and_shape_checked():
    conf = ConfidenceMapSet(np.zeros((2, 4, 4), dtype=np.float32))
    with pytest.raises(ValueError):
        conf.values[0, 0, 0] = 1.0
    with pytest.raises(DimensionError):
        ConfidenceMapSet(np.zeros((4, 4), dtype=np.float32))
    with pytest.raises(DimensionError):
        RegressionMapSet(np.zeros((2, 4, 4, 3), dtype=np.float32))
    with pytest.raises(DimensionError):
        RegressionMapSet(np.zeros((2, 0, 4, 2), dtype=np.float32))


# --- losses ------------------------------------------------------------------


def test_map_loss_zero_on_identical_inputs():
    a = ConfidenceMapSet(np.full((2, 3, 3), 0.25, dtype=np.float32))
    b = ConfidenceMapSet(np.full((2, 3, 3), 0.25, dtype=np.float32))
    assert map_loss(a, b) == 0.0


def test_map_loss_single_cell_difference():
    base = np.zeros((1, 4, 4), dtype=np.float32)
    bumped = base.copy()
    bumped[0, 1, 2] = 0.5
    assert map_loss(ConfidenceMapSet(bumped), ConfidenceMapSet(base)) == 0.25


def test_map_loss_matches_double_loop_oracle():
    rng = np.random.default_rng(53)
    for _ in range(20):
        a = rng.random((3, 4, 4), dtype=np.float64).astype(np.float32)
        b = rng.random((3, 4, 4), dtype=np.float64).astype(np.float32)
        got = map_loss(ConfidenceMapSet(a), ConfidenceMapSet(b))
        expect = 0.0
        for j in range(3):
            for y in range(4):
                for x in range(4):
                    expect += (float(a[j, y, x]) - float(b[j, y, x])) ** 2
        assert abs(got - expect) <= 1e-9


def test_map_loss_symmetric_and_definite():
    rng = np.random.default_rng(59)
    a = ConfidenceMapSet(rng.random((2, 5, 5)).astype(np.float32))
    b = ConfidenceMapSet(rng.random((2, 5, 5)).astype(np.float32))
    assert map_loss(a, b) == map_loss(b, a)
    assert map_loss(a, b) > 0.0


def test_map_loss_rejects_mismatched_inputs():
    conf = ConfidenceMapSet(np.zeros((1, 3, 3), dtype=np.float32))
    other = ConfidenceMapSet(np.zeros((1, 3, 4), dtype=np.float32))
    reg = RegressionMapSet(np.zeros((1, 3, 3, 2), dtype=np.float32))
    with pytest.raises(DimensionError):
        map_loss(conf, other)
    with pytest.raises(DimensionError):
        map_loss(conf, reg)

