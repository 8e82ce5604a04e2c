"""Peak detection and suppression over confidence maps."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from posepartition.config import PipelineConfig
from posepartition.corpus import CorpusSpec, generate_corpus
from posepartition.detect import DetectorParams, JointCandidate, detect_candidates
from posepartition.errors import DimensionError, ParameterError
from posepartition.maps import ConfidenceMapSet, RegressionMapSet, build_confidence_maps
from posepartition.pipeline import decode_maps, synth_maps
from posepartition.pmap import read_confidence, write_map_set
from posepartition.scene import JointSpec, PersonAnnotation, Scene


def conf_from_planes(*planes):
    return ConfidenceMapSet(np.stack([np.asarray(p, dtype=np.float32) for p in planes]))


def oracle_detect(values, tau=0.1, nms_radius=3):
    """Quadratic-time reference: explicit neighbor scans, then greedy
    suppression over all retained peak pairs of the same joint."""
    k, h, w = values.shape
    out = []
    for j in range(k):
        peaks = []
        for y in range(h):
            for x in range(w):
                v = float(values[j, y, x])
                ge_all = True
                gt_any = False
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        if dy == 0 and dx == 0:
                            continue
                        ny, nx = y + dy, x + dx
                        if not (0 <= ny < h and 0 <= nx < w):
                            continue
                        nv = float(values[j, ny, nx])
                        if v < nv:
                            ge_all = False
                        if v > nv:
                            gt_any = True
                if ge_all and gt_any and v >= tau:
                    peaks.append((v, y, x))
        peaks.sort(key=lambda t: (-t[0], t[1], t[2]))
        kept = []
        for v, y, x in peaks:
            if any(max(abs(y - ky), abs(x - kx)) <= nms_radius for _, ky, kx in kept):
                continue
            kept.append((v, y, x))
        for v, y, x in kept:
            out.append(JointCandidate(joint_id=j, position=(x, y), score=v))
    out.sort(key=lambda c: c.sort_key())
    return out


def test_single_peak_detected_at_annotation():
    layout = (JointSpec(0, "neck", 0),)
    scene = Scene(
        height=64,
        width=64,
        joint_layout=layout,
        persons=(PersonAnnotation(joints=((30.0, 40.0),)),),
    )
    cands = detect_candidates(build_confidence_maps(scene))
    assert cands == [JointCandidate(joint_id=0, position=(30, 40), score=1.0)]


def test_all_zero_map_yields_nothing():
    assert detect_candidates(conf_from_planes(np.zeros((8, 8)))) == []


def test_constant_plateau_yields_nothing():
    assert detect_candidates(conf_from_planes(np.full((8, 8), 0.7))) == []


def test_single_pixel_map_with_mass_is_a_peak():
    # A 1x1 map has no neighbors at all, so its sole cell never clears the
    # strictness rule; a 2x1 map with distinct values does.
    assert detect_candidates(conf_from_planes([[0.9]])) == []
    got = detect_candidates(conf_from_planes([[0.9], [0.4]]))
    assert got == [JointCandidate(joint_id=0, position=(0, 0), score=pytest.approx(0.9))]


def test_close_peaks_suppressed_far_peaks_kept():
    plane = np.zeros((16, 16))
    plane[5, 5] = 1.0
    plane[5, 7] = 0.9  # 2 px away: suppressed by the radius-3 window
    plane[5, 13] = 0.8  # 8 px away: kept
    got = detect_candidates(conf_from_planes(plane))
    positions = [c.position for c in got]
    assert positions == [(5, 5), (13, 5)]


def test_equal_score_neighbors_keep_row_major_first():
    plane = np.zeros((9, 9))
    plane[4, 3] = 0.8
    plane[4, 5] = 0.8
    got = detect_candidates(conf_from_planes(plane))
    assert [c.position for c in got] == [(3, 4)]


def test_below_threshold_peaks_dropped():
    plane = np.zeros((9, 9))
    plane[4, 4] = 0.09
    assert detect_candidates(conf_from_planes(plane)) == []
    plane[4, 4] = 0.1
    assert [c.score for c in detect_candidates(conf_from_planes(plane))] == [pytest.approx(0.1)]


def test_threshold_compares_float32_values_with_float64_tau():
    plane = np.zeros((9, 9), dtype=np.float32)
    plane[4, 4] = np.float32(0.7)  # 0.69999999, just below 0.7
    assert detect_candidates(conf_from_planes(plane), DetectorParams(tau=0.7)) == []
    plane[4, 4] = np.float32(0.1)  # 0.10000000149, just above 0.1
    got = detect_candidates(conf_from_planes(plane), DetectorParams(tau=0.1))
    assert got == [JointCandidate(joint_id=0, position=(4, 4), score=float(np.float32(0.1)))]


def test_infinite_pixel_at_or_above_tau_is_rejected():
    plane = np.zeros((9, 9), dtype=np.float32)
    plane[2, 5] = 0.8
    other = plane.copy()
    other[6, 3] = np.inf
    with pytest.raises(ParameterError, match=r"joint 1 is \+inf at \(3, 6\)"):
        detect_candidates(conf_from_planes(plane, other))
    # A +inf plateau has no strict maximum inside it, but it is still rejected.
    other[:] = np.inf
    with pytest.raises(ParameterError, match="joint 1"):
        detect_candidates(conf_from_planes(plane, other))
    # -inf never reaches tau: it yields no candidate and no error.
    other[:] = 0.0
    other[6, 3] = -np.inf
    assert detect_candidates(conf_from_planes(plane, other)) == [
        JointCandidate(joint_id=0, position=(5, 2), score=float(np.float32(0.8)))
    ]
    # NaN is rejected wherever it lies, far from any pixel at or above tau.
    other[0, 0] = np.nan
    with pytest.raises(ParameterError, match=r"joint 1 is NaN at \(0, 0\)"):
        detect_candidates(conf_from_planes(plane, other))


def test_nan_neighbor_of_a_pixel_at_or_above_tau_is_rejected():
    plane = np.zeros((9, 9), dtype=np.float32)
    plane[4, 0] = 0.8
    # The pixel before (0, 4) in memory ends the row above: not a neighbor,
    # but a NaN there is rejected all the same.
    bad = plane.copy()
    bad[3, 8] = np.nan
    with pytest.raises(ParameterError, match=r"joint 0 is NaN at \(8, 3\)"):
        detect_candidates(conf_from_planes(bad))
    assert [c.position for c in detect_candidates(conf_from_planes(plane))] == [(0, 4)]
    # NaN fails every comparison, so the peak would silently vanish.
    for y, x in ((4, 1), (3, 0), (5, 1)):
        bad = plane.copy()
        bad[y, x] = np.nan
        with pytest.raises(ParameterError, match=r"joint 0 is NaN at \(%d, %d\)" % (x, y)):
            detect_candidates(conf_from_planes(bad))


def test_nan_beside_a_neck_fails_the_decode():
    # Before the check, this decode returned 31 of 32 candidates and a
    # 15-joint pose without an error.
    scene = generate_corpus(CorpusSpec(num_scenes=1, min_persons=2, max_persons=2), 0)[0]
    conf, reg = synth_maps(scene)
    x, y = map(int, scene.persons[0].joints[8])
    values = conf.values.copy()
    values[8, y, x + 1] = np.nan
    with pytest.raises(ParameterError, match=r"joint 8 is NaN at \(%d, %d\)" % (x + 1, y)):
        decode_maps(ConfidenceMapSet(values), reg)


def test_decode_rejects_maps_that_disagree_with_each_other_or_the_layout():
    scene = generate_corpus(CorpusSpec(num_scenes=1), 0)[0]
    conf, reg = synth_maps(scene)
    with pytest.raises(DimensionError, match="disagree"):
        decode_maps(ConfidenceMapSet(conf.values[:, :-1]), reg)
    with pytest.raises(DimensionError, match="maps carry 4 joints but the configured layout has 16"):
        decode_maps(ConfidenceMapSet(conf.values[:4]), RegressionMapSet(reg.values[:4]))


@st.composite
def detector_inputs(draw):
    """Small maps whose values cluster on a few levels (plateaus), including
    the float32 values next to tau, with the 1xN and Nx1 shapes in range."""
    tau = draw(st.sampled_from([0.1, 0.5, 0.7]) | st.floats(0.01, 0.99))
    t32 = np.float32(tau)
    near = [float(np.nextafter(t32, np.float32(0))), float(t32), float(np.nextafter(t32, np.float32(1)))]
    levels = st.sampled_from([-np.inf, 0.0, 0.3, 1.0] + near) | st.floats(0.0, 1.0, width=32)
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    values = draw(arrays(np.float32, shape, elements=levels))
    return values, tau, draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(detector_inputs())
@example((np.array([[[0.3, 0.7, 0.3]]], dtype=np.float32), 0.7, 1))
@example((np.array([[[0.7], [0.3], [0.1]]], dtype=np.float32), 0.1, 1))
def test_detection_matches_oracle_on_generated_maps(case):
    values, tau, radius = case
    got = detect_candidates(ConfidenceMapSet(values), DetectorParams(tau=tau, nms_radius=radius))
    assert got == oracle_detect(values, tau=tau, nms_radius=radius)


# Levels around the default tau: tau itself, the float32 just below it, 0
# and -inf, so runs of pixels at or above tau start, stop and tie often.
BELOW_TAU = float(np.nextafter(np.float32(0.1), np.float32(0)))
RUN_LEVELS = [-np.inf, 0.0, BELOW_TAU, float(np.float32(0.1)), 0.5, 1.0]


def f32(*planes):
    return np.array(planes, dtype=np.float32)


@settings(max_examples=300, deadline=None)
@given(
    arrays(
        np.float32,
        st.tuples(st.integers(1, 3), st.integers(1, 9), st.integers(1, 9)),
        elements=st.sampled_from(RUN_LEVELS),
    ),
    st.sampled_from([1, 3, 11]),
)
# A run crossing a row end: (2, 0) is a peak, though (0, 1) follows it in
# memory and is higher.
@example(f32([[0.0, 0.5, 0.8], [1.0, 0.5, 0.0]]), 1)
# A run crossing from one plane's last pixel into the next plane's first.
@example(f32([[0.0, 0.0], [0.0, 0.5]], [[1.0, 0.0], [0.0, 0.0]]), 1)
# 1xN and Nx1 planes, with ties at and just below tau.
@example(f32([[0.1, 0.5, 0.5, BELOW_TAU, 1.0, 0.1, 0.0, 0.5]]), 1)
@example(f32([[0.1], [0.5], [0.5], [BELOW_TAU], [1.0], [0.1], [0.0], [0.5]]), 1)
def test_the_run_based_row_test_matches_the_oracle_at_row_and_plane_ends(values, radius):
    got = detect_candidates(ConfidenceMapSet(values), DetectorParams(nms_radius=radius))
    assert got == oracle_detect(values, nms_radius=radius)


def test_unaligned_file_read_maps_detect_like_aligned_ones(tmp_path):
    rng = np.random.default_rng(1)
    for i, scene in enumerate(generate_corpus(CorpusSpec(num_scenes=3), 1)):
        conf, _ = synth_maps(scene)
        noisy = conf.values + rng.uniform(-0.05, 0.05, conf.values.shape).astype(np.float32)
        path = tmp_path / ("scene_%d.conf.pmap" % i)
        write_map_set(ConfidenceMapSet(noisy), path)
        read = read_confidence(path)
        assert not read.values.flags.aligned
        got = detect_candidates(read)
        assert got and got == detect_candidates(ConfidenceMapSet(np.array(read.values)))


@settings(max_examples=200, deadline=None)
@given(detector_inputs(), st.data())
def test_nan_or_inf_anywhere_is_rejected_at_the_first_such_pixel(case, data):
    values, tau, radius = case
    values = values.copy()
    cells = st.tuples(*(st.integers(0, n - 1) for n in values.shape))
    placed = data.draw(st.lists(st.tuples(cells, st.sampled_from([np.nan, np.inf])), min_size=1, max_size=4))
    for cell, bad in placed:
        values[cell] = bad
    j, y, x = min(cell for cell, _ in placed)
    what = "NaN" if np.isnan(values[j, y, x]) else r"\+inf"
    with pytest.raises(ParameterError, match=r"joint %d is %s at \(%d, %d\)" % (j, what, x, y)):
        detect_candidates(ConfidenceMapSet(values), DetectorParams(tau=tau, nms_radius=radius))


def test_detection_matches_bruteforce_oracle():
    rng = np.random.default_rng(101)
    for _ in range(100):
        k = int(rng.integers(1, 3))
        h = int(rng.integers(2, 33))
        w = int(rng.integers(2, 33))
        values = rng.random((k, h, w)).astype(np.float32)
        # Sprinkle plateaus and sub-threshold regions to hit the edge rules.
        if rng.random() < 0.3:
            values[values < 0.4] = 0.25
        if rng.random() < 0.3:
            values *= np.float32(0.12)
        got = detect_candidates(ConfidenceMapSet(values))
        expect = oracle_detect(values)
        assert got == expect


def test_detection_complete_on_separated_scenes():
    layout = (
        JointSpec(0, "neck", 0),
        JointSpec(1, "torso", 1),
    )
    rng = np.random.default_rng(103)
    for _ in range(10):
        # Same-joint instances at least 8 px apart (beyond twice the radius).
        cells = [(8 + 16 * i, 8 + 16 * j) for i in range(3) for j in range(3)]
        rng.shuffle(cells)
        n = int(rng.integers(1, 4))
        persons = tuple(
            PersonAnnotation(
                joints=(
                    (float(cells[2 * i][0]), float(cells[2 * i][1])),
                    (float(cells[2 * i + 1][0]), float(cells[2 * i + 1][1])),
                )
            )
            for i in range(n)
        )
        scene = Scene(height=56, width=56, joint_layout=layout, persons=persons)
        cands = detect_candidates(build_confidence_maps(scene))
        expected = {
            (j, int(p[0]), int(p[1]))
            for person in persons
            for j, p in enumerate(person.joints)
        }
        got = {(c.joint_id, c.position[0], c.position[1]) for c in cands}
        assert got == expected
        assert all(c.score == 1.0 for c in cands)


def test_output_sorted_and_above_threshold():
    rng = np.random.default_rng(107)
    for _ in range(20):
        values = rng.random((3, 20, 20)).astype(np.float32)
        cands = detect_candidates(ConfidenceMapSet(values))
        assert cands == sorted(cands, key=lambda c: c.sort_key())
        for c in cands:
            assert c.score >= 0.1
            x, y = c.position
            assert 0 <= x < 20 and 0 <= y < 20
            assert float(values[c.joint_id, y, x]) == c.score


def test_detector_params_validation():
    with pytest.raises(ParameterError):
        DetectorParams(tau=0.0)
    with pytest.raises(ParameterError):
        DetectorParams(tau=1.0)
    with pytest.raises(ParameterError):
        DetectorParams(nms_radius=0)


def test_custom_params_respected():
    plane = np.zeros((16, 16))
    plane[5, 5] = 1.0
    plane[5, 10] = 0.9  # 5 px away
    conf = conf_from_planes(plane)
    wide = detect_candidates(conf, DetectorParams(nms_radius=6))
    assert [c.position for c in wide] == [(5, 5)]
    narrow = detect_candidates(conf, DetectorParams(nms_radius=4))
    assert [c.position for c in narrow] == [(5, 5), (10, 5)]
    strict = detect_candidates(conf, DetectorParams(tau=0.95))
    assert [c.position for c in strict] == [(5, 5)]


@pytest.mark.parametrize("seed", [0, 3])
def test_clean_scenes_decode_alike_at_the_auto_radius_and_at_radius_3(seed):
    # A clean bump has one peak and persons stand far apart, so the wider
    # bump-scale suppression removes nothing from clean maps.
    auto, narrow = PipelineConfig(), PipelineConfig(nms_radius=3)
    assert auto.detector_params().nms_radius == 11
    for scene in generate_corpus(CorpusSpec(num_scenes=6), seed=seed):
        conf, reg = synth_maps(scene, auto)
        got, expect = decode_maps(conf, reg, auto), decode_maps(conf, reg, narrow)
        assert repr(got) == repr(expect)
        assert detect_candidates(conf, auto.detector_params()) == detect_candidates(conf)
