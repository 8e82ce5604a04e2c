"""Matching, average precision, count metrics, and the report renderer."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posepartition.config import PipelineConfig
from posepartition.corpus import CorpusSpec, generate_corpus
from posepartition.detect import JointCandidate
from posepartition.errors import DimensionError, EvaluationError, ParameterError
from posepartition.evaluate import (
    CSV_GROUPS,
    EvalReport,
    JointPrediction,
    MatchParams,
    PoseMatch,
    _hit_distances,
    average_precision,
    evaluate_corpus,
    match_poses,
    report_csv,
)
from posepartition.infer import PersonPose, PoseSet
from posepartition.maps import ConfidenceMapSet, RegressionMapSet
from posepartition.pipeline import decode_maps, synth_maps
from posepartition.scene import (
    JointSpec,
    PersonAnnotation,
    Scene,
    mpii_joint_layout,
)

K = 4


def eval_layout():
    return (
        JointSpec(0, "neck", 0),
        JointSpec(1, "head_top", 1),
        JointSpec(2, "r_limb", 2),
        JointSpec(3, "l_limb", 3),
    )


def make_scene(persons, height=128, width=128):
    return Scene(
        height=height,
        width=width,
        joint_layout=eval_layout(),
        persons=tuple(persons),
    )


def person(neck=None, head=None, limbs=(None, None)):
    return PersonAnnotation(joints=(neck, head, limbs[0], limbs[1]))


def pose(estimates):
    """Build a pose from {joint_id: (x, y, score)}."""
    slots = [None] * K
    for j, (x, y, s) in estimates.items():
        slots[j] = JointCandidate(joint_id=j, position=(x, y), score=s)
    return PersonPose(joints=tuple(slots), final_centroid=(0.0, 0.0))


def neck_pose(x, y, score):
    return pose({0: (x, y, score)})


# --- matching ---------------------------------------------------------------


def test_perfect_predictions_match_everyone():
    persons = [
        person(neck=(20.0, 20.0), head=(20.0, 40.0), limbs=((10.0, 60.0), (30.0, 60.0))),
        person(neck=(80.0, 20.0), head=(80.0, 40.0), limbs=((70.0, 60.0), (90.0, 60.0))),
    ]
    scene = make_scene(persons)
    poses = PoseSet(
        poses=tuple(
            pose({j: (int(p.joints[j][0]), int(p.joints[j][1]), 0.9) for j in range(K)})
            for p in persons
        )
    )
    m = match_poses(poses, scene)
    assert sorted(m.pairs) == [(0, 0), (1, 1)]
    assert m.unmatched_poses == ()
    assert m.unmatched_persons == ()
    assert m.pred_count == 2 and m.gt_count == 2
    assert len(m.predictions) == 8
    assert all(p.correct for p in m.predictions)
    assert m.gt_joint_counts == (2, 2, 2, 2)


def test_no_predictions_leaves_persons_unmatched():
    scene = make_scene([person(neck=(20.0, 20.0), head=(20.0, 40.0))])
    m = match_poses(PoseSet(poses=()), scene)
    assert m.pairs == ()
    assert m.unmatched_persons == (0,)
    assert m.predictions == ()
    assert m.pred_count == 0 and m.gt_count == 1
    assert average_precision([m], 0) == 0.0


def test_extra_prediction_is_a_false_positive():
    scene = make_scene([person(neck=(20.0, 20.0), head=(20.0, 40.0))])
    poses = PoseSet(poses=(neck_pose(20, 20, 0.9), neck_pose(21, 20, 0.8)))
    m = match_poses(poses, scene)
    assert m.pairs == ((0, 0),)
    assert m.unmatched_poses == (1,)
    flags = {p.pose_index: p.correct for p in m.predictions}
    assert flags == {0: True, 1: False}


def test_matching_prefers_the_pose_with_more_correct_joints():
    scene = make_scene([person(neck=(40.0, 40.0), head=(40.0, 60.0))])
    partial = pose({0: (40, 40, 0.99)})
    full = pose({0: (41, 40, 0.5), 1: (40, 61, 0.5)})
    m = match_poses(PoseSet(poses=(partial, full)), scene)
    assert m.pairs == ((1, 0),)
    assert m.unmatched_poses == (0,)


def test_matching_ties_break_by_pose_order():
    scene = make_scene([person(neck=(40.0, 40.0), head=(40.0, 60.0))])
    m = match_poses(PoseSet(poses=(neck_pose(42, 40, 0.1), neck_pose(40, 40, 0.9))), scene)
    assert m.pairs == ((0, 0),)


def test_hit_distance_from_neck_to_head_top():
    # Head size 20 at fraction 0.5 gives a radius of 10, inclusive.
    scene = make_scene([person(neck=(40.0, 40.0), head=(40.0, 60.0))])
    on_edge = match_poses(PoseSet(poses=(neck_pose(50, 40, 0.9),)), scene)
    assert on_edge.predictions[0].correct
    outside = match_poses(PoseSet(poses=(neck_pose(51, 40, 0.9),)), scene)
    assert not outside.predictions[0].correct
    assert outside.pairs == ()


def test_the_rank_0_joint_anchors_the_head_size_whatever_its_name():
    # The neck end of the head size is the rank-0 joint, here "root" with id 2.
    layout = (
        JointSpec(0, "l_limb", 3),
        JointSpec(1, "head_top", 1),
        JointSpec(2, "root", 0),
        JointSpec(3, "r_limb", 2),
    )
    persons = (
        PersonAnnotation(joints=((5.0, 5.0), (40.0, 60.0), (40.0, 40.0), (1.0, 1.0))),
        PersonAnnotation(joints=((5.0, 5.0), (13.0, 4.0), (10.0, 0.0), None)),
    )
    assert _hit_distances(Scene(64, 64, layout, persons), MatchParams()) == [10.0, 2.5]


def test_hit_distance_fallback_and_failure():
    scene = make_scene([person(neck=(40.0, 40.0))])  # no head_top
    params = MatchParams(fallback_px=7.0)
    m = match_poses(PoseSet(poses=(neck_pose(46, 40, 0.9),)), scene, params)
    assert m.predictions[0].correct
    m2 = match_poses(PoseSet(poses=(neck_pose(48, 40, 0.9),)), scene, params)
    assert not m2.predictions[0].correct
    with pytest.raises(EvaluationError):
        match_poses(PoseSet(poses=()), scene, MatchParams())


def test_degenerate_head_box_uses_the_fallback():
    # Neck and head top coincide: a head size of 0 is not usable.
    params = MatchParams(fallback_px=3.0)
    scene = make_scene([person(neck=(40.0, 40.0), head=(40.0, 40.0))])
    m = match_poses(PoseSet(poses=(neck_pose(42, 40, 0.9),)), scene, params)
    assert m.predictions[0].correct


def test_min_joints_filter_drops_sparse_poses():
    scene = make_scene([person(neck=(40.0, 40.0), head=(40.0, 60.0))])
    sparse = neck_pose(40, 40, 0.9)
    m = match_poses(PoseSet(poses=(sparse,)), scene, MatchParams(min_joints=2))
    assert m.pred_count == 0
    assert m.predictions == ()
    assert m.unmatched_persons == (0,)


def test_min_score_filter_uses_the_mean_joint_score():
    scene = make_scene([person(neck=(40.0, 40.0), head=(40.0, 60.0))])
    mixed = pose({0: (40, 40, 0.9), 1: (40, 60, 0.2)})  # mean 0.55
    kept = match_poses(PoseSet(poses=(mixed,)), scene, MatchParams(min_score=0.5))
    assert kept.pred_count == 1
    dropped = match_poses(PoseSet(poses=(mixed,)), scene, MatchParams(min_score=0.6))
    assert dropped.pred_count == 0


def test_match_params_validation():
    with pytest.raises(ParameterError):
        MatchParams(pckh_fraction=0.0)
    for fallback in (0.0, math.inf, math.nan):
        with pytest.raises(ParameterError, match="fallback_px"):
            MatchParams(fallback_px=fallback)
    with pytest.raises(ParameterError):
        MatchParams(min_joints=0)
    with pytest.raises(ParameterError):
        MatchParams(min_score=math.inf)
    MatchParams(min_score=None)


@pytest.mark.parametrize("value", [math.nan, 2.5, True, 0.5, 0, -1, "3"])
def test_min_joints_must_be_an_integer_of_at_least_one(value):
    # NaN used to turn the filter off, 2.5 and True were accepted, and 0.5
    # was rejected as "got 0".
    expect = "min_joints must be an integer >= 1, got %s$" % re.escape(repr(value))
    with pytest.raises(ParameterError, match=expect):
        MatchParams(min_joints=value)


# --- average precision ------------------------------------------------------


def rank_case_matches():
    """Three GT necks; four scored neck predictions ranking as TP,FP,TP,TP."""
    persons = [
        person(neck=(10.0, 10.0), head=(10.0, 30.0)),
        person(neck=(50.0, 10.0), head=(50.0, 30.0)),
        person(neck=(90.0, 10.0), head=(90.0, 30.0)),
    ]
    scene = make_scene(persons)
    poses = PoseSet(
        poses=(
            neck_pose(10, 10, 0.9),
            neck_pose(30, 60, 0.8),
            neck_pose(50, 10, 0.7),
            neck_pose(90, 12, 0.6),
        )
    )
    return [match_poses(poses, scene)]


def test_average_precision_hand_computed():
    matches = rank_case_matches()
    # Sweep TP, FP, TP, TP: precisions 1, 1/2, 2/3, 3/4; the right-side
    # envelope credits 1, 3/4, 3/4 at the three true positives.
    expect = 100.0 * (1.0 + 0.75 + 0.75) / 3.0
    assert abs(average_precision(matches, 0) - expect) <= 1e-9
    # No head_top predictions were made although ground truth exists.
    assert average_precision(matches, 1) == 0.0
    # No limb ground truth at all.
    assert average_precision(matches, 2) is None


def test_average_precision_invariant_to_monotone_rescaling():
    persons = [
        person(neck=(10.0, 10.0), head=(10.0, 30.0)),
        person(neck=(50.0, 10.0), head=(50.0, 30.0)),
        person(neck=(90.0, 10.0), head=(90.0, 30.0)),
    ]
    scene = make_scene(persons)
    base_scores = [0.9, 0.8, 0.7, 0.6]
    positions = [(10, 10), (30, 60), (50, 10), (90, 12)]

    def ap_with(scores):
        poses = PoseSet(
            poses=tuple(neck_pose(x, y, s) for (x, y), s in zip(positions, scores))
        )
        return average_precision([match_poses(poses, scene)], 0)

    a = ap_with(base_scores)
    b = ap_with([s / 2.0 + 0.05 for s in base_scores])
    assert a == b


def test_extra_low_scored_false_positive_never_raises_ap():
    matches = rank_case_matches()
    base = average_precision(matches, 0)
    persons = [
        person(neck=(10.0, 10.0), head=(10.0, 30.0)),
        person(neck=(50.0, 10.0), head=(50.0, 30.0)),
        person(neck=(90.0, 10.0), head=(90.0, 30.0)),
    ]
    scene = make_scene(persons)
    poses = PoseSet(
        poses=(
            neck_pose(10, 10, 0.9),
            neck_pose(30, 60, 0.8),
            neck_pose(50, 10, 0.7),
            neck_pose(90, 12, 0.6),
            neck_pose(70, 90, 0.5),
        )
    )
    worse = average_precision([match_poses(poses, scene)], 0)
    assert worse <= base


def test_all_correct_predictions_score_one_hundred():
    rng = np.random.default_rng(83)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        persons = []
        poses = []
        for i in range(n):
            nx, ny = 20.0 + 40.0 * i, float(rng.integers(20, 40))
            persons.append(person(neck=(nx, ny), head=(nx, ny + 20.0)))
            jitter = int(rng.integers(-3, 4))
            poses.append(neck_pose(int(nx) + jitter, int(ny), float(rng.uniform(0.2, 1.0))))
        scene = make_scene(persons)
        m = match_poses(PoseSet(poses=tuple(poses)), scene)
        assert average_precision([m], 0) == 100.0


def test_average_precision_aggregates_across_scenes():
    scene = make_scene([person(neck=(20.0, 20.0), head=(20.0, 40.0))])
    perfect = PoseSet(poses=(neck_pose(20, 20, 0.9),))
    nothing = PoseSet(poses=())
    matches = [match_poses(perfect, scene), match_poses(nothing, scene)]
    assert abs(average_precision(matches, 0) - 50.0) <= 1e-9


# --- corpus evaluation and the report ---------------------------------------


def test_evaluate_corpus_perfect_run():
    persons = [
        person(neck=(20.0, 20.0), head=(20.0, 40.0), limbs=((10.0, 60.0), (30.0, 60.0))),
        person(neck=(80.0, 20.0), head=(80.0, 40.0), limbs=((70.0, 60.0), (90.0, 60.0))),
    ]
    scene = make_scene(persons)
    poses = PoseSet(
        poses=tuple(
            pose({j: (int(p.joints[j][0]), int(p.joints[j][1]), 0.9) for j in range(K)})
            for p in persons
        )
    )
    report = evaluate_corpus([(poses, scene)])
    assert report.per_joint_ap == (100.0, 100.0, 100.0, 100.0)
    assert report.total_ap == 100.0
    assert report.count_mse == 0.0
    assert report.count_confusion[2, 2] == 1
    assert report.joint_names == ("neck", "head_top", "r_limb", "l_limb")


def test_evaluate_corpus_counts_persons_per_scene():
    # (predicted, true) person counts per scene: (2, 3), (1, 1), (4, 3), (0, 1).
    def scene_and_poses(n_pred, n_gt):
        persons = [
            person(neck=(20.0 + 20 * i, 20.0), head=(20.0 + 20 * i, 40.0)) for i in range(n_gt)
        ]
        poses = PoseSet(poses=tuple(neck_pose(20 + 20 * i, 20, 0.9) for i in range(n_pred)))
        return poses, make_scene(persons)

    report = evaluate_corpus([scene_and_poses(p, g) for p, g in ((2, 3), (1, 1), (4, 3), (0, 1))])
    confusion = report.count_confusion
    # One row and column per count up to the largest, rows indexed by the truth.
    assert confusion.shape == (5, 5)
    assert confusion.tolist() == [
        [0, 0, 0, 0, 0],
        [1, 1, 0, 0, 0],
        [0, 0, 0, 0, 0],
        [0, 0, 1, 0, 1],
        [0, 0, 0, 0, 0],
    ]
    assert not confusion.flags.writeable
    assert report.count_mse == 0.75


def test_evaluate_corpus_skips_absent_categories():
    scene = make_scene([person(neck=(20.0, 20.0), head=(20.0, 40.0))])
    poses = PoseSet(poses=(neck_pose(20, 20, 0.9),))
    report = evaluate_corpus([(poses, scene)])
    assert report.per_joint_ap[0] == 100.0
    assert report.per_joint_ap[2] is None
    assert report.per_joint_ap[3] is None
    # head_top exists in the ground truth but was never predicted.
    assert report.total_ap == pytest.approx((100.0 + 0.0) / 2.0)


def test_evaluate_corpus_input_validation():
    with pytest.raises(ParameterError):
        evaluate_corpus([])
    scene = make_scene([person(neck=(20.0, 20.0), head=(20.0, 40.0))])
    other = Scene(
        height=64,
        width=64,
        joint_layout=(JointSpec(0, "neck", 0),),
        persons=(PersonAnnotation(joints=((10.0, 10.0),)),),
    )
    with pytest.raises(DimensionError):
        evaluate_corpus([(PoseSet(poses=()), scene), (PoseSet(poses=()), other)])


def test_poses_with_the_wrong_joint_slot_count_are_rejected():
    # One slot short used to raise IndexError; one slot over was ignored.
    scene = make_scene([person(neck=(20.0, 20.0), head=(20.0, 40.0))])
    good = neck_pose(20, 20, 0.9)
    for slots in (good.joints[:-1], good.joints + (None,)):
        bad = PersonPose(joints=slots, final_centroid=(0.0, 0.0))
        with pytest.raises(DimensionError, match="pose 1 has %d joint slots, scene has 4" % len(slots)):
            match_poses(PoseSet(poses=(good, bad)), scene)
        with pytest.raises(DimensionError, match="pose 1 has"):
            evaluate_corpus([(PoseSet(poses=(good, bad)), scene)])


def test_errors_come_from_the_first_failing_scene_dimension_errors_first():
    good = neck_pose(20, 20, 0.9)
    bad_slots = PoseSet(poses=(good, PersonPose(joints=good.joints[:-1], final_centroid=(0.0, 0.0))))
    headless = make_scene([person(neck=(20.0, 20.0))])  # no head size, no fallback
    fine = make_scene([person(neck=(20.0, 20.0), head=(20.0, 40.0))])
    # One scene failing both ways: the slot count is checked first.
    with pytest.raises(DimensionError, match="pose 1 has 3 joint slots"):
        match_poses(bad_slots, headless)
    with pytest.raises(DimensionError, match="pose 1 has 3 joint slots"):
        evaluate_corpus([(bad_slots, headless)])
    # Across scenes, the first failing scene decides.
    with pytest.raises(EvaluationError, match="person 0 has no usable head size"):
        evaluate_corpus([(PoseSet(poses=(good,)), fine), (PoseSet(()), headless), (bad_slots, fine)])
    with pytest.raises(DimensionError, match="pose 1 has 3 joint slots"):
        evaluate_corpus([(PoseSet(poses=(good,)), fine), (bad_slots, fine), (PoseSet(()), headless)])


# --- one-pass corpus scoring against the per-scene composition ---------------


def oracle_match(pred, gt, params):
    """match_poses as it stood before corpus scoring became one pass."""
    k = gt.num_joints
    for i, p in enumerate(pred.poses):
        if len(p.joints) != k:
            raise DimensionError("pose %d has %d joint slots, scene has %d" % (i, len(p.joints), k))

    def keep(p) -> bool:
        scores = [e.score for e in p.joints if e is not None]
        if len(scores) < params.min_joints:
            return False
        if params.min_score is not None:
            return sum(scores) / len(scores) >= params.min_score
        return True

    def hit_distance(gi):
        pers = gt.persons[gi]
        size = None
        neck_id = next(js.joint_id for js in gt.joint_layout if js.inference_rank == 0)
        head_id = next((js.joint_id for js in gt.joint_layout if js.name == "head_top"), None)
        if head_id is not None:
            a, b = pers.joints[neck_id], pers.joints[head_id]
            if a is not None and b is not None:
                size = math.dist(a, b)
        if size is not None and size > 0:
            return params.pckh_fraction * size
        if params.fallback_px is not None:
            return params.fallback_px
        raise EvaluationError(
            "person %d has no usable head size (neck to head top) and no fallback distance is set"
            % gi
        )

    poses = [(i, p) for i, p in enumerate(pred.poses) if keep(p)]
    n_gt = len(gt.persons)
    radii = [hit_distance(gi) for gi in range(n_gt)]
    hit = {}
    for pi, (_, p) in enumerate(poses):
        for gi, pers in enumerate(gt.persons):
            for j in range(k):
                est, ref = p.joints[j], pers.joints[j]
                if est is not None and ref is not None and math.dist(est.position, ref) <= radii[gi]:
                    hit.setdefault((pi, gi), []).append(j)
    matched, used_gt = {}, set()
    for _, pi, gi in sorted((-len(js), pi, gi) for (pi, gi), js in hit.items()):
        if pi in matched or gi in used_gt:
            continue
        matched[pi] = gi
        used_gt.add(gi)
    predictions = []
    for pi, (orig_idx, p) in enumerate(poses):
        for j in range(k):
            est = p.joints[j]
            if est is not None:
                correct = pi in matched and j in hit[pi, matched[pi]]
                predictions.append(
                    JointPrediction(joint_id=j, score=est.score, correct=correct, pose_index=orig_idx)
                )
    return PoseMatch(
        pairs=tuple((poses[pi][0], gi) for pi, gi in matched.items()),
        unmatched_poses=tuple(i for pi, (i, _) in enumerate(poses) if pi not in matched),
        unmatched_persons=tuple(g for g in range(n_gt) if g not in used_gt),
        predictions=tuple(predictions),
        gt_joint_counts=tuple(
            sum(1 for pers in gt.persons if pers.joints[j] is not None) for j in range(k)
        ),
        pred_count=len(poses),
        gt_count=n_gt,
    )


def oracle_average_precision(matches, joint_id):
    """average_precision as it stood before corpus scoring became one pass."""
    total_gt = sum(m.gt_joint_counts[joint_id] for m in matches)
    if total_gt == 0:
        return None
    records = []
    for si, m in enumerate(matches):
        for p in m.predictions:
            if p.joint_id == joint_id:
                records.append((-p.score, si, p.pose_index, p.correct))
    if not records:
        return 0.0
    records.sort(key=lambda r: r[:3])
    flags = [r[3] for r in records]
    tp = 0
    precisions = []
    for i, flag in enumerate(flags, start=1):
        if flag:
            tp += 1
        precisions.append(tp / i)
    best = 0.0
    envelope_at_tp = []
    for i in range(len(records) - 1, -1, -1):
        best = max(best, precisions[i])
        if flags[i]:
            envelope_at_tp.append(best)
    return 100.0 * (sum(envelope_at_tp) / total_gt)


def oracle_report(pairs, params):
    """(per-joint APs, total, confusion, MSE) by the per-scene composition,
    with every float as float.hex so equality is bit for bit."""
    matches = [oracle_match(poses, scene, params) for poses, scene in pairs]
    per_joint = [oracle_average_precision(matches, j) for j in range(pairs[0][1].num_joints)]
    evaluated = [ap for ap in per_joint if ap is not None]
    total = sum(evaluated) / len(evaluated) if evaluated else 0.0
    counts = [(m.pred_count, m.gt_count) for m in matches]
    side = max(max(pair) for pair in counts) + 1
    confusion = [[0] * side for _ in range(side)]
    for p, g in counts:
        confusion[g][p] += 1
    mse = sum(float(p - g) ** 2 for p, g in counts) / len(counts)
    return (
        [None if ap is None else ap.hex() for ap in per_joint],
        total.hex(),
        confusion,
        mse.hex(),
    )


def report_bits(report):
    return (
        [None if ap is None else ap.hex() for ap in report.per_joint_ap],
        report.total_ap.hex(),
        report.count_confusion.tolist(),
        report.count_mse.hex(),
    )


def assert_matches_oracle(pairs, params):
    try:
        expect = oracle_report(pairs, params)
    except (DimensionError, EvaluationError) as exc:
        with pytest.raises(type(exc), match="^%s$" % re.escape(str(exc))):
            evaluate_corpus(pairs, params)
        return
    assert report_bits(evaluate_corpus(pairs, params)) == expect
    for poses, scene in pairs:
        assert match_poses(poses, scene, params) == oracle_match(poses, scene, params)


# Half-pixel ground truth on a small canvas puts predictions on hit-radius
# boundaries; few score values give ties.
gt_point = st.tuples(st.integers(0, 31), st.integers(0, 31)).map(lambda p: (p[0] / 2, p[1] / 2))
scores = st.sampled_from([0.1, 0.25, 0.5, 0.5, 0.75, 1.0])


@st.composite
def scored_corpora(draw):
    """1-4 scenes of 0-3 persons, each with 0-5 poses that mostly trace a
    person's joints within a few pixels, plus the matching parameters."""

    def gt_person():
        slots = draw(st.lists(st.none() | gt_point, min_size=K, max_size=K))
        if all(slot is None for slot in slots):
            slots[0] = draw(gt_point)
        return PersonAnnotation(joints=tuple(slots))

    def predicted_pose(persons):
        target = draw(st.sampled_from(persons)).joints if persons and draw(st.booleans()) else (None,) * K
        slots = []
        for j, ref in enumerate(target):
            if draw(st.integers(0, 3)) == 0:
                slots.append(None)
                continue
            if ref is None:
                x, y = draw(st.integers(0, 15)), draw(st.integers(0, 15))
            else:
                x, y = int(ref[0]) + draw(st.integers(-2, 2)), int(ref[1]) + draw(st.integers(-2, 2))
            slots.append(JointCandidate(joint_id=j, position=(x, y), score=draw(scores)))
        return PersonPose(joints=tuple(slots), final_centroid=(0.0, 0.0))

    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        persons = [gt_person() for _ in range(draw(st.integers(0, 3)))]
        poses = tuple(predicted_pose(persons) for _ in range(draw(st.integers(0, 5))))
        pairs.append((PoseSet(poses), make_scene(persons, height=16, width=16)))
    params = MatchParams(
        pckh_fraction=draw(st.sampled_from([0.5, 1.0])),
        fallback_px=draw(st.sampled_from([None, 1.0, 2.5, 4.0])),
        min_joints=draw(st.integers(1, 3)),
        min_score=draw(st.none() | st.sampled_from([0.25, 0.5, 0.6])),
    )
    return pairs, params


@settings(max_examples=300, deadline=None)
@given(scored_corpora())
def test_evaluate_corpus_equals_the_per_scene_composition_bit_for_bit(case):
    assert_matches_oracle(*case)


def test_evaluate_corpus_equals_the_per_scene_composition_on_noisy_scenes():
    cfg = PipelineConfig()
    rng = np.random.default_rng(1)
    pairs = []
    for scene in generate_corpus(CorpusSpec(), seed=1)[:40]:
        conf, reg = synth_maps(scene, cfg)
        conf = ConfidenceMapSet(conf.values + rng.uniform(-0.05, 0.05, size=conf.values.shape))
        reg = RegressionMapSet(reg.values + rng.uniform(-0.01, 0.01, size=reg.values.shape))
        pairs.append((decode_maps(conf, reg, cfg).poses, scene))
    for params in (MatchParams(), MatchParams(min_joints=3, min_score=0.5)):
        assert_matches_oracle(pairs, params)


def test_report_csv_groups_standard_joints():
    layout = mpii_joint_layout()
    names = tuple(js.name for js in sorted(layout, key=lambda js: js.joint_id))
    conf = np.zeros((1, 1), dtype=np.int64)
    report = EvalReport(
        per_joint_ap=tuple(float(j) for j in range(16)),
        total_ap=55.5,
        count_confusion=conf,
        count_mse=0.0,
        joint_names=names,
    )
    text = report_csv(report)
    lines = text.strip().split("\n")
    headers = lines[0].split(",")
    cells = lines[1].split(",")
    assert headers == [label for label, _ in CSV_GROUPS] + ["Total"]
    by_header = dict(zip(headers, cells))
    assert by_header["Head"] == "9.0"
    assert by_header["Sho."] == "12.5"
    assert by_header["Ank."] == "2.5"
    assert by_header["Total"] == "55.5"


def test_report_csv_falls_back_to_per_joint_columns():
    conf = np.zeros((1, 1), dtype=np.int64)
    report = EvalReport(
        per_joint_ap=(100.0, None, 50.0, 25.0),
        total_ap=58.3,
        count_confusion=conf,
        count_mse=0.25,
        joint_names=("neck", "head_top", "r_limb", "l_limb"),
    )
    text = report_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "neck,head_top,r_limb,l_limb,Total"
    assert lines[1] == "100.0,,50.0,25.0,58.3"
