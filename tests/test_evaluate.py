"""Matching, average precision, count metrics, and the report renderer."""
import math

import numpy as np
import pytest

from posepartition.errors import DimensionError, EvaluationError, ParameterError
from posepartition.evaluate import (
    CSV_GROUPS,
    EvalReport,
    MatchParams,
    average_precision,
    count_metrics,
    evaluate_corpus,
    match_poses,
    report_csv,
)
from posepartition.infer import JointEstimate, PersonPose, PoseSet
from posepartition.scene import (
    JointGroup,
    JointSpec,
    PersonAnnotation,
    Scene,
    mpii_joint_layout,
)

K = 4


def eval_layout():
    return (
        JointSpec(0, "neck", JointGroup.NECK, 0),
        JointSpec(1, "head_top", JointGroup.TORSO, 1),
        JointSpec(2, "r_limb", JointGroup.LIMB, 2),
        JointSpec(3, "l_limb", JointGroup.LIMB, 3),
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
        slots[j] = JointEstimate(position=(x, y), score=s)
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


# --- count metrics ----------------------------------------------------------


def test_count_metrics_single_scene():
    got = count_metrics([2], [3])
    assert got.mse == 1.0
    assert got.confusion.shape == (4, 4)
    assert got.confusion[3, 2] == 1
    assert got.confusion.sum() == 1
    assert not got.confusion.flags.writeable


def test_count_metrics_mean_squared_error():
    got = count_metrics([1, 2, 3], [1, 3, 3])
    assert abs(got.mse - 1.0 / 3.0) <= 1e-12
    assert got.confusion[1, 1] == 1
    assert got.confusion[3, 2] == 1
    assert got.confusion[3, 3] == 1


def test_count_metrics_perfect_counts_are_diagonal():
    got = count_metrics([1, 2, 2, 4], [1, 2, 2, 4])
    assert got.mse == 0.0
    assert int(np.trace(got.confusion)) == 4
    assert got.confusion.sum() == 4
    # Rows are indexed by the true count.
    assert list(got.confusion.sum(axis=1)) == [0, 1, 2, 0, 1]


def test_count_metrics_rejects_bad_input():
    with pytest.raises(DimensionError):
        count_metrics([1, 2], [1])
    with pytest.raises(ParameterError):
        count_metrics([-1], [0])
    empty = count_metrics([], [])
    assert empty.mse == 0.0
    assert empty.confusion.shape == (1, 1)


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
        joint_layout=(JointSpec(0, "neck", JointGroup.NECK, 0),),
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
