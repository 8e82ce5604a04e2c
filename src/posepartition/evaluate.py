"""Pose evaluation: PCKh matching, per-joint average precision, count metrics.

Predicted poses are matched one-to-one to ground-truth persons greedily by
the number of joints falling within the PCKh distance (a fraction of the
person's neck-to-head-top distance).  Average precision per joint category
is the area under the interpolated precision/recall curve over score-ranked
predictions, reported in [0, 100].
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, EvaluationError, ParameterError
from .infer import PoseSet
from .scene import Scene, JointGroup

HEAD_TOP_NAME = "head_top"


@dataclass(frozen=True)
class MatchParams:
    """Evaluation protocol knobs.

    pckh_fraction scales the head size (the neck-to-head-top distance) into
    the hit distance.  When a person offers no usable head size, fallback_px
    (an absolute pixel distance) is used instead if set, otherwise
    evaluation fails for that person.
    Predicted poses with fewer than min_joints assigned joints, or whose mean
    joint score falls below min_score, are discarded before matching and
    scoring (the usual low-quality-assembly filter).
    """

    pckh_fraction: float = 0.5
    fallback_px: float | None = None
    min_joints: int = 1
    min_score: float | None = None

    def __post_init__(self) -> None:
        if not (self.pckh_fraction > 0 and math.isfinite(self.pckh_fraction)):
            raise ParameterError("pckh_fraction must be positive, got %g" % self.pckh_fraction)
        if self.fallback_px is not None and not (self.fallback_px > 0 and math.isfinite(self.fallback_px)):
            raise ParameterError("fallback_px must be positive and finite when set")
        if self.min_joints < 1:
            raise ParameterError("min_joints must be at least 1, got %d" % self.min_joints)
        if self.min_score is not None and not math.isfinite(self.min_score):
            raise ParameterError("min_score must be finite when set")


@dataclass(frozen=True)
class JointPrediction:
    """Flattened record of one predicted joint for precision/recall sweeps."""

    joint_id: int
    score: float
    correct: bool
    pose_index: int


@dataclass(frozen=True)
class PoseMatch:
    """Outcome of matching one scene's predictions to its ground truth."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_poses: tuple[int, ...]
    unmatched_persons: tuple[int, ...]
    predictions: tuple[JointPrediction, ...]
    gt_joint_counts: tuple[int, ...]
    pred_count: int
    gt_count: int


def _hit_distance(scene: Scene, person_idx: int, params: MatchParams) -> float:
    """PCKh radius for one ground-truth person (see MatchParams)."""
    person = scene.persons[person_idx]
    size = None
    neck_id = next(
        js.joint_id for js in scene.joint_layout if js.group is JointGroup.NECK
    )
    head_id = next(
        (js.joint_id for js in scene.joint_layout if js.name == HEAD_TOP_NAME), None
    )
    if head_id is not None:
        a = person.joints[neck_id]
        b = person.joints[head_id]
        if a is not None and b is not None:
            size = math.dist(a, b)
    if size is not None and size > 0:
        return params.pckh_fraction * size
    if params.fallback_px is not None:
        return params.fallback_px
    raise EvaluationError(
        "person %d has no usable head size (neck to head top) and no fallback distance is set"
        % person_idx
    )


def match_poses(pred: PoseSet, gt: Scene, params: MatchParams | None = None) -> PoseMatch:
    """Greedy one-to-one matching of predicted poses to ground-truth persons.

    Pose/person pairs are ranked by how many predicted joints fall within
    the person's hit distance; pairs with no correct joint never match.
    Remaining predictions count as false positives downstream.  A pose
    whose joint slots do not match the scene's layout raises DimensionError.
    """
    params = params or MatchParams()
    k = gt.num_joints
    for i, pose in enumerate(pred.poses):
        if len(pose.joints) != k:
            raise DimensionError("pose %d has %d joint slots, scene has %d" % (i, len(pose.joints), k))

    def keep(pose) -> bool:
        scores = [e.score for e in pose.joints if e is not None]
        if len(scores) < params.min_joints:
            return False
        if params.min_score is not None:
            return sum(scores) / len(scores) >= params.min_score
        return True

    poses = [(i, pose) for i, pose in enumerate(pred.poses) if keep(pose)]
    n_gt = len(gt.persons)
    radii = [_hit_distance(gt, gi, params) for gi in range(n_gt)]

    # hit[pi, gi]: the joints j of kept pose pi within person gi's hit
    # distance of gi's joint j, for every pair with at least one.
    hit: dict[tuple[int, int], list[int]] = {}
    for pi, (_, pose) in enumerate(poses):
        for gi, person in enumerate(gt.persons):
            for j in range(k):
                est, ref = pose.joints[j], person.joints[j]
                if est is not None and ref is not None and math.dist(est.position, ref) <= radii[gi]:
                    hit.setdefault((pi, gi), []).append(j)
    scored_pairs = sorted((-len(js), pi, gi) for (pi, gi), js in hit.items())
    matched: dict[int, int] = {}  # kept-pose index -> ground-truth person
    used_gt: set[int] = set()
    for _, pi, gi in scored_pairs:
        if pi in matched or gi in used_gt:
            continue
        matched[pi] = gi
        used_gt.add(gi)

    predictions: list[JointPrediction] = []
    for pi, (orig_idx, pose) in enumerate(poses):
        for j in range(k):
            est = pose.joints[j]
            if est is not None:
                correct = pi in matched and j in hit[pi, matched[pi]]
                predictions.append(
                    JointPrediction(joint_id=j, score=est.score, correct=correct, pose_index=orig_idx)
                )

    gt_joint_counts = tuple(
        sum(1 for person in gt.persons if person.joints[j] is not None) for j in range(k)
    )
    return PoseMatch(
        pairs=tuple((poses[pi][0], gi) for pi, gi in matched.items()),
        unmatched_poses=tuple(i for pi, (i, _) in enumerate(poses) if pi not in matched),
        unmatched_persons=tuple(g for g in range(n_gt) if g not in used_gt),
        predictions=tuple(predictions),
        gt_joint_counts=gt_joint_counts,
        pred_count=len(poses),
        gt_count=n_gt,
    )


def average_precision(matches: Sequence[PoseMatch], joint_id: int) -> float | None:
    """Interpolated average precision for one joint category, in [0, 100].

    Predictions are swept in descending score order (ties broken by scene
    and pose order for determinism); precision is interpolated to its
    running maximum from the right.  Returns None when the ground truth has
    no joints of this category.
    """
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
    correct_flags = [r[3] for r in records]
    tp = 0
    precisions = []
    for i, flag in enumerate(correct_flags, start=1):
        if flag:
            tp += 1
        precisions.append(tp / i)
    # Interpolate: precision envelope from the right; recall advances by
    # exactly 1/total_gt at each true positive.
    best = 0.0
    envelope_at_tp = []
    for i in range(len(records) - 1, -1, -1):
        best = max(best, precisions[i])
        if correct_flags[i]:
            envelope_at_tp.append(best)
    ap = sum(envelope_at_tp) / total_gt
    return 100.0 * ap


@dataclass(frozen=True)
class CountMetrics:
    """Person-count confusion matrix (rows = truth) and mean squared error."""

    confusion: np.ndarray
    mse: float


def count_metrics(pred_counts: Sequence[int], gt_counts: Sequence[int]) -> CountMetrics:
    """Compare per-scene person counts against the ground truth."""
    if len(pred_counts) != len(gt_counts):
        raise DimensionError(
            "count lists differ in length: %d vs %d" % (len(pred_counts), len(gt_counts))
        )
    if len(gt_counts) == 0:
        conf = np.zeros((1, 1), dtype=np.int64)
        conf.flags.writeable = False
        return CountMetrics(confusion=conf, mse=0.0)
    side = max(max(pred_counts), max(gt_counts)) + 1
    conf = np.zeros((side, side), dtype=np.int64)
    sq = 0.0
    for p, g in zip(pred_counts, gt_counts):
        if p < 0 or g < 0:
            raise ParameterError("person counts must be non-negative")
        conf[g, p] += 1
        sq += float(p - g) ** 2
    conf.flags.writeable = False
    return CountMetrics(confusion=conf, mse=sq / len(gt_counts))


@dataclass(frozen=True)
class EvalReport:
    """Corpus-level evaluation summary."""

    per_joint_ap: tuple[float | None, ...]
    total_ap: float
    count_confusion: np.ndarray
    count_mse: float
    joint_names: tuple[str, ...]


def evaluate_corpus(
    pairs: Sequence[tuple[PoseSet, Scene]],
    params: MatchParams | None = None,
) -> EvalReport:
    """Match and score every (predictions, scene) pair of a corpus.

    total_ap averages the per-joint APs over categories that actually occur
    in the ground truth.
    """
    params = params or MatchParams()
    if not pairs:
        raise ParameterError("evaluate_corpus needs at least one (poses, scene) pair")
    k = pairs[0][1].num_joints
    names = tuple(
        js.name for js in sorted(pairs[0][1].joint_layout, key=lambda js: js.joint_id)
    )
    for _, scene in pairs:
        if scene.num_joints != k:
            raise DimensionError("scenes disagree on joint count")
    matches = [match_poses(poses, scene, params) for poses, scene in pairs]
    per_joint = tuple(average_precision(matches, j) for j in range(k))
    evaluated = [ap for ap in per_joint if ap is not None]
    total = sum(evaluated) / len(evaluated) if evaluated else 0.0
    counts = count_metrics([m.pred_count for m in matches], [m.gt_count for m in matches])
    return EvalReport(
        per_joint_ap=per_joint,
        total_ap=total,
        count_confusion=counts.confusion,
        count_mse=counts.mse,
        joint_names=names,
    )


# Column layout used by the CSV report: MPII-style joint groups.
CSV_GROUPS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("Head", (HEAD_TOP_NAME,)),
    ("Sho.", ("r_shoulder", "l_shoulder")),
    ("Elb.", ("r_elbow", "l_elbow")),
    ("Wri.", ("r_wrist", "l_wrist")),
    ("Hip", ("r_hip", "l_hip")),
    ("Knee", ("r_knee", "l_knee")),
    ("Ank.", ("r_ankle", "l_ankle")),
)


def report_csv(report: EvalReport) -> str:
    """Render the report as a one-row CSV with grouped joint columns.

    Falls back to per-joint columns when the layout does not carry the
    standard 16-joint names.
    """
    name_to_ap = dict(zip(report.joint_names, report.per_joint_ap))
    known = all(
        name in name_to_ap for _, members in CSV_GROUPS for name in members
    )
    if known:
        headers = [label for label, _ in CSV_GROUPS] + ["Total"]
        cells = []
        for _, members in CSV_GROUPS:
            vals = [name_to_ap[name] for name in members if name_to_ap[name] is not None]
            cells.append("%.1f" % (sum(vals) / len(vals)) if vals else "")
        cells.append("%.1f" % report.total_ap)
    else:
        headers = list(report.joint_names) + ["Total"]
        cells = [
            "" if ap is None else "%.1f" % ap for ap in report.per_joint_ap
        ] + ["%.1f" % report.total_ap]
    return ",".join(headers) + "\n" + ",".join(cells) + "\n"
