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
from itertools import accumulate, compress
from operator import itemgetter
from typing import Sequence

import numpy as np

from .errors import DimensionError, EvaluationError, ParameterError
from .infer import PoseSet
from .scene import Scene, _is_finite, _is_int

_HEAD_TOP_NAME = "head_top"


@dataclass(frozen=True)
class MatchParams:
    """Evaluation protocol knobs.

    pckh_fraction scales the head size into the hit distance: the distance
    from the neck, the layout's rank-0 joint, to the joint named head_top.
    When a person offers no usable head size, fallback_px (an absolute pixel
    distance) is used instead if set, otherwise evaluation fails for it.
    Predicted poses with fewer than min_joints (an int >= 1) assigned
    joints, or whose mean joint score falls below min_score, are discarded
    before matching and scoring (the usual low-quality-assembly filter).
    """

    pckh_fraction: float = 0.5
    fallback_px: float | None = None
    min_joints: int = 1
    min_score: float | None = None

    def __post_init__(self) -> None:
        if not (_is_finite(self.pckh_fraction) and self.pckh_fraction > 0):
            raise ParameterError("pckh_fraction must be positive, got %r" % (self.pckh_fraction,))
        if self.fallback_px is not None and not (_is_finite(self.fallback_px) and self.fallback_px > 0):
            raise ParameterError("fallback_px must be positive and finite when set")
        if not (_is_int(self.min_joints) and self.min_joints >= 1):
            raise ParameterError("min_joints must be an integer >= 1, got %r" % (self.min_joints,))
        if self.min_score is not None and not _is_finite(self.min_score):
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


def _hit_distances(scene: Scene, params: MatchParams) -> list[float]:
    """PCKh radius of each ground-truth person, in scene order (see MatchParams)."""
    neck_id = next(js.joint_id for js in scene.joint_layout if js.inference_rank == 0)
    head_id = next((js.joint_id for js in scene.joint_layout if js.name == _HEAD_TOP_NAME), None)
    radii = []
    for gi, person in enumerate(scene.persons):
        size = None
        if head_id is not None:
            a = person.joints[neck_id]
            b = person.joints[head_id]
            if a is not None and b is not None:
                size = math.dist(a, b)
        if size is not None and size > 0:
            radii.append(params.pckh_fraction * size)
        elif params.fallback_px is not None:
            radii.append(params.fallback_px)
        else:
            raise EvaluationError(
                "person %d has no usable head size (neck to head top) and no fallback distance is set"
                % gi
            )
    return radii


def _match_scene(
    pred: PoseSet, gt: Scene, params: MatchParams
) -> tuple[list[tuple[int, tuple]], dict[int, int], list[list[int]]]:
    """The matcher behind match_poses and evaluate_corpus.

    Returns the kept poses as (index in pred, joint slots), the greedy
    pairing {kept-pose index: person index}, and for every kept pose the
    ids of its correct joints: the hit list of its pair, or none when it
    is unmatched.  Raises DimensionError for the first pose whose slot
    count differs from the scene's, then EvaluationError for the first
    person without a hit distance.
    """
    k = gt.num_joints
    min_joints, min_score = params.min_joints, params.min_score
    kept: list[tuple[int, tuple]] = []
    for i, pose in enumerate(pred.poses):
        joints = pose.joints
        if len(joints) != k:
            raise DimensionError("pose %d has %d joint slots, scene has %d" % (i, len(joints), k))
        scores = [e.score for e in joints if e is not None]
        if len(scores) < min_joints:
            continue
        if min_score is not None and not sum(scores) / len(scores) >= min_score:
            continue
        kept.append((i, joints))
    radii = _hit_distances(gt, params)

    # hit[pi, gi]: the joints j of kept pose pi within person gi's hit
    # distance of gi's joint j, for every pair with at least one.
    refs = [
        [(j, ref) for j, ref in enumerate(person.joints) if ref is not None]
        for person in gt.persons
    ]
    dist = math.dist
    hit: dict[tuple[int, int], list[int]] = {}
    for pi, (_, joints) in enumerate(kept):
        for gi, (person_refs, r) in enumerate(zip(refs, radii)):
            js = [
                j
                for j, ref in person_refs
                if (est := joints[j]) is not None and dist(est.position, ref) <= r
            ]
            if js:
                hit[pi, gi] = js
    matched: dict[int, int] = {}
    used_gt: set[int] = set()
    for _, pi, gi in sorted((-len(js), pi, gi) for (pi, gi), js in hit.items()):
        if pi in matched or gi in used_gt:
            continue
        matched[pi] = gi
        used_gt.add(gi)
    correct = [hit[pi, matched[pi]] if pi in matched else [] for pi in range(len(kept))]
    return kept, matched, correct


def _gt_joint_counts(scene: Scene) -> tuple[int, ...]:
    """Annotated joints of each category in the scene."""
    if not scene.persons:
        return (0,) * scene.num_joints
    return tuple(
        len(refs) - refs.count(None) for refs in zip(*(person.joints for person in scene.persons))
    )


def match_poses(pred: PoseSet, gt: Scene, params: MatchParams | None = None) -> PoseMatch:
    """Greedy one-to-one matching of predicted poses to ground-truth persons.

    Pose/person pairs are ranked by how many predicted joints fall within
    the person's hit distance; pairs with no correct joint never match.
    Remaining predictions count as false positives downstream.  A pose
    whose joint slots do not match the scene's layout raises DimensionError.
    """
    kept, matched, correct = _match_scene(pred, gt, params or MatchParams())
    n_gt = len(gt.persons)
    used_gt = set(matched.values())
    return PoseMatch(
        pairs=tuple((kept[pi][0], gi) for pi, gi in matched.items()),
        unmatched_poses=tuple(i for pi, (i, _) in enumerate(kept) if pi not in matched),
        unmatched_persons=tuple(g for g in range(n_gt) if g not in used_gt),
        predictions=tuple(
            JointPrediction(joint_id=j, score=est.score, correct=j in hits, pose_index=i)
            for (i, joints), hits in zip(kept, correct)
            for j, est in enumerate(joints)
            if est is not None
        ),
        gt_joint_counts=_gt_joint_counts(gt),
        pred_count=len(kept),
        gt_count=n_gt,
    )


_SWEEP_ORDER = itemgetter(0, 1, 2)


def _sweep_ap(records: list[tuple[float, int, int, bool]], total_gt: int) -> float:
    """Interpolated AP, in [0, 100], of one joint category's records.

    Each record is (-score, scene index, pose index, correct); a stable
    sort on the first three sweeps the predictions in descending score
    order with ties broken by scene and pose order.  Precision is
    interpolated to its running maximum from the right, and recall
    advances by exactly 1/total_gt at each true positive.
    """
    if not records:
        return 0.0
    records.sort(key=_SWEEP_ORDER)
    flags = [r[3] for r in records]
    precisions = [tp / i for i, tp in enumerate(accumulate(flags), start=1)]
    # The envelope from the right, summed at the true positives from the
    # right.
    envelope = accumulate(reversed(precisions), max)
    ap = sum(compress(envelope, reversed(flags))) / total_gt
    return 100.0 * ap


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
    records = [
        (-p.score, si, p.pose_index, p.correct)
        for si, m in enumerate(matches)
        for p in m.predictions
        if p.joint_id == joint_id
    ]
    return _sweep_ap(records, total_gt)


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
    names = tuple(js.name for js in sorted(pairs[0][1].joint_layout, key=lambda js: js.joint_id))
    for _, scene in pairs:
        if scene.num_joints != k:
            raise DimensionError("scenes disagree on joint count")
    records: list[list[tuple[float, int, int, bool]]] = [[] for _ in range(k)]
    total_gt = [0] * k
    pred_counts, gt_counts = [], []
    for si, (poses, scene) in enumerate(pairs):
        kept, _, correct = _match_scene(poses, scene, params)
        for (i, joints), hits in zip(kept, correct):
            for j, est in enumerate(joints):
                if est is not None:
                    records[j].append((-est.score, si, i, j in hits))
        for j, n in enumerate(_gt_joint_counts(scene)):
            total_gt[j] += n
        pred_counts.append(len(kept))
        gt_counts.append(len(scene.persons))
    per_joint = tuple(_sweep_ap(recs, n) if n else None for recs, n in zip(records, total_gt))
    evaluated = [ap for ap in per_joint if ap is not None]
    total = sum(evaluated) / len(evaluated) if evaluated else 0.0
    # Person-count confusion matrix (rows = truth) and mean squared error.
    side = max(max(pred_counts), max(gt_counts)) + 1
    confusion = np.zeros((side, side), dtype=np.int64)
    sq = 0.0
    for p, g in zip(pred_counts, gt_counts):
        confusion[g, p] += 1
        sq += float(p - g) ** 2
    confusion.flags.writeable = False
    return EvalReport(
        per_joint_ap=per_joint,
        total_ap=total,
        count_confusion=confusion,
        count_mse=sq / len(gt_counts),
        joint_names=names,
    )


# Column layout used by the CSV report: MPII-style joint groups.
CSV_GROUPS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("Head", (_HEAD_TOP_NAME,)),
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
    known = all(name in name_to_ap for _, members in CSV_GROUPS for name in members)
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
