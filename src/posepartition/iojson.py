"""JSON interchange for intermediate pipeline artifacts.

Candidates, partitions, poses, and evaluation reports all travel as small
JSON documents so every pipeline stage can be run and inspected from files.
Candidates and poses are read back; partitions and reports are only written.
"""
from __future__ import annotations

from typing import Sequence

from .detect import JointCandidate
from .errors import SchemaError
from .evaluate import EvalReport
from .infer import PersonPose, PoseSet
from .partition import Partition
from .scene import _is_finite, _is_int, _require, _save_json

save_json = _save_json  # the one JSON file writer, shared with scene files


# --- candidates -------------------------------------------------------------


def candidates_to_doc(candidates: Sequence[JointCandidate]) -> list:
    return [
        {
            "joint": c.joint_id,
            "x": c.position[0],
            "y": c.position[1],
            "score": c.score,
        }
        for c in candidates
    ]


def candidates_from_doc(doc) -> list[JointCandidate]:
    _require(isinstance(doc, list), "candidates document must be a list")
    out = []
    seen = {}
    for i, entry in enumerate(doc):
        _require(isinstance(entry, dict), "candidates[%d] must be an object", i)
        for key in ("joint", "x", "y", "score"):
            _require(key in entry, "candidates[%d] is missing %r", i, key)
        _require(
            _is_int(entry["joint"]) and _is_int(entry["x"]) and _is_int(entry["y"]),
            "candidates[%d] joint and position must be integers", i,
        )
        _require(_is_finite(entry["score"]), "candidates[%d].score must be a finite number", i)
        site = (entry["joint"], entry["x"], entry["y"])
        if seen.setdefault(site, i) != i:
            raise SchemaError(
                "candidates[%d] repeats the joint and position of candidates[%d]" % (i, seen[site])
            )
        out.append(
            JointCandidate(
                joint_id=entry["joint"],
                position=(entry["x"], entry["y"]),
                score=float(entry["score"]),
            )
        )
    return out


# --- partitions -------------------------------------------------------------


def partitions_to_doc(partitions: Sequence[Partition], candidates: Sequence[JointCandidate]) -> dict:
    """Store partitions as indices into a shared candidate list."""
    index_of = {cand: i for i, cand in enumerate(candidates)}
    entries = []
    for pi, part in enumerate(partitions):
        members = []
        for cand in part.members:
            if cand not in index_of:
                raise SchemaError("partition %d member %r is not in the candidate list" % (pi, cand))
            members.append(index_of[cand])
        entries.append({"members": members, "centroid": [part.centroid[0], part.centroid[1]]})
    return {"partitions": entries}


# --- poses -------------------------------------------------------------------


def poses_to_doc(poses: PoseSet, height: int, width: int) -> dict:
    entries = [
        {
            "joints": [None if e is None else [e.position[0], e.position[1]] for e in pose.joints],
            "scores": [None if e is None else e.score for e in pose.joints],
            "centroid": [pose.final_centroid[0], pose.final_centroid[1]],
        }
        for pose in poses.poses
    ]
    return {"height": height, "width": width, "poses": entries}


def poses_from_doc(doc) -> tuple[PoseSet, int, int]:
    _require(isinstance(doc, dict), "poses document must be an object")
    for key in ("height", "width", "poses"):
        _require(key in doc, "poses document is missing %r", key)
    _require(
        _is_int(doc["height"]) and _is_int(doc["width"]),
        "height and width must be integers",
    )
    _require(isinstance(doc["poses"], list), "'poses' must be a list")
    poses = []
    for pi, entry in enumerate(doc["poses"]):
        _require(isinstance(entry, dict), "poses[%d] must be an object", pi)
        for key in ("joints", "scores", "centroid"):
            _require(key in entry, "poses[%d] is missing %r", pi, key)
        joints = entry["joints"]
        scores = entry["scores"]
        _require(
            isinstance(joints, list) and isinstance(scores, list) and len(joints) == len(scores),
            "poses[%d] joints and scores must be lists of equal length", pi,
        )
        slots = []
        for j, (pos, sc) in enumerate(zip(joints, scores)):
            if pos is None:
                _require(sc is None, "poses[%d].scores[%d] must be null for an absent joint", pi, j)
                slots.append(None)
                continue
            _require(
                isinstance(pos, list) and len(pos) == 2
                and _is_int(pos[0]) and _is_int(pos[1]) and _is_finite(sc),
                "poses[%d].joints[%d] must be [x, y] integers with a finite score", pi, j,
            )
            slots.append(JointCandidate(j, (pos[0], pos[1]), float(sc)))
        cent = entry["centroid"]
        _require(
            isinstance(cent, list) and len(cent) == 2 and _is_finite(cent[0]) and _is_finite(cent[1]),
            "poses[%d].centroid must be finite [x, y]", pi,
        )
        poses.append(
            PersonPose(joints=tuple(slots), final_centroid=(float(cent[0]), float(cent[1])))
        )
    return PoseSet(poses=tuple(poses)), doc["height"], doc["width"]


# --- evaluation report --------------------------------------------------------


def report_to_doc(report: EvalReport) -> dict:
    return {
        "joint_names": list(report.joint_names),
        "per_joint_ap": list(report.per_joint_ap),
        "total_ap": report.total_ap,
        "count_confusion": report.count_confusion.tolist(),
        "count_mse": report.count_mse,
    }
