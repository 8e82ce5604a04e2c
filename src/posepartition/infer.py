"""Greedy per-partition pose assembly and the decode energy.

Within one partition, poses are grown joint by joint: the root is the
highest-scoring candidate of the earliest joint category still present
(neck first, torso and limb categories as fallbacks), and every later
category contributes its candidate whose centroid vote lies closest to the
running mean of the accepted votes.  Accepting a candidate always lowers
the decode energy, so the recorded energy trace is strictly decreasing.

The energy's per-joint term is each candidate's detection score, so assembly
reads only the partitions and the joint layout, never a map.  A decoded pose
holds the candidates assembly chose: slot j holds a joint-j candidate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .detect import DEFAULT_TAU, JointCandidate
from .errors import ParameterError
from .maps import RegressionMapSet
from .partition import Partition, embed, partition_score
from .scene import JointSpec


@dataclass(frozen=True)
class PersonPose:
    """One decoded person: per joint category j, the joint-j candidate
    assembly chose, or None."""

    joints: tuple[JointCandidate | None, ...]
    final_centroid: tuple[float, float]

    def present_count(self) -> int:
        return sum(1 for j in self.joints if j is not None)


@dataclass(frozen=True)
class PoseSet:
    """All decoded persons of one scene."""

    poses: tuple[PersonPose, ...]


def _sq_dist(p: tuple[float, float], q: tuple[float, float]) -> float:
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return dx * dx + dy * dy


def pairwise(
    a: JointCandidate,
    b: JointCandidate,
    reg: RegressionMapSet,
    tau: float = DEFAULT_TAU,
) -> float:
    """Vote agreement between two candidates, gated by the score threshold.

    Returns exp(-squared distance between the two centroid votes) when both
    candidate scores reach tau, else 0.
    """
    if a.score < tau or b.score < tau:
        return 0.0
    va, vb = embed([a, b], reg)
    return math.exp(-_sq_dist(va.point, vb.point))


def _greedy_one_partition(
    partition: Partition,
    by_rank: Sequence[JointSpec],
    tau: float,
) -> tuple[list[PersonPose], list[float]]:
    """Consume a partition into poses, returning per-acceptance energy deltas.

    by_rank is the joint layout sorted by inference rank.  Every pass roots
    a new pose, which is emitted even when only the root was assigned.
    """
    for cand in partition.members:
        # "not >=" also rejects a NaN score, which would leave the pools
        # below without an order.
        if not cand.score >= tau:
            raise ParameterError(
                "partition member at %s scores %g, below tau %g"
                % (cand.position, cand.score, tau)
            )
    # Per joint category, the (candidate, vote) pairs not yet assigned,
    # ordered by the candidates' sort keys (descending score, then
    # row-major): a pool's first pair is its best root, and among pairs at
    # equal vote distance the first is the one with the smallest sort key.
    pools: dict[int, list[tuple[JointCandidate, tuple[float, float]]]] = {
        js.joint_id: [] for js in by_rank
    }
    for pair in sorted(zip(partition.members, partition.votes), key=lambda m: m[0].sort_key()):
        pool = pools.get(pair[0].joint_id)
        if pool is None:
            raise ParameterError(
                "partition member joint id %d is not in the layout" % pair[0].joint_id
            )
        pool.append(pair)
    poses: list[PersonPose] = []
    deltas: list[float] = []
    k = len(by_rank)

    while True:
        # Root: best candidate of the earliest category that still has one.
        root_js = next((js for js in by_rank if pools[js.joint_id]), None)
        if root_js is None:
            break
        root, center = pools[root_js.joint_id].pop(0)
        accepted = [root]
        embeds = [center]
        # Running vote sums start at int 0, as sum() does (so -0.0 sums to 0.0).
        sx = sy = 0
        sx += center[0]
        sy += center[1]
        deltas.append(-root.score)

        for js in by_rank:
            if js.inference_rank <= root_js.inference_rank:
                continue
            pool = pools[js.joint_id]
            if not pool:
                continue
            # The closest vote to the center; the pool order breaks ties.
            cx, cy = center
            best = 0
            best_d = math.inf
            for i, (_, (vx, vy)) in enumerate(pool):
                dx = vx - cx
                dy = vy - cy
                d = dx * dx + dy * dy
                if d < best_d:
                    best, best_d = i, d
            chosen, h = pool.pop(best)
            hx, hy = h
            delta = -chosen.score
            # pairwise(chosen, prev) for every accepted prev, from the votes
            # already at hand: all members reach tau (checked above).
            for ex, ey in embeds:
                dx = hx - ex
                dy = hy - ey
                delta -= math.exp(-(dx * dx + dy * dy))
            deltas.append(delta)
            accepted.append(chosen)
            embeds.append(h)
            sx += hx
            sy += hy
            center = (sx / len(embeds), sy / len(embeds))

        slots: list[JointCandidate | None] = [None] * k
        for cand in accepted:
            slots[cand.joint_id] = cand
        poses.append(PersonPose(joints=tuple(slots), final_centroid=center))
    return poses, deltas


def infer_all(
    partitions: Sequence[Partition],
    layout: Sequence[JointSpec],
    tau: float = DEFAULT_TAU,
) -> tuple[PoseSet, list[float]]:
    """Decode every partition in order.

    Returns the concatenated poses plus the energy trace: the decode energy
    before any assignment followed by its value after each accepted joint.
    """
    # 0.0 - x, not -x: an empty decode's energy is 0.0, not -0.0.
    base = 0.0 - partition_score(partitions)
    trace = [base]
    poses: list[PersonPose] = []
    by_rank = sorted(layout, key=lambda js: js.inference_rank)
    for part in partitions:
        part_poses, deltas = _greedy_one_partition(part, by_rank, tau)
        poses.extend(part_poses)
        for d in deltas:
            trace.append(trace[-1] + d)
    return PoseSet(poses=tuple(poses)), trace


def energy(
    poses: PoseSet,
    partitions: Sequence[Partition],
    reg: RegressionMapSet,
    tau: float = DEFAULT_TAU,
) -> float:
    """Decode energy of a finished assignment.

    Negative partition score, minus every assigned joint's score, minus the
    pairwise vote agreement over unordered joint pairs within each pose.
    Lower is better; each greedy acceptance strictly lowers it.
    """
    total = 0.0 - partition_score(partitions)
    for pose in poses.poses:
        present = [cand for cand in pose.joints if cand is not None]
        for cand in present:
            total -= cand.score
        for i in range(len(present)):
            for j in range(i + 1, len(present)):
                total -= pairwise(present[i], present[j], reg, tau)
    return total
