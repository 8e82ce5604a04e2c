"""Greedy per-partition pose assembly and the decode energy.

Within one partition, poses are grown in one pass over per-category pools
in inference-rank order: roots come from the earliest non-empty pool (rank
0, the neck, first and later ranks as fallbacks), best score first, until it
is empty, and every later pool contributes its candidate whose centroid
vote lies closest to the running mean of the accepted votes.

The decode energy is minus the assigned joints' scores, minus pairwise vote
agreement; it starts at 0.0 before any assignment.  Accepting a candidate
always lowers it, and the energy trace grows in place with each acceptance,
so it is strictly decreasing.  The per-joint term is each candidate's
detection score, so assembly reads only the partitions and the joint
layout, never a map.  A decoded pose holds the candidates assembly chose:
slot j holds a joint-j candidate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .detect import DEFAULT_TAU, JointCandidate, _check_tau
from .errors import ParameterError
from .maps import RegressionMapSet
from .partition import Partition, embed
from .scene import JointSpec, validate_joint_layout


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


def pairwise(
    a: JointCandidate,
    b: JointCandidate,
    reg: RegressionMapSet,
    tau: float = DEFAULT_TAU,
) -> float:
    """Vote agreement between two candidates, gated by the score threshold.

    Returns exp(-squared distance between the two centroid votes) when both
    candidate scores reach tau, else 0; a tau outside (0, 1) raises.
    """
    _check_tau(tau)
    if a.score < tau or b.score < tau:
        return 0.0
    va, vb = embed([a, b], reg)
    dx = va.point[0] - vb.point[0]
    dy = va.point[1] - vb.point[1]
    return math.exp(-(dx * dx + dy * dy))


def _greedy_one_partition(
    partition: Partition,
    position: dict[int, int],
    k: int,
    tau: float,
    poses: list[PersonPose],
    trace: list[float],
) -> None:
    """Consume a partition into poses, appending each pose to poses and the
    energy after each acceptance to trace.

    position maps a joint id to its place in the rank-sorted layout of k
    joints.  Roots come from the earliest non-empty pool until it is empty;
    each root's pose takes one candidate from every later non-empty pool.
    A pose is emitted even when only the root was assigned.
    """
    for cand in partition.members:
        # "not >=" also rejects a NaN score, which would leave the pools
        # below without an order.
        if not cand.score >= tau:
            raise ParameterError(
                "partition member at %s scores %g, below tau %g"
                % (cand.position, cand.score, tau)
            )
    # Per joint category in rank order, the (candidate, vote) pairs not yet
    # assigned, ordered by the candidates' sort keys (descending score, then
    # row-major): a pool's first pair is its best root, and among pairs at
    # equal vote distance the first is the one with the smallest sort key.
    pools: list[list[tuple[JointCandidate, tuple[float, float]]]] = [[] for _ in range(k)]
    for pair in sorted(zip(partition.members, partition.votes), key=lambda m: m[0].sort_key()):
        r = position.get(pair[0].joint_id)
        if r is None:
            raise ParameterError(
                "partition member joint id %d is not in the layout" % pair[0].joint_id
            )
        pools[r].append(pair)

    # Pools before r are empty for good: a pose takes joints only from the
    # pools after its root's.
    for r, root_pool in enumerate(pools):
        while root_pool:
            root, center = root_pool.pop(0)
            slots: list[JointCandidate | None] = [None] * k
            slots[root.joint_id] = root
            embeds = [center]
            # Running vote sums start at int 0, as sum() does (so -0.0 sums to 0.0).
            sx, sy = 0 + center[0], 0 + center[1]
            trace.append(trace[-1] - root.score)
            for pool in pools[r + 1:]:
                if not pool:
                    continue
                # The closest vote to the center; the pool order breaks ties.
                cx, cy = center
                best, best_d = 0, math.inf
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
                trace.append(trace[-1] + delta)
                slots[chosen.joint_id] = chosen
                embeds.append(h)
                sx += hx
                sy += hy
                center = (sx / len(embeds), sy / len(embeds))
            poses.append(PersonPose(joints=tuple(slots), final_centroid=center))


def infer_all(
    partitions: Sequence[Partition],
    layout: Sequence[JointSpec],
    tau: float = DEFAULT_TAU,
) -> tuple[PoseSet, list[float]]:
    """Decode every partition in order.

    Returns the concatenated poses plus the energy trace: 0.0 before any
    assignment followed by the decode energy after each accepted joint,
    grown in place as each partition is assembled.  A tau outside (0, 1)
    raises ParameterError, as in detection, and a layout that
    validate_joint_layout rejects raises its AnnotationError.
    """
    _check_tau(tau)
    validate_joint_layout(layout)
    trace = [0.0]
    poses: list[PersonPose] = []
    by_rank = sorted(layout, key=lambda js: js.inference_rank)
    position = {js.joint_id: r for r, js in enumerate(by_rank)}
    for part in partitions:
        _greedy_one_partition(part, position, len(by_rank), tau, poses, trace)
    return PoseSet(poses=tuple(poses)), trace


def energy(poses: PoseSet, reg: RegressionMapSet, tau: float = DEFAULT_TAU) -> float:
    """Decode energy of a finished assignment.

    Minus the assigned joints' scores, minus pairwise vote agreement over
    unordered joint pairs within each pose; 0.0 with nothing assigned.
    Lower is better; each greedy acceptance strictly lowers it.
    """
    _check_tau(tau)
    total = 0.0
    for pose in poses.poses:
        present = [cand for cand in pose.joints if cand is not None]
        for cand in present:
            total -= cand.score
        for i in range(len(present)):
            for j in range(i + 1, len(present)):
                total -= pairwise(present[i], present[j], reg, tau)
    return total
