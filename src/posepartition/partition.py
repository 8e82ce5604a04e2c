"""Candidate partitioning by centroid voting.

Every joint candidate casts a vote for its person's centroid by following
the regression map: vote = position + Z * offset, with Z the canvas
diagonal.  Votes are grouped by agglomerative average-linkage clustering
with an absolute merge cutoff; each resulting cluster is one person
hypothesis (a partition).  Assembly builds the decode energy, minus the
assigned joints' scores, minus pairwise vote agreement, from its members.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .detect import JointCandidate
from .errors import DimensionError, ParameterError
from .maps import RegressionMapSet
from .scene import _is_finite, _mean


@dataclass(frozen=True)
class Vote:
    """A candidate's predicted centroid location in pixel coordinates."""

    source: JointCandidate
    point: tuple[float, float]


@dataclass(frozen=True)
class ClusterParams:
    """Average-linkage clustering controls.

    link_threshold is an absolute pixel distance: clusters merge while the
    smallest average linkage stays at or below it.  weights optionally
    rescales each joint category's contribution to a vote density; every
    weight is positive.  vote_density is its only reader: clustering reads
    link_threshold alone.
    """

    link_threshold: float
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not (_is_finite(self.link_threshold) and self.link_threshold > 0):
            raise ParameterError("link_threshold must be positive, got %r" % (self.link_threshold,))
        if self.weights is not None and not all(_is_finite(w) and w > 0 for w in self.weights):
            raise ParameterError("vote weights must be finite and positive")

    def weight_of(self, joint_id: int) -> float:
        if self.weights is None:
            return 1.0
        if not 0 <= joint_id < len(self.weights):
            raise ParameterError("no weight for joint id %d" % joint_id)
        return self.weights[joint_id]


@dataclass(frozen=True)
class Partition:
    """One person hypothesis: one or more member candidates, each with its
    centroid vote (votes[i] is members[i]'s), and the centroid derived from
    the votes.  Assembly turns the members into poses; the decode energy is
    minus the assigned joints' scores, minus pairwise vote agreement."""

    members: tuple[JointCandidate, ...]
    votes: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not 0 < len(self.votes) == len(self.members):
            raise DimensionError(
                "partition has %d votes for %d members" % (len(self.votes), len(self.members))
            )

    @property
    def centroid(self) -> tuple[float, float]:
        """The votes' sum, added left to right from 0.0, over their count."""
        return _mean(self.votes)


def embed(candidates: Sequence[JointCandidate], reg: RegressionMapSet) -> list[Vote]:
    """Map candidates to centroid votes via the regression maps: one gather
    reads every offset, and each vote is x + z * tx in Python floats.
    The first candidate that fails a check raises ParameterError: a joint id
    outside the maps, then a position off the grid, then a non-finite offset.
    """
    k, h, w = reg.values.shape[:3]
    # Each candidate's row in the (K * H * W, 2) view, -1 if off the maps.
    cells = [
        (j * h + y) * w + x if 0 <= j < k and 0 <= x < w and 0 <= y < h else -1
        for j, (x, y) in ((c.joint_id, c.position) for c in candidates)
    ]
    # Not take(): it copies maps read unaligned from a PMAP file whole.
    t = reg.values.reshape(-1, 2)[cells]
    if -1 in cells or not np.isfinite(t).all():
        i = next(i for i, cell in enumerate(cells) if cell < 0 or not np.isfinite(t[i]).all())
        (x, y), j = candidates[i].position, candidates[i].joint_id
        if not 0 <= j < k:
            raise ParameterError("candidate joint id %d outside regression maps" % j)
        if not (0 <= x < w and 0 <= y < h):
            raise ParameterError("candidate position (%d, %d) outside the grid" % (x, y))
        raise ParameterError("regression offset of joint %d at (%d, %d) is not finite" % (j, x, y))
    z = reg.norm_factor
    return [
        Vote(source=c, point=(c.position[0] + z * tx, c.position[1] + z * ty))
        for c, (tx, ty) in zip(candidates, t.tolist())
    ]


def vote_density(point: tuple[float, float], votes: Sequence[Vote], params: ClusterParams) -> float:
    """Unnormalized vote density at a location.

    Sum over votes of weight(joint) * exp(-squared pixel distance).  The
    exponential has unit variance by construction, so the value is only
    meaningful relative to other locations.
    """
    density = 0.0
    for vote in votes:
        dx = vote.point[0] - point[0]
        dy = vote.point[1] - point[1]
        density += params.weight_of(vote.source.joint_id) * math.exp(-(dx * dx + dy * dy))
    return density


def cluster_votes(votes: Sequence[Vote], params: ClusterParams) -> list[Partition]:
    """Group votes into person hypotheses by average-linkage clustering.

    Merging runs in rounds.  Each round merges every pair of clusters that
    are each other's nearest at an average linkage at or below
    params.link_threshold; a round with no such pair ends it.  Average
    linkage is reducible, so this is the hierarchy of merging the closest
    pair one at a time.  A cluster's id is the canonical rank of its smallest
    member (candidates ordered by joint id, descending score, row-major
    position), so the outcome ignores input order.  Ties break toward the
    smallest (id, id) pair only up to the rounding of the linkage recurrence.
    A partition depends on its member set alone: members and votes come in
    canonical order.  A vote point that is not finite, or more votes than
    the n x n linkage matrix has memory for, raises ParameterError.
    """
    n = len(votes)
    if n == 0:
        return []
    # Votes by their source candidate's canonical key (the order detection
    # emits), so centroid sums ignore the input order too.
    canonical = sorted(votes, key=lambda v: v.source.sort_key())
    pts = np.array([v.point for v in canonical], dtype=np.float64)
    if not np.isfinite(pts).all():
        c = canonical[int(np.isfinite(pts).all(axis=1).argmin())].source
        raise ParameterError("vote of joint %d at (%d, %d) is not finite" % (c.joint_id, *c.position))

    # Cluster state keyed by canonical id (the id of a merged cluster is its
    # smallest member id).  Linkage lives in a symmetric matrix updated with
    # the average-linkage recurrence; inactive rows and the diagonal are inf,
    # so a row argmin is a cluster's nearest with the smallest-id tie-break.
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    try:
        dx = pts[:, None, 0] - pts[None, :, 0]
        dy = pts[:, None, 1] - pts[None, :, 1]
        dist = np.sqrt(dx * dx + dy * dy)
    except MemoryError:
        raise ParameterError("%d votes are too many to cluster: no memory for their linkage matrix" % n) from None
    np.fill_diagonal(dist, np.inf)
    threshold = params.link_threshold

    cols = dist.T  # cols[i] is column i, a cheaper view than dist[:, i]
    ids = np.arange(n)
    while True:
        # Linkage is reducible: each pair stays mutual as earlier pairs merge.
        nn = dist.argmin(axis=1)
        pairs = np.flatnonzero((nn[nn] == ids) & (ids < nn) & (dist[ids, nn] <= threshold))
        if not pairs.size:
            break
        for a, b in zip(pairs.tolist(), nn[pairs].tolist()):
            ma = members[a]
            mb = members.pop(b)
            na, nb = len(ma), len(mb)
            # Row a becomes (na * row a + nb * row b) / (na + nb), in place and
            # with the same IEEE operations, less the products by 1 (x * 1 is
            # x).  Its entries a and b come out inf, each the sum of an inf
            # diagonal term and the finite d(a, b).
            row_a, row_b = dist[a], dist[b]
            if na > 1:
                row_a *= na
            if nb > 1:
                row_b *= nb
            row_a += row_b
            row_a /= na + nb
            cols[a] = row_a
            row_b.fill(np.inf)
            cols[b] = np.inf
            ma.extend(mb)

    return [
        Partition(
            members=tuple(canonical[i].source for i in canon),
            votes=tuple(canonical[i].point for i in canon),
        )
        for canon in (sorted(members[cid]) for cid in sorted(members))
    ]
