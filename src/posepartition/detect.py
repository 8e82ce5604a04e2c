"""Joint candidate detection on confidence maps.

A candidate is a strict local maximum at or above tau: its value must be
>= all 8 in-grid neighbors and strictly greater than at least one of them,
so plateaus (and in particular constant maps) produce nothing.  Detection
thresholds first and works from that run of pixels at or above tau: the
left/right test compares run neighbors only, since a neighbor outside the
run is below tau, and only the row maxima it keeps read the three pixels
above and the three below.  Surviving peaks are thinned per joint category
with a greedy Chebyshev non-maximum suppression, one loop over the peaks,
where higher-scoring peaks win and equal scores fall back to row-major
order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .maps import ConfidenceMapSet
from .scene import _is_int, _is_num

DEFAULT_TAU = 0.1  # score threshold shared by detection and greedy assembly


def _check_tau(tau) -> None:
    """The one tau rule, shared by detection and greedy assembly: a number
    strictly between 0 and 1."""
    if not (_is_num(tau) and 0.0 < tau < 1.0):
        raise ParameterError("tau must lie in (0, 1), got %r" % (tau,))


@dataclass(frozen=True)
class JointCandidate:
    """One detected joint hypothesis at an integer grid position (x, y)."""

    joint_id: int
    position: tuple[int, int]
    score: float

    def sort_key(self) -> tuple:
        """Canonical ordering: joint id, descending score, row-major position."""
        x, y = self.position
        return (self.joint_id, -self.score, y, x)


@dataclass(frozen=True)
class DetectorParams:
    tau: float = DEFAULT_TAU
    nms_radius: int = 3

    def __post_init__(self) -> None:
        _check_tau(self.tau)
        if not (_is_int(self.nms_radius) and self.nms_radius >= 1):
            raise ParameterError("nms_radius must be an integer >= 1, got %r" % (self.nms_radius,))


def _float32_ceil(value: float) -> np.float32:
    """Smallest float32 >= value, so float32 compares against it select
    exactly the float32 pixels that a float64 compare against value does."""
    t = np.float32(value)
    if float(t) < value:
        t = np.nextafter(t, np.float32(np.inf))
    return t


def detect_candidates(conf: ConfidenceMapSet, params: DetectorParams | None = None) -> list[JointCandidate]:
    """Extract thresholded, suppression-thinned peaks from every joint map.

    The output is sorted by (joint_id, descending score, row-major position)
    and does not depend on how the maps are traversed internally.  A NaN
    or +inf pixel anywhere raises ParameterError; -inf is below every tau.
    """
    params = params or DetectorParams()
    radius = params.nms_radius
    _, h, w = conf.values.shape
    flat = conf.values.ravel()
    # "Not below tau" selects NaN too, so the threshold pass also finds every
    # NaN and +inf pixel: +inf would make a candidate of infinite score and a
    # non-finite energy trace, and NaN fails every comparison, so it would
    # silently veto the peaks beside it.
    idx = np.flatnonzero(~(flat < _float32_ceil(params.tau)))
    v = flat[idx]
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        j, rest = divmod(int(idx[bad[0]]), h * w)
        what = "NaN" if np.isnan(v[bad[0]]) else "+inf"
        raise ParameterError("confidence map of joint %d is %s at (%d, %d)" % (j, what, rest % w, rest // w))
    # The row test reads no pixel: run pixel i + 1 is the right neighbor of
    # run pixel i when it follows it in memory on the same row.  Any other
    # in-grid left or right neighbor is below tau <= v, so it cannot veto
    # and always serves as the strict witness.
    row = idx // w  # j * h + y
    right = (idx[1:] == idx[:-1] + 1) & (row[1:] == row[:-1])
    ge_right, ge_left = v[:-1] >= v[1:], v[1:] >= v[:-1]
    keep = np.ones(idx.size, dtype=bool)
    keep[:-1] = ~right | ge_right
    keep[1:] &= ~right | ge_left
    tie = np.zeros(idx.size + 1, dtype=bool)  # tie[i]: run pixels i - 1, i are equal neighbors
    tie[1:-1] = right & ge_right & ge_left
    sel = np.flatnonzero(keep)
    idx, v, row = idx[sel], v[sel], row[sel]
    xs, ys = idx - row * w, row % h
    has_left, has_right = xs != 0, xs != w - 1
    strict = (has_left & ~tie[sel]) | (has_right & ~tie[sel + 1])
    # The vertical test reads the three pixels above and the three below each
    # row maximum.  An out-of-grid read is replaced by the pixel itself, or
    # by the in-grid pixel beside it: either repeats a comparison already
    # made, so it neither vetoes nor witnesses anything new.
    ge = np.ones(idx.size, dtype=bool)
    for mid in (np.where(ys > 0, idx - w, idx), np.where(ys < h - 1, idx + w, idx)):
        for nv in (flat[mid - has_left], flat[mid], flat[mid + has_right]):
            ge &= v >= nv
            strict |= v > nv
    peak = np.flatnonzero(ge & strict)
    js, ys, xs, scores = row[peak] // h, ys[peak], xs[peak], v[peak]
    order = np.lexsort((xs, ys, -scores, js))
    out: list[JointCandidate] = []
    kept: list[tuple[int, int]] = []
    current = -1
    ordered = (js[order].tolist(), ys[order].tolist(), xs[order].tolist(), scores[order].tolist())
    for j, y, x, s in zip(*ordered):
        if j != current:
            current = j
            kept = []
        for ky, kx in kept:
            if -radius <= y - ky <= radius and -radius <= x - kx <= radius:
                break
        else:
            kept.append((y, x))
            out.append(JointCandidate(j, (x, y), s))
    return out
