"""Joint candidate detection on confidence maps.

A candidate is a strict local maximum at or above tau: its value must be
>= all 8 in-grid neighbors and strictly greater than at least one of them,
so plateaus (and in particular constant maps) produce nothing.  Detection
thresholds first, keeps the pixels at or above tau that are row maxima,
and runs the full neighbor test only on those.  Surviving peaks are
thinned per joint category with a greedy Chebyshev non-maximum
suppression where higher-scoring peaks win and equal scores fall back to
row-major order.
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


def _row_maxima(flat: np.ndarray, idx: np.ndarray, v: np.ndarray, w: int) -> np.ndarray:
    """Mask over flat indices idx (values v) of pixels >= their in-grid left
    and right neighbors, a necessary condition for a strict local maximum.

    The two reads sit next to each pixel in memory, and on a smooth bump
    only a pixel or two per row pass, so the full neighbor test that
    follows runs on a few percent of the pixels at or above tau.  The reads
    are clamped to the array; the row-end masks discard what they return
    there.
    """
    xs = idx % w
    left = flat[np.maximum(idx - 1, 0)]
    right = flat[np.minimum(idx + 1, flat.size - 1)]
    return ((xs == 0) | (v >= left)) & ((xs == w - 1) | (v >= right))


def _strict_peaks(
    flat: np.ndarray, idx: np.ndarray, ys: np.ndarray, xs: np.ndarray, h: int, w: int
) -> np.ndarray:
    """Mask over flat indices idx of strict local maxima in their (h, w) plane.

    An out-of-grid neighbor is replaced by the pixel itself, so it never
    vetoes (v >= v) and never serves as the strict witness (not v > v); a
    1x1 plane therefore has no maxima.
    """
    v = flat[idx]
    row_ok = {-1: ys > 0, 0: True, 1: ys < h - 1}
    col_ok = {-1: xs > 0, 0: True, 1: xs < w - 1}
    ge_all = np.ones(idx.size, dtype=bool)
    gt_any = np.zeros(idx.size, dtype=bool)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            inside = row_ok[dy] & col_ok[dx]
            nv = flat[np.where(inside, idx + (dy * w + dx), idx)]
            ge_all &= v >= nv
            gt_any |= v > nv
    return ge_all & gt_any


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
    idx = idx[_row_maxima(flat, idx, v, w)]
    js, rest = np.divmod(idx, h * w)
    ys, xs = np.divmod(rest, w)
    peak = _strict_peaks(flat, idx, ys, xs, h, w)
    js, ys, xs, scores = js[peak], ys[peak], xs[peak], flat[idx[peak]]
    order = np.lexsort((xs, ys, -scores, js))
    out: list[JointCandidate] = []
    kept: list[tuple[int, int]] = []
    current = -1
    ordered = (js[order].tolist(), ys[order].tolist(), xs[order].tolist(), scores[order].tolist())
    for j, y, x, s in zip(*ordered):
        if j != current:
            current = j
            kept = []
        if any(abs(y - ky) <= radius and abs(x - kx) <= radius for ky, kx in kept):
            continue
        kept.append((y, x))
        out.append(JointCandidate(joint_id=j, position=(x, y), score=s))
    return out
