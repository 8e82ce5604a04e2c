"""Ground-truth map synthesis and the map-space loss.

Two map families are produced from an annotated scene, both evaluated at
integer pixel centers:

* confidence maps: one channel per joint category holding, at pixel p,
  max_i exp(-|p - p_j^i|^2 / sigma^2) over persons i.  The squared distance
  is divided by sigma^2 directly (no factor 2), and overlapping persons
  combine by pointwise max, so the value at an annotated integer position
  is exactly 1.0.  Each bump is computed only within the reach past which
  its float32 value is exactly 0, so the output equals the full-canvas
  kernel byte for byte.  Joints at integer positions slice their bump from
  one cached read-only template per (sigma, span), evaluated with the same
  float32 expression.

* regression maps: one 2-vector channel per joint category.  Inside the
  disk of radius `radius` around person i's joint j, the vector points from
  the pixel to that person's centroid (its joints' mean), scaled by 1/Z
  where Z is the canvas diagonal, so each component stays within 1.  Pixels
  covered by several persons store the mean of the non-zero contributions;
  pixels covered by none store (0, 0).  All windows, clipped to the canvas,
  feed one ordered pixel list (joint-major, persons in scene order); shared
  pixels sum it in float64 as a full-canvas accumulator does, so the output
  is the same.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .scene import Scene, _is_finite, _is_num, person_centroid

# Synthesis scales bumps by float32 -1/sigma^2 and reaches sigma*sqrt(104)
# pixels (see _bump_reach): below the first bound the scale overflows, above
# the second the reach does.
_SIGMA_RANGE = (1.0 / math.sqrt(np.finfo(np.float32).max), sys.float_info.max / math.sqrt(104.0))


@dataclass(frozen=True)
class ForwardParams:
    """Knobs of the map synthesis forward model."""

    sigma: float = 7.0
    radius: float = 7.0

    def __post_init__(self) -> None:
        if not (_is_num(self.sigma) and _SIGMA_RANGE[0] <= self.sigma <= _SIGMA_RANGE[1]):
            raise ParameterError("sigma must be in [%.3g, %.3g], got %r" % (*_SIGMA_RANGE, self.sigma))
        if not (_is_finite(self.radius) and self.radius >= 0):
            raise ParameterError("radius must be non-negative, got %r" % (self.radius,))


def _freeze(values, shape_tail: tuple[int, ...], what: str) -> np.ndarray:
    # Adopts the input: an already-float32 C-contiguous array is frozen in
    # place rather than copied, so builders can hand over scratch arrays.
    arr = np.ascontiguousarray(values, dtype=np.float32)
    expected_ndim = 3 + len(shape_tail)
    if arr.ndim != expected_ndim:
        raise DimensionError(
            "%s must have %d dims (K, H, W%s), got shape %s"
            % (what, expected_ndim, ", 2" if shape_tail else "", arr.shape)
        )
    if shape_tail and arr.shape[3:] != shape_tail:
        raise DimensionError("%s trailing dims must be %s, got %s" % (what, shape_tail, arr.shape[3:]))
    if 0 in arr.shape:
        raise DimensionError("%s has an empty dimension: %s" % (what, arr.shape))
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class _MapSet:
    """A read-only float32 array of shape (K, H, W) + _tail; errors call it _what."""

    values: np.ndarray
    _tail = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _freeze(self.values, self._tail, self._what))

    @property
    def num_joints(self) -> int:
        return self.values.shape[0]

    @property
    def height(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[2]


@dataclass(frozen=True)
class ConfidenceMapSet(_MapSet):
    """Per-joint confidence maps, shape (K, H, W) float32, read-only."""

    _what = "confidence maps"


@dataclass(frozen=True)
class RegressionMapSet(_MapSet):
    """Per-joint centroid offset maps, shape (K, H, W, 2) float32, read-only.

    The last axis holds (x, y) offset components, already divided by the
    canvas diagonal; offsets toward a joint mean on the canvas stay within 1.
    """

    _tail = (2,)
    _what = "regression maps"

    @property
    def norm_factor(self) -> float:
        """Canvas diagonal length used to (un)scale the stored offsets."""
        return math.hypot(self.height, self.width)


def _bump_reach(sigma: float) -> int:
    """Pixel distance beyond which a bump's float32 value is exactly 0.

    float32 exp underflows to 0 below about -103.97, so every pixel farther
    than sigma*sqrt(104) along either axis holds exp(-d^2/sigma^2) == 0; the
    extra pixel absorbs the rounding of positions and distances.
    """
    return math.ceil(sigma * math.sqrt(104.0)) + 1


# Near the smallest sigma, d^2 * neg_inv can pass float32's range; it
# becomes -inf, whose exp is the exact 0.
@np.errstate(over="ignore")
def _bump(dx: np.ndarray, dy: np.ndarray, neg_inv: np.float32) -> np.ndarray:
    b = np.square(dy)[:, None] + np.square(dx)[None, :]
    b *= neg_inv
    np.exp(b, out=b)
    return b


@functools.lru_cache(maxsize=8)
def _bump_template(sigma: float, span: int) -> np.ndarray:
    """The read-only bump of a joint at an integer position, over the
    offsets [-span, span + 1] on both axes."""
    offsets = np.arange(-span, span + 2, dtype=np.float32)
    template = _bump(offsets, offsets, np.float32(-1.0 / (sigma * sigma)))
    template.flags.writeable = False
    return template


def build_confidence_maps(scene: Scene, params: ForwardParams | None = None) -> ConfidenceMapSet:
    """Synthesize ground-truth confidence maps for every joint category.

    Each person's joint deposits a Gaussian bump, computed only inside the
    window where float32 exp is non-zero (see _bump_reach); persons combine
    by pointwise max so peak heights never wash out in crowds.  A joint at
    an integer position slices its bump from a cached template over the
    offsets [-reach, reach + 1] (clipped to the canvas), evaluated with the
    same float32 expression: its pixel offsets are exact in float32, so the
    template holds the very values a per-bump evaluation would.
    """
    params = params or ForwardParams()
    k, h, w = scene.num_joints, scene.height, scene.width
    out = np.zeros((k, h, w), dtype=np.float32)
    xs = np.arange(w, dtype=np.float32)
    ys = np.arange(h, dtype=np.float32)
    neg_inv = np.float32(-1.0 / (params.sigma * params.sigma))
    reach = _bump_reach(params.sigma)
    # Offsets past the canvas are never sliced, so a wide sigma on a small
    # canvas does not grow the template past the canvas.
    span = min(reach, max(h, w) - 1)
    template = _bump_template(params.sigma, span)
    # A plane's first bump is stored as is: the plane is still zero there,
    # and max(+0, b) == b for the non-negative bumps.
    touched = [False] * k
    for person in scene.persons:
        for j, pos in enumerate(person.joints):
            if pos is None:
                continue
            x0, y0 = math.floor(pos[0]), math.floor(pos[1])
            sx = slice(max(0, x0 - reach), min(w, x0 + reach + 2))
            sy = slice(max(0, y0 - reach), min(h, y0 + reach + 2))
            if pos[0] == x0 and pos[1] == y0:
                tx = slice(sx.start - x0 + span, sx.stop - x0 + span)
                ty = slice(sy.start - y0 + span, sy.stop - y0 + span)
                b = template[ty, tx]
            else:
                b = _bump(xs[sx] - np.float32(pos[0]), ys[sy] - np.float32(pos[1]), neg_inv)
            if touched[j]:
                np.maximum(out[j, sy, sx], b, out=out[j, sy, sx])
            else:
                out[j, sy, sx] = b
                touched[j] = True
    return ConfidenceMapSet(out)


def build_regression_maps(scene: Scene, params: ForwardParams | None = None) -> RegressionMapSet:
    """Synthesize dense offset maps from each joint to its person's joint mean.

    Only pixels within `radius` (Euclidean) of an annotated joint carry a
    vector.  Where disks of several persons overlap, the map stores the mean
    of the non-zero contributions (a person whose centroid coincides with
    the pixel contributes a zero vector and is not counted).

    Every (joint, person) window, clipped to the canvas, contributes its
    disk pixels to one list, joint-major with persons in scene order, and
    each listed pixel stores its offset.  Pixels listed more than once (one
    sort finds them) then store the mean from a bincount over their entries,
    which adds from 0.0 in list order as a full-canvas accumulator would, so
    the output is the same.
    """
    params = params or ForwardParams()
    k, h, w = scene.num_joints, scene.height, scene.width
    z = scene.norm_factor
    r = params.radius
    out = np.zeros((k, h, w, 2), dtype=np.float32)
    centroids = [person_centroid(person) for person in scene.persons]
    rows = [
        (j, *person.joints[j], *centroid)
        for j in range(k)
        for person, centroid in zip(scene.persons, centroids)
        if person.joints[j] is not None
    ]
    j, x0, y0, cx, cy = np.array(rows, dtype=np.float64).reshape(-1, 5).T
    # Window bounds: the pixels within radius along each axis, clipped to the
    # canvas, so no array outgrows it whatever the radius.
    xlo = np.maximum(np.ceil(x0 - r), 0.0)
    xhi = np.minimum(np.floor(x0 + r), w - 1.0)
    ylo = np.maximum(np.ceil(y0 - r), 0.0)
    yhi = np.minimum(np.floor(y0 + r), h - 1.0)
    # Window i's columns are xs[i, :] and its rows ys[i, :], padded to the
    # widest window; the padding fails the bounds test below.
    xs = xlo[:, None] + np.arange(max(0.0, (xhi - xlo).max(initial=-1.0) + 1.0))
    ys = ylo[:, None] + np.arange(max(0.0, (yhi - ylo).max(initial=-1.0) + 1.0))
    offx = (cx[:, None] - xs) / z
    offy = (cy[:, None] - ys) / z
    keep = (ys - y0[:, None])[:, :, None] ** 2 + (xs - x0[:, None])[:, None, :] ** 2 <= r * r
    keep &= (ys <= yhi[:, None])[:, :, None] & (xs <= xhi[:, None])[:, None, :]
    keep &= (offy != 0.0)[:, :, None] | (offx != 0.0)[:, None, :]
    # Kept pixels in window order, each window row-major.
    _, ny, nx = keep.shape
    corner = ((j * h + ylo) * w + xlo).astype(np.intp)
    cell = (corner[:, None, None] + np.arange(0, ny * w, w)[:, None] + np.arange(nx))[keep]
    vx, vy = np.repeat(offx[:, None], ny, 1)[keep], np.repeat(offy[:, :, None], nx, 2)[keep]
    # A lone offset is its own sum: no offset is -0.0, as centroids sum from 0.0.
    flat = out.reshape(-1, 2)
    flat[cell, 0] = vx
    flat[cell, 1] = vy
    # Each window is an ascending run of cells, which a merge sort takes whole.
    ordered = np.sort(cell, kind="stable")
    shared = np.isin(cell, ordered[1:][ordered[1:] == ordered[:-1]])
    if not shared.any():
        return RegressionMapSet(out)
    pixels, inverse = np.unique(cell[shared], return_inverse=True)
    counts = np.bincount(inverse)
    flat[pixels, 0] = np.bincount(inverse, weights=vx[shared]) / counts
    flat[pixels, 1] = np.bincount(inverse, weights=vy[shared]) / counts
    return RegressionMapSet(out)


def map_loss(pred, target) -> float:
    """Sum of squared differences between two map sets of the same kind.

    Accumulation happens in float64 over the row-major element order so the
    result is deterministic.
    """
    if type(pred) is not type(target):
        raise DimensionError(
            "cannot compare %s against %s" % (type(pred).__name__, type(target).__name__)
        )
    if pred.values.shape != target.values.shape:
        raise DimensionError(
            "map shapes differ: %s vs %s" % (pred.values.shape, target.values.shape)
        )
    diff = pred.values.astype(np.float64) - target.values.astype(np.float64)
    return float(np.sum(diff * diff))
