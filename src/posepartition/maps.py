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
  one template per call, evaluated with the same float32 expression.

* regression maps: one 2-vector channel per joint category.  Inside the
  disk of radius `radius` around person i's joint j, the vector points from
  the pixel to that person's centroid, scaled by 1/Z where Z is the canvas
  diagonal.  Pixels covered by several persons store the mean of the
  non-zero contributions; pixels covered by none store (0, 0).  All
  windows, clipped to the canvas, feed one ordered scatter (joint-major,
  persons in scene order) whose float64 sums are those of a full-canvas
  accumulator, so the output is too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .scene import Scene, person_centroid


@dataclass(frozen=True)
class ForwardParams:
    """Knobs of the map synthesis forward model."""

    sigma: float = 7.0
    radius: float = 7.0

    def __post_init__(self) -> None:
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ParameterError("sigma must be positive, got %g" % self.sigma)
        if not (self.radius >= 0 and math.isfinite(self.radius)):
            raise ParameterError("radius must be non-negative, got %g" % self.radius)


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
class ConfidenceMapSet:
    """Per-joint confidence maps, shape (K, H, W) float32, read-only."""

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _freeze(self.values, (), "confidence maps"))

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
class RegressionMapSet:
    """Per-joint centroid offset maps, shape (K, H, W, 2) float32, read-only.

    The last axis holds (x, y) offset components, already divided by the
    canvas diagonal so magnitudes stay within 1 for in-canvas centroids.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _freeze(self.values, (2,), "regression maps"))

    @property
    def num_joints(self) -> int:
        return self.values.shape[0]

    @property
    def height(self) -> int:
        return self.values.shape[1]

    @property
    def width(self) -> int:
        return self.values.shape[2]

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


def build_confidence_maps(scene: Scene, params: ForwardParams | None = None) -> ConfidenceMapSet:
    """Synthesize ground-truth confidence maps for every joint category.

    Each person's joint deposits a Gaussian bump, computed only inside the
    window where float32 exp is non-zero (see _bump_reach); persons combine
    by pointwise max so peak heights never wash out in crowds.  A joint at
    an integer position takes its bump from a template evaluated once per
    call over the offsets [-reach, reach + 1] (clipped to the canvas) with
    the same float32 expression: its pixel offsets are exact in float32, so
    the template holds the very values a per-bump evaluation would.
    """
    params = params or ForwardParams()
    k, h, w = scene.num_joints, scene.height, scene.width
    out = np.zeros((k, h, w), dtype=np.float32)
    xs = np.arange(w, dtype=np.float32)
    ys = np.arange(h, dtype=np.float32)
    neg_inv = np.float32(-1.0 / (params.sigma * params.sigma))
    reach = _bump_reach(params.sigma)

    def bump(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        dx2 = np.square(dx)
        dy2 = np.square(dy)
        b = dy2[:, None] + dx2[None, :]
        b *= neg_inv
        np.exp(b, out=b)
        return b

    # Offsets past the canvas are never sliced, so a wide sigma on a small
    # canvas does not grow the template past the canvas.
    span = min(reach, max(h, w) - 1)
    offsets = np.arange(-span, span + 2, dtype=np.float32)
    template = bump(offsets, offsets)
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
                b = bump(xs[sx] - np.float32(pos[0]), ys[sy] - np.float32(pos[1]))
            if touched[j]:
                np.maximum(out[j, sy, sx], b, out=out[j, sy, sx])
            else:
                out[j, sy, sx] = b
                touched[j] = True
    return ConfidenceMapSet(out)


_FLOAT32_MAX = float(np.finfo(np.float32).max)


def build_regression_maps(scene: Scene, params: ForwardParams | None = None) -> RegressionMapSet:
    """Synthesize dense joint-to-centroid offset maps.

    Only pixels within `radius` (Euclidean) of an annotated joint carry a
    vector.  Where disks of several persons overlap, the map stores the mean
    of the non-zero contributions (a person whose centroid coincides with
    the pixel contributes a zero vector and is not counted).

    Every (joint, person) window, clipped to the canvas, contributes its
    disk pixels to one list, joint-major with persons in scene order.  The
    per-pixel float64 sums come from one bincount over that list, which adds
    from 0.0 in list order, so each pixel sums its contributions in the same
    order as a full-canvas accumulator would, and so the output is the same.
    """
    params = params or ForwardParams()
    k, h, w = scene.num_joints, scene.height, scene.width
    z = scene.norm_factor
    r = params.radius
    out = np.zeros((k, h, w, 2), dtype=np.float32)
    centroids = [person_centroid(person) for person in scene.persons]
    rows = [
        (j, gi, *person.joints[j], *centroid)
        for j in range(k)
        for gi, (person, centroid) in enumerate(zip(scene.persons, centroids))
        if person.joints[j] is not None
    ]
    j, person_idx, x0, y0, cx, cy = np.array(rows, dtype=np.float64).reshape(-1, 6).T
    # Window bounds: integer joints span floor(radius) pixels each way, the
    # others the pixels within radius along each axis; both are clipped to
    # the canvas, so no array outgrows it whatever the radius.
    ri = math.floor(r)
    integral = (x0 == np.floor(x0)) & (y0 == np.floor(y0))
    xlo = np.maximum(np.where(integral, x0 - ri, np.ceil(x0 - r)), 0.0)
    xhi = np.minimum(np.where(integral, x0 + ri, np.floor(x0 + r)), w - 1.0)
    ylo = np.maximum(np.where(integral, y0 - ri, np.ceil(y0 - r)), 0.0)
    yhi = np.minimum(np.where(integral, y0 + ri, np.floor(y0 + r)), h - 1.0)
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
    win, iy, ix = np.nonzero(keep)
    corner = ((j * h + ylo) * w + xlo).astype(np.intp)
    cell = corner[win] + iy * w + ix
    vx, vy = offx[win, ix], offy[win, iy]
    # A finite centroid far off the canvas can give offsets past float32.
    # A pixel's mean never exceeds its largest contribution, so checking
    # the contributions keeps the float32 store below from overflowing.
    too_big = np.maximum(np.abs(vx), np.abs(vy)) > _FLOAT32_MAX
    if too_big.any():
        i = win[too_big.argmax()]
        raise ParameterError(
            "regression offset of person %d joint %d toward centroid (%g, %g) exceeds float32"
            % (person_idx[i], j[i], cx[i], cy[i])
        )
    pixels, inverse = np.unique(cell, return_inverse=True)
    # Dividing by a count of 1 is exact, so single-contributor pixels keep
    # their sum.
    counts = np.bincount(inverse)
    flat = out.reshape(-1, 2)
    flat[pixels, 0] = np.bincount(inverse, weights=vx) / counts
    flat[pixels, 1] = np.bincount(inverse, weights=vy) / counts
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
