"""Seeded synthetic scene generation.

Scenes hold 1..N copies of the jittered humanoid joint template placed by
rejection sampling so person centroids keep a minimum separation.  All
coordinates are integers and every draw comes from one seeded PCG64 stream,
so a given (spec, seed) pair always produces the same scenes byte for byte.
The bytes rest on the draw order: per scene a person count, then per placement
attempt one bounded integer each for anchor x, anchor y, and the x and y
jitter of every joint in layout order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ParameterError
from .scene import PersonAnnotation, Scene, _is_finite, _is_int, mpii_joint_layout, person_centroid

# Joint offsets (dx, dy) in pixels relative to the placement anchor, loosely
# matching frontal standing proportions.  Keys follow the default layout
# names.
HUMANOID_TEMPLATE: dict[str, tuple[float, float]] = {
    "head_top": (0.0, -62.0),
    "neck": (0.0, -46.0),
    "thorax": (0.0, -38.0),
    "r_shoulder": (-17.0, -36.0),
    "l_shoulder": (17.0, -36.0),
    "r_elbow": (-25.0, -16.0),
    "l_elbow": (25.0, -16.0),
    "r_wrist": (-31.0, 6.0),
    "l_wrist": (31.0, 6.0),
    "pelvis": (0.0, -2.0),
    "r_hip": (-10.0, 0.0),
    "l_hip": (10.0, 0.0),
    "r_knee": (-13.0, 30.0),
    "l_knee": (13.0, 30.0),
    "r_ankle": (-15.0, 60.0),
    "l_ankle": (15.0, 60.0),
}

_MAX_ATTEMPTS = 2000  # placements tried per scene before giving up


@dataclass(frozen=True)
class CorpusSpec:
    """What to generate: scene count, canvas, crowding, and jitter."""

    num_scenes: int = 200
    min_persons: int = 1
    max_persons: int = 5
    min_separation: float = 60.0
    height: int = 256
    width: int = 256
    jitter: int = 4

    def __post_init__(self) -> None:
        for name in ("num_scenes", "min_persons", "max_persons", "height", "width", "jitter"):
            if not _is_int(getattr(self, name)):
                raise ParameterError("%s must be an integer, got %r" % (name, getattr(self, name)))
        if self.num_scenes < 0:
            raise ParameterError("num_scenes must be non-negative")
        if not 1 <= self.min_persons <= self.max_persons:
            raise ParameterError(
                "person range must satisfy 1 <= min <= max, got [%d, %d]"
                % (self.min_persons, self.max_persons)
            )
        if not (_is_finite(self.min_separation) and self.min_separation >= 0):
            raise ParameterError("min_separation must be finite and non-negative")
        if self.height < 1 or self.width < 1:
            raise ParameterError("canvas must be at least 1x1")
        if self.jitter < 0:
            raise ParameterError("jitter must be non-negative")


def _anchor_box(spec: CorpusSpec) -> tuple[int, int, int, int]:
    """Inclusive anchor bounds keeping every jittered joint inside the canvas."""
    dxs, dys = zip(*HUMANOID_TEMPLATE.values())
    pad = spec.jitter
    xlo, xhi = math.ceil(-min(dxs) + pad), math.floor(spec.width - 1 - (max(dxs) + pad))
    ylo, yhi = math.ceil(-min(dys) + pad), math.floor(spec.height - 1 - (max(dys) + pad))
    if xlo > xhi or ylo > yhi:
        raise ConfigurationError(
            "canvas %dx%d cannot fit the joint template with jitter %d"
            % (spec.width, spec.height, spec.jitter)
        )
    return xlo, xhi, ylo, yhi


def generate_corpus(spec: CorpusSpec, seed: int) -> list[Scene]:
    """Generate the corpus deterministically from one seed, an integer >= 0.

    Raises ConfigurationError when a scene runs out of placement attempts,
    which signals an infeasible crowding/separation combination.
    """
    if not (_is_int(seed) and seed >= 0):
        raise ParameterError("seed must be a non-negative integer, got %r" % (seed,))
    layout = mpii_joint_layout()
    rng = np.random.default_rng(seed)
    xlo, xhi, ylo, yhi = _anchor_box(spec)
    offsets = [HUMANOID_TEMPLATE[js.name] for js in layout]
    low = np.array([xlo, ylo] + [-spec.jitter] * (2 * len(offsets)))
    high = np.array([xhi + 1, yhi + 1] + [spec.jitter + 1] * (2 * len(offsets)))

    scenes = []
    for _ in range(spec.num_scenes):
        n_persons = int(rng.integers(spec.min_persons, spec.max_persons + 1))
        persons: list[PersonAnnotation] = []
        centroids: list[tuple[float, float]] = []
        attempts = 0
        while len(persons) < n_persons:
            if attempts >= _MAX_ATTEMPTS:
                raise ConfigurationError(
                    "failed to place %d persons with separation %g after %d attempts"
                    % (n_persons, spec.min_separation, _MAX_ATTEMPTS)
                )
            attempts += 1
            ax, ay, *jit = rng.integers(low, high).tolist()
            joints = [(float(ax + dx + jx), float(ay + dy + jy))
                      for (dx, dy), jx, jy in zip(offsets, jit[::2], jit[1::2])]
            person = PersonAnnotation(joints=tuple(joints))
            centroid = person_centroid(person)
            if any(math.dist(centroid, c) < spec.min_separation for c in centroids):
                continue
            centroids.append(centroid)
            persons.append(person)
        scenes.append(Scene(spec.height, spec.width, layout, tuple(persons)))
    return scenes
