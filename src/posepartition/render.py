"""Plain PPM stick-figure rendering of decoded poses.

The renderer emits binary P6 images with one palette color per person,
drawing skeleton edges where both endpoint joints were assigned and small
squares at every assigned joint.  It exists for eyeballing results, not for
publication graphics.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .infer import PoseSet
from .scene import Scene

# Edges between joint names of the default layout.  Layouts with other
# names fall back to joints-only rendering.
_SKELETON_EDGES: tuple[tuple[str, str], ...] = (
    ("head_top", "neck"),
    ("neck", "thorax"),
    ("thorax", "r_shoulder"),
    ("thorax", "l_shoulder"),
    ("r_shoulder", "r_elbow"),
    ("r_elbow", "r_wrist"),
    ("l_shoulder", "l_elbow"),
    ("l_elbow", "l_wrist"),
    ("thorax", "pelvis"),
    ("pelvis", "r_hip"),
    ("pelvis", "l_hip"),
    ("r_hip", "r_knee"),
    ("r_knee", "r_ankle"),
    ("l_hip", "l_knee"),
    ("l_knee", "l_ankle"),
)

PALETTE: tuple[tuple[int, int, int], ...] = (
    (204, 0, 0),
    (0, 102, 204),
    (0, 153, 0),
    (230, 130, 0),
    (128, 0, 170),
    (0, 160, 160),
    (200, 0, 140),
    (90, 90, 90),
)


def _draw_line(img: np.ndarray, p0: tuple[int, int], p1: tuple[int, int], color) -> None:
    """Bresenham line; coordinates are (x, y)."""
    h, w, _ = img.shape
    x0, y0 = p0
    x1, y1 = p1
    dx = abs(x1 - x0)
    dy = -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    while True:
        if 0 <= x0 < w and 0 <= y0 < h:
            img[y0, x0] = color
        if x0 == x1 and y0 == y1:
            break
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x0 += sx
        if e2 <= dx:
            err += dx
            y0 += sy


def _draw_dot(img: np.ndarray, p: tuple[int, int], color) -> None:
    h, w, _ = img.shape
    x, y = p
    for yy in range(y - 1, y + 2):
        for xx in range(x - 1, x + 2):
            if 0 <= xx < w and 0 <= yy < h:
                img[yy, xx] = color


def render_poses(poses: PoseSet, scene: Scene) -> bytes:
    """Render decoded poses over a white canvas as binary PPM (P6) bytes; a
    pose whose joint slots do not match the scene's layout raises DimensionError."""
    h, w, k = scene.height, scene.width, scene.num_joints
    img = np.full((h, w, 3), 255, dtype=np.uint8)
    id_of = {js.name: js.joint_id for js in scene.joint_layout}
    edges = [
        (id_of[a], id_of[b]) for a, b in _SKELETON_EDGES if a in id_of and b in id_of
    ]
    for pi, pose in enumerate(poses.poses):
        if len(pose.joints) != k:
            raise DimensionError("pose %d has %d joint slots, scene has %d" % (pi, len(pose.joints), k))
        color = PALETTE[pi % len(PALETTE)]
        for ja, jb in edges:
            ea, eb = pose.joints[ja], pose.joints[jb]
            if ea is not None and eb is not None:
                _draw_line(img, ea.position, eb.position, color)
        for est in pose.joints:
            if est is not None:
                _draw_dot(img, est.position, color)
    header = b"P6\n%d %d\n255\n" % (w, h)
    return header + img.tobytes()


def write_ppm(poses: PoseSet, scene: Scene, path) -> None:
    with open(path, "wb") as fh:
        fh.write(render_poses(poses, scene))
