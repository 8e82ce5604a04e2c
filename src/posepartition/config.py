"""Pipeline configuration: one document controlling every stage.

The score threshold tau is stated once and shared by the detector and the
greedy assembly, which keeps the two consistent by construction; map
synthesis does not use it.  The clustering cutoff may be the string "auto", meaning 10%
of the canvas diagonal of whatever maps are being decoded.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .detect import DetectorParams
from .errors import ConfigurationError, ParameterError, SchemaError
from .maps import ForwardParams
from .partition import ClusterParams, default_link_threshold
from .scene import JointSpec, mpii_joint_layout, scene_from_dict, scene_to_dict


@dataclass(frozen=True)
class PipelineConfig:
    tau: float = 0.1
    sigma: float = 7.0
    radius: float = 7.0
    nms_radius: int = 3
    link_threshold: float | None = None  # None means auto: 0.1 * canvas diagonal
    vote_weights: tuple[float, ...] | None = None
    loss_alpha: float = 1.0
    seed: int = 0
    joint_layout: tuple[JointSpec, ...] = field(default_factory=mpii_joint_layout)

    def forward_params(self) -> ForwardParams:
        return ForwardParams(sigma=self.sigma, radius=self.radius, tau=self.tau)

    def detector_params(self) -> DetectorParams:
        return DetectorParams(tau=self.tau, nms_radius=self.nms_radius)

    def cluster_params(self, norm_factor: float) -> ClusterParams:
        threshold = (
            self.link_threshold
            if self.link_threshold is not None
            else default_link_threshold(norm_factor)
        )
        return ClusterParams(link_threshold=threshold, weights=self.vote_weights)

    def validate(self) -> None:
        try:
            self.forward_params()
            self.detector_params()
            if self.link_threshold is not None:
                ClusterParams(link_threshold=self.link_threshold, weights=self.vote_weights)
            elif self.vote_weights is not None:
                ClusterParams(link_threshold=1.0, weights=self.vote_weights)
        except ParameterError as exc:
            raise ConfigurationError(str(exc)) from exc
        if not self.loss_alpha >= 0:
            raise ConfigurationError("loss alpha must be non-negative")
        if self.vote_weights is not None and len(self.vote_weights) != len(self.joint_layout):
            raise ConfigurationError(
                "vote_weights has %d entries for %d joints"
                % (len(self.vote_weights), len(self.joint_layout))
            )


def config_to_dict(cfg: PipelineConfig) -> dict:
    # Reuse the scene codec's joint layout representation.
    layout_doc = scene_to_dict(
        _LayoutCarrier(joint_layout=cfg.joint_layout)  # type: ignore[arg-type]
    )["joint_spec"]
    return {
        "tau": cfg.tau,
        "forward": {"sigma": cfg.sigma, "radius": cfg.radius},
        "detector": {"nms_radius": cfg.nms_radius},
        "cluster": {
            "link_threshold": "auto" if cfg.link_threshold is None else cfg.link_threshold,
            "weights": None if cfg.vote_weights is None else list(cfg.vote_weights),
        },
        "loss_alpha": cfg.loss_alpha,
        "seed": cfg.seed,
        "joint_spec": layout_doc,
    }


class _LayoutCarrier:
    """Minimal stand-in so scene_to_dict can serialize a bare joint layout."""

    def __init__(self, joint_layout):
        self.joint_layout = joint_layout
        self.height = 1
        self.width = 1
        self.persons = ()


def config_from_dict(doc: Any) -> PipelineConfig:
    if not isinstance(doc, dict):
        raise ConfigurationError("config document must be a JSON object")
    allowed = {"tau", "forward", "detector", "cluster", "loss_alpha", "seed", "joint_spec"}
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigurationError("unknown config keys: %s" % ", ".join(sorted(unknown)))

    def section(name: str) -> dict:
        sec = doc.get(name, {})
        if not isinstance(sec, dict):
            raise ConfigurationError("config section %r must be an object" % name)
        return sec

    fwd = section("forward")
    det = section("detector")
    clu = section("cluster")
    link = clu.get("link_threshold", "auto")
    if link == "auto":
        link_threshold = None
    elif isinstance(link, (int, float)) and not isinstance(link, bool):
        link_threshold = float(link)
    else:
        raise ConfigurationError("cluster.link_threshold must be a number or 'auto'")
    weights = clu.get("weights")
    if weights is not None:
        if not (
            isinstance(weights, list)
            and all(isinstance(w, (int, float)) and not isinstance(w, bool) for w in weights)
        ):
            raise ConfigurationError("cluster.weights must be a list of numbers or null")
        weights = tuple(float(w) for w in weights)

    layout = mpii_joint_layout()
    if "joint_spec" in doc:
        try:
            carrier = scene_from_dict(
                {"height": 1, "width": 1, "joint_spec": doc["joint_spec"], "persons": []}
            )
        except SchemaError as exc:
            raise ConfigurationError("invalid joint_spec: %s" % exc) from exc
        layout = carrier.joint_layout

    def number(value, name, default, integral=False):
        if value is None:
            return default
        if not (isinstance(value, (int, float)) and not isinstance(value, bool)):
            raise ConfigurationError("%s must be a number" % name)
        if integral and value != int(value):
            raise ConfigurationError("%s must be an integer" % name)
        return value

    cfg = PipelineConfig(
        tau=float(number(doc.get("tau"), "tau", 0.1)),
        sigma=float(number(fwd.get("sigma"), "forward.sigma", 7.0)),
        radius=float(number(fwd.get("radius"), "forward.radius", 7.0)),
        nms_radius=int(number(det.get("nms_radius"), "detector.nms_radius", 3, integral=True)),
        link_threshold=link_threshold,
        vote_weights=weights,
        loss_alpha=float(number(doc.get("loss_alpha"), "loss_alpha", 1.0)),
        seed=int(number(doc.get("seed"), "seed", 0, integral=True)),
        joint_layout=layout,
    )
    cfg.validate()
    return cfg


def load_config(path) -> PipelineConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigurationError("%s is not valid JSON: %s" % (path, exc)) from exc
    try:
        return config_from_dict(doc)
    except ConfigurationError as exc:
        raise ConfigurationError("%s: %s" % (path, exc)) from exc


def dump_config(cfg: PipelineConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2)
