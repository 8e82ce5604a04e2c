"""Pipeline configuration: one document controlling every stage.

The score threshold tau is stated once and shared by the detector and the
greedy assembly, which keeps the two consistent by construction; map
synthesis does not use it.  The clustering cutoff and the suppression
radius may be "auto": 10% of the canvas diagonal of the maps decoded, and
the reach of a confidence bump at or above tau.  A
document lists only what it changes: absent entries take the PipelineConfig
defaults, which in turn read the stage dataclasses' defaults.  The dump of
the defaults is the schema: a key it does not hold, at the top level or in
a section, is rejected.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Any

from .detect import DEFAULT_TAU, DetectorParams, _check_tau
from .errors import AnnotationError, ConfigurationError, ParameterError, SchemaError
from .maps import ForwardParams
from .partition import ClusterParams
from .scene import (
    JointSpec,
    _dumps,
    _is_num,
    _load_doc,
    layout_from_doc,
    layout_to_doc,
    mpii_joint_layout,
    validate_joint_layout,
)


@dataclass(frozen=True)
class PipelineConfig:
    tau: float = DEFAULT_TAU
    sigma: float = ForwardParams.sigma
    radius: float = ForwardParams.radius
    nms_radius: int | None = None  # None means auto: the reach of a bump at or above tau
    link_threshold: float | None = None  # None means auto: 0.1 * canvas diagonal
    joint_layout: tuple[JointSpec, ...] = field(default_factory=mpii_joint_layout)

    def __post_init__(self) -> None:
        try:
            self.forward_params()
            self.detector_params()
            self.cluster_params(1.0)  # a fixed cutoff; auto is always valid
            validate_joint_layout(self.joint_layout)
        except (ParameterError, AnnotationError) as exc:
            raise ConfigurationError(str(exc)) from exc

    def forward_params(self) -> ForwardParams:
        return ForwardParams(sigma=self.sigma, radius=self.radius)

    def detector_params(self) -> DetectorParams:
        radius = self.nms_radius
        if radius is None:
            # A bump exp(-d^2 / sigma^2) stays >= tau out to here; the cap keeps a huge sigma finite.
            _check_tau(self.tau)
            radius = max(1, math.ceil(min(self.sigma * math.sqrt(-math.log(self.tau)), sys.maxsize)))
        return DetectorParams(tau=self.tau, nms_radius=radius)

    def cluster_params(self, norm_factor: float) -> ClusterParams:
        threshold = self.link_threshold
        # Auto is 10% of the canvas diagonal of the maps decoded.
        return ClusterParams(0.1 * norm_factor if threshold is None else threshold)


def config_to_dict(cfg: PipelineConfig) -> dict:
    return {
        "tau": cfg.tau,
        "forward": {"sigma": cfg.sigma, "radius": cfg.radius},
        "detector": {"nms_radius": "auto" if cfg.nms_radius is None else cfg.nms_radius},
        "cluster": {
            "link_threshold": "auto" if cfg.link_threshold is None else cfg.link_threshold,
        },
        "joint_spec": layout_to_doc(cfg.joint_layout),
    }


def _reject_unknown(doc: dict, schema: dict, what: str) -> None:
    unknown = set(doc) - set(schema)
    if unknown:
        raise ConfigurationError("unknown %s keys: %s" % (what, ", ".join(sorted(unknown))))


def _setting(value, field: str, name: str):
    """PipelineConfig.field read from a document entry or a stage flag,
    which messages call name, by the field's annotation (a string): "auto"
    where None is allowed, else a number, an integer where it is int."""
    kind = PipelineConfig.__annotations__[field]
    auto = kind.endswith("| None")
    if auto and value == "auto":
        return None
    if not _is_num(value):
        raise ConfigurationError("%s must be a number%s" % (name, " or 'auto'" if auto else ""))
    if kind.startswith("int"):
        if not (isinstance(value, int) or value.is_integer()):
            raise ConfigurationError("%s must be an integer" % name)
        return int(value)
    # JSON integers are unbounded; past float's range they cannot be read.
    try:
        return float(value)
    except OverflowError:
        raise ConfigurationError("%s is too large" % name) from None


def config_from_dict(doc: Any) -> PipelineConfig:
    """Read a document against the dump of the defaults: its keys other than
    joint_spec, and its sections' keys, are PipelineConfig field names."""
    if not isinstance(doc, dict):
        raise ConfigurationError("config document must be a JSON object")
    schema = config_to_dict(PipelineConfig())
    _reject_unknown(doc, schema, "config")
    values = {}
    for key, entry in doc.items():
        if key == "joint_spec":
            try:
                values["joint_layout"] = layout_from_doc(entry)
            except SchemaError as exc:
                raise ConfigurationError(str(exc)) from exc
        elif isinstance(schema[key], dict):
            if not isinstance(entry, dict):
                raise ConfigurationError("config section %r must be an object" % key)
            _reject_unknown(entry, schema[key], key)
            for name, value in entry.items():
                values[name] = _setting(value, name, "%s.%s" % (key, name))
        else:
            values[key] = _setting(entry, key, key)
    return PipelineConfig(**values)


def load_config(path) -> PipelineConfig:
    return _load_doc(path, config_from_dict, ConfigurationError)


def dump_config(cfg: PipelineConfig) -> str:
    return _dumps(config_to_dict(cfg))
