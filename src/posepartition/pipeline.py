"""End-to-end composition of the pipeline stages in memory."""
from __future__ import annotations

from dataclasses import dataclass

from .config import PipelineConfig
from .detect import detect_candidates
from .errors import DimensionError
from .infer import PoseSet, infer_all
from .maps import ConfidenceMapSet, RegressionMapSet, build_confidence_maps, build_regression_maps
from .partition import cluster_votes, embed
from .scene import Scene


@dataclass(frozen=True)
class DecodeResult:
    """Everything a decode produces, for inspection and serialization."""

    poses: PoseSet
    energy_trace: tuple[float, ...]


def synth_maps(
    scene: Scene, cfg: PipelineConfig | None = None
) -> tuple[ConfidenceMapSet, RegressionMapSet]:
    """Ground-truth confidence and regression maps for a scene."""
    cfg = cfg or PipelineConfig()
    params = cfg.forward_params()
    return build_confidence_maps(scene, params), build_regression_maps(scene, params)


def decode_maps(
    conf: ConfidenceMapSet,
    reg: RegressionMapSet,
    cfg: PipelineConfig | None = None,
) -> DecodeResult:
    """Run detection, partitioning, and greedy assembly on one map pair."""
    cfg = cfg or PipelineConfig()
    if (conf.num_joints, conf.height, conf.width) != (reg.num_joints, reg.height, reg.width):
        raise DimensionError(
            "confidence maps %s and regression maps %s disagree"
            % (conf.values.shape, reg.values.shape[:3])
        )
    if conf.num_joints != len(cfg.joint_layout):
        raise DimensionError(
            "maps carry %d joints but the configured layout has %d"
            % (conf.num_joints, len(cfg.joint_layout))
        )
    candidates = detect_candidates(conf, cfg.detector_params())
    votes = embed(candidates, reg)
    partitions = cluster_votes(votes, cfg.cluster_params(reg.norm_factor))
    poses, trace = infer_all(partitions, cfg.joint_layout, cfg.tau)
    return DecodeResult(poses=poses, energy_trace=tuple(trace))
