"""posepartition: decode multi-person poses from joint confidence maps and
dense joint-to-centroid regression maps.

The package covers the full loop: synthesizing ground-truth map pairs from
annotated scenes, detecting joint candidates, partitioning them into person
hypotheses via centroid votes, assembling per-person joint configurations
greedily, and scoring the results against ground truth.
"""
from .config import PipelineConfig, load_config
from .corpus import CorpusSpec, generate_corpus
from .detect import DetectorParams, JointCandidate, detect_candidates
from .errors import (
    AnnotationError,
    ConfigurationError,
    DimensionError,
    EvaluationError,
    MapFormatError,
    ParameterError,
    PartitionScoreError,
    PipelineError,
    SchemaError,
)
from .evaluate import (
    EvalReport,
    MatchParams,
    average_precision,
    count_metrics,
    evaluate_corpus,
    match_poses,
)
from .infer import (
    JointEstimate,
    PersonPose,
    PoseSet,
    energy,
    infer_all,
    pairwise,
    unary,
)
from .maps import (
    ConfidenceMapSet,
    ForwardParams,
    RegressionMapSet,
    build_confidence_maps,
    build_regression_maps,
    map_loss,
)
from .partition import (
    ClusterParams,
    Partition,
    Vote,
    cluster_votes,
    default_link_threshold,
    embed,
    partition_score,
    vote_density,
)
from .pipeline import DecodeResult, decode_maps, synth_maps
from .pmap import read_map_set, write_map_set
from .scene import (
    JointGroup,
    JointSpec,
    PersonAnnotation,
    Scene,
    load_scene,
    mpii_joint_layout,
    person_centroid,
    save_scene,
)

__version__ = "0.1.0"
