"""Command-line entry points for every pipeline stage.

Exit codes: 0 on success, 2 for input or format problems, 3 for
configuration problems.  Stage flags (--tau on detect and decode, --sigma,
--radius, --nms-radius, --link-threshold) override the --config file, or
the defaults, only when given, and each is read like its config entry: its
text as JSON, a bare word such as auto as a string.
The eval and corpus flags likewise take their defaults from MatchParams
and CorpusSpec when not given.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import corpus as corpus_mod
from .config import PipelineConfig, _setting, config_to_dict, dump_config, load_config
from .errors import ConfigurationError, ParameterError, PipelineError, SchemaError
from .evaluate import MatchParams, evaluate_corpus, report_csv
from .infer import PoseSet
from .iojson import (
    candidates_from_doc,
    candidates_to_doc,
    partitions_to_doc,
    poses_from_doc,
    poses_to_doc,
    report_to_doc,
    save_json,
)
from .partition import cluster_votes, embed
from .pipeline import decode_maps, synth_maps
from .pmap import read_confidence, read_regression, write_map_set
from .render import write_ppm
from .scene import Scene, _load_doc, load_scene, save_scene
from .detect import detect_candidates

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3


def _given(args, cls) -> dict:
    """The flags given on the command line that are named after cls's fields.

    A flag that was not given is absent from args (argparse.SUPPRESS), so
    the dataclass's own default holds for it.
    """
    return {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}


def _params(cls, args):
    """cls built from the given flags; a rejected value is a configuration error."""
    try:
        return cls(**_given(args, cls))
    except ParameterError as exc:
        raise ConfigurationError(str(exc)) from exc


def _load_cli_config(args) -> PipelineConfig:
    """Config file (if given) with each given stage flag on top, its text read
    as the JSON value of its config entry.  No config rule spans two fields,
    so flags apply one at a time and a rejected value names its flag."""
    cfg = load_config(args.config) if args.config else PipelineConfig()
    for name, text in _given(args, PipelineConfig).items():
        flag = "--" + name.replace("_", "-")
        try:
            value = json.loads(text)
        except ValueError:
            value = text  # a bare word, such as auto
        value = _setting(value, name, flag)
        try:
            cfg = replace(cfg, **{name: value})
        except ConfigurationError as exc:
            raise ConfigurationError("%s: %s" % (flag, exc)) from exc
    return cfg


def _add_config_flags(sub, *, forward=False, detector=False, cluster=False):
    sub.add_argument("--config", help="pipeline config JSON; stage flags override it")
    note = "Join a negative number in exponent form to its flag: --flag=-1e-05."
    stage = sub.add_argument_group("stage flags", note)
    flag = functools.partial(stage.add_argument, default=argparse.SUPPRESS)
    if forward:
        flag("--sigma", help="confidence bump width")
        flag("--radius", help="regression disk radius")
    if detector:
        flag("--tau", help="score threshold shared by detection and assembly")
        flag("--nms-radius", dest="nms_radius",
             help="Chebyshev suppression radius, or 'auto': ceil(sigma * sqrt(ln(1 / tau)))")
    if cluster:
        flag("--link-threshold", dest="link_threshold", help="cluster merge cutoff in pixels, or 'auto'")


def _cmd_synth(args) -> int:
    cfg = _load_cli_config(args)
    scene = load_scene(args.scene)
    conf, reg = synth_maps(scene, cfg)
    write_map_set(conf, args.out_conf)
    write_map_set(reg, args.out_reg)
    return EXIT_OK


def _cmd_detect(args) -> int:
    cfg = _load_cli_config(args)
    conf = read_confidence(args.conf)
    cands = detect_candidates(conf, cfg.detector_params())
    save_json(candidates_to_doc(cands), args.out)
    return EXIT_OK


def _cmd_partition(args) -> int:
    cfg = _load_cli_config(args)
    cands = _load_doc(args.candidates, candidates_from_doc)
    reg = read_regression(args.reg)
    votes = embed(cands, reg)
    parts = cluster_votes(votes, cfg.cluster_params(reg.norm_factor))
    save_json(partitions_to_doc(parts, cands), args.out)
    return EXIT_OK


def _cmd_decode(args) -> int:
    cfg = _load_cli_config(args)
    conf = read_confidence(args.conf)
    reg = read_regression(args.reg)
    result = decode_maps(conf, reg, cfg)
    save_json(poses_to_doc(result.poses, conf.height, conf.width), args.out)
    if args.trace:  # the bytes csv.writer writes: no field needs quoting
        rows = "".join([f"{i},{e!r}\r\n" for i, e in enumerate(result.energy_trace)])
        Path(args.trace).write_bytes(("step,energy\r\n" + rows).encode("ascii"))
    return EXIT_OK


def _load_poses_for(path, scene: Scene) -> PoseSet:
    """A poses file whose canvas and per-pose joint slots match the scene,
    with every assigned joint on the canvas."""
    poses, h, w = _load_doc(path, poses_from_doc)
    if (h, w) != (scene.height, scene.width):
        raise SchemaError(
            "%s canvas %dx%d does not match scene %dx%d" % (path, w, h, scene.width, scene.height)
        )
    for i, pose in enumerate(poses.poses):
        if len(pose.joints) != scene.num_joints:
            raise SchemaError(
                "%s pose %d has %d joint slots, scene has %d"
                % (path, i, len(pose.joints), scene.num_joints)
            )
        for j, est in enumerate(pose.joints):
            if est is not None and not (0 <= est.position[0] < w and 0 <= est.position[1] < h):
                raise SchemaError("%s pose %d joint %d lies outside the %dx%d canvas" % (path, i, j, w, h))
    return poses


def _cmd_eval(args) -> int:
    params = _params(MatchParams, args)  # flags are checked before any file is read
    scene_paths = sorted(Path(args.scenes).glob("*.json"))
    if not scene_paths:
        raise SchemaError("no scene files (*.json) found in %s" % args.scenes)
    poses_dir = Path(args.poses)

    def load_pair(scene_path: Path):
        poses_path = poses_dir / scene_path.name
        if not poses_path.exists():
            raise SchemaError("%s is missing: each scene needs a poses file of the same name" % poses_path)
        scene = load_scene(scene_path)
        return _load_poses_for(poses_path, scene), scene

    pairs = [load_pair(p) for p in scene_paths]
    report = evaluate_corpus(pairs, params)
    save_json(report_to_doc(report), args.out)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report_csv(report))
    return EXIT_OK


def _cmd_render(args) -> int:
    scene = load_scene(args.scene)
    write_ppm(_load_poses_for(args.poses, scene), scene, args.out)
    return EXIT_OK


def _cmd_corpus(args) -> int:
    spec = _params(corpus_mod.CorpusSpec, args)
    try:
        scenes = corpus_mod.generate_corpus(spec, args.seed)
    except ParameterError as exc:
        raise ConfigurationError(str(exc)) from exc
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    width = max(4, len(str(max(len(scenes) - 1, 0))))
    for i, scene in enumerate(scenes):
        save_scene(scene, out_dir / ("scene_%0*d.json" % (width, i)))
    return EXIT_OK


def _cmd_config(args) -> int:
    if args.check:
        load_config(args.check)
        print("ok")
        return EXIT_OK
    if args.out:
        save_json(config_to_dict(PipelineConfig()), args.out)
    else:
        print(dump_config(PipelineConfig()))
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused by every later main() call."""
    parser = argparse.ArgumentParser(
        prog="posepartition",
        description="Synthesize, decode, and evaluate joint confidence plus centroid regression maps.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("synth", help="scene JSON -> ground-truth map pair")
    p.add_argument("--scene", required=True)
    p.add_argument("--out-conf", required=True)
    p.add_argument("--out-reg", required=True)
    _add_config_flags(p, forward=True)
    p.set_defaults(func=_cmd_synth)

    p = subs.add_parser("detect", help="confidence maps -> joint candidates JSON")
    p.add_argument("--conf", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, detector=True)
    p.set_defaults(func=_cmd_detect)

    p = subs.add_parser("partition", help="candidates + regression maps -> partitions JSON")
    p.add_argument("--candidates", required=True)
    p.add_argument("--reg", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, cluster=True)
    p.set_defaults(func=_cmd_partition)

    p = subs.add_parser("decode", help="map pair -> poses JSON (detect, partition, assemble)")
    p.add_argument("--conf", required=True)
    p.add_argument("--reg", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", help="optional CSV of the per-step energy trace")
    _add_config_flags(p, detector=True, cluster=True)
    p.set_defaults(func=_cmd_decode)

    p = subs.add_parser("eval", help="poses dir + scenes dir -> evaluation report")
    p.add_argument("--poses", required=True, help="directory of poses JSON files named like the scenes")
    p.add_argument("--scenes", required=True, help="directory of ground-truth scene JSON files")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--csv", help="optional one-row CSV with grouped joint APs")
    flag = functools.partial(p.add_argument, default=argparse.SUPPRESS)
    flag("--pckh", dest="pckh_fraction", type=float, help="fraction of head size for a hit")
    flag(
        "--fallback-px",
        dest="fallback_px",
        type=float,
        help="absolute hit distance when a person has no head size",
    )
    flag(
        "--min-joints",
        dest="min_joints",
        type=int,
        help="discard predicted poses with fewer assigned joints",
    )
    flag(
        "--min-score",
        dest="min_score",
        type=float,
        help="discard predicted poses whose mean joint score is below this",
    )
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("render", help="poses + scene -> PPM overlay")
    p.add_argument("--poses", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    p = subs.add_parser("corpus", help="generate a seeded synthetic scene corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    flag = functools.partial(p.add_argument, default=argparse.SUPPRESS)
    flag("--num-scenes", type=int)
    flag("--min-persons", type=int)
    flag("--max-persons", type=int)
    flag("--separation", dest="min_separation", type=float)
    flag("--height", type=int)
    flag("--width", type=int)
    flag("--jitter", type=int)
    p.set_defaults(func=_cmd_corpus)

    p = subs.add_parser("config", help="print default configuration or check a config file")
    p.add_argument("--out", help="write defaults to a file instead of stdout")
    p.add_argument("--check", help="validate a config file and exit")
    p.set_defaults(func=_cmd_config)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except (PipelineError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
