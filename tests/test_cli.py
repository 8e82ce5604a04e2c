"""End-to-end command-line pipeline runs and exit codes."""
import csv
import io
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posepartition import cli
from posepartition.cli import EXIT_CONFIG, EXIT_INPUT, EXIT_OK, _load_cli_config, _parser, main
from posepartition.config import PipelineConfig, config_from_dict, config_to_dict, load_config
from posepartition.errors import ConfigurationError
from posepartition.maps import ConfidenceMapSet, RegressionMapSet
from posepartition.pmap import read_confidence, read_regression, write_map_set
from posepartition.corpus import CorpusSpec, generate_corpus
from posepartition.evaluate import MatchParams, evaluate_corpus
from posepartition.detect import JointCandidate
from posepartition.infer import PersonPose, PoseSet
from posepartition.iojson import poses_from_doc, poses_to_doc, report_to_doc, save_json
from posepartition.pipeline import DecodeResult, decode_maps, synth_maps
from posepartition.scene import load_scene, save_scene


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.loads(fh.read())


def run(*argv):
    return main([str(a) for a in argv])


def make_corpus(tmp_path, n=3, seed=5, name="scenes"):
    out = tmp_path / name
    code = run(
        "corpus",
        "--out-dir", out,
        "--num-scenes", n,
        "--max-persons", 2,
        "--seed", seed,
    )
    assert code == EXIT_OK
    return out


def test_full_pipeline_round_trip(tmp_path):
    scenes = make_corpus(tmp_path)
    files = sorted(scenes.glob("*.json"))
    assert [f.name for f in files] == ["scene_0000.json", "scene_0001.json", "scene_0002.json"]

    poses_dir = tmp_path / "poses"
    poses_dir.mkdir()
    for f in files:
        conf = tmp_path / (f.stem + ".conf.pmap")
        reg = tmp_path / (f.stem + ".reg.pmap")
        assert run("synth", "--scene", f, "--out-conf", conf, "--out-reg", reg) == EXIT_OK
        trace = tmp_path / (f.stem + ".trace.csv")
        code = run(
            "decode", "--conf", conf, "--reg", reg,
            "--out", poses_dir / f.name, "--trace", trace,
        )
        assert code == EXIT_OK

        with open(trace, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "energy"]
        energies = [float(r[1]) for r in rows[1:]]
        assert len(energies) >= 2
        assert all(b < a for a, b in zip(energies, energies[1:]))

    report = tmp_path / "report.json"
    report_csv = tmp_path / "report.csv"
    code = run(
        "eval", "--poses", poses_dir, "--scenes", scenes,
        "--out", report, "--csv", report_csv,
    )
    assert code == EXIT_OK
    doc = read_json(report)
    assert doc["total_ap"] == 100.0
    assert doc["count_mse"] == 0.0
    csv_lines = report_csv.read_text().strip().split("\n")
    assert csv_lines[0].startswith("Head,")
    assert csv_lines[1].endswith("100.0")

    ppm = tmp_path / "overlay.ppm"
    code = run("render", "--poses", poses_dir / files[0].name, "--scene", files[0], "--out", ppm)
    assert code == EXIT_OK
    assert ppm.read_bytes().startswith(b"P6\n256 256\n255\n")


def test_staged_detect_and_partition(tmp_path):
    scenes = make_corpus(tmp_path, n=1)
    scene = next(iter(scenes.glob("*.json")))
    conf = tmp_path / "m.conf.pmap"
    reg = tmp_path / "m.reg.pmap"
    assert run("synth", "--scene", scene, "--out-conf", conf, "--out-reg", reg) == EXIT_OK

    cands_path = tmp_path / "cands.json"
    assert run("detect", "--conf", conf, "--out", cands_path) == EXIT_OK
    cands = read_json(cands_path)
    assert cands and all(set(c) == {"joint", "x", "y", "score"} for c in cands)

    parts_path = tmp_path / "parts.json"
    assert run("partition", "--candidates", cands_path, "--reg", reg, "--out", parts_path) == EXIT_OK
    parts = read_json(parts_path)["partitions"]
    assert parts and all(set(p) == {"members", "centroid"} for p in parts)
    scene_doc = read_json(scene)
    assert len(parts) == len(scene_doc["persons"])
    used = sorted(m for p in parts for m in p["members"])
    assert used == list(range(len(cands)))


def test_repeated_candidate_exits_two(tmp_path, capsys):
    # Partitions list members as candidate indices, so a candidate that
    # appears twice would have one index listed twice and the other never.
    scene = next(iter(make_corpus(tmp_path, n=1).glob("*.json")))
    conf, reg = tmp_path / "m.conf.pmap", tmp_path / "m.reg.pmap"
    assert run("synth", "--scene", scene, "--out-conf", conf, "--out-reg", reg) == EXIT_OK
    cands_path = tmp_path / "cands.json"
    assert run("detect", "--conf", conf, "--out", cands_path) == EXIT_OK
    cands = read_json(cands_path)
    save_json(cands + cands[:1], cands_path)
    parts_path = tmp_path / "parts.json"
    code = run("partition", "--candidates", cands_path, "--reg", reg, "--out", parts_path)
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert str(cands_path) in err
    assert "candidates[%d] repeats the joint and position of candidates[0]" % len(cands) in err
    assert not parts_path.exists()


def test_corpus_generation_is_deterministic(tmp_path):
    a = make_corpus(tmp_path, seed=9, name="a")
    b = make_corpus(tmp_path, seed=9, name="b")
    for fa, fb in zip(sorted(a.glob("*.json")), sorted(b.glob("*.json"))):
        assert fa.read_bytes() == fb.read_bytes()


def test_missing_input_exits_two(tmp_path):
    code = run(
        "synth", "--scene", tmp_path / "nope.json",
        "--out-conf", tmp_path / "c.pmap", "--out-reg", tmp_path / "r.pmap",
    )
    assert code == EXIT_INPUT


def test_corrupt_map_file_exits_two(tmp_path):
    bad = tmp_path / "bad.pmap"
    bad.write_bytes(b"WRONG" + b"\x00" * 64)
    code = run("decode", "--conf", bad, "--reg", bad, "--out", tmp_path / "p.json")
    assert code == EXIT_INPUT


def test_votes_too_many_to_cluster_exit_two(tmp_path, capsys, monkeypatch):
    # Clustering holds an n x n linkage matrix; with no memory for it, the
    # decode names the vote count instead of dying in a numpy traceback.
    scene = next(iter(make_corpus(tmp_path, n=1).glob("*.json")))
    conf, reg = tmp_path / "c.pmap", tmp_path / "r.pmap"
    assert run("synth", "--scene", scene, "--out-conf", conf, "--out-reg", reg) == EXIT_OK
    n = len(read_json(scene)["persons"]) * 16  # clean maps: one vote per annotated joint

    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.63 GiB for an array")

    monkeypatch.setattr(np, "sqrt", no_memory)
    assert run("decode", "--conf", conf, "--reg", reg, "--out", tmp_path / "p.json") == EXIT_INPUT
    assert capsys.readouterr().err == (
        "error: %d votes are too many to cluster: no memory for their linkage matrix\n" % n
    )
    assert not (tmp_path / "p.json").exists()


def test_map_kind_mismatch_exits_two(tmp_path):
    scenes = make_corpus(tmp_path, n=1)
    scene = next(iter(scenes.glob("*.json")))
    conf = tmp_path / "m.conf.pmap"
    reg = tmp_path / "m.reg.pmap"
    run("synth", "--scene", scene, "--out-conf", conf, "--out-reg", reg)
    # Regression maps where confidence maps are expected.
    code = run("detect", "--conf", reg, "--out", tmp_path / "cands.json")
    assert code == EXIT_INPUT


def test_out_of_range_tau_exits_three(tmp_path):
    scenes = make_corpus(tmp_path, n=1)
    scene = next(iter(scenes.glob("*.json")))
    conf = tmp_path / "m.conf.pmap"
    reg = tmp_path / "m.reg.pmap"
    run("synth", "--scene", scene, "--out-conf", conf, "--out-reg", reg)
    code = run("detect", "--conf", conf, "--out", tmp_path / "c.json", "--tau", "1.5")
    assert code == EXIT_CONFIG


def test_bad_config_file_exits_three(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau": "zero"}))
    scenes = make_corpus(tmp_path, n=1)
    scene = next(iter(scenes.glob("*.json")))
    code = run(
        "synth", "--scene", scene, "--config", cfg,
        "--out-conf", tmp_path / "c.pmap", "--out-reg", tmp_path / "r.pmap",
    )
    assert code == EXIT_CONFIG


def test_eval_requires_scene_files(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = run("eval", "--poses", tmp_path, "--scenes", empty, "--out", tmp_path / "r.json")
    assert code == EXIT_INPUT
    # Each scene needs a poses file of its name, on the scene's canvas.
    scenes = make_corpus(tmp_path, n=1)
    poses_dir = tmp_path / "poses"
    poses_dir.mkdir()
    poses = poses_dir / next(scenes.glob("*.json")).name
    argv = ("eval", "--poses", poses_dir, "--scenes", scenes, "--out", tmp_path / "r.json")
    capsys.readouterr()
    assert run(*argv) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: %s is missing" % poses)
    save_json(poses_to_doc(PoseSet(()), 128, 256), poses)
    assert run(*argv) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: %s canvas 256x128 does not match scene 256x256" % poses)


def test_invalid_eval_filter_exits_three(tmp_path):
    scenes = make_corpus(tmp_path, n=1)
    scene = next(iter(scenes.glob("*.json")))
    poses_dir = tmp_path / "poses"
    poses_dir.mkdir()
    (poses_dir / scene.name).write_text(
        json.dumps({"height": 256, "width": 256, "poses": []})
    )
    for flags in (["--min-joints", "0"], ["--fallback-px", "inf"]):
        code = run(
            "eval", "--poses", poses_dir, "--scenes", scenes, "--out", tmp_path / "r.json", *flags
        )
        assert code == EXIT_CONFIG


def test_eval_checks_its_flags_before_reading_any_file(tmp_path, capsys):
    scenes = make_corpus(tmp_path, n=1)
    poses_dir = tmp_path / "poses"
    poses_dir.mkdir()
    (poses_dir / next(scenes.glob("*.json")).name).write_text("{broken")
    for scenes_dir in (scenes, tmp_path / "absent"):
        capsys.readouterr()
        code = run(
            "eval", "--poses", poses_dir, "--scenes", scenes_dir, "--out", tmp_path / "r.json",
            "--min-joints", "0",
        )
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "configuration error: min_joints must be an integer >= 1, got 0\n"


def test_eval_reads_scenes_whose_layouts_alternate(tmp_path):
    # Every other scene lists the same joint_spec entries in reverse order.
    scenes_dir, poses_dir = tmp_path / "scenes", tmp_path / "poses"
    scenes_dir.mkdir()
    poses_dir.mkdir()
    pairs = []
    for i, scene in enumerate(generate_corpus(CorpusSpec(num_scenes=4, max_persons=3), 7)):
        if i % 2:
            scene = replace(scene, joint_layout=scene.joint_layout[::-1])
        poses = PoseSet(tuple(
            PersonPose(
                joints=tuple(
                    None if j == (k + i) % 5 else JointCandidate(j, (int(x) + k, int(y)), 0.9 - 0.1 * k)
                    for j, (x, y) in enumerate(person.joints)
                ),
                final_centroid=(0.0, 0.0),
            )
            for k, person in enumerate(scene.persons)
        ))
        save_scene(scene, scenes_dir / ("scene_%04d.json" % i))
        save_json(poses_to_doc(poses, scene.height, scene.width), poses_dir / ("scene_%04d.json" % i))
        pairs.append((poses, scene))
    report = tmp_path / "report.json"
    assert run("eval", "--poses", poses_dir, "--scenes", scenes_dir, "--out", report) == EXIT_OK
    assert read_json(report) == json.loads(json.dumps(report_to_doc(evaluate_corpus(pairs, MatchParams()))))


@pytest.mark.parametrize("command", ["eval", "render"])
@pytest.mark.parametrize("slots", [3, 17])
def test_poses_with_the_wrong_joint_count_exit_two(tmp_path, capsys, command, slots):
    scenes = make_corpus(tmp_path, n=1)
    scene = next(iter(scenes.glob("*.json")))
    poses_dir = tmp_path / "poses"
    poses_dir.mkdir()
    poses = poses_dir / scene.name
    pose = {"joints": [[10, 10]] * slots, "scores": [0.9] * slots, "centroid": [10.0, 10.0]}
    poses.write_text(json.dumps({"height": 256, "width": 256, "poses": [pose]}))
    if command == "eval":
        code = run("eval", "--poses", poses_dir, "--scenes", scenes, "--out", tmp_path / "r.json")
    else:
        code = run("render", "--poses", poses, "--scene", scene, "--out", tmp_path / "o.ppm")
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert str(poses) in err
    assert "pose 0 has %d joint slots, scene has 16" % slots in err


@pytest.mark.parametrize("command", ["eval", "render"])
@pytest.mark.parametrize("joint", [[10**400, 0], [256, 10], [10, -1]], ids=["huge", "right", "above"])
def test_poses_with_a_joint_off_the_canvas_exit_two(tmp_path, capsys, command, joint):
    # Before the check, eval on 10**400 ended in an OverflowError traceback
    # and render drew its lines pixel by pixel out to the joint.
    scenes = make_corpus(tmp_path, n=1)
    scene = next(iter(scenes.glob("*.json")))
    poses_dir = tmp_path / "poses"
    poses_dir.mkdir()
    poses = poses_dir / scene.name
    pose = {"joints": [[10, 10]] * 16, "scores": [0.9] * 16, "centroid": [10.0, 10.0]}
    pose["joints"][5] = joint
    poses.write_text(json.dumps({"height": 256, "width": 256, "poses": [pose]}))
    if command == "eval":
        code = run("eval", "--poses", poses_dir, "--scenes", scenes, "--out", tmp_path / "r.json")
    else:
        code = run("render", "--poses", poses, "--scene", scene, "--out", tmp_path / "o.ppm")
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert "%s pose 0 joint 5 lies outside the 256x256 canvas" % poses in err


def test_document_errors_name_their_file(tmp_path, capsys):
    scenes = make_corpus(tmp_path, n=2)
    poses_dir = tmp_path / "poses"
    poses_dir.mkdir()
    first, second = sorted(scenes.glob("*.json"))
    good, bad = poses_dir / first.name, poses_dir / second.name
    save_json(poses_to_doc(PoseSet(()), 256, 256), good)
    save_json({"height": 256, "width": 256, "poses": [{"joints": [None] * 16, "scores": [None] * 16}]}, bad)
    assert run("eval", "--poses", poses_dir, "--scenes", scenes, "--out", tmp_path / "r.json") == EXIT_INPUT
    assert "error: %s: poses[0] is missing 'centroid'" % bad in capsys.readouterr().err

    reg = tmp_path / "m.reg.pmap"
    assert run("synth", "--scene", first, "--out-conf", tmp_path / "m.conf.pmap", "--out-reg", reg) == EXIT_OK
    cands = tmp_path / "cands.json"
    save_json([{"joint": 0, "x": 3, "score": 0.9}], cands)
    code = run("partition", "--candidates", cands, "--reg", reg, "--out", tmp_path / "parts.json")
    assert code == EXIT_INPUT
    assert "error: %s: candidates[0] is missing 'y'" % cands in capsys.readouterr().err


def test_scene_coordinate_past_float_range_exits_two(tmp_path, capsys):
    scenes = make_corpus(tmp_path, n=1)
    scene = next(iter(scenes.glob("*.json")))
    doc = json.loads(scene.read_text())
    doc["persons"][0]["joints"][0] = [10**400, 3]
    scene.write_text(json.dumps(doc))
    code = run("synth", "--scene", scene, "--out-conf", tmp_path / "c.pmap", "--out-reg", tmp_path / "r.pmap")
    assert code == EXIT_INPUT
    assert "persons[0].joints[0] is too large" in capsys.readouterr().err


def test_config_subcommand(tmp_path, capsys):
    assert run("config") == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["tau"] == 0.1

    out = tmp_path / "defaults.json"
    assert run("config", "--out", out) == EXIT_OK
    assert json.loads(out.read_text())["cluster"]["link_threshold"] == "auto"

    assert run("config", "--check", out) == EXIT_OK
    assert capsys.readouterr().out.strip() == "ok"

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run("config", "--check", bad) == EXIT_CONFIG

    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({"detector": {"nms_radus": 9}}))
    assert run("config", "--check", typo) == EXIT_CONFIG
    assert "unknown detector keys: nms_radus" in capsys.readouterr().err


def test_config_writes_the_same_bytes_to_stdout_and_to_a_file(tmp_path, capsysbinary):
    assert run("config") == EXIT_OK
    out = tmp_path / "defaults.json"
    assert run("config", "--out", out) == EXIT_OK
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_config_dump_with_mirror_ids_passes_the_check(tmp_path, capsys):
    # Dumps written while joint layouts carried a mirror table and a coarse
    # joint group hold a "mirror_id" and a "group" in every joint_spec
    # entry; readers ignore both, even a group name that was never valid.
    doc = config_to_dict(PipelineConfig())
    mirrors = (5, 4, 3, 2, 1, 0, 6, 7, 8, 9, 15, 14, 13, 12, 11, 10)
    for entry, mirror in zip(doc["joint_spec"], mirrors):
        entry["mirror_id"] = mirror
        entry["group"] = "neck" if entry["rank"] == 0 else "spine"
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc, indent=2) + "\n")
    assert run("config", "--check", old) == EXIT_OK
    assert capsys.readouterr().out.strip() == "ok"
    assert load_config(old) == PipelineConfig()


@pytest.mark.parametrize("sigma", ["1e-200", "1e-20", "1e308"])
def test_sigma_synthesis_cannot_evaluate_exits_three(tmp_path, capsys, sigma):
    # Before ForwardParams checked the range, 1e-200 raised ZeroDivisionError
    # in synthesis, 1e-20 wrote NaN confidence maps and 1e308 overflowed the
    # bump reach.
    scene = next(iter(make_corpus(tmp_path, n=1).glob("*.json")))
    code = run(
        "synth", "--scene", scene, "--sigma", sigma,
        "--out-conf", tmp_path / "c.pmap", "--out-reg", tmp_path / "r.pmap",
    )
    assert code == EXIT_CONFIG
    assert "configuration error: --sigma: sigma must be in" in capsys.readouterr().err


def test_config_number_beyond_float_range_exits_three(tmp_path, capsys):
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"forward": {"sigma": 10**400}}))
    assert run("config", "--check", cfg) == EXIT_CONFIG
    assert "forward.sigma is too large" in capsys.readouterr().err


# Bytes that are not UTF-8 JSON text: invalid UTF-8 outside and inside a
# string, a UTF-8 BOM, and UTF-16 with and without its BOM.
NOT_UTF8_JSON = {
    "bad-lead-byte": b'\xff\xfe{"a": 1}',
    "bad-string-byte": b'{"a": "\xff"}',
    "utf8-bom": b"\xef\xbb\xbf{}",
    "utf16": "{}".encode("utf-16"),
    "utf16-le": "{}".encode("utf-16-le"),
}


@pytest.mark.parametrize("data", NOT_UTF8_JSON.values(), ids=NOT_UTF8_JSON.keys())
def test_a_config_that_is_not_utf8_json_exits_three(tmp_path, capsys, data):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(data)
    assert run("config", "--check", cfg) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: %s is not valid JSON: " % cfg)


@pytest.mark.parametrize("data", NOT_UTF8_JSON.values(), ids=NOT_UTF8_JSON.keys())
def test_eval_on_a_document_that_is_not_utf8_json_exits_two(tmp_path, capsys, data):
    scenes = make_corpus(tmp_path, n=1)
    scene = next(scenes.glob("*.json"))
    poses_dir = tmp_path / "poses"
    poses_dir.mkdir()
    poses = poses_dir / scene.name
    save_json(poses_to_doc(PoseSet(()), 256, 256), poses)
    argv = ("eval", "--poses", poses_dir, "--scenes", scenes, "--out", tmp_path / "r.json")
    assert run(*argv) == EXIT_OK
    for bad in (scene, poses):
        good = bad.read_bytes()
        bad.write_bytes(data)
        capsys.readouterr()
        assert run(*argv) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: %s is not valid JSON: " % bad)
        bad.write_bytes(good)


@pytest.mark.parametrize("data", NOT_UTF8_JSON.values(), ids=NOT_UTF8_JSON.keys())
def test_partition_on_candidates_that_are_not_utf8_json_exits_two(tmp_path, capsys, data):
    scene = next(make_corpus(tmp_path, n=1).glob("*.json"))
    reg = tmp_path / "m.reg.pmap"
    assert run("synth", "--scene", scene, "--out-conf", tmp_path / "m.conf.pmap", "--out-reg", reg) == EXIT_OK
    cands = tmp_path / "cands.json"
    cands.write_bytes(data)
    code = run("partition", "--candidates", cands, "--reg", reg, "--out", tmp_path / "parts.json")
    assert code == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: %s is not valid JSON: " % cands)


def test_the_cli_starts_from_one_default_config(tmp_path):
    # A fresh PipelineConfig() builds and validates a new MPII layout; every
    # CLI call without a config file or a stage flag shares one.
    args = _parser().parse_args(["decode", "--conf", "c", "--reg", "r", "--out", "o"])
    assert _load_cli_config(args) is _load_cli_config(args)
    assert _load_cli_config(args) == PipelineConfig()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau": 0.2}))
    assert load_config(cfg).joint_layout is _load_cli_config(args).joint_layout
    assert load_config(cfg) == PipelineConfig(tau=0.2)


def test_corpus_defaults_are_the_corpus_spec_defaults(tmp_path):
    out = tmp_path / "cli"
    assert run("corpus", "--out-dir", out, "--num-scenes", 2) == EXIT_OK
    expected = tmp_path / "api"
    expected.mkdir()
    for i, scene in enumerate(generate_corpus(CorpusSpec(num_scenes=2), 0)):
        save_scene(scene, expected / ("scene_%04d.json" % i))
    got = sorted(out.iterdir())
    assert [f.name for f in got] == ["scene_0000.json", "scene_0001.json"]
    for f in got:
        assert f.read_bytes() == (expected / f.name).read_bytes()


def test_eval_defaults_are_the_match_params_defaults(tmp_path):
    scenes = make_corpus(tmp_path, n=2)
    poses_dir = tmp_path / "poses"
    poses_dir.mkdir()
    for f in sorted(scenes.glob("*.json")):
        scene = load_scene(f)
        poses = [
            PersonPose(
                joints=tuple(
                    JointCandidate(j, (int(x) + 3, int(y)), 0.9)
                    for j, (x, y) in enumerate(person.joints)
                ),
                final_centroid=(0.0, 0.0),
            )
            for person in scene.persons
        ]
        # One single-joint, low-score pose: kept only while the filters are off.
        stray = (JointCandidate(0, (5, 5), 0.05),) + (None,) * (scene.num_joints - 1)
        poses.append(PersonPose(joints=stray, final_centroid=(5.0, 5.0)))
        save_json(poses_to_doc(PoseSet(tuple(poses)), scene.height, scene.width), poses_dir / f.name)
    report = tmp_path / "report.json"
    assert run("eval", "--poses", poses_dir, "--scenes", scenes, "--out", report) == EXIT_OK
    pairs = [
        (poses_from_doc(read_json(poses_dir / f.name))[0], load_scene(f))
        for f in sorted(scenes.glob("*.json"))
    ]
    expected = report_to_doc(evaluate_corpus(pairs, MatchParams()))
    assert read_json(report) == json.loads(json.dumps(expected))
    assert read_json(report) != json.loads(
        json.dumps(report_to_doc(evaluate_corpus(pairs, MatchParams(min_joints=2))))
    )


def test_non_finite_separation_exits_three(tmp_path, capsys):
    code = run("corpus", "--out-dir", tmp_path, "--num-scenes", 1, "--separation", "nan")
    assert code == EXIT_CONFIG
    assert "min_separation must be finite" in capsys.readouterr().err


def test_negative_corpus_seed_exits_three(tmp_path, capsys):
    code = run("corpus", "--out-dir", tmp_path / "scenes", "--num-scenes", 1, "--seed", -1)
    assert code == EXIT_CONFIG
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "scenes").exists()


def test_a_rejected_corpus_flag_and_a_negative_seed_each_name_their_own_rule(tmp_path, capsys):
    assert run("corpus", "--out-dir", tmp_path / "a", "--num-scenes", -1) == EXIT_CONFIG
    assert capsys.readouterr().err == "configuration error: num_scenes must be non-negative\n"
    assert run("corpus", "--out-dir", tmp_path / "b", "--seed", -1) == EXIT_CONFIG
    assert capsys.readouterr().err == "configuration error: seed must be a non-negative integer, got -1\n"
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


def test_the_energy_trace_holds_the_bytes_csv_writer_writes(tmp_path, monkeypatch):
    scene = next(iter(make_corpus(tmp_path, n=1).glob("*.json")))
    conf, reg = tmp_path / "c.pmap", tmp_path / "r.pmap"
    assert run("synth", "--scene", scene, "--out-conf", conf, "--out-reg", reg) == EXIT_OK
    energies = (0.0, -1.5e-05, -2.25, -0.30000000000000004, -1e22, -123456789.125)
    monkeypatch.setattr(cli, "decode_maps", lambda *args: DecodeResult(PoseSet(()), energies))
    trace = tmp_path / "trace.csv"
    code = run("decode", "--conf", conf, "--reg", reg, "--out", tmp_path / "p.json", "--trace", trace)
    assert code == EXIT_OK
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["step", "energy"])
    for i, value in enumerate(energies):
        writer.writerow([i, repr(value)])
    assert trace.read_bytes() == expected.getvalue().encode("utf-8")
    assert trace.read_bytes().startswith(b"step,energy\r\n0,0.0\r\n1,-1.5e-05\r\n")


def test_decode_writes_json_dumps_and_csv_writer_bytes_for_a_noisy_scene(tmp_path):
    scene = generate_corpus(CorpusSpec(num_scenes=1), seed=1)[0]
    conf, reg = synth_maps(scene, PipelineConfig())
    rng = np.random.default_rng(1)
    conf = ConfidenceMapSet(conf.values + rng.uniform(-0.05, 0.05, conf.values.shape).astype(np.float32))
    reg = RegressionMapSet(reg.values + rng.uniform(-0.01, 0.01, reg.values.shape).astype(np.float32))
    conf_path, reg_path, out, trace = (tmp_path / name for name in ("c.pmap", "r.pmap", "p.json", "t.csv"))
    write_map_set(conf, conf_path)
    write_map_set(reg, reg_path)
    assert run("decode", "--conf", conf_path, "--reg", reg_path, "--out", out, "--trace", trace) == EXIT_OK
    result = decode_maps(read_confidence(conf_path), read_regression(reg_path))
    assert len(result.poses.poses) > 1 and len(result.energy_trace) > 1
    doc = poses_to_doc(result.poses, scene.height, scene.width)
    assert out.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode()
    expected = io.StringIO(newline="")
    csv.writer(expected).writerows([("step", "energy")] + [(i, repr(e)) for i, e in enumerate(result.energy_trace)])
    assert trace.read_bytes() == expected.getvalue().encode()


def test_non_finite_pose_score_exits_two(tmp_path, capsys):
    # A NaN score has no sort order: before it was rejected, total AP read
    # 100 with the correct pose first in the file and 50 with it second.
    scenes = make_corpus(tmp_path, n=1)
    scene = next(iter(scenes.glob("*.json")))
    person = load_scene(scene).persons[0]
    right = {
        "joints": [list(map(int, p)) for p in person.joints],
        "scores": [0.5] * 16,
        "centroid": [10, 10],
    }
    wrong = {"joints": [[0, 0]] * 16, "scores": ["X"] * 16, "centroid": [0, 0]}
    poses_dir = tmp_path / "poses"
    poses_dir.mkdir()
    for order in ([right, wrong], [wrong, right]):
        doc = {"height": 256, "width": 256, "poses": order}
        (poses_dir / scene.name).write_text(json.dumps(doc).replace('"X"', "NaN"))
        code = run("eval", "--poses", poses_dir, "--scenes", scenes, "--out", tmp_path / "r.json")
        assert code == EXIT_INPUT
        assert "finite score" in capsys.readouterr().err


def test_malformed_joint_spec_exits_two_or_three(tmp_path):
    scenes = make_corpus(tmp_path, n=1)
    scene = next(iter(scenes.glob("*.json")))
    doc = read_json(scene)
    doc["joint_spec"][0]["id"] = "x"
    bad_scene = tmp_path / "bad_scene.json"
    bad_scene.write_text(json.dumps(doc))
    code = run(
        "synth", "--scene", bad_scene,
        "--out-conf", tmp_path / "c.pmap", "--out-reg", tmp_path / "r.pmap",
    )
    assert code == EXIT_INPUT

    bad_cfg = tmp_path / "bad_cfg.json"
    bad_cfg.write_text(json.dumps({"joint_spec": doc["joint_spec"]}))
    assert run("config", "--check", bad_cfg) == EXIT_CONFIG


def test_stage_flags_override_the_config_file_only_when_given(tmp_path, capsys):
    scenes = make_corpus(tmp_path, n=1)
    scene = next(iter(scenes.glob("*.json")))
    conf = tmp_path / "m.conf.pmap"
    reg = tmp_path / "m.reg.pmap"
    assert run("synth", "--scene", scene, "--out-conf", conf, "--out-reg", reg) == EXIT_OK
    cands = tmp_path / "cands.json"
    assert run("detect", "--conf", conf, "--out", cands) == EXIT_OK
    # A cutoff far below the spread of one person's votes splits every vote.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cluster": {"link_threshold": 1e-9}}))

    def partition_count(*flags):
        out = tmp_path / "parts.json"
        code = run("partition", "--candidates", cands, "--reg", reg, "--out", out, *flags)
        assert code == EXIT_OK
        return len(read_json(out)["partitions"])

    persons = len(read_json(scene)["persons"])
    assert partition_count() == persons
    assert partition_count("--config", cfg) == len(read_json(cands))
    assert partition_count("--config", cfg, "--link-threshold", "auto") == persons
    assert partition_count("--link-threshold", "1e-9") == len(read_json(cands))
    capsys.readouterr()
    code = run("partition", "--candidates", cands, "--reg", reg, "--out", tmp_path / "p.json",
               "--link-threshold", "far")
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == "configuration error: --link-threshold must be a number or 'auto'\n"


def test_nms_radius_auto_overrides_a_radius_in_the_config_file(tmp_path):
    scene = next(iter(make_corpus(tmp_path, n=1).glob("*.json")))
    conf = tmp_path / "m.conf.pmap"
    reg = tmp_path / "m.reg.pmap"
    assert run("synth", "--scene", scene, "--out-conf", conf, "--out-reg", reg) == EXIT_OK
    # Noise of the acceptance amplitude raises peaks within 11 px (the auto
    # radius) of the joints, which radius 3 keeps as candidates.
    clean = read_confidence(conf).values
    noise = np.random.default_rng(0).uniform(-0.05, 0.05, clean.shape).astype(np.float32)
    write_map_set(ConfidenceMapSet(clean + noise), conf)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"detector": {"nms_radius": 3}}))

    def decode(*flags):
        out = tmp_path / "poses.json"
        assert run("decode", "--conf", conf, "--reg", reg, "--out", out, *flags) == EXIT_OK
        return out.read_bytes()

    defaults = decode()
    assert decode("--config", cfg) != defaults
    assert decode("--config", cfg, "--nms-radius", "auto") == defaults
    assert decode("--nms-radius", "3.0") == decode("--config", cfg)


# Each stage setting: a command that takes its flag, the flag, and its config entry.
SYNTH = ["synth", "--scene", "s.json", "--out-conf", "c.pmap", "--out-reg", "r.pmap"]
DECODE = ["decode", "--conf", "c.pmap", "--reg", "r.pmap", "--out", "p.json"]
STAGE_FLAGS = [
    (SYNTH, "--sigma", "forward.sigma"),
    (SYNTH, "--radius", "forward.radius"),
    (DECODE, "--tau", "tau"),
    (DECODE, "--nms-radius", "detector.nms_radius"),
    (DECODE, "--link-threshold", "cluster.link_threshold"),
]


def read_flag_and_entry(argv, flag, entry, text, value):
    """The configs read from `flag text` on argv and from a document whose
    entry holds value, each a repr or ConfigurationError if it is rejected."""
    *section, key = entry.split(".")
    doc = {section[0]: {key: value}} if section else {key: value}

    def outcome(load, arg):
        try:
            return repr(load(arg))
        except ConfigurationError:
            return ConfigurationError

    args = _parser().parse_args(argv + ["%s=%s" % (flag, text)])
    return outcome(_load_cli_config, args), outcome(config_from_dict, doc)


@pytest.mark.parametrize("argv, flag, entry", STAGE_FLAGS)
@pytest.mark.parametrize(
    "text, literal",
    # A flag's text, and the JSON of the same value in a config document.
    [
        ("2", "2"),
        ("3.0", "3.0"),
        ("0.25", "0.25"),
        ("auto", '"auto"'),
        ("far", '"far"'),
        ("nan", '"nan"'),
        ("NaN", "NaN"),
        ("1e400", "1e400"),
        ("true", "true"),
    ],
)
def test_a_stage_flag_reads_like_its_config_entry(tmp_path, monkeypatch, capsys, argv, flag, entry, text, literal):
    from_flag, from_doc = read_flag_and_entry(argv, flag, entry, text, json.loads(literal))
    assert from_flag == from_doc
    # The config is read before any file: a rejected value exits 3, an
    # accepted one reaches the missing input and exits 2.
    monkeypatch.chdir(tmp_path)
    code = run(*argv, flag, text)
    if from_doc is ConfigurationError:
        assert code == EXIT_CONFIG
        assert flag in capsys.readouterr().err
    else:
        assert code == EXIT_INPUT


def test_a_negative_exponent_joined_to_its_flag_is_read_as_its_value(tmp_path, monkeypatch, capsys):
    # After a space, argparse takes -1e-05 for an option; joined by "=", it
    # reaches the config reader, which rejects it as out of range and names
    # the flag.
    monkeypatch.chdir(tmp_path)
    assert run(*SYNTH, "--radius=-1e-05") == EXIT_CONFIG
    assert capsys.readouterr().err == "configuration error: --radius: radius must be non-negative, got -1e-05\n"
    with pytest.raises(SystemExit):
        run("synth", "--help")
    assert "--flag=-1e-05" in capsys.readouterr().out


@settings(max_examples=200, deadline=None)
@given(stage=st.sampled_from(STAGE_FLAGS), number=st.floats() | st.integers())
def test_a_stage_flag_given_a_number_reads_like_its_config_entry(stage, number):
    argv, flag, entry = stage
    from_flag, from_doc = read_flag_and_entry(argv, flag, entry, json.dumps(number), number)
    assert from_flag == from_doc


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--scene", "s.json", "--out-conf", "c.pmap", "--out-reg", "r.pmap"],
        ["partition", "--candidates", "c.json", "--reg", "r.pmap", "--out", "p.json"],
    ],
)
def test_tau_is_offered_only_where_it_is_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(*argv, "--tau", "0.2")
    assert exc.value.code == 2
    assert "unrecognized arguments: --tau" in capsys.readouterr().err
