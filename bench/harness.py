"""Workloads, timed loop, output checks and metrics of the decode benchmark.

Two kinds of runner share one timed loop:

* ``MemoryRunner`` synthesizes a scene's maps and decodes them in memory,
  calling ``pipeline.synth_maps`` and ``pipeline.decode_maps`` as a user
  does.  Noise, where the workload has it, is drawn between the two timers.
* ``FileRunner`` decodes scene files written at set-up through
  ``cli.main(["decode", ...])`` and scores them with ``cli.main(["eval", ...])``.

The loop always completes one full pass over the corpus (the pass the
digest, the accuracy and the layer counts come from) and then keeps cycling
until ``--seconds`` are used; every later pass must reproduce the first
pass's outputs exactly.

Every ``CAL_EVERY_S`` of the loop three fixed kernels are timed
(``calibrate``): numpy array work, plain Python, and JSON parsing in a
thread pool.  The end-to-end timings are quoted at a fixed host speed: each
is scaled by its kernel's ``CAL_REF_S`` over the kernel's median time in
the ``CAL_WINDOW`` calibrations around the timing, so that a slow phase of
a shared host does not read as a slower program.  Decodes, which are mostly
array work, are scaled by the numpy kernel; set-up and in-memory
evaluation, mostly Python, by the Python kernel; the eval command, which
loads its files in a thread pool and then matches in Python, by the
geometric mean of the pool and Python kernels.  The kernels run none
of the package's code, so a change to the package cannot move them.
"""
from __future__ import annotations

import csv
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from posepartition import cli, pipeline
from posepartition import corpus as corpus_mod
from posepartition import evaluate as evaluate_mod
from posepartition.config import PipelineConfig
from posepartition.corpus import CorpusSpec
from posepartition.detect import DetectorParams
from posepartition.errors import PipelineError
from posepartition.evaluate import MatchParams
from posepartition.infer import PoseSet
from posepartition.iojson import poses_to_doc, save_json
from posepartition.maps import ConfidenceMapSet, RegressionMapSet
from posepartition.pmap import write_map_set
from posepartition.scene import save_scene

from tracing import Tracer, duration, self_time

MIN_EVAL_REPEATS = 3
EVAL_EVERY = 4  # scenes decoded between evaluations after the first pass
TAIL_BEYOND = 10  # samples a reported tail percentile must have beyond it
CONF_NOISE = 0.05  # the acceptance test's noise model
REG_NOISE = 0.01
CAL_EVERY_S = 0.5  # loop time between calibrations
CAL_WINDOW = 9  # calibrations whose median scales a timing
# Kernel times of the host speed timings are quoted at.
CAL_REF_S = {"numpy": 0.007, "python": 0.004, "pool": 0.004}
# The acceptance test's protocol for noisy maps, used on every workload.
MATCH = MatchParams(min_joints=3, min_score=0.5)
MATCH_FLAGS = ["--min-joints", "3", "--min-score", "0.5"]
# End-to-end metrics of the result line.  fail_share and count_mse are 0 on
# clean maps, so they are reported in the table and the report file only;
# the result line's "failed" carries the failures.
RESULT_METRICS = (
    "scenes_per_s", "scene_p50_ms", "scene_p95_ms", "decode_p50_ms", "decode_p95_ms",
    "eval_s", "setup_s", "peak_rss_mb", "total_ap",
)


@dataclass(frozen=True)
class Workload:
    spec: CorpusSpec
    noisy: bool = False
    files: bool = False
    exact: bool = False  # clean maps: AP 100, count MSE 0, no failures
    min_ap: float = 0.0
    max_count_mse: float = math.inf
    setup_repeats: int = 9  # spread over the run; setup_s is their median
    # Calibration kernels whose geometric mean scales eval_s.
    eval_kernels: tuple[str, ...] = ("python",)


# clean-256 and noisy-256 take the acceptance corpus for their seed (seed 0
# gives the acceptance test's corpus).
WORKLOADS = {
    "clean-256": Workload(CorpusSpec(), exact=True),
    "noisy-256": Workload(CorpusSpec(), noisy=True, min_ap=95.0, max_count_mse=0.25),
    "crowd-1024": Workload(
        CorpusSpec(num_scenes=10, min_persons=10, max_persons=20, height=1024, width=1024),
        noisy=True,
    ),
    # Each set-up writes about 800 MB of PMAP files, so it repeats less often.
    "files-256": Workload(
        CorpusSpec(num_scenes=64), files=True, exact=True, setup_repeats=3,
        eval_kernels=("python", "pool"),
    ),
}

# Library calls traced inside pipeline.synth_maps / decode_maps.
STAGE_TARGETS = [
    (pipeline, "build_confidence_maps", "maps.conf"),
    (pipeline, "build_regression_maps", "maps.reg"),
    (pipeline, "detect_candidates", "detect"),
    (pipeline, "embed", "partition.embed"),
    (pipeline, "cluster_votes", "partition.cluster"),
    (pipeline, "infer_all", "infer"),
]


@dataclass
class Outcome:
    scene_s: float
    decode_s: float
    error: str | None
    energy: tuple[float, ...]
    digest: str
    poses: PoseSet | None = None


_CAL_MAPS = np.random.default_rng(20170522).random((17, 256, 256))
_CAL_POINTS = [tuple(p) for p in np.random.default_rng(20170523).random((300, 2)).tolist()]
# The numpy kernel's buffers are allocated once: fresh multi-megabyte arrays
# would time the allocator, whose state depends on what the code under test
# allocated before (that made the kernel 40% slower in one workload than in another).
_CAL_BUF = np.empty_like(_CAL_MAPS)
_CAL_KEEP = np.empty(_CAL_MAPS.shape, dtype=bool)
_CAL_ROW = np.empty(_CAL_MAPS[0].size)


def _numpy_kernel() -> None:
    """What detection and synthesis do most: exponentials, thresholds,
    reductions and a sort over 17 maps of 256 x 256, in place."""
    v = _CAL_BUF
    np.subtract(_CAL_MAPS, 0.5, out=v)
    np.square(v, out=v)
    np.multiply(v, -8.0, out=v)
    np.exp(v, out=v)
    np.greater_equal(v, 0.3, out=_CAL_KEEP)
    np.multiply(v, _CAL_KEEP, out=v)
    float(v.sum())
    _CAL_ROW[:] = v[0].ravel()
    _CAL_ROW.sort()


def _python_kernel() -> None:
    """What matching and corpus generation do most: float arithmetic over
    pairs of points, dict updates and a sort of tuples."""
    near: dict[int, list[int]] = {}
    records = []
    for i, (x, y) in enumerate(_CAL_POINTS):
        for j in range(0, len(_CAL_POINTS), 15):
            x2, y2 = _CAL_POINTS[j]
            d2 = (x - x2) ** 2 + (y - y2) ** 2
            if d2 < 0.02:
                near.setdefault(i, []).append(j)
            records.append((-d2, j, i))
    records.sort()


_CAL_DOCS = [
    json.dumps({"persons": [[[x, y] for x, y in _CAL_POINTS[k:k + 17]] for k in range(0, 85, 17)]})
    for _ in range(32)
]


def _pool_kernel() -> None:
    """What the eval command's loading does: JSON documents parsed in a
    fresh pool of PP_THREADS threads."""
    with ThreadPoolExecutor(max_workers=int(os.environ.get("PP_THREADS", "1"))) as pool:
        list(pool.map(json.loads, _CAL_DOCS))


CAL_KERNELS = {"numpy": _numpy_kernel, "python": _python_kernel, "pool": _pool_kernel}


def calibrate() -> dict[str, float]:
    """Seconds each calibration kernel takes now: the host's current speed.

    The garbage collector is off meanwhile, so that the kernels' time does
    not depend on how many objects the code under test keeps alive.
    """
    out = {}
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        for name, kernel in CAL_KERNELS.items():
            t0 = time.perf_counter()
            kernel()
            out[name] = time.perf_counter() - t0
    finally:
        if gc_was_on:
            gc.enable()
    return out


def _digest(poses_json: str, energy) -> str:
    h = hashlib.sha256(poses_json.encode("utf-8"))
    h.update(b"\0")
    h.update("\n".join(repr(float(e)) for e in energy).encode("ascii"))
    return h.hexdigest()


def _failed(scene_s: float, decode_s: float, error: str) -> Outcome:
    digest = hashlib.sha256(("error:" + error).encode("ascii")).hexdigest()
    return Outcome(scene_s, decode_s, error, (), digest, PoseSet(poses=()))


def add_noise(conf: ConfidenceMapSet, reg: RegressionMapSet, seed: int, index: int):
    """Uniform noise of the acceptance model, seeded per (workload seed, scene)."""
    rng = np.random.default_rng([seed, index])

    def uniform(shape, amp):
        return (rng.random(shape, dtype=np.float32) * np.float32(2) - np.float32(1)) * np.float32(amp)

    return (
        ConfidenceMapSet(conf.values + uniform(conf.values.shape, CONF_NOISE)),
        RegressionMapSet(reg.values + uniform(reg.values.shape, REG_NOISE)),
    )


class MemoryRunner:
    """Synthesize and decode in memory, as a network-fed user would."""

    def __init__(self, wl: Workload, seed: int) -> None:
        self.wl, self.seed, self.cfg = wl, seed, PipelineConfig()
        self.scenes = []
        self.scene_targets = STAGE_TARGETS + [
            (pipeline, "synth_maps", "synth"),
            (pipeline, "decode_maps", "decode"),
            (sys.modules[__name__], "add_noise", "noise"),
        ]
        self.eval_targets = [(evaluate_mod, "evaluate_corpus", "evaluate")]
        self.pairs = []

    def setup(self) -> None:
        self.scenes = corpus_mod.generate_corpus(self.wl.spec, self.seed)

    def run(self, i: int) -> Outcome:
        scene = self.scenes[i]
        t0 = time.perf_counter()
        conf, reg = pipeline.synth_maps(scene, self.cfg)
        synth_s = time.perf_counter() - t0
        if self.wl.noisy:
            conf, reg = add_noise(conf, reg, self.seed, i)
        t1 = time.perf_counter()
        try:
            result = pipeline.decode_maps(conf, reg, self.cfg)
        except PipelineError as exc:
            decode_s = time.perf_counter() - t1
            return _failed(synth_s + decode_s, decode_s, type(exc).__name__)
        decode_s = time.perf_counter() - t1
        doc = poses_to_doc(result.poses, scene.height, scene.width)
        poses_json = json.dumps(doc, indent=2) + "\n"  # the bytes save_json writes
        return Outcome(
            synth_s + decode_s,
            decode_s,
            None,
            result.energy_trace,
            _digest(poses_json, result.energy_trace),
            result.poses,
        )

    def prepare_eval(self, first: list[Outcome]) -> None:
        self.pairs = [(out.poses, scene) for out, scene in zip(first, self.scenes)]

    def evaluate(self) -> tuple[float, float]:
        report = evaluate_mod.evaluate_corpus(self.pairs, MATCH)
        return report.total_ap, report.count_mse

    def close(self) -> None:
        pass


class FileRunner:
    """Decode scene files one CLI call at a time, then score them with the CLI."""

    def __init__(self, wl: Workload, seed: int, work: Path) -> None:
        self.wl, self.seed, self.work = wl, seed, work
        self.scenes = []
        self.scene_targets = STAGE_TARGETS + [
            (cli, "read_confidence", "pmap.read"),
            (cli, "read_regression", "pmap.read"),
            (cli, "decode_maps", "decode"),
            (cli, "poses_to_doc", "iojson.poses_to_doc"),
            (cli, "save_json", "iojson.save_json"),
            (cli, "main", "cli.decode"),
        ]
        self.eval_targets = [
            (cli, "evaluate_corpus", "evaluate"),
            (cli, "main", "cli.eval"),
        ]

    def setup(self) -> None:
        """Write the scene and PMAP files; repeats overwrite them, keeping outputs."""
        if not self.scenes and self.work.exists():
            shutil.rmtree(self.work)  # left over from an interrupted run
        for sub in ("scenes", "maps", "poses", "energy"):
            (self.work / sub).mkdir(parents=True, exist_ok=True)
        self.scenes = corpus_mod.generate_corpus(self.wl.spec, self.seed)
        cfg = PipelineConfig()
        for i, scene in enumerate(self.scenes):
            save_scene(scene, self._path("scenes", i, "json"))
            conf, reg = pipeline.synth_maps(scene, cfg)
            write_map_set(conf, self._path("maps", i, "conf.pmap"))
            write_map_set(reg, self._path("maps", i, "reg.pmap"))

    def _path(self, sub: str, i: int, ext: str) -> str:
        return str(self.work / sub / ("scene_%04d.%s" % (i, ext)))

    def run(self, i: int) -> Outcome:
        out, energy_csv = self._path("poses", i, "json"), self._path("energy", i, "csv")
        argv = ["decode", "--conf", self._path("maps", i, "conf.pmap"),
                "--reg", self._path("maps", i, "reg.pmap"), "--out", out, "--trace", energy_csv]
        t0 = time.perf_counter()
        code = cli.main(argv)
        decode_s = time.perf_counter() - t0
        if code == cli.EXIT_INPUT:
            # Scored as an empty pose set; the CLI reports only the exit code.
            scene = self.scenes[i]
            save_json(poses_to_doc(PoseSet(poses=()), scene.height, scene.width), out)
            return _failed(decode_s, decode_s, "PipelineError")
        if code != cli.EXIT_OK:
            raise RuntimeError("posepartition decode exited %d on scene %d" % (code, i))
        with open(energy_csv, newline="", encoding="utf-8") as fh:
            energy = tuple(float(row["energy"]) for row in csv.DictReader(fh))
        with open(out, encoding="utf-8") as fh:
            poses_json = fh.read()
        return Outcome(decode_s, decode_s, None, energy, _digest(poses_json, energy))

    def prepare_eval(self, first: list[Outcome]) -> None:
        pass

    def evaluate(self) -> tuple[float, float]:
        report = str(self.work / "report.json")
        argv = ["eval", "--poses", str(self.work / "poses"), "--scenes",
                str(self.work / "scenes"), "--out", report] + MATCH_FLAGS
        code = cli.main(argv)
        if code != cli.EXIT_OK:
            raise RuntimeError("posepartition eval exited %d" % code)
        with open(report, encoding="utf-8") as fh:
            doc = json.load(fh)
        return doc["total_ap"], doc["count_mse"]

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def make_runner(name: str, seed: int, work: Path):
    wl = WORKLOADS[name]
    return FileRunner(wl, seed, work) if wl.files else MemoryRunner(wl, seed)


def count_peaks(values: np.ndarray, tau: float) -> int:
    """Strict 8-neighbour local maxima at or above tau, before suppression.

    Same definition as the detector: >= every in-grid neighbour and > at
    least one; out-of-grid neighbours neither veto nor witness.
    """
    js, ys, xs = np.nonzero(values >= np.float64(tau))
    v = values[js, ys, xs]
    lo = np.pad(values, ((0, 0), (1, 1), (1, 1)), constant_values=-np.inf)
    hi = np.pad(values, ((0, 0), (1, 1), (1, 1)), constant_values=np.inf)
    ge_all = np.ones(v.shape, dtype=bool)
    gt_any = np.zeros(v.shape, dtype=bool)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy or dx:
                ge_all &= v >= lo[js, ys + 1 + dy, xs + 1 + dx]
                gt_any |= v > hi[js, ys + 1 + dy, xs + 1 + dx]
    return int(np.count_nonzero(ge_all & gt_any))


def _count_calls(counts: Counter, calls) -> None:
    """Work counts of one scene, from the arguments and results of its traced calls."""
    for name, args, result in calls:
        if name == "maps.conf":
            scene = args[0]
            bumps = sum(1 for p in scene.persons for pos in p.joints if pos is not None)
            counts["maps.conf_bumps"] += bumps
            counts["maps.conf_px_computed"] += bumps * scene.height * scene.width
        elif name == "detect":
            conf = args[0]
            params = args[1] if len(args) > 1 and args[1] is not None else DetectorParams()
            counts["detect.pixels"] += conf.values.size
            counts["detect.peaks_above_tau"] += count_peaks(conf.values, params.tau)
            counts["detect.candidates"] += len(result)
        elif name == "partition.embed":
            counts["partition.votes"] += len(result)
            counts["partition.max_votes_per_scene"] = max(
                counts["partition.max_votes_per_scene"], len(result)
            )
        elif name == "partition.cluster":
            counts["partition.partitions"] += len(result)
        elif name == "infer":
            poses, trace = result
            counts["infer.poses"] += len(poses.poses)
            counts["infer.root_only_poses"] += sum(1 for p in poses.poses if p.present_count() == 1)
            counts["infer.trace_steps"] += len(trace) - 1
        elif name == "pmap.read":
            counts["pmap.bytes_read"] += os.path.getsize(args[0])


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail_percentile(n: int) -> int:
    """p95, or the highest whole percentile with TAIL_BEYOND samples beyond it."""
    if n <= TAIL_BEYOND:
        return 50
    return max(50, min(95, math.floor(100.0 * (n - TAIL_BEYOND) / n)))


@dataclass
class Run:
    """Everything one benchmark invocation measured and checked."""

    # Calibration kernel times in loop order; every timing below keeps
    # the number of calibrations made before it, its place among them.
    cal_s: list[dict[str, float]] = field(default_factory=list)
    cal_at: float = 0.0
    setup_s: list[tuple[float, int]] = field(default_factory=list)
    # Untraced (scene_s, decode_s, place) timings of every decode, by scene index.
    timings: defaultdict[int, list[tuple[float, float, int]]] = field(
        default_factory=lambda: defaultdict(list)
    )
    first: list[Outcome] = field(default_factory=list)
    passes: float = 0.0
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    repeat_mismatches: int = 0
    trace_mismatches: int = 0
    eval_s: list[tuple[float, int]] = field(default_factory=list)
    eval_results: list[tuple[float, float]] = field(default_factory=list)
    plain_s: float = 0.0
    traced_s: float = 0.0
    counts: Counter = field(default_factory=Counter)
    peak_rss_mb: float = 0.0

    def calibrate(self) -> None:
        self.cal_s.append(calibrate())
        self.cal_at = time.perf_counter()

    def scale(self, place: int, kernels: tuple[str, ...]) -> float:
        """Factor that quotes a timing made at ``place`` at the kernels' CAL_REF_S.

        With several kernels the factor is the geometric mean of theirs.
        """
        lo = max(0, min(place - CAL_WINDOW // 2, len(self.cal_s) - CAL_WINDOW))
        factors = [
            CAL_REF_S[k] / statistics.median(c[k] for c in self.cal_s[lo:lo + CAL_WINDOW])
            for k in kernels
        ]
        return math.prod(factors) ** (1.0 / len(factors))

    def record(self, out: Outcome, i: int, first: bool, timed: bool = True) -> None:
        """Keep a first-pass outcome; compare any other against it."""
        self.attempted += 1
        if timed:
            self.timings[i].append((out.scene_s, out.decode_s, len(self.cal_s)))
        if out.error is not None:
            self.failures[out.error] += 1
        if first:
            self.first.append(out)
        elif out.digest != self.first[i].digest:
            self.repeat_mismatches += 1


def execute(runner, seconds: float, tracer: Tracer | None) -> Run:
    """Set up, warm up, then measure for ``seconds`` (at least one full pass).

    Set-up repetitions are spread evenly over the run, and after the first
    pass over the corpus evaluations alternate with further scenes, so that
    set-up, scene and evaluation samples all see the same machine.
    """
    run = Run()
    calibrate()  # warm-up
    run.calibrate()
    _setup(runner, tracer, run)
    runner.run(0)  # warm-up, untimed and unrecorded

    start = time.perf_counter()
    end = start + seconds
    repeats = runner.wl.setup_repeats
    setups_due = [start + seconds * j / repeats for j in range(1, repeats)]

    def step(i: int, first: bool) -> None:
        if time.perf_counter() - run.cal_at >= CAL_EVERY_S:
            run.calibrate()
        if setups_due and time.perf_counter() >= setups_due[0]:
            setups_due.pop(0)
            _setup(runner, tracer, run)
        _scene(runner, tracer, run, i, first)

    n = len(runner.scenes)
    for i in range(n):
        step(i, first=True)
    runner.prepare_eval(run.first)
    k = 0
    while k < MIN_EVAL_REPEATS * EVAL_EVERY or time.perf_counter() < end:
        if k % EVAL_EVERY == 0:
            _evaluate(runner, tracer, run, k // EVAL_EVERY)
        step(k % n, first=False)
        k += 1
    for _ in setups_due:
        _setup(runner, tracer, run)
    run.calibrate()
    run.passes = 1 + k / n
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return run


def _setup(runner, tracer: Tracer | None, run: Run) -> None:
    """Build the workload's inputs once, timed; repeats must rebuild them identically."""
    t0 = time.perf_counter()
    if tracer is None:
        runner.setup()
    else:
        with tracer.patched([(corpus_mod, "generate_corpus", "corpus")]), \
                tracer.span("setup", key=("setup", len(run.setup_s))):
            runner.setup()
        tracer.take_calls()
    run.setup_s.append((time.perf_counter() - t0, len(run.cal_s)))


def _scene(runner, tracer: Tracer | None, run: Run, i: int, first: bool) -> None:
    """Decode scene i; traced runs decode it untraced and traced, in alternating order."""
    if tracer is None:
        run.record(runner.run(i), i, first)
        return
    results = {}
    pairs_done = run.attempted // 2
    for traced in ((False, True) if pairs_done % 2 == 0 else (True, False)):
        if traced:
            with tracer.patched(runner.scene_targets), \
                    tracer.span("scene", key=("scene", first, i)):
                results[True] = runner.run(i)
            # Count now: the calls hold the scene's maps, which must not stay
            # alive into the untraced run.
            calls = tracer.take_calls()
            if first:
                _count_calls(run.counts, calls)
            del calls
        else:
            results[False] = runner.run(i)
    plain, traced_out = results[False], results[True]
    if not first:  # the first pass's counting between runs would skew the ratio
        run.plain_s += plain.scene_s
        run.traced_s += traced_out.scene_s
    if plain.digest != traced_out.digest:
        run.trace_mismatches += 1
    run.record(plain, i, first)
    run.record(traced_out, i, first=False, timed=False)


def _evaluate(runner, tracer: Tracer | None, run: Run, k: int) -> None:
    """Score the first pass once, timed; traced runs also score it traced."""
    if tracer is None:
        order = (False,)
    else:
        order = (False, True) if k % 2 == 0 else (True, False)
    for traced in order:
        if traced:
            with tracer.patched(runner.eval_targets), tracer.span("eval", key=("eval", k)):
                run.eval_results.append(runner.evaluate())
            tracer.take_calls()
        else:
            t0 = time.perf_counter()
            run.eval_results.append(runner.evaluate())
            run.eval_s.append((time.perf_counter() - t0, len(run.cal_s)))


def checks(wl: Workload, run: Run) -> dict[str, bool]:
    """Output checks; every one must hold for the run to count as correct."""
    ap, mse = run.eval_results[0]
    decoded = [o for o in run.first if o.error is None]
    return {
        "energy_traces_strictly_decrease": all(
            all(b < a for a, b in zip(o.energy, o.energy[1:])) for o in decoded
        ),
        "repeated_passes_reproduce_outputs": run.repeat_mismatches == 0,
        "tracing_leaves_outputs_unchanged": run.trace_mismatches == 0,
        "evaluation_is_deterministic": len(set(run.eval_results)) == 1,
        "accuracy_within_limits": ap >= wl.min_ap and mse <= wl.max_count_mse,
        "clean_maps_recovered_exactly": not wl.exact
        or (ap == 100.0 and mse == 0.0 and not run.failures),
    }


def workload_digest(run: Run) -> str:
    h = hashlib.sha256()
    for out in run.first:
        h.update(out.digest.encode("ascii"))
    return h.hexdigest()


def end_to_end(wl: Workload, run: Run) -> dict[str, dict]:
    """Every end-to-end metric with its unit, sample count and notes.

    Timings are quoted at the host speed of CAL_REF_S; ``raw`` is the same
    figure from the unscaled timings.
    """
    timed = sum(len(ts) for ts in run.timings.values())
    n = len(run.timings)
    q = tail_percentile(n)
    ap, mse = run.eval_results[0]
    n_fail = sum(run.failures.values())

    def metric(value, unit, samples, **notes):
        return dict(value=value, unit=unit, samples=samples, **notes)

    def timings(scaled: bool) -> dict[str, float]:
        def at(t: float, place: int, kernels: tuple[str, ...] = ("numpy",)) -> float:
            return t * run.scale(place, kernels) if scaled else t

        # One sample per scene: the fastest of its timed decodes.  The scaling
        # takes out the host's slow phases; the minimum drops the moments
        # other tenants took from a single decode.
        scene_s = [min(at(s, p) for s, _, p in ts) for ts in run.timings.values()]
        decode_s = [min(at(d, p) for _, d, p in ts) for ts in run.timings.values()]
        return {
            "scenes_per_s": n / sum(scene_s),
            "scene_p50_ms": _percentile(scene_s, 50) * 1e3,
            "scene_p95_ms": _percentile(scene_s, q) * 1e3,
            "decode_p50_ms": _percentile(decode_s, 50) * 1e3,
            "decode_p95_ms": _percentile(decode_s, q) * 1e3,
            "eval_s": statistics.median(at(t, p, wl.eval_kernels) for t, p in run.eval_s),
            "setup_s": statistics.median(at(t, p, ("python",)) for t, p in run.setup_s),
        }

    value, raw = timings(True), timings(False)

    def timing(name, unit, samples, **notes):
        return metric(value[name], unit, samples, raw=raw[name], **notes)

    return {
        "scenes_per_s": timing("scenes_per_s", "1/s", n, timed=timed),
        "scene_p50_ms": timing("scene_p50_ms", "ms", n, timed=timed),
        "scene_p95_ms": timing("scene_p95_ms", "ms", n, timed=timed, percentile=q),
        "decode_p50_ms": timing("decode_p50_ms", "ms", n, timed=timed),
        "decode_p95_ms": timing("decode_p95_ms", "ms", n, timed=timed, percentile=q),
        "eval_s": timing("eval_s", "s", len(run.eval_s)),
        "setup_s": timing("setup_s", "s", len(run.setup_s)),
        "peak_rss_mb": metric(run.peak_rss_mb, "MB", 1),
        "fail_share": metric(n_fail / run.attempted, "share", run.attempted),
        "total_ap": metric(ap, "AP", len(run.first)),
        "count_mse": metric(mse, "persons^2", len(run.first)),
    }


def per_layer(run: Run, tracer: Tracer) -> dict[str, dict]:
    """Per-layer busy times and counts of the traced run.

    Scene-level figures cover the first pass over the corpus; set-up and
    evaluation figures are medians over their traced repetitions.  A layer
    the workload bypasses reports 0.
    """
    kids = tracer.children()
    busy: defaultdict[str, float] = defaultdict(float)
    per_rep: defaultdict[str, list[float]] = defaultdict(list)
    scene_self = 0.0
    score_errors = 0
    for rec in tracer.spans:
        key = rec["key"]
        if key[0] == "scene":
            if not key[1]:  # layer figures cover the first pass only
                continue
            busy[rec["name"]] += duration(rec)
            if rec["name"] == "scene":
                scene_self += self_time(rec, kids.get(rec["id"], []))
            if rec["name"] == "infer" and rec["error"] == "PartitionScoreError":
                score_errors += 1
        else:
            per_rep[rec["name"]].append(duration(rec))

    def rep_median(name: str) -> float:
        return statistics.median(per_rep[name]) if per_rep[name] else 0.0

    c = run.counts
    s, count = "s", "count"
    rows = [
        ("corpus.busy_s", rep_median("corpus"), s),
        ("maps.conf_busy_s", busy["maps.conf"], s),
        ("maps.conf_bumps", c["maps.conf_bumps"], count),
        ("maps.conf_px_computed", c["maps.conf_px_computed"], "px"),
        ("maps.reg_busy_s", busy["maps.reg"], s),
        ("detect.busy_s", busy["detect"], s),
        ("detect.pixels", c["detect.pixels"], "px"),
        ("detect.peaks_above_tau", c["detect.peaks_above_tau"], count),
        ("detect.candidates", c["detect.candidates"], count),
        ("detect.nms_kept_ratio",
         c["detect.candidates"] / c["detect.peaks_above_tau"] if c["detect.peaks_above_tau"] else 0.0,
         "ratio"),
        ("partition.embed_busy_s", busy["partition.embed"], s),
        ("partition.votes", c["partition.votes"], count),
        ("partition.cluster_busy_s", busy["partition.cluster"], s),
        ("partition.max_votes_per_scene", c["partition.max_votes_per_scene"], count),
        ("partition.partitions", c["partition.partitions"], count),
        ("partition.persons_per_partition",
         c["infer.poses"] / c["partition.partitions"] if c["partition.partitions"] else 0.0,
         "ratio"),
        ("infer.busy_s", busy["infer"], s),
        ("infer.poses", c["infer.poses"], count),
        ("infer.root_only_poses", c["infer.root_only_poses"], count),
        ("infer.trace_steps", c["infer.trace_steps"], count),
        ("infer.score_errors", score_errors, count),
        ("evaluate.busy_s", rep_median("evaluate"), s),
        ("pmap.read_busy_s", busy["pmap.read"], s),
        ("pmap.bytes_read", c["pmap.bytes_read"], "B"),
        ("iojson.poses_write_busy_s", busy["iojson.poses_to_doc"] + busy["iojson.save_json"], s),
        ("cli.eval_busy_s", rep_median("cli.eval"), s),
        ("scene.self_s", scene_self, s),
        ("trace.overhead_share", run.traced_s / run.plain_s - 1.0, "share"),
    ]
    return {name: {"value": value, "unit": unit} for name, value, unit in rows}
