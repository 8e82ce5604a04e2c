"""Decode benchmark for posepartition.

Run from the root of a repository checkout:

    python3 bench/run.py --workload clean-256 --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` is a separate run that records one span per call into each
layer and reports the per-layer metrics.  Either way the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric with its unit and sample count, and the full report (provenance,
checks, output digest, spans) is written to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json``.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def _parse(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _commit() -> str:
    """Commit of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """sha256 over the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "posepartition").glob("*.py")):
        h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    if not (SRC / "posepartition" / "__init__.py").is_file():
        print("bench: no package source under %s; run from a repository checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import harness
    from tracing import Tracer

    args = _parse(argv, harness.WORKLOADS)
    wl = harness.WORKLOADS[args.workload]
    # The eval command's thread pool gets one worker per core.
    cores = os.cpu_count() or 1
    os.environ["PP_THREADS"] = str(min(8, cores))
    tracer = Tracer() if args.trace else None
    runner = harness.make_runner(args.workload, args.seed, OUT / (args.workload + "-work"))
    try:
        run = harness.execute(runner, args.seconds, tracer)
    finally:
        runner.close()

    checks = harness.checks(wl, run)
    e2e = harness.end_to_end(wl, run)
    layers = harness.per_layer(run, tracer) if tracer else {}
    spec = wl.spec
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "canvas_px": [spec.height, spec.width],
        "persons": [spec.min_persons, spec.max_persons],
        "scenes": spec.num_scenes,
        "min_separation_px": spec.min_separation,
        "noise": {"conf": harness.CONF_NOISE, "reg": harness.REG_NOISE} if wl.noisy else None,
        "input": "scene and PMAP files via the CLI" if wl.files else "maps in memory",
        "cores": cores,
        "pp_threads": os.environ["PP_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "calibration_ms": {
            kernel: {
                "reference": ref * 1e3,
                "median": statistics.median(c[kernel] for c in run.cal_s) * 1e3,
                "samples": len(run.cal_s),
            }
            for kernel, ref in harness.CAL_REF_S.items()
        },
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }
    report = {
        "provenance": provenance,
        "correct": all(checks.values()),
        "checks": checks,
        "passes": run.passes,
        "attempted": run.attempted,
        "failures": dict(run.failures),
        "output_digest": harness.workload_digest(run),
        "scene_digests": [o.digest for o in run.first],
        "end_to_end": e2e,
        "per_layer": layers,
        "counts": dict(run.counts),
        "spans": tracer.spans if tracer else [],
    }
    OUT.mkdir(exist_ok=True)
    report_path = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    print("workload %s  seed %d  canvas %dx%d  persons %d-%d  %d scenes x %.2f passes  cores %d"
          % (args.workload, args.seed, spec.width, spec.height, spec.min_persons,
             spec.max_persons, spec.num_scenes, run.passes, cores))
    print("commit %s  source %s" % (provenance["commit"], provenance["source_sha256"][:16]))
    for kernel, cal in provenance["calibration_ms"].items():
        print("calibration %s kernel: median %.3f ms over %d samples; timings quoted at %.3f ms"
              % (kernel, cal["median"], cal["samples"], cal["reference"]))
    for name, m in e2e.items():
        extra = "".join("  %s=%.6g" % (k, m[k]) for k in ("timed", "percentile", "raw") if k in m)
        print("  %-24s %14.6g %-10s n=%d%s" % (name, m["value"], m["unit"], m["samples"], extra))
    for name, m in layers.items():
        print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
    print("failures %s" % (dict(run.failures) or "none"))
    print("checks %s" % ", ".join("%s=%s" % kv for kv in checks.items()))
    print("output digest %s" % report["output_digest"])
    print("report %s" % report_path.relative_to(ROOT))
    metrics = layers if tracer else {k: e2e[k] for k in harness.RESULT_METRICS}
    print(json.dumps({
        "correct": report["correct"],
        "attempted": run.attempted,
        "failed": sum(run.failures.values()),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
