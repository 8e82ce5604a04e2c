"""The decode benchmark still runs against the package.

bench/harness.py imports the package's names, builds MatchParams and the
workloads' CorpusSpecs at import, and catches only PipelineError around a
decode.  A renamed or deleted name, or a decode failure of another kind,
therefore ends every benchmark run with an exception.  These tests run the
harness as a library on small copies of the gated workloads, untraced and
traced, and on one scene of the crowd workload, untraced, whose 700-900
votes take clustering through many merge rounds; every output check must
hold and every result metric must be reported.
"""
import dataclasses
import importlib
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    """The harness and tracing modules (harness imports tracing top-level)."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("harness"), importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCH))


CASES = [
    ("noisy-256", 4, False),
    ("noisy-256", 4, True),
    ("files-256", 2, False),
    ("files-256", 2, True),
    # One crowd scene clusters 700-900 votes, the many-vote merge path.
    ("crowd-1024", 1, False),
]


@pytest.mark.parametrize(
    "name, num_scenes, traced",
    CASES,
    ids=["%s-%d-%s" % (name, n, "traced" if traced else "untraced") for name, n, traced in CASES],
)
def test_harness_runs_a_reduced_workload(bench, tmp_path, name, num_scenes, traced):
    harness, tracing = bench
    full = harness.WORKLOADS[name]
    # The first scenes of the workload's seed-1 corpus: scenes are drawn in
    # order from one generator.
    wl = dataclasses.replace(full, spec=dataclasses.replace(full.spec, num_scenes=num_scenes))
    runner = harness.FileRunner(wl, 1, tmp_path / "work") if wl.files else harness.MemoryRunner(wl, 1)
    tracer = tracing.Tracer() if traced else None
    try:
        run = harness.execute(runner, 0.0, tracer)
    finally:
        runner.close()

    checks = harness.checks(wl, run)
    assert checks == {check: True for check in checks}
    assert not run.failures
    e2e = harness.end_to_end(wl, run)
    for metric in harness.RESULT_METRICS:
        assert math.isfinite(e2e[metric]["value"]), metric
    if traced:
        layers = harness.per_layer(run, tracer)
        assert layers and all(math.isfinite(m["value"]) for m in layers.values())
