"""Golden decode digest: any drift in decoded poses or energy traces fails.

A few seeded 256 px scenes are decoded from maps corrupted with the
acceptance test's noise model (uniform +-0.05 on confidence, +-0.01 on
regression), which triples the candidates and so exercises clustering
ties, merged partitions and multi-pose assembly.  A few clean 512 px
scenes add partitions that hold two people, so far from their centroid
that every term of a direct density sum would underflow (noise votes
would fill it in).  The digest covers the poses JSON bytes and the repr
of every energy value; it was recorded before the clustering and assembly
speed-ups, whose outputs must stay byte-identical.
A change that alters decode outputs on purpose records a new digest and
says why.  The digest was first re-based when each partition became a
function of its member set: a centroid is now the left-to-right sum of its
members' votes in canonical order over their count, not a pairwise-summed
mean in merge order.  Poses stayed byte-identical; centroid bits, and so
scores and energy traces, moved on the noisy scenes.  It was re-based again
when a partition's score became one log-sum-exp over every vote, in place
of a direct density sum with a log-sum-exp fallback: poses stayed
byte-identical, and 2 of the 2208 energy values moved, by at most 1.6e-16
relative.  It was re-based a third time when the partition score left the
decode energy: every trace now starts at 0.0 instead of minus the summed
partition scores, so the energy values moved by that constant per scene,
while the poses, pinned on their own below, stayed byte-identical.  Both
digests were re-based when the default suppression radius became the reach
of a confidence bump at or above tau (11 px, not 3): on the noisy scenes,
peaks that noise broke out of a bump's tail no longer survive as
candidates, so those scenes decode 113 poses for their 40 persons instead
of 485.  The clean 512 px scenes decode byte-identically at either radius,
and the maps digest did not move.

A poses-only digest hashes the same poses JSON bytes without the energy
values, so a change that moves energies but must keep every decoded pose
shows that it did.

A maps digest pins the PMAP bytes of the clean synthesized maps, for the
same 256 px and 512 px scenes and two 1024 px crowds of 10-20 persons; it
was recorded before the whole-array regression synthesis and the copy-free
PMAP writes, whose outputs must stay byte-identical.
"""
import hashlib
import json

import numpy as np
import pytest

from posepartition.config import PipelineConfig
from posepartition.corpus import CorpusSpec, generate_corpus
from posepartition.iojson import poses_to_doc
from posepartition.maps import (
    ConfidenceMapSet,
    RegressionMapSet,
    build_confidence_maps,
    build_regression_maps,
)
from posepartition.pipeline import decode_maps, synth_maps
from posepartition.pmap import encode_map_set, write_map_set

GOLDEN_SHA256 = "9a82049a38c1361e1f25b4e43a303032f93da7a459e4a5e9556ebb9c489fc6cc"
GOLDEN_POSES_SHA256 = "91a6df1b88c01b2fb3fbbcd294362a295743bfdac2792c70d342b019e514c3f8"
GOLDEN_MAPS_SHA256 = "7352218d0584d040405696f0c1ec0cf32abb29775318d83d9eedb54392c2acd6"


@pytest.fixture(scope="module")
def golden_decodes():
    """(poses JSON bytes, energy trace) for each golden scene, in order."""
    cfg = PipelineConfig()
    rng = np.random.default_rng(1)
    maps = []
    for scene in generate_corpus(CorpusSpec(num_scenes=12), seed=0):
        conf, reg = synth_maps(scene, cfg)
        noisy_conf = ConfidenceMapSet(
            conf.values + rng.uniform(-0.05, 0.05, size=conf.values.shape)
        )
        noisy_reg = RegressionMapSet(
            reg.values + rng.uniform(-0.01, 0.01, size=reg.values.shape)
        )
        maps.append((scene, noisy_conf, noisy_reg))
    big = CorpusSpec(num_scenes=4, height=512, width=512, max_persons=8)
    for scene in generate_corpus(big, seed=0):
        maps.append((scene, *synth_maps(scene, cfg)))
    decodes = []
    for scene, conf, reg in maps:
        result = decode_maps(conf, reg, cfg)
        doc = poses_to_doc(result.poses, scene.height, scene.width)
        decodes.append(((json.dumps(doc, indent=2) + "\n").encode("utf-8"), result.energy_trace))
    return decodes


def test_decodes_match_the_golden_digest(golden_decodes):
    digest = hashlib.sha256()
    for poses_json, trace in golden_decodes:
        digest.update(poses_json)
        digest.update("\n".join(repr(e) for e in trace).encode("ascii"))
    assert digest.hexdigest() == GOLDEN_SHA256


def test_decoded_poses_match_the_golden_poses_digest(golden_decodes):
    digest = hashlib.sha256()
    for poses_json, _ in golden_decodes:
        digest.update(poses_json)
    assert digest.hexdigest() == GOLDEN_POSES_SHA256


def golden_map_scenes():
    yield from generate_corpus(CorpusSpec(num_scenes=12), seed=0)
    yield from generate_corpus(CorpusSpec(num_scenes=4, height=512, width=512, max_persons=8), seed=0)
    crowd = CorpusSpec(num_scenes=2, min_persons=10, max_persons=20, height=1024, width=1024)
    yield from generate_corpus(crowd, seed=0)


def test_synthesized_map_bytes_match_the_golden_digest(tmp_path):
    params = PipelineConfig().forward_params()
    digest = hashlib.sha256()
    for i, scene in enumerate(golden_map_scenes()):
        # One map set at a time: a 1024 px regression set is 128 MB.
        for build in (build_confidence_maps, build_regression_maps):
            maps = build(scene, params)
            data = encode_map_set(maps)
            digest.update(data)
            if i == 0:
                path = tmp_path / ("%s.pmap" % build.__name__)
                write_map_set(maps, path)
                assert path.read_bytes() == data
            del maps, data
    assert digest.hexdigest() == GOLDEN_MAPS_SHA256
