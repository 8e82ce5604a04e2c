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
relative.

A second digest pins the PMAP bytes of the clean synthesized maps, for the
same 256 px and 512 px scenes and two 1024 px crowds of 10-20 persons; it
was recorded before the whole-array regression synthesis and the copy-free
PMAP writes, whose outputs must stay byte-identical.
"""
import hashlib
import json

import numpy as np

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

GOLDEN_SHA256 = "c21774ce4a4eb38bc7df8978560a3228f9be5420008564ec560390cfdb432726"
GOLDEN_MAPS_SHA256 = "7352218d0584d040405696f0c1ec0cf32abb29775318d83d9eedb54392c2acd6"


def test_decodes_match_the_golden_digest():
    cfg = PipelineConfig()
    rng = np.random.default_rng(1)
    digest = hashlib.sha256()
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
    for scene, conf, reg in maps:
        result = decode_maps(conf, reg, cfg)
        doc = poses_to_doc(result.poses, scene.height, scene.width)
        digest.update((json.dumps(doc, indent=2) + "\n").encode("utf-8"))
        digest.update("\n".join(repr(e) for e in result.energy_trace).encode("ascii"))
    assert digest.hexdigest() == GOLDEN_SHA256


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
