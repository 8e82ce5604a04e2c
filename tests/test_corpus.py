"""Seeded synthetic scene generation."""
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posepartition.corpus import CorpusSpec, HUMANOID_TEMPLATE, generate_corpus
from posepartition.errors import ConfigurationError, ParameterError
from posepartition.scene import PersonAnnotation, Scene, dump_scene, mpii_joint_layout, person_centroid


SMALL = CorpusSpec(num_scenes=6, max_persons=3, min_separation=40.0, height=192, width=192)


def test_same_seed_reproduces_the_corpus_byte_for_byte():
    a = generate_corpus(SMALL, seed=11)
    b = generate_corpus(SMALL, seed=11)
    assert len(a) == len(b) == 6
    for sa, sb in zip(a, b):
        assert dump_scene(sa) == dump_scene(sb)


def test_different_seeds_differ():
    a = generate_corpus(SMALL, seed=11)
    b = generate_corpus(SMALL, seed=12)
    assert any(dump_scene(sa) != dump_scene(sb) for sa, sb in zip(a, b))


def test_scenes_are_valid_with_integer_joints():
    scenes = generate_corpus(SMALL, seed=3)
    for scene in scenes:
        assert scene.height == 192 and scene.width == 192
        assert 1 <= len(scene.persons) <= 3
        for person in scene.persons:
            assert all(p is not None for p in person.joints)
            for x, y in person.joints:
                assert x == int(x) and y == int(y)


def test_person_count_range_is_respected():
    spec = CorpusSpec(num_scenes=30, min_persons=2, max_persons=2, height=256, width=256)
    scenes = generate_corpus(spec, seed=5)
    assert all(len(s.persons) == 2 for s in scenes)


def test_centroid_separation_is_enforced():
    spec = CorpusSpec(
        num_scenes=10, min_persons=3, max_persons=3, min_separation=40.0, height=256, width=256
    )
    for scene in generate_corpus(spec, seed=7):
        cents = [person_centroid(p) for p in scene.persons]
        for i in range(len(cents)):
            for j in range(i + 1, len(cents)):
                assert math.dist(cents[i], cents[j]) >= 40.0


def test_joints_follow_the_template_up_to_jitter():
    spec = CorpusSpec(num_scenes=4, max_persons=2, min_separation=60.0, jitter=4)
    scenes = generate_corpus(spec, seed=9)
    for scene in scenes:
        name_of = {js.joint_id: js.name for js in scene.joint_layout}
        for person in scene.persons:
            # Recover the anchor from the neck, then bound every joint's
            # deviation from its template offset by twice the jitter.
            neck_id = next(j for j, n in name_of.items() if n == "neck")
            ndx, ndy = HUMANOID_TEMPLATE["neck"]
            ax = person.joints[neck_id][0] - ndx
            ay = person.joints[neck_id][1] - ndy
            for j, pos in enumerate(person.joints):
                dx, dy = HUMANOID_TEMPLATE[name_of[j]]
                assert abs(pos[0] - (ax + dx)) <= 8.0
                assert abs(pos[1] - (ay + dy)) <= 8.0


@pytest.mark.parametrize("seed", [-1, True, 1.0, "1", None])
def test_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
        generate_corpus(CorpusSpec(num_scenes=1), seed)


def test_zero_scenes_is_allowed():
    assert generate_corpus(CorpusSpec(num_scenes=0), seed=1) == []


def test_tiny_canvas_cannot_fit_the_template():
    with pytest.raises(ConfigurationError, match="cannot fit"):
        generate_corpus(CorpusSpec(num_scenes=1, height=64, width=64), seed=1)


def test_impossible_separation_exhausts_the_budget():
    spec = CorpusSpec(
        num_scenes=1,
        min_persons=5,
        max_persons=5,
        min_separation=500.0,
        height=256,
        width=256,
    )
    with pytest.raises(ConfigurationError, match="separation"):
        generate_corpus(spec, seed=1)


def test_corpus_spec_validation():
    with pytest.raises(ParameterError):
        CorpusSpec(num_scenes=-1)
    with pytest.raises(ParameterError):
        CorpusSpec(min_persons=0)
    with pytest.raises(ParameterError):
        CorpusSpec(min_persons=3, max_persons=2)
    for separation in (-1.0, math.nan, math.inf):
        with pytest.raises(ParameterError, match="min_separation"):
            CorpusSpec(min_separation=separation)
    with pytest.raises(ParameterError):
        CorpusSpec(jitter=-1)
    for size in ({"height": 0}, {"width": 0}):
        with pytest.raises(ParameterError, match="at least 1x1"):
            CorpusSpec(**size)


# --- the draw stream ---------------------------------------------------------


def reference_corpus(spec, seed):
    """Scenes drawn with one scalar rng.integers call per value: anchor x,
    anchor y, then x and y jitter per joint in layout order.  The generator
    must reproduce this stream byte for byte."""
    layout = mpii_joint_layout()
    rng = np.random.default_rng(seed)
    dxs = [dx for dx, _ in HUMANOID_TEMPLATE.values()]
    dys = [dy for _, dy in HUMANOID_TEMPLATE.values()]
    xlo = math.ceil(-min(dxs) + spec.jitter)
    xhi = math.floor(spec.width - 1 - (max(dxs) + spec.jitter))
    ylo = math.ceil(-min(dys) + spec.jitter)
    yhi = math.floor(spec.height - 1 - (max(dys) + spec.jitter))
    offsets = [HUMANOID_TEMPLATE[js.name] for js in layout]
    scenes = []
    for _ in range(spec.num_scenes):
        n_persons = int(rng.integers(spec.min_persons, spec.max_persons + 1))
        persons, centroids, attempts = [], [], 0
        while len(persons) < n_persons:
            if attempts >= 2000:
                raise ConfigurationError(
                    "failed to place %d persons with separation %g after %d attempts"
                    % (n_persons, spec.min_separation, 2000)
                )
            attempts += 1
            ax = int(rng.integers(xlo, xhi + 1))
            ay = int(rng.integers(ylo, yhi + 1))
            joints = []
            for dx, dy in offsets:
                jx = ax + dx + int(rng.integers(-spec.jitter, spec.jitter + 1))
                jy = ay + dy + int(rng.integers(-spec.jitter, spec.jitter + 1))
                joints.append((float(jx), float(jy)))
            person = PersonAnnotation(joints=tuple(joints))
            centroid = person_centroid(person)
            if any(math.dist(centroid, c) < spec.min_separation for c in centroids):
                continue
            centroids.append(centroid)
            persons.append(person)
        scenes.append(Scene(spec.height, spec.width, layout, tuple(persons)))
    return scenes


def dumps_or_error(make, spec, seed):
    try:
        return [dump_scene(scene) for scene in make(spec, seed)]
    except ConfigurationError as exc:
        return "ConfigurationError: %s" % exc


@st.composite
def corpus_specs(draw):
    min_persons = draw(st.integers(1, 5))
    return CorpusSpec(
        num_scenes=draw(st.integers(0, 4)),
        min_persons=min_persons,
        max_persons=draw(st.integers(min_persons, 6)),
        min_separation=draw(st.floats(0.0, 80.0)),
        height=draw(st.integers(192, 1024)),
        width=draw(st.integers(192, 1024)),
        jitter=draw(st.integers(0, 9)),
    )


@settings(max_examples=50, deadline=None)
@given(corpus_specs(), st.integers(0, 2**32))
def test_the_corpus_follows_the_scalar_draw_stream(spec, seed):
    assert dumps_or_error(generate_corpus, spec, seed) == dumps_or_error(reference_corpus, spec, seed)


# sha256 over dump_scene(scene) + "\n" per scene: the acceptance corpus and a
# 1024 px crowd.  A change here changes every workload and fixture built on it.
# Both moved when dumps stopped writing "centroid": null for each person
# (1c8c043a...c422 -> 87367af4...4522 and d0072850...3a10 -> 2ffb7fe7...2754):
# the earlier dumps with that key deleted hash to the new digests.
GOLDEN_CORPORA = [
    (CorpusSpec(), 0, "87367af4985c5ee16ab3a46ae168cf831ef9c1ac2c922196bc7fa9d6b29f4522"),
    (
        CorpusSpec(num_scenes=10, min_persons=10, max_persons=20, height=1024, width=1024),
        1,
        "2ffb7fe7833c027fa6178e4a08e13dddaaad2f007b47db6bf7c05c2e09582754",
    ),
]


@pytest.mark.parametrize("spec, seed, digest", GOLDEN_CORPORA, ids=["acceptance", "crowd-1024"])
def test_corpus_matches_the_golden_digest(spec, seed, digest):
    h = hashlib.sha256()
    for scene in generate_corpus(spec, seed):
        h.update(dump_scene(scene).encode("utf-8") + b"\n")
    assert h.hexdigest() == digest
