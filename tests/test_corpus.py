"""Seeded synthetic scene generation."""
import math

import pytest

from posepartition.corpus import CorpusSpec, HUMANOID_TEMPLATE, generate_corpus
from posepartition.errors import ConfigurationError, ParameterError
from posepartition.scene import dump_scene, person_centroid


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
