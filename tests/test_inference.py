"""Greedy pose assembly, the decode energy, and its trace."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from posepartition.config import PipelineConfig
from posepartition.corpus import CorpusSpec, generate_corpus
from posepartition.detect import DetectorParams, JointCandidate, detect_candidates
from posepartition.errors import AnnotationError, ConfigurationError, ParameterError
from posepartition.infer import (
    PersonPose,
    PoseSet,
    energy,
    infer_all,
    pairwise,
)
from posepartition.maps import (
    ConfidenceMapSet,
    RegressionMapSet,
    build_confidence_maps,
    build_regression_maps,
)
from posepartition.partition import (
    Partition,
    cluster_votes,
    embed,
)
from posepartition.pipeline import decode_maps, synth_maps
from posepartition.scene import JointSpec, PersonAnnotation, Scene


def four_joint_layout():
    return (
        JointSpec(0, "neck", 0),
        JointSpec(1, "torso", 1),
        JointSpec(2, "r_limb", 2),
        JointSpec(3, "l_limb", 3),
    )


def scene_of(person_joints, height=128, width=128):
    layout = four_joint_layout()
    persons = tuple(
        PersonAnnotation(joints=tuple(joints)) for joints in person_joints
    )
    return Scene(height=height, width=width, joint_layout=layout, persons=persons)


def decode_scene(scene):
    conf = build_confidence_maps(scene)
    reg = build_regression_maps(scene)
    votes = embed(detect_candidates(conf), reg)
    params = PipelineConfig().cluster_params(reg.norm_factor)
    parts = cluster_votes(votes, params)
    poses, trace = infer_all(parts, scene.joint_layout)
    return conf, reg, parts, poses, trace


def flat_reg(k=4, h=32, w=32):
    """Zero regression maps: every candidate votes for its own pixel."""
    return RegressionMapSet(np.zeros((k, h, w, 2), dtype=np.float32))


def cand(joint_id, position, score):
    return JointCandidate(joint_id=joint_id, position=position, score=score)


def partition_of(members, reg):
    """A hand-built partition carrying the members' votes from the maps."""
    return Partition(members=tuple(members), votes=tuple(v.point for v in embed(members, reg)))


def pose_positions(pose):
    return {j: est.position for j, est in enumerate(pose.joints) if est is not None}


def _sq_dist(p, q):
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return dx * dx + dy * dy


def reference_greedy_one_partition(partition, layout, tau):
    """Greedy assembly before per-category pools: one pool of (candidate,
    vote) pairs scanned per category with min() and list.remove(), and the
    center recomputed with sum() after every acceptance."""
    for c in partition.members:
        if c.score < tau:
            raise ParameterError("member below tau")
    by_rank = sorted(layout, key=lambda js: js.inference_rank)
    pool = list(zip(partition.members, partition.votes))
    poses = []
    deltas = []
    k = len(layout)
    while pool:
        root = None
        root_rank = -1
        for js in by_rank:
            group = [m for m in pool if m[0].joint_id == js.joint_id]
            if group:
                root = min(group, key=lambda m: m[0].sort_key())
                root_rank = js.inference_rank
                break
        assert root is not None
        pool.remove(root)
        accepted = [root[0]]
        embeds = [root[1]]
        center = embeds[0]
        deltas.append(-root[0].score)
        for js in by_rank:
            if js.inference_rank <= root_rank:
                continue
            group = [m for m in pool if m[0].joint_id == js.joint_id]
            if not group:
                continue
            picked = min(group, key=lambda m: (_sq_dist(m[1], center), m[0].sort_key()))
            pool.remove(picked)
            chosen, h = picked
            delta = -chosen.score
            for e in embeds:
                delta -= math.exp(-_sq_dist(h, e))
            deltas.append(delta)
            accepted.append(chosen)
            embeds.append(h)
            center = (
                sum(e[0] for e in embeds) / len(embeds),
                sum(e[1] for e in embeds) / len(embeds),
            )
        slots = [None] * k
        for c in accepted:
            slots[c.joint_id] = c
        poses.append(PersonPose(joints=tuple(slots), final_centroid=center))
    return poses, deltas


def reference_infer_all(partitions, layout, tau=0.1):
    trace = [0.0]
    poses = []
    for part in partitions:
        part_poses, deltas = reference_greedy_one_partition(part, layout, tau)
        poses.extend(part_poses)
        for d in deltas:
            trace.append(trace[-1] + d)
    return PoseSet(poses=tuple(poses)), trace


# --- pairwise ---------------------------------------------------------------


def test_pairwise_is_one_for_agreeing_votes():
    reg = flat_reg()
    assert pairwise(cand(0, (5, 5), 0.9), cand(1, (5, 5), 0.8), reg) == 1.0


def test_pairwise_gates_on_both_scores():
    reg = flat_reg()
    assert pairwise(cand(0, (5, 5), 0.09), cand(1, (5, 5), 0.9), reg) == 0.0
    assert pairwise(cand(0, (5, 5), 0.9), cand(1, (5, 5), 0.09), reg) == 0.0
    # The gate is inclusive at the threshold itself.
    assert pairwise(cand(0, (5, 5), 0.1), cand(1, (5, 5), 0.1), reg) == 1.0
    assert pairwise(cand(0, (5, 5), 0.3), cand(1, (5, 5), 0.3), reg, tau=0.5) == 0.0


def test_pairwise_decays_with_vote_distance():
    reg = flat_reg()
    got = pairwise(cand(0, (5, 5), 0.9), cand(1, (6, 5), 0.8), reg)
    assert abs(got - math.exp(-1.0)) <= 1e-15


def test_pairwise_rejects_out_of_grid_candidates():
    reg = flat_reg(k=2, h=8, w=8)
    inside = cand(0, (3, 3), 0.9)
    for outside in (cand(1, (-1, 3), 0.9), cand(1, (3, 8), 0.9), cand(2, (3, 3), 0.9)):
        with pytest.raises(ParameterError):
            pairwise(inside, outside, reg)
        with pytest.raises(ParameterError):
            pairwise(outside, inside, reg)


# --- greedy assembly --------------------------------------------------------


def test_single_person_round_trip():
    joints = [(40.0, 30.0), (38.0, 48.0), (28.0, 62.0), (52.0, 60.0)]
    scene = scene_of([joints])
    _, _, parts, poses, trace = decode_scene(scene)
    assert len(parts) == 1
    assert len(poses.poses) == 1
    got = pose_positions(poses.poses[0])
    assert got == {j: (int(x), int(y)) for j, (x, y) in enumerate(joints)}
    assert all(est.score == 1.0 for est in poses.poses[0].joints)
    assert len(trace) == 5


def test_two_merged_persons_are_split_into_two_poses():
    a = [(60.0, 50.0), (54.0, 58.0), (50.0, 64.0), (64.0, 64.0)]
    b = [(x + 15.0, y) for x, y in a]
    scene = scene_of([a, b])
    _, _, parts, poses, _ = decode_scene(scene)
    # Centroids sit 15 px apart, inside the default merge cutoff of
    # 0.1 * hypot(128, 128) ~ 18.1, so the votes fuse into one partition.
    assert len(parts) == 1
    assert len(parts[0].members) == 8
    assert len(poses.poses) == 2
    want_a = {j: (int(x), int(y)) for j, (x, y) in enumerate(a)}
    want_b = {j: (int(x), int(y)) for j, (x, y) in enumerate(b)}
    assert pose_positions(poses.poses[0]) == want_a
    assert pose_positions(poses.poses[1]) == want_b


def test_root_falls_back_to_the_earliest_present_category():
    reg = flat_reg()
    part = partition_of((cand(1, (5, 5), 0.8), cand(2, (9, 9), 0.7)), reg)
    poses = infer_all([part], four_joint_layout())[0].poses
    assert len(poses) == 1
    assert pose_positions(poses[0]) == {1: (5, 5), 2: (9, 9)}

    solo = partition_of((cand(3, (2, 2), 0.5),), reg)
    poses2 = infer_all([solo], four_joint_layout())[0].poses
    assert len(poses2) == 1
    assert pose_positions(poses2[0]) == {3: (2, 2)}


def test_one_candidate_per_category_yields_one_pose():
    # Votes disagree wildly, but with a single candidate per category the
    # greedy sweep still assembles everything into one pose.
    cells = [(0, (1, 1), 0.9), (1, (30, 1), 0.8), (2, (1, 30), 0.7), (3, (30, 30), 0.6)]
    reg = flat_reg()
    part = partition_of([cand(j, p, s) for j, p, s in cells], reg)
    poses = infer_all([part], four_joint_layout())[0].poses
    assert len(poses) == 1
    assert poses[0].present_count() == 4


def test_greedy_rejects_below_threshold_members():
    reg = flat_reg()
    part = partition_of((cand(0, (5, 5), 0.05),), reg)
    with pytest.raises(ParameterError):
        infer_all([part], four_joint_layout())[0].poses


def test_every_member_is_assigned_exactly_once():
    cells = [
        (0, (4, 4), 0.9),
        (0, (20, 4), 0.85),
        (0, (4, 20), 0.8),
        (1, (6, 6), 0.7),
        (1, (22, 6), 0.65),
        (2, (8, 8), 0.6),
    ]
    reg = flat_reg()
    part = partition_of([cand(j, p, s) for j, p, s in cells], reg)
    poses, trace = infer_all([part], four_joint_layout())
    filled = [(j, c) for pose in poses.poses for j, c in enumerate(pose.joints) if c is not None]
    assigned = sorted((j, c.position) for j, c in filled)
    assert assigned == sorted((j, p) for j, p, _ in cells)
    # Each filled slot holds a partition member itself, at its joint id's
    # index, and no member fills two slots.
    assert all(any(c is m for m in part.members) and c.joint_id == j for j, c in filled)
    assert len({id(c) for _, c in filled}) == len(filled)
    # Three necks force three poses.
    assert len(poses.poses) == 3
    assert len(trace) == 1 + len(cells)
    assert all(b < a for a, b in zip(trace, trace[1:]))
    assert abs(trace[-1] - energy(poses, reg)) <= 1e-9


def test_ties_resolve_to_the_row_major_candidate():
    reg = flat_reg()
    part = partition_of((cand(0, (5, 5), 0.9), cand(1, (4, 5), 0.6), cand(1, (6, 5), 0.6)), reg)
    poses = infer_all([part], four_joint_layout())[0].poses
    # Both torso candidates lie one pixel from the root's vote with equal
    # scores; the smaller x wins, the loser roots a second pose.
    assert pose_positions(poses[0]) == {0: (5, 5), 1: (4, 5)}
    assert pose_positions(poses[1]) == {1: (6, 5)}


def test_assembly_follows_the_votes_the_partition_carries():
    # On flat maps, map votes would pick the torso at (4, 5); the carried
    # votes put the torso at (6, 5) on the root's vote instead.
    part = Partition(
        members=(cand(0, (5, 5), 0.9), cand(1, (4, 5), 0.6), cand(1, (6, 5), 0.6)),
        votes=((5.0, 5.0), (9.0, 5.0), (5.0, 5.0)),
    )
    poses, trace = infer_all([part], four_joint_layout())
    assert pose_positions(poses.poses[0]) == {0: (5, 5), 1: (6, 5)}
    assert pose_positions(poses.poses[1]) == {1: (4, 5)}
    # Accepting the torso adds exp(0) = 1 of carried-vote agreement.
    assert abs((trace[2] - trace[1]) + 0.6 + 1.0) <= 1e-12


@st.composite
def assembly_cases(draw):
    """A layout and partitions of candidates on an 8x8 grid, several per
    category, with votes on a half-pixel grid near the origin (so equal vote
    distances and coincident votes are common), and members in any order.

    The layout is the four-joint one with its ids and ranks relabelled by
    drawn permutations and its entries in any order, so a joint's id, its
    rank and its place in the layout tuple need not agree."""
    ids, ranks = draw(st.permutations(range(4))), draw(st.permutations(range(4)))
    relabelled = [JointSpec(ids[i], js.name, ranks[i]) for i, js in enumerate(four_joint_layout())]
    layout = tuple(draw(st.permutations(relabelled)))
    cell = st.tuples(
        st.integers(0, 3),
        st.integers(0, 7),
        st.integers(0, 7),
        st.sampled_from([0.1, 0.5, 0.9]),
        st.integers(-4, 4),
        st.integers(-4, 4),
    )
    partitions = []
    for _ in range(draw(st.integers(1, 3))):
        cells = draw(st.lists(cell, min_size=1, max_size=12))
        partitions.append(
            Partition(
                members=tuple(cand(j, (x, y), score) for j, x, y, score, _, _ in cells),
                votes=tuple((vx / 2, vy / 2) for _, _, _, _, vx, vy in cells),
            )
        )
    return layout, partitions


@settings(max_examples=300, deadline=None)
@given(assembly_cases())
def test_assembly_matches_the_reference(case):
    layout, partitions = case
    poses, trace = infer_all(partitions, layout)
    expect_poses, expect_trace = reference_infer_all(partitions, layout)
    assert poses == expect_poses
    assert repr(poses) == repr(expect_poses)
    assert repr(trace) == repr(expect_trace)


def test_negative_zero_votes_center_like_sum():
    # sum() starts at int 0, so a center summed from -0.0 votes is 0.0; a
    # root-only pose keeps its root's vote, -0.0 included.
    part = Partition(
        members=(cand(0, (1, 1), 0.9), cand(1, (2, 1), 0.8), cand(0, (5, 5), 0.7)),
        votes=((-0.0, -0.0), (-0.0, -0.0), (-0.0, 3.0)),
    )
    poses = infer_all([part], four_joint_layout())[0].poses
    assert repr(poses[0].final_centroid) == "(0.0, 0.0)"
    assert repr(poses[1].final_centroid) == "(-0.0, 3.0)"


def test_greedy_rejects_nan_scores_and_foreign_joints():
    reg = flat_reg()
    nan_member = partition_of((cand(0, (5, 5), math.nan),), reg)
    with pytest.raises(ParameterError, match="below tau"):
        infer_all([nan_member], four_joint_layout())[0].poses
    foreign = partition_of((cand(0, (5, 5), 0.9), cand(3, (5, 5), 0.9)), reg)
    with pytest.raises(ParameterError, match="joint id 3 is not in the layout"):
        infer_all([foreign], four_joint_layout()[:3])[0].poses


def test_infer_all_rejects_a_layout_that_validation_rejects():
    # A joint-5 candidate with a one-entry layout used to index past its
    # pose's slots and raise a bare IndexError.
    joint5 = partition_of((cand(5, (5, 5), 0.9),), flat_reg(k=6))
    with pytest.raises(AnnotationError, match="joint ids must be a permutation"):
        infer_all([joint5], [JointSpec(5, "n", 0)])
    neck = partition_of((cand(0, (5, 5), 0.9),), flat_reg())
    repeated_ids = (JointSpec(0, "neck", 0), JointSpec(0, "torso", 1))
    repeated_ranks = (JointSpec(0, "neck", 0), JointSpec(1, "torso", 0))
    for layout, message in ((repeated_ids, "joint ids"), (repeated_ranks, "inference ranks")):
        with pytest.raises(AnnotationError, match=message):
            infer_all([neck], layout)


@pytest.mark.parametrize("tau", ["x", None, math.nan, 0.0, -1.0, 1.0])
def test_infer_all_applies_the_detector_tau_rule(tau):
    # The rule DetectorParams applies: 0 < tau < 1, with or without partitions.
    part = partition_of((cand(0, (5, 5), 0.9),), flat_reg())
    for partitions in ([], [part]):
        with pytest.raises(ParameterError, match=r"tau must lie in \(0, 1\), got"):
            infer_all(partitions, four_joint_layout(), tau)
    with pytest.raises(ParameterError, match=r"tau must lie in \(0, 1\), got"):
        DetectorParams(tau=tau)


@pytest.mark.parametrize("tau", ["x", math.nan, 0.0, 1.0])
def test_pairwise_and_energy_apply_the_detector_tau_rule(tau):
    # NaN would gate nothing and a string would fail the score compare with
    # a bare TypeError; an empty decode, with no pair to gate, checks too.
    reg = flat_reg()
    with pytest.raises(ParameterError, match=r"tau must lie in \(0, 1\), got"):
        pairwise(cand(0, (5, 5), 0.9), cand(1, (5, 5), 0.8), reg, tau)
    part = partition_of((cand(0, (5, 5), 0.9), cand(1, (5, 5), 0.8)), reg)
    poses, _ = infer_all([part], four_joint_layout())
    for decoded in (poses, PoseSet(poses=())):
        with pytest.raises(ParameterError, match=r"tau must lie in \(0, 1\), got"):
            energy(decoded, reg, tau)


def test_decoding_no_partitions_is_empty():
    poses, trace = infer_all([], four_joint_layout())
    assert poses == PoseSet(poses=())
    assert repr(trace) == "[0.0]"


# --- the energy and its trace -----------------------------------------------


def test_trace_starts_at_zero_and_ends_at_the_energy():
    a = [(30.0, 30.0), (26.0, 40.0), (20.0, 50.0), (38.0, 50.0)]
    b = [(x + 60.0, y + 40.0) for x, y in a]
    scene = scene_of([a, b])
    _, reg, parts, poses, trace = decode_scene(scene)
    assert repr(trace[0]) == "0.0"
    assert all(later < earlier for earlier, later in zip(trace, trace[1:]))
    assert len(trace) == 1 + sum(len(p.members) for p in parts)
    assert abs(trace[-1] - energy(poses, reg)) <= 1e-9


def test_energy_of_an_empty_decode_is_zero():
    got = energy(PoseSet(poses=()), flat_reg())
    assert repr(got) == "0.0"


def test_energy_of_a_single_joint_is_its_negated_confidence():
    layout = (JointSpec(0, "neck", 0),)
    scene = Scene(
        height=64,
        width=64,
        joint_layout=layout,
        persons=(PersonAnnotation(joints=((20.0, 20.0),)),),
    )
    conf = build_confidence_maps(scene)
    reg = build_regression_maps(scene)
    votes = embed(detect_candidates(conf), reg)
    parts = cluster_votes(votes, PipelineConfig().cluster_params(reg.norm_factor))
    poses, trace = infer_all(parts, layout)
    assert energy(poses, reg) == -1.0
    assert trace == [0.0, -1.0]


def test_energy_matches_term_enumeration():
    a = [(30.0, 30.0), (26.0, 40.0), (20.0, 50.0), (38.0, 50.0)]
    b = [(x + 55.0, y + 35.0) for x, y in a]
    scene = scene_of([a, b])
    conf, reg, _, poses, _ = decode_scene(scene)
    got = energy(poses, reg)

    z = math.hypot(scene.height, scene.width)

    def vote_of(joint_id, position):
        x, y = position
        tx = float(reg.values[joint_id, y, x, 0])
        ty = float(reg.values[joint_id, y, x, 1])
        return (x + z * tx, y + z * ty)

    expect = 0.0
    for pose in poses.poses:
        present = [(j, est) for j, est in enumerate(pose.joints) if est is not None]
        for j, est in present:
            expect -= float(conf.values[j, est.position[1], est.position[0]])
        for i in range(len(present)):
            for k in range(i + 1, len(present)):
                ji, ei = present[i]
                jk, ek = present[k]
                if ei.score < 0.1 or ek.score < 0.1:
                    continue
                vi = vote_of(ji, ei.position)
                vk = vote_of(jk, ek.position)
                expect -= math.exp(-((vi[0] - vk[0]) ** 2 + (vi[1] - vk[1]) ** 2))
    assert abs(got - expect) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(
    height=st.integers(140, 256),
    width=st.integers(140, 256),
    persons=st.integers(1, 4),
    separation=st.floats(20.0, 60.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_noisy_decode_trace_decreases_to_the_energy(height, width, persons, separation, seed):
    spec = CorpusSpec(
        num_scenes=1,
        min_persons=persons,
        max_persons=persons,
        min_separation=separation,
        height=height,
        width=width,
    )
    try:
        (scene,) = generate_corpus(spec, seed)
    except ConfigurationError:
        assume(False)  # the persons do not fit at this separation
    cfg = PipelineConfig()
    conf, reg = synth_maps(scene, cfg)
    # The acceptance noise model: +-0.05 on confidence, +-0.01 on regression.
    rng = np.random.default_rng(seed)
    conf = ConfidenceMapSet(conf.values + rng.uniform(-0.05, 0.05, size=conf.values.shape))
    reg = RegressionMapSet(reg.values + rng.uniform(-0.01, 0.01, size=reg.values.shape))
    result = decode_maps(conf, reg, cfg)
    trace = result.energy_trace
    assert all(later < earlier for earlier, later in zip(trace, trace[1:]))
    assert abs(trace[-1] - energy(result.poses, reg)) <= 1e-9
    # The energy's per-joint term is each joint's score: the confidence there.
    for pose in result.poses.poses:
        for j, est in enumerate(pose.joints):
            if est is not None:
                x, y = est.position
                assert est.score == float(conf.values[j, y, x])


def test_decode_is_translation_equivariant():
    base = [(40.0, 30.0), (36.0, 42.0), (30.0, 52.0), (48.0, 50.0)]
    shift = (23.0, 31.0)
    scene1 = scene_of([base])
    scene2 = scene_of([[(x + shift[0], y + shift[1]) for x, y in base]])
    _, _, _, poses1, _ = decode_scene(scene1)
    _, _, _, poses2, _ = decode_scene(scene2)
    assert len(poses1.poses) == len(poses2.poses) == 1
    for est1, est2 in zip(poses1.poses[0].joints, poses2.poses[0].joints):
        assert est2.position == (
            est1.position[0] + int(shift[0]),
            est1.position[1] + int(shift[1]),
        )
        assert est2.score == est1.score
    c1 = poses1.poses[0].final_centroid
    c2 = poses2.poses[0].final_centroid
    assert abs(c2[0] - (c1[0] + shift[0])) <= 1e-9
    assert abs(c2[1] - (c1[1] + shift[1])) <= 1e-9
