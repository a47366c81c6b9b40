import ast
import hashlib
import inspect
import json
import math
import textwrap
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import arm_chain, random_pose, random_quat, unit_quats
from shuttlekit import retarget
from shuttlekit.goal import clip_to_dict
from shuttlekit.retarget import (
    TERM_ORDER,
    _FrameIterate,
    _frame_targets,
    _jacobian,
    _residuals,
    CollisionSphere,
    KeypointFrame,
    RetargetProblem,
    RetargetSolution,
    RetargetWeights,
    align_to_ground,
    evaluate_residuals,
    extract_contacts,
    problem_from_dict,
    solution_to_clip,
    solve_retarget,
)
from shuttlekit.spatial import (
    EndEffector,
    Joint,
    KinematicChain,
    Pose,
    _rotvec_between,
    chain_to_dict,
    forward_kinematics,
    quat_boxminus,
    quat_from_rotvec,
    quat_identity,
    quat_to_matrix,
)

ARM_KEYPOINTS = ("shoulder", "elbow", "wrist", "hand", "hip_l", "hip_r")


def _arm_problem(root, q, **kwargs):
    chain = arm_chain()
    fk = forward_kinematics(chain, root, q)
    keypoints = {f"kp_{n}": fk[n].position for n in ARM_KEYPOINTS}
    return RetargetProblem(
        chain=chain,
        keypoint_map={f"kp_{n}": n for n in ARM_KEYPOINTS},
        frames=(KeypointFrame(t=0.0, keypoints=keypoints),),
        **kwargs,
    )


def _one_joint_chain(limits=(-1.0, 1.0)):
    ident = quat_identity()
    joints = (Joint("j", -1, Pose(np.zeros(3), ident), np.array([0.0, 0.0, 1.0]), limits),)
    ees = (EndEffector("tip", 0, Pose(np.array([1.0, 0.0, 0.0]), ident)),)
    return KinematicChain(joints, ees)


def _identity_init(problem, n_joints):
    return RetargetSolution(
        (Pose.identity(),) * len(problem.frames),
        np.zeros((len(problem.frames), n_joints)),
        local_scales=np.ones(len(problem.segments)),
    )


class TestEvaluateResiduals:
    def test_fk_generated_solution_has_zero_global(self):
        root = Pose(np.array([0.1, 0.2, 0.0]), quat_from_rotvec([0, 0, 0.4]))
        q = np.array([0.3, -0.6, 0.5])
        problem = _arm_problem(root, q)
        solution = RetargetSolution((root,), q[None, :])
        report = evaluate_residuals(problem, solution, 0)
        assert np.allclose(report.blocks["global"], 0.0, atol=1e-12)

    def test_midrange_joints_have_zero_limit(self):
        problem = _arm_problem(Pose.identity(), np.zeros(3))
        solution = RetargetSolution((Pose.identity(),), np.zeros((1, 3)))
        report = evaluate_residuals(problem, solution, 0)
        assert np.allclose(report.blocks["limit"], 0.0)

    def test_limit_hinge_beyond_bounds(self):
        problem = _arm_problem(Pose.identity(), np.zeros(3))
        solution = RetargetSolution((Pose.identity(),), np.array([[2.7, 0.0, -1.7]]))
        report = evaluate_residuals(problem, solution, 0)
        assert report.blocks["limit"][0] == pytest.approx(0.2)
        assert report.blocks["limit"][1] == 0.0
        assert report.blocks["limit"][2] == pytest.approx(0.2)

    def test_overlapping_spheres_hinge(self):
        chain = arm_chain()
        spheres = (
            CollisionSphere("shoulder", np.zeros(3), 0.05),
            CollisionSphere("elbow", np.array([-0.34, 0.0, 0.0]), 0.05),
        )
        # elbow sits 0.4 m from the shoulder along x at q=0, so the offset
        # puts the second center 0.06 m away: overlap 0.05+0.05-0.06 = 0.04
        problem = _arm_problem(Pose.identity(), np.zeros(3), collision_spheres=spheres)
        solution = RetargetSolution((Pose.identity(),), np.zeros((1, 3)))
        report = evaluate_residuals(problem, solution, 0)
        assert report.blocks["collision"][0] == pytest.approx(0.04, abs=1e-12)

    def test_six_terms_labelled(self):
        problem = _arm_problem(Pose.identity(), np.zeros(3))
        solution = RetargetSolution((Pose.identity(),), np.zeros((1, 3)))
        report = evaluate_residuals(problem, solution, 0)
        assert tuple(report.blocks.keys()) == TERM_ORDER

    def test_unmapped_keypoint_errors(self):
        chain = arm_chain()
        fk = forward_kinematics(chain, Pose.identity(), np.zeros(3))
        frame = KeypointFrame(0.0, {"mystery": fk["hand"].position})
        with pytest.raises(ValueError, match=r"frames\[0\]\.keypoints\.mystery has no mapping"):
            RetargetProblem(chain=chain, keypoint_map={"kp_hand": "hand"}, frames=(frame,))


class TestSolveRetarget:
    def test_round_trip_recovery(self):
        root = Pose(np.array([0.1, -0.2, 0.05]), quat_from_rotvec([0.05, -0.1, 0.3]))
        true_q = np.array([0.7, -0.5, 0.9])
        problem = _arm_problem(root, true_q)
        solution, costs = solve_retarget(problem, _identity_init(problem, 3))
        assert np.max(np.abs(solution.joint_angles[0] - true_q)) < 1e-4
        assert costs["total"] < 1e-8

    def test_pure_global_ik_converges(self):
        root = Pose(np.array([0.0, 0.1, 0.0]), quat_from_rotvec([0, 0, -0.2]))
        true_q = np.array([-0.4, 0.8, 0.3])
        weights = RetargetWeights(
            local_shape=0.0, ee_rotation=0.0, collision=0.0,
            joint_limit=0.0, smoothness=0.0,
        )
        problem = _arm_problem(root, true_q, weights=weights)
        _, costs = solve_retarget(problem, _identity_init(problem, 3))
        assert costs["global"] < 1e-10

    def test_limit_clamp_matches_grid_oracle(self):
        chain = _one_joint_chain()
        beyond = forward_kinematics(chain, Pose.identity(), np.array([1.2]))
        problem = RetargetProblem(
            chain=chain,
            keypoint_map={"tip": "tip"},
            frames=(KeypointFrame(0.0, {"tip": beyond["tip"].position}),),
            weights=RetargetWeights(joint_limit=10.0),
            fix_root=True,
        )
        init = RetargetSolution((Pose.identity(),), np.zeros((1, 1)))
        solution, costs = solve_retarget(problem, init)

        def cost_at(qv):
            s = RetargetSolution((Pose.identity(),), np.array([[qv]]))
            rep = evaluate_residuals(problem, s, 0)
            return sum(
                problem.weights.for_term(t) * float(np.dot(rep.blocks[t], rep.blocks[t]))
                for t in TERM_ORDER
            )

        grid = np.linspace(-1.0, 1.0, 20001)
        oracle = grid[int(np.argmin([cost_at(g) for g in grid]))]
        assert solution.joint_angles[0, 0] == pytest.approx(oracle, abs=1e-9)
        assert solution.joint_angles[0, 0] == 1.0  # exactly at the limit
        assert costs["limit"] > 0.0

    def test_accepted_costs_non_increasing(self):
        root = Pose(np.array([0.2, 0.0, 0.0]), quat_from_rotvec([0, 0, 0.5]))
        problem = _arm_problem(root, np.array([0.9, -1.1, 0.4]))
        trace = []
        solve_retarget(problem, _identity_init(problem, 3), cost_trace=trace)
        assert len(trace) == 1
        frame_costs = trace[0]
        assert len(frame_costs) > 2
        # the cost at the start, then one strictly lower cost per accepted step
        assert all(b < a for a, b in zip(frame_costs, frame_costs[1:]))

    def test_frame_that_raises_leaves_no_cost_trace(self):
        # frame 0's keypoint sits near the float limit: an LM step overflows the free root
        problem = RetargetProblem(
            chain=_one_joint_chain(),
            keypoint_map={"kp": "tip"},
            frames=(KeypointFrame(0.0, {"kp": [1.7e308, 0.0, 0.0]}),
                    KeypointFrame(0.1, {"kp": [1.0, 0.0, 0.0]})),
            optimize_scales=True,
        )
        trace = []
        init = RetargetSolution((Pose.identity(),) * 2, np.zeros((2, 1)))
        with pytest.raises(ValueError, match="position has non-finite components"):
            solve_retarget(problem, init, cost_trace=trace)
        assert trace == []

    def test_weight_scaling_leaves_argmin(self):
        root = Pose(np.array([0.0, 0.0, 0.0]), quat_from_rotvec([0, 0, 0.2]))
        true_q = np.array([0.5, -0.3, 0.6])
        p1 = _arm_problem(root, true_q)
        w = p1.weights
        p2 = _arm_problem(
            root, true_q,
            weights=RetargetWeights(
                global_pos=7.0 * w.global_pos,
                local_shape=7.0 * w.local_shape,
                ee_rotation=7.0 * w.ee_rotation,
                collision=7.0 * w.collision,
                joint_limit=7.0 * w.joint_limit,
                smoothness=7.0 * w.smoothness,
            ),
        )
        s1, _ = solve_retarget(p1, _identity_init(p1, 3))
        s2, _ = solve_retarget(p2, _identity_init(p2, 3))
        assert np.allclose(s1.joint_angles, s2.joint_angles, atol=1e-6)

    @staticmethod
    def _sequence_problem(smoothness):
        chain = arm_chain()
        frames = []
        qs = np.linspace([0.0, 0.0, 0.0], [0.8, -0.6, 0.5], 6)
        for k, q in enumerate(qs):
            fk = forward_kinematics(chain, Pose.identity(), q)
            frames.append(
                KeypointFrame(0.1 * k, {f"kp_{n}": fk[n].position for n in ARM_KEYPOINTS})
            )
        problem = RetargetProblem(
            chain=chain,
            keypoint_map={f"kp_{n}": n for n in ARM_KEYPOINTS},
            frames=tuple(frames),
            weights=RetargetWeights(smoothness=smoothness),
        )
        return problem, qs

    def test_warm_started_sequence_recovers_targets(self):
        problem, qs = self._sequence_problem(smoothness=0.0)
        solution, costs = solve_retarget(problem, _identity_init(problem, 3))
        assert np.max(np.abs(solution.joint_angles - qs)) < 1e-4
        assert costs["total"] < 1e-8

    def test_smoothness_shrinks_frame_steps(self):
        # the smoothness term trades tracking accuracy for smaller deltas
        sharp_p, qs = self._sequence_problem(smoothness=0.0)
        smooth_p, _ = self._sequence_problem(smoothness=1.0)
        sharp, _ = solve_retarget(sharp_p, _identity_init(sharp_p, 3))
        smooth, _ = solve_retarget(smooth_p, _identity_init(smooth_p, 3))
        sharp_steps = np.abs(np.diff(sharp.joint_angles, axis=0)).sum()
        smooth_steps = np.abs(np.diff(smooth.joint_angles, axis=0)).sum()
        assert smooth_steps < sharp_steps

    def test_ee_rotation_target(self):
        chain = arm_chain()
        true_q = np.array([0.4, -0.7, 0.6])
        fk = forward_kinematics(chain, Pose.identity(), true_q)
        frame = KeypointFrame(
            0.0,
            {f"kp_{n}": fk[n].position for n in ARM_KEYPOINTS},
            rotations={"hand": fk["hand"].orientation},
        )
        problem = RetargetProblem(
            chain=chain,
            keypoint_map={f"kp_{n}": n for n in ARM_KEYPOINTS},
            frames=(frame,),
        )
        solution, costs = solve_retarget(problem, _identity_init(problem, 3))
        assert costs["ee_rotation"] < 1e-10
        assert np.max(np.abs(solution.joint_angles[0] - true_q)) < 1e-4



def _central_differences(p, it, tg, prev, h=1e-6):
    """The oracle: central differences of the weighted residuals in `it.apply`'s increment."""
    columns = []
    for k in range(it.dim()):
        step = np.zeros(it.dim())
        step[k] = h
        plus = _residuals(p, it.apply(step), tg, prev)[0]
        minus = _residuals(p, it.apply(-step), tg, prev)[0]
        columns.append((plus - minus) / (2.0 * h))
    return np.stack(columns, axis=1)


small = st.floats(-1.0, 1.0)
small_vec3 = st.tuples(small, small, small).map(np.array)
LIMIT = 1.0


@st.composite
def frame_states(draw):
    """One frame of a generated problem on a random tree chain, at a generated iterate:
    a keypoint on every frame, segments among them, a rotation target, collision spheres,
    joint angles inside and beyond [-1, 1], and maybe a previous frame."""
    n = draw(st.integers(1, 5))
    joints = tuple(
        Joint(f"j{i}", draw(st.integers(-1, i - 1)), Pose(draw(small_vec3), draw(unit_quats)),
              draw(small_vec3.filter(lambda a: np.linalg.norm(a) > 0.1)), (-LIMIT, LIMIT))
        for i in range(n)
    )
    ees = tuple(
        EndEffector(f"e{k}", draw(st.integers(-1, n - 1)), Pose(draw(small_vec3), draw(unit_quats)))
        for k in range(draw(st.integers(0, 2)))
    )
    chain = KinematicChain(joints, ees)
    frames = [f.name for f in joints + ees]
    kps = [f"kp_{name}" for name in frames]
    pairs = st.tuples(st.sampled_from(kps), st.sampled_from(kps)).filter(lambda s: s[0] != s[1])
    segments = draw(st.lists(pairs, max_size=4, unique=True))
    spheres = tuple(CollisionSphere(name, draw(small_vec3), draw(st.floats(0.05, 2.0)))
                    for name in draw(st.lists(st.sampled_from(frames), max_size=3)))
    rotations = {name: draw(unit_quats) for name in draw(st.lists(st.sampled_from(frames),
                                                                  max_size=2, unique=True))}
    targets = {kp: draw(small_vec3) for kp in kps}
    problem = RetargetProblem(
        chain, dict(zip(kps, frames)), (KeypointFrame(0.0, targets, rotations),), segments,
        RetargetWeights(*draw(st.tuples(*[st.floats(0.0, 2.0)] * 6))), spheres,
        optimize_scales=draw(st.booleans()), fix_root=draw(st.booleans()),
    )
    q = np.array(draw(st.lists(st.floats(-1.8, 1.8), min_size=n, max_size=n)))
    it = _FrameIterate(
        Pose(draw(small_vec3), draw(unit_quats)), q, draw(st.floats(0.5, 2.0)),
        np.array(draw(st.lists(st.floats(0.6, 1.8), min_size=len(segments),
                               max_size=len(segments)))),
        problem.optimize_scales, not problem.fix_root,
    )
    prev = None
    if draw(st.booleans()):
        prev = (Pose(draw(small_vec3), draw(unit_quats)),
                np.array(draw(st.lists(small, min_size=n, max_size=n))))
    return problem, it, prev


def _away_from_kinks(problem, it, tg, prev):
    """Whether no residual sits within reach of a point where it has no derivative:
    a hinge boundary, a zero-length or (anti)parallel segment pair, a rotation error
    near pi."""
    fk = forward_kinematics(problem.chain, it.root, it.q)
    pos = np.array([f.position for f in fk.values()])  # by FK row, as the targets name frames
    _, ends_a, ends_b, _ = tg.segments
    vectors = pos[ends_a] - pos[ends_b]  # by segment row, as the angle targets name them
    for i, j, _ in tg.angles:
        u, v = vectors[i], vectors[j]
        if min(np.linalg.norm(u), np.linalg.norm(v)) < 1e-3:
            return False
        if np.linalg.norm(np.cross(u, v)) < 1e-3 * np.linalg.norm(u) * np.linalg.norm(v):
            return False
    centers = [fk[s.frame].transform_point(s.offset) for s in problem.collision_spheres]
    for i, j, radii in zip(*problem._sphere_pairs, problem._pair_radii):
        if abs(radii - np.linalg.norm(centers[i] - centers[j])) < 1e-4:
            return False
    report = _residuals(problem, it, tg, prev)[1]
    rotvecs = report.blocks["ee_rotation"].reshape(-1, 3)
    if prev is not None:
        rotvecs = np.vstack([rotvecs, report.blocks["smooth"][3:6]])
    return (np.all(np.abs(np.abs(it.q) - LIMIT) > 1e-4)
            and all(np.linalg.norm(r) < 3.0 for r in rotvecs))


@given(frame_states())
def test_jacobian_matches_central_differences(state):
    problem, it, prev = state
    tg = _frame_targets(problem, 0)
    assume(_away_from_kinks(problem, it, tg, prev))
    r, _, kept = _residuals(problem, it, tg, prev)
    analytic = _jacobian(problem, it, tg, kept)
    assert analytic.shape == (r.size, it.dim())
    assert np.allclose(analytic, _central_differences(problem, it, tg, prev),
                       rtol=1e-6, atol=1e-6)


@given(frame_states())
def test_linearize_without_jacobian_gives_the_same_residuals(state):
    """The Jacobian pass leaves the residual pass's output as it was, and builds the same
    Jacobian from kept state however late it runs."""
    problem, it, prev = state
    tg = _frame_targets(problem, 0)
    r, report, kept = _residuals(problem, it, tg, prev)
    jac = _jacobian(problem, it, tg, kept)
    r_only, report_only, kept_only = _residuals(problem, it, tg, prev)
    assert jac.tobytes() == _jacobian(problem, it, tg, kept_only).tobytes()
    assert r_only.tobytes() == r.tobytes()
    for t in TERM_ORDER:
        assert report_only.blocks[t].tobytes() == report.blocks[t].tobytes()
    weighted = [np.sqrt(problem.weights.for_term(t)) * report.blocks[t] for t in TERM_ORDER]
    assert np.concatenate(weighted).tobytes() == r.tobytes()


def _solve_frame_linearizing_every_trial(p, it, tg, prev, passes):
    """The reference: the LM loop as it was while every trial was linearized with its
    Jacobian. Appends 1 to `passes` per LM pass."""
    def linearize(x):
        r, report, kept = _residuals(p, x, tg, prev)
        return r, report, _jacobian(p, x, tg, kept)

    lam = 1e-3
    r, report, jac = linearize(it)
    trace = [float(np.dot(r, r))]
    eye = np.eye(it.dim())
    done = False
    while not done and len(trace) <= retarget._LM_MAX_ITERS:
        passes.append(1)
        jtj = jac.T @ jac
        jtr = jac.T @ r
        cost = trace[-1]
        while lam <= 1e12:
            try:
                delta = np.linalg.solve(jtj + lam * eye, -jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = it.apply(delta)
            r_trial, trial_report, trial_jac = linearize(trial)
            trial_cost = float(np.dot(r_trial, r_trial))
            if trial_cost < cost:
                done = cost - trial_cost < retarget._LM_REL_TOL * max(cost, 1e-30)
                it, r, report, jac = trial, r_trial, trial_report, trial_jac
                trace.append(trial_cost)
                lam = max(lam / 10.0, 1e-12)
                break
            lam *= 10.0
        else:
            done = True
    return it, report, trace


def _stop_branch(trace):
    """How a frame's LM ended, read from its cost trace alone."""
    if len(trace) > retarget._LM_MAX_ITERS:
        return "max-iters"
    if len(trace) > 1 and trace[-2] - trace[-1] < retarget._LM_REL_TOL * max(trace[-2], 1e-30):
        return "converged"
    return "no-damping"


def _two_frame_tip_problem():
    """A one-joint tip pulled past its joint limit: each frame converges onto the limit."""
    frames = tuple(KeypointFrame(t, {"kp": [0.0, 2.0, z]}) for t, z in ((0.0, 0.0), (1.0, 0.1)))
    return (RetargetProblem(_one_joint_chain(), {"kp": "tip"}, frames, fix_root=True),
            RetargetSolution((Pose.identity(),) * 2, np.zeros((2, 1))))


def _arm_at_its_targets_problem():
    """The arm from identity towards FK-made targets: the cost falls to rounding noise,
    where no damping lowers it any more."""
    problem = _arm_problem(Pose(np.array([0.1, 0.2, 0.0]), quat_from_rotvec([0, 0, 0.4])),
                           np.array([0.3, -0.6, 0.5]))
    return problem, _identity_init(problem, 3)


@pytest.mark.parametrize("build, max_iters, branch", [
    (_two_frame_tip_problem, None, "converged"),
    (_arm_at_its_targets_problem, None, "no-damping"),
    (_arm_at_its_targets_problem, 3, "max-iters"),
])
def test_lm_stop_branches_match_the_every_trial_reference(monkeypatch, build, max_iters, branch):
    """Each way an LM frame ends gives the bits of the loop that linearized every trial, and
    builds one Jacobian per LM pass: the frame start and each accepted step that another
    pass follows."""
    if max_iters is not None:
        monkeypatch.setattr(retarget, "_LM_MAX_ITERS", max_iters)
    problem, init = build()
    passes = []
    with monkeypatch.context() as m:
        m.setattr(retarget, "_solve_frame",
                  lambda p, it, tg, prev: _solve_frame_linearizing_every_trial(
                      p, it, tg, prev, passes))
        want_trace = []
        want, want_costs = solve_retarget(problem, init, cost_trace=want_trace)
    built = []
    monkeypatch.setattr(retarget, "_jacobian", lambda *a: built.append(1) or _jacobian(*a))
    trace = []
    got, costs = solve_retarget(problem, init, cost_trace=trace)

    assert [_stop_branch(t) for t in trace] == [branch] * len(problem.frames)
    assert [np.array(t).tobytes() for t in trace] == [np.array(t).tobytes() for t in want_trace]
    assert got.joint_angles.tobytes() == want.joint_angles.tobytes()
    for a, b in zip(got.root_poses, want.root_poses):
        assert a.position.tobytes() == b.position.tobytes()
        assert a.orientation.tobytes() == b.orientation.tobytes()
    assert np.array(list(costs.values())).tobytes() == np.array(list(want_costs.values())).tobytes()
    followed = sum(len(t) - 1 - (_stop_branch(t) != "no-damping") for t in trace)
    assert len(built) == len(passes) == len(trace) + followed


class TestScales:
    def test_global_scale_recovered(self):
        chain = arm_chain()
        true_q = np.array([0.5, -0.4, 0.3])
        fk = forward_kinematics(chain, Pose.identity(), true_q)
        # human keypoints 25% larger than the robot: robot = 0.8 * human
        keypoints = {f"kp_{n}": fk[n].position / 0.8 for n in ARM_KEYPOINTS}
        problem = RetargetProblem(
            chain=chain,
            keypoint_map={f"kp_{n}": n for n in ARM_KEYPOINTS},
            frames=(KeypointFrame(0.0, keypoints),),
            optimize_scales=True,
        )
        solution, costs = solve_retarget(problem, _identity_init(problem, 3))
        assert solution.global_scale == pytest.approx(0.8, abs=1e-4)
        assert costs["total"] < 1e-8

    @pytest.mark.parametrize("global_scale, local_scales, message", [
        (np.inf, [1.0], "global_scale must be positive and finite, got inf"),
        (np.nan, [1.0], "global_scale must be positive and finite, got nan"),
        (0.0, [1.0], "global_scale must be positive and finite, got 0.0"),
        (1.0, [1.0, np.inf], r"local_scales\[1\] must be positive and finite, got inf"),
        (1.0, [np.nan], r"local_scales\[0\] must be positive and finite, got nan"),
        (1.0, [1.0, -0.5], r"local_scales\[1\] must be positive and finite, got -0.5"),
    ], ids=["global-inf", "global-nan", "global-zero", "local-inf", "local-nan", "local-negative"])
    def test_solution_rejects_a_scale_that_is_not_positive_and_finite(
            self, global_scale, local_scales, message):
        with pytest.raises(ValueError, match=message):
            RetargetSolution((Pose.identity(),), [[0.0]], global_scale=global_scale,
                             local_scales=local_scales)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_solution_rejects_non_finite_joint_angles_naming_the_frame(self, bad):
        message = rf"^joint_angles of frame 1 must be finite, got \[0.0, {bad}\]$"
        with pytest.raises(ValueError, match=message):
            RetargetSolution((Pose.identity(),) * 3, [[0.0, 0.0], [0.0, bad], [bad, 0.0]])


class TestGroundAlignment:
    def _solution(self, root_z):
        chain = arm_chain()
        root = Pose(np.array([0.0, 0.0, root_z]), quat_identity())
        return chain, RetargetSolution((root,), np.zeros((1, 3)))

    def test_floating_clip_lowered(self):
        chain, sol = self._solution(0.05)
        # hips sit at root_z + 0.9; use them as the feet frames
        aligned = align_to_ground(sol, chain, feet_frames=("hip_l", "hip_r"))
        assert aligned.root_poses[0].position[2] == pytest.approx(-0.9)

    def test_grounded_clip_unchanged(self):
        chain, sol = self._solution(-0.9)
        aligned = align_to_ground(sol, chain, feet_frames=("hip_l", "hip_r"))
        assert aligned.root_poses[0].position[2] == pytest.approx(-0.9)

    def test_sunken_clip_raised(self):
        chain, sol = self._solution(-0.93)
        aligned = align_to_ground(sol, chain, feet_frames=("hip_l", "hip_r"))
        assert aligned.root_poses[0].position[2] == pytest.approx(-0.9)

    def test_missing_feet_errors(self):
        chain, sol = self._solution(0.0)
        with pytest.raises(ValueError):
            align_to_ground(sol, chain, feet_frames=())


class TestContacts:
    def _chain_with_feet(self):
        # dyadic offsets keep foot heights exactly representable
        ident = quat_identity()
        joints = (
            Joint("hip_joint", -1, Pose(np.zeros(3), ident), np.array([0, 0, 1.0]), (-1, 1)),
        )
        ees = (
            EndEffector("left_foot", -1, Pose(np.array([0.0, 0.125, -0.75]), ident)),
            EndEffector("right_foot", -1, Pose(np.array([0.0, -0.125, -0.75]), ident)),
        )
        return KinematicChain(joints, ees)

    def test_threshold_rules(self):
        chain = self._chain_with_feet()
        roots = (
            Pose(np.array([0.0, 0.0, 0.75]), quat_identity()),     # feet at 0
            Pose(np.array([0.0, 0.0, 0.875]), quat_identity()),    # feet at 0.125
            Pose(np.array([0.0, 0.0, 0.78125]), quat_identity()),  # feet at 0.03125
        )
        sol = RetargetSolution(roots, np.zeros((3, 1)))
        contacts = extract_contacts(sol, chain, threshold=0.03125)
        assert contacts.shape == (3, 2)
        assert contacts[0].tolist() == [1, 1]   # below threshold
        assert contacts[1].tolist() == [0, 0]   # well above
        assert contacts[2].tolist() == [0, 0]   # exactly at threshold: no contact

    def test_bad_threshold(self):
        chain = self._chain_with_feet()
        sol = RetargetSolution((Pose.identity(),), np.zeros((1, 1)))
        with pytest.raises(ValueError):
            extract_contacts(sol, chain, threshold=0.0)

    @pytest.mark.parametrize("threshold, message", [
        (-0.5, "must be positive, got -0.5$"),
        (np.nan, "must be finite, got nan$"),
        ("x", "must be a number: "),
    ])
    def test_a_threshold_that_is_not_a_positive_number_is_named(self, threshold, message):
        chain = self._chain_with_feet()
        sol = RetargetSolution((Pose.identity(),), np.zeros((1, 1)))
        with pytest.raises(ValueError, match="^threshold " + message):
            extract_contacts(sol, chain, threshold=threshold)


class TestClipExportAndIo:
    def test_solution_to_clip_velocities(self):
        roots = tuple(
            Pose(np.array([0.1 * k, 0.0, 0.9]), quat_identity()) for k in range(4)
        )
        sol = RetargetSolution(roots, np.zeros((4, 2)))
        clip = solution_to_clip(sol, times=[0.0, 0.1, 0.2, 0.3], hit_times=(0.2,))
        assert len(clip) == 4
        assert clip.hit_times == (0.2,)
        assert np.allclose(clip.frames[1].root_lin, [1.0, 0.0, 0.0], atol=1e-9)
        # one frame has no time step: its velocities are +0.0
        (frame,) = solution_to_clip(RetargetSolution(roots[2:3], np.zeros((1, 2))), [0.4]).frames
        for v in (frame.root_lin, frame.root_ang):
            assert v.tolist() == [0.0] * 3 and not np.signbit(v).any()

    def test_clip_export_matches_its_pinned_digest(self):
        """SHA-256 over each frame's t, root pose, root_lin, root_ang and q, and over the
        `clip_to_dict` JSON, of 100 seeded solutions of 1-5 frames. The digest was taken
        when the velocities came from a per-frame loop."""
        rng, digest = np.random.default_rng(43), hashlib.sha256()
        for k in range(100):
            n = 1 + k % 5
            sol = RetargetSolution(tuple(random_pose(rng) for _ in range(n)),
                                   rng.normal(size=(n, 3)))
            times = rng.uniform(-1.0, 1.0) + np.cumsum(rng.uniform(0.01, 0.2, n))
            clip = solution_to_clip(sol, times.tolist(), hit_times=(float(times[-1]),))
            for f in clip.frames:
                digest.update(np.float64(f.t).tobytes() + f.root.position.tobytes()
                              + f.root.orientation.tobytes() + f.root_lin.tobytes()
                              + f.root_ang.tobytes() + f.q.tobytes())
            digest.update(json.dumps(clip_to_dict(clip)).encode())
        assert digest.hexdigest() == (
            "bcabce20f2b567a3bd2f35443d93d06fc3d9aa9dd1aaadf45d4bc9a778cfff67")

    def test_problem_from_dict(self):
        chain = arm_chain()
        fk = forward_kinematics(chain, Pose.identity(), np.array([0.3, -0.2, 0.4]))
        data = {
            "chain": chain_to_dict(chain),
            "keypoint_map": {f"kp_{n}": n for n in ARM_KEYPOINTS},
            "racket_frame": "hand",
            "segments": [["kp_shoulder", "kp_elbow"], ["kp_elbow", "kp_wrist"]],
            "weights": {"smoothness": 0.3},
            "frames": [
                {
                    "t": 0.0,
                    "keypoints": {f"kp_{n}": fk[n].position.tolist() for n in ARM_KEYPOINTS},
                    "racket_quat": fk["hand"].orientation.tolist(),
                }
            ],
        }
        problem, init = problem_from_dict(data)
        assert problem.weights.smoothness == 0.3
        assert problem.segments == (("kp_shoulder", "kp_elbow"), ("kp_elbow", "kp_wrist"))
        assert "hand" in problem.frames[0].rotations
        report = evaluate_residuals(
            problem,
            RetargetSolution((Pose.identity(),), np.array([[0.3, -0.2, 0.4]])),
            0,
        )
        assert np.allclose(report.blocks["global"], 0.0, atol=1e-12)
        assert np.allclose(report.blocks["ee_rotation"], 0.0, atol=1e-12)
        # no `init` key: one identity root pose and mid-range joint angles per frame
        assert len(init.root_poses) == 1
        assert np.array_equal(init.root_poses[0].position, np.zeros(3))
        assert np.array_equal(init.root_poses[0].orientation, quat_identity())
        assert np.array_equal(init.joint_angles, [chain.joint_limits().mean(axis=1)])

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_frame_time_rejected(self, t):
        """A frame built directly and one read by problem_from_dict name `t` alike."""
        with pytest.raises(ValueError, match=f"^t must be finite, got {t}$"):
            KeypointFrame(t, {"kp_hand": [0.0, 0.0, 1.0]})
        data = {"chain": chain_to_dict(arm_chain()), "keypoint_map": {"kp_hand": "hand"},
                "frames": [{"t": t, "keypoints": {"kp_hand": [0.0, 0.0, 1.0]}}]}
        with pytest.raises(ValueError, match=rf"^frames\[0\]\.t must be finite, got {t}$"):
            problem_from_dict(data)


@pytest.mark.parametrize("build, message", [
    (lambda: CollisionSphere("hand", np.zeros(3), "x"),
     "^collision sphere radius on frame 'hand' must be a number: "),
    (lambda: CollisionSphere("hand", np.zeros(3), np.nan),
     "^collision sphere radius on frame 'hand' must be finite, got nan$"),
    (lambda: RetargetWeights(global_pos="x"), "^global_pos must be a number: "),
    (lambda: RetargetWeights(smoothness=-1.0), "^smoothness must be non-negative, got -1.0$"),
    (lambda: KeypointFrame(0.0, {}, {"hand": ["x"]}), r"^rotations\.hand must hold numbers: "),
    (lambda: KeypointFrame(0.0, {}, {"hand": [np.nan] * 4}),
     r"^rotations\.hand must be finite numbers of shape \(4,\)$"),
    (lambda: KeypointFrame(0.0, {}, {"hand": [1.0, 0.0]}),
     r"^rotations\.hand must be finite numbers of shape \(4,\)$"),
])
def test_retargeting_records_built_directly_name_the_bad_field(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_keypoint_frame_keeps_a_rotation_as_given():
    """A frame stores its rotation as the floats given; the problem that holds it checks that
    it is a unit quaternion."""
    kf = KeypointFrame(0.0, {"kp_hand": [0.0, 0.0, 1.0]}, {"hand": [0, 0, 0, 2]})
    assert kf.rotations["hand"].tolist() == [0.0, 0.0, 0.0, 2.0]
    with pytest.raises(ValueError, match=r"^frames\[0\]\.rotations\.hand is not unit norm"):
        RetargetProblem(arm_chain(), {"kp_hand": "hand"}, (kf,))


def _seeded_problems():
    """Seeded problems that between them make all six cost terms non-zero: a branching
    tree chain solved with its scales, the same chain with its root fixed at the truth, and
    the arm. The keypoints come from joint angles past the limits, a larger body and noise."""
    rng = np.random.default_rng(2023)
    joints = tuple(
        Joint(f"j{i}", parent, Pose(rng.uniform(-0.4, 0.4, 3), random_quat(rng)),
              rng.normal(size=3), (-0.8, 0.8))
        for i, parent in enumerate((-1, 0, 0, 1, 2))
    )
    ees = tuple(EndEffector(f"e{k}", parent, Pose(rng.uniform(-0.3, 0.3, 3), random_quat(rng)))
                for k, parent in enumerate((3, 4, -1)))
    tree = KinematicChain(joints, ees)
    names = [f.name for f in joints + ees]
    segments = (("kp_j0", "kp_j1"), ("kp_j1", "kp_j3"), ("kp_j3", "kp_e0"),
                ("kp_j0", "kp_j2"), ("kp_j2", "kp_j4"), ("kp_j4", "kp_e1"))
    spheres = tuple(CollisionSphere(name, rng.uniform(-0.05, 0.05, 3), radius)
                    for name, radius in (("e0", 0.35), ("e1", 0.35), ("j0", 0.25)))
    roots, frames = [], []
    for k in range(4):
        root = Pose(np.array([0.1 * k, 0.05 * k, 0.0]), quat_from_rotvec([0.0, 0.0, 0.2 * k]))
        fk = forward_kinematics(tree, root, rng.uniform(-1.1, 1.1, 5))
        rotations = {"e0": fk["e0"].orientation} if k % 2 else {}
        frames.append(KeypointFrame(0.1 * k, {
            f"kp_{n}": 1.1 * fk[n].position + rng.normal(0.0, 0.01, 3) for n in names}, rotations))
        roots.append(root)
    weights = RetargetWeights(1.0, 0.5, 0.3, 2.0, 4.0, 0.2)
    scaled = RetargetProblem(tree, {f"kp_{n}": n for n in names}, tuple(frames), segments,
                             weights, spheres, optimize_scales=True)
    zeros = np.zeros((4, 5))
    yield scaled, RetargetSolution((Pose.identity(),) * 4, zeros, local_scales=np.ones(6))
    yield replace(scaled, optimize_scales=False, fix_root=True), RetargetSolution(roots, zeros)
    arm_frames = []
    for k in range(3):  # the elbow ends past its limit of -2
        fk = forward_kinematics(arm_chain(), Pose.identity(), np.array([0.6, -2.3, 0.4]) * k / 2)
        keypoints = {f"kp_{n}": fk[n].position for n in ARM_KEYPOINTS}
        arm_frames.append(KeypointFrame(0.1 * k, keypoints))
    arm = RetargetProblem(arm_chain(), {f"kp_{n}": n for n in ARM_KEYPOINTS}, tuple(arm_frames),
                          segments=(("kp_shoulder", "kp_elbow"), ("kp_elbow", "kp_wrist")))
    yield arm, _identity_init(arm, 3)


def _retarget_digest():
    """SHA-256 over tobytes() of each seeded problem's solution (root poses, joint angles,
    scales), its per-frame cost traces, its per-term costs and every `evaluate_residuals`
    block; and the per-term costs summed over the problems."""
    digest, totals = hashlib.sha256(), dict.fromkeys(TERM_ORDER, 0.0)
    for problem, init in _seeded_problems():
        trace = []
        solution, costs = solve_retarget(problem, init, cost_trace=trace)
        for root in solution.root_poses:
            digest.update(root.position.tobytes() + root.orientation.tobytes())
        digest.update(solution.joint_angles.tobytes())
        digest.update(np.float64(solution.global_scale).tobytes())
        digest.update(solution.local_scales.tobytes())
        for frame_costs in trace:
            digest.update(np.array(frame_costs).tobytes())
        digest.update(np.array([costs[t] for t in (*TERM_ORDER, "total")]).tobytes())
        for frame in range(solution.n_frames):
            report = evaluate_residuals(problem, solution, frame)
            for t in TERM_ORDER:
                digest.update(report.blocks[t].tobytes())
        for t in TERM_ORDER:
            totals[t] += costs[t]
    return digest.hexdigest(), totals


def test_retargeting_outputs_match_their_pinned_digest():
    """The digest was taken before the frame solve returned its own cost trace, so a change
    to the LM arithmetic, or to the order of its operations, moves it. It also covers
    numpy's float64 solves and products, which another BLAS build may round differently."""
    digest, totals = _retarget_digest()
    assert all(totals[t] > 0.0 for t in TERM_ORDER), totals
    assert digest == "8593bcd9b589e6e59f81041054b2e4cc3aa4473fe1aef72716094a77fd4aa4b6"


def _skew_per_row(v):
    out = np.zeros(v.shape + (3,))
    out[..., [2, 0, 1], [1, 2, 0]] = v
    out[..., [1, 2, 0], [2, 0, 1]] = -v
    return out


def _angle_per_row(u, v):
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < 1e-9 or nv < 1e-9:
        return None
    return float(np.arccos(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))), nu, nv


def _so3_inverse_jacobian_per_row(phi, side):
    theta = math.sqrt(float(phi @ phi))
    k = _skew_per_row(phi)
    coef = (1.0 / 12.0 if theta < 1e-4 else
            1.0 / theta**2 - (1.0 + math.cos(theta)) / (2.0 * theta * math.sin(theta)))
    return np.eye(3) + 0.5 * side * k + coef * (k @ k)


def _linearize_per_row(p, it, frame, prev):
    """The reference: the weighted residuals, their blocks and the weighted Jacobian of frame
    `frame` at `it`, with every term written one keypoint, segment, angle and sphere pair at a
    time, as the residual and Jacobian passes were before they stacked each term's rows."""
    kf, rows, kmap = p.frames[frame], p.chain.frame_rows, p.keypoint_map
    kp_tg = [(rows[kmap[kp]], kf.keypoints[kp]) for kp in sorted(kf.keypoints)]
    seg_tg = {si: (rows[kmap[a]], rows[kmap[b]], kf.keypoints[a] - kf.keypoints[b])
              for si, (a, b) in enumerate(p.segments) if a in kf.keypoints and b in kf.keypoints}
    ang_tg = [(i, j, _angle_per_row(seg_tg[i][2], seg_tg[j][2]))
              for i, j in p._adjacent_segments if i in seg_tg and j in seg_tg]
    ang_tg = [(i, j, a[0]) for i, j, a in ang_tg if a is not None]
    rot_tg, spheres = p._rotation_targets[frame], p.collision_spheres
    pairs = [(i, j, spheres[i].radius + spheres[j].radius) for i in range(len(spheres))
             for j in range(i + 1, len(spheres)) if spheres[i].frame != spheres[j].frame]
    n, root, q = it.q.size, it.root, it.q
    fk = forward_kinematics(p.chain, root, q)
    pos, quats = fk.positions, fk.orientations
    res = np.empty(3 * (len(kp_tg) + len(seg_tg) + len(rot_tg)) + len(ang_tg) + len(pairs)
                   + n + (0 if prev is None else 6 + n))
    row, bounds = 0, [0]
    for f, target in kp_tg:
        res[row : row + 3] = pos[f] - it.g_scale * target
        row += 3
    bounds.append(row)
    segments = {}
    for si, (a, b, vec_tg) in seg_tg.items():
        segments[si] = u = pos[a] - pos[b]
        s_l = it.l_scales[si] if si < it.l_scales.size else 1.0
        res[row : row + 3] = u - s_l * it.g_scale * vec_tg
        row += 3
    angles = []
    for i, j, target in ang_tg:
        angle = _angle_per_row(segments[i], segments[j])
        if angle is not None:
            angles.append((row, i, j, *angle))
            res[row] = angle[0] - target
            row += 1
    bounds.append(row)
    for f, q_tg in rot_tg:
        res[row : row + 3] = _rotvec_between(q_tg, quats[f].tolist())
        row += 3
    bounds.append(row)
    hinges = []
    centers = np.array([quat_to_matrix(quats[f]) @ s.offset + pos[f]
                        for f, s in zip(p._sphere_rows, spheres)])
    for i, j, radii in pairs:
        d = centers[i] - centers[j]
        dist = float(np.linalg.norm(d))
        res[row] = max(0.0, radii - dist)
        if res[row] > 0.0 and d.any():
            hinges.append((row, i, j, d, dist))
        row += 1
    bounds.append(row)
    lo, hi = p._limits
    res[row : row + n] = np.maximum(0.0, lo - q) + np.maximum(0.0, q - hi)
    row += n
    bounds.append(row)
    if prev is not None:
        res[row : row + 3] = root.position - prev[0].position
        res[row + 3 : row + 6] = quat_boxminus(root.orientation, prev[0].orientation)
        res[row + 6 : row + 6 + n] = q - prev[1]
        row += 6 + n
    bounds.append(row)
    res = res[:row]
    blocks = {t: res[a:b] for t, a, b in zip(TERM_ORDER, bounds, bounds[1:])}
    weights = np.repeat([np.sqrt(p.weights.for_term(t)) for t in TERM_ORDER], np.diff(bounds))

    k0 = 6 if it.with_root else 0
    n_pose = k0 + n
    w, v = quats[:n, 0], quats[:n, 1:].T
    twice = 2.0 * retarget._cross(v, p._axes)
    axes = p._axes + w * twice + retarget._cross(v, twice)
    turn, origin = np.zeros((3, n_pose)), np.zeros((3, n_pose))
    turn[:, k0:], origin[:, k0:] = axes, retarget._cross(pos[:n].T, axes)
    if k0:
        turn[:, 3:6], origin[:, :3] = np.eye(3), np.eye(3)
        origin[:, 3:6] = _skew_per_row(it.root.position)
    moved_by = p._moved_by[:, 6 - k0 :]

    def carried(points, frames):
        return (origin - _skew_per_row(points) @ turn) * moved_by[frames][:, None, :]

    frame_cols = carried(pos, slice(None))
    jac = np.zeros((res.size, it.dim()))
    for row, (f, target) in zip(range(0, bounds[1], 3), kp_tg):
        jac[row : row + 3, :n_pose] = frame_cols[f]
        if it.with_scales:
            jac[row : row + 3, n_pose] = -target
    segment_cols = {}
    for row, (si, (a, b, vec_tg)) in zip(range(bounds[1], bounds[2], 3), seg_tg.items()):
        segment_cols[si] = jac[row : row + 3, :n_pose] = frame_cols[a] - frame_cols[b]
        if it.with_scales:
            jac[row : row + 3, n_pose] = -it.l_scales[si] * vec_tg
            jac[row : row + 3, n_pose + 1 + si] = -it.g_scale * vec_tg
    for row, i, j, angle, nu, nv in angles:
        sin = math.sin(angle)
        if sin >= 1e-12:
            c, u, v = math.cos(angle), segments[i] / nu, segments[j] / nv
            jac[row, :n_pose] = -((v - c * u) / nu @ segment_cols[i]
                                  + (u - c * v) / nv @ segment_cols[j]) / sin
    for row, (f, _) in zip(range(bounds[2], bounds[3], 3), rot_tg):
        jac[row : row + 3, :n_pose] = (-_so3_inverse_jacobian_per_row(res[row : row + 3], 1.0)
                                       @ (turn * moved_by[f]))
    if hinges:
        sphere_cols = carried(centers, p._sphere_rows)
        for row, i, j, d, dist in hinges:
            jac[row, :n_pose] = -d / dist @ (sphere_cols[i] - sphere_cols[j])
    diag = np.arange(n)
    jac[bounds[4] + diag, k0 + diag] = np.where(q < lo, -1.0, np.where(q > hi, 1.0, 0.0))
    if (row := bounds[5]) < bounds[6]:
        jac[row + 6 + diag, k0 + diag] = 1.0
        if k0:
            jac[row : row + 3, :3] = np.eye(3)
            jac[row + 3 : row + 6, 3:6] = _so3_inverse_jacobian_per_row(res[row + 3 : row + 6],
                                                                        -1.0)
    return res * weights, blocks, jac * weights[:, None], (len(ang_tg) - len(angles), len(hinges))


def _collapsing_segment_problem():
    """The seeded tree with a tip on j4's origin, so the FK segment j4 -> tip has no length
    and both its angle rows drop out, though their targets have one."""
    problem = next(_seeded_problems())[0]
    chain = problem.chain
    tip = EndEffector("tip", 4, Pose(np.zeros(3), quat_identity()))
    chain = KinematicChain(chain.joints, chain.end_effectors + (tip,))
    frames = tuple(replace(kf, keypoints={**kf.keypoints, "kp_tip": kf.keypoints["kp_j4"] + 0.1})
                   for kf in problem.frames)
    return replace(problem, chain=chain, keypoint_map={**problem.keypoint_map, "kp_tip": "tip"},
                   frames=frames, segments=problem.segments + (("kp_j4", "kp_tip"),))


def test_stacked_passes_match_the_per_row_reference():
    """`_residuals` and `_jacobian` give the per-row passes' bits, on iterates of the seeded
    problems around their own solutions: with and without root and scale columns, on frame
    0 with no previous frame, with collision pairs in contact and sphere offsets that are
    not zero, and with angle rows that drop out for a segment that has collapsed."""
    rng = np.random.default_rng(31)
    problems = [*(problem for problem, _ in _seeded_problems()), _collapsing_segment_problem()]
    seen = {"dropped angle": 0, "hinge": 0, "scales": 0, "fixed root": 0, "frame 0": 0}
    for problem in problems:
        n_seg, n = len(problem.segments), problem.chain.n_joints
        for frame in range(len(problem.frames)):
            for k in range(4):
                root = Pose(rng.normal(0.0, 0.05 * k, 3), random_quat(rng) if k == 3
                            else quat_from_rotvec(rng.normal(0.0, 0.3, 3)))
                it = _FrameIterate(root, rng.uniform(-1.2, 1.2, n), rng.uniform(0.8, 1.3),
                                   rng.uniform(0.6, 1.8, n_seg),
                                   problem.optimize_scales and frame == 0, not problem.fix_root)
                prev = None if frame == 0 else (random_pose(rng), rng.uniform(-1.0, 1.0, n))
                r, report, kept = _residuals(problem, it, _frame_targets(problem, frame), prev)
                jac = _jacobian(problem, it, _frame_targets(problem, frame), kept)
                want_r, want_blocks, want_jac, (dropped, hinges) = _linearize_per_row(
                    problem, it, frame, prev)
                assert r.tobytes() == want_r.tobytes()
                for t in TERM_ORDER:
                    assert report.blocks[t].tobytes() == want_blocks[t].tobytes(), t
                assert jac.tobytes() == want_jac.tobytes()
                seen["dropped angle"] += dropped > 0
                seen["hinge"] += hinges > 0
                seen["scales"] += it.with_scales
                seen["fixed root"] += not it.with_root
                seen["frame 0"] += prev is None
    assert min(seen.values()) > 0, seen
    assert all(np.any(s.offset) for s in problems[0].collision_spheres)


def test_the_row_passes_call_no_per_vector_numpy_wrapper():
    """`np.linalg.norm` and `np.clip` each cost a Python-level dispatch per call, several
    times the arithmetic of a 3-vector: the row passes take norms as `math.sqrt(u.dot(u))`
    or a row-wise matmul, which give the same bits, and clip a cosine with `min`/`max`."""
    for pass_ in (retarget._residuals, retarget._jacobian, retarget._angle_between):
        tree = ast.parse(textwrap.dedent(inspect.getsource(pass_)))
        calls = {ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        assert not calls & {"np.clip", "np.linalg.norm"}, pass_.__name__
