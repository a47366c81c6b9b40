import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import arm_chain, unit_quats
from shuttlekit.retarget import (
    TERM_ORDER,
    _FrameIterate,
    _frame_targets,
    _linearize,
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
    chain_to_dict,
    forward_kinematics,
    quat_from_rotvec,
    quat_identity,
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
        assert all(b <= a for a, b in zip(frame_costs, frame_costs[1:]))

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
        plus = _linearize(p, it.apply(step), tg, prev, jacobian=False)[0]
        minus = _linearize(p, it.apply(-step), tg, prev, jacobian=False)[0]
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
    vectors = {si: fk[a].position - fk[b].position for si, (a, b, _) in tg.segments.items()}
    for i, j, _ in tg.angles:
        u, v = vectors[i], vectors[j]
        if min(np.linalg.norm(u), np.linalg.norm(v)) < 1e-3:
            return False
        if np.linalg.norm(np.cross(u, v)) < 1e-3 * np.linalg.norm(u) * np.linalg.norm(v):
            return False
    centers = [fk[s.frame].transform_point(s.offset) for s in problem.collision_spheres]
    for i, j, radii in problem._sphere_pairs:
        if abs(radii - np.linalg.norm(centers[i] - centers[j])) < 1e-4:
            return False
    report = _linearize(problem, it, tg, prev, jacobian=False)[1]
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
    r, _, analytic = _linearize(problem, it, tg, prev)
    assert analytic.shape == (r.size, it.dim())
    assert np.allclose(analytic, _central_differences(problem, it, tg, prev),
                       rtol=1e-6, atol=1e-6)


@given(frame_states())
def test_linearize_without_jacobian_gives_the_same_residuals(state):
    problem, it, prev = state
    tg = _frame_targets(problem, 0)
    r, report, _ = _linearize(problem, it, tg, prev)
    r_only, report_only, jac = _linearize(problem, it, tg, prev, jacobian=False)
    assert jac is None and r_only.tobytes() == r.tobytes()
    for t in TERM_ORDER:
        assert report_only.blocks[t].tobytes() == report.blocks[t].tobytes()
    weighted = [np.sqrt(problem.weights.for_term(t)) * report.blocks[t] for t in TERM_ORDER]
    assert np.concatenate(weighted).tobytes() == r.tobytes()


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
