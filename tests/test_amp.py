import ast
import hashlib
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import arm_chain, humanoid_chain, random_pose
from shuttlekit import amp
from shuttlekit.amp import (
    AmpConfig,
    AmpFrame,
    Mlp,
    assemble_history,
    disc_forward,
    disc_forward_batch,
    disc_loss_and_grads,
    frame_features,
    grad_wrt_input,
    mlp_init,
)
from shuttlekit.goal import RobotState
from shuttlekit.spatial import KinematicChain, Pose, Twist, forward_kinematics, quat_identity


def _state(root=None, vel=(0.3, 0.1, 0.0)):
    if root is None:
        root = Pose(np.array([0.0, 0.0, 0.8]), quat_identity())
    return RobotState(
        root=root,
        root_twist=Twist(np.asarray(vel, dtype=float), np.zeros(3)),
        q=np.array([0.2, -0.4]),
        qd=np.zeros(2),
        projected_gravity=np.array([0.0, 0.0, -1.0]),
        last_action=np.zeros(2),
        base_height=0.8,
        feet_contacts=np.ones(2),
    )


def _ee_maps(chain, state, rng=None):
    fk = forward_kinematics(chain, state.root, state.q)
    names = ("left_ankle", "right_ankle", "left_hand", "right_hand")
    poses = {n: fk[n] for n in names}
    if rng is None:
        vels = {n: np.zeros(3) for n in names}
    else:
        vels = {n: rng.normal(size=3) for n in names}
    return poses, vels


class TestFrameFeatures:
    def test_length_is_7_plus_n_plus_6e(self):
        chain = humanoid_chain()
        state = _state()
        poses, vels = _ee_maps(chain, state)
        frame = frame_features(state, poses, vels, chain)
        assert len(frame) == 7 + 2 + 6 * 4  # 33

    def test_invariant_under_world_shift(self, rng):
        chain = humanoid_chain()
        world = random_pose(rng)
        state = _state()
        poses, vels = _ee_maps(chain, state, rng)
        base = frame_features(state, poses, vels, chain)

        moved_state = RobotState(
            root=world.compose(state.root),
            root_twist=Twist(
                world.transform_vector(state.root_twist.linear),
                world.transform_vector(state.root_twist.angular),
            ),
            q=state.q,
            qd=state.qd,
            projected_gravity=state.projected_gravity,
            last_action=state.last_action,
            base_height=state.base_height,
            feet_contacts=state.feet_contacts,
        )
        moved_poses = {n: world.compose(p) for n, p in poses.items()}
        moved_vels = {n: world.transform_vector(v) for n, v in vels.items()}
        moved = frame_features(moved_state, moved_poses, moved_vels, chain)
        assert np.allclose(base.features, moved.features, atol=1e-9)

    def test_matches_base_frame_oracle(self, rng):
        from shuttlekit.spatial import to_base_frame

        chain = humanoid_chain()
        state = _state(root=random_pose(rng))
        poses, vels = _ee_maps(chain, state, rng)
        frame = frame_features(state, poses, vels, chain)
        expect = np.concatenate(
            [
                to_base_frame(state.root_twist.linear, state.root, is_point=False),
                state.q,
                [state.base_height],
                state.projected_gravity,
            ]
            + [
                to_base_frame(poses[n].position, state.root, is_point=True)
                for n in ("left_ankle", "right_ankle", "left_hand", "right_hand")
            ]
            + [
                to_base_frame(vels[n], state.root, is_point=False)
                for n in ("left_ankle", "right_ankle", "left_hand", "right_hand")
            ]
        )
        assert np.allclose(frame.features, expect, atol=1e-12)

    def test_missing_end_effector_errors(self):
        chain = humanoid_chain()
        state = _state()
        poses, vels = _ee_maps(chain, state)
        del poses["left_hand"]
        with pytest.raises(ValueError):
            frame_features(state, poses, vels, chain)
        with pytest.raises(ValueError, match="no end effector named 'left_ankle'"):
            frame_features(state, poses, vels, arm_chain())

    def test_a_joint_of_an_end_effector_name_is_not_an_end_effector(self):
        chain = humanoid_chain()
        state = _state()
        poses, vels = _ee_maps(chain, state)
        joints = (replace(chain.joints[0], name="left_hand"), chain.joints[1])
        renamed = KinematicChain(joints, tuple(e for e in chain.end_effectors
                                               if e.name != "left_hand"))
        with pytest.raises(ValueError, match="^chain has no end effector named 'left_hand'$"):
            frame_features(state, poses, vels, renamed)

    @pytest.mark.parametrize("table, value, message", [
        ("ee_vels", np.zeros(4), "ee_vels['left_hand'] must have shape (3,), got (4,)"),
        ("ee_vels", np.zeros((3, 1)), "ee_vels['left_hand'] must have shape (3,), got (3, 1)"),
        ("ee_vels", [1.0, 2.0], "ee_vels['left_hand'] must have shape (3,), got (2,)"),
        ("ee_vels", 0.5, "ee_vels['left_hand'] must have shape (3,), got ()"),
        ("ee_vels", ["a", 0, 0],
         "ee_vels['left_hand'] must hold numbers: could not convert string to float: 'a'"),
        ("ee_vels", np.array([0.0, np.nan, 0.0]),
         "ee_vels['left_hand'] has non-finite components"),
        ("ee_vels", (0.0, 0.0, -np.inf), "ee_vels['left_hand'] has non-finite components"),
        ("ee_poses", np.zeros(3), "ee_poses['left_hand'] must be a Pose, got array([0., 0., 0.])"),
    ], ids=["4-vector", "3x1", "2-list", "scalar", "string", "nan", "inf-tuple", "not-a-pose"])
    def test_a_bad_end_effector_input_is_named(self, table, value, message):
        """A pair of misshapen velocities that holds 6 numbers between them is refused too."""
        chain = humanoid_chain()
        state = _state()
        poses, vels = _ee_maps(chain, state)
        (poses if table == "ee_poses" else vels)["left_hand"] = value
        if table == "ee_vels" and np.shape(value) == (2,):
            vels["right_hand"] = [1.0, 2.0, 3.0, 4.0]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            frame_features(state, poses, vels, chain)

    def test_sequences_of_three_numbers_read_as_arrays(self, rng):
        chain = humanoid_chain()
        state = _state()
        poses, _ = _ee_maps(chain, state)
        vels = {n: rng.integers(-3, 4, 3).astype(float) for n in poses}  # exact in every form
        expected = frame_features(state, poses, vels, chain).features
        forms = dict(zip(poses, (lambda v: [int(x) for x in v], tuple,
                                 lambda v: v.astype(np.float32), lambda v: v.astype(np.int64))))
        got = frame_features(state, poses, {n: forms[n](v) for n, v in vels.items()}, chain)
        assert got.features.tobytes() == expected.tobytes()


class TestAssembleHistory:
    CFG = AmpConfig(history_length=5)

    def test_identical_frames_tile(self):
        frame = AmpFrame(np.arange(4.0))
        obs = assemble_history([frame] * 5, self.CFG)
        assert np.allclose(obs.features, np.tile(np.arange(4.0), 5))

    def test_single_frame_fills_window(self):
        frame = AmpFrame(np.array([1.0, 2.0]))
        obs = assemble_history([frame], self.CFG)
        assert np.allclose(obs.features, [1.0, 2.0] * 5)

    def test_long_buffer_keeps_newest(self):
        frames = [AmpFrame(np.array([float(k)])) for k in range(7)]
        obs = assemble_history(frames, self.CFG)
        assert np.allclose(obs.features, [6.0, 5.0, 4.0, 3.0, 2.0])

    def test_partial_buffer_repeats_oldest(self):
        frames = [AmpFrame(np.array([float(k)])) for k in range(3)]
        obs = assemble_history(frames, self.CFG)
        assert np.allclose(obs.features, [2.0, 1.0, 0.0, 0.0, 0.0])

    def test_empty_buffer_errors(self):
        with pytest.raises(ValueError):
            assemble_history([], self.CFG)


@pytest.mark.parametrize("build, message", [
    (lambda: AmpConfig(history_length=0), "history_length must be at least 1"),
    (lambda: AmpFrame([np.nan, 1.0]), "features must be a finite 1-D vector, got shape (2,)"),
    (lambda: AmpFrame([1.0, -np.inf]), "features must be a finite 1-D vector, got shape (2,)"),
    (lambda: AmpFrame([[1.0, 2.0]]), "features must be a finite 1-D vector, got shape (1, 2)"),
    (lambda: assemble_history([AmpFrame([1.0]), AmpFrame([1.0, 2.0])], AmpConfig()),
     "frames in the buffer have inconsistent lengths"),
    (lambda: Mlp((np.ones((1, 2)),), ()), "need one bias vector per weight matrix"),
    (lambda: Mlp((np.ones(2),), (np.ones(1),)), "layer 0 has inconsistent shapes"),
    (lambda: Mlp((np.ones((3, 2)), np.ones((1, 4))), (np.ones(3), np.ones(1))),
     "layer 1 input dim does not match layer 0 output"),
    (lambda: Mlp((np.ones((2, 2)),), (np.ones(2),)), "output layer must produce a scalar"),
    (lambda: AmpFrame(["x"]), "features must hold numbers: could not convert string to float: 'x'"),
    (lambda: Mlp((np.full((1, 3), np.nan),), (np.zeros(1),)), "layer 0 weights must be finite"),
    (lambda: Mlp((np.ones((2, 3)), np.ones((1, 2))), (np.ones(2), np.array([np.inf]))),
     "layer 1 biases must be finite"),
], ids=["history-length", "nan-feature", "inf-feature", "2-d-features", "ragged-buffer",
        "no-biases", "1-d-weights", "chained-widths", "vector-output", "non-number-feature",
        "nan-weights", "inf-biases"])
def test_bad_record_is_rejected_with_its_own_message(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_history_window_is_one_feature_record():
    """`assemble_history` returns an `AmpFrame`, and `AmpObservation`, its field-for-field
    copy, is gone."""
    window = assemble_history([AmpFrame([1.0, 2.0]), AmpFrame([3.0, 4.0])], AmpConfig(3))
    assert type(window) is AmpFrame and len(window) == 6
    assert window.features.tolist() == [3.0, 4.0, 1.0, 2.0, 1.0, 2.0]
    assert not hasattr(amp, "AmpObservation")


class TestBatchReader:
    NET = Mlp((np.ones((1, 3)),), (np.zeros(1),))
    ROWS = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    @pytest.mark.parametrize("form", [
        lambda rows: rows,
        lambda rows: list(rows),
        lambda rows: tuple(rows.tolist()),
        lambda rows: [AmpFrame(r) for r in rows],
        lambda rows: [AmpFrame(rows[0]), rows[1]],
    ], ids=["2-d", "list-of-vectors", "tuple-of-lists", "list-of-frames", "mixed-list"])
    def test_every_batch_form_reads_the_same_rows(self, form):
        x = amp._rows(form(self.ROWS), self.NET, "real")
        assert x.dtype == np.float64 and x.tobytes() == self.ROWS.tobytes()

    @pytest.mark.parametrize("form", [
        lambda row: row, lambda row: row[None, :], lambda row: AmpFrame(row), lambda row: [row],
    ], ids=["vector", "one-row", "frame", "list"])
    def test_every_single_form_reads_one_row(self, form):
        row = self.ROWS[0]
        assert amp._rows(form(row), self.NET, "obs").tobytes() == row.tobytes()
        assert disc_forward(self.NET, form(row)) == 6.0
        assert grad_wrt_input(self.NET, form(row)).tolist() == [1.0, 1.0, 1.0]
        assert disc_forward_batch(self.NET, form(row)).tolist() == [6.0]

    @pytest.mark.parametrize("argument", ["real", "fake"])
    @pytest.mark.parametrize("batch", [
        [], (), np.empty((0, 3)), [np.ones(3), np.ones(2)], [np.ones(3), "abc"],
        [np.ones(3), np.array([1.0, np.nan, 1.0])], np.full((2, 3), np.inf), np.ones((2, 4)),
        np.ones(4), np.ones((1, 2, 3)), [np.ones((1, 3))],
    ], ids=["empty-list", "empty-tuple", "no-rows", "ragged", "not-numbers", "nan-row",
            "inf-rows", "wide-rows", "wide-vector", "3-d", "list-of-rows"])
    def test_bad_batch_names_the_argument(self, argument, batch):
        good = [np.ones(3)]
        real, fake = (batch, good) if argument == "real" else (good, batch)
        with pytest.raises(ValueError, match=(
                f"^{argument} must be a non-empty batch of finite rows of length 3$")):
            disc_loss_and_grads(self.NET, real, fake, AmpConfig())

    def test_single_observation_entries_name_their_argument(self):
        for step in (disc_forward, grad_wrt_input):
            with pytest.raises(ValueError, match="^obs must be one observation, got 2 rows$"):
                step(self.NET, self.ROWS)
            with pytest.raises(ValueError, match="^obs must be a non-empty batch of finite rows"):
                step(self.NET, [np.nan, 1.0, 1.0])
        with pytest.raises(ValueError, match="^batch must be a non-empty batch of finite rows"):
            disc_forward_batch(self.NET, np.ones((2, 4)))

    def test_every_entry_point_reads_its_input_through_the_one_reader(self):
        """One reader turns observations into rows: the four public entry points call it,
        and no other function in `amp` stacks or converts an observation."""
        functions = {}
        for node in ast.parse(Path(amp.__file__).read_text()).body:
            for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
                if isinstance(fn, ast.FunctionDef):
                    prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
                    functions[prefix + fn.name] = ast.unparse(fn)
        assert {name for name, source in functions.items() if "_rows(" in source} == {
            "_rows", "disc_forward", "disc_forward_batch", "grad_wrt_input",
            "disc_loss_and_grads"}
        # the feature record checks one vector, and the net its parameters
        assert {name for name, source in functions.items() if "np.asarray(" in source} == {
            "_rows", "AmpFrame.__post_init__", "Mlp.__post_init__"}
        assert not re.search(r"np\.v?stack\(|_as_batch", "".join(functions.values()))


class TestForward:
    def test_zero_net_outputs_zero(self):
        m = Mlp(
            (np.zeros((4, 3)), np.zeros((1, 4))),
            (np.zeros(4), np.zeros(1)),
        )
        assert disc_forward(m, np.ones(3)) == 0.0

    def test_linear_net_is_dot_product(self, rng):
        w = rng.normal(size=(1, 6))
        b = rng.normal(size=1)
        m = Mlp((w,), (b,))
        x = rng.normal(size=6)
        assert disc_forward(m, x) == pytest.approx(float((w @ x + b)[0]))

    def test_matches_matrix_oracle(self, rng):
        m = mlp_init([4, 8, 6, 1], rng)
        x = rng.normal(size=4)
        a = np.tanh(m.weights[0] @ x + m.biases[0])
        a = np.tanh(m.weights[1] @ a + m.biases[1])
        expected = float((m.weights[2] @ a + m.biases[2])[0])
        assert disc_forward(m, x) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self, rng):
        m = mlp_init([4, 8, 1], rng)
        with pytest.raises(ValueError):
            disc_forward(m, np.ones(5))


class TestInputGradient:
    def test_linear_net_gradient_is_weights(self, rng):
        w = rng.normal(size=(1, 6))
        m = Mlp((w,), (np.zeros(1),))
        assert np.allclose(grad_wrt_input(m, np.ones(6)), w[0])

    def test_zero_net_zero_gradient(self):
        m = Mlp((np.zeros((3, 5)), np.zeros((1, 3))), (np.zeros(3), np.zeros(1)))
        assert np.allclose(grad_wrt_input(m, np.ones(5)), 0.0)

    def test_matches_finite_differences(self, rng):
        for _ in range(20):
            m = mlp_init([5, 7, 4, 1], rng)
            x = rng.normal(size=5)
            g = grad_wrt_input(m, x)
            h = 1e-6
            fd = np.zeros(5)
            for k in range(5):
                xp, xm = x.copy(), x.copy()
                xp[k] += h
                xm[k] -= h
                fd[k] = (disc_forward(m, xp) - disc_forward(m, xm)) / (2 * h)
            assert np.allclose(g, fd, rtol=1e-5, atol=1e-9)


def _perfect_discriminator():
    """Exact global minimum: D(0) = 1 with zero input gradient, D(2) = -1.

    Two mirrored tanh units cancel the gradient at x = 0 by symmetry.
    """
    u, b = 1.0, 1.0
    t0 = math.tanh(b)
    s = math.tanh(2 * u + b) + math.tanh(b - 2 * u)
    w = 2.0 / (2 * t0 - s)
    c = -1.0 - w * s
    return Mlp(
        (np.array([[u], [-u]]), np.array([[w, w]])),
        (np.array([b, b]), np.array([c])),
    )


@st.composite
def loss_problems(draw):
    """A net of 1-3 layers, real and fake batches of independent sizes, and w_gp."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)) + [1]
    params = st.floats(-1.5, 1.5)
    m = Mlp(
        tuple(draw(arrays(np.float64, (n_out, n_in), elements=params))
              for n_in, n_out in zip(sizes, sizes[1:])),
        tuple(draw(arrays(np.float64, n_out, elements=params)) for n_out in sizes[1:]),
    )
    rows = st.integers(1, 4).flatmap(
        lambda n: arrays(np.float64, (n, sizes[0]), elements=st.floats(-2.0, 2.0))
    )
    w_gp = draw(st.one_of(st.just(0.0), st.floats(0.1, 10.0)))
    return m, draw(rows), draw(rows), AmpConfig(grad_penalty_weight=w_gp)


class TestDiscriminatorLoss:
    CFG = AmpConfig(history_length=5, grad_penalty_weight=3.0)

    def test_global_minimum_is_zero(self):
        m = _perfect_discriminator()
        real = [np.array([0.0])]
        fake = [np.array([2.0])]
        assert disc_forward(m, real[0]) == pytest.approx(1.0, abs=1e-12)
        assert disc_forward(m, fake[0]) == pytest.approx(-1.0, abs=1e-12)
        assert np.allclose(grad_wrt_input(m, real[0]), 0.0, atol=1e-15)
        out = disc_loss_and_grads(m, real, fake, self.CFG)
        assert out.loss == pytest.approx(0.0, abs=1e-12)

    def test_nan_penalty_weight_rejected(self):
        with pytest.raises(ValueError, match="^grad_penalty_weight must be finite, got nan$"):
            AmpConfig(grad_penalty_weight=math.nan)

    def test_zero_discriminator_loss_two(self):
        m = Mlp((np.zeros((1, 3)),), (np.zeros(1),))
        cfg = AmpConfig(history_length=5, grad_penalty_weight=0.0)
        out = disc_loss_and_grads(m, [np.ones(3)], [np.ones(3)], cfg)
        assert out.loss == pytest.approx(2.0)

    def test_gradients_match_finite_differences(self, rng):
        for _ in range(5):
            m = mlp_init([4, 6, 5, 1], rng)
            m = Mlp(m.weights, tuple(rng.normal(0, 0.1, b.shape) for b in m.biases))
            real = [rng.normal(size=4) for _ in range(3)]
            fake = [rng.normal(size=4) for _ in range(2)]
            res = disc_loss_and_grads(m, real, fake, self.CFG)
            h = 1e-6

            def loss_with(weights, biases):
                return disc_loss_and_grads(
                    Mlp(tuple(weights), tuple(biases)), real, fake, self.CFG
                ).loss

            for li in range(len(m.weights)):
                w = m.weights[li]
                idx = (
                    rng.integers(w.shape[0], size=4),
                    rng.integers(w.shape[1], size=4),
                )
                for i, j in zip(*idx):
                    wp = [x.copy() for x in m.weights]
                    wm = [x.copy() for x in m.weights]
                    wp[li][i, j] += h
                    wm[li][i, j] -= h
                    fd = (loss_with(wp, m.biases) - loss_with(wm, m.biases)) / (2 * h)
                    assert res.weight_grads[li][i, j] == pytest.approx(
                        fd, rel=1e-4, abs=1e-7
                    )
                bp = [x.copy() for x in m.biases]
                bm = [x.copy() for x in m.biases]
                i = int(rng.integers(m.biases[li].shape[0]))
                bp[li][i] += h
                bm[li][i] -= h
                fd = (loss_with(m.weights, bp) - loss_with(m.weights, bm)) / (2 * h)
                assert res.bias_grads[li][i] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    @given(loss_problems())
    def test_every_gradient_matches_central_differences(self, problem):
        m, real, fake, cfg = problem
        res = disc_loss_and_grads(m, real, fake, cfg)
        h = 1e-6
        for grads, params, is_weight in ((res.weight_grads, m.weights, True),
                                         (res.bias_grads, m.biases, False)):
            for li, p in enumerate(params):
                for idx in np.ndindex(p.shape):
                    losses = []
                    for step in (h, -h):
                        moved = [x.copy() for x in params]
                        moved[li][idx] += step
                        net = Mlp(moved, m.biases) if is_weight else Mlp(m.weights, moved)
                        losses.append(disc_loss_and_grads(net, real, fake, cfg).loss)
                    fd = (losses[0] - losses[1]) / (2 * h)
                    assert grads[li][idx] == pytest.approx(fd, rel=1e-5, abs=1e-6)

    def test_penalty_only_sees_real_samples(self, rng):
        m = mlp_init([4, 6, 1], rng)
        real = [rng.normal(size=4) for _ in range(3)]
        fake_a = [rng.normal(size=4) for _ in range(3)]
        fake_b = [rng.normal(size=4) * 10.0 for _ in range(5)]
        res_a = disc_loss_and_grads(m, real, fake_a, self.CFG)
        res_b = disc_loss_and_grads(m, real, fake_b, self.CFG)
        assert res_a.penalty_term == pytest.approx(res_b.penalty_term, abs=1e-15)

    def test_loss_nonnegative(self, rng):
        for _ in range(20):
            m = mlp_init([3, 5, 1], rng)
            real = [rng.normal(size=3) for _ in range(2)]
            fake = [rng.normal(size=3) for _ in range(2)]
            assert disc_loss_and_grads(m, real, fake, self.CFG).loss >= 0.0

    def test_descent_step_decreases_loss(self, rng):
        m = mlp_init([4, 6, 1], rng)
        real = [rng.normal(size=4) for _ in range(4)]
        fake = [rng.normal(size=4) for _ in range(4)]
        res = disc_loss_and_grads(m, real, fake, self.CFG)
        lr = 1e-3
        stepped = Mlp(
            tuple(w - lr * g for w, g in zip(m.weights, res.weight_grads)),
            tuple(b - lr * g for b, g in zip(m.biases, res.bias_grads)),
        )
        assert disc_loss_and_grads(stepped, real, fake, self.CFG).loss < res.loss

    def test_empty_batch_errors(self, rng):
        m = mlp_init([3, 1], rng)
        with pytest.raises(ValueError):
            disc_loss_and_grads(m, [], [np.ones(3)], self.CFG)
        with pytest.raises(ValueError):
            disc_loss_and_grads(m, [np.ones(3)], [], self.CFG)


PINNED = {
    "loss": "2daf30e6fbf03a6b2b03f219c5bafbb67cc596c84ace68cefaa085b5ae540595",
    "real_term": "061af0e370e43bf7ccb34c4ff666f564567ec8fe5050f9756d894a1ed0c85b30",
    "fake_term": "901ee2861dcdc68eacabba9d4d0f804e96604cb91aeaa798bb2655a27830f9dd",
    "penalty_term": "b343669a362a7c8c7ffd37e5e2090dc5baea7f28916716564cbed045adc2751d",
    "weight_grads": "a742e0a91f6a0df9506fb9be90bce8bcab2972e48c60bba4860a1d4c20e58b57",
    "bias_grads": "16b6a8a2e91632bd27bd92f89b495a8c12ce6a5c3d7423ab47a7b462a133f79f",
    "disc_forward_batch": "296f28cb42d3d16736a85412dd0bc94d555204c11615ca1178eb63c6570e2125",
    "grad_wrt_input": "df87761ce7e2861e1140bc1d425c2f8b14ace721005ed0fdeedd0390c9c69603",
}


def _discriminator_digests() -> dict:
    """SHA-256 over tobytes() of each discriminator output on a seeded net of the
    benchmark's control-loop shape, [99, 256, 128, 1] with 256 real and 256 fake rows."""
    rng = np.random.default_rng(2022)
    m = mlp_init([99, 256, 128, 1], rng)
    m = Mlp(m.weights, tuple(rng.normal(0.0, 0.2, b.shape) for b in m.biases))
    real = rng.normal(size=(256, 99))
    fake = 2.0 * rng.normal(size=(256, 99))
    res = disc_loss_and_grads(m, real, fake, AmpConfig(grad_penalty_weight=2.5))
    outputs = {
        "loss": np.float64(res.loss),
        "real_term": np.float64(res.real_term),
        "fake_term": np.float64(res.fake_term),
        "penalty_term": np.float64(res.penalty_term),
        "weight_grads": np.concatenate([g.ravel() for g in res.weight_grads]),
        "bias_grads": np.concatenate(res.bias_grads),
        "disc_forward_batch": disc_forward_batch(m, np.concatenate((real, fake))),
        "grad_wrt_input": np.stack([grad_wrt_input(m, x) for x in real[:8]]),
    }
    return {name: hashlib.sha256(a.tobytes()).hexdigest() for name, a in outputs.items()}


def test_discriminator_outputs_match_their_pinned_digests():
    """The digests were taken before the step wrote its temporaries in place, so a change to
    the arithmetic, or to the order of its operations, moves them. They also cover numpy's
    float64 matrix products, which another BLAS build may round differently."""
    assert _discriminator_digests() == PINNED
