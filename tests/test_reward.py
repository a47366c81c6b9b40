import ast
import hashlib
import inspect
import math
import textwrap
from dataclasses import replace

import numpy as np
import pytest

from conftest import humanoid_chain
from shuttlekit import amp, reward
from shuttlekit.amp import DEFAULT_EE_ORDER, AmpConfig, assemble_history, frame_features
from shuttlekit.goal import RobotState
from shuttlekit.reward import (
    HitQualityConfig,
    RewardConfig,
    TerminationConfig,
    contact_tracking_reward,
    exp_kernel,
    hit_quality_reward,
    hit_tracking_reward,
    recovery_tracking_reward,
    score_episode_csv,
    sparse_hit_tracking_reward,
    style_reward,
    termination_check,
    total_reward,
)
from shuttlekit.shuttle import CourtResult
from shuttlekit.spatial import Pose, Twist, forward_kinematics, quat_from_rotvec

CFG = RewardConfig(
    hit_weights=[0.6, 0.4],
    hit_scales=[0.5, 0.25],
    rec_weights=[1.0, 0.5, 0.5],
    rec_scales=[0.3, 0.3, 0.2],
    sigma_time=0.5,
    epsilon=0.05,
    w_task=0.7,
    w_style=0.3,
)


def _oracle_kernel_sum(deltas, weights, scales):
    # independent recomputation with plain python arithmetic
    total = 0.0
    for d, w, s in zip(deltas, weights, scales):
        err_sq = sum(float(x) * float(x) for x in np.ravel(d))
        total += w * math.exp(-err_sq / s)
    return total


class TestExpKernel:
    def test_zero_error_is_one(self):
        assert exp_kernel(0.0, 0.7) == 1.0

    def test_at_scale_is_inverse_e(self):
        assert exp_kernel(0.5, 0.5) == pytest.approx(math.exp(-1.0))

    def test_two_scales_out(self):
        assert exp_kernel(0.8, 0.4) == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            exp_kernel(0.1, 0.0)
        with pytest.raises(ValueError):
            exp_kernel(-0.1, 1.0)

    @pytest.mark.parametrize("err_sq, sigma, message", [
        (1.0, math.nan, "sigma must be positive"),
        (math.nan, 1.0, "squared error must be non-negative"),
    ], ids=["sigma", "err_sq"])
    def test_nan_rejected(self, err_sq, sigma, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            exp_kernel(err_sq, sigma)

    def test_strictly_decreasing(self):
        values = [exp_kernel(e, 0.3) for e in np.linspace(0.0, 2.0, 50)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestHitTracking:
    def test_zero_error_zero_tth(self):
        deltas = [np.zeros(3), np.zeros(6)]
        assert hit_tracking_reward(deltas, 0.0, CFG) == pytest.approx(1.0)  # sum(w)

    def test_time_decay_at_sigma(self):
        deltas = [np.zeros(3), np.zeros(6)]
        out = hit_tracking_reward(deltas, CFG.sigma_time, CFG)
        assert out == pytest.approx(math.exp(-1.0) * 1.0)

    def test_matches_formula_oracle(self, rng):
        for _ in range(200):
            deltas = [rng.normal(size=3), rng.normal(size=6)]
            tth = rng.uniform(-2.0, 2.0)
            expected = math.exp(-abs(tth) / CFG.sigma_time) * _oracle_kernel_sum(
                deltas, CFG.hit_weights, CFG.hit_scales
            )
            assert hit_tracking_reward(deltas, tth, CFG) == pytest.approx(
                expected, abs=1e-12
            )

    def test_component_count_mismatch(self):
        with pytest.raises(ValueError):
            hit_tracking_reward([np.zeros(3)], 0.0, CFG)

    def test_strictly_decreasing_in_abs_tth(self, rng):
        deltas = [rng.normal(size=3), rng.normal(size=6)]
        values = [hit_tracking_reward(deltas, t, CFG) for t in np.linspace(0, 2, 40)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_bounded_by_weight_sum(self, rng):
        for _ in range(100):
            deltas = [rng.normal(size=3), rng.normal(size=6)]
            tth = rng.uniform(-2.0, 2.0)
            assert 0.0 <= hit_tracking_reward(deltas, tth, CFG) <= CFG.hit_weights.sum()


class TestRecoveryTracking:
    def test_zero_before_impact(self):
        assert recovery_tracking_reward([np.zeros(3)] * 3, 0.5, CFG) == 0.0

    def test_full_weight_after_impact(self):
        out = recovery_tracking_reward([np.zeros(3)] * 3, -0.5, CFG)
        assert out == pytest.approx(CFG.rec_weights.sum())

    def test_boundary_is_preparation(self):
        assert recovery_tracking_reward([np.zeros(3)] * 3, 0.0, CFG) == 0.0

    def test_matches_formula_oracle(self, rng):
        for _ in range(100):
            deltas = [rng.normal(size=k) for k in (6, 3, 2)]
            expected = _oracle_kernel_sum(deltas, CFG.rec_weights, CFG.rec_scales)
            assert recovery_tracking_reward(deltas, -1.0, CFG) == pytest.approx(
                expected, abs=1e-12
            )


class TestSparseHitTracking:
    def test_inside_window_full(self):
        deltas = [np.zeros(3), np.zeros(6)]
        out = sparse_hit_tracking_reward(deltas, CFG.epsilon / 2, CFG)
        assert out == pytest.approx(CFG.hit_weights.sum())

    def test_outside_window_zero(self):
        deltas = [np.zeros(3), np.zeros(6)]
        assert sparse_hit_tracking_reward(deltas, 2 * CFG.epsilon, CFG) == 0.0

    def test_boundary_is_outside(self):
        deltas = [np.zeros(3), np.zeros(6)]
        assert sparse_hit_tracking_reward(deltas, CFG.epsilon, CFG) == 0.0
        assert sparse_hit_tracking_reward(deltas, -CFG.epsilon, CFG) == 0.0

    def test_piecewise_constant_in_tth(self, rng):
        deltas = [rng.normal(size=3), rng.normal(size=6)]
        inside = {
            sparse_hit_tracking_reward(deltas, t, CFG)
            for t in np.linspace(-0.04, 0.04, 21)
        }
        assert len(inside) == 1


class TestHitQuality:
    GOOD = CourtResult(in_bounds=True, cleared_net=True)

    def test_saturated_speed(self):
        cfg = HitQualityConfig(speed_scale=8.0)
        assert hit_quality_reward(self.GOOD, 12.0, cfg) == 1.0

    def test_out_of_bounds_zero(self):
        cfg = HitQualityConfig(speed_scale=8.0)
        out = CourtResult(in_bounds=False, cleared_net=True)
        assert hit_quality_reward(out, 100.0, cfg) == 0.0

    def test_net_fault_zero(self):
        cfg = HitQualityConfig(speed_scale=8.0)
        netted = CourtResult(in_bounds=True, cleared_net=False)
        assert hit_quality_reward(netted, 100.0, cfg) == 0.0

    def test_half_speed_ramp(self):
        cfg = HitQualityConfig(speed_scale=8.0)
        assert hit_quality_reward(self.GOOD, 4.0, cfg) == pytest.approx(0.5)

class TestStyleReward:
    def test_spot_values(self):
        assert style_reward(1.0) == 1.0
        assert style_reward(-1.0) == 0.0
        assert style_reward(0.0) == 0.75

    def test_unique_maximum_at_one(self):
        grid = np.linspace(-3.0, 4.0, 141)
        values = [style_reward(d) for d in grid]
        assert max(values) == 1.0
        assert [d for d, v in zip(grid, values) if v == 1.0] == [1.0]

    def test_zero_outside_two(self):
        for d in (-1.0, -2.5, 3.0, 4.0, 1e200, -1e200, 1.4e154):
            if abs(d - 1.0) >= 2.0:
                assert style_reward(d) == 0.0


class TestTotalReward:
    def test_even_mix(self):
        cfg = RewardConfig([1.0], [1.0], [1.0], [1.0], 0.5, 0.05, w_task=0.5, w_style=0.5)
        assert total_reward(1.0, 1.0, cfg) == 1.0

    def test_style_weight_zero(self):
        cfg = RewardConfig([1.0], [1.0], [1.0], [1.0], 0.5, 0.05, w_task=0.7, w_style=0.0)
        assert total_reward(0.9, 0.3, cfg) == pytest.approx(0.63)

    def test_matches_linear_oracle(self, rng):
        for _ in range(100):
            task, style = rng.uniform(0, 2, 2)
            assert total_reward(task, style, CFG) == pytest.approx(
                CFG.w_task * task + CFG.w_style * style, abs=1e-15
            )


class TestRewardConfigArrays:
    def test_config_holds_read_only_copies_of_its_arrays(self):
        """The scales are checked once, at construction, so the config keeps its own copies,
        which no later write can make negative; the caller's arrays stay writable."""
        given = {name: np.array(getattr(CFG, name))
                 for name in ("hit_weights", "hit_scales", "rec_weights", "rec_scales")}
        cfg = RewardConfig(**given, sigma_time=0.5, epsilon=0.05)
        for name, array in given.items():
            held = getattr(cfg, name)
            assert held is not array and not np.shares_memory(held, array)
            assert not held.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                held[0] = -1.0
            array[0] = -1.0  # the caller's array is still theirs to change
            assert held.tolist() == getattr(CFG, name).tolist()
        assert hit_tracking_reward([np.zeros(3), np.zeros(3)], 0.0, cfg) == 1.0

    @pytest.mark.parametrize("reward_fn, tth", [
        (hit_tracking_reward, 0.0), (sparse_hit_tracking_reward, 0.0),
        (recovery_tracking_reward, -0.1),
    ], ids=["hit", "sparse-hit", "recovery"])
    def test_a_nan_delta_still_raises(self, reward_fn, tth):
        deltas = [np.zeros(3), np.array([0.0, np.nan, 0.0]), np.zeros(3)]
        n = len(CFG.rec_weights if reward_fn is recovery_tracking_reward else CFG.hit_weights)
        with pytest.raises(ValueError, match="^squared error must be non-negative$"):
            reward_fn(deltas[:n], tth, CFG)


def _robot_state(height=0.8, tilt_rad=0.0, position=(0.0, 0.0, 0.8)):
    quat = quat_from_rotvec([tilt_rad, 0.0, 0.0])
    return RobotState(
        root=Pose(np.asarray(position, dtype=float), quat),
        root_twist=Twist.zero(),
        q=np.zeros(2),
        qd=np.zeros(2),
        projected_gravity=np.array([0.0, 0.0, -1.0]),
        last_action=np.zeros(2),
        base_height=height,
        feet_contacts=np.ones(2),
    )


class TestTermination:
    CFG = TerminationConfig(min_base_height=0.4, max_base_tilt=np.radians(60), max_ref_deviation=1.0)

    def test_nominal_state_survives(self):
        result = termination_check(_robot_state(), Pose.identity(), self.CFG)
        assert not result.terminate
        assert result.reason is None

    def test_low_base_height(self):
        result = termination_check(_robot_state(height=0.1), Pose.identity(), self.CFG)
        assert result.terminate and result.reason == "height"

    def test_excessive_tilt(self):
        result = termination_check(
            _robot_state(tilt_rad=np.radians(91)), Pose.identity(), self.CFG
        )
        assert result.terminate and result.reason == "tilt"

    def test_reference_deviation(self):
        result = termination_check(
            _robot_state(position=(5.0, 0.0, 0.8)), Pose.identity(), self.CFG
        )
        assert result.terminate and result.reason == "deviation"

    def test_height_reported_first(self):
        # every threshold violated; fixed order says height wins
        result = termination_check(
            _robot_state(height=0.1, tilt_rad=2.0, position=(9.0, 0.0, 0.1)),
            Pose.identity(),
            self.CFG,
        )
        assert result.reason == "height"


class TestContactTracking:
    def test_fraction_matching(self):
        assert contact_tracking_reward([1, 0], [1, 1]) == 0.5
        assert contact_tracking_reward([1, 1], [1, 1]) == 1.0
        assert contact_tracking_reward([0, 0], [1, 1]) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            contact_tracking_reward([1, 0, 1], [1, 0])


class TestConfigAndBatch:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            RewardConfig([1.0], [0.0], [1.0], [1.0], 0.5, 0.05)
        with pytest.raises(ValueError):
            RewardConfig([1.0], [1.0], [1.0], [1.0], -0.5, 0.05)
        with pytest.raises(ValueError):
            RewardConfig([1.0, 1.0], [1.0], [1.0], [1.0], 0.5, 0.05)

    @pytest.mark.parametrize("build, message", [
        (lambda: replace(CFG, sigma_time=math.nan), "sigma_time must be positive"),
        (lambda: replace(CFG, epsilon=math.nan), "epsilon must be positive"),
        (lambda: replace(CFG, hit_scales=[0.5, math.nan]), "kernel scales must be positive"),
        (lambda: replace(CFG, rec_scales=[math.nan, 0.3, 0.2]), "kernel scales must be positive"),
        (lambda: replace(CFG, hit_weights=[math.nan, 0.4]), "weights must be non-negative"),
        (lambda: replace(CFG, rec_weights=[1.0, 0.5, math.nan]), "weights must be non-negative"),
        (lambda: replace(CFG, w_task=math.nan), "mixing weights must be non-negative"),
        (lambda: replace(CFG, w_style=math.nan), "mixing weights must be non-negative"),
        (lambda: TerminationConfig(math.nan, 0.8, 1.0), "termination thresholds must be positive"),
        (lambda: TerminationConfig(0.5, math.nan, 1.0), "termination thresholds must be positive"),
        (lambda: TerminationConfig(0.5, 0.8, math.nan), "termination thresholds must be positive"),
        (lambda: HitQualityConfig(speed_scale=math.nan), "speed_scale must be positive"),
    ], ids=["sigma_time", "epsilon", "hit_scales", "rec_scales", "hit_weights", "rec_weights",
            "w_task", "w_style", "min_base_height", "max_base_tilt", "max_ref_deviation",
            "speed_scale"])
    def test_config_rejects_nan(self, build, message):
        """A NaN setting fails its comparison, so no reward reads NaN from its config."""
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    def test_score_episode_csv(self, tmp_path):
        path = tmp_path / "episode.csv"
        path.write_text(
            "t,tth,hit_sq_0,hit_sq_1,rec_sq_0,rec_sq_1,rec_sq_2,d\n"
            "0.0,0.0,0.0,0.0,0.0,0.0,0.0,1.0\n"
            "0.1,-0.5,0.0,0.0,0.0,0.0,0.0,0.0\n"
            "0.2,-0.5,0.0,0.0,0.0,0.0,0.0,1e200\n"
        )
        rows = score_episode_csv(path, CFG)
        assert rows[0]["hit"] == pytest.approx(1.0)
        assert rows[0]["recovery"] == 0.0
        assert rows[0]["style"] == 1.0
        assert rows[1]["recovery"] == pytest.approx(CFG.rec_weights.sum())
        assert rows[1]["hit_sparse"] == 0.0
        assert rows[1]["total"] == pytest.approx(
            CFG.w_task * (rows[1]["hit"] + rows[1]["recovery"]) + CFG.w_style * 0.75
        )
        assert rows[2]["style"] == 0.0

        # every gate edge, with squared errors that are exact squares, so each
        # row equals the public kernels on deltas of length 0, 0.5, 1 and 1.5
        eps = CFG.epsilon
        tths = [0.0, -0.0, eps, -eps, 0.5 * eps, -0.5 * eps, 0.3, -0.2]
        sq_of = {0.0: "0", 0.5: "0.25", 1.0: "1", 1.5: "2.25"}
        lengths = list(sq_of)
        lines = ["t,tth,hit_sq_0,hit_sq_1,rec_sq_0,rec_sq_1,rec_sq_2"]
        for i, tth in enumerate(tths):
            hit_len = [lengths[i % 4], lengths[(i + 1) % 4]]
            rec_len = [lengths[(i + 2) % 4], lengths[(i + 3) % 4], lengths[i % 4]]
            lines.append(",".join([str(0.1 * i), repr(tth)] + [sq_of[x] for x in hit_len + rec_len]))
        path.write_text("\n".join(lines) + "\n")
        rows = score_episode_csv(path, CFG)
        assert len(rows) == len(tths)
        for i, (tth, row) in enumerate(zip(tths, rows)):
            hit = [np.array([lengths[i % 4], 0.0, 0.0]), np.array([0.0, lengths[(i + 1) % 4], 0.0])]
            rec = [np.array([0.0, 0.0, lengths[(i + k) % 4]]) for k in (2, 3, 4)]
            assert row["hit"] == hit_tracking_reward(hit, tth, CFG)
            assert row["hit_sparse"] == sparse_hit_tracking_reward(hit, tth, CFG)
            assert row["recovery"] == recovery_tracking_reward(rec, tth, CFG)
            assert row["style"] == 0.0
            assert row["total"] == CFG.w_task * (row["hit"] + row["recovery"])
        # the sparse window is open strictly inside |tth| < epsilon
        assert [r["hit_sparse"] > 0.0 for r in rows] == [True, True, False, False, True, True, False, False]
        # recovery runs only after impact; -0.0 is not after impact
        assert [r["recovery"] > 0.0 for r in rows] == [False, False, False, True, False, True, False, True]

    @pytest.mark.parametrize("lines, message", [
        (["t,tth,hit_sq_0,rec_sq_0,rec_sq_1,rec_sq_2", "0.0,0.0,0,0,0,0"],
         "missing column(s) hit_sq_1"),
        (["t,tth,hit_sq_0,hit_sq_1,rec_sq_0,rec_sq_1,rec_sq_2", "0.0,0.0,0,0,0,0,0",
          "0.1,0.0,0,abc,0,0,0"], "row 2: could not convert string to float: 'abc'"),
        (["t,tth,hit_sq_0,hit_sq_1,rec_sq_0,rec_sq_1,rec_sq_2", "0.0,0.0,0,0"],
         "row 1 has 4 cells, expected 7"),
        (["t,tth,hit_sq_0,hit_sq_1,rec_sq_0,rec_sq_1,rec_sq_2", "0.0,nan,0,0,0,0,0"],
         "row 1 has a non-finite value"),
        (["t,tth,hit_sq_0,hit_sq_1,rec_sq_0,rec_sq_1,rec_sq_2,d", "0.0,0.0,0,0,0,0,0,inf"],
         "row 1 has a non-finite value"),
        (["t,tth,hit_sq_0,hit_sq_1,rec_sq_0,rec_sq_1,rec_sq_2", "0.0,0.0,0,-1,0,0,0"],
         "row 1: squared error must be non-negative"),
        (["t,tth,hit_sq_0,hit_sq_1,rec_sq_0,rec_sq_1,rec_sq_2", "0.0,-0.5,0,0,0,nan,0"],
         "row 1: squared error must be non-negative"),
    ], ids=["no-hit_sq_1", "cell-abc", "short-row", "nan-tth", "inf-d", "negative-hit_sq",
            "nan-rec_sq"])
    def test_score_episode_csv_bad_input_names_file_and_row(self, tmp_path, lines, message):
        path = tmp_path / "episode.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            score_episode_csv(path, CFG)
        assert str(info.value).startswith(f"{path}: {message}"), info.value


def _tick_kernel_digest() -> str:
    """SHA-256 over tobytes() of seeded `frame_features`, `assemble_history`, tracking-reward
    and `termination_check` returns, as one control tick calls them. The draws cover both
    phases, the open and the closed gates and every termination reason, and some deltas
    are lists or 2-D arrays."""
    rng, digest = np.random.default_rng(32), hashlib.sha256()
    chain, history_cfg = humanoid_chain(), AmpConfig(history_length=4)
    cfg = RewardConfig(hit_weights=[0.6, 0.4], hit_scales=[0.05, 0.2],
                       rec_weights=[0.5, 0.3, 0.2], rec_scales=[0.1, 0.3, 0.02],
                       sigma_time=0.5, epsilon=0.02)
    term_cfg = TerminationConfig(0.5, 0.8, 1.0)
    buffer, gates, reasons = [], set(), set()
    for k in range(300):
        root = Pose(rng.normal(0.0, 0.3, 3) + [0.0, 0.0, 0.9],
                    quat_from_rotvec(rng.normal(0.0, 0.5, 3)))
        state = RobotState(root, Twist(rng.normal(size=3), rng.normal(size=3)),
                           q=rng.normal(size=2), qd=rng.normal(size=2),
                           projected_gravity=rng.normal(size=3), last_action=np.zeros(2),
                           base_height=rng.uniform(0.3, 1.2), feet_contacts=np.ones(2))
        fk = forward_kinematics(chain, root, state.q)
        frame = frame_features(state, {n: fk[n] for n in DEFAULT_EE_ORDER},
                               {n: rng.normal(size=3) for n in DEFAULT_EE_ORDER}, chain)
        buffer = (buffer + [frame])[-3:]
        history = assemble_history(buffer, history_cfg)
        tth = rng.uniform(-0.03, 0.03) if k % 3 else rng.uniform(-1.0, 1.0)
        hit = [rng.normal(0.0, 0.3, 3), rng.normal(0.0, 0.3, 3)]
        rec = [rng.normal(0.0, 0.3, 3), rng.normal(0.0, 0.3, 3), rng.normal(0.0, 0.1, 3)]
        if k % 7 == 0:
            hit, rec = [d.tolist() for d in hit], [d.reshape(1, 3) for d in rec]
        rewards = np.array([hit_tracking_reward(hit, tth, cfg),
                            recovery_tracking_reward(rec, tth, cfg),
                            sparse_hit_tracking_reward(hit, tth, cfg)])
        ref_root = Pose(rng.normal(0.0, 0.6, 3) + [0.0, 0.0, 0.9], quat_from_rotvec(np.zeros(3)))
        result = termination_check(state, ref_root, term_cfg)
        digest.update(frame.features.tobytes() + history.features.tobytes() + rewards.tobytes()
                      + repr((result.terminate, result.reason)).encode())
        gates.add((tth >= 0.0, abs(tth) < cfg.epsilon))
        reasons.add(result.reason)
    assert len(gates) == 4 and reasons == {None, "height", "tilt", "deviation"}
    return digest.hexdigest()


def test_tick_kernels_match_their_pinned_digest():
    """The digest was taken when `frame_features` built its rows through `to_base_frame` and
    each reward component ran `exp_kernel`'s checks."""
    assert _tick_kernel_digest() == (
        "282836e67fd2ffe83d462fa4032b22cbee706d713293c15157a399490f4c941b")


def test_tick_kernels_call_no_per_call_wrapper():
    """`set`, `to_base_frame`, `np.linalg.norm` and a per-component `exp_kernel` each build
    objects or run checks that the tick has done already: `frame_features`, `_kernel_sum` and
    `termination_check` stay free of them."""
    for fn in (amp.frame_features, reward._kernel_sum, reward.termination_check):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        calls = {ast.unparse(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
        assert not calls & {"np.linalg.norm", "set", "to_base_frame", "exp_kernel"}, fn.__name__
