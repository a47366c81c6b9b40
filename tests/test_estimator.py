import ast
import hashlib
import re
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import finite
from shuttlekit import estimator
from shuttlekit.estimator import (
    EkfBelief,
    HitCriteria,
    NoiseConfig,
    NumericalFailureError,
    ekf_predict,
    ekf_update,
    load_measurements_csv,
    predict_trajectory,
    process_noise,
    save_filter_log_csv,
    select_hit_point,
    track_measurements,
    transition_jacobian,
)
from shuttlekit.shuttle import (
    ShuttleParams,
    ShuttleState,
    _check_dt,
    _rk4_step,
    simulate_to_ground,
    step,
)
from shuttlekit.spatial import Box, _record

PARAMS = ShuttleParams(mass=0.005, drag_coeff=0.001)
DRAG_FREE = ShuttleParams(mass=0.005, drag_coeff=0.0)
NOISE = NoiseConfig.isotropic(process_psd=0.01, measurement_std=0.005)


def _simulate_positions(state, params, dt, n):
    out = [np.concatenate([state.position, state.velocity])]
    s = state
    for _ in range(n):
        s = step(s, params, dt)
        out.append(np.concatenate([s.position, s.velocity]))
    return np.array(out)


def _central_differences(mean, params, dt, h):
    """d(_rk4_step)/d(state) by central differences with step h."""
    fd = np.zeros((6, 6))
    for k in range(6):
        plus, minus = mean.copy(), mean.copy()
        plus[k] += h
        minus[k] -= h
        fp = _rk4_step(plus.tolist(), params, dt)
        fm = _rk4_step(minus.tolist(), params, dt)
        fd[:, k] = (np.array(fp) - np.array(fm)) / (2 * h)
    return fd


def spd_matrices(n):
    """s (A A^T + 1e-3 I) with A in [-1, 1] and s from 1e-3 to 1e2."""
    factors = arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0))
    return st.builds(lambda a, s: s * (a @ a.T + 1e-3 * np.eye(n)), factors, st.floats(1e-3, 1e2))


@st.composite
def symmetric_matrices(draw):
    """A A^T of rank 0 to 6 with norm up to about 1e4, half of them shifted down by 1e-12 I
    to 1e-6 I, so the smallest eigenvalue lands on either side of -1e-9."""
    rank = draw(st.integers(0, 6))
    a = draw(arrays(np.float64, (6, rank), elements=st.floats(-1.0, 1.0)))
    a = a * 10.0 ** draw(st.floats(-3.0, 1.5))
    shift = 0.0
    if draw(st.booleans()):
        shift = draw(st.floats(1.0, 10.0)) * 10.0 ** draw(st.integers(-12, -7))
    return a @ a.T - shift * np.eye(6)


@st.composite
def measurement_sequences(draw):
    """Strictly increasing times, noisy straight-line positions and a latency."""
    gaps = draw(st.lists(st.floats(1e-3, 2e-2), max_size=15))
    times = np.cumsum([draw(st.floats(0.0, 1.0))] + gaps)
    start = draw(arrays(np.float64, 3, elements=finite))
    vel = draw(arrays(np.float64, 3, elements=st.floats(-20.0, 20.0)))
    noise = draw(arrays(np.float64, (times.size, 3), elements=st.floats(-0.01, 0.01)))
    zs = start + (times - times[0])[:, None] * vel + noise
    return times, zs, draw(st.floats(0.0, 0.05))


class TestBelief:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mean_rejected(self, bad):
        mean = np.array([0.0, 0.0, 3.0, 4.0, 0.0, 4.0])
        mean[4] = bad
        with pytest.raises(ValueError, match="mean has non-finite components"):
            EkfBelief(mean, np.eye(6))

    def test_asymmetric_covariance_rejected(self):
        cov = np.eye(6)
        cov[0, 4] = 1e-8
        with pytest.raises(NumericalFailureError, match="covariance is not symmetric"):
            EkfBelief(np.zeros(6), cov)

    def test_indefinite_covariance_rejected(self):
        with pytest.raises(NumericalFailureError, match="not positive semidefinite"):
            EkfBelief(np.zeros(6), np.diag([1.0, 1.0, 1.0, 1.0, -1e-8, 1.0]))

    @given(symmetric_matrices())
    @example(np.zeros((6, 6)))  # the prior several tests start from
    @settings(max_examples=500)
    def test_psd_test_accepts_what_the_smallest_eigenvalue_accepts(self, cov):
        lam = np.linalg.eigvalsh(cov)
        # within round-off of the -1e-9 threshold either test may tip
        assume(abs(lam[0] + 1e-9) > 64 * np.finfo(float).eps * np.abs(lam).max())
        try:
            EkfBelief(np.zeros(6), cov)
        except NumericalFailureError as e:
            assert str(e) == "covariance is not positive semidefinite"
            assert lam[0] < -1e-9
        else:
            assert lam[0] >= -1e-9

    @pytest.mark.parametrize("i", range(6))
    def test_nan_on_covariance_diagonal_rejected(self, i):
        for value in (np.nan, np.inf):
            cov = np.eye(6)
            cov[i, i] = value
            with pytest.raises(NumericalFailureError, match="^covariance has non-finite entries$"):
                EkfBelief(np.zeros(6), cov)

    def test_symmetric_nan_pair_rejected(self):
        cov = np.eye(6)
        cov[1, 3] = cov[3, 1] = np.nan
        with pytest.raises(NumericalFailureError, match="^covariance has non-finite entries$"):
            EkfBelief(np.zeros(6), cov)


class TestNoiseConfig:
    def test_nan_process_psd_rejected(self):
        with pytest.raises(ValueError, match="^process_psd must be finite, got nan$"):
            NoiseConfig(np.nan, np.eye(3))

    def test_nan_measurement_cov_rejected(self):
        r = np.eye(3)
        r[1, 1] = np.nan
        message = r"^measurement_cov must be finite numbers of shape \(3, 3\)$"
        with pytest.raises(ValueError, match=message):
            NoiseConfig(1.0, r)

    def test_infinite_process_psd_rejected(self):
        with pytest.raises(ValueError, match="^process_psd must be finite, got inf$"):
            NoiseConfig(np.inf, np.eye(3))

    @pytest.mark.parametrize("i, j", [(0, 0), (0, 2), (2, 1)])
    def test_infinite_measurement_cov_rejected_without_a_warning(self, i, j):
        r = np.eye(3)
        r[i, j] = r[j, i] = np.inf
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            message = r"^measurement_cov must be finite numbers of shape \(3, 3\)$"
            with pytest.raises(ValueError, match=message):
                NoiseConfig(1.0, r)
        assert not caught, [str(w.message) for w in caught]


@st.composite
def filter_chains(draw):
    """A prior, noise, a step and measurements near the predicted track.

    The prior covariance is D A D with A symmetric positive definite and D
    diagonal over four decades, so its condition number reaches about 1e11.
    """
    scales = draw(arrays(np.float64, 6, elements=st.floats(-3.0, 1.0)))
    d = np.diag(10.0 ** scales)
    prior = EkfBelief(
        np.concatenate([draw(arrays(np.float64, 3, elements=finite)),
                        draw(arrays(np.float64, 3, elements=st.floats(-20.0, 20.0)))]),
        d @ draw(spd_matrices(6)) @ d,
    )
    r = draw(spd_matrices(3)) * 10.0 ** draw(st.floats(-8.0, 0.0))
    noise = NoiseConfig(draw(st.sampled_from([0.0, 1e-8, 1e-4, 1.0, 10.0])), r)
    dt = draw(st.floats(1e-3, 0.05))
    offsets = draw(arrays(np.float64, (draw(st.integers(1, 8)), 3), elements=st.floats(-0.1, 0.1)))
    return prior, noise, dt, offsets


class TestFilterStepChecks:
    """Predict and update build their beliefs without the public constructor."""

    @staticmethod
    def _passes_public_check(b):
        cov = b.covariance
        assert np.array_equal(cov, cov.T)
        checked = EkfBelief(b.mean, cov)
        assert np.array_equal(checked.mean, b.mean) and np.array_equal(checked.covariance, cov)

    @given(filter_chains())
    def test_chain_outputs_pass_the_public_check(self, chain):
        b, noise, dt, offsets = chain
        for dz in offsets:
            b = ekf_predict(b, PARAMS, noise, dt)
            self._passes_public_check(b)
            b, _ = ekf_update(b, b.mean[:3] + dz, noise)
            self._passes_public_check(b)

    def test_indefinite_process_noise_raises(self, monkeypatch):
        # symmetric with a positive diagonal, but eigenvalue -1 along e2 - e5
        q = np.eye(6)
        q[2, 5] = q[5, 2] = 2.0
        monkeypatch.setattr(estimator, "process_noise", lambda psd, dt: q)
        b = EkfBelief(np.array([0.0, 0.0, 3.0, 2.0, 0.0, 4.0]), np.zeros((6, 6)))
        with pytest.raises(NumericalFailureError, match="covariance is not positive semidefinite"):
            ekf_predict(b, PARAMS, NOISE, 0.005)
        # the track builds its Q through the same module attribute
        zs = np.array([[0.0, 0.0, 3.0], [0.01, 0.0, 3.02]])
        with pytest.raises(NumericalFailureError, match="covariance is not positive semidefinite"):
            track_measurements([0.0, 0.005], zs, b, PARAMS, NOISE)

    @pytest.mark.parametrize("step_of, cov, message", [
        (lambda b: ekf_predict(b, PARAMS, NOISE, 1.0), 1e308 * np.eye(6),
         "covariance has non-finite entries"),
        # the velocity block overflows in the Joseph form's 0.5 (P + P^T)
        (lambda b: ekf_update(b, b.mean[:3], NOISE), np.diag([1.0] * 3 + [1e308] * 3),
         "covariance has non-finite entries"),
        # P_pp + R overflows in the innovation covariance
        (lambda b: ekf_update(b, b.mean[:3], NoiseConfig(1.0, 1e308 * np.eye(3))),
         1e308 * np.eye(6), "singular innovation covariance"),
    ], ids=["predict", "update", "innovation"])
    def test_covariance_overflow_raises_without_a_warning(self, step_of, cov, message):
        b = EkfBelief(np.array([0.0, 0.0, 3.0, 1.0, 0.0, 1.0]), cov)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericalFailureError, match=f"^{message}$"):
                step_of(b)
        assert not caught, [str(w.message) for w in caught]

    def test_non_finite_predicted_mean_raises(self):
        # |v|^2 overflows in the RK4 step
        b = EkfBelief(np.array([0.0, 0.0, 3.0, 1e200, 0.0, 1e200]), np.eye(6))
        with pytest.raises(ValueError, match="^mean has non-finite components$"):
            ekf_predict(b, PARAMS, NOISE, 0.005)


class TestPredict:
    def test_mean_follows_simulator(self):
        b = EkfBelief(np.array([1.0, 2.0, 3.0, 4.0, -1.0, 5.0]), np.zeros((6, 6)))
        zero_noise = NoiseConfig(0.0, NOISE.measurement_cov)
        out = ekf_predict(b, PARAMS, zero_noise, 0.005)
        state = _rk4_step(b.mean.tolist(), PARAMS, 0.005)
        assert np.allclose(out.mean, state, atol=1e-9)

    def test_drag_free_is_constant_velocity_model(self):
        dt = 0.02
        f = transition_jacobian(np.array([0.0, 0, 0, 3.0, 1.0, -2.0]), DRAG_FREE, dt)
        f_cv = np.eye(6)
        f_cv[:3, 3:] = dt * np.eye(3)
        assert np.allclose(f, f_cv, atol=1e-14)
        # closed-form covariance propagation in the linear case
        p0 = np.diag([0.1, 0.2, 0.3, 1.0, 2.0, 3.0])
        b = EkfBelief(np.array([0.0, 0, 1.0, 3.0, 1.0, -2.0]), p0)
        n = NoiseConfig(0.5, NOISE.measurement_cov)
        out = ekf_predict(b, DRAG_FREE, n, dt)
        expected = f_cv @ p0 @ f_cv.T + process_noise(0.5, dt)
        assert np.allclose(out.covariance, expected, atol=1e-12)

    def test_jacobian_matches_finite_differences(self, rng):
        cases = [
            (rng.normal(size=6) * np.array([1, 1, 1, 5, 5, 5]), PARAMS) for _ in range(20)
        ]
        # zero velocity takes the speed == 0 branch of the drag Jacobian at
        # the first stage; single-axis velocities put signed zeros into the
        # drag law; drag-free parameters zero the drag block at every stage
        cases.append((np.array([0.5, -1.0, 2.0, 0.0, 0.0, 0.0]), PARAMS))
        cases.append((np.array([0.5, -1.0, 2.0, -0.0, -0.0, -0.0]), PARAMS))
        for axis in range(3):
            for v in (6.0, -6.0):
                mean = np.array([0.5, -1.0, 2.0, 0.0, 0.0, 0.0])
                mean[3 + axis] = v
                cases.append((mean, PARAMS))
        cases += [(mean, DRAG_FREE) for mean, _ in cases[:5] + cases[20:24]]
        for mean, params in cases:
            f = transition_jacobian(mean, params, 0.005)
            fd = _central_differences(mean, params, 0.005, 1e-6)
            assert np.max(np.abs(f - fd)) / np.max(np.abs(fd)) < 1e-5

    # velocity components are often exactly zero, and some examples are drag-free
    @settings(max_examples=200)
    @given(
        arrays(np.float64, 3, elements=finite),
        st.tuples(*[st.one_of(st.floats(-40.0, 40.0), st.just(0.0))] * 3),
        st.floats(1e-3, 2e-2),
        st.one_of(st.floats(1e-4, 5e-3), st.just(0.0)),
    )
    @example(np.zeros(3), (0.0, 0.0, 0.0), 2e-2, 1e-3)
    @example(np.zeros(3), (-0.0, 0.0, -0.0), 1e-3, 5e-3)
    @example(np.zeros(3), (12.0, -3.0, 20.0), 2e-2, 0.0)
    def test_jacobian_property_against_central_differences(self, pos, vel, dt, drag_coeff):
        params = ShuttleParams(mass=0.005, drag_coeff=drag_coeff)
        mean = np.concatenate([pos, vel])
        f = transition_jacobian(mean, params, dt)
        fd = _central_differences(mean, params, dt, 1e-6)
        # generic states agree to about 6e-9; the drag law is not twice
        # differentiable at zero velocity, where central differences err by O(km h dt)
        assert np.max(np.abs(f - fd)) / np.max(np.abs(fd)) < 1e-7
        assert np.array_equal(f[3:, :3], np.zeros((3, 3)))
        assert np.array_equal(f[:3, :3], np.eye(3))

    def test_bad_dt(self):
        b = EkfBelief(np.zeros(6), np.eye(6))
        with pytest.raises(ValueError):
            ekf_predict(b, PARAMS, NOISE, 0.0)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -1.0])
    def test_non_positive_or_non_finite_dt_rejected(self, dt):
        b = EkfBelief(np.zeros(6), np.eye(6))
        message = f"^dt must be positive and finite, got {re.escape(str(dt))}$"
        with pytest.raises(ValueError, match=message):
            ekf_predict(b, PARAMS, NOISE, dt)

    @pytest.mark.parametrize("run", [
        lambda b: ekf_predict(b, PARAMS, NOISE, 1e103),
        lambda b: track_measurements([0.0, 1e103], [b.mean[:3]] * 2, b, PARAMS, NOISE),
    ], ids=["predict", "track"])
    def test_gap_whose_process_noise_overflows_is_named(self, run):
        """dt**3 of a float raises past about 5.6e102 s; the gap is named, not an OverflowError."""
        assert np.isfinite(process_noise(NOISE.process_psd, 5e102)).all()
        b = EkfBelief(np.array([0.0, 0.0, 3.0, 1.0, 0.0, 1.0]), np.eye(6))
        with pytest.raises(ValueError, match=r"^process noise overflows over a gap of 1e\+103 s$"):
            run(b)


class TestUpdate:
    def test_exact_measurement_keeps_mean(self):
        b = EkfBelief(np.array([1.0, 2.0, 3.0, 0.5, 0.5, 0.5]), np.eye(6) * 0.1)
        out, stats = ekf_update(b, np.array([1.0, 2.0, 3.0]), NOISE)
        assert np.allclose(out.mean, b.mean, atol=1e-12)
        assert np.trace(out.covariance) < np.trace(b.covariance)
        assert stats.nis == pytest.approx(0.0, abs=1e-12)

    def test_infinite_noise_is_no_information(self):
        b = EkfBelief(np.array([1.0, 2.0, 3.0, 0.5, 0.5, 0.5]), np.eye(6) * 0.1)
        huge = NoiseConfig(0.01, NOISE.measurement_cov * 1e12)
        out, _ = ekf_update(b, np.array([5.0, -4.0, 2.0]), huge)
        assert np.max(np.abs(out.mean - b.mean)) < 1e-6

    def test_noiseless_tracking_converges(self):
        s0 = ShuttleState(np.array([0.0, 0.0, 3.0]), np.array([4.0, 1.0, 5.0]))
        truth = _simulate_positions(s0, PARAMS, 0.005, 50)
        prior = EkfBelief(
            truth[0] + np.array([0.2, -0.2, 0.1, 1.0, -1.0, 0.5]),
            np.diag([0.25] * 3 + [4.0] * 3),
        )
        tiny = NoiseConfig.isotropic(process_psd=1e-8, measurement_std=1e-4)
        b = prior
        for k in range(1, 51):
            b = ekf_predict(b, PARAMS, tiny, 0.005)
            b, _ = ekf_update(b, truth[k][:3], tiny)
        assert np.linalg.norm(b.mean[:3] - truth[50][:3]) < 1e-3

    def test_covariance_stays_symmetric_psd(self, rng):
        b = EkfBelief(np.array([0.0, 0.0, 3.0, 2.0, 0.0, 4.0]), np.eye(6))
        for _ in range(100):
            b = ekf_predict(b, PARAMS, NOISE, 0.005)
            z = b.mean[:3] + rng.normal(0, 0.005, 3)
            b, _ = ekf_update(b, z, NOISE)
            cov = b.covariance
            assert np.max(np.abs(cov - cov.T)) < 1e-9
            assert np.min(np.linalg.eigvalsh(cov)) > -1e-9

    @given(spd_matrices(6), spd_matrices(3), arrays(np.float64, 6, elements=finite),
           arrays(np.float64, 3, elements=finite))
    def test_joseph_posterior_is_psd_and_below_prior(self, prior, r, mean, z):
        post, _ = ekf_update(EkfBelief(mean, prior), z, NoiseConfig(0.0, r))
        cov = post.covariance
        tol = 1e-12 * np.linalg.norm(prior, 2)
        assert np.array_equal(cov, cov.T)
        assert np.min(np.linalg.eigvalsh(cov)) >= -tol
        assert np.min(np.linalg.eigvalsh(prior - cov)) >= -tol

    def test_nis_consistency(self):
        rng = np.random.default_rng(4)
        s0 = ShuttleState(np.array([0.0, 0.0, 30.0]), np.array([3.0, -1.0, 8.0]))
        truth = _simulate_positions(s0, PARAMS, 0.005, 1000)
        sigma = 0.005
        noise = NoiseConfig.isotropic(process_psd=1e-4, measurement_std=sigma)
        b = EkfBelief(truth[0], np.diag([sigma**2] * 3 + [0.01] * 3))
        nis = []
        for k in range(1, 1001):
            b = ekf_predict(b, PARAMS, noise, 0.005)
            z = truth[k][:3] + rng.normal(0, sigma, 3)
            b, stats = ekf_update(b, z, noise)
            nis.append(stats.nis)
        mean_nis = float(np.mean(nis))
        assert 2.35 < mean_nis < 3.72  # chi-square(3) consistency band

    def test_repeated_updates_converge(self):
        b = EkfBelief(np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]), np.eye(6))
        z = np.array([2.0, 0.0, 3.0])
        sharp = NoiseConfig.isotropic(process_psd=0.0, measurement_std=1e-6)
        for _ in range(10):
            prev = b.mean.copy()
            b, _ = ekf_update(b, z, sharp)
        assert np.allclose(b.mean[:3], z, atol=1e-6)
        assert np.allclose(b.mean, prev, atol=1e-6)  # fixed point reached

    def test_singular_innovation_errors(self):
        b = EkfBelief(np.zeros(6), np.zeros((6, 6)))
        degenerate = NoiseConfig(0.0, np.zeros((3, 3)))
        with pytest.raises(NumericalFailureError, match="singular innovation covariance"):
            ekf_update(b, np.zeros(3), degenerate)

    def test_rank_deficient_innovation_errors(self):
        cov = np.zeros((6, 6))
        cov[:3, :3] = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]  # rank 2
        degenerate = NoiseConfig(0.0, np.zeros((3, 3)))
        with pytest.raises(NumericalFailureError, match="singular innovation covariance"):
            ekf_update(EkfBelief(np.zeros(6), cov), np.zeros(3), degenerate)

    @pytest.mark.parametrize("z, message", [
        ([1.0, 2.0], "measurement must have shape"),
        ([[1.0, 2.0, 3.0]], "measurement must have shape"),
        ([np.nan, 2.0, 3.0], "measurement must be finite"),
        ([1.0, -np.inf, 3.0], "measurement must be finite"),
    ])
    def test_bad_measurement_rejected(self, z, message):
        b = EkfBelief(np.array([1.0, 2.0, 3.0, 0.5, 0.5, 0.5]), np.eye(6) * 0.1)
        with pytest.raises(ValueError, match=message):
            ekf_update(b, z, NOISE)


class TestPredictTrajectory:
    @pytest.mark.parametrize("dt, horizon, message", [
        *[(dt, 0.5, "dt must be positive") for dt in (0.0, -0.005, np.nan, np.inf)],
        *[(0.005, h, "horizon must be positive") for h in (0.0, -1.0, np.nan, np.inf)],
    ])
    def test_bad_step_or_horizon_rejected(self, dt, horizon, message):
        b = EkfBelief(np.array([0.0, 0.0, 5.0, 3.0, 0.0, 2.0]), np.eye(6) * 0.01)
        with pytest.raises(ValueError, match=message):
            predict_trajectory(b, PARAMS, dt, horizon)

    def test_matches_simulator(self):
        b = EkfBelief(np.array([0.0, 0.0, 5.0, 3.0, 0.0, 2.0]), np.eye(6) * 0.01)
        traj = predict_trajectory(b, PARAMS, 0.005, 0.5)
        s0 = ShuttleState(b.mean[:3], b.mean[3:])
        # past the horizon, so no compared sample comes from the final step
        # that simulate_to_ground shortens to end exactly at t_max
        sim = simulate_to_ground(s0, PARAMS, dt=0.005, t_max=1.0).trajectory
        n = len(traj)
        predicted = [b]
        for _ in range(n - 1):
            predicted.append(ekf_predict(predicted[-1], PARAMS, NOISE, 0.005))
        # every flight loop runs the one RK4 kernel: the states agree bit for bit
        flight = np.hstack([traj.positions, traj.velocities])
        assert np.array_equal(flight, np.hstack([sim.positions, sim.velocities])[:n])
        assert np.array_equal(flight, _simulate_positions(s0, PARAMS, 0.005, n - 1))
        assert np.array_equal(flight, np.array([belief.mean for belief in predicted]))

    def test_zero_velocity_apex_is_start(self):
        b = EkfBelief(np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0]), np.eye(6) * 0.01)
        traj = predict_trajectory(b, PARAMS, 0.01, 0.5)
        assert np.argmax(traj.positions[:, 2]) == 0

    def test_overflowing_prediction_names_the_time(self):
        """A finite belief whose flight overflows raises, as `simulate_to_ground` does, rather
        than return NaN samples that no strike point can be selected from."""
        b = EkfBelief(np.array([0.0, 0.0, 3.0, 1e80, 0.0, 0.0]), np.eye(6))
        with pytest.raises(ValueError, match=r"^flight state stopped being finite at t = 1.01 s$"):
            predict_trajectory(b, PARAMS, 0.01, 0.5, t0=1.0)

    def test_short_horizon_single_sample(self):
        b = EkfBelief(np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0]), np.eye(6) * 0.01)
        traj = predict_trajectory(b, PARAMS, 0.01, 0.005)
        assert len(traj) == 1


class TestSelectHitPoint:
    @staticmethod
    def _descending():
        b = EkfBelief(np.array([0.0, 0.0, 3.0, 1.0, 0.0, 0.0]), np.eye(6) * 0.01)
        return predict_trajectory(b, DRAG_FREE, 0.005, 1.0)

    def test_band_crossing_matches_linear_scan(self):
        traj = self._descending()
        criteria = HitCriteria(height_band=(1.0, 1.3))
        target = select_hit_point(traj, criteria)
        # oracle: first sample whose height lies in the band
        expected = next(
            i for i, z in enumerate(traj.positions[:, 2]) if 1.0 <= z <= 1.3
        )
        assert target is not None
        assert target.hit_time == pytest.approx(traj.times[expected])
        assert np.allclose(target.hit_racket_pose.position, traj.positions[expected])

    def test_unreachable_band_returns_none(self):
        traj = self._descending()
        assert select_hit_point(traj, HitCriteria(height_band=(5.0, 6.0))) is None

    def test_volume_filter(self):
        traj = self._descending()
        box = Box(np.array([0.0, 0.0, 1.15]), np.array([2.0, 0.4, 0.3]))
        criteria = HitCriteria(height_band=(0.5, 2.5), volume=box)
        target = select_hit_point(traj, criteria)
        assert target is not None
        assert box.contains(target.hit_racket_pose.position)

    def test_apex_preference(self):
        b = EkfBelief(np.array([0.0, 0.0, 1.0, 1.0, 0.0, 4.0]), np.eye(6) * 0.01)
        traj = predict_trajectory(b, DRAG_FREE, 0.005, 1.0)
        earliest = select_hit_point(traj, HitCriteria(height_band=(1.0, 3.0)))
        apex = select_hit_point(
            traj, HitCriteria(height_band=(1.0, 3.0), preference="apex")
        )
        t_apex = traj.times[int(np.argmax(traj.positions[:, 2]))]
        assert earliest.hit_time < apex.hit_time
        assert abs(apex.hit_time - t_apex) <= abs(earliest.hit_time - t_apex)

    @pytest.mark.parametrize("racket_quat, message", [
        ([2.0, 0.0, 0.0, 0.0], r"^racket_quat is not unit norm \(\|q\| = 2\.0\)$"),
        ([1.0, 0.0, 0.0], r"^racket_quat must have shape \(4,\), got \(3,\)$"),
        ([np.nan, 0.0, 0.0, 0.0], r"^racket_quat is not unit norm \(\|q\| = nan\)$"),
    ], ids=["not_unit", "wrong_shape", "nan"])
    def test_racket_quat_checked_at_construction(self, racket_quat, message):
        with pytest.raises(ValueError, match=message):
            HitCriteria(height_band=(1.0, 1.3), racket_quat=racket_quat)

    def test_racket_quat_stored_as_given(self):
        quat = np.array([-1.0, 0.0, 0.0, 0.0])
        criteria = HitCriteria(height_band=(1.0, 1.3), racket_quat=quat)
        assert criteria.racket_quat is quat
        target = select_hit_point(self._descending(), criteria)
        assert target.hit_racket_pose.orientation.tolist() == [1.0, 0.0, 0.0, 0.0]


class TestTrackMeasurements:
    def test_log_shape_and_determinism(self, tmp_path):
        s0 = ShuttleState(np.array([0.0, 0.0, 3.0]), np.array([4.0, 0.0, 5.0]))
        truth = _simulate_positions(s0, PARAMS, 0.005, 30)
        times = np.arange(31) * 0.005
        prior = EkfBelief(truth[0], np.eye(6) * 0.01)
        _, rows1 = track_measurements(times, truth[:, :3], prior, PARAMS, NOISE)
        _, rows2 = track_measurements(times, truth[:, :3], prior, PARAMS, NOISE)
        assert rows1.shape == (31, 8)
        assert np.array_equal(rows1, rows2)
        path = tmp_path / "log.csv"
        save_filter_log_csv(rows1, path)
        assert path.read_text().splitlines()[0] == "t,mx,my,mz,mvx,mvy,mvz,nis"

    def test_measurement_csv_round_trip(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text("t,x,y,z\n0.0,1.0,2.0,3.0\n0.005,1.1,2.1,3.1\n")
        times, zs = load_measurements_csv(path)
        assert times.shape == (2,)
        assert np.allclose(zs[1], [1.1, 2.1, 3.1])

    def test_measurement_csv_rejects_non_finite_row(self, tmp_path):
        path = tmp_path / "meas.csv"
        path.write_text("t,x,y,z\n0.0,1.0,2.0,3.0\n0.005,nan,2.1,3.1\n0.01,1.2,2.2,3.2\n")
        with pytest.raises(ValueError, match=r"meas\.csv: row 2 "):
            load_measurements_csv(path)

    def test_latency_shifts_timestamps(self):
        s0 = ShuttleState(np.array([0.0, 0.0, 3.0]), np.array([4.0, 0.0, 5.0]))
        truth = _simulate_positions(s0, PARAMS, 0.005, 10)
        times = np.arange(11) * 0.005
        prior = EkfBelief(truth[0], np.eye(6) * 0.01)
        _, plain = track_measurements(times, truth[:, :3], prior, PARAMS, NOISE)
        _, lagged = track_measurements(
            times, truth[:, :3], prior, PARAMS, NOISE, latency=0.02
        )
        assert np.allclose(lagged[:, 0], plain[:, 0] - 0.02)
        assert np.allclose(lagged[:, 1:], plain[:, 1:])  # same gaps, same estimates

    @staticmethod
    def _matches_the_public_steps(times, zs, prior, noise, latency=0.0):
        belief, rows = track_measurements(times, zs, prior, PARAMS, noise, latency=latency)
        shifted = times - latency
        b, expected = prior, []
        for i in range(times.size):
            if i > 0:
                b = ekf_predict(b, PARAMS, noise, float(shifted[i] - shifted[i - 1]))
            b, stats = ekf_update(b, zs[i], noise)
            expected.append([shifted[i], *b.mean, stats.nis])
        # bit for bit: the log is exactly what the public calls return
        assert rows.tobytes() == np.array(expected).tobytes()
        assert belief.mean.tobytes() == b.mean.tobytes()
        assert belief.covariance.tobytes() == b.covariance.tobytes()

    @given(measurement_sequences())
    def test_runs_the_public_predict_and_update(self, sequence):
        times, zs, latency = sequence
        prior = EkfBelief(np.concatenate([zs[0], np.zeros(3)]), np.diag([0.01] * 3 + [25.0] * 3))
        self._matches_the_public_steps(times, zs, prior, NOISE, latency)

    @pytest.mark.parametrize("jitter, gaps", [(0.0, 8), (1e-3, 100)], ids=["regular", "jittered"])
    def test_process_noise_per_gap_matches_the_public_steps(self, jitter, gaps):
        rng = np.random.default_rng(17)
        times = np.arange(101) * 0.005 + rng.uniform(-jitter, jitter, 101)
        assert np.unique(np.diff(times)).size == gaps
        s0 = ShuttleState(np.array([0.0, 0.0, 3.0]), np.array([4.0, 1.0, 5.0]))
        zs = _simulate_positions(s0, PARAMS, 0.005, 100)[:, :3] + rng.normal(0, 0.005, (101, 3))
        prior = EkfBelief(np.concatenate([zs[0], [4.0, 1.0, 5.0]]), np.diag([0.01] * 3 + [25.0] * 3))
        # the same gaps under another process noise: a Q kept from the last track would show
        for noise in (NOISE, NoiseConfig.isotropic(process_psd=1.0, measurement_std=0.005)):
            self._matches_the_public_steps(times, zs, prior, noise)

    def test_overflowing_track_raises_without_a_warning(self):
        # drag-free, so the mean stays finite while dt^2 P_vv overflows in the predict
        prior = EkfBelief(np.array([0.0, 0.0, 3.0, 1.0, 0.0, 1.0]), np.diag([0.01] * 3 + [1e300] * 3))
        zs = np.array([[0.0, 0.0, 3.0], [1.0, 0.0, 4.0]])
        before = np.geterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericalFailureError, match="^covariance has non-finite entries$"):
                track_measurements([0.0, 1e5], zs, prior, DRAG_FREE, NOISE)
        assert not caught, [str(w.message) for w in caught]
        assert np.geterr() == before

    def test_filter_outputs_match_their_pinned_digest(self):
        """SHA-256 over the log rows and final beliefs of 12 seeded serves.

        The digest was taken when the track still ran the public steps, so a change to
        the filter's arithmetic, or to the order of its operations, moves it. It also
        covers numpy's 6x6 float64 products, which another BLAS build may round differently.
        """
        rng = np.random.default_rng(2021)
        noise = NoiseConfig.isotropic(process_psd=1e-4, measurement_std=0.005)
        digest = hashlib.sha256()
        for k in range(12):
            state = [6.0, 0.0, 2.0, -8.0, 0.0, 5.0] if k == 0 else (
                [6.0, 0.0, 2.0] + rng.normal(0.0, [0.5, 0.5, 0.3])).tolist() + (
                [-8.0, 0.0, 5.0] + rng.normal(0.0, [2.0, 1.0, 1.0])).tolist()
            gaps = np.full(100, 0.005) if k % 3 else rng.uniform(0.003, 0.007, 100)
            times = np.concatenate([[0.0], np.cumsum(gaps)])
            truth = [state[:3]]
            for dt in gaps:
                state = _rk4_step(state, PARAMS, float(dt))
                truth.append(state[:3])
            zs = np.array(truth) + rng.normal(0.0, 0.005, (times.size, 3))
            prior = EkfBelief(np.concatenate([zs[0], (zs[1] - zs[0]) / gaps[0]]),
                              np.diag([0.01] * 3 + [25.0] * 3))
            belief, rows = track_measurements(times, zs, prior, PARAMS, noise)
            for a in (rows, belief.mean, belief.covariance):
                digest.update(a.tobytes())
        assert digest.hexdigest() == (
            "2605817eb53e6d3dd0dcf89d857a23f407308b73d682eda3903bc4b8f2906631")

    @pytest.mark.parametrize("times, latency", [
        ([0.0, np.nan, 0.01], 0.0),
        ([0.0, 0.005, 0.01], np.nan),
        ([0.0, 1e308, 1.5e308], -1e308),  # the shift overflows
    ])
    def test_non_finite_timestamps_rejected(self, times, latency):
        zs = np.array([[0.0, 0.0, 3.0], [0.02, 0.0, 3.02], [0.04, 0.0, 3.04]])
        prior = EkfBelief(np.array([0.0, 0.0, 3.0, 4.0, 0.0, 4.0]), np.eye(6) * 0.01)
        with pytest.raises(ValueError, match="timestamps shifted by latency"):
            track_measurements(times, zs, prior, PARAMS, NOISE, latency=latency)


def _per_step_track(times, zs, b0, p, n):
    """The track as a loop that checks each belief as soon as its step makes it, as
    `track_measurements` did before it held its beliefs: the same cores, checks and order."""
    times = np.asarray(times, dtype=np.float64)
    mean, cov = b0.mean, b0.covariance
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(times.size):
            if i > 0:
                dt = float(times[i] - times[i - 1])
                _check_dt(dt)
                q = estimator.process_noise(n.process_psd, dt)
                mean, cov = estimator._checked(*estimator._predict(mean, cov, p, q, dt), True)
            mean, cov, _ = estimator._update(mean, cov, zs[i], n.measurement_cov)
            estimator._checked(mean, cov, True)


def _raised(run):
    """The type and message of what `run()` raises, or None."""
    try:
        run()
    except Exception as e:
        return type(e), str(e)
    return None


# eigenvalue 1 - 2e3 along e2 - e5 (and 1 + 2e3 along e2 + e5): no prior absorbs it
_INDEFINITE_Q = np.eye(6)
_INDEFINITE_Q[2, 5] = _INDEFINITE_Q[5, 2] = 2e3


def _injected_track(kind, n, k, later):
    """A track of n measurements that fails at step k: a non-finite measurement, a huge one
    whose next predicted mean overflows under drag, a covariance that overflows over a 1e5 s
    gap, an indefinite Q over step k's gap, or a non-PSD prior built unchecked. `later`
    puts a NaN measurement after step k, so a later step raises too. Returns the track's
    arguments and the process-noise patch to run it under."""
    times = np.arange(n) * 0.005
    zs = np.array([0.0, 0.0, 3.0]) + times[:, None] * [4.0, 0.0, 4.0]
    zs = zs + np.random.default_rng([n, k]).normal(0.0, 0.005, (n, 3))
    prior = EkfBelief(np.array([0.0, 0.0, 3.0, 4.0, 0.0, 4.0]), np.diag([0.01] * 3 + [25.0] * 3))
    p, noise_of = PARAMS, estimator.process_noise
    if kind == "measurement":
        zs[k] = np.nan
    elif kind == "mean":
        zs[k] = 1e300
    elif kind == "overflow":
        # drag-free, with gaps so short that P_vv stays near 1e300 until step k's 1e5 s gap
        times = np.concatenate([np.arange(k) * 1e-160, 1e5 + 0.005 * np.arange(n - k)])
        prior = EkfBelief(np.array([0.0, 0.0, 3.0, 1.0, 0.0, 1.0]), np.diag([0.01] * 3 + [1e300] * 3))
        p = DRAG_FREE
    elif kind == "indefinite_q":
        times[k:] += 0.0021
        gap = float(times[k] - times[k - 1])

        def noise_of(psd, dt, real=estimator.process_noise):
            return _INDEFINITE_Q if dt == gap else real(psd, dt)
    else:
        prior = _record(EkfBelief, prior.mean, np.diag([0.01] * 3 + [25.0, 25.0, -1e-3]))
    if later is not None:
        zs[later] = np.nan
    return (times, zs, prior, p, NOISE), mock.patch.object(estimator, "process_noise", noise_of)


@st.composite
def injected_failures(draw):
    """A kind, a track longer than two blocks of held beliefs, a failing step, and maybe a
    later step that raises as well."""
    kind = draw(st.sampled_from(["measurement", "mean", "overflow", "indefinite_q", "prior"]))
    n = draw(st.integers(2 * estimator._HELD + 1, 4 * estimator._HELD + 20))
    k = draw(st.integers(0 if kind in ("measurement", "mean", "prior") else 1, n - 2))
    later = draw(st.none() | st.integers(k + 1, n - 1))
    return kind, n, k, later


class TestHeldBeliefChecks:
    """A track checks its beliefs a block at a time, and raises what a per-step check would."""

    @given(injected_failures())
    @settings(max_examples=60)
    def test_first_failure_matches_the_per_step_loop(self, failure):
        args, patch = _injected_track(*failure)
        with patch:
            expected = _raised(lambda: _per_step_track(*args))
            assert expected is not None  # every kind fails at or after step k
            assert _raised(lambda: track_measurements(*args)) == expected

    def test_failure_in_the_second_block_after_a_clean_first(self):
        args, patch = _injected_track("indefinite_q", 100, 40, later=45)
        # a block holds the beliefs of _HELD steps, two a step but one at step 0
        failing, second = 2 * 40 - 1, 2 * estimator._HELD - 1  # step 40's predicted belief
        assert second <= failing < second + 2 * estimator._HELD
        with patch, mock.patch.object(estimator, "_checked", wraps=estimator._checked) as checked:
            with pytest.raises(NumericalFailureError,
                               match="^covariance is not positive semidefinite$"):
                track_measurements(*args)
        # the first block passed its stacked check; the second is gone over from its start
        assert checked.call_count == failing - second + 1

    def test_memory_does_not_grow_with_the_track(self):
        """Beyond its (N, 8) log, a track holds one block of beliefs and the Q of at most that
        many gaps: stacking every belief would add 2N x 42 floats (3.4 MB here), and a Q kept
        for each of these jittered gaps about 2.4 MB. N is kept at 5,000 because tracemalloc
        slows the track about tenfold."""
        n = 5_000
        rng = np.random.default_rng(5)
        times = np.arange(n) * 0.005 + rng.uniform(-1e-3, 1e-3, n)
        zs = np.array([0.0, 0.0, 3.0]) + times[:, None] * [4.0, 0.0, 4.0]
        zs += rng.normal(0.0, 0.005, (n, 3))
        prior = EkfBelief(np.array([0.0, 0.0, 3.0, 4.0, 0.0, 4.0]), np.diag([0.01] * 3 + [25.0] * 3))
        tracemalloc.start()
        try:
            _, rows = track_measurements(times, zs, prior, PARAMS, NOISE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= rows.nbytes + 512 * 1024, peak - rows.nbytes

    def test_only_the_held_block_and_the_public_steps_check(self):
        """The cores neither check nor factorise, so no per-step Cholesky comes back into the
        track unseen: `_checked` is called by the belief's constructor, the two public steps
        and the held-block check alone, and `cholesky` is called in the last two checks only."""
        functions = {}
        for node in ast.parse(Path(estimator.__file__).read_text()).body:
            for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
                if isinstance(fn, ast.FunctionDef):
                    prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
                    functions[prefix + fn.name] = ast.unparse(fn)
        for core in ("_predict", "_update"):
            assert "_checked" not in functions[core] and "np.linalg" not in functions[core]
        assert {name for name, source in functions.items() if "_checked(" in source} == {
            "EkfBelief.__post_init__", "_checked", "_check_held", "ekf_predict", "ekf_update"}
        assert {name for name, source in functions.items() if "cholesky" in source} == {
            "_checked", "_check_held"}
