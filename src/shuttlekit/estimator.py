"""EKF over shuttle position/velocity plus interception planning.

The process model and its Jacobian both come from `shuttle`: the mean is
propagated by the simulator's RK4 step, with the skirt axis dropped from
the filter state, and the covariance by `shuttle.transition_jacobian`,
the exact derivative of that step. Every belief is checked, in step order, a
block at a time: a finite mean and covariance, and a covariance that is PSD to
-1e-9, tested by a Cholesky factorisation of P + 1e-9 I. Overflow inside a step
reads as inf and fails those checks with no numpy warning: the two steps and
`track_measurements` share one `np.errstate` guard, which a track enters once.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .goal import StrikeTarget
from .shuttle import (ShuttleParams, Trajectory, _check_dt, _finite_states, _rk4_step,
                      transition_jacobian)
from .spatial import Box, Pose, _csv_records, _quat, _record, _write_csv, quat_identity

Array = np.ndarray


class NumericalFailureError(RuntimeError):
    """Covariance lost positive semidefiniteness or an update became singular."""


@dataclass(frozen=True)
class EkfBelief:
    """Gaussian belief over [position(3), velocity(3)]."""

    mean: Array
    covariance: Array

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        cov = np.asarray(self.covariance, dtype=np.float64)
        if mean.shape != (6,):
            raise ValueError(f"mean must have shape (6,), got {mean.shape}")
        if cov.shape != (6, 6):
            raise ValueError(f"covariance must have shape (6, 6), got {cov.shape}")
        _checked(mean, cov)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)


_EYE6, _PSD_SHIFT = np.eye(6), 1e-9 * np.eye(6)
_HELD = 32  # a track holds the beliefs (two a step) of at most this many steps unchecked


def _checked(mean: Array, cov: Array, exactly_symmetric: bool = False) -> tuple[Array, Array]:
    """The (6,) mean and (6, 6) cov, once the mean is finite and cov is finite, symmetric within
    1e-9 and PSD: no eigenvalue below -1e-9, tested by a Cholesky factorisation of cov + 1e-9 I.
    The filter cores make their 0.5 (P + P^T) exactly symmetric and skip the symmetry test.
    Every belief is checked, in step order, a block at a time: a track's by `_check_held`."""
    if not all(map(math.isfinite, mean.tolist())):
        raise ValueError("mean has non-finite components")
    if not all(map(math.isfinite, cov.ravel().tolist())):
        raise NumericalFailureError("covariance has non-finite entries")
    # cov - cov.T is antisymmetric, so its max is its largest magnitude
    if not exactly_symmetric and not (cov - cov.T).max() <= 1e-9:
        raise NumericalFailureError("covariance is not symmetric")
    try:
        np.linalg.cholesky(cov + _PSD_SHIFT)
    except np.linalg.LinAlgError:
        raise NumericalFailureError("covariance is not positive semidefinite") from None
    return mean, cov


@dataclass(frozen=True)
class NoiseConfig:
    """Filter tuning: white-noise acceleration PSD and measurement covariance."""

    process_psd: float
    measurement_cov: Array

    def __post_init__(self):
        if not self.process_psd >= 0:  # NaN fails too
            raise ValueError(f"process_psd must be non-negative, got {self.process_psd}")
        if not math.isfinite(self.process_psd):
            raise ValueError(f"process_psd must be finite, got {self.process_psd}")
        r = np.asarray(self.measurement_cov, dtype=np.float64)
        if r.shape != (3, 3):
            raise ValueError("measurement_cov must have shape (3, 3)")
        if (not all(map(math.isfinite, r.ravel().tolist())) or not np.max(np.abs(r - r.T)) <= 1e-9
                or np.min(np.linalg.eigvalsh(r)) < -1e-12):
            raise ValueError("measurement_cov must be finite and symmetric PSD")
        object.__setattr__(self, "measurement_cov", r)

    @staticmethod
    def isotropic(process_psd: float, measurement_std: float) -> "NoiseConfig":
        return NoiseConfig(process_psd, measurement_std**2 * np.eye(3))


@dataclass(frozen=True)
class InnovationStats:
    nis: float


# A filter step's numpy arithmetic may overflow; the inf or nan it leaves fails the step's
# own checks, which raise with no numpy warning first. Each decorated call sets its own token.
_overflow_reads_inf = np.errstate(over="ignore", invalid="ignore")


def process_noise(psd: float, dt: float) -> Array:
    """White-noise-acceleration discretization, per-axis [dt^3/3, dt^2/2; dt^2/2, dt]."""
    try:
        a, b, c = psd * dt**3 / 3.0, psd * dt**2 / 2.0, psd * dt
    except OverflowError:  # a float's power raises where numpy's reads inf
        raise ValueError(f"process noise overflows over a gap of {dt:.9g} s") from None
    return np.array((
        (a, 0.0, 0.0, b, 0.0, 0.0), (0.0, a, 0.0, 0.0, b, 0.0), (0.0, 0.0, a, 0.0, 0.0, b),
        (b, 0.0, 0.0, c, 0.0, 0.0), (0.0, b, 0.0, 0.0, c, 0.0), (0.0, 0.0, b, 0.0, 0.0, c),
    ))


def _predict(mean: Array, cov: Array, p: ShuttleParams, q: Array, dt: float):
    """The unchecked predicted mean and covariance, with q the process noise over dt."""
    f = transition_jacobian(mean, p, dt)
    cov = f @ cov @ f.T + q
    return np.array(_rk4_step(mean.tolist(), p, dt)), 0.5 * (cov + cov.T)


def _update(mean: Array, cov: Array, z: Array, r: Array):
    """The unchecked posterior mean and covariance and the NIS of a (3,) measurement z."""
    if not all(map(math.isfinite, z.tolist())):
        raise ValueError("measurement must be finite")
    # S^-1 by its adjugate: one 3x3 inverse serves the gain and the NIS
    (s0, s1, s2), (s3, s4, s5), (s6, s7, s8) = (cov[:3, :3] + r).tolist()
    c0, c3, c6 = s4 * s8 - s5 * s7, s5 * s6 - s3 * s8, s3 * s7 - s4 * s6
    det = s0 * c0 + s1 * c3 + s2 * c6
    if det == 0.0 or not math.isfinite(det):
        raise NumericalFailureError("singular innovation covariance")
    s_inv = np.array((
        (c0, s2 * s7 - s1 * s8, s1 * s5 - s2 * s4),
        (c3, s0 * s8 - s2 * s6, s2 * s3 - s0 * s5),
        (c6, s1 * s6 - s0 * s7, s0 * s4 - s1 * s3),
    )) / det
    residual = z - mean[:3]
    gain = cov[:, :3] @ s_inv  # P H^T S^-1
    i_kh = _EYE6.copy()
    i_kh[:, :3] -= gain
    cov = i_kh @ cov @ i_kh.T + gain @ r @ gain.T
    return mean + gain @ residual, 0.5 * (cov + cov.T), float(residual @ s_inv @ residual)


def _check_held(held: list) -> None:
    """Check a track's held beliefs, [mean, cov, mean, cov, ...] in step order, and drop them:
    one stacked test passes them all (and an empty list), and only on its failure does
    `_checked` go over them in order, to raise the first failure as a per-step check would."""
    means, covs = np.array(held[::2]).reshape(-1, 6), np.array(held[1::2]).reshape(-1, 6, 6)
    held.clear()
    try:
        if np.isfinite(means).all() and np.isfinite(covs).all():
            np.linalg.cholesky(covs + _PSD_SHIFT)
            return
    except np.linalg.LinAlgError:
        pass
    for mean, cov in zip(means, covs):
        _checked(mean, cov, exactly_symmetric=True)


@_overflow_reads_inf
def ekf_predict(b: EkfBelief, p: ShuttleParams, n: NoiseConfig, dt: float) -> EkfBelief:
    """Propagate mean through the flight model and covariance by F P F^T + Q."""
    _check_dt(dt)
    q = process_noise(n.process_psd, dt)
    mean, cov = _predict(b.mean, b.covariance, p, q, dt)
    return _record(EkfBelief, *_checked(mean, cov, exactly_symmetric=True))


@_overflow_reads_inf
def ekf_update(
    b: EkfBelief, z: Array, n: NoiseConfig
) -> tuple[EkfBelief, InnovationStats]:
    """Position-measurement update (H = [I 0]) in Joseph form, reporting NIS."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (3,):
        raise ValueError("measurement must have shape (3,)")
    mean, cov, nis = _update(b.mean, b.covariance, z, n.measurement_cov)
    return _record(EkfBelief, *_checked(mean, cov, exactly_symmetric=True)), InnovationStats(nis)


def predict_trajectory(
    b: EkfBelief, p: ShuttleParams, dt: float, horizon: float, t0: float = 0.0
) -> Trajectory:
    """Noise-free mean propagation, sampled at t0, t0+dt, ... up to t0+horizon. A state that
    stops being finite raises ValueError naming the time."""
    _check_dt(dt)
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    steps = int(np.floor(horizon / dt + 1e-12))
    states = [b.mean.tolist()]
    for _ in range(steps):
        states.append(_rk4_step(states[-1], p, dt))
    times = t0 + dt * np.arange(steps + 1)
    data = _finite_states(times, states)
    return Trajectory(times, data[:, :3], data[:, 3:])


@dataclass(frozen=True)
class HitCriteria:
    """Feasibility window for strike selection: a sample is feasible when its height lies in
    height_band and, if a reachable volume is given, it falls inside it. The racket orientation
    and recovery root pose are carried through into the resulting strike target."""

    height_band: tuple[float, float]
    volume: Optional[Box] = None
    preference: str = "earliest"
    racket_quat: Array = field(default_factory=quat_identity)
    recovery_root: Pose = field(default_factory=Pose.identity)

    def __post_init__(self):
        lo, hi = self.height_band
        if not lo < hi:
            raise ValueError("height band must satisfy lo < hi")
        if self.preference not in ("earliest", "apex"):
            raise ValueError("preference must be 'earliest' or 'apex'")
        _quat(self.racket_quat, "racket_quat")  # checked only: the value is stored as given


def select_hit_point(traj: Trajectory, criteria: HitCriteria) -> Optional[StrikeTarget]:
    """Pick the strike sample from a predicted trajectory: 'earliest' returns the first feasible
    sample (the most preparation time), 'apex' the feasible sample closest in time to the
    trajectory apex, ties going to the earlier sample. Returns None when nothing is feasible."""
    if len(traj) == 0:
        raise ValueError("trajectory is empty")
    lo, hi = criteria.height_band
    zs = traj.positions[:, 2]
    feasible = (zs >= lo) & (zs <= hi)
    if criteria.volume is not None:
        feasible &= criteria.volume.contains(traj.positions)
    idx = np.flatnonzero(feasible)
    if idx.size == 0:
        return None
    if criteria.preference == "earliest":
        pick = int(idx[0])
    else:
        t_apex = traj.times[int(np.argmax(zs))]
        gaps = np.abs(traj.times[idx] - t_apex)
        pick = int(idx[int(np.argmin(gaps))])  # argmin takes the first minimum
    return StrikeTarget(
        hit_time=float(traj.times[pick]),
        hit_racket_pose=Pose(traj.positions[pick], criteria.racket_quat),
        recovery_root_pose=criteria.recovery_root,
    )


@_overflow_reads_inf
def track_measurements(
    times: Array,
    measurements: Array,
    b0: EkfBelief,
    p: ShuttleParams,
    n: NoiseConfig,
    latency: float = 0.0,
) -> tuple[EkfBelief, Array]:
    """Run predict/update over a measurement sequence: the first measurement updates the prior
    in place, each later one follows a predict over the timestamp gap, and `latency` shifts all
    timestamps earlier by a fixed lag before filtering. Returns the final belief and a log array
    with rows [t, mean(6), nis]. The beliefs are checked a block at a time, and always before an
    error from a later step is raised: the first belief that fails raises, as if each step had
    checked its own."""
    times = np.asarray(times, dtype=np.float64) - latency
    measurements = np.asarray(measurements, dtype=np.float64)
    if times.ndim != 1 or measurements.shape != (times.size, 3):
        raise ValueError("need times (N,) and measurements (N, 3)")
    if times.size == 0:
        raise ValueError("empty measurement sequence")
    if not np.all(np.isfinite(times)):
        raise ValueError(f"timestamps shifted by latency {latency} are not all finite")
    if np.any(np.diff(times) <= 0):
        raise ValueError("timestamps must be strictly increasing")
    rows = np.empty((times.size, 8))
    rows[:, 0] = times
    mean, cov, r, qs, held = b0.mean, b0.covariance, n.measurement_cov, {}, []
    try:
        for i in range(times.size):
            if i > 0:
                dt = float(times[i] - times[i - 1])
                q = qs.get(dt)
                if q is None:  # Q is built once per distinct gap, and kept for one block
                    _check_dt(dt)
                    q = qs[dt] = process_noise(n.process_psd, dt)
                mean, cov = _predict(mean, cov, p, q, dt)
                held += mean, cov
            mean, cov, rows[i, 7] = _update(mean, cov, measurements[i], r)
            held += mean, cov
            rows[i, 1:7] = mean
            if i % _HELD == _HELD - 1:
                _check_held(held)
                qs.clear()
    finally:  # a failing belief raises in place of any error that a later step hit
        _check_held(held)
    return _record(EkfBelief, mean, cov), rows


# ---------------------------------------------------------------------------
# File formats


_MEASUREMENT_COLUMNS = ("t", "x", "y", "z")


def load_measurements_csv(path) -> tuple[Array, Array]:
    """Read the columns `t,x,y,z`, by header name. Returns (times, positions)."""

    def read(cells, at):
        values = [float(cells[at[c]]) for c in _MEASUREMENT_COLUMNS]
        return values, values

    # an empty file has no header to check
    rows = _csv_records(path, _MEASUREMENT_COLUMNS, read) if os.path.getsize(path) else []
    if not rows:
        raise ValueError(f"no measurements in {path}")
    data = np.array(rows)
    return data[:, 0], data[:, 1:]


def save_filter_log_csv(rows: Array, path) -> None:
    """Write `t,mx,my,mz,mvx,mvy,mvz,nis` rows at 9 significant digits."""
    _write_csv(path, ("t", "mx", "my", "mz", "mvx", "mvy", "mvz", "nis"), rows)
