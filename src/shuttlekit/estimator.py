"""EKF over shuttle position/velocity plus interception planning.

The process model and its Jacobian both come from `shuttle`: the mean is
propagated by the simulator's RK4 step, with the skirt axis dropped from
the filter state, and the covariance by `shuttle.transition_jacobian`,
the exact derivative of that step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .goal import StrikeTarget
from .shuttle import ShuttleParams, Trajectory, _rk4_step, transition_jacobian
from .spatial import Box, Pose, quat_identity

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
        if not all(map(math.isfinite, mean.tolist())):
            raise ValueError("mean has non-finite components")
        if cov.shape != (6, 6):
            raise ValueError(f"covariance must have shape (6, 6), got {cov.shape}")
        if not all(map(math.isfinite, cov.ravel().tolist())):
            raise NumericalFailureError("covariance has non-finite entries")
        if not (cov - cov.T).max() <= 1e-9:  # antisymmetric: its max is its largest magnitude
            raise NumericalFailureError("covariance is not symmetric")
        if not np.linalg.eigvalsh(cov)[0] >= -1e-9:  # eigenvalues come in ascending order
            raise NumericalFailureError("covariance is not positive semidefinite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)


@dataclass(frozen=True)
class NoiseConfig:
    """Filter tuning: white-noise acceleration PSD and measurement covariance."""

    process_psd: float
    measurement_cov: Array

    def __post_init__(self):
        if not self.process_psd >= 0:  # NaN fails too
            raise ValueError(f"process_psd must be non-negative, got {self.process_psd}")
        r = np.asarray(self.measurement_cov, dtype=np.float64)
        if r.shape != (3, 3):
            raise ValueError("measurement_cov must have shape (3, 3)")
        if not np.max(np.abs(r - r.T)) <= 1e-9 or np.min(np.linalg.eigvalsh(r)) < -1e-12:
            raise ValueError("measurement_cov must be finite and symmetric PSD")
        object.__setattr__(self, "measurement_cov", r)

    @staticmethod
    def isotropic(process_psd: float, measurement_std: float) -> "NoiseConfig":
        return NoiseConfig(process_psd, measurement_std**2 * np.eye(3))


@dataclass(frozen=True)
class InnovationStats:
    nis: float


def process_noise(psd: float, dt: float) -> Array:
    """White-noise-acceleration discretization, per-axis [dt^3/3, dt^2/2; dt^2/2, dt]."""
    a, b, c = psd * dt**3 / 3.0, psd * dt**2 / 2.0, psd * dt
    return np.array((
        (a, 0.0, 0.0, b, 0.0, 0.0), (0.0, a, 0.0, 0.0, b, 0.0), (0.0, 0.0, a, 0.0, 0.0, b),
        (b, 0.0, 0.0, c, 0.0, 0.0), (0.0, b, 0.0, 0.0, c, 0.0), (0.0, 0.0, b, 0.0, 0.0, c),
    ))


def ekf_predict(b: EkfBelief, p: ShuttleParams, n: NoiseConfig, dt: float) -> EkfBelief:
    """Propagate mean through the flight model and covariance by F P F^T + Q."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    mean = _rk4_step(b.mean.tolist(), p, dt)
    f = transition_jacobian(b.mean, p, dt)
    cov = f @ b.covariance @ f.T + process_noise(n.process_psd, dt)
    cov = 0.5 * (cov + cov.T)
    return EkfBelief(np.array(mean), cov)


def ekf_update(
    b: EkfBelief, z: Array, n: NoiseConfig
) -> tuple[EkfBelief, InnovationStats]:
    """Position-measurement update (H = [I 0]) in Joseph form, reporting NIS."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (3,):
        raise ValueError("measurement must have shape (3,)")
    if not all(map(math.isfinite, z.tolist())):
        raise ValueError("measurement must be finite")
    p_cov = b.covariance
    # S^-1 by its adjugate: one 3x3 inverse serves the gain and the NIS
    (s0, s1, s2), (s3, s4, s5), (s6, s7, s8) = (p_cov[:3, :3] + n.measurement_cov).tolist()
    c0, c3, c6 = s4 * s8 - s5 * s7, s5 * s6 - s3 * s8, s3 * s7 - s4 * s6
    det = s0 * c0 + s1 * c3 + s2 * c6
    if det == 0.0 or not math.isfinite(det):
        raise NumericalFailureError("singular innovation covariance")
    s_inv = np.array((
        (c0, s2 * s7 - s1 * s8, s1 * s5 - s2 * s4),
        (c3, s0 * s8 - s2 * s6, s2 * s3 - s0 * s5),
        (c6, s1 * s6 - s0 * s7, s0 * s4 - s1 * s3),
    )) / det
    residual = z - b.mean[:3]
    gain = p_cov[:, :3] @ s_inv  # P H^T S^-1
    mean = b.mean + gain @ residual
    i_kh = np.eye(6)
    i_kh[:, :3] -= gain
    cov = i_kh @ p_cov @ i_kh.T + gain @ n.measurement_cov @ gain.T
    cov = 0.5 * (cov + cov.T)
    nis = float(residual @ s_inv @ residual)
    return EkfBelief(mean, cov), InnovationStats(nis)


def predict_trajectory(
    b: EkfBelief, p: ShuttleParams, dt: float, horizon: float, t0: float = 0.0
) -> Trajectory:
    """Noise-free mean propagation, sampled at t0, t0+dt, ... up to t0+horizon."""
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    steps = int(np.floor(horizon / dt + 1e-12))
    states = [b.mean.tolist()]
    for _ in range(steps):
        states.append(_rk4_step(states[-1], p, dt))
    data = np.array(states)
    return Trajectory(t0 + dt * np.arange(steps + 1), data[:, :3], data[:, 3:])


@dataclass(frozen=True)
class HitCriteria:
    """Feasibility window for strike selection.

    A sample is feasible when its height lies in height_band and, if a
    reachable volume is given, the point falls inside it. The racket
    orientation and recovery root pose are carried through into the
    resulting strike target.
    """

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


def select_hit_point(traj: Trajectory, criteria: HitCriteria) -> Optional[StrikeTarget]:
    """Pick the strike sample from a predicted trajectory.

    'earliest' returns the first feasible sample (maximizing preparation
    time); 'apex' returns the feasible sample closest in time to the
    trajectory apex. Ties break toward the earlier sample. Returns None
    when nothing is feasible.
    """
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


def track_measurements(
    times: Array,
    measurements: Array,
    b0: EkfBelief,
    p: ShuttleParams,
    n: NoiseConfig,
    latency: float = 0.0,
) -> tuple[EkfBelief, Array]:
    """Run predict/update over a measurement sequence.

    The first measurement updates the prior in place; each later one is
    preceded by a predict over the timestamp gap. `latency` shifts all
    timestamps earlier by a fixed lag before filtering. Returns the final
    belief and a log array with rows [t, mean(6), nis].
    """
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
    belief = b0
    for i in range(times.size):
        if i > 0:
            belief = ekf_predict(belief, p, n, float(times[i] - times[i - 1]))
        belief, stats = ekf_update(belief, measurements[i], n)
        rows[i, 0] = times[i]
        rows[i, 1:7] = belief.mean
        rows[i, 7] = stats.nis
    return belief, rows


# ---------------------------------------------------------------------------
# File formats


def load_measurements_csv(path) -> tuple[Array, Array]:
    """Read `t,x,y,z` rows. Returns (times, positions)."""
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines()[1:] if ln.strip()]
    if not lines:
        raise ValueError(f"no measurements in {path}")
    rows = []
    for k, ln in enumerate(lines, start=1):
        try:
            rows.append([float(v) for v in ln.split(",")])
        except ValueError as exc:
            raise ValueError(f"{path}: row {k}: {exc}") from exc
        if len(rows[-1]) != 4:
            raise ValueError(f"{path}: row {k} has {len(rows[-1])} cells, expected 4 (t,x,y,z)")
    data = np.array(rows)
    bad = ~np.isfinite(data).all(axis=1)
    if bad.any():
        raise ValueError(f"{path}: row {int(np.argmax(bad)) + 1} has a non-finite value")
    return data[:, 0], data[:, 1:4]


def save_filter_log_csv(rows: Array, path) -> None:
    """Write `t,mx,my,mz,mvx,mvy,mvz,nis` rows at 9 significant digits."""
    with open(path, "w") as f:
        f.write("t,mx,my,mz,mvx,mvy,mvz,nis\n")
        for row in rows:
            f.write(",".join(format(v, ".9g") for v in row) + "\n")
