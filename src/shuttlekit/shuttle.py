"""Shuttlecock flight physics, court geometry, and racket impact.

Flight model: gravity plus quadratic air drag, integrated with classical
RK4. The feather skirt is reduced to a kinematic axis that relaxes toward
the velocity direction; it only selects which restitution coefficient a
racket impact uses (head-first vs skirt-first).
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Optional

import numpy as np

from .spatial import REQUIRED, Pose, Twist, _check, _load_json, _record, _vec3, _write_csv

Array = np.ndarray

DEFAULT_DT = 0.005  # 200 Hz physics rate


class NoContactError(RuntimeError):
    """Raised when a racket impact is requested but the shuttle is receding."""


@dataclass(frozen=True)
class ShuttleParams:
    """Physical constants of the shuttle model.

    drag_coeff is the quadratic drag constant k in F_drag = -k * |v| * v.
    axis_damping is the first-order rate at which the skirt axis relaxes
    toward the velocity direction. None of the defaults are calibrated
    against a specific shuttle; treat them as placeholders for config.
    """

    mass: float
    drag_coeff: float
    axis_damping: float = 0.0
    gravity: float = 9.81
    restitution_head: float = 0.85
    restitution_skirt: float = 0.5

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        if self.drag_coeff < 0:
            raise ValueError("drag_coeff must be non-negative")
        if self.axis_damping < 0:
            raise ValueError("axis_damping must be non-negative")
        for name in ("restitution_head", "restitution_skirt"):
            e = getattr(self, name)
            if not 0.0 <= e <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")

    def terminal_speed(self) -> float:
        """Free-fall speed where drag balances gravity."""
        if self.drag_coeff == 0:
            return float("inf")
        return float(np.sqrt(self.mass * self.gravity / self.drag_coeff))


@dataclass(frozen=True)
class ShuttleState:
    position: Array
    velocity: Array
    axis: Optional[Array] = None

    def __post_init__(self):
        object.__setattr__(self, "position", _vec3(self.position, "position"))
        object.__setattr__(self, "velocity", _vec3(self.velocity, "velocity"))
        if self.axis is not None:
            object.__setattr__(self, "axis", _unit_axis(*_vec3(self.axis, "axis").tolist()))


def _unit_axis(ax: float, ay: float, az: float) -> Array:
    """A skirt axis, which must be unit norm already, divided by its norm."""
    n = math.hypot(ax, ay, az)
    if abs(n - 1.0) > 1e-6:
        raise ValueError("axis must be unit norm")
    return np.array((ax / n, ay / n, az / n))


@dataclass(frozen=True)
class CourtGeometry:
    """Net location and the opponent half the return should land in."""

    net_height: float
    net_x: float
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not self.net_height > 0:  # NaN fails too
            raise ValueError("net_height must be positive")
        if not math.isfinite(self.net_x):
            raise ValueError(f"net_x must be finite, got {self.net_x}")
        if not self.x_min < self.x_max:
            raise ValueError("x_min must be less than x_max")
        if not self.y_min < self.y_max:
            raise ValueError("y_min must be less than y_max")


@dataclass(frozen=True)
class Landing:
    time: float
    point: Array


@dataclass(frozen=True)
class Trajectory:
    """Time-stamped flight samples."""

    times: Array       # (N,)
    positions: Array   # (N, 3)
    velocities: Array  # (N, 3)

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class FlightResult:
    trajectory: Trajectory
    landing: Optional[Landing]  # None: still airborne at t_max


@dataclass(frozen=True)
class CourtResult:
    in_bounds: bool
    cleared_net: bool


def _check_dt(dt: float) -> None:
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")


def _drag_accel(vx: float, vy: float, vz: float, km: float, g: float):
    """Acceleration at velocity (vx, vy, vz): gravity minus km |v| v, km = k / m."""
    if km == 0.0:
        # no drag term: km * |v| would be 0 * inf = NaN once |v|^2 overflows
        return 0.0, 0.0, -g
    ks = km * math.sqrt(vx * vx + vy * vy + vz * vz)
    return -ks * vx, -ks * vy, -g - ks * vz


def _drag_jacobian(vx: float, vy: float, vz: float, km: float) -> tuple:
    """d(accel)/d(velocity) of _drag_accel, row-major: -km (|v| I + v v^T / |v|)."""
    speed = math.sqrt(vx * vx + vy * vy + vz * vz)
    if speed == 0.0 or km == 0.0:
        return (0.0,) * 9
    a, b = -km * speed, -km / speed
    xy, xz, yz = b * vx * vy, b * vx * vz, b * vy * vz
    return (a + b * vx * vx, xy, xz, xy, a + b * vy * vy, yz, xz, yz, a + b * vz * vz)


def _mat3_mul(a: tuple, b: tuple) -> tuple:
    """Product of two row-major 3x3 matrices, each held as 9 floats."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return (
        a0 * b0 + a1 * b3 + a2 * b6, a0 * b1 + a1 * b4 + a2 * b7, a0 * b2 + a1 * b5 + a2 * b8,
        a3 * b0 + a4 * b3 + a5 * b6, a3 * b1 + a4 * b4 + a5 * b7, a3 * b2 + a4 * b5 + a5 * b8,
        a6 * b0 + a7 * b3 + a8 * b6, a6 * b1 + a7 * b4 + a8 * b7, a6 * b2 + a7 * b5 + a8 * b8,
    )


def _eye_plus(s: float, m: tuple) -> tuple:
    """I + s m for a row-major 3x3 m; adding the identity's zeros too makes a zero entry +0.0."""
    m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
    return (1.0 + s * m0, 0.0 + s * m1, 0.0 + s * m2, 0.0 + s * m3, 1.0 + s * m4,
            0.0 + s * m5, 0.0 + s * m6, 0.0 + s * m7, 1.0 + s * m8)


def _rk4_sum(s: float, a: tuple, b: tuple, c: tuple, d: tuple) -> tuple:
    """s (a + 2 b + 2 c + d) over four row-major 3x3 matrices, entry by entry."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = c
    d0, d1, d2, d3, d4, d5, d6, d7, d8 = d
    return (s * (a0 + 2.0 * b0 + 2.0 * c0 + d0), s * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
            s * (a2 + 2.0 * b2 + 2.0 * c2 + d2), s * (a3 + 2.0 * b3 + 2.0 * c3 + d3),
            s * (a4 + 2.0 * b4 + 2.0 * c4 + d4), s * (a5 + 2.0 * b5 + 2.0 * c5 + d5),
            s * (a6 + 2.0 * b6 + 2.0 * c6 + d6), s * (a7 + 2.0 * b7 + 2.0 * c7 + d7),
            s * (a8 + 2.0 * b8 + 2.0 * c8 + d8))


_EYE3 = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


def _rk4_step(state, p: ShuttleParams, dt: float) -> tuple:
    """One RK4 step of the flight state (x, y, z, vx, vy, vz) under gravity + quadratic drag.

    Six floats in, a tuple of six floats out, scalar arithmetic throughout;
    this sits in the inner loop of every simulation, filter predict, and
    serve solve, whose callers convert to and from arrays once per flight.
    """
    g = p.gravity
    km = p.drag_coeff / p.mass
    x, y, z, vx, vy, vz = state
    ax1, ay1, az1 = _drag_accel(vx, vy, vz, km, g)
    h = 0.5 * dt
    v2x, v2y, v2z = vx + h * ax1, vy + h * ay1, vz + h * az1
    ax2, ay2, az2 = _drag_accel(v2x, v2y, v2z, km, g)
    v3x, v3y, v3z = vx + h * ax2, vy + h * ay2, vz + h * az2
    ax3, ay3, az3 = _drag_accel(v3x, v3y, v3z, km, g)
    v4x, v4y, v4z = vx + dt * ax3, vy + dt * ay3, vz + dt * az3
    ax4, ay4, az4 = _drag_accel(v4x, v4y, v4z, km, g)
    w = dt / 6.0
    return (
        x + w * (vx + 2.0 * v2x + 2.0 * v3x + v4x),
        y + w * (vy + 2.0 * v2y + 2.0 * v3y + v4y),
        z + w * (vz + 2.0 * v2z + 2.0 * v3z + v4z),
        vx + w * (ax1 + 2.0 * ax2 + 2.0 * ax3 + ax4),
        vy + w * (ay1 + 2.0 * ay2 + 2.0 * ay3 + ay4),
        vz + w * (az1 + 2.0 * az2 + 2.0 * az3 + az4),
    )


def transition_jacobian(mean: Array, p: ShuttleParams, dt: float) -> Array:
    """Exact Jacobian of the RK4 step, chained over _rk4_step's stage velocities.

    d(pos, vel)/d(pos, vel) is [[I, B], [0, C]]; the 3x3 blocks N2-N4 are
    d(stage velocity)/d(vel) and D1-D4 the drag Jacobians at the stages,
    each held as 9 row-major floats, like _rk4_step's scalar state.
    """
    km, g, h = p.drag_coeff / p.mass, p.gravity, 0.5 * dt
    vx, vy, vz = mean[3:].tolist()
    ax1, ay1, az1 = _drag_accel(vx, vy, vz, km, g)
    v2x, v2y, v2z = vx + h * ax1, vy + h * ay1, vz + h * az1
    ax2, ay2, az2 = _drag_accel(v2x, v2y, v2z, km, g)
    v3x, v3y, v3z = vx + h * ax2, vy + h * ay2, vz + h * az2
    ax3, ay3, az3 = _drag_accel(v3x, v3y, v3z, km, g)
    d1 = _drag_jacobian(vx, vy, vz, km)
    n2 = _eye_plus(h, d1)
    m2 = _mat3_mul(_drag_jacobian(v2x, v2y, v2z, km), n2)
    n3 = _eye_plus(h, m2)
    m3 = _mat3_mul(_drag_jacobian(v3x, v3y, v3z, km), n3)
    n4 = _eye_plus(dt, m3)
    m4 = _mat3_mul(_drag_jacobian(vx + dt * ax3, vy + dt * ay3, vz + dt * az3, km), n4)
    w = dt / 6.0
    # B = w (I + 2 N2 + 2 N3 + N4) and C = I + w (D1 + 2 D2 N2 + 2 D3 N3 + D4 N4)
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = _rk4_sum(w, _EYE3, n2, n3, n4)
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = _eye_plus(w, _rk4_sum(1.0, d1, m2, m3, m4))
    return np.array((
        1.0, 0.0, 0.0, b0, b1, b2, 0.0, 1.0, 0.0, b3, b4, b5, 0.0, 0.0, 1.0, b6, b7, b8,
        0.0, 0.0, 0.0, c0, c1, c2, 0.0, 0.0, 0.0, c3, c4, c5, 0.0, 0.0, 0.0, c6, c7, c8,
    )).reshape(6, 6)


def _relax_axis(axis: Optional[Array], state: tuple, rate: float, dt: float) -> Optional[Array]:
    """The unit axis relaxed for dt toward the velocity of the six-float flight state."""
    if axis is None:
        return None
    ax, ay, az = axis.tolist()
    vx, vy, vz = state[3:]
    speed = math.hypot(vx, vy, vz)
    if rate == 0.0 or speed < 1e-9:
        return _unit_axis(ax, ay, az)
    k = 1.0 - math.exp(-rate * dt)
    bx, by, bz = ax + k * (vx / speed - ax), ay + k * (vy / speed - ay), az + k * (vz / speed - az)
    n = math.hypot(bx, by, bz)
    if n < 1e-9:
        # axis exactly opposite the velocity; leave it untouched
        return _unit_axis(ax, ay, az)
    return _unit_axis(bx / n, by / n, bz / n)


def step(s: ShuttleState, p: ShuttleParams, dt: float) -> ShuttleState:
    """Advance the shuttle by dt using classical 4th-order Runge-Kutta."""
    _check_dt(dt)
    state = _rk4_step(s.position.tolist() + s.velocity.tolist(), p, dt)
    # built from the step's own six floats: finiteness is all that a step can break
    if not all(map(math.isfinite, state)):
        name = "velocity" if all(map(math.isfinite, state[:3])) else "position"
        raise ValueError(f"{name} has non-finite components")
    data = np.array(state)
    axis = _relax_axis(s.axis, state, p.axis_damping, dt)
    return _record(ShuttleState, data[:3], data[3:], axis)


def _finite_states(times, states: list) -> Array:
    """The array of a flight's states, once the last is finite: a non-finite one never recovers."""
    data = np.array(states)
    if not all(map(math.isfinite, states[-1])):
        first = int(np.argmin(np.isfinite(data).all(axis=1)))
        raise ValueError(f"flight state stopped being finite at t = {times[first]:.9g} s")
    return data


def simulate_to_ground(
    s: ShuttleState, p: ShuttleParams, dt: float = DEFAULT_DT, t_max: float = 10.0
) -> FlightResult:
    """Integrate until the shuttle reaches z = 0 or t_max elapses.

    The landing point is linearly interpolated in time across the step
    that crosses the ground; the trajectory keeps the final below-ground
    sample so the crossing can be reproduced from the logged data. A state
    that stops being finite raises ValueError naming the time.
    """
    _check_dt(dt)
    if s.position[2] <= 0:
        raise ValueError("initial position must be above the ground")
    times = [0.0]
    states = [s.position.tolist() + s.velocity.tolist()]
    t = 0.0
    landing = None
    while t < t_max - 1e-12:
        h = min(dt, t_max - t)
        state = _rk4_step(states[-1], p, h)
        new_t = t + h
        times.append(new_t)
        states.append(state)
        if state[2] <= 0.0:
            pos = np.array(states[-2][:3])
            frac = pos[2] / (pos[2] - state[2])
            landing = Landing(time=t + frac * h, point=pos + frac * (np.array(state[:3]) - pos))
            break
        t = new_t
    data = _finite_states(times, states)
    return FlightResult(Trajectory(np.array(times), data[:, :3], data[:, 3:]), landing)


def racket_impact(
    s: ShuttleState, racket_pose: Pose, racket_vel: Twist, p: ShuttleParams
) -> ShuttleState:
    """Reflect the shuttle off the racket face.

    The face normal is the +x axis of the racket frame. The normal
    component of the relative velocity is reversed and scaled by the
    restitution coefficient (head or skirt, picked by the sign of
    axis . normal); the tangential component is preserved.
    """
    normal = racket_pose.rotation_matrix()[:, 0]
    contact_arm = s.position - racket_pose.position
    v_contact = racket_vel.linear + np.cross(racket_vel.angular, contact_arm)
    v_rel = s.velocity - v_contact
    vn = float(np.dot(v_rel, normal))
    if vn >= 0.0:
        raise NoContactError("shuttle is receding from the racket face")
    if s.axis is not None and float(np.dot(s.axis, normal)) >= 0.0:
        e = p.restitution_skirt
    else:
        e = p.restitution_head
    v_rel_out = v_rel - (1.0 + e) * vn * normal
    return ShuttleState(s.position, v_rel_out + v_contact, s.axis)


def lands_in_court(landing_point: Array, traj: Trajectory, court: CourtGeometry) -> CourtResult:
    """Classify a landing: inside the opponent rectangle, and over the net.

    Net clearance interpolates the trajectory height at the first crossing
    of the net plane; a trajectory that never crosses did not clear.
    """
    x, y = float(landing_point[0]), float(landing_point[1])
    in_bounds = court.x_min <= x <= court.x_max and court.y_min <= y <= court.y_max
    cleared = False
    xs = traj.positions[:, 0]
    zs = traj.positions[:, 2]
    side = xs - court.net_x
    for i in range(len(xs) - 1):
        if side[i] == 0.0:
            cleared = zs[i] > court.net_height
            break
        if side[i] * side[i + 1] < 0.0:
            frac = side[i] / (side[i] - side[i + 1])
            z_cross = zs[i] + frac * (zs[i + 1] - zs[i])
            cleared = z_cross > court.net_height
            break
    return CourtResult(in_bounds=in_bounds, cleared_net=cleared)


def mechanical_energy(s: ShuttleState, p: ShuttleParams) -> float:
    v2 = float(np.dot(s.velocity, s.velocity))
    return 0.5 * p.mass * v2 + p.mass * p.gravity * float(s.position[2])


# ---------------------------------------------------------------------------
# File formats


def save_trajectory_csv(traj: Trajectory, path) -> None:
    """Write `t,x,y,z,vx,vy,vz` rows at 9 significant digits."""
    _write_csv(path, ("t", "x", "y", "z", "vx", "vy", "vz"),
               np.column_stack((traj.times, traj.positions, traj.velocities)))


PARAMS = {f.name: (REQUIRED if f.default is MISSING else f.default, float)
          for f in fields(ShuttleParams)}


def load_params(path) -> ShuttleParams:
    return _load_json(path, lambda data: ShuttleParams(**_check(data, PARAMS)))
