"""Strike-target generation, domain randomization, and episode metrics.

Sparse demonstrated strike points are densified by sampling around them
inside a bounded target volume; serves are synthesized by shooting-method
solves of the flight model with Broyden updates; episode logs reduce to
the success-rate / tracking-error / in-bounds-return triple.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .shuttle import DEFAULT_DT, CourtGeometry, ShuttleParams, ShuttleState, _rk4_step
from .spatial import REQUIRED, Box, _csv_records, _load_json, _numbers, _record, _round9, _value

Array = np.ndarray

EASY_VOLUME_SIZE = (2.0, 0.4, 0.3)
HARD_VOLUME_SIZE = (4.0, 1.0, 0.3)
DEFAULT_VOLUME_CENTER = (0.0, 0.0, 1.1)

RHYTHM_RANGE = (1.0, 6.0)  # seconds between a hit and the next serve

_MAX_REJECTION_ATTEMPTS = 10_000
_COARSE_DT = 8 * DEFAULT_DT  # serve iterations aim on this grid; a DEFAULT_DT flight confirms
_SERVE_TOLERANCE = 0.01  # m: the largest miss a serve may have at the target
_SERVE_MAX_ITERATIONS = 60  # corrections after the first flight before a target is infeasible


class InfeasibleTargetError(RuntimeError):
    """Raised when no serve or manifold sample can satisfy the request."""


def strike_volume(mode: str, center=DEFAULT_VOLUME_CENTER) -> Box:
    if mode == "easy":
        return Box(np.asarray(center), np.array(EASY_VOLUME_SIZE))
    if mode == "hard":
        return Box(np.asarray(center), np.array(HARD_VOLUME_SIZE))
    raise ValueError(f"unknown mode {mode!r}, expected 'easy' or 'hard'")


@dataclass(frozen=True)
class ManifoldPoint:
    """A strike target: a finite (3,) position, a finite time offset and an integer source."""

    position: Array
    time_offset: float
    source: int

    def __post_init__(self):
        object.__setattr__(self, "position", _numbers(self.position, (3,), "position"))
        object.__setattr__(self, "time_offset", _value(self.time_offset, float, "time_offset"))
        object.__setattr__(self, "source", _value(self.source, int, "source"))


@dataclass(frozen=True)
class StrikeManifold:
    points: tuple[ManifoldPoint, ...]
    mode: str
    volume: Box

    def __post_init__(self):
        points = tuple(self.points)
        if not points:
            raise ValueError("manifold must be non-empty")
        if not self.volume.contains(np.array([pt.position for pt in points])).all():
            raise ValueError("manifold point lies outside the declared volume")
        object.__setattr__(self, "points", points)


def expand_manifold(
    dataset_points: Sequence[tuple],
    radius: float,
    time_jitter: float,
    count: int,
    mode: str,
    seed: int,
    center=DEFAULT_VOLUME_CENTER,
) -> StrikeManifold:
    """Densify demonstrated strike points into a volume of targets.

    Each sample picks a dataset point, perturbs it uniformly inside a ball
    of the given radius with a jittered time, and keeps it only if it
    falls inside the mode's volume (easy or hard box). Rejected samples
    are retried; a configuration whose feasible set is empty errors out
    after a bounded number of attempts. Identical seeds give identical
    manifolds.
    """
    if not dataset_points:
        raise ValueError("dataset is empty")
    if count < 1:
        raise ValueError("count must be at least 1")
    if not (0.0 <= radius < math.inf and 0.0 <= time_jitter < math.inf):
        raise ValueError("radius and time_jitter must be finite and non-negative")
    volume = strike_volume(mode, center)
    rng = np.random.default_rng(seed)
    base_pos = [np.asarray(p, dtype=np.float64).tolist() for p, _ in dataset_points]
    base_t = [float(t) for _, t in dataset_points]
    for i, (pos, t) in enumerate(zip(base_pos, base_t)):
        if np.shape(pos) != (3,) or not all(math.isfinite(v) for v in (*pos, t)):
            raise ValueError(
                f"dataset point {i} needs 3 finite coordinates and a finite time, got {pos}, {t}"
            )
        if not math.isfinite(abs(t) + 2.0 * time_jitter):
            raise ValueError(f"dataset point {i}: time {t} jittered by {time_jitter} overflows")
    cx, cy, cz = volume.center.tolist()
    hx, hy, hz = (0.5 * volume.size).tolist()
    n_src = len(base_pos)
    accepted = []  # ((px, py, pz), t, src) of each point, as floats and an int
    for _ in range(count):
        for attempt in range(_MAX_REJECTION_ATTEMPTS):
            src = int(rng.integers(n_src))
            bx, by, bz = base_pos[src]
            if radius > 0.0:
                dx, dy, dz = rng.normal(size=3).tolist()
                norm = math.sqrt(dx * dx + dy * dy + dz * dz)
                if norm < 1e-12:
                    continue
                # radius scaled by u^(1/3): uniform density inside the ball
                r = radius * rng.random() ** (1.0 / 3.0) / norm
                px, py, pz = bx + r * dx, by + r * dy, bz + r * dz
            else:
                px, py, pz = bx, by, bz
            # the arithmetic of rng.uniform(-time_jitter, time_jitter), on the same stream
            t = base_t[src] + (-time_jitter + 2.0 * time_jitter * rng.random())
            if abs(px - cx) <= hx and abs(py - cy) <= hy and abs(pz - cz) <= hz:
                accepted.append(((px, py, pz), t, src))
                break
        else:
            raise InfeasibleTargetError(
                f"could not place a sample inside the {mode} volume after "
                f"{_MAX_REJECTION_ATTEMPTS} attempts"
            )
    xyz, times, sources = zip(*accepted)  # the positions become rows of one array
    points = tuple(_record(ManifoldPoint, *point) for point in zip(np.array(xyz), times, sources))
    # each point passed the bounds test above, the one `StrikeManifold` would repeat on a
    # fresh (N, 3) stack of the positions; a directly built manifold keeps both checks
    return _record(StrikeManifold, points, mode, volume)


def sample_rhythm_interval(rng: np.random.Generator) -> float:
    """Seconds between a hitting event and the next serve, uniform in [1, 6]."""
    return float(rng.uniform(*RHYTHM_RANGE))


@dataclass(frozen=True)
class RandomizationTable:
    """Uniform randomization ranges for sim-to-real robustness.

    Units: masses kg, offsets m, latency ms, velocity m/s, heights m;
    gain scale, friction, and restitution are dimensionless.
    """

    base_mass: tuple[float, float] = (-3.0, 5.0)
    hand_mass: tuple[float, float] = (-0.05, 0.15)
    racket_mass: tuple[float, float] = (-0.005, 0.005)
    com_offset_xy: tuple[float, float] = (-0.05, 0.05)
    com_offset_z: tuple[float, float] = (-0.03, 0.03)
    pd_gain_scale: tuple[float, float] = (0.9, 1.1)
    control_latency_ms: tuple[float, float] = (5.0, 30.0)
    ground_friction: tuple[float, float] = (0.5, 1.0)
    restitution: tuple[float, float] = (0.0, 0.2)
    base_velocity: tuple[float, float] = (-0.4, 0.4)
    terrain_height_noise: tuple[float, float] = (0.0, 0.05)

    def __post_init__(self):
        ranges = self.ranges()
        for name, (lo, hi) in ranges.items():
            if lo > hi:
                raise ValueError(f"range for {name} has lo > hi")
            if not math.isfinite(hi - lo):
                raise ValueError(f"range for {name} is not finite")
        # draw tables, built once: sample_randomization runs per episode
        lows = np.array([lo for lo, _ in ranges.values()], dtype=np.float64)
        spans = np.array([hi for _, hi in ranges.values()], dtype=np.float64) - lows
        object.__setattr__(self, "_names", tuple(ranges))
        object.__setattr__(self, "_lows", lows)
        object.__setattr__(self, "_spans", spans)

    def ranges(self) -> dict[str, tuple[float, float]]:
        """Per-parameter ranges; the shared x/y offset range is expanded."""
        return {
            "base_mass": self.base_mass,
            "hand_mass": self.hand_mass,
            "racket_mass": self.racket_mass,
            "com_offset_x": self.com_offset_xy,
            "com_offset_y": self.com_offset_xy,
            "com_offset_z": self.com_offset_z,
            "pd_gain_scale": self.pd_gain_scale,
            "control_latency_ms": self.control_latency_ms,
            "ground_friction": self.ground_friction,
            "restitution": self.restitution,
            "base_velocity": self.base_velocity,
            "terrain_height_noise": self.terrain_height_noise,
        }


def sample_randomization(
    table: RandomizationTable, rng: np.random.Generator
) -> dict[str, float]:
    """Independent uniform draw of every parameter in the table."""
    # the arithmetic of rng.uniform(lows, highs), on the same stream
    values = table._lows + table._spans * rng.random(table._spans.size)
    return dict(zip(table._names, values.tolist()))


@dataclass(frozen=True)
class ServeConfig:
    """Launch-point geometry for synthetic serves. The solver's limits are the module
    constants `_SERVE_TOLERANCE` and `_SERVE_MAX_ITERATIONS`."""

    origin: Array = field(default_factory=lambda: np.array([6.0, 0.0, 2.0]))
    origin_jitter: Array = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "origin", _numbers(self.origin, (3,), "origin"))
        jitter = _numbers(self.origin_jitter, (3,), "origin_jitter")
        if not (jitter >= 0.0).all():
            raise ValueError(f"origin_jitter must be non-negative, got {jitter.tolist()}")
        object.__setattr__(self, "origin_jitter", jitter)


def _position_at(origin: Array, v0: Array, p: ShuttleParams, t_end: float, dt: float) -> Array:
    state = origin.tolist() + v0.tolist()
    n_full = int(t_end / dt)
    for _ in range(n_full):
        state = _rk4_step(state, p, dt)
    rem = t_end - n_full * dt
    if rem > 1e-12:
        state = _rk4_step(state, p, rem)
    return np.array(state[:3])


def serve_trajectory(
    target: ManifoldPoint,
    court: CourtGeometry,
    p: ShuttleParams,
    rng: Optional[np.random.Generator] = None,
    serve: ServeConfig = ServeConfig(),
) -> ShuttleState:
    """Launch state whose flight passes through the target at its time.

    Shooting method on the launch velocity: start from the drag-free
    ballistic aim and step by H @ miss, H estimating d(launch velocity) /
    d(reached position): I / t_hit at first, then after each flight
    Broyden's "good" update H += (s - H y) s^T H / s^T H y from the step s
    and the change y in the reached position (skipped when s^T H y is below
    1e-12). Flights run on the coarse `_COARSE_DT` grid until one lands
    within `_SERVE_TOLERANCE`; its velocity is then flown at `DEFAULT_DT`, and
    on a miss the iterations go on at `DEFAULT_DT`, with H kept. Only a
    `DEFAULT_DT` flight within tolerance gives the returned velocity, so the
    last of the at most `_SERVE_MAX_ITERATIONS + 1` flights, coarse and fine
    together, is a fine one; if none gives it, the target is infeasible.
    The court argument is accepted for call-site symmetry with the rest of
    the pipeline; aiming does not depend on it.
    """
    t_hit = float(target.time_offset)
    if not 0.0 < t_hit < math.inf:  # NaN fails too
        raise InfeasibleTargetError(f"target time must be positive and finite, got {t_hit}")
    origin = serve.origin.copy()
    if rng is not None and np.any(serve.origin_jitter > 0):
        origin = origin + rng.uniform(-serve.origin_jitter, serve.origin_jitter)
    delta = target.position - origin
    # drag-free aim: p(t) = p0 + v0 t - g t^2/2 z
    v0 = delta / t_hit + np.array([0.0, 0.0, 0.5 * p.gravity * t_hit])
    inv_sens = np.eye(3) / t_hit
    dt, v_step = _COARSE_DT, None
    for i in range(_SERVE_MAX_ITERATIONS + 1):
        dt = DEFAULT_DT if i == _SERVE_MAX_ITERATIONS else dt
        reached = _position_at(origin, v0, p, t_hit, dt)
        miss = target.position - reached
        miss_norm = np.linalg.norm(miss)
        if miss_norm <= _SERVE_TOLERANCE:
            if dt == DEFAULT_DT:
                speed = np.linalg.norm(v0)
                return ShuttleState(origin, v0, v0 / speed if speed > 1e-9 else None)
            dt = DEFAULT_DT  # fly this velocity again on the fine grid
            continue
        if v_step is not None:
            h_y = inv_sens @ (reached - last_reached)
            denom = v_step @ h_y
            if abs(denom) > 1e-12:
                inv_sens += np.outer(v_step - h_y, v_step @ inv_sens) / denom
        v_step = inv_sens @ miss
        last_reached = reached
        v0 = v0 + v_step
    raise InfeasibleTargetError(f"serve solver missed the target by {miss_norm:.4f} m")


@dataclass(frozen=True)
class EpisodeRecord:
    """Outcome of one serve: interception, impact offset, and return result."""

    serve_id: int
    intercepted: bool
    impact_offset: Optional[Array]  # racket sweet spot -> ball, at impact
    landed: bool = False
    in_bounds: bool = False
    cleared_net: bool = False
    return_speed: float = 0.0

    def __post_init__(self):
        if self.intercepted != (self.impact_offset is not None):
            raise ValueError("impact offset must be present iff intercepted")
        if self.impact_offset is not None:
            offset = _numbers(self.impact_offset, (3,), "impact_offset")
            object.__setattr__(self, "impact_offset", offset)
        object.__setattr__(self, "return_speed", _value(self.return_speed, float, "return_speed"))


@dataclass(frozen=True)
class EpisodeMetrics:
    sr: float
    mse: float
    ibr: float


def evaluate_episodes(
    logs: Sequence[EpisodeRecord],
    in_bounds_weight: float = 1.0,
    fault_weight: float = 0.25,
) -> EpisodeMetrics:
    """Reduce episode logs to {SR, MSE, IBR}.

    SR: fraction of serves intercepted. MSE: mean squared sweet-spot-to-
    ball distance at impact over intercepted serves (nan when none were).
    IBR: mean signed return score, +in_bounds_weight for a clean in-bounds
    return, -fault_weight for an out-of-bounds or net-fault return, 0 for
    a missed serve.
    """
    if not logs:
        raise ValueError("no episode records")
    hits = [r for r in logs if r.intercepted]
    sr = len(hits) / len(logs)
    if hits:
        # an overflow yields MSE = inf, which callers check; numpy's warning adds nothing
        with np.errstate(over="ignore"):
            mse = float(np.mean([np.dot(r.impact_offset, r.impact_offset) for r in hits]))
    else:
        mse = float("nan")
    score = sum(
        in_bounds_weight if r.landed and r.in_bounds and r.cleared_net else -fault_weight
        for r in hits
    )
    return EpisodeMetrics(sr=sr, mse=mse, ibr=score / len(logs))


# ---------------------------------------------------------------------------
# File formats


def save_manifold(manifold: StrikeManifold, path) -> None:
    """One JSON list of `{"pos", "t", "src"}` objects, each float rounded by `_round9`,
    streamed one `json.dumps` (CPython's C encoder) per point."""
    with open(path, "w") as f:
        for i, pt in enumerate(manifold.points):
            point = {"pos": list(map(_round9, pt.position.tolist())),
                     "t": _round9(pt.time_offset), "src": pt.source}
            f.write((", " if i else "[") + json.dumps(point))
        f.write("]\n")


MANIFOLD_POINT = {"pos": (REQUIRED, (3,)), "t": (REQUIRED, float), "src": (0, int)}


def load_manifold_points(path) -> list[ManifoldPoint]:
    return _load_json(path, lambda data: [
        ManifoldPoint(e["pos"], e["t"], e["src"]) for e in _value(data, [MANIFOLD_POINT], "")])


_EPISODE_COLUMNS = (
    "serve_id", "intercepted", "dx", "dy", "dz", "landing", "in_bounds", "cleared_net", "speed"
)


def load_episode_csv(path) -> list[EpisodeRecord]:
    """Read an episode log CSV with the columns `_EPISODE_COLUMNS`, the offsets empty
    for a serve not intercepted; a bad or non-finite cell names its row."""
    return _csv_records(path, _EPISODE_COLUMNS, _episode_record)


def _episode_record(cells, at) -> tuple:
    """The record one episode CSV row holds, and the numbers in it, parsed in field order
    after `intercepted` and the offsets; `_csv_records` keeps it only if they are finite."""
    intercepted = bool(int(cells[at["intercepted"]]))
    offset = None
    if intercepted:
        offset = [float(cells[at["dx"]]), float(cells[at["dy"]]), float(cells[at["dz"]])]
    record = _record(
        EpisodeRecord, int(cells[at["serve_id"]]), intercepted,
        None if offset is None else np.array(offset),
        bool(int(cells[at["landing"]])), bool(int(cells[at["in_bounds"]])),
        bool(int(cells[at["cleared_net"]])), float(cells[at["speed"]]))
    return record, (*(offset or ()), record.return_speed)
