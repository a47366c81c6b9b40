"""Reward kernels and termination predicates for the striking curriculum.

Tracking rewards share one shape: a weighted sum of exponential kernels
over squared component errors. What changes between training phases is
the temporal gate in front of the sum: an exponential decay in the
time-to-hit early on, and a sparse indicator window around the strike
instant once ball physics is in the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .goal import RobotState
from .shuttle import CourtResult
from .spatial import Pose, _csv_records

Array = np.ndarray


@dataclass(frozen=True)
class RewardConfig:
    """Weights and kernel scales for the tracking rewards.

    hit_* and rec_* run over the tracked state components of the hitting
    and recovery phases. sigma_time scales the exponential time-to-hit
    decay; epsilon is the half-width of the sparse impact window. w_task
    and w_style mix the task and style rewards.
    """

    hit_weights: Array
    hit_scales: Array
    rec_weights: Array
    rec_scales: Array
    sigma_time: float
    epsilon: float
    w_task: float = 1.0
    w_style: float = 1.0

    def __post_init__(self):
        for name in ("hit_weights", "hit_scales", "rec_weights", "rec_scales"):
            value = np.array(getattr(self, name), dtype=np.float64)  # the caller keeps theirs
            value.flags.writeable = False  # checked once, here, so it must not change later
            object.__setattr__(self, name, value)
        if self.hit_weights.shape != self.hit_scales.shape:
            raise ValueError("hit_weights and hit_scales must have matching length")
        if self.rec_weights.shape != self.rec_scales.shape:
            raise ValueError("rec_weights and rec_scales must have matching length")
        if not (np.all(self.hit_scales > 0) and np.all(self.rec_scales > 0)):  # NaN fails too
            raise ValueError("kernel scales must be positive")
        if not (np.all(self.hit_weights >= 0) and np.all(self.rec_weights >= 0)):
            raise ValueError("weights must be non-negative")
        if not self.sigma_time > 0:
            raise ValueError("sigma_time must be positive")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not (self.w_task >= 0 and self.w_style >= 0):
            raise ValueError("mixing weights must be non-negative")


@dataclass(frozen=True)
class TerminationConfig:
    min_base_height: float
    max_base_tilt: float
    max_ref_deviation: float

    def __post_init__(self):
        if not all(v > 0 for v in (self.min_base_height, self.max_base_tilt,
                                     self.max_ref_deviation)):  # NaN fails too
            raise ValueError("termination thresholds must be positive")


@dataclass(frozen=True)
class TerminationResult:
    terminate: bool
    reason: Optional[str] = None


_NO_TERMINATION = TerminationResult(False, None)  # frozen, so every surviving check shares it


def exp_kernel(err_sq: float, sigma: float) -> float:
    """exp(-err_sq / sigma): 1 at zero error, strictly decreasing."""
    if not sigma > 0:  # NaN fails too
        raise ValueError("sigma must be positive")
    if not err_sq >= 0:
        raise ValueError("squared error must be non-negative")
    return math.exp(-err_sq / sigma)


def _kernel_sum(err_sqs: Iterable[float], weights: Array, scales: Array) -> float:
    """sum_i w_i exp(-e_i / s_i), as `exp_kernel`; `RewardConfig` has checked the scales."""
    err_sqs = list(err_sqs)
    if len(err_sqs) != len(weights):
        raise ValueError(f"got {len(err_sqs)} error components, config has {len(weights)}")
    total = 0.0
    for e, w, s in zip(err_sqs, weights.tolist(), scales.tolist()):
        if not e >= 0:  # NaN fails too
            raise ValueError("squared error must be non-negative")
        total += w * math.exp(-e / s)
    return total


def _squared_norms(deltas: Sequence[Array]) -> Iterator[float]:
    """Squared norm of each delta, computed lazily: a closed gate skips the work."""
    for d in deltas:
        d = np.asarray(d, dtype=np.float64).ravel()
        yield float(np.dot(d, d))


# The three temporal gates over squared errors, shared with score_episode_csv
def _hit_from_sq(err_sqs: Iterable[float], tth: float, c: RewardConfig) -> float:
    return math.exp(-abs(tth) / c.sigma_time) * _kernel_sum(err_sqs, c.hit_weights, c.hit_scales)


def _sparse_hit_from_sq(err_sqs: Iterable[float], tth: float, c: RewardConfig) -> float:
    if abs(tth) >= c.epsilon:
        return 0.0
    return _kernel_sum(err_sqs, c.hit_weights, c.hit_scales)


def _recovery_from_sq(err_sqs: Iterable[float], tth: float, c: RewardConfig) -> float:
    if tth >= 0.0:
        return 0.0
    return _kernel_sum(err_sqs, c.rec_weights, c.rec_scales)


def hit_tracking_reward(deltas: Sequence[Array], tth: float, c: RewardConfig) -> float:
    """Racket tracking reward with exponential time-to-hit decay.

    exp(-|tth| / sigma_time) * sum_i w_i exp(-|delta_i|^2 / sigma_i).
    """
    return _hit_from_sq(_squared_norms(deltas), tth, c)


def recovery_tracking_reward(deltas: Sequence[Array], tth: float, c: RewardConfig) -> float:
    """Root tracking reward, active only after impact (tth < 0), no decay."""
    return _recovery_from_sq(_squared_norms(deltas), tth, c)


def sparse_hit_tracking_reward(deltas: Sequence[Array], tth: float, c: RewardConfig) -> float:
    """Racket tracking reward gated to the narrow window |tth| < epsilon.

    Outside the window the reward is exactly zero, |tth| == epsilon
    included; only the strike instant itself is rewarded.
    """
    return _sparse_hit_from_sq(_squared_norms(deltas), tth, c)


@dataclass(frozen=True)
class HitQualityConfig:
    """Return-shot scoring: the speed ramp scale.

    The direction gate is binary: the return must land in bounds and clear
    the net.
    """

    speed_scale: float

    def __post_init__(self):
        if not self.speed_scale > 0:  # NaN fails too
            raise ValueError("speed_scale must be positive")


def hit_quality_reward(
    landing: CourtResult, post_impact_speed: float, cfg: HitQualityConfig
) -> float:
    """Product of a direction gate and a clamped linear speed ramp."""
    if post_impact_speed < 0:
        raise ValueError("speed must be non-negative")
    r_dir = 1.0 if (landing.in_bounds and landing.cleared_net) else 0.0
    r_speed = min(post_impact_speed / cfg.speed_scale, 1.0)
    return r_dir * r_speed


def style_reward(d: float) -> float:
    """Clamped quadratic score of the discriminator output: max(0, 1 - 0.25 (d-1)^2)."""
    return max(0.0, 1.0 - 0.25 * ((d - 1.0) * (d - 1.0)))  # inf, not OverflowError, for huge d


def total_reward(task: float, style: float, c: RewardConfig) -> float:
    return c.w_task * task + c.w_style * style


def contact_tracking_reward(contacts: Array, ref_contacts: Array) -> float:
    """Fraction of feet whose contact flag matches the reference schedule."""
    contacts = np.asarray(contacts).astype(bool)
    ref = np.asarray(ref_contacts).astype(bool)
    if contacts.shape != ref.shape:
        raise ValueError("contact vectors must have matching shape")
    return float(np.mean(contacts == ref))


def termination_check(
    state: RobotState, ref_root: Pose, c: TerminationConfig
) -> TerminationResult:
    """Safety/performance termination: checks height, then tilt, then deviation."""
    if state.base_height < c.min_base_height:
        return TerminationResult(True, "height")
    # the body z axis's world z: entry 8 of the rotation matrix, as `_matrix_entries` writes it
    _, x, y, _ = state.root.orientation.tolist()
    tilt = math.acos(min(1.0, max(-1.0, 1.0 - 2.0 * (x * x + y * y))))
    if tilt > c.max_base_tilt:
        return TerminationResult(True, "tilt")
    d = state.root.position - ref_root.position
    if math.sqrt(d @ d) > c.max_ref_deviation:  # np.linalg.norm's sum, without its dispatch
        return TerminationResult(True, "deviation")
    return _NO_TERMINATION


# ---------------------------------------------------------------------------
# File formats


def score_episode_csv(path, c: RewardConfig) -> list[dict]:
    """Batch-evaluate rewards over an episode log.

    Expected columns: `t`, `tth`, squared hit errors `hit_sq_0..`, squared
    recovery errors `rec_sq_0..`, and optionally `d` (discriminator score).
    Returns one dict per row with the individual rewards and the mixed
    total (task = decayed hit + recovery). A missing column, or a cell that
    is not a finite number, raises ValueError naming the file and the column
    or row.
    """
    n_hit = len(c.hit_weights)
    columns = ["t", "tth", *(f"hit_sq_{i}" for i in range(n_hit)),
               *(f"rec_sq_{j}" for j in range(len(c.rec_weights)))]

    def read(cells, at):
        values = [float(cells[at[col]]) for col in columns]
        d = float(cells[at["d"]]) if "d" in at and cells[at["d"]] else None
        tth, hit_sq, rec_sq = values[1], values[2:2 + n_hit], values[2 + n_hit:]
        r_hit = _hit_from_sq(hit_sq, tth, c)
        r_hit_sparse = _sparse_hit_from_sq(hit_sq, tth, c)
        r_rec = _recovery_from_sq(rec_sq, tth, c)
        r_style = 0.0 if d is None else style_reward(d)
        rewards = {
            "t": values[0],
            "hit": r_hit,
            "hit_sparse": r_hit_sparse,
            "recovery": r_rec,
            "style": r_style,
            "total": total_reward(r_hit + r_rec, r_style, c),
        }
        return rewards, values if d is None else values + [d]

    return _csv_records(path, columns, read)
