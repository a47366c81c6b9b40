"""Style-discriminator machinery: feature windows, a small tanh MLP with
manual differentiation, and the least-squares adversarial loss.

All derivatives are computed by hand, including the second-order terms the
gradient penalty needs (the penalty differentiates the input gradient with
respect to the parameters), so the implementation stays framework-free and
checkable against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .goal import RobotState
from .spatial import KinematicChain, Pose, to_base_frame

Array = np.ndarray

DEFAULT_EE_ORDER = ("left_ankle", "right_ankle", "left_hand", "right_hand")


@dataclass(frozen=True)
class AmpConfig:
    history_length: int = 5
    grad_penalty_weight: float = 10.0

    def __post_init__(self):
        if self.history_length < 1:
            raise ValueError("history_length must be at least 1")
        if self.grad_penalty_weight < 0:
            raise ValueError("grad_penalty_weight must be non-negative")


@dataclass(frozen=True)
class AmpFrame:
    """Single-frame feature vector, everything in the robot base frame.

    Layout: [base linear velocity(3), joint angles(n), base height(1),
    projected gravity(3), end-effector positions(3E), end-effector
    velocities(3E)] for E end-effectors in a fixed order.
    """

    features: Array

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))

    def __len__(self) -> int:
        return self.features.size


@dataclass(frozen=True)
class AmpObservation:
    """History window of frames, newest first."""

    features: Array

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))

    def __len__(self) -> int:
        return self.features.size


def frame_features(
    state: RobotState,
    ee_poses: Mapping[str, Pose],
    ee_vels: Mapping[str, Array],
    chain: KinematicChain,
) -> AmpFrame:
    """Assemble one discriminator frame from a robot state.

    End-effector poses/velocities are world-frame inputs (e.g. from
    forward kinematics) and get re-expressed in the base frame, which
    makes the features invariant to rigid transforms of the world.
    """
    chain_frames = set(chain.end_effector_names())
    for name in DEFAULT_EE_ORDER:
        if name not in chain_frames:
            raise ValueError(f"chain has no end effector named {name!r}")
        if name not in ee_poses or name not in ee_vels:
            raise ValueError(f"missing pose/velocity for end effector {name!r}")
    # world-frame rows: base velocity, E positions relative to the base, E velocities
    root = state.root
    rows = np.array([
        state.root_twist.linear,
        *(ee_poses[name].position - root.position for name in DEFAULT_EE_ORDER),
        *(ee_vels[name] for name in DEFAULT_EE_ORDER),
    ])
    local = to_base_frame(rows, root, is_point=False)
    return AmpFrame(np.concatenate(
        (local[0], state.q, (state.base_height,), state.projected_gravity, local[1:].ravel())
    ))


def assemble_history(buffer: Sequence[AmpFrame], cfg: AmpConfig) -> AmpObservation:
    """Concatenate the newest history_length frames, newest first.

    The buffer is chronological (oldest to newest). At episode start, when
    fewer frames exist, the oldest frame is repeated to fill the window.
    """
    if len(buffer) == 0:
        raise ValueError("frame buffer is empty")
    width = len(buffer[0])
    if any(len(f) != width for f in buffer):
        raise ValueError("frames in the buffer have inconsistent lengths")
    h = cfg.history_length
    picked = []
    for k in range(h):
        idx = max(len(buffer) - 1 - k, 0)
        picked.append(buffer[idx].features)
    return AmpObservation(np.concatenate(picked))


@dataclass(frozen=True)
class Mlp:
    """Fully connected net, tanh hidden activations, scalar linear output.

    weights[l] has shape (out_l, in_l); biases[l] has shape (out_l,).
    """

    weights: tuple[Array, ...]
    biases: tuple[Array, ...]

    def __post_init__(self):
        ws = tuple(np.asarray(w, dtype=np.float64) for w in self.weights)
        bs = tuple(np.asarray(b, dtype=np.float64) for b in self.biases)
        if len(ws) != len(bs) or len(ws) == 0:
            raise ValueError("need one bias vector per weight matrix")
        for i, (w, b) in enumerate(zip(ws, bs)):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ValueError(f"layer {i} has inconsistent shapes")
            if i > 0 and w.shape[1] != ws[i - 1].shape[0]:
                raise ValueError(f"layer {i} input dim does not match layer {i-1} output")
        if ws[-1].shape[0] != 1:
            raise ValueError("output layer must produce a scalar")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "biases", bs)

    @property
    def input_size(self) -> int:
        return self.weights[0].shape[1]


def mlp_init(layer_sizes: Sequence[int], rng: np.random.Generator) -> Mlp:
    """Random net with 1/sqrt(fan_in) scaled normal weights, zero biases."""
    weights = []
    biases = []
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        weights.append(rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Mlp(tuple(weights), tuple(biases))


def _as_batch(obs) -> Array:
    if isinstance(obs, AmpObservation):
        return obs.features[None, :]
    arr = np.asarray(obs, dtype=np.float64)
    if arr.ndim == 1:
        return arr[None, :]
    return arr


def _forward(m: Mlp, x: Array) -> list[Array]:
    """Activations [a0 .. aL] for a batch; aL is the (B, 1) raw output."""
    acts = [x]
    a = x
    last = len(m.weights) - 1
    for l, (w, b) in enumerate(zip(m.weights, m.biases)):
        a = a @ w.T
        a += b
        if l < last:
            np.tanh(a, out=a)
        acts.append(a)
    return acts


def _tanh_primes(acts: list[Array]) -> list[Array]:
    """tanh'(z_l) = 1 - a_l^2 of each hidden activation in acts, one new array each."""
    derivs = [a * a for a in acts[1:-1]]
    for d in derivs:
        np.subtract(1.0, d, out=d)
    return derivs


def disc_forward(m: Mlp, obs) -> float:
    """Discriminator score for a single observation."""
    x = _as_batch(obs)
    if x.shape != (1, m.input_size):
        raise ValueError(f"expected one observation of length {m.input_size}")
    return float(_forward(m, x)[-1][0, 0])


def disc_forward_batch(m: Mlp, batch) -> Array:
    x = _as_batch(batch)
    if x.shape[1] != m.input_size:
        raise ValueError(f"expected observations of length {m.input_size}")
    return _forward(m, x)[-1][:, 0]


def _input_grads(m: Mlp, acts: list[Array], derivs: list[Array]) -> list[tuple[Array, Array]]:
    """D's adjoints over the rows of acts, given derivs[l] = tanh'(z_l): entry l
    is (dD/dz_l, dD/da_{l-1}) with a_{l-1} = acts[l], so entry 0 ends in dD/dx."""
    u = np.ones((acts[0].shape[0], 1))
    adjoints = []
    for l in range(len(m.weights) - 1, -1, -1):
        v = u @ m.weights[l]
        adjoints.append((u, v))
        if l > 0:
            u = v * derivs[l - 1]
    return adjoints[::-1]


def grad_wrt_input(m: Mlp, obs) -> Array:
    """Exact gradient of the scalar output with respect to the input."""
    x = _as_batch(obs)
    if x.shape != (1, m.input_size):
        raise ValueError(f"expected one observation of length {m.input_size}")
    acts = _forward(m, x)
    return _input_grads(m, acts, _tanh_primes(acts))[0][1][0]


def _param_grads(
    m: Mlp, acts: list[Array], derivs: list[Array], adjoints: list, coeff: Array, g: Array
) -> tuple[tuple[Array, ...], tuple[Array, ...]]:
    """Gradients with respect to the parameters of

        s = sum_b coeff_b * D(x_b) + sum_r g_r . grad_x D(x_r),

    treating coeff and g as constant. The batch in acts holds the rows b,
    with tanh'(z_l) in derivs[l]; the rows r of g are its first len(g) rows.

    Implemented as a forward tangent pass over those rows seeded with g (a
    directional derivative of D), then one reverse accumulation through
    both; the tangent's adjoints are D's adjoints on the rows r. With g set
    to c times the input gradients, the second sum has the parameter
    gradient of (c / 2) * sum_r |grad_x D(x_r)|^2.
    """
    last = len(m.weights) - 1
    n_tan = g.shape[0]
    # tangent forward: tz[l] before activation, t[l] after
    t = g
    tangents_in = []   # t_{l-1} feeding layer l
    tangents_out = []  # tz_l
    for l in range(last + 1):
        tangents_in.append(t)
        tz = t @ m.weights[l].T
        tangents_out.append(tz)
        if l < last:
            t = derivs[l][:n_tan] * tz
    d_w = []
    d_b = []
    mu = coeff[:, None]        # ds/d(z_l)
    for l in range(last, -1, -1):
        lam, tau = adjoints[l]  # ds/d(tz_l), ds/d(t_{l-1})
        d_w.append(mu.T @ acts[l] + lam.T @ tangents_in[l])
        d_b.append(mu.sum(axis=0))
        if l > 0:
            h = derivs[l - 1]     # tanh'(z_{l-1})
            mu = mu @ m.weights[l]  # ds/d(a_{l-1}), then ds/d(z_{l-1})
            mu *= h
            t = -2.0 * acts[l][:n_tan]  # the tangent term ((-2 a h) tau) tz, in this order
            t *= h[:n_tan]
            t *= tau
            t *= tangents_out[l - 1]
            mu[:n_tan] += t
    return tuple(d_w[::-1]), tuple(d_b[::-1])


@dataclass(frozen=True)
class DiscriminatorLoss:
    loss: float
    real_term: float
    fake_term: float
    penalty_term: float
    weight_grads: tuple[Array, ...]
    bias_grads: tuple[Array, ...]


def disc_loss_and_grads(
    m: Mlp, real, fake, cfg: AmpConfig
) -> DiscriminatorLoss:
    """Least-squares discriminator loss with gradient penalty on real data.

    loss = mean_real (D-1)^2 + mean_fake (D+1)^2
         + (w_gp / 2) * mean_real |grad_x D|^2

    The penalty is applied to the reference (real) samples only. Parameter
    gradients of all three terms are exact. The step keeps no state between
    calls: every array it writes in place is one it allocated in that call.
    """
    x_real = np.stack([_as_batch(o)[0] for o in real]) if isinstance(real, (list, tuple)) else _as_batch(real)
    x_fake = np.stack([_as_batch(o)[0] for o in fake]) if isinstance(fake, (list, tuple)) else _as_batch(fake)
    if x_real.shape[0] == 0 or x_fake.shape[0] == 0:
        raise ValueError("real and fake batches must be non-empty")
    if x_real.shape[1] != m.input_size or x_fake.shape[1] != m.input_size:
        raise ValueError(f"observations must have length {m.input_size}")
    n_real = x_real.shape[0]
    n_fake = x_fake.shape[0]

    acts = _forward(m, np.concatenate((x_real, x_fake)))
    d_real = acts[-1][:n_real, 0]
    d_fake = acts[-1][n_real:, 0]
    derivs = _tanh_primes(acts)
    adjoints = _input_grads(m, [a[:n_real] for a in acts], [h[:n_real] for h in derivs])
    g = adjoints[0][1]

    real_term = float(np.mean((d_real - 1.0) ** 2))
    fake_term = float(np.mean((d_fake + 1.0) ** 2))
    penalty_term = float(
        cfg.grad_penalty_weight / 2.0 * np.mean(np.sum(g * g, axis=1))
    )
    # d/dtheta of (w_gp / (2 n)) sum_b |g_b|^2  =  d((w_gp / n) g . g_hat)/dtheta
    coeff = np.concatenate((2.0 * (d_real - 1.0) / n_real, 2.0 * (d_fake + 1.0) / n_fake))
    weight_grads, bias_grads = _param_grads(
        m, acts, derivs, adjoints, coeff, cfg.grad_penalty_weight / n_real * g
    )
    return DiscriminatorLoss(
        loss=real_term + fake_term + penalty_term,
        real_term=real_term,
        fake_term=fake_term,
        penalty_term=penalty_term,
        weight_grads=weight_grads,
        bias_grads=bias_grads,
    )
