"""Numerical core of a humanoid badminton-interception system.

Modules:
    spatial    rigid-body math, manifold differences, forward kinematics, file readers
    shuttle    shuttlecock flight model and its Jacobian, court, racket impact
    estimator  EKF over the ball state and strike-point planning
    goal       goal-conditioned state encoding (time-to-hit, phase masking)
    reward     tracking / return-quality / style reward kernels
    amp        style-discriminator features, MLP, adversarial loss
    retarget   optimization-based motion retargeting
    scenario   strike-manifold expansion, randomization, episode metrics
    cli        batch command-line pipelines
"""

# `cli` is not imported here, so `python -m shuttlekit.cli` runs it only once.
from . import amp, estimator, goal, retarget, reward, scenario, shuttle, spatial

__all__ = [
    "amp",
    "cli",
    "estimator",
    "goal",
    "retarget",
    "reward",
    "scenario",
    "shuttle",
    "spatial",
]

__version__ = "0.1.0"
