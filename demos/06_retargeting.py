"""Keypoint retargeting: fit a chain to markers, ground it, tag contacts.

Synthetic "human" keypoints are produced by the chain itself along a short
reach-and-return motion, so the solver's job is to recover the known joint
trajectory from marker positions alone.

Run from the repository root:  python3 demos/06_retargeting.py
"""

import os
import tempfile

import numpy as np

from shuttlekit.goal import save_clip
from shuttlekit.retarget import (
    KeypointFrame,
    RetargetProblem,
    RetargetSolution,
    RetargetWeights,
    align_to_ground,
    extract_contacts,
    solution_to_clip,
    solve_retarget,
)
from shuttlekit.spatial import (
    EndEffector,
    Joint,
    KinematicChain,
    Pose,
    forward_kinematics,
    quat_identity,
)

ident = quat_identity()
chain = KinematicChain(
    joints=(
        Joint("shoulder", -1, Pose(np.array([0.0, 0.0, 1.0]), ident),
              np.array([0.0, 0.0, 1.0]), (-2.5, 2.5)),
        Joint("elbow", 0, Pose(np.array([0.4, 0.0, 0.0]), ident),
              np.array([0.0, 1.0, 0.0]), (-2.0, 2.0)),
        Joint("wrist", 1, Pose(np.array([0.35, 0.0, 0.0]), ident),
              np.array([1.0, 0.0, 0.0]), (-1.5, 1.5)),
    ),
    end_effectors=(
        EndEffector("hand", 2, Pose(np.array([0.08, 0.06, 0.02]), ident)),
        EndEffector("left_foot", -1, Pose(np.array([0.0, 0.1, 0.02]), ident)),
        EndEffector("right_foot", -1, Pose(np.array([0.0, -0.1, 0.02]), ident)),
    ),
)
markers = ("shoulder", "elbow", "wrist", "hand", "left_foot", "right_foot")

print("== synthesize a marker take from a known joint trajectory ==")
n_frames = 8
qs = np.stack([
    0.5 * np.sin(np.linspace(0, np.pi, n_frames)),
    -0.8 * np.sin(np.linspace(0, np.pi, n_frames)),
    0.3 * np.sin(np.linspace(0, np.pi, n_frames)),
], axis=1)
frames = []
for k in range(n_frames):
    fk = forward_kinematics(chain, Pose.identity(), qs[k])
    frames.append(KeypointFrame(
        t=0.1 * k,
        keypoints={m: fk[m].position for m in markers},
        rotations={"hand": fk["hand"].orientation},
    ))
print(f"{n_frames} frames, {len(markers)} markers each, hand orientation targeted")

print("\n== solve ==")
problem = RetargetProblem(
    chain=chain,
    keypoint_map={m: m for m in markers},
    frames=tuple(frames),
    segments=(("shoulder", "elbow"), ("elbow", "wrist")),
    weights=RetargetWeights(smoothness=0.001),
)
init = RetargetSolution(
    (Pose.identity(),) * n_frames,
    np.zeros((n_frames, 3)),
    local_scales=np.ones(2),
)
solution, costs = solve_retarget(problem, init)
print("per-term costs:", {k: f"{v:.2e}" for k, v in costs.items()})
print(f"max joint recovery error: {np.max(np.abs(solution.joint_angles - qs)):.2e} rad")

print("\n== ground alignment and contact extraction ==")
aligned = align_to_ground(solution, chain)
heights = [p.position[2] for p in aligned.root_poses]
print(f"root heights after alignment: {np.round(heights, 4)} (feet now touch z = 0)")
contacts = extract_contacts(aligned, chain, threshold=0.03)
print(f"per-frame contacts (left, right):\n{contacts}")

clip = solution_to_clip(aligned, [f.t for f in frames], hit_times=(0.35,))
with tempfile.TemporaryDirectory() as out_dir:
    out_path = os.path.join(out_dir, "retargeted_clip.json")
    save_clip(clip, out_path)
    print(f"exported reference clip to {out_path} ({os.path.getsize(out_path)} bytes, "
          "removed on exit)")
