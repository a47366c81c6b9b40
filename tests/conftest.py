import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from shuttlekit.spatial import EndEffector, Joint, KinematicChain, Pose, quat_identity

# Property tests draw the same examples on every run, keep no example
# database, and have no per-example deadline on a loaded host.
settings.register_profile("shuttlekit", derandomize=True, database=None, deadline=None)
settings.load_profile("shuttlekit")

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
vec3 = st.tuples(finite, finite, finite).map(np.array)
unit_quats = (
    st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 4)
    .map(np.array)
    .filter(lambda q: np.linalg.norm(q) > 0.1)
    .map(lambda q: q / np.linalg.norm(q))
)
poses = st.builds(Pose, vec3, unit_quats)


def arm_chain() -> KinematicChain:
    """3-joint arm with root-attached hip markers.

    The hips pin the root pose from keypoint positions alone; the hand
    frame sits off the wrist axis so every joint is observable.
    """
    ident = quat_identity()
    joints = (
        Joint("shoulder", -1, Pose(np.array([0.0, 0.0, 1.0]), ident),
              np.array([0.0, 0.0, 1.0]), (-2.5, 2.5)),
        Joint("elbow", 0, Pose(np.array([0.4, 0.0, 0.0]), ident),
              np.array([0.0, 1.0, 0.0]), (-2.0, 2.0)),
        Joint("wrist", 1, Pose(np.array([0.35, 0.0, 0.0]), ident),
              np.array([1.0, 0.0, 0.0]), (-1.5, 1.5)),
    )
    end_effectors = (
        EndEffector("hand", 2, Pose(np.array([0.08, 0.06, 0.02]), ident)),
        EndEffector("hip_l", -1, Pose(np.array([0.0, 0.1, 0.9]), ident)),
        EndEffector("hip_r", -1, Pose(np.array([0.0, -0.1, 0.9]), ident)),
    )
    return KinematicChain(joints, end_effectors)


def planar_two_link() -> KinematicChain:
    """Two unit links in the xy plane, both rotating about z."""
    ident = quat_identity()
    joints = (
        Joint("j1", -1, Pose(np.zeros(3), ident), np.array([0.0, 0.0, 1.0]),
              (-np.pi, np.pi)),
        Joint("j2", 0, Pose(np.array([1.0, 0.0, 0.0]), ident),
              np.array([0.0, 0.0, 1.0]), (-np.pi, np.pi)),
    )
    end_effectors = (
        EndEffector("tip", 1, Pose(np.array([1.0, 0.0, 0.0]), ident)),
    )
    return KinematicChain(joints, end_effectors)


def humanoid_chain() -> KinematicChain:
    """Small humanoid-flavored chain with the standard end effectors."""
    ident = quat_identity()
    joints = (
        Joint("hip_joint", -1, Pose(np.zeros(3), ident),
              np.array([0.0, 0.0, 1.0]), (-1.5, 1.5)),
        Joint("arm_joint", 0, Pose(np.array([0.0, 0.0, 0.4]), ident),
              np.array([0.0, 1.0, 0.0]), (-2.0, 2.0)),
    )
    end_effectors = (
        EndEffector("left_ankle", -1, Pose(np.array([0.0, 0.1, -0.8]), ident)),
        EndEffector("right_ankle", -1, Pose(np.array([0.0, -0.1, -0.8]), ident)),
        EndEffector("left_hand", 1, Pose(np.array([0.3, 0.1, 0.0]), ident)),
        EndEffector("right_hand", 1, Pose(np.array([0.3, -0.1, 0.0]), ident)),
        EndEffector("racket", 1, Pose(np.array([0.45, -0.1, 0.0]), ident)),
    )
    return KinematicChain(joints, end_effectors)


def random_quat(rng) -> np.ndarray:
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def random_pose(rng) -> Pose:
    return Pose(rng.normal(size=3), random_quat(rng))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
