import ast
import importlib
import inspect
import math
import re
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from conftest import arm_chain, planar_two_link, poses, random_pose, random_quat, vec3
from shuttlekit import retarget, spatial
from shuttlekit.amp import AmpFrame
from shuttlekit.estimator import EkfBelief
from shuttlekit.scenario import (
    EpisodeRecord,
    ManifoldPoint,
    RandomizationTable,
    StrikeManifold,
    strike_volume,
)
from shuttlekit.shuttle import ShuttleState
from shuttlekit.spatial import (
    Box,
    EndEffector,
    Joint,
    KinematicChain,
    Pose,
    Twist,
    chain_from_dict,
    chain_to_dict,
    forward_kinematics,
    quat_boxminus,
    quat_boxplus,
    quat_conj,
    quat_from_rotvec,
    quat_identity,
    quat_mul,
    quat_rotate,
    quat_to_matrix,
    to_base_frame,
)


class TestQuatBoxminus:
    def test_identity_pair_is_zero(self):
        assert np.allclose(quat_boxminus(quat_identity(), quat_identity()), 0.0)

    def test_quarter_turn_about_z(self):
        ref = quat_from_rotvec(np.array([0.0, 0.0, np.pi / 2]))
        out = quat_boxminus(ref, quat_identity())
        assert np.allclose(out, [0.0, 0.0, np.pi / 2], atol=1e-12)

    def test_matches_rotation_matrix_log_oracle(self, rng):
        # oracle: relative rotation matrix -> scipy rotation vector
        for _ in range(200):
            a, b = random_quat(rng), random_quat(rng)
            r_rel = quat_to_matrix(a) @ quat_to_matrix(b).T
            expected = Rotation.from_matrix(r_rel).as_rotvec()
            assert np.allclose(quat_boxminus(a, b), expected, atol=1e-9)

    def test_non_unit_input_rejected(self):
        with pytest.raises(ValueError):
            quat_boxminus(np.array([2.0, 0.0, 0.0, 0.0]), quat_identity())

    def test_magnitude_symmetric_and_bounded(self, rng):
        for _ in range(100):
            a, b = random_quat(rng), random_quat(rng)
            ab = np.linalg.norm(quat_boxminus(a, b))
            ba = np.linalg.norm(quat_boxminus(b, a))
            assert ab == pytest.approx(ba, abs=1e-12)
            assert 0.0 <= ab <= np.pi + 1e-12

    def test_boxplus_recovers_reference(self, rng):
        for _ in range(100):
            a, b = random_quat(rng), random_quat(rng)
            rec = quat_boxplus(b, quat_boxminus(a, b))
            err = min(np.linalg.norm(rec - a), np.linalg.norm(rec + a))
            assert err < 1e-9


class TestToBaseFrame:
    def test_identity_base_is_noop(self, rng):
        v = rng.normal(size=3)
        assert np.allclose(to_base_frame(v, Pose.identity(), is_point=True), v)
        assert np.allclose(to_base_frame(v, Pose.identity(), is_point=False), v)

    def test_translated_base_point(self):
        base = Pose(np.array([1.0, 0.0, 0.0]), quat_identity())
        out = to_base_frame(np.array([1.0, 1.0, 0.0]), base, is_point=True)
        assert np.allclose(out, [0.0, 1.0, 0.0])

    def test_free_vector_ignores_translation(self):
        base = Pose(np.array([5.0, -2.0, 3.0]), quat_identity())
        v = np.array([1.0, 1.0, 0.0])
        assert np.allclose(to_base_frame(v, base, is_point=False), v)

    def test_round_trip_through_inverse(self, rng):
        for _ in range(100):
            base = random_pose(rng)
            p = rng.normal(size=3)
            local = to_base_frame(p, base, is_point=True)
            assert np.allclose(base.transform_point(local), p, atol=1e-12)
            v = rng.normal(size=3)
            local_v = to_base_frame(v, base, is_point=False)
            assert np.allclose(base.transform_vector(local_v), v, atol=1e-12)

    def test_rows_match_single_vectors(self, rng):
        base = random_pose(rng)
        rows = rng.normal(size=(5, 3))
        for is_point in (True, False):
            out = to_base_frame(rows, base, is_point=is_point)
            assert out.shape == (5, 3)
            for row, local in zip(rows, out):
                single = to_base_frame(row, base, is_point=is_point)
                assert np.allclose(local, single, rtol=0.0, atol=1e-12)

    def test_bad_shape_rejected(self):
        for bad in (np.zeros(4), np.zeros((2, 4)), np.zeros((2, 3, 3))):
            with pytest.raises(ValueError):
                to_base_frame(bad, Pose.identity(), is_point=False)


def _fk_matrix_oracle(chain, root, q):
    """Chained homogeneous-matrix forward kinematics."""

    def homog(pose):
        t = np.eye(4)
        t[:3, :3] = quat_to_matrix(pose.orientation)
        t[:3, 3] = pose.position
        return t

    mats = []
    out = {}
    for i, joint in enumerate(chain.joints):
        parent = homog(root) if joint.parent < 0 else mats[joint.parent]
        rot = np.eye(4)
        rot[:3, :3] = Rotation.from_rotvec(joint.axis * q[i]).as_matrix()
        mat = parent @ homog(joint.offset) @ rot
        mats.append(mat)
        out[joint.name] = mat
    for ee in chain.end_effectors:
        parent = homog(root) if ee.parent < 0 else mats[ee.parent]
        out[ee.name] = parent @ homog(ee.offset)
    return out


def _fk_pose_oracle(chain, root, q):
    """Forward kinematics as one validated `Pose.compose` per joint."""
    out = {}
    for i, joint in enumerate(chain.joints):
        parent = root if joint.parent < 0 else out[chain.joints[joint.parent].name]
        turn = Pose(np.zeros(3), quat_from_rotvec(joint.axis * q[i]))
        out[joint.name] = parent.compose(joint.offset).compose(turn)
    for ee in chain.end_effectors:
        parent = root if ee.parent < 0 else out[chain.joints[ee.parent].name]
        out[ee.name] = parent.compose(ee.offset)
    return out


def _fk_floats(chain, root, q):
    """Each frame's position and quaternion floats as `forward_kinematics` chains them,
    in `chain.frame_rows` order, before anything normalises or signs the quaternion."""
    base = (tuple(root.position.tolist()), tuple(root.orientation.tolist()))
    frames = []
    for angle, (parent, (x, y, z), quat, axis) in zip(
            q.tolist() + [0.0] * len(chain.end_effectors), chain._fk_table):
        (px, py, pz), rot = base if parent < 0 else frames[parent]
        m = spatial._matrix_entries(rot)
        origin = (m[0] * x + m[1] * y + m[2] * z + px, m[3] * x + m[4] * y + m[5] * z + py,
                  m[6] * x + m[7] * y + m[8] * z + pz)
        rot = spatial._quat_product(rot, quat)
        if axis is not None:
            s = math.sin(0.5 * angle)
            rot = spatial._quat_product(rot, (math.cos(0.5 * angle), *(s * a for a in axis)))
        frames.append((origin, rot))
    return frames


axes = vec3.filter(lambda a: np.linalg.norm(a) > 0.1)


@st.composite
def chain_states(draw):
    """A joint tree with random offsets (rotations included) and axes, a root and angles."""
    n = draw(st.integers(1, 5))
    joints = tuple(
        Joint(f"j{i}", draw(st.integers(-1, i - 1)), draw(poses), draw(axes), (-7.0, 7.0))
        for i in range(n)
    )
    end_effectors = tuple(
        EndEffector(f"e{k}", draw(st.integers(-1, n - 1)), draw(poses))
        for k in range(draw(st.integers(0, 3)))
    )
    angles = draw(st.lists(st.floats(-2 * np.pi, 2 * np.pi), min_size=n, max_size=n))
    return KinematicChain(joints, end_effectors), draw(poses), np.array(angles)


ARM_STATE = (
    arm_chain(),
    Pose(np.array([0.3, -0.2, 0.5]), quat_from_rotvec(np.array([0.2, -0.4, 1.1]))),
    np.array([0.7, -1.2, 0.4]),
)


class TestForwardKinematics:
    def test_zero_angles_sum_offsets(self):
        chain = planar_two_link()
        frames = forward_kinematics(chain, Pose.identity(), np.zeros(2))
        assert np.allclose(frames["tip"].position, [2.0, 0.0, 0.0])

    def test_right_angle_first_joint(self):
        chain = planar_two_link()
        frames = forward_kinematics(chain, Pose.identity(), np.array([np.pi / 2, 0.0]))
        assert np.allclose(frames["tip"].position, [0.0, 2.0, 0.0], atol=1e-12)

    @given(chain_states())
    @example(ARM_STATE)
    def test_matches_homogeneous_matrix_oracle(self, state):
        chain, root, q = state
        frames = forward_kinematics(chain, root, q)
        oracle = _fk_matrix_oracle(chain, root, q)
        assert frames.keys() == oracle.keys()
        for name, pose in frames.items():
            assert np.allclose(pose.position, oracle[name][:3, 3], rtol=0.0, atol=1e-12)
            assert np.allclose(
                quat_to_matrix(pose.orientation), oracle[name][:3, :3], rtol=0.0, atol=1e-12
            )

    @given(chain_states())
    @example(ARM_STATE)
    def test_matches_per_joint_pose_compose(self, state):
        chain, root, q = state
        frames = forward_kinematics(chain, root, q)
        oracle = _fk_pose_oracle(chain, root, q)
        assert frames.keys() == oracle.keys()
        for name, pose in frames.items():
            assert np.allclose(pose.position, oracle[name].position, rtol=0.0, atol=1e-12)
            # q and -q are one rotation; both sides pick w >= 0, which leaves the sign
            # free only where w is 0 to rounding
            other = oracle[name].orientation
            assert min(np.abs(pose.orientation - other).max(),
                       np.abs(pose.orientation + other).max()) < 1e-12

    def test_wrong_length_rejected(self):
        chain = planar_two_link()
        with pytest.raises(ValueError):
            forward_kinematics(chain, Pose.identity(), np.zeros(3))

    def test_overflowing_frame_position_rejected(self):
        far = Pose(np.array([1e308, 0.0, 0.0]), quat_identity())  # root plus offset overflows
        chain = KinematicChain((Joint("j", -1, far, np.array([0.0, 0.0, 1.0]), (-1.0, 1.0)),))
        with pytest.raises(ValueError, match="^position has non-finite components$"):
            forward_kinematics(chain, far, np.zeros(1))

    @given(chain_states())
    @example(ARM_STATE)
    def test_rows_hold_what_a_pose_of_the_fk_floats_stores(self, state):
        chain, root, q = state
        built = []
        with pytest.MonkeyPatch.context() as mp:
            post_init = Pose.__post_init__
            mp.setattr(Pose, "__post_init__", lambda pose: built.append(post_init(pose)))
            fk = forward_kinematics(chain, root, q)
        assert not built  # the call itself builds no Pose
        assert list(fk) == list(chain.frame_rows) and len(fk) == len(chain.frame_rows)
        assert fk.positions.shape == (len(fk), 3) and fk.orientations.shape == (len(fk), 4)
        for (name, i), (p, r) in zip(chain.frame_rows.items(), _fk_floats(chain, root, q)):
            pose = Pose(np.array(p), np.array(r))
            for got in ((fk.positions[i], fk.orientations[i]),
                        (fk[name].position, fk[name].orientation)):
                assert got[0].tobytes() == pose.position.tobytes()
                assert got[1].tobytes() == pose.orientation.tobytes()
        for rows in (fk.positions, fk.orientations, fk[name].position, fk[name].orientation):
            with pytest.raises(ValueError, match="read-only"):
                rows[0] = 0.0

    @given(chain_states())
    @example(ARM_STATE)
    def test_invariant_under_root_change(self, state):
        # the root is the frame the root-level offsets are given in: moving the
        # chain by it, or folding it into those offsets, gives the same frames
        chain, root, q = state
        moved = forward_kinematics(chain, root, q)
        local = forward_kinematics(chain, Pose.identity(), q)
        folded = KinematicChain(
            tuple(replace(j, offset=root.compose(j.offset)) if j.parent < 0 else j
                  for j in chain.joints),
            tuple(replace(e, offset=root.compose(e.offset)) if e.parent < 0 else e
                  for e in chain.end_effectors),
        )
        refolded = forward_kinematics(folded, Pose.identity(), q)
        for name in moved:
            for other in (root.compose(local[name]), refolded[name]):
                assert np.allclose(moved[name].position, other.position, rtol=0.0, atol=1e-12)
                dq = quat_boxminus(moved[name].orientation, other.orientation)
                assert np.linalg.norm(dq) < 1e-12


class TestPose:
    def test_canonical_sign(self):
        q = -quat_identity()
        pose = Pose(np.zeros(3), q)
        assert pose.orientation[0] >= 0.0

    def test_norm_validated(self):
        with pytest.raises(ValueError):
            Pose(np.zeros(3), np.array([0.5, 0.0, 0.0, 0.0]))

    def test_compose_inverse_round_trip(self, rng):
        for _ in range(20):
            a = random_pose(rng)
            conj = quat_conj(a.orientation)
            ident = a.compose(Pose(-quat_rotate(conj, a.position), conj))
            assert np.allclose(ident.position, 0.0, atol=1e-12)
            assert abs(ident.orientation[0]) == pytest.approx(1.0, abs=1e-12)

    def test_quat_mul_matches_matrix_product(self, rng):
        a, b = random_quat(rng), random_quat(rng)
        assert np.allclose(
            quat_to_matrix(quat_mul(a, b)),
            quat_to_matrix(a) @ quat_to_matrix(b),
            atol=1e-12,
        )


# each quaternion argument, by the name its check reports, and a call that passes it
QUAT_ARGUMENTS = {
    "orientation": lambda q: Pose(np.zeros(3), q),
    "ref": lambda q: quat_boxminus(q, quat_identity()),
    "cur": lambda q: quat_boxminus(quat_identity(), q),
    "quaternion": lambda q: quat_boxplus(q, np.zeros(3)),
}


@pytest.mark.parametrize("name", QUAT_ARGUMENTS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("slot", range(4))
def test_non_finite_quaternion_entry_rejected(name, bad, slot):
    q = quat_identity()
    q[slot] = bad
    with pytest.raises(ValueError, match=rf"^{name} is not unit norm \(\|q\| = {abs(bad)}\)$"):
        QUAT_ARGUMENTS[name](q)


class TestBox:
    BOX = Box(np.array([0.0, 0.0, 1.0]), np.array([2.0, 0.4, 0.3]))

    def test_contains(self):
        box = self.BOX
        assert box.contains([0.9, 0.19, 1.1])
        assert not box.contains([1.1, 0.0, 1.0])
        assert box.contains([1.0, 0.2, 1.15])  # boundary inclusive

    def test_rows_match_single_points(self):
        rows = np.array([
            [0.9, 0.19, 1.1],
            [1.1, 0.0, 1.0],
            [1.0, 0.2, 1.15],  # boundary, every axis
            [-1.0, -0.2, 1.15],  # boundary, every axis
            [0.0, -0.21, 1.0],
        ])
        inside = self.BOX.contains(rows)
        assert inside.dtype == bool
        assert inside.tolist() == [True, False, True, True, False]
        assert inside.tolist() == [self.BOX.contains(p) for p in rows]
        assert self.BOX.contains(np.zeros((0, 3))).shape == (0,)

    def test_bad_shape_rejected(self):
        for bad in (0.0, np.zeros(2), np.zeros(4), np.zeros((2, 2)), np.zeros((1, 2, 3))):
            with pytest.raises(ValueError):
                self.BOX.contains(bad)


ZERO3 = np.zeros(3)
# every validated 3-vector field: (field name, build from the field's value
# with the other fields valid)
VECTOR_FIELDS = [
    ("position", lambda v: ShuttleState(v, ZERO3)),
    ("velocity", lambda v: ShuttleState(ZERO3, v)),
    ("axis", lambda v: ShuttleState(ZERO3, ZERO3, v)),
    ("position", lambda v: Pose(v, quat_identity())),
    ("linear", lambda v: Twist(v, ZERO3)),
    ("angular", lambda v: Twist(ZERO3, v)),
    ("center", lambda v: Box(v, ZERO3)),
    ("size", lambda v: Box(ZERO3, v)),
]


class TestVectorFields:
    @given(st.sampled_from(VECTOR_FIELDS), vec3, st.integers(0, 2),
           st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_non_finite_entry_names_the_field(self, case, v, slot, bad):
        name, build = case
        v = v.tolist()
        v[slot] = bad
        with pytest.raises(ValueError, match=f"^{name} has non-finite components$"):
            build(v)

    @pytest.mark.parametrize("case", VECTOR_FIELDS)
    @pytest.mark.parametrize("v, message", [
        (["x", 0.0, 0.0], "must hold numbers: could not convert string to float: 'x'"),
        ([0.0, 0.0], "must have shape (3,), got (2,)"),
        ([[0.0], [0.0], [0.0]], "must have shape (3,), got (3, 1)"),
    ], ids=["non-numeric", "short", "column"])
    def test_non_numeric_or_misshapen_vector_names_the_field(self, case, v, message):
        name, build = case
        with pytest.raises(ValueError, match=f"^{name} {re.escape(message)}$"):
            build(v)

    # the axis is stored normalized, so it is left out
    @given(st.sampled_from([c for c in VECTOR_FIELDS if c[0] != "axis"]), vec3)
    def test_finite_entries_are_stored_as_float64(self, case, v):
        name, build = case
        v = (np.abs(v) if name == "size" else v).tolist()  # a box size is non-negative
        stored = getattr(build(v), name)
        assert stored.dtype == np.float64
        assert stored.tobytes() == np.asarray(v, dtype=np.float64).tobytes()


class TestChainIo:
    def test_round_trip(self, tmp_path):
        chain = arm_chain()
        data = chain_to_dict(chain)
        rebuilt = chain_from_dict(data)
        assert rebuilt.n_joints == chain.n_joints
        assert rebuilt.end_effector_names() == chain.end_effector_names()
        q = np.array([0.3, -0.2, 0.7])
        a = forward_kinematics(chain, Pose.identity(), q)
        b = forward_kinematics(rebuilt, Pose.identity(), q)
        for name in a:
            assert np.allclose(a[name].position, b[name].position)

    def test_topology_validated(self):
        data = chain_to_dict(arm_chain())
        data["joints"][0]["parent"] = 2
        with pytest.raises(ValueError):
            chain_from_dict(data)

    def test_limits_validated(self):
        data = chain_to_dict(arm_chain())
        data["joints"][1]["limits"] = [1.0, -1.0]
        with pytest.raises(ValueError):
            chain_from_dict(data)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["joints"][1].update(parent=1),
         "joint 'elbow' parent 1 breaks topological order"),
        (lambda d: d["joints"][0].update(parent=-2),
         "joint 'shoulder' parent -2 breaks topological order"),
        (lambda d: d["joints"][2].update(name="shoulder"), "duplicate frame name 'shoulder'"),
        (lambda d: d["end_effectors"][0].update(parent=3),
         "end effector 'hand' has invalid parent"),
        (lambda d: d["end_effectors"][1].update(name="wrist"), "duplicate frame name 'wrist'"),
        (lambda d: d["end_effectors"][2].update(name="hip_l"), "duplicate frame name 'hip_l'"),
    ], ids=["joint-self-parent", "joint-parent-below-root", "joint-twice", "ee-parent-past-joints",
            "ee-named-as-joint", "ee-twice"])
    def test_chain_error_names_the_frame(self, edit, message):
        data = chain_to_dict(arm_chain())
        edit(data)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            chain_from_dict(data)

    def test_frame_rows_are_the_fk_order(self):
        chain = arm_chain()
        assert chain.frame_rows == {"shoulder": 0, "elbow": 1, "wrist": 2,
                                    "hand": 3, "hip_l": 4, "hip_r": 5}
        fk = forward_kinematics(chain, Pose.identity(), np.zeros(3))
        assert list(fk) == list(chain.frame_rows)


def test_json_load_is_called_only_in_load_json():
    """Every JSON input is read by spatial._load_json, which names the file in
    any error; a second reader would not."""
    package = Path(spatial.__file__).parent
    calls = {p.name: p.read_text().count("json.load(") for p in package.glob("*.py")}
    assert {name: n for name, n in calls.items() if n} == {"spatial.py": 1}
    assert "json.load(" in inspect.getsource(spatial._load_json)


def test_csv_is_parsed_only_in_spatial():
    """Every CSV input is read by spatial._csv_records, which reads its columns by
    header name and names the file and row in any error; a second parser would not."""
    package = Path(spatial.__file__).parent
    for needle in ("import csv", '.split(",")'):
        found = {p.name for p in package.glob("*.py") if needle in p.read_text()}
        assert found <= {"spatial.py"}, (needle, found)
    assert "csv.reader(" in inspect.getsource(spatial._csv_records)


def _calls_by_scope(node, scope):
    """(innermost enclosing def, called expression) of every call under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield scope, ast.unparse(child.func)
        inner = getattr(child, "name", None) if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        yield from _calls_by_scope(child, f"{scope}.{inner}" if inner else scope)


def test_json_is_written_only_by_writers_that_round_through_round9():
    """Every `json.dump(`/`json.dumps(` sits in a named writer that rounds its floats with
    `spatial._round9`, directly or through `_round_floats`, and the 9-digit rule is written
    once for JSON and once for CSV text: no second rounding rule can creep in."""
    package = Path(spatial.__file__).parent
    calls: dict[str, set] = {}
    for p in package.glob("*.py"):
        assert "from json import" not in p.read_text(), p.name
        for scope, call in _calls_by_scope(ast.parse(p.read_text()), p.stem):
            calls.setdefault(scope, set()).add(call)
    writers = {scope for scope, c in calls.items() if c & {"json.dump", "json.dumps"}}
    assert writers == {"cli._write_json", "goal.save_clip", "scenario.save_manifold"}
    for scope in writers:
        assert calls[scope] & {"_round9", "_round_floats"}, scope
    assert "_round9" in calls["spatial._round_floats"]
    nine = {p.name: p.read_text().count('".9g"') for p in package.glob("*.py")}
    assert {name: n for name, n in nine.items() if n} == {"spatial.py": 2}
    assert '".9g"' in inspect.getsource(spatial._round9)
    assert '".9g"' in inspect.getsource(spatial._write_csv)


# A checked instance of each class that library code builds through `spatial._record`, built
# from values that are already what its `__post_init__` stores
RECORD_VALUES = {
    Pose: (np.array([0.1, 0.2, 0.3]), np.array([1.0, 0.0, 0.0, 0.0])),
    EkfBelief: (np.arange(6.0), np.eye(6)),
    ShuttleState: (np.array([0.0, 0.0, 2.0]), np.array([3.0, 0.0, 2.0]), np.array([0.0, 0, 1])),
    ManifoldPoint: (np.array([0.1, 0.2, 1.1]), 1.0, 3),
    EpisodeRecord: (4, True, np.array([0.1, 0.0, -0.2]), True, False, True, 7.5),
    StrikeManifold: ((ManifoldPoint([0.1, 0.2, 1.1], 1.0, 3),), "easy", strike_volume("easy")),
    AmpFrame: (np.arange(4.0),),
}


@pytest.mark.parametrize("cls", RECORD_VALUES, ids=lambda cls: cls.__name__)
def test_record_stores_what_the_checked_constructor_stores(cls):
    """`_record` stores its values as `__post_init__` would: the same values and types, under
    the same keys in field order, in an instance dict of the same `sys.getsizeof`."""
    checked = cls(*RECORD_VALUES[cls])
    built = spatial._record(cls, *RECORD_VALUES[cls])
    assert list(vars(built)) == list(vars(checked))
    for key, value in vars(checked).items():
        stored = vars(built)[key]
        assert type(stored) is type(value), key
        assert np.array_equal(stored, value) if isinstance(value, np.ndarray) else stored == value
    assert sys.getsizeof(vars(built)) == sys.getsizeof(vars(checked))


def test_records_are_built_unchecked_only_through_spatial_record():
    """`spatial._record` is the one unchecked builder: `object.__new__` is written once, in it,
    and no per-class one is left. Each class handed to it holds only its dataclass fields once
    checked, so `_record` never skips a table that `__post_init__` derives, as
    `ReferenceClip`, `RetargetProblem`, `KinematicChain` and `RandomizationTable` store."""
    package = Path(spatial.__file__).parent
    sources = {p.stem: p.read_text() for p in package.glob("*.py")}
    assert {name: text.count("object.__new__") for name, text in sources.items()
            if "object.__new__" in text} == {"spatial": 1}
    assert "object.__new__" in inspect.getsource(spatial._record)
    assert not any(re.search(r"_of_(checked|rows)\b", text) for text in sources.values())
    built = set()
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "_record":
                module = importlib.import_module(f"shuttlekit.{name}")
                built.add(getattr(module, ast.unparse(node.args[0])))
    assert built and built <= set(RECORD_VALUES), built - set(RECORD_VALUES)
    for cls in built:
        assert list(vars(cls(*RECORD_VALUES[cls]))) == [f.name for f in fields(cls)], cls
    assert list(vars(RandomizationTable())) != [f.name for f in fields(RandomizationTable)]


def test_retarget_reads_fk_rows_by_the_chain_index():
    """The chain alone orders its frames: retarget builds no frame index of its own,
    and its linearization indexes FK rows with no name lookup."""
    source = Path(retarget.__file__).read_text()
    assert "_frame_index" not in source
    for linearization in (retarget._residuals, retarget._jacobian):
        assert "index[" not in inspect.getsource(linearization)
        # it reads FK's row arrays, and restacks no poses
        assert "np.cross" not in source and ".values()" not in inspect.getsource(linearization)
