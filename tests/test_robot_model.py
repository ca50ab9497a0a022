import json
import math
import os
import tempfile
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evotree import robot_model as rm
from evotree.errors import (
    CorrespondenceConflictError,
    InvalidInputError,
    OutOfHullError,
    SpecValidationError,
)
from evotree.evo_tree import clamp_meta


def finger_spec(name, n_fingers, lengths, corr=None):
    """Hand-like robot: palm root plus n finger chains with a knuckle joint each."""
    bodies = [rm.Body(id="palm", parent=None)]
    params = {}
    for i in range(n_fingers):
        fid = f"finger{i}"
        bodies.append(
            rm.Body(
                id=fid,
                parent="palm",
                joints=(
                    rm.Joint(name=f"knuckle{i}", kind="revolute", range=(-1.0, 1.0)),
                ),
            )
        )
        params[f"body.{fid}.length"] = rm.Param(lengths[i], "m")
    return rm.RobotSpec(
        name=name, bodies=tuple(bodies), params=params, correspondence=corr or {}
    )


@pytest.fixture
def hand_family():
    source = finger_spec("hand5", 5, [1.0, 1.1, 1.2, 1.1, 0.9])
    g2 = finger_spec("grip2", 2, [0.8, 0.8])
    g3 = finger_spec("grip3", 3, [0.7, 0.75, 0.7])
    g4 = finger_spec("grip4", 4, [0.6, 0.7, 0.7, 0.6])
    return [source, g2, g3, g4]


class TestMatchKinematics:
    def test_identical_pair(self):
        a = finger_spec("a", 1, [0.5])
        b = finger_spec("b", 1, [0.7])
        matched = rm.match_kinematics([a, b])
        body_ids = {cid for cid, _ in matched.bodies}
        assert body_ids == {"palm", "finger0"}
        # one declared parameter plus (lo, width) for the single shared joint
        assert len(matched.parameter_keys) == 1 + 2
        assert matched.thetas["a"][0] == 0.5
        assert matched.thetas["b"][0] == 0.7

    def test_finger_family_union(self, hand_family):
        matched = rm.match_kinematics(hand_family)
        finger_bodies = [cid for cid, _ in matched.bodies if cid.startswith("finger")]
        assert len(finger_bodies) == 5
        # absent fingers embed with zero lengths and frozen joints
        g2 = matched.thetas["grip2"]
        keys = matched.parameter_keys
        idx = keys.index("body.finger4.length")
        assert g2[idx] == 0.0
        lo_idx = keys.index("joint.finger4.knuckle4.range_lo")
        w_idx = keys.index("joint.finger4.knuckle4.range_width")
        assert g2[lo_idx] == 0.0 and g2[w_idx] == 0.0

    def test_locomotion_set_dimension(self):
        def loco(name, vals):
            bodies = (
                rm.Body(id="torso", parent=None),
                rm.Body(id="thruster_x", parent="torso"),
                rm.Body(id="thruster_y", parent="torso"),
            )
            keys = [
                "body.damping",
                "body.torso.mass",
                "motor.limit",
                "motor.x.gain",
                "motor.y.gain",
            ]
            params = {k: rm.Param(v) for k, v in zip(keys, vals)}
            return rm.RobotSpec(name=name, bodies=bodies, params=params)

        specs = [
            loco("s", [0.5, 1.0, 2.4, 1.2, 1.2]),
            loco("t1", [1.2, 1.8, 2.0, 0.24, 0.26]),
            loco("t2", [1.15, 1.7, 1.95, 0.26, 0.23]),
        ]
        matched = rm.match_kinematics(specs)
        assert len(matched.parameter_keys) == 5

    def test_order_insensitive(self, hand_family):
        base = rm.match_kinematics(hand_family)
        shuffled = [hand_family[i] for i in (2, 0, 3, 1)]
        other = rm.match_kinematics(shuffled)
        assert base.parameter_keys == other.parameter_keys
        assert set(base.bodies) == set(other.bodies)
        for spec in hand_family:
            assert np.array_equal(base.thetas[spec.name], other.thetas[spec.name])

    def test_correspondence_conflict(self):
        a = finger_spec("a", 2, [0.5, 0.6])
        with pytest.raises(CorrespondenceConflictError):
            b = finger_spec(
                "b", 2, [0.5, 0.6], corr={"finger0": "digit", "finger1": "digit"}
            )
            rm.match_kinematics([a, b])

    def test_cyclic_parents_rejected(self):
        bodies = (
            rm.Body(id="x", parent="y"),
            rm.Body(id="y", parent="x"),
            rm.Body(id="root", parent=None),
        )
        good = finger_spec("good", 1, [0.5])
        with pytest.raises(SpecValidationError):
            bad = rm.RobotSpec(name="bad", bodies=bodies, params={})
            rm.match_kinematics([bad, good])

    def test_spec_made_in_code_is_checked_when_made(self):
        bodies = (rm.Body("root", None), rm.Body("x", "y"), rm.Body("y", "x"))
        with pytest.raises(SpecValidationError, match="cyclic parent references"):
            rm.RobotSpec(name="bad", bodies=bodies, params={})

    def test_unit_mismatch_rejected(self):
        a = rm.RobotSpec(
            name="a",
            bodies=(rm.Body(id="base", parent=None),),
            params={"gear": rm.Param(1.0, "m")},
        )
        b = rm.RobotSpec(
            name="b",
            bodies=(rm.Body(id="base", parent=None),),
            params={"gear": rm.Param(2.0, "mm")},
        )
        with pytest.raises(SpecValidationError):
            rm.match_kinematics([a, b])

    def test_correspondence_unknown_id(self):
        b = finger_spec("b", 1, [0.5])
        with pytest.raises(SpecValidationError):
            a = finger_spec("a", 1, [0.5], corr={"ghost": "finger0"})
            rm.match_kinematics([a, b])

    @pytest.mark.parametrize("lo,hi", [(math.nan, 1.0), (0.0, math.inf), (-math.inf, 0.0)])
    def test_non_finite_joint_range_rejected(self, lo, hi):
        a = finger_spec("a", 1, [0.5])
        bodies = (a.bodies[0], rm.Body("finger0", "palm", (rm.Joint("knuckle0", "revolute", (lo, hi)),)))
        with pytest.raises(SpecValidationError, match="knuckle0"):
            b = rm.RobotSpec(name="b", bodies=bodies, params=dict(a.params))
            rm.match_kinematics([a, b])


class TestBounds:
    def test_elementwise(self):
        lo, hi = rm.compute_bounds([(1.0, 5.0), (2.0, 3.0), (0.0, 4.0)])
        assert np.array_equal(lo, [0.0, 3.0])
        assert np.array_equal(hi, [2.0, 5.0])

    def test_single_vector(self):
        lo, hi = rm.compute_bounds([(1.5, -2.0)])
        assert np.array_equal(lo, [1.5, -2.0])
        assert np.array_equal(hi, [1.5, -2.0])

    def test_all_equal_flags_zero_width(self):
        lo, hi = rm.compute_bounds([(1.0, 2.0), (1.0, 2.0)])
        assert np.array_equal(lo, hi)


class TestNormalize:
    @pytest.fixture
    def space(self):
        return rm.EvolutionSpace(
            parameter_keys=("a", "b", "c"),
            theta_lower=np.array([0.0, -1.0, 2.0]),
            theta_upper=np.array([1.0, 3.0, 2.0]),  # dim 2 zero-width
        )

    def test_endpoints(self, space):
        assert np.array_equal(
            rm.normalize(space.theta_lower, space), [0.0, 0.0, 0.0]
        )
        alpha_hi = rm.normalize(space.theta_upper, space)
        assert np.array_equal(alpha_hi[:2], [1.0, 1.0])

    def test_midpoint(self, space):
        mid = (space.theta_lower + space.theta_upper) / 2
        alpha = rm.normalize(mid, space)
        assert np.allclose(alpha[:2], 0.5)

    def test_zero_width_convention(self, space):
        alpha = rm.normalize(np.array([0.5, 0.0, 2.0]), space)
        assert alpha[2] == 0.0
        theta = rm.denormalize(alpha, space)
        assert theta[2] == 2.0

    def test_round_trip(self, space):
        rng = np.random.default_rng(42)
        for _ in range(100):
            u = rng.random(3)
            theta = (1 - u) * space.theta_lower + u * space.theta_upper
            back = rm.denormalize(rm.normalize(theta, space), space)
            assert np.allclose(back, theta, atol=1e-12)

    def test_out_of_hull(self, space):
        with pytest.raises(OutOfHullError):
            rm.normalize(np.array([2.0, 0.0, 2.0]), space)
        with pytest.raises(OutOfHullError):
            rm.denormalize(np.array([0.5, 1.5, 0.0]), space)

    def test_nan_is_out_of_hull(self, space):
        with pytest.raises(OutOfHullError, match=r"theta\[1\] = nan outside"):
            rm.normalize(np.array([0.5, math.nan, 2.0]), space)
        batch = np.full((3, 3), 0.5)
        batch[2, 0] = math.nan
        with pytest.raises(OutOfHullError, match=r"alpha\[2, 0\] = nan outside"):
            rm.denormalize(batch, space)

    def test_batch_equals_rows(self, space):
        rng = np.random.default_rng(7)
        batch = rng.random((6, 3))
        batch[2, 1] = 1.0
        rows = np.array([rm.denormalize(a, space) for a in batch])
        assert np.array_equal(rm.denormalize(batch, space), rows)
        batch[4, 2] = -0.5
        with pytest.raises(OutOfHullError, match=r"alpha\[4, 2\] = -0.5 outside"):
            rm.denormalize(batch, space)
        with pytest.raises(InvalidInputError):
            rm.denormalize(batch[:, :2], space)


class TestInstantiate:
    @pytest.fixture
    def family(self):
        specs = [
            finger_spec("hand5", 5, [1.0, 1.1, 1.2, 1.1, 0.9]),
            finger_spec("grip2", 2, [0.8, 0.8]),
            finger_spec("grip3", 3, [0.7, 0.75, 0.7]),
        ]
        matched = rm.match_kinematics(specs)
        space = rm.build_evolution_space(matched)
        return specs, matched, space

    def test_endpoint_reproduces_robot(self, family):
        specs, matched, space = family
        keys = matched.parameter_keys
        for spec in specs:
            theta = matched.thetas[spec.name]
            alpha = rm.normalize(theta, space)
            robot = rm.instantiate(alpha, space, matched)
            for key, p in spec.params.items():
                i = keys.index(key)
                at_bound = theta[i] in (space.theta_lower[i], space.theta_upper[i])
                if at_bound:
                    # interpolation endpoints reproduce bit-exactly
                    assert robot.params[key].value == p.value
                else:
                    assert robot.params[key].value == pytest.approx(
                        p.value, abs=1e-12
                    )

    def test_source_reproduced_bit_exactly(self, family):
        # the source is extremal in every dimension here, so its whole
        # parameter map round-trips without any float drift
        specs, matched, space = family
        theta = matched.thetas["hand5"]
        robot = rm.instantiate(rm.normalize(theta, space), space, matched)
        for key, p in specs[0].params.items():
            assert robot.params[key].value == p.value

    def test_midpoint_parameters(self, family):
        specs, matched, space = family
        a0 = rm.normalize(matched.thetas["hand5"], space)
        a1 = rm.normalize(matched.thetas["grip2"], space)
        robot = rm.instantiate((a0 + a1) / 2, space, matched)
        theta = rm.denormalize((a0 + a1) / 2, space)
        keys = matched.parameter_keys
        for i, key in enumerate(keys):
            if key.startswith("joint."):
                continue
            assert robot.params[key].value == pytest.approx(theta[i])

    def test_joint_widths_nonnegative(self, family):
        _, matched, space = family
        rng = np.random.default_rng(7)
        for _ in range(1000):
            robot = rm.instantiate(rng.random(space.dimension), space, matched)
            for body in robot.bodies:
                for joint in body.joints:
                    assert joint.range[1] >= joint.range[0]

    def test_containment(self, family):
        _, matched, space = family
        rng = np.random.default_rng(11)
        for _ in range(100):
            alpha = rng.random(space.dimension)
            theta = rm.denormalize(alpha, space)
            assert np.all(theta >= space.theta_lower - 1e-12)
            assert np.all(theta <= space.theta_upper + 1e-12)

    def test_frozen_joint_at_zero_width(self, family):
        _, matched, space = family
        # grip2 lacks fingers 2-4: at its exact coordinates those joints freeze
        alpha = rm.normalize(matched.thetas["grip2"], space)
        robot = rm.instantiate(alpha, space, matched)
        by_body = {b.id: b for b in robot.bodies}
        joint = by_body["finger4"].joints[0]
        assert joint.kind == "frozen"
        assert joint.range == (0.0, 0.0)

    def test_out_of_hull_alpha(self, family):
        _, matched, space = family
        with pytest.raises(OutOfHullError):
            rm.instantiate(np.full(space.dimension, 1.5), space, matched)


class TestMonotoneReparameterization:
    def test_clamp_commutes_with_monotone_maps(self):
        rng = np.random.default_rng(3)
        maps = [
            lambda x: x,
            lambda x: x**3 + x,
            lambda x: np.exp(x),
            lambda x: np.arctan(2 * x),
        ]
        for trial in range(30):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(2, 5))
            thetas = rng.normal(size=(n, d))
            alpha = rng.normal(size=d)
            f = [maps[int(rng.integers(len(maps)))] for _ in range(d)]

            def apply(v):
                return np.array([f[k](v[..., k]) for k in range(d)]).T

            direct = apply(clamp_meta(alpha, thetas)[None, :])[0]
            mapped = clamp_meta(apply(alpha[None, :])[0], apply(thetas))
            assert np.allclose(direct, mapped, atol=1e-9), trial


ELBOW = {"name": "elbow", "kind": "revolute", "range": [-1, 1]}
PAYLOAD = {
    "name": "bot",
    "bodies": [
        {"id": "base", "parent": None, "joints": []},
        {"id": "arm", "parent": "base", "joints": [ELBOW]},
    ],
    "params": {"arm.length": {"value": 0.5, "unit": "m"}, "arm.width": 0.1},
    "correspondence": {"arm": "limb"},
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["root", "base", "arm", "limb", "elbow", "revolute", "joint.x"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["id", "parent", "joints", "name", "kind", "range", "value", "unit"])
        | st.text(max_size=4),
        inner,
        max_size=3,
    ),
    max_leaves=6,
)


def field_paths(value, prefix=()):
    """The path of every field inside a JSON value, as a tuple of keys."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    return [p for k, v in items for p in [(*prefix, k), *field_paths(v, (*prefix, k))]]


class TestFileLoading:
    def test_round_trip(self, tmp_path):
        payload = {
            "name": "bot",
            "bodies": [
                {"id": "base", "parent": None, "joints": []},
                {
                    "id": "arm",
                    "parent": "base",
                    "joints": [
                        {"name": "elbow", "kind": "revolute", "range": [-1, 1]}
                    ],
                },
            ],
            "params": {"arm.length": {"value": 0.5, "unit": "m"}},
            "correspondence": {"arm": "limb"},
        }
        path = tmp_path / "bot.json"
        path.write_text(json.dumps(payload))
        spec = rm.load_robot_spec(str(path))
        assert spec.name == "bot"
        assert spec.params["arm.length"].value == 0.5
        assert spec.correspondence == {"arm": "limb"}

    def test_error_reports_file_and_key(self, tmp_path):
        payload = {
            "name": "bot",
            "bodies": [{"id": "base", "parent": None, "joints": []}],
            "params": {"bad": {"value": "not-a-number"}},
        }
        path = tmp_path / "bot.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SpecValidationError) as err:
            rm.load_robot_spec(str(path))
        assert "bot.json" in str(err.value)
        assert "bad" in str(err.value)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(SpecValidationError):
            rm.load_robot_spec(str(path))

    def test_reserved_key_prefix(self, tmp_path):
        payload = {
            "name": "bot",
            "bodies": [{"id": "base", "parent": None, "joints": []}],
            "params": {"joint.sneaky": 1.0},
        }
        path = tmp_path / "bot.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SpecValidationError):
            rm.load_robot_spec(str(path))

    @pytest.mark.parametrize("bounds", ["[NaN, 1]", "[0, Infinity]", "[-Infinity, 0]"])
    def test_non_finite_joint_range(self, tmp_path, bounds):
        # json reads NaN and Infinity; the range check must not let them pass
        path = tmp_path / "bot.json"
        path.write_text(json.dumps(PAYLOAD).replace("[-1, 1]", bounds))
        with pytest.raises(SpecValidationError) as err:
            rm.load_robot_spec(str(path))
        assert "bot.json" in str(err.value) and "key=elbow" in str(err.value)

    @pytest.mark.parametrize(
        "where,value,key",
        [
            (("bodies", 1, "joints", 0, "range"), "12", "elbow"),
            (("params", "arm.width"), True, "arm.width"),
            (("params", "arm.length", "value"), "2.5", "arm.length"),
        ],
        ids=["range-string", "param-bool", "value-string"],
    )
    def test_non_numbers_refused(self, tmp_path, where, value, key):
        # float() would read "12" as the range (1.0, 2.0), true as 1.0 and
        # "2.5" as 2.5: only JSON numbers are numbers
        payload = json.loads(json.dumps(PAYLOAD))
        *parents, last = where
        node = payload
        for step in parents:
            node = node[step]
        node[last] = value
        path = tmp_path / "bot.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SpecValidationError) as err:
            rm.load_robot_spec(str(path))
        assert "bot.json" in str(err.value) and f"key={key})" in str(err.value)

    def test_long_chain_loads_in_linear_time(self, tmp_path):
        # each walk up the body tree stops at a body an earlier walk passed;
        # a walk to the root from every body took minutes on this chain
        n = 20_000
        bodies = [{"id": f"b{k}", "parent": f"b{k - 1}" if k else None} for k in range(n)]
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"name": "chain", "bodies": bodies[::-1]}))
        start = time.perf_counter()
        spec = rm.load_robot_spec(str(path))
        assert time.perf_counter() - start < 5.0
        assert len(spec.bodies) == n

    def test_body_named_root(self, tmp_path):
        # "parent": "root" names the body "root" when there is one, and
        # otherwise means no parent
        named = {"name": "bot", "bodies": [{"id": "root"}, {"id": "arm", "parent": "root"}]}
        alias = {"name": "bot", "bodies": [{"id": "base", "parent": "root"},
                                           {"id": "arm", "parent": "base"}]}
        parents = []
        for i, payload in enumerate((named, alias)):
            path = tmp_path / f"bot{i}.json"
            path.write_text(json.dumps(payload))
            parents.append([b.parent for b in rm.load_robot_spec(str(path)).bodies])
        assert parents == [[None, "root"], [None, "base"]]

    @pytest.mark.parametrize(
        "fields,key",
        [
            ({"bodies": [*PAYLOAD["bodies"], {"id": "arm", "parent": "base"}]}, "limb"),
            ({"bodies": [PAYLOAD["bodies"][0],
                         {"id": "arm", "parent": "base", "joints": [ELBOW, ELBOW]}]}, "elbow"),
            ({"correspondence": {"arm": "limb", "base": "limb"}}, "limb"),
            ({"params": {**PAYLOAD["params"], "base.mass": 2.0},
              "correspondence": {"arm": "limb", "base.mass": "arm.length"}}, "arm.length"),
        ],
        ids=["repeated-body", "repeated-joint", "two-bodies-one-id", "two-params-one-key"],
    )
    def test_canonical_id_conflicts_at_load(self, tmp_path, fields, key):
        # repeated ids are conflicts of the identity correspondence
        path = tmp_path / "bot.json"
        path.write_text(json.dumps({**PAYLOAD, **fields}))
        with pytest.raises(CorrespondenceConflictError) as err:
            rm.load_robot_spec(str(path))
        assert "bot.json" in str(err.value) and f"key={key})" in str(err.value)

    @pytest.mark.parametrize(
        "correspondence", [{"ghost": "arm"}, {"arm.length": "joint.arm.elbow.range_lo"}]
    )
    def test_correspondence_checked_at_load(self, tmp_path, correspondence):
        path = tmp_path / "bot.json"
        path.write_text(json.dumps({**PAYLOAD, "correspondence": correspondence}))
        with pytest.raises(SpecValidationError, match="bot.json"):
            rm.load_robot_spec(str(path))

    @settings(max_examples=300, deadline=None)
    @given(where=st.sampled_from(field_paths(PAYLOAD)), value=JSON_VALUES)
    @example(where=("bodies",), value=None)
    @example(where=("bodies", 1, "joints"), value=7)
    @example(where=("bodies", 0, "joints"), value=True)
    def test_any_field_set_to_any_json_value(self, where, value):
        # a spec file loads, or is refused as a spec, and a loaded spec
        # matches another robot or is refused as a spec: no other exception
        payload = json.loads(json.dumps(PAYLOAD))
        *parents, last = where
        node = payload
        for step in parents:
            node = node[step]
        node[last] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bot.json")
            with open(path, "w") as fh:
                json.dump(payload, fh)
            try:
                spec = rm.load_robot_spec(path)
            except SpecValidationError:
                return
        try:
            rm.match_kinematics([spec, finger_spec("other", 1, [0.5])])
        except SpecValidationError:
            pass
