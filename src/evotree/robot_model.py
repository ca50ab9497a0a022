"""Robot specifications, kinematic matching, and the normalized evolution space.

A robot spec is a rooted body tree with joints plus a flat map of physical
parameters. Matching N specs produces the graph union of their kinematic
trees and embeds every robot as a vector in one shared parameter space:
declared parameters first, then a (lo, width) pair per canonical joint so
that joint ranges interpolate and joints absent from a robot embed as
frozen (zero-width) ranges. Widths are interpolated rather than raw
endpoints so an interpolated range can never be inverted.

Evolution coordinates alpha in [0,1]^D locate a robot inside the bounds of
the embedded parameter vectors; theta = (1 - alpha) * lower + alpha * upper.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import (
    CorrespondenceConflictError,
    InvalidInputError,
    OutOfHullError,
    SpecValidationError,
)

JOINT_KINDS = ("revolute", "prismatic", "free", "frozen")
_JOINT_KEY_PREFIX = "joint."
_BOUNDS_TOL = 1e-9


@dataclass(frozen=True)
class Joint:
    name: str
    kind: str
    range: tuple[float, float]


@dataclass(frozen=True)
class Body:
    id: str
    parent: Optional[str]  # None marks the root
    joints: tuple[Joint, ...] = ()


@dataclass(frozen=True)
class Param:
    value: float
    unit: Optional[str] = None


@dataclass(frozen=True)
class RobotSpec:
    name: str
    bodies: tuple[Body, ...]
    params: dict[str, Param]
    correspondence: dict[str, str] = field(default_factory=dict)

    def body_map(self) -> dict[str, Body]:
        return {b.id: b for b in self.bodies}


# Correspondence: robot name -> {local id -> canonical id}; ids missing from
# the map keep their local name.
Correspondence = Mapping[str, Mapping[str, str]]


@dataclass(frozen=True)
class CanonicalJoint:
    body: str
    name: str
    kind: str

    @property
    def key(self) -> str:
        return f"{self.body}.{self.name}"


@dataclass(frozen=True)
class MatchedSpace:
    """Union kinematic tree plus per-robot embeddings into R^D."""

    bodies: tuple[tuple[str, Optional[str]], ...]  # (canonical id, parent id)
    joints: tuple[CanonicalJoint, ...]
    parameter_keys: tuple[str, ...]
    units: tuple[Optional[str], ...]
    robot_names: tuple[str, ...]
    thetas: dict[str, np.ndarray]

    @property
    def dimension(self) -> int:
        return len(self.parameter_keys)

    def theta_matrix(self) -> np.ndarray:
        return np.array([self.thetas[n] for n in self.robot_names])


@dataclass(frozen=True)
class EvolutionSpace:
    parameter_keys: tuple[str, ...]
    theta_lower: np.ndarray
    theta_upper: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.parameter_keys)


# ---------------------------------------------------------------------------
# Spec validation and file loading
# ---------------------------------------------------------------------------


def validate_spec(spec: RobotSpec, file: Optional[str] = None) -> None:
    seen = set()
    for b in spec.bodies:
        if b.id in seen:
            raise SpecValidationError(
                "duplicate body id", file=file, path="bodies", key=b.id
            )
        seen.add(b.id)
    roots = [b for b in spec.bodies if b.parent is None]
    if spec.bodies and len(roots) != 1:
        raise SpecValidationError(
            f"expected exactly one root body, found {len(roots)}",
            file=file,
            path="bodies",
        )
    ids = {b.id for b in spec.bodies}
    for b in spec.bodies:
        if b.parent is not None and b.parent not in ids:
            raise SpecValidationError(
                "parent references missing body",
                file=file,
                path=f"bodies[{b.id}]",
                key=b.parent,
            )
    # parent links must form a tree (no cycles)
    body_map = spec.body_map()
    for b in spec.bodies:
        hops = 0
        cur = b
        while cur.parent is not None:
            hops += 1
            if hops > len(spec.bodies):
                raise SpecValidationError(
                    "cyclic parent references",
                    file=file,
                    path=f"bodies[{b.id}]",
                )
            cur = body_map[cur.parent]
    for b in spec.bodies:
        joint_names = set()
        for j in b.joints:
            if j.kind not in JOINT_KINDS:
                raise SpecValidationError(
                    f"unknown joint kind {j.kind!r}",
                    file=file,
                    path=f"bodies[{b.id}].joints",
                    key=j.name,
                )
            if j.range[0] > j.range[1]:
                raise SpecValidationError(
                    "joint range lo > hi",
                    file=file,
                    path=f"bodies[{b.id}].joints",
                    key=j.name,
                )
            if j.name in joint_names:
                raise SpecValidationError(
                    "duplicate joint name",
                    file=file,
                    path=f"bodies[{b.id}].joints",
                    key=j.name,
                )
            joint_names.add(j.name)
    for key, p in spec.params.items():
        if not np.isfinite(p.value):
            raise SpecValidationError(
                "non-finite parameter value", file=file, path="params", key=key
            )
        if key.startswith(_JOINT_KEY_PREFIX):
            raise SpecValidationError(
                f"parameter keys may not start with {_JOINT_KEY_PREFIX!r}"
                " (reserved for joint ranges)",
                file=file,
                path="params",
                key=key,
            )


def load_robot_spec(path: str) -> RobotSpec:
    """Load and validate one robot spec JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, nested too deep
        raise SpecValidationError(f"not valid JSON: {exc}", file=path) from exc
    except OSError as exc:
        raise SpecValidationError(f"cannot read file: {exc}", file=path) from exc
    if not isinstance(raw, dict):
        raise SpecValidationError("top level must be an object", file=path)
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise SpecValidationError("missing robot name", file=path, key="name")
    bodies = []
    for i, b in enumerate(raw.get("bodies", [])):
        if not isinstance(b, dict) or "id" not in b:
            raise SpecValidationError(
                "body entries need an id", file=path, path=f"bodies[{i}]"
            )
        joints = []
        for j in b.get("joints", []):
            try:
                joints.append(
                    Joint(
                        name=str(j["name"]),
                        kind=str(j["kind"]),
                        range=(float(j["range"][0]), float(j["range"][1])),
                    )
                )
            except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
                raise SpecValidationError(
                    f"malformed joint: {exc}",
                    file=path,
                    path=f"bodies[{b['id']}].joints",
                ) from exc
        parent = b.get("parent")
        bodies.append(
            Body(
                id=str(b["id"]),
                parent=None if parent in (None, "root") else str(parent),
                joints=tuple(joints),
            )
        )
    params = {}
    raw_params = raw.get("params", {})
    if not isinstance(raw_params, dict):
        raise SpecValidationError("params must be an object", file=path, path="params")
    for key, val in raw_params.items():
        if isinstance(val, dict):
            try:
                params[key] = Param(float(val["value"]), val.get("unit"))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise SpecValidationError(
                    f"malformed parameter: {exc}", file=path, path="params", key=key
                ) from exc
        else:
            try:
                params[key] = Param(float(val), None)
            except (TypeError, ValueError, OverflowError) as exc:
                raise SpecValidationError(
                    "parameter value must be a number",
                    file=path,
                    path="params",
                    key=key,
                ) from exc
    corr = raw.get("correspondence", {})
    if not isinstance(corr, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in corr.items()
    ):
        raise SpecValidationError(
            "correspondence must map strings to strings",
            file=path,
            path="correspondence",
        )
    spec = RobotSpec(
        name=name,
        bodies=tuple(bodies),
        params=params,
        correspondence=dict(corr),
    )
    validate_spec(spec, file=path)
    return spec


# ---------------------------------------------------------------------------
# Kinematic matching
# ---------------------------------------------------------------------------


def match_kinematics(
    specs: Sequence[RobotSpec], corr: Optional[Correspondence] = None
) -> MatchedSpace:
    """Union the kinematic trees of the specs and embed each robot in R^D.

    corr defaults to the correspondence maps carried on the specs. Local ids
    missing from a robot's map keep their own name as the canonical id.
    """
    if len(specs) < 2:
        raise InvalidInputError("matching needs at least two robot specs")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise SpecValidationError("duplicate robot names in match set")
    if corr is None:
        corr = {s.name: s.correspondence for s in specs}

    # ---- one union pass: the body tree (parents must agree), the joints
    # (frozen yields to the live kind) and the parameter units (must agree)
    canon_parent: dict[str, Optional[str]] = {}
    joint_kind: dict[tuple[str, str], str] = {}
    param_unit: dict[str, Optional[str]] = {}
    # per robot: canonical parameter key -> local key, canonical joint -> range
    local_params: list[dict[str, str]] = []
    joint_ranges: list[dict[tuple[str, str], tuple[float, float]]] = []
    for spec in specs:
        mapping = corr.get(spec.name, {})
        local_ids = (
            {b.id for b in spec.bodies}
            | {j.name for b in spec.bodies for j in b.joints}
            | set(spec.params)
        )
        for local in mapping:
            if local not in local_ids:
                raise SpecValidationError(
                    "correspondence references unknown local id",
                    key=local,
                    path=spec.name,
                )
        validate_spec(spec)
        seen_body: dict[str, str] = {}
        ranges: dict[tuple[str, str], tuple[float, float]] = {}
        for b in spec.bodies:
            cid = mapping.get(b.id, b.id)
            if cid in seen_body:
                raise CorrespondenceConflictError(
                    f"robot {spec.name!r} maps bodies {seen_body[cid]!r} and"
                    f" {b.id!r} to one canonical body {cid!r}",
                    key=cid,
                )
            seen_body[cid] = b.id
            cparent = None if b.parent is None else mapping.get(b.parent, b.parent)
            if canon_parent.setdefault(cid, cparent) != cparent:
                raise SpecValidationError(
                    f"conflicting parents for canonical body {cid!r}:"
                    f" {canon_parent[cid]!r} vs {cparent!r}",
                    key=cid,
                )
            for j in b.joints:
                ckey = (cid, mapping.get(j.name, j.name))
                if ckey in ranges:
                    raise CorrespondenceConflictError(
                        f"robot {spec.name!r} maps two joints onto {ckey!r}",
                        key=ckey[1],
                    )
                ranges[ckey] = j.range
                prev = joint_kind.get(ckey)
                if prev is None or prev == "frozen":
                    joint_kind[ckey] = j.kind
                elif j.kind != "frozen" and j.kind != prev:
                    raise SpecValidationError(
                        f"joint {ckey!r} has incompatible kinds {prev!r}"
                        f" vs {j.kind!r}"
                    )
        seen_param: dict[str, str] = {}
        for key, p in spec.params.items():
            ckey = mapping.get(key, key)
            if ckey in seen_param:
                raise CorrespondenceConflictError(
                    f"robot {spec.name!r} maps parameters {seen_param[ckey]!r}"
                    f" and {key!r} onto {ckey!r}",
                    key=ckey,
                )
            seen_param[ckey] = key
            if param_unit.setdefault(ckey, p.unit) != p.unit:
                raise SpecValidationError(
                    f"unit mismatch for parameter {ckey!r}:"
                    f" {param_unit[ckey]!r} vs {p.unit!r}",
                    key=ckey,
                )
        local_params.append(seen_param)
        joint_ranges.append(ranges)
    roots = [cid for cid, par in canon_parent.items() if par is None]
    if canon_parent and len(roots) != 1:
        raise SpecValidationError(
            f"canonical tree must have one root, found {sorted(roots)}"
        )

    canonical_joints = tuple(
        CanonicalJoint(body=b, name=n, kind=joint_kind[(b, n)])
        for b, n in sorted(joint_kind)
    )
    param_keys = sorted(param_unit)
    joint_keys = []
    for cj in canonical_joints:
        joint_keys.append(f"{_JOINT_KEY_PREFIX}{cj.key}.range_lo")
        joint_keys.append(f"{_JOINT_KEY_PREFIX}{cj.key}.range_width")
    parameter_keys = tuple(param_keys + joint_keys)
    units = tuple(
        [param_unit[k] for k in param_keys] + [None] * len(joint_keys)
    )

    # ---- one embedding pass (zeros for absent components)
    thetas: dict[str, np.ndarray] = {}
    for spec, local, ranges in zip(specs, local_params, joint_ranges):
        vec = [spec.params[local[k]].value if k in local else 0.0 for k in param_keys]
        for cj in canonical_joints:
            lo, hi = ranges.get((cj.body, cj.name), (0.0, 0.0))
            vec += [lo, hi - lo]
        thetas[spec.name] = np.array(vec, dtype=float)

    bodies = tuple(sorted(canon_parent.items()))
    return MatchedSpace(
        bodies=bodies,
        joints=canonical_joints,
        parameter_keys=parameter_keys,
        units=units,
        robot_names=tuple(names),
        thetas=thetas,
    )


# ---------------------------------------------------------------------------
# Bounds, normalization, instantiation
# ---------------------------------------------------------------------------


def compute_bounds(thetas) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise lower and upper bounds of a set of parameter vectors."""
    arr = np.asarray(list(thetas), dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise InvalidInputError("compute_bounds needs a non-empty vector set")
    return arr.min(axis=0), arr.max(axis=0)


def build_evolution_space(matched: MatchedSpace) -> EvolutionSpace:
    lower, upper = compute_bounds(matched.theta_matrix())
    return EvolutionSpace(
        parameter_keys=matched.parameter_keys,
        theta_lower=lower,
        theta_upper=upper,
    )


def normalize(theta, space: EvolutionSpace) -> np.ndarray:
    """Map a parameter vector to evolution coordinates alpha in [0,1]^D.

    Zero-width dimensions map to 0 by convention.
    """
    th = np.asarray(theta, dtype=float)
    if th.shape != (space.dimension,):
        raise InvalidInputError(
            f"theta has dimension {th.shape}, space expects {space.dimension}"
        )
    lo, hi = space.theta_lower, space.theta_upper
    span = hi - lo
    tol = _BOUNDS_TOL * np.maximum(1.0, np.abs(span))
    if np.any(th < lo - tol) or np.any(th > hi + tol):
        bad = int(np.argmax(np.maximum(lo - th, th - hi)))
        raise OutOfHullError(
            f"theta[{bad}] = {th[bad]} outside bounds"
            f" [{lo[bad]}, {hi[bad]}] ({space.parameter_keys[bad]})"
        )
    alpha = np.zeros_like(th)
    live = span > 0.0
    alpha[live] = (th[live] - lo[live]) / span[live]
    return np.clip(alpha, 0.0, 1.0)


def denormalize(alpha, space: EvolutionSpace) -> np.ndarray:
    """Map evolution coordinates (..., D) back to parameter vectors (..., D)."""
    al = np.asarray(alpha, dtype=float)
    if al.ndim == 0 or al.shape[-1] != space.dimension:
        raise InvalidInputError(
            f"alpha has dimension {al.shape}, space expects {space.dimension}"
        )
    if np.any(al < -_BOUNDS_TOL) or np.any(al > 1.0 + _BOUNDS_TOL):
        bad = np.unravel_index(np.argmax(np.maximum(-al, al - 1.0)), al.shape)
        where = ", ".join(str(int(i)) for i in bad)
        raise OutOfHullError(f"alpha[{where}] = {al[bad]} outside [0, 1]")
    al = np.clip(al, 0.0, 1.0)
    return (1.0 - al) * space.theta_lower + al * space.theta_upper


def instantiate(alpha, space: EvolutionSpace, matched: MatchedSpace) -> RobotSpec:
    """Concrete robot at evolution coordinates alpha.

    Parameters come straight from denormalize(alpha); each canonical joint
    gets the interpolated [lo, lo + width] range and freezes when its width
    reaches zero.
    """
    theta = denormalize(alpha, space)
    n_params = len(matched.parameter_keys) - 2 * len(matched.joints)
    params = {}
    for i in range(n_params):
        params[matched.parameter_keys[i]] = Param(
            float(theta[i]), matched.units[i]
        )
    joints_by_body: dict[str, list[Joint]] = {}
    for ji, cj in enumerate(matched.joints):
        lo = float(theta[n_params + 2 * ji])
        width = float(theta[n_params + 2 * ji + 1])
        kind = cj.kind if width > 0.0 else "frozen"
        joints_by_body.setdefault(cj.body, []).append(
            Joint(name=cj.name, kind=kind, range=(lo, lo + width))
        )
    bodies = tuple(
        Body(id=cid, parent=parent, joints=tuple(joints_by_body.get(cid, ())))
        for cid, parent in matched.bodies
    )
    label = ",".join(f"{a:.6f}" for a in np.asarray(alpha, dtype=float))
    return RobotSpec(name=f"intermediate[{label}]", bodies=bodies, params=params)
