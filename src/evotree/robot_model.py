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
import math
from dataclasses import InitVar, dataclass, field
from typing import Optional, Sequence

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
    """A robot, checked by validate_spec when it is made; `file`, the spec
    file it was read from, if any, is named in the error."""

    name: str
    bodies: tuple[Body, ...]
    params: dict[str, Param]
    correspondence: dict[str, str] = field(default_factory=dict)
    file: InitVar[Optional[str]] = None

    def __post_init__(self, file):
        validate_spec(self, file)


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
    thetas: dict[str, np.ndarray]


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


def _one_to_one(spec: RobotSpec, local_ids, what: str, where: dict) -> None:
    """Refuse two of local_ids that share a canonical id (a repeated id
    shares its own), raised with the error context `where`."""
    seen: dict[str, str] = {}  # canonical id -> local id
    for local in local_ids:
        cid = spec.correspondence.get(local, local)
        if cid in seen:
            raise CorrespondenceConflictError(
                f"robot {spec.name!r}: {what} {seen[cid]!r} and {local!r}"
                f" share canonical id {cid!r}",
                key=cid,
                **where,
            )
        seen[cid] = local


def validate_spec(spec: RobotSpec, file: Optional[str] = None) -> None:
    """Check all that one spec can get wrong on its own.

    That is a correspondence from known local ids that keeps bodies, the
    joints of one body and parameters apart (so no body id, and no joint
    name within a body, repeats); parent links that form one tree; known
    joint kinds and finite joint ranges with lo <= hi; finite parameters
    whose local and canonical keys do not start with `joint.`.
    """
    mapping, parents = spec.correspondence, {b.id: b.parent for b in spec.bodies}
    joint_names = {j.name for b in spec.bodies for j in b.joints}
    for local in mapping:
        if local not in parents and local not in joint_names and local not in spec.params:
            raise SpecValidationError(
                "correspondence references unknown local id",
                file=file,
                path="correspondence",
                key=local,
            )
    _one_to_one(spec, [b.id for b in spec.bodies], "bodies", {"file": file, "path": "bodies"})
    _one_to_one(spec, spec.params, "parameters", {"file": file, "path": "params"})
    for b in (body for body in spec.bodies if body.joints):
        where = {"file": file, "path": f"bodies[{b.id}].joints"}
        _one_to_one(spec, [j.name for j in b.joints], "joints", where)
        for j in b.joints:
            if j.kind not in JOINT_KINDS:
                raise SpecValidationError(f"unknown joint kind {j.kind!r}", key=j.name, **where)
            lo, hi = j.range
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise SpecValidationError(
                    f"joint range [{lo}, {hi}] must be finite with lo <= hi",
                    key=j.name,
                    **where,
                )
    root_of: dict[str, str] = {}  # body -> its root, once a walk has passed it
    for b in spec.bodies:  # one walk up from each body, to a root or a body passed before
        walked, cur = [], b.id
        while cur not in root_of and parents[cur] is not None:
            if parents[cur] not in parents:
                raise SpecValidationError(
                    "parent references missing body",
                    file=file,
                    path=f"bodies[{cur}]",
                    key=parents[cur],
                )
            if len(walked) == len(parents):
                raise SpecValidationError(
                    "cyclic parent references", file=file, path=f"bodies[{b.id}]"
                )
            walked.append(cur)
            cur = parents[cur]
        root = root_of.setdefault(cur, cur)
        for body in walked:
            root_of[body] = root
    roots = set(root_of.values())
    if len(roots) > 1:
        raise SpecValidationError(
            f"expected exactly one root body, found {len(roots)}", file=file, path="bodies"
        )
    for key, p in spec.params.items():
        if not math.isfinite(p.value):
            raise SpecValidationError(
                "non-finite parameter value", file=file, path="params", key=key
            )
        ckey = mapping.get(key, key)
        if key.startswith(_JOINT_KEY_PREFIX) or ckey.startswith(_JOINT_KEY_PREFIX):
            raise SpecValidationError(
                f"parameter keys may not start with {_JOINT_KEY_PREFIX!r}"
                f" (reserved for joint ranges; canonical key {ckey!r})",
                file=file,
                path="params",
                key=key,
            )


def _number(value) -> float:
    """A JSON number as a float; a string or a bool is refused (TypeError)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{json.dumps(value)} is not a number")
    return float(value)


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
    raw_bodies = raw.get("bodies", [])
    if not isinstance(raw_bodies, list):
        raise SpecValidationError("bodies must be a list", file=path, path="bodies")
    # "parent": "root" means no parent, unless a body has the id "root"
    named_root = any(isinstance(b, dict) and b.get("id") == "root" for b in raw_bodies)
    bodies = []
    for i, b in enumerate(raw_bodies):
        if not isinstance(b, dict) or "id" not in b:
            raise SpecValidationError("body entries need an id", file=path, path=f"bodies[{i}]")
        where, raw_joints = f"bodies[{b['id']}].joints", b.get("joints", [])
        if not isinstance(raw_joints, list):
            raise SpecValidationError("joints must be a list", file=path, path=where)
        joints = []
        for j in raw_joints:
            try:
                lo_hi = j["range"]
                if not (isinstance(lo_hi, list) and len(lo_hi) == 2):
                    raise TypeError(f"range {json.dumps(lo_hi)} is not two numbers")
                joints.append(Joint(str(j["name"]), str(j["kind"]), tuple(map(_number, lo_hi))))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                key = j.get("name") if isinstance(j, dict) else None
                raise SpecValidationError(f"malformed joint: {exc}", file=path, path=where,
                                          key=key) from exc
        parent = b.get("parent")
        is_root = parent is None or (parent == "root" and not named_root)
        bodies.append(Body(str(b["id"]), None if is_root else str(parent), tuple(joints)))
    params = {}
    raw_params = raw.get("params", {})
    if not isinstance(raw_params, dict):
        raise SpecValidationError("params must be an object", file=path, path="params")
    for key, val in raw_params.items():
        try:
            val = val if isinstance(val, dict) else {"value": val}
            params[key] = Param(_number(val["value"]), val.get("unit"))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SpecValidationError(
                f"malformed parameter: {exc}", file=path, path="params", key=key
            ) from exc
    corr = raw.get("correspondence", {})  # a JSON object's keys are strings
    if not isinstance(corr, dict) or not all(isinstance(v, str) for v in corr.values()):
        raise SpecValidationError(
            "correspondence must map strings to strings", file=path, path="correspondence"
        )
    return RobotSpec(name, tuple(bodies), params, corr, path)


# ---------------------------------------------------------------------------
# Kinematic matching
# ---------------------------------------------------------------------------


def match_kinematics(specs: Sequence[RobotSpec]) -> MatchedSpace:
    """Union the kinematic trees of the specs and embed each robot in R^D.

    Each spec's correspondence maps its local ids to canonical ids; local
    ids missing from the map keep their own name as the canonical id. Each
    spec checked itself when made; the checks here are those of agreement
    between specs: names, parents, joint kinds, units and one root.
    """
    if len(specs) < 2:
        raise InvalidInputError("matching needs at least two robot specs")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise SpecValidationError("duplicate robot names in match set")

    # ---- one union pass: the body tree (parents must agree), the joints
    # (frozen yields to the live kind) and the parameter units (must agree)
    canon_parent: dict[str, Optional[str]] = {}
    joint_kind: dict[tuple[str, str], str] = {}
    param_unit: dict[str, Optional[str]] = {}
    # per robot: canonical parameter key -> local key, canonical joint -> range
    local_params: list[dict[str, str]] = []
    joint_ranges: list[dict[tuple[str, str], tuple[float, float]]] = []
    for spec in specs:
        mapping = spec.correspondence
        ranges: dict[tuple[str, str], tuple[float, float]] = {}
        for b in spec.bodies:
            cid = mapping.get(b.id, b.id)
            cparent = None if b.parent is None else mapping.get(b.parent, b.parent)
            if canon_parent.setdefault(cid, cparent) != cparent:
                raise SpecValidationError(
                    f"conflicting parents for canonical body {cid!r}:"
                    f" {canon_parent[cid]!r} vs {cparent!r}",
                    key=cid,
                )
            for j in b.joints:
                ckey = (cid, mapping.get(j.name, j.name))
                ranges[ckey] = j.range
                prev = joint_kind.get(ckey)
                if prev is None or prev == "frozen":
                    joint_kind[ckey] = j.kind
                elif j.kind != "frozen" and j.kind != prev:
                    raise SpecValidationError(
                        f"joint {ckey!r} has incompatible kinds {prev!r}"
                        f" vs {j.kind!r}"
                    )
        local = {mapping.get(key, key): key for key in spec.params}
        for ckey, key in local.items():
            unit = spec.params[key].unit
            if param_unit.setdefault(ckey, unit) != unit:
                raise SpecValidationError(
                    f"unit mismatch for parameter {ckey!r}:"
                    f" {param_unit[ckey]!r} vs {unit!r}",
                    key=ckey,
                )
        local_params.append(local)
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
    lower, upper = compute_bounds(matched.thetas.values())
    with np.errstate(over="ignore"):
        wide = ~np.isfinite(upper - lower)
    if np.any(wide):
        bad = int(np.argmax(wide))
        raise SpecValidationError(
            f"parameter range [{lower[bad]}, {upper[bad]}] across the robots has no finite width",
            key=matched.parameter_keys[bad],
        )
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
    if not np.all((th >= lo - tol) & (th <= hi + tol)):
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
    if not np.all((al >= -_BOUNDS_TOL) & (al <= 1.0 + _BOUNDS_TOL)):
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
