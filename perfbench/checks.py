"""Output checks written apart from the program.

Every check reads the files the CLI wrote (or, for the toy re-simulation,
the final policy objects it returned) and recomputes what it needs from the
generated spec files: evolution coordinates, Lp distances, the spanning-tree
oracle (scipy) and a point-mass integrator of its own.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from workloads import canonical_theta

ALPHA_TOL = 1e-9  # agreement of recomputed and reported coordinates
LENGTH_TOL = 1e-9  # slack on phase lengths and tree-length bounds


class CheckError(AssertionError):
    """An output of the program disagrees with the benchmark's own reckoning."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def lp(a, b, p: int) -> float:
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
    return float(d.sum()) if p == 1 else float(math.sqrt(float(d @ d)))


def alphas_from_files(paths: list[str]) -> tuple[np.ndarray, np.ndarray, list[dict]]:
    """(source alpha, target alphas, canonical thetas) straight from the spec files.

    Each parameter is scaled to [0, 1] by the lowest and highest value any
    robot of the set gives it; a parameter all robots share maps to 0.
    """
    thetas = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            thetas.append(canonical_theta(json.load(fh)))
    keys = sorted(thetas[0])
    mat = np.array([[t[k] for k in keys] for t in thetas])
    lo, hi = mat.min(axis=0), mat.max(axis=0)
    span = hi - lo
    alpha = np.where(span > 0, (mat - lo) / np.where(span > 0, span, 1.0), 0.0)
    return alpha[0], alpha[1:], thetas


def check_report(payload: dict, method: str, w, source, targets) -> dict:
    """Check one method's report.json; return its counts.

    Returns {"sim_episodes", "phases", "transfers", "failed"}.
    """
    p, xi = w.p, w.xi
    require(payload["method"] == method, f"{method}: report names method {payload['method']!r}")
    require(np.allclose(payload["source"]["alpha"], source, rtol=0, atol=ALPHA_TOL),
            f"{method}: source coordinates differ from the spec files")
    phases = {ph["phase_id"]: ph for ph in payload["phases"]}
    require(len(phases) == len(payload["phases"]), f"{method}: duplicate phase ids")
    require(len(payload["paths"]) == len(targets), f"{method}: one path per target expected")
    used: set[int] = set()
    failed = 0
    for path in payload["paths"]:
        i = path["target_index"]
        target = targets[i]
        require(np.allclose(path["target"], target, rtol=0, atol=ALPHA_TOL),
                f"{method}: target {i} coordinates differ from the spec files")
        ids = path["phase_ids"]
        require(all(pid in phases for pid in ids), f"{method}: path {i} names unknown phases")
        at = source
        for pid in ids:
            ph = phases[pid]
            require(np.allclose(ph["alpha_from"], at, rtol=0, atol=ALPHA_TOL),
                    f"{method}: path {i} breaks its chain at phase {pid}")
            step = lp(ph["alpha_from"], ph["alpha_to"], p)
            require(step <= xi * (1 + LENGTH_TOL) + LENGTH_TOL,
                    f"{method}: phase {pid} is {step} long, over xi = {xi}")
            at = np.asarray(ph["alpha_to"], dtype=float)
        require(path["sim_episodes"] == sum(phases[pid]["sim_episodes"] for pid in ids),
                f"{method}: path {i} sim_episodes is not the sum of its phases")
        if path["outcome"] != "success":
            failed += 1
            continue
        require(lp(at, target, p) <= ALPHA_TOL, f"{method}: path {i} ends off its target")
        if method == "herd" and w.trainer == "cost":
            expected = math.ceil(lp(source, target, p) / xi)
            require(len(ids) == expected,
                    f"herd: path {i} has {len(ids)} phases, ceil(d/xi) = {expected}")
        used.update(ids)
    distinct = sum(phases[pid]["sim_episodes"] for pid in used)
    if not failed:
        require(payload["totals"]["sim_episodes"] == distinct,
                f"{method}: total sim_episodes {payload['totals']['sim_episodes']}"
                f" is not the sum over distinct phases ({distinct})")
        require(payload["outcome"] == "success", f"{method}: outcome should be success")
    return {"sim_episodes": payload["totals"]["sim_episodes"], "phases": len(phases),
            "transfers": len(payload["paths"]), "failed": failed}


def check_outputs(w, out: str, source, targets) -> dict:
    """Check every report a round wrote; return counts summed over methods."""
    names = [f"report_{m}.json" for m in w.methods] if w.command == "compare" else ["report.json"]
    per_method = {}
    for method, name in zip(w.methods, names):
        with open(os.path.join(out, name), "r", encoding="utf-8") as fh:
            per_method[method] = check_report(json.load(fh), method, w, source, targets)
    if "herd" in per_method:
        require(per_method["meta"]["sim_episodes"] <= per_method["herd"]["sim_episodes"],
                "meta simulated more episodes than herd")
    if w.command == "compare":
        with open(os.path.join(out, "compare.csv"), "r", encoding="utf-8", newline="") as fh:
            rows = {r["method"]: r for r in csv.DictReader(fh)}
        for method, counts in per_method.items():
            require(int(rows[method]["sim_episodes"]) == counts["sim_episodes"],
                    f"compare.csv disagrees with report_{method}.json")
    return {
        "meta_sim_episodes": per_method["meta"]["sim_episodes"],
        "herd_sim_episodes": per_method.get("herd", {}).get("sim_episodes"),
        "phases": sum(c["phases"] for c in per_method.values()),
        "transfers": sum(c["transfers"] for c in per_method.values()),
        "failed": sum(c["failed"] for c in per_method.values()),
    }


def mst_length(points: np.ndarray, p: int) -> float:
    from scipy.sparse.csgraph import minimum_spanning_tree

    diff = np.abs(points[:, None, :] - points[None, :, :])
    dist = diff.sum(axis=2) if p == 1 else np.sqrt((diff * diff).sum(axis=2))
    return float(minimum_spanning_tree(dist).sum())


def check_plan(plan: dict, p: int, source, targets) -> None:
    """The first tree's length lies between half the MST length and the MST length."""
    points = np.vstack([source[None, :], targets])
    reported = np.array([r["alpha"] for r in plan["robots"]])
    require(np.allclose(reported, points, rtol=0, atol=ALPHA_TOL),
            "plan.json coordinates differ from the spec files")
    mst = mst_length(points, p)
    length = plan["tree"]["length"]
    require(0.5 * mst * (1 - LENGTH_TOL) <= length <= mst * (1 + LENGTH_TOL),
            f"first tree length {length} outside [MST/2, MST] = [{mst / 2}, {mst}]")


# ---------------------------------------------------------------------------
# Point-mass re-simulation of trained toy policies
# ---------------------------------------------------------------------------

# The toy task as documented: explicit Euler with dt 0.05 for at most 200
# steps, start uniform in [-0.15, 0.15]^2, goal uniform in (1, 1) +/- 0.45,
# success on first contact within 0.1 of the goal.
DT = 0.05
HORIZON = 200
GOAL_RADIUS = 0.1
START_HALF_WIDTH = 0.15
GOAL_CENTER = np.array([1.0, 1.0])
GOAL_HALF_WIDTH = 0.45
RESIM_EPISODES = 1000
# a pass is a success rate of at least gate - Z_MARGIN standard errors of
# the program's arrival evaluation and of this re-simulation combined
Z_MARGIN = 3.0


def pointmass_success_rate(weights, log_std, theta: dict, episodes: int, seed) -> float:
    """Success rate of a linear Gaussian policy on one point-mass robot.

    position' = position + dt * velocity
    velocity' = velocity + dt * (gain * clip(action, +-limit) - damping * velocity) / mass
    action = W @ [goal - position, velocity] + exp(log_std) * N(0, 1)
    """
    rng = np.random.default_rng(seed)
    w = np.asarray(weights, dtype=float)
    std = np.exp(np.asarray(log_std, dtype=float))
    mass = theta["body.torso.mass"]
    damping = theta["body.damping"]
    limit = theta["motor.limit"]
    gain = np.array([theta["motor.x.gain"], theta["motor.y.gain"]])
    x = rng.uniform(-START_HALF_WIDTH, START_HALF_WIDTH, size=(episodes, 2))
    v = np.zeros((episodes, 2))
    goal = GOAL_CENTER + rng.uniform(-GOAL_HALF_WIDTH, GOAL_HALF_WIDTH, size=(episodes, 2))
    reached = np.zeros(episodes, dtype=bool)
    for _ in range(HORIZON):
        eps = rng.standard_normal((episodes, 2))
        u = (goal - x) @ w[:, :2].T + v @ w[:, 2:].T + std * eps
        force = gain * np.clip(u, -limit, limit)
        x_next = x + DT * v
        v_next = v + DT * (force - damping * v) / mass
        moving = ~reached[:, None]
        x = np.where(moving, x_next, x)
        v = np.where(moving, v_next, v)
        reached |= np.hypot(*(x - goal).T) < GOAL_RADIUS
        if reached.all():
            break
    return float(reached.mean())


def resim_floor(gate: float, program_episodes: int, episodes: int) -> float:
    se = math.sqrt(gate * (1 - gate) * (1 / program_episodes + 1 / episodes))
    return gate - Z_MARGIN * se


def check_policies(captured, thetas: list[dict], config: dict) -> None:
    """Re-simulate each final toy policy on its target robot and check the gate."""
    gate = config["final_success_threshold"] or config["success_threshold"]
    floor = resim_floor(gate, 3 * config["eval_episodes"], RESIM_EPISODES)
    for method, reports in captured:
        for rep in reports:
            require(rep.outcome == "success", f"{method}: target {rep.target_index} not reached")
            rate = pointmass_success_rate(
                rep.policy.weights, rep.policy.log_std, thetas[1 + rep.target_index],
                RESIM_EPISODES, [0xB0B, rep.target_index],
            )
            require(rate >= floor,
                    f"{method}: target {rep.target_index} re-simulated success {rate:.3f}"
                    f" below {floor:.3f} (gate {gate})")
