"""Command-line surface: plan evolution trees, run transfers, compare methods.

Commands
    plan      match robots, build the evolution tree, write plan.json
    transfer  run the tree transfer end to end, write report.json + phases.csv
    compare   run a subset of methods, write compare.csv
    report    project a plan/report into plot-ready paths.csv + totals.csv

Exit codes: 0 success, 2 invalid input or config, 3 transfer budget failure.
All outputs are schema-versioned JSON/CSV written atomically.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from typing import Optional, Sequence, get_type_hints

import numpy as np

from . import robot_model, transfer
from .errors import EvoTreeError, InvalidInputError, SpecValidationError
from .evo_tree import evolution_tree
from .geometry import geometric_median, lp_distance, minimum_spanning_tree, steiner_tree
from .trainers import CostModelTrainer, ToyMdpTrainer, proportional_policy

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3

METHODS = ("meta", "herd", "geom-median")
_METHOD_FN = {
    "meta": transfer.meta_evolve,
    "herd": transfer.herd_baseline,
    "geom-median": transfer.geom_median_baseline,
}

# CLI-level trainer defaults; the toy policy-gradient step uses a larger
# value than the library default because gradients are per-timestep here
TRAINER_DEFAULTS = {
    "cost_episodes": 10,
    "learning_rate": 0.3,
    "batch_size": 12,
    "expert_kp": 1.2,
    "expert_kd": 0.8,
    "expert_std": 0.12,
}


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------


def parse_config_file(path: str) -> dict[str, str]:
    """Flat `dotted.key = value` lines; '#' starts a comment."""
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InvalidInputError(
                        f"{path}:{lineno}: expected 'key = value'"
                    )
                key, value = line.split("=", 1)
                key = key.strip()
                if not key.startswith(("transfer.", "trainer.")):
                    raise InvalidInputError(
                        f"{path}:{lineno}: unknown config key {key!r}"
                        " (use transfer.* or trainer.*)"
                    )
                out[key] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read config {path}: {exc}") from exc
    return out


# TransferConfig field -> its config-file and report key
_ALIAS = {"lambda_": "lambda"}
_HINTS = get_type_hints(transfer.TransferConfig)
# transfer.* key -> (TransferConfig field, cast); Optional[float] casts as float
_TRANSFER_KEYS = {
    _ALIAS.get(f.name, f.name): (f.name, int if _HINTS[f.name] is int else float)
    for f in dataclasses.fields(transfer.TransferConfig)
}


def build_transfer_config(
    preset: Optional[str],
    file_values: dict[str, str],
    norm: Optional[str],
    seed: Optional[int],
) -> transfer.TransferConfig:
    if preset is not None:
        if preset not in transfer.PRESETS:
            raise InvalidInputError(f"unknown preset {preset!r}")
        cfg = transfer.PRESETS[preset]
    else:
        cfg = transfer.TransferConfig()
    updates = {}
    for key, value in file_values.items():
        if not key.startswith("transfer."):
            continue
        name = key.split(".", 1)[1]
        if name not in _TRANSFER_KEYS:
            raise InvalidInputError(f"unknown config key {key!r}")
        field, cast = _TRANSFER_KEYS[name]
        try:
            updates[field] = cast(value)
        except ValueError as exc:
            raise InvalidInputError(f"bad value for {key!r}: {value!r}") from exc
    if norm is not None:
        updates["p_norm"] = {"l1": 1, "l2": 2}[norm]
    if seed is not None:
        updates["seed"] = int(seed)
    return dataclasses.replace(cfg, **updates)


def _at_least_one(v) -> bool:
    return v >= 1


def _positive(v) -> bool:
    return math.isfinite(v) and v > 0


# trainer.* keys: (cast, check, requirement). Every value given is checked,
# whichever trainer runs, so a setting the chosen trainer ignores cannot
# carry a bad value into a report.
_TRAINER_KEYS = {
    "cost_episodes": (int, _at_least_one, "must be >= 1"),
    "batch_size": (int, _at_least_one, "must be >= 1"),
    "learning_rate": (float, _positive, "must be positive and finite"),
    "expert_std": (float, _positive, "must be positive and finite"),
    "expert_kp": (float, math.isfinite, "must be finite"),
    "expert_kd": (float, math.isfinite, "must be finite"),
}


def trainer_settings(file_values: dict[str, str]) -> dict:
    out = dict(TRAINER_DEFAULTS)
    for key, value in file_values.items():
        if not key.startswith("trainer."):
            continue
        name = key.split(".", 1)[1]
        if name not in _TRAINER_KEYS:
            raise InvalidInputError(f"unknown config key {key!r}")
        cast, check, requirement = _TRAINER_KEYS[name]
        try:
            out[name] = cast(value)
        except ValueError as exc:
            raise InvalidInputError(f"bad value for {key!r}: {value!r}") from exc
        if not check(out[name]):
            raise InvalidInputError(f"{key} {requirement}, got {value!r}")
    return out


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path}: {exc}") from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_out(path: str) -> None:
    """Refuse an output directory that cannot be made or written, before
    any work: its nearest existing ancestor must be a writable directory."""
    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing) or not os.access(existing, os.W_OK | os.X_OK):
        raise InvalidInputError(
            f"cannot write {path}: {existing} is not a writable directory"
        )


def write_json(path: str, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    _atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Problem assembly
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Problem:
    specs: list[robot_model.RobotSpec]
    matched: robot_model.MatchedSpace
    space: robot_model.EvolutionSpace
    source_alpha: np.ndarray
    target_alphas: np.ndarray

    @property
    def source_name(self) -> str:
        return self.specs[0].name

    @property
    def target_names(self) -> list[str]:
        return [s.name for s in self.specs[1:]]


def load_problem(robot_paths: Sequence[str]) -> Problem:
    if len(robot_paths) < 2:
        raise InvalidInputError("need at least one source and one target robot file")
    specs = [robot_model.load_robot_spec(p) for p in robot_paths]
    matched = robot_model.match_kinematics(specs)
    space = robot_model.build_evolution_space(matched)
    alphas = [
        robot_model.normalize(matched.thetas[s.name], space) for s in specs
    ]
    return Problem(
        specs=specs,
        matched=matched,
        space=space,
        source_alpha=alphas[0],
        target_alphas=np.array(alphas[1:]),
    )


def make_trainer(kind: str, problem: Problem, settings: dict):
    if kind == "cost":
        return CostModelTrainer(sim_episodes_per_step=settings["cost_episodes"])
    if kind == "toymdp":
        return ToyMdpTrainer(
            problem.space,
            batch_size=settings["batch_size"],
            learning_rate=settings["learning_rate"],
        )
    raise InvalidInputError(f"unknown trainer {kind!r}")


def make_expert(settings: dict):
    return proportional_policy(
        settings["expert_kp"], settings["expert_kd"], settings["expert_std"]
    )


# ---------------------------------------------------------------------------
# Serialization of results
# ---------------------------------------------------------------------------


def report_payload(
    method: str,
    reports: list[transfer.TransferReport],
    cfg: transfer.TransferConfig,
    problem: Problem,
    trainer_kind: str,
) -> dict:
    # shared trunk phases sit in several reports; each is listed and counted once
    phases = {ph.phase_id: ph for rep in reports for ph in rep.phases}
    outcome = (
        "success"
        if all(r.outcome == "success" for r in reports)
        else "budget-exhausted"
    )
    cfg_dict = {_ALIAS.get(k, k): v for k, v in dataclasses.asdict(cfg).items()}
    return {
        "schema": SCHEMA_VERSION,
        "method": method,
        "trainer": trainer_kind,
        "norm": {1: "l1", 2: "l2"}[cfg.p_norm],
        "config": cfg_dict,
        "source": {
            "name": problem.source_name,
            "alpha": [float(x) for x in problem.source_alpha],
        },
        # a shallow copy of each record's fields; dataclasses.asdict would
        # deep-copy every float
        "phases": [
            {f.name: getattr(ph, f.name) for f in dataclasses.fields(ph)}
            for _, ph in sorted(phases.items())
        ],
        "paths": [
            {
                "target_index": rep.target_index,
                "target_name": problem.target_names[rep.target_index],
                "target": list(rep.target),
                "phase_ids": [ph.phase_id for ph in rep.phases],
                "outcome": rep.outcome,
                "train_iterations": rep.train_iterations,
                "sim_episodes": rep.sim_episodes,
            }
            for rep in reports
        ],
        "totals": {
            k: sum(getattr(ph, k) for ph in phases.values())
            for k in ("train_iterations", "sim_episodes")
        },
        "outcome": outcome,
    }


def phases_csv_rows(payload: dict) -> list[list]:
    rows = []
    phase_by_id = {p["phase_id"]: p for p in payload["phases"]}
    for path in payload["paths"]:
        for idx, pid in enumerate(path["phase_ids"]):
            ph = phase_by_id[pid]
            rows.append(
                [
                    path["target_index"],
                    idx,
                    pid,
                    *[repr(float(x)) for x in ph["alpha_to"]],
                    ph["train_iterations"],
                    ph["sim_episodes"],
                    repr(float(ph["final_success_rate"])),
                ]
            )
    return rows


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_plan(args) -> int:
    problem = load_problem(args.robots)
    norm = args.norm or "l1"
    p = {"l1": 1, "l2": 2}[norm]
    terminals = np.vstack([problem.source_alpha[None, :], problem.target_alphas])
    tree = steiner_tree(terminals, p)
    mst = minimum_spanning_tree(terminals, p)
    res = evolution_tree(problem.source_alpha, problem.target_alphas, p)
    median = geometric_median(terminals, p)
    median_star = float(
        sum(lp_distance(median, t, p) for t in terminals)
    )
    independent = float(
        sum(
            lp_distance(problem.source_alpha, t, p)
            for t in problem.target_alphas
        )
    )
    names = problem.target_names
    payload = {
        "schema": SCHEMA_VERSION,
        "norm": norm,
        "dimension": problem.space.dimension,
        "parameter_keys": list(problem.space.parameter_keys),
        "bounds": {
            "lower": [float(x) for x in problem.space.theta_lower],
            "upper": [float(x) for x in problem.space.theta_upper],
        },
        "robots": [
            {"name": spec.name, "role": role, "alpha": [float(x) for x in alpha]}
            for spec, role, alpha in zip(
                problem.specs, ["source"] + ["target"] * len(names), terminals
            )
        ],
        "tree": {
            "vertices": [[float(x) for x in v] for v in tree.vertices],
            "terminal_ids": list(tree.terminal_ids),
            "edges": [list(e) for e in tree.edges],
            "length": tree.length,
        },
        "first_meta": [float(x) for x in res.beta_meta],
        "first_partition": [
            [names[i] for i in group] for group in res.partition
        ],
        "mst_length": mst.length,
        "geometric_median": {
            "point": [float(x) for x in median],
            "star_length": median_star,
        },
        "independent_total": independent,
    }
    out = os.path.join(args.out, "plan.json")
    write_json(out, payload)
    print(f"wrote {out} (tree length {tree.length:.6f}, MST {mst.length:.6f})")
    return EXIT_OK


def _check_expert(problem: Problem, trainer, expert, cfg) -> None:
    ev = trainer.evaluate(
        expert, problem.source_alpha, cfg.eval_episodes, seed=[cfg.seed, 0xE0]
    )
    if ev.success_rate < cfg.success_threshold:
        raise InvalidInputError(
            f"expert policy scores {ev.success_rate:.3f} on the source robot,"
            f" below the threshold {cfg.success_threshold}"
        )


def _transfer_setup(args):
    """(problem, transfer config, trainer, expert) of a transfer or compare
    command, once the expert has passed its check on the source robot."""
    problem = load_problem(args.robots)
    file_values = parse_config_file(args.config) if args.config else {}
    cfg = build_transfer_config(args.preset, file_values, args.norm, args.seed)
    settings = trainer_settings(file_values)
    trainer = make_trainer(args.trainer, problem, settings)
    expert = make_expert(settings)
    _check_expert(problem, trainer, expert, cfg)
    return problem, cfg, trainer, expert


def cmd_transfer(args) -> int:
    problem, cfg, trainer, expert = _transfer_setup(args)
    reports = transfer.meta_evolve(
        problem.source_alpha, problem.target_alphas, expert, trainer, cfg
    )
    payload = report_payload("meta", reports, cfg, problem, args.trainer)
    write_json(os.path.join(args.out, "report.json"), payload)
    dim = problem.space.dimension
    header = (
        ["path_id", "phase_index", "phase_id"]
        + [f"alpha_{d}" for d in range(dim)]
        + ["train_iterations", "sim_episodes", "success_rate"]
    )
    write_csv(
        os.path.join(args.out, "phases.csv"), header, phases_csv_rows(payload)
    )
    print(
        f"wrote {os.path.join(args.out, 'report.json')} "
        f"(totals: {payload['totals']['train_iterations']} train,"
        f" {payload['totals']['sim_episodes']} sim)"
    )
    if payload["outcome"] != "success":
        return EXIT_BUDGET
    return EXIT_OK


def cmd_compare(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if len(methods) < 2:
        raise InvalidInputError("compare needs at least two methods")
    for m in methods:
        if m not in METHODS:
            raise InvalidInputError(f"unknown method {m!r}")
        if methods.count(m) > 1:
            raise InvalidInputError(f"method {m!r} is listed more than once")
    problem, cfg, trainer, expert = _transfer_setup(args)
    totals, outcomes = {}, {}
    for method in methods:
        reports = _METHOD_FN[method](
            problem.source_alpha, problem.target_alphas, expert, trainer, cfg
        )
        payload = report_payload(method, reports, cfg, problem, args.trainer)
        write_json(os.path.join(args.out, f"report_{method}.json"), payload)
        totals[method], outcomes[method] = payload["totals"], payload["outcome"]
    keys = ("train_iterations", "sim_episodes")
    herd = totals.get("herd")
    rows = [
        [method, *(t[k] for k in keys)]
        + [repr(herd[k] / t[k]) if herd and t[k] else "" for k in keys]
        + [outcomes[method]]
        for method, t in totals.items()
    ]
    write_csv(
        os.path.join(args.out, "compare.csv"),
        ["method", *keys, "speedup_train", "speedup_sim", "outcome"],
        rows,
    )
    print(f"wrote {os.path.join(args.out, 'compare.csv')}")
    ok = all(outcome == "success" for outcome in outcomes.values())
    return EXIT_OK if ok else EXIT_BUDGET


_NUMBER = (int, float)
# the keys and types each kind of `report` input is read through
_PLAN_SHAPE = {"tree": {"vertices": [[_NUMBER]], "length": _NUMBER},
               "mst_length": _NUMBER, "independent_total": _NUMBER}
_REPORT_SHAPE = {
    "phases": [{"phase_id": int, "segment": [int], "phase_index": int,
                "alpha_from": [_NUMBER], "alpha_to": [_NUMBER]}],
    "paths": [{"phase_ids": [int], "target_index": int, "target_name": str,
               "train_iterations": int, "sim_episodes": int, "outcome": str}],
    "totals": {"train_iterations": int, "sim_episodes": int},
    "outcome": str,
}


def _check_shape(value, shape, where: str) -> None:
    """Raise InvalidInputError unless value has shape: an object with the
    keys of a dict, a list whose items have the shape of a one-item list,
    or an instance of a type (a _NUMBER within float range)."""
    kind = type(shape) if isinstance(shape, (dict, list)) else shape
    if not isinstance(value, kind) or (
        kind is _NUMBER and abs(value) > sys.float_info.max
    ):
        raise InvalidInputError(f"{where} is malformed")
    for key, sub in shape.items() if isinstance(shape, dict) else ():
        if key not in value:
            raise InvalidInputError(f"{where} has no {key!r}")
        _check_shape(value[key], sub, f"{where}.{key}")
    for i, item in enumerate(value) if isinstance(shape, list) else ():
        _check_shape(item, shape[0], f"{where}[{i}]")


def _coordinates(rows: list, where: str) -> np.ndarray:
    if not rows or not rows[0] or len({len(r) for r in rows}) != 1:
        raise InvalidInputError(f"{where} must be non-empty rows of one length")
    return np.array(rows, dtype=float)


def _projection_axes(points: np.ndarray) -> tuple[int, int]:
    if points.shape[1] < 2:
        return 0, 0
    variance = points.var(axis=0)
    order = sorted(range(points.shape[1]), key=lambda d: (-variance[d], d))
    first, second = sorted(order[:2])
    return first, second


def cmd_report(args) -> int:
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # bad JSON, UTF-8 or nesting
        raise InvalidInputError(f"cannot parse report {args.report}: {exc}") from exc
    _check_shape(payload, {}, args.report)
    if payload.get("schema") != SCHEMA_VERSION:
        raise InvalidInputError("unsupported or missing schema version")
    rows = []
    if "tree" in payload and "phases" not in payload:
        _check_shape(payload, _PLAN_SHAPE, args.report)
        vertices = _coordinates(payload["tree"]["vertices"], "tree vertices")
        ax0, ax1 = _projection_axes(vertices)
        for v in vertices:
            rows.append(["vertex", "", "", 1, repr(float(v[ax0])), repr(float(v[ax1]))])
        totals_header = ["quantity", "value"]
        totals_rows = [
            ["tree_length", repr(float(payload["tree"]["length"]))],
            ["mst_length", repr(float(payload["mst_length"]))],
            ["independent_total", repr(float(payload["independent_total"]))],
        ]
    elif "phases" in payload:
        _check_shape(payload, _REPORT_SHAPE, args.report)
        phases = payload["phases"]
        ax0, ax1 = 0, 1  # a report whose targets all equal the source has no phases
        if phases:
            ax0, ax1 = _projection_axes(_coordinates(
                [p["alpha_to"] for p in phases] + [p["alpha_from"] for p in phases],
                "phase alphas",
            ))
        owners: dict[int, list[str]] = {}
        for path in payload["paths"]:
            for pid in path["phase_ids"]:
                owners.setdefault(pid, []).append(str(path["target_index"]))
        # one vertex row per distinct segment start, segments in order
        starts: dict[tuple, tuple] = {}
        for p in sorted(phases, key=lambda p: (p["segment"], p["phase_index"])):
            starts.setdefault(tuple(p["segment"]), tuple(p["alpha_from"]))
        for pt in dict.fromkeys(starts.values()):
            rows.append(
                ["vertex", "", "", 1, repr(float(pt[ax0])), repr(float(pt[ax1]))]
            )
        for pid, ph in sorted({p["phase_id"]: p for p in phases}.items()):
            rows.append(
                [
                    "phase",
                    "|".join(owners.get(pid, [])),
                    pid,
                    len(owners.get(pid, [])),
                    repr(float(ph["alpha_to"][ax0])),
                    repr(float(ph["alpha_to"][ax1])),
                ]
            )
        totals_header = ["path_id", "target_name", "train_iterations", "sim_episodes", "outcome"]
        totals_rows = [
            [
                p["target_index"],
                p["target_name"],
                p["train_iterations"],
                p["sim_episodes"],
                p["outcome"],
            ]
            for p in payload["paths"]
        ]
        totals_rows.append(
            [
                "TOTAL",
                "",
                payload["totals"]["train_iterations"],
                payload["totals"]["sim_episodes"],
                payload["outcome"],
            ]
        )
    else:
        raise InvalidInputError("input is neither a plan nor a transfer report")
    header = ["row_kind", "path_ids", "phase_id", "multiplicity", f"alpha_{ax0}", f"alpha_{ax1}"]
    write_csv(os.path.join(args.out, "paths.csv"), header, rows)
    write_csv(os.path.join(args.out, "totals.csv"), totals_header, totals_rows)
    print(f"wrote {os.path.join(args.out, 'paths.csv')}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evotree",
        description="Plan robot evolution trees and run one-to-many policy transfer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--robots",
            nargs="+",
            required=True,
            help="robot spec files; the first is the source",
        )
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--norm", choices=["l1", "l2"], default=None)
        p.add_argument(
            "--preset",
            choices=sorted(transfer.PRESETS),
            default=None,
            help="named hyperparameter preset",
        )
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=".", help="output directory")

    p_plan = sub.add_parser("plan", help="plan the evolution tree")
    common(p_plan)
    p_plan.set_defaults(fn=cmd_plan)

    p_tr = sub.add_parser("transfer", help="run the tree transfer")
    common(p_tr)
    p_tr.add_argument("--trainer", choices=["cost", "toymdp"], default="cost")
    p_tr.set_defaults(fn=cmd_transfer)

    p_cmp = sub.add_parser("compare", help="compare transfer methods")
    common(p_cmp)
    p_cmp.add_argument("--trainer", choices=["cost", "toymdp"], default="cost")
    p_cmp.add_argument(
        "--methods",
        default="meta,herd",
        help="comma-separated subset of: " + ",".join(METHODS),
    )
    p_cmp.set_defaults(fn=cmd_compare)

    p_rep = sub.add_parser("report", help="emit plot data from a plan or report")
    p_rep.add_argument("--report", required=True, help="plan.json or report.json")
    p_rep.add_argument("--out", default=".")
    p_rep.set_defaults(fn=cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        return args.fn(args)
    except SpecValidationError as exc:
        print(f"error: invalid robot spec: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except EvoTreeError as exc:
        print(f"error: transfer failed: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
