"""The four workloads and the robot spec files they run on.

Each workload's robot set comes from its fixed instance seed: the toy
fixtures as shipped, or a uniform-random cost-model set. The run's --seed
only respells the files: robot names, local body ids and parameter keys
(mapped back to the canonical ones through `correspondence`) and the order
of bodies and parameters. The matched evolution space, and with it every
count the program reports, is the same for every run seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOY_FIXTURES = [
    os.path.join(ROOT, "fixtures", "toy", f"{name}.json")
    for name in ("source", "target_a", "target_b", "target_c")
]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "compare" or "transfer"
    trainer: str
    norm: str
    methods: tuple[str, ...]
    config: dict  # transfer.* / trainer.* values written to the --config file
    targets: int  # cost workloads: generated targets (toy: the fixtures' 3)
    dim: int  # cost workloads: generated parameters
    instance_seed: int
    program_seed: int = 0

    @property
    def p(self) -> int:
        return {"l1": 1, "l2": 2}[self.norm]

    @property
    def xi(self) -> float:
        return float(self.config.get("transfer.xi", 0.03))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("toy-compare", "compare", "toymdp", "l1", ("meta", "herd"), {}, 3, 5, 0),
        Workload(
            "toy-probe", "transfer", "toymdp", "l1", ("meta",),
            {"transfer.gradient_samples": 6, "transfer.xi": 0.06}, 3, 5, 0,
        ),
        Workload(
            "cost-l2", "compare", "cost", "l2", ("meta", "herd", "geom-median"),
            {"transfer.xi": 0.05}, 6, 5, 2,
        ),
        Workload(
            "cost-l1", "compare", "cost", "l1", ("meta", "herd", "geom-median"),
            {"transfer.xi": 0.02}, 5, 8, 4,
        ),
    )
}


def canonical_specs(w: Workload, instance_seed: int) -> list[dict]:
    """Source first, then targets, with canonical names and keys."""
    if w.trainer == "toymdp":
        specs = []
        for path in TOY_FIXTURES:
            with open(path, "r", encoding="utf-8") as fh:
                specs.append(json.load(fh))
        return specs
    rng = np.random.default_rng([instance_seed, w.dim, w.targets])
    specs = []
    for r in range(w.targets + 1):
        specs.append({
            "name": "source" if r == 0 else f"target{r}",
            "bodies": [{"id": "base", "parent": None, "joints": []}]
            + [{"id": f"link{k}", "parent": "base", "joints": []} for k in range(w.dim)],
            "params": {
                f"body.link{k}.length": {"value": float(rng.uniform(0.2, 1.0)), "unit": "m"}
                for k in range(w.dim)
            },
            "correspondence": {},
        })
    return specs


def respell(spec: dict, rng: np.random.Generator) -> dict:
    """Same robot, other local names and ordering, mapped via correspondence."""
    tag = f"s{int(rng.integers(1 << 40)):x}"
    canon = spec.get("correspondence", {})
    local = {b["id"]: f"{tag}-{b['id']}" for b in spec["bodies"]}
    corr = {local[b]: canon.get(b, b) for b in local}
    bodies = []
    for i in rng.permutation(len(spec["bodies"])):
        b = spec["bodies"][i]
        parent = b["parent"]
        bodies.append({
            "id": local[b["id"]],
            "parent": None if parent in (None, "root") else local[parent],
            "joints": b.get("joints", []),
        })
    keys = list(spec["params"])
    params = {}
    for i in rng.permutation(len(keys)):
        key = keys[i]
        params[f"{tag}.{key}"] = spec["params"][key]
        corr[f"{tag}.{key}"] = canon.get(key, key)
    return {"name": f"{spec['name']}-{tag}", "bodies": bodies, "params": params, "correspondence": corr}


def write_inputs(w: Workload, run_seed: int, instance_seed: int, directory: str):
    """Write the respelled spec files and the config file; return their paths."""
    rng = np.random.default_rng([run_seed, 0x5EED])
    specs = [respell(s, rng) for s in canonical_specs(w, instance_seed)]
    paths = []
    for i, spec in enumerate(specs):
        path = os.path.join(directory, f"robot{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh, indent=1)
        paths.append(path)
    config = os.path.join(directory, "run.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        for key, value in w.config.items():
            fh.write(f"{key} = {value}\n")
    return paths, config


def command_argv(w: Workload, robots: list[str], config: str, out: str) -> list[str]:
    argv = [w.command, "--robots", *robots, "--trainer", w.trainer, "--norm", w.norm,
            "--config", config, "--seed", str(w.program_seed), "--out", out]
    if w.command == "compare":
        argv += ["--methods", ",".join(w.methods)]
    return argv


def canonical_theta(spec: dict) -> dict[str, float]:
    """Canonical parameter key -> value, read straight from a spec dict."""
    corr = spec.get("correspondence", {})
    return {corr.get(k, k): float(v["value"]) for k, v in spec["params"].items()}
