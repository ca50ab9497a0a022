"""In-memory spans around calls into evotree's public functions.

The tracer swaps each traced function for a timing wrapper in every evotree
module namespace that holds it (and in the CLI's method table), so the
library itself is not edited. Spans are kept in memory until the traced
run ends.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute) of each traced function; the span name is
# "<module>.<attribute>"
TRACED_FUNCTIONS = [
    ("robot_model", "load_robot_spec"),
    ("robot_model", "match_kinematics"),
    ("robot_model", "build_evolution_space"),
    ("robot_model", "normalize"),
    ("geometry", "steiner_tree"),
    ("geometry", "geometric_median"),
    ("evo_tree", "evolution_tree"),
    ("evo_tree", "clamp_meta"),
    ("transfer", "evolution_step"),
    ("transfer", "estimate_reward_gradient"),
    ("transfer", "phase_train"),
    ("transfer", "meta_evolve"),
    ("transfer", "herd_baseline"),
    ("transfer", "geom_median_baseline"),
    ("cli", "report_payload"),
    ("cli", "write_json"),
    ("cli", "write_csv"),
]
# trainer methods, traced on every trainer class as "trainers.<method>"
TRACED_METHODS = ["train_step", "evaluate", "gradient_probe"]
METHOD_SPANS = ("transfer.meta_evolve", "transfer.herd_baseline", "transfer.geom_median_baseline")


def _hanan_nodes(args, kwargs) -> int:
    """Hanan grid size of an L1 steiner_tree call; 0 for L2 calls."""
    p = kwargs.get("p", args[1] if len(args) > 1 else None)
    if p != 1:
        return 0
    pts = np.asarray(args[0], dtype=float)
    return int(np.prod([len(np.unique(pts[:, d])) for d in range(pts.shape[1])]))


def _extra(name, args, kwargs, result) -> dict:
    """Per-call quantities beyond time: episodes, splits, grid size, bytes."""
    if name.startswith("trainers.") or name == "transfer.estimate_reward_gradient":
        return {"episodes": int(result.sim_episodes)}
    if name == "evo_tree.evolution_tree":
        return {"split": bool(result.split)}
    if name == "geometry.steiner_tree":
        return {"hanan_nodes": _hanan_nodes(args, kwargs)}
    if name in ("cli.write_json", "cli.write_csv"):
        return {"bytes": os.path.getsize(args[0])}
    return {}


class Tracer:
    """Collects one span per traced call: name, parent, start, end, extras."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None}
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            span.update(_extra(name, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def record(self, name, start, end) -> None:
        """Add a span timed elsewhere, as a child of the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "parent": parent, "start": start, "end": end})

    @contextmanager
    def installed(self):
        """Swap every traced function for its wrapper; restore on exit."""
        undo = []
        modules = [m for k, m in sys.modules.items() if k == "evotree" or k.startswith("evotree.")]
        for mod_name, attr in TRACED_FUNCTIONS:
            original = getattr(sys.modules[f"evotree.{mod_name}"], attr)
            wrapper = self.wrap(f"{mod_name}.{attr}", original)
            for mod in modules:
                if vars(mod).get(attr) is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        trainers = sys.modules["evotree.trainers"]
        for cls in (trainers.CostModelTrainer, trainers.ToyMdpTrainer):
            for attr in TRACED_METHODS:
                original = vars(cls)[attr]
                undo.append((cls, attr, original))
                setattr(cls, attr, self.wrap(f"trainers.{attr}", original))
        table = sys.modules["evotree.cli"]._METHOD_FN
        saved_table = dict(table)
        transfer = sys.modules["evotree.transfer"]
        for key, fn in saved_table.items():
            table[key] = getattr(transfer, fn.__name__)
        try:
            yield self
        finally:
            table.update(saved_table)
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


_EMPTY = {"calls": 0, "s": 0.0, "self_s": 0.0, "episodes": 0, "splits": 0,
          "hanan_nodes_max": 0, "bytes": 0}


def layer_totals(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds, summed extras."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out: dict[str, dict] = {}
    for i, span in enumerate(spans):
        row = out.setdefault(span["name"], dict(_EMPTY))
        duration = span["end"] - span["start"]
        row["calls"] += 1
        row["s"] += duration
        row["self_s"] += duration - child_time[i]
        row["episodes"] += span.get("episodes", 0)
        row["splits"] += int(span.get("split", False))
        row["hanan_nodes_max"] = max(row["hanan_nodes_max"], span.get("hanan_nodes", 0))
        row["bytes"] += span.get("bytes", 0)
    return out


def per_layer_metrics(totals: dict[str, dict], phases: int) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for one round, named as in BENCHMARK.json.

    phases is the number of distinct phase ids in the round's reports,
    summed over methods.
    """

    def row(name):
        return totals.get(name, _EMPTY)

    m: dict[str, tuple[float, str]] = {}

    def calls_and_s(name):
        m[f"{name}.calls"] = (row(name)["calls"], "count")
        m[f"{name}.s"] = (row(name)["s"], "s")

    for fn in ("load_robot_spec", "match_kinematics", "build_evolution_space", "normalize"):
        calls_and_s(f"robot_model.{fn}")
    calls_and_s("geometry.steiner_tree")
    m["geometry.steiner_tree.hanan_nodes_max"] = (row("geometry.steiner_tree")["hanan_nodes_max"], "count")
    calls_and_s("geometry.geometric_median")
    tree = row("evo_tree.evolution_tree")
    calls_and_s("evo_tree.evolution_tree")
    m["evo_tree.evolution_tree.self_s"] = (tree["self_s"], "s")
    m["evo_tree.evolution_tree.split_ratio"] = (tree["splits"] / tree["calls"] if tree["calls"] else 0.0, "ratio")
    m["evo_tree.clamp_meta.calls"] = (row("evo_tree.clamp_meta")["calls"], "count")
    calls_and_s("transfer.evolution_step")
    calls_and_s("transfer.estimate_reward_gradient")
    m["transfer.estimate_reward_gradient.episodes"] = (row("transfer.estimate_reward_gradient")["episodes"], "episodes")
    calls_and_s("transfer.phase_train")
    m["transfer.phases"] = (phases, "count")
    m["transfer.engine_self_s"] = (sum(row(name)["self_s"] for name in METHOD_SPANS), "s")
    for fn in TRACED_METHODS:
        calls_and_s(f"trainers.{fn}")
        m[f"trainers.{fn}.episodes"] = (row(f"trainers.{fn}")["episodes"], "episodes")
    episodes = sum(row(f"trainers.{fn}")["episodes"] for fn in TRACED_METHODS)
    busy = sum(row(f"trainers.{fn}")["s"] for fn in TRACED_METHODS)
    m["trainers.episodes_per_s"] = (episodes / busy if busy > 0 else 0.0, "episodes/s")
    for fn in ("report_payload", "write_json", "write_csv"):
        calls_and_s(f"cli.{fn}")
    m["cli.bytes_written"] = (row("cli.write_json")["bytes"] + row("cli.write_csv")["bytes"], "B")
    return m
