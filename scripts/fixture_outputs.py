"""Write the outputs of a fixed matrix of CLI runs on the fixtures.

    python scripts/fixture_outputs.py OUT

Each run writes into its own directory under OUT:

* `plan` under L1 and L2, on `fixtures/planar` and on `fixtures/toy`;
* `transfer` and `compare --methods meta,herd,geom-median` with the cost
  trainer, under L1 and L2, at xi 0.02, on both fixture sets;
* one short `toymdp` transfer on `fixtures/toy`, and a `toymdp`
  `compare --methods meta,herd,geom-median` under L2 on the same config
  with 6 gradient probes per phase, so the three methods' shared run
  loop, probe requests and the geom-median trunk run on the toy kernel;
* a cost transfer from the planar source to a copy of it (written under
  OUT as `robots/source_copy.json`), whose report has no phases;
* `plan` and a cost `transfer` from the planar source to a copy of
  `target_a` named `arm, "long"`, with a revolute joint the source lacks
  (written under OUT as `robots/jointed_target.json`), covering joint
  embedding and CSV quoting;
* `plan` and a cost `transfer` on a copy of the planar robots whose root
  body has the id `root` (the other bodies' `"parent": "root"` then names
  it) and whose local ids map back to the fixtures' through
  `correspondence` (written under OUT as `robots/rooted_*.json`);
* the command of each of the four perfbench workloads (toy-compare,
  toy-probe, cost-l2, cost-l1), one round each, on the inputs that
  `perfbench/workloads.py` writes for run seed WORKLOAD_SEED, into
  `workloads/<name>/` under OUT;
* `report` on every plan.json and report*.json above.

The runs use the evotree package next to this script (`src/`), so running
the script from two checkouts and comparing the two trees with `diff -r`
checks that a change keeps every output byte-identical. Exits 1 when a run
exits non-zero or an expected file is missing.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from evotree.cli import main  # noqa: E402

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import WORKLOADS, command_argv, write_inputs  # noqa: E402

ROBOTS = ("source", "target_a", "target_b", "target_c")
TOYMDP_CONFIG = (
    "transfer.xi = 0.12\n"
    "transfer.max_phase_iterations = 150\n"
    "transfer.final_success_threshold = 0.8\n"
)
WORKLOAD_SEED = 7
# the planar robots' ids -> the local ids of their rooted copies
ROOTED_IDS = {"base": "root", "arm": "limb", "arm.lift": "limb.lift", "arm.span": "limb.span"}


def robots(fixture: str) -> list[str]:
    return [os.path.join(ROOT, "fixtures", fixture, f"{r}.json") for r in ROBOTS]


def runs(out_root: str, workload_inputs: dict):
    """(output directory, argv without --out, files it writes) of every
    run, reports last; workload_inputs maps each workload's name to the
    (robot paths, config path) its inputs were written to."""
    xi = os.path.join(out_root, "configs", "xi002.cfg")
    toy = os.path.join(out_root, "configs", "toymdp.cfg")
    toy_probes = os.path.join(out_root, "configs", "toymdp-probes.cfg")
    copy = os.path.join(out_root, "robots", "source_copy.json")
    jointed = [robots("planar")[0], os.path.join(out_root, "robots", "jointed_target.json")]
    rooted = [os.path.join(out_root, "robots", f"rooted_{r}.json") for r in ROBOTS]
    out = []
    for fixture in ("planar", "toy"):
        for norm in ("l1", "l2"):
            common = ["--robots", *robots(fixture), "--norm", norm]
            cost = [*common, "--trainer", "cost", "--config", xi]
            out += [
                (f"plan-{fixture}-{norm}", ["plan", *common], ["plan.json"]),
                (f"transfer-{fixture}-{norm}", ["transfer", *cost],
                 ["report.json", "phases.csv"]),
                (f"compare-{fixture}-{norm}",
                 ["compare", *cost, "--methods", "meta,herd,geom-median"],
                 ["report_meta.json", "report_herd.json",
                  "report_geom-median.json", "compare.csv"]),
            ]
    out.append(("transfer-toy-toymdp",
                ["transfer", "--robots", *robots("toy"), "--trainer", "toymdp",
                 "--config", toy, "--seed", "1"],
                ["report.json", "phases.csv"]))
    out.append(("compare-toy-toymdp-l2",
                ["compare", "--robots", *robots("toy"), "--trainer", "toymdp",
                 "--norm", "l2", "--config", toy_probes,
                 "--methods", "meta,herd,geom-median", "--seed", "1"],
                ["report_meta.json", "report_herd.json",
                 "report_geom-median.json", "compare.csv"]))
    out.append(("transfer-planar-same",
                ["transfer", "--robots", robots("planar")[0], copy],
                ["report.json", "phases.csv"]))
    out.append(("plan-jointed", ["plan", "--robots", *jointed], ["plan.json"]))
    out.append(("transfer-jointed",
                ["transfer", "--robots", *jointed, "--config", xi],
                ["report.json", "phases.csv"]))
    out.append(("plan-rooted", ["plan", "--robots", *rooted], ["plan.json"]))
    out.append(("transfer-rooted", ["transfer", "--robots", *rooted, "--config", xi],
                ["report.json", "phases.csv"]))
    for w in WORKLOADS.values():
        name = os.path.join("workloads", w.name)
        argv = command_argv(w, *workload_inputs[w.name], os.path.join(out_root, name))
        del argv[argv.index("--out") : argv.index("--out") + 2]
        files = ([f"report_{m}.json" for m in w.methods] + ["compare.csv"]
                 if w.command == "compare" else ["report.json", "phases.csv"])
        out.append((name, argv, files))
    out += [
        (f"report-{name.replace(os.sep, '-')}-{f[:-5]}",
         ["report", "--report", os.path.join(out_root, name, f)],
         ["paths.csv", "totals.csv"])
        for name, _, files in out for f in files if f.endswith(".json")
    ]
    return [(os.path.join(out_root, name), argv, files) for name, argv, files in out]


def write_outputs(out_root: str) -> int:
    config_dir = os.path.join(out_root, "configs")
    os.makedirs(config_dir, exist_ok=True)
    with open(os.path.join(config_dir, "xi002.cfg"), "w") as fh:
        fh.write("transfer.xi = 0.02\n")
    with open(os.path.join(config_dir, "toymdp.cfg"), "w") as fh:
        fh.write(TOYMDP_CONFIG)
    with open(os.path.join(config_dir, "toymdp-probes.cfg"), "w") as fh:
        fh.write(TOYMDP_CONFIG + "transfer.gradient_samples = 6\n")
    with open(robots("planar")[0]) as fh:
        source = json.load(fh)
    os.makedirs(os.path.join(out_root, "robots"), exist_ok=True)
    with open(os.path.join(out_root, "robots", "source_copy.json"), "w") as fh:
        json.dump({**source, "name": source["name"] + "-copy"}, fh)
    with open(robots("planar")[1]) as fh:
        target = json.load(fh)
    elbow = {"name": "elbow", "kind": "revolute", "range": [-1.0, 1.5]}
    bodies = [{**b, "joints": [elbow]} if b["id"] == "arm" else b
              for b in target["bodies"]]
    with open(os.path.join(out_root, "robots", "jointed_target.json"), "w") as fh:
        json.dump({**target, "name": 'arm, "long"', "bodies": bodies}, fh)
    correspondence = {local: canonical for canonical, local in ROOTED_IDS.items()}
    for robot, path in zip(ROBOTS, robots("planar")):
        with open(path) as fh:
            spec = json.load(fh)
        bodies = [{**b, "id": ROOTED_IDS[b["id"]],
                   "parent": b["parent"] and ROOTED_IDS[b["parent"]]} for b in spec["bodies"]]
        params = {ROOTED_IDS[k]: v for k, v in spec["params"].items()}
        with open(os.path.join(out_root, "robots", f"rooted_{robot}.json"), "w") as fh:
            json.dump({**spec, "bodies": bodies, "params": params,
                       "correspondence": correspondence}, fh)
    workload_inputs = {}
    for w in WORKLOADS.values():
        directory = os.path.join(out_root, "workloads", w.name)
        os.makedirs(directory, exist_ok=True)
        workload_inputs[w.name] = write_inputs(w, WORKLOAD_SEED, w.instance_seed, directory)
    failed = []
    for out, argv, files in runs(out_root, workload_inputs):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--out", out])
        missing = [f for f in files if not os.path.isfile(os.path.join(out, f))]
        if code != 0 or missing:
            failed.append(f"{out}: exit {code}, missing {missing}")
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT")
    sys.exit(write_outputs(sys.argv[1]))
