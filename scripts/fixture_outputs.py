"""Write the outputs of a fixed matrix of CLI runs on the fixtures.

    python scripts/fixture_outputs.py OUT

Each run writes into its own directory under OUT:

* `plan` under L1 and L2, on `fixtures/planar` and on `fixtures/toy`;
* `transfer` and `compare --methods meta,herd,geom-median` with the cost
  trainer, under L1 and L2, at xi 0.02, on both fixture sets;
* one short `toymdp` transfer on `fixtures/toy`;
* a cost transfer from the planar source to a copy of it (written under
  OUT as `robots/source_copy.json`), whose report has no phases;
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

ROBOTS = ("source", "target_a", "target_b", "target_c")
TOYMDP_CONFIG = (
    "transfer.xi = 0.12\n"
    "transfer.max_phase_iterations = 150\n"
    "transfer.final_success_threshold = 0.8\n"
)


def robots(fixture: str) -> list[str]:
    return [os.path.join(ROOT, "fixtures", fixture, f"{r}.json") for r in ROBOTS]


def runs(out_root: str):
    """(output directory, argv, files it writes) of every run, reports last."""
    xi = os.path.join(out_root, "configs", "xi002.cfg")
    toy = os.path.join(out_root, "configs", "toymdp.cfg")
    copy = os.path.join(out_root, "robots", "source_copy.json")
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
    out.append(("transfer-planar-same",
                ["transfer", "--robots", robots("planar")[0], copy],
                ["report.json", "phases.csv"]))
    out += [
        (f"report-{name}-{f[:-5]}",
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
    with open(robots("planar")[0]) as fh:
        source = json.load(fh)
    os.makedirs(os.path.join(out_root, "robots"), exist_ok=True)
    with open(os.path.join(out_root, "robots", "source_copy.json"), "w") as fh:
        json.dump({**source, "name": source["name"] + "-copy"}, fh)
    failed = []
    for out, argv, files in runs(out_root):
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
