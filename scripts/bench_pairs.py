"""Run alternating perfbench pairs from two checkouts and write a BENCH file.

    python scripts/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --pr N --title "..." --seed-base 1001 \\
        --traced toy-compare --claim toy-compare:run_s --out BENCH_N.json

The workloads and the run length T come from BENCHMARK.json; every workload
runs PAIRS pairs. Each pair runs
`perfbench/run.py --workload W --seed S --seconds T --trace 0` once in each
checkout, one process at a time, with S = seed base + pair index; even pairs
run the parent first, odd pairs the change. For every end-to-end metric of
BENCHMARK.json the file records, per workload, the median and quartiles of
each side and the number of pairs in which the change was better or worse.
Each --traced workload gets one `--trace 1` run of TRACED_SECONDS per side
and its per-layer metrics. The `src/` line count of both
checkouts is recorded too. With --claim WORKLOAD:METRIC the file states
whether the change is better in at least 9 of 10 pairs and its median
beats the parent's by more than the parent's quartile spread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
PAIRS = 10
TRACED_SECONDS = 10.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--title", required=True)
    parser.add_argument("--parent-rev", default="", help="parent commit id, recorded as is")
    parser.add_argument("--seed-base", type=int, required=True,
                        help="seed of the first pair; pair i uses seed base + i")
    parser.add_argument("--traced", action="append", default=[],
                        help="workload to trace once per side (repeatable)")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    parser.add_argument("--out", required=True)
    return parser.parse_args(argv)


def perfbench(checkout: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The result object a perfbench run prints as its last line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench failed in {checkout}: {workload} seed {seed}\n{proc.stderr}")
    print(f"{os.path.basename(checkout.rstrip('/'))} {workload} seed {seed} trace {trace} done",
          file=sys.stderr)
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 6), "q1": round(float(q1), 6), "q3": round(float(q3), 6)}


def workload_summary(runs: dict, metrics: dict, pairs: int, seconds: float, seed_base: int) -> dict:
    """runs[side] is the list of one workload's results, pair by pair."""
    out = {"pairs": pairs, "seconds": seconds, "seed_base": seed_base}
    for name, better in metrics.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        sign = -1.0 if better == "lower" else 1.0
        deltas = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        out[name] = {
            **{side: quartiles(values[side]) for side in SIDES},
            "change_better_pairs": sum(d > 0 for d in deltas),
            "change_worse_pairs": sum(d < 0 for d in deltas),
        }
    out["correct"] = all(r["correct"] for side in SIDES for r in runs[side])
    out["failed"] = {side: sum(r["failed"] for r in runs[side]) for side in SIDES}
    out["attempted"] = {side: sum(r["attempted"] for r in runs[side]) for side in SIDES}
    return out


def claim_summary(summary: dict, workload: str, metric: str, better: str) -> dict:
    row = summary[metric]
    parent, change = row["parent"], row["change"]
    spread = parent["q3"] - parent["q1"]
    gain = parent["median"] - change["median"] if better == "lower" else change["median"] - parent["median"]
    pairs = summary["pairs"]
    met = row["change_better_pairs"] >= 0.9 * pairs and gain > spread
    text = (f"{pairs} pairs, change better in {row['change_better_pairs']}/{pairs}; median "
            f"{parent['median']:.3f} -> {change['median']:.3f}, parent quartiles "
            f"[{parent['q1']:.3f}, {parent['q3']:.3f}] (spread {spread:.3f})")
    return {"metric": metric, "workload": workload, "met": bool(met), "summary": text}


def src_loc(checkout: str) -> int:
    total = 0
    for directory, _, files in os.walk(os.path.join(checkout, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), "r", encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        declared = json.load(fh)
    metrics = {m["name"]: m["better"] for m in declared["end_to_end"]}
    workloads = [w["name"] for w in declared["workloads"]]
    seconds = float(declared["run_seconds"])
    bench = {
        "pr": args.pr,
        "title": args.title,
        "parent": args.parent_rev,
        "host": (f"{os.cpu_count()} cores, Python {platform.python_version()}, numpy "
                 f"{np.__version__}; wall times scaled by the perfbench calibration kernel"),
        "method": (f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                   f"--trace 0, run from clean copies of the parent and the change, one process "
                   f"at a time, alternating which side runs first; seed S = seed_base + pair index"),
        "workloads": {},
    }
    for w in workloads:
        runs = {side: [] for side in SIDES}
        for i in range(PAIRS):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(perfbench(checkouts[side], w, args.seed_base + i, seconds, 0))
        bench["workloads"][w] = workload_summary(runs, metrics, PAIRS, seconds, args.seed_base)
    for w in args.traced:
        seed = args.seed_base + PAIRS
        key = "traced_" + w.replace("-", "_")
        bench[key] = {"command": f"python3 perfbench/run.py --workload {w} --seed {seed} "
                                 f"--seconds {TRACED_SECONDS:g} --trace 1"}
        for side in SIDES:
            result = perfbench(checkouts[side], w, seed, TRACED_SECONDS, 1)
            bench[key][side] = {name: round(m["value"], 6) if isinstance(m["value"], float) else m["value"]
                                for name, m in result["metrics"].items()}
            bench[key][f"{side}_correct"] = result["correct"]
    bench["src_loc"] = {side: src_loc(checkouts[side]) for side in SIDES}
    if args.claim:
        workload, metric = args.claim.split(":")
        bench["claim"] = claim_summary(bench["workloads"][workload], workload, metric, metrics[metric])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
