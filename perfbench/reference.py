"""Regenerate perfbench/reference.json, the reference figures in README.md.

    python3 perfbench/reference.py [--seconds 20]

Runs every workload once untraced and once traced (run seed 0), then
writes per workload: the end-to-end metrics, speedup_sim (herd episodes
over meta episodes), the tracing overhead and each layer's share of a
traced round. Prints the figures as the Markdown tables used in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import ROOT, WORKLOADS  # noqa: E402

# layer -> per-layer metrics whose seconds it sums; nested spans are
# listed at one level only, so the shares of one column do not overlap
SHARES = {
    "robot_model": [f"robot_model.{f}.s" for f in
                    ("load_robot_spec", "match_kinematics", "build_evolution_space", "normalize")],
    "geometry.steiner_tree": ["geometry.steiner_tree.s"],
    "evo_tree (self)": ["evo_tree.evolution_tree.self_s"],
    "trainers.gradient_probe": ["trainers.gradient_probe.s"],
    "trainers.train_step": ["trainers.train_step.s"],
    "trainers.evaluate": ["trainers.evaluate.s"],
    "transfer (engine self)": ["transfer.engine_self_s"],
    "cli (serialize)": ["cli.report_payload.s", "cli.write_json.s", "cli.write_csv.s"],
}


def run(workload: str, trace: int, seconds: float) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    with open(os.path.join(HERE, "out", f"last-{workload}-trace{trace}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    reference = {}
    for name in WORKLOADS:
        plain, traced = run(name, 0, args.seconds), run(name, 1, args.seconds)
        e2e = {k: v["value"] for k, v in plain["result"]["metrics"].items()}
        layers = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        round_s = statistics.median(traced["round_wall_s"]["traced"])
        counts = plain["counts"]
        herd = counts["herd_sim_episodes"]
        reference[name] = {
            "end_to_end": e2e,
            "herd_sim_episodes": herd,
            "speedup_sim": herd / counts["meta_sim_episodes"] if herd else None,
            "traced_round_s": round_s,
            "trace_overhead_s": layers["trace.overhead_s"],
            "shares": {layer: sum(layers[m] for m in ms) / round_s for layer, ms in SHARES.items()},
            "per_layer": layers,
        }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")

    names = list(reference)
    print("| | " + " | ".join(names) + " |")
    print("|---" * (len(names) + 1) + "|")
    for key, fmt in (("setup_s", "{:.4f}"), ("run_s", "{:.2f}"), ("peak_rss_mb", "{:.0f}"),
                     ("sim_episodes", "{:.0f}")):
        print(f"| `{key}` | " + " | ".join(fmt.format(reference[n]["end_to_end"][key]) for n in names) + " |")
    print("| herd episodes | " + " | ".join(str(reference[n]["herd_sim_episodes"] or "not run") for n in names) + " |")
    print("| `speedup_sim` | " + " | ".join(
        f"{reference[n]['speedup_sim']:.2f}x" if reference[n]["speedup_sim"] else "n/a" for n in names) + " |")
    print("| traced round (s) | " + " | ".join(f"{reference[n]['traced_round_s']:.2f}" for n in names) + " |")
    print("| tracing overhead (s) | " + " | ".join(f"{reference[n]['trace_overhead_s']:+.3f}" for n in names) + " |")
    print()
    print("| share of a traced round | " + " | ".join(names) + " |")
    print("|---" * (len(names) + 1) + "|")
    for layer in SHARES:
        print(f"| {layer} | " + " | ".join(f"{100 * reference[n]['shares'][layer]:.1f}%" for n in names) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
