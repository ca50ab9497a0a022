"""Self-test of the benchmark's own checks (a few seconds).

    python3 perfbench/selftest.py

1. The point-mass integrator in checks.py agrees with
   ToyMdpTrainer.evaluate on the expert policy, at the source robot and at
   each toy target, within 4 standard errors of the difference of two
   success-rate estimates.
2. On a two-robot cost run (L1 and L2) every output check passes, the herd
   path has ceil(d/xi) phases, and the checks reject a herd path with one
   phase split in two, a phase longer than xi, a wrong total, and a first
   tree longer than the spanning tree.
"""

from __future__ import annotations

import copy
import json
import math
import os
import shutil
import sys
import tempfile

import run  # first: it pins the BLAS thread count before numpy loads
import checks
from workloads import TOY_FIXTURES, Workload, canonical_theta, write_inputs

EPISODES = 2000


def integrator_agrees(cli) -> None:
    problem = cli.load_problem(TOY_FIXTURES)
    settings = cli.trainer_settings({})
    trainer = cli.make_trainer("toymdp", problem, settings)
    expert = cli.make_expert(settings)
    alphas = [problem.source_alpha, *problem.target_alphas]
    for i, (path, alpha) in enumerate(zip(TOY_FIXTURES, alphas)):
        with open(path, "r", encoding="utf-8") as fh:
            theta = canonical_theta(json.load(fh))
        ours = checks.pointmass_success_rate(expert.weights, expert.log_std, theta, EPISODES, [7, i])
        theirs = trainer.evaluate(expert, alpha, EPISODES, seed=[8, i]).success_rate
        pooled = (ours + theirs) / 2
        se = math.sqrt(max(pooled * (1 - pooled), 1e-4) * 2 / EPISODES)
        print(f"expert on {os.path.basename(path)}: integrator {ours:.3f}, trainer {theirs:.3f}")
        checks.require(abs(ours - theirs) <= 4 * se, f"integrator disagrees on {path}")


def rejects(fn, *args) -> None:
    try:
        fn(*args)
    except checks.CheckError as exc:
        print(f"  rejected as expected: {exc}")
        return
    raise checks.CheckError(f"{fn.__name__} accepted a broken output")


def two_robot_runs(cli, work_dir: str) -> None:
    for norm, xi in (("l1", 0.02), ("l2", 0.05)):
        w = Workload(f"two-robot-{norm}", "compare", "cost", norm, ("meta", "herd"),
                     {"transfer.xi": xi}, 1, 5, 11)
        run_dir = tempfile.mkdtemp(dir=work_dir)
        robots, config = write_inputs(w, 0, w.instance_seed, run_dir)
        runner = run.Runner(cli, w, robots, config, run_dir)
        runner.round()
        runner.final_checks()
        checks.require(not runner.errors and runner.failed == 0, f"{w.name}: {runner.errors}")
        with open(os.path.join(runner.out, "report_herd.json"), "r", encoding="utf-8") as fh:
            herd = json.load(fh)
        d = checks.lp(runner.source, runner.targets[0], w.p)
        phases = len(herd["paths"][0]["phase_ids"])
        print(f"{w.name}: d = {d:.4f}, xi = {xi}, herd phases {phases} = ceil(d/xi) {math.ceil(d / xi)}")

        split = copy.deepcopy(herd)
        ids = split["paths"][0]["phase_ids"]
        by_id = {ph["phase_id"]: ph for ph in split["phases"]}
        last = by_id[ids[-1]]
        middle = [(a + b) / 2 for a, b in zip(last["alpha_from"], last["alpha_to"])]
        extra = dict(last, phase_id=max(by_id) + 1, alpha_to=middle, sim_episodes=0)
        last["alpha_from"] = middle
        split["phases"].append(extra)
        ids.insert(len(ids) - 1, extra["phase_id"])
        rejects(checks.check_report, split, "herd", w, runner.source, runner.targets)
        stretched = copy.deepcopy(herd)
        first, second = stretched["paths"][0]["phase_ids"][:2]
        stretched["paths"][0]["phase_ids"].remove(first)
        by_id = {ph["phase_id"]: ph for ph in stretched["phases"]}
        by_id[second]["alpha_from"] = by_id[first]["alpha_from"]
        rejects(checks.check_report, stretched, "herd", w, runner.source, runner.targets)
        miscounted = copy.deepcopy(herd)
        miscounted["totals"]["sim_episodes"] += 1
        rejects(checks.check_report, miscounted, "herd", w, runner.source, runner.targets)

    plan = {"robots": [{"alpha": list(a)} for a in (runner.source, *runner.targets)],
            "tree": {"length": 1.01 * checks.lp(runner.source, runner.targets[0], w.p)}}
    rejects(checks.check_plan, plan, w.p, runner.source, runner.targets)


def main() -> int:
    cli = run.import_evotree()
    os.makedirs(run.OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        integrator_agrees(cli)
        two_robot_runs(cli, work_dir)
    except checks.CheckError as exc:
        print(f"FAILED: {exc}")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print("ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
