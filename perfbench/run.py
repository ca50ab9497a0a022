"""Benchmark of the evotree CLI on four fixed workloads.

    python3 perfbench/run.py --workload cost-l2 --seed 3 --seconds 20 --trace 0

One process and one thread run one command after another (a closed loop).
A run writes its workload's spec files, times the CLI's set-up steps
repeatedly, then runs whole rounds of the workload's command until
--seconds have passed, checking every round's outputs. --trace 0 reports
the end-to-end metrics. --trace 1 alternates untraced and traced rounds and
reports the per-layer metrics and the tracing overhead. The last line of standard output is the result as one JSON
object; a summary of the run is also left in perfbench/out/.
"""

from __future__ import annotations

import os

# one thread: each workload is a closed loop on a single core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import ROOT, WORKLOADS, command_argv, write_inputs  # noqa: E402

OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 10  # set-ups timed before each round, each after a calibration
# Timings are scaled to a reference host speed. On a shared host the same
# round's wall time moves by tens of percent from minute to minute, and a
# fixed calibration kernel slows down with it. A round's wall time (less the
# calibrations inside it) is multiplied by
#     (CALIBRATION_REF_S / median kernel time around and inside the round) ** ELASTICITY
# ELASTICITY is how strongly the workloads' time follows the kernel's: over
# 119 rounds of toy-compare, cost-l2 and cost-l1 the per-round spread (CV)
# was 13-18% unscaled, 7-10% with power 1.0 and 4-7% with power 0.7.
CALIBRATION_REF_S = 0.008  # the kernel's time on an idle core of this host
CALIBRATION_INTERVAL_S = 0.25  # least time between two samples inside a round
ELASTICITY = 0.7

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="respells the spec files; every seed does the same work")
    parser.add_argument("--instance-seed", type=int, default=None,
                        help="seed of the generated robot set (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def import_evotree():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "evotree", "__init__.py")):
        raise SystemExit(f"error: no evotree sources under {src}")
    sys.path.insert(0, src)
    from evotree import cli

    return cli


def time_setup(cli, w, robots, config) -> float:
    """Wall time of one run of the CLI's set-up steps before a transfer.

    Spec load, matching and normalization, config parsing, trainer and
    expert construction, and the expert check on the source robot.
    """
    t0 = time.perf_counter()
    problem = cli.load_problem(robots)
    file_values = cli.parse_config_file(config)
    cfg = cli.build_transfer_config(None, file_values, w.norm, w.program_seed)
    settings = cli.trainer_settings(file_values)
    trainer = cli.make_trainer(w.trainer, problem, settings)
    expert = cli.make_expert(settings)
    cli._check_expert(problem, trainer, expert, cfg)
    return time.perf_counter() - t0


def _calibration_kernel() -> float:
    """Fixed mix of small numpy steps and Python bookkeeping, like the workloads'."""
    rng = np.random.default_rng(0)
    w = rng.standard_normal((2, 4))
    x = rng.standard_normal((12, 2))
    v = np.zeros((12, 2))
    acc = 0.0
    table: dict[int, list[int]] = {}
    for t in range(500):
        f = np.concatenate([1.0 - x, v], axis=1)
        a = np.clip(f @ w.T, -1.0, 1.0)
        x = x + 0.01 * v
        v = np.where(a > 0, v + 0.01 * a, v - 0.01 * a)
        acc += float(np.abs(x).sum())
        table[t % 97] = sorted((t, t ^ 5, t % 11))
    return acc


class HostClock:
    """Samples of the host's speed: calibration-kernel times around and inside rounds.

    Inside a round, a wrapper around transfer.phase_train times the kernel
    at most once per CALIBRATION_INTERVAL_S. That time is left out of the
    round's time and, in a traced round, recorded as a `bench.calibration`
    span, so no layer's self time includes it.
    """

    def __init__(self):
        self.samples: list[float] = []  # every sample of the run
        self.start_round(None)

    def start_round(self, tracer) -> None:
        self.round_samples: list[float] = []
        self.spent = 0.0  # seconds of sampling inside the timed region
        self.tracer = tracer
        self.sample()

    def sample(self) -> tuple[float, float]:
        t0 = time.perf_counter()
        _calibration_kernel()
        t1 = time.perf_counter()
        self.round_samples.append(t1 - t0)
        self.samples.append(t1 - t0)
        self._last = t1
        return t0, t1

    def tick(self) -> None:
        if time.perf_counter() - self._last >= CALIBRATION_INTERVAL_S:
            t0, t1 = self.sample()
            self.spent += t1 - t0
            if self.tracer is not None:
                self.tracer.record("bench.calibration", t0, t1)

    def scale(self, kernel_s: float | None = None) -> float:
        """Factor from wall time to time at the reference speed.

        kernel_s is the kernel time to scale by; by default the median of
        this round's samples.
        """
        if kernel_s is None:
            kernel_s = statistics.median(self.round_samples)
        return (CALIBRATION_REF_S / kernel_s) ** ELASTICITY

    @contextlib.contextmanager
    def sampling(self, transfer):
        original = transfer.phase_train

        def phase_train(*args, **kwargs):
            self.tick()
            return original(*args, **kwargs)

        transfer.phase_train = phase_train
        try:
            yield
        finally:
            transfer.phase_train = original


@contextlib.contextmanager
def capturing_reports(cli, sink: list):
    """Keep each method's returned reports: the final policies live only there."""
    table = cli._METHOD_FN
    saved = dict(table)

    def capture(method, fn):
        def run(*args, **kwargs):
            reports = fn(*args, **kwargs)
            sink.append((method, reports))
            return reports

        return run

    for method, fn in saved.items():
        table[method] = capture(method, fn)
    try:
        yield
    finally:
        table.update(saved)


class Runner:
    """Runs and checks whole rounds of one workload."""

    def __init__(self, cli, w, robots, config, run_dir):
        self.cli, self.w, self.robots, self.config, self.run_dir = cli, w, robots, config, run_dir
        self.transfer = sys.modules["evotree.transfer"]
        self.out = os.path.join(run_dir, "out")
        self.argv = command_argv(w, robots, config, self.out)
        self.source, self.targets, self.thetas = checks.alphas_from_files(robots)
        self.counts = None  # the first round's counts; every later round must repeat them
        self.policies = None  # the first round's (method, reports) pairs
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.clock = HostClock()
        self.walls: dict[str, list[float]] = {}  # unscaled round times, for the run summary

    def round(self, tracer=None, setups: list | None = None) -> tuple[float, float]:
        """Run the command once and check its outputs.

        Returns the round's wall time and its scaled time. setups, when
        given, receives the scaled times of SETUP_REPEATS set-ups run first,
        each scaled by the calibration sample taken just before it.
        """
        captured: list = []
        shutil.rmtree(self.out, ignore_errors=True)
        clock = self.clock
        clock.start_round(tracer)
        for _ in range(SETUP_REPEATS if setups is not None else 0):
            t0, t1 = clock.sample()
            setups.append(clock.scale(t1 - t0) * time_setup(self.cli, self.w, self.robots, self.config))
        traced = tracer.installed() if tracer else contextlib.nullcontext()
        with traced, capturing_reports(self.cli, captured), clock.sampling(self.transfer), \
                contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(self.argv)
            except Exception:
                traceback.print_exc()
                rc = None
            elapsed = time.perf_counter() - t0
        clock.sample()
        self.check(rc, captured)
        return elapsed, clock.scale() * (elapsed - clock.spent)

    def check(self, rc, captured) -> None:
        """Count the round's operations and check its outputs."""
        transfers = len(self.w.methods) * len(self.targets)
        self.attempted += 1 + transfers
        if rc not in (0, 3):
            self.failed += 1 + transfers
            self.errors.append(f"command exited with {rc}")
            return
        self.failed += rc != 0
        try:
            counts = checks.check_outputs(self.w, self.out, self.source, self.targets)
            self.failed += counts["failed"]
            if self.counts is None:
                self.counts, self.policies = counts, captured
            checks.require(counts == self.counts, f"round did other work: {counts} != {self.counts}")
        except (checks.CheckError, OSError, KeyError, ValueError) as exc:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    def rounds(self, seconds: float, tracers: list | None = None, setups: list | None = None):
        """Whole rounds until `seconds` have passed; returns (wall, scaled) lists.

        tracers, when given, makes every second round a traced one (rounds
        come in untraced, traced pairs) and receives their tracers; setups
        is passed on to each round.
        """
        wall, scaled = [], []
        start = time.perf_counter()
        step = 1 if tracers is None else 2
        while len(wall) < step or len(wall) % step or time.perf_counter() - start < seconds:
            tracer = None
            if tracers is not None and len(wall) % 2:
                tracer = tracing.Tracer()
                tracers.append(tracer)
            elapsed, elapsed_scaled = self.round(tracer, setups)
            wall.append(elapsed)
            scaled.append(elapsed_scaled)
            print(f"round {len(wall)}{' traced' if tracer else ''}: {elapsed:.3f} s,"
                  f" scaled {elapsed_scaled:.3f} s", file=sys.stderr)
        return wall, scaled

    def final_checks(self) -> None:
        """The first tree against the MST oracle; the toy policy re-simulation."""
        try:
            plan_out = os.path.join(self.run_dir, "plan")
            argv = ["plan", "--robots", *self.robots, "--norm", self.w.norm, "--out", plan_out]
            with contextlib.redirect_stdout(io.StringIO()):
                checks.require(self.cli.main(argv) == 0, "plan command failed")
            with open(os.path.join(plan_out, "plan.json"), "r", encoding="utf-8") as fh:
                checks.check_plan(json.load(fh), self.w.p, self.source, self.targets)
            if self.w.trainer == "toymdp" and self.policies is not None:
                name = "report_meta.json" if self.w.command == "compare" else "report.json"
                with open(os.path.join(self.out, name), "r", encoding="utf-8") as fh:
                    config = json.load(fh)["config"]
                checks.check_policies(self.policies, self.thetas, config)
        except (checks.CheckError, OSError, KeyError, ValueError) as exc:
            self.errors.append(f"{type(exc).__name__}: {exc}")


def end_to_end(runner, seconds) -> dict:
    setups: list[float] = []
    wall, scaled = runner.rounds(seconds, setups=setups)
    runner.walls = {"plain": wall}
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    episodes = runner.counts["meta_sim_episodes"] if runner.counts else 0
    return {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(scaled), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "sim_episodes": (episodes, "episodes"),
    }


def per_layer(runner, seconds) -> dict:
    tracers: list = []
    wall, scaled = runner.rounds(seconds, tracers)
    plain, traced = scaled[0::2], scaled[1::2]
    plain_wall = wall[0::2]
    runner.walls = {"plain": plain_wall, "traced": wall[1::2]}
    phases = runner.counts["phases"] if runner.counts else 0
    rows = [tracing.per_layer_metrics(tracing.layer_totals(t.spans), phases) for t in tracers]
    metrics = {name: (statistics.median_low(r[name][0] for r in rows), unit)
               for name, (_, unit) in rows[0].items()}
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    metrics["host.round_wall_s"] = (statistics.median(plain_wall), "s")
    metrics["host.calibration_s"] = (statistics.median(runner.clock.samples), "s")
    with open(os.path.join(OUT, f"trace-{runner.w.name}.jsonl"), "w", encoding="utf-8") as fh:
        for i, tracer in enumerate(tracers):
            for span in tracer.spans:
                fh.write(json.dumps({"round": i, **span}) + "\n")
    if metrics["transfer.engine_self_s"][0] < 0:
        runner.errors.append("transfer.engine_self_s is negative")
    if metrics["transfer.phases"][0] != metrics["transfer.phase_train.calls"][0]:
        runner.errors.append("reported phases differ from traced phase_train calls")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_evotree()
    w = WORKLOADS[args.workload]
    instance_seed = w.instance_seed if args.instance_seed is None else args.instance_seed
    os.makedirs(OUT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=OUT)
    try:
        robots, config = write_inputs(w, args.seed, instance_seed, run_dir)
        runner = Runner(cli, w, robots, config, run_dir)
        if args.trace:
            metrics = per_layer(runner, args.seconds)
        else:
            metrics = end_to_end(runner, args.seconds)
        runner.final_checks()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for message in runner.errors:
        print(f"check failed: {message}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:46s} {value:>14.6g} {unit}")
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    summary = {"workload": w.name, "seed": args.seed, "instance_seed": instance_seed,
               "trace": args.trace, "counts": runner.counts, "errors": runner.errors,
               "round_wall_s": runner.walls, "calibration_s": runner.clock.samples,
               "result": result}
    with open(os.path.join(OUT, f"last-{w.name}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
