import contextlib
import copy
import csv
import dataclasses
import gc
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evotree import cli, transfer
from evotree.cli import main
from evotree.errors import InvalidInputError, SimulationError
from evotree.trainers import CostModelTrainer
from evotree.transfer import TransferConfig

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
PLANAR = [
    os.path.join(FIXTURES, "planar", f)
    for f in ["source.json", "target_a.json", "target_b.json", "target_c.json"]
]
TOY = [
    os.path.join(FIXTURES, "toy", f)
    for f in ["source.json", "target_a.json", "target_b.json", "target_c.json"]
]


def run(*argv):
    return main(list(argv))


def limited_toy_transfer(tmp_path, setting, limit_mib, timeout):
    """A toy `transfer` with one config line, in a child process under its
    own address-space limit of limit_mib."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(setting + "\n")
    code = (
        "import resource, runpy, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit_mib} << 20, {limit_mib} << 20))\n"
        "sys.argv[0] = 'evotree'\n"
        "runpy.run_module('evotree', run_name='__main__')\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", code, "transfer", "--robots", *TOY[:2],
         "--trainer", "toymdp", "--config", str(cfg), "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


# a JSON value nested 100,000 deep, written in place of DEEP by dump_json
DEEP = "__nested_100000_deep__"


def dump_json(value, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(value).replace(f'"{DEEP}"', "[" * 100_000 + "]" * 100_000))


@dataclasses.dataclass(frozen=True)
class CrashNear(CostModelTrainer):
    """Cost trainer whose train_step raises within L1 distance 0.05 of point."""

    point: tuple = ()

    def train_step(self, policy, alpha, seed):
        if np.abs(np.asarray(alpha) - self.point).sum() < 0.05:
            raise SimulationError("simulated crash near the last target")
        return super().train_step(policy, alpha, seed)


@dataclasses.dataclass(frozen=True)
class CrashAbove(CostModelTrainer):
    """Cost trainer whose train_step raises where alpha[1] >= 0.5."""

    def train_step(self, policy, alpha, seed):
        if np.asarray(alpha)[1] >= 0.5:
            raise SimulationError("simulated crash above alpha[1] = 0.5")
        return super().train_step(policy, alpha, seed)


def live_run_objects():
    """The ids of every engine and phase record alive, found without a gc pass."""
    return {id(o) for o in gc.get_objects()
            if isinstance(o, (transfer._Engine, transfer.PhaseRecord))}


@dataclasses.dataclass(frozen=True)
class CrashOnSeed(CostModelTrainer):
    """Cost trainer whose train_step raises in runs seeded 98 or 99."""

    def train_step(self, policy, alpha, seed):
        if seed[0] in (98, 99):
            raise SimulationError(f"simulated crash on seed {seed[0]}")
        return super().train_step(policy, alpha, seed)


# how a method is made to fail: the config its own engine runs on
FAILURES = {
    "crash": lambda cfg: dataclasses.replace(cfg, seed=99),
    "crash98": lambda cfg: dataclasses.replace(cfg, seed=98),
    # raised by the first gradient probe, inside the method's walk
    "invalid": lambda cfg: dataclasses.replace(cfg, gradient_samples=1),
}


@pytest.fixture
def fast_config(tmp_path):
    cfg = tmp_path / "fast.cfg"
    cfg.write_text("transfer.xi = 0.01\n")
    return str(cfg)


class TestPlan:
    def test_plan_outputs(self, tmp_path):
        code = run("plan", "--robots", *PLANAR, "--norm", "l1", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "plan.json").read_text())
        assert payload["schema"] == 1
        assert payload["dimension"] == 2
        # tree beats the spanning tree, which beats independent paths
        assert payload["tree"]["length"] < payload["mst_length"]
        assert payload["mst_length"] < payload["independent_total"]
        assert payload["tree"]["length"] == pytest.approx(2.1, abs=1e-9)

    def test_plan_partition_topology(self, tmp_path):
        run("plan", "--robots", *PLANAR, "--norm", "l1", "--out", str(tmp_path))
        payload = json.loads((tmp_path / "plan.json").read_text())
        # trunk first: every target grouped together at the source
        assert payload["first_partition"] == [["planar-a", "planar-b", "planar-c"]]

    def test_plan_l2(self, tmp_path):
        code = run("plan", "--robots", *PLANAR, "--norm", "l2", "--out", str(tmp_path))
        assert code == 0
        payload = json.loads((tmp_path / "plan.json").read_text())
        assert payload["norm"] == "l2"
        assert payload["tree"]["length"] <= payload["mst_length"] + 1e-9
        assert payload["tree"]["length"] >= payload["mst_length"] / 2 - 1e-9

    def test_single_pair_plan(self, tmp_path):
        code = run(
            "plan", "--robots", PLANAR[0], PLANAR[1], "--out", str(tmp_path)
        )
        assert code == 0
        payload = json.loads((tmp_path / "plan.json").read_text())
        assert len(payload["tree"]["edges"]) == 1
        # two robots always normalize to opposite unit-box corners
        assert payload["tree"]["length"] == pytest.approx(2.0, abs=1e-9)

    def test_invalid_spec_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run("plan", "--robots", str(bad), PLANAR[1], "--out", str(tmp_path))
        assert code == 2

    def test_too_few_robots(self, tmp_path):
        code = run("plan", "--robots", PLANAR[0], "--out", str(tmp_path))
        assert code == 2

    def test_cyclic_parent_exit_code_names_the_file(self, tmp_path, capsys):
        spec = load_fixture("planar")[1]
        spec["bodies"] += [{"id": "hand", "parent": "finger"}, {"id": "finger", "parent": "hand"}]
        bad = tmp_path / "cyclic.json"
        dump_json(spec, bad)
        code = run("plan", "--robots", PLANAR[0], str(bad), "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 2 and "cyclic parent references" in err and f"file={bad}" in err

    @pytest.mark.parametrize("robots", [PLANAR, TOY], ids=["planar", "toy"])
    def test_load_problem_checks_each_spec_once(self, monkeypatch, robots):
        # a spec is checked when it is made; matching checks only what specs
        # must agree on
        checked, validate = [], cli.robot_model.validate_spec

        def counted(spec, file=None):
            checked.append(file)
            return validate(spec, file)

        monkeypatch.setattr(cli.robot_model, "validate_spec", counted)
        problem = cli.load_problem(robots)
        assert checked == robots and len(problem.specs) == len(robots)

    @pytest.mark.parametrize(
        "flag",
        [["--config", "missing.cfg"], ["--preset", "table-defaults"], ["--seed", "1"]],
    )
    def test_transfer_flags_are_refused(self, tmp_path, capsys, flag):
        # plan reads no config, preset or seed, so it takes none
        with pytest.raises(SystemExit) as exc:
            run("plan", "--robots", *PLANAR, *flag, "--out", str(tmp_path))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "plan.json").exists()


CONFIG_KEYS = sorted(
    [f"trainer.{k}" for k in cli._TRAINER_KEYS]
    + [f"transfer.{k}" for k in cli._TRANSFER_KEYS]
)
CONFIG_VALUES = [
    "nan", "inf", "-inf", "0", "-1", "-0.5", "1e400", "junk", "0x10",
    "0.5", "1", "2", "3",
]


class TestExitCodeContract:
    @settings(max_examples=100, deadline=None)
    @given(
        values=st.dictionaries(
            st.sampled_from(CONFIG_KEYS),
            st.sampled_from(CONFIG_VALUES),
            min_size=1,
            max_size=3,
        ),
        command=st.sampled_from(["transfer", "compare"]),
    )
    @example(values={"transfer.seed": "-1"}, command="transfer")
    @example(values={"transfer.xi": "5e-324"}, command="transfer")
    @example(values={"transfer.xi": "1e-300"}, command="transfer")
    def test_config_values_keep_exit_contract(self, values, command):
        # 0 = success, 2 = invalid input, 3 = budget exhausted; any other
        # outcome (an exception escaping main) fails the test
        with tempfile.TemporaryDirectory() as tmp:
            cfg = os.path.join(tmp, "run.cfg")
            with open(cfg, "w") as fh:
                fh.write("".join(f"{k} = {v}\n" for k, v in values.items()))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(
                    [command, "--robots", *PLANAR[:3], "--trainer", "cost",
                     "--config", cfg, "--out", tmp]
                )
        assert code in (0, 2, 3), (code, err.getvalue())
        if code != 0:
            assert err.getvalue().startswith("error: ")


    @pytest.mark.parametrize("case", ["config", "spec", "out"])
    def test_unreadable_or_unwritable_path(self, tmp_path, capsys, monkeypatch, case):
        # bytes that are not UTF-8 as a config file or robot spec, and an
        # --out that names a regular file, found before any phase runs
        phases = []
        phase_train = transfer.phase_train

        def counted(*args, **kwargs):
            phases.append(args)
            return phase_train(*args, **kwargs)

        monkeypatch.setattr(transfer, "phase_train", counted)
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff\xfe")
        robots = list(PLANAR[:3])
        extra = ["--out", str(tmp_path / "out")]
        if case == "config":
            extra += ["--config", str(bad)]
        elif case == "spec":
            robots[1] = str(bad)
        else:
            extra = ["--out", str(bad)]
        code = run("transfer", "--robots", *robots, "--trainer", "cost", *extra)
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("error: ") and str(bad) in err
        assert phases == []

    @pytest.mark.parametrize(
        "setting",
        [
            "transfer.eval_episodes = 3000000",
            "transfer.eval_episodes = 1000000000",
            "trainer.batch_size = 1000000000",
            "transfer.gradient_samples = 20000",
        ],
    )
    def test_oversized_simulator_job_exits_2(self, tmp_path, setting):
        # an evaluation or train job of 18.8 GiB and more, or a probe job of
        # 0.84 GiB: the toy kernel refuses it before allocating, so under a
        # 1.5 GiB address-space limit of its own the child process exits 2,
        # without a traceback
        res = limited_toy_transfer(tmp_path, setting, 1536, timeout=120)
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error: ") and "MiB" in res.stderr

    def test_huge_probe_is_refused_before_it_is_drawn(self, tmp_path):
        # 10^8 perturbations of 5 coordinates are 3.7 GiB of points: refused
        # before any is drawn, so the child exits 2 at once under 2 GiB
        res = limited_toy_transfer(
            tmp_path, "transfer.gradient_samples = 100000000", 2048, timeout=10
        )
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error: ") and "gradient_samples" in res.stderr

    @pytest.mark.parametrize("command", ["transfer", "compare"])
    def test_trainer_error_in_one_stream_exits_3(self, tmp_path, capsys, monkeypatch, command):
        # meta's subtrees and herd's streams train side by side; only the
        # stream toward the last target reaches the region that raises
        monkeypatch.setattr(
            cli, "make_trainer",
            lambda kind, problem, settings: CrashNear(point=tuple(problem.target_alphas[-1])),
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text("transfer.xi = 0.01\n")
        extra = ["--methods", "herd,meta"] if command == "compare" else []
        code = run(command, "--robots", *PLANAR, "--config", str(cfg),
                   "--out", str(tmp_path), *extra)
        err = capsys.readouterr().err
        assert code == 3, err
        assert err.startswith("error: transfer failed: simulated crash")

    @pytest.mark.parametrize("command", ["transfer", "compare"])
    def test_tripped_phase_guard_writes_every_report_and_exits_3(
        self, tmp_path, monkeypatch, command
    ):
        init = transfer._Engine.__init__

        def capped(engine, *args):
            init(engine, *args)
            engine.max_phases = 3

        monkeypatch.setattr(transfer._Engine, "__init__", capped)
        extra = ["--methods", "meta,herd"] if command == "compare" else []
        code = run(command, "--robots", *PLANAR, "--trainer", "cost",
                   "--out", str(tmp_path), *extra)
        assert code == 3
        if command == "transfer":
            names, table = ["report.json"], "phases.csv"
        else:
            names, table = ["report_meta.json", "report_herd.json"], "compare.csv"
        for name in names:
            report = json.loads((tmp_path / name).read_text())
            assert report["outcome"] == "budget-exhausted"
            assert len(report["phases"]) == 3
            assert [p["outcome"] for p in report["paths"]] == ["budget-exhausted"] * 3
        with open(tmp_path / table, newline="") as fh:
            rows = list(csv.reader(fh))
        if command == "transfer":
            assert len({row[2] for row in rows[1:]}) == 3  # phase ids
        else:
            assert [(row[0], row[-1]) for row in rows[1:]] == [
                ("meta", "budget-exhausted"), ("herd", "budget-exhausted")
            ]


def load_fixture(kind):
    out = []
    for path in PLANAR if kind == "planar" else TOY:
        with open(path) as fh:
            out.append(json.load(fh))
    return out


SPEC_MUTATIONS = [
    "nan", "inf", "negative", "junk", "null", "unit", "drop_param",
    "extra_param", "bad_parent", "self_parent", "second_root", "add_joint",
    "bad_joint_kind", "inverted_joint", "malformed_joint", "duplicate_body",
    "bad_correspondence", "unknown_correspondence", "same_as_source",
    "huge_int", "deep", "bodies_not_list", "joints_not_list",
]


def mutate(specs, kind, robot, pick):
    """Apply one named mutation to robot `robot` of a spec list, in place."""
    spec = specs[robot]
    key = sorted(spec["params"])[pick % len(spec["params"])] if spec["params"] else None
    # after bodies_not_list, body mutations go to a body of no spec
    bodies = spec["bodies"] if isinstance(spec["bodies"], list) else [{"id": None}]
    body = bodies[pick % len(bodies)]
    values = {"nan": float("nan"), "inf": float("inf"), "negative": -1.0,
              "junk": "junk", "null": None, "huge_int": 10**400, "deep": DEEP}
    not_lists = (None, 7, True)
    joints = {
        "add_joint": {"name": "j", "kind": "revolute", "range": [-1.0, 1.0]},
        "bad_joint_kind": {"name": "j", "kind": "warp", "range": [0.0, 1.0]},
        "inverted_joint": {"name": "j", "kind": "revolute", "range": [1.0, -1.0]},
        "malformed_joint": {"kind": "revolute"},
    }
    if kind in values and key:
        spec["params"][key]["value"] = values[kind]
    elif kind == "unit" and key:
        spec["params"][key]["unit"] = "furlong"
    elif kind == "drop_param" and key:
        del spec["params"][key]
    elif kind == "extra_param":
        spec["params"]["body.extra.size"] = {"value": 0.5, "unit": "m"}
    elif kind == "bad_parent":
        body["parent"] = "nowhere"
    elif kind == "self_parent":
        body["parent"] = body["id"]
    elif kind == "second_root":
        body["parent"] = None
    elif kind in joints and isinstance(body.setdefault("joints", []), list):
        body["joints"].append(dict(joints[kind]))
    elif kind == "duplicate_body":
        bodies.append(json.loads(json.dumps(body)))
    elif kind == "bodies_not_list":
        spec["bodies"] = not_lists[pick % 3]
    elif kind == "joints_not_list":
        body["joints"] = not_lists[pick % 3]
    elif kind == "bad_correspondence":
        spec["correspondence"] = {body["id"]: 7}
    elif kind == "unknown_correspondence":
        spec["correspondence"] = {"nowhere": "x"}
    elif kind == "same_as_source":
        specs[max(robot, 1)] = dict(json.loads(json.dumps(specs[0])), name="twin")


class TestSpecExitCodeContract:
    @settings(max_examples=60, deadline=None)
    @given(
        fixture=st.sampled_from(["planar", "toy"]),
        mutations=st.lists(
            st.tuples(
                st.sampled_from(SPEC_MUTATIONS), st.integers(0, 3), st.integers(0, 7)
            ),
            min_size=1,
            max_size=2,
        ),
        norm=st.sampled_from(["l1", "l2"]),
        command=st.sampled_from(["plan", "transfer"]),
    )
    @example(fixture="toy", mutations=[("drop_param", 2, 0)], norm="l2", command="transfer")
    @example(fixture="planar", mutations=[("same_as_source", 1, 0)], norm="l2", command="transfer")
    @example(fixture="planar", mutations=[("huge_int", 0, 0)], norm="l1", command="plan")
    @example(fixture="planar", mutations=[("deep", 2, 0)], norm="l1", command="plan")
    @example(fixture="planar", mutations=[("bodies_not_list", 1, 0)], norm="l2", command="plan")
    @example(fixture="planar", mutations=[("joints_not_list", 2, 1)], norm="l1",
             command="transfer")
    def test_mutated_specs_keep_exit_contract(self, fixture, mutations, norm, command):
        # the toy set runs the toymdp trainer (which needs its five
        # parameters), on a coarse, short schedule; exit 3 is allowed
        specs = load_fixture(fixture)
        for kind, robot, pick in mutations:
            mutate(specs, kind, robot, pick)
        with tempfile.TemporaryDirectory() as tmp:
            robots = []
            for i, spec in enumerate(specs):
                robots.append(os.path.join(tmp, f"robot{i}.json"))
                dump_json(spec, robots[-1])
            cfg = os.path.join(tmp, "run.cfg")
            with open(cfg, "w") as fh:
                fh.write("transfer.xi = 0.25\ntransfer.max_phase_iterations = 3\n")
            argv = [command, "--robots", *robots, "--norm", norm, "--out", tmp]
            if command == "transfer":
                trainer = "toymdp" if fixture == "toy" else "cost"
                argv += ["--trainer", trainer, "--config", cfg]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 2, 3), (code, err.getvalue())
        if code == 2:
            assert err.getvalue().startswith("error: ")
        if len(mutations) == 1 and mutations[0][0] in (
            "huge_int", "deep", "bodies_not_list", "joints_not_list"
        ):
            assert code == 2 and robots[mutations[0][1]] in err.getvalue()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("body.torso.mass", -1.0),
            ("body.torso.mass", 0.0),
            ("motor.x.gain", -0.5),
            ("motor.y.gain", 0.0),
            ("body.damping", -0.1),
            ("motor.limit", 0.0),
        ],
    )
    def test_invalid_toy_dynamics_exit_2(self, tmp_path, key, value):
        # a valid spec whose dynamics the toy trainer cannot simulate is
        # invalid input, refused before any training
        specs = load_fixture("toy")
        specs[1]["params"][key]["value"] = value
        robots = []
        for i, spec in enumerate(specs):
            robots.append(str(tmp_path / f"robot{i}.json"))
            dump_json(spec, robots[-1])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("transfer.xi = 0.25\ntransfer.max_phase_iterations = 3\n")
        argv = ["transfer", "--robots", *robots, "--trainer", "toymdp",
                "--config", str(cfg), "--out", str(tmp_path)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 2 and key in err.getvalue(), (code, err.getvalue())


    @pytest.mark.parametrize(
        "field,value,key",
        [("range", "12", "j"), ("param", True, "arm.span"), ("param", {"value": "2.5"}, "arm.span")],
        ids=["range-string", "param-bool", "value-string"],
    )
    def test_non_number_exits_2(self, tmp_path, field, value, key):
        specs = load_fixture("planar")
        if field == "range":
            specs[1]["bodies"][1]["joints"] = [{"name": "j", "kind": "revolute", "range": value}]
        else:
            specs[1]["params"][key] = value
        robots = []
        for i, spec in enumerate(specs):
            robots.append(str(tmp_path / f"robot{i}.json"))
            dump_json(spec, robots[-1])
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["plan", "--robots", *robots, "--out", str(tmp_path)])
        assert code == 2, (code, err.getvalue())
        assert robots[1] in err.getvalue() and f"key={key})" in err.getvalue()

    @pytest.mark.parametrize(
        "command,field,key",
        [("plan", "param", "arm.span"), ("compare", "param", "arm.span"),
         ("compare", "range", "joint.arm.j.range_width")],
        ids=["plan-param", "compare-param", "compare-range"],
    )
    def test_overflowing_span_names_its_key(self, tmp_path, command, field, key):
        # finite values whose range across the robots, or a joint range's
        # own width, overflows a float: refused up front, by key
        specs = load_fixture("planar")
        if field == "range":
            specs[0]["bodies"][1]["joints"] = [
                {"name": "j", "kind": "revolute", "range": [-1e308, 1e308]}]
        else:
            specs[0]["params"][key]["value"] = -1e308
            specs[1]["params"][key]["value"] = 1e308
        robots = []
        for i, spec in enumerate(specs):
            robots.append(str(tmp_path / f"robot{i}.json"))
            dump_json(spec, robots[-1])
        argv = [command, "--robots", *robots, "--out", str(tmp_path)]
        if command == "compare":
            argv += ["--trainer", "cost"]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 2, (code, err.getvalue())
        assert f"key={key})" in err.getvalue() and "no finite width" in err.getvalue()


class TestTransfer:
    def test_cost_transfer_totals(self, tmp_path, fast_config):
        code = run(
            "transfer",
            "--robots",
            *PLANAR,
            "--trainer",
            "cost",
            "--config",
            fast_config,
            "--seed",
            "3",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["schema"] == 1
        # tree length 2.1 at xi=0.01 with fixed 10-episode phases
        assert payload["totals"]["train_iterations"] == 210
        assert payload["totals"]["sim_episodes"] == 2100
        csv_lines = (tmp_path / "phases.csv").read_text().strip().splitlines()
        n_rows = len(csv_lines) - 1
        assert n_rows == sum(len(p["phase_ids"]) for p in payload["paths"])

    def test_deterministic_reports(self, tmp_path, fast_config):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            code = run(
                "transfer",
                "--robots",
                *PLANAR,
                "--trainer",
                "cost",
                "--config",
                fast_config,
                "--seed",
                "11",
                "--out",
                str(out),
            )
            assert code == 0
        assert (out_a / "report.json").read_bytes() == (
            out_b / "report.json"
        ).read_bytes()
        assert (out_a / "phases.csv").read_bytes() == (
            out_b / "phases.csv"
        ).read_bytes()

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("transfer.bogus = 1\n")
        code = run(
            "transfer",
            "--robots",
            *PLANAR,
            "--config",
            str(cfg),
            "--out",
            str(tmp_path),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "line",
        [
            "transfer.xi = nan",
            "transfer.xi = inf",
            "transfer.lambda = nan",
            "transfer.lambda = inf",
            "transfer.eval_episodes = -3",
        ],
    )
    def test_non_finite_or_out_of_range_config(self, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        code = run(
            "transfer",
            "--robots",
            *PLANAR,
            "--config",
            str(cfg),
            "--out",
            str(tmp_path),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "trainer, line",
        [
            ("cost", "trainer.cost_episodes = -3"),
            ("cost", "trainer.cost_episodes = 0"),
            ("toymdp", "trainer.batch_size = 0"),
            ("toymdp", "trainer.learning_rate = nan"),
            ("toymdp", "trainer.learning_rate = inf"),
            ("toymdp", "trainer.learning_rate = -0.1"),
            ("toymdp", "trainer.learning_rate = 0"),
            ("cost", "trainer.expert_kp = nan"),
            ("cost", "trainer.expert_kd = inf"),
            ("toymdp", "trainer.expert_std = -1"),
            ("toymdp", "trainer.expert_std = 0"),
            ("cost", "trainer.expert_std = nan"),
            # settings the chosen trainer does not read are checked too
            ("cost", "trainer.learning_rate = nan"),
            ("cost", "trainer.batch_size = 0"),
            ("toymdp", "trainer.cost_episodes = 0"),
        ],
    )
    def test_bad_trainer_setting(self, tmp_path, capsys, trainer, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        robots = PLANAR if trainer == "cost" else TOY
        code = run(
            "transfer",
            "--robots",
            *robots,
            "--trainer",
            trainer,
            "--config",
            str(cfg),
            "--out",
            str(tmp_path),
        )
        assert code == 2
        assert not (tmp_path / "report.json").exists()
        # the message names the config key as written
        assert line.split(" = ")[0] in capsys.readouterr().err

    def test_preset_applies(self, tmp_path):
        code = run(
            "transfer",
            "--robots",
            *PLANAR,
            "--preset",
            "expdesign-defaults",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["config"]["xi"] == 0.06
        assert payload["config"]["lambda"] == 1.0

    def test_config_file_norm_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "l2.cfg"
        cfg.write_text("transfer.p_norm = 2\ntransfer.xi = 0.05\n")
        run(
            "transfer",
            "--robots",
            *PLANAR,
            "--config",
            str(cfg),
            "--out",
            str(tmp_path / "a"),
        )
        payload = json.loads((tmp_path / "a" / "report.json").read_text())
        assert payload["norm"] == "l2"  # file value wins when no flag given
        run(
            "transfer",
            "--robots",
            *PLANAR,
            "--config",
            str(cfg),
            "--norm",
            "l1",
            "--out",
            str(tmp_path / "b"),
        )
        payload = json.loads((tmp_path / "b" / "report.json").read_text())
        assert payload["norm"] == "l1"  # explicit flag overrides the file

    def test_every_config_field_reaches_the_report(self, tmp_path):
        values = {
            "xi": 0.05, "lambda": 2.0, "p_norm": 2, "penalty_norm": 1,
            "success_threshold": 0.6, "final_success_threshold": 0.7,
            "shrink_ratio": 0.9, "gradient_samples": 3,
            "max_phase_iterations": 50, "eval_episodes": 20, "seed": 3,
        }
        defaults = dataclasses.asdict(TransferConfig())
        defaults["lambda"] = defaults.pop("lambda_")
        # a new TransferConfig field needs a value here
        assert set(values) == set(defaults)
        assert all(values[k] != defaults[k] for k in values)
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"transfer.{k} = {v}\n" for k, v in values.items()))
        code = run(
            "transfer", "--robots", *PLANAR, "--trainer", "cost",
            "--config", str(cfg), "--out", str(tmp_path),
        )
        assert code == 0
        assert json.loads((tmp_path / "report.json").read_text())["config"] == values

    def test_config_file_blank_lines_and_comments(self, tmp_path):
        cfg = tmp_path / "commented.cfg"
        cfg.write_text(
            "# a comment line\n"
            "\n"
            "   \n"
            "transfer.xi = 0.05  # trailing comment\n"
            "   # an indented comment line\n"
            "trainer.sim_episodes_per_step = 7#no space\n"
        )
        assert cli.parse_config_file(str(cfg)) == {
            "transfer.xi": "0.05",
            "trainer.sim_episodes_per_step": "7",
        }

    def test_unknown_config_section(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wibble = 1\n")
        code = run(
            "transfer",
            "--robots",
            *PLANAR,
            "--config",
            str(cfg),
            "--out",
            str(tmp_path),
        )
        assert code == 2


class TestCompare:
    def test_cost_compare_speedups(self, tmp_path, fast_config):
        code = run(
            "compare",
            "--robots",
            *PLANAR,
            "--trainer",
            "cost",
            "--methods",
            "meta,herd,geom-median",
            "--config",
            fast_config,
            "--out",
            str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "compare.csv").read_text().strip().splitlines()
        rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        speed_meta = float(rows["meta"][4])
        speed_median = float(rows["geom-median"][4])
        assert speed_meta == pytest.approx(2.5, abs=0.05)
        assert float(rows["herd"][4]) == pytest.approx(1.0)
        assert speed_median <= speed_meta + 1e-9

    @pytest.mark.parametrize(
        "methods,fails",
        [
            ("meta,herd,geom-median", {"meta": "crash"}),
            ("meta,herd,geom-median", {"herd": "crash"}),
            ("herd,meta,geom-median", {"geom-median": "invalid"}),
            # geom-median raises first, at its first probe; herd, listed
            # before it, raises later and is the run's error
            ("meta,herd,geom-median", {"herd": "crash", "geom-median": "invalid"}),
            ("geom-median,meta", {"geom-median": "invalid", "meta": "crash"}),
            ("herd,meta", {"herd": "crash98", "meta": "crash"}),
        ],
    )
    def test_failing_method_keeps_the_reports_listed_before_it(
        self, tmp_path, capsys, monkeypatch, fast_config, methods, fails
    ):
        monkeypatch.setattr(cli, "make_trainer", lambda kind, problem, settings: CrashOnSeed())
        argv = ["compare", "--robots", *PLANAR, "--config", fast_config, "--methods", methods]
        assert run(*argv, "--out", str(tmp_path / "ok")) == 0
        capsys.readouterr()
        for method, failure in fails.items():
            fn = cli._METHOD_FN[method]
            monkeypatch.setitem(
                cli._METHOD_FN, method,
                lambda *a, _fn=fn, _cfg=FAILURES[failure], **kw: _fn(*a[:4], _cfg(a[4]), **kw),
            )
        out = tmp_path / "failed"
        code = run(*argv, "--out", str(out))
        err = capsys.readouterr().err
        # the same methods called one at a time, as compare ran them before
        # they shared one loop: reports written until the first that raises
        problem = cli.load_problem(PLANAR)
        args = (problem.source_alpha, problem.target_alphas, object(), CrashOnSeed())
        cfg = TransferConfig(xi=0.01)
        written = []
        for method in methods.split(","):
            try:
                cli._METHOD_FN[method](*args, cfg)
            except InvalidInputError as exc:
                expected = 2, f"error: {exc}\n"
                break
            except SimulationError as exc:
                expected = 3, f"error: transfer failed: {exc}\n"
                break
            written.append(f"report_{method}.json")
        assert (code, err) == expected
        assert sorted(os.listdir(out) if out.exists() else []) == sorted(written)
        for name in written:
            assert (out / name).read_bytes() == (tmp_path / "ok" / name).read_bytes()

    def test_compare_hands_each_method_call_its_reports(self, tmp_path, monkeypatch):
        # perfbench keeps the list each _METHOD_FN call returns and
        # re-simulates its final policies once main returns
        captured, alone = {}, dict(cli._METHOD_FN)
        for method, fn in alone.items():
            def capture(*args, _fn=fn, _method=method, **kwargs):
                reports = _fn(*args, **kwargs)
                captured[_method] = args, reports
                return reports

            monkeypatch.setitem(cli._METHOD_FN, method, capture)
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(
            "transfer.xi = 0.12\n"
            "transfer.max_phase_iterations = 150\n"
            "transfer.final_success_threshold = 0.8\n"
        )
        code = run("compare", "--robots", *TOY, "--trainer", "toymdp", "--config", str(cfg),
                   "--methods", "meta,herd,geom-median", "--seed", "1", "--out", str(tmp_path))
        assert code == 0
        assert sorted(captured) == ["geom-median", "herd", "meta"]
        for method, (args, reports) in captured.items():
            assert [r.target_index for r in reports] == [0, 1, 2]
            assert all(r.policy is not None for r in reports)
            expected = alone[method](*args)
            assert reports == expected
            for a, b in zip(reports, expected):
                assert np.array_equal(a.policy.weights, b.policy.weights)
                assert np.array_equal(a.policy.log_std, b.policy.log_std)

    def test_no_engine_or_phase_outlives_the_run(self, tmp_path, fast_config):
        # the shared loop leaves no reference cycle: without a gc pass,
        # every engine and phase record dies when compare returns
        gc.collect()
        gc.disable()
        try:
            before = live_run_objects()
            code = run("compare", "--robots", *PLANAR, "--config", fast_config,
                       "--methods", "meta,herd,geom-median", "--out", str(tmp_path))
            assert code == 0
            assert live_run_objects() <= before
        finally:
            gc.enable()

    @pytest.mark.parametrize("call", ["compare", "meta_evolve"])
    def test_no_engine_or_phase_outlives_a_failed_run(
        self, tmp_path, monkeypatch, fast_config, call
    ):
        # nor does the error of a failed run: the frames on its traceback
        # would hold it and the run's engines in a cycle
        monkeypatch.setattr(cli, "make_trainer", lambda kind, problem, settings: CrashAbove())
        problem = cli.load_problem(PLANAR)
        gc.collect()
        gc.disable()
        try:
            before = live_run_objects()
            if call == "compare":
                code = run("compare", "--robots", *PLANAR, "--config", fast_config,
                           "--methods", "meta,herd", "--out", str(tmp_path))
                assert code == 3
            else:
                try:
                    transfer.meta_evolve(problem.source_alpha, problem.target_alphas,
                                         object(), CrashAbove(), TransferConfig(xi=0.01))
                except SimulationError:
                    pass
                else:
                    pytest.fail("meta_evolve did not raise")
            assert live_run_objects() <= before
        finally:
            gc.enable()

    def test_needs_two_methods(self, tmp_path):
        code = run(
            "compare",
            "--robots",
            *PLANAR,
            "--methods",
            "meta",
            "--out",
            str(tmp_path),
        )
        assert code == 2

    def test_repeated_method_exits_2(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_transfer_setup", lambda args: calls.append(args))
        code = run(
            "compare", "--robots", *PLANAR, "--methods", "meta,herd,meta",
            "--out", str(tmp_path),
        )
        assert code == 2
        assert "'meta' is listed more than once" in capsys.readouterr().err
        assert calls == [] and not (tmp_path / "compare.csv").exists()


def json_paths(value, path=()):
    """Every position in a JSON value, as key and index paths."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from json_paths(item, path + (key,))


def mutate_json(payload, pick, action):
    """payload with the value at the pick-th position dropped ("drop"),
    emptied ("empty": [] or {}) or replaced by action; the root is replaced."""
    paths = list(json_paths(payload))
    path = paths[pick % len(paths)]
    if not path:
        return copy.deepcopy(action) if action not in ("drop", "empty") else []
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    if action == "drop":
        del parent[path[-1]]
    elif action == "empty":
        parent[path[-1]] = {} if isinstance(parent[path[-1]], dict) else []
    else:
        parent[path[-1]] = copy.deepcopy(action)
    return payload


class TestReport:
    def test_report_from_plan(self, tmp_path):
        run("plan", "--robots", PLANAR[0], PLANAR[1], "--out", str(tmp_path))
        code = run(
            "report", "--report", str(tmp_path / "plan.json"), "--out", str(tmp_path)
        )
        assert code == 0
        lines = (tmp_path / "paths.csv").read_text().strip().splitlines()
        # single-edge plan: exactly the two endpoint vertices
        assert len(lines) - 1 == 2
        assert all(ln.startswith("vertex") for ln in lines[1:])
        totals = (tmp_path / "totals.csv").read_text().strip().splitlines()
        quantities = {ln.split(",")[0] for ln in totals[1:]}
        assert {"tree_length", "mst_length", "independent_total"} <= quantities

    def test_report_row_arithmetic(self, tmp_path, fast_config):
        run(
            "transfer",
            "--robots",
            *PLANAR,
            "--trainer",
            "cost",
            "--config",
            fast_config,
            "--out",
            str(tmp_path),
        )
        code = run(
            "report",
            "--report",
            str(tmp_path / "report.json"),
            "--out",
            str(tmp_path),
        )
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        lines = (tmp_path / "paths.csv").read_text().strip().splitlines()
        phase_rows = [ln for ln in lines[1:] if ln.startswith("phase")]
        vertex_rows = [ln for ln in lines[1:] if ln.startswith("vertex")]
        assert len(phase_rows) == len(payload["phases"])
        assert len(lines) - 1 == len(phase_rows) + len(vertex_rows)
        # trunk rows carry multiplicity > 1 exactly once each
        multiplicities = [int(ln.split(",")[3]) for ln in phase_rows]
        assert max(multiplicities) == 3  # all three paths share the trunk

    @pytest.fixture(scope="class")
    def real_outputs(self, tmp_path_factory):
        """A plan.json and a report.json of the planar fixtures."""
        out = tmp_path_factory.mktemp("real")
        cfg = out / "coarse.cfg"
        cfg.write_text("transfer.xi = 0.1\n")
        assert run("plan", "--robots", *PLANAR, "--out", str(out)) == 0
        assert run(
            "transfer", "--robots", *PLANAR, "--trainer", "cost",
            "--config", str(cfg), "--out", str(out),
        ) == 0
        return {
            name: json.loads((out / name).read_text())
            for name in ("plan.json", "report.json")
        }

    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(["plan.json", "report.json"]),
        mutations=st.lists(
            st.tuples(
                st.integers(0, 10**6),
                st.sampled_from(["drop", "empty", None, "x", 1.5, -1, True, [], {},
                                 10**400, DEEP]),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @example(name="plan.json", mutations=[(0, [1])])
    @example(name="report.json", mutations=[(0, {"schema": 1, "phases": []})])
    @example(name="report.json", mutations=[(0, DEEP)])
    @example(name="plan.json", mutations=[(3, DEEP)])
    @example(name="report.json", mutations=[(7, 10**400)])
    def test_mutated_inputs_keep_exit_contract(self, real_outputs, name, mutations):
        payload = json.loads(json.dumps(real_outputs[name]))
        for pick, action in mutations:
            payload = mutate_json(payload, pick, action)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "input.json")
            dump_json(payload, path)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(["report", "--report", path, "--out", tmp])
        assert code in (0, 2), (code, err.getvalue())
        if code == 2:
            assert err.getvalue().startswith("error: ")

    def test_paths_rows_of_a_shared_trunk(self, tmp_path):
        # trunk phases 0-1, then segments (0,) and (1,) from one point;
        # phases are listed out of id and segment order
        def phase(pid, segment, index, start, end):
            return {"phase_id": pid, "segment": segment, "phase_index": index,
                    "alpha_from": start, "alpha_to": end}

        def path(index, name, ids):
            return {"target_index": index, "target_name": name, "phase_ids": ids,
                    "train_iterations": 2 * len(ids), "sim_episodes": 20 * len(ids),
                    "outcome": "success"}

        report = {
            "schema": 1,
            "phases": [
                phase(4, [1], 1, [1.0, 0.0, 0.5], [1.0, 0.0, 1.0]),
                phase(2, [0], 0, [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]),
                phase(3, [1], 0, [1.0, 0.0, 0.0], [1.0, 0.0, 0.5]),
                phase(1, [], 1, [0.5, 0.0, 0.0], [1.0, 0.0, 0.0]),
                phase(0, [], 0, [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]),
            ],
            "paths": [path(0, "a", [0, 1, 2]), path(1, "b", [0, 1, 3, 4])],
            "totals": {"train_iterations": 10, "sim_episodes": 100},
            "outcome": "success",
        }
        (tmp_path / "report.json").write_text(json.dumps(report))
        code = run("report", "--report", str(tmp_path / "report.json"),
                   "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "paths.csv").read_text().splitlines() == [
            "row_kind,path_ids,phase_id,multiplicity,alpha_0,alpha_2",
            "vertex,,,1,0.0,0.0",
            "vertex,,,1,1.0,0.0",
            "phase,0|1,0,2,0.5,0.0",
            "phase,0|1,1,2,1.0,0.0",
            "phase,0,2,1,1.0,0.0",
            "phase,1,3,1,1.0,0.5",
            "phase,1,4,1,1.0,1.0",
        ]

    def test_report_without_phases(self, tmp_path):
        # a target equal to the source is reached with no phase at all
        spec = json.loads(pathlib.Path(PLANAR[0]).read_text())
        spec["name"] += "-copy"
        (tmp_path / "copy.json").write_text(json.dumps(spec))
        assert run("transfer", "--robots", PLANAR[0], str(tmp_path / "copy.json"),
                   "--out", str(tmp_path)) == 0
        code = run("report", "--report", str(tmp_path / "report.json"),
                   "--out", str(tmp_path))
        assert code == 0
        assert len((tmp_path / "paths.csv").read_text().splitlines()) == 1
        assert (tmp_path / "totals.csv").read_text().splitlines() == [
            "path_id,target_name,train_iterations,sim_episodes,outcome",
            f"0,{spec['name']},0,0,success",
            "TOTAL,,0,0,success",
        ]

    def test_report_of_a_one_dimensional_run(self, tmp_path):
        # robots that differ in one parameter: both columns show axis 0
        robots = []
        for path in PLANAR[:3]:
            spec = json.loads(pathlib.Path(path).read_text())
            del spec["params"]["arm.span"]
            robots.append(tmp_path / os.path.basename(path))
            robots[-1].write_text(json.dumps(spec))
        cfg = tmp_path / "coarse.cfg"
        cfg.write_text("transfer.xi = 0.25\n")
        assert run("plan", "--robots", *map(str, robots), "--out", str(tmp_path / "plan")) == 0
        assert run("transfer", "--robots", *map(str, robots), "--config", str(cfg),
                   "--out", str(tmp_path / "run")) == 0
        for out, name in (("plan", "plan.json"), ("run", "report.json")):
            assert run("report", "--report", str(tmp_path / out / name),
                       "--out", str(tmp_path / out)) == 0
        assert (tmp_path / "plan" / "paths.csv").read_text().splitlines() == [
            "row_kind,path_ids,phase_id,multiplicity,alpha_0,alpha_0",
            "vertex,,,1,0.0,0.0",
            "vertex,,,1,0.8,0.8",
            "vertex,,,1,1.0,1.0",
        ]
        # target 0 lies on target 1's way, so one trunk reaches both
        assert (tmp_path / "run" / "paths.csv").read_text().splitlines() == [
            "row_kind,path_ids,phase_id,multiplicity,alpha_0,alpha_0",
            "vertex,,,1,0.0,0.0",
            "phase,0|1,0,2,0.25,0.25",
            "phase,0|1,1,2,0.5,0.5",
            "phase,0|1,2,2,0.75,0.75",
            "phase,0|1,3,2,0.8,0.8",
            "phase,1,4,1,1.0,1.0",
        ]

    def test_robot_name_needing_quotes_round_trips(self, tmp_path, fast_config):
        spec = json.loads(pathlib.Path(PLANAR[1]).read_text())
        spec["name"] = 'arm, "long"'
        (tmp_path / "target.json").write_text(json.dumps(spec))
        assert run("transfer", "--robots", PLANAR[0], str(tmp_path / "target.json"),
                   "--config", fast_config, "--out", str(tmp_path)) == 0
        assert run("report", "--report", str(tmp_path / "report.json"),
                   "--out", str(tmp_path)) == 0
        with open(tmp_path / "totals.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [5, 5, 5]
        assert rows[1][:2] == ["0", 'arm, "long"']

    def test_malformed_report(self, tmp_path):
        bad = tmp_path / "nope.json"
        bad.write_text("{}")
        code = run("report", "--report", str(bad), "--out", str(tmp_path))
        assert code == 2



SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2e-308, 1e-310]
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**80), max_value=10**80)
    | st.floats(allow_subnormal=True)
    | st.sampled_from(SPECIAL_FLOATS)
    | st.floats().map(np.float64)
    | st.text()
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.lists(st.floats(allow_subnormal=True) | st.sampled_from(SPECIAL_FLOATS))
    | st.dictionaries(st.text(), inner),
    max_leaves=40,
)
MANY_FLOATS = [i / 7 for i in range(2500)]  # distinct, more than the memo keeps


class TestWriteJson:
    """The report writer's text of any value json encodes, keys all str, is
    json.dumps(value, indent=2, sort_keys=True) and a newline; anything else
    raises TypeError. The writer streams what it writes."""

    @settings(max_examples=400, deadline=None)
    @given(JSON_VALUES)
    @example([0.0, -0.0, 1.5, -0.0, 0.0])
    @example({"a": [-0.0, 0.0], "b": {"c": 0.0, "d": -0.0}, "e": (0.0,), "f": [-0.0]})
    @example([math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, np.float64(math.nan)])
    @example([*MANY_FLOATS, 0.0, -0.0, *MANY_FLOATS[::-1], {"x": MANY_FLOATS[:3]}])
    @example([np.float64(0.1), 0.1, 1, 1.0, True, False, None, 10**70, -(10**70)])
    @example({"": [], "a": {}, "b": [[], {}, ()], "c": [{"d": [{}]}], "e": ()})
    @example({"k\u00e9y\n\x00": "v\u2603\x1f\"\\", "\U0001f600": ["\t", "\u00ff"]})
    @example([])
    @example({})
    @example(-0.0)
    @example("\u0000")
    def test_text_is_json_dumps_text(self, value):
        text = "".join(cli._json_chunks(value))
        assert text == json.dumps(value, indent=2, sort_keys=True) + "\n"

    def test_report_file_is_json_dumps_text(self, tmp_path):
        payload = {
            "phases": [{"alpha": (i / 3, 0.0, -0.0), "n": i, "ok": i % 2 == 0} for i in range(3000)],
            "source": {"alpha": MANY_FLOATS, "name": "a \"b\""},
            "totals": {},
        }
        path = tmp_path / "report.json"
        cli.write_json(str(path), payload)
        assert path.read_bytes() == (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()

    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize(
        "bad",
        [{1, 2}, np.int64(3), {1: "int key"}, {"a": {2.5: 0}}, np.bool_(True), np.zeros(3), object()],
    )
    def test_unencodable_value_leaves_no_file(self, tmp_path, bad, depth):
        out = tmp_path / "out"
        # after enough phases that some of the text has reached the file,
        # the bad value is the payload, one of its values, or a list item
        phases = [{"alpha": [i / 3] * 8} for i in range(2000)]
        payload = [bad, {"a": 1, "phases": phases, "z": bad}, {"a": 1, "phases": [*phases, bad]}][depth]
        with pytest.raises(TypeError):
            cli.write_json(str(out / "report.json"), payload)
        assert os.listdir(out) == []

    def test_writing_streams_the_text(self, tmp_path):
        """A report of 50,000 D=8 phases (over 10 MiB of text) is written with
        under 1 MiB allocated above its payload at any time. Its coordinates
        come from 20,000 floats, whose texts would take more than 1 MiB if
        the float memo kept them all."""
        rng = np.random.default_rng(0)
        pool = np.array(rng.random(20_000).tolist(), dtype=object)
        payload = {
            "phases": [
                {
                    "alpha_from": tuple(pool[row[:8]]),
                    "alpha_to": tuple(pool[row[8:]]),
                    "phase_id": i,
                    "sim_episodes": 10,
                }
                for i, row in enumerate(rng.integers(0, len(pool), (50_000, 16)))
            ],
            "totals": {"sim_episodes": 500_000},
        }
        path = tmp_path / "report.json"
        tracemalloc.start()
        try:
            cli.write_json(str(path), payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 10 << 20
        assert peak < 1 << 20, peak

class TestToyTransferSmoke:
    def test_toymdp_small_run(self, tmp_path):
        cfg = tmp_path / "toy.cfg"
        cfg.write_text(
            "transfer.xi = 0.12\n"
            "transfer.max_phase_iterations = 150\n"
            "transfer.final_success_threshold = 0.8\n"
        )
        code = run(
            "transfer",
            "--robots",
            *TOY,
            "--trainer",
            "toymdp",
            "--config",
            str(cfg),
            "--seed",
            "1",
            "--out",
            str(tmp_path),
        )
        assert code == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["outcome"] == "success"
        assert payload["totals"]["sim_episodes"] > 0
        for path in payload["paths"]:
            assert path["outcome"] == "success"


def test_readme_library_example_runs(monkeypatch, capsys):
    """README's library example runs from the repo root and prints the
    (train iterations, sim episodes) totals."""
    root = pathlib.Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    [example] = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    monkeypatch.chdir(root)
    exec(compile(example, "README.md", "exec"), {})
    assert re.fullmatch(r"\(\d+, \d+\)\n", capsys.readouterr().out)
