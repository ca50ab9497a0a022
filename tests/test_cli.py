import contextlib
import copy
import dataclasses
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evotree import cli, transfer
from evotree.cli import main
from evotree.errors import SimulationError
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
    "huge_int", "deep",
]


def mutate(specs, kind, robot, pick):
    """Apply one named mutation to robot `robot` of a spec list, in place."""
    spec = specs[robot]
    key = sorted(spec["params"])[pick % len(spec["params"])] if spec["params"] else None
    body = spec["bodies"][pick % len(spec["bodies"])]
    values = {"nan": float("nan"), "inf": float("inf"), "negative": -1.0,
              "junk": "junk", "null": None, "huge_int": 10**400, "deep": DEEP}
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
    elif kind in joints:
        body.setdefault("joints", []).append(dict(joints[kind]))
    elif kind == "duplicate_body":
        spec["bodies"].append(json.loads(json.dumps(body)))
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
        if len(mutations) == 1 and mutations[0][0] in ("huge_int", "deep"):
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
        spec = json.loads(open(PLANAR[0]).read())
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

    def test_malformed_report(self, tmp_path):
        bad = tmp_path / "nope.json"
        bad.write_text("{}")
        code = run("report", "--report", str(bad), "--out", str(tmp_path))
        assert code == 2


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
