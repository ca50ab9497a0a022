import gc
import math
import os
import sys
import weakref
from dataclasses import dataclass, field, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize

from evotree import cli, evo_tree
from evotree import transfer as tx
from evotree.evo_tree import evolution_tree
from evotree.errors import (
    DegenerateDirectionError,
    EvoTreeError,
    InvalidInputError,
    PhaseFailureError,
    SimulationError,
)
from evotree.trainers import (
    CostModelTrainer,
    EvalResult,
    ProbeResult,
    SerialBatches,
    ToyMdpTrainer,
    TrainStepResult,
    proportional_policy,
    toy_space,
)

TOY_FIXTURES = [
    os.path.join(os.path.dirname(__file__), "..", "fixtures", "toy", f"{name}.json")
    for name in ("source", "target_a", "target_b", "target_c")
]
COST_CFG = tx.TransferConfig(xi=0.01, p_norm=1, gradient_samples=0)


def sphere_objective_max(alpha, beta, grad, cfg):
    """Numeric maximizer of <grad, l> - lambda/2 |beta - (alpha+l)|^2 on |l|_2 = xi."""
    alpha = np.asarray(alpha, float)
    beta = np.asarray(beta, float)
    grad = np.asarray(grad, float)

    def neg(u):
        l = cfg.xi * u / np.linalg.norm(u)
        return -(
            float(grad @ l)
            - cfg.lambda_ / 2.0 * float(np.sum((beta - alpha - l) ** 2))
        )

    rng = np.random.default_rng(0)
    best = None
    for _ in range(40):
        res = optimize.minimize(neg, rng.standard_normal(len(alpha)))
        if res.success and (best is None or res.fun < best.fun):
            best = res
    l = cfg.xi * best.x / np.linalg.norm(best.x)
    return l


@st.composite
def step_inputs(draw):
    """(alpha, beta_meta, grad, cfg) in D 1-10: coordinates in [0, 1] with
    the faces 0 and 1 and -0.0 drawn often, or (ties) multiples of 1/4 with
    a zero or quarter-step gradient, so |combined| ties; lambda up to 1e300."""
    d = draw(st.integers(1, 10))
    if draw(st.booleans()):
        coord = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 1.0]))
        slope = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0]))
    else:
        coord = st.integers(0, 4).map(lambda q: q / 4)
        slope = st.integers(-2, 2).map(lambda q: q / 4)
    alpha, beta, grad = (np.array(draw(st.lists(c, min_size=d, max_size=d)), dtype=float)
                         for c in (coord, coord, slope))
    cfg = tx.TransferConfig(
        xi=draw(st.floats(1e-6, 2.0)),
        lambda_=draw(st.one_of(st.floats(1.0, 10.0), st.floats(1.0, 1e300))),
        p_norm=draw(st.sampled_from([1, 2])),
        penalty_norm=draw(st.sampled_from([1, 2])),
    )
    return alpha, beta, grad, cfg


def reference_evolution_step(alpha, beta_meta, grad, cfg):
    """evolution_step in numpy calls throughout (np.linalg.norm, numpy
    scalars in the L1 budget loop, np.clip): the bits its cheaper form must
    keep."""
    al = np.asarray(alpha, dtype=float)
    bm = np.asarray(beta_meta, dtype=float)
    g = np.asarray(grad, dtype=float)
    gap = bm - al
    pull = gap if cfg.penalty_norm == 2 else float(np.sum(np.abs(gap))) * np.sign(gap)
    with np.errstate(over="ignore"):
        combined = g + cfg.lambda_ * pull
        norm = float(np.linalg.norm(combined))
    if norm < 1e-15:
        raise DegenerateDirectionError("combined step direction vanished")
    if not math.isfinite(norm):
        scale = max(cfg.lambda_, float(np.max(np.abs(g))))
        combined = g / scale + (cfg.lambda_ / scale) * pull
        norm = float(np.linalg.norm(combined))
    if cfg.p_norm == 2:
        step = cfg.xi * combined / norm
    else:
        step = np.zeros_like(al)
        budget = cfg.xi
        order = sorted(range(len(al)), key=lambda d: (-abs(combined[d]), d))
        for d in order:
            if budget <= 1e-15 or abs(combined[d]) < 1e-15:
                break
            direction = 1.0 if combined[d] > 0 else -1.0
            toward_meta = gap[d] * direction > 0
            cap = abs(gap[d]) if toward_meta else budget
            move = min(budget, cap)
            step[d] = direction * move
            budget -= move
    clipped = np.clip(al + step, 0.0, 1.0)
    return clipped - al


class TestEvolutionStep:
    def test_pure_attraction(self):
        cfg = tx.TransferConfig(xi=0.03, lambda_=1.0, p_norm=2)
        l = tx.evolution_step((0.0, 0.0), (1.0, 0.0), (0.0, 0.0), cfg)
        assert np.allclose(l, (0.03, 0.0))

    def test_gradient_blends_diagonal(self):
        cfg = tx.TransferConfig(xi=0.03, lambda_=1.0, p_norm=2)
        l = tx.evolution_step((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), cfg)
        expected = 0.03 * np.array([1.0, 1.0]) / math.sqrt(2)
        assert np.allclose(l, expected, atol=1e-12)
        oracle = sphere_objective_max((0.0, 0.0), (1.0, 0.0), (0.0, 1.0), cfg)
        cos = float(l @ oracle) / (np.linalg.norm(l) * np.linalg.norm(oracle))
        assert cos > 1 - 1e-4

    def test_matches_numeric_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            d = int(rng.integers(2, 5))
            cfg = tx.TransferConfig(
                xi=0.05, lambda_=float(rng.uniform(1.0, 2.0)), p_norm=2
            )
            alpha = rng.uniform(0.2, 0.8, d)
            beta = rng.uniform(0.2, 0.8, d)
            grad = rng.normal(0, 0.5, d)
            if np.linalg.norm(beta - alpha) < 0.1:
                continue
            l = tx.evolution_step(alpha, beta, grad, cfg)
            oracle = sphere_objective_max(alpha, beta, grad, cfg)
            cos = float(l @ oracle) / (
                np.linalg.norm(l) * np.linalg.norm(oracle)
            )
            assert cos > 1 - 1e-3

    def test_clamped_to_unit_box(self):
        cfg = tx.TransferConfig(xi=0.1, lambda_=1.0, p_norm=2)
        alpha = np.array([0.99, 0.5])
        l = tx.evolution_step(alpha, (1.0, 0.5), (5.0, 0.0), cfg)
        assert np.all(alpha + l <= 1.0 + 1e-12)
        assert np.all(alpha + l >= -1e-12)

    def test_l1_step_has_unit_budget(self):
        cfg = tx.TransferConfig(xi=0.04, lambda_=1.0, p_norm=1)
        l = tx.evolution_step((0.1, 0.2, 0.3), (0.9, 0.8, 0.7), (0.0, 0.0, 0.0), cfg)
        assert np.abs(l).sum() == pytest.approx(0.04, abs=1e-12)
        assert np.linalg.norm(l) <= 0.04 + 1e-12  # L2 never exceeds xi

    def test_l1_never_overshoots_meta(self):
        cfg = tx.TransferConfig(xi=0.5, lambda_=1.0, p_norm=1)
        alpha = np.array([0.5, 0.5])
        beta = np.array([0.6, 0.9])
        l = tx.evolution_step(alpha, beta, np.zeros(2), cfg)
        moved = alpha + l
        assert np.all((moved - beta) * (alpha - beta) >= -1e-12)

    def test_degenerate_direction(self):
        cfg = tx.TransferConfig(xi=0.03, lambda_=1.0, p_norm=2)
        with pytest.raises(DegenerateDirectionError):
            tx.evolution_step((0.5, 0.5), (0.5, 0.5), (0.0, 0.0), cfg)

    @pytest.mark.parametrize("p_norm", [1, 2])
    def test_endpoint_falls_back_when_the_direction_vanishes(self, p_norm):
        # a gradient that cancels the attraction: the phase steps toward beta alone
        cfg = tx.TransferConfig(xi=0.03, lambda_=1.0, p_norm=p_norm)
        engine = tx._Engine(np.array([[0.9, 0.2]]), object(), cfg)
        alpha, beta = np.array([0.2, 0.2]), np.array([0.8, 0.2])
        grad = -(beta - alpha)
        with pytest.raises(DegenerateDirectionError):
            tx.evolution_step(alpha, beta, grad, cfg)
        end = engine.endpoint(alpha, beta, grad)
        assert np.array_equal(end, alpha + tx.evolution_step(alpha, beta, np.zeros(2), cfg))
        assert np.allclose(end, (0.23, 0.2), rtol=0, atol=1e-12)

    @settings(max_examples=500, deadline=None)
    @given(step_inputs())
    @example((np.array([-0.0, 0.0]), np.array([1.0, -0.0]), np.array([0.0, -0.0]),
              tx.TransferConfig(xi=0.5, p_norm=1)))
    @example((np.array([0.0, 1.0, 0.5]), np.array([0.25, 0.75, 0.75]), np.zeros(3),
              tx.TransferConfig(xi=0.3, p_norm=1, penalty_norm=1)))
    @example((np.array([0.0, 1.0]), np.array([1.0, 0.0]), np.array([2.0, -3.0]),
              tx.TransferConfig(xi=0.1, lambda_=1e300, p_norm=2)))
    def test_equals_the_numpy_form(self, inputs):
        alpha, beta, grad, cfg = inputs
        try:
            want = reference_evolution_step(alpha, beta, grad, cfg)
        except DegenerateDirectionError:
            with pytest.raises(DegenerateDirectionError):
                tx.evolution_step(alpha, beta, grad, cfg)
            return
        got = tx.evolution_step(alpha, beta, grad, cfg)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))



@dataclass(frozen=True)
class CappedCostTrainer(CostModelTrainer):
    """CostModelTrainer that refuses its train step past `cap` calls, so a
    walk that makes no progress fails at once, not at the engine's guard."""

    cap: int = 0
    calls: list = field(default_factory=list)

    def train_step(self, policy, alpha, seed):
        self.calls.append(None)
        if len(self.calls) > self.cap:
            raise AssertionError(f"more than {self.cap} train steps")
        return super().train_step(policy, alpha, seed)


@st.composite
def accepted_problems(draw):
    """(source, targets, cfg): a source and 1-4 targets in [0, 1]^D, spread
    over a box of side 1e-5 to 1, and an accepted TransferConfig. lambda runs
    up to the float maximum; xi from the engine's phase-guard floor, through
    below the gaps between the points, to above the set's diameter."""
    d, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    side = 10.0 ** draw(st.floats(-5.0, 0.0))
    corner = np.array(draw(st.lists(st.floats(0.0, 1.0 - side), min_size=d, max_size=d)))
    unit = st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d)
    pts = corner + side * np.array(draw(st.lists(unit, min_size=n + 1, max_size=n + 1)))
    pts = np.clip(pts, 0.0, 1.0)
    p_norm = draw(st.sampled_from([1, 2]))
    diam = max(tx._lp(a, b, p_norm) for a in pts for b in pts)
    floor = 4 * (n + 1) * d / tx.MAX_PHASE_GUARD
    xi = max(diam * 2.0 ** draw(st.floats(-6.0, 1.0)), floor * (1 + 1e-9))
    cfg = tx.TransferConfig(
        xi=xi,
        lambda_=draw(st.one_of(st.floats(1.0, 10.0), st.floats(1.0, sys.float_info.max))),
        p_norm=p_norm,
        penalty_norm=draw(st.sampled_from([1, 2])),
        shrink_ratio=draw(st.floats(0.0, 1.0, exclude_min=True)),
        gradient_samples=draw(st.sampled_from([0, d + 1])),
    )
    return pts[0], pts[1:], cfg


class TestAcceptedConfigs:
    """Every accepted config makes progress: each target is reached in
    phases of length in (0, xi], however large lambda is."""

    # numpy's overflow warning is an error: the step rule decides before it
    # computes whether the attraction can overflow
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=120, deadline=None)
    @given(accepted_problems())
    # lambda so large that the attraction's L2 norm overflows
    @example((np.zeros(1), np.ones((1, 1)), tx.TransferConfig(xi=0.125, lambda_=1e300, p_norm=2)))
    # lambda * sum|gap| overflows, and the axis with no gap multiplies it by 0
    @example(
        (
            np.array([0.0, 0.5, 0.0]),
            np.array([[1.0, 0.5, 1.0]]),
            tx.TransferConfig(xi=1.5, lambda_=sys.float_info.max, penalty_norm=1),
        )
    )
    def test_every_method_reaches_every_target(self, problem):
        src, tgts, cfg = problem
        p, xi = cfg.p_norm, cfg.xi
        diam = max(tx._lp(a, b, p) for a in [src, *tgts] for b in [src, *tgts])
        # a generous bound on a run's phases, so that a walk of zero-length
        # steps fails here, not at the engine's guard of up to 1e7 phases
        cap = 16 * (len(tgts) + 1) * (math.ceil(diam / xi) + 2)
        for method, run in METHODS.items():
            reports = run(src, tgts, object(), CappedCostTrainer(cap=cap), cfg)
            for rep in reports:
                assert rep.outcome == "success", (method, rep.target_index)
                at = src
                for ph in rep.phases:
                    assert np.array_equal(ph.alpha_from, at)
                    length = tx._lp(np.asarray(ph.alpha_from), np.asarray(ph.alpha_to), p)
                    assert 0.0 < length <= xi * (1 + 1e-12) + 1e-15 * len(src), (method, length)
                    at = ph.alpha_to
                assert tx._lp(np.asarray(at), np.asarray(rep.target), p) <= tx.COINCIDE_TOL
                if method == "herd" and p == 1 and not cfg.gradient_samples:
                    d = tx._lp(src, np.asarray(rep.target), 1)
                    # ceil(d / xi), but a remainder within the arrival
                    # tolerance of the target arrives a phase early
                    low = math.ceil((d - tx.COINCIDE_TOL) / xi)
                    assert low <= len(rep.phases) <= math.ceil(d / xi), (d, xi)


class DrawsOne:
    """RNG stub whose uniform draw is 1: window_sample returns the window start."""

    def random(self):
        return 1.0


class TestWindow:
    def test_shrink_formula(self):
        a0 = np.array([0.0, 0.0])
        a1 = np.array([0.03, 0.0])
        cfg = tx.TransferConfig(shrink_ratio=0.995)
        for t in [0, 1, 5, 50]:
            start = tx.window_sample(a0, a1, cfg, DrawsOne(), t)
            width = float(np.abs(a1 - start).sum())
            assert width == pytest.approx(0.03 * 0.995**t, rel=1e-12)


@dataclass
class ScheduleTrainer(SerialBatches):
    """Stub: evaluate returns a fixed schedule of success rates."""

    schedule: tuple

    def __post_init__(self):
        self.calls = 0
        self.samples = []

    def evaluate(self, policy, alpha, episodes, seed):
        rate = self.schedule[min(self.calls, len(self.schedule) - 1)]
        self.calls += 1
        return EvalResult(success_rate=rate, sim_episodes=episodes)

    def train_step(self, policy, alpha, seed):
        self.samples.append(np.asarray(alpha, float))
        return TrainStepResult(policy=policy, train_iterations=1, sim_episodes=5)

    def gradient_probe(self, policy, alphas, seed):
        return ProbeResult(mean_return=np.zeros(len(alphas)), sim_episodes=0)


def drive(trainer, walk):
    """Run one generator of trainer requests through the single calls and
    return what it returns."""
    results = None
    while True:
        try:
            results = SerialBatches.serve(trainer, walk.send(results))
        except StopIteration as done:
            return done.value


class TestPhaseTrain:
    def test_cost_model_single_iteration(self):
        trainer = CostModelTrainer()
        cfg = tx.TransferConfig(xi=0.03)
        out = drive(trainer, tx.phase_train((0.0, 0.0), (0.03, 0.0), object(), cfg))
        assert (out.train_iterations, out.sim_episodes) == (1, 10)
        assert out.reached and out.final_success_rate == 1.0

    def test_gate_blocks_below_threshold(self):
        trainer = ScheduleTrainer(schedule=(0.6, 0.6, 0.7))
        cfg = tx.TransferConfig(xi=0.03, success_threshold=0.667)
        out = drive(trainer, tx.phase_train((0.0, 0.0), (0.03, 0.0), object(), cfg))
        assert out.train_iterations == 3  # 0.6 and 0.6 do not pass the 0.667 gate
        assert out.reached and out.final_success_rate == pytest.approx(0.7)

    def test_budget_exhausted(self):
        trainer = ScheduleTrainer(schedule=(0.3,))
        cfg = tx.TransferConfig(xi=0.03, max_phase_iterations=7)
        out = drive(trainer, tx.phase_train((0.0, 0.0), (0.03, 0.0), object(), cfg))
        assert out.train_iterations == 7 and not out.reached

    def test_arrival_gate_and_evaluation(self):
        """A phase that ends on a target trains to final_success_threshold
        on a triple-size evaluation; the phase before it to success_threshold."""
        trainer = ScheduleTrainer((0.7, 0.7, 0.95))
        cfg = tx.TransferConfig(xi=0.03, success_threshold=0.6, final_success_threshold=0.9)
        [rep] = tx.meta_evolve((0.0, 0.5), [(0.05, 0.5)], object(), trainer, cfg)
        assert rep.outcome == "success"
        assert [p.train_iterations for p in rep.phases] == [1, 2]
        assert [p.sim_episodes for p in rep.phases] == [35, 190]

    def test_samples_stay_in_window(self):
        trainer = ScheduleTrainer(schedule=(0.0,))
        cfg = tx.TransferConfig(xi=0.03, max_phase_iterations=50)
        a0 = np.array([0.0, 0.5])
        a1 = np.array([0.03, 0.5])
        drive(trainer, tx.phase_train(a0, a1, object(), cfg))
        for t, s in enumerate(trainer.samples):
            start = a1 + (a0 - a1) * cfg.shrink_ratio**t
            lo = np.minimum(start, a1) - 1e-12
            hi = np.maximum(start, a1) + 1e-12
            assert np.all(s >= lo) and np.all(s <= hi)


class TestGradientEstimate:
    def test_disabled(self):
        est = tx.estimate_reward_gradient(
            CostModelTrainer(), np.zeros(3), object(), COST_CFG
        )
        assert np.array_equal(est.gradient, np.zeros(3))
        assert est.sim_episodes == 0

    def test_constant_reward_gives_zero(self):
        cfg = replace(COST_CFG, gradient_samples=8)
        est = tx.estimate_reward_gradient(
            CostModelTrainer(), np.full(3, 0.5), object(), cfg
        )
        assert np.allclose(est.gradient, 0.0, atol=1e-9)

    def test_requires_enough_samples(self):
        cfg = replace(COST_CFG, gradient_samples=3)
        with pytest.raises(InvalidInputError):
            tx.estimate_reward_gradient(
                CostModelTrainer(), np.zeros(4), object(), cfg
            )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 9),
        extra=st.integers(1, 200),
        xi=st.sampled_from([0.01, 0.03, 0.3, 2.5]),
        edge=st.booleans(),
    )
    def test_one_call_draw_equals_a_draw_per_sample(self, seed, d, extra, xi, edge):
        rng = np.random.default_rng(seed)
        alpha = rng.random(d)
        if edge:  # points on the box's faces, where the clip bites
            alpha[rng.random(d) < 0.5] = 1.0
        cfg = tx.TransferConfig(xi=xi, gradient_samples=d + extra, seed=seed % 1000)
        points, _ = tx.probe_points(alpha, cfg, [seed % 7])
        draws = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, 0x6E5D, seed % 7])
        )
        expected = [alpha]
        for _ in range(cfg.gradient_samples):
            direction = draws.standard_normal(d)
            direction /= max(float(np.linalg.norm(direction)), 1e-12)
            expected.append(np.clip(alpha + (xi / 2.0) * direction, 0.0, 1.0))
        assert np.array_equal(points, np.asarray(expected))

    def test_linear_reward_recovered(self):
        @dataclass
        class LinearProbe(SerialBatches):
            coef: np.ndarray

            def evaluate(self, policy, alpha, episodes, seed):
                return EvalResult(1.0, 0)

            def train_step(self, policy, alpha, seed):
                return TrainStepResult(policy, 1, 1)

            def gradient_probe(self, policy, alphas, seed):
                return ProbeResult(np.asarray(alphas) @ self.coef, 0)

        coef = np.array([0.8, -0.4, 0.1])
        cfg = replace(COST_CFG, gradient_samples=12, xi=0.05)
        est = tx.estimate_reward_gradient(
            LinearProbe(coef), np.full(3, 0.5), object(), cfg
        )
        assert np.allclose(est.gradient, coef, atol=1e-8)


class TestCostModelRuns:
    def test_two_near_targets_speedup(self):
        src = (0.0, 0.5)
        tgts = [(1.0, 0.55), (1.0, 0.45)]
        meta = tx.meta_evolve(src, tgts, object(), CostModelTrainer(), COST_CFG)
        herd = tx.herd_baseline(src, tgts, object(), CostModelTrainer(), COST_CFG)
        _, ms = tx.aggregate_totals(meta)
        _, hs = tx.aggregate_totals(herd)
        assert hs / ms == pytest.approx(21 / 11, abs=1e-9)

    def test_opposite_targets_no_speedup(self):
        src = (0.5, 0.5)
        tgts = [(0.0, 0.5), (1.0, 0.5)]
        meta = tx.meta_evolve(src, tgts, object(), CostModelTrainer(), COST_CFG)
        herd = tx.herd_baseline(src, tgts, object(), CostModelTrainer(), COST_CFG)
        _, ms = tx.aggregate_totals(meta)
        _, hs = tx.aggregate_totals(herd)
        assert hs / ms == pytest.approx(1.0, abs=0.05)

    def test_single_target_equals_herd(self):
        src = (0.1, 0.2, 0.3)
        tgt = [(0.8, 0.9, 0.4)]
        meta = tx.meta_evolve(src, tgt, object(), CostModelTrainer(), COST_CFG)
        herd = tx.herd_baseline(src, tgt, object(), CostModelTrainer(), COST_CFG)
        meta_path = [(p.alpha_from, p.alpha_to) for p in meta[0].phases]
        herd_path = [(p.alpha_from, p.alpha_to) for p in herd[0].phases]
        assert meta_path == herd_path

    def test_phase_counts_match_closed_form(self):
        src = (0.0, 0.0)
        tgts = [(0.62, 0.31)]
        herd = tx.herd_baseline(src, tgts, object(), CostModelTrainer(), COST_CFG)
        dist = 0.62 + 0.31
        expected = math.ceil(dist / COST_CFG.xi)
        assert abs(len(herd[0].phases) - expected) <= 1
        assert herd[0].sim_episodes == len(herd[0].phases) * 10

    def test_l2_distance_shrinks_by_xi_per_phase(self):
        cfg = replace(COST_CFG, p_norm=2, xi=0.03)
        src = np.array([0.1, 0.2, 0.1])
        tgt = np.array([0.8, 0.7, 0.9])
        herd = tx.herd_baseline(src, [tgt], object(), CostModelTrainer(), cfg)
        phases = herd[0].phases
        dist = float(np.linalg.norm(tgt - src))
        assert abs(len(phases) - math.ceil(dist / cfg.xi)) <= 1
        for ph in phases[:-1]:
            before = np.linalg.norm(tgt - np.asarray(ph.alpha_from))
            after = np.linalg.norm(tgt - np.asarray(ph.alpha_to))
            assert before - after == pytest.approx(cfg.xi, abs=1e-9)

    def test_herd_totals_proportional_to_distances(self):
        rng = np.random.default_rng(9)
        src = rng.random(3)
        tgts = rng.random((3, 3))
        herd = tx.herd_baseline(src, tgts, object(), CostModelTrainer(), COST_CFG)
        for rep in herd:
            dist = float(np.abs(np.asarray(rep.target) - src).sum())
            expected = math.ceil(dist / COST_CFG.xi - 1e-9)
            assert abs(len(rep.phases) - expected) <= 1

    def test_speedup_bounded_by_target_count(self):
        rng = np.random.default_rng(31)
        for _ in range(8):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            src = rng.random(d)
            tgts = rng.random((n, d))
            meta = tx.meta_evolve(src, tgts, object(), CostModelTrainer(), COST_CFG)
            herd = tx.herd_baseline(src, tgts, object(), CostModelTrainer(), COST_CFG)
            _, ms = tx.aggregate_totals(meta)
            _, hs = tx.aggregate_totals(herd)
            edges = sum(len(r.phases) for r in meta)
            eps = 2 * COST_CFG.xi * edges / max(hs, 1)
            assert hs / ms <= n + eps
            assert hs / ms >= 1 - 0.05

    def test_alpha_stays_in_unit_box(self):
        rng = np.random.default_rng(77)
        src = rng.random(4)
        tgts = rng.random((3, 4))
        meta = tx.meta_evolve(src, tgts, object(), CostModelTrainer(), COST_CFG)
        for rep in meta:
            for ph in rep.phases:
                assert all(-1e-12 <= x <= 1 + 1e-12 for x in ph.alpha_from)
                assert all(-1e-12 <= x <= 1 + 1e-12 for x in ph.alpha_to)

    def test_phase_step_within_xi(self):
        rng = np.random.default_rng(78)
        src = rng.random(3)
        tgts = rng.random((3, 3))
        meta = tx.meta_evolve(src, tgts, object(), CostModelTrainer(), COST_CFG)
        for rep in meta:
            for ph in rep.phases:
                step = np.asarray(ph.alpha_to) - np.asarray(ph.alpha_from)
                assert np.linalg.norm(step) <= COST_CFG.xi + 1e-9


class TestSharingContract:
    @pytest.mark.parametrize(
        "src,tgts",
        [
            ((0.0, 0.5), [(1.0, 0.55), (1.0, 0.45)]),
            ((0.0, 0.0), [(1.0, 0.8), (0.95, 1.0), (0.6, 0.9)]),
            ((0.5, 0.5), [(0.0, 0.5), (1.0, 0.5)]),
        ],
    )
    def test_prefix_then_disjoint(self, src, tgts):
        meta = tx.meta_evolve(src, tgts, object(), CostModelTrainer(), COST_CFG)
        for i in range(len(meta)):
            for j in range(i + 1, len(meta)):
                a = [p.phase_id for p in meta[i].phases]
                b = [p.phase_id for p in meta[j].phases]
                k = 0
                while k < min(len(a), len(b)) and a[k] == b[k]:
                    k += 1
                assert set(a[k:]).isdisjoint(set(b[k:]))

    def test_trunk_counted_once(self):
        src = (0.0, 0.5)
        tgts = [(1.0, 0.55), (1.0, 0.45)]
        meta = tx.meta_evolve(src, tgts, object(), CostModelTrainer(), COST_CFG)
        _, total = tx.aggregate_totals(meta)
        per_path = sum(r.sim_episodes for r in meta)
        shared = sum(
            1
            for p in meta[0].phases
            if p.phase_id in {q.phase_id for q in meta[1].phases}
        )
        assert per_path - total == shared * 10


class TestGeomMedianBaseline:
    def test_single_target_well_formed(self):
        src = (0.2, 0.2)
        res = tx.geom_median_baseline(
            src, [(0.8, 0.8)], object(), CostModelTrainer(), COST_CFG
        )
        assert len(res) == 1
        assert res[0].outcome == "success"

    def test_symmetric_targets(self):
        from evotree.geometry import geometric_median

        cfg = replace(COST_CFG, p_norm=2)
        src = (0.5, 0.1)
        tgts = [(0.1, 0.9), (0.9, 0.9), (0.5, 0.9)]
        # the shared meta robot sits on the mirror axis of the instance
        median = geometric_median(np.vstack([[src], tgts]), 2)
        assert median[0] == pytest.approx(0.5, abs=1e-7)
        res = tx.geom_median_baseline(src, tgts, object(), CostModelTrainer(), cfg)
        assert all(r.outcome == "success" for r in res)
        branch_counts = []
        for r in res:
            own = [p for p in r.phases if len(p.segment) == 1]
            branch_counts.append(len(own))
        assert branch_counts[0] == branch_counts[1]

    def test_gradient_probe_failure_carries_index(self):
        @dataclass
        class ExplodingProbe(SerialBatches):
            def evaluate(self, policy, alpha, episodes, seed):
                return EvalResult(1.0, 0)

            def train_step(self, policy, alpha, seed):
                return TrainStepResult(policy, 1, 1)

            def gradient_probe(self, policy, alphas, seed):
                pts = np.asarray(alphas)
                self.batches.append(pts)
                perturbed = np.flatnonzero(np.any(pts != 0.5, axis=1))
                if len(perturbed):  # perturbed probes blow up
                    raise RuntimeError(f"sim crashed at row {perturbed[0]}")
                return ProbeResult(np.zeros(len(pts)), 0)

        from evotree.errors import PhaseFailureError

        cfg = replace(COST_CFG, gradient_samples=8)
        probe = ExplodingProbe()
        probe.batches = []
        with pytest.raises(PhaseFailureError, match="perturbation.*row 1"):
            tx.estimate_reward_gradient(probe, np.full(3, 0.5), object(), cfg)
        # one batch: the base point in row 0, then the 8 perturbations
        assert len(probe.batches) == 1 and probe.batches[0].shape == (9, 3)
        assert np.all(probe.batches[0][0] == 0.5)

    def test_median_star_at_least_steiner(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(2, 5))
            src = rng.random(d)
            tgts = rng.random((n, d))
            meta = tx.meta_evolve(src, tgts, object(), CostModelTrainer(), COST_CFG)
            med = tx.geom_median_baseline(
                src, tgts, object(), CostModelTrainer(), COST_CFG
            )
            _, ms = tx.aggregate_totals(meta)
            _, gs = tx.aggregate_totals(med)
            # the tree minimizes total length; allow one phase per edge slack
            edges = sum(len(r.phases) for r in meta) + sum(
                len(r.phases) for r in med
            )
            assert ms <= gs + edges * 0.5


    def test_trunk_out_of_budget_exhausts_every_target(self):
        cfg = replace(COST_CFG, xi=0.05, max_phase_iterations=3)
        src = (0.5, 0.1)
        tgts = [(0.1, 0.9), (0.9, 0.9), (0.5, 0.95)]
        res = tx.geom_median_baseline(src, tgts, object(), RegionTrainer(), cfg)
        trunk = res[0].phases
        assert trunk and all(p.segment == () for p in trunk)
        assert [p.reached for p in trunk] == [True] * (len(trunk) - 1) + [False]
        assert trunk[-1].alpha_to[1] >= 0.5 > trunk[-1].alpha_from[1]
        for r in res:
            assert r.outcome == "budget-exhausted" and r.phases == trunk

    def test_target_at_source_arrives_without_phases(self):
        cfg = replace(COST_CFG, xi=0.05, p_norm=2)
        tgts = [(0.0, 0.0), (1.0, 1.0), (1.0, 0.9), (0.9, 1.0)]
        res = tx.geom_median_baseline((0.0, 0.0), tgts, object(), CostModelTrainer(), cfg)
        assert res[0].outcome == "success" and res[0].phases == ()
        trunks = {tuple(p for p in r.phases if p.segment == ()) for r in res[1:]}
        assert len(trunks) == 1 and len(next(iter(trunks))) > 0
        assert len(distinct_phases(res)) == 34

    def test_trunk_ending_on_a_target_uses_the_arrival_gate(self):
        class CountingTrainer(CostModelTrainer):
            def evaluate(self, policy, alpha, episodes, seed):
                return EvalResult(success_rate=1.0, sim_episodes=episodes)

        cfg = replace(COST_CFG, xi=0.05)
        tgts = [(0.5, 0.5), (1.0, 0.6), (0.6, 1.0)]  # the L1 median is target 0
        res = tx.geom_median_baseline((0.0, 0.0), tgts, object(), CountingTrainer(), cfg)
        *trunk, last = res[0].phases
        assert last.segment == () and last.alpha_to == pytest.approx(tgts[0], abs=1e-9)
        # one train step of 10 episodes, then a triple-size evaluation
        assert last.sim_episodes == 10 + 3 * cfg.eval_episodes
        assert all(p.sim_episodes == 10 + cfg.eval_episodes for p in trunk)
        assert tx.aggregate_totals(res)[1] == 1940


@dataclass
class RegionTrainer(SerialBatches):
    """Stub: every robot with alpha[1] >= 0.5 fails its gate."""

    def evaluate(self, policy, alpha, episodes, seed):
        ok = 1.0 if np.asarray(alpha)[1] < 0.5 else 0.0
        return EvalResult(success_rate=ok, sim_episodes=0)

    def train_step(self, policy, alpha, seed):
        return TrainStepResult(policy, 1, 10)

    def gradient_probe(self, policy, alphas, seed):
        return ProbeResult(np.zeros(len(alphas)), 0)


METHODS = {
    "meta": tx.meta_evolve,
    "herd": tx.herd_baseline,
    "geom-median": tx.geom_median_baseline,
}


def distinct_phases(reports):
    return list({p.phase_id: p for r in reports for p in r.phases}.values())


class TestEngineContract:
    """Phase numbering and segment labels shared by all three methods."""

    @pytest.mark.parametrize("method", sorted(METHODS))
    @pytest.mark.parametrize("nan_in", ["source", "target"])
    def test_nan_coordinate_refused(self, method, nan_in):
        src, tgts = (0.2, 0.5), [(0.9, 0.5), (0.8, 0.1)]
        if nan_in == "source":
            src = (math.nan, 0.5)
        else:
            tgts[1] = (0.8, math.nan)
        with pytest.raises(InvalidInputError, match=rf"{nan_in} must lie in \[0, 1\]\^D"):
            METHODS[method](src, tgts, object(), CostModelTrainer(), COST_CFG)

    @pytest.mark.parametrize("method", sorted(METHODS))
    @pytest.mark.parametrize("p_norm", [1, 2])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_ids_follow_segment_order(self, method, p_norm, n):
        rng = np.random.default_rng([n, p_norm])
        src, tgts = rng.random(3), rng.random((n, 3))
        cfg = replace(COST_CFG, xi=0.05, p_norm=p_norm)
        reports = METHODS[method](src, tgts, object(), CostModelTrainer(), cfg)
        phases = distinct_phases(reports)
        by_id = sorted(phases, key=lambda p: p.phase_id)
        assert [p.phase_id for p in by_id] == list(range(len(phases)))
        assert by_id == sorted(phases, key=lambda p: (p.segment, p.phase_index))
        for r in reports:
            assert r.outcome == "success"
            segments = [p.segment for p in r.phases]
            assert [p.phase_index for p in r.phases if p.segment == segments[-1]] == list(
                range(segments.count(segments[-1]))
            )
            i = r.target_index
            if method == "herd":
                assert set(segments) == {(i,)}
            elif method == "geom-median":
                trunk = segments.count(())
                assert segments == [()] * trunk + [(i + 1,)] * (len(segments) - trunk)

    @pytest.mark.parametrize(
        "method,p_norm,segments",
        [
            ("meta", 1, [()]),
            ("meta", 2, [()]),
            ("herd", 1, [(0,)]),
            ("herd", 2, [(0,)]),
            ("geom-median", 1, [(), (1,)]),
            # two points: the L2 median is the source, so no trunk
            ("geom-median", 2, [(1,)]),
        ],
    )
    def test_one_target_labels(self, method, p_norm, segments):
        cfg = replace(COST_CFG, xi=0.05, p_norm=p_norm)
        [rep] = METHODS[method]((0.2, 0.8), [(0.8, 0.2)], object(), CostModelTrainer(), cfg)
        assert rep.outcome == "success"
        assert list(dict.fromkeys(p.segment for p in rep.phases)) == segments


    @pytest.mark.parametrize("method", sorted(METHODS))
    def test_reports_die_with_their_last_reference(self, method):
        # no reference cycle keeps a finished engine, and with it every
        # report and policy, alive until a gc pass
        gc.disable()
        try:
            reports = METHODS[method](
                (0.0, 0.5), [(1.0, 0.55), (1.0, 0.45)], object(), CostModelTrainer(), COST_CFG
            )
            ref = weakref.ref(reports[0])
            del reports
            assert ref() is None
        finally:
            gc.enable()


def sequential_run(trainer, pairs):
    """Reference for lockstep on one engine's walks: one walk at a time,
    depth-first with child 0 first, each request through the single trainer
    calls; the reports in target order, their phases not numbered."""
    [engine] = {engine for engine, _ in pairs}
    work = [walk for _, walk in reversed(pairs)]
    while work:
        children = drive(trainer, work.pop())
        work.extend(engine.subtree(c) for c in reversed(children))
    engine.result[:] = [engine.reports[i] for i in range(len(engine.targets))]


def run_sequentially(method, *args):
    """A method's reports from sequential_run, without guesses (each phase
    requests its own first train job), each phase numbered in the order it
    started; or the error it raised."""
    started = []
    phase_train = tx.phase_train

    def counted(*a, **kw):
        started.append(tuple(kw["seed_material"]))
        kw["guess"] = None
        return phase_train(*a, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tx, "phase_train", counted)
        mp.setattr(tx, "lockstep", sequential_run)
        try:
            reports = METHODS[method](*args)
        except EvoTreeError as exc:
            return exc
    ids = {key: i for i, key in enumerate(started)}
    return [
        replace(r, phases=tuple(
            replace(p, phase_id=ids[(*p.segment, p.phase_index)]) for p in r.phases
        ))
        for r in reports
    ]


@dataclass(frozen=True)
class FailingRegionTrainer(CostModelTrainer):
    """Cost trainer whose train_step raises on robots with alpha[1] >= 0.5."""

    def train_step(self, policy, alpha, seed):
        if np.asarray(alpha)[1] >= 0.5:
            raise SimulationError("simulated crash in the upper region")
        return super().train_step(policy, alpha, seed)


@dataclass(frozen=True)
class FailingRegionProbes(CostModelTrainer):
    """Cost trainer whose gradient_probe raises when a probed robot has
    alpha[1] >= 0.5; it records the probe count of each serve call."""

    batches: list = field(default_factory=list)

    def gradient_probe(self, policy, alphas, seed):
        if np.any(np.asarray(alphas)[:, 1] >= 0.5):
            raise SimulationError("simulated probe crash in the upper region")
        return super().gradient_probe(policy, alphas, seed)

    def serve(self, requests):
        self.batches.append(sum(kind == tx.PROBE for kind, _ in requests))
        return super().serve(requests)


@dataclass(frozen=True)
class CountingServes(CostModelTrainer):
    """Cost trainer that records the requests of each serve call."""

    serves: list = field(default_factory=list)

    def serve(self, requests):
        self.serves.append(list(requests))
        return super().serve(requests)


@dataclass(frozen=True)
class StuckBeyondTheFirstPhase(CostModelTrainer):
    """Cost trainer whose gate never passes and whose train_step raises on
    robots past alpha[0] = xi, where only a second phase would train."""

    xi: float = 0.05
    raised: list = field(default_factory=list)

    def evaluate(self, policy, alpha, episodes, seed):
        return EvalResult(success_rate=0.0, sim_episodes=episodes)

    def train_step(self, policy, alpha, seed):
        if np.asarray(alpha)[0] > self.xi * (1 + 1e-9):
            self.raised.append(seed)
            raise SimulationError("trained past the first phase")
        return super().train_step(policy, alpha, seed)


@dataclass(frozen=True)
class ProbesStuckBeyondTheFirstPhase(StuckBeyondTheFirstPhase):
    """StuckBeyondTheFirstPhase whose train steps pass and whose probes raise
    on robots past alpha[0] = xi, where only a second phase would probe."""

    def train_step(self, policy, alpha, seed):
        return CostModelTrainer.train_step(self, policy, alpha, seed)

    def gradient_probe(self, policy, alphas, seed):
        if np.any(np.asarray(alphas)[:, 0] > self.xi * (1 + 1e-9)):
            self.raised.append(seed)
            raise SimulationError("probed past the first phase")
        return super().gradient_probe(policy, alphas, seed)


class CountingCalls:
    """A trainer's serve, counting its calls."""

    def __init__(self, trainer):
        self.trainer, self.calls = trainer, 0

    def serve(self, requests):
        self.calls += 1
        return self.trainer.serve(requests)


class TestLockstep:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        method=st.sampled_from(sorted(METHODS)),
        xi=st.sampled_from([0.3, 0.6]),
        p_norm=st.sampled_from([1, 2]),
        n=st.integers(2, 4),
        batch_size=st.sampled_from([1, 2, 6]),
        eval_episodes=st.sampled_from([1, 2, 5]),
        probes=st.booleans(),
    )
    def test_equals_one_stream_at_a_time(
        self, seed, method, xi, p_norm, n, batch_size, eval_episodes, probes
    ):
        rng = np.random.default_rng(seed)
        src, tgts = rng.random(5), rng.random((n, 5))
        trainer = ToyMdpTrainer(toy_space(), batch_size=batch_size, learning_rate=0.3)
        cfg = tx.TransferConfig(
            xi=xi, p_norm=p_norm, max_phase_iterations=4, seed=seed % 1000,
            eval_episodes=eval_episodes, gradient_samples=6 * probes,
        )
        expert = proportional_policy(1.2, 0.8, 0.12)
        args = (src, tgts, expert, trainer, cfg)
        expected = run_sequentially(method, *args)
        if isinstance(expected, EvoTreeError):
            with pytest.raises(type(expected)):
                METHODS[method](*args)
            return
        reports = METHODS[method](*args)
        assert reports == expected  # phases with their ids, outcomes, totals
        for a, b in zip(reports, expected):
            assert np.array_equal(a.policy.weights, b.policy.weights)
            assert np.array_equal(a.policy.log_std, b.policy.log_std)

    @pytest.mark.parametrize("method", ["meta", "herd"])
    def test_trainer_error_in_one_stream_aborts(self, method):
        # three streams train side by side; only the one toward target 2
        # enters the region where train_step raises
        src = (0.5, 0.45)
        tgts = [(0.0, 0.45), (1.0, 0.45), (0.5, 0.95)]
        args = (src, tgts, object(), FailingRegionTrainer(), COST_CFG)
        assert isinstance(run_sequentially(method, *args), SimulationError)
        with pytest.raises(SimulationError, match="upper region"):
            METHODS[method](*args)
        # the same with gradient probes on, where only that stream's probes
        # raise: the failure aborts the run as a PhaseFailureError
        cfg = replace(COST_CFG, gradient_samples=3)
        assert isinstance(
            run_sequentially(method, src, tgts, object(), FailingRegionProbes(), cfg),
            PhaseFailureError,
        )
        trainer = FailingRegionProbes()
        with pytest.raises(PhaseFailureError, match="perturbations: .*upper region"):
            METHODS[method](src, tgts, object(), trainer, cfg)
        assert trainer.batches[0] == 3  # all three streams probe in one call

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        methods=st.sampled_from([
            ("meta", "herd"), ("herd", "geom-median"), ("geom-median", "meta"),
            ("meta", "herd", "geom-median"),
        ]),
        xi=st.sampled_from([0.3, 0.6]),
        p_norm=st.sampled_from([1, 2]),
        n=st.integers(2, 4),
        probes=st.booleans(),
    )
    def test_methods_sharing_the_loop_equal_each_alone(
        self, seed, methods, xi, p_norm, n, probes
    ):
        rng = np.random.default_rng(seed)
        src, tgts = rng.random(5), rng.random((n, 5))
        trainer = CountingCalls(ToyMdpTrainer(toy_space(), batch_size=2, learning_rate=0.3))
        cfg = tx.TransferConfig(
            xi=xi, p_norm=p_norm, max_phase_iterations=4, seed=seed % 1000,
            eval_episodes=2, gradient_samples=6 * probes,
        )
        args = (src, tgts, proportional_policy(1.2, 0.8, 0.12), trainer, cfg)
        alone, calls = {}, {}
        for method in methods:
            trainer.calls = 0
            try:
                alone[method] = METHODS[method](*args)
            except EvoTreeError as exc:
                alone[method] = exc
            calls[method] = trainer.calls
        trainer.calls = 0
        rounds = []
        joint = [METHODS[method](*args, rounds=rounds) for method in methods]
        error = None
        try:
            tx.lockstep(trainer, rounds)
        except EvoTreeError as exc:
            error = exc
        for method, reports in zip(methods, joint):
            expected = alone[method]
            if isinstance(expected, EvoTreeError):
                # the earliest method that raised fails the joint run
                assert type(error) is type(expected) and str(error) == str(expected)
                return
            assert reports == expected  # phases with their ids, outcomes, totals
            for a, b in zip(reports, expected):
                assert np.array_equal(a.policy.weights, b.policy.weights)
                assert np.array_equal(a.policy.log_std, b.policy.log_std)
        assert error is None
        # each engine takes as many rounds as alone, and every round is one call
        assert trainer.calls == max(calls.values())


class TestGuesses:
    @pytest.mark.parametrize("p_norm", [1, 2])
    def test_one_serve_per_phase(self, p_norm):
        # every evaluation carries the next phase's first train job, and the
        # gate passes at once: N phases take N + 1 calls, one train job alone
        # and then one evaluation (with a guess, bar the last) per phase
        cfg = replace(COST_CFG, xi=0.05, p_norm=p_norm)
        trainer = CountingServes()
        [rep] = tx.meta_evolve((0.1, 0.2), [(0.6, 0.9)], object(), trainer, cfg)
        n = len(rep.phases)
        assert rep.outcome == "success" and n > 5
        assert len(trainer.serves) == n + 1
        kinds = [[kind for kind, _ in serve] for serve in trainer.serves]
        assert kinds == [[tx.TRAIN]] + [[tx.EVAL, tx.TRAIN]] * (n - 1) + [[tx.EVAL]]
        expected = run_sequentially("meta", (0.1, 0.2), [(0.6, 0.9)], object(), CostModelTrainer(), cfg)
        assert [rep] == expected

    def test_dropped_guess_raises_nothing(self):
        # the gate fails until the phase's budget runs out; every evaluation's
        # guess trains past the phase's end and raises, and is dropped
        cfg = replace(COST_CFG, xi=0.05, max_phase_iterations=3)
        args = ((0.0, 0.5), [(1.0, 0.5)], object())
        trainer = StuckBeyondTheFirstPhase(xi=cfg.xi)
        [rep] = tx.meta_evolve(*args, trainer, cfg)
        assert rep.outcome == "budget-exhausted" and len(rep.phases) == 1
        assert len(trainer.raised) == cfg.max_phase_iterations
        assert [rep] == run_sequentially("meta", *args, StuckBeyondTheFirstPhase(xi=cfg.xi), cfg)

    def test_guess_failure_is_raised_when_taken(self):
        # the gate passes, so the walk takes the guess that raised: the run
        # fails as the run without guesses does
        cfg = replace(COST_CFG, xi=0.05)

        class PassingButStuck(StuckBeyondTheFirstPhase):
            def evaluate(self, policy, alpha, episodes, seed):
                return EvalResult(success_rate=1.0, sim_episodes=episodes)

        args = ((0.0, 0.5), [(1.0, 0.5)], object(), PassingButStuck(xi=cfg.xi), cfg)
        expected = run_sequentially("meta", *args)
        assert isinstance(expected, SimulationError)
        with pytest.raises(SimulationError, match=f"^{expected}$"):
            tx.meta_evolve(*args)

    @pytest.mark.parametrize("p_norm", [1, 2])
    def test_probes_are_guessed_too(self, p_norm):
        # with gradient probes on, each evaluation carries the next phase's
        # probe, or its first train job once that phase starts within xi of
        # the target: a probing phase takes two calls, not three
        cfg = replace(COST_CFG, xi=0.05, p_norm=p_norm, gradient_samples=3)
        args = ((0.1, 0.2), [(0.6, 0.87)], object())
        trainer = CountingServes()
        [rep] = tx.meta_evolve(*args, trainer, cfg)
        n = len(rep.phases)
        assert rep.outcome == "success" and n > 5
        kinds = [[kind for kind, _ in serve] for serve in trainer.serves]
        assert kinds == (
            [[tx.PROBE], [tx.TRAIN]] + [[tx.EVAL, tx.PROBE], [tx.TRAIN]] * (n - 2)
            + [[tx.EVAL, tx.TRAIN]] + [[tx.EVAL]]
        )
        assert [rep] == run_sequentially("meta", *args, CostModelTrainer(), cfg)

    def test_dropped_probe_guess_raises_nothing(self):
        # the gate fails until the phase's budget runs out; every evaluation's
        # guess probes past the phase's end and raises, and is dropped
        cfg = replace(COST_CFG, xi=0.05, max_phase_iterations=3, gradient_samples=3)
        args = ((0.0, 0.5), [(1.0, 0.5)], object())
        trainer = ProbesStuckBeyondTheFirstPhase(xi=cfg.xi)
        [rep] = tx.meta_evolve(*args, trainer, cfg)
        assert rep.outcome == "budget-exhausted" and len(rep.phases) == 1
        assert len(trainer.raised) == cfg.max_phase_iterations
        assert [rep] == run_sequentially(
            "meta", *args, ProbesStuckBeyondTheFirstPhase(xi=cfg.xi), cfg
        )

    def test_probe_guess_failure_is_raised_when_taken(self):
        # the gate passes, so the walk takes the probe guess that raised: the
        # run fails as the run without guesses does
        cfg = replace(COST_CFG, xi=0.05, gradient_samples=3)

        class PassingButStuck(ProbesStuckBeyondTheFirstPhase):
            def evaluate(self, policy, alpha, episodes, seed):
                return EvalResult(success_rate=1.0, sim_episodes=episodes)

        args = ((0.0, 0.5), [(1.0, 0.5)], object(), PassingButStuck(xi=cfg.xi), cfg)
        expected = run_sequentially("meta", *args)
        assert isinstance(expected, PhaseFailureError)
        with pytest.raises(PhaseFailureError) as err:
            tx.meta_evolve(*args)
        assert str(err.value) == str(expected)

    def test_toy_probe_transfer_equals_the_unguessed_run(self):
        # the toy fixtures' transfer with 6 probes per phase (the toy-probe
        # benchmark's command): policies bit-equal to the single-call run
        # without guesses, in at most 270 serve calls (367 without probe
        # guesses)
        problem = cli.load_problem(TOY_FIXTURES)
        cfg = tx.TransferConfig(xi=0.06, p_norm=1, gradient_samples=6)
        args = (problem.source_alpha, problem.target_alphas,
                proportional_policy(1.2, 0.8, 0.12))
        trainer = CountingCalls(ToyMdpTrainer(problem.space, batch_size=12, learning_rate=0.3))
        reports = tx.meta_evolve(*args, trainer, cfg)
        assert trainer.calls <= 270
        expected = run_sequentially("meta", *args, trainer.trainer, cfg)
        assert reports == expected
        for a, b in zip(reports, expected):
            assert np.array_equal(a.policy.weights, b.policy.weights)
            assert np.array_equal(a.policy.log_std, b.policy.log_std)


class TestBudgetExhaustion:
    def test_failed_subtree_does_not_poison_siblings(self):
        cfg = replace(COST_CFG, max_phase_iterations=3)
        src = (0.5, 0.45)
        tgts = [(0.0, 0.45), (1.0, 0.45), (0.5, 0.95)]
        res = tx.meta_evolve(src, tgts, object(), RegionTrainer(), cfg)
        outcomes = {r.target_index: r.outcome for r in res}
        assert outcomes[0] == "success"
        assert outcomes[1] == "success"
        assert outcomes[2] == "budget-exhausted"
        bad = [r for r in res if r.target_index == 2][0]
        assert not bad.phases[-1].reached


class TestDeterminism:
    def test_same_seed_identical_reports(self):
        from evotree.trainers import ToyMdpTrainer, proportional_policy, toy_space

        trainer = ToyMdpTrainer(toy_space(), learning_rate=0.3)
        expert = proportional_policy(1.2, 0.8, 0.12)
        cfg = tx.TransferConfig(
            xi=0.06, p_norm=1, seed=5, max_phase_iterations=100
        )
        src = np.zeros(5)
        src[2:] = 1.0
        tgts = np.array([[0.9, 0.95, 0.1, 0.03, 0.02], [1.0, 0.9, 0.05, 0.0, 0.05]])
        a = tx.meta_evolve(src, tgts, expert, trainer, cfg)
        b = tx.meta_evolve(src, tgts, expert, trainer, cfg)
        for ra, rb in zip(a, b):
            assert ra.phases == rb.phases
            assert ra.outcome == rb.outcome


@dataclass(frozen=True)
class SlopedCostTrainer(CostModelTrainer):
    """Cost trainer whose probes read a linear reward, so every gradient
    step pulls the point off the tree edge it was walking. The slope is
    small against the attraction at a distance of xi (>= 0.05), so walks
    still converge."""

    slope: tuple = (0.018, -0.012, 0.008, 0.006, -0.004, 0.014)

    def gradient_probe(self, policy, alphas, seed):
        pts = np.asarray(alphas)
        return ProbeResult(pts @ np.asarray(self.slope[: pts.shape[1]]), 0)


def resolve_every_phase(engine):
    """Reference L2 planner that never holds a tree: a fresh evolution_tree
    solve on every multi-target phase."""

    def plan(alpha, indices, edge):
        if len(indices) == 1:
            return engine.targets[indices[0]].copy(), [(indices, None)]
        res = evolution_tree(alpha, engine.targets[indices], 2)
        return res.beta_meta, [([indices[i] for i in g], None) for g in res.partition]

    return plan


def count_solves(monkeypatch):
    calls = []
    solve = evo_tree.steiner_tree

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(evo_tree, "steiner_tree", counted)
    return calls


def run_meta(src, tgts, trainer, cfg, plan_fn=None):
    engine, start = tx._start(src, tgts, object(), trainer, cfg)
    if plan_fn:
        engine.plan = plan_fn(engine)
    tx.lockstep(trainer, [(engine, engine.subtree(start))])
    return engine.result


def segment_counts(reports):
    """{segment: (phase count, targets whose path runs through it)}"""
    phases, members = {}, {}
    for rep in reports:
        for ph in rep.phases:
            phases.setdefault(ph.segment, set()).add(ph.phase_id)
            members.setdefault(ph.segment, set()).add(rep.target_index)
    return {seg: (len(phases[seg]), members[seg]) for seg in phases}


class TestTreeWalk:
    L2_CFG = tx.TransferConfig(xi=0.05, p_norm=2, gradient_samples=0)

    def test_one_solve_for_one_to_four(self, monkeypatch):
        src = (0.1, 0.2, 0.1)
        tgts = [(0.9, 0.8, 0.7), (0.8, 0.95, 0.3), (0.2, 0.9, 0.9), (0.95, 0.3, 0.9)]
        calls = count_solves(monkeypatch)
        reports = tx.meta_evolve(src, tgts, object(), CostModelTrainer(), self.L2_CFG)
        assert len(calls) == 1
        assert all(r.outcome == "success" for r in reports)
        # three splits, two of them with a group of two or three walking on
        segments = segment_counts(reports)
        assert len(segments) == 7
        resolved = run_meta(src, tgts, CostModelTrainer(), self.L2_CFG, resolve_every_phase)
        assert segments == segment_counts(resolved)
        # that planner solves on each multi-target phase and at each split
        assert len(calls) - 1 == (16 + 7 + 5) + 3

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 5),
        d=st.integers(2, 6),
        xi=st.sampled_from([0.05, 0.1, 0.2]),
        probes=st.booleans(),
    )
    def test_walk_equals_resolving_every_phase(self, seed, n, d, xi, probes):
        rng = np.random.default_rng(seed)
        src, tgts = rng.random(d), rng.random((n, d))
        cfg = replace(self.L2_CFG, xi=xi, gradient_samples=(d + 1) * probes)
        trainer = SlopedCostTrainer()
        with pytest.MonkeyPatch.context() as mp:
            walked_solves = count_solves(mp)
            walked = run_meta(src, tgts, trainer, cfg)
        with pytest.MonkeyPatch.context() as mp:
            resolved_solves = count_solves(mp)
            resolved = run_meta(src, tgts, trainer, cfg, resolve_every_phase)
        assert segment_counts(walked) == segment_counts(resolved)
        assert tx.aggregate_totals(walked) == tx.aggregate_totals(resolved)
        for a, b in zip(walked, resolved):
            assert a.outcome == b.outcome
            assert [(p.segment, p.phase_index) for p in a.phases] == [
                (p.segment, p.phase_index) for p in b.phases
            ]
            for p, q in zip(a.phases, b.phases):
                assert np.allclose(p.alpha_from, q.alpha_from, rtol=0, atol=1e-9)
                assert np.allclose(p.alpha_to, q.alpha_to, rtol=0, atol=1e-9)
        assert len(walked_solves) <= len(resolved_solves)
        if not probes:
            assert len(walked_solves) == 1

    def test_gradient_step_off_the_edge_resolves(self, monkeypatch):
        src = np.array([0.1, 0.2, 0.1])
        tgts = np.array([(0.9, 0.8, 0.7), (0.8, 0.95, 0.3), (0.2, 0.9, 0.9)])
        cfg = replace(self.L2_CFG, gradient_samples=4)
        engine = tx._Engine(tgts, SlopedCostTrainer(), cfg)
        group = [0, 1, 2]
        beta, [(_, edge)] = engine.plan(src, group, None)
        assert edge is not None and np.array_equal(edge[0].vertices[edge[2]], beta)
        calls = count_solves(monkeypatch)
        # a pure attraction step stays on the edge: the held tree answers
        along = src + cfg.xi * (beta - src) / np.linalg.norm(beta - src)
        beta_along, [(_, edge_along)] = engine.plan(along, group, edge)
        assert not calls and edge_along is edge and np.array_equal(beta_along, beta)
        # a gradient step leaves it: the next plan is a fresh solve
        est = drive(engine.trainer, tx.reward_gradient(object(), tx.probe_points(src, cfg, [0])))
        off = engine.endpoint(src, beta, est.gradient)
        assert np.linalg.norm(np.cross(off - src, beta - src)) > 1e-6
        beta_off, partition = engine.plan(off, group, edge)
        assert len(calls) == 1
        fresh = evolution_tree(off, tgts, 2)
        assert np.array_equal(beta_off, fresh.beta_meta)
        assert partition[0][1][0] is not edge[0]

    def test_heuristic_tree_is_not_walked(self):
        rng = np.random.default_rng(4)
        res = evolution_tree(rng.random(3), rng.random((6, 3)), 2)
        assert not res.tree.exact and res.edges == (None,) * len(res.partition)
        small = evolution_tree(rng.random(3), rng.random((5, 3)), 2)
        assert small.tree.exact and all(e is not None for e in small.edges)
