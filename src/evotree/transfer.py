"""One-to-many policy transfer along evolution trees.

The engine walks the current point through evolution space in steps of
p-norm length xi, retraining the policy each phase until it clears the
success gate on the phase's end robot. The meta point is re-derived every
phase: under L1 by the elementwise clamp, under L2 from the held edge of
an exact tree while the point stays on it (a new solve when a gradient step
leaves the edge, and every phase of a heuristic tree). Reaching a split
point forks the recursion with independent policy copies and RNG streams
per subtree, each walking its own branch. Trunk phases are recorded once
and shared by every report whose path runs through them.

Baselines: independent per-target walks (no sharing), and a single shared
meta robot at the geometric median of {source} union targets.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateDirectionError, InvalidInputError, PhaseFailureError
from .evo_tree import Edge, clamp_meta, evolution_tree, follow_edge
from .geometry import geometric_median, lp_distance
from .trainers import Trainer

ARRIVAL_TOL = 1e-9


@dataclass(frozen=True)
class TransferConfig:
    """Knobs of the per-phase step rule and training gates."""

    xi: float = 0.03
    lambda_: float = 1.0
    p_norm: int = 1
    penalty_norm: int = 2
    success_threshold: float = 0.667
    final_success_threshold: Optional[float] = None  # gate for arrival at a target
    shrink_ratio: float = 0.995
    gradient_samples: int = 0
    max_phase_iterations: int = 200
    eval_episodes: int = 30
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.xi) and self.xi > 0):
            raise InvalidInputError("xi must be positive and finite")
        if not (math.isfinite(self.lambda_) and self.lambda_ >= 1.0):
            raise InvalidInputError("lambda must be finite and >= 1 for convergence")
        if self.p_norm not in (1, 2) or self.penalty_norm not in (1, 2):
            raise InvalidInputError("norms must be 1 or 2")
        if not 0.0 < self.success_threshold < 1.0:
            raise InvalidInputError("success_threshold must be in (0, 1)")
        if self.final_success_threshold is not None and not (
            0.0 < self.final_success_threshold <= 1.0
        ):
            raise InvalidInputError("final_success_threshold must be in (0, 1]")
        if not 0.0 < self.shrink_ratio <= 1.0:
            raise InvalidInputError("shrink_ratio must be in (0, 1]")
        if self.gradient_samples < 0 or self.max_phase_iterations < 1:
            raise InvalidInputError("bad iteration budget")
        if self.eval_episodes < 1:
            raise InvalidInputError("eval_episodes must be >= 1")
        if self.seed < 0:
            raise InvalidInputError("seed must be >= 0")

    @property
    def target_gate(self) -> float:
        if self.final_success_threshold is None:
            return self.success_threshold
        return self.final_success_threshold


# archival hyperparameter table values
TABLE_DEFAULTS = TransferConfig(
    xi=0.03,
    lambda_=1.0,
    success_threshold=0.667,
    shrink_ratio=0.995,
    gradient_samples=72,
)
# alternate tuning from the companion experiment-design writeup
EXPDESIGN_DEFAULTS = replace(TABLE_DEFAULTS, xi=0.06)

PRESETS = {
    "table-defaults": TABLE_DEFAULTS,
    "expdesign-defaults": EXPDESIGN_DEFAULTS,
}


@dataclass(frozen=True)
class PhaseRecord:
    phase_id: int
    segment: tuple[int, ...]  # subtree stream this phase belongs to
    phase_index: int  # position within the segment
    alpha_from: tuple[float, ...]
    alpha_to: tuple[float, ...]
    train_iterations: int
    sim_episodes: int
    final_success_rate: float
    reached: bool


@dataclass(frozen=True)
class TransferReport:
    target_index: int
    target: tuple[float, ...]
    phases: tuple[PhaseRecord, ...]
    outcome: str  # "success" | "budget-exhausted"
    train_iterations: int
    sim_episodes: int
    policy: object = field(repr=False, compare=False, default=None)


def aggregate_totals(reports: Sequence[TransferReport]) -> tuple[int, int]:
    """Totals across reports with shared (trunk) phases counted once."""
    seen: set[int] = set()
    train = 0
    sim = 0
    for rep in reports:
        for ph in rep.phases:
            if ph.phase_id in seen:
                continue
            seen.add(ph.phase_id)
            train += ph.train_iterations
            sim += ph.sim_episodes
    return train, sim


@dataclass(frozen=True)
class GradientEstimate:
    gradient: np.ndarray
    sim_episodes: int


# ---------------------------------------------------------------------------
# Step rule
# ---------------------------------------------------------------------------


def evolution_step(alpha, beta_meta, grad, cfg: TransferConfig) -> np.ndarray:
    """Step of p-norm length xi combining reward gradient and meta attraction.

    The combined direction is grad + the penalty-norm attraction toward the
    meta point. Under p_norm=2 this maximizes the phase objective on the
    xi sphere exactly; under p_norm=1 the budget is spent greedily on the
    strongest coordinates without overshooting the meta point. The returned
    step keeps alpha + step inside [0, 1]^D.
    """
    al = np.asarray(alpha, dtype=float)
    bm = np.asarray(beta_meta, dtype=float)
    g = np.asarray(grad, dtype=float)
    if al.shape != bm.shape or al.shape != g.shape:
        raise InvalidInputError("alpha, beta_meta and grad must share dimension")
    gap = bm - al
    if cfg.penalty_norm == 2:
        attract = cfg.lambda_ * gap
    else:
        attract = cfg.lambda_ * float(np.sum(np.abs(gap))) * np.sign(gap)
    combined = g + attract
    norm = float(np.linalg.norm(combined))
    if norm < 1e-15:
        raise DegenerateDirectionError("combined step direction vanished")
    if cfg.p_norm == 2:
        step = cfg.xi * combined / norm
    else:
        step = np.zeros_like(al)
        budget = cfg.xi
        order = sorted(
            range(len(al)), key=lambda d: (-abs(combined[d]), d)
        )
        for d in order:
            if budget <= 1e-15 or abs(combined[d]) < 1e-15:
                break
            direction = 1.0 if combined[d] > 0 else -1.0
            toward_meta = gap[d] * direction > 0
            cap = abs(gap[d]) if toward_meta else budget
            move = min(budget, cap)
            if move <= 0:
                continue
            step[d] = direction * move
            budget -= move
    clipped = np.clip(al + step, 0.0, 1.0)
    return clipped - al


def shrunk_window_start(alpha_from, alpha_to, shrink_ratio: float, iteration: int):
    """Start of the sampling window after `iteration` shrink steps."""
    a0 = np.asarray(alpha_from, dtype=float)
    a1 = np.asarray(alpha_to, dtype=float)
    return a1 + (a0 - a1) * shrink_ratio**iteration


# ---------------------------------------------------------------------------
# Gradient estimation
# ---------------------------------------------------------------------------


def estimate_reward_gradient(
    trainer: Trainer,
    alpha,
    policy,
    cfg: TransferConfig,
    seed_material: Sequence[int] = (),
) -> GradientEstimate:
    """Least-squares fit of return differences against coordinate perturbations.

    gradient_samples perturbations of radius xi/2 (projected back into
    [0, 1]^D) are probed in one batch with the base point as row 0, all on
    one shared seed so common noise cancels. gradient_samples=0 disables
    the estimate.
    """
    al = np.asarray(alpha, dtype=float)
    d = len(al)
    if cfg.gradient_samples == 0:
        return GradientEstimate(np.zeros(d), 0)
    if cfg.gradient_samples < d + 1:
        raise InvalidInputError(
            f"gradient_samples must be 0 or >= D + 1 = {d + 1}"
        )
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, 0x6E5D, *map(int, seed_material)])
    )
    points = [al]
    for _ in range(cfg.gradient_samples):
        direction = rng.standard_normal(d)
        direction /= max(float(np.linalg.norm(direction)), 1e-12)
        points.append(np.clip(al + (cfg.xi / 2.0) * direction, 0.0, 1.0))
    points = np.asarray(points)
    try:
        out = trainer.gradient_probe(policy, points, seed=[cfg.seed, 0x6E5D, 0])
    except Exception as exc:
        raise PhaseFailureError(
            f"gradient probe failed on the base point or one of its "
            f"{cfg.gradient_samples} perturbations: {exc}"
        ) from exc
    returns = np.asarray(out.mean_return)
    grad, *_ = np.linalg.lstsq(points[1:] - al, returns[1:] - returns[0], rcond=None)
    return GradientEstimate(grad, out.sim_episodes)


# ---------------------------------------------------------------------------
# Phase training
# ---------------------------------------------------------------------------


def phase_train(
    trainer: Trainer,
    alpha_from,
    alpha_to,
    policy,
    cfg: TransferConfig,
    *,
    gate: Optional[float] = None,
    seed_material: Sequence[int] = (),
    extra_episodes: int = 0,
) -> tuple[object, int, int, float, bool]:
    """Train on the shrinking window until the end robot clears the gate.

    Samples one robot per iteration uniformly from the trailing window,
    which contracts toward alpha_to by shrink_ratio per iteration. Returns
    (policy, train_iterations, sim_episodes, final_success_rate, reached).
    """
    a0 = np.asarray(alpha_from, dtype=float)
    a1 = np.asarray(alpha_to, dtype=float)
    threshold = cfg.success_threshold if gate is None else gate
    # arrival gates use a triple-size evaluation so a pass means the target
    # success level actually holds, not a small-sample fluke
    eval_episodes = cfg.eval_episodes if gate is None else 3 * cfg.eval_episodes
    ss = np.random.SeedSequence([cfg.seed, 0x9A5E, *map(int, seed_material)])
    rng = np.random.default_rng(ss)
    iterations = 0
    episodes = extra_episodes
    success = 0.0
    for t in range(cfg.max_phase_iterations):
        start = shrunk_window_start(a0, a1, cfg.shrink_ratio, t)
        u = rng.random()
        sample = a1 + u * (start - a1)
        out = trainer.train_step(
            policy, sample, seed=[cfg.seed, 0x9A5E, *map(int, seed_material), t, 0]
        )
        policy = out.policy
        iterations += out.train_iterations
        episodes += out.sim_episodes
        ev = trainer.evaluate(
            policy,
            a1,
            eval_episodes,
            seed=[cfg.seed, 0x9A5E, *map(int, seed_material), t, 1],
        )
        episodes += ev.sim_episodes
        success = ev.success_rate
        if not math.isfinite(success):
            raise PhaseFailureError("trainer reported non-finite success rate")
        if success >= threshold:
            return policy, iterations, episodes, success, True
    return policy, iterations, episodes, success, False


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class _Engine:
    def __init__(self, targets: np.ndarray, trainer: Trainer, cfg: TransferConfig):
        self.targets = targets
        self.trainer = trainer
        self.cfg = cfg
        self.phase_counter = 0
        self.reports: dict[int, TransferReport] = {}
        # generous global guard against re-planning livelock
        total_span = float(len(targets) + 1) * targets.shape[1]
        self.max_phases = int(4 * total_span / cfg.xi) + 256

    # -- planning ----------------------------------------------------------

    def plan(self, alpha: np.ndarray, indices: list[int], edge: Optional[Edge]):
        """(beta_meta, [(group of `indices`, edge it walks next)]) for alpha.

        While alpha stays on the held `edge`, its tree answers without a new solve.
        """
        tg = self.targets[indices]
        if len(indices) == 1:
            return self.targets[indices[0]].copy(), [(indices, None)]
        if self.cfg.p_norm == 1:
            beta = clamp_meta(alpha, tg)
            if lp_distance(alpha, beta, 1) > ARRIVAL_TOL:
                return beta, [(indices, None)]
        res = (edge and follow_edge(edge, alpha, tg)) or evolution_tree(
            alpha, tg, self.cfg.p_norm
        )
        groups = [[indices[i] for i in group] for group in res.partition]
        return res.beta_meta, list(zip(groups, res.edges))

    # -- phases ------------------------------------------------------------

    def step_toward(
        self,
        alpha: np.ndarray,
        beta: np.ndarray,
        policy,
        stream: tuple[int, ...],
        local_index: int,
    ) -> tuple[np.ndarray, int]:
        """Next phase endpoint toward beta, plus gradient-probe episode cost."""
        if lp_distance(alpha, beta, self.cfg.p_norm) < self.cfg.xi:
            return beta.copy(), 0
        grad = np.zeros(len(alpha))
        grad_episodes = 0
        if self.cfg.gradient_samples > 0:
            est = estimate_reward_gradient(
                self.trainer,
                alpha,
                policy,
                self.cfg,
                seed_material=[*stream, local_index],
            )
            grad = est.gradient
            grad_episodes = est.sim_episodes
        try:
            step = evolution_step(alpha, beta, grad, self.cfg)
        except DegenerateDirectionError:
            step = evolution_step(alpha, beta, np.zeros(len(alpha)), self.cfg)
        return alpha + step, grad_episodes

    def run_phase(
        self,
        alpha: np.ndarray,
        nxt: np.ndarray,
        policy,
        stream: tuple[int, ...],
        local_index: int,
        prefix: list[PhaseRecord],
        gate: Optional[float],
        extra_episodes: int = 0,
    ) -> tuple[np.ndarray, object, bool]:
        if self.phase_counter >= self.max_phases:
            raise PhaseFailureError("phase budget guard tripped (re-plan livelock?)")
        phase_id = self.phase_counter
        self.phase_counter += 1
        policy, iters, episodes, success, reached = phase_train(
            self.trainer,
            alpha,
            nxt,
            policy,
            self.cfg,
            gate=gate,
            seed_material=[*stream, local_index],
            extra_episodes=extra_episodes,
        )
        record = PhaseRecord(
            phase_id=phase_id,
            segment=stream,
            phase_index=local_index,
            alpha_from=tuple(float(x) for x in alpha),
            alpha_to=tuple(float(x) for x in nxt),
            train_iterations=iters,
            sim_episodes=episodes,
            final_success_rate=success,
            reached=reached,
        )
        prefix.append(record)
        return nxt, policy, reached

    # -- reporting ---------------------------------------------------------

    def emit(self, index: int, prefix: list[PhaseRecord], outcome: str, policy):
        phases = tuple(prefix)
        self.reports[index] = TransferReport(
            target_index=index,
            target=tuple(float(x) for x in self.targets[index]),
            phases=phases,
            outcome=outcome,
            train_iterations=sum(p.train_iterations for p in phases),
            sim_episodes=sum(p.sim_episodes for p in phases),
            policy=policy,
        )

    # -- recursion ---------------------------------------------------------

    def transfer(
        self,
        alpha: np.ndarray,
        policy,
        indices: list[int],
        stream: tuple[int, ...],
        prefix: list[PhaseRecord],
        plan_fn: Optional[Callable] = None,
        edge: Optional[Edge] = None,
    ) -> None:
        alpha = alpha.copy()
        local_index = 0
        plan = plan_fn or self.plan
        while True:
            live = []
            for i in indices:
                if lp_distance(alpha, self.targets[i], self.cfg.p_norm) <= ARRIVAL_TOL:
                    self.emit(i, prefix, "success", copy.deepcopy(policy))
                else:
                    live.append(i)
            indices = live
            if not indices:
                return
            beta, partition = plan(alpha, indices, edge)
            if lp_distance(alpha, beta, self.cfg.p_norm) <= ARRIVAL_TOL:
                if len(partition) <= 1:
                    raise PhaseFailureError(
                        "planner stalled: split point with a single group"
                    )
                # split point: fork one subtree per group, on its own branch
                for k, (group, branch) in enumerate(partition):
                    child_policy = copy.deepcopy(policy)
                    self.transfer(
                        alpha,
                        child_policy,
                        list(group),
                        stream + (k,),
                        list(prefix),
                        plan_fn,
                        branch,
                    )
                return
            edge = partition[0][1]
            nxt, grad_episodes = self.step_toward(
                alpha, beta, policy, stream, local_index
            )
            # a phase ending on a target robot trains to the arrival gate
            gate = None
            for i in indices:
                if (
                    lp_distance(nxt, self.targets[i], self.cfg.p_norm)
                    <= ARRIVAL_TOL
                ):
                    gate = self.cfg.target_gate
                    break
            alpha, policy, reached = self.run_phase(
                alpha,
                nxt,
                policy,
                stream,
                local_index,
                prefix,
                gate,
                extra_episodes=grad_episodes,
            )
            local_index += 1
            if not reached:
                for i in indices:
                    self.emit(i, prefix, "budget-exhausted", copy.deepcopy(policy))
                return


def _as_alpha(point, name: str) -> np.ndarray:
    arr = np.asarray(point, dtype=float)
    if arr.ndim != 1:
        raise InvalidInputError(f"{name} must be a coordinate vector")
    if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
        raise InvalidInputError(f"{name} must lie in [0, 1]^D")
    return np.clip(arr, 0.0, 1.0)


def _prepare(source, targets) -> tuple[np.ndarray, np.ndarray]:
    src = _as_alpha(source, "source")
    tg = np.asarray(targets, dtype=float)
    if tg.ndim == 1:
        tg = tg[None, :]
    if tg.shape[0] < 1 or tg.shape[1] != len(src):
        raise InvalidInputError("targets must be non-empty and match source dimension")
    tg = np.vstack([_as_alpha(t, "target") for t in tg])
    return src, tg


def _sorted_reports(engine: _Engine, n: int) -> list[TransferReport]:
    return [engine.reports[i] for i in range(n)]


def meta_evolve(
    source, targets, expert_policy, trainer: Trainer, cfg: TransferConfig
) -> list[TransferReport]:
    """Recursive one-to-many transfer along the evolution tree (path sharing)."""
    src, tg = _prepare(source, targets)
    engine = _Engine(tg, trainer, cfg)
    engine.transfer(src, copy.deepcopy(expert_policy), list(range(len(tg))), (), [])
    return _sorted_reports(engine, len(tg))


def _plan_to(target: np.ndarray) -> Callable:
    """Planner whose meta point is always `target`."""
    return lambda alpha, indices, edge: (target.copy(), [(indices, None)])


def herd_baseline(
    source, targets, expert_policy, trainer: Trainer, cfg: TransferConfig
) -> list[TransferReport]:
    """Independent one-to-one transfers: the meta point is always the target."""
    src, tg = _prepare(source, targets)
    engine = _Engine(tg, trainer, cfg)
    for i in range(len(tg)):
        engine.transfer(
            src, copy.deepcopy(expert_policy), [i], (i,), [], plan_fn=_plan_to(tg[i])
        )
    return _sorted_reports(engine, len(tg))


def geom_median_baseline(
    source, targets, expert_policy, trainer: Trainer, cfg: TransferConfig
) -> list[TransferReport]:
    """One shared meta robot at the geometric median of {source} union targets."""
    src, tg = _prepare(source, targets)
    engine = _Engine(tg, trainer, cfg)
    median = geometric_median(np.vstack([src[None, :], tg]), cfg.p_norm)
    median = np.clip(median, 0.0, 1.0)

    trunk_prefix: list[PhaseRecord] = []
    policy = copy.deepcopy(expert_policy)
    alpha = src.copy()
    trunk_ok = True
    local = 0
    while lp_distance(alpha, median, cfg.p_norm) > ARRIVAL_TOL:
        nxt, grad_episodes = engine.step_toward(alpha, median, policy, (), local)
        alpha, policy, reached = engine.run_phase(
            alpha, nxt, policy, (), local, trunk_prefix, None,
            extra_episodes=grad_episodes,
        )
        local += 1
        if not reached:
            trunk_ok = False
            break
    if not trunk_ok:
        for i in range(len(tg)):
            engine.emit(i, trunk_prefix, "budget-exhausted", copy.deepcopy(policy))
        return _sorted_reports(engine, len(tg))
    for i in range(len(tg)):
        engine.transfer(
            alpha,
            copy.deepcopy(policy),
            [i],
            (i + 1,),
            list(trunk_prefix),
            plan_fn=_plan_to(tg[i]),
        )
    return _sorted_reports(engine, len(tg))
