"""One-to-many policy transfer along evolution trees.

The engine walks a point through evolution space in steps of p-norm length
xi, retraining the policy each phase until it clears the success gate on the
phase's end robot. The meta point is re-derived every phase: under L1 by the
elementwise clamp, under L2 from the held edge of an exact tree while the
point stays on it (a new solve when a gradient step leaves the edge, and
every phase of a heuristic tree).

Every walk is a stream: its point, policy, live targets, held edge and the
phases behind it. A stream runs phases until its targets are done, or until
it stands on its meta point; there it splits into one child stream per
group, each with its own policy copy and RNG streams. All live streams run
in lockstep: a walk is a generator of trainer requests, and each round the
engine serves every stream's gradient probe in one batched trainer call,
every stream's train step in another and every stream's evaluation in a
third. Phase ids are given once the streams are done, in (segment,
phase_index) order. Trunk phases are recorded once
and shared by every report through them.

The baselines run on the same walk: herd as one stream per target (no
sharing), geom-median as one trunk to the geometric median of {source} union
targets that then splits into one stream per target.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateDirectionError, InvalidInputError, PhaseFailureError
from .evo_tree import Edge, clamp_meta, evolution_tree, follow_edge
from .geometry import _lp, geometric_median
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
    """One training phase of a stream.

    The engine makes each record with phase_id -1 while its stream runs and
    sets the id once, in _Engine.numbered, after every stream is done and
    before any report leaves the engine; no record is hashed before that.
    """

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
    phases = {ph.phase_id: ph for rep in reports for ph in rep.phases}.values()
    return sum(p.train_iterations for p in phases), sum(p.sim_episodes for p in phases)


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


# requests the engine's generators yield, each with one job for the trainer
PROBE = "probe"  # job (policy, alphas, seed) for gradient_probe / gradient_probes
TRAIN = "train"  # job (policy, alpha, seed) for train_step / train_steps
EVAL = "eval"  # job (policy, alpha, episodes, seed) for evaluate / evaluates


def reward_gradient(alpha, policy, cfg: TransferConfig, seed_material: Sequence[int] = ()):
    """Least-squares fit of return differences against coordinate perturbations.

    gradient_samples perturbations of radius xi/2 (projected back into
    [0, 1]^D) are probed in one batch with the base point as row 0, all on
    one shared seed so common noise cancels. A generator: yields
    (PROBE, job) and is sent the job's ProbeResult; returns a
    GradientEstimate. gradient_samples=0 disables the estimate: it returns
    a zero gradient without a request.
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
    out = yield PROBE, (policy, points, [cfg.seed, 0x6E5D, 0])
    returns = np.asarray(out.mean_return)
    grad, *_ = np.linalg.lstsq(points[1:] - al, returns[1:] - returns[0], rcond=None)
    return GradientEstimate(grad, out.sim_episodes)


def gradient_probes(trainer: Trainer, jobs) -> list:
    """trainer.gradient_probes(jobs), a trainer failure raised as PhaseFailureError."""
    try:
        return trainer.gradient_probes(jobs)
    except Exception as exc:
        raise PhaseFailureError(
            f"gradient probe failed on a base point or one of its perturbations: {exc}"
        ) from exc


def estimate_reward_gradient(
    trainer: Trainer,
    alpha,
    policy,
    cfg: TransferConfig,
    seed_material: Sequence[int] = (),
) -> GradientEstimate:
    """reward_gradient's estimate, its probe sent to the trainer on its own."""
    requests = reward_gradient(alpha, policy, cfg, seed_material)
    try:
        _, job = next(requests)
        requests.send(gradient_probes(trainer, [job])[0])
    except StopIteration as done:
        return done.value


# ---------------------------------------------------------------------------
# Phase training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseOutcome:
    policy: object
    train_iterations: int
    sim_episodes: int
    final_success_rate: float
    reached: bool


def phase_train(
    alpha_from,
    alpha_to,
    policy,
    cfg: TransferConfig,
    *,
    gate: Optional[float] = None,
    seed_material: Sequence[int] = (),
):
    """Train on the shrinking window until the end robot clears the gate.

    Samples one robot per iteration uniformly from the trailing window,
    which contracts toward alpha_to by shrink_ratio per iteration. A
    generator: each iteration yields (TRAIN, job) and is sent the job's
    TrainStepResult, then yields (EVAL, job) and is sent its EvalResult.
    Returns a PhaseOutcome.
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
    episodes = 0
    success = 0.0
    for t in range(cfg.max_phase_iterations):
        start = shrunk_window_start(a0, a1, cfg.shrink_ratio, t)
        u = rng.random()
        sample = a1 + u * (start - a1)
        seed = [cfg.seed, 0x9A5E, *map(int, seed_material), t]
        out = yield TRAIN, (policy, sample, [*seed, 0])
        policy = out.policy
        iterations += out.train_iterations
        episodes += out.sim_episodes
        ev = yield EVAL, (policy, a1, eval_episodes, [*seed, 1])
        episodes += ev.sim_episodes
        success = ev.success_rate
        if not math.isfinite(success):
            raise PhaseFailureError("trainer reported non-finite success rate")
        if success >= threshold:
            return PhaseOutcome(policy, iterations, episodes, success, True)
    return PhaseOutcome(policy, iterations, episodes, success, False)


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

# runs whose phase guard would allow this many phases are refused up front
MAX_PHASE_GUARD = 10**7


@dataclass
class _Stream:
    """One walk of the engine: where it stands, the targets still
    ahead of it and the phases behind it (shared with its parent's paths)."""

    segment: tuple[int, ...]
    alpha: np.ndarray
    policy: object
    indices: list[int]
    prefix: list[PhaseRecord]
    edge: Optional[Edge] = None  # tree edge the stream walks, if any
    phase_index: int = 0

    def fork(self, segment: tuple[int, ...], indices, edge=None) -> _Stream:
        """A stream starting where this one stands, on its own policy copy."""
        policy, prefix = copy.deepcopy(self.policy), list(self.prefix)
        return _Stream(segment, self.alpha, policy, list(indices), prefix, edge)


class _Engine:
    def __init__(self, targets: np.ndarray, trainer: Trainer, cfg: TransferConfig):
        self.targets = targets
        self.trainer = trainer
        self.cfg = cfg
        self.phases = 0  # phases started, for the livelock guard
        self.reports: dict[int, TransferReport] = {}
        # generous global guard against re-planning livelock
        total_span = float(len(targets) + 1) * targets.shape[1]
        guard = 4 * total_span / cfg.xi
        if not guard < MAX_PHASE_GUARD:
            raise InvalidInputError(
                f"xi = {cfg.xi!r} is too small: the phase guard would allow "
                f"{guard:.3g} phases, limit {MAX_PHASE_GUARD:.0e}"
            )
        self.max_phases = int(guard) + 256

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
            if _lp(alpha, beta, 1) > ARRIVAL_TOL:
                return beta, [(indices, None)]
        res = (edge and follow_edge(edge, alpha, tg)) or evolution_tree(
            alpha, tg, self.cfg.p_norm
        )
        groups = [[indices[i] for i in group] for group in res.partition]
        return res.beta_meta, list(zip(groups, res.edges))

    # -- phases ------------------------------------------------------------

    def step_toward(self, s: _Stream, beta: np.ndarray):
        """Next phase endpoint from s toward beta, plus gradient-probe episode
        cost. A generator of reward_gradient's trainer request."""
        if _lp(s.alpha, beta, self.cfg.p_norm) < self.cfg.xi:
            return beta.copy(), 0
        est = yield from reward_gradient(
            s.alpha, s.policy, self.cfg, [*s.segment, s.phase_index]
        )
        try:
            step = evolution_step(s.alpha, beta, est.gradient, self.cfg)
        except DegenerateDirectionError:
            step = evolution_step(s.alpha, beta, np.zeros(len(s.alpha)), self.cfg)
        return s.alpha + step, est.sim_episodes

    def walk(self, s: _Stream, plan: Callable):
        """Run s's phases until its targets are done (None) or it stands on
        its meta point (the planner's partition there). A generator of
        the probe's and phase_train's trainer requests."""
        p = self.cfg.p_norm
        while True:
            arrived = [
                i for i in s.indices
                if _lp(s.alpha, self.targets[i], p) <= ARRIVAL_TOL
            ]
            self.emit(s, arrived, "success")
            s.indices = [i for i in s.indices if i not in arrived]
            if not s.indices:
                return None
            beta, partition = plan(s.alpha, s.indices, s.edge)
            if _lp(s.alpha, beta, p) <= ARRIVAL_TOL:
                return partition
            s.edge = partition[0][1]
            nxt, probe_episodes = yield from self.step_toward(s, beta)
            # a phase ending on a target robot trains to the arrival gate
            arriving = any(
                _lp(nxt, self.targets[i], p) <= ARRIVAL_TOL for i in s.indices
            )
            if self.phases >= self.max_phases:
                raise PhaseFailureError(
                    "phase budget guard tripped (re-plan livelock?)"
                )
            self.phases += 1
            out = yield from phase_train(
                s.alpha,
                nxt,
                s.policy,
                self.cfg,
                gate=self.cfg.target_gate if arriving else None,
                seed_material=[*s.segment, s.phase_index],
            )
            s.policy = out.policy
            s.prefix.append(
                PhaseRecord(
                    phase_id=-1,  # numbered once every stream is done
                    segment=s.segment,
                    phase_index=s.phase_index,
                    alpha_from=tuple(float(x) for x in s.alpha),
                    alpha_to=tuple(float(x) for x in nxt),
                    train_iterations=out.train_iterations,
                    sim_episodes=probe_episodes + out.sim_episodes,
                    final_success_rate=out.final_success_rate,
                    reached=out.reached,
                )
            )
            s.alpha = nxt
            s.phase_index += 1
            if not out.reached:
                self.emit(s, s.indices, "budget-exhausted")
                return None

    def subtree(self, s: _Stream):
        """Walk s on the engine's own planner; return the child streams it
        splits into on its meta point, one per group (none if it is done)."""
        partition = yield from self.walk(s, self.plan)
        if partition is None:
            return []
        if len(partition) <= 1:
            raise PhaseFailureError(
                "planner stalled: split point with a single group"
            )
        return [
            s.fork(s.segment + (k,), group, branch)
            for k, (group, branch) in enumerate(partition)
        ]

    def run(self, walks: list) -> list[TransferReport]:
        """Drive the walks in lockstep; returns every target's report, in
        target order.

        A walk yields its trainer requests and returns the child streams it
        splits into, which join at once, each as a subtree. Every round
        sends all pending probe requests as one gradient_probes call, then
        all pending train requests as one train_steps call, then all pending
        eval requests as one evaluates call. A stream draws only on
        its own seeds, so the order streams run in changes no result; phase
        ids are given at the end, in (segment, phase_index) order.
        """
        pending = {}  # walk -> its pending (kind, job)
        for walk in walks:
            self.advance(pending, walk, None)
        rounds = (
            (PROBE, lambda jobs: gradient_probes(self.trainer, jobs)),
            (TRAIN, self.trainer.train_steps),
            (EVAL, self.trainer.evaluates),
        )
        while pending:
            for kind, call in rounds:
                batch = [(walk, job) for walk, (k, job) in pending.items() if k == kind]
                if batch:
                    results = call([job for _, job in batch])
                    for (walk, _), result in zip(batch, results):
                        self.advance(pending, walk, result)
        return self.numbered()

    def advance(self, pending: dict, walk, result) -> None:
        """Send result to walk and record its next request in pending; a
        finished walk's children start at once. A method, because a closure
        that calls itself is a reference cycle: it would keep the engine and
        every report alive until a gc pass."""
        try:
            pending[walk] = walk.send(result)
        except StopIteration as done:
            pending.pop(walk, None)
            for child in done.value:
                self.advance(pending, self.subtree(child), None)

    # -- reporting ---------------------------------------------------------

    def emit(self, s: _Stream, indices: list[int], outcome: str):
        for i in indices:
            phases = tuple(s.prefix)
            self.reports[i] = TransferReport(
                target_index=i,
                target=tuple(float(x) for x in self.targets[i]),
                phases=phases,
                outcome=outcome,
                train_iterations=sum(p.train_iterations for p in phases),
                sim_episodes=sum(p.sim_episodes for p in phases),
                policy=copy.deepcopy(s.policy),
            )

    def numbered(self) -> list[TransferReport]:
        """The reports in target order, once every phase has its id, given
        in (segment, phase_index) order."""
        phases = {
            (p.segment, p.phase_index): p
            for rep in self.reports.values() for p in rep.phases
        }
        assert all(p.phase_id == -1 for p in phases.values()), "phases numbered twice"
        for i, key in enumerate(sorted(phases)):
            # the one late field of a frozen record, not yet seen outside the engine
            object.__setattr__(phases[key], "phase_id", i)
        return [self.reports[i] for i in range(len(self.targets))]


def _as_alpha(point, name: str) -> np.ndarray:
    arr = np.asarray(point, dtype=float)
    if arr.ndim != 1:
        raise InvalidInputError(f"{name} must be a coordinate vector")
    if np.any(arr < -1e-12) or np.any(arr > 1.0 + 1e-12):
        raise InvalidInputError(f"{name} must lie in [0, 1]^D")
    return np.clip(arr, 0.0, 1.0)


def _start(source, targets, expert_policy, trainer, cfg) -> tuple[_Engine, _Stream]:
    """An engine over the targets, and a stream of all of them standing on the
    source with the expert policy (not a copy: walks fork from it)."""
    src = _as_alpha(source, "source")
    tg = np.asarray(targets, dtype=float)
    if tg.ndim == 1:
        tg = tg[None, :]
    if tg.shape[0] < 1 or tg.shape[1] != len(src):
        raise InvalidInputError("targets must be non-empty and match source dimension")
    tg = np.vstack([_as_alpha(t, "target") for t in tg])
    engine = _Engine(tg, trainer, cfg)
    return engine, _Stream((), src, expert_policy, list(range(len(tg))), [])


def meta_evolve(
    source, targets, expert_policy, trainer: Trainer, cfg: TransferConfig
) -> list[TransferReport]:
    """One-to-many transfer along the evolution tree (path sharing)."""
    engine, start = _start(source, targets, expert_policy, trainer, cfg)
    return engine.run([engine.subtree(start.fork((), start.indices))])


def herd_baseline(
    source, targets, expert_policy, trainer: Trainer, cfg: TransferConfig
) -> list[TransferReport]:
    """Independent one-to-one transfers: the meta point is always the target."""
    engine, start = _start(source, targets, expert_policy, trainer, cfg)
    return engine.run([engine.subtree(start.fork((i,), [i])) for i in start.indices])


def geom_median_baseline(
    source, targets, expert_policy, trainer: Trainer, cfg: TransferConfig
) -> list[TransferReport]:
    """One shared meta robot at the geometric median of {source} union targets."""
    engine, start = _start(source, targets, expert_policy, trainer, cfg)
    points = np.vstack([start.alpha[None, :], engine.targets])
    median = np.clip(geometric_median(points, cfg.p_norm), 0.0, 1.0)
    trunk = start.fork((), start.indices)

    def walk_trunk():
        """To the median on a fixed meta point, then one stream per target."""
        on_median = yield from engine.walk(
            trunk, lambda alpha, indices, edge: (median, [(indices, None)])
        )
        return [trunk.fork((i + 1,), [i]) for i in trunk.indices] if on_median else []

    return engine.run([walk_trunk()])
