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
in lockstep: a walk is a generator that yields lists of trainer requests,
as Trainer.serve takes them, and is sent serve's results; each round,
lockstep serves every stream's pending list in one serve call, also across
the engines of a compare's methods. A stream plans its next phase as soon
as its current phase's endpoint is fixed, so each evaluation rides with a
guess at the next phase's first request (its gradient probe, or else its
first train step), whose result that phase uses if the gate passes. Each
engine gives its phase ids once its streams are done, in (segment,
phase_index) order. Trunk phases
are recorded once and shared by every report through them.

The baselines run on the same walk: herd as one stream per target (no
sharing), geom-median as one trunk to the geometric median of {source} union
targets that then splits into one stream per target.
"""

from __future__ import annotations

import copy
import math
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateDirectionError, InvalidInputError, PhaseFailureError
from .evo_tree import Edge, _as_targets, clamp_meta, evolution_tree, follow_edge
from .geometry import COINCIDE_TOL, _lp, geometric_median
from .trainers import EVAL, PROBE, SIM_MAX_BYTES, TRAIN, Trainer, seeded_rng


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


# archival hyperparameter table: the defaults and 72 gradient samples; expdesign doubles xi
PRESETS = {
    "table-defaults": replace(TransferConfig(), gradient_samples=72),
    "expdesign-defaults": replace(TransferConfig(), gradient_samples=72, xi=0.06),
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
    pull = gap if cfg.penalty_norm == 2 else float(np.sum(np.abs(gap))) * np.sign(gap)
    with np.errstate(over="ignore"):  # an overflow is handled below
        combined = g + cfg.lambda_ * pull
        norm = math.sqrt(combined.dot(combined))  # np.linalg.norm's sum, for 1-D
    if norm < 1e-15:
        raise DegenerateDirectionError("combined step direction vanished")
    if not math.isfinite(norm):
        # the attraction or its norm overflowed: the same direction, divided
        # by lambda and the largest gradient entry
        scale = max(cfg.lambda_, float(np.max(np.abs(g))))
        combined = g / scale + (cfg.lambda_ / scale) * pull
        norm = math.sqrt(combined.dot(combined))
    if cfg.p_norm == 2:
        step = cfg.xi * combined / norm
    else:
        c, gp, step = combined.tolist(), gap.tolist(), [0.0] * len(al)
        budget = cfg.xi
        for d in sorted(range(len(c)), key=lambda d: (-abs(c[d]), d)):
            if budget <= 1e-15 or abs(c[d]) < 1e-15:
                break
            direction = 1.0 if c[d] > 0 else -1.0
            cap = abs(gp[d]) if gp[d] * direction > 0 else budget  # toward the meta point
            move = min(budget, cap)
            step[d] = direction * move
            budget -= move
    clipped = (al + step).clip(0.0, 1.0)  # np.clip's ufunc, without its dispatch
    return clipped - al


# ---------------------------------------------------------------------------
# Gradient estimation
# ---------------------------------------------------------------------------


def probe_points(alpha, cfg: TransferConfig, seed_material: Sequence[int] = ()):
    """A gradient probe at alpha, as (points, seed): gradient_samples
    perturbations of radius xi/2 (projected back into [0, 1]^D) with the base
    point as row 0, all on one shared seed so common noise cancels. Directions
    come from np.random.default_rng([cfg.seed, 0x6E5D, *seed_material]). A probe
    whose points alone exceed the probe-size limit (SIM_MAX_BYTES, for every
    trainer) is refused before it is drawn."""
    al = np.asarray(alpha, dtype=float)
    d = len(al)
    if cfg.gradient_samples < d + 1:
        raise InvalidInputError(
            f"gradient_samples must be 0 or >= D + 1 = {d + 1}"
        )
    points_bytes = 8 * (cfg.gradient_samples + 1) * d
    if points_bytes > SIM_MAX_BYTES:
        raise InvalidInputError(
            f"gradient_samples = {cfg.gradient_samples}: probe points would need "
            f"{points_bytes / 2**20:.0f} MiB, over the {SIM_MAX_BYTES // 2**20} MiB limit"
        )
    rng = seeded_rng([cfg.seed, 0x6E5D, *map(int, seed_material)])
    directions = rng.standard_normal((cfg.gradient_samples, d))
    # batched matmul takes the same dot product as np.linalg.norm, so each
    # row is scaled by the bits of its own norm
    norms = np.sqrt((directions[:, None, :] @ directions[:, :, None])[:, 0, 0])
    directions /= np.maximum(norms, 1e-12)[:, None]
    points = np.vstack([al, np.clip(al + (cfg.xi / 2.0) * directions, 0.0, 1.0)])
    return points, [cfg.seed, 0x6E5D, 0]


def reward_gradient(policy, probe, first=None):
    """Least-squares fit of return differences against coordinate
    perturbations, on probe_points' (points, seed). A generator: yields
    [(PROBE, job)] and is sent [its result], unless given that result
    guessed earlier as first; returns a GradientEstimate."""
    if first is None:
        [first] = yield [(PROBE, (policy, *probe))]
    out, points = taken(PROBE, first), probe[0]
    returns = np.asarray(out.mean_return)
    grad, *_ = np.linalg.lstsq(points[1:] - points[0], returns[1:] - returns[0], rcond=None)
    return GradientEstimate(grad, out.sim_episodes)


def taken(kind, result):
    """A served result as its request's answer: a trainer's exception is
    raised here, a probe's (other than invalid input) as PhaseFailureError."""
    if not isinstance(result, Exception):
        return result
    if kind == PROBE and not isinstance(result, InvalidInputError):
        raise PhaseFailureError(
            f"gradient probe failed on a base point or one of its perturbations: {result}"
        ) from result
    raise result


def estimate_reward_gradient(
    trainer: Trainer,
    alpha,
    policy,
    cfg: TransferConfig,
    seed_material: Sequence[int] = (),
) -> GradientEstimate:
    """reward_gradient's estimate, its probe served alone; zero if gradient_samples is 0."""
    if cfg.gradient_samples == 0:
        return GradientEstimate(np.zeros(len(alpha)), 0)
    walk = reward_gradient(policy, probe_points(alpha, cfg, seed_material))
    try:
        walk.send(trainer.serve(next(walk)))
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
    guessed: object = None  # the result of the next phase's first request, if guessed


def phase_window(alpha_from, alpha_to, cfg: TransferConfig, seed_material: Sequence[int] = ()):
    """A phase's first train job's window sample and seed, and the phase's RNG,
    np.random.default_rng([cfg.seed, 0x9A5E, *seed_material]), past that draw."""
    seed = [cfg.seed, 0x9A5E, *map(int, seed_material)]
    rng = seeded_rng(seed)
    return window_sample(alpha_from, alpha_to, cfg, rng, 0), [*seed, 0, 0], rng


def window_sample(a0, a1, cfg: TransferConfig, rng, t: int) -> np.ndarray:
    """Iteration t's robot, drawn uniformly from the window's trailing part,
    which starts at a0 and contracts toward a1 by shrink_ratio per iteration."""
    start = a1 + (a0 - a1) * cfg.shrink_ratio**t
    u = rng.random()
    return a1 + u * (start - a1)


def phase_train(
    alpha_from,
    alpha_to,
    policy,
    cfg: TransferConfig,
    *,
    arrival: bool = False,
    seed_material: Sequence[int] = (),
    window=None,
    guess=None,
    first=None,
):
    """Train on the shrinking window until the end robot clears the gate.

    Samples one robot per iteration uniformly from the trailing window,
    which contracts toward alpha_to by shrink_ratio per iteration. A phase
    ending on a target robot (arrival) trains to final_success_threshold,
    when set, on a triple-size evaluation, so a pass means the target
    success level actually holds, not a small-sample fluke. A generator:
    each iteration yields [(TRAIN, job)], then [(EVAL, job)], and is sent
    the list of their results. Returns a PhaseOutcome.

    window is this phase's phase_window, made here when None; first is the
    result of its first train job, if guessed earlier. guess, the next
    phase's first request without its policy ((kind, args), or None), is
    made with the policy just trained in each evaluation's list: the request
    that phase starts with if that policy passes the gate. A passing outcome
    carries its result as `guessed`; a failing gate drops it.
    """
    a0 = np.asarray(alpha_from, dtype=float)
    a1 = np.asarray(alpha_to, dtype=float)
    threshold = (arrival and cfg.final_success_threshold) or cfg.success_threshold
    eval_episodes = 3 * cfg.eval_episodes if arrival else cfg.eval_episodes
    sample, train_seed, rng = window or phase_window(a0, a1, cfg, seed_material)
    seed = train_seed[:-2]
    iterations = 0
    episodes = 0
    success = 0.0
    for t in range(cfg.max_phase_iterations):
        if t:
            sample, train_seed = window_sample(a0, a1, cfg, rng, t), [*seed, t, 0]
        if t or first is None:
            [first] = yield [(TRAIN, (policy, sample, train_seed))]
        out = taken(TRAIN, first)
        policy = out.policy
        iterations += out.train_iterations
        episodes += out.sim_episodes
        requests = [(EVAL, (policy, a1, eval_episodes, [*seed, t, 1]))]
        if guess:
            requests.append((guess[0], (policy, *guess[1])))
        ev, *guessed = yield requests
        ev = taken(EVAL, ev)
        episodes += ev.sim_episodes
        success = ev.success_rate
        if not math.isfinite(success):
            raise PhaseFailureError("trainer reported non-finite success rate")
        if success >= threshold:
            return PhaseOutcome(policy, iterations, episodes, success, True, *guessed)
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
        self.result: list[TransferReport] = []  # filled by numbered()
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
            if _lp(alpha, beta, 1) > COINCIDE_TOL:
                return beta, [(indices, None)]
        res = (edge and follow_edge(edge, alpha, tg)) or evolution_tree(
            alpha, tg, self.cfg.p_norm
        )
        groups = [[indices[i] for i in group] for group in res.partition]
        return res.beta_meta, list(zip(groups, res.edges))

    # -- phases ------------------------------------------------------------

    def endpoint(self, alpha: np.ndarray, beta: np.ndarray, grad) -> np.ndarray:
        """Where a phase from alpha toward beta, at least xi away, ends on grad."""
        try:
            step = evolution_step(alpha, beta, grad, self.cfg)
        except DegenerateDirectionError:
            step = evolution_step(alpha, beta, np.zeros(len(alpha)), self.cfg)
        return alpha + step

    def planned(self, s: _Stream, alpha: np.ndarray, phase_index: int, plan: Callable):
        """The plan of s's phase from alpha: (targets reached at alpha,
        targets left, meta point, partition, endpoint, first request,
        phase_window). The meta point is None if alpha stands on it, and then
        the partition is the split's, or None when no target is left. The
        first request, without its policy, is (PROBE, probe_points(...)) with
        probes on and alpha at least xi from the meta point, and then the
        endpoint and window are None; else (TRAIN, (window sample, seed))."""
        p = self.cfg.p_norm
        dists = _lp(self.targets[s.indices], alpha, p, axis=-1).tolist()
        arrived = [i for i, d in zip(s.indices, dists) if d <= COINCIDE_TOL]
        indices = [i for i in s.indices if i not in arrived]
        beta, partition = plan(alpha, indices, s.edge) if indices else (alpha, None)
        gap = _lp(alpha, beta, p)
        if gap <= COINCIDE_TOL:
            return arrived, indices, None, partition, None, None, None
        seed_material, near = [*s.segment, phase_index], gap < self.cfg.xi
        if self.cfg.gradient_samples and not near:
            probe = probe_points(alpha, self.cfg, seed_material)
            return arrived, indices, beta, partition, None, (PROBE, probe), None
        end = beta.copy() if near else self.endpoint(alpha, beta, np.zeros(len(alpha)))
        window = phase_window(alpha, end, self.cfg, seed_material)
        return arrived, indices, beta, partition, end, (TRAIN, window[:2]), window

    def walk(self, s: _Stream, plan: Callable):
        """Run s's phases until its targets are done (None) or it stands on
        its meta point (the planner's partition there). A failed gate or a
        tripped phase guard ends s, its targets left "budget-exhausted"
        (None). A generator of the probe's and phase_train's trainer requests.

        Each phase's successor is planned once, as soon as the phase's
        endpoint is fixed and before it trains, which fixes its first
        request; every evaluation of the phase carries it as a guess, and a
        passing phase's guessed result goes to reward_gradient or
        phase_train, whichever would make that request."""
        ahead = self.planned(s, s.alpha, s.phase_index, plan)
        guessed = None
        while True:
            arrived, s.indices, beta, partition, end, first, window = ahead
            self.emit(s, arrived, "success")
            if beta is None:
                return partition
            if self.phases >= self.max_phases:  # re-plan livelock guard
                self.emit(s, s.indices, "budget-exhausted")
                return None
            self.phases += 1
            s.edge = partition[0][1]
            probe_episodes = 0
            if end is None:  # at least xi from beta: the phase ends on its probe's gradient
                est = yield from reward_gradient(s.policy, first[1], guessed)
                end, probe_episodes = self.endpoint(s.alpha, beta, est.gradient), est.sim_episodes
                guessed = None
            ahead = self.planned(s, end, s.phase_index + 1, plan)
            out = yield from phase_train(
                s.alpha,
                end,
                s.policy,
                self.cfg,
                arrival=bool(ahead[0]),  # the phase ends on a target robot
                seed_material=[*s.segment, s.phase_index],
                window=window,
                guess=ahead[5],
                first=guessed,
            )
            guessed = out.guessed
            s.policy = out.policy
            s.prefix.append(
                PhaseRecord(
                    phase_id=-1,  # numbered once every stream is done
                    segment=s.segment,
                    phase_index=s.phase_index,
                    alpha_from=tuple(s.alpha.tolist()),
                    alpha_to=tuple(end.tolist()),
                    train_iterations=out.train_iterations,
                    sim_episodes=probe_episodes + out.sim_episodes,
                    final_success_rate=out.final_success_rate,
                    reached=out.reached,
                )
            )
            s.alpha = end
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

    # -- reporting ---------------------------------------------------------

    def emit(self, s: _Stream, indices: list[int], outcome: str):
        for i in indices:
            phases = tuple(s.prefix)
            self.reports[i] = TransferReport(
                target_index=i,
                target=tuple(self.targets[i].tolist()),
                phases=phases,
                outcome=outcome,
                train_iterations=sum(p.train_iterations for p in phases),
                sim_episodes=sum(p.sim_episodes for p in phases),
                policy=copy.deepcopy(s.policy),
            )

    def numbered(self) -> None:
        """Give every phase its id, in (segment, phase_index) order, and
        fill self.result with the reports in target order."""
        phases = {
            (p.segment, p.phase_index): p
            for rep in self.reports.values() for p in rep.phases
        }
        assert all(p.phase_id == -1 for p in phases.values()), "phases numbered twice"
        for i, key in enumerate(sorted(phases)):
            # the one late field of a frozen record, not yet seen outside the engine
            object.__setattr__(phases[key], "phase_id", i)
        self.result[:] = [self.reports[i] for i in range(len(self.targets))]


def lockstep(trainer: Trainer, pairs: list) -> None:
    """Drive (engine, walk) pairs in lockstep: each round is one trainer.serve
    call over every pending list, end to end, and each walk is sent its own
    slice; a walk's child streams join at once. A served job's bits do not
    depend on the jobs beside it. An engine that raises is dropped with every
    engine after it in pairs; those before it run to their end. Every engine
    left is numbered, then the earliest dropped engine's exception raised."""
    engines = list(dict.fromkeys(engine for engine, _ in pairs))
    failed = _rounds(trainer, pairs, engines)
    for engine in engines:
        engine.numbered()
    if failed:
        # _rounds' frame, on its traceback, holds it in its locals: cleared,
        # and with no local here holding it, the exception makes no reference
        # cycle, so the run is freed with it and not at a later gc pass
        traceback.clear_frames(failed[0].__traceback__)
        raise failed.pop()


def _rounds(trainer: Trainer, pairs: list, engines: list) -> list:
    """lockstep's rounds. Drops an engine that raises from engines, with
    those after it; returns [the earliest dropped engine's exception], or []."""
    failed, pending = [], {}  # pending: walk -> (its engine, its list of requests)
    sends = [(engine, walk, None) for engine, walk in pairs]
    while True:
        for engine, walk, result in sends:
            if engine in engines:
                try:
                    _advance(pending, engine, walk, result)
                except Exception as exc:
                    traceback.clear_frames(exc.__traceback__)  # those of the walk
                    del engines[engines.index(engine):]
                    failed[:] = [exc]
        pending = {walk: sent for walk, sent in pending.items() if sent[0] in engines}
        if not pending:
            return failed
        served = iter(trainer.serve([r for _, requests in pending.values() for r in requests]))
        sends = [(engine, walk, [next(served) for _ in requests])
                 for walk, (engine, requests) in pending.items()]


def _advance(pending: dict, engine: _Engine, walk, result) -> None:
    """Send result to walk and record its next request in pending; a
    finished walk's children start at once. Not a closure: one that calls
    itself is a reference cycle, keeping every engine and report alive
    until a gc pass."""
    try:
        pending[walk] = engine, walk.send(result)
    except StopIteration as done:
        pending.pop(walk, None)
        for child in done.value:
            _advance(pending, engine, engine.subtree(child), None)


def _start(source, targets, expert_policy, trainer, cfg) -> tuple[_Engine, _Stream]:
    """An engine over the targets, and a stream of all of them standing on the
    source with the expert policy (not a copy: walks fork from it)."""
    src, tg = _as_targets(source, targets)
    for name, points in (("source", src), ("target", tg)):
        if not np.all((points >= -1e-12) & (points <= 1.0 + 1e-12)):
            raise InvalidInputError(f"{name} must lie in [0, 1]^D")
    engine = _Engine(np.clip(tg, 0.0, 1.0), trainer, cfg)
    return engine, _Stream((), np.clip(src, 0.0, 1.0), expert_policy, list(range(len(tg))), [])


def _enrolled(engine: _Engine, walks: list, rounds: Optional[list]) -> list[TransferReport]:
    """The engine's reports, from lockstep on the walks, or once lockstep
    has run rounds with the walks added to it."""
    pairs = [(engine, walk) for walk in walks]
    if rounds is None:
        lockstep(engine.trainer, pairs)
    else:
        rounds += pairs
    return engine.result


def meta_evolve(
    source, targets, expert_policy, trainer: Trainer, cfg: TransferConfig, *, rounds=None
) -> list[TransferReport]:
    """One-to-many transfer along the evolution tree (path sharing)."""
    engine, start = _start(source, targets, expert_policy, trainer, cfg)
    return _enrolled(engine, [engine.subtree(start.fork((), start.indices))], rounds)


def herd_baseline(
    source, targets, expert_policy, trainer: Trainer, cfg: TransferConfig, *, rounds=None
) -> list[TransferReport]:
    """Independent one-to-one transfers: the meta point is always the target."""
    engine, start = _start(source, targets, expert_policy, trainer, cfg)
    walks = [engine.subtree(start.fork((i,), [i])) for i in start.indices]
    return _enrolled(engine, walks, rounds)


def geom_median_baseline(
    source, targets, expert_policy, trainer: Trainer, cfg: TransferConfig, *, rounds=None
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

    return _enrolled(engine, [walk_trunk()], rounds)
