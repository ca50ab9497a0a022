"""Trainer implementations behind one contract.

CostModelTrainer: deterministic plan-level accounting. Every training step
costs one iteration and a fixed number of simulated episodes, and the
policy passes the success gate immediately, so transfer totals reduce to
phase counts. This instantiates the assumption that transfer cost is
locally proportional to parameter distance.

ToyMdpTrainer: a parameterized point-mass reach task with a linear Gaussian
policy trained by REINFORCE with a baseline. Robot parameters (mass, per
axis actuator gain, damping, actuator limit) enter the transition function,
so moving in evolution coordinates genuinely changes the dynamics. Reward
is sparse: 1 when the goal is reached within the horizon, else 0.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Optional, Protocol, Sequence

import numpy as np

from .errors import InvalidInputError, PhaseFailureError, SimulationError
from .robot_model import EvolutionSpace, denormalize

DT = 0.05
HORIZON = 200
GOAL_RADIUS = 0.1
# episode draws: goal uniform within GOAL_JITTER of GOAL_CENTER per axis,
# start uniform within START_JITTER of the origin
GOAL_CENTER = (1.0, 1.0)
GOAL_JITTER = 0.45
START_JITTER = 0.15
BATCH_SIZE = 12
LEARNING_RATE = 0.05

# steps of noise a job draws at a time, and steps between the kernel's tests
# of whether every episode has reached its goal
NOISE_BLOCK = 32
HIT_CHECK = 8

# bytes the toy kernel holds per episode column (a block of scaled noise,
# the goal-offset and squared-distance histories, one check's squares and
# hit flags, 26 doubles of state and scratch), per recorded column (feature
# and action history, steps and first hits, a step mask) and per drawn
# episode (a block of its noise before and after scaling, start and goal).
# A call that needs more than SIM_MAX_BYTES is refused; serve then runs each
# of its jobs alone.
COLUMN_BYTES = 8 * (2 * NOISE_BLOCK + 3 * HORIZON + 2 * HIT_CHECK + 26) + HIT_CHECK
RECORD_BYTES = 8 * (6 * HORIZON + 2) + HORIZON
DRAW_BYTES = 16 * (2 * NOISE_BLOCK + 3)
SIM_MAX_BYTES = 256 * 2**20

# canonical parameter keys the toy trainer expects in an evolution space
TOY_PARAM_ROLES = {
    "mass": "body.torso.mass",
    "gain_x": "motor.x.gain",
    "gain_y": "motor.y.gain",
    "damping": "body.damping",
    "limit": "motor.limit",
}


@dataclass(frozen=True)
class EvalResult:
    success_rate: float
    sim_episodes: int


@dataclass(frozen=True)
class TrainStepResult:
    policy: object
    train_iterations: int
    sim_episodes: int


@dataclass(frozen=True)
class ProbeResult:
    mean_return: np.ndarray  # (k,), one mean return per probed point
    sim_episodes: int


# request kinds, each the name of the single call that answers its job
PROBE = "gradient_probe"  # job (policy, alphas, seed)
TRAIN = "train_step"  # job (policy, alpha, seed)
EVAL = "evaluate"  # job (policy, alpha, episodes, seed)


def seeded_rng(material) -> np.random.Generator:
    """np.random.default_rng(material)'s generator for an int or a list of ints, from
    the words SeedSequence makes of them: each entry's 32-bit words, low first."""
    words, entries = [], [material] if isinstance(material, (int, np.integer)) else material
    for n in map(operator.index, entries):
        if n < 0:
            raise ValueError("expected non-negative integer")
        words += ([n] if n <= 0xFFFFFFFF
                  else [n >> s & 0xFFFFFFFF for s in range(0, n.bit_length(), 32)])
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(np.uint32(words))))


class Trainer(Protocol):
    """Contract used by the transfer engine.

    evaluate must be deterministic given (seed, alpha, policy); every
    train_step reports strictly positive cost. gradient_probe scores a
    (k, D) batch of points in one call, every point on the same seeded
    draws (common random numbers). serve takes a list of requests
    (kind, job), a job being the argument tuple of the single call named
    by kind, and returns one result per request: what that call returns,
    or the exception it raises.
    """

    def evaluate(self, policy, alpha, episodes: int, seed) -> EvalResult: ...

    def train_step(self, policy, alpha, seed) -> TrainStepResult: ...

    def gradient_probe(self, policy, alphas, seed) -> ProbeResult: ...

    def serve(self, requests) -> list: ...


class SerialBatches:
    """serve as a loop over the single calls."""

    def serve(self, requests) -> list:
        results = []
        for kind, job in requests:
            try:
                results.append(getattr(self, kind)(*job))
            except Exception as exc:
                results.append(exc)
        return results


# ---------------------------------------------------------------------------
# Cost-model trainer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CostModelTrainer(SerialBatches):
    """Fixed-cost trainer: one iteration and sim_episodes_per_step per phase."""

    sim_episodes_per_step: int = 10

    def __post_init__(self):
        if self.sim_episodes_per_step < 1:
            raise InvalidInputError("sim_episodes_per_step must be >= 1")

    def evaluate(self, policy, alpha, episodes: int, seed) -> EvalResult:
        return EvalResult(success_rate=1.0, sim_episodes=0)

    def train_step(self, policy, alpha, seed) -> TrainStepResult:
        return TrainStepResult(
            policy=policy,
            train_iterations=1,
            sim_episodes=self.sim_episodes_per_step,
        )

    def gradient_probe(self, policy, alphas, seed) -> ProbeResult:
        return ProbeResult(mean_return=np.zeros(len(alphas)), sim_episodes=0)


# ---------------------------------------------------------------------------
# Toy point-mass MDP
# ---------------------------------------------------------------------------


@dataclass
class LinearGaussianPolicy:
    """Gaussian policy with linear mean over [goal - pos, vel] features.

    Deliberately no constant feature: a constant-thrust term is a runaway
    direction for sparse-reward gradient training on this task.
    """

    weights: np.ndarray  # (2, 4)
    log_std: np.ndarray  # (2,)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.log_std = np.asarray(self.log_std, dtype=float)
        if self.weights.shape != (2, 4) or self.log_std.shape != (2,):
            raise InvalidInputError("policy shapes must be (2, 4) and (2,)")
        if not (
            np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.log_std))
        ):
            raise InvalidInputError("policy parameters must be finite")

    def copy(self) -> "LinearGaussianPolicy":
        return LinearGaussianPolicy(self.weights.copy(), self.log_std.copy())


def proportional_policy(kp: float, kd: float, std: float) -> LinearGaussianPolicy:
    """P-D controller as a policy: a = kp * (goal - pos) - kd * vel."""
    w = np.array(
        [
            [kp, 0.0, -kd, 0.0],
            [0.0, kp, 0.0, -kd],
        ]
    )
    return LinearGaussianPolicy(weights=w, log_std=np.full(2, np.log(std)))


def point_mass_step(state, action, gain, damping, mass, limits, delta):
    """One explicit-Euler step of point masses, in place on state.

    state is (4, n) with rows vx, vy, x, y and one column per episode; gain,
    damping and mass are (2, n) rows (or broadcast to them). action (2, n) is
    clipped in place to limits = (-limit, limit), and delta (4, n) is scratch.

    velocity' = velocity + dt * (gain * clipped_action - damping * velocity) / mass
    position' = position + velocity * dt
    """
    vel, dvel, dpos = state[:2], delta[:2], delta[2:]
    np.minimum(np.maximum(action, limits[0], out=action), limits[1], out=action)
    np.multiply(gain, action, out=dpos)
    np.multiply(damping, vel, out=dvel)
    np.subtract(dpos, dvel, out=dvel)
    np.multiply(DT, dvel, out=dvel)
    np.divide(dvel, mass, out=dvel)
    np.multiply(vel, DT, out=dpos)
    state += delta


# the goal test without a square root: the smallest double whose sqrt (correctly
# rounded, monotone) reaches GOAL_RADIUS, so d2 < GOAL_R2 exactly when
# sqrt(d2) < GOAL_RADIUS; one ulp below 0.1 * 0.1
GOAL_R2 = 0.01


MAX_GRAD_NORM = 25.0
LOG_STD_BOUNDS = (-2.3, 1.0)


def pg_train_step(
    policy: LinearGaussianPolicy,
    batch: Sequence[tuple[np.ndarray, np.ndarray, float]],
    learning_rate: float = LEARNING_RATE,
    max_grad_norm: float = MAX_GRAD_NORM,
    baselines: Optional[np.ndarray] = None,
) -> LinearGaussianPolicy:
    """REINFORCE with a baseline on one batch of episodes.

    batch entries are (features[T, 4], actions[T, 2], episode_return); T may
    differ per episode (episodes are truncated once the goal is reached).
    baselines, when given, must be action-independent per-episode values
    (e.g. a return prediction from the episode's start state); the default
    is the batch mean return. The combined gradient norm is capped at
    max_grad_norm; pass inf to disable.
    """
    if not batch:
        raise InvalidInputError("batch must be non-empty")
    returns = np.array([ep[2] for ep in batch], dtype=float)
    if baselines is None:
        adv = returns - float(returns.mean())
    else:
        adv = returns - np.asarray(baselines, dtype=float)
    steps = np.array([len(ep[0]) for ep in batch])
    feats = np.zeros((len(batch), steps.max(), 4))
    acts = np.zeros((len(batch), steps.max(), 2))
    for e, (f, a, _) in enumerate(batch):
        feats[e, : steps[e]] = f
        acts[e, : steps[e]] = a
    return _reinforce(policy, feats, acts, steps, adv, learning_rate, max_grad_norm)


def _reinforce(policy, feats, acts, steps, adv, learning_rate, max_grad_norm):
    """pg_train_step on zero-padded episodes: feats (E, T, 4) and acts
    (E, T, 2) hold episode e's steps in rows :steps[e] and zeros after.

    Bit for bit the per-episode loop: each episode's products are the same
    BLAS calls (zero rows add nothing to a dot product), its log-std terms
    are summed row by row with the padding masked to 0, and the episodes'
    terms are summed from +0.0 over the outer axis, which adds them one at a
    time, in order. Episodes with zero advantage are skipped, but their
    steps still count in the normalization.
    """
    if np.all(adv == 0.0):
        return policy
    live = adv != 0.0
    live_steps, live_adv = steps[live], adv[live]
    horizon = int(live_steps.max())
    f, a = feats[live, :horizon], acts[live, :horizon]
    w_t = policy.weights.T
    mu = f @ w_t
    lone = live_steps == 1
    if horizon > 1 and lone.any():
        # a one-row product takes numpy's gemv path, not gemm: keep its bits
        mu[lone, :1] = f[lone, :1] @ w_t
    diff = a - mu
    delta = diff / np.exp(2.0 * policy.log_std)
    per_w = (live_adv[:, None, None] * delta.transpose(0, 2, 1)) @ f
    terms = delta * diff - 1.0
    terms[np.arange(horizon) >= live_steps[:, None]] = 0.0
    per_ls = live_adv[:, None] * terms.sum(axis=1)
    grad_w = per_w.sum(axis=0, initial=0.0)
    grad_ls = per_ls.sum(axis=0, initial=0.0)
    # normalize per timestep, not per episode: keeps one long failure
    # episode from dominating a mostly-successful batch
    scale = max(int(steps.sum()), 1)
    grad_w /= scale
    grad_ls /= scale
    if not (np.all(np.isfinite(grad_w)) and np.all(np.isfinite(grad_ls))):
        raise PhaseFailureError("policy gradient diverged (non-finite)")
    total = math.sqrt(float(np.sum(grad_w**2) + np.sum(grad_ls**2)))
    if total > max_grad_norm:
        scale = max_grad_norm / total
        grad_w = grad_w * scale
        grad_ls = grad_ls * scale
    new_w = policy.weights + learning_rate * grad_w
    # keep an exploration floor so sparse-reward training cannot silence itself
    new_ls = np.clip(policy.log_std + learning_rate * grad_ls, LOG_STD_BOUNDS[0], LOG_STD_BOUNDS[1])
    return LinearGaussianPolicy(weights=new_w, log_std=new_ls)


@dataclass
class ToyMdpTrainer:
    """Point-mass reach task over a 5-parameter evolution space."""

    space: EvolutionSpace
    batch_size: int = BATCH_SIZE
    probe_episodes: int = 8
    learning_rate: float = LEARNING_RATE
    _role_cols: list[int] = field(init=False, repr=False)

    def __post_init__(self):
        if self.batch_size < 1 or self.probe_episodes < 1:
            raise InvalidInputError("batch_size and probe_episodes must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InvalidInputError("learning_rate must be positive and finite")
        keys = list(self.space.parameter_keys)
        for key in TOY_PARAM_ROLES.values():
            if key not in keys:
                raise InvalidInputError(
                    f"toy trainer needs parameter key {key!r} in the evolution space"
                )
        self._role_cols = [keys.index(key) for key in TOY_PARAM_ROLES.values()]
        # every robot the trainer sees is a convex mix of the space's bounds
        for (role, key), col in zip(TOY_PARAM_ROLES.items(), self._role_cols):
            for bound in (float(self.space.theta_lower[col]), float(self.space.theta_upper[col])):
                if not (math.isfinite(bound) and (bound >= 0 if role == "damping" else bound > 0)):
                    sign = ">= 0" if role == "damping" else "> 0"
                    raise InvalidInputError(
                        f"toy parameter {key!r} must be finite and {sign}, got {bound}"
                    )

    # -- dynamics ----------------------------------------------------------

    def theta_at(self, alpha) -> np.ndarray:
        """(k, 5) toy parameters in TOY_PARAM_ROLES order, one row per point."""
        points = np.atleast_2d(np.asarray(alpha, dtype=float))
        return denormalize(points, self.space)[:, self._role_cols]

    def _simulate(
        self, jobs, record=0
    ) -> list[tuple[np.ndarray, Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]]]:
        """Vectorized rollouts that score each episode at its first goal contact.

        A job is (policy, alpha, episodes, seed), with alpha one point (D,)
        or k points (k, D). Every point of a job runs the job's `episodes`
        seeded draws (common random numbers); episode e of point j sits at
        index j * episodes + e. Returns one (success, history) per job;
        history is None except for the first `record` jobs, where it is
        (features[T,n,4], actions[T,n,2], steps) with steps[i] the number of
        live steps episode i contributes. Buffers are sized before they are
        made: a call needing more than SIM_MAX_BYTES raises InvalidInputError.

        All per-episode data are columns, and each job is one block of
        columns: one (8, n) buffer holds the rows action-x, action-y,
        goal-x, goal-y, vx, vy, x, y, so rows 2:6 are the policy features
        and rows 4:8 the state. Each step makes one stacked matmul per run
        of neighbouring jobs of equal width; every other ufunc runs once
        over all n columns. For the goal test a step only stores the goal
        offset: the squared distances and the hits are computed HIT_CHECK
        steps at a time, and the loop stops at the first check after every
        episode has hit. Each job draws np.random.default_rng(seed)'s noise
        NOISE_BLOCK steps at a time, the numbers one draw of all HORIZON
        steps gives. An episode keeps integrating after its first hit, since
        nothing reads it; history is zeroed from step steps[i] on, after the
        loop. A job's results do not depend on the jobs run beside it.
        """
        # per job: its columns, the columns it reports and its draws' copies
        blocks, n, need = [], 0, 0
        for j, (_, alpha, episodes, _) in enumerate(jobs):
            out = np.atleast_2d(alpha).shape[0] * episodes
            # a one-column matmul takes another BLAS path than a wider one:
            # run a lone episode twice so its bits match its row in a batch
            width = max(out, 2)
            blocks.append((slice(n, n + width), slice(n, n + out), width // episodes))
            n += width
            need += width * (COLUMN_BYTES + RECORD_BYTES * (j < record)) + episodes * DRAW_BYTES
        if need > SIM_MAX_BYTES:
            raise InvalidInputError(
                f"a simulator call of {n} episodes needs {need / 2**20:.0f} MiB, "
                f"over the {SIM_MAX_BYTES // 2**20} MiB budget: lower the "
                "evaluation, batch or probe episode count"
            )
        # mass, gain_x|gain_y, damping and limit as (2, n) rows: operands of
        # one shape, since broadcasting a (1, n) row slows every step down
        th = np.empty((8, n))
        goal = np.empty((2, n))
        buf = np.zeros((8, n))
        act, to_goal, feats, state, pos = buf[0:2], buf[2:4], buf[2:6], buf[4:8], buf[6:8]
        draws = []
        for (policy, alpha, episodes, seed), (cols, _, copies) in zip(jobs, blocks):
            theta = self.theta_at(alpha)[:, [0, 0, 1, 2, 3, 3, 4, 4]]
            th[:, cols].reshape(8, copies, episodes)[...] = theta.T[:, :, None]
            rng = seeded_rng(seed)
            start = rng.uniform(-START_JITTER, START_JITTER, (episodes, 2))
            end = np.asarray(GOAL_CENTER) + rng.uniform(-GOAL_JITTER, GOAL_JITTER, (episodes, 2))
            goal[:, cols].reshape(2, copies, episodes)[...] = end.T[:, None]
            pos[:, cols].reshape(2, copies, episodes)[...] = start.T[:, None]
            draws.append((rng, np.exp(policy.log_std), episodes, cols, copies))
        mass, gain, damping, limit = th[0:2], th[2:4], th[4:6], th[6:8]
        limits = (-limit, limit)
        np.subtract(goal, pos, out=to_goal)
        products = self._products(jobs, blocks, feats, act)
        delta = np.empty((4, n))
        scaled_noise = np.empty((NOISE_BLOCK, 2, n))
        offsets = np.empty((HORIZON, 2, n))
        d2 = np.empty((HORIZON, n))
        success = np.zeros(n, dtype=bool)
        # the recorded jobs lead, so their columns are the first m; a step
        # records the rows action, goal offset and velocity of those columns
        m = blocks[record - 1][0].stop if record else 0
        hist = np.empty((HORIZON, 6, m))
        checked = 0
        for t in range(HORIZON):
            if t % NOISE_BLOCK == 0:
                k = min(NOISE_BLOCK, HORIZON - t)
                for rng, std, episodes, cols, copies in draws:
                    noise = rng.standard_normal((k, episodes, 2))
                    scaled_noise[:k, :, cols].reshape(k, 2, copies, episodes)[...] = (
                        std * noise
                    ).transpose(0, 2, 1)[:, :, None]
            for weights, run_feats, run_act in products:
                np.matmul(weights, run_feats, out=run_act)
            act += scaled_noise[t % NOISE_BLOCK]
            if m:
                hist[t] = buf[:6, :m]
            point_mass_step(state, act, gain, damping, mass, limits, delta)
            np.subtract(goal, pos, out=offsets[t])
            to_goal[...] = offsets[t]
            if (t + 1) % HIT_CHECK == 0 or t + 1 == HORIZON:
                window = slice(checked, t + 1)
                sq = offsets[window] * offsets[window]
                np.add(sq[:, 0], sq[:, 1], out=d2[window])
                success |= (d2[window] < GOAL_R2).any(axis=0)
                checked = t + 1
                if success.all():
                    break
        if not np.all(np.isfinite(pos[:, ~success])):
            raise SimulationError("rollout produced non-finite positions")
        if m:
            first = (d2[:checked, :m] < GOAL_R2).argmax(axis=0)
            steps = np.where(success[:m], first + 1, HORIZON)
            hist.transpose(0, 2, 1)[np.arange(HORIZON)[:, None] >= steps] = 0.0
            feats_hist = hist[:, 2:6].transpose(0, 2, 1)
            acts_hist = hist[:, 0:2].transpose(0, 2, 1)
        return [
            (success[out], (feats_hist[:, out], acts_hist[:, out], steps[out]) if j < record else None)
            for j, (_, out, _) in enumerate(blocks)
        ]

    @staticmethod
    def _products(jobs, blocks, feats, act):
        """(weights, features, actions) per run of equal-width blocks.

        A run's step is one stacked (k, 4, width) matmul, which numpy makes
        as one gemm per block, of that block's own shape. Its bits match a
        call on the block alone as long as BLAS does not let a column's bits
        depend on the neighbouring columns' leading dimension;
        TestServeEqualsOneRequestAtATime checks that.
        """
        products = []
        runs = zip((policy for policy, *_ in jobs), (cols for cols, _, _ in blocks))
        for width, run in itertools.groupby(runs, key=lambda pc: pc[1].stop - pc[1].start):
            policies, spans = zip(*run)
            cols = slice(spans[0].start, spans[-1].stop)
            products.append((
                np.stack([policy.weights for policy in policies]),
                feats[:, cols].reshape(4, len(spans), width).transpose(1, 0, 2),
                act[:, cols].reshape(2, len(spans), width).transpose(1, 0, 2),
            ))
        return products

    # -- trainer contract ---------------------------------------------------

    def evaluate(self, policy, alpha, episodes: int, seed) -> EvalResult:
        return self._one(EVAL, (policy, alpha, episodes, seed))

    def train_step(self, policy, alpha, seed) -> TrainStepResult:
        return self._one(TRAIN, (policy, alpha, seed))

    def gradient_probe(self, policy, alphas, seed) -> ProbeResult:
        return self._one(PROBE, (policy, alphas, seed))

    def _one(self, kind, job):
        [result] = self.serve([(kind, job)])
        if isinstance(result, Exception):
            raise result
        return result

    def serve(self, requests) -> list:
        """Every request in one _simulate, the train jobs first, so the
        kernel records the histories of a prefix of its jobs only, and the
        others by width, so equal widths share a stacked matmul. If the
        ordering or the kernel call fails, each request is served alone, so
        a failing job gives its own exception and fails no other."""
        episodes = {TRAIN: self.batch_size, PROBE: self.probe_episodes}
        jobs = [
            job if kind == EVAL else (job[0], job[1], episodes[kind], job[2])
            for kind, job in requests
        ]
        try:
            # a job whose width cannot be taken fails in _simulate as well
            sizes = [len(np.atleast_2d(alpha)) * episodes for _, alpha, episodes, _ in jobs]
            order = sorted(range(len(requests)), key=lambda i: (requests[i][0] != TRAIN, sizes[i]))
            ordered = [requests[i] for i in order]
            jobs = [jobs[i] for i in order]
            runs = self._simulate(jobs, record=sum(kind == TRAIN for kind, _ in ordered))
        except Exception as exc:
            if len(requests) == 1:
                return [exc]
            return [self.serve([request])[0] for request in requests]
        results = [None] * len(requests)
        for i, (kind, job), (success, history) in zip(order, ordered, runs):
            try:
                if kind == TRAIN:
                    results[i] = self._policy_update(job[0], success, *history)
                elif kind == EVAL:
                    results[i] = EvalResult(float(np.mean(success)), job[2])
                else:
                    results[i] = ProbeResult(
                        success.reshape(-1, self.probe_episodes).mean(axis=1), success.size
                    )
            except Exception as exc:
                results[i] = exc
        return results

    def _policy_update(self, policy, success, feats, acts, steps) -> TrainStepResult:
        """One REINFORCE step on a recorded batch of batch_size episodes."""
        returns = success.astype(float)
        # (E, T, 4) and (E, T, 2), episode-major and cut to the longest episode
        horizon = int(steps.max())
        feats = np.ascontiguousarray(feats[:horizon].transpose(1, 0, 2))
        acts = np.ascontiguousarray(acts[:horizon].transpose(1, 0, 2))
        # start-state control variate: regress returns on initial goal
        # distance so credit stays with the actions, not the episode draw;
        # batched matmul takes the same dot product as np.linalg.norm
        start = feats[:, 0, 0:2]
        d0 = np.sqrt((start[:, None, :] @ start[:, :, None])[:, 0, 0])
        design = np.stack([np.ones_like(d0), d0], axis=1)
        coef, *_ = np.linalg.lstsq(design, returns, rcond=None)
        adv = returns - design @ coef
        new_policy = _reinforce(
            policy, feats, acts, steps, adv, self.learning_rate, MAX_GRAD_NORM
        )
        return TrainStepResult(
            policy=new_policy,
            train_iterations=1,
            sim_episodes=self.batch_size,
        )


def toy_space(
    lower: Optional[dict[str, float]] = None,
    upper: Optional[dict[str, float]] = None,
) -> EvolutionSpace:
    """Standalone 5-D evolution space for the toy trainer (tests, demos)."""
    lo = {
        "body.damping": 0.5,
        "body.torso.mass": 1.0,
        "motor.limit": 1.95,
        "motor.x.gain": 0.22,
        "motor.y.gain": 0.23,
    }
    hi = {
        "body.damping": 1.25,
        "body.torso.mass": 1.8,
        "motor.limit": 2.4,
        "motor.x.gain": 1.2,
        "motor.y.gain": 1.2,
    }
    lo.update(lower or {})
    hi.update(upper or {})
    keys = tuple(sorted(lo))
    return EvolutionSpace(
        parameter_keys=keys,
        theta_lower=np.array([lo[k] for k in keys]),
        theta_upper=np.array([hi[k] for k in keys]),
    )
