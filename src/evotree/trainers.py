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

import math
from dataclasses import dataclass, field
from typing import Optional, Protocol, Sequence

import numpy as np

from .errors import InvalidInputError, PhaseFailureError, SimulationError
from .robot_model import EvolutionSpace, denormalize

DT = 0.05
HORIZON = 200
GOAL_RADIUS = 0.1
BATCH_SIZE = 12
LEARNING_RATE = 0.05

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


class Trainer(Protocol):
    """Contract used by the transfer engine.

    evaluate must be deterministic given (seed, alpha, policy); every
    train_step reports strictly positive cost. gradient_probe scores a
    (k, D) batch of points in one call, every point on the same seeded
    draws (common random numbers). train_steps, evaluates and
    gradient_probes take a list of jobs, each the argument tuple of one
    single call, and return one result per job, equal to that call's.
    """

    def evaluate(self, policy, alpha, episodes: int, seed) -> EvalResult: ...

    def train_step(self, policy, alpha, seed) -> TrainStepResult: ...

    def gradient_probe(self, policy, alphas, seed) -> ProbeResult: ...

    def evaluates(self, jobs) -> list[EvalResult]: ...

    def train_steps(self, jobs) -> list[TrainStepResult]: ...

    def gradient_probes(self, jobs) -> list[ProbeResult]: ...


class SerialBatches:
    """The batched trainer forms as a loop over the single calls."""

    def evaluates(self, jobs) -> list[EvalResult]:
        return [self.evaluate(*job) for job in jobs]

    def train_steps(self, jobs) -> list[TrainStepResult]:
        return [self.train_step(*job) for job in jobs]

    def gradient_probes(self, jobs) -> list[ProbeResult]:
        return [self.gradient_probe(*job) for job in jobs]


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


def _smallest_square_reaching(r: float) -> float:
    """Smallest double x with sqrt(x) >= r.

    sqrt is correctly rounded and monotone, so for every double x,
    sqrt(x) < r exactly when x < this value.
    """
    x = r * r
    while math.sqrt(x) < r:
        x = math.nextafter(x, math.inf)
    while math.sqrt(math.nextafter(x, 0.0)) >= r:
        x = math.nextafter(x, 0.0)
    return x


# the goal test without a square root; 0.01 here, one ulp below 0.1 * 0.1
GOAL_R2 = _smallest_square_reaching(GOAL_RADIUS)


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
    if np.all(adv == 0.0):
        return policy
    var = np.exp(2.0 * policy.log_std)
    grad_w = np.zeros_like(policy.weights)
    grad_ls = np.zeros_like(policy.log_std)
    total_steps = 0
    for (feats, acts, _), a_k in zip(batch, adv):
        total_steps += len(feats)
        if a_k == 0.0:
            continue
        mu = feats @ policy.weights.T
        delta = (acts - mu) / var
        grad_w += a_k * delta.T @ feats
        grad_ls += a_k * np.sum(delta * (acts - mu) - 1.0, axis=0)
    # normalize per timestep, not per episode: keeps one long failure
    # episode from dominating a mostly-successful batch
    scale = max(total_steps, 1)
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
    goal_center: tuple[float, float] = (1.0, 1.0)
    goal_jitter: float = 0.45
    start_jitter: float = 0.15
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
        self, jobs, record=False
    ) -> list[tuple[np.ndarray, Optional[tuple[np.ndarray, np.ndarray, np.ndarray]]]]:
        """Vectorized rollouts that score each episode at its first goal contact.

        A job is (policy, alpha, episodes, seed), with alpha one point (D,)
        or k points (k, D). Every point of a job runs the job's `episodes`
        seeded draws (common random numbers); episode e of point j sits at
        index j * episodes + e. Returns one (success, history) per job;
        history is None unless record is set, else (features[T,n,4],
        actions[T,n,2], steps) with steps[i] the number of live steps
        episode i contributes.

        All per-episode data are columns, and each job is one block of
        columns: one (6, n) buffer holds the rows goal-x, goal-y, vx, vy, x,
        y, so rows 0:4 are the policy features and rows 2:6 the state, and
        step t's scaled noise is one (2, n) block. Each step makes one matmul
        per job, with its own policy; every other ufunc runs once over all n
        columns. An episode keeps integrating after its first hit, since
        nothing reads it; history is zeroed from step steps[i] on, after the
        loop. A job's results do not depend on the jobs run beside it.
        """
        # per job: its columns, the columns it reports and its draws' copies
        blocks, n = [], 0
        for _, alpha, episodes, _ in jobs:
            out = np.atleast_2d(alpha).shape[0] * episodes
            # a one-column matmul takes another BLAS path than a wider one:
            # run a lone episode twice so its bits match its row in a batch
            width = max(out, 2)
            blocks.append((slice(n, n + width), slice(n, n + out), width // episodes))
            n += width
        # mass, gain_x|gain_y, damping and limit as (2, n) rows: operands of
        # one shape, since broadcasting a (1, n) row slows every step down
        th = np.empty((8, n))
        scaled_noise = np.empty((HORIZON, 2, n))
        goal = np.empty((2, n))
        buf = np.zeros((6, n))
        to_goal, feats, state, pos = buf[0:2], buf[0:4], buf[2:6], buf[4:6]
        for (policy, alpha, episodes, seed), (cols, _, copies) in zip(jobs, blocks):
            theta = self.theta_at(alpha)[:, [0, 0, 1, 2, 3, 3, 4, 4]]
            th[:, cols].reshape(8, copies, episodes)[...] = theta.T[:, :, None]
            rng = np.random.default_rng(seed)
            start = rng.uniform(-self.start_jitter, self.start_jitter, (episodes, 2))
            end = np.asarray(self.goal_center) + rng.uniform(
                -self.goal_jitter, self.goal_jitter, (episodes, 2)
            )
            noise = rng.standard_normal((HORIZON, episodes, 2))
            scaled_noise[:, :, cols].reshape(HORIZON, 2, copies, episodes)[...] = (
                np.exp(policy.log_std) * noise
            ).transpose(0, 2, 1)[:, :, None]
            goal[:, cols].reshape(2, copies, episodes)[...] = end.T[:, None]
            pos[:, cols].reshape(2, copies, episodes)[...] = start.T[:, None]
        mass, gain, damping, limit = th[0:2], th[2:4], th[4:6], th[6:8]
        limits = (-limit, limit)
        np.subtract(goal, pos, out=to_goal)
        act = np.empty((2, n))
        # one matmul per job: its policy's weights on its block of columns
        products = [
            (policy.weights, feats[:, cols], act[:, cols])
            for (policy, *_), (cols, _, _) in zip(jobs, blocks)
        ]
        delta = np.empty((4, n))
        sq = np.empty((2, n))
        d2 = np.empty(n)
        hit = np.empty(n, dtype=bool)
        success = np.zeros(n, dtype=bool)
        # squared goal radius per episode, 0 once it has hit: d2 < 0 never
        # holds, so a hit test against it finds first hits only
        reach = np.full(n, GOAL_R2)
        if record:
            steps = np.full(n, HORIZON)
            feats_hist = np.zeros((HORIZON, n, 4))
            acts_hist = np.zeros((HORIZON, n, 2))
        for t in range(HORIZON):
            for weights, block_feats, block_act in products:
                np.matmul(weights, block_feats, out=block_act)
            act += scaled_noise[t]
            if record:
                feats_hist[t] = feats.T
                acts_hist[t] = act.T
            point_mass_step(state, act, gain, damping, mass, limits, delta)
            np.subtract(goal, pos, out=to_goal)
            np.multiply(to_goal, to_goal, out=sq)
            np.add(sq[0], sq[1], out=d2)
            np.less(d2, reach, out=hit)
            if np.count_nonzero(hit):
                success |= hit
                reach[hit] = 0.0
                if record:
                    steps[hit] = t + 1
                if success.all():
                    break
        for cols, _, _ in blocks:
            if not np.all(np.isfinite(pos[:, cols][:, ~success[cols]])):
                raise SimulationError("rollout produced non-finite positions")
        if not record:
            return [(success[out], None) for _, out, _ in blocks]
        dead = np.arange(HORIZON)[:, None] >= steps
        feats_hist[dead] = 0.0
        acts_hist[dead] = 0.0
        return [
            (success[out], (feats_hist[:, out], acts_hist[:, out], steps[out]))
            for _, out, _ in blocks
        ]

    # -- trainer contract ---------------------------------------------------

    def evaluate(self, policy, alpha, episodes: int, seed) -> EvalResult:
        return self.evaluates([(policy, alpha, episodes, seed)])[0]

    def evaluates(self, jobs) -> list[EvalResult]:
        runs = self._simulate(jobs)
        return [
            EvalResult(success_rate=float(np.mean(success)), sim_episodes=episodes)
            for (success, _), (_, _, episodes, _) in zip(runs, jobs)
        ]

    def train_step(self, policy, alpha, seed) -> TrainStepResult:
        return self.train_steps([(policy, alpha, seed)])[0]

    def train_steps(self, jobs) -> list[TrainStepResult]:
        runs = self._simulate(
            [(policy, alpha, self.batch_size, seed) for policy, alpha, seed in jobs],
            record=True,
        )
        return [
            self._policy_update(policy, success, *history)
            for (policy, _, _), (success, history) in zip(jobs, runs)
        ]

    def _policy_update(self, policy, success, feats, acts, steps) -> TrainStepResult:
        """One REINFORCE step on a recorded batch of batch_size episodes."""
        returns = success.astype(float)
        batch = [
            (feats[: steps[e], e, :], acts[: steps[e], e, :], float(returns[e]))
            for e in range(self.batch_size)
        ]
        # start-state control variate: regress returns on initial goal
        # distance so credit stays with the actions, not the episode draw
        d0 = np.array(
            [np.linalg.norm(feats[0, e, 0:2]) for e in range(self.batch_size)]
        )
        design = np.stack([np.ones_like(d0), d0], axis=1)
        coef, *_ = np.linalg.lstsq(design, returns, rcond=None)
        baselines = design @ coef
        new_policy = pg_train_step(
            policy, batch, self.learning_rate, baselines=baselines
        )
        return TrainStepResult(
            policy=new_policy,
            train_iterations=1,
            sim_episodes=self.batch_size,
        )

    def gradient_probe(self, policy, alphas, seed) -> ProbeResult:
        return self.gradient_probes([(policy, alphas, seed)])[0]

    def gradient_probes(self, jobs) -> list[ProbeResult]:
        runs = self._simulate(
            [(policy, alphas, self.probe_episodes, seed) for policy, alphas, seed in jobs]
        )
        return [
            ProbeResult(success.reshape(-1, self.probe_episodes).mean(axis=1), success.size)
            for success, _ in runs
        ]


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
