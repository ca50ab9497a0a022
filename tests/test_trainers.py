import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evotree import trainers as tr
from evotree import transfer as tx
from evotree.errors import InvalidInputError, PhaseFailureError, SimulationError

THETA = dict(mass=1.0, gain_x=1.0, gain_y=1.0, damping=0.5, limit=2.0)


def make_trainer(**kw):
    return tr.ToyMdpTrainer(tr.toy_space(), **kw)


def alpha_for(trainer, **theta):
    keymap = {
        "mass": "body.torso.mass",
        "gain_x": "motor.x.gain",
        "gain_y": "motor.y.gain",
        "damping": "body.damping",
        "limit": "motor.limit",
    }
    space = trainer.space
    vals = {keymap[k]: v for k, v in theta.items()}
    vec = np.array([vals[k] for k in space.parameter_keys])
    return (vec - space.theta_lower) / (space.theta_upper - space.theta_lower)


class TestCostModel:
    def test_fixed_step_cost(self):
        t = tr.CostModelTrainer()
        out = t.train_step(object(), (0.5, 0.5), seed=0)
        assert (out.train_iterations, out.sim_episodes) == (1, 10)

    def test_additivity(self):
        t = tr.CostModelTrainer()
        iters = eps = 0
        for k in range(17):
            out = t.train_step(object(), (0.1 * k, 0.0), seed=k)
            iters += out.train_iterations
            eps += out.sim_episodes
        assert (iters, eps) == (17, 170)

    def test_configured_episode_cost(self):
        t = tr.CostModelTrainer(sim_episodes_per_step=4)
        assert t.train_step(object(), (0.0,), seed=0).sim_episodes == 4

    def test_evaluate_succeeds_free(self):
        t = tr.CostModelTrainer()
        ev = t.evaluate(object(), (0.2,), episodes=30, seed=1)
        assert ev.success_rate == 1.0 and ev.sim_episodes == 0


def step(pos, vel, action, theta):
    """One point_mass_step on a single 2-D state with THETA-style parameters;
    returns (position', velocity')."""
    state = np.concatenate([vel, pos])[:, None]
    gain = np.array([[theta["gain_x"]], [theta["gain_y"]]])
    limits = (-theta["limit"], theta["limit"])
    tr.point_mass_step(
        state,
        np.array(action, dtype=float)[:, None],
        gain,
        theta["damping"],
        theta["mass"],
        limits,
        np.empty((4, 1)),
    )
    return state[2:, 0], state[:2, 0]


def simulate(trainer, policy, alpha, episodes, seed, record=False):
    """One job through the kernel: its (success, history)."""
    [run] = trainer._simulate([(policy, alpha, episodes, seed)], record=int(record))
    return run


def one_episode(trainer, policy, alpha, seed):
    """One recorded kernel episode: (success, features[T,4], live steps)."""
    success, (feats, _, steps) = simulate(trainer, policy, alpha, 1, seed, record=True)
    return bool(success[0]), feats[: steps[0], 0], int(steps[0])


class TestToyMdpStep:
    def test_zero_action_zero_velocity_fixed_point(self):
        pos = np.array([0.3, 0.4])
        pos2, vel2 = step(pos, np.zeros(2), np.zeros(2), THETA)
        assert np.array_equal(pos2, pos)
        assert np.array_equal(vel2, np.zeros(2))

    def test_doubling_mass_halves_velocity_increment(self):
        a = np.array([1.0, 0.5])
        _, light = step(np.zeros(2), np.zeros(2), a, THETA)
        _, heavy = step(np.zeros(2), np.zeros(2), a, {**THETA, "mass": 2.0})
        assert np.allclose(heavy, light / 2)

    def test_damping_monotone(self):
        vel = np.array([1.0, -1.0])
        speeds = []
        for c in [0.2, 0.6, 1.2, 2.0]:
            _, nxt = step(np.zeros(2), vel, np.zeros(2), {**THETA, "damping": c})
            speeds.append(float(np.linalg.norm(nxt)))
        assert all(x > y for x, y in zip(speeds, speeds[1:]))

    def test_action_clipped_to_limit(self):
        _, big = step(np.zeros(2), np.zeros(2), np.array([50.0, 0.0]), THETA)
        _, capped = step(
            np.zeros(2), np.zeros(2), np.array([THETA["limit"], 0.0]), THETA
        )
        assert np.allclose(big, capped)

    def test_non_finite_rejected(self):
        # a non-finite action (here from a policy corrupted after validation)
        # makes the kernel raise instead of returning a result
        t = make_trainer()
        a = alpha_for(t, **dict(THETA, limit=2.0))
        pol = tr.proportional_policy(1.2, 0.8, 0.12)
        pol.weights[0, 0] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(SimulationError):
            simulate(t, pol, a, 1, seed=0)

    def test_continuity_in_theta(self):
        pos = np.array([0.1, 0.2])
        vel = np.array([0.4, -0.1])
        a = np.array([0.6, 0.3])
        base_pos, base_vel = step(pos, vel, a, THETA)
        for eps in [1e-2, 1e-4, 1e-6]:
            th = {k: v + eps for k, v in THETA.items()}
            nxt_pos, nxt_vel = step(pos, vel, a, th)
            delta = np.linalg.norm(nxt_vel - base_vel) + np.linalg.norm(
                nxt_pos - base_pos
            )
            assert delta < 10 * eps


class TestRollout:
    def test_deterministic_given_seed(self):
        t = make_trainer()
        a = alpha_for(t, mass=1.0, gain_x=1.2, gain_y=1.2, damping=0.5, limit=2.4)
        pol = tr.proportional_policy(1.2, 0.8, 0.12)
        s1, ep1, n1 = one_episode(t, pol, a, seed=123)
        s2, ep2, n2 = one_episode(t, pol, a, seed=123)
        assert s1 == s2 and n1 == n2
        assert np.array_equal(ep1, ep2)

    def test_zero_policy_fails(self):
        t = make_trainer()
        a = alpha_for(t, **dict(THETA, limit=2.0))
        dead = tr.LinearGaussianPolicy(np.zeros((2, 4)), np.full(2, np.log(0.01)))
        success, _, _ = one_episode(t, dead, a, seed=5)
        assert not success

    def test_controller_reaches_goal_on_source(self):
        t = make_trainer()
        a = alpha_for(t, mass=1.0, gain_x=1.2, gain_y=1.2, damping=0.5, limit=2.4)
        pol = tr.proportional_policy(1.2, 0.8, 0.12)
        wins = sum(one_episode(t, pol, a, seed=s)[0] for s in range(100))
        assert wins >= 95

    def test_evaluate_matches_mean_success(self):
        t = make_trainer()
        a = alpha_for(t, mass=1.0, gain_x=1.2, gain_y=1.2, damping=0.5, limit=2.4)
        pol = tr.proportional_policy(1.2, 0.8, 0.12)
        ev = t.evaluate(pol, a, episodes=64, seed=9)
        assert 0.9 <= ev.success_rate <= 1.0
        assert ev.sim_episodes == 64


def bandit_batch(policy, n, seed, reward_fn):
    rng = np.random.default_rng(seed)
    feats = rng.uniform(-1.0, 1.0, (n, 1, 4))
    std = np.exp(policy.log_std)
    batch = []
    for i in range(n):
        mu = feats[i] @ policy.weights.T
        act = mu + std * rng.standard_normal(2)
        batch.append((feats[i], act, reward_fn(feats[i][0], act[0])))
    return batch


def surrogate(policy, batch):
    """The objective pg_train_step ascends, evaluated at arbitrary weights."""
    returns = np.array([b[2] for b in batch])
    adv = returns - returns.mean()
    var = np.exp(2.0 * policy.log_std)
    total = 0.0
    steps = 0
    for (feats, acts, _), a_k in zip(batch, adv):
        steps += len(feats)
        mu = feats @ policy.weights.T
        logp = -0.5 * np.sum((acts - mu) ** 2 / var)
        total += a_k * logp
    return total / steps


class TestPolicyGradient:
    def test_zero_return_batch_unchanged(self):
        pol = tr.proportional_policy(1.0, 0.5, 0.2)
        batch = bandit_batch(pol, 8, 3, lambda f, a: 0.0)
        out = tr.pg_train_step(pol, batch)
        assert np.array_equal(out.weights, pol.weights)
        assert np.array_equal(out.log_std, pol.log_std)

    def test_gradient_matches_finite_difference(self):
        pol = tr.proportional_policy(0.7, 0.3, 0.25)
        batch = bandit_batch(
            pol, 10000, 11, lambda f, a: -float((a[0] - 0.5) ** 2)
        )
        out = tr.pg_train_step(pol, batch, learning_rate=1.0, max_grad_norm=np.inf)
        analytic = out.weights - pol.weights
        h = 1e-6
        for idx in [(0, 0), (0, 2), (1, 1), (1, 3)]:
            wp = pol.copy()
            wp.weights[idx] += h
            wm = pol.copy()
            wm.weights[idx] -= h
            fd = (surrogate(wp, batch) - surrogate(wm, batch)) / (2 * h)
            assert analytic[idx] == pytest.approx(fd, rel=0.01, abs=1e-12)

    def test_bandit_estimator_unbiased(self):
        # quadratic bandit with fixed feature: closed-form expected-return
        # gradient vs the REINFORCE estimate over 10^4 samples
        rng = np.random.default_rng(17)
        sigma = 0.3
        w0 = 0.4
        pol = tr.LinearGaussianPolicy(
            np.array([[w0, 0, 0, 0], [0, 0, 0, 0.0]]),
            np.full(2, np.log(sigma)),
        )
        phi = np.array([1.0, 0.0, 0.0, 0.0])
        n = 10000
        acts = w0 + sigma * rng.standard_normal(n)
        rewards = -((acts - 1.0) ** 2)
        # estimator with baseline, per-step normalization (T=1 each)
        adv = rewards - rewards.mean()
        est = float(np.mean(adv * (acts - w0) / sigma**2))
        analytic = -2.0 * (w0 - 1.0)
        se = float(np.std(adv * (acts - w0) / sigma**2, ddof=1) / math.sqrt(n))
        assert abs(est - analytic) < 3 * se

    def test_divergence_raises(self):
        pol = tr.proportional_policy(1.0, 0.5, 0.2)
        feats = np.full((1, 4), np.inf)
        acts = np.zeros((1, 2))
        with np.errstate(invalid="ignore"), pytest.raises(Exception):
            tr.pg_train_step(pol, [(feats, acts, 1.0), (feats, acts, 0.0)])

    def test_training_regression_near_success(self):
        # warm policy on a hard robot climbs to 0.8 within 500 iterations
        t = make_trainer(learning_rate=0.3)
        a = alpha_for(
            t, mass=1.7, gain_x=0.26, gain_y=0.26, damping=1.15, limit=2.0
        )
        good = 0
        for seed in range(5):
            pol = tr.proportional_policy(1.2, 0.8, 0.12)
            reached = False
            for it in range(500):
                pol = t.train_step(pol, a, seed=[seed, it]).policy
                if it % 20 == 19:
                    ev = t.evaluate(pol, a, 30, seed=[seed, 7000 + it])
                    if ev.success_rate >= 0.8:
                        reached = True
                        break
            good += reached
        assert good >= 4


def loop_pg_train_step(policy, batch, learning_rate, max_grad_norm, baselines):
    """REINFORCE as a loop over the episodes: the reference pg_train_step
    must equal bit for bit."""
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
    new_ls = np.clip(policy.log_std + learning_rate * grad_ls, *tr.LOG_STD_BOUNDS)
    return tr.LinearGaussianPolicy(weights=new_w, log_std=new_ls)


class TestVectorizedReinforce:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lengths=st.lists(st.integers(0, 40), min_size=1, max_size=14),
        returns=st.sampled_from(["binary", "equal", "real"]),
        baselines=st.sampled_from(["mean", "random", "some equal to the return"]),
        diverge=st.booleans(),
        max_grad_norm=st.sampled_from([tr.MAX_GRAD_NORM, np.inf, 1e-3]),
        learning_rate=st.sampled_from([0.05, 1e4]),
    )
    @example(seed=1, lengths=[1, 7, 3, 1], returns="binary", baselines="mean",
             diverge=False, max_grad_norm=np.inf, learning_rate=1e4)
    @example(seed=2, lengths=[5, 5, 5], returns="equal", baselines="mean",
             diverge=False, max_grad_norm=np.inf, learning_rate=0.05)
    @example(seed=3, lengths=[9], returns="real", baselines="random",
             diverge=False, max_grad_norm=np.inf, learning_rate=1e4)
    @example(seed=4, lengths=[4, 2, 6], returns="binary", baselines="some equal to the return",
             diverge=True, max_grad_norm=tr.MAX_GRAD_NORM, learning_rate=0.05)
    def test_equals_the_per_episode_loop(
        self, seed, lengths, returns, baselines, diverge, max_grad_norm, learning_rate
    ):
        # mixed lengths (1-row episodes too), zero-advantage episodes, equal
        # returns, one episode and an inf feature that makes both diverge; a
        # large learning rate puts the gradient's low bits into the weights
        rng = np.random.default_rng(seed)
        pol = random_policy(rng, 0.3)
        e = len(lengths)
        ret = {
            "binary": rng.integers(0, 2, e).astype(float),
            "equal": np.full(e, 0.7),
            "real": rng.standard_normal(e),
        }[returns]
        base = {
            "mean": None,
            "random": rng.standard_normal(e),
            "some equal to the return": np.where(rng.random(e) < 0.5, ret, rng.random(e)),
        }[baselines]
        batch = [
            (
                rng.standard_normal((t, 4)) * 10.0 ** rng.uniform(-2, 2, (t, 4)),
                rng.standard_normal((t, 2)),
                float(r),
            )
            for t, r in zip(lengths, ret)
        ]
        if diverge:
            longest = int(np.argmax(lengths))
            if lengths[longest]:
                batch[longest][0][-1, 0] = np.inf
        outcomes = []
        for step in (tr.pg_train_step, loop_pg_train_step):
            with np.errstate(all="ignore"):
                try:
                    outcomes.append(step(pol, batch, learning_rate, max_grad_norm, base))
                except PhaseFailureError as exc:
                    outcomes.append(exc)
        new, ref = outcomes
        if isinstance(ref, PhaseFailureError):
            assert isinstance(new, PhaseFailureError)
        else:
            assert np.array_equal(new.weights, ref.weights)
            assert np.array_equal(new.log_std, ref.log_std)


class TestGradientSign:
    def test_gain_dimension_sign_agreement(self):
        # wide gain range so the marginal band sits clear of the bounds
        space = tr.toy_space(lower={"motor.x.gain": 0.1, "motor.y.gain": 0.1})
        t = tr.ToyMdpTrainer(space, probe_episodes=24)
        pol = tr.proportional_policy(1.2, 0.8, 0.12)
        vals = {
            "body.torso.mass": 1.8,
            "motor.x.gain": 0.25,
            "motor.y.gain": 0.5,
            "body.damping": 1.25,
            "motor.limit": 2.0,
        }
        vec = np.array([vals[k] for k in space.parameter_keys])
        base = (vec - space.theta_lower) / (space.theta_upper - space.theta_lower)
        gain_dim = space.parameter_keys.index("motor.x.gain")
        agree = 0
        trials = 4
        for seed in range(trials):
            cfg = tx.TransferConfig(
                xi=0.12, p_norm=1, gradient_samples=12, seed=seed
            )
            est = tx.estimate_reward_gradient(t, base, pol, cfg, seed_material=[seed])
            h = 0.08
            up = base.copy()
            up[gain_dim] += h
            dn = base.copy()
            dn[gain_dim] -= h
            f_up = np.mean(
                [t.evaluate(pol, up, 64, seed=[seed, k]).success_rate for k in range(2)]
            )
            f_dn = np.mean(
                [t.evaluate(pol, dn, 64, seed=[seed, k]).success_rate for k in range(2)]
            )
            oracle_sign = np.sign(f_up - f_dn)
            if oracle_sign != 0 and np.sign(est.gradient[gain_dim]) == oracle_sign:
                agree += 1
        assert agree >= trials - 1


def random_policy(rng, spread):
    """The expert controller with its weights perturbed by `spread`."""
    pol = tr.proportional_policy(1.2, 0.8, 0.12)
    return tr.LinearGaussianPolicy(
        pol.weights + spread * rng.standard_normal((2, 4)),
        rng.uniform(*tr.LOG_STD_BOUNDS, 2),
    )


def box_points(rng, k, d, face_share):
    """k points in [0, 1]^d, a face_share of their coordinates on a face."""
    pts = rng.random((k, d))
    on_face = rng.random((k, d)) < face_share
    pts[on_face] = rng.integers(0, 2, int(on_face.sum()))
    return pts


def per_probe_gradient(trainer, alpha, policy, cfg, seed_material):
    """The per-probe estimator loop, one gradient_probe call per point."""
    al = np.asarray(alpha, dtype=float)
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.seed, 0x6E5D, *map(int, seed_material)])
    )

    def probe(a):
        out = trainer.gradient_probe(policy, a[None], seed=[cfg.seed, 0x6E5D, 0])
        return float(out.mean_return[0])

    base = probe(al)
    deltas, values = [], []
    for _ in range(cfg.gradient_samples):
        direction = rng.standard_normal(len(al))
        direction /= max(float(np.linalg.norm(direction)), 1e-12)
        probe_alpha = np.clip(al + (cfg.xi / 2.0) * direction, 0.0, 1.0)
        deltas.append(probe_alpha - al)
        values.append(probe(probe_alpha) - base)
    grad, *_ = np.linalg.lstsq(np.asarray(deltas), np.asarray(values), rcond=None)
    return grad


class TestBatchedProbe:
    @settings(max_examples=20, deadline=None)
    @given(
        k=st.integers(1, 80),
        seed=st.integers(0, 2**32 - 1),
        spread=st.sampled_from([0.0, 0.3, 3.0]),
        face_share=st.sampled_from([0.0, 0.3, 1.0]),
        episodes=st.sampled_from([1, 2, 3, 8]),
    )
    def test_rows_equal_one_point_calls(self, k, seed, spread, face_share, episodes):
        t = make_trainer(probe_episodes=episodes)
        rng = np.random.default_rng(seed)
        pol = random_policy(rng, spread)
        pts = box_points(rng, k, 5, face_share)
        out = t.gradient_probe(pol, pts, seed=[seed, 1])
        assert out.mean_return.shape == (k,)
        assert out.sim_episodes == k * t.probe_episodes
        success, (feats, acts, steps) = simulate(
            t, pol, pts, t.probe_episodes, [seed, 1], record=True
        )
        n = t.probe_episodes
        for j in range(k):
            one = t.gradient_probe(pol, pts[j : j + 1], seed=[seed, 1])
            assert np.array_equal(out.mean_return[j : j + 1], one.mean_return)
            s1, (f1, a1, st1) = simulate(t, pol, pts[j], n, [seed, 1], record=True)
            rows = slice(j * n, (j + 1) * n)
            assert np.array_equal(success[rows], s1)
            assert np.array_equal(steps[rows], st1)
            assert np.array_equal(feats[:, rows], f1)
            assert np.array_equal(acts[:, rows], a1)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        samples=st.integers(6, 40),
        xi=st.sampled_from([0.03, 0.12, 0.5]),
        face_share=st.sampled_from([0.0, 0.4]),
    )
    def test_estimate_is_one_call_equal_to_per_probe_loop(
        self, seed, samples, xi, face_share
    ):
        t = make_trainer()
        rng = np.random.default_rng(seed)
        pol = random_policy(rng, 0.3)
        alpha = box_points(rng, 1, 5, face_share)[0]
        cfg = tx.TransferConfig(xi=xi, gradient_samples=samples, seed=seed % 1000)
        calls = []
        simulate = t._simulate

        def counted(*args, **kwargs):
            calls.append(args)
            return simulate(*args, **kwargs)

        t._simulate = counted
        est = tx.estimate_reward_gradient(t, alpha, pol, cfg, seed_material=[seed, 3])
        assert len(calls) == 1
        assert est.sim_episodes == (samples + 1) * t.probe_episodes
        expected = per_probe_gradient(t, alpha, pol, cfg, [seed, 3])
        assert np.array_equal(est.gradient, expected)


def masked_copy_kernel(trainer, policy, alpha, episodes, seed):
    """Reference rollouts: the (n, 2) state kernel that freezes each episode
    at its first hit with np.copyto(where=live) and tests the goal by a
    square root. Returns (success, features, actions, steps). A lone
    episode's action product runs on two equal rows, since a one-row matmul
    takes another BLAS path and the kernel keeps the wide path's bits."""
    th = np.repeat(trainer.theta_at(alpha), episodes, axis=0)
    mass, gain, damping, limit = (
        th[:, i:j].copy() for i, j in ((0, 1), (1, 3), (3, 4), (4, 5))
    )
    k = len(th) // episodes
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-tr.START_JITTER, tr.START_JITTER, (episodes, 2))
    goal = np.asarray(tr.GOAL_CENTER) + rng.uniform(
        -tr.GOAL_JITTER, tr.GOAL_JITTER, (episodes, 2)
    )
    noise = np.tile(rng.standard_normal((tr.HORIZON, episodes, 2)), (1, k, 1))
    pos, goal = np.tile(pos, (k, 1)), np.tile(goal, (k, 1))
    n = len(th)
    vel = np.zeros((n, 2))
    std = np.exp(policy.log_std)
    success = np.zeros(n, dtype=bool)
    live = np.ones((n, 1), dtype=bool)
    steps = np.full(n, tr.HORIZON)
    feats_hist = np.zeros((tr.HORIZON, n, 4))
    acts_hist = np.zeros((tr.HORIZON, n, 2))
    for t in range(tr.HORIZON):
        feats = np.concatenate([goal - pos, vel], axis=1)
        act = (feats if n > 1 else np.repeat(feats, 2, axis=0)) @ policy.weights.T
        act = act[:n] + std * noise[t]
        np.copyto(feats_hist[t], feats, where=live)
        np.copyto(acts_hist[t], act, where=live)
        a = np.minimum(np.maximum(act, -limit), limit)
        new_pos = pos + vel * tr.DT
        new_vel = vel + tr.DT * (gain * a - damping * vel) / mass
        np.copyto(pos, new_pos, where=live)
        np.copyto(vel, new_vel, where=live)
        d = pos - goal
        hit = live[:, 0] & (np.linalg.norm(d, axis=1) < tr.GOAL_RADIUS)
        if hit.any():
            success |= hit
            steps[hit] = t + 1
            if success.all():
                break
            live = ~success[:, None]
    return success, feats_hist, acts_hist, steps


class TestKernelEqualsMaskedCopy:
    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 40),
        episodes=st.integers(1, 90),
        seed=st.integers(0, 2**32 - 1),
        spread=st.sampled_from([0.0, 0.3, 3.0, 300.0]),
        face_share=st.sampled_from([0.0, 0.3, 1.0]),
        one_point=st.booleans(),
    )
    def test_bit_equal(self, k, episodes, seed, spread, face_share, one_point):
        # spread 300 saturates the actions at the limit on nearly every step
        t = make_trainer()
        rng = np.random.default_rng(seed)
        pol = random_policy(rng, spread)
        pts = box_points(rng, k, 5, face_share)
        alpha = pts[0] if one_point else pts
        success, feats, acts, steps = masked_copy_kernel(t, pol, alpha, episodes, seed)
        plain, history = simulate(t, pol, alpha, episodes, seed)
        assert history is None
        assert np.array_equal(plain, success)
        rec, (f, a, s) = simulate(t, pol, alpha, episodes, seed, record=True)
        assert np.array_equal(rec, success)
        assert np.array_equal(s, steps)
        assert np.array_equal(f, feats)
        assert np.array_equal(a, acts)

    @settings(max_examples=25, deadline=None)
    @given(
        jobs=st.lists(
            st.tuples(
                st.integers(0, 2**32 - 1),
                st.sampled_from([0.0, 0.3, 3.0, 300.0]),
                st.sampled_from([1, 2, 30, 90]),
                st.sampled_from([0, 1, 3]),
                st.sampled_from([tx.PROBE, tx.TRAIN, tx.EVAL]),
            ),
            min_size=1,
            max_size=5,
        ),
        record=st.integers(0, 5),
        batch_size=st.sampled_from([1, 2, 12]),
    )
    def test_jobs_equal_one_job_calls(self, jobs, record, batch_size):
        # mixed policies, points and episode counts side by side in one
        # kernel call, the first `record` of them recorded; k = 0 is one
        # point (D,), else a (k, D) batch
        t = make_trainer(batch_size=batch_size)
        runs, requests = [], []
        for seed, spread, episodes, k, kind in jobs:
            rng = np.random.default_rng(seed)
            pts = box_points(rng, max(k, 1), 5, 0.3)
            pol = random_policy(rng, spread)
            runs.append((pol, pts if k else pts[0], episodes, [seed, k]))
            job = {
                tx.PROBE: (pol, pts, [seed, k]),
                tx.TRAIN: (pol, pts[0], [seed, k]),
                tx.EVAL: runs[-1],
            }[kind]
            requests.append((kind, job))
        record = min(record, len(runs))
        batched = t._simulate(runs, record=record)
        assert len(batched) == len(runs)
        for j, (job, (success, history)) in enumerate(zip(runs, batched)):
            one, one_history = simulate(t, *job, record=j < record)
            assert np.array_equal(success, one)
            if j < record:
                for a, b in zip(history, one_history):
                    assert np.array_equal(a, b)
            else:
                assert history is None and one_history is None
        # serve runs the train jobs first, recorded, whatever their order
        order = np.random.default_rng(jobs[0][0]).permutation(len(requests))
        requests = [requests[i] for i in order]
        served = t.serve(requests)
        assert len(served) == len(requests)
        single = {tx.PROBE: t.gradient_probe, tx.TRAIN: t.train_step, tx.EVAL: t.evaluate}
        for (kind, job), out in zip(requests, served):
            one = single[kind](*job)
            assert type(out) is type(one) and out.sim_episodes == one.sim_episodes
            if kind == tx.TRAIN:
                assert one.sim_episodes == batch_size
                assert np.array_equal(out.policy.weights, one.policy.weights)
                assert np.array_equal(out.policy.log_std, one.policy.log_std)
            elif kind == tx.PROBE:
                assert one.sim_episodes == len(job[1]) * t.probe_episodes
                assert np.array_equal(out.mean_return, one.mean_return)
            else:
                assert out == one

    def test_calls_over_the_byte_budget_are_refused(self, monkeypatch):
        t = make_trainer()
        rng = np.random.default_rng(3)
        jobs = [
            (random_policy(rng, 0.3), box_points(rng, 1, 5, 0.3)[0], episodes, [i])
            for i, episodes in enumerate([30, 30, 12, 30, 150])
        ]
        # room for about two of the 30-episode jobs at once
        two = 2 * 30 * (tr.COLUMN_BYTES + tr.RECORD_BYTES + tr.DRAW_BYTES)
        monkeypatch.setattr(tr, "SIM_MAX_BYTES", two)
        with pytest.raises(InvalidInputError, match="MiB"):
            t._simulate(jobs[:4], record=3)
        # the 150-episode job needs more than the budget on its own: serve
        # gives it its own error, and every other job its result
        served = t.serve([(tx.EVAL, job) for job in jobs])
        assert isinstance(served[4], InvalidInputError) and "MiB" in str(served[4])
        monkeypatch.undo()
        for out, job in zip(served[:4], jobs):
            assert out == t.evaluate(*job)

    def test_a_malformed_request_fails_alone(self):
        # a job whose width cannot be taken (no episode count, ragged
        # points) gets its own error; the requests beside it are served
        t = make_trainer()
        rng = np.random.default_rng(4)
        pol = random_policy(rng, 0.3)
        good = [(tx.EVAL, (pol, box_points(rng, 1, 5, 0.3)[0], 6, [i])) for i in range(3)]
        requests = [
            good[0],
            (tx.EVAL, (pol, box_points(rng, 1, 5, 0.3)[0], None, [7])),
            good[1],
            (tx.PROBE, (pol, [[0.1] * 5, [0.2] * 4], [8])),
            good[2],
        ]
        served = t.serve(requests)
        assert isinstance(served[1], TypeError) and isinstance(served[3], ValueError)
        for out, (_, job) in zip(served[0::2], good):
            assert out == t.evaluate(*job)

    def test_a_failing_policy_update_fails_alone(self, monkeypatch):
        # the update of one train job raises after the shared kernel call:
        # its slot holds the error, and the requests beside it are served
        t = make_trainer(batch_size=4)
        rng = np.random.default_rng(5)
        bad, good = random_policy(rng, 0.3), random_policy(rng, 0.3)
        requests = [
            (tx.TRAIN, (good, box_points(rng, 1, 5, 0.3)[0], [0])),
            (tx.TRAIN, (bad, box_points(rng, 1, 5, 0.3)[0], [1])),
            (tx.EVAL, (good, box_points(rng, 1, 5, 0.3)[0], 6, [2])),
            (tx.PROBE, (good, box_points(rng, 3, 5, 0.3), [3])),
        ]
        want = [t.serve([request])[0] for request in requests]
        update = tr.ToyMdpTrainer._policy_update

        def failing(self, policy, *args):
            if policy is bad:
                raise PhaseFailureError("update failed")
            return update(self, policy, *args)

        monkeypatch.setattr(tr.ToyMdpTrainer, "_policy_update", failing)
        served = t.serve(requests)
        assert isinstance(served[1], PhaseFailureError)
        for i in (0, 2, 3):
            assert same_result(served[i], want[i])

    def test_goal_r2_is_the_exact_square_root_threshold(self):
        r2 = tr.GOAL_R2
        assert math.sqrt(r2) >= tr.GOAL_RADIUS > math.sqrt(math.nextafter(r2, 0.0))
        assert r2 < tr.GOAL_RADIUS * tr.GOAL_RADIUS


# a robot whose damping resets the velocity every step, and a P-D policy
# that puts it on the goal in two steps (deadbeat control): every episode
# hits within the kernel's first HIT_CHECK steps
DEADBEAT_SPACE = tr.toy_space(
    lower={"body.damping": 19.5, "body.torso.mass": 0.98, "motor.limit": 250.0,
           "motor.x.gain": 4.9, "motor.y.gain": 4.9},
    upper={"body.damping": 20.5, "body.torso.mass": 1.02, "motor.limit": 300.0,
           "motor.x.gain": 5.1, "motor.y.gain": 5.1},
)


def deadbeat_policy(rng):
    return tr.proportional_policy(rng.uniform(70, 90), rng.uniform(3.5, 4.5), 0.1)


def same_result(out, one):
    if isinstance(one, Exception):
        return type(out) is type(one)
    if type(out) is not type(one) or out.sim_episodes != one.sim_episodes:
        return False
    if isinstance(one, tr.TrainStepResult):
        return np.array_equal(out.policy.weights, one.policy.weights) and np.array_equal(
            out.policy.log_std, one.policy.log_std
        )
    if isinstance(one, tr.ProbeResult):
        return np.array_equal(out.mean_return, one.mean_return)
    return out == one


class TestServeEqualsOneRequestAtATime:
    @settings(max_examples=30, deadline=None)
    @given(
        requests=st.lists(
            st.tuples(
                st.sampled_from([tx.PROBE, tx.TRAIN, tx.EVAL]),
                st.sampled_from([1, 2, 12]),  # evaluation episodes
                st.sampled_from([0, 1, 3]),  # 0: one point (D,), else k points
                st.booleans(),  # the previous request's policy object
                st.integers(0, 2**32 - 1),
            ),
            min_size=1,
            max_size=7,
        ),
        call=st.sampled_from(["mixed", "all hit early", "all steps"]),
        batch_size=st.sampled_from([1, 2, 12]),
        probe_episodes=st.sampled_from([1, 2]),
    )
    # one policy object for a train job and an evaluation
    @example(requests=[(tx.EVAL, 12, 0, False, 1), (tx.TRAIN, 2, 0, True, 2)],
             call="mixed", batch_size=12, probe_episodes=2)
    # a lone episode (two columns) in a run of equal widths
    @example(requests=[(tx.EVAL, 2, 0, False, 3), (tx.EVAL, 1, 0, False, 4),
                       (tx.PROBE, 1, 1, False, 5), (tx.TRAIN, 1, 0, False, 6)],
             call="mixed", batch_size=2, probe_episodes=2)
    @example(requests=[(tx.TRAIN, 1, 0, False, 7), (tx.EVAL, 12, 3, True, 8),
                       (tx.EVAL, 12, 0, False, 9)],
             call="all hit early", batch_size=12, probe_episodes=2)
    @example(requests=[(tx.EVAL, 12, 0, False, 10), (tx.TRAIN, 1, 0, False, 11)],
             call="all steps", batch_size=12, probe_episodes=2)
    def test_bit_equal(self, requests, call, batch_size, probe_episodes):
        space = DEADBEAT_SPACE if call == "all hit early" else tr.toy_space()
        t = tr.ToyMdpTrainer(space, batch_size=batch_size, probe_episodes=probe_episodes)
        served_requests, pol = [], None
        for i, (kind, episodes, k, share, seed) in enumerate(requests):
            rng = np.random.default_rng(seed)
            if not (share and pol is not None):
                pol = deadbeat_policy(rng) if call == "all hit early" else random_policy(rng, 0.3)
            if call == "all steps" and i == 0:
                # never moves, so never reaches its goal
                pol = tr.LinearGaussianPolicy(np.zeros((2, 4)), np.full(2, tr.LOG_STD_BOUNDS[0]))
            pts = box_points(rng, max(k, 1), 5, 0.3)
            alpha = pts if k else pts[0]
            job = {
                tx.PROBE: (pol, pts, [seed, 1]),
                tx.TRAIN: (pol, pts[0], [seed, 2]),
                tx.EVAL: (pol, alpha, episodes, [seed, 3]),
            }[kind]
            served_requests.append((kind, job))
        steps = []
        point_mass_step = tr.point_mass_step

        def counted(*args):
            steps.append(1)
            point_mass_step(*args)

        with mock.patch.object(tr, "point_mass_step", counted):
            served = t.serve(served_requests)
        if call == "all hit early":
            assert len(steps) == tr.HIT_CHECK
        elif call == "all steps":
            assert len(steps) == tr.HORIZON
        assert len(served) == len(served_requests)
        for request, out in zip(served_requests, served):
            assert same_result(out, t.serve([request])[0])


class TestPolicyValidation:
    def test_bad_shapes_rejected(self):
        with pytest.raises(InvalidInputError):
            tr.LinearGaussianPolicy(np.zeros((3, 4)), np.zeros(2))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            tr.LinearGaussianPolicy(np.full((2, 4), np.nan), np.zeros(2))

    def test_copy_is_independent(self):
        pol = tr.proportional_policy(1.0, 0.5, 0.2)
        cp = pol.copy()
        cp.weights[0, 0] = 99.0
        assert pol.weights[0, 0] == 1.0
