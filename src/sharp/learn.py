"""Policy representation and training for option and flat baselines.

The reference learner is an entropy-regularized actor-critic (twin critics,
target networks, squashed-Gaussian actor, replay buffer) written directly on
the package's Mlp; a cross-entropy-method learner exists behind the same
interface for cheap smoke runs. Policies emit a waypoint displacement in
[-1, 1]^2 which the kinematics adapter turns into a bounded world action.

Both learners train in one EpisodeEnv, whose option task (option_env) and
goal task (goal_env) differ only in their start and outcome rules. What a
training profile varies is a TrainConfig field; what none varies is one of
the protocol constants below.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .abstraction import RegionVoronoi, cell_region, goal_region
from .errors import DivergedTraining
from .mlp import (Adam, Mlp, MlpStack, from_params, init_mlp, mlp_backward,
                  mlp_forward, mlp_forward_cached, mlp_input_grad)
from .options import PENALTY_REWARD, TERMINAL_REWARD, OptionGuide, pseudo_reward
from .seeding import spawn
from .world import (Configuration, Kinematics, OccupancyWorld, require_free_endpoints,
                    sample_in_cells, steer_toward, step)

LOG_STD_MIN = -5.0
LOG_STD_MAX = 2.0
LOG_2PI = math.log(2.0 * math.pi)
STEP_REWARD = -1.0   # goal-task reward for a step that does not reach the goal

# the protocol constants, shared by every training profile
DISCOUNT = 0.99
REWARD_SCALE = 0.01       # applied to rewards before the critic targets
TAU = 0.01                # Polyak rate of the target critics
REPLAY_CAPACITY = 100_000
UPDATE_EVERY = 2          # environment steps per SAC update
CEM_ELITE_FRAC = 0.25
CEM_SIGMA = 0.5           # initial per-parameter standard deviation
CEM_EPISODES = 1          # greedy episodes that score one candidate


@dataclass(frozen=True)
class TrainConfig:
    """The training settings a profile varies; defaults mirror the reference
    protocol, and hidden sizes the actor of either learner. What no profile
    varies is a protocol constant of this module."""

    max_steps: int = 150_000
    eval_every: int = 10_000
    eval_episodes: int = 20
    stop_avg_reward: float = 500.0
    actor_lr: float = 1e-3
    critic_lr: float = 1e-3
    batch_size: int = 128
    entropy_coef: float = 0.05
    episode_limit: int = 200
    hidden: tuple = (256, 256)
    start_steps: int = 500
    learner: str = "sac"
    cem_population: int = 8
    cem_iters: int = 4

    def __post_init__(self):
        for name in ("max_steps", "eval_every", "eval_episodes", "batch_size",
                     "episode_limit", "cem_population", "cem_iters"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("actor_lr", "critic_lr"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if not 0 <= self.entropy_coef < math.inf:
            raise ValueError("entropy_coef must be nonnegative and finite")
        if self.start_steps < 0:
            raise ValueError("start_steps must be nonnegative")
        if math.isnan(self.stop_avg_reward):
            raise ValueError("stop_avg_reward must be a number")
        if self.learner not in ("sac", "cem"):
            raise ValueError(f"unknown learner {self.learner!r}")
        if len(self.hidden) != 2 or min(self.hidden) <= 0:
            raise ValueError("hidden must give two positive layer sizes")


@dataclass
class TrainStats:
    steps: int = 0
    success_fraction: float = 0.0
    final_success_steps: list = field(default_factory=list)
    evals: list = field(default_factory=list)  # (step, mean_return, success_rate)


# -- observations and actions ---------------------------------------------------


def build_observation(world: OccupancyWorld, guide: OptionGuide,
                      c: Configuration) -> np.ndarray:
    """Normalized configuration, vector to the nearest guide point, and the
    vector from that point to the guide's end."""
    ex, ey = world.extent
    hx, hy = ex / 2.0, ey / 2.0
    px, py = guide.xy[guide.nearest(c)[0]]
    gx, gy = guide.xy[-1]
    parts = [c.x / hx - 1.0, c.y / hy - 1.0]
    if world.kinematics is Kinematics.UNICYCLE:
        theta = c.theta if c.theta is not None else 0.0
        parts.extend([math.cos(theta), math.sin(theta)])
    parts.extend([(px - c.x) / hx, (py - c.y) / hy,
                  (gx - px) / hx, (gy - py) / hy])
    return np.array(parts)


def build_observations(world: OccupancyWorld, points: np.ndarray, x: np.ndarray,
                       y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """build_observation for each lane (x[i], y[i], theta[i]) on its own
    guide, row for row and bit for bit. points[i] holds lane i's guide
    points, padded at the end with copies of its last point (guide_table),
    so its last column is the guide's end and the nearest point has the
    coordinates it has without the padding; a table cut to fewer columns
    keeps both while every row still holds all of its guide's points.
    theta is read only under unicycle kinematics."""
    ex, ey = world.extent
    hx, hy = ex / 2.0, ey / 2.0
    d2 = (points[:, :, 0] - x[:, None]) ** 2 + (points[:, :, 1] - y[:, None]) ** 2
    px, py = points[np.arange(len(points)), np.argmin(d2, axis=1)].T
    gx, gy = points[:, -1].T
    cols = [x / hx - 1.0, y / hy - 1.0]
    if world.kinematics is Kinematics.UNICYCLE:
        t = theta.tolist()
        cols.extend([np.array(list(map(math.cos, t))), np.array(list(map(math.sin, t)))])
    cols.extend([(px - x) / hx, (py - y) / hy, (gx - px) / hx, (gy - py) / hy])
    return np.array(cols).T


def guide_table(guides) -> np.ndarray:
    """The points of each guide as one (guides, P, 2) table, P the most
    points of any, each row padded at the end with copies of its last point:
    the row table that build_observations reads."""
    n = max(len(g.points) for g in guides)
    return np.array([np.pad(g.xy, ((0, n - len(g.points)), (0, 0)),
                            mode="edge") for g in guides])


def observation_dim(world: OccupancyWorld) -> int:
    return 8 if world.kinematics is Kinematics.UNICYCLE else 6


def actor_layers(world: OccupancyWorld, cfg: TrainConfig) -> tuple:
    """The layer sizes of every actor either learner trains on world under
    cfg: the observation, cfg.hidden, and two heads of two outputs."""
    return (observation_dim(world), *cfg.hidden, 4)


def displacement_scale(world: OccupancyWorld) -> float:
    if world.kinematics is Kinematics.UNICYCLE:
        return 2.0 * world.v_max
    return world.max_step


def action_from_displacement(world: OccupancyWorld, c: Configuration,
                             u: np.ndarray, scale: float):
    """Turn a normalized displacement command into a bounded world action."""
    target = (c.x + float(u[0]) * scale, c.y + float(u[1]) * scale)
    return steer_toward(world, c, target)


# -- policy ----------------------------------------------------------------------


def squash_log_std(tanh_raw: np.ndarray) -> np.ndarray:
    """The actor's log-std from tanh of its raw head, mapped onto
    [LOG_STD_MIN, LOG_STD_MAX]."""
    return LOG_STD_MIN + 0.5 * (LOG_STD_MAX - LOG_STD_MIN) * (tanh_raw + 1.0)


@dataclass
class Policy:
    """Squashed-Gaussian actor bound to the guide that defines its inputs."""

    actor: Mlp
    guide: OptionGuide

    def _heads(self, obs: np.ndarray):
        out = mlp_forward(self.actor, obs)
        a = self.actor.n_out // 2
        return out[:a], out[a:]

    def greedy_displacement(self, obs: np.ndarray) -> np.ndarray:
        mu, _ = self._heads(obs)
        return np.tanh(mu)

    def sample_displacement(self, obs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        mu, raw = self._heads(obs)
        log_std = squash_log_std(np.tanh(raw))
        return np.tanh(mu + np.exp(log_std) * rng.standard_normal(mu.shape))

    @staticmethod
    def lane_controller(world: OccupancyWorld,
                        policies: list) -> Callable:
        """The greedy steering of lanes that each run one of policies:
        steer(slot, x, y, theta) -> (tx, ty), lane i running
        policies[slot[i]] from (x[i], y[i], theta[i]). Its waypoint is the
        configuration plus tanh(mu) times the displacement scale, as
        action_from_displacement forms its target. Every policy's actor must
        have the layer sizes of the first one's.

        One call builds every lane's observation in one pass and makes one
        MlpStack forward, net slot[i] for lane i. A net's lanes forward in a
        block of at least two rows, because a one-row product rounds
        differently from the same row inside a larger one, so a lane's
        waypoint does not depend on which lanes share the call.

        What depends on slot alone is kept from the previous call and
        rebuilt only when slot differs from that call's in content: the
        lanes' guide rows, cut to the most points of any of their guides,
        and the stack's layout."""
        table = guide_table([p.guide for p in policies])
        n_points = np.array([len(p.guide.points) for p in policies])
        stack = MlpStack([p.actor for p in policies])
        scale = displacement_scale(world)
        kept_slot = rows = layout = None

        def steer(slot: np.ndarray, x: np.ndarray, y: np.ndarray,
                  theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            nonlocal kept_slot, rows, layout
            if kept_slot is None or len(slot) != len(kept_slot) or \
                    not (slot == kept_slot).all():
                kept_slot = slot.copy()
                rows = table[slot, :n_points[slot].max()]
                layout = stack.layout(slot)
            obs = build_observations(world, rows, x, y, theta)
            u = np.tanh(stack.forward(layout, obs)[:, :stack.n_out // 2])
            return x + u[:, 0] * scale, y + u[:, 1] * scale

        return steer


# -- the training environment --------------------------------------------------------


@dataclass
class EpisodeEnv:
    """Rollout environment over one guide, for either training task.

    start(rng) draws an episode's first configuration; outcome(c) gives
    (reward, done, success) of arriving at c, and a success is always done.
    A start that is a success ends its episode before the first step. An
    episode also stops at episode_limit steps: a truncation, not a terminal
    for bootstrapping.
    """

    world: OccupancyWorld
    guide: OptionGuide
    episode_limit: int
    start: Callable
    outcome: Callable
    c: Configuration | None = None
    t: int = 0

    def reset(self, rng: np.random.Generator):
        """Returns (obs, success); a start that is a success ends its episode."""
        self.c = self.start(rng)
        self.t = 0
        return build_observation(self.world, self.guide, self.c), self.outcome(self.c)[2]

    def step(self, u: np.ndarray, rng: np.random.Generator):
        """One step under displacement command u; returns (obs, reward, done,
        truncated, success). A non-finite u, the output of a diverged actor,
        raises DivergedTraining."""
        if not (math.isfinite(u[0]) and math.isfinite(u[1])):
            raise DivergedTraining("non-finite action")
        a = action_from_displacement(self.world, self.c, u, displacement_scale(self.world))
        self.c = step(self.world, self.c, a, rng)
        self.t += 1
        r, done, success = self.outcome(self.c)
        truncated = not done and self.t >= self.episode_limit
        obs = build_observation(self.world, self.guide, self.c)
        return obs, r, done, truncated, success


def option_env(world: OccupancyWorld, rbvd: RegionVoronoi, guide: OptionGuide,
               episode_limit: int) -> EpisodeEnv:
    """The option task: a uniform start in the initiation region and the
    dense pseudo-reward, which pays TERMINAL_REWARD exactly in the
    termination region (a success) and PENALTY_REWARD exactly outside the
    allowed states (a failure); both end the episode."""
    cells = sorted(guide.initiation.cells)

    def outcome(c: Configuration):
        r = pseudo_reward(guide, rbvd, c)
        return r, r in (TERMINAL_REWARD, PENALTY_REWARD), r == TERMINAL_REWARD

    return EpisodeEnv(world, guide, episode_limit,
                      lambda rng: sample_in_cells(world, cells, rng), outcome)


def goal_env(world: OccupancyWorld, x_i: Configuration, x_g: Configuration,
             episode_limit: int, goal_tol: float) -> EpisodeEnv:
    """The flat baseline's goal task: a fixed start, TERMINAL_REWARD
    within goal_tol of x_g and STEP_REWARD for every other step."""
    guide = OptionGuide(
        option_id="goal",
        initiation=cell_region(world, x_i),
        termination=goal_region(world, x_g, goal_tol),
        points=[x_g], allowed_states=frozenset())

    def outcome(c: Configuration):
        success = c.distance_to(x_g) <= goal_tol
        return (TERMINAL_REWARD if success else STEP_REWARD), success, success

    return EpisodeEnv(world, guide, episode_limit, lambda rng: x_i, outcome)


# -- replay buffer -----------------------------------------------------------------


class ReplayBuffer:
    """Ring buffer of transitions, each one row [obs, act, rew, obs2, done]
    of a single float64 array."""

    def __init__(self, capacity: int, obs_dim: int, act_dim: int):
        self.capacity = capacity
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        self.rows = np.zeros((capacity, 2 * obs_dim + act_dim + 2))
        self.size = 0
        self.ptr = 0

    def add(self, obs, act, rew, obs2, done):
        row = np.concatenate((obs, act, (rew,), obs2, (float(done),)))
        if not np.isfinite(row).all():
            raise DivergedTraining("non-finite transition")
        self.rows[self.ptr] = row
        self.ptr = (self.ptr + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch: int, rng: np.random.Generator):
        """(obs, act, rew, obs2, done) of batch rows drawn with replacement."""
        idx = rng.integers(0, self.size, size=batch)
        rows = self.rows[idx]
        o, a = self.obs_dim, self.act_dim
        return (rows[:, :o], rows[:, o:o + a], rows[:, o + a],
                rows[:, o + a + 1:-1], rows[:, -1])


# -- actor-critic learner ------------------------------------------------------------


class SacLearner:
    """Twin-critic entropy-regularized actor-critic over the package Mlp."""

    def __init__(self, obs_dim: int, act_dim: int, cfg: TrainConfig,
                 rng: np.random.Generator):
        self.cfg = cfg
        self.act_dim = act_dim
        self.actor = init_mlp(obs_dim, cfg.hidden, 2 * act_dim, rng)
        self.q1 = init_mlp(obs_dim + act_dim, cfg.hidden, 1, rng)
        self.q2 = init_mlp(obs_dim + act_dim, cfg.hidden, 1, rng)
        self.t1 = self.q1.copy()
        self.t2 = self.q2.copy()
        self.opt_actor = Adam(lr=cfg.actor_lr)
        self.opt_q1 = Adam(lr=cfg.critic_lr)
        self.opt_q2 = Adam(lr=cfg.critic_lr)

    def _policy_terms(self, out: np.ndarray, eps: np.ndarray):
        a = self.act_dim
        mu, raw = out[:, :a], out[:, a:]
        tanh_raw = np.tanh(raw)
        log_std = squash_log_std(tanh_raw)
        std = np.exp(log_std)
        u = mu + std * eps
        t = np.tanh(u)
        logp = np.sum(-0.5 * eps * eps - log_std - 0.5 * LOG_2PI
                      - np.log(1.0 - t * t + 1e-6), axis=1)
        return mu, tanh_raw, log_std, std, u, t, logp

    def update(self, buffer: ReplayBuffer, rng: np.random.Generator) -> None:
        cfg = self.cfg
        obs, act, rew, obs2, done = buffer.sample(cfg.batch_size, rng)
        B = len(obs)
        alpha = cfg.entropy_coef
        rew = rew * REWARD_SCALE

        # the actor changes only at the end of the update, so one pass serves
        # the critic targets (rows :B, next states) and the actor loss (rows B:)
        out_all, cache_all = mlp_forward_cached(self.actor, np.concatenate([obs2, obs]))
        eps2 = rng.standard_normal((B, self.act_dim))
        *_, a2, logp2 = self._policy_terms(out_all[:B], eps2)
        xin2 = np.concatenate([obs2, a2], axis=1)
        qt = np.minimum(mlp_forward(self.t1, xin2)[:, 0],
                        mlp_forward(self.t2, xin2)[:, 0])
        y = rew + DISCOUNT * (1.0 - done) * (qt - alpha * logp2)

        xin = np.concatenate([obs, act], axis=1)
        for net, opt in ((self.q1, self.opt_q1), (self.q2, self.opt_q2)):
            q, cache = mlp_forward_cached(net, xin)
            diff = q[:, 0] - y
            loss = float(np.mean(diff * diff))
            if not math.isfinite(loss):
                raise DivergedTraining("critic loss is not finite")
            grads, _ = mlp_backward(net, cache, (2.0 * diff / B)[:, None],
                                    input_grad=False)
            opt.step(net, grads)

        # actor: minimize alpha*logp - min(Q1, Q2) under reparameterized actions
        eps = rng.standard_normal((B, self.act_dim))
        mu, tanh_raw, log_std, std, u, t, logp = self._policy_terms(out_all[B:], eps)
        xa = np.concatenate([obs, t], axis=1)
        q1v, cache1 = mlp_forward_cached(self.q1, xa)
        q2v, cache2 = mlp_forward_cached(self.q2, xa)
        q1v, q2v = q1v[:, 0], q2v[:, 0]
        use1 = q1v <= q2v
        actor_loss = float(np.mean(alpha * logp - np.where(use1, q1v, q2v)))
        if not math.isfinite(actor_loss):
            raise DivergedTraining("actor loss is not finite")
        up1 = np.where(use1, -1.0 / B, 0.0)[:, None]
        up2 = np.where(use1, 0.0, -1.0 / B)[:, None]
        din1 = mlp_input_grad(self.q1, cache1, up1)
        din2 = mlp_input_grad(self.q2, cache2, up2)
        dl_da = din1[:, obs.shape[1]:] + din2[:, obs.shape[1]:]

        one_m_t2 = 1.0 - t * t
        dlogp_du = 2.0 * t * one_m_t2 / (one_m_t2 + 1e-6)
        dl_du = (alpha / B) * dlogp_du + dl_da * one_m_t2
        dl_dmu = dl_du
        dl_dlogstd = dl_du * (u - mu) - (alpha / B)
        dl_draw = dl_dlogstd * 0.5 * (LOG_STD_MAX - LOG_STD_MIN) * (1.0 - tanh_raw ** 2)
        grads_a, _ = mlp_backward(self.actor, tuple(c[B:] for c in cache_all),
                                  np.concatenate([dl_dmu, dl_draw], axis=1),
                                  input_grad=False)
        self.opt_actor.step(self.actor, grads_a)

        # polyak-averaged target networks
        for src, dst in ((self.q1, self.t1), (self.q2, self.t2)):
            dst.params *= 1.0 - TAU
            dst.params += TAU * src.params


def run_episodes(env, policy: Policy, episodes: int, rng: np.random.Generator):
    """Greedy rollouts of policy in env; returns per-episode lists
    (returns, successes, steps). An episode whose start is already terminal
    takes 0 steps and returns TERMINAL_REWARD if it succeeded."""
    returns, successes, steps = [], [], []
    for _ in range(episodes):
        obs, success = env.reset(rng)
        total = TERMINAL_REWARD if success else 0.0
        n = 0
        done, truncated = success, False
        while not (done or truncated):
            u = policy.greedy_displacement(obs)
            obs, r, done, truncated, success = env.step(u, rng)
            total += r
            n += 1
        returns.append(total)
        successes.append(success)
        steps.append(n)
    return returns, successes, steps


def _record_eval(env, policy: Policy, cfg: TrainConfig, evals: list,
                 step_count: int, rng: np.random.Generator) -> tuple:
    """A greedy evaluation gate, appended to evals; returns its figures:
    (mean return, success fraction, the step counts of the successes)."""
    returns, successes, steps = run_episodes(env, policy, cfg.eval_episodes, rng)
    mean_ret = float(np.mean(returns))
    success = sum(successes) / cfg.eval_episodes
    evals.append((step_count, mean_ret, success))
    return mean_ret, success, [n for n, ok in zip(steps, successes) if ok]


def _train_sac(env, cfg: TrainConfig, rng: np.random.Generator):
    """Actor-critic training; a non-finite transition or loss raises
    DivergedTraining.

    Returns the actor of the gate with the best mean return, the earliest
    on a tie, with that gate's success_fraction and final_success_steps;
    steps and evals cover the whole training. Training ends early at a gate
    whose mean return reaches stop_avg_reward or TERMINAL_REWARD, the most
    an episode earns, so no later gate could replace it; a task whose every
    start is a success thus ends at its first gate."""
    obs_dim = observation_dim(env.world)
    learner = SacLearner(obs_dim, 2, cfg, spawn(rng))
    # one add per step, so a buffer of max_steps rows never wraps
    buffer = ReplayBuffer(min(REPLAY_CAPACITY, cfg.max_steps), obs_dim, 2)
    policy = Policy(actor=learner.actor, guide=env.guide)
    stats = TrainStats()
    stop = min(cfg.stop_avg_reward, TERMINAL_REWARD)
    best: tuple = ()   # (the best gate's figures, its actor params)

    def gate(step_count: int) -> bool:
        nonlocal best
        figures = _record_eval(env, policy, cfg, stats.evals, step_count, spawn(rng))
        if not best or figures[0] > best[0][0]:
            best = figures, learner.actor.flat()
        return figures[0] >= stop

    def live_start() -> np.ndarray:   # a start that is not a success
        obs, success = env.reset(rng)
        while success:
            obs, success = env.reset(rng)
        return obs

    steps = 0
    if not gate(0):
        obs = live_start()
        while steps < cfg.max_steps:
            if steps < cfg.start_steps:
                u = rng.uniform(-1.0, 1.0, size=2)
            else:
                u = policy.sample_displacement(obs, rng)
            obs2, r, done, truncated, _ = env.step(u, rng)
            buffer.add(obs, u, r, obs2, done)
            steps += 1
            obs = live_start() if done or truncated else obs2
            if steps >= cfg.start_steps and steps % UPDATE_EVERY == 0:
                learner.update(buffer, rng)
            if steps % cfg.eval_every == 0 and gate(steps):
                break
        if stats.evals[-1][0] != steps:
            gate(steps)
    stats.steps = steps
    (_, stats.success_fraction, stats.final_success_steps), params = best
    learner.actor.set_flat(params)
    return policy, stats


def _train_cem(env, cfg: TrainConfig, rng: np.random.Generator):
    """Cross-entropy search over actor parameters; smoke-test fallback."""
    template = init_mlp(observation_dim(env.world), cfg.hidden, 4, spawn(rng))
    mean = template.flat()
    sigma = np.full(mean.shape, CEM_SIGMA)
    stats = TrainStats()
    policy = Policy(actor=template, guide=env.guide)
    steps = 0
    n_elite = max(1, int(cfg.cem_population * CEM_ELITE_FRAC))

    def run_candidate(vec) -> tuple[float, int]:
        net = from_params(template.layer_sizes, vec)
        returns, _, steps = run_episodes(env, Policy(actor=net, guide=env.guide),
                                         CEM_EPISODES, rng)
        return sum(returns) / CEM_EPISODES, sum(steps)

    for _ in range(cfg.cem_iters):
        if steps >= cfg.max_steps:
            break
        pop = mean[None, :] + sigma[None, :] * rng.standard_normal(
            (cfg.cem_population, mean.size))
        scores = np.empty(cfg.cem_population)
        for i in range(cfg.cem_population):
            scores[i], used = run_candidate(pop[i])
            steps += used
        elite = pop[np.argsort(-scores)[:n_elite]]
        mean = elite.mean(axis=0)
        sigma = elite.std(axis=0) + 1e-3

    template.set_flat(mean)
    stats.steps = steps
    _, stats.success_fraction, stats.final_success_steps = _record_eval(
        env, policy, cfg, stats.evals, steps, spawn(rng))
    return policy, stats


def _train(env, cfg: TrainConfig, rng: np.random.Generator):
    if cfg.learner == "sac":
        return _train_sac(env, cfg, rng)
    return _train_cem(env, cfg, rng)


def train_option_policy(world: OccupancyWorld, guide: OptionGuide,
                        rbvd: RegionVoronoi, cfg: TrainConfig,
                        rng: np.random.Generator):
    """Train a policy for one option guide; returns (Policy, TrainStats)."""
    return _train(option_env(world, rbvd, guide, cfg.episode_limit), cfg, rng)


def train_monolithic_policy(world: OccupancyWorld, x_i: Configuration,
                            x_g: Configuration, cfg: TrainConfig,
                            rng: np.random.Generator, goal_tol: float):
    """Flat baseline: one policy from x_i to within goal_tol of x_g, with
    terminal +1000 and STEP_REWARD per other step."""
    require_free_endpoints(world, x_i, x_g)
    env = goal_env(world, x_i, x_g, cfg.episode_limit, goal_tol)
    return _train(env, cfg, rng)
