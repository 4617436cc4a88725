"""Test doubles and oracles shared by the test modules."""

import math
import signal
import typing
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from sharp.abstraction import Region
from sharp.errors import Unreachable
from sharp.learn import (DISCOUNT, LOG_2PI, LOG_STD_MAX, LOG_STD_MIN, REWARD_SCALE,
                         TAU, action_from_displacement, build_observation,
                         displacement_scale)
from sharp.motion import RRT_GOAL_BIAS, RRT_MAX_ITERS, RRT_STEP_CELLS, rrt_plan, shortcut
from sharp.options import OptionGuide, OptionSpec, build_guide
from sharp.planner import astar
from sharp.regions import swept_cells
from sharp.seeding import spawn
from sharp.world import (SWEEP_FRACTION, Configuration, Kinematics, OccupancyWorld,
                         sample_free, sample_in_cells, step, steer_lanes, steer_toward)


@contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the block once it has run for seconds, so that
    a call that never returns fails its test instead of hanging it."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class ScriptedPolicy:
    """Oracle policy that tracks a fixed waypoint list; used as a test double.

    Memoryless, as a stage policy must be: a lane heads for the end of the
    waypoint segment nearest to it (the first on ties), or for the waypoint
    after that once within tol of it."""

    def __init__(self, waypoints, tol=0.5):
        self.waypoints = list(waypoints)
        self.tol = tol

    def _target(self, c):
        pts = self.waypoints
        if len(pts) == 1:
            return pts[0].xy
        k = min(range(len(pts) - 1),
                key=lambda j: _segment_distance(c, pts[j], pts[j + 1]))
        nxt = k + 1
        if nxt + 1 < len(pts) and c.distance_to(pts[nxt]) <= self.tol:
            nxt += 1
        return pts[nxt].xy

    @staticmethod
    def lane_controller(world, policies):
        """Steers each lane by its own policy's waypoint rule, one lane at a
        time."""
        def steer(slot, x, y, theta):
            tx, ty = zip(*(policies[k]._target(Configuration(a, b))
                           for k, a, b in zip(slot.tolist(), x.tolist(), y.tolist())))
            return np.array(tx), np.array(ty)
        return steer


def free_cells(world: OccupancyWorld) -> np.ndarray:
    """(n, 2) int array of the world's free (ix, iy) cells, in row-major
    scan order (free_list)."""
    return np.array(world.free_list, dtype=np.int64).reshape(-1, 2)


def steer_toward_lanes(world: OccupancyWorld, x, y, theta, tx, ty):
    """steer_toward for lanes at (x, y, theta) heading for (tx, ty): the
    commands that the lane engine steps under, as two arrays, (dx, dy) or
    (v, omega)."""
    return steer_lanes(world, x, y, theta, tx, ty)[:2]


def _segment_distance(c, a, b) -> float:
    ax, ay, bx, by = a.x, a.y, b.x, b.y
    L2 = (bx - ax) ** 2 + (by - ay) ** 2
    t = 0.0 if L2 == 0 else min(1.0, max(0.0, ((c.x - ax) * (bx - ax)
                                               + (c.y - ay) * (by - ay)) / L2))
    return c.distance_to((ax + t * (bx - ax), ay + t * (by - ay)))


def act(world, policy, c, greedy=True, rng=None):
    """The action a stage policy takes at c: greedy through its lane
    interface, or, for a learned Policy, sampled from its squashed Gaussian."""
    if greedy:
        steer = type(policy).lane_controller(world, [policy])
        tx, ty = steer(np.zeros(1, dtype=np.int64), np.array([c.x]), np.array([c.y]),
                       np.array([c.theta or 0.0]))
        return steer_toward(world, c, (float(tx[0]), float(ty[0])))
    u = policy.sample_displacement(build_observation(world, policy.guide, c), rng)
    return action_from_displacement(world, c, u, displacement_scale(world))


def evaluate_policy(world, policy, start, stop_predicate, episodes, step_limit, rng):
    """Greedy rollouts from a Region or fixed Configuration until the stop
    predicate holds; returns {"success_rate", "mean_steps"}."""
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    successes = 0
    steps_taken = []
    for _ in range(episodes):
        if isinstance(start, Region):
            c = sample_in_cells(world, sorted(start.cells), rng)
        else:
            c = start
        steps = 0
        ok = stop_predicate(c)
        while not ok and steps < step_limit:
            c = step(world, c, act(world, policy, c), rng)
            steps += 1
            ok = stop_predicate(c)
        successes += ok
        steps_taken.append(steps)
    return {"success_rate": successes / episodes,
            "mean_steps": float(np.mean(steps_taken))}


def dijkstra_cost(options, start, goal, costs):
    """Oracle cost of the cheapest chain of centroid options from state
    start to state goal, each at its cost in costs, else at its prior: A*
    with a zero heuristic."""
    edges: dict = {}
    for o in options:
        edges.setdefault(o.states[0], []).append(
            (o.states[1], costs.get(o.id, o.prior), o))
    res = astar(edges, start, goal, lambda n: 0.0)
    return None if res is None else res[0]


def sample_setting(cls, f):
    """(text, value): a config text for field f of settings dataclass cls
    that the dataclass accepts, and the value it parses to; the value differs
    from the field's default."""
    if f.name == "learner":
        return "cem", "cem"
    tp = typing.get_type_hints(cls)[f.name]
    base = next(a for a in typing.get_args(tp) or (tp,) if a is not type(None))
    if base is tuple:
        return "3,5", (3, 5)
    value = base((f.default or 0) + 3)
    return str(value), value


def with_params(world: OccupancyWorld, **overrides) -> OccupancyWorld:
    """Copy of the world with different kinematics/noise/bounds."""
    return replace(world, **overrides)


def solution_traces(world, n_goals, inits_per_goal, rng) -> list:
    """(start, goal, swept cells) of each problem that collect_solution_density,
    given the same generator, solves: goal and problems in order, each on
    its own spawned stream, in one process."""
    traces = []
    for _ in range(n_goals):
        goal = sample_free(world, spawn(rng))
        for problem_rng in [spawn(rng) for _ in range(inits_per_goal)]:
            start = sample_free(world, problem_rng)
            try:
                plan = shortcut(world, rrt_plan(world, start, goal, problem_rng,
                                                world.cell_size))
            except Unreachable:
                continue
            traces.append((start, goal, swept_cells(world, plan)))
    return traces


def layer_arrays(net) -> list:
    """An Mlp's parameters as the views [W1, b1, W2, b2, W3, b3]: the order
    of mlp_backward's gradients and of the flat params buffer."""
    return [a for pair in zip(net.weights, net.biases) for a in pair]


def plan_length(pts: list[Configuration]) -> float:
    return sum(a.distance_to(b) for a, b in zip(pts, pts[1:]))


def density_from_payload(payload: dict) -> np.ndarray:
    return np.array(payload["grid"], dtype=np.float64)


def compute_guide_path(world, rbvd, option: OptionSpec, rng) -> OptionGuide:
    """Guide for an option: endpoint representatives joined inside its states,
    under the option's id, as a solve builds it."""
    return build_guide(world, rbvd, option.id, option.initiation, option.termination,
                       frozenset(option.states), rng)


def nearest_guide_point(guide: OptionGuide, c: Configuration) -> tuple[Configuration, int]:
    """Closest guide point by Euclidean distance; ties pick the lowest index."""
    idx, _ = guide.nearest(c)
    return guide.points[idx], idx


# -- reference collision queries -----------------------------------------------------
# The collision queries as they were written before the world kept a set of
# free cells: each walks its own sub-samples i/n of a segment and bounds-checks
# and indexes the occupancy grid at each one. test_collision holds the world's
# queries to them.


def _ref_samples(dist, cell_size) -> int:
    return max(1, int(math.ceil(dist / (SWEEP_FRACTION * cell_size))))


def _ref_cell(world, x, y):
    return (int(math.floor(x / world.cell_size)), int(math.floor(y / world.cell_size)))


def ref_collision_xy(world, x, y) -> bool:
    ix, iy = _ref_cell(world, x, y)
    if ix < 0 or iy < 0 or ix >= world.width or iy >= world.height:
        return True
    return bool(world.occupancy[iy, ix])


def ref_cell_free(world, cell) -> bool:
    ix, iy = cell
    return (0 <= ix < world.width and 0 <= iy < world.height
            and not world.occupancy[iy, ix])


def ref_segment_ok(world, a, b, mask=None) -> bool:
    """segment_free, or with a mask the masked check of rrt_plan and shortcut."""
    (ax, ay), (bx, by) = a, b
    n = _ref_samples(math.hypot(bx - ax, by - ay), world.cell_size)
    for i in range(n + 1):
        t = i / n
        px, py = ax + t * (bx - ax), ay + t * (by - ay)
        if ref_collision_xy(world, px, py):
            return False
        if mask is not None and _ref_cell(world, px, py) not in mask:
            return False
    return True


def ref_truncate_to_free(world, start, target):
    """The last free point of start->target; start when the first step collides."""
    (sx, sy), (tx, ty) = start, target
    dist = math.hypot(tx - sx, ty - sy)
    if dist == 0.0:
        return start
    n = _ref_samples(dist, world.cell_size)
    ok = start
    for i in range(1, n + 1):
        t = i / n
        px, py = sx + t * (tx - sx), sy + t * (ty - sy)
        if ref_collision_xy(world, px, py):
            return ok
        ok = (px, py)
    return ok


def ref_swept_cells(world, waypoints) -> set:
    if len(waypoints) == 1:
        return {_ref_cell(world, *waypoints[0].xy)}
    out = set()
    for a, b in zip(waypoints, waypoints[1:]):
        n = _ref_samples(a.distance_to(b), world.cell_size)
        for i in range(n + 1):
            t = i / n
            out.add(_ref_cell(world, a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
    return out


# -- reference RRT -------------------------------------------------------------------
# rrt_plan as it was written on Configuration samples: each sample drawn by
# sample_free (or from the mask's free cells) as a Configuration, and the
# nearest node found on freshly built arrays. test_collision holds rrt_plan
# and collect_solution_density to it bit for bit.


def ref_sample_free(world, rng) -> Configuration:
    cells = np.argwhere(~world.occupancy)[:, ::-1]   # (ix, iy), row-major
    ix, iy = cells[int(rng.integers(len(cells)))]
    jx, jy = rng.uniform(0.0, 1.0, size=2)
    theta = None
    if world.kinematics is Kinematics.UNICYCLE:
        theta = float(rng.uniform(-math.pi, math.pi))
    return Configuration((ix + jx) * world.cell_size, (iy + jy) * world.cell_size, theta)


def _ref_sample_point(world, rng, mask_cells):
    if mask_cells is None:
        c = ref_sample_free(world, rng)
        return (c.x, c.y)
    ix, iy = mask_cells[int(rng.integers(len(mask_cells)))]
    jx, jy = rng.uniform(0.0, 1.0, size=2)
    return ((ix + jx) * world.cell_size, (iy + jy) * world.cell_size)


def ref_rrt_plan(world, x_i, x_g, rng, goal_tol, max_iters=RRT_MAX_ITERS, mask=None,
                 work_counter=None):
    step_len = RRT_STEP_CELLS * world.cell_size
    if ref_collision_xy(world, x_i.x, x_i.y) or ref_collision_xy(world, x_g.x, x_g.y):
        raise Unreachable("endpoint in collision")
    if x_i.distance_to(x_g) <= goal_tol:
        return [x_i]
    mask_cells = None
    if mask is not None:
        allowed = {c for c in mask if ref_cell_free(world, c)}
        if not allowed:
            raise Unreachable("mask contains no free cell")
        mask_cells = np.array(sorted(allowed))
    nodes_x = np.empty(max_iters + 1)
    nodes_y = np.empty(max_iters + 1)
    parents = np.empty(max_iters + 1, dtype=np.int64)
    nodes_x[0], nodes_y[0] = x_i.x, x_i.y
    parents[0] = -1
    n = 1
    for _ in range(max_iters):
        if work_counter is not None:
            work_counter[0] += 1
        if rng.uniform() < RRT_GOAL_BIAS:
            sx, sy = x_g.x, x_g.y
        else:
            sx, sy = _ref_sample_point(world, rng, mask_cells)
        d2 = (nodes_x[:n] - sx) ** 2 + (nodes_y[:n] - sy) ** 2
        near = int(np.argmin(d2))
        nx, ny = nodes_x[near], nodes_y[near]
        dist = math.hypot(sx - nx, sy - ny)
        if dist < 1e-12:
            continue
        scale = min(1.0, step_len / dist)
        tx, ty = nx + scale * (sx - nx), ny + scale * (sy - ny)
        if not ref_segment_ok(world, (nx, ny), (tx, ty), mask):
            continue
        nodes_x[n], nodes_y[n] = tx, ty
        parents[n] = near
        n += 1
        if math.hypot(tx - x_g.x, ty - x_g.y) <= goal_tol:
            waypoints = []
            i = n - 1
            while i >= 0:
                waypoints.append(Configuration(float(nodes_x[i]), float(nodes_y[i])))
                i = int(parents[i])
            waypoints.reverse()
            waypoints[0] = x_i
            return waypoints
    raise Unreachable(f"no path after {max_iters} iterations")


def ref_solution_density(world, n_goals, inits_per_goal, rng) -> np.ndarray:
    """collect_solution_density on ref_sample_free, ref_rrt_plan and
    ref_swept_cells, with its stream rule."""
    counts = np.zeros((world.height, world.width), dtype=np.int64)
    solved = 0
    for _ in range(n_goals):
        goal = ref_sample_free(world, spawn(rng))
        for problem_rng in [spawn(rng) for _ in range(inits_per_goal)]:
            start = ref_sample_free(world, problem_rng)
            try:
                plan = shortcut(world, ref_rrt_plan(world, start, goal, problem_rng,
                                                    world.cell_size))
            except Unreachable:
                continue
            solved += 1
            for ix, iy in ref_swept_cells(world, plan):
                counts[iy, ix] += 1
    return counts.astype(np.float64) / solved


# -- reference SAC update ------------------------------------------------------------
# SacLearner.update as it was written on one array per layer: two actor
# forward passes, full backward passes for the critics' input gradients, and
# Adam and Polyak loops over each net's six arrays. test_learn holds the
# learner to it bit for bit.


def ref_forward(params, x):
    w1, b1, w2, b2, w3, b3 = params
    h1 = np.tanh(x @ w1 + b1)
    h2 = np.tanh(h1 @ w2 + b2)
    return h2 @ w3 + b3, (x, h1, h2)


def ref_backward(params, cache, g):
    w1, _, w2, _, w3, _ = params
    x, h1, h2 = cache
    dw3 = h2.T @ g
    db3 = g.sum(axis=0)
    dh2 = (g @ w3.T) * (1.0 - h2 * h2)
    dw2 = h1.T @ dh2
    db2 = dh2.sum(axis=0)
    dh1 = (dh2 @ w2.T) * (1.0 - h1 * h1)
    dw1 = x.T @ dh1
    db1 = dh1.sum(axis=0)
    d_input = dh1 @ w1.T
    return [dw1, db1, dw2, db2, dw3, db3], d_input


class RefAdam:
    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m, self.v, self.t = [], [], 0

    def step(self, params, grads):
        if not self.m:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


class ReferenceSac:
    """Starts from a SacLearner's weights; nets are lists [W1, b1, ..., b3]."""

    NETS = ("actor", "q1", "q2", "t1", "t2")

    def __init__(self, learner):
        self.cfg = learner.cfg
        self.act_dim = learner.act_dim
        for name in self.NETS:
            setattr(self, name, [p.copy() for p in layer_arrays(getattr(learner, name))])
        self.opt_actor = RefAdam(self.cfg.actor_lr)
        self.opt_q1 = RefAdam(self.cfg.critic_lr)
        self.opt_q2 = RefAdam(self.cfg.critic_lr)

    def _policy_terms(self, out, eps):
        a = self.act_dim
        mu, raw = out[:, :a], out[:, a:]
        tanh_raw = np.tanh(raw)
        log_std = LOG_STD_MIN + 0.5 * (LOG_STD_MAX - LOG_STD_MIN) * (tanh_raw + 1.0)
        std = np.exp(log_std)
        u = mu + std * eps
        t = np.tanh(u)
        logp = np.sum(-0.5 * eps * eps - log_std - 0.5 * LOG_2PI
                      - np.log(1.0 - t * t + 1e-6), axis=1)
        return mu, tanh_raw, log_std, std, u, t, logp

    def update(self, transitions, rng):
        """transitions: (obs, act, rew, obs2, done) arrays, sampled with
        replacement as ReplayBuffer.sample draws its rows."""
        cfg = self.cfg
        idx = rng.integers(0, len(transitions[0]), size=cfg.batch_size)
        obs, act, rew, obs2, done = (f[idx] for f in transitions)
        B = len(obs)
        alpha = cfg.entropy_coef
        rew = rew * REWARD_SCALE

        out2, _ = ref_forward(self.actor, obs2)
        eps2 = rng.standard_normal((B, self.act_dim))
        *_, a2, logp2 = self._policy_terms(out2, eps2)
        xin2 = np.concatenate([obs2, a2], axis=1)
        qt = np.minimum(ref_forward(self.t1, xin2)[0][:, 0],
                        ref_forward(self.t2, xin2)[0][:, 0])
        y = rew + DISCOUNT * (1.0 - done) * (qt - alpha * logp2)

        xin = np.concatenate([obs, act], axis=1)
        for net, opt in ((self.q1, self.opt_q1), (self.q2, self.opt_q2)):
            q, cache = ref_forward(net, xin)
            diff = q[:, 0] - y
            grads, _ = ref_backward(net, cache, (2.0 * diff / B)[:, None])
            opt.step(net, grads)

        out, cache_a = ref_forward(self.actor, obs)
        eps = rng.standard_normal((B, self.act_dim))
        mu, tanh_raw, log_std, std, u, t, logp = self._policy_terms(out, eps)
        xa = np.concatenate([obs, t], axis=1)
        q1v, cache1 = ref_forward(self.q1, xa)
        q2v, cache2 = ref_forward(self.q2, xa)
        q1v, q2v = q1v[:, 0], q2v[:, 0]
        use1 = q1v <= q2v
        up1 = np.where(use1, -1.0 / B, 0.0)[:, None]
        up2 = np.where(use1, 0.0, -1.0 / B)[:, None]
        _, din1 = ref_backward(self.q1, cache1, up1)
        _, din2 = ref_backward(self.q2, cache2, up2)
        dl_da = din1[:, obs.shape[1]:] + din2[:, obs.shape[1]:]

        one_m_t2 = 1.0 - t * t
        dlogp_du = 2.0 * t * one_m_t2 / (one_m_t2 + 1e-6)
        dl_du = (alpha / B) * dlogp_du + dl_da * one_m_t2
        dl_dmu = dl_du
        dl_dlogstd = dl_du * (u - mu) - (alpha / B)
        dl_draw = dl_dlogstd * 0.5 * (LOG_STD_MAX - LOG_STD_MIN) * (1.0 - tanh_raw ** 2)
        grads_a, _ = ref_backward(self.actor, cache_a,
                                  np.concatenate([dl_dmu, dl_draw], axis=1))
        self.opt_actor.step(self.actor, grads_a)

        for src, dst in ((self.q1, self.t1), (self.q2, self.t2)):
            for ps, pd in zip(src, dst):
                pd *= 1.0 - TAU
                pd += TAU * ps
