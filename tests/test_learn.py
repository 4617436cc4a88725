import math

import numpy as np
import pytest

from sharp import learn, pool
from sharp.abstraction import Region, build_region_voronoi, goal_tolerance
from sharp.errors import DivergedTraining, InCollision
from sharp.experiment import (AbstractionParams, evaluate_runs, load_or_build_library,
                              load_world, monolithic_run)
from sharp.learn import (REPLAY_CAPACITY, Policy, ReplayBuffer, SacLearner,
                         TrainConfig, build_observation, goal_env, observation_dim,
                         option_env, run_episodes, train_monolithic_policy,
                         train_option_policy)
from sharp.mlp import init_mlp
from sharp.motion import rrt_plan, shortcut
from sharp.options import TERMINAL_REWARD, OptionGuide, synth_options
from sharp.planner import sharp_solve
from sharp.seeding import derive_rng
from sharp.world import (Configuration, HolonomicAction, Kinematics, UnicycleAction,
                         collision)

from conftest import grid_from_rows, open_world
from helpers import (ReferenceSac, ScriptedPolicy, act, compute_guide_path,
                     deadline, evaluate_policy, layer_arrays)
from test_abstraction import point_region


def two_state_setup(width=20, height=20, noise=0.0, **kwargs):
    w = open_world(width, height, noise_sigma=noise, **kwargs)
    regions = [point_region(w, (3, height // 2)),
               point_region(w, (width - 4, height // 2))]
    rbvd = build_region_voronoi(w, regions)
    (option,) = [o for o in synth_options(rbvd, "centroid", t=2.0)
                 if o.states == (0, 1)]
    guide = compute_guide_path(w, rbvd, option, rng=np.random.default_rng(5))
    return w, rbvd, option, guide


def smoke_cfg(**kwargs):
    base = dict(learner="cem", max_steps=1500, eval_every=1000, eval_episodes=5,
                episode_limit=50, cem_population=5, cem_iters=2, hidden=(6, 6))
    base.update(kwargs)
    return TrainConfig(**base)


class TestObservation:
    def test_holonomic_dimension_and_range(self):
        w, rbvd, option, guide = two_state_setup()
        obs = build_observation(w, guide, Configuration(10.0, 10.0))
        assert obs.shape == (observation_dim(w),) == (6,)
        assert np.all(np.abs(obs[:2]) <= 1.0)

    def test_unicycle_dimension(self):
        w, rbvd, option, guide = two_state_setup(kinematics=Kinematics.UNICYCLE)
        obs = build_observation(w, guide, Configuration(10.0, 10.0, 0.3))
        assert obs.shape == (8,)
        assert obs[2] == pytest.approx(math.cos(0.3))
        assert obs[3] == pytest.approx(math.sin(0.3))

    def test_only_depends_on_guide_and_configuration(self):
        w, rbvd, option, guide = two_state_setup()
        a = build_observation(w, guide, Configuration(4.0, 4.0))
        b = build_observation(w, guide, Configuration(4.0, 4.0))
        assert np.array_equal(a, b)


class TestPolicyActions:
    def make_policy(self, w, guide, rng):
        actor = init_mlp(observation_dim(w), (8, 8), 4, rng)
        actor.params *= 40.0  # drive tanh into saturation to probe the bounds
        return Policy(actor=actor, guide=guide)

    def test_holonomic_actions_within_bounds(self, rng):
        w, rbvd, option, guide = two_state_setup()
        policy = self.make_policy(w, guide, rng)
        for _ in range(50):
            c = Configuration(*rng.uniform(1, 19, size=2))
            a = act(w, policy, c)
            assert isinstance(a, HolonomicAction)
            assert math.hypot(a.dx, a.dy) <= w.max_step + 1e-9
            a2 = act(w, policy, c, greedy=False, rng=rng)
            assert math.hypot(a2.dx, a2.dy) <= w.max_step + 1e-9

    def test_unicycle_actions_within_bounds(self, rng):
        w, rbvd, option, guide = two_state_setup(kinematics=Kinematics.UNICYCLE)
        policy = self.make_policy(w, guide, rng)
        for _ in range(50):
            c = Configuration(*rng.uniform(1, 19, size=2),
                              float(rng.uniform(-math.pi, math.pi)))
            a = act(w, policy, c)
            assert isinstance(a, UnicycleAction)
            assert 0.0 <= a.v <= w.v_max + 1e-9
            assert abs(a.omega) <= w.omega_max + 1e-9


class TestEnvs:
    def test_option_env_episode_flow(self, rng):
        w, rbvd, option, guide = two_state_setup()
        env = option_env(w, rbvd, guide, episode_limit=10)
        obs, succ = env.reset(rng)
        assert obs.shape == (6,)
        cell = w.cell_of(env.c.x, env.c.y)
        assert cell in guide.initiation.cells
        for _ in range(10):
            obs, r, done, truncated, succ = env.step(np.array([0.0, 0.0]), rng)
            if done or truncated:
                break
        assert truncated or done

    def test_option_env_terminal_reward(self, rng):
        w, rbvd, option, guide = two_state_setup()
        env = option_env(w, rbvd, guide, episode_limit=500)
        env.reset(rng)
        env.c = Configuration(15.0, 10.0)  # just left of the termination ball
        obs, r, done, truncated, succ = env.step(np.array([1.0, 0.0]), rng)
        assert succ and done and r == TERMINAL_REWARD

    def test_goal_env_rewards(self, rng):
        w = open_world(10, 10)
        goal = Configuration(8.5, 8.5)
        env = goal_env(w, Configuration(1.5, 1.5), goal, episode_limit=100,
                       goal_tol=w.cell_size)
        obs, succ = env.reset(rng)
        assert not succ
        obs, r, done, truncated, succ = env.step(np.array([1.0, 1.0]), rng)
        assert r == -1.0 and not done
        env.c = Configuration(8.0, 8.4)
        obs, r, done, truncated, succ = env.step(np.array([1.0, 0.2]), rng)
        assert succ == (env.c.distance_to(goal) <= w.cell_size)
        if succ:
            assert r == 1000.0


@pytest.mark.parametrize("u", [(math.nan, 0.2), (0.1, math.inf), (-math.inf, math.nan)])
def test_non_finite_command_is_a_divergence(u):
    w, rbvd, option, guide = two_state_setup()
    env = option_env(w, rbvd, guide, 50)
    env.reset(np.random.default_rng(0))
    start = env.c
    with pytest.raises(DivergedTraining, match="non-finite action"):
        env.step(np.array(u), np.random.default_rng(1))
    assert env.c == start and env.t == 0


class TestReplayBuffer:
    def test_rejects_non_finite(self):
        buf = ReplayBuffer(16, 3, 2)
        with pytest.raises(DivergedTraining):
            buf.add(np.array([np.nan, 0, 0]), np.zeros(2), 0.0, np.zeros(3), False)
        with pytest.raises(DivergedTraining):
            buf.add(np.zeros(3), np.zeros(2), math.inf, np.zeros(3), False)
        assert buf.size == 0

    def test_ring_overwrite(self, rng):
        buf = ReplayBuffer(4, 2, 1)
        for i in range(9):
            buf.add(np.full(2, i), np.zeros(1), float(i), np.zeros(2), False)
        assert buf.size == 4
        obs, act, rew, obs2, done = buf.sample(8, rng)
        assert set(rew) <= {5.0, 6.0, 7.0, 8.0}


def immobile_policy(w, guide, rng):
    actor = init_mlp(observation_dim(w), (4, 4), 4, rng)
    actor.params[...] = 0.0
    return Policy(actor=actor, guide=guide)


class TestRunEpisodes:
    def test_terminal_start_takes_no_steps(self, rng):
        w = open_world(10, 10)
        env = goal_env(w, Configuration(5.2, 5.2), Configuration(5.4, 5.4),
                       episode_limit=10, goal_tol=w.cell_size)
        policy = immobile_policy(w, env.guide, rng)
        assert run_episodes(env, policy, 2, rng) == ([1000.0] * 2, [True] * 2,
                                                     [0] * 2)

    def test_stops_at_episode_limit(self, rng):
        w = open_world(10, 10)
        env = goal_env(w, Configuration(1.5, 1.5), Configuration(8.5, 8.5),
                       episode_limit=7, goal_tol=w.cell_size)
        policy = immobile_policy(w, env.guide, rng)
        assert run_episodes(env, policy, 3, rng) == ([-7.0] * 3, [False] * 3,
                                                     [7] * 3)


def test_sac_update_matches_reference_bitwise():
    # desk-profile shapes: 6 observation inputs, H=64, batch 128
    cfg = TrainConfig(hidden=(64, 64), batch_size=128, actor_lr=2e-3, critic_lr=2e-3,
                      entropy_coef=0.1)
    data_rng = np.random.default_rng(0)
    n = 600
    transitions = (data_rng.uniform(-1, 1, (n, 6)), data_rng.uniform(-1, 1, (n, 2)),
                   data_rng.normal(size=n) * 10.0, data_rng.uniform(-1, 1, (n, 6)),
                   (data_rng.uniform(size=n) < 0.1).astype(float))
    buffer = ReplayBuffer(n, 6, 2)
    for row in zip(*transitions):
        buffer.add(*row)
    learner = SacLearner(6, 2, cfg, np.random.default_rng(1))
    reference = ReferenceSac(learner)
    rng_new, rng_ref = np.random.default_rng(2), np.random.default_rng(2)
    for _ in range(50):
        learner.update(buffer, rng_new)
        reference.update(transitions, rng_ref)
    for name in ReferenceSac.NETS:
        for got, want in zip(layer_arrays(getattr(learner, name)),
                             getattr(reference, name)):
            assert np.array_equal(got, want), name
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


class TestTraining:
    def test_trivial_option_stops_at_first_gate(self, rng):
        w, rbvd, option, guide = two_state_setup()
        trivial = OptionGuide(option_id="trivial", initiation=guide.initiation,
                              termination=Region(guide.initiation.cells,
                                                 guide.initiation.representative),
                              points=[guide.initiation.representative],
                              allowed_states=guide.allowed_states)
        cfg = TrainConfig(max_steps=5000, eval_every=1000, hidden=(8, 8))
        policy, stats = train_option_policy(w, trivial, rbvd, cfg,
                                            np.random.default_rng(3))
        # one gate, at step 0, cleared the stop reward: training never ran
        assert stats.steps == 0 and [step for step, _, _ in stats.evals] == [0]
        assert stats.evals[0][1] >= cfg.stop_avg_reward
        assert stats.success_fraction == 1.0

    def test_same_seed_identical_stats(self):
        w, rbvd, option, guide = two_state_setup(noise=0.05)
        cfg = smoke_cfg()
        out = []
        for _ in range(2):
            policy, stats = train_option_policy(w, guide, rbvd, cfg,
                                                np.random.default_rng(11))
            out.append((stats.steps, stats.evals[-1][1],
                        stats.success_fraction, tuple(stats.final_success_steps)))
        assert out[0] == out[1]

    def test_sac_learns_short_option(self):
        w, rbvd, option, guide = two_state_setup(width=12, height=8, noise=0.05,
                                                 max_step=1.0)
        cfg = TrainConfig(max_steps=12000, eval_every=2000, stop_avg_reward=800.0,
                          hidden=(32, 32), batch_size=64, actor_lr=2e-3,
                          critic_lr=2e-3, entropy_coef=0.1, start_steps=500,
                          episode_limit=100)
        policy, stats = train_option_policy(w, guide, rbvd, cfg,
                                            np.random.default_rng(7))
        assert stats.success_fraction >= 0.8

    def test_open_room_option_default_cfg(self):
        # stock configuration on a 20x20 open room under action noise
        w, rbvd, option, guide = two_state_setup(width=20, height=20, noise=0.05,
                                                 max_step=1.0)
        policy, stats = train_option_policy(w, guide, rbvd, TrainConfig(),
                                            np.random.default_rng(1))
        assert stats.success_fraction >= 0.8

    def test_sac_buffer_has_at_most_max_steps_rows(self, monkeypatch):
        rows = []

        class Recording(ReplayBuffer):
            def __init__(self, capacity, obs_dim, act_dim):
                super().__init__(capacity, obs_dim, act_dim)
                rows.append(len(self.rows))

        monkeypatch.setattr(learn, "ReplayBuffer", Recording)
        w, rbvd, option, guide = two_state_setup()
        cfg = TrainConfig(max_steps=300, eval_every=300, eval_episodes=1,
                          hidden=(8, 8), batch_size=16, start_steps=100,
                          episode_limit=50)
        assert REPLAY_CAPACITY > cfg.max_steps
        train_option_policy(w, guide, rbvd, cfg, np.random.default_rng(0))
        assert rows == [cfg.max_steps]

    def test_sac_keeps_the_best_gate_after_a_collapse(self, monkeypatch):
        # scripted gates at steps 0, 100, 200, 300: the mean return peaks at
        # 100 and 200 (a tie, which the earlier gate wins), then collapses
        scripted = iter([([-5.0, -5.0], [False, False], [50, 50]),
                         ([30.0, -10.0], [True, False], [7, 50]),
                         ([10.0, 10.0], [True, True], [9, 9]),
                         ([-50.0, -50.0], [False, False], [50, 50])])
        actors = []

        def run_episodes(env, policy, episodes, rng):
            actors.append(policy.actor.flat())
            return next(scripted)

        monkeypatch.setattr(learn, "run_episodes", run_episodes)
        w, rbvd, option, guide = two_state_setup()
        cfg = TrainConfig(max_steps=300, eval_every=100, eval_episodes=2,
                          hidden=(8, 8), batch_size=16, start_steps=50,
                          episode_limit=50)
        policy, stats = train_option_policy(w, guide, rbvd, cfg,
                                            np.random.default_rng(0))
        assert [step for step, _, _ in stats.evals] == [0, 100, 200, 300]
        assert stats.steps == 300
        assert (stats.success_fraction, stats.final_success_steps) == (0.5, [7])
        assert len(actors) == 4 and not np.array_equal(actors[1], actors[3])
        assert np.array_equal(policy.actor.flat(), actors[1])

    @pytest.mark.parametrize("kinematics", [Kinematics.HOLONOMIC, Kinematics.UNICYCLE])
    @pytest.mark.parametrize("learner", ["sac", "cem"])
    def test_trained_actor_has_actor_layers(self, learner, kinematics):
        w, rbvd, option, guide = two_state_setup(width=10, height=6,
                                                 kinematics=kinematics)
        cfg = smoke_cfg(learner=learner, hidden=(7, 5), max_steps=200,
                        eval_every=200, eval_episodes=1, batch_size=16,
                        start_steps=100, cem_iters=1)
        policy, _ = train_option_policy(w, guide, rbvd, cfg, np.random.default_rng(0))
        assert policy.actor.layer_sizes == learn.actor_layers(w, cfg) == \
            (observation_dim(w), *cfg.hidden, 4)

    def test_monolithic_degenerate_immediate(self):
        w = open_world(10, 10)
        cfg = smoke_cfg()
        policy, stats = train_monolithic_policy(w, Configuration(5.2, 5.2),
                                                Configuration(5.4, 5.4), cfg,
                                                np.random.default_rng(0), w.cell_size)
        assert stats.steps == 0 and stats.success_fraction == 1.0

    def test_monolithic_rejects_colliding_endpoints(self):
        w = grid_from_rows(["..", ".#"])
        with pytest.raises(InCollision):
            train_monolithic_policy(w, Configuration(0.5, 0.5),
                                    Configuration(1.5, 0.5), smoke_cfg(),
                                    np.random.default_rng(0), w.cell_size)


class TestEveryStartTerminal:
    """SAC on a task whose every start is a success ends at its first gate,
    whose mean return is TERMINAL_REWARD, even when stop_avg_reward lies
    above it: there is no live start to collect from."""

    CFG = TrainConfig(max_steps=200, eval_every=100, eval_episodes=2, hidden=(8, 8),
                      batch_size=16, start_steps=50, episode_limit=50,
                      stop_avg_reward=math.inf)

    def test_solve_from_inside_the_entry_region(self, monkeypatch):
        # the anchor centroid of env_a's state 0 lies in the entry region of
        # every option out of state 0, so bridge_in starts terminal; the goal
        # is state 2's cell farthest from its anchor centroid, outside the
        # option's termination region, so bridge_out does not
        monkeypatch.setattr(pool, "usable_cpus", lambda: 1)
        world, _, recipe = load_world("env_a")
        library = load_or_build_library(
            world, "centroid", AbstractionParams(seed=0, **recipe.abstraction), None)
        states = library.rbvd.states
        x_i, anchor = states[0].anchor.centroid, states[2].anchor.centroid
        x_g = max((Configuration(*world.cell_center(c)) for c in sorted(states[2].cells)),
                  key=anchor.distance_to)
        with deadline(60):
            _, stats = sharp_solve(world, x_i, x_g, library, {}, {}, self.CFG,
                                   derive_rng("solve", 0), goal_tolerance(world, None))
        assert stats.plan_option_ids == ["c0-2"]
        assert stats.stage_success[0] == ("bridge_in", 1.0)
        # bridge_in trained no step; the option and bridge_out all of theirs
        assert stats.training_steps == 2 * self.CFG.max_steps

    def test_monolithic_run_from_the_goal(self):
        world = open_world(10, 10)
        x = Configuration(5.5, 5.5)
        with deadline(60):
            run, steps = monolithic_run(world, x, x, self.CFG, world.cell_size,
                                        self.CFG.eval_every, 3, 20, ("open", 0, 1))
        assert steps == 0
        assert evaluate_runs(world, [run]) == [(1.0, 0.0)]


class TestEvaluatePolicy:
    def test_immobile_policy_never_succeeds(self, rng):
        w, rbvd, option, guide = two_state_setup()
        actor = init_mlp(observation_dim(w), (4, 4), 4, rng)
        actor.params[...] = 0.0
        policy = Policy(actor=actor, guide=guide)
        goal = guide.termination.representative
        out = evaluate_policy(w, policy, Configuration(2.0, 2.0),
                              lambda c: c.distance_to(goal) < 1.0,
                              episodes=5, step_limit=50, rng=rng)
        assert out["success_rate"] == 0.0

    def test_scripted_oracle_tracks_plan(self):
        w = open_world(15, 15)
        plan = shortcut(w, rrt_plan(w, Configuration(1.5, 1.5),
                                    Configuration(13.5, 13.5),
                                    np.random.default_rng(2), w.cell_size))
        policy = ScriptedPolicy(plan, tol=0.5)
        goal = plan[-1]
        out = evaluate_policy(w, policy, Configuration(1.5, 1.5),
                              lambda c: c.distance_to(goal) <= 1.0,
                              episodes=3, step_limit=300,
                              rng=np.random.default_rng(3))
        assert out["success_rate"] == 1.0

    def test_evaluation_deterministic(self, rng):
        w, rbvd, option, guide = two_state_setup(noise=0.1)
        actor = init_mlp(observation_dim(w), (6, 6), 4, np.random.default_rng(4))
        policy = Policy(actor=actor, guide=guide)
        goal = guide.termination.representative
        runs = [evaluate_policy(w, policy, guide.initiation,
                                lambda c: c.distance_to(goal) < 1.0, episodes=10,
                                step_limit=60, rng=np.random.default_rng(9))
                for _ in range(2)]
        assert runs[0] == runs[1]
