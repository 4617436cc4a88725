import json
import logging
import math
import multiprocessing.pool

import numpy as np
import pytest

from sharp import planner, pool
from sharp.abstraction import Region, build_region_voronoi, goal_region
from sharp.artifacts import library_payload
from sharp.errors import (DivergedTraining, EmptyLibrary, GuideUnreachable,
                          NoAbstractPath)
from sharp.experiment import AbstractionParams, build_library
from sharp.learn import TrainConfig, TrainStats, actor_layers
from sharp.mlp import Mlp
from sharp.options import OptionGuide, OptionSpec, synth_options
from sharp.planner import (CacheEntry, ComposedPolicy, OptionLibrary, Stage, astar,
                           execute_composed, guide_fingerprint, library_from_regions,
                           plan_abstract, sharp_solve)
from sharp.seeding import derive_rng
from sharp.world import Configuration

from conftest import grid_from_rows, open_world
from helpers import ScriptedPolicy, compute_guide_path, dijkstra_cost, free_cells
from test_abstraction import point_region
from test_experiment import TWO_ROOMS
from test_options import line_world_rbvd

GOAL_TOL = 1.0   # one cell of the worlds below


def region_at(x, y):
    return Region(cells=frozenset([(int(x), int(y))]),
                  representative=Configuration(x, y))


def make_option(oid, states, src_xy, dst_xy):
    return OptionSpec(id=oid, states=states,
                      initiation=region_at(*src_xy), termination=region_at(*dst_xy))


def library_of(options, kind="centroid", rbvd=None):
    """A library of options; plan_abstract reads rbvd only for the
    interface kind."""
    return OptionLibrary(kind=kind, threshold=2.0, guide_seed=0, options=options,
                         rbvd=rbvd)


class TestBuildGraph:
    def test_two_state_centroid_graph(self):
        _, rbvd = line_world_rbvd(2)
        library = library_of(synth_options(rbvd, "centroid", t=2.0))
        for start, goal in ((0, 1), (1, 0)):
            plan = plan_abstract(library, start, goal, Configuration(5.0, 1.5), {})
            assert [o.states for o in plan] == [(start, goal)]

    def test_interface_pair_graph(self):
        _, rbvd = line_world_rbvd(3)
        library = library_of(synth_options(rbvd, "interface", t=2.0), "interface", rbvd)
        for start, goal in ((0, 2), (2, 0)):
            goal_cfg = rbvd.states[goal].anchor.centroid
            plan = plan_abstract(library, start, goal, goal_cfg, {})
            assert [o.states for o in plan] == [(start, 1, goal)]

    def test_empty_library(self):
        with pytest.raises(EmptyLibrary):
            plan_abstract(library_of([]), 0, 1, Configuration(5.0, 1.5), {})

    def test_empty_library_needs_no_option_within_one_state(self):
        assert plan_abstract(library_of([]), 1, 1, Configuration(5.0, 1.5), {}) == []


def random_centroid_library(rng, n_nodes):
    """Synthetic centroid library with positioned states, and a costs table
    of varied costs."""
    pos = {i: (float(rng.uniform(0, 50)), float(rng.uniform(0, 50)))
           for i in range(n_nodes)}
    options, costs = [], {}
    for i in range(n_nodes):
        for j in sorted(rng.choice(n_nodes, size=min(4, n_nodes), replace=False)):
            j = int(j)
            if i == j:
                continue
            d = math.dist(pos[i], pos[j])
            costs[f"c{i}-{j}"] = max(1e-3, d * float(rng.uniform(0.3, 3.0)))
            options.append(make_option(f"c{i}-{j}", (i, j), pos[i], pos[j]))
    return library_of(options), pos, costs


class TestPlanAbstract:
    def test_same_state_empty_plan(self):
        _, rbvd = line_world_rbvd(2)
        library = library_of(synth_options(rbvd, "centroid", t=2.0))
        assert plan_abstract(library, 1, 1, Configuration(5.0, 1.5), {}) == []

    def test_matches_dijkstra_on_random_graphs(self, rng):
        for _ in range(30):
            n = int(rng.integers(3, 30))
            library, pos, costs = random_centroid_library(rng, n)
            start, goal = 0, n - 1
            goal_cfg = Configuration(*pos[goal])
            oracle = dijkstra_cost(library.options, start, goal, costs)
            try:
                plan = plan_abstract(library, start, goal, goal_cfg, costs)
            except NoAbstractPath:
                assert oracle is None
                continue
            cost = sum(costs[o.id] for o in plan)
            assert oracle is not None
            assert cost == pytest.approx(oracle, abs=1e-9)

    def test_disconnected_goal(self):
        # component A: two adjacent regions; component B: one island region
        w = grid_from_rows([
            "...#.",
            "...#.",
            "...#.",
        ])
        regions = [point_region(w, (0, 1)), point_region(w, (2, 1)),
                   point_region(w, (4, 1))]
        rbvd = build_region_voronoi(w, regions)
        library = library_of(synth_options(rbvd, "centroid", t=1.5))
        with pytest.raises(NoAbstractPath):
            plan_abstract(library, 0, 2, Configuration(4.5, 1.5), {})

    def test_interface_adjacent_states_no_options_needed(self):
        _, rbvd = line_world_rbvd(3)
        library = library_of(synth_options(rbvd, "interface", t=2.0), "interface", rbvd)
        plan = plan_abstract(library, 0, 1, Configuration(10.0, 1.5), {})
        assert plan == []

    def test_interface_three_state_route(self):
        _, rbvd = line_world_rbvd(3)
        library = library_of(synth_options(rbvd, "interface", t=2.0), "interface", rbvd)
        plan = plan_abstract(library, 0, 2, Configuration(17.5, 1.5), {})
        assert [o.states for o in plan] == [(0, 1, 2)]


class TestCostUpdate:
    """The costs table a solve writes, with every training stubbed to report
    the given successful final rollout lengths."""

    def solve(self, monkeypatch, rollout_steps):
        def train_stages(world, rbvd, cfg, jobs):
            layers = actor_layers(world, cfg)
            return [(Mlp(layers), TrainStats(steps=100, success_fraction=1.0,
                                             final_success_steps=list(rollout_steps)))
                    for _ in jobs]

        monkeypatch.setattr(planner, "train_stages", train_stages)
        w, library, cfg = solve_setup()
        cache, costs = {}, {}
        _, stats = sharp_solve(w, Configuration(1.5, 1.5), Configuration(18.5, 18.5),
                               library, cache, costs, cfg, np.random.default_rng(0),
                               GOAL_TOL)
        assert stats.plan_option_ids
        return library, stats, cache, costs

    def test_mean_of_traces(self, monkeypatch):
        _, stats, cache, costs = self.solve(monkeypatch, [10, 14])
        assert costs == {oid: 12.0 for oid in stats.plan_option_ids}
        assert [e.cost for e in cache.values()] == [12.0] * len(stats.plan_option_ids)

    def test_singleton(self, monkeypatch):
        _, stats, _, costs = self.solve(monkeypatch, [7])
        assert costs == {oid: 7.0 for oid in stats.plan_option_ids}

    def test_no_successful_rollout_keeps_prior(self, monkeypatch):
        library, stats, cache, costs = self.solve(monkeypatch, [])
        assert costs == {}
        prior = {o.id: o.prior for o in library.options}
        assert {key.split("/")[1]: e.cost for key, e in cache.items()} == {
            oid: prior[oid] for oid in stats.plan_option_ids}

    def test_solve_leaves_library_untouched(self, monkeypatch):
        # one solve trains the plan's options, the next hits their entries:
        # each writes the trained mean to costs, neither writes the library
        w, fresh, cfg = solve_setup()
        library, first, cache, costs = self.solve(monkeypatch, [10, 14])
        _, second = sharp_solve(w, Configuration(1.5, 1.5), Configuration(18.5, 18.5),
                                library, cache, costs, cfg, np.random.default_rng(0),
                                GOAL_TOL)
        assert first.options_trained == second.options_reused == len(
            first.plan_option_ids)
        assert costs == {oid: 12.0 for oid in first.plan_option_ids}
        assert json.dumps(library_payload(library), sort_keys=True) == json.dumps(
            library_payload(fresh), sort_keys=True)

    def test_updated_costs_change_route(self):
        # two routes 0 -> 3: direct edge (short in meters) vs via node 1;
        # after step-count updates the direct edge becomes expensive
        pos = {0: (0.0, 0.0), 1: (5.0, 5.0), 3: (10.0, 0.0)}
        library = library_of([
            make_option("c0-3", (0, 3), pos[0], pos[3]),
            make_option("c0-1", (0, 1), pos[0], pos[1]),
            make_option("c1-3", (1, 3), pos[1], pos[3])])
        goal_cfg = Configuration(*pos[3])
        assert [o.id for o in plan_abstract(library, 0, 3, goal_cfg, {})] == ["c0-3"]
        # rollouts proved the direct edge slow
        costs = {"c0-3": 320.0, "c0-1": 40.0, "c1-3": 45.0}
        plan = plan_abstract(library, 0, 3, goal_cfg, costs)
        assert [o.id for o in plan] == ["c0-1", "c1-3"]
        assert sum(costs[o.id] for o in plan) == pytest.approx(
            dijkstra_cost(library.options, 0, 3, costs))


class TestAstarHelper:
    def test_zero_heuristic_is_dijkstra(self, rng):
        edges = {0: [(1, 2.0, "a"), (2, 5.0, "b")], 1: [(2, 1.0, "c")], 2: []}
        cost, path = astar(edges, 0, 2, lambda n: 0.0)
        assert cost == 3.0 and path == ["a", "c"]

    def test_unreachable_returns_none(self):
        assert astar({0: [], 1: []}, 0, 1, lambda n: 0.0) is None


def solve_setup(kind="centroid", smoke=True):
    w = open_world(20, 20, noise_sigma=0.02, max_step=1.0)
    regions = [point_region(w, (3, 3)), point_region(w, (10, 10)),
               point_region(w, (16, 16))]
    rbvd = build_region_voronoi(w, regions)
    library = OptionLibrary(kind=kind, threshold=2.0, guide_seed=0,
                            options=synth_options(rbvd, kind, t=2.0), rbvd=rbvd)
    cfg = TrainConfig(
        learner="cem", max_steps=1200, eval_every=600, eval_episodes=4,
        episode_limit=40, cem_population=4, cem_iters=1, hidden=(4, 4))
    return w, library, cfg


class TestSharpSolve:
    def test_composed_policy_chains(self):
        w, library, cfg = solve_setup()
        cache = {}
        composed, stats = sharp_solve(w, Configuration(1.5, 1.5),
                                      Configuration(18.5, 18.5), library, cache, {},
                                      cfg, np.random.default_rng(0), GOAL_TOL)
        assert [s.label for s in composed.stages[1:-1]] == stats.plan_option_ids
        by_id = {o.id: o for o in library.options}
        plan = [by_id[oid] for oid in stats.plan_option_ids]
        for a, b in zip(plan, plan[1:]):
            assert a.termination.cells == b.initiation.cells
        assert composed.stages[0].label == "bridge_in"
        assert composed.stages[-1].label == "bridge_out"

    @pytest.mark.parametrize("kind, goal", [("centroid", (18.5, 18.5)),
                                            ("interface", (18.5, 18.5)),
                                            ("centroid", (4.0, 4.0))],
                             ids=["centroid", "interface", "no-option"])
    def test_stages_hand_over_where_their_guides_end(self, kind, goal):
        w, library, cfg = solve_setup(kind)
        x_g = Configuration(*goal)
        composed, stats = sharp_solve(w, Configuration(2.0, 2.0), x_g, library, {},
                                      {}, cfg, np.random.default_rng(3), GOAL_TOL)
        assert bool(stats.plan_option_ids) == (goal != (4.0, 4.0))
        stages = composed.stages
        for stage, after in zip(stages, stages[1:]):
            assert stage.advance_cells == stage.policy.guide.termination.cells
            assert stage.advance_cells == after.policy.guide.initiation.cells
        assert stages[-1].advance_cells == goal_region(w, x_g, GOAL_TOL).cells

    def test_cache_reuse_and_cheaper_resolve(self):
        w, library, cfg = solve_setup()
        cache, costs = {}, {}
        _, first = sharp_solve(w, Configuration(1.5, 1.5),
                               Configuration(18.5, 18.5), library, cache, costs, cfg,
                               np.random.default_rng(1), GOAL_TOL)
        assert first.options_trained >= 1 and first.options_reused == 0
        _, second = sharp_solve(w, Configuration(2.5, 1.5),
                                Configuration(18.5, 17.5), library, cache, costs, cfg,
                                np.random.default_rng(2), GOAL_TOL)
        assert second.plan_option_ids == first.plan_option_ids
        assert second.options_reused == len(second.plan_option_ids)
        assert second.options_trained == 0
        assert second.training_steps < first.training_steps

    def test_cache_keyed_on_train_config(self):
        _, library = build_library(TWO_ROOMS, "centroid", AbstractionParams())
        cache = {}

        def solve(hidden):
            cfg = TrainConfig(
                learner="cem", max_steps=200, eval_every=200, eval_episodes=2,
                episode_limit=20, cem_population=2, cem_iters=1,
                hidden=hidden)
            return sharp_solve(TWO_ROOMS, Configuration(1.5, 1.5),
                               Configuration(8.5, 1.5), library, cache, {}, cfg,
                               np.random.default_rng(0), GOAL_TOL)

        _, first = solve((8, 8))
        assert first.options_trained >= 1
        composed, second = solve((4, 4))
        assert second.options_reused == 0
        assert [s.policy.actor.layer_sizes[1:3] for s in composed.stages[1:-1]] \
            == [(4, 4)] * len(second.plan_option_ids)
        _, third = solve((4, 4))
        assert third.options_reused == len(third.plan_option_ids)

    def test_stage_success_reports_each_stage(self, monkeypatch):
        _, library = build_library(TWO_ROOMS, "centroid", AbstractionParams())
        cfg = TrainConfig(learner="cem", max_steps=200, eval_every=200,
                          eval_episodes=2, episode_limit=20, cem_population=2,
                          cem_iters=1, hidden=(4, 4))
        trained = {}   # guide id -> success fraction, whatever the dispatch order

        def train_guide(world, rbvd, guide, cfg, rng):
            actor, tstats = real_train_guide(world, rbvd, guide, cfg, rng)
            trained[guide.option_id] = tstats.success_fraction
            return actor, tstats

        real_train_guide = planner._train_guide
        monkeypatch.setattr(planner, "_train_guide", train_guide)
        # inline, so that train_guide appends in this process
        monkeypatch.setattr(pool, "usable_cpus", lambda: 1)
        cache = {}
        for reused in (False, True):
            trained.clear()
            composed, stats = sharp_solve(
                TWO_ROOMS, Configuration(1.5, 1.5), Configuration(8.5, 1.5),
                library, cache, {}, cfg, np.random.default_rng(0), GOAL_TOL)
            labels = [label for label, _ in stats.stage_success]
            assert labels == [s.label for s in composed.stages]
            assert len(labels) == 2 + len(stats.plan_option_ids) >= 3
            assert len(trained) == (2 if reused else len(labels))
            assert [v for _, v in stats.stage_success] == [
                trained.get(s.policy.guide.option_id) for s in composed.stages]

    def test_pooled_and_inline_training_agree(self, monkeypatch):
        """The same two solves, trained inline and on a pool of workers:
        actors bit for bit, stats, cache keys and entries, costs tables."""
        pools = []

        class CountingPool(multiprocessing.pool.Pool):
            def __init__(self, processes, *args, **kwargs):
                pools.append(processes)
                super().__init__(processes, *args, **kwargs)

        monkeypatch.setattr(multiprocessing.pool, "Pool", CountingPool)
        w, library, cfg = solve_setup()
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
            cache, costs = {}, {}
            solves = [sharp_solve(w, Configuration(*xy_i), Configuration(*xy_g),
                                  library, cache, costs, cfg,
                                  np.random.default_rng(seed), GOAL_TOL)
                      for seed, xy_i, xy_g in ((5, (1.5, 1.5), (18.5, 18.5)),
                                               (6, (2.5, 1.5), (18.5, 17.5)))]
            assert multiprocessing.active_children() == []
            runs.append((solves, cache, costs))
        # the first solve trains bridges and options, the second bridges only
        assert pools == [2, 2]
        (inline, inline_cache, inline_costs), (pooled, pooled_cache, pooled_costs) = runs
        assert pooled[0][1].options_trained >= 1 and pooled[1][1].options_reused >= 1
        for (c1, s1), (c2, s2) in zip(inline, pooled):
            assert s1 == s2
            assert [s.label for s in c1.stages] == [s.label for s in c2.stages]
            for a, b in zip(c1.stages, c2.stages):
                assert a.policy.actor.layer_sizes == b.policy.actor.layer_sizes
                assert a.policy.actor.params.tobytes() == b.policy.actor.params.tobytes()
        assert list(inline_cache) == list(pooled_cache)
        for key, entry in inline_cache.items():
            twin = pooled_cache[key]
            assert (entry.cost, entry.training_steps) == (twin.cost, twin.training_steps)
            assert entry.actor.params.tobytes() == twin.actor.params.tobytes()
        assert list(inline_costs.items()) == list(pooled_costs.items())

    @pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "pooled"])
    def test_diverged_entry_bridge_wins_over_later_guide(self, monkeypatch, cpus):
        real_train = planner.train_option_policy
        real_build = planner.build_guide

        def train(world, guide, rbvd, cfg, rng):
            if guide.option_id == "bridge-in":
                raise DivergedTraining("critic loss is not finite")
            return real_train(world, guide, rbvd, cfg, rng)

        def build(world, rbvd, option_id, *args):
            if not option_id.startswith("bridge-"):
                raise GuideUnreachable("no guide")
            return real_build(world, rbvd, option_id, *args)

        monkeypatch.setattr(planner, "train_option_policy", train)
        monkeypatch.setattr(planner, "build_guide", build)
        monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
        w, library, cfg = solve_setup()
        with pytest.raises(DivergedTraining, match="bridge-in"):
            sharp_solve(w, Configuration(1.5, 1.5), Configuration(18.5, 18.5),
                        library, {}, {}, cfg, np.random.default_rng(0), GOAL_TOL)
        assert multiprocessing.active_children() == []
        # without the divergence, the option's guide is the first failure
        monkeypatch.setattr(planner, "train_option_policy", real_train)
        with pytest.raises(GuideUnreachable, match="no guide"):
            sharp_solve(w, Configuration(1.5, 1.5), Configuration(18.5, 18.5),
                        library, {}, {}, cfg, np.random.default_rng(0), GOAL_TOL)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "pooled"])
    def test_diverged_earlier_stage_wins_over_longer_later_one(self, monkeypatch,
                                                                cpus):
        # bridge-in and the stage with the longest guide both diverge; the
        # longest is dispatched first, yet bridge-in's error wins
        diverging = {"bridge-in"}
        real_train_stages = planner.train_stages
        real_train = planner.train_option_policy

        def train_stages(world, rbvd, cfg, jobs):
            longest, _ = max(jobs, key=lambda job: planner._arc_length(job[0]))
            assert jobs[0][0].option_id == "bridge-in"
            assert longest.option_id != "bridge-in"
            diverging.add(longest.option_id)
            return real_train_stages(world, rbvd, cfg, jobs)

        def train(world, guide, rbvd, cfg, rng):
            if guide.option_id in diverging:
                raise DivergedTraining("critic loss is not finite")
            return real_train(world, guide, rbvd, cfg, rng)

        monkeypatch.setattr(planner, "train_stages", train_stages)
        monkeypatch.setattr(planner, "train_option_policy", train)
        monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
        w, library, cfg = solve_setup()
        with pytest.raises(DivergedTraining, match="^training bridge-in: "):
            sharp_solve(w, Configuration(1.5, 1.5), Configuration(18.5, 18.5),
                        library, {}, {}, cfg, np.random.default_rng(0), GOAL_TOL)
        assert len(diverging) == 2
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "pooled"])
    def test_failed_exit_guide_keeps_trained_options(self, monkeypatch, cpus):
        real_build = planner.build_guide

        def build(world, rbvd, option_id, *args):
            if option_id == "bridge-out":
                raise GuideUnreachable("no exit guide")
            return real_build(world, rbvd, option_id, *args)

        monkeypatch.setattr(planner, "build_guide", build)
        monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
        w, library, cfg = solve_setup()
        x_i, x_g = Configuration(1.5, 1.5), Configuration(18.5, 18.5)
        rbvd = library.rbvd
        plan = plan_abstract(library, rbvd.state_of(x_i).id, rbvd.state_of(x_g).id,
                             x_g, {})
        cache = {}
        with pytest.raises(GuideUnreachable, match="no exit guide"):
            sharp_solve(w, x_i, x_g, library, cache, {}, cfg, np.random.default_rng(0),
                        GOAL_TOL)
        # the stages before the failing one were applied, as a sequential
        # solve applies them: every planned option is trained and cached
        assert plan
        assert sorted(key.split("/")[1] for key in cache) == sorted(o.id for o in plan)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "pooled"])
    def test_failed_entry_guide_trains_nothing(self, monkeypatch, cpus):
        pools = []
        real_build = planner.build_guide

        class CountingPool(multiprocessing.pool.Pool):
            def __init__(self, processes, *args, **kwargs):
                pools.append(processes)
                super().__init__(processes, *args, **kwargs)

        def build(world, rbvd, option_id, *args):
            if option_id == "bridge-in":
                raise GuideUnreachable("no entry guide")
            return real_build(world, rbvd, option_id, *args)

        def train(*args):
            pytest.fail("trained a stage after the entry guide failed")

        monkeypatch.setattr(multiprocessing.pool, "Pool", CountingPool)
        monkeypatch.setattr(planner, "build_guide", build)
        monkeypatch.setattr(planner, "train_option_policy", train)
        monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
        w, library, cfg = solve_setup()
        cache, costs = {}, {}
        with pytest.raises(GuideUnreachable, match="no entry guide"):
            sharp_solve(w, Configuration(1.5, 1.5), Configuration(18.5, 18.5),
                        library, cache, costs, cfg, np.random.default_rng(0), GOAL_TOL)
        assert (cache, costs, pools) == ({}, {}, [])
        assert multiprocessing.active_children() == []

    def test_stage_whose_training_failed_is_reported(self, monkeypatch, caplog):
        real_train_stages = planner.train_stages
        failing = set()   # guide ids whose training reports 0.0 success

        def train_stages(world, rbvd, cfg, jobs):
            results = real_train_stages(world, rbvd, cfg, jobs)
            for (guide, _), (_, tstats) in zip(jobs, results):
                tstats.success_fraction = 0.0 if guide.option_id in failing else 1.0
            return results

        monkeypatch.setattr(planner, "train_stages", train_stages)
        w, library, cfg = solve_setup()
        reported = []
        for failing_ids in ({"bridge-in", "bridge-out"}, set()):
            failing.clear()
            failing.update(failing_ids)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="sharp.planner"):
                sharp_solve(w, Configuration(1.5, 1.5), Configuration(18.5, 18.5),
                            library, {}, {}, cfg, np.random.default_rng(0), GOAL_TOL)
            reported.append([r.getMessage() for r in caplog.records
                             if r.name == "sharp.planner"])
        assert reported == [
            ["training ended at 0.0 success in stage(s) bridge_in, bridge_out"], []]

    def test_same_state_bridges_only(self):
        w, library, cfg = solve_setup()
        composed, stats = sharp_solve(w, Configuration(2.0, 2.0),
                                      Configuration(4.0, 4.0), library,
                                      {}, {}, cfg, np.random.default_rng(3), GOAL_TOL)
        assert stats.plan_option_ids == []
        assert [s.label for s in composed.stages] == ["bridge_in", "bridge_out"]

    def test_unreachable_goal_state(self):
        w = grid_from_rows([
            ".....#...",
            ".....#...",
            ".....#...",
            ".....#...",
            ".....#...",
        ])
        regions = [point_region(w, (1, 2)), point_region(w, (3, 2)),
                   point_region(w, (7, 2))]
        rbvd = build_region_voronoi(w, regions)
        options = synth_options(rbvd, "centroid", t=1.5)
        library = OptionLibrary(kind="centroid", threshold=1.5, guide_seed=0,
                                options=options, rbvd=rbvd)
        cfg = TrainConfig(learner="cem", max_steps=400, eval_every=400,
                          eval_episodes=2, episode_limit=20, cem_population=3,
                          cem_iters=1, hidden=(4, 4))
        with pytest.raises(NoAbstractPath):
            sharp_solve(w, Configuration(0.5, 0.5), Configuration(8.5, 0.5),
                        library, {}, {}, cfg, np.random.default_rng(4), GOAL_TOL)

    def test_guide_fingerprint_stability(self):
        w, library, cfg = solve_setup()
        option = library.options[0]
        g1 = compute_guide_path(w, library.rbvd, option,
                                derive_rng("guide", "k", 0, option.id))
        g2 = compute_guide_path(w, library.rbvd, option,
                                derive_rng("guide", "k", 0, option.id))
        assert guide_fingerprint(g1, library.rbvd) == guide_fingerprint(g2, library.rbvd)

    def test_guide_fingerprint_covers_endpoint_cells(self):
        # two libraries that differ only in their threshold give an option
        # the same guide points but other endpoint balls, so training on
        # one library's guide does not stand for the other's
        w = open_world(20, 20, noise_sigma=0.02, max_step=1.0)
        regions = [point_region(w, (3, 3)), point_region(w, (10, 10))]
        guides = []
        for t in (1.0, 2.0):
            library = library_from_regions(w, regions, "centroid", t, 0)
            option = next(o for o in library.options if o.id == "c0-1")
            guide = compute_guide_path(w, library.rbvd, option,
                                       derive_rng("guide", "k", 0, option.id))
            guides.append((guide, guide_fingerprint(guide, library.rbvd)))
        (small, small_key), (large, large_key) = guides
        assert small.points == large.points
        assert small.termination.cells < large.termination.cells
        assert small_key != large_key


class TestTrainStages:
    @staticmethod
    def guide(oid, xs):
        """A guide along y = 0.5 through the given x coordinates."""
        points = [Configuration(x, 0.5) for x in xs]
        return OptionGuide(option_id=oid, initiation=region_at(xs[0], 0.5),
                           termination=region_at(xs[-1], 0.5), points=points,
                           allowed_states=frozenset({0}))

    def test_longest_guide_is_dispatched_first(self, monkeypatch):
        dispatched = []

        def train_guide(world, rbvd, guide, cfg, rng):
            dispatched.append(guide.option_id)
            return guide.option_id

        monkeypatch.setattr(planner, "_train_guide", train_guide)
        monkeypatch.setattr(pool, "usable_cpus", lambda: 1)
        # arc lengths 2, 5, 2, 3.5 and 0 (a one-point guide)
        guides = [self.guide("a", [0.5, 1.5, 2.5]), self.guide("b", [0.5, 3.0, 5.5]),
                  self.guide("c", [4.5, 5.5, 6.5]), self.guide("d", [0.5, 4.0]),
                  self.guide("e", [2.5])]
        jobs = [(g, np.random.default_rng(i)) for i, g in enumerate(guides)]
        assert planner.train_stages(None, None, None, jobs) == ["a", "b", "c", "d", "e"]
        assert dispatched == ["b", "d", "a", "c", "e"]

    def test_dispatch_order_moves_no_byte(self, monkeypatch):
        """Each training reads only its own generator: a job list and the
        same list reversed give the same results in reverse, inline and
        pooled, actors bit for bit."""
        w, library, cfg = solve_setup()
        guides = [compute_guide_path(w, library.rbvd, o,
                                     derive_rng("guide", "k", 0, o.id))
                  for o in library.options[:3]]
        # every guide ties, so each list is dispatched in its own order
        monkeypatch.setattr(planner, "_arc_length", lambda guide: 0.0)
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
            for reverse in (False, True):
                jobs = [(g, np.random.default_rng(seed))
                        for seed, g in zip((11, 12, 13), guides)]
                results = planner.train_stages(w, library.rbvd, cfg,
                                               jobs[::-1] if reverse else jobs)
                runs.append(results[::-1] if reverse else results)
                assert multiprocessing.active_children() == []
        reference = runs[0]
        for results in runs[1:]:
            for (actor, tstats), (twin, twin_stats) in zip(results, reference):
                assert actor.layer_sizes == twin.layer_sizes
                assert actor.params.tobytes() == twin.params.tobytes()
                assert tstats == twin_stats


class TestExecuteComposed:
    def make_scripted_composed(self, w, via, goal):
        start = Configuration(1.5, 1.5)
        mid = Region(cells=frozenset([w.cell_of(*via)]),
                     representative=Configuration(*via))
        stage0 = Stage(label="bridge_in",
                       policy=ScriptedPolicy([start, Configuration(*via)], tol=0.4),
                       advance_cells=mid.cells)
        stage1 = Stage(label="bridge_out",
                       policy=ScriptedPolicy([Configuration(*via),
                                              Configuration(*goal)], tol=0.4),
                       advance_cells=frozenset([w.cell_of(*goal)]))
        return ComposedPolicy(stages=[stage0, stage1], x_start=start,
                              x_goal=Configuration(*goal), goal_tol=1.0)

    def test_oracle_policies_reach_goal(self):
        w = open_world(12, 12)
        composed = self.make_scripted_composed(w, (6.5, 6.5), (10.5, 10.5))
        ((trace,),) = execute_composed(w, [(composed, 200, [np.random.default_rng(5)])])
        assert trace.outcome == "reached_goal"
        assert len(trace.stage_steps) == 2
        assert all(s >= 0 for s in trace.stage_steps)

    def test_stuck_stage_times_out(self):
        w = open_world(12, 12)
        composed = self.make_scripted_composed(w, (6.5, 6.5), (10.5, 10.5))
        # replace stage 0 with a policy that never moves toward the region
        composed.stages[0] = Stage(
            label="bridge_in",
            policy=ScriptedPolicy([Configuration(1.5, 1.5)], tol=0.4),
            advance_cells=composed.stages[0].advance_cells)
        ((trace,),) = execute_composed(w, [(composed, 30, [np.random.default_rng(6)])])
        assert trace.outcome == "stage_timeout" and trace.timeout_stage == 0

    def test_scripted_runs_in_one_batch_match_each_run_alone(self):
        # a batch of ScriptedPolicy stages only, through the lane controller
        # protocol: lanes of two runs reach the goal or time out at many ticks
        w = open_world(12, 12, noise_sigma=0.3)
        runs = [(self.make_scripted_composed(w, (6.5, 6.5), (10.5, 10.5)), 200,
                 range(4)),
                (self.make_scripted_composed(w, (2.5, 9.5), (9.5, 2.5)), 9,
                 range(10, 16))]

        def with_rngs(composed, limit, seeds):
            return composed, limit, [np.random.default_rng(s) for s in seeds]

        batch = execute_composed(w, [with_rngs(*run) for run in runs])
        for run, traces in zip(runs, batch):
            assert execute_composed(w, [with_rngs(*run)]) == [traces]
        assert {t.outcome for traces in batch for t in traces} == {
            "reached_goal", "stage_timeout"}
        assert len({t.total_steps for traces in batch for t in traces}) > 3

    def test_composability_over_random_worlds(self, rng):
        # every abstract plan's consecutive options share endpoint cell sets
        from conftest import random_world
        from test_abstraction import sprinkle_regions
        checked = 0
        for _ in range(8):
            w = random_world(rng, 14, 14, wall_fraction=0.15)
            if len(free_cells(w)) < 30:
                continue
            regions = sprinkle_regions(w, rng, 4)
            rbvd = build_region_voronoi(w, regions)
            for kind in ("centroid", "interface"):
                options = synth_options(rbvd, kind, t=2.5)
                if not options:
                    continue
                library = library_of(options, kind, rbvd)
                nodes = [s.id for s in rbvd.states]
                for sa in nodes:
                    for sb in nodes:
                        try:
                            plan = plan_abstract(library, sa, sb,
                                                 rbvd.states[sb].anchor.centroid, {})
                        except NoAbstractPath:
                            continue
                        for a, b in zip(plan, plan[1:]):
                            assert a.termination.cells == b.initiation.cells
                            checked += 1
        assert checked > 0
