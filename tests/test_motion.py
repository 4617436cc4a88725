import copy

import numpy as np
import pytest

from sharp import motion
from sharp.errors import Unreachable
from sharp.motion import execute_with_replan, resample_polyline, rrt_plan, shortcut
from sharp.world import Configuration, collision

from conftest import grid_from_rows, open_world, random_world
from helpers import free_cells, plan_length


def plan_is_valid(world, plan, mask=None):
    for wp in plan:
        if collision(world, wp):
            return False
        if mask is not None and world.cell_of(wp.x, wp.y) not in mask:
            return False
    for a, b in zip(plan, plan[1:]):
        if not world.segment_free(a.xy, b.xy):
            return False
    return True


class TestRrt:
    def test_identity_problem(self, empty10):
        plan = rrt_plan(empty10, Configuration(2.2, 2.2), Configuration(2.2, 2.2),
                        np.random.default_rng(0), 1.0)
        assert len(plan) == 1

    def test_open_world_corner_to_corner(self, empty10):
        rng = np.random.default_rng(1)
        plan = rrt_plan(empty10, Configuration(0.5, 0.5), Configuration(9.5, 9.5),
                        rng, 1.0)
        assert plan[0] == Configuration(0.5, 0.5)
        assert plan[-1].distance_to((9.5, 9.5)) <= 1.0
        assert plan_is_valid(empty10, plan)

    def test_enclosed_goal_unreachable(self):
        w = grid_from_rows([
            ".......",
            ".......",
            "..###..",
            "..#.#..",
            "..###..",
            ".......",
            ".......",
        ])
        with pytest.raises(Unreachable):
            rrt_plan(w, Configuration(0.5, 0.5), Configuration(3.5, 3.5),
                     np.random.default_rng(2), 1.0, max_iters=800)

    def test_seed_determinism(self, empty10):
        a = rrt_plan(empty10, Configuration(0.5, 0.5), Configuration(9.5, 9.5),
                     np.random.default_rng(33), 1.0)
        b = rrt_plan(empty10, Configuration(0.5, 0.5), Configuration(9.5, 9.5),
                     np.random.default_rng(33), 1.0)
        assert a == b

    def test_mask_confines_waypoints(self, empty10):
        mask = {(ix, iy) for ix in range(10) for iy in range(0, 2)}  # bottom strip
        rng = np.random.default_rng(4)
        plan = rrt_plan(empty10, Configuration(0.5, 0.5), Configuration(9.5, 1.5),
                        rng, 1.0, mask=mask)
        assert plan_is_valid(empty10, plan, mask=mask)

    def test_mask_disconnection_raises(self, empty10):
        mask = {(0, 0), (9, 9)}  # two isolated cells
        with pytest.raises(Unreachable):
            rrt_plan(empty10, Configuration(0.5, 0.5), Configuration(9.5, 9.5),
                     np.random.default_rng(5), 1.0, max_iters=300, mask=mask)


class TestShortcut:
    def test_straight_visibility_collapses_to_two(self, empty10):
        pts = [Configuration(0.5, 0.5), Configuration(3.0, 2.0),
               Configuration(5.0, 5.0), Configuration(9.5, 9.5)]
        out = shortcut(empty10, pts)
        assert len(out) == 2
        assert out[0] == pts[0] and out[-1] == pts[-1]

    def test_minimal_plan_unchanged(self, empty10):
        pts = [Configuration(0.5, 0.5), Configuration(9.5, 9.5)]
        out = shortcut(empty10, pts)
        assert out == pts

    def test_never_longer(self, rng):
        for _ in range(15):
            w = random_world(rng, 14, 14, wall_fraction=0.25)
            free = free_cells(w)
            a, b = free[rng.integers(len(free))], free[rng.integers(len(free))]
            try:
                plan = rrt_plan(w, Configuration(*(a + 0.5)), Configuration(*(b + 0.5)),
                                rng, w.cell_size, max_iters=1500)
            except Unreachable:
                continue
            short = shortcut(w, plan)
            assert plan_length(short) <= plan_length(plan) + 1e-9
            assert len(short) <= len(plan)
            assert plan_is_valid(w, short)


class TestResample:
    def test_spacing_strictly_below(self):
        pts = [Configuration(0.0, 0.0), Configuration(5.0, 0.0)]
        out = resample_polyline(pts, 0.9)
        assert all(a.distance_to(b) < 0.9 for a, b in zip(out, out[1:]))
        assert out[0] == pts[0] and out[-1] == pts[-1]

    def test_single_point(self):
        pts = [Configuration(1.0, 1.0)]
        assert resample_polyline(pts, 0.5) == pts


class TestExecuteWithReplan:
    def test_zero_noise_succeeds_without_replan(self, empty10, monkeypatch):
        plans = []

        def plan(*args, **kwargs):
            plans.append(args)
            return rrt_plan(*args, **kwargs)

        monkeypatch.setattr(motion, "rrt_plan", plan)
        success, steps = execute_with_replan(empty10, Configuration(0.5, 0.5),
                                             Configuration(9.5, 9.5),
                                             np.random.default_rng(6), 1.0, budget=4000)
        assert success and steps > 0
        assert len(plans) == 1

    def test_zero_budget_fails_without_stepping(self, empty10):
        assert execute_with_replan(empty10, Configuration(0.5, 0.5),
                                   Configuration(9.5, 9.5), np.random.default_rng(7),
                                   1.0, budget=0) == (False, 0)

    def test_budget_charges_extensions_and_steps(self):
        """Every tree extension and every step spends one unit of budget:
        a budget below the first plan's extensions fails before a step, and
        no run steps more than the budget those extensions leave."""
        w = open_world(10, 10, noise_sigma=0.05)
        a, b = Configuration(0.5, 0.5), Configuration(9.5, 9.5)
        rng = np.random.default_rng(9)
        counter = [0]
        rrt_plan(w, a, b, copy.deepcopy(rng), 1.0, work_counter=counter)
        first = counter[0]
        assert first > 1
        assert execute_with_replan(w, a, b, copy.deepcopy(rng), 1.0, first - 1) == (False, 0)
        runs = {budget: execute_with_replan(w, a, b, copy.deepcopy(rng), 1.0, budget)
                for budget in (first, first + 1, first + 5, first + 20, first + 60, 4000)}
        for budget, (_, steps) in runs.items():
            assert steps <= budget - first, budget
        # the bound is reached: a small budget runs out while tracking
        assert runs[first + 5] == (False, 5)
        assert runs[4000][0]

    def test_noisy_success_rate_beats_zero(self):
        w = open_world(10, 10, noise_sigma=0.05)
        wins = 0
        for seed in range(20):
            success, _ = execute_with_replan(w, Configuration(0.5, 0.5),
                                             Configuration(9.5, 9.5),
                                             np.random.default_rng(seed), 1.0, budget=4000)
            wins += success
        assert wins > 0

    def test_unreachable_goal_fails(self):
        w = grid_from_rows([
            ".....",
            ".###.",
            ".#.#.",
            ".###.",
            ".....",
        ])
        success, _ = execute_with_replan(w, Configuration(0.5, 0.5),
                                         Configuration(2.5, 2.5),
                                         np.random.default_rng(8), 1.0, budget=400)
        assert success is False
