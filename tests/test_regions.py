import multiprocessing
import multiprocessing.pool
import os

import numpy as np
import pytest

from sharp import pool
from sharp.errors import InsufficientData, NoRegions, SharpError
from sharp.motion import rrt_plan
from sharp.regions import (NEIGHBORS4, collect_solution_density,
                           connected_components, extract_critical_regions, grid_bfs,
                           percentile_threshold)
from sharp.seeding import spawn
from sharp.world import Configuration, sample_free

from conftest import grid_from_rows, open_world, random_world
from helpers import free_cells, solution_traces

# two 4x4 rooms joined by a one-cell-wide corridor
DUMBBELL = grid_from_rows([
    "##########",
    "#....##..#",
    "#........#",
    "#....##..#",
    "#....##..#",
    "##########",
])


class TestCollect:
    def test_single_problem_density_is_indicator(self):
        w = open_world(8, 8)
        density = collect_solution_density(w, 1, 1, np.random.default_rng(3))
        traces = solution_traces(w, 1, 1, np.random.default_rng(3))
        assert len(traces) == 1
        _, _, visited = traces[0]
        for iy in range(8):
            for ix in range(8):
                expected = 1.0 if (ix, iy) in visited else 0.0
                assert density[iy, ix] == expected

    def test_density_matches_trace_recount(self):
        density = collect_solution_density(DUMBBELL, 8, 4, np.random.default_rng(5))
        traces = solution_traces(DUMBBELL, 8, 4, np.random.default_rng(5))
        recount = np.zeros_like(density)
        for _, _, visited in traces:
            for ix, iy in visited:
                recount[iy, ix] += 1.0
        recount /= len(traces)
        assert np.allclose(density, recount)

    def test_corridor_dominates_for_crossing_problems(self):
        traces = solution_traces(DUMBBELL, 14, 6, np.random.default_rng(11))
        corridor = {(5, 3), (6, 3)}  # the only cells linking the two rooms

        def room(cfg):
            # endpoints inside the corridor itself belong to neither room
            if cfg.x < 5.0:
                return "L"
            return "R" if cfg.x >= 7.0 else None

        crossing = [(s, g, v) for s, g, v in traces
                    if room(s) and room(g) and room(s) != room(g)]
        assert len(crossing) >= 5
        density = np.zeros((DUMBBELL.height, DUMBBELL.width))
        for _, _, visited in crossing:
            for ix, iy in visited:
                density[iy, ix] += 1.0
        corridor_min = min(density[iy, ix] for ix, iy in corridor)
        for iy in range(DUMBBELL.height):
            for ix in range(DUMBBELL.width):
                if (ix, iy) not in corridor:
                    assert density[iy, ix] <= corridor_min

    def test_fully_occupied_insufficient(self):
        w = grid_from_rows(["##", "##"])
        with pytest.raises(InsufficientData):
            collect_solution_density(w, 3, 3, np.random.default_rng(0))


def density_goals(world, n_goals, inits_per_goal, rng) -> list:
    """The goals that collect_solution_density draws from rng, in order."""
    goals = []
    for _ in range(n_goals):
        goals.append(sample_free(world, spawn(rng)))
        for _ in range(inits_per_goal):
            spawn(rng)
    return goals


class TestPooledDensity:
    """Each goal's problems are one job; the pooled density is the inline
    density, byte for byte."""

    @pytest.fixture
    def pools(self, monkeypatch):
        """The process count of every pool started, in order."""
        counts = []

        class CountingPool(multiprocessing.pool.Pool):
            def __init__(self, processes, *args, **kwargs):
                counts.append(processes)
                super().__init__(processes, *args, **kwargs)

        monkeypatch.setattr(multiprocessing.pool, "Pool", CountingPool)
        return counts

    def test_pooled_and_inline_density_agree(self, monkeypatch, pools):
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
            rng = np.random.default_rng(5)
            density = collect_solution_density(DUMBBELL, 8, 4, rng)
            assert multiprocessing.active_children() == []
            runs.append((density.tobytes(), rng.bit_generator.state))
        assert runs[0] == runs[1]
        # inline forks nothing; pooled, the 8 goals share two workers
        assert pools == [2]

    def test_one_goal_runs_inline(self, monkeypatch, pools):
        monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
        collect_solution_density(DUMBBELL, 1, 4, np.random.default_rng(5))
        assert pools == []

    @pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "pooled"])
    def test_goal_error_surfaces_after_join(self, monkeypatch, cpus):
        # the last goal's job raises; the other goals' jobs solve
        last = density_goals(DUMBBELL, 8, 4, np.random.default_rng(5))[-1]

        def plan(world, x_i, x_g, *args):
            if x_g == last:
                raise SharpError(f"planning failed in {os.getpid()}")
            return rrt_plan(world, x_i, x_g, *args)

        monkeypatch.setattr("sharp.regions.rrt_plan", plan)
        monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
        with pytest.raises(SharpError, match="planning failed") as err:
            collect_solution_density(DUMBBELL, 8, 4, np.random.default_rng(5))
        assert multiprocessing.active_children() == []
        ran_here = str(err.value).endswith(str(os.getpid()))
        assert ran_here == (cpus == 1)


class TestExtract:
    def make_density(self, world, hot_cells, value=1.0):
        d = np.zeros((world.height, world.width))
        for ix, iy in hot_cells:
            d[iy, ix] = value
        return d

    def test_zero_density_no_regions(self, empty10):
        # a negative threshold would otherwise take every free cell
        with pytest.raises(NoRegions):
            extract_critical_regions(empty10, np.zeros((10, 10)), threshold=-1.0)

    def test_two_blobs_two_regions(self, empty10):
        blob_a = {(1, 1), (1, 2), (2, 1), (2, 2)}
        blob_b = {(7, 7), (7, 8), (8, 7)}
        d = self.make_density(empty10, blob_a | blob_b)
        regions = extract_critical_regions(empty10, d, threshold=0.5, min_cells=3)
        assert len(regions) == 2
        cell_sets = {r.cells for r in regions}
        assert frozenset(blob_a) in cell_sets and frozenset(blob_b) in cell_sets

    def test_min_cells_filter(self, empty10):
        blob_a = {(1, 1), (1, 2), (2, 1), (2, 2)}
        blob_small = {(8, 8), (8, 7)}
        d = self.make_density(empty10, blob_a | blob_small)
        regions = extract_critical_regions(empty10, d, threshold=0.5, min_cells=3)
        assert len(regions) == 1
        assert regions[0].cells == frozenset(blob_a)

    def test_centroid_inside_and_free(self, empty10):
        regions = extract_critical_regions(
            empty10, self.make_density(empty10, {(1, 1), (2, 1), (3, 1), (2, 2)}),
            threshold=0.5)
        (r,) = regions
        assert empty10.cell_of(r.centroid.x, r.centroid.y) in r.cells

    def test_medoid_fallback_for_hollow_component(self):
        # U-shaped blob around an obstacle: geometric centroid lands on the wall
        w = grid_from_rows([
            ".....",
            ".###.",
            ".....",
        ])
        blob = {(0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (3, 2), (4, 2), (4, 1),
                (4, 0), (1, 0), (2, 0), (3, 0)}
        d = np.zeros((3, 5))
        for ix, iy in blob:
            d[iy, ix] = 1.0
        (r,) = extract_critical_regions(w, d, threshold=0.5, min_cells=3)
        assert w.cell_of(r.centroid.x, r.centroid.y) in r.cells

    def test_medoid_is_the_most_central_cell(self):
        # a U-shaped blob whose centroid falls on the wall: the medoid is the
        # middle of the 7-cell path, (1, 0), not one of its ends
        w = grid_from_rows([
            ".#.",
            ".#.",
            "...",
        ])
        d = (~w.occupancy).astype(float)
        (r,) = extract_critical_regions(w, d, threshold=0.5, min_cells=3)
        assert (r.centroid.x, r.centroid.y) == w.cell_center((1, 0))

    @pytest.mark.parametrize("seed, score", [
        (0, "0x1.27bd98f83b870p-1"), (1, "0x1.136c78f6b0581p-1"),
        (2, "0x1.1799bdb8a1eadp-1")])
    def test_score_bits_match_recorded(self, seed, score):
        # np.mean sums a component in its set's iteration order, which
        # depends on how the set was filled; recorded before the components
        # came from grid_bfs, and seed 0 moves by one ulp if they are filled
        # from the search's dict in one call
        w = open_world(20, 20)
        d = np.random.default_rng(seed).uniform(0.1, 1.0, size=(20, 20))
        (r,) = extract_critical_regions(w, d, threshold=0.05, min_cells=1)
        assert r.score.hex() == score

    def test_threshold_monotonicity(self, rng, empty10):
        d = rng.random((10, 10))
        lo = extract_critical_regions(empty10, d, threshold=0.3, min_cells=1)
        hi = extract_critical_regions(empty10, d, threshold=0.6, min_cells=1)
        union_lo = set().union(*(r.cells for r in lo))
        union_hi = set().union(*(r.cells for r in hi))
        assert union_hi <= union_lo

    def test_regions_disjoint_and_free(self, rng):
        from conftest import random_world
        for _ in range(10):
            w = random_world(rng, 12, 12, wall_fraction=0.2)
            d = rng.random((12, 12)) * ~w.occupancy
            try:
                regions = extract_critical_regions(
                    w, d, percentile_threshold(d, 80.0), min_cells=2)
            except NoRegions:
                continue
            seen = set()
            for r in regions:
                assert not (r.cells & seen)
                seen |= r.cells
                for cell in r.cells:
                    assert w.cell_free(cell)

    def test_deterministic(self):
        rng1 = np.random.default_rng(77)
        rng2 = np.random.default_rng(77)
        d1 = collect_solution_density(DUMBBELL, 6, 3, rng1)
        d2 = collect_solution_density(DUMBBELL, 6, 3, rng2)
        assert np.array_equal(d1, d2)
        r1 = extract_critical_regions(DUMBBELL, d1, percentile_threshold(d1, 80.0),
                                      min_cells=1)
        r2 = extract_critical_regions(DUMBBELL, d2, percentile_threshold(d2, 80.0),
                                      min_cells=1)
        assert r1 == r2


def test_connected_components_splits():
    comps = connected_components({(0, 0), (0, 1), (5, 5)})
    assert sorted(len(c) for c in comps) == [1, 2]


def relaxed_steps(world, source):
    """Steps from one source to every free cell it reaches, by relaxing
    every cell until nothing changes (no queue)."""
    if not world.cell_free(source):
        return {}
    free = [tuple(c) for c in free_cells(world)]
    dist = {source: 0}
    changed = True
    while changed:
        changed = False
        for cx, cy in free:
            near = [dist[(cx + dx, cy + dy)] + 1 for dx, dy in NEIGHBORS4
                    if (cx + dx, cy + dy) in dist]
            if near and min(near) < dist.get((cx, cy), np.inf):
                dist[(cx, cy)] = min(near)
                changed = True
    return dist


def test_grid_bfs_matches_per_source_argmin():
    # steps: the fewest moves from any source; label: the first source in
    # list order among those at that distance
    rng = np.random.default_rng(41)
    for _ in range(150):
        w = random_world(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)),
                         wall_fraction=float(rng.uniform(0.0, 0.5)))
        # cells may repeat, lie in a wall or off the grid; labels repeat
        sources = [((int(rng.integers(-1, w.width + 1)),
                     int(rng.integers(-1, w.height + 1))), int(rng.integers(0, 3)))
                   for _ in range(int(rng.integers(1, 7)))]
        fields = [relaxed_steps(w, cell) for cell, _ in sources]
        expected = {}
        for cell in map(tuple, free_cells(w)):
            reached = [(f[cell], i) for i, f in enumerate(fields) if cell in f]
            if reached:
                steps, i = min(reached)
                expected[cell] = (steps, sources[i][1])
        assert grid_bfs(sources, w.cell_free) == expected
