import math

import numpy as np
import pytest

from sharp.abstraction import (NO_STATE, build_region_voronoi, endpoint_region,
                               goal_region, render_assignment)
from sharp.errors import (EmptyRegion, InCollision, NotNeighbors, TooFewRegions,
                          UnassignedCell)
from sharp.regions import CriticalRegion, connected_components, grid_bfs
from sharp.world import Configuration

from conftest import grid_from_rows, open_world, random_world
from helpers import free_cells


def point_region(world, cell, score=1.0):
    return CriticalRegion(cells=frozenset([cell]),
                          centroid=Configuration(*world.cell_center(cell)),
                          score=score)


def oracle_assignment(world, regions):
    """Independent per-region BFS; argmin distance, ties to lower region id."""
    fields = [grid_bfs([(c, rid) for c in sorted(r.cells)], world.cell_free)
              for rid, r in enumerate(regions)]
    out = np.full((world.height, world.width), NO_STATE, dtype=np.int64)
    for ix, iy in map(tuple, free_cells(world)):
        best_d, best_id = math.inf, NO_STATE
        for rid, dist in enumerate(fields):
            d = dist.get((ix, iy), (math.inf,))[0]
            if d < best_d:
                best_d, best_id = d, rid
        out[iy, ix] = best_id
    return out


def sprinkle_regions(world, rng, k):
    free = [tuple(c) for c in free_cells(world)]
    picks = rng.choice(len(free), size=min(k, len(free)), replace=False)
    return [point_region(world, free[i]) for i in sorted(picks)]


class TestBuild:
    def test_corridor_splits_at_midpoint(self):
        w = open_world(10, 1)
        regions = [point_region(w, (1, 0)), point_region(w, (8, 0))]
        rbvd = build_region_voronoi(w, regions)
        # equidistant column (ix=4 vs 5 ties at ... distances: from ix=1 and ix=8)
        expected = [0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
        assert list(rbvd.assignment[0]) == expected

    def test_matches_bruteforce_oracle(self, rng):
        for _ in range(12):
            w = random_world(rng, 13, 11, wall_fraction=0.25)
            free = free_cells(w)
            if len(free) < 8:
                continue
            regions = sprinkle_regions(w, rng, int(rng.integers(2, 6)))
            rbvd = build_region_voronoi(w, regions)
            assert np.array_equal(rbvd.assignment, oracle_assignment(w, regions))

    def test_wall_separated_components_stay_separate(self):
        w = grid_from_rows([
            "...#...",
            "...#...",
            "...#...",
        ])
        regions = [point_region(w, (1, 1)), point_region(w, (5, 1))]
        rbvd = build_region_voronoi(w, regions)
        for ix in range(3):
            for iy in range(3):
                assert rbvd.assignment[iy, ix] == 0
        for ix in range(4, 7):
            for iy in range(3):
                assert rbvd.assignment[iy, ix] == 1

    def test_partition_and_connectivity(self, rng):
        for _ in range(8):
            w = random_world(rng, 12, 12, wall_fraction=0.2)
            if len(free_cells(w)) < 10:
                continue
            regions = sprinkle_regions(w, rng, 4)
            rbvd = build_region_voronoi(w, regions)
            assigned = sum(len(s.cells) for s in rbvd.states)
            unassigned = sum(1 for c in map(tuple, free_cells(w))
                             if rbvd.state_id_of_cell(c) == NO_STATE)
            assert assigned + unassigned == len(free_cells(w))
            seen = set()
            for s in rbvd.states:
                assert not (s.cells & seen)
                seen |= s.cells
                assert s.anchor.cells <= s.cells
                if s.cells:
                    assert len(connected_components(set(s.cells))) == 1

    def test_too_few_regions(self, empty10):
        with pytest.raises(TooFewRegions):
            build_region_voronoi(empty10, [point_region(empty10, (1, 1))])


class TestStateOf:
    def test_anchor_centroid_maps_to_own_state(self, empty10):
        regions = [point_region(empty10, (2, 2)), point_region(empty10, (7, 7))]
        rbvd = build_region_voronoi(empty10, regions)
        for sid, region in enumerate(regions):
            assert rbvd.state_of(region.centroid).id == sid

    def test_matches_oracle(self, rng, empty10):
        regions = sprinkle_regions(empty10, rng, 3)
        rbvd = build_region_voronoi(empty10, regions)
        oracle = oracle_assignment(empty10, regions)
        for _ in range(50):
            x, y = rng.uniform(0, 10, size=2)
            c = Configuration(x, y)
            ix, iy = empty10.cell_of(x, y)
            assert rbvd.state_of(c).id == oracle[iy, ix]

    def test_collision_raises(self):
        w = grid_from_rows(["..", ".#"])
        regions = [point_region(w, (0, 0)), point_region(w, (0, 1))]
        rbvd = build_region_voronoi(w, regions)
        with pytest.raises(InCollision):
            rbvd.state_of(Configuration(1.5, 0.5))

    def test_unreachable_pocket(self):
        w = grid_from_rows([
            ".....",
            ".###.",
            ".#.#.",
            ".###.",
            ".....",
        ])
        regions = [point_region(w, (0, 0)), point_region(w, (4, 4))]
        rbvd = build_region_voronoi(w, regions)
        with pytest.raises(UnassignedCell):
            rbvd.state_of(Configuration(2.5, 2.5))


class TestCentroidRegion:
    def setup_method(self):
        self.world = open_world(10, 10)
        self.regions = [point_region(self.world, (2, 5)),
                        point_region(self.world, (7, 5))]
        self.rbvd = build_region_voronoi(self.world, self.regions)

    def test_saturating_threshold_covers_state(self):
        s = self.rbvd.states[0]
        r = endpoint_region(self.rbvd, (s.id,), t=1000.0)
        assert r.cells == s.cells

    def test_small_ball(self):
        s = self.rbvd.states[0]
        r = endpoint_region(self.rbvd, (s.id,), t=1.5)
        center = s.anchor.centroid
        for c in s.cells:
            inside = center.distance_to(self.world.cell_center(c)) < 1.5
            assert (c in r.cells) == inside
        assert (2, 5) in r.cells and (3, 5) in r.cells

    def test_zero_threshold(self):
        with pytest.raises(EmptyRegion):
            endpoint_region(self.rbvd, (0,), t=0.0)


class TestInterfaceRegion:
    def setup_method(self):
        self.world = open_world(10, 3)
        self.regions = [point_region(self.world, (1, 1)),
                        point_region(self.world, (8, 1))]
        self.rbvd = build_region_voronoi(self.world, self.regions)

    def test_disc_straddles_boundary(self):
        r = endpoint_region(self.rbvd, (0, 1), t=2.0)
        p = r.representative
        assert p.x == pytest.approx(5.0)  # border between ix=4 and ix=5
        sides = {self.rbvd.state_id_of_cell(c) for c in r.cells}
        assert sides == {0, 1}
        for c in r.cells:
            assert p.distance_to(self.world.cell_center(c)) < 2.0

    def test_symmetry(self):
        a = endpoint_region(self.rbvd, (0, 1), t=2.5)
        b = endpoint_region(self.rbvd, (1, 0), t=2.5)
        assert a.cells == b.cells and a.representative == b.representative

    def test_not_neighbors(self):
        w = grid_from_rows([
            "...#...",
            "...#...",
            "..##...",
            "...#...",
            "...#...",
        ])
        # no shared boundary between the two sides except... none (full wall)
        regions = [point_region(w, (0, 0)), point_region(w, (6, 0))]
        rbvd = build_region_voronoi(w, regions)
        with pytest.raises(NotNeighbors):
            endpoint_region(rbvd, (0, 1), t=2.0)

    def test_saturation_covers_both_states(self):
        r = endpoint_region(self.rbvd, (0, 1), t=1000.0)
        assert r.cells == self.rbvd.states[0].cells | self.rbvd.states[1].cells


class TestGoalRegion:
    def test_ball_of_free_cells(self):
        w = grid_from_rows([
            ".....",
            "..#..",
            ".....",
        ])
        x_g = Configuration(2.4, 0.6)
        r = goal_region(w, x_g, 1.2)
        assert r.representative == x_g
        assert r.cells == {tuple(c) for c in free_cells(w)
                           if x_g.distance_to(w.cell_center(tuple(c))) < 1.2}
        assert r.cells == {(1, 0), (2, 0), (3, 0)}   # not the wall cell (2, 1)

    def test_own_cell_when_no_center_within_tol(self, empty10):
        x_g = Configuration(5.0, 5.0)   # a cell corner, 0.71 from four centres
        r = goal_region(empty10, x_g, 0.5)
        assert r.cells == {empty10.cell_of(5.0, 5.0)} and r.representative == x_g


def test_render_assignment_shape(empty10):
    regions = [point_region(empty10, (1, 1)), point_region(empty10, (8, 8))]
    rbvd = build_region_voronoi(empty10, regions)
    text = render_assignment(rbvd)
    rows = text.strip("\n").split("\n")
    assert len(rows) == 10 and all(len(r) == 10 for r in rows)
    assert set("".join(rows)) <= {"0", "1"}
