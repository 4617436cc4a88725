import math
from dataclasses import replace

import numpy as np
import pytest

from sharp import experiment
from sharp.abstraction import build_region_voronoi, endpoint_region
from sharp.errors import GuideUnreachable, InCollision
from sharp.options import (PENALTY_REWARD, TERMINAL_REWARD, OptionGuide,
                           pseudo_reward, synth_options)
from sharp.planner import library_from_regions
from sharp.regions import CriticalRegion
from sharp.world import Configuration

from conftest import grid_from_rows, open_world
from helpers import compute_guide_path, nearest_guide_point

from test_abstraction import point_region


def line_world_rbvd(n_regions, width=21, height=3):
    w = open_world(width, height)
    spacing = width // n_regions
    regions = [point_region(w, (spacing // 2 + i * spacing, 1))
               for i in range(n_regions)]
    return w, build_region_voronoi(w, regions)


def triangle_rbvd():
    w = open_world(9, 9)
    regions = [point_region(w, (1, 1)), point_region(w, (7, 1)),
               point_region(w, (4, 7))]
    return w, build_region_voronoi(w, regions)


class TestSynthCounts:
    def test_two_adjacent_states_two_centroid_options(self):
        _, rbvd = line_world_rbvd(2)
        assert len(synth_options(rbvd, "centroid", t=2.0)) == 2

    def test_triangle_six_centroid_options(self):
        _, rbvd = triangle_rbvd()
        assert len(rbvd.adjacency) == 3
        options = synth_options(rbvd, "centroid", t=2.0)
        assert len(options) == 6

    def test_centroid_option_invariants(self, rng):
        from conftest import random_world
        from test_abstraction import sprinkle_regions
        for _ in range(6):
            w = random_world(rng, 12, 12, wall_fraction=0.15)
            regions = sprinkle_regions(w, rng, 4)
            rbvd = build_region_voronoi(w, regions)
            options = synth_options(rbvd, "centroid", t=3.0)
            m = len(rbvd.adjacency)
            assert len(options) <= 2 * m
            for o in options:
                i, j = o.states
                assert rbvd.adjacent(i, j)
                assert o.initiation.cells <= rbvd.states[i].cells
                assert o.termination.cells <= rbvd.states[j].cells
                assert o.prior > 0

    def test_path_graph_two_interface_options(self):
        _, rbvd = line_world_rbvd(3)
        options = synth_options(rbvd, "interface", t=2.0)
        assert sorted(o.states for o in options) == [(0, 1, 2), (2, 1, 0)]

    def test_triangle_interface_options_match_enumeration(self):
        _, rbvd = triangle_rbvd()
        options = synth_options(rbvd, "interface", t=3.0)
        # oracle: enumerate ordered triples with both adjacencies, i != k
        ids = [s.id for s in rbvd.states]
        expected = [(i, j, k) for j in ids for i in rbvd.neighbors(j)
                    for k in rbvd.neighbors(j) if i != k]
        assert sorted(o.states for o in options) == sorted(expected)
        assert len(options) == 6  # one per ordered triple; reverses included

    def test_two_states_no_interface_options(self):
        _, rbvd = line_world_rbvd(2)
        assert synth_options(rbvd, "interface", t=2.0) == []

    def test_consecutive_options_share_regions(self):
        _, rbvd = line_world_rbvd(3)
        options = {o.states: o for o in synth_options(rbvd, "centroid", t=2.0)}
        assert options[(0, 1)].termination.cells == options[(1, 2)].initiation.cells


@pytest.mark.parametrize("env", ["env_a", "env_b", "env_c", "env_d", "env_e"])
def test_bundled_options_follow_the_endpoint_rule(env):
    # each option runs from the endpoint region of its chain's leading
    # states to that of its trailing states, for both kinds
    spec = experiment.spec_for_bundled(env)
    _, centroid = experiment.build_library(spec.world, "centroid", spec.abstraction)
    interface = library_from_regions(spec.world, [s.anchor for s in centroid.rbvd.states],
                                     "interface", centroid.threshold,
                                     centroid.guide_seed)
    for library in (centroid, interface):
        rbvd, t = library.rbvd, library.threshold
        assert library.options
        for o in library.options:
            assert o.kind == library.kind
            assert o.initiation == endpoint_region(rbvd, o.src_states, t)
            assert o.termination == endpoint_region(rbvd, o.dst_states, t)


class TestGuides:
    def test_corridor_guide_is_straight(self):
        w, rbvd = line_world_rbvd(2, width=20, height=3)
        (option,) = [o for o in synth_options(rbvd, "centroid", t=2.0)
                     if o.states == (0, 1)]
        guide = compute_guide_path(w, rbvd, option, rng=np.random.default_rng(0))
        assert guide.points[0] == option.initiation.representative
        assert guide.points[-1] == option.termination.representative
        axis_y = option.initiation.representative.y
        for p in guide.points:
            assert abs(p.y - axis_y) <= w.cell_size

    def test_degenerate_endpoints_single_point(self):
        w, rbvd = line_world_rbvd(2)
        (option,) = [o for o in synth_options(rbvd, "centroid", t=2.0)
                     if o.states == (0, 1)]
        option = replace(option, termination=option.initiation)
        guide = compute_guide_path(w, rbvd, option, rng=np.random.default_rng(0))
        assert len(guide.points) == 1

    def test_disconnected_mask_raises(self):
        # skipping the middle state leaves the masked cells in two islands
        from sharp.options import build_guide
        w, rbvd = line_world_rbvd(3)
        first = endpoint_region(rbvd, (0,), t=2.0)
        last = endpoint_region(rbvd, (2,), t=2.0)
        with pytest.raises(GuideUnreachable):
            build_guide(w, rbvd, "gap", first, last, allowed_states={0, 2},
                        rng=np.random.default_rng(1))

    def test_guide_invariants_across_library(self, rng):
        w, rbvd = triangle_rbvd()
        for option in synth_options(rbvd, "centroid", t=2.5):
            guide = compute_guide_path(w, rbvd, option, rng=rng)
            assert guide.points[0] == option.initiation.representative
            assert guide.points[-1] == option.termination.representative
            for a, b in zip(guide.points, guide.points[1:]):
                assert a.distance_to(b) < 1.0
            for p in guide.points:
                sid = rbvd.state_id_of_cell(w.cell_of(p.x, p.y))
                assert sid in guide.allowed_states


class TestNearestPoint:
    def make_guide(self):
        pts = [Configuration(float(i), 0.0) for i in range(6)]
        return OptionGuide(option_id="g", initiation=None, termination=None,
                           points=pts, allowed_states=frozenset([0]))

    def test_exact_hit(self):
        guide = self.make_guide()
        p, i = nearest_guide_point(guide, Configuration(3.0, 0.0))
        assert i == 3 and p == guide.points[3]

    def test_tie_takes_lowest_index(self):
        guide = self.make_guide()
        _, i = nearest_guide_point(guide, Configuration(3.5, 2.0))  # ties 3 and 4
        assert i == 3

    def test_replaced_points_rebuild_the_tables(self):
        # the point table, the end distances and the nearest-point memo
        # belong to one points list; replace builds them again
        guide = self.make_guide()
        assert guide.nearest(Configuration(5.0, 0.0)) == (5, 0.0)
        moved = replace(guide, points=[Configuration(float(i), 1.0) for i in range(3)])
        assert moved.xy.tolist() == [[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]]
        assert moved.end_dist.tolist() == [2.0, 1.0, 0.0]
        assert moved.nearest(Configuration(5.0, 0.0)) == (2, 10.0)

    def test_matches_linear_scan(self, rng):
        guide = self.make_guide()
        for _ in range(100):
            c = Configuration(*rng.uniform(-2, 8, size=2))
            _, idx = nearest_guide_point(guide, c)
            dists = [c.distance_to(p) for p in guide.points]
            best = min(range(len(dists)), key=lambda k: (dists[k], k))
            assert idx == best


class TestPseudoReward:
    def setup_method(self):
        self.world, self.rbvd = line_world_rbvd(2, width=20, height=3)
        (self.option,) = [o for o in synth_options(self.rbvd, "centroid", t=2.0)
                          if o.states == (0, 1)]
        self.guide = compute_guide_path(self.world, self.rbvd, self.option,
                                        rng=np.random.default_rng(3))

    def test_termination_pays_terminal(self):
        rep = self.option.termination.representative
        assert pseudo_reward(self.guide, self.rbvd, rep) == 1000.0

    def test_outside_allowed_pays_penalty(self):
        guide = OptionGuide(option_id=self.guide.option_id,
                            initiation=self.guide.initiation,
                            termination=self.guide.termination,
                            points=self.guide.points,
                            allowed_states=frozenset([0]))  # exclude state 1
        c = Configuration(18.5, 1.5)  # deep in state 1, outside termination
        assert self.rbvd.state_of(c).id == 1
        assert c.distance_to(guide.termination.representative) > 2.0
        assert pseudo_reward(guide, self.rbvd, c) == -100.0

    def test_corridor_case_value(self):
        pts = [Configuration(0.5, 1.5), Configuration(1.5, 1.5),
               Configuration(2.5, 1.5)]
        guide = OptionGuide(option_id="manual", initiation=self.option.initiation,
                            termination=self.option.termination, points=pts,
                            allowed_states=frozenset([0, 1]))
        c = Configuration(1.5, 1.0)  # 0.5 below guide point 1; 1.0 from the end
        expected = -(0.5 + 1.0)
        assert pseudo_reward(guide, self.rbvd, c) == pytest.approx(expected, abs=1e-12)

    def test_collision_raises(self):
        with pytest.raises(InCollision):
            pseudo_reward(self.guide, self.rbvd, Configuration(-1.0, -1.0))

    def test_exactly_one_case_everywhere(self):
        # independent case census over every free cell center
        for ix in range(self.world.width):
            for iy in range(self.world.height):
                if not self.world.cell_free((ix, iy)):
                    continue
                c = Configuration(*self.world.cell_center((ix, iy)))
                r = pseudo_reward(self.guide, self.rbvd, c)
                in_term = (ix, iy) in self.guide.termination.cells
                sid = self.rbvd.state_id_of_cell((ix, iy))
                if in_term:
                    assert r == TERMINAL_REWARD
                elif sid not in self.guide.allowed_states:
                    assert r == PENALTY_REWARD
                else:
                    assert r < 0.0

    def test_case3_lower_bound(self):
        diam = math.hypot(self.world.extent[0], self.world.extent[1])
        guide_len = sum(a.distance_to(b) for a, b in
                        zip(self.guide.points, self.guide.points[1:]))
        for ix in range(self.world.width):
            for iy in range(self.world.height):
                if not self.world.cell_free((ix, iy)):
                    continue
                c = Configuration(*self.world.cell_center((ix, iy)))
                r = pseudo_reward(self.guide, self.rbvd, c)
                if r < 0 and r != PENALTY_REWARD:
                    assert r >= -(diam + guide_len)
