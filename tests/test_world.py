import math

import numpy as np
import pytest

from sharp.errors import NoFreeSpace, ParseError
from sharp.experiment import load_world
from sharp.world import (Configuration, HolonomicAction, Kinematics, UnicycleAction,
                         collision, sample_free, sidecar_to_text, parse_sidecar, step,
                         steer_lanes, step_lanes, world_from_text, world_hash,
                         world_to_text)
from sharp.worlds import RECIPES

from conftest import grid_from_rows, open_world
from helpers import free_cells, steer_toward_lanes, with_params


class TestCollision:
    def test_free_cell_center(self, empty10):
        assert collision(empty10, Configuration(3.5, 4.5)) is False

    def test_obstacle_cell_center(self):
        w = grid_from_rows(["..", ".#"])  # obstacle at bottom-right (ix=1, iy=0)
        assert collision(w, Configuration(1.5, 0.5)) is True
        assert collision(w, Configuration(0.5, 0.5)) is False

    def test_out_of_bounds_is_collision(self, empty10):
        assert collision(empty10, Configuration(-1.0, -1.0)) is True
        assert collision(empty10, Configuration(10.5, 3.0)) is True


class TestStep:
    def test_zero_noise_holonomic_exact(self, empty10):
        rng = np.random.default_rng(0)
        c = step(empty10, Configuration(4.0, 4.0), HolonomicAction(1.0, 0.0), rng)
        assert math.isclose(c.x, 5.0, abs_tol=1e-9)
        assert math.isclose(c.y, 4.0, abs_tol=1e-9)

    def test_zero_noise_unicycle_matches_closed_form(self, unicycle10):
        c = Configuration(5.0, 5.0, 0.7)
        a = UnicycleAction(0.8, 0.3)
        out = step(unicycle10, c, a, np.random.default_rng(1))
        assert math.isclose(out.x, 5.0 + 0.8 * math.cos(0.7), abs_tol=1e-9)
        assert math.isclose(out.y, 5.0 + 0.8 * math.sin(0.7), abs_tol=1e-9)
        assert math.isclose(out.theta, 0.7 + 0.3, abs_tol=1e-9)

    def test_same_seed_same_output(self, empty10):
        w = with_params(empty10, noise_sigma=0.2)
        a = HolonomicAction(0.7, -0.2)
        c1 = step(w, Configuration(5.0, 5.0), a, np.random.default_rng(42))
        c2 = step(w, Configuration(5.0, 5.0), a, np.random.default_rng(42))
        assert c1 == c2

    def test_noise_law_monte_carlo(self):
        # unit step, sigma=0.05: sample mean ~ (1, 0), per-axis sigma ~ 0.05
        w = open_world(400, 400, cell_size=1.0, noise_sigma=0.05, max_step=2.0)
        rng = np.random.default_rng(7)
        start = Configuration(200.0, 200.0)
        deltas = np.empty((10_000, 2))
        for i in range(len(deltas)):
            out = step(w, start, HolonomicAction(1.0, 0.0), rng)
            deltas[i] = (out.x - start.x, out.y - start.y)
        mean = deltas.mean(axis=0)
        assert abs(mean[0] - 1.0) < 0.01 and abs(mean[1]) < 0.01
        sx, sy = deltas.std(axis=0, ddof=1)
        assert 0.04 < sx < 0.06 and 0.04 < sy < 0.06

    def test_blocked_command_returns_start(self):
        w = grid_from_rows(["###", "#.#", "###"])
        c = Configuration(1.5, 1.5)
        out = step(w, c, HolonomicAction(1.0, 0.0), w_rng := np.random.default_rng(3))
        # truncation may stop anywhere inside the free cell but never collides
        assert not collision(w, out)
        out2 = step(w, Configuration(1.5, 1.5), HolonomicAction(5.0, 5.0), w_rng)
        assert not collision(w, out2)

    def test_never_returns_collision(self, rng):
        from conftest import random_world
        for trial in range(20):
            w = random_world(rng, 12, 12, wall_fraction=0.3, noise_sigma=0.3,
                             max_step=4.0)
            free = free_cells(w)
            if len(free) == 0:
                continue
            ix, iy = free[int(rng.integers(len(free)))]
            c = Configuration((ix + 0.5), (iy + 0.5))
            for _ in range(30):
                a = HolonomicAction(*rng.uniform(-4, 4, size=2))
                c = step(w, c, a, rng)
                assert not collision(w, c)

    def test_pure_rotation_only_changes_theta(self, unicycle10):
        w = with_params(unicycle10, noise_sigma=0.5)
        c = Configuration(5.0, 5.0, 0.0)
        out = step(w, c, UnicycleAction(0.0, 0.5), np.random.default_rng(9))
        assert out.x == c.x and out.y == c.y
        assert out.theta != c.theta

    def test_identical_seeds_identical_trajectory(self, unicycle10):
        w = with_params(unicycle10, noise_sigma=0.1)
        actions = [UnicycleAction(0.5, 0.2), UnicycleAction(0.9, -0.4),
                   UnicycleAction(0.2, 0.0)]
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(123)
            c = Configuration(5.0, 5.0, 0.0)
            traj = []
            for a in actions:
                c = step(w, c, a, rng)
                traj.append((c.x, c.y, c.theta))
            runs.append(traj)
        assert runs[0] == runs[1]

    def test_action_bounds_clipped(self, empty10):
        out = step(empty10, Configuration(5.0, 5.0), HolonomicAction(30.0, 0.0),
                   np.random.default_rng(0))
        assert out.distance_to((5.0, 5.0)) <= empty10.max_step + 1e-9


class TestSampleFree:
    def test_single_free_cell(self):
        w = grid_from_rows(["###", "#.#", "###"])
        c = sample_free(w, np.random.default_rng(5))
        assert w.cell_of(c.x, c.y) == (1, 1)

    def test_uniform_over_free_cells(self):
        # left half free, right half occupied
        rows = ["." * 5 + "#" * 5] * 10
        w = grid_from_rows(rows)
        rng = np.random.default_rng(11)
        n = 10_000
        counts = np.zeros((10, 5))
        for _ in range(n):
            c = sample_free(w, rng)
            ix, iy = w.cell_of(c.x, c.y)
            assert ix < 5
            counts[iy, ix] += 1
        p = 1.0 / 50
        sigma = math.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) <= 3.2 * sigma)

    def test_fully_occupied_raises(self):
        w = grid_from_rows(["##", "##"])
        with pytest.raises(NoFreeSpace):
            sample_free(w, np.random.default_rng(0))

    def test_unicycle_sample_has_heading(self, unicycle10):
        c = sample_free(unicycle10, np.random.default_rng(2))
        assert c.theta is not None and -math.pi <= c.theta < math.pi


class TestTextFormat:
    def test_round_trip(self, rng):
        from conftest import random_world
        w = random_world(rng, 7, 5, wall_fraction=0.4, cell_size=0.5)
        text = world_to_text(w)
        w2 = world_from_text(text)
        assert w2.width == 7 and w2.height == 5 and w2.cell_size == 0.5
        assert np.array_equal(w.occupancy, w2.occupancy)

    def test_row_zero_is_top(self):
        text = "P1-ASCII 2 2 1\n#.\n..\n"
        w = world_from_text(text)
        # '#' in file row 0 (top) -> iy = 1, ix = 0
        assert bool(w.occupancy[1, 0]) is True
        assert not w.occupancy[0, 0] and not w.occupancy[0, 1] and not w.occupancy[1, 1]

    def test_bad_header(self):
        with pytest.raises(ParseError):
            world_from_text("NOPE 2 2 1\n..\n..\n")

    def test_short_file(self):
        with pytest.raises(ParseError):
            world_from_text("P1-ASCII 3 3 1\n...\n...\n")

    def test_extra_row_is_an_error_at_its_line(self):
        with pytest.raises(ParseError) as ei:
            world_from_text("P1-ASCII 3 2 1\n...\n...\n###\n")
        assert ei.value.line == 4
        assert world_from_text("P1-ASCII 3 2 1\n...\n...\n\n  \n").height == 2

    @pytest.mark.parametrize("name, value", [
        ("cell_size", math.nan), ("cell_size", math.inf), ("cell_size", 0.0),
        ("noise_sigma", -0.1), ("noise_sigma", math.nan), ("noise_sigma", math.inf),
        ("max_step", -1.0), ("max_step", math.nan), ("max_step", math.inf),
        ("v_max", 0.0), ("omega_max", -1.0), ("omega_max", math.nan)])
    def test_out_of_range_physics_rejected(self, empty10, name, value):
        with pytest.raises(ValueError, match=name):
            with_params(empty10, **{name: value})

    @pytest.mark.parametrize("header, sidecar", [
        ("P1-ASCII 3 2 nan", ""), ("P1-ASCII 3 2 inf", ""),
        ("P1-ASCII 3 2 1", "noise_sigma=-0.1\n"), ("P1-ASCII 3 2 1", "max_step=-1\n"),
        ("P1-ASCII 3 2 1", "max_step=nan\n"), ("P1-ASCII 3 2 1", "v_max=0\n"),
        ("P1-ASCII 3 2 1", "omega_max=-1\n")])
    def test_load_world_names_the_file_of_bad_physics(self, tmp_path, header,
                                                       sidecar):
        path = tmp_path / "w.txt"
        path.write_text(header + "\n...\n...\n")
        if sidecar:
            (tmp_path / "w.txt.cfg").write_text(sidecar)
        with pytest.raises(ParseError) as ei:
            load_world(str(path))
        assert str(ei.value).startswith(f"{path}: ")

    def test_sidecar_repeated_key_names_the_later_line(self):
        with pytest.raises(ParseError) as ei:
            parse_sidecar("max_step=1\n# again\nmax_step = 0.5\n")
        assert ei.value.line == 3 and "max_step" in str(ei.value)

    def test_bad_character(self):
        with pytest.raises(ParseError) as ei:
            world_from_text("P1-ASCII 2 2 1\n.x\n..\n")
        assert ei.value.line == 2 and ei.value.offset == 1

    def test_rows_are_checked_before_the_grid_is_allocated(self):
        # a grid of 10^12 cells would need 931 GiB
        with pytest.raises(ParseError, match="row has 4 cells") as ei:
            world_from_text("P1-ASCII 1000000000000 1 0.5\n....\n")
        assert ei.value.line == 2

    def test_sidecar_round_trip(self, unicycle10):
        w = with_params(unicycle10, noise_sigma=0.07, v_max=0.8)
        params = parse_sidecar(sidecar_to_text(w))
        assert params["kinematics"] is Kinematics.UNICYCLE
        assert params["noise_sigma"] == pytest.approx(0.07)
        assert params["v_max"] == pytest.approx(0.8)
        assert params["omega_max"] == pytest.approx(w.omega_max)

    def test_sidecar_rejects_unknown_key(self):
        with pytest.raises(ParseError):
            parse_sidecar("gravity=9.8\n")

    @pytest.mark.parametrize("name, digest", [
        ("env_a", "260a4cbbe43ca08e"), ("env_b", "926e21938839b1d0"),
        ("env_c", "1b6852962e57f167"), ("env_d", "7a8c9bda66279dc1"),
        ("env_e", "883418dd36b3b869")])
    def test_bundled_world_hash_is_pinned(self, name, digest):
        # the library and policy caches of a bundled world are keyed by it
        assert world_hash(RECIPES[name].build()) == digest

    def test_world_hash_tracks_params(self, empty10):
        h1 = world_hash(empty10)
        assert h1 == world_hash(empty10)
        assert h1 != world_hash(with_params(empty10, noise_sigma=0.5))


@pytest.mark.parametrize("kinematics", list(Kinematics))
def test_tick_lanes_is_steer_then_step(kinematics, rng):
    """A lane tick steps under steer_lanes' commands and reuses their norms;
    its lanes match a step that measures the norms again bit for bit, near
    targets (no clip) and far ones (clipped) alike."""
    w = grid_from_rows(["#.....", "..#...", "......", "...#.."], kinematics=kinematics,
                       noise_sigma=0.3, max_step=0.7, v_max=0.7)
    n = 500
    x, y = rng.uniform(0.0, 6.0, n), rng.uniform(0.0, 4.0, n)
    theta = rng.uniform(-math.pi, math.pi, n)
    reach = rng.choice([0.0, 0.3, 0.7, 5.0], size=(n, 1)) * rng.normal(size=(n, 2))
    tx, ty = x + reach[:, 0], y + reach[:, 1]
    noise = rng.standard_normal((n, 2))
    a0, a1, norm = steer_lanes(w, x, y, theta, tx, ty)
    got = step_lanes(w, x, y, theta, a0, a1, noise, norm)
    want = step_lanes(w, x, y, theta, *steer_toward_lanes(w, x, y, theta, tx, ty), noise)
    for g, e in zip(got, want):
        assert g.tobytes() == e.tobytes()

