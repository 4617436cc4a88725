"""The world's collision queries and the RRT against the loops they replaced.

Points are drawn on and off the grid, on cell boundaries and just below zero
(where int() and math.floor disagree); segments include zero-length ones and
masks include occupied and off-grid cells.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from sharp.errors import Unreachable
from sharp.motion import MotionPlan, rrt_plan, shortcut
from sharp.regions import collect_solution_density, swept_cells
from sharp.world import (Configuration, Kinematics, OccupancyWorld, _truncate_to_free,
                         cell_table, sweep)

from conftest import open_world, random_world
from helpers import (ref_cell_free, ref_collision_xy, ref_rrt_plan, ref_segment_ok,
                     ref_solution_density, ref_swept_cells, ref_truncate_to_free)

CELL_SIZES = (1.0, 0.5, 0.3)


def _coord(rng, n, cs) -> float:
    kind = rng.integers(4)
    if kind == 0:
        return float(rng.uniform(-2 * cs, (n + 2) * cs))   # on or off the grid
    if kind == 1:
        return float(rng.integers(-1, n + 2) * cs)        # a cell boundary
    if kind == 2:
        return float(-rng.uniform(0.0, cs))                # just below zero
    return float(rng.uniform(0.0, n * cs))                 # on the grid


def _point(rng, world):
    cs = world.cell_size
    return (_coord(rng, world.width, cs), _coord(rng, world.height, cs))


def _segment(rng, world, a=None):
    """a -> b from a given or random a: zero-length, short, or to a random
    point."""
    a = _point(rng, world) if a is None else a
    kind = rng.integers(3)
    if kind == 0:
        return a, a
    if kind == 1:
        d = rng.uniform(-2.0, 2.0, size=2) * world.cell_size
        return a, (a[0] + float(d[0]), a[1] + float(d[1]))
    return a, _point(rng, world)


def _mask(rng, world):
    """Random cells on and around the grid, occupied ones included."""
    n = int(rng.integers(1, world.width * world.height))
    ix = rng.integers(-1, world.width + 1, size=n).tolist()
    iy = rng.integers(-1, world.height + 1, size=n).tolist()
    return set(zip(ix, iy))


def _worlds(rng, count, **kwargs):
    for k in range(count):
        w, h = (int(v) for v in rng.integers(3, 12, size=2))
        yield random_world(rng, w, h, wall_fraction=rng.uniform(0.1, 0.5),
                           cell_size=CELL_SIZES[k % len(CELL_SIZES)], **kwargs)


def test_free_set_is_the_free_cells(rng):
    for world in _worlds(rng, 20):
        cells = world.free_cells()
        assert world.free_set == set(map(tuple, cells.tolist()))
        assert [(iy, ix) for ix, iy in cells.tolist()] == \
            sorted((iy, ix) for ix, iy in world.free_set)   # row-major order


def test_point_queries_match_oracle(rng):
    for world in _worlds(rng, 60):
        for ix in range(-2, world.width + 2):
            for iy in range(-2, world.height + 2):
                assert world.cell_free((ix, iy)) == ref_cell_free(world, (ix, iy))
        for _ in range(100):
            x, y = _point(rng, world)
            assert world.collision_xy(x, y) == ref_collision_xy(world, x, y)


def test_sweep_yields_the_sub_samples():
    assert list(sweep((0.5, 0.5), (0.5, 0.5), 1.0)) == [(0.5, 0.5), (0.5, 0.5)]
    points = list(sweep((0.0, 0.0), (1.0, 0.0), 1.0))
    assert points == [(0.0, 0.0), (0.25, 0.0), (0.5, 0.0), (0.75, 0.0), (1.0, 0.0)]


def test_segment_free_matches_oracle(rng):
    seen = set()
    for world in _worlds(rng, 150):
        for _ in range(40):
            a, b = _segment(rng, world)
            expected = ref_segment_ok(world, a, b)
            assert world.segment_free(a, b) == expected, (a, b)
            seen.add(expected)
    assert seen == {True, False}


def _edge_segment(rng, world):
    """A segment from a point on cell boundaries (the grid's edge lines,
    inner lines or the lines one cell past the edges): of zero length, along
    a grid line, one rounding step long, or to another such point."""
    cs = world.cell_size
    def boundary(n):
        return float(rng.choice([0, n, int(rng.integers(-1, n + 2))])) * cs
    a = (boundary(world.width), boundary(world.height))
    kind = rng.integers(4)
    if kind == 0:
        return a, a
    if kind == 1:   # along a grid line
        axis = int(rng.integers(2))
        b = list(a)
        b[axis] = boundary((world.width, world.height)[axis])
        return a, tuple(b)
    if kind == 2:   # a boundary point, nudged off it by one rounding step
        return a, (float(np.nextafter(a[0], -np.inf)), float(np.nextafter(a[1], np.inf)))
    return a, (boundary(world.width), boundary(world.height))


def _table_step(world, table, a, b):
    """Which of segment_free's steps answers a->b: "last" (the last point's
    cell is outside), "box" (every cell of the box is inside) or "walk"."""
    (ax, ay), (bx, by) = a, b
    last = world.cell_of(ax + (bx - ax), ay + (by - ay))
    if last not in table.cells:
        return "last"
    return "box" if table.holds_box(world.cell_of(ax, ay), last) else "walk"


def test_holds_box_counts_the_cells(rng):
    for world in _worlds(rng, 40):
        for table in (world.free_table, cell_table(world, world.free_set & _mask(rng, world))):
            for _ in range(60):
                (cx, dx), (cy, dy) = (sorted(rng.integers(-2, n + 2, size=2).tolist())
                                      for n in (world.width, world.height))
                inside = all((ix, iy) in table.cells for ix in range(cx, dx + 1)
                             for iy in range(cy, dy + 1))
                assert table.holds_box((cx, cy), (dx, dy)) == inside
                assert table.holds_box((dx, dy), (cx, cy)) == inside
                assert table.holds_box((cx, dy), (dx, cy)) == inside


def test_table_checks_match_oracle(rng):
    """segment_free with the world's table and with masked ones, and
    _truncate_to_free, against the walks they skip; every step answers."""
    seen = set()
    for world in _worlds(rng, 150):
        mask = _mask(rng, world)
        tables = ((None, None), (mask, cell_table(world, world.free_set & mask)))
        for _ in range(40):
            a, b = (_edge_segment if rng.integers(2) else _segment)(rng, world)
            for m, table in tables:
                expected = ref_segment_ok(world, a, b, m)
                assert world.segment_free(a, b, table) == expected, (a, b)
                seen.add((_table_step(world, table or world.free_table, a, b), expected))
            assert _truncate_to_free(world, a, b) == ref_truncate_to_free(world, a, b)
            if a != b:   # the truncation returns its last point or walks
                seen.add(("truncate", _table_step(world, world.free_table, a, b) == "box"))
    assert seen == {("last", False), ("box", True), ("walk", True), ("walk", False),
                    ("truncate", True), ("truncate", False)}


@pytest.fixture
def checked(monkeypatch):
    """Holds every segment_free answer to the oracle masked by checked.mask,
    and records the answers in checked.answers."""
    real = OccupancyWorld.segment_free
    state = SimpleNamespace(mask=None, answers=[])

    def spy(world, a, b, cells=None):
        got = real(world, a, b, cells)
        assert got == ref_segment_ok(world, a, b, state.mask), (a, b)
        state.answers.append(got)
        return got

    monkeypatch.setattr(OccupancyWorld, "segment_free", spy)
    return state


def test_rrt_plan_masked_checks_match_oracle(rng, checked):
    # rrt_plan answers most extensions from its table and calls segment_free
    # for the rest, so the spy sees those; the bit-for-bit test below holds
    # the answers it gives itself
    planned = 0
    for world in _worlds(rng, 60):
        cells = world.free_cells()
        if len(cells) < 2:
            continue
        mask = _mask(rng, world)
        a, b = (tuple(cells[rng.integers(len(cells))].tolist()) for _ in range(2))
        checked.mask = mask | {a, b}
        cs = world.cell_size
        try:
            rrt_plan(world, Configuration((a[0] + 0.5) * cs, (a[1] + 0.5) * cs),
                     Configuration((b[0] + 0.5) * cs, (b[1] + 0.5) * cs), rng,
                     cs, max_iters=150, mask=checked.mask)
            planned += 1
        except Unreachable:
            pass
    assert planned > 0 and set(checked.answers) == {True, False}


def test_shortcut_masked_checks_match_oracle(rng, checked):
    for world in _worlds(rng, 80):
        checked.mask = _mask(rng, world)
        pts = [Configuration(*_point(rng, world)) for _ in range(rng.integers(3, 8))]
        out = shortcut(world, MotionPlan(pts), mask=checked.mask).waypoints
        assert out[0] == pts[0] and out[-1] == pts[-1]
    assert set(checked.answers) == {True, False}


def test_truncation_matches_oracle(rng):
    moved = stayed = 0
    for world in _worlds(rng, 150):
        for _ in range(40):
            start, target = _segment(rng, world)
            expected = ref_truncate_to_free(world, start, target)
            assert _truncate_to_free(world, start, target) == expected, (start, target)
            if expected == start:
                stayed += 1
            else:
                moved += 1
    assert moved and stayed


def test_swept_cells_matches_oracle(rng):
    for world in _worlds(rng, 150):
        for _ in range(10):
            pts = [Configuration(*_point(rng, world))]
            for _ in range(rng.integers(0, 4)):
                pts.append(Configuration(*_segment(rng, world, pts[-1].xy)[1]))
            assert swept_cells(world, MotionPlan(pts)) == ref_swept_cells(world, pts)


def _plan_or_unreachable(plan_fn, world, a, b, seed, goal_tol, max_iters, mask):
    """(waypoint bits or "unreachable", work counted, generator state after)."""
    rng, counter = np.random.default_rng(seed), [0]
    try:
        plan = plan_fn(world, a, b, rng, goal_tol, max_iters, mask=mask,
                       work_counter=counter)
        out = [(float(c.x).hex(), float(c.y).hex(), c.theta) for c in plan.waypoints]
    except Unreachable:
        out = "unreachable"
    return out, counter[0], rng.bit_generator.state


@pytest.mark.parametrize("kinematics", list(Kinematics))
def test_rrt_plan_matches_reference_bit_for_bit(rng, kinematics):
    outcomes = set()
    for world in _worlds(rng, 90, kinematics=kinematics):
        cells = world.free_cells()
        if len(cells) < 2:
            continue
        ends = []
        for _ in range(2):
            ix, iy = cells[rng.integers(len(cells))].tolist()
            jx, jy = rng.random(2)
            theta = float(rng.uniform(-3, 3)) if kinematics is Kinematics.UNICYCLE else None
            ends.append(((ix, iy), Configuration((ix + jx) * world.cell_size,
                                                 (iy + jy) * world.cell_size, theta)))
        (ca, a), (cb, b) = ends
        masked = bool(rng.integers(2))
        mask = _mask(rng, world) | {ca, cb} if masked else None
        # the goal balls of guides (half a cell) and of density plans (one)
        args = (float(rng.choice([0.5, 1.0])) * world.cell_size,
                int(rng.integers(20, 300)), mask)
        seed = int(rng.integers(2**32))
        got = _plan_or_unreachable(rrt_plan, world, a, b, seed, *args)
        assert got == _plan_or_unreachable(ref_rrt_plan, world, a, b, seed, *args)
        outcomes.add((masked, got[0] == "unreachable"))
    assert outcomes == {(m, u) for m in (False, True) for u in (False, True)}


def test_solution_density_matches_reference_on_unicycle_world(rng):
    world = random_world(rng, 12, 9, wall_fraction=0.25, cell_size=0.5,
                         kinematics=Kinematics.UNICYCLE)
    got_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    got = collect_solution_density(world, 4, 5, got_rng)
    assert got.tobytes() == ref_solution_density(world, 4, 5, ref_rng).tobytes()
    assert got_rng.bit_generator.state == ref_rng.bit_generator.state


class ScriptedDraws:
    """Stands in for a Generator whose draws are given: random, uniform and
    integers each return the next values of the script."""

    def __init__(self, script):
        self.script = iter(script)

    def random(self, size=None):
        if size is None:
            return next(self.script)
        return np.array([next(self.script) for _ in range(size)])

    def uniform(self, low=0.0, high=1.0, size=None):
        u = self.random(size)
        return low + (high - low) * u

    def integers(self, n):
        i = next(self.script)
        assert 0 <= i < n
        return np.int64(i)


class ScriptedWords(np.random.PCG64):
    """A PCG64 whose raw words are given, then zeros: random_raw serves them,
    and state and advance track the place in the script."""

    def __init__(self, words):
        super().__init__(0)
        self.words, self.at, self.buffer = list(words), 0, (0, 0)

    def random_raw(self, size=None):
        self.words += [0] * (self.at + size - len(self.words))
        self.at += size
        return np.array(self.words[self.at - size:self.at], dtype=np.uint64)

    @property
    def state(self):
        return {"at": self.at, "has_uint32": self.buffer[0], "uinteger": self.buffer[1]}

    @state.setter
    def state(self, value):
        self.at, self.buffer = value["at"], (value["has_uint32"], value["uinteger"])

    def advance(self, delta):
        self.at, self.buffer = self.at + delta, (0, 0)
        return self


# cell 57 of 100 as a 32-bit half v, (v * 100) >> 32 == 57, that Lemire's
# method keeps (its low 32 bits of v * 100 reach 96, numpy's threshold for
# 100), and one that it rejects
KEPT_57, REJECTED_57 = (57 << 32) // 100 + 2, (57 << 32) // 100 + 1


def test_rrt_nearest_ties_go_to_the_lowest_index():
    """Node 1 lands at (7, 5); the goal at (6, 7) is then as far from it as
    from the start at (5, 5), and the start, node 0, must be extended."""
    world = open_world(10, 10)
    a, b = Configuration(5.0, 5.0), Configuration(6.0, 7.0)
    # sample cell (7, 5); then the goal. As raw words, the coin 0.5 is 2**63
    # and a jitter or coin of 0.0 is 0; the cell is drawn from a kept low
    # half, or from the high half after a rejected one
    script = [0.5, 5 * 10 + 7, 0.0, 0.0, 0.0]
    # the five words, then the half-word buffer numpy's calls leave: the
    # kept low half's high half (0), or the consumed high half
    for cell_word, buffer in ((KEPT_57, (1, 0)), (REJECTED_57 | KEPT_57 << 32, (0, KEPT_57))):
        words = ScriptedWords([2**63, cell_word, 0, 0, 0])
        for plan_fn, draws in ((rrt_plan, np.random.Generator(words)),
                               (ref_rrt_plan, ScriptedDraws(script))):
            plan = plan_fn(world, a, b, draws, world.cell_size)
            assert len(plan.waypoints) == 2 and plan.waypoints[0] is a
        assert (words.at, words.buffer) == (5, buffer)


def test_rrt_plan_in_one_cell_matches_reference():
    # integers(1) draws no word, so every sample in a one-cell mask takes
    # only the coin and the jitters
    world = open_world(6, 6)
    a, b = Configuration(3.05, 3.05), Configuration(3.95, 3.95)
    for seed in range(20):
        args = (world, a, b, seed, 0.3, 40, {(3, 3)})
        got = _plan_or_unreachable(rrt_plan, *args)
        assert got == _plan_or_unreachable(ref_rrt_plan, *args)


class StopAt(list):
    """A work counter that raises once it would count past its limit."""

    def __init__(self, limit):
        super().__init__([0])
        self.limit = limit

    def __setitem__(self, i, value):
        if value > self.limit:
            raise RuntimeError("stopped")
        super().__setitem__(i, value)


@pytest.mark.parametrize("kinematics", list(Kinematics))
def test_rrt_plan_raised_out_of_leaves_the_stock_state(rng, kinematics):
    # a raise between extensions, as an interrupt would, leaves the stream
    # where the stock draws of the extensions made so far leave it
    stopped = 0
    for world in _worlds(rng, 30, kinematics=kinematics):
        cells = world.free_cells()
        if len(cells) < 2:
            continue
        a, b = (Configuration(*((cells[rng.integers(len(cells))] + 0.5)
                                * world.cell_size).tolist()) for _ in range(2))
        limit, seed = int(rng.integers(1, 600)), int(rng.integers(2**32))
        states = []
        for plan_fn in (rrt_plan, ref_rrt_plan):
            gen = np.random.default_rng(seed)
            gen.integers(3)      # enter with a half word buffered
            try:
                plan_fn(world, a, b, gen, 0.5 * world.cell_size, 2 * limit,
                        work_counter=StopAt(limit))
            except RuntimeError:
                stopped += 1
            except Unreachable:
                pass
            states.append(gen.bit_generator.state)
        assert states[0] == states[1]
    assert stopped > 0
