"""Sampling-based motion planning: RRT, shortcutting, and a replanning executor.

A plan is a list of configurations, its waypoints, whose consecutive
segments are collision free. Plans are geometric (x, y); the unicycle's
heading is handled by the tracking law when a plan is executed. ``mask``,
where accepted, is a set of (ix, iy) cells; sampling, steering, and
shortcutting then never leave those cells.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import Unreachable
from .seeding import RawDraws
from .world import (Configuration, Kinematics, OccupancyWorld, cell_table, collision,
                    steer_toward, step)


RRT_STEP_CELLS = 2.0       # longest tree extension, in cells
RRT_GOAL_BIAS = 0.1        # share of samples drawn at the goal
RRT_MAX_ITERS = 4000       # tree extensions before a plan gives up
RRT_BLOCK = 16             # samples whose nearest nodes one numpy pass finds
RRT_BLOCK_ENTRIES = 8192   # most (sample, node) distances in that pass


def _nearest_nodes(nodes_x: np.ndarray, nodes_y: np.ndarray, xs: list,
                   ys: list) -> tuple[list, list]:
    """Each sample's nearest node, the first among equals, and its squared
    distance, from one (sample, node) table whose entries are a
    single-sample search's: (x - sx)**2 + (y - sy)**2 in that order. The
    table is freed on return."""
    d2 = nodes_x - np.array(xs)[:, None]
    d2 *= d2
    dy2 = nodes_y - np.array(ys)[:, None]
    dy2 *= dy2
    d2 += dy2
    return d2.argmin(1).tolist(), d2.min(1).tolist()


def rrt_plan(world: OccupancyWorld, x_i: Configuration, x_g: Configuration,
             rng: np.random.Generator, goal_tol: float,
             max_iters: int = RRT_MAX_ITERS, mask: set | None = None,
             work_counter: list | None = None) -> list[Configuration]:
    """Plan a collision-free path from x_i to within goal_tol of x_g.

    With a mask, samples and swept segments are confined to the masked cells.
    Raises Unreachable when max_iters tree extensions fail to reach the goal.
    work_counter, when given, is a single-element list incremented once per
    extension attempt so callers can charge planning effort to a budget.
    rng must be a PCG64 Generator: its draws are decoded from raw words
    (seeding.RawDraws), and on every exit it is left where numpy's own
    random and integers calls would leave it.
    """
    if collision(world, x_i) or collision(world, x_g):
        raise Unreachable("endpoint in collision")
    if x_i.distance_to(x_g) <= goal_tol:
        return [x_i]

    # the draws of sample_free, or of sample_in_cells over the mask's free
    # cells: a cell index, two jitters and, for sample_free on a unicycle
    # world, a heading that the plan does not use
    if mask is None:
        table, cells = world.free_table, world.free_list
        heading = world.kinematics is Kinematics.UNICYCLE
    else:
        allowed = world.free_set & mask
        if not allowed:
            raise Unreachable("mask contains no free cell")
        table = cell_table(world, allowed)
        cells, heading = sorted(allowed), False
    allowed, blocked = table.cells, table.blocked
    n_cells, cs = len(cells), world.cell_size
    step_len = RRT_STEP_CELLS * cs
    gx, gy = x_g.x, x_g.y
    floor = math.floor

    def cell_in_table(x, y):
        """The cell of (x, y) as (ix, iy), or (-1, -1) when it is not in the
        table's cells: then every sweep from (x, y) is blocked at its first
        point."""
        ix, iy = floor(x / cs), floor(y / cs)
        return (ix, iy) if (ix, iy) in allowed else (-1, -1)

    nodes_x = np.empty(max_iters + 1)
    nodes_y = np.empty(max_iters + 1)
    nodes_x[0], nodes_y[0] = x_i.x, x_i.y
    parents = [-1]
    # each node's cell as two lists of small ints, cheaper than a tuple each
    ix, iy = cell_in_table(x_i.x, x_i.y)
    cells_x, cells_y = [ix], [iy]
    n = 1

    # numpy's integers(n_cells) rejects a draw below this; integers(1) takes
    # none, so then every draw goes to the decoder's own integers
    threshold = (2**32 - n_cells) % n_cells if n_cells > 1 else 2**32
    tail = 3 if heading else 2   # doubles after the cell: two jitters, a heading
    draws = RawDraws(rng)
    words, doubles, k, has, half = draws.words, draws.doubles, 0, draws.has, draws.half
    left = max_iters
    try:
        # A sample's draws never depend on the tree, so the samples come in
        # blocks: decode a block ahead, find each sample's nearest node among
        # the tree as it stood at the block's start in one numpy pass, then
        # extend in order, checking the nodes the block added as scalars.
        # (k, has, half) is the stream at the end of the last counted
        # extension; each sample's own end is recorded, and only the refill
        # at a block's start drops words, so the recorded ends stay valid.
        while left:
            size = min(RRT_BLOCK, left, max(1, RRT_BLOCK_ENTRIES // n))
            left -= size
            # a sample reads at most 5 words unless its cell draw is rejected
            if k + 5 * size > len(words):
                k = draws.refill(k)
            xs, ys, ends = [], [], []
            j, jhas, jhalf = k, has, half
            for s in range(size, 0, -1):   # s samples left, this one included
                # rng.random() < RRT_GOAL_BIAS, read from the block in place
                j += 1
                if doubles[j - 1] < RRT_GOAL_BIAS:
                    sx, sy = gx, gy
                else:
                    # rng.integers(n_cells), then the jitters of rng.random(2)
                    m = jhalf * n_cells if jhas else (words[j] & 0xFFFFFFFF) * n_cells
                    if m & 0xFFFFFFFF < threshold:
                        # a rejected draw: the decoder's integers draws the
                        # cell again, growing the words as it needs them
                        draws.pos, draws.has, draws.half = j, jhas, jhalf
                        m = draws.integers(n_cells) << 32
                        j, jhas, jhalf = draws.pos, draws.has, draws.half
                        if j + 5 * s > len(words):
                            draws.grow()
                    elif jhas:
                        jhas = False
                    else:
                        jhas, jhalf = True, words[j] >> 32
                        j += 1
                    ix, iy = cells[m >> 32]
                    sx, sy = (ix + doubles[j]) * cs, (iy + doubles[j + 1]) * cs
                    j += tail
                xs.append(sx)
                ys.append(sy)
                ends.append((j, jhas, jhalf))
            nears, bests = _nearest_nodes(nodes_x[:n], nodes_y[:n], xs, ys)
            n0, added = n, []
            for b, (sx, sy) in enumerate(zip(xs, ys)):
                if work_counter is not None:
                    work_counter[0] += 1
                k, has, half = ends[b]
                near, best = nears[b], bests[b]
                # a node the block added wins only when strictly closer, so
                # ties still go to the lowest index
                for i, (px, py) in enumerate(added, n0):
                    dx, dy = px - sx, py - sy
                    d = dx * dx + dy * dy
                    if d < best:
                        near, best = i, d
                nx, ny = nodes_x.item(near), nodes_y.item(near)
                dist = math.hypot(sx - nx, sy - ny)
                if dist < 1e-12:
                    continue
                scale = min(1.0, step_len / dist)
                tx, ty = nx + scale * (sx - nx), ny + scale * (sy - ny)
                # the table checks of world.segment_free, from the cell kept
                # beside the node; segment_free answers what they leave open
                cx, cy = cells_x[near], cells_y[near]
                if cx < 0:
                    continue
                ex, ey = floor((nx + (tx - nx)) / cs), floor((ny + (ty - ny)) / cs)
                if (ex, ey) not in allowed:
                    continue
                lx, hx = (cx, ex + 1) if cx <= ex else (ex, cx + 1)
                ly, hy = (cy, ey + 1) if cy <= ey else (ey, cy + 1)
                lo, hi = blocked[ly], blocked[hy]
                if (hi[hx] - hi[lx] - lo[hx] + lo[lx]
                        and not world.segment_free((nx, ny), (tx, ty), table)):
                    continue
                nodes_x[n], nodes_y[n] = tx, ty
                added.append((tx, ty))
                parents.append(near)
                ix, iy = cell_in_table(tx, ty)
                cells_x.append(ix)
                cells_y.append(iy)
                n += 1
                if math.hypot(tx - gx, ty - gy) <= goal_tol:
                    waypoints = []
                    i = n - 1
                    while i >= 0:
                        waypoints.append(Configuration(nodes_x.item(i), nodes_y.item(i)))
                        i = parents[i]
                    waypoints.reverse()
                    # keep the exact start configuration object (heading included)
                    waypoints[0] = x_i
                    return waypoints
    finally:
        draws.pos, draws.has, draws.half = k, has, half
        draws.close()
    raise Unreachable(f"no path after {max_iters} iterations")


def shortcut(world: OccupancyWorld, pts: list[Configuration],
             mask: set | None = None) -> list[Configuration]:
    """Greedy deterministic shortcutting of a plan into a new list; never
    lengthens, keeps endpoints."""
    if len(pts) <= 2:
        return list(pts)
    table = None if mask is None else cell_table(world, world.free_set & mask)
    out = [pts[0]]
    i = 0
    while i < len(pts) - 1:
        j = len(pts) - 1
        while j > i + 1 and not world.segment_free(pts[i].xy, pts[j].xy, table):
            j -= 1
        out.append(pts[j])
        i = j
    return out


def resample_polyline(points: list[Configuration], spacing: float) -> list[Configuration]:
    """Subdivide each segment so consecutive points are strictly closer than spacing."""
    if len(points) <= 1:
        return list(points)
    out = [points[0]]
    for a, b in zip(points, points[1:]):
        seg = a.distance_to(b)
        n = int(math.floor(seg / spacing)) + 1
        for k in range(1, n + 1):
            t = k / n
            out.append(Configuration(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)))
    return out


def execute_with_replan(world: OccupancyWorld, x_i: Configuration, x_g: Configuration,
                        rng: np.random.Generator, goal_tol: float,
                        budget: int) -> tuple[bool, int]:
    """Plan with RRT and track waypoints under noise, replanning on a miss;
    returns (success, simulator steps).

    Each simulator step and each planner tree extension consumes one unit of
    budget, the desk-scale stand-in for the planning time a wall-clock
    timeout would consume, and a plan makes at most the extensions the
    budget has left. Terminates with success once within goal_tol of x_g,
    or failure when the budget is exhausted or planning fails.
    """
    wp_tol = 0.5 * world.cell_size
    step_scale = max(world.max_step if world.kinematics is Kinematics.HOLONOMIC
                     else world.v_max, 1e-9)
    c, steps, work = x_i, 0, 0
    while work < budget:
        if c.distance_to(x_g) <= goal_tol:
            return True, steps
        counter = [0]
        try:
            plan = shortcut(world, rrt_plan(
                world, c, x_g, rng, goal_tol, min(RRT_MAX_ITERS, budget - work),
                work_counter=counter))
        except Unreachable:
            return False, steps
        work += counter[0]
        for k, wp in enumerate(plan[1:], start=1):
            tol = goal_tol if k == len(plan) - 1 else wp_tol
            # slack for heading alignment and noise
            attempts = 2 * math.ceil(wp.distance_to(c) / step_scale) + 10
            target = wp.xy
            while c.distance_to(target) > tol and attempts and work < budget:
                c = step(world, c, steer_toward(world, c, target), rng)
                steps += 1
                work += 1
                attempts -= 1
            if work >= budget:
                break
    return c.distance_to(x_g) <= goal_tol, steps
