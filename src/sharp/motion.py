"""Sampling-based motion planning: RRT, shortcutting, and a replanning executor.

Plans are geometric (x, y); the unicycle's heading is handled by the tracking
law when a plan is executed. ``mask``, where accepted, is a set of (ix, iy)
cells; sampling, steering, and shortcutting then never leave those cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Unreachable
from .seeding import RawDraws
from .world import (Configuration, Kinematics, OccupancyWorld, cell_table, collision,
                    steer_toward, step)


RRT_STEP_CELLS = 2.0     # longest tree extension, in cells
RRT_GOAL_BIAS = 0.1      # share of samples drawn at the goal
RRT_MAX_ITERS = 4000     # tree extensions before a plan gives up


@dataclass
class MotionPlan:
    """Ordered collision-free waypoints; consecutive segments are free."""

    waypoints: list[Configuration]


def rrt_plan(world: OccupancyWorld, x_i: Configuration, x_g: Configuration,
             rng: np.random.Generator, goal_tol: float,
             max_iters: int = RRT_MAX_ITERS, mask: set | None = None,
             work_counter: list | None = None) -> MotionPlan:
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
        return MotionPlan([x_i])

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
        """The cell of (x, y), or None when it is not in the table's cells:
        then every sweep from (x, y) is blocked at its first point."""
        cell = (floor(x / cs), floor(y / cs))
        return cell if cell in allowed else None

    nodes_x = np.empty(max_iters + 1)
    nodes_y = np.empty(max_iters + 1)
    nodes_x[0], nodes_y[0] = x_i.x, x_i.y
    parents = [-1]
    node_cells = [cell_in_table(x_i.x, x_i.y)]
    n = 1

    # numpy's integers(n_cells) rejects a draw below this; integers(1) takes
    # none, so then every draw goes to the decoder's own integers
    threshold = (2**32 - n_cells) % n_cells if n_cells > 1 else 2**32
    tail = 3 if heading else 2   # doubles after the cell: two jitters, a heading
    draws = RawDraws(rng)
    words, doubles, k, has, half = draws.words, draws.doubles, 0, draws.has, draws.half
    try:
        for _ in range(max_iters):
            if work_counter is not None:
                work_counter[0] += 1
            if k + 5 > len(words):
                k = draws.refill(k)
            # rng.random() < RRT_GOAL_BIAS, read from the block in place
            k += 1
            if doubles[k - 1] < RRT_GOAL_BIAS:
                sx, sy = gx, gy
            else:
                # rng.integers(n_cells), then the jitters of rng.random(2)
                m = half * n_cells if has else (words[k] & 0xFFFFFFFF) * n_cells
                if m & 0xFFFFFFFF < threshold:
                    draws.pos, draws.has, draws.half = k, has, half
                    m = draws.integers(n_cells) << 32
                    k, has, half = draws.pos, draws.has, draws.half
                    if k + tail > len(words):
                        k = draws.refill(k)
                elif has:
                    has = False
                else:
                    has, half = True, words[k] >> 32
                    k += 1
                ix, iy = cells[m >> 32]
                sx, sy = (ix + doubles[k]) * cs, (iy + doubles[k + 1]) * cs
                k += tail
            d2 = nodes_x[:n] - sx
            d2 *= d2
            dy2 = nodes_y[:n] - sy
            dy2 *= dy2
            d2 += dy2
            near = int(d2.argmin())
            nx, ny = nodes_x.item(near), nodes_y.item(near)
            dist = math.hypot(sx - nx, sy - ny)
            if dist < 1e-12:
                continue
            scale = min(1.0, step_len / dist)
            tx, ty = nx + scale * (sx - nx), ny + scale * (sy - ny)
            # the table checks of world.segment_free, from the cell kept beside
            # the node; segment_free answers what they leave open
            near_cell = node_cells[near]
            if near_cell is None:
                continue
            ex, ey = floor((nx + (tx - nx)) / cs), floor((ny + (ty - ny)) / cs)
            if (ex, ey) not in allowed:
                continue
            cx, cy = near_cell
            lx, hx = (cx, ex + 1) if cx <= ex else (ex, cx + 1)
            ly, hy = (cy, ey + 1) if cy <= ey else (ey, cy + 1)
            lo, hi = blocked[ly], blocked[hy]
            if (hi[hx] - hi[lx] - lo[hx] + lo[lx]
                    and not world.segment_free((nx, ny), (tx, ty), table)):
                continue
            nodes_x[n], nodes_y[n] = tx, ty
            parents.append(near)
            node_cells.append(cell_in_table(tx, ty))
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
                return MotionPlan(waypoints)
    finally:
        draws.pos, draws.has, draws.half = k, has, half
        draws.close()
    raise Unreachable(f"no path after {max_iters} iterations")


def shortcut(world: OccupancyWorld, plan: MotionPlan,
             mask: set | None = None) -> MotionPlan:
    """Greedy deterministic shortcutting; never lengthens, keeps endpoints."""
    pts = plan.waypoints
    if len(pts) <= 2:
        return MotionPlan(list(pts))
    table = None if mask is None else cell_table(world, world.free_set & mask)
    out = [pts[0]]
    i = 0
    while i < len(pts) - 1:
        j = len(pts) - 1
        while j > i + 1 and not world.segment_free(pts[i].xy, pts[j].xy, table):
            j -= 1
        out.append(pts[j])
        i = j
    return MotionPlan(out)


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


@dataclass
class ExecutionResult:
    """Outcome of a (re)planning execution.

    ``steps`` counts simulator steps; ``work`` additionally charges one unit
    per planner tree extension, the desk-scale stand-in for the planning time
    a wall-clock timeout would consume. The budget limits ``work``.
    """

    success: bool
    steps: int
    replans: int = 0
    work: int = 0


def track_waypoint(world: OccupancyWorld, c: Configuration, target: tuple[float, float],
                   tol: float, rng: np.random.Generator, max_attempts: int,
                   budget_left: int) -> tuple[Configuration, int]:
    """Step toward target until within tol, attempts or budget run out."""
    used = 0
    attempts = 0
    while (c.distance_to(target) > tol and attempts < max_attempts
           and used < budget_left):
        c = step(world, c, steer_toward(world, c, target), rng)
        used += 1
        attempts += 1
    return c, used


def execute_with_replan(world: OccupancyWorld, x_i: Configuration, x_g: Configuration,
                        rng: np.random.Generator, goal_tol: float,
                        budget: int) -> ExecutionResult:
    """Plan with RRT and track waypoints under noise, replanning on a miss.

    Each simulator step and each planner tree extension consumes one unit of
    budget, and a plan makes at most the extensions the budget has left.
    Terminates with success once within goal_tol of x_g, or failure when the
    budget is exhausted or planning fails.
    """
    c = x_i
    steps = 0
    work = 0
    replans = 0
    first = True
    while work < budget:
        if c.distance_to(x_g) <= goal_tol:
            return ExecutionResult(True, steps, replans, work)
        counter = [0]
        try:
            plan = shortcut(world, rrt_plan(
                world, c, x_g, rng, goal_tol, min(RRT_MAX_ITERS, budget - work),
                work_counter=counter))
        except Unreachable:
            work += counter[0]
            return ExecutionResult(False, steps, replans, work)
        work += counter[0]
        if not first:
            replans += 1
        first = False
        wp_tol = 0.5 * world.cell_size
        step_scale = (world.max_step if world.kinematics is Kinematics.HOLONOMIC
                      else world.v_max)
        for k, wp in enumerate(plan.waypoints[1:], start=1):
            tol = goal_tol if k == len(plan.waypoints) - 1 else wp_tol
            est = int(math.ceil(wp.distance_to(c) / max(step_scale, 1e-9)))
            attempts = 2 * est + 10  # slack for heading alignment and noise
            c, used = track_waypoint(world, c, wp.xy, tol, rng, attempts,
                                     budget - work)
            steps += used
            work += used
            if work >= budget:
                break
    success = c.distance_to(x_g) <= goal_tol
    return ExecutionResult(success, steps, replans, work)
