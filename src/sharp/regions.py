"""Data-driven critical-region extraction.

Criticality is measured directly from solved motion-planning problems: a
cell's score is the fraction of solution paths that sweep through it. Cells
that many solutions share (doorways, corridor mouths) score high while being
rare under uniform sampling, which is exactly the property the downstream
abstraction needs from its anchor regions.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import pool
from .errors import InsufficientData, NoFreeSpace, NoRegions, Unreachable
from .motion import rrt_plan, shortcut
from .seeding import spawn
from .world import Configuration, OccupancyWorld, sample_free, sweep

log = logging.getLogger(__name__)

# Names collect_solution_density's stream rule. Library cache files are keyed
# by it with their settings, so a file built under another rule is missed.
DENSITY_STREAM_RULE = "spawn-per-problem"


@dataclass(frozen=True)
class CriticalRegion:
    """A 4-connected blob of free cells with a usable interior point."""

    cells: frozenset
    centroid: Configuration
    score: float


def swept_cells(world: OccupancyWorld, pts: list[Configuration]) -> set:
    """Cells of the points that sweep yields along a plan's segments."""
    cs, floor = world.cell_size, math.floor
    if len(pts) == 1:
        x, y = pts[0].xy
        return {(floor(x / cs), floor(y / cs))}
    # cell_of inlined, as in world._walk_sweep: a call per point costs more
    # than the cell
    return {(floor(x / cs), floor(y / cs)) for a, b in zip(pts, pts[1:])
            for x, y in sweep(a.xy, b.xy, cs)}


def _goal_density(world: OccupancyWorld, goal: Configuration,
                  streams: list) -> tuple[int, np.ndarray]:
    """(solved, counts) of one goal's problems, one per stream: the start is
    drawn from the problem's stream and its rrt_plan reads that stream on;
    counts[iy, ix] is the number of solved plans that sweep the cell."""
    counts = np.zeros((world.height, world.width), dtype=np.int64)
    solved = 0
    for rng in streams:
        start = sample_free(world, rng)
        try:
            plan = shortcut(world, rrt_plan(world, start, goal, rng, world.cell_size))
        except Unreachable:
            continue
        solved += 1
        for ix, iy in swept_cells(world, plan):
            counts[iy, ix] += 1
    return solved, counts


def collect_solution_density(world: OccupancyWorld, n_goals: int, inits_per_goal: int,
                             rng: np.random.Generator) -> np.ndarray:
    """Estimate per-cell solution density from random planning problems.

    Solves n_goals * inits_per_goal problems (random goal, random start, a
    plan ending within one cell of the goal); density[iy, ix] = (#solution
    traces visiting the cell) / (#solved).
    Unsolved problems are skipped. Raises InsufficientData when fewer than
    10% of the problems solve.

    Stream rule (DENSITY_STREAM_RULE): in goal order, rng draws goal g as
    sample_free(world, spawn(rng)), then one spawn(rng) per problem of that
    goal; a problem's start and its rrt_plan read only its own stream. So
    the goals are independent jobs, solved on pool.workers_for(goals)
    forked workers or inline on one CPU, and their counts are summed in
    goal order: the density is the same bytes on any CPU count.
    """
    if n_goals < 1 or inits_per_goal < 1:
        raise ValueError("n_goals and inits_per_goal must be >= 1")
    total = n_goals * inits_per_goal
    jobs = []
    for _ in range(n_goals):
        try:
            goal = sample_free(world, spawn(rng))
        except NoFreeSpace:
            break
        jobs.append((world, goal, [spawn(rng) for _ in range(inits_per_goal)]))
    counts = np.zeros((world.height, world.width), dtype=np.int64)
    solved = 0
    with pool.fork_starmap(_goal_density, jobs,
                           pool.workers_for(len(jobs))) as results:
        for goal_solved, goal_counts in results():
            solved += goal_solved
            counts += goal_counts
    if solved < 0.1 * total:
        raise InsufficientData(f"solved {solved}/{total} problems")
    return counts.astype(np.float64) / solved


NEIGHBORS4 = ((1, 0), (-1, 0), (0, 1), (0, -1))


def grid_bfs(sources, passable) -> dict:
    """Labelled multi-source breadth-first search over 4-connected cells.

    sources is an ordered list of (cell, label) pairs; a cell that fails
    passable(cell) is never entered, source or not. Returns {cell: (steps,
    label)} in discovery order, where steps counts moves from the nearest
    source and label is that of the first source, in list order, among the
    nearest ones (FIFO order keeps each layer sorted by source position).
    """
    out: dict = {}
    queue = deque()
    for cell, label in sources:
        if cell not in out and passable(cell):
            out[cell] = (0, label)
            queue.append(cell)
    while queue:
        cx, cy = cur = queue.popleft()
        steps, label = out[cur]
        for dx, dy in NEIGHBORS4:
            nb = (cx + dx, cy + dy)
            if nb not in out and passable(nb):
                out[nb] = (steps + 1, label)
                queue.append(nb)
    return out


def connected_components(cells: set) -> list[set]:
    """4-connected components of a cell set, in deterministic order."""
    remaining = set(cells)
    comps = []
    for seed in sorted(cells):
        if seed in remaining:
            # cells go in one at a time in search order, as the region score
            # sums them in set order: set(dict) would presize and reorder
            comp = set(list(grid_bfs([(seed, None)], remaining.__contains__)))
            remaining -= comp
            comps.append(comp)
    return comps


def _medoid(comp: set) -> tuple[int, int]:
    """Component cell minimizing summed within-component BFS distance; the
    lowest such cell."""
    return min(sorted(comp), key=lambda cell: sum(
        steps for steps, _ in grid_bfs([(cell, None)], comp.__contains__).values()))


def percentile_threshold(density: np.ndarray, percentile: float) -> float:
    """The given percentile of the nonzero density values."""
    values = density[density > 0]
    if values.size == 0:
        raise NoRegions("density grid is identically zero")
    return float(np.percentile(values, percentile))


def extract_critical_regions(world: OccupancyWorld, density: np.ndarray,
                             threshold: float,
                             min_cells: int = 3) -> list[CriticalRegion]:
    """Threshold the density grid into scored critical regions.

    The free cells whose density exceeds threshold form the components; an
    all-zero density has none, whatever the threshold. Components smaller
    than min_cells are dropped; each survivor gets its mean density as score
    and a centroid that is guaranteed free and inside the component (falls
    back to the component medoid when the geometric centroid is not).
    Result is sorted by descending score, ties by cell count then position.
    """
    if density.shape != (world.height, world.width):
        raise ValueError("density grid shape does not match the world")
    if not np.any(density > 0):
        raise NoRegions("density grid is identically zero")
    over = {(int(ix), int(iy))
            for iy, ix in zip(*np.nonzero(density > threshold))
            if world.cell_free((int(ix), int(iy)))}
    regions = []
    for comp in connected_components(over):
        if len(comp) < min_cells:
            continue
        score = float(np.mean([density[iy, ix] for ix, iy in comp]))
        xs = [world.cell_center(c)[0] for c in sorted(comp)]
        ys = [world.cell_center(c)[1] for c in sorted(comp)]
        cx, cy = float(np.mean(xs)), float(np.mean(ys))
        if world.cell_of(cx, cy) not in comp:
            cx, cy = world.cell_center(_medoid(comp))
        regions.append(CriticalRegion(cells=frozenset(comp),
                                      centroid=Configuration(cx, cy),
                                      score=score))
    if not regions:
        raise NoRegions(f"no component of >= {min_cells} cells above {threshold:g}")
    regions.sort(key=lambda r: (-r.score, -len(r.cells), sorted(r.cells)[0]))
    return regions
