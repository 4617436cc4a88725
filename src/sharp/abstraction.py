"""Region Voronoi partition of free space and its derived threshold regions.

Every free cell is assigned to the critical region with the smallest geodesic
(obstacle-aware, 4-neighbor step count) distance; ties go to the lower
region id. Geodesic distance keeps each partition cell connected, which
straight-line distance cannot guarantee across walls. Cells no region can
reach geodesically stay unassigned (id NO_STATE).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (EmptyRegion, InCollision, NotNeighbors, TooFewRegions,
                     UnassignedCell)
from .regions import NEIGHBORS4, CriticalRegion, grid_bfs
from .world import Configuration, OccupancyWorld, collision

NO_STATE = -1


@dataclass(frozen=True)
class Region:
    """A nonempty set of free cells with a representative point inside it."""

    cells: frozenset
    representative: Configuration


@dataclass(frozen=True)
class AbstractState:
    id: int
    anchor: CriticalRegion
    cells: frozenset


@dataclass
class RegionVoronoi:
    """Immutable partition of free space into abstract states.

    assignment[iy, ix] holds the owning state id for free cells, NO_STATE for
    obstacles and for free cells unreachable from every anchor region.
    """

    world: OccupancyWorld
    states: list[AbstractState]
    assignment: np.ndarray
    adjacency: frozenset = field(default_factory=frozenset)  # of (i, j) pairs, i < j

    def state_id_of_cell(self, cell) -> int:
        ix, iy = cell
        return int(self.assignment[iy, ix])

    def state_of(self, c: Configuration) -> AbstractState:
        """Abstract state containing a free configuration."""
        if collision(self.world, c):
            raise InCollision(f"({c.x:.3f}, {c.y:.3f}) is not in free space")
        sid = self.state_id_of_cell(self.world.cell_of(c.x, c.y))
        if sid == NO_STATE:
            raise UnassignedCell("no anchor region reaches this cell geodesically")
        return self.states[sid]

    def adjacent(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.adjacency

    def neighbors(self, i: int) -> list[int]:
        out = [b if a == i else a for a, b in self.adjacency if i in (a, b)]
        return sorted(out)


def build_region_voronoi(world: OccupancyWorld,
                         regions: list[CriticalRegion]) -> RegionVoronoi:
    """Partition free space among the given anchor regions: state i is
    anchored at regions[i], and states sharing a cell edge are adjacent.

    One labelled BFS from every anchor cell, region by region in id order
    and each region's cells sorted, so that a cell goes to the lowest id
    among its geodesically nearest regions.
    """
    if len(regions) < 2:
        raise TooFewRegions(f"need >= 2 regions, got {len(regions)}")
    sources = [(cell, rid) for rid, r in enumerate(regions) for cell in sorted(r.cells)]
    if len({cell for cell, _ in sources}) != len(sources):
        raise ValueError("anchor regions must be disjoint")
    assignment = np.full((world.height, world.width), NO_STATE, dtype=np.int64)
    cells_per_state: list[set] = [set() for _ in regions]
    for (ix, iy), (_, rid) in grid_bfs(sources, world.cell_free).items():
        assignment[iy, ix] = rid
        cells_per_state[rid].add((ix, iy))
    states = [AbstractState(id=rid, anchor=regions[rid], cells=frozenset(cells))
              for rid, cells in enumerate(cells_per_state)]
    pairs = set()
    for a, b in ((assignment[:, :-1], assignment[:, 1:]),
                 (assignment[:-1, :], assignment[1:, :])):
        edge = (a != NO_STATE) & (b != NO_STATE) & (a != b)
        pairs.update(zip(np.minimum(a, b)[edge].tolist(),
                         np.maximum(a, b)[edge].tolist()))
    return RegionVoronoi(world=world, states=states, assignment=assignment,
                         adjacency=frozenset(pairs))


def ball(world: OccupancyWorld, cells, center: Configuration, t: float) -> Region:
    """Those of cells whose centers lie within Euclidean t of center, which
    is the representative; the result may hold no cell."""
    return Region(cells=frozenset(c for c in cells
                                  if center.distance_to(world.cell_center(c)) < t),
                  representative=center)


def cell_region(world: OccupancyWorld, c: Configuration) -> Region:
    """c's own cell, with c as the representative."""
    return Region(cells=frozenset([world.cell_of(c.x, c.y)]), representative=c)


def _border_midpoint(rbvd: RegionVoronoi, si: AbstractState,
                     sj: AbstractState) -> Configuration:
    """Midpoint of the geometrically closest border-cell pair, canonical order."""
    world = rbvd.world
    border_i = [c for c in sorted(si.cells)
                if any((c[0] + dx, c[1] + dy) in sj.cells for dx, dy in NEIGHBORS4)]
    border_j = [c for c in sorted(sj.cells)
                if any((c[0] + dx, c[1] + dy) in si.cells for dx, dy in NEIGHBORS4)]
    best = None
    for a in border_i:
        ax, ay = world.cell_center(a)
        for b in border_j:
            bx, by = world.cell_center(b)
            key = (math.hypot(ax - bx, ay - by), min(a, b), max(a, b))
            if best is None or key < best[0]:
                best = (key, ((ax + bx) / 2.0, (ay + by) / 2.0))
    return Configuration(*best[1])


def endpoint_region(rbvd: RegionVoronoi, states: tuple, t: float) -> Region:
    """The endpoint region of one state or of two adjacent states: the ball
    of radius t (ball) around the state's anchor centroid, within the state,
    or around the two states' shared border point, within both of them.

    Two states give the same region in either order. Raises EmptyRegion
    when t is not positive or the ball holds no cell, NotNeighbors when two
    states share no boundary.
    """
    if t <= 0:
        raise EmptyRegion("threshold must be positive")
    if len(states) == 1:
        state = rbvd.states[states[0]]
        region = ball(rbvd.world, state.cells, state.anchor.centroid, t)
    else:
        i, j = states
        if not rbvd.adjacent(i, j):
            raise NotNeighbors(f"states {i} and {j} share no boundary")
        si, sj = rbvd.states[min(i, j)], rbvd.states[max(i, j)]
        region = ball(rbvd.world, si.cells | sj.cells, _border_midpoint(rbvd, si, sj), t)
    if not region.cells:
        raise EmptyRegion(f"no cell of states {states} within {t:g} of "
                          f"their endpoint")
    return region


def goal_tolerance(world: OccupancyWorld, goal_tol: float | None) -> float:
    """Radius of the goal ball: goal_tol, or one cell when it is None."""
    return world.cell_size if goal_tol is None else goal_tol


def goal_region(world: OccupancyWorld, x_g: Configuration, tol: float) -> Region:
    """The ball of free cells within tol of x_g, or x_g's own cell when it
    holds none; x_g is the representative."""
    region = ball(world, world.free_list, x_g, tol)
    return region if region.cells else cell_region(world, x_g)


def render_assignment(rbvd: RegionVoronoi) -> str:
    """Text grid of the partition (top row first): state ids, '#', '.'=unassigned."""
    digits = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    world = rbvd.world
    rows = []
    for row in range(world.height):
        iy = world.height - 1 - row
        chars = []
        for ix in range(world.width):
            if world.occupancy[iy, ix]:
                chars.append("#")
            else:
                sid = int(rbvd.assignment[iy, ix])
                chars.append("." if sid == NO_STATE else digits[sid % len(digits)])
        rows.append("".join(chars))
    return "\n".join(rows) + "\n"
