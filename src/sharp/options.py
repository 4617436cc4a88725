"""Option synthesis: endpoints, guide paths, and dense pseudo-rewards.

Two option families are generated from the partition:

* centroid options, one per ordered pair of adjacent states, running between
  the threshold balls around the two anchor centroids;
* interface options, one per ordered state triple (i, j, k) with i adjacent
  to j, j adjacent to k, i != k, running between the (i,j) and (j,k) border
  regions.

Regions are computed once per state/pair and shared between options, so
consecutive options along any abstract path carry literally equal endpoint
cell sets, which is what makes their policies chain.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .abstraction import Region, RegionVoronoi, centroid_region, interface_region
from .errors import EmptyRegion, GuideUnreachable, InCollision, Unreachable
from .motion import resample_polyline, rrt_plan, shortcut
from .seeding import spawn
from .world import Configuration, OccupancyWorld, collision

log = logging.getLogger(__name__)

DEFAULT_TERMINAL_REWARD = 1000.0
DEFAULT_PENALTY_REWARD = -100.0
GUIDE_ATTEMPTS = 5   # masked plans tried before build_guide gives up


class OptionKind:
    CENTROID = "centroid"
    INTERFACE = "interface"


@dataclass(frozen=True)
class OptionSpec:
    """An abstract action: its endpoint regions.

    states is (i, j) for centroid options and (i, j, k) for interface
    options; the initiation region lives in the leading state(s), the
    termination region in the trailing state(s). What a solve learns of an
    option's cost lives in the solve's costs table (planner.sharp_solve).
    """

    id: str
    kind: str
    states: tuple
    initiation: Region
    termination: Region

    @property
    def src_states(self) -> tuple:
        return self.states[:-1] if self.kind == OptionKind.INTERFACE else self.states[:1]

    @property
    def dst_states(self) -> tuple:
        return self.states[1:] if self.kind == OptionKind.INTERFACE else self.states[1:2]

    @property
    def prior(self) -> float:
        """The cost before any rollout: the distance in metres between the
        endpoint representatives, at least 1e-6."""
        return max(self.initiation.representative.distance_to(
            self.termination.representative), 1e-6)


def synth_centroid_options(rbvd: RegionVoronoi, t: float) -> list[OptionSpec]:
    """One option per ordered adjacent state pair, between centroid balls.

    Pairs whose centroid ball is empty at this threshold are skipped with a
    warning; a partial library still plans.
    """
    balls: dict[int, Region] = {}
    for s in rbvd.states:
        try:
            balls[s.id] = centroid_region(rbvd, s, t)
        except EmptyRegion:
            log.warning("state %d has an empty centroid ball at t=%g", s.id, t)
    options = []
    for i, j in sorted(rbvd.adjacency):
        for a, b in ((i, j), (j, i)):
            if a in balls and b in balls:
                options.append(OptionSpec(
                    id=f"c{a}-{b}", kind=OptionKind.CENTROID, states=(a, b),
                    initiation=balls[a], termination=balls[b]))
            else:
                log.warning("skipping centroid option %d->%d (empty endpoint)", a, b)
    return sorted(options, key=lambda o: o.id)


def synth_interface_options(rbvd: RegionVoronoi, t: float) -> list[OptionSpec]:
    """One option per ordered triple (i, j, k), between border regions."""
    borders: dict[tuple, Region] = {}
    for i, j in sorted(rbvd.adjacency):
        try:
            borders[(i, j)] = interface_region(rbvd, i, j, t)
        except EmptyRegion:
            log.warning("empty interface region for states (%d, %d) at t=%g", i, j, t)

    def border(a, b):
        return borders.get((min(a, b), max(a, b)))

    options = []
    for j in sorted(s.id for s in rbvd.states):
        nbrs = rbvd.neighbors(j)
        for i in nbrs:
            for k in nbrs:
                if i == k:
                    continue
                first, second = border(i, j), border(j, k)
                if first is None or second is None:
                    log.warning("skipping interface option %d-%d-%d (empty endpoint)",
                                i, j, k)
                    continue
                options.append(OptionSpec(
                    id=f"i{i}-{j}-{k}", kind=OptionKind.INTERFACE, states=(i, j, k),
                    initiation=first, termination=second))
    return sorted(options, key=lambda o: o.id)


def synth_options(rbvd: RegionVoronoi, kind: str, t: float) -> list[OptionSpec]:
    if kind == OptionKind.CENTROID:
        return synth_centroid_options(rbvd, t)
    if kind == OptionKind.INTERFACE:
        return synth_interface_options(rbvd, t)
    raise ValueError(f"unknown option kind {kind!r}")


@dataclass
class OptionGuide:
    """Guide path plus pseudo-reward parameters for one option.

    points runs from the initiation representative to the termination
    representative, spaced strictly below one cell, and every point lies in
    one of allowed_states.
    """

    option_id: str
    initiation: Region
    termination: Region
    points: list[Configuration]
    allowed_states: frozenset
    terminal_reward: float = DEFAULT_TERMINAL_REWARD
    penalty_reward: float = DEFAULT_PENALTY_REWARD
    _xy: np.ndarray | None = field(default=None, repr=False, compare=False)
    _end_dist: np.ndarray | None = field(default=None, repr=False, compare=False)
    _last: tuple | None = field(default=None, repr=False, compare=False)

    def point_array(self) -> np.ndarray:
        if self._xy is None:
            self._xy = np.array([[p.x, p.y] for p in self.points])
        return self._xy

    def end_distances(self) -> np.ndarray:
        """Euclidean distance from each guide point to the final point."""
        if self._end_dist is None:
            xy = self.point_array()
            self._end_dist = np.hypot(xy[:, 0] - xy[-1, 0], xy[:, 1] - xy[-1, 1])
        return self._end_dist

    def nearest(self, c: Configuration) -> tuple[int, float]:
        """Index of the guide point closest to c (the lowest index on ties)
        and its squared distance. The last query's answer is kept, so that
        the reward and the observation of one environment step search once."""
        key = (c.x, c.y)
        if self._last is None or self._last[0] != key:
            xy = self.point_array()
            d2 = (xy[:, 0] - c.x) ** 2 + (xy[:, 1] - c.y) ** 2
            idx = int(np.argmin(d2))
            self._last = key, (idx, float(d2[idx]))
        return self._last[1]


def pseudo_reward(guide: OptionGuide, rbvd: RegionVoronoi, c: Configuration) -> float:
    """Dense shaped reward for a free configuration.

    Cases, evaluated in order so that reaching the termination region always
    pays the terminal bonus: (1) the configuration's cell is in the
    termination region -> terminal_reward; (2) its abstract state is outside
    allowed_states -> penalty_reward; (3) otherwise the negated sum of the
    distance to the nearest guide point and that point's straight-line
    distance to the guide's end.
    """
    if collision(rbvd.world, c):
        raise InCollision(f"({c.x:.3f}, {c.y:.3f}) is not in free space")
    cell = rbvd.world.cell_of(c.x, c.y)
    if cell in guide.termination.cells:
        return guide.terminal_reward
    if rbvd.state_id_of_cell(cell) not in guide.allowed_states:
        return guide.penalty_reward
    idx, d2 = guide.nearest(c)
    return -(math.sqrt(d2) + float(guide.end_distances()[idx]))


def _mask_of(rbvd: RegionVoronoi, allowed_states) -> set:
    mask: set = set()
    for sid in allowed_states:
        mask |= rbvd.states[sid].cells
    return mask


def build_guide(world: OccupancyWorld, rbvd: RegionVoronoi, option_id: str,
                start: Configuration, initiation: Region, termination: Region,
                allowed_states, rng: np.random.Generator) -> OptionGuide:
    """Masked plan from ``start`` to within half a cell of the termination
    representative.

    The plan is shortcut, extended to end exactly at the representative, and
    resampled below one cell; the result is validated (endpoint identity,
    spacing, state containment) and re-planned on a fresh substream if a
    noisy corner case slips through. Raises GuideUnreachable when the masked
    planner cannot connect in GUIDE_ATTEMPTS tries.
    """
    allowed = frozenset(allowed_states)
    mask = _mask_of(rbvd, allowed)
    goal = termination.representative
    last_error: Exception | None = None
    for _ in range(GUIDE_ATTEMPTS):
        try:
            plan = rrt_plan(world, start, goal, spawn(rng), 0.5 * world.cell_size,
                            mask=mask)
        except Unreachable as e:
            last_error = e
            continue
        plan = shortcut(world, plan, mask=mask)
        pts = list(plan.waypoints)
        if pts[-1].distance_to(goal) > 1e-12:
            pts.append(goal)
        pts = resample_polyline(pts, world.cell_size)
        guide = OptionGuide(option_id=option_id, initiation=initiation,
                            termination=termination, points=pts,
                            allowed_states=allowed)
        if _guide_valid(world, rbvd, guide):
            return guide
        last_error = GuideUnreachable(f"guide validation failed for {option_id}")
    raise GuideUnreachable(
        f"no valid guide for {option_id} after {GUIDE_ATTEMPTS} attempts: "
        f"{last_error}")


def _guide_valid(world: OccupancyWorld, rbvd: RegionVoronoi, guide: OptionGuide) -> bool:
    pts = guide.points
    for a, b in zip(pts, pts[1:]):
        if a.distance_to(b) >= world.cell_size:
            return False
    for p in pts:
        if collision(world, p):
            return False
        if rbvd.state_id_of_cell(world.cell_of(p.x, p.y)) not in guide.allowed_states:
            return False
    return True


def compute_guide_path(world: OccupancyWorld, rbvd: RegionVoronoi, option: OptionSpec,
                       rng: np.random.Generator) -> OptionGuide:
    """Guide for an option: endpoint representatives joined inside its states."""
    start = option.initiation.representative
    if start.distance_to(option.termination.representative) < 1e-12:
        return OptionGuide(option_id=option.id, initiation=option.initiation,
                           termination=option.termination, points=[start],
                           allowed_states=frozenset(option.states))
    return build_guide(world, rbvd, option.id, start, option.initiation,
                       option.termination, frozenset(option.states), rng)
