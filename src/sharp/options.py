"""Option synthesis: endpoints, guide paths, and dense pseudo-rewards.

An option runs along a chain of abstract states, and its endpoints follow
one rule: the initiation region is the endpoint region
(abstraction.endpoint_region) of every state of the chain but the last, the
termination region that of every state but the first. Two families of
chains are generated from the partition:

* centroid options, one per ordered pair (i, j) of adjacent states, running
  between the threshold balls around the two anchor centroids;
* interface options, one per ordered state triple (i, j, k) with i adjacent
  to j, j adjacent to k, i != k, running between the (i,j) and (j,k) border
  regions.

Each endpoint region is computed once and shared between options, so an
option's termination region is literally the next option's initiation
region along any abstract path, which is what makes their policies chain.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .abstraction import Region, RegionVoronoi, endpoint_region
from .errors import EmptyRegion, GuideUnreachable, InCollision, Unreachable
from .motion import resample_polyline, rrt_plan, shortcut
from .seeding import spawn
from .world import Configuration, OccupancyWorld, collision

log = logging.getLogger(__name__)

TERMINAL_REWARD = 1000.0   # pseudo-reward on entering the termination region
PENALTY_REWARD = -100.0    # pseudo-reward on leaving the allowed states
GUIDE_ATTEMPTS = 5   # masked plans tried before build_guide gives up


class OptionKind:
    CENTROID = "centroid"
    INTERFACE = "interface"


@dataclass(frozen=True)
class OptionSpec:
    """An abstract action along a chain of states: (i, j) for a centroid
    option, (i, j, k) for an interface option.

    Its initiation region is the endpoint region of src_states, every state
    of the chain but the last, and its termination region that of
    dst_states, every state but the first. What a solve learns of an
    option's cost lives in the solve's costs table (planner.sharp_solve).
    """

    id: str
    states: tuple
    initiation: Region
    termination: Region

    @property
    def kind(self) -> str:
        return OptionKind.CENTROID if len(self.states) == 2 else OptionKind.INTERFACE

    @property
    def src_states(self) -> tuple:
        return self.states[:-1]

    @property
    def dst_states(self) -> tuple:
        return self.states[1:]

    @property
    def prior(self) -> float:
        """The cost before any rollout: the distance in metres between the
        endpoint representatives, at least 1e-6."""
        return max(self.initiation.representative.distance_to(
            self.termination.representative), 1e-6)


def synth_options(rbvd: RegionVoronoi, kind: str, t: float) -> list[OptionSpec]:
    """The options of kind at threshold t, sorted by id: c{i}-{j} per
    ordered adjacent pair, or i{i}-{j}-{k} per ordered triple.

    A chain whose initiation or termination region is empty at this
    threshold is skipped with a warning; a partial library still plans.
    """
    if kind == OptionKind.CENTROID:
        chains = [pair for i, j in sorted(rbvd.adjacency) for pair in ((i, j), (j, i))]
    elif kind == OptionKind.INTERFACE:
        chains = [(i, j, k) for j in sorted(s.id for s in rbvd.states)
                  for i in rbvd.neighbors(j) for k in rbvd.neighbors(j) if i != k]
    else:
        raise ValueError(f"unknown option kind {kind!r}")
    regions: dict[tuple, Region | None] = {}   # by sorted states

    def endpoint(states: tuple) -> Region | None:
        key = tuple(sorted(states))
        if key not in regions:
            try:
                regions[key] = endpoint_region(rbvd, key, t)
            except EmptyRegion:
                log.warning("states %s have an empty endpoint region at t=%g", key, t)
                regions[key] = None
        return regions[key]

    options = []
    for states in chains:
        oid = kind[0] + "-".join(map(str, states))
        first, second = endpoint(states[:-1]), endpoint(states[1:])
        if first is None or second is None:
            log.warning("skipping option %s (empty endpoint)", oid)
            continue
        options.append(OptionSpec(id=oid, states=states, initiation=first,
                                  termination=second))
    return sorted(options, key=lambda o: o.id)


@dataclass
class OptionGuide:
    """Guide path for one option, with its point table and each point's
    distance to the end, both built once.

    points runs from the initiation representative to the termination
    representative, spaced strictly below one cell, and every point lies in
    one of allowed_states.
    """

    option_id: str
    initiation: Region
    termination: Region
    points: list[Configuration]
    allowed_states: frozenset
    xy: np.ndarray = field(init=False, repr=False, compare=False)
    end_dist: np.ndarray = field(init=False, repr=False, compare=False)
    _last: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.xy = np.array([[p.x, p.y] for p in self.points])
        # Euclidean distance from each guide point to the final point
        self.end_dist = np.hypot(self.xy[:, 0] - self.xy[-1, 0],
                                 self.xy[:, 1] - self.xy[-1, 1])

    def nearest(self, c: Configuration) -> tuple[int, float]:
        """Index of the guide point closest to c (the lowest index on ties)
        and its squared distance. The last query's answer is kept, so that
        the reward and the observation of one environment step search once."""
        key = (c.x, c.y)
        if self._last is None or self._last[0] != key:
            d2 = (self.xy[:, 0] - c.x) ** 2 + (self.xy[:, 1] - c.y) ** 2
            idx = int(np.argmin(d2))
            self._last = key, (idx, float(d2[idx]))
        return self._last[1]


def pseudo_reward(guide: OptionGuide, rbvd: RegionVoronoi, c: Configuration) -> float:
    """Dense shaped reward for a free configuration.

    Cases, evaluated in order so that reaching the termination region always
    pays the terminal bonus: (1) the configuration's cell is in the
    termination region -> TERMINAL_REWARD; (2) its abstract state is outside
    allowed_states -> PENALTY_REWARD; (3) otherwise the negated sum of the
    distance to the nearest guide point and that point's straight-line
    distance to the guide's end.
    """
    if collision(rbvd.world, c):
        raise InCollision(f"({c.x:.3f}, {c.y:.3f}) is not in free space")
    cell = rbvd.world.cell_of(c.x, c.y)
    if cell in guide.termination.cells:
        return TERMINAL_REWARD
    if rbvd.state_id_of_cell(cell) not in guide.allowed_states:
        return PENALTY_REWARD
    idx, d2 = guide.nearest(c)
    return -(math.sqrt(d2) + float(guide.end_dist[idx]))


def _mask_of(rbvd: RegionVoronoi, allowed_states) -> set:
    mask: set = set()
    for sid in allowed_states:
        mask |= rbvd.states[sid].cells
    return mask


def build_guide(world: OccupancyWorld, rbvd: RegionVoronoi, option_id: str,
                initiation: Region, termination: Region, allowed_states,
                rng: np.random.Generator) -> OptionGuide:
    """Masked plan from the initiation representative, where a guide always
    starts, to within half a cell of the termination representative.

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
            plan = rrt_plan(world, initiation.representative, goal, spawn(rng),
                            0.5 * world.cell_size, mask=mask)
        except Unreachable as e:
            last_error = e
            continue
        pts = shortcut(world, plan, mask=mask)
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

