"""Test doubles and oracles shared by the test modules."""

import typing
from dataclasses import replace

import numpy as np

from sharp.abstraction import Region
from sharp.learn import _sample_in_region
from sharp.options import OptionGuide
from sharp.planner import ComposedPolicy, astar
from sharp.world import Configuration, OccupancyWorld, step, steer_toward


class ScriptedPolicy:
    """Oracle policy that tracks a fixed waypoint list; used as a test double."""

    def __init__(self, waypoints, tol=0.5):
        self.waypoints = list(waypoints)
        self.tol = tol
        self._next = 0

    def reset(self):
        self._next = 0

    def act(self, world, c, greedy=True, rng=None):
        while (self._next < len(self.waypoints) - 1
               and c.distance_to(self.waypoints[self._next]) <= self.tol):
            self._next += 1
        return steer_toward(world, c, self.waypoints[self._next].xy)


def evaluate_policy(world, policy, start, stop_predicate, episodes, step_limit, rng):
    """Greedy rollouts from a Region or fixed Configuration until the stop
    predicate holds; returns {"success_rate", "mean_steps"}."""
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    successes = 0
    steps_taken = []
    for _ in range(episodes):
        if isinstance(start, Region):
            c = _sample_in_region(world, start, rng)
        else:
            c = start
        if hasattr(policy, "reset"):
            policy.reset()
        steps = 0
        ok = stop_predicate(c)
        while not ok and steps < step_limit:
            a = policy.act(world, c, greedy=True)
            c = step(world, c, a, rng)
            steps += 1
            ok = stop_predicate(c)
        successes += ok
        steps_taken.append(steps)
    return {"success_rate": successes / episodes,
            "mean_steps": float(np.mean(steps_taken))}


def dijkstra_cost(edges, start, goal):
    """Oracle shortest-path cost with zero heuristic."""
    res = astar(edges, start, goal, lambda n: 0.0)
    return None if res is None else res[0]


def sample_setting(cls, f):
    """(text, value): a config text for field f of settings dataclass cls
    that the dataclass accepts, and the value it parses to; the value differs
    from the field's default."""
    if f.name == "learner":
        return "cem", "cem"
    tp = typing.get_type_hints(cls)[f.name]
    base = next(a for a in typing.get_args(tp) or (tp,) if a is not type(None))
    if base is tuple:
        return "3,5", (3, 5)
    value = base((f.default or 0) + 3)
    return str(value), value


def with_params(world: OccupancyWorld, **overrides) -> OccupancyWorld:
    """Copy of the world with different kinematics/noise/bounds."""
    return replace(world, _free_cells=None, **overrides)


def density_from_payload(payload: dict) -> np.ndarray:
    return np.array(payload["grid"], dtype=np.float64)


def nearest_guide_point(guide: OptionGuide, c: Configuration) -> tuple[Configuration, int]:
    """Closest guide point by Euclidean distance; ties pick the lowest index."""
    idx, _ = guide.nearest(c)
    return guide.points[idx], idx


def option_stages(composed: ComposedPolicy):
    return [s for s in composed.stages if s.option is not None]
