"""Bundled desk-scale worlds and their recommended pipeline settings.

Four 30x30 maps (rooms and corridors at 0.5 m cells, 15 m across) and one
60x60 map exercise the pipeline at two scales. Geometry is built
programmatically so the text exports are bit-exact; each world carries a
per-world recipe (AbstractionParams overrides such as the region cap, and
bundled problems chosen so later problems revisit earlier corridors). All
of them share one robot's physics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .world import Kinematics, OccupancyWorld


def _boxed(n: int) -> np.ndarray:
    occ = np.zeros((n, n), dtype=bool)
    occ[0, :] = occ[n - 1, :] = True
    occ[:, 0] = occ[:, n - 1] = True
    return occ


def _env_a() -> np.ndarray:
    """Four rooms; thick cross walls with one narrow door per wall arm."""
    occ = _boxed(30)
    occ[:, 14:16] = True
    occ[14:16, :] = True
    occ[7, 14:16] = False
    occ[22, 14:16] = False
    occ[14:16, 7] = False
    occ[14:16, 22] = False
    return occ


def _env_b() -> np.ndarray:
    """Four rooms in a chain: two slabs plus a split middle column."""
    occ = _boxed(30)
    occ[:, 9:11] = True     # L | M wall
    occ[:, 19:21] = True    # M | R wall
    occ[14:16, 10:20] = True  # splits the middle slab
    occ[22, 9:11] = False   # L -> M-high door
    occ[14:16, 14] = False  # M-high -> M-low door
    occ[7, 19:21] = False   # M-low -> R door
    return occ


def _env_c() -> np.ndarray:
    """Ring corridor: central block with four walled spokes, one door each."""
    occ = _boxed(30)
    occ[12:18, 12:18] = True
    occ[14:16, 1:12] = True
    occ[14:16, 18:29] = True
    occ[1:12, 14:16] = True
    occ[18:29, 14:16] = True
    occ[14:16, 5] = False
    occ[14:16, 24] = False
    occ[5, 14:16] = False
    occ[24, 14:16] = False
    return occ


def _env_d() -> np.ndarray:
    """Serpentine bands with a doored mid-band divider; gaps wide enough for
    the turning robot."""
    occ = _boxed(30)
    occ[9:11, 0:24] = True
    occ[19:21, 6:30] = True
    occ[11:19, 14:16] = True
    occ[15:17, 14:16] = False
    return occ


def _env_e() -> np.ndarray:
    """Nine rooms at double scale, one narrow door per shared wall."""
    occ = _boxed(60)
    occ[:, 19:21] = True
    occ[:, 39:41] = True
    occ[19:21, :] = True
    occ[39:41, :] = True
    for lo in (9, 29, 49):
        occ[lo, 19:21] = False
        occ[lo, 39:41] = False
        occ[19:21, lo] = False
        occ[39:41, lo] = False
    return occ


# The physics every bundled world shares: a desk robot on 0.5 m cells.
PHYSICS = dict(cell_size=0.5, noise_sigma=0.05, max_step=0.5, v_max=0.5,
               omega_max=math.pi / 4.0)


@dataclass(frozen=True)
class WorldRecipe:
    """A bundled world plus the settings its experiments run with."""

    name: str
    builder: object
    kinematics: Kinematics = Kinematics.HOLONOMIC
    abstraction: dict = field(default_factory=dict)  # AbstractionParams overrides
    problems: tuple = ()              # ((x_i, y_i), (x_g, y_g)) pairs, meters

    def build(self) -> OccupancyWorld:
        occ = self.builder()
        n = occ.shape[0]
        return OccupancyWorld(width=n, height=n, occupancy=occ,
                              kinematics=self.kinematics, **PHYSICS)


RECIPES = {recipe.name: recipe for recipe in (
    WorldRecipe(
        name="env_a", builder=_env_a,
        abstraction=dict(max_regions=4, region_threshold=1.0),
        problems=(((1.25, 1.25), (13.75, 13.75)),
                  ((2.25, 1.25), (13.25, 12.25)),
                  ((1.25, 13.75), (13.75, 1.25)),
                  ((1.75, 12.75), (12.75, 2.25)),
                  ((1.25, 2.25), (12.25, 13.25)))),
    WorldRecipe(
        name="env_b", builder=_env_b,
        abstraction=dict(max_regions=4, region_threshold=1.0),
        problems=(((2.25, 2.25), (13.25, 2.25)),
                  ((1.75, 4.25), (12.75, 3.25)),
                  ((2.25, 13.25), (13.25, 2.75)),
                  ((6.75, 13.25), (12.25, 4.25)),
                  ((3.25, 12.25), (13.25, 1.75)))),
    WorldRecipe(
        name="env_c", builder=_env_c,
        abstraction=dict(max_regions=4, region_threshold=1.0),
        problems=(((1.25, 1.25), (13.75, 13.75)),
                  ((2.75, 1.75), (12.25, 12.75)),
                  ((1.25, 13.75), (13.75, 1.25)),
                  ((2.25, 12.25), (12.75, 2.75)),
                  ((1.75, 2.75), (13.25, 12.25)))),
    WorldRecipe(
        name="env_d", builder=_env_d, kinematics=Kinematics.UNICYCLE,
        abstraction=dict(max_regions=3, region_threshold=1.0),
        problems=(((1.25, 1.25), (13.75, 13.75)),
                  ((3.25, 2.25), (12.25, 13.25)),
                  ((1.75, 3.25), (13.25, 12.25)),
                  ((12.25, 13.25), (2.25, 2.25)),
                  ((2.25, 1.25), (10.25, 13.25)))),
    WorldRecipe(
        name="env_e", builder=_env_e,
        abstraction=dict(n_goals=40, max_regions=12, region_threshold=1.0),
        problems=(((2.25, 2.25), (27.75, 27.75)),
                  ((3.75, 2.75), (26.75, 26.25)),
                  ((2.25, 27.75), (27.75, 2.25)),
                  ((3.25, 26.25), (26.25, 3.25)),
                  ((2.75, 2.25), (26.25, 27.25)))),
)}
