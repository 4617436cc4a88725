"""Stochastic hierarchical abstraction-guided robot planning toolkit.

Builds reusable navigation options from an occupancy grid: solution-density
critical regions, a geodesic region Voronoi partition, option endpoints with
guide paths and dense pseudo-rewards, policies trained by an in-package
actor-critic learner, and abstract search that composes them into an
executable policy automaton for noisy continuous navigation.

Importing the package pins BLAS to one thread: OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS are set to "1" unless already set, so a
user's value wins. A solve trains its policies on forked workers, one per
CPU, and BLAS threads on top of them only contend: on a two-core host the
desk experiment of bench/harness.py took 131 s with OpenBLAS's own thread
count against 28 s pinned. The variables act only if numpy is not loaded
yet, as when the ``sharp`` command starts.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .world import (Configuration, HolonomicAction, Kinematics, OccupancyWorld,
                    UnicycleAction, collision, sample_free, step)

__all__ = [
    "Configuration",
    "HolonomicAction",
    "Kinematics",
    "OccupancyWorld",
    "UnicycleAction",
    "collision",
    "sample_free",
    "step",
]
