"""Forked worker processes for independent jobs: the one owner of every pool
the pipeline starts (density goals, a solve's trainings, a seed's
replanning-baseline episodes). Callers reach these helpers through this
module's name, so patching usable_cpus here decides every pool."""

from __future__ import annotations

import contextlib
import multiprocessing
import os

# fork_starmap's function and jobs, set only in a pool worker, by the pool's
# initializer
_worker_args: tuple = ()


def _adopt(*args) -> None:
    global _worker_args
    _worker_args = args


def _run_adopted(i: int):
    fn, jobs = _worker_args
    return fn(*jobs[i])


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def workers_for(n_jobs: int) -> int:
    """fork_starmap's process count for n_jobs independent jobs: one per job
    up to usable_cpus(), or 0 (inline) when that is one."""
    workers = min(n_jobs, usable_cpus())
    return workers if workers > 1 else 0


@contextlib.contextmanager
def fork_starmap(fn, jobs: list, processes: int):
    """Run fn(*job) for every job on `processes` forked worker processes,
    or inline when processes is 0; yields a function that returns the
    results in job order, waiting for them.

    The pool starts on entry, so the caller's own work in the block runs
    beside it. Workers inherit fn and the jobs through the fork, so nothing
    is pickled to them and every set keeps its iteration order; only the
    results are pickled back. The pool forks its workers before it starts
    its threads, and is closed and joined when the block ends; an exception
    of a job is raised from the yielded function, and leaves the block after
    the pool is terminated and joined.
    """
    if processes == 0:
        yield lambda: [fn(*job) for job in jobs]
        return
    pool = multiprocessing.get_context("fork").Pool(processes, _adopt, (fn, jobs))
    try:
        yield pool.map_async(_run_adopted, range(len(jobs)), chunksize=1).get
    except BaseException:
        pool.terminate()
        raise
    else:
        pool.close()
    finally:
        pool.join()
