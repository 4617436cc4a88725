"""Benchmark harness for the sharp planner.

One command, run from the repository root, measures one workload:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--seed` makes the inputs: it becomes `AbstractionParams.seed` of the
`abstraction` workload and seeds the traced pass's kernel inputs, so the
same seed gives the same inputs and outputs. The two experiment workloads
pin every stream to seed 0 (reasons below).
`--seconds` is how long the run repeats the workload; it always times whole
iterations, at least one, and `run_s` is their median.
Workloads, each in one process, one caller, nothing in parallel:

* `abstraction` - cold `experiment.build_library` on the four 30x30 worlds
  env_a-env_d. Density RRTs, partition and option synthesis; no network
  runs, so it carries world/motion/regions/abstraction gains and should not
  move under an mlp or learn change.
* `smoke-experiment` - `experiment.run_experiment` on env_a P1-P5 with the
  CEM smoke profile and all three methods. Batch-1 rollouts dominate and
  options are reused across problems; the known `sharp` failure on env_a
  stays visible in its per-method success. Its streams stay pinned to seed
  0: with 20 evaluation episodes a problem, the pooled success moves with
  the seed by as much as its bound.
* `desk-train` - `run_experiment` on env_c P1 with the desk SAC profile,
  `sharp` and `rrt_replan`. Batch-128 MLP forward, backward and Adam
  dominate, and `sharp` reaches the goal, so an update that harms learning
  shows. Its streams stay pinned to seed 0 whatever `--seed` says: seeded,
  the same problem trains for 22k-60k steps and sometimes fails.

With `--trace 0` the last stdout line is a JSON object with `correct`,
`attempted`, `failed` (result rows with an error, library builds that
raised) and the end-to-end metrics: `setup_s` (median of seven set-ups for
`abstraction` and three for the experiments, each a fresh interpreter that
imports the package and builds the worlds and, for the experiments, the
library cache, timed from inside it; see bench/setup_once.py), `run_s`,
both wall times rescaled to nominal host speed by bench/probe.py, `success`
(share of the evaluation episodes of every method that reached the goal;
for `abstraction`, of the library builds that completed) and
`peak_rss_mb`. Per-method success and sharp's training steps are in the
result file and, traced, among the per-layer metrics; the benchmark gates
on training steps only through those figures.

With `--trace 1` the run times one untraced iteration, repeats it with every
layer boundary wrapped (bench/tracer.py), checks that both produce the same
outputs, adds kernel micro-timings (bench/micro.py), and prints the
per-layer metrics instead. Every run writes
`bench/results/BENCH_<workload>_seed<n>_trace<t>.json` with the environment
(nproc, Python, numpy, BLAS and its thread count, seed, git commit), and a
traced run writes its spans next to it as `.npz`.

BLAS is pinned to one thread before numpy loads. The harness's own tests:

    python3 -m pytest -q bench
"""

import argparse
import json
import logging
import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("abstraction", "smoke-experiment", "desk-train")


def pin_blas() -> None:
    """One BLAS thread: with two cores, a second one fights the interpreter.
    Must run before numpy is imported, which reads these once."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before BLAS threads were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src", "sharp")):
        print(f"bench: no sharp package under {os.path.join(root, 'src')}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr,
                        format="%(name)s: %(message)s")
    import harness

    record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    path = harness.write_result(record)
    print(f"result file: {os.path.relpath(path, root)}")
    print(f"summary: {json.dumps(record['summary'], sort_keys=True)}")
    for problem in record["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps(record["report"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
