"""Run one bench/run.py workload in this process, then print, as one last
JSON line, two figures that its gated metrics leave out:

* `run_wall_s`: the wall time of each timed iteration, from the result
  file. The gated `run_s` is rescaled by bench/probe.py, which samples the
  parent while it waits on forked workers.
* `children_peak_rss_mb`: the largest peak RSS among the run's child
  processes once they are joined (RUSAGE_CHILDREN): the setup interpreters
  of bench/setup_once.py and every forked pool worker, with their own
  children. The gated `peak_rss_mb` reads RUSAGE_SELF only.

    python3 tools/bench_rusage.py --workload abstraction --seed 0 --seconds 1

It takes bench/run.py's arguments and exits with its status.
"""

import json
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import run  # noqa: E402


def main(argv=None) -> int:
    args = run.parse_args(argv)
    status = run.main(argv)
    import harness

    with open(harness.result_path(args.workload, args.seed, bool(args.trace))) as fh:
        record = json.load(fh)
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(json.dumps({"run_wall_s": record["run_wall_s"],
                      "children_peak_rss_mb": children}))
    return status


if __name__ == "__main__":
    sys.exit(main())
