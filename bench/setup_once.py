"""One set-up of a workload in a fresh interpreter, timed from inside it.

    python3 bench/setup_once.py --workload <name> --seed <n> --dir <path>

bench/harness.py starts this once per set-up, because each use of the
program starts the same way: a new interpreter imports the package and
builds the worlds and, for the experiments, the library cache (written under
--dir). The last stdout line is a JSON object with the wall time from this
script's first statement, that time rescaled to nominal host speed by a
probe sampling in this same thread, and the fingerprint of what was built.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from run import WORKLOAD_NAMES, pin_blas  # noqa: E402

pin_blas()
from probe import SETUP_PERIOD_S, SpeedProbe, trimmed_mean  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    args = p.parse_args(argv)
    with SpeedProbe(SETUP_PERIOD_S, start=T0) as probe:
        import harness
        wl = harness.WORKLOADS[args.workload]
        state = wl.setup(args.seed, args.dir)
    print(json.dumps({"wall_s": probe.wall_s, "scaled_s": probe.scaled_s,
                      "reference_s": trimmed_mean(probe.samples),
                      "samples": len(probe.samples),
                      "fingerprint": wl.fingerprint(state)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
