"""Print the output digests that a byte-identical change must keep.

    python3 tools/digests.py

Prints one line each, as `<name> <sha256>`:

* `smoke-csv` and `desk-csv`: the result CSV of `run_experiment` on
  bench/harness.py's `smoke_spec(0)` and `desk_spec(0)`, run with a fresh
  cache directory, as the benchmark runs them;
* `library/<world>/<kind>`: `bench/harness.py`'s `library_digest` of
  `build_library` on env_a-env_e with recipe parameters, for the centroid
  and the interface kind.

BLAS is pinned to one thread first, as in bench/run.py. The whole run takes
a few minutes on two cores; desk-csv takes most of it.
"""

import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from run import pin_blas  # noqa: E402

pin_blas()
import harness  # noqa: E402
from sharp import experiment  # noqa: E402

WORLDS = ("env_a", "env_b", "env_c", "env_d", "env_e")
KINDS = ("centroid", "interface")


def csv_digest(spec) -> str:
    with tempfile.TemporaryDirectory() as cache_dir:
        rows = experiment.run_experiment(spec, cache_dir)
    return hashlib.sha256(experiment.rows_to_csv(rows).encode()).hexdigest()


def main() -> int:
    for name, spec_fn in (("smoke-csv", harness.smoke_spec),
                          ("desk-csv", harness.desk_spec)):
        print(name, csv_digest(spec_fn(0)), flush=True)
    for world in WORLDS:
        spec = experiment.spec_for_bundled(world)
        for kind in KINDS:
            _, library = experiment.build_library(spec.world, kind, spec.abstraction)
            print(f"library/{world}/{kind}", harness.library_digest(library),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
