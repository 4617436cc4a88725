"""Print the output digests that a byte-identical change must keep, and
check them against tools/digests.expected.

    python3 tools/digests.py

Prints one line each, as `<name> <sha256>`:

* `smoke-csv` and `desk-csv`: the result CSV of `run_experiment` on
  bench/harness.py's `smoke_spec(0)` and `desk_spec(0)`, run with a fresh
  cache directory, as the benchmark runs them;
* `smoke-unicycle-csv`: the same on env_d P1-P5 with the smoke profile and
  seed 0, the one bundled unicycle world, so the unicycle observation and
  steering path is covered end to end;
* `smoke-interface-csv`: the same on env_a P1-P5 with the interface
  kind, the smoke profile and seed 0, so the abstract search over an
  interface library, with its virtual entry/exit nodes, is covered;
* `smoke-policy-cache`, `desk-policy-cache`,
  `smoke-unicycle-policy-cache` and `smoke-interface-policy-cache`: the
  policy-cache files
  (`<world hash>/policy_cache.json`) those runs write, byte for byte:
  every cached actor's parameters, cost and training steps;
* `library/<world>/<kind>`: `bench/harness.py`'s `library_digest` of
  `build_library` on env_a-env_e with recipe parameters, for the centroid
  and the interface kind.

BLAS is pinned to one thread first, as in bench/run.py. The whole run took
17-29 s on two cores of a shared Intel Xeon host, where each library's
density goals and a solve's trainings run on both, and 38 s on one core
(`taskset -c 0`), which prints the same digests.

Exits 1, naming each digest that differs from tools/digests.expected (the
same `<name> <sha256>` lines), when any does. A change that moves a digest
on purpose updates that file with it.
"""

import glob
import hashlib
import os
import sys
import tempfile
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED = os.path.join(ROOT, "tools", "digests.expected")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from run import pin_blas  # noqa: E402

pin_blas()
import harness  # noqa: E402
from sharp import artifacts, experiment  # noqa: E402

WORLDS = ("env_a", "env_b", "env_c", "env_d", "env_e")
KINDS = ("centroid", "interface")


def experiment_digests(spec) -> tuple[str, str]:
    """Digests of the result CSV and of the policy-cache files of one run."""
    with tempfile.TemporaryDirectory() as cache_dir:
        rows = experiment.run_experiment(spec, cache_dir)
        caches = hashlib.sha256()
        for path in sorted(glob.glob(os.path.join(cache_dir, "*",
                                                  artifacts.POLICY_CACHE_FILE))):
            with open(path, "rb") as fh:
                caches.update(fh.read())
    csv = hashlib.sha256(experiment.rows_to_csv(rows).encode()).hexdigest()
    return csv, caches.hexdigest()


def bundled_smoke_spec(world: str, kind: str = "centroid") -> experiment.ExperimentSpec:
    """A bundled world's problems with the CEM smoke profile, every stream on
    seed 0."""
    spec = experiment.spec_for_bundled(world, kind=kind,
                                       train=experiment.smoke_train_config())
    spec.abstraction = replace(spec.abstraction, seed=0)
    return spec


def digests():
    """(name, sha256) pairs, in the order they are printed."""
    for name, spec in (("smoke", harness.smoke_spec(0)), ("desk", harness.desk_spec(0)),
                       ("smoke-unicycle", bundled_smoke_spec("env_d")),
                       ("smoke-interface", bundled_smoke_spec("env_a", "interface"))):
        csv, caches = experiment_digests(spec)
        yield f"{name}-csv", csv
        yield f"{name}-policy-cache", caches
    for world in WORLDS:
        spec = experiment.spec_for_bundled(world)
        for kind in KINDS:
            _, library = experiment.build_library(spec.world, kind, spec.abstraction)
            yield f"library/{world}/{kind}", harness.library_digest(library)


def main() -> int:
    with open(EXPECTED) as fh:
        expected = dict(line.split() for line in fh if line.strip())
    moved = []
    for name, digest in digests():
        print(name, digest, flush=True)
        if expected.get(name) != digest:
            moved.append(name)
    for name in moved:
        print(f"moved: {name} (expected {expected.get(name)})", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
