"""Run alternating pairs of one benchmark workload in two checkouts, a parent
and a change, and summarise them:

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload desk-train --pairs 10

Each run is `tools/bench_rusage.py` of its own checkout, started in that
checkout's root with the same arguments, so both sides run their own copy
of the same benchmark code. Pair k runs the parent first when k is even and
the change first when it is odd. One line per pair gives both sides'
end-to-end metrics, `run_wall_s` (the median wall time of the run's timed
iterations; the gated `run_s` is rescaled by bench/probe.py) and
`children_peak_rss_mb` (the largest peak RSS of the run's child processes;
the gated `peak_rss_mb` is the measuring process's alone).

The summary gives, for `run_s` and `run_wall_s`, each side's median and
quartiles and the number of pairs in which the change read lower (ties
count for neither side), and says whether a gain is shown: the change won
at least nine tenths of the pairs, and the parent's median exceeds the
change's by more than the parent's interquartile range. Then it gives each
side's median of every other end-to-end metric.

Exits 1 when a run fails or reports a failed check.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
CLAIMED = ("run_s", "run_wall_s")


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """{metric: value} of one bench_rusage.py run in checkout; raises
    RuntimeError when it fails."""
    cmd = [sys.executable, os.path.join("tools", "bench_rusage.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}\n{proc.stderr}")
    report = json.loads(lines[-2])
    if not report["correct"]:
        raise RuntimeError(f"{checkout}: failed check\n{proc.stdout}")
    return figures_of(report, json.loads(lines[-1]))


def figures_of(report: dict, rusage: dict) -> dict:
    """{metric: value} of one run: the end-to-end metrics of its result
    line, and from bench_rusage.py's last line the median of `run_wall_s`
    and `children_peak_rss_mb`."""
    figures = {name: m["value"] for name, m in report["metrics"].items()}
    figures["run_wall_s"] = statistics.median(rusage["run_wall_s"])
    figures["children_peak_rss_mb"] = rusage["children_peak_rss_mb"]
    return figures


def quartiles(values: list) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarise(runs: dict) -> list[str]:
    lines = []
    pairs = len(runs["parent"])
    for name in CLAIMED:
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        wins = sum(c < p for p, c in zip(parent, change))
        gain = wins >= 0.9 * pairs and pm - cm > p3 - p1
        lines.append(f"{name}: parent {pm:.3f} [{p1:.3f}, {p3:.3f}]  "
                     f"change {cm:.3f} [{c1:.3f}, {c3:.3f}]  "
                     f"change lower in {wins} of {pairs}  "
                     f"gain {'shown' if gain else 'not shown'}")
    for name in sorted(set(runs["parent"][0]) - set(CLAIMED)):
        medians = [statistics.median(r[name] for r in runs[side]) for side in SIDES]
        lines.append(f"{name}: parent {medians[0]:.3f}  change {medians[1]:.3f}")
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="root of the parent checkout")
    p.add_argument("--change", required=True, help="root of the change's checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2, so that quartiles exist")

    checkouts = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in SIDES}
    for k in range(args.pairs):
        for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
            try:
                runs[side].append(run_once(checkouts[side], args.workload,
                                           args.seed, args.seconds))
            except RuntimeError as e:
                print(f"pair {k}, {side}: {e}", file=sys.stderr)
                return 1
        print(f"pair {k}: " + "  ".join(
            f"{side} " + json.dumps({n: round(v, 3) for n, v in runs[side][-1].items()})
            for side in SIDES), flush=True)
    print("\n".join(summarise(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
