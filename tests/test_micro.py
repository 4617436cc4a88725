"""bench/micro.py binds package names that only a benchmark run reaches; a
src/ change that renames or re-signs one breaks it here first."""

import importlib
import math
import os

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "bench")


def test_micro_timings_run(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    micro = importlib.import_module("micro")
    figures = micro.run_micro(0)
    assert len(figures) == 12
    assert all(math.isfinite(v) and v > 0 for v in figures.values()), figures
