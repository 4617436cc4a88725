"""Tests for the benchmark harness's own code: python3 -m pytest -q bench"""

import json
import os
import re
import sys
import types

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import run  # noqa: E402
from probe import SpeedProbe, trimmed_mean  # noqa: E402
from tracer import Target, Tracer, instrument  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def fake_clock(*ticks):
    return iter(ticks).__next__


class Boom(Exception):
    pass


def test_wrapper_returns_value_and_counts_exceptions():
    tracer = Tracer()

    def add(a, b=0):
        return a + b

    def fail():
        raise Boom("no")

    wrapped_add = tracer.wrap(add, "add")
    wrapped_fail = tracer.wrap(fail, "fail")
    assert wrapped_add(2, b=3) == 5
    with pytest.raises(Boom, match="no"):
        wrapped_fail()
    stats = tracer.summary()
    assert stats["add"].calls == 1 and stats["add"].errors == 0
    assert stats["fail"].calls == 1 and stats["fail"].errors == 1
    assert wrapped_add.__name__ == "add"


def test_span_name_chosen_per_call_and_result_hook():
    tracer = Tracer()
    seen = []
    f = tracer.wrap(lambda x: x * 2, lambda x: "big" if x > 9 else "small",
                    on_result=lambda t, r: seen.append(r))
    f(1), f(20), f(3)
    stats = tracer.summary()
    assert stats["small"].calls == 2 and stats["big"].calls == 1
    assert seen == [2, 40, 6]


def test_self_time_on_nested_and_sibling_spans():
    # outer [0, 10] holds siblings a [1, 3] and b [4, 8]; b holds c [5, 6]
    tracer = Tracer(clock=fake_clock(0, 1, 3, 4, 5, 6, 8, 10))
    c = tracer.wrap(lambda: None, "c")

    def b_body():
        c()

    a = tracer.wrap(lambda: None, "a")
    b = tracer.wrap(b_body, "b")

    def outer_body():
        a()
        b()

    tracer.wrap(outer_body, "outer")()
    s = tracer.summary()
    assert s["outer"].busy_s == 10 and s["outer"].self_s == 10 - 2 - 4
    assert s["a"].self_s == 2
    assert s["b"].busy_s == 4 and s["b"].self_s == 3
    assert s["c"].self_s == 1
    arrays = tracer.arrays()
    names = [tracer.names[i] for i in arrays["name_id"]]
    parents = [names[p] if p >= 0 else None for p in arrays["parent"]]
    assert dict(zip(names, parents)) == {"outer": None, "a": "outer", "b": "outer",
                                         "c": "b"}


def test_self_time_survives_an_exception_in_a_child():
    tracer = Tracer(clock=fake_clock(0, 2, 5, 9))

    def child():
        raise Boom()

    wrapped_child = tracer.wrap(child, "child")

    def parent():
        with pytest.raises(Boom):
            wrapped_child()

    tracer.wrap(parent, "parent")()
    s = tracer.summary()
    assert s["child"].busy_s == 3 and s["child"].errors == 1
    assert s["parent"].self_s == 9 - 3


def test_busy_outside_skips_spans_under_the_excluded_name():
    tracer = Tracer(clock=fake_clock(0, 1, 2, 3, 10, 14))
    train = tracer.wrap(lambda: None, "train")
    tracer.wrap(lambda: train(), "baseline")()
    train()
    assert tracer.busy_outside("train", "baseline") == 4
    assert tracer.busy_outside("missing", "baseline") == 0.0


def test_instrument_patches_every_binding_and_restores():
    mod_a = types.ModuleType("mod_a")
    exec("def f(x):\n    return x + 1\n\ndef g(x):\n    return f(x) * 10\n",
         mod_a.__dict__)
    mod_b = types.ModuleType("mod_b")
    mod_b.f = mod_a.f          # bound by name, as `from mod_a import f` does
    original = mod_a.f

    tracer = Tracer()
    with instrument(tracer, [Target(mod_a, "f", "a.f")], [mod_a, mod_b]):
        assert mod_b.f is not original and mod_a.f is not original
        assert mod_b.f(1) == 2
        assert mod_a.g(1) == 20   # calls through mod_a's own global
    assert mod_a.f is original and mod_b.f is original
    assert tracer.summary()["a.f"].calls == 2


def test_instrument_restores_after_an_error_and_wraps_methods():
    class Thing:
        def go(self, v):
            return v * 3

    original = Thing.__dict__["go"]
    tracer = Tracer()
    with pytest.raises(Boom):
        with instrument(tracer, [Target(Thing, "go", "thing.go")], []):
            assert Thing().go(2) == 6
            raise Boom()
    assert Thing.__dict__["go"] is original
    assert tracer.summary()["thing.go"].calls == 1


def test_sharp_bindings_patched_then_restored():
    from sharp import learn, mlp, planner, world
    modules = harness.sharp_modules()
    before = {m.__name__: dict(vars(m)) for m in modules}
    classes = (world.OccupancyWorld, mlp.Adam, learn.SacLearner)
    before_cls = {c: dict(vars(c)) for c in classes}
    with instrument(Tracer(), harness.trace_targets(), modules):
        assert learn.mlp_forward_cached is not before["sharp.learn"]["mlp_forward_cached"]
        assert learn.step is not before["sharp.learn"]["step"]
        assert planner.train_option_policy is not before["sharp.planner"][
            "train_option_policy"]
        assert learn.step is world.step
    for m in modules:
        assert all(vars(m)[k] is v for k, v in before[m.__name__].items()), m
    for c in classes:
        assert all(vars(c)[k] is v for k, v in before_cls[c].items()), c


def test_traced_calls_return_what_untraced_calls_do():
    from sharp import mlp
    from sharp.errors import ShapeMismatch
    rng = np.random.default_rng(3)
    net = mlp.init_mlp(6, (8, 8), 4, rng)
    x = rng.normal(size=(5, 6))
    plain = mlp.mlp_forward(net, x)
    tracer = Tracer()
    with instrument(tracer, harness.trace_targets(), harness.sharp_modules()):
        traced = mlp.mlp_forward(net, x)
        mlp.mlp_forward(net, x[0])
        with pytest.raises(ShapeMismatch):
            mlp.mlp_forward(net, np.zeros((2, 3)))
    np.testing.assert_array_equal(plain, traced)
    s = tracer.summary()
    assert s["mlp.forward.batch"].calls == 2 and s["mlp.forward.batch"].errors == 1
    assert s["mlp.forward.b1"].calls == 1


def test_unexpected_exceptions_are_counted_not_raised(monkeypatch):
    from sharp import experiment

    def chain_broken(*args, **kwargs):
        raise AssertionError("options do not chain")

    monkeypatch.setattr(experiment, "run_experiment", chain_broken)
    monkeypatch.setattr(experiment, "build_library", chain_broken)
    smoke = harness.WORKLOADS["smoke-experiment"]
    spec = harness.smoke_spec(0)
    outcome = smoke.iterate((spec, "unused"))
    assert outcome.attempted == outcome.failed == len(spec.problems) * 3
    abstraction = harness.WORKLOADS["abstraction"]
    outcome = abstraction.iterate(abstraction.setup(0, "unused"))
    assert outcome.attempted == outcome.failed == len(abstraction.worlds)


def test_speed_probe_samples_and_restores_the_handler():
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        t_end = time.perf_counter() + 0.6
        while time.perf_counter() < t_end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 5
    assert 0.5 < probe.wall_s < 0.6 + 1e-3 and probe.scaled_s > 0


def test_trimmed_mean_drops_outliers():
    assert trimmed_mean([1.0] * 8 + [0.0, 100.0]) == 1.0
    assert trimmed_mean([2.0]) == 2.0


def test_names_follow_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = ([w["name"] for w in bench["workloads"]]
             + [m["name"] for m in bench["end_to_end"] + bench["per_layer"]])
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == \
        [(name, w.why) for name, w in harness.WORKLOADS.items()]
    assert list(run.WORKLOAD_NAMES) == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        harness.per_layer_specs()
    e2e = {m["name"] for m in bench["end_to_end"]}
    assert e2e == set(harness.E2E_UNITS)


def test_a_traced_run_reports_every_per_layer_metric():
    reported = (set(harness.span_metrics(Tracer())) | set(harness.quality_metrics([]))
                | set(harness.MICRO_METRICS) | {"trace.overhead_ratio"})
    assert reported == {name for name, _, _ in harness.per_layer_specs()}


def test_pin_blas_refuses_after_numpy_import():
    assert "numpy" in sys.modules
    with pytest.raises(RuntimeError, match="numpy"):
        run.pin_blas()


def test_setup_in_a_fresh_interpreter_matches_one_in_process(tmp_path):
    wl = harness.WORKLOADS["abstraction"]
    report = harness.timed_setup(wl.name, 3, str(tmp_path))
    assert report["fingerprint"] == wl.fingerprint(wl.setup(3, str(tmp_path)))
    assert report["samples"] >= 5
    assert 0 < report["wall_s"] < 60 and report["scaled_s"] > 0
