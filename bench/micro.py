"""Kernel micro-timings: one layer function called in a tight loop.

Each figure is the median, over several repeats, of the mean time per call
in microseconds. Shapes follow the learner: batch 128 for the SAC critic
(8 inputs: 6 observation + 2 action, 1 output) and batch 1 for a policy
forward pass; world kernels run on the bundled env_a map.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from sharp import learn, mlp, options, world
from sharp.abstraction import Region, build_region_voronoi
from sharp.experiment import desk_train_config
from sharp.options import OptionGuide
from sharp.regions import CriticalRegion
from sharp.world import Configuration
from sharp.worlds import RECIPES

REPEATS = 5
REPEAT_SECONDS = 0.04


def time_call_us(fn) -> float:
    """Median over REPEATS of the mean microseconds per fn() call."""
    fn()
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    number = max(1, int(REPEAT_SECONDS / once))
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t0) / number * 1e6)
    return statistics.median(samples)


def _mlp_kernels(hidden: int, rng) -> dict:
    net = mlp.init_mlp(8, (hidden, hidden), 1, rng)
    x = rng.normal(size=(128, 8))
    _, cache = mlp.mlp_forward_cached(net, x)
    upstream = rng.normal(size=(128, 1)) / 128
    grads, _ = mlp.mlp_backward(net, cache, upstream)
    opt = mlp.Adam(lr=1e-6)
    h = f"h{hidden}"
    return {
        f"micro.mlp.forward.b128.{h}_us":
            time_call_us(lambda: mlp.mlp_forward_cached(net, x)),
        f"micro.mlp.backward.b128.{h}_us":
            time_call_us(lambda: mlp.mlp_backward(net, cache, upstream)),
        f"micro.mlp.adam.{h}_us": time_call_us(lambda: opt.step(net, grads)),
    }


def _sac_update_us(rng) -> float:
    cfg = desk_train_config()
    learner = learn.SacLearner(6, 2, cfg, rng)
    buffer = learn.ReplayBuffer(1000, 6, 2)
    for _ in range(1000):
        buffer.add(rng.uniform(-1, 1, 6), rng.uniform(-1, 1, 2),
                   float(rng.normal()), rng.uniform(-1, 1, 6), False)
    return time_call_us(lambda: learner.update(buffer, rng))


def _world_kernels(rng) -> dict:
    w = RECIPES["env_a"].build()
    c = Configuration(3.1, 3.2)
    a = world.steer_toward(w, c, (3.5, 3.5))
    guide_pts = [Configuration(1.25 + 0.4 * k, 1.25 + 0.4 * k) for k in range(30)]
    anchors = [CriticalRegion(frozenset({(2, 2)}), Configuration(1.25, 1.25), 1.0),
               CriticalRegion(frozenset({(22, 7)}), Configuration(11.25, 3.75), 1.0)]
    rbvd = build_region_voronoi(w, anchors)
    guide = OptionGuide(
        option_id="micro", initiation=Region(frozenset({(2, 2)}), guide_pts[0]),
        termination=Region(frozenset({(26, 26)}), guide_pts[-1]),
        points=guide_pts, allowed_states=frozenset({0, 1}))
    return {
        "micro.world.step_us": time_call_us(lambda: world.step(w, c, a, rng)),
        "micro.world.segment_free_us":
            time_call_us(lambda: w.segment_free((1.25, 1.25), (6.25, 6.25))),
        "micro.options.pseudo_reward_us":
            time_call_us(lambda: options.pseudo_reward(guide, rbvd, c)),
        "micro.learn.build_observation_us":
            time_call_us(lambda: learn.build_observation(w, guide, c)),
    }


def run_micro(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    out = {}
    for hidden in (64, 256):
        out.update(_mlp_kernels(hidden, rng))
    net = mlp.init_mlp(6, (64, 64), 4, rng)
    x1 = rng.normal(size=6)
    out["micro.mlp.forward.b1.h64_us"] = time_call_us(
        lambda: mlp.mlp_forward_cached(net, x1))
    out["micro.learn.sac_update.h64_us"] = _sac_update_us(rng)
    out.update(_world_kernels(rng))
    return out
