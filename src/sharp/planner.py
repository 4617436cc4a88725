"""Pipeline orchestration: abstract search over options, training with a
policy cache, learned option costs, and composed-policy execution.

A solve maps the endpoints into abstract states, plans over the library's
options (plan_abstract, which alone decides when no option is needed),
trains (or reuses) one policy per option plus entry/exit bridge policies,
the trainings of one solve side by side in worker processes, and chains
everything into a finite-state controller whose stage advances when
the robot enters the termination region of the stage's guide.
"""

from __future__ import annotations

import hashlib
import heapq
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import pool, settings
from .abstraction import (RegionVoronoi, build_region_voronoi, cell_region,
                          endpoint_region, goal_region)
from .errors import (DivergedTraining, EmptyLibrary, NoAbstractPath,
                     OptionsDoNotChain, ShapeMismatch, SharpError)
from .learn import Policy, TrainConfig, actor_layers, train_option_policy
from .mlp import Mlp
from .options import (PENALTY_REWARD, TERMINAL_REWARD, OptionGuide, OptionKind,
                      OptionSpec, build_guide, synth_options)
from .regions import CriticalRegion
from .seeding import derive_rng, spawn
from .world import (Configuration, OccupancyWorld, padded_cells, steer_lanes, step_lanes,
                    world_hash)

log = logging.getLogger(__name__)

ENTRY = "__entry__"
EXIT = "__exit__"


@dataclass
class OptionLibrary:
    """Synthesized options for one world/kind, bound to their partition.

    guide_seed pins the guide construction stream per option, so a guide (and
    its fingerprint, which keys the policy cache) is identical every time it
    is recomputed for this library. Guides are spaced below one cell.
    """

    kind: str
    threshold: float
    guide_seed: int
    options: list
    rbvd: RegionVoronoi


def library_from_regions(world: OccupancyWorld, regions: list[CriticalRegion],
                         kind: str, threshold: float, guide_seed: int) -> OptionLibrary:
    """The library that anchor regions decide: their partition of the world
    (build_region_voronoi), then its options of kind at threshold."""
    rbvd = build_region_voronoi(world, regions)
    return OptionLibrary(kind=kind, threshold=threshold, guide_seed=guide_seed,
                         options=synth_options(rbvd, kind, threshold), rbvd=rbvd)


def guide_fingerprint(guide: OptionGuide, rbvd: RegionVoronoi) -> str:
    """Digest of everything that training on guide reads: its points, the
    pseudo-reward constants, its initiation and termination cells, and its
    allowed states with their cells in rbvd."""
    h = hashlib.sha256()
    for p in guide.points:
        h.update(f"{p.x:.9f},{p.y:.9f};".encode())
    h.update(f"{TERMINAL_REWARD:.9f};{PENALTY_REWARD:.9f};".encode())
    h.update(",".join(str(s) for s in sorted(guide.allowed_states)).encode())
    for cells in (guide.initiation.cells, guide.termination.cells,
                  *(rbvd.states[s].cells for s in sorted(guide.allowed_states))):
        h.update(("|" + ";".join(f"{x},{y}" for x, y in sorted(cells))).encode())
    return h.hexdigest()[:16]


# -- abstract plan -------------------------------------------------------------------


def astar(edges, start, goal, heuristic):
    """Generic A*: edges maps node -> [(dst, cost, payload)]. Returns
    (cost, [payloads]) or None. Deterministic tie-breaking by push order."""
    counter = 0
    open_heap: list = [(heuristic(start), counter, start)]
    g = {start: 0.0}
    parent: dict = {}
    closed: set = set()
    while open_heap:
        f, _, node = heapq.heappop(open_heap)
        if node in closed:
            continue
        if node == goal:
            payloads = []
            while node in parent:
                node, payload = parent[node]
                payloads.append(payload)
            return g[goal], payloads[::-1]
        closed.add(node)
        for dst, cost, payload in edges.get(node, ()):
            cand = g[node] + cost
            if cand < g.get(dst, math.inf) - 1e-15:
                g[dst] = cand
                parent[dst] = (node, payload)
                counter += 1
                heapq.heappush(open_heap, (cand + heuristic(dst), counter, dst))
    return None


def plan_abstract(library: OptionLibrary, s_start: int, s_goal: int,
                  goal_cfg: Configuration, costs: dict[str, float]) -> list:
    """Cost-minimal option sequence from s_start to s_goal; [] when no
    option is needed: the same state, or adjacent states of an interface
    library.

    Each option is an edge, taken in option-id order, from its src_states
    to its dst_states, at its learned cost in costs (by option id, as
    sharp_solve writes it), else at its prior. So the nodes are state
    tuples, at the representatives of the endpoint regions they name: a
    centroid library's are (i,), and the search runs from (s_start,) to
    (s_goal,); an interface library's are ordered adjacent pairs (i, j),
    and the search runs from a virtual ENTRY node at s_start's
    anchor centroid, with an edge to each pair that leaves s_start, to a
    virtual EXIT node at the goal, with an edge from each pair that enters
    s_goal after its option edges; a virtual edge costs the distance it
    spans. The heuristic, the distance to the goal scaled by the least cost
    per metre of any edge (at most 1), stays admissible as costs change.
    """
    interface = library.kind == OptionKind.INTERFACE
    if s_start == s_goal or (interface and library.rbvd.adjacent(s_start, s_goal)):
        return []
    if not library.options:
        raise EmptyLibrary("cannot plan over zero options")
    goal_xy = (goal_cfg.x, goal_cfg.y)
    edges: dict = {}       # node -> [(dst, cost, option, or None if virtual)]
    positions: dict = {}   # node -> (x, y)
    for o in sorted(library.options, key=lambda o: o.id):
        src, dst = o.src_states, o.dst_states
        edges.setdefault(src, []).append((dst, costs.get(o.id, o.prior), o))
        edges.setdefault(dst, [])
        positions[src] = (o.initiation.representative.x, o.initiation.representative.y)
        positions[dst] = (o.termination.representative.x, o.termination.representative.y)
    start, goal = (ENTRY, EXIT) if interface else ((s_start,), (s_goal,))
    if interface:
        anchor = library.rbvd.states[s_start].anchor.centroid
        positions[ENTRY], positions[EXIT] = (anchor.x, anchor.y), goal_xy
        for node, out in edges.items():
            if node[1] == s_goal:
                out.append((EXIT, max(math.dist(positions[node], goal_xy), 1e-9), None))
        edges[ENTRY] = [(node, max(math.dist(positions[ENTRY], positions[node]), 1e-9),
                         None) for node in edges if node[0] == s_start]
    scale = min([1.0] + [cost / d for node, out in edges.items() for dst, cost, _ in out
                         if (d := math.dist(positions[node], positions[dst])) > 1e-12])

    def h(node):
        p = positions.get(node)
        return 0.0 if p is None else scale * math.dist(p, goal_xy)

    res = astar(edges, start, goal, h)
    if res is None:
        raise NoAbstractPath(f"no option path from state {s_start} to {s_goal}")
    _, payloads = res
    return [p for p in payloads if p is not None]


# -- policy cache --------------------------------------------------------------------


@dataclass
class CacheEntry:
    """A trained option policy's actor, the option's cost in the costs table
    of the solve that trained it, and its training steps; the guide it reads
    is rebuilt from the library on every solve."""

    actor: Mlp
    cost: float
    training_steps: int


# -- composed policy -----------------------------------------------------------------


@dataclass
class Stage:
    """One controller stage. policy is memoryless: the waypoint each lane
    heads for is a function of its configuration alone. Its class provides
    the batched call that execute_composed makes, as learn.Policy does:
    lane_controller(world, policies) -> steer, built once from a list of
    policies of that class, and steer(slot, x, y, theta) -> (tx, ty), the
    waypoints of lanes at (x, y, theta) where lane i runs policies[slot[i]].
    A lane's waypoint must not depend on which lanes share the call. One
    execute_composed batch takes stage policies of one class only, and, for
    learn.Policy, actors of one layer shape."""

    label: str
    policy: object
    advance_cells: frozenset    # a stage but the last hands over on entering these


@dataclass
class ComposedPolicy:
    """Finite-state controller: bridge in, option stages, bridge out."""

    stages: list
    x_start: Configuration
    x_goal: Configuration
    goal_tol: float


@dataclass
class ExecutionTrace:
    stage_steps: list
    outcome: str                 # "reached_goal" | "stage_timeout"
    end: tuple                   # (x, y) where the execution stopped
    timeout_stage: int | None = None

    @property
    def total_steps(self) -> int:
        return sum(self.stage_steps)


NOISE_BLOCK = 32   # steps of noise a lane draws at a time
STALL_ROWS = 512   # (lane, tick) rows one step of stalled lanes takes at most


def execute_composed(world: OccupancyWorld, runs: list) -> list[list[ExecutionTrace]]:
    """Greedy executions of composed policies, all stepped in lockstep. runs
    holds (composed, per_stage_limit, rngs) tuples; each generator of a run
    is one lane of its composed policy, and the result holds, per run, one
    trace per generator.

    Every lane carries its run's start, goal, goal tolerance, stage table
    and stage limit, and its stage index only ever advances. A lane within
    its goal tolerance has reached the goal, in whatever stage it is;
    otherwise every stage except its run's last hands over on cell
    membership of its advance cells. A stage that has used its run's
    per_stage_limit steps and is not done times out. Every stage policy of
    every run must be of one class, and a learn.Policy's actors of one layer
    shape (Stage): one controller, built once from every (run, stage)
    policy, steers all live lanes in one call each tick, a lane's slot being
    its (run, stage) row. Then every live lane takes one world step with two
    standard normals of its own generator, drawn NOISE_BLOCK steps at a time
    (the same values as one draw of two per step). A lane's trace therefore
    does not depend on which other lanes, of its run or of another, run
    beside it.

    The controller keeps, between ticks, what depends only on the lanes'
    slots (Policy's: their guide rows and stacked forward layout), so that
    only a hand-over or a lane's end rebuilds it. Once no live lane is short
    of its run's last stage, the hand-over test is skipped for good, as
    stages only advance.

    Stalled ticks are skipped. When a tick leaves every live lane's
    (x, y, theta) as it was, the ticks after it repeat that tick exactly
    but for their noise: a stage policy is memoryless and a lane's waypoint
    does not depend on its co-lanes (Stage), so each lane heads for the same
    waypoint under the same command, and at an unchanged configuration the
    goal and hand-over tests give the answers they gave before it. So the
    engine skips the controller, the goal test and the hand-over test, and
    steps every lane over the next span ticks in one step_lanes call on
    (lane, tick) rows, each row with its own tick's noise. The span ends at
    the end of the noise block, at the first tick on which a lane's stage
    times out, and after max(1, STALL_ROWS // lanes) ticks, which bounds the
    rows, and so the memory, of one call. The lanes then stand where they
    stood for every leading tick in which no lane moved; the first tick
    that moves a lane is taken from the same call, and the next tick
    decides again. A lane's rows are stepped as its ticks one at a time
    would be, so every trace is byte for byte the one of stepping each
    tick.
    """
    # one row per (run, stage): its advance cells as a padded grid mask,
    # left empty for a run's last stage, and its policy, the controller's
    # slot of that row; a lane's stage is its row
    policies = [stage.policy for composed, _, _ in runs for stage in composed.stages]
    first_rows = np.cumsum([0] + [len(composed.stages) for composed, _, _ in runs])
    advance = np.zeros((len(policies), world.height + 2, world.width + 2), dtype=bool)
    for (composed, _, _), row in zip(runs, first_rows):
        for i, stage in enumerate(composed.stages[:-1]):
            for ix, iy in filter(world.in_bounds, stage.advance_cells):
                advance[row + i, iy + 1, ix + 1] = True
    steer = type(policies[0]).lane_controller(world, policies) if policies else None
    rngs = [rng for _, _, run_rngs in runs for rng in run_rngs]
    bounds = np.cumsum([0] + [len(run_rngs) for _, _, run_rngs in runs])
    run_of = np.repeat(np.arange(len(runs)), np.diff(bounds))

    def per_lane(values, dtype=float) -> np.ndarray:
        return np.array(values, dtype=dtype)[run_of]

    # the live lanes; ids[r] is the lane that row r of each array holds
    ids = np.arange(len(rngs))
    first = first_rows[run_of]
    last = first_rows[1:][run_of] - 1
    x = per_lane([c.x_start.x for c, _, _ in runs])
    y = per_lane([c.x_start.y for c, _, _ in runs])
    theta = per_lane([c.x_start.theta or 0.0 for c, _, _ in runs])
    gx = per_lane([c.x_goal.x for c, _, _ in runs])
    gy = per_lane([c.x_goal.y for c, _, _ in runs])
    tol = per_lane([c.goal_tol for c, _, _ in runs])
    limit = per_lane([limit for _, limit, _ in runs], np.int64)
    stage = first.copy()
    used = np.zeros(len(ids), dtype=np.int64)
    noise = np.empty((len(ids), NOISE_BLOCK, 2))   # by lane, not by row
    stage_steps = [[] for _ in ids]
    traces: list = [None] * len(ids)

    def finish(rows: np.ndarray, outcome: str) -> None:
        for r in rows:
            stage_steps[ids[r]].append(int(used[r]))
            timeout_stage = (int(stage[r] - first[r]) if outcome == "stage_timeout"
                             else None)
            traces[ids[r]] = ExecutionTrace(stage_steps[ids[r]], outcome,
                                            (float(x[r]), float(y[r])), timeout_stage)

    tick = 0
    handing = True   # until no live lane is short of its run's last stage
    held = None      # the last tick's commands, while that tick moved no lane
    while len(ids):
        if held is None:
            # finish, hand over (as often as needed) or time out before stepping
            d = np.fromiter(map(math.hypot, (x - gx).tolist(), (y - gy).tolist()),
                            np.float64, count=len(ids))
            ended = d <= tol
            finish(ended.nonzero()[0], "reached_goal")
            if handing:
                moving = (~ended & (stage < last)).nonzero()[0]
                handing = len(moving) > 0
                while len(moving):
                    iy, ix = padded_cells(world, x[moving], y[moving])
                    moving = moving[advance[stage[moving], iy, ix]]
                    for r in moving:
                        stage_steps[ids[r]].append(int(used[r]))
                    stage[moving] += 1
                    used[moving] = 0
                    moving = moving[stage[moving] < last[moving]]
        else:
            ended = np.zeros(len(ids), dtype=bool)
        timed_out = ~ended & (used >= limit)
        finish(timed_out.nonzero()[0], "stage_timeout")
        ended |= timed_out
        if ended.any():
            keep = ~ended
            ids, x, y, theta, stage, used, first, last, gx, gy, tol, limit = (
                a[keep] for a in (ids, x, y, theta, stage, used, first, last, gx, gy,
                                  tol, limit))
            if held is not None:
                held = [a if a is None else a[keep] for a in held]
            if len(ids) == 0:
                break
        k = tick % NOISE_BLOCK
        if k == 0:
            for lane in ids:
                noise[lane] = rngs[lane].standard_normal(2 * NOISE_BLOCK).reshape(-1, 2)
        if held is None:
            held = steer_lanes(world, x, y, theta, *steer(stage, x, y, theta))
            span = 1
        else:
            span = min(NOISE_BLOCK - k, int((limit - used).min()),
                       max(1, STALL_ROWS // len(ids)))
        # row r * span + j is lane r's tick k + j
        rows = [a if a is None else np.repeat(a, span) for a in (x, y, theta, *held)]
        after = step_lanes(world, *rows[:5], noise[ids, k:k + span].reshape(-1, 2),
                           rows[5])
        # the lanes take the span's first tick that moves one of them
        moved = (rows[0] != after[0]) | (rows[1] != after[1]) | (rows[2] != after[2])
        moved = moved.reshape(-1, span).any(axis=0)
        if moved.any():
            j = int(moved.argmax())
            x, y, theta = (a.reshape(-1, span)[:, j] for a in after)
            held = None
            span = j + 1
        used += span
        tick += span
    return [traces[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


# -- solve ---------------------------------------------------------------------------


@dataclass
class SolveStats:
    plan_option_ids: list = field(default_factory=list)
    options_trained: int = 0
    options_reused: int = 0
    training_steps: int = 0          # new environment steps spent training
    # (stage label, success fraction at the stage's last training evaluation),
    # in stage order; None for a policy reused from the cache
    stage_success: list = field(default_factory=list)


def _train_guide(world, rbvd, guide, cfg: TrainConfig, rng):
    """(actor, TrainStats) of one stage's training, or the SharpError it
    raised, which the solve raises in stage order; a divergence names the
    stage."""
    try:
        policy, stats = train_option_policy(world, guide, rbvd, cfg, rng)
    except DivergedTraining as e:
        return DivergedTraining(f"training {guide.option_id}: {e}")
    except SharpError as e:
        return e
    return policy.actor, stats


def _arc_length(guide: OptionGuide) -> float:
    """Length of the polyline through the guide's points."""
    return float(np.hypot(*np.diff(guide.xy, axis=0).T).sum())


def train_stages(world, rbvd, cfg: TrainConfig, jobs: list) -> list:
    """Train one policy per (guide, rng) pair; returns, in pair order, each
    training's (actor, TrainStats) or the SharpError it raised.

    The trainings are independent and each draws from its own generator,
    so they run on pool.workers_for(len(jobs)) forked worker processes, or
    inline on one CPU, with the same results. They are dispatched longest
    guide first (by arc length, ties in pair order), so that the longest
    training, which a later stage often holds, does not start last on a
    worker that has already trained another (Graham's longest-processing-
    time rule); each result is put back at its pair's index. The workers
    send back the actor, which pickles as its layer sizes and parameters,
    and the stats.
    """
    order = sorted(range(len(jobs)), key=lambda i: -_arc_length(jobs[i][0]))
    with pool.fork_starmap(_train_guide, [(world, rbvd, jobs[i][0], cfg, jobs[i][1])
                                          for i in order],
                           pool.workers_for(len(jobs))) as results:
        trained = dict(zip(order, results()))
    return [trained[i] for i in range(len(jobs))]


@dataclass
class _PendingStage:
    """A stage whose guide is built: its policy is the cache entry hit, or
    is trained on train_rng."""

    label: str
    guide: OptionGuide
    option: OptionSpec | None = None
    key: str | None = None
    hit: CacheEntry | None = None
    train_rng: np.random.Generator | None = None


def sharp_solve(world: OccupancyWorld, x_i: Configuration, x_g: Configuration,
                library: OptionLibrary, cache: dict[str, CacheEntry],
                costs: dict[str, float], cfg: TrainConfig, rng: np.random.Generator,
                goal_tol: float) -> tuple[ComposedPolicy, SolveStats]:
    """Plan at the abstract level, train or reuse option policies, compose.

    A solve is one chain of legs, each guide built by build_guide: bridge_in
    from x_i's cell to the entry region, each planned option between its
    endpoint regions within its states, and bridge_out from the exit region
    to the goal ball of radius goal_tol. Entry and exit are the plan's first
    initiation and last termination region, or, with no option, the
    endpoint region of the start and goal states. Every stage hands over
    where its guide terminates, which is where the next guide begins. One
    warning names every stage whose training ended at 0.0 success.

    costs maps option ids to learned costs, which plan_abstract reads before
    priors, and the solve is its one writer: a cache hit writes its entry's
    cost, and a trained option with a successful final rollout the mean
    step count of those rollouts. The library is left as it was.

    cache maps `<world hash>/<option id>/<guide fingerprint>/<TrainConfig
    digest>` to a CacheEntry; a hit pairs the cached actor with the guide
    recomputed here, whose fingerprint the key carries. A hit whose actor
    lacks the layer sizes cfg trains (actor_layers) fails its stage with
    ShapeMismatch.

    The solve runs in two steps. First every leg's guide is built and its
    training generator drawn from rng, in stage order. Then every policy
    that needs training trains at once (train_stages, which dispatches them
    longest guide first and returns them in stage order), and the stages are
    assembled in stage order: stats, cache entries and option costs are
    applied stage by stage, and the first stage that failed (its guide, its
    chaining, its cache hit or its training) raises, after the stages before
    it were applied.
    """
    rbvd = library.rbvd
    whash = world_hash(world)
    s_start = rbvd.state_of(x_i).id
    s_goal = rbvd.state_of(x_g).id
    stats = SolveStats()

    plan = plan_abstract(library, s_start, s_goal, x_g, costs)
    stats.plan_option_ids = [o.id for o in plan]
    if plan:
        entry, exit_ = plan[0].initiation, plan[-1].termination
        entry_allowed = frozenset({s_start} | set(plan[0].src_states))
        exit_allowed = frozenset({s_goal} | set(plan[-1].dst_states))
    else:
        # no option is needed: the endpoint region of the one or two states
        entry = exit_ = endpoint_region(rbvd, tuple(sorted({s_start, s_goal})),
                                        library.threshold)
        entry_allowed = exit_allowed = frozenset({s_start, s_goal})
    # (stage label, guide id, initiation, termination, allowed states, option)
    legs = [("bridge_in", "bridge-in", cell_region(world, x_i), entry, entry_allowed,
             None),
            *((o.id, o.id, o.initiation, o.termination, frozenset(o.states), o)
              for o in plan),
            ("bridge_out", "bridge-out", exit_, goal_region(world, x_g, goal_tol),
             exit_allowed, None)]
    pending: list[_PendingStage] = []
    failure: SharpError | None = None   # the first stage that cannot be built
    layers = actor_layers(world, cfg)

    try:
        for label, guide_id, initiation, termination, allowed, option in legs:
            if pending and pending[-1].guide.termination.cells != initiation.cells:
                raise OptionsDoNotChain(
                    f"options {pending[-1].label} -> {label} do not chain")
            guide_rng = (spawn(rng) if option is None else
                         derive_rng("guide", whash, library.guide_seed, option.id))
            guide = build_guide(world, rbvd, guide_id, initiation, termination,
                                allowed, guide_rng)
            key = hit = None
            if option is not None:
                key = (f"{whash}/{option.id}/{guide_fingerprint(guide, rbvd)}/"
                       f"{settings.digest(cfg)}")
                hit = cache.get(key)
                if hit is not None and hit.actor.layer_sizes != layers:
                    raise ShapeMismatch(f"policy cache entry {key!r} holds a "
                                        f"{list(hit.actor.layer_sizes)} actor, not "
                                        f"{list(layers)}")
            pending.append(_PendingStage(label, guide, option, key, hit,
                                         spawn(rng) if hit is None else None))
    except SharpError as e:
        failure = e

    trained = iter(train_stages(world, rbvd, cfg, [
        (p.guide, p.train_rng) for p in pending if p.hit is None]))
    stages = []
    for p in pending:
        if p.hit is not None:
            policy = Policy(actor=p.hit.actor, guide=p.guide)
            costs[p.option.id] = p.hit.cost
            stats.options_reused += 1
            stats.stage_success.append((p.label, None))
        else:
            result = next(trained)
            if isinstance(result, SharpError):
                raise result
            actor, tstats = result
            policy = Policy(actor=actor, guide=p.guide)
            stats.training_steps += tstats.steps
            stats.stage_success.append((p.label, tstats.success_fraction))
            if p.option is not None:
                stats.options_trained += 1
                if tstats.final_success_steps:
                    costs[p.option.id] = max(
                        float(np.mean(tstats.final_success_steps)), 1e-6)
                cache[p.key] = CacheEntry(
                    actor=actor, cost=costs.get(p.option.id, p.option.prior),
                    training_steps=tstats.steps)
        stages.append(Stage(label=p.label, policy=policy,
                            advance_cells=p.guide.termination.cells))
    failed = [label for label, success in stats.stage_success if success == 0.0]
    if failed:
        log.warning("training ended at 0.0 success in stage(s) %s", ", ".join(failed))
    if failure is not None:
        raise failure

    composed = ComposedPolicy(stages=stages, x_start=x_i, x_goal=x_g,
                              goal_tol=goal_tol)
    return composed, stats
