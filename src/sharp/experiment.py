"""Experiment orchestration: the multi-problem evaluation protocol.

One experiment builds (or loads) the abstraction and option library once per
world, then runs each seed in two phases. First it solves the problem list
in order, sharing a policy cache, which fixes every baseline's budget. Then,
while the replanning RRT baseline runs in a worker process, it trains the
monolithic baseline of each problem under a budget matched to the solve and
evaluates the seed's composed and monolithic policies in one lockstep lane
batch. Everything is derived from explicit seeds, so identical specs produce
byte-identical result files.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import artifacts, pool, settings
from .abstraction import goal_tolerance
from .errors import InCollision, NoRegions, ParseError, SharpError, in_file
from .learn import TrainConfig, train_monolithic_policy
from .motion import execute_with_replan
from .planner import (ComposedPolicy, OptionLibrary, Stage, execute_composed,
                      library_from_regions, sharp_solve)
from .regions import (DENSITY_STREAM_RULE, CriticalRegion, collect_solution_density,
                      connected_components, extract_critical_regions, grid_bfs,
                      percentile_threshold)
from .seeding import derive_rng
from .world import (Configuration, OccupancyWorld, parse_sidecar,
                    require_free_endpoints, start_heading, world_from_text, world_hash)
from .worlds import RECIPES, WorldRecipe

log = logging.getLogger(__name__)

CSV_HEADER = ["env", "problem", "method", "seed", "success_rate", "mean_steps",
              "training_steps", "options_trained", "options_reused", "error"]

STAGE_LIMIT = 400   # default step limit of one composed-policy stage
FALLBACK_PERCENTILE = 80.0   # select_regions' retry when no region survives


@dataclass(frozen=True)
class AbstractionParams:
    """Settings for the density-to-library front end.

    percentile places the region threshold among the nonzero density values;
    threshold, when set, replaces it. If no component of at least min_cells
    cells clears that threshold, select_regions retries once at the 80th
    percentile; that fallback is this codebase's choice, not the paper's.
    """

    n_goals: int = 30
    inits_per_goal: int = 10
    percentile: float = 96.0
    threshold: float | None = None       # absolute override of the percentile rule
    min_cells: int = 3
    max_regions: int | None = None
    region_threshold: float | None = None  # endpoint ball radius; default 2 cells
    seed: int = 0

    def __post_init__(self):
        if self.n_goals < 1 or self.inits_per_goal < 1:
            raise ValueError("n_goals and inits_per_goal must be positive")
        if not 0.0 <= self.percentile <= 100.0:
            raise ValueError(f"percentile must lie in [0, 100], got {self.percentile}")
        if self.min_cells < 1 or (self.max_regions is not None and self.max_regions < 1):
            raise ValueError("min_cells and max_regions must be positive")
        if self.threshold is not None and not 0.0 <= self.threshold < math.inf:
            raise ValueError(f"threshold must be finite and non-negative, "
                             f"got {self.threshold}")
        if (self.region_threshold is not None
                and not 0.0 < self.region_threshold < math.inf):
            raise ValueError(f"region_threshold must be finite and positive, "
                             f"got {self.region_threshold}")


def desk_train_config() -> TrainConfig:
    """Training settings sized for the bundled desk worlds."""
    return TrainConfig(max_steps=30_000, eval_every=2_000, stop_avg_reward=800.0,
                       hidden=(64, 64), batch_size=128, actor_lr=2e-3,
                       critic_lr=2e-3, entropy_coef=0.1, start_steps=1_000,
                       episode_limit=150)


def smoke_train_config() -> TrainConfig:
    """Cross-entropy smoke settings: exercises the full pipeline cheaply."""
    return TrainConfig(learner="cem", max_steps=2_000, eval_every=1_000,
                       eval_episodes=5, episode_limit=60, cem_population=6,
                       cem_iters=2, hidden=(8, 8))


# training profile name -> TrainConfig factory, for config files and the CLI
TRAIN_PROFILES = {"desk": desk_train_config, "smoke": smoke_train_config,
                  "default": TrainConfig}
DEFAULT_PROFILE = "desk"   # the profile of a spec, config or command that names none


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise SharpError(f"cannot read {path}: {e.strerror}") from None


def load_world(ref: str) -> tuple[OccupancyWorld, str, WorldRecipe | None]:
    """The world that ref names, its name and its recipe: the one resolver
    of a world reference. A bundled world's name gives its recipe. Any other
    ref is a world text file (its sidecar `<file>.cfg` applies when present)
    named after its stem, and gets no recipe, whatever that stem is. A
    ParseError names the file at fault: the sidecar for its own lines, the
    world file for the grid and for physics that OccupancyWorld rejects."""
    if ref in RECIPES:
        return RECIPES[ref].build(), ref, RECIPES[ref]
    text = _read_text(ref)
    overrides = {}
    if os.path.exists(ref + ".cfg"):
        with in_file(ref + ".cfg"):
            overrides = parse_sidecar(_read_text(ref + ".cfg"))
    with in_file(ref):
        try:
            world = world_from_text(text, **overrides)
        except ValueError as e:
            raise ParseError(str(e)) from None
    return world, os.path.splitext(os.path.basename(ref))[0], None


def select_regions(world: OccupancyWorld, density: np.ndarray,
                   params: AbstractionParams) -> tuple[list[CriticalRegion], float]:
    """Anchor regions for the partition, and the density threshold used.

    The threshold is params.threshold, else params.percentile of the nonzero
    density. If no component survives it, extraction is retried once at the
    80th percentile. The first max_regions regions are kept. If only one is
    left, anchors are added so that a world whose density has a single peak
    still partitions. When removing the region's cells splits the free
    cells it reaches, as a door does between two rooms, each of the two
    largest sides (the one with the lowest cell on ties) gets one anchor:
    its cell geodesically farthest from the region. The region is then a
    state of its own between the two sides. Otherwise the one free cell
    farthest from the region is added. Farthest means the lowest cell on
    ties.

    The paper does not say what the abstraction is when the density yields
    fewer than two critical regions: the retry and the added anchors are
    this codebase's choice. Worlds that yield two or more regions at the
    requested threshold get exactly the regions of extract_critical_regions.
    """
    threshold = params.threshold
    if threshold is None:
        threshold = percentile_threshold(density, params.percentile)
    try:
        regions = extract_critical_regions(world, density, threshold=threshold,
                                           min_cells=params.min_cells)
    except NoRegions:
        threshold = percentile_threshold(density, FALLBACK_PERCENTILE)
        regions = extract_critical_regions(world, density, threshold=threshold,
                                           min_cells=params.min_cells)
    if params.max_regions is not None:
        regions = regions[:params.max_regions]
    if len(regions) == 1:
        lone = regions[0].cells
        reach = grid_bfs([(c, None) for c in sorted(lone)], world.cell_free)
        sides = connected_components(set(reach) - lone)
        if len(sides) < 2:   # no split: one anchor, farthest of all
            sides = [set(reach)]
        sides = sorted(sides, key=lambda side: (-len(side), min(side)))[:2]
        for side in sides:
            far = min(side, key=lambda c: (-reach[c][0], c))
            if far not in lone:
                regions = regions + [CriticalRegion(
                    cells=frozenset([far]),
                    centroid=Configuration(*world.cell_center(far)),
                    score=float(density[far[1], far[0]]))]
    return regions, threshold


def density_and_regions(world: OccupancyWorld, params: AbstractionParams
                        ) -> tuple[np.ndarray, list[CriticalRegion], float]:
    """The front end of a library: the solution density collected on
    derive_rng("abstraction", world_hash(world), params.seed), and the
    regions and threshold that select_regions picks from it."""
    rng = derive_rng("abstraction", world_hash(world), params.seed)
    density = collect_solution_density(world, params.n_goals,
                                       params.inits_per_goal, rng)
    return (density, *select_regions(world, density, params))


def build_library(world: OccupancyWorld, kind: str,
                  params: AbstractionParams) -> tuple[np.ndarray, OptionLibrary]:
    """Density -> critical regions -> partition -> option endpoints.

    Regions come from select_regions, which on single-peak densities lowers
    the threshold or adds farthest-cell anchors (a fallback that is not from
    the paper) rather than fail.
    """
    density, regions, _ = density_and_regions(world, params)
    t = params.region_threshold
    if t is None:
        t = 2.0 * world.cell_size
    return density, library_from_regions(world, regions, kind, t, params.seed)


def library_cache_path(cache_dir: str, whash: str, kind: str,
                       params: AbstractionParams) -> str:
    """`library_<kind>_<digest>.json` in the world's cache directory; the
    digest covers every AbstractionParams field and the density's stream
    rule (regions.DENSITY_STREAM_RULE), so changed settings or a file built
    under another rule miss."""
    key = settings.digest((DENSITY_STREAM_RULE, params))
    return os.path.join(artifacts.cache_dir_for(cache_dir, whash),
                        f"library_{kind}_{key}.json")


def load_or_build_library(world: OccupancyWorld, kind: str,
                          params: AbstractionParams,
                          cache_dir: str | None) -> OptionLibrary:
    """Abstraction construction is cached per (world, kind, params) when possible."""
    whash = world_hash(world)
    path = None
    if cache_dir is not None:
        if os.path.exists(cache_dir) and not os.path.isdir(cache_dir):
            raise SharpError(f"cache directory {cache_dir} is not a directory")
        path = library_cache_path(cache_dir, whash, kind, params)
        if os.path.exists(path):
            payload = artifacts.load_artifact(path, "option-library", whash)
            return artifacts.library_from_payload(payload, world, path)
    _, library = build_library(world, kind, params)
    if path is not None:
        artifacts.save_artifact(path, "option-library", whash,
                                artifacts.library_payload(library), make_dirs=True)
    return library


# -- experiment specification ---------------------------------------------------------


@dataclass
class ExperimentSpec:
    name: str
    world: OccupancyWorld
    kind: str
    problems: list                      # (Configuration, Configuration) pairs
    seeds: list[int] = field(default_factory=lambda: [0])
    abstraction: AbstractionParams = field(default_factory=AbstractionParams)
    train: TrainConfig = field(default_factory=TRAIN_PROFILES[DEFAULT_PROFILE])
    stage_limit: int = STAGE_LIMIT
    eval_episodes: int = 20
    goal_tol: float | None = None
    run_rrt_replan: bool = True
    run_monolithic: bool = True
    monolithic_all_seeds: bool = False  # default: flat baseline on first seed only

    def __post_init__(self):
        if not self.problems:
            raise ValueError("an experiment needs at least one problem")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must differ, got {self.seeds}")
        if self.kind not in ("centroid", "interface"):
            raise ValueError(f"kind must be centroid or interface, got {self.kind!r}")
        if self.eval_episodes < 1:
            raise ValueError("eval_episodes must be positive")
        if self.stage_limit < 1:
            raise ValueError("stage_limit must be positive")
        if self.goal_tol is not None and not 0.0 < self.goal_tol < math.inf:
            raise ValueError(f"goal_tol must be finite and positive, got {self.goal_tol}")


def spec_for_bundled(name: str, kind: str = "centroid",
                     seeds=(0,), train: TrainConfig | None = None) -> ExperimentSpec:
    """The experiment on a bundled world, with its recipe's problems."""
    return _world_spec(name, [], kind=kind, seeds=list(seeds),
                       train=train or TRAIN_PROFILES[DEFAULT_PROFILE]())


def _world_spec(ref: str, pairs: list, **spec_fields) -> ExperimentSpec:
    """An ExperimentSpec on the world load_world resolves ref to, with its
    recipe's abstraction settings. pairs, ((x_i, y_i), (x_g, y_g)) in meters,
    are the problems; the recipe's are used when there are none."""
    world, name, recipe = load_world(ref)
    if not pairs:
        if recipe is None:
            raise ParseError(f"{ref} is not a bundled world: "
                             "its problems need problem.N entries")
        pairs = recipe.problems
    theta = start_heading(world)
    return ExperimentSpec(
        name=name, world=world,
        problems=[(Configuration(*xy_i, theta), Configuration(*xy_g))
                  for xy_i, xy_g in pairs],
        abstraction=AbstractionParams(**(recipe.abstraction if recipe else {})),
        **spec_fields)


# -- result rows -----------------------------------------------------------------------


@dataclass
class ResultRow:
    env: str
    problem: int
    method: str
    seed: int
    success_rate: float
    mean_steps: float
    training_steps: int
    options_trained: int
    options_reused: int
    error: str = ""

    def as_csv(self) -> list:
        return [self.env, str(self.problem), self.method, str(self.seed),
                f"{self.success_rate:.4f}", f"{self.mean_steps:.2f}",
                str(self.training_steps), str(self.options_trained),
                str(self.options_reused), self.error]


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(row.as_csv())
    return buf.getvalue()


def write_rows(rows, path: str) -> None:
    try:
        with open(path, "w", newline="") as fh:
            fh.write(rows_to_csv(rows))
    except OSError as e:
        raise SharpError(f"cannot write {path}: {e.strerror}") from None


def read_rows(path: str) -> list[ResultRow]:
    """The rows of a results CSV as write_rows writes it; raises ParseError
    naming the line of a malformed row."""
    reader = csv.reader(io.StringIO(_read_text(path)))
    if next(reader, None) != CSV_HEADER:
        raise ParseError(f"the header is not {','.join(CSV_HEADER)}", line=1,
                         path=path)
    rows = []
    for rec in reader:
        try:
            env, problem, method, seed, rate, steps, trained, new, reused, error = rec
            rows.append(ResultRow(env, int(problem), method, int(seed), float(rate),
                                  float(steps), int(trained), int(new), int(reused),
                                  error))
        except ValueError as e:   # a wrong field count included
            raise ParseError(str(e), line=reader.line_num, path=path) from None
    return rows


# -- the protocol ----------------------------------------------------------------------


def composed_run(composed: ComposedPolicy, episodes: int, stage_limit: int,
                 seed_key) -> tuple:
    """The lane run evaluating a composed policy: episode ep runs on
    derive_rng("exec", *seed_key, ep)."""
    return composed, stage_limit, [derive_rng("exec", *seed_key, ep)
                                   for ep in range(episodes)]


def evaluate_runs(world, runs: list) -> list[tuple[float, float]]:
    """Success rate and mean steps of each lane run, all stepped in one
    execute_composed batch."""
    return [(sum(t.outcome == "reached_goal" for t in traces) / len(traces),
             float(np.mean([t.total_steps for t in traces])))
            for traces in execute_composed(world, runs)]


def evaluate_rrt_replan(world, x_i, x_g, goal_tol: float, budget: int,
                        episodes: int, seed_key) -> tuple[float, float]:
    """Success rate and mean steps of replanning RRT execution into the goal
    ball of radius goal_tol; episode ep runs on derive_rng("rrt", *seed_key, ep).
    Raises InCollision, before any episode, when an endpoint is not free."""
    require_free_endpoints(world, x_i, x_g)
    results = [execute_with_replan(world, x_i, x_g, derive_rng("rrt", *seed_key, ep),
                                   goal_tol, budget)
               for ep in range(episodes)]
    return (sum(success for success, _ in results) / episodes,
            float(np.mean([steps for _, steps in results])))


def monolithic_run(world, x_i, x_g, train: TrainConfig, goal_tol: float,
                   budget: int, episodes: int, stage_limit: int,
                   seed_key) -> tuple[tuple, int]:
    """Train the flat policy on derive_rng("monolithic", *seed_key) for at
    most max(budget, train.eval_every) steps, so that it trains for at least
    one evaluation interval; returns the lane run evaluating it and its
    training steps. The run executes it greedily as a one-stage controller
    for at most 4 * stage_limit steps an episode, until it is within
    goal_tol of x_g; episode ep runs on derive_rng("monoeval", *seed_key, ep)."""
    cfg = replace(train, max_steps=max(budget, train.eval_every))
    policy, stats = train_monolithic_policy(world, x_i, x_g, cfg,
                                            derive_rng("monolithic", *seed_key),
                                            goal_tol)
    flat = ComposedPolicy([Stage("flat", policy, frozenset())], x_i, x_g, goal_tol)
    rngs = [derive_rng("monoeval", *seed_key, ep) for ep in range(episodes)]
    return (flat, 4 * stage_limit, rngs), stats.steps


def run_experiment(spec: ExperimentSpec, cache_dir: str | None = None) -> list:
    """Execute the full protocol; returns one ResultRow per (problem, method,
    seed), with per-problem failures recorded as zero-success rows. Every
    method is judged in the same goal ball.

    Each seed runs in two phases, and every row is created in the first, in
    problem order. The first phase goes through the problems in order:
    sharp_solve, then the rrt_replan budget (stage_limit per stage of the
    solve, or per four stages when it failed) and the monolithic budget
    (the solve's training steps). An rrt_replan row whose endpoints are not
    free gets its InCollision error here. The second phase runs the seed's
    evaluate_rrt_replan jobs on one forked worker (inline, after the rest,
    when usable_cpus() is one). Beside it, the parent trains each monolithic
    baseline in problem order, then steps every sharp and monolithic
    evaluation of the seed in one lockstep batch of execute_composed. No
    solve reads what the second phase makes, and each training and each
    evaluation draws from its own streams, so the rows are those of running
    each problem in turn.

    Each seed solves over the one library of the run, from an empty policy
    cache and an empty table of learned option costs. With a cache_dir, the
    world's policy-cache file is read before the first solve, and after each
    seed it is rewritten as the union of what it held and the seed's
    entries; on a shared key the seed's entry wins."""
    world = spec.world
    whash = world_hash(world)
    goal_tol = goal_tolerance(world, spec.goal_tol)
    library = load_or_build_library(world, spec.kind, spec.abstraction, cache_dir)
    stored = artifacts.load_cache(cache_dir, whash) if cache_dir is not None else {}
    rows = []
    for seed in spec.seeds:
        cache, costs = {}, {}
        # what the second phase fills in: the rows of the lane batch with its
        # runs, the monolithic trainings, and the rrt_replan rows with their jobs
        lane_rows, runs, trainings, rrt_rows, rrt_jobs = [], [], [], [], []
        for pi, (x_i, x_g) in enumerate(spec.problems, start=1):
            seed_key = (spec.name, seed, pi)
            try:
                composed, stats = sharp_solve(
                    world, x_i, x_g, library, cache, costs, spec.train,
                    derive_rng("solve", *seed_key), goal_tol)
            except SharpError as e:
                log.warning("sharp failed on %s P%d seed %d: %s", spec.name, pi,
                            seed, e)
                rows.append(ResultRow(spec.name, pi, "sharp", seed, 0.0, 0.0, 0,
                                      0, 0, error=type(e).__name__))
                budget, sharp_training_steps = spec.stage_limit * 4, spec.train.max_steps
            else:
                rows.append(ResultRow(spec.name, pi, "sharp", seed, 0.0, 0.0,
                                      stats.training_steps, stats.options_trained,
                                      stats.options_reused))
                lane_rows.append(rows[-1])
                runs.append(composed_run(composed, spec.eval_episodes,
                                         spec.stage_limit, seed_key))
                budget = spec.stage_limit * len(composed.stages)
                sharp_training_steps = stats.training_steps
            if spec.run_rrt_replan:
                rows.append(ResultRow(spec.name, pi, "rrt_replan", seed, 0.0, 0.0,
                                      0, 0, 0))
                try:
                    require_free_endpoints(world, x_i, x_g)
                except InCollision as e:
                    rows[-1].error = type(e).__name__
                else:
                    rrt_rows.append(rows[-1])
                    rrt_jobs.append((world, x_i, x_g, goal_tol, budget,
                                     spec.eval_episodes, seed_key))
            if spec.run_monolithic and (spec.monolithic_all_seeds
                                        or seed == spec.seeds[0]):
                rows.append(ResultRow(spec.name, pi, "monolithic", seed, 0.0, 0.0,
                                      0, 0, 0))
                trainings.append((rows[-1], x_i, x_g, sharp_training_steps))
        workers = 1 if rrt_jobs and pool.usable_cpus() > 1 else 0
        with pool.fork_starmap(evaluate_rrt_replan, rrt_jobs, workers) as rrt:
            for row, x_i, x_g, budget_steps in trainings:
                run = _monolithic_row(spec, row, x_i, x_g, goal_tol, budget_steps)
                if run is not None:
                    lane_rows.append(row)
                    runs.append(run)
            results = evaluate_runs(world, runs) + rrt()
        for row, result in zip(lane_rows + rrt_rows, results):
            row.success_rate, row.mean_steps = result
        if cache_dir is not None:
            stored.update(cache)
            artifacts.save_cache(cache_dir, whash, stored)
    return rows


def _monolithic_row(spec: ExperimentSpec, row: ResultRow, x_i, x_g,
                    goal_tol: float, budget_steps: int) -> tuple | None:
    """Train the flat single-policy baseline of row's problem and seed under
    a training budget matched to what the hierarchical solve spent on it.
    Fills in row's training steps and returns the lane run whose evaluation
    fills in its rates; or fills in its error and returns None."""
    try:
        run, row.training_steps = monolithic_run(
            spec.world, x_i, x_g, spec.train, goal_tol, budget_steps,
            spec.eval_episodes, spec.stage_limit, (spec.name, row.seed, row.problem))
    except SharpError as e:
        row.error = type(e).__name__
        return None
    return run


# -- figure data -----------------------------------------------------------------------


def emit_plot_data(rows, out_dir: str) -> list:
    """Aggregate rows into the two figure CSVs: training steps per problem and
    success rate per problem, mean and population std over seeds."""
    if not rows:
        raise SharpError("no rows to aggregate")
    groups: dict = {}
    for r in rows:
        groups.setdefault((r.env, r.problem, r.method), []).append(r)
    paths = []
    specs = [("training_by_problem.csv", lambda r: r.training_steps,
              "mean_training_steps", "std_training_steps"),
             ("success_by_problem.csv", lambda r: r.success_rate,
              "mean_success", "std_success")]
    try:
        os.makedirs(out_dir, exist_ok=True)
        for fname, get, mean_col, std_col in specs:
            path = os.path.join(out_dir, fname)
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\r\n")
                writer.writerow(["env", "problem", "method", mean_col, std_col,
                                 "n_seeds"])
                for key in sorted(groups):
                    values = [get(r) for r in groups[key]]
                    writer.writerow([key[0], str(key[1]), key[2],
                                     f"{np.mean(values):.4f}",
                                     f"{np.std(values):.4f}", str(len(values))])
            paths.append(path)
    except OSError as e:
        raise SharpError(f"cannot write {e.filename}: {e.strerror}") from None
    return paths


# -- config files ----------------------------------------------------------------------


def _parse_pair(value: str, line: int):
    """`x1,y1 -> x2,y2` (or `x1,y1,x2,y2`) as ((x1, y1), (x2, y2)), each
    coordinate finite."""
    try:
        x1, y1, x2, y2 = map(float, value.replace("->", ",").split(","))
    except ValueError:   # a wrong count included
        raise ParseError(f"expected x1,y1 -> x2,y2, got {value!r}", line=line) from None
    if not all(map(math.isfinite, (x1, y1, x2, y2))):
        raise ParseError(f"coordinates must be finite, got {value!r}", line=line)
    return (x1, y1), (x2, y2)


# top-level config keys, each setting the ExperimentSpec field of that name
SPEC_KEYS = ("name", "kind", "seeds", "stage_limit", "eval_episodes", "goal_tol",
             "monolithic_all_seeds")


def _config_key(key: str):
    """problem.<n> keys are one key per integer n."""
    if key.startswith("problem."):
        return ("problem", int(key.split(".", 1)[1]))
    return key


def load_experiment_config(path: str) -> ExperimentSpec:
    """Build an ExperimentSpec from a flat key=value file.

    `world` names a bundled map or a world file, as load_world resolves it.
    Only a bundled map has a recipe, which supplies default problems and
    abstraction settings; a file, whatever its name, has neither. `problem.<n>
    = x1,y1 -> x2,y2` adds a problem, `train.profile` names the base
    TrainConfig in TRAIN_PROFILES and `baselines` lists the enabled baselines.
    Every other key sets one field, parsed by its type (optional fields accept
    `none`): `abstraction.<field>` of AbstractionParams, `train.<field>` of
    TrainConfig, or a SPEC_KEYS field. A key may be given once. A ParseError
    about the config's own text names path; one from the world file names
    that file.
    """
    with in_file(path):
        return _config_spec(path)


def _config_spec(path: str) -> ExperimentSpec:
    entries = settings.read_key_values(_read_text(path), _config_key)
    world_ref = entries.pop("world", (None,))[0]
    if world_ref is None:
        raise ParseError("config must set world=<bundled name or file>")
    pairs = [_parse_pair(*entries.pop(key))
             for key in sorted(k for k in entries if isinstance(k, tuple))]

    profile = entries.pop("train.profile", (DEFAULT_PROFILE,))[0]
    if profile not in TRAIN_PROFILES:
        raise ParseError(f"unknown train.profile {profile!r}")

    baselines = entries.pop("baselines", ("rrt_replan,monolithic",))[0]
    enabled = {b.strip() for b in baselines.split(",") if b.strip()}
    unknown = enabled - {"rrt_replan", "monolithic", "none"}
    if unknown:
        raise ParseError(f"unknown baselines {sorted(unknown)}")

    spec = _world_spec(world_ref, pairs, kind="centroid",
                       train=TRAIN_PROFILES[profile](),
                       run_rrt_replan="rrt_replan" in enabled,
                       run_monolithic="monolithic" in enabled)
    for key, (value, lineno) in entries.items():
        group, _, fieldname = key.rpartition(".")
        if group in ("abstraction", "train"):
            setattr(spec, group, settings.override(getattr(spec, group),
                                                   fieldname, value, key, lineno))
        elif key in SPEC_KEYS:
            spec = settings.override(spec, key, value, key, lineno)
        else:
            raise ParseError(f"unknown config key {key!r}", line=lineno)
    return spec
