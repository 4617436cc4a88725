"""Command-line interface.

Subcommands mirror the pipeline stages: `regions` collects the density grid
and extracts critical regions, `abstract` builds the partition, `options`
synthesizes the option library, `solve` runs one problem end to end,
`baseline` runs a baseline on one problem, `experiment` executes a full spec,
and `plotdata` aggregates result rows into figure CSVs. SHARP_CACHE_DIR
overrides the artifact cache location unless empty; an empty path is an error.

`solve` and `baseline` run the experiment's per-problem code on the streams
of problem 1 of seed `--seed`. They print the rows of a one-problem
experiment with the same world, kind, profile, episodes, stage limit and
abstraction settings, seeds [`--seed`], and `abstraction.seed` set to
`--seed`, which is also the CLI's abstraction seed: `solve` the sharp row
when its policy cache starts empty, as each seed's does in an experiment;
`baseline` the rrt_replan row for a `--budget` of the stage limit times the
solve's stages, and the monolithic row for a `--budget` of the sharp row's
training steps and the default stage limit.

`--world` is resolved by `experiment.load_world`. Only a bundled world's
name brings its recipe: its abstraction settings, under the flags, and its
problems for `experiment`. A world file gets the AbstractionParams defaults,
even when it is named like a bundled world.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields

from . import artifacts, settings
from .abstraction import goal_tolerance, render_assignment
from .errors import ParseError, SharpError
from .experiment import (DEFAULT_PROFILE, STAGE_LIMIT, TRAIN_PROFILES,
                         AbstractionParams, composed_run, density_and_regions,
                         emit_plot_data, evaluate_rrt_replan, evaluate_runs,
                         load_experiment_config, load_or_build_library, load_world,
                         monolithic_run, read_rows, rows_to_csv, run_experiment,
                         spec_for_bundled, write_rows)
from .planner import sharp_solve
from .seeding import derive_rng
from .world import (Configuration, sidecar_to_text, start_heading, world_hash,
                    world_to_text)
from .worlds import RECIPES, WorldRecipe


# AbstractionParams fields with a --<field> flag; the seed comes from --seed
ABSTRACTION_FLAGS = [f.name for f in fields(AbstractionParams) if f.name != "seed"]


def _flag(fieldname: str) -> str:
    return "--" + fieldname.replace("_", "-")


def _abstraction_params(args, recipe: WorldRecipe | None) -> AbstractionParams:
    """The recipe's settings (defaults without one), then the flags."""
    params = AbstractionParams(seed=args.seed,
                               **(recipe.abstraction if recipe else {}))
    for fieldname in ABSTRACTION_FLAGS:
        text = getattr(args, fieldname)
        if text is not None:
            params = settings.override(params, fieldname, text, _flag(fieldname))
    return params


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _cache_dir(args) -> str | None:
    """--cache-dir, else a non-empty SHARP_CACHE_DIR, else None."""
    return args.cache_dir or os.environ.get("SHARP_CACHE_DIR") or None


def _parse_xy(text: str, theta: float | None = None) -> Configuration:
    try:
        parts = [float(v) for v in text.split(",")]
    except ValueError:
        parts = None
    if parts is None or len(parts) not in (2, 3):
        raise ParseError(f"expected x,y or x,y,theta, got {text!r}")
    if not all(map(math.isfinite, parts)):
        raise ParseError(f"coordinates must be finite, got {text!r}")
    return Configuration(parts[0], parts[1], parts[2] if len(parts) == 3 else theta)


def cmd_worlds(args) -> int:
    for name, rec in RECIPES.items():
        world = rec.build()
        print(f"{name}: {world.width}x{world.height} cells, "
              f"{world.kinematics.value}, {len(rec.problems)} problems")
        if args.export is not None:
            base = os.path.join(args.export, name)
            try:
                os.makedirs(args.export, exist_ok=True)
                with open(base + ".txt", "w") as fh:
                    fh.write(world_to_text(world))
                with open(base + ".txt.cfg", "w") as fh:
                    fh.write(sidecar_to_text(world))
            except OSError as e:
                raise SharpError(f"cannot write {e.filename}: {e.strerror}") from None
    return 0


def cmd_regions(args) -> int:
    world, _, recipe = load_world(args.world)
    params = _abstraction_params(args, recipe)
    density, regions, threshold = density_and_regions(world, params)
    print(f"{len(regions)} critical regions (threshold {threshold:.4f}):")
    for i, r in enumerate(regions):
        print(f"  {i}: score={r.score:.3f} cells={len(r.cells)} "
              f"centroid=({r.centroid.x:.2f}, {r.centroid.y:.2f})")
    if args.out is not None:
        artifacts.save_artifact(args.out, "density-grid", world_hash(world),
                                artifacts.density_payload(density))
        print(f"density grid written to {args.out}")
    return 0


def cmd_abstract(args) -> int:
    world, _, recipe = load_world(args.world)
    params = _abstraction_params(args, recipe)
    library = load_or_build_library(world, args.kind, params, _cache_dir(args))
    rbvd = library.rbvd
    print(f"{len(rbvd.states)} abstract states, "
          f"{len(rbvd.adjacency)} adjacent pairs")
    if args.grid:
        print(render_assignment(rbvd), end="")
    if args.out is not None:
        artifacts.save_artifact(args.out, "option-library", world_hash(world),
                                artifacts.library_payload(library))
        print(f"abstraction artifact written to {args.out}")
    return 0


def cmd_options(args) -> int:
    world, _, recipe = load_world(args.world)
    params = _abstraction_params(args, recipe)
    library = load_or_build_library(world, args.kind, params, _cache_dir(args))
    print(f"{len(library.options)} {args.kind} options:")
    for o in library.options:
        print(f"  {o.id}: states={o.states} prior={o.prior:.3f}")
    if args.out is not None:
        artifacts.save_artifact(args.out, "option-library", world_hash(world),
                                artifacts.library_payload(library))
        print(f"library written to {args.out}")
    return 0


def cmd_solve(args) -> int:
    world, name, recipe = load_world(args.world)
    x_i = _parse_xy(args.start, start_heading(world))
    x_g = _parse_xy(args.goal)
    params = _abstraction_params(args, recipe)
    cache_dir = _cache_dir(args)
    library = load_or_build_library(world, args.kind, params, cache_dir)
    train = TRAIN_PROFILES[args.profile]()
    whash = world_hash(world)
    cache = artifacts.load_cache(cache_dir, whash) if cache_dir is not None else {}
    seed_key = (name, args.seed, 1)   # problem 1 of an experiment
    try:
        composed, stats = sharp_solve(world, x_i, x_g, library, cache, {}, train,
                                      derive_rng("solve", *seed_key),
                                      goal_tolerance(world, None))
    finally:   # a failed solve keeps the policies of the stages it trained
        if cache_dir is not None:
            artifacts.save_cache(cache_dir, whash, cache)
    ((success, mean_steps),) = evaluate_runs(world, [composed_run(
        composed, args.episodes, args.stage_limit, seed_key)])
    result = {"plan": stats.plan_option_ids,
              "options_trained": stats.options_trained,
              "options_reused": stats.options_reused,
              "training_steps": stats.training_steps,
              "stage_success": stats.stage_success,
              "success_rate": success,
              "mean_steps": mean_steps}
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def cmd_baseline(args) -> int:
    world, name, _ = load_world(args.world)
    x_i = _parse_xy(args.start, start_heading(world))
    x_g = _parse_xy(args.goal)
    goal_tol = goal_tolerance(world, None)
    seed_key = (name, args.seed, 1)   # problem 1 of an experiment
    if args.method == "rrt_replan":
        success, mean_steps = evaluate_rrt_replan(world, x_i, x_g, goal_tol,
                                                  args.budget, args.episodes,
                                                  seed_key)
        print(json.dumps({"method": "rrt_replan", "success_rate": success,
                          "mean_steps": mean_steps}, indent=2, sort_keys=True))
        return 0
    run, steps = monolithic_run(world, x_i, x_g, TRAIN_PROFILES[args.profile](),
                                goal_tol, args.budget, args.episodes, STAGE_LIMIT,
                                seed_key)
    ((success, _),) = evaluate_runs(world, [run])
    print(json.dumps({"method": "monolithic", "training_steps": steps,
                      "success_rate": success}, indent=2, sort_keys=True))
    return 0


def cmd_experiment(args) -> int:
    if args.config is not None:
        if args.world is not None or args.profile is not None:
            raise SharpError("--world and --profile do not apply with --config: "
                             "the config sets world and train.profile")
        spec = load_experiment_config(args.config)
    elif args.world is not None:
        profile = args.profile or DEFAULT_PROFILE
        spec = spec_for_bundled(args.world, train=TRAIN_PROFILES[profile]())
    else:
        raise SharpError("experiment needs --config or --world")
    if args.kind:
        spec.kind = args.kind
    if args.seed_list is not None:
        spec = settings.override(spec, "seeds", args.seed_list, "--seeds")
    rows = run_experiment(spec, cache_dir=_cache_dir(args))
    if args.out is not None:
        write_rows(rows, args.out)
        print(f"{len(rows)} rows written to {args.out}")
    else:
        sys.stdout.write(rows_to_csv(rows))
    return 0


def cmd_plotdata(args) -> int:
    for p in emit_plot_data(read_rows(args.rows), args.out):
        print(p)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sharp",
        description="Hierarchical stochastic path planning with learned "
                    "spatial abstractions and reusable option policies.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, func):
        # no abbreviations: `experiment --seed` must not read as `--seeds`
        p = sub.add_parser(name, help=help, description=help, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    def common(p, world=True, seed=True, cache=True, abstraction=False, out=False):
        if world:
            p.add_argument("--world", required=True,
                           help="bundled world name or world file path")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if out:
            p.add_argument("--out", default=None, help="output file")
        if cache:
            p.add_argument("--cache-dir", default=None,
                           help="artifact cache (default $SHARP_CACHE_DIR)")
        if abstraction:
            for fieldname in ABSTRACTION_FLAGS:
                p.add_argument(_flag(fieldname), default=None,
                               help=f"AbstractionParams.{fieldname}")

    p = command("worlds", "list or export the bundled worlds", cmd_worlds)
    p.add_argument("--export", default=None, help="write .txt/.cfg files here")

    p = command("regions", "collect density and extract regions", cmd_regions)
    common(p, cache=False, abstraction=True, out=True)

    p = command("abstract", "build the abstract-state partition", cmd_abstract)
    common(p, abstraction=True, out=True)
    p.add_argument("--kind", choices=["centroid", "interface"], default="centroid")
    p.add_argument("--grid", action="store_true", help="print the partition grid")

    p = command("options", "synthesize the option library", cmd_options)
    common(p, abstraction=True, out=True)
    p.add_argument("--kind", choices=["centroid", "interface"], default="centroid")

    p = command("solve", "solve one problem end to end; from an empty policy "
                "cache, the sharp row of a one-problem experiment on seed --seed",
                cmd_solve)
    common(p, abstraction=True)
    p.add_argument("--kind", choices=["centroid", "interface"], default="centroid")
    p.add_argument("--start", required=True, help="x,y[,theta] meters")
    p.add_argument("--goal", required=True, help="x,y meters")
    p.add_argument("--episodes", type=_positive_int, default=20)
    p.add_argument("--stage-limit", type=_positive_int, default=STAGE_LIMIT)
    p.add_argument("--profile", choices=list(TRAIN_PROFILES), default=DEFAULT_PROFILE)

    p = command("baseline", "run a baseline on one problem: the rrt_replan "
                "or monolithic row of a one-problem experiment on seed --seed",
                cmd_baseline)
    common(p, cache=False)
    p.add_argument("--method", choices=["rrt_replan", "monolithic"],
                   required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--episodes", type=_positive_int, default=20)
    p.add_argument("--budget", type=_positive_int, default=1600,
                   help="rrt_replan step budget, or monolithic training steps "
                        "(at least the profile's eval_every)")
    p.add_argument("--profile", choices=list(TRAIN_PROFILES), default=DEFAULT_PROFILE)

    p = command("experiment", "run a full experiment spec", cmd_experiment)
    common(p, world=False, seed=False, out=True)
    p.add_argument("--config", default=None, help="experiment config file")
    p.add_argument("--world", default=None, help="bundled world (without --config)")
    p.add_argument("--kind", choices=["centroid", "interface"], default=None)
    p.add_argument("--seeds", dest="seed_list", default=None,
                   help="comma-separated seed list")
    p.add_argument("--profile", choices=list(TRAIN_PROFILES), default=None,
                   help="training profile (without --config; "
                        f"default {DEFAULT_PROFILE})")

    p = command("plotdata", "aggregate result rows into figure CSVs", cmd_plotdata)
    p.add_argument("--rows", required=True, help="results CSV from `experiment`")
    p.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for name in ("config", "out", "export", "cache_dir", "rows"):   # paths
            if getattr(args, name, None) == "":
                raise SharpError(f"{_flag(name)} needs a path, not an empty value")
        return args.func(args)
    except SharpError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
