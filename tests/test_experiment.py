import hashlib
import json
import multiprocessing
import multiprocessing.pool
import os
from dataclasses import fields, replace

import numpy as np
import pytest

from sharp.errors import DivergedTraining, ParseError, SharpError
from sharp import experiment, learn, planner
from sharp.artifacts import library_payload
from sharp.experiment import (AbstractionParams, CSV_HEADER, ExperimentSpec,
                              ResultRow, build_library, emit_plot_data,
                              library_cache_path, load_experiment_config,
                              load_or_build_library, read_rows, rows_to_csv,
                              run_experiment, select_regions, smoke_train_config,
                              spec_for_bundled, write_rows)
from sharp.regions import collect_solution_density, extract_critical_regions
from sharp.learn import TrainConfig
from sharp.world import Configuration, Kinematics, world_hash
from sharp.worlds import RECIPES

from conftest import grid_from_rows, open_world
from helpers import sample_setting, with_params

# two rooms joined by a single door one cell wide, at cell (5, 3)
TWO_ROOMS = grid_from_rows(["##########",
                            "#....#...#",
                            "#....#...#",
                            "#........#",
                            "#....#...#",
                            "#....#...#",
                            "##########"], noise_sigma=0.02, max_step=1.0)

# four rooms joined by four doors one cell wide; at FOUR_ROOMS_PARAMS the
# density yields four regions, so no anchor is added
FOUR_ROOMS = grid_from_rows(["#############",
                             "#.....#.....#",
                             "#.....#.....#",
                             "#...........#",
                             "#.....#.....#",
                             "###.#####.###",
                             "#.....#.....#",
                             "#.....#.....#",
                             "#...........#",
                             "#.....#.....#",
                             "#############"])
FOUR_ROOMS_PARAMS = AbstractionParams(n_goals=12, inits_per_goal=5, percentile=80.0)


def tiny_spec(run_monolithic=True, seeds=(0,)):
    w = open_world(14, 14, noise_sigma=0.02, max_step=1.0)
    return ExperimentSpec(
        name="tiny", world=w, kind="centroid",
        problems=[(Configuration(1.5, 1.5), Configuration(12.5, 12.5))],
        seeds=list(seeds),
        abstraction=AbstractionParams(n_goals=6, inits_per_goal=3,
                                      percentile=80.0, max_regions=3,
                                      min_cells=1),
        train=smoke_train_config(), stage_limit=150, eval_episodes=4,
        run_rrt_replan=True, run_monolithic=run_monolithic)


class TestRunExperiment:
    def test_row_accounting_all_methods(self):
        rows = run_experiment(tiny_spec())
        assert len(rows) == 3  # sharp + rrt_replan + monolithic for 1 problem
        methods = {r.method for r in rows}
        assert methods == {"sharp", "rrt_replan", "monolithic"}
        for r in rows:
            assert 0.0 <= r.success_rate <= 1.0
            assert r.env == "tiny" and r.problem == 1 and r.seed == 0

    def test_monolithic_first_seed_only(self):
        rows = run_experiment(tiny_spec(seeds=(0, 1)))
        mono = [r for r in rows if r.method == "monolithic"]
        assert [r.seed for r in mono] == [0]
        sharp_rows = [r for r in rows if r.method == "sharp"]
        assert [r.seed for r in sharp_rows] == [0, 1]

    def test_csv_byte_identical_across_runs(self):
        a = rows_to_csv(run_experiment(tiny_spec()))
        b = rows_to_csv(run_experiment(tiny_spec()))
        assert a == b

    def test_cache_dir_round_trip(self, tmp_path):
        spec = tiny_spec(run_monolithic=False)
        rows1 = run_experiment(spec, cache_dir=str(tmp_path))
        # the library artifact is now cached; a rerun loads it
        rows2 = run_experiment(tiny_spec(run_monolithic=False),
                               cache_dir=str(tmp_path))
        assert rows_to_csv(rows1) == rows_to_csv(rows2)
        from sharp.world import world_hash
        base = tmp_path / world_hash(spec.world)
        path = library_cache_path(str(tmp_path), world_hash(spec.world),
                                  "centroid", spec.abstraction)
        assert os.path.dirname(path) == str(base)
        assert os.path.basename(path).startswith("library_centroid_")
        assert os.path.exists(path)
        assert (base / "policy_cache.json").exists()

    def test_cache_dir_holds_library_and_policy_cache(self, tmp_path):
        spec = tiny_spec(run_monolithic=False)
        run_experiment(spec, cache_dir=str(tmp_path))
        path = library_cache_path(str(tmp_path), world_hash(spec.world),
                                  "centroid", spec.abstraction)
        assert sorted(os.listdir(os.path.dirname(path))) == [
            os.path.basename(path), "policy_cache.json"]

    def test_cached_build_writes_only_the_library(self, tmp_path):
        spec = tiny_spec()
        load_or_build_library(spec.world, "centroid", spec.abstraction,
                              str(tmp_path))
        path = library_cache_path(str(tmp_path), world_hash(spec.world),
                                  "centroid", spec.abstraction)
        assert os.listdir(os.path.dirname(path)) == [os.path.basename(path)]

    def test_non_chaining_plan_becomes_error_row(self, monkeypatch):
        def broken_plan(graph, s_start, s_goal, goal_cfg):
            option = graph.edges[s_start][0][1]
            return [option, option]   # its termination is not its initiation

        monkeypatch.setattr(planner, "plan_abstract", broken_plan)
        rows = run_experiment(tiny_spec(run_monolithic=False))
        assert [(r.method, r.error) for r in rows] == [
            ("sharp", "OptionsDoNotChain"), ("rrt_replan", "")]

def golden_spec(kinematics: Kinematics, learner: str) -> ExperimentSpec:
    """One problem across the door of TWO_ROOMS with all three methods and a
    tiny training profile: a few seconds of the whole protocol."""
    if learner == "cem":
        train = TrainConfig(learner="cem", max_steps=1500, eval_every=1500,
                            eval_episodes=3, episode_limit=30, cem_population=6,
                            cem_iters=3, cem_hidden=(6, 6))
    else:
        train = TrainConfig(max_steps=1200, eval_every=600, eval_episodes=3,
                            episode_limit=40, hidden=(8, 8), batch_size=16,
                            start_steps=100)
    theta = 0.0 if kinematics is Kinematics.UNICYCLE else None
    return ExperimentSpec(
        name="two_rooms", world=with_params(TWO_ROOMS, kinematics=kinematics),
        kind="centroid",
        problems=[(Configuration(1.5, 1.5, theta), Configuration(8.5, 1.5))],
        abstraction=AbstractionParams(n_goals=8, inits_per_goal=4),
        train=train, stage_limit=80, eval_episodes=6)


GOLDEN_HEADER = ("env,problem,method,seed,success_rate,mean_steps,training_steps,"
                 "options_trained,options_reused,error\r\n")


@pytest.mark.parametrize("kinematics, learner, rows", [
    (Kinematics.HOLONOMIC, "cem",
     "two_rooms,1,sharp,0,0.0000,100.50,571,2,0,\r\n"
     "two_rooms,1,rrt_replan,0,1.0000,11.33,0,0,0,\r\n"
     "two_rooms,1,monolithic,0,0.0000,320.00,540,0,0,\r\n"),
    (Kinematics.UNICYCLE, "cem",
     "two_rooms,1,sharp,0,0.0000,84.00,785,2,0,\r\n"
     "two_rooms,1,rrt_replan,0,1.0000,23.83,0,0,0,\r\n"
     "two_rooms,1,monolithic,0,0.0000,320.00,540,0,0,\r\n"),
    (Kinematics.HOLONOMIC, "sac",
     "two_rooms,1,sharp,0,0.0000,82.00,1800,2,0,\r\n"
     "two_rooms,1,rrt_replan,0,1.0000,11.33,0,0,0,\r\n"
     "two_rooms,1,monolithic,0,0.0000,320.00,1800,0,0,\r\n"),
], ids=["holonomic-cem", "unicycle-cem", "holonomic-sac"])
def test_two_rooms_csv_matches_recorded(kinematics, learner, rows):
    # recorded output bytes: a change in the order of RNG draws, in a
    # reward or termination rule or in a learner update shows here
    text = rows_to_csv(run_experiment(golden_spec(kinematics, learner)))
    assert text == GOLDEN_HEADER + rows


def test_baselines_are_judged_in_the_goal_ball():
    # the start lies 2 m from the goal: outside one cell, inside goal_tol,
    # so every method succeeds without a step, sharp in its first stage
    spec = golden_spec(Kinematics.HOLONOMIC, "cem")
    spec.problems = [(Configuration(1.5, 1.5), Configuration(3.5, 1.5))]
    spec.goal_tol = 2.5
    rows = {r.method: r for r in run_experiment(spec)}
    for method in ("sharp", "rrt_replan", "monolithic"):
        assert (rows[method].success_rate, rows[method].mean_steps) == (1.0, 0.0)


def test_diverged_training_is_an_error_row_for_every_method(monkeypatch):
    # every SAC training diverges at its fifth update, the flat one included
    real_update = learn.SacLearner.update

    def update(self, buffer, rng):
        self.updates = getattr(self, "updates", 0) + 1
        if self.updates == 5:
            raise DivergedTraining("critic loss is not finite")
        real_update(self, buffer, rng)

    monkeypatch.setattr(learn.SacLearner, "update", update)
    spec = golden_spec(Kinematics.HOLONOMIC, "sac")
    spec.run_rrt_replan = False
    rows = run_experiment(spec)
    assert [(r.method, r.success_rate, r.training_steps, r.error) for r in rows] == [
        ("sharp", 0.0, 0, "DivergedTraining"),
        ("monolithic", 0.0, 0, "DivergedTraining")]


def nan_actors(monkeypatch):
    """Every actor starts with NaN weights (the critics stay finite)."""
    real = learn.init_mlp

    def init(n_in, hidden, n_out, rng):
        net = real(n_in, hidden, n_out, rng)
        if n_out == 4:
            net.params[...] = np.nan
        return net

    monkeypatch.setattr(learn, "init_mlp", init)


def actors_turn_nan_at_fifth_update(monkeypatch):
    """Every SAC actor turns NaN after its fifth update, which the loss
    checks of that update do not see."""
    real = learn.SacLearner.update

    def update(self, buffer, rng):
        real(self, buffer, rng)
        self.updates = getattr(self, "updates", 0) + 1
        if self.updates == 5:
            self.actor.params[...] = np.nan

    monkeypatch.setattr(learn.SacLearner, "update", update)


@pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "pooled"])
@pytest.mark.parametrize("learner, poison", [
    ("sac", nan_actors), ("sac", actors_turn_nan_at_fifth_update), ("cem", nan_actors)],
    ids=["sac-gate", "sac-collection", "cem"])
def test_non_finite_actor_output_is_a_diverged_training(monkeypatch, learner, poison,
                                                        cpus):
    # a NaN command reaches the environment from the first gate, from SAC's
    # collection or from a CEM candidate; each ends its training as a
    # divergence, not as a traceback
    poison(monkeypatch)
    monkeypatch.setattr(planner, "usable_cpus", lambda: cpus)
    spec = golden_spec(Kinematics.HOLONOMIC, learner)
    spec.run_rrt_replan = False
    rows = run_experiment(spec)
    assert multiprocessing.active_children() == []
    assert [(r.method, r.success_rate, r.training_steps, r.error) for r in rows] == [
        ("sharp", 0.0, 0, "DivergedTraining"),
        ("monolithic", 0.0, 0, "DivergedTraining")]


def two_problem_spec() -> ExperimentSpec:
    spec = golden_spec(Kinematics.HOLONOMIC, "cem")
    spec.problems.append((Configuration(2.5, 4.5), Configuration(7.5, 4.5)))
    return spec


class TestEvaluationWorker:
    def test_pooled_and_inline_evaluation_agree(self, monkeypatch, tmp_path):
        """The same experiment with the rrt_replan jobs inline and on a
        worker beside the lane batch: rows and policy-cache file alike."""
        pools = []

        class CountingPool(multiprocessing.pool.Pool):
            def __init__(self, processes, *args, **kwargs):
                pools.append(processes)
                super().__init__(processes, *args, **kwargs)

        monkeypatch.setattr(multiprocessing.pool, "Pool", CountingPool)
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(planner, "usable_cpus", lambda: cpus)
            pools.clear()
            spec = two_problem_spec()
            rows = run_experiment(spec, str(tmp_path / str(cpus)))
            assert multiprocessing.active_children() == []
            cache = tmp_path / str(cpus) / world_hash(spec.world) / "policy_cache.json"
            runs.append((rows, cache.read_bytes(), list(pools)))
        (inline, inline_cache, inline_pools), (pooled, pooled_cache, pooled_pools) = runs
        assert inline == pooled and inline_cache == pooled_cache
        assert [r.method for r in pooled] == ["sharp", "rrt_replan", "monolithic"] * 2
        # inline forks nothing; pooled trains on two workers and ends with
        # the one rrt_replan worker
        assert inline_pools == [] and pooled_pools[-1] == 1 and 2 in pooled_pools

    @pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "pooled"])
    def test_rrt_replan_error_surfaces_after_join(self, monkeypatch, cpus):
        def replan(*args):
            raise RuntimeError(f"replanning failed in {os.getpid()}")

        monkeypatch.setattr(experiment, "execute_with_replan", replan)
        monkeypatch.setattr(planner, "usable_cpus", lambda: cpus)
        with pytest.raises(RuntimeError, match="replanning failed") as err:
            run_experiment(two_problem_spec())
        assert multiprocessing.active_children() == []
        ran_here = str(err.value).endswith(str(os.getpid()))
        assert ran_here == (cpus == 1)


class TestMonolithicTrainingInPhaseTwo:
    def test_diverged_training_leaves_its_error_row(self, monkeypatch):
        """P1's monolithic training diverges and P2's trains: the same rows
        with the rrt_replan jobs inline and on a worker, each in its place."""
        real = experiment.train_monolithic_policy

        def train(world, x_i, x_g, *args):
            if x_i.x == 1.5:
                raise DivergedTraining("critic loss is not finite")
            return real(world, x_i, x_g, *args)

        monkeypatch.setattr(experiment, "train_monolithic_policy", train)
        runs = []
        for cpus in (1, 2):
            monkeypatch.setattr(planner, "usable_cpus", lambda: cpus)
            runs.append(run_experiment(two_problem_spec()))
            assert multiprocessing.active_children() == []
        inline, pooled = runs
        assert inline == pooled
        assert [(r.method, r.error) for r in pooled] == [
            ("sharp", ""), ("rrt_replan", ""), ("monolithic", "DivergedTraining"),
            ("sharp", ""), ("rrt_replan", ""), ("monolithic", "")]
        assert pooled[2].training_steps == 0 and pooled[5].training_steps > 0

    @pytest.mark.parametrize("cpus", [1, 2], ids=["inline", "pooled"])
    def test_unexpected_error_surfaces_after_join(self, monkeypatch, cpus):
        # the training runs beside the rrt_replan worker, when there is one
        beside = []

        def train(*args):
            beside.append(len(multiprocessing.active_children()))
            raise RuntimeError("training failed")

        monkeypatch.setattr(experiment, "train_monolithic_policy", train)
        monkeypatch.setattr(planner, "usable_cpus", lambda: cpus)
        with pytest.raises(RuntimeError, match="training failed"):
            run_experiment(two_problem_spec())
        assert multiprocessing.active_children() == []
        assert beside == [cpus - 1]


def test_endpoints_in_collision_fail_every_method(monkeypatch):
    # the start lies in the border wall: no rrt_replan job is made
    def replan(*args):
        raise AssertionError("an rrt_replan episode ran")

    monkeypatch.setattr(experiment, "execute_with_replan", replan)
    spec = golden_spec(Kinematics.HOLONOMIC, "cem")
    spec.problems = [(Configuration(0.5, 0.5), Configuration(8.5, 1.5))]
    rows = run_experiment(spec)
    assert [(r.method, r.success_rate, r.error) for r in rows] == [
        ("sharp", 0.0, "InCollision"), ("rrt_replan", 0.0, "InCollision"),
        ("monolithic", 0.0, "InCollision")]


@pytest.mark.parametrize("kind, digest", [
    ("centroid", "81c7380c77548e1deb546f9215e70a22061aad08ee784c23fa29abc861838bf0"),
    ("interface", "f440eb4b6d6af1164f37bb3b7407dbff0bc8c23615adb2c9972c772a9ac23388"),
])
def test_four_rooms_library_matches_recorded(kind, digest):
    # recorded library bytes: region cells, scores and centroids, the
    # partition, its adjacency and the option endpoints all show here
    _, library = build_library(FOUR_ROOMS, kind, FOUR_ROOMS_PARAMS)
    assert len(library.rbvd.states) == 4
    text = json.dumps(library_payload(library), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("env", ["env_a", "env_d"])
def test_env_a_centroid_library_matches_digests_expected(env):
    # the library/<env>/centroid lines of tools/digests.py, which holds the
    # bundled libraries byte for byte; each builds in about 1.5 s. env_d is
    # the bundled unicycle world, whose density samples each draw a heading
    path = os.path.join(os.path.dirname(__file__), "..", "tools", "digests.expected")
    with open(path) as fh:
        expected = dict(line.split() for line in fh if line.strip())
    spec = experiment.spec_for_bundled(env)
    _, library = build_library(spec.world, "centroid", spec.abstraction)
    text = json.dumps(library_payload(library), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == expected[f"library/{env}/centroid"]


class TestPlotData:
    def make_rows(self):
        return [ResultRow("e", 1, "sharp", s, 0.8 + 0.05 * s, 100.0 + s,
                          1000 * (s + 1), 2, 1) for s in range(5)]

    def test_singleton_zero_std(self, tmp_path):
        rows = [ResultRow("e", 1, "sharp", 0, 0.9, 50.0, 500, 1, 0)]
        paths = emit_plot_data(rows, str(tmp_path))
        success = (tmp_path / "success_by_problem.csv").read_text()
        lines = success.strip().splitlines()
        assert lines[0] == "env,problem,method,mean_success,std_success,n_seeds"
        assert lines[1] == "e,1,sharp,0.9000,0.0000,1"

    def test_mean_over_seeds(self, tmp_path):
        rows = self.make_rows()
        emit_plot_data(rows, str(tmp_path))
        text = (tmp_path / "training_by_problem.csv").read_text()
        line = text.strip().splitlines()[1]
        env, prob, method, mean, std, n = line.split(",")
        assert float(mean) == pytest.approx(np.mean([1000, 2000, 3000, 4000, 5000]))
        assert float(std) == pytest.approx(
            np.std([1000, 2000, 3000, 4000, 5000]), abs=0.01)
        assert n == "5"

    def test_header_schema(self, tmp_path):
        emit_plot_data(self.make_rows(), str(tmp_path))
        training = (tmp_path / "training_by_problem.csv").read_text()
        assert training.splitlines()[0] == ("env,problem,method,"
                                            "mean_training_steps,"
                                            "std_training_steps,n_seeds")


class TestResultCsv:
    def test_header_and_formatting(self):
        rows = [ResultRow("env_a", 2, "sharp", 3, 0.85, 123.456, 4000, 2, 1)]
        text = rows_to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert lines[1] == "env_a,2,sharp,3,0.8500,123.46,4000,2,1,"

    def test_write_rows(self, tmp_path):
        path = str(tmp_path / "rows.csv")
        write_rows([ResultRow("e", 1, "m", 0, 1.0, 1.0, 1, 0, 0)], path)
        with open(path, newline="") as fh:
            assert fh.read() == rows_to_csv(
                [ResultRow("e", 1, "m", 0, 1.0, 1.0, 1, 0, 0)])

    def test_read_rows_round_trips(self, tmp_path):
        path = str(tmp_path / "rows.csv")
        rows = [ResultRow("e", 1, "m", 0, 0.25, 12.5, 3, 1, 2),
                ResultRow("e", 2, "m", 1, 0.0, 0.0, 0, 0, 0, 'Unreachable: "x", y')]
        write_rows(rows, path)
        assert read_rows(path) == rows

    def test_write_rows_to_missing_dir(self, tmp_path):
        path = str(tmp_path / "missing" / "rows.csv")
        with pytest.raises(SharpError, match="missing"):
            write_rows([ResultRow("e", 1, "m", 0, 1.0, 1.0, 1, 0, 0)], path)


class TestConfigParsing:
    def test_bundled_world_defaults(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("world = env_a\nkind = interface\nseeds = 0,1\n")
        spec = load_experiment_config(str(cfg))
        assert spec.name == "env_a" and spec.kind == "interface"
        assert spec.seeds == [0, 1]
        assert len(spec.problems) == 5
        assert spec.abstraction.percentile == \
            AbstractionParams(**RECIPES["env_a"].abstraction).percentile

    def test_world_file_with_problems(self, tmp_path):
        from sharp.world import world_to_text
        w = open_world(8, 8)
        wfile = tmp_path / "w.txt"
        wfile.write_text(world_to_text(w))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"world = {wfile}\n"
                       "problem.1 = 1.5,1.5 -> 6.5,6.5\n"
                       "train.profile = smoke\n"
                       "baselines = rrt_replan\n")
        spec = load_experiment_config(str(cfg))
        assert spec.run_monolithic is False and spec.run_rrt_replan is True
        assert spec.train.learner == "cem"
        assert spec.problems[0][1] == Configuration(6.5, 6.5)

    def test_train_overrides(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("world = env_b\ntrain.max_steps = 1234\n"
                       "train.hidden = 16,16\ntrain.entropy_coef = 0.2\n")
        spec = load_experiment_config(str(cfg))
        assert spec.train.max_steps == 1234
        assert spec.train.hidden == (16, 16)
        assert spec.train.entropy_coef == 0.2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("world = env_a\nwat = 1\n")
        with pytest.raises(ParseError):
            load_experiment_config(str(cfg))

    def test_missing_world_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("kind = centroid\n")
        with pytest.raises(ParseError):
            load_experiment_config(str(cfg))

    def test_bad_problem_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("world = env_a\nproblem.1 = 1,2,3\n")
        with pytest.raises(ParseError):
            load_experiment_config(str(cfg))


SETTINGS_FIELDS = ([("abstraction", AbstractionParams, f)
                    for f in fields(AbstractionParams)]
                   + [("train", TrainConfig, f) for f in fields(TrainConfig)])


class TestSettingsSchema:
    BASE = "world = env_a\ntrain.profile = default\n"

    @pytest.mark.parametrize("group,cls,f", SETTINGS_FIELDS,
                             ids=[f"{g}.{f.name}" for g, _, f in SETTINGS_FIELDS])
    def test_config_line_sets_one_field(self, tmp_path, group, cls, f):
        text, value = sample_setting(cls, f)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.BASE)
        base = load_experiment_config(str(cfg))
        cfg.write_text(self.BASE + f"{group}.{f.name} = {text}\n")
        spec = load_experiment_config(str(cfg))
        expected = replace(getattr(base, group), **{f.name: value})
        assert getattr(spec, group) == expected != getattr(base, group)
        other = "train" if group == "abstraction" else "abstraction"
        assert getattr(spec, other) == getattr(base, other)

    @pytest.mark.parametrize("line", [
        "train.bogus = 1", "abstraction.n_goals = abc", "stage_limit = abc",
        "goal_tol = x", "train.learner = foo", "train.hidden = 64",
        "train.hidden = -1,5", "train.cem_hidden = 8,0", "train.cem_population = 0",
        "train.max_steps = 0", "abstraction.max_regions = 2.5",
        "monolithic_all_seeds = yes", "kind = hexagonal", "seeds = 0,a",
        "eval_episodes = 0", "stage_limit = 0", "world = env_b",
        "goal_tol = -1", "goal_tol = 0", "goal_tol = inf",
        "abstraction.percentile = 200", "abstraction.n_goals = 0",
        "abstraction.inits_per_goal = -1", "abstraction.min_cells = 0",
        "abstraction.max_regions = 0", "abstraction.threshold = -0.5",
        "abstraction.threshold = nan", "abstraction.region_threshold = 0",
        "stage_limit = 100\nstage_limit = 300",
        "problem.1 = 1,1 -> 2,2\nproblem.01 = 3,3 -> 4,4",
        "train.max_steps = 10\n# again\ntrain.max_steps = 20",
        "train.actor_lr = -5", "train.actor_lr = 0", "train.actor_lr = nan",
        "train.critic_lr = inf", "train.critic_lr = -1e-3",
        "train.entropy_coef = -0.1", "train.entropy_coef = nan",
        "train.entropy_coef = inf", "train.start_steps = -1", "train.cem_iters = 0",
        "train.stop_avg_reward = nan"])
    def test_bad_value_names_its_line(self, tmp_path, line):
        # the last line is the bad one: a bad value or a key given twice
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"world = env_a\n# the bad line follows\n{line}\n")
        with pytest.raises(ParseError) as err:
            load_experiment_config(str(cfg))
        assert err.value.line == 2 + len(line.splitlines())
        assert line.splitlines()[-1].split(" =")[0] in str(err.value)

    @pytest.mark.parametrize("key", [
        "train.discount", "train.reward_scale", "train.tau", "train.replay_capacity",
        "train.update_every", "train.updates_per_round", "train.cem_elite_frac",
        "train.cem_sigma", "train.cem_episodes"], ids=lambda key: key)
    def test_fixed_constant_is_not_a_setting(self, tmp_path, key):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"world = env_a\n# a protocol constant\n{key} = 0.9\n")
        with pytest.raises(ParseError) as err:
            load_experiment_config(str(cfg))
        assert err.value.line == 3
        assert f"unknown setting {key!r}" in str(err.value)

    def test_optional_field_accepts_none(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("world = env_a\nabstraction.max_regions = none\n"
                       "goal_tol = 0.75\nmonolithic_all_seeds = true\n")
        spec = load_experiment_config(str(cfg))
        assert spec.abstraction.max_regions is None
        assert spec.goal_tol == 0.75 and spec.monolithic_all_seeds is True


def test_build_library_deterministic():
    w = open_world(14, 14, noise_sigma=0.02)
    params = AbstractionParams(n_goals=6, inits_per_goal=3, percentile=80.0,
                               min_cells=1, max_regions=3)
    d1, lib1 = build_library(w, "centroid", params)
    d2, lib2 = build_library(w, "centroid", params)
    assert np.array_equal(d1, d2)
    assert [o.id for o in lib1.options] == [o.id for o in lib2.options]


class TestSelectRegions:
    def test_single_door_world_partitions(self):
        params = AbstractionParams()
        density = collect_solution_density(TWO_ROOMS, params.n_goals,
                                           params.inits_per_goal,
                                           np.random.default_rng(0))
        regions, threshold = select_regions(TWO_ROOMS, density, params)
        assert len(regions) >= 2
        cells = [c for r in regions for c in r.cells]
        assert len(cells) == len(set(cells))
        assert all(TWO_ROOMS.cell_free(c) for c in cells)
        assert select_regions(TWO_ROOMS, density, params) == (regions, threshold)
        _, library = build_library(TWO_ROOMS, "centroid", params)
        assert len(library.rbvd.states) >= 2

    def test_two_blobs_match_extraction(self, empty10):
        d = np.zeros((10, 10))
        for ix, iy in [(1, 1), (1, 2), (2, 1), (2, 2), (7, 7), (7, 8), (8, 7)]:
            d[iy, ix] = 1.0
        expected = extract_critical_regions(empty10, d, threshold=0.5, min_cells=3)
        assert len(expected) == 2
        assert select_regions(empty10, d, AbstractionParams(threshold=0.5)) == \
            (expected, 0.5)

    def test_lone_region_gets_farthest_anchor(self):
        # only the door cell clears 0.9 (too small), so extraction retries at
        # the 80th percentile (0.1) and finds one 3-cell region across the door
        d = np.where(TWO_ROOMS.occupancy, 0.0, 0.1)
        d[3, 4], d[3, 5], d[3, 6] = 0.5, 1.0, 0.5
        regions, threshold = select_regions(TWO_ROOMS, d,
                                            AbstractionParams(threshold=0.9))
        assert threshold == pytest.approx(0.1)
        assert regions[0].cells == {(4, 3), (5, 3), (6, 3)}
        # removing it splits the rooms, so each room gets its farthest cell:
        # (1, 1) and (1, 5) are both 5 cells away, (8, 1) and (8, 5) both 4;
        # the lower cell wins
        assert [r.cells for r in regions[1:]] == [{(1, 1)}, {(8, 1)}]
        assert regions[1].centroid == Configuration(1.5, 1.5)

    def test_lone_region_without_split_gets_one_anchor(self, empty10):
        d = np.zeros((10, 10))
        d[4:6, 4:6] = 1.0
        regions, _ = select_regions(empty10, d, AbstractionParams(threshold=0.5))
        assert regions[0].cells == {(4, 4), (4, 5), (5, 4), (5, 5)}
        # the four corners are all 8 cells away; the lowest wins
        assert len(regions) == 2 and regions[1].cells == {(0, 0)}

    def test_rooms_fall_in_different_states(self):
        # the door region's own state reaches into both rooms; the states of
        # the rooms' far ends lie on either side of it
        _, library = build_library(TWO_ROOMS, "centroid", AbstractionParams())
        rbvd = library.rbvd
        left = rbvd.state_of(Configuration(1.5, 1.5))
        right = rbvd.state_of(Configuration(8.5, 1.5))
        assert left.id != right.id
        assert all(ix < 5 for ix, _ in left.cells)
        assert all(ix > 5 for ix, _ in right.cells)
