import json
import os
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

from sharp import artifacts, cli, experiment, planner
from sharp.cli import _abstraction_params, build_parser, main
from sharp.errors import GuideUnreachable, SharpError
from sharp.experiment import (AbstractionParams, desk_train_config,
                              load_experiment_config, load_world, smoke_train_config)
from sharp.mlp import Mlp
from sharp.world import (Configuration, parse_sidecar, start_heading, world_from_text,
                         world_hash)

from helpers import density_from_payload, sample_setting


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("given, expected", [({}, ["1", "1", "1"]),
                                             ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"])],
                         ids=["unset", "user-set"])
def test_import_pins_blas_threads_unless_set(given, expected):
    # a fresh interpreter, as the sharp command is: the package sets what is
    # unset before numpy loads and keeps what the user set
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import os, sharp.cli; print(*(os.environ.get(v) for v in %r))" % (BLAS_THREADS,)
    out = subprocess.run([sys.executable, "-c", code], env={**env, **given},
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == expected


def test_python_m_sharp_runs_the_cli():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "sharp", "--help"], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: sharp")


@pytest.fixture
def tiny_world_file(tmp_path):
    """A small two-room world file plus sidecar, cheap to run the CLI on."""
    rows = ["##########",
            "#....#...#",
            "#....#...#",
            "#........#",
            "#....#...#",
            "#....#...#",
            "##########"]
    text = "P1-ASCII 10 7 1\n" + "\n".join(rows) + "\n"
    path = tmp_path / "tiny.txt"
    path.write_text(text)
    (tmp_path / "tiny.txt.cfg").write_text("kinematics=holonomic\n"
                                           "noise_sigma=0.02\nmax_step=1.0\n")
    return str(path)


class TestWorldsCommand:
    def test_lists_bundled(self, capsys):
        assert main(["worlds"]) == 0
        out = capsys.readouterr().out
        for name in ("env_a", "env_b", "env_c", "env_d", "env_e"):
            assert name in out

    def test_export_round_trips(self, tmp_path, capsys):
        assert main(["worlds", "--export", str(tmp_path)]) == 0
        text = (tmp_path / "env_a.txt").read_text()
        overrides = parse_sidecar((tmp_path / "env_a.txt.cfg").read_text())
        world = world_from_text(text, **overrides)
        assert world.width == 30 and world.noise_sigma == 0.05


class TestPipelineCommands:
    def test_regions_on_file_world(self, tiny_world_file, capsys):
        assert main(["regions", "--world", tiny_world_file, "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "critical regions" in out

    def test_regions_percentile_flag(self, tiny_world_file, tmp_path, capsys):
        out_path = str(tmp_path / "density.json")
        assert main(["regions", "--world", tiny_world_file, "--percentile", "90",
                     "--out", out_path]) == 0
        out = capsys.readouterr().out
        density = density_from_payload(
            artifacts.load_artifact(out_path, "density-grid"))
        threshold = np.percentile(density[density > 0], 90)
        assert f"(threshold {threshold:.4f})" in out

    def test_abstract_grid_output(self, tiny_world_file, capsys):
        assert main(["abstract", "--world", tiny_world_file, "--grid"]) == 0
        out = capsys.readouterr().out
        assert "abstract states" in out

    def test_options_listing(self, tiny_world_file, capsys):
        assert main(["options", "--world", tiny_world_file,
                     "--kind", "centroid"]) == 0
        out = capsys.readouterr().out
        assert "options:" in out

    def test_solve_smoke(self, tiny_world_file, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        rc = main(["solve", "--world", tiny_world_file, "--start", "1.5,1.5",
                   "--goal", "8.5,1.5", "--profile", "smoke", "--episodes", "3",
                   "--cache-dir", cache])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert set(result) >= {"plan", "options_trained", "success_rate"}
        assert os.path.isdir(cache)
        stages = result["stage_success"]
        assert [label for label, _ in stages] == ["bridge_in", *result["plan"],
                                                  "bridge_out"]
        assert all(0.0 <= value <= 1.0 for _, value in stages)

    def test_baseline_rrt(self, tiny_world_file, capsys):
        rc = main(["baseline", "--world", tiny_world_file, "--method",
                   "rrt_replan", "--start", "1.5,1.5", "--goal", "8.5,1.5",
                   "--episodes", "3", "--budget", "2000"])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result["method"] == "rrt_replan"
        assert result["success_rate"] > 0


    def test_baseline_monolithic(self, tiny_world_file, capsys):
        argv = ["baseline", "--world", tiny_world_file, "--method", "monolithic",
                "--start", "1.5,1.5", "--goal", "8.5,1.5", "--profile", "smoke",
                "--episodes", "3", "--budget", "600"]
        outs = []
        for _ in range(2):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        result = json.loads(outs[0])
        assert set(result) == {"method", "training_steps", "success_rate"}
        assert result["method"] == "monolithic"
        assert result["training_steps"] > 0
        assert 0.0 <= result["success_rate"] <= 1.0

    def test_library_cache_keyed_on_params(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        printed = []
        for n in ("2", "3", "2"):
            assert main(["abstract", "--world", "env_a", "--max-regions", n,
                         "--cache-dir", cache]) == 0
            printed.append(capsys.readouterr().out.split(" abstract states")[0])
        assert printed == ["2", "3", "2"]

class TestExperimentCommand:
    def test_experiment_with_config(self, tiny_world_file, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"world = {tiny_world_file}\n"
                       "problem.1 = 1.5,1.5 -> 8.5,1.5\n"
                       "train.profile = smoke\n"
                       "seeds = 0\n"
                       "stage_limit = 120\n"
                       "eval_episodes = 3\n"
                       "baselines = rrt_replan\n")
        out = tmp_path / "rows.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("env,problem,method")
        assert len(lines) == 3  # header + sharp + rrt_replan

    def test_experiment_keeps_policies_of_other_runs(self, tiny_world_file, tmp_path,
                                                     capsys):
        cache = str(tmp_path / "cache")
        assert main(["solve", "--world", tiny_world_file, "--start", "1.5,1.5",
                     "--goal", "8.5,1.5", "--profile", "smoke", "--episodes", "1",
                     "--cache-dir", cache]) == 0
        whash = world_hash(load_world(tiny_world_file)[0])
        solved = set(artifacts.load_cache(cache, whash))
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"world = {tiny_world_file}\n"
                       "problem.1 = 1.5,1.5 -> 8.5,1.5\n"
                       "train.profile = smoke\n"
                       "train.max_steps = 1000\n"
                       "eval_episodes = 1\n"
                       "baselines = none\n")
        assert main(["experiment", "--config", str(cfg), "--cache-dir", cache,
                     "--out", str(tmp_path / "rows.csv")]) == 0
        # another TrainConfig trains the same options under other keys
        kept = set(artifacts.load_cache(cache, whash))
        assert solved and solved < kept

    def test_malformed_policy_cache_fails_before_training(self, tmp_path, capsys,
                                                          monkeypatch):
        def train_stages(*args):
            raise AssertionError("trained against an unreadable policy cache")

        monkeypatch.setattr(planner, "train_stages", train_stages)
        (tmp_path / "w.txt").write_text(GRID)
        (tmp_path / "exp.cfg").write_text(CONFIG.format(tmp=tmp_path))
        whash = world_hash(load_world(str(tmp_path / "w.txt"))[0])
        (tmp_path / "cache" / whash).mkdir(parents=True)
        (tmp_path / "cache" / whash / artifacts.POLICY_CACHE_FILE).write_text("{")
        assert main(["experiment", "--config", str(tmp_path / "exp.cfg"),
                     "--cache-dir", str(tmp_path / "cache")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and artifacts.POLICY_CACHE_FILE in err

    def test_profile_defaults_to_desk_without_config(self, monkeypatch, capsys):
        specs = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda spec, cache_dir: specs.append(spec) or [])
        assert main(["experiment", "--world", "env_a"]) == 0
        assert main(["experiment", "--world", "env_a", "--profile", "smoke"]) == 0
        assert [s.train for s in specs] == [desk_train_config(), smoke_train_config()]

    def test_plotdata_from_rows(self, tiny_world_file, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"world = {tiny_world_file}\n"
                       "problem.1 = 1.5,1.5 -> 8.5,1.5\n"
                       "train.profile = smoke\n"
                       "eval_episodes = 2\n"
                       "stage_limit = 100\n"
                       "baselines = none\n")
        rows = tmp_path / "rows.csv"
        assert main(["experiment", "--config", str(cfg), "--out", str(rows)]) == 0
        outdir = tmp_path / "plots"
        assert main(["plotdata", "--rows", str(rows), "--out", str(outdir)]) == 0
        assert (outdir / "success_by_problem.csv").exists()
        assert (outdir / "training_by_problem.csv").exists()

    def test_cache_env_var(self, tiny_world_file, tmp_path, monkeypatch, capsys):
        cache = tmp_path / "envcache"
        monkeypatch.setenv("SHARP_CACHE_DIR", str(cache))
        rc = main(["solve", "--world", tiny_world_file, "--start", "1.5,1.5",
                   "--goal", "8.5,1.5", "--profile", "smoke", "--episodes", "2"])
        assert rc == 0
        assert cache.is_dir()


def test_error_reporting(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("NOT A WORLD\n")
    rc = main(["regions", "--world", str(bad)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_world_file_named_like_a_bundled_world_has_no_recipe(tmp_path, capsys,
                                                               monkeypatch):
    """sharp abstract and a config file naming an exported env_a.txt use the
    same AbstractionParams: the defaults, as for any world file."""
    assert main(["worlds", "--export", str(tmp_path)]) == 0
    path = str(tmp_path / "env_a.txt")
    used = []

    def record(world, kind, params, cache_dir):
        used.append(params)
        raise SharpError("recorded")

    monkeypatch.setattr(cli, "load_or_build_library", record)
    assert main(["abstract", "--world", path]) == 1
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"world = {path}\nproblem.1 = 1.25,1.25 -> 13.75,13.75\n")
    assert used == [load_experiment_config(str(cfg)).abstraction]
    assert used == [AbstractionParams()]


@pytest.mark.parametrize("f", fields(AbstractionParams),
                         ids=[f.name for f in fields(AbstractionParams)])
def test_abstraction_flag_sets_one_field(f):
    text, value = sample_setting(AbstractionParams, f)
    flag = "--" + f.name.replace("_", "-")
    parser = build_parser()
    recipe = load_world("env_a")[2]
    base = _abstraction_params(parser.parse_args(["regions", "--world", "env_a"]),
                               recipe)
    args = parser.parse_args(["regions", "--world", "env_a", flag, text])
    assert _abstraction_params(args, recipe) == \
        replace(base, **{f.name: value}) != base


GRID = ("P1-ASCII 10 7 1\n##########\n#....#...#\n#....#...#\n#........#\n"
        "#....#...#\n#....#...#\n##########\n")
REGIONS = ["regions", "--world", "{tmp}/w.txt"]
EXPERIMENT = ["experiment", "--config", "{tmp}/exp.cfg"]
CONFIG = ("world = {tmp}/w.txt\nproblem.1 = 1.5,1.5 -> 8.5,1.5\n"
          "train.profile = smoke\neval_episodes = 1\nbaselines = none\n")


@pytest.mark.parametrize("argv, files", [
    (["regions", "--world", "{tmp}/missing.txt"], {}),
    (["experiment", "--config", "{tmp}/missing.cfg"], {}),
    (["baseline", "--world", "env_a", "--method", "rrt_replan",
      "--start", "1,2,3,4", "--goal", "13.75,13.75"], {}),
    (["baseline", "--world", "env_a", "--method", "rrt_replan",
      "--start", "1.25,1.25", "--goal", "13.75"], {}),
    (["experiment", "--world", "env_a", "--seeds", "a"], {}),
    (["experiment", "--world", "env_a", "--seeds", ""], {}),
    (["experiment", "--world", "env_a", "--seeds", "0,0"], {}),
    (["baseline", "--world", "env_a", "--method", "monolithic", "--profile",
      "smoke", "--start", "0.25,0.25", "--goal", "13.75,13.75"], {}),
    (["regions", "--world", "env_a", "--n-goals", "abc"], {}),
    (REGIONS, {"w.txt": GRID, "w.txt.cfg": "noise_sigma=-0.1\n"}),
    (REGIONS, {"w.txt": GRID, "w.txt.cfg": "max_step=-1\n"}),
    (REGIONS, {"w.txt": GRID, "w.txt.cfg": "max_step=nan\n"}),
    (REGIONS, {"w.txt": GRID, "w.txt.cfg": "v_max=0\n"}),
    (REGIONS, {"w.txt": GRID, "w.txt.cfg": "omega_max=-1\n"}),
    (REGIONS, {"w.txt": GRID.replace(" 1\n", " nan\n", 1)}),
    (REGIONS, {"w.txt": GRID.replace(" 1\n", " inf\n", 1)}),
    (REGIONS, {"w.txt": GRID + "###\n"}),
    (REGIONS, {"w.txt": GRID, "w.txt.cfg": "max_step=1\nmax_step=0.5\n"}),
    (EXPERIMENT, {"w.txt": GRID,
                  "exp.cfg": CONFIG + "stage_limit = 100\nstage_limit = 30\n"}),
    (EXPERIMENT, {"w.txt": GRID,
                  "exp.cfg": CONFIG + "problem.01 = 1.5,1.5 -> 8.5,4.5\n"}),
    (EXPERIMENT, {"exp.cfg": "world = env_a\nproblem.1 = nan,1 -> 2,2\n"}),
    (["baseline", "--world", "env_a", "--method", "rrt_replan",
      "--start", "nan,1", "--goal", "2,2"], {}),
    (EXPERIMENT + ["--world", "env_b"], {"w.txt": GRID, "exp.cfg": CONFIG}),
    (EXPERIMENT + ["--profile", "desk"], {"w.txt": GRID, "exp.cfg": CONFIG}),
    (["abstract", "--world", "env_a", "--percentile", "200"], {}),
    (["abstract", "--world", "env_a", "--n-goals", "0"], {}),
    (["abstract", "--world", "env_a", "--inits-per-goal", "-1"], {}),
    (["baseline", "--world", "env_a", "--method", "rrt_replan",
      "--start", "0.2,0.2", "--goal", "3.25,1.25", "--episodes", "2"], {}),
], ids=["missing-world", "missing-config", "start-4-values", "goal-1-value",
        "bad-seeds", "empty-seeds", "repeated-seeds", "start-in-wall",
        "bad-flag-value", "negative-noise", "negative-step", "nan-step",
        "zero-speed", "negative-turn", "nan-cell", "inf-cell", "extra-row",
        "sidecar-key-twice", "config-key-twice",
        "problem-twice", "nan-problem", "nan-start", "config-and-world",
        "config-and-profile", "percentile-over-100", "zero-goals",
        "negative-inits", "rrt-start-in-wall"])
def test_user_input_fault_is_an_error_line(tmp_path, capsys, monkeypatch, argv,
                                           files):
    """files maps paths under tmp_path to their text, written first. No
    fault reaches an experiment run."""
    def run_experiment(*args, **kwargs):
        pytest.fail("an input fault ran the experiment")

    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    for rel, text in files.items():
        (tmp_path / rel).write_text(text.format(tmp=tmp_path))
    assert main([a.format(tmp=tmp_path) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["experiment", "--config", "", "--world", "env_a"],
    ["experiment", "--world", "env_a", "--out", ""],
    ["regions", "--world", "env_a", "--out", ""],
    ["abstract", "--world", "env_a", "--out", ""],
    ["options", "--world", "env_a", "--out", ""],
    ["worlds", "--export", ""],
    ["abstract", "--world", "env_a", "--cache-dir", ""],
    ["options", "--world", "env_a", "--cache-dir", ""],
    ["solve", "--world", "env_a", "--start", "1.25,1.25", "--goal", "13.75,13.75",
     "--cache-dir", ""],
    ["experiment", "--world", "env_a", "--cache-dir", ""],
    ["plotdata", "--rows", "", "--out", "plots"],
    ["plotdata", "--rows", "rows.csv", "--out", ""],
], ids=["experiment-config", "experiment-out", "regions-out", "abstract-out",
        "options-out", "worlds-export", "abstract-cache-dir", "options-cache-dir",
        "solve-cache-dir", "experiment-cache-dir", "plotdata-rows", "plotdata-out"])
def test_empty_path_is_an_error_line(tmp_path, capsys, monkeypatch, argv):
    """An empty path is an error before the command runs, not an absent
    option."""
    def run(args):
        pytest.fail("a command ran with an empty path")

    for name in ("worlds", "regions", "abstract", "options", "solve", "experiment",
                 "plotdata"):
        monkeypatch.setattr(cli, f"cmd_{name}", run)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    flag = argv[argv.index("") - 1]
    assert err.startswith("error: ") and flag in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_empty_cache_env_var_is_unset(tiny_world_file, tmp_path, monkeypatch,
                                      capsys):
    monkeypatch.setenv("SHARP_CACHE_DIR", "")
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["options", "--world", tiny_world_file]) == 0
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize("method", ["rrt_replan", "monolithic"])
def test_baselines_reject_an_endpoint_in_collision_alike(capsys, method):
    argv = ["baseline", "--world", "env_a", "--method", method, "--start", "0.2,0.2",
            "--goal", "3.25,1.25", "--episodes", "2"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: endpoints must be collision-free\n"


@pytest.mark.parametrize("argv, files, culprit", [
    (REGIONS, {"w.txt": GRID, "w.txt.cfg": "max_step=1\nmax_step=0.5\n"},
     "w.txt.cfg: 'max_step' repeats the key of line 1 (line 2)"),
    (REGIONS, {"w.txt": GRID, "w.txt.cfg": "max_step=fast\n"},
     "w.txt.cfg: bad value 'fast' for max_step (line 1)"),
    (REGIONS, {"w.txt": GRID + "###\n"}, "w.txt: more than 7 grid rows (line 9)"),
    (REGIONS, {"w.txt": GRID, "w.txt.cfg": "v_max=0\n"}, "w.txt: "),
    (EXPERIMENT, {"w.txt": GRID,
                  "exp.cfg": CONFIG + "stage_limit = 100\nstage_limit = 30\n"},
     "exp.cfg: 'stage_limit' repeats the key of line 6 (line 7)"),
    (EXPERIMENT, {"exp.cfg": "world = env_a\nproblem.1 = nan,1 -> 2,2\n"},
     "exp.cfg: coordinates must be finite, got 'nan,1 -> 2,2' (line 2)"),
    (EXPERIMENT, {"w.txt": GRID + "###\n", "exp.cfg": CONFIG},
     "w.txt: more than 7 grid rows (line 9)"),
], ids=["sidecar-key-twice", "sidecar-bad-value", "world-extra-row",
        "world-physics", "config-key-twice", "config-nan-problem",
        "config-names-world"])
def test_parse_error_names_its_file(tmp_path, capsys, argv, files, culprit):
    """A ParseError names the file whose text is at fault, and only that one."""
    for rel, text in files.items():
        (tmp_path / rel).write_text(text.format(tmp=tmp_path))
    assert main([a.format(tmp=tmp_path) for a in argv]) == 1
    assert capsys.readouterr().err.startswith(f"error: {tmp_path}/{culprit}")


SOLVE = ["solve", "--world", "{world}", "--start", "1.5,1.5", "--goal", "8.5,1.5",
         "--profile", "smoke", "--episodes", "1"]
BASELINE = ["baseline", "--world", "{world}", "--method", "rrt_replan",
            "--start", "1.5,1.5", "--goal", "8.5,1.5", "--episodes", "1"]


MONOLITHIC = ["baseline", "--world", "{world}", "--method", "monolithic",
              "--profile", "smoke", "--start", "1.5,1.5", "--goal", "8.5,1.5",
              "--episodes", "1", "--budget", "600"]


@pytest.mark.parametrize("argv, flag", [
    (SOLVE, "--episodes"), (BASELINE, "--episodes"), (MONOLITHIC, "--episodes"),
    (BASELINE, "--budget"), (MONOLITHIC, "--budget"), (SOLVE, "--stage-limit"),
], ids=["solve-episodes", "rrt-episodes", "monolithic-episodes", "rrt-budget",
        "monolithic-budget", "solve-stage-limit"])
@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_count_flag_must_be_positive(tiny_world_file, capsys, argv, flag, value):
    # a later flag overrides the one in argv
    argv = [a.format(world=tiny_world_file) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected a positive integer" in err


@pytest.mark.parametrize("argv, flag", [
    (SOLVE, "--out"), (BASELINE, "--out"),
    (["regions", "--world", "{world}"], "--config"),
    (["abstract", "--world", "{world}"], "--config"),
    (["options", "--world", "{world}"], "--config"),
    (SOLVE, "--config"), (BASELINE, "--config"),
    (["experiment", "--world", "env_a"], "--seed"),
    (["regions", "--world", "{world}"], "--cache-dir"),
    (BASELINE, "--cache-dir"),
], ids=["solve-out", "baseline-out", "regions-config", "abstract-config",
        "options-config", "solve-config", "baseline-config", "experiment-seed",
        "regions-cache-dir", "baseline-cache-dir"])
def test_unread_flag_is_a_usage_error(tiny_world_file, tmp_path, capsys, argv,
                                      flag):
    # a subcommand registers only the flags it reads
    argv = [a.format(world=tiny_world_file) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, str(tmp_path / "x")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def _drop_key(*path):
    def edit(payload):
        for k in path[:-1]:
            payload = payload[k]
        del payload[path[-1]]
    return edit


def _set_key(value, *path):
    def edit(payload):
        for k in path[:-1]:
            payload = payload[k]
        payload[path[-1]] = value
    return edit


LIBRARY_FAULTS = {
    "no-initiation": _drop_key("options", 0, "initiation"),
    "no-rep": _drop_key("options", 0, "termination", "rep"),
    "no-regions": _drop_key("rbvd", "regions"),
    "no-centroid": _drop_key("rbvd", "regions", 0, "centroid"),
    "cells-not-a-list": _set_key(7, "options", 0, "initiation", "cells"),
    "text-centroid": _set_key(["a", "b"], "rbvd", "regions", 0, "centroid"),
    "ragged-assignment": _set_key([[0, 1], [0]], "rbvd", "assignment"),
    "options-not-a-list": _set_key(3, "options"),
}


def _edited_library(world_file, cache_dir, edit):
    """Build the world's centroid library into cache_dir and edit the file;
    returns its path."""
    assert main(["abstract", "--world", world_file, "--cache-dir", str(cache_dir)]) == 0
    (path,) = cache_dir.glob("*/library_centroid_*.json")
    envelope = json.loads(path.read_text())
    edit(envelope["payload"])
    path.write_text(json.dumps(envelope))
    return path


@pytest.mark.parametrize("edit", LIBRARY_FAULTS.values(), ids=LIBRARY_FAULTS.keys())
def test_library_cache_fault_is_an_error_line(tiny_world_file, tmp_path, capsys,
                                              edit):
    path = _edited_library(tiny_world_file, tmp_path, edit)
    capsys.readouterr()
    assert main(["abstract", "--world", tiny_world_file, "--cache-dir",
                 str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "Traceback" not in err


def _shift_states(by):
    def edit(payload):
        for option in payload["options"]:
            option["states"] = [s + by for s in option["states"]]
    return edit


LIBRARY_KIND_FAULTS = {
    "library-kind": _set_key("sideways", "kind"),
    "mixed-kinds": _set_key("interface", "options", 0, "kind"),
    "three-states": _set_key([0, 1, 0], "options", 0, "states"),
    "unknown-state": _shift_states(7),
    "threshold": _set_key("x", "threshold"),
}


@pytest.mark.parametrize("edit", LIBRARY_KIND_FAULTS.values(),
                         ids=LIBRARY_KIND_FAULTS.keys())
def test_library_of_mixed_kinds_fails_solve_with_an_error_line(tiny_world_file,
                                                               tmp_path, capsys, edit):
    path = _edited_library(tiny_world_file, tmp_path, edit)
    capsys.readouterr()
    assert main(["solve", "--world", tiny_world_file, "--start", "1.5,1.5",
                 "--goal", "8.5,1.5", "--profile", "smoke", "--episodes", "1",
                 "--cache-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "Traceback" not in err


ROWS = ("env,problem,method,seed,success_rate,mean_steps,training_steps,"
        "options_trained,options_reused,error\r\n")


@pytest.mark.parametrize("argv, files, named", [
    (["regions", "--world", "{world}", "--out", "{tmp}/missing/x.json"], {},
     "{tmp}/missing/x.json"),
    (["abstract", "--world", "{world}", "--out", "{tmp}/missing/x.json"], {},
     "{tmp}/missing/x.json"),
    (["options", "--world", "{world}", "--out", "{tmp}/missing/x.json"], {},
     "{tmp}/missing/x.json"),
    (["plotdata", "--rows", "{tmp}/missing.csv", "--out", "{tmp}/plots"], {},
     "{tmp}/missing.csv"),
    (["plotdata", "--rows", "{tmp}/rows.csv", "--out", "{tmp}/plots"],
     {"rows.csv": ROWS + "e,1,sharp\r\n"}, "line 2"),
    (["plotdata", "--rows", "{tmp}/rows.csv", "--out", "{tmp}/plots"],
     {"rows.csv": ROWS + "e,1,sharp,0,1.0,5.0,10,1,0,\r\n"
                         "e,one,sharp,0,1.0,5.0,10,1,0,\r\n"}, "line 3"),
    (["plotdata", "--rows", "{tmp}/rows.csv", "--out", "{tmp}/plots"],
     {"rows.csv": ROWS}, "no rows"),
    (["plotdata", "--rows", "{tmp}/rows.csv", "--out", "{tmp}/rows.csv/plots"],
     {"rows.csv": ROWS + "e,1,sharp,0,1.0,5.0,10,1,0,\r\n"}, "{tmp}/rows.csv/plots"),
    (["worlds", "--export", "{tmp}/f"], {"f": ""}, "{tmp}/f"),
    (["worlds", "--export", "{tmp}/out"], {"out/env_a.txt": None},
     "{tmp}/out/env_a.txt"),
    (["worlds", "--export", "{tmp}/out"], {"out/env_a.txt.cfg": None},
     "{tmp}/out/env_a.txt.cfg"),
    (["abstract", "--world", "{world}", "--cache-dir", "{tmp}/f"], {"f": ""},
     "{tmp}/f"),
    (["abstract", "--world", "{world}", "--cache-dir", "{tmp}/c"], {"c/{hash}": ""},
     "{tmp}/c/{hash}"),
], ids=["regions-out", "abstract-out", "options-out", "missing-rows",
        "three-field-row", "text-problem", "no-rows", "plots-under-a-file",
        "export-onto-a-file", "export-world-onto-a-dir", "export-sidecar-onto-a-dir",
        "cache-dir-is-a-file", "world-cache-dir-is-a-file"])
def test_file_fault_is_an_error_line(tiny_world_file, tmp_path, capsys, argv,
                                     files, named):
    """files maps paths under tmp_path to their text, or to None for a
    directory, made before the command runs."""
    fmt = {"world": tiny_world_file, "tmp": tmp_path,
           "hash": world_hash(load_world(tiny_world_file)[0])}
    for rel, text in files.items():
        path = tmp_path / rel.format(**fmt)
        path.parent.mkdir(parents=True, exist_ok=True)
        if text is None:
            path.mkdir()
        else:
            path.write_text(text, newline="")
    assert main([a.format(**fmt) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert named.format(**fmt) in err


def test_cache_dir_file_rejected_before_building(tiny_world_file, tmp_path,
                                                 capsys, monkeypatch):
    def build(*args):
        raise AssertionError("built a library for an unusable cache directory")

    monkeypatch.setattr(experiment, "build_library", build)
    (tmp_path / "f").write_text("")
    argv = ["abstract", "--world", tiny_world_file, "--cache-dir", str(tmp_path / "f")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_directory_at_library_path_is_an_error_line(tiny_world_file, tmp_path,
                                                     capsys):
    argv = ["options", "--world", tiny_world_file, "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    (library,) = tmp_path.glob("*/library_*.json")
    library.unlink()
    library.mkdir()
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"cannot read {library}" in err


class TestOneProtocol:
    """solve and baseline print the rows of a one-problem experiment: the
    same per-problem code on the streams of problem 1."""

    def cli_json(self, capsys, *argv):
        assert main(list(argv)) == 0
        return json.loads(capsys.readouterr().out)

    # the second problem's monolithic row succeeds in some episodes only
    @pytest.mark.parametrize("start, goal", [((1.5, 1.5), (8.5, 1.5)),
                                             ((4.5, 1.5), (4.5, 5.5))])
    def test_solve_and_baselines_print_the_experiment_rows(self, tiny_world_file,
                                                           capsys, start, goal):
        world, name, _ = load_world(tiny_world_file)
        spec = experiment.ExperimentSpec(
            name=name, world=world, kind="centroid",
            problems=[(Configuration(*start, start_heading(world)),
                       Configuration(*goal))],
            train=smoke_train_config(), eval_episodes=5)
        rows = {r.method: r for r in experiment.run_experiment(spec)}
        sharp, rrt, mono = rows["sharp"], rows["rrt_replan"], rows["monolithic"]
        assert not (sharp.error or rrt.error or mono.error)

        problem = ["--world", tiny_world_file, "--start", "%g,%g" % start,
                   "--goal", "%g,%g" % goal, "--profile", "smoke", "--episodes", "5"]
        solved = self.cli_json(capsys, "solve", *problem)
        assert (solved["success_rate"], solved["mean_steps"],
                solved["training_steps"]) == (sharp.success_rate, sharp.mean_steps,
                                              sharp.training_steps)
        stages = len(solved["stage_success"])
        got = self.cli_json(capsys, "baseline", *problem, "--method", "rrt_replan",
                            "--budget", str(spec.stage_limit * stages))
        assert (got["success_rate"], got["mean_steps"]) == (rrt.success_rate,
                                                            rrt.mean_steps)
        got = self.cli_json(capsys, "baseline", *problem, "--method", "monolithic",
                            "--budget", str(sharp.training_steps))
        assert (got["success_rate"], got["training_steps"]) == (mono.success_rate,
                                                                mono.training_steps)

    def test_monolithic_budget_below_eval_every_trains_eval_every(
            self, tiny_world_file, capsys):
        baseline = ["baseline", "--world", tiny_world_file, "--method", "monolithic",
                    "--start", "1.5,1.5", "--goal", "8.5,1.5", "--profile", "smoke",
                    "--episodes", "5", "--budget"]
        floor = smoke_train_config().eval_every
        assert (self.cli_json(capsys, *baseline, "1")
                == self.cli_json(capsys, *baseline, str(floor)))


def test_failed_solve_keeps_the_policies_it_trained(tiny_world_file, tmp_path,
                                                    capsys, monkeypatch):
    argv = ["solve", "--world", tiny_world_file, "--start", "1.5,1.5", "--goal",
            "8.5,1.5", "--profile", "smoke", "--episodes", "1"]
    assert main(argv) == 0
    plan = json.loads(capsys.readouterr().out)["plan"]
    real = planner.build_guide

    def build_guide(world, rbvd, option_id, *args):
        if option_id == "bridge-out":
            raise GuideUnreachable("no guide to the goal")
        return real(world, rbvd, option_id, *args)

    monkeypatch.setattr(planner, "build_guide", build_guide)
    cache = str(tmp_path / "cache")
    assert main(argv + ["--cache-dir", cache]) == 1
    assert capsys.readouterr().err == "error: no guide to the goal\n"
    whash = world_hash(load_world(tiny_world_file)[0])
    trained = [key.split("/")[1] for key in artifacts.load_cache(cache, whash)]
    assert plan and sorted(trained) == sorted(plan)


@pytest.mark.parametrize("layers", [(8, 8, 8, 4), (6, 5, 5, 4)],
                         ids=["input-width", "hidden-sizes"])
def test_cached_actor_of_another_shape_is_an_error_line(tiny_world_file, tmp_path,
                                                        capsys, layers):
    # every entry of a filled cache rewritten with an actor that does not fit
    # its key: the smoke profile trains (6, 8, 8, 4) actors on this world
    cache = str(tmp_path / "cache")
    argv = ["solve", "--world", tiny_world_file, "--start", "1.5,1.5", "--goal",
            "8.5,1.5", "--profile", "smoke", "--episodes", "1", "--cache-dir", cache]
    assert main(argv) == 0
    plan = json.loads(capsys.readouterr().out)["plan"]
    whash = world_hash(load_world(tiny_world_file)[0])
    entries = artifacts.load_cache(cache, whash)
    for entry in entries.values():
        entry.actor = Mlp(layers)
    artifacts.save_cache(cache, whash, entries)
    assert main(argv) == 1
    first = next(key for key in entries if key.split("/")[1] == plan[0])
    err = capsys.readouterr().err
    assert err == (f"error: policy cache entry {first!r} holds a {list(layers)} "
                   f"actor, not [6, 8, 8, 4]\n")
