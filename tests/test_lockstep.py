"""The lockstep engine: lane twins of the simulator and the observation
builder, and whole executions, checked bit for bit against the scalar code."""

import math

import numpy as np
import pytest

from sharp import planner
from sharp.abstraction import Region
from sharp.learn import (Policy, build_observation, build_observations, guide_table,
                         observation_dim)
from sharp.mlp import init_mlp, mlp_forward
from sharp.options import OptionGuide
from sharp.planner import ComposedPolicy, ExecutionTrace, Stage, execute_composed
from sharp.world import (Configuration, HolonomicAction, Kinematics, UnicycleAction,
                         steer_toward, step, step_lanes)

from conftest import grid_from_rows
from helpers import ScriptedPolicy, act, free_cells, steer_toward_lanes

ROWS = ["############",
        "#..........#",
        "#..........#",
        "#...###....#",
        "#...###....#",
        "#..........#",
        "#....#.....#",
        "#....#.....#",
        "############"]


def walled_world(kinematics=Kinematics.HOLONOMIC, noise_sigma=0.2):
    return grid_from_rows(ROWS, kinematics=kinematics, noise_sigma=noise_sigma,
                          max_step=1.0, v_max=1.0)


def free_configurations(world, rng, n):
    cells = free_cells(world)
    out = []
    for ix, iy in cells[rng.integers(len(cells), size=n)]:
        jx, jy = rng.uniform(0.0, 1.0, size=2)
        theta = (float(rng.uniform(-math.pi, math.pi))
                 if world.kinematics is Kinematics.UNICYCLE else None)
        out.append(Configuration(ix + jx, iy + jy, theta))
    return out


def lanes_of(configs):
    return (np.array([c.x for c in configs]), np.array([c.y for c in configs]),
            np.array([c.theta or 0.0 for c in configs]))


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


def commands(world, rng, n):
    """Random commands of every kind: in bounds, far out of bounds (into
    walls and past the border), zero, and negative or over-fast unicycle
    speeds and turn rates."""
    a0 = rng.normal(0.0, 1.5, size=n)
    a1 = rng.normal(0.0, 1.5, size=n)
    a0[::7] = 0.0
    a1[::7] = 0.0
    a0[1::9] *= 40.0
    a1[2::11] = 0.0
    return a0, a1


KINEMATICS = [Kinematics.HOLONOMIC, Kinematics.UNICYCLE]


@pytest.mark.parametrize("kinematics", KINEMATICS)
def test_step_lanes_equals_step(kinematics, rng):
    w = walled_world(kinematics)
    configs = free_configurations(w, rng, 400)
    a0, a1 = commands(w, rng, len(configs))
    seeds = rng.integers(2**32, size=len(configs))
    make = HolonomicAction if kinematics is Kinematics.HOLONOMIC else UnicycleAction
    scalar = [step(w, c, make(float(u), float(v)), np.random.default_rng(s))
              for c, u, v, s in zip(configs, a0, a1, seeds)]
    noise = np.array([np.random.default_rng(s).standard_normal(2) for s in seeds])
    x, y, theta = step_lanes(w, *lanes_of(configs), a0, a1, noise)
    assert same_bits(x, [c.x for c in scalar])
    assert same_bits(y, [c.y for c in scalar])
    if kinematics is Kinematics.UNICYCLE:
        assert same_bits(theta, [c.theta for c in scalar])
    # the cases the scalar step singles out all occur
    moved = np.hypot(x - lanes_of(configs)[0], y - lanes_of(configs)[1])
    assert (moved == 0).any() and (moved > 0).any()


@pytest.mark.parametrize("kinematics", KINEMATICS)
def test_step_lanes_rejects_non_finite_commands(kinematics):
    w = walled_world(kinematics)
    x, y, theta = lanes_of([Configuration(2.5, 2.5, 0.0), Configuration(3.5, 2.5, 0.0)])
    with pytest.raises(ValueError):
        step_lanes(w, x, y, theta, np.array([0.1, np.nan]), np.array([0.1, 0.1]),
                   np.zeros((2, 2)))


@pytest.mark.parametrize("kinematics", KINEMATICS)
def test_steer_toward_lanes_equals_steer_toward(kinematics, rng):
    w = walled_world(kinematics)
    configs = free_configurations(w, rng, 400)
    targets = [(c.x + dx, c.y + dy) for c, (dx, dy)
               in zip(configs, rng.normal(0.0, 2.0, size=(len(configs), 2)))]
    targets[::13] = [(c.x, c.y) for c in configs[::13]]  # already there
    scalar = [steer_toward(w, c, t) for c, t in zip(configs, targets)]
    tx, ty = np.array(targets).T
    a0, a1 = steer_toward_lanes(w, *lanes_of(configs), tx, ty)
    if kinematics is Kinematics.HOLONOMIC:
        assert same_bits(a0, [a.dx for a in scalar])
        assert same_bits(a1, [a.dy for a in scalar])
    else:
        assert same_bits(a0, [a.v for a in scalar])
        assert same_bits(a1, [a.omega for a in scalar])


def guide_through(points) -> OptionGuide:
    start, end = points[0], points[-1]
    return OptionGuide(option_id="g", initiation=Region(frozenset(), start),
                       termination=Region(frozenset(), end), points=list(points),
                       allowed_states=frozenset())


@pytest.mark.parametrize("kinematics", KINEMATICS)
def test_build_observations_equals_build_observation(kinematics, rng):
    # each lane reads its own guide, of one, two or four points
    w = walled_world(kinematics)
    guides = [guide_through([Configuration(1.5, 1.5), Configuration(6.3, 1.7),
                             Configuration(6.3, 5.2), Configuration(10.5, 6.5)]),
              guide_through([Configuration(2.5, 6.5)]),
              guide_through([Configuration(9.5, 1.5), Configuration(9.5, 6.5)])]
    configs = free_configurations(w, rng, 300)
    slot = rng.integers(len(guides), size=len(configs))
    batch = build_observations(w, guide_table(guides)[slot], *lanes_of(configs))
    assert batch.shape == (len(configs), observation_dim(w))
    assert same_bits(batch, [build_observation(w, guides[k], c)
                             for k, c in zip(slot, configs)])


@pytest.mark.parametrize("hidden", [(8, 8), (64, 64), (256, 256)])
def test_forward_rows_do_not_depend_on_batch_size(hidden, rng):
    # the engine forwards at least two rows so that this holds for every lane
    net = init_mlp(8, hidden, 4, rng)
    x = rng.normal(size=(160, 8))
    full = mlp_forward(net, x)
    for n in (2, 3, 5, 17, 64, 159):
        assert same_bits(mlp_forward(net, x[:n]), full[:n])


# -- whole executions ---------------------------------------------------------------


def homing_policy(world, guide) -> Policy:
    """An actor that heads along the guide: mu grows with the observation's
    vectors to the nearest guide point and on to its end. Small random
    weights fill the rest of the hidden layers, so that a one-row forward
    rounds differently from a batched one."""
    d = observation_dim(world)
    off = d - 4
    net = init_mlp(d, (8, 8), 4, np.random.default_rng(3))
    net.params *= 0.05
    w1, w2, w3 = net.weights
    w1[off, 0] = w1[off + 2, 0] = w1[off + 1, 1] = w1[off + 3, 1] = 0.8
    w2[0, 0] = w2[1, 1] = 1.5
    w3[0, 0] = w3[1, 1] = 6.0
    return Policy(actor=net, guide=guide)


def two_stage(world) -> ComposedPolicy:
    """Up the left wall, then along the top of the block to the right."""
    start = Configuration(1.5, 1.5, 0.0 if world.kinematics is Kinematics.UNICYCLE
                          else None)
    corner = Configuration(1.5, 6.5)
    goal = Configuration(10.5, 6.5)
    handover = frozenset((ix, iy) for ix in (1, 2) for iy in (6, 7))
    stages = [Stage("up", homing_policy(world, guide_through([start, corner])), handover),
              Stage("across", homing_policy(world, guide_through([corner, goal])),
                    frozenset([(10, 6)]))]
    return ComposedPolicy(stages=stages, x_start=start, x_goal=goal, goal_tol=1.0)


def scalar_execute(world, composed, per_stage_limit, rng) -> ExecutionTrace:
    """The stage automaton one step at a time, through the scalar step: the
    goal ball ends any stage, and every stage but the last hands over on
    entering its advance cells."""
    c = composed.x_start
    stage_steps = []
    last = len(composed.stages) - 1
    for idx, stage in enumerate(composed.stages):
        used = 0
        while True:
            if c.distance_to(composed.x_goal) <= composed.goal_tol:
                return ExecutionTrace(stage_steps + [used], "reached_goal", c.xy)
            if idx < last and world.cell_of(c.x, c.y) in stage.advance_cells:
                break
            if used >= per_stage_limit:
                return ExecutionTrace(stage_steps + [used], "stage_timeout", c.xy, idx)
            c = step(world, c, act(world, stage.policy, c), rng)
            used += 1
        stage_steps.append(used)


def lane_rngs(seeds):
    return [np.random.default_rng([7, s]) for s in seeds]


@pytest.mark.parametrize("block", [3, planner.NOISE_BLOCK])
@pytest.mark.parametrize("kinematics", KINEMATICS)
def test_lanes_match_scalar_automaton(kinematics, block, monkeypatch):
    # a small noise block makes lanes draw their noise in many pieces
    monkeypatch.setattr(planner, "NOISE_BLOCK", block)
    w = walled_world(kinematics, noise_sigma=0.4)
    composed = two_stage(w)
    (traces,) = execute_composed(w, [(composed, 11, lane_rngs(range(20)))])
    expected = [scalar_execute(w, composed, 11, rng) for rng in lane_rngs(range(20))]
    assert traces == expected
    # lanes hand over and finish at different ticks
    assert len({t.total_steps for t in traces}) > 3
    assert {t.outcome for t in traces} == {"reached_goal", "stage_timeout"}


@pytest.mark.parametrize("kinematics", KINEMATICS)
def test_lane_trace_does_not_depend_on_other_lanes(kinematics):
    w = walled_world(kinematics, noise_sigma=0.4)
    composed = two_stage(w)
    (many,) = execute_composed(w, [(composed, 11, lane_rngs(range(20)))])
    for k in (0, 5, 13):
        (alone,) = execute_composed(w, [(composed, 11, lane_rngs([k]))])
        (paired,) = execute_composed(w, [(composed, 11, lane_rngs([k, (k + 1) % 20]))])
        assert alone[0] == paired[0] == many[k]


def test_zero_step_stages_and_zero_limit():
    w = walled_world()
    composed = two_stage(w)
    composed.stages[0].advance_cells = frozenset([w.cell_of(1.5, 1.5)])
    ((trace,),) = execute_composed(w, [(composed, 0, lane_rngs([0]))])
    assert trace == ExecutionTrace([0, 0], "stage_timeout", (1.5, 1.5), 1)


@pytest.mark.parametrize("kinematics", KINEMATICS)
def test_goal_ball_ends_an_earlier_stage(kinematics):
    # the goal lies on the first stage's way up the left wall, short of its
    # hand-over cells: every lane ends there, in stage 0
    w = walled_world(kinematics, noise_sigma=0.4)
    composed = two_stage(w)
    composed.x_goal = Configuration(1.5, 4.0)
    (traces,) = execute_composed(w, [(composed, 30, lane_rngs(range(10)))])
    assert traces == [scalar_execute(w, composed, 30, rng)
                      for rng in lane_rngs(range(10))]
    assert {(t.outcome, len(t.stage_steps)) for t in traces} == {("reached_goal", 1)}


def mixed_runs(world) -> list:
    """(composed, per_stage_limit, lane seeds) of runs that differ in stage
    count, goal, goal tolerance and stage limit: the two-stage run, a
    three-stage one on to the bottom right corner, a one-stage flat run
    across the room, a run that starts in its goal ball, one with no lanes
    and one with a single lane, alone on its stages' nets."""
    theta = 0.0 if world.kinematics is Kinematics.UNICYCLE else None
    three = two_stage(world)
    corner, goal = Configuration(10.5, 6.5), Configuration(10.5, 1.5)
    three.stages[1].advance_cells = frozenset((ix, iy) for ix in (9, 10)
                                              for iy in (6, 7))
    three.stages.append(Stage("down", homing_policy(world, guide_through([corner, goal])),
                              frozenset()))
    three.x_goal, three.goal_tol = goal, 0.8
    start, across = Configuration(1.5, 1.5, theta), Configuration(10.5, 2.5)
    flat = ComposedPolicy(
        [Stage("flat", homing_policy(world, guide_through([start, across])),
               frozenset())], start, across, 0.6)
    home = two_stage(world)
    home.x_goal, home.goal_tol = Configuration(2.0, 2.2), 1.0
    return [(two_stage(world), 11, range(8)), (three, 14, range(10, 22)),
            (two_stage(world), 9, []), (flat, 40, range(30, 36)),
            (home, 5, range(40, 43)), (two_stage(world), 11, [50])]


def recorded_slots(monkeypatch, cls=Policy) -> list:
    """The slot array of every call of every lane controller of class cls
    built from now on, in call order."""
    calls = []
    real = cls.lane_controller

    def recording(world, policies):
        steer = real(world, policies)

        def record(slot, x, y, theta):
            calls.append(slot.copy())
            return steer(slot, x, y, theta)
        return record

    monkeypatch.setattr(cls, "lane_controller", staticmethod(recording))
    return calls


@pytest.mark.parametrize("kinematics", KINEMATICS)
def test_mixed_runs_match_each_run_alone(kinematics, monkeypatch):
    w = walled_world(kinematics, noise_sigma=0.4)
    runs = mixed_runs(w)
    calls = recorded_slots(monkeypatch)
    batch = execute_composed(w, [(c, limit, lane_rngs(seeds))
                                 for c, limit, seeds in runs])
    # lanes hand over and end at staggered ticks: on some tick the slots
    # the controller kept from the last change their content but not their
    # number, and on others their number
    assert any(len(a) == len(b) and (a != b).any() for a, b in zip(calls, calls[1:]))
    assert any(len(a) > len(b) for a, b in zip(calls, calls[1:]))
    assert [len(traces) for traces in batch] == [len(seeds) for _, _, seeds in runs]
    for (composed, limit, seeds), traces in zip(runs, batch):
        (alone,) = execute_composed(w, [(composed, limit, lane_rngs(seeds))])
        assert traces == alone == [scalar_execute(w, composed, limit, rng)
                                   for rng in lane_rngs(seeds)]
    two, three, _, flat, home, (lone,) = batch
    # lanes of the stepping runs end at many ticks, some in a third stage
    stepping = two + three + flat
    assert {t.outcome for t in stepping} == {"reached_goal", "stage_timeout"}
    assert len({t.total_steps for t in stepping}) > 5
    assert any(len(t.stage_steps) == 3 for t in three)
    assert {len(t.stage_steps) for t in flat} == {1}
    assert home == [ExecutionTrace([0], "reached_goal", (1.5, 1.5))] * 3
    assert lone.total_steps > 5


def test_no_runs_and_no_lanes():
    w = walled_world()
    assert execute_composed(w, []) == []
    assert execute_composed(w, [(two_stage(w), 5, [])]) == [[]]


# -- stalled ticks --------------------------------------------------------------------
# Once a tick leaves every live lane where it was, the engine steps the next
# ticks of all lanes in one call, in spans cut by the noise block, the first
# timeout and STALL_ROWS. Each case runs under small and large values of both.


def stalled_ticks(monkeypatch, block, rows) -> list:
    """Patch NOISE_BLOCK and STALL_ROWS; the slot arrays of every call of a
    ScriptedPolicy controller from now on."""
    monkeypatch.setattr(planner, "NOISE_BLOCK", block)
    monkeypatch.setattr(planner, "STALL_ROWS", rows)
    return recorded_slots(monkeypatch, ScriptedPolicy)


def aimed(world, x, y, theta, target, limit, seeds, advance=frozenset(), then=None):
    """(composed, per_stage_limit, lane seeds) of a run from (x, y) heading
    for the fixed point target, under one stage, or two with then, the
    second stage's target, after its lanes enter advance. theta is the start
    heading of unicycle lanes; a heading along the line to target steers
    with no turn at all."""
    theta = theta if world.kinematics is Kinematics.UNICYCLE else None
    start = Configuration(x, y, theta)
    stages = [Stage("s0", ScriptedPolicy([Configuration(*target)]), advance)]
    if then is not None:
        stages.append(Stage("s1", ScriptedPolicy([Configuration(*then)]), frozenset()))
    return ComposedPolicy(stages, start, Configuration(5.5, 6.5), 0.5), limit, seeds


def pushing_runs(world, limits=(30, 45, 64)) -> list:
    """Lanes that start against the east, north and west walls and push
    straight into them: no noise draw frees them."""
    east, north, west = limits
    return [aimed(world, 10.97, 1.5, 0.0, (20.0, 1.5), east, range(4)),
            aimed(world, 2.5, 7.96, math.pi / 2, (2.5, 20.0), north, range(10, 13)),
            aimed(world, 1.03, 4.5, math.pi, (-10.0, 4.5), west, range(20, 25))]


def run_and_check(world, runs, calls):
    """Every run's traces in one batch, after checking each against the run
    alone and against scalar_execute; and the number of controller calls
    the batch made."""
    batch = execute_composed(world, [(c, limit, lane_rngs(seeds))
                                     for c, limit, seeds in runs])
    made = len(calls)
    for (composed, limit, seeds), traces in zip(runs, batch):
        (alone,) = execute_composed(world, [(composed, limit, lane_rngs(seeds))])
        assert traces == alone == [scalar_execute(world, composed, limit, rng)
                                   for rng in lane_rngs(seeds)]
    return batch, made


def ticks_of(batch) -> int:
    return max(t.total_steps for traces in batch for t in traces)


STALL_CASES = [(block, rows) for block in (3, 32) for rows in (1, 7, 512)]


@pytest.mark.parametrize("block, rows", STALL_CASES)
@pytest.mark.parametrize("kinematics", KINEMATICS)
def test_lanes_pushing_into_walls_skip_their_ticks(kinematics, block, rows, monkeypatch):
    calls = stalled_ticks(monkeypatch, block, rows)
    stepped = []   # rows of each step_lanes call
    real_step = planner.step_lanes

    def step_lanes(world, x, *args):
        stepped.append(len(x))
        return real_step(world, x, *args)

    monkeypatch.setattr(planner, "step_lanes", step_lanes)
    w = walled_world(kinematics, noise_sigma=0.2)
    runs = pushing_runs(w)
    batch, made = run_and_check(w, runs, calls)
    for (composed, limit, _), traces in zip(runs, batch):
        assert {(t.outcome, t.total_steps, t.end) for t in traces} == {
            ("stage_timeout", limit, composed.x_start.xy)}
    assert made < ticks_of(batch) / 2
    # a call steps at most STALL_ROWS rows, or one tick of every lane
    lanes = sum(len(seeds) for _, _, seeds in runs)
    assert max(stepped) <= max(rows, lanes)
    assert (max(stepped) > lanes) == (rows // lanes > 1)


@pytest.mark.parametrize("block, rows", STALL_CASES)
@pytest.mark.parametrize("kinematics", KINEMATICS)
def test_noise_frees_a_stalled_lane(kinematics, block, rows, monkeypatch):
    # 0.2 short of the north wall, a push of about one unit takes its first
    # sweep sub-sample past the wall for most draws but not for all; the
    # freed lanes creep up to the wall and stall again
    calls = stalled_ticks(monkeypatch, block, rows)
    w = walled_world(kinematics, noise_sigma=0.2)
    runs = [aimed(w, 8.5, 7.8, math.pi / 2, (8.5, 20.0), 40, range(6))]
    runs += pushing_runs(w, limits=(40, 40, 40))[:1]
    batch, made = run_and_check(w, runs, calls)
    creeping = batch[0]
    assert any(t.end != (8.5, 7.8) for t in creeping)
    # the first tick moved no lane, and lanes were freed after it
    assert 1 < made < ticks_of(batch) / 2


@pytest.mark.parametrize("block, rows", STALL_CASES)
@pytest.mark.parametrize("kinematics", KINEMATICS)
def test_stage_timeouts_inside_a_skip(kinematics, block, rows, monkeypatch):
    # four stage limits, and a run whose lanes hand over after a few moving
    # ticks to a stage that runs them down into the south wall, so that its
    # lanes stall and time out at ticks of their own
    calls = stalled_ticks(monkeypatch, block, rows)
    w = walled_world(kinematics, noise_sigma=0.2)
    runs = pushing_runs(w, limits=(5, 13, 29))
    runs.append(aimed(w, 7.5, 1.5, 0.0, (20.0, 1.5), 17, range(30, 38),
                      advance=frozenset((10, iy) for iy in range(1, 8)),
                      then=(10.5, -10.0)))
    batch, _ = run_and_check(w, runs, calls)
    handing = batch[-1]
    assert {t.outcome for t in handing} == {"stage_timeout"}
    assert {t.timeout_stage for t in handing} == {1}
    assert len({t.total_steps for t in handing}) > 1


@pytest.mark.parametrize("block, rows", STALL_CASES)
@pytest.mark.parametrize("kinematics", KINEMATICS)
def test_a_moving_lane_keeps_every_tick(kinematics, block, rows, monkeypatch):
    calls = stalled_ticks(monkeypatch, block, rows)
    w = walled_world(kinematics, noise_sigma=0.2)
    loop = [Configuration(7.5, 2.5), Configuration(9.5, 2.5), Configuration(9.5, 6.5),
            Configuration(7.5, 6.5), Configuration(7.5, 2.5)]
    start = Configuration(7.5, 2.5, 0.0 if kinematics is Kinematics.UNICYCLE else None)
    circling = ComposedPolicy([Stage("loop", ScriptedPolicy(loop), frozenset())], start,
                              Configuration(1.5, 1.5), 0.5)
    runs = pushing_runs(w) + [(circling, 70, [50])]
    batch, made = run_and_check(w, runs, calls)
    assert batch[-1][0].total_steps == ticks_of(batch) == 70
    assert made == 70


@pytest.mark.parametrize("block, rows", STALL_CASES)
def test_unicycle_lanes_turning_against_a_wall(block, rows, monkeypatch):
    # facing away from the east wall, these lanes turn in place toward a
    # point beyond it, then push into it while their heading error decays:
    # a heading that changes is a move, so no tick is skipped while they live
    calls = stalled_ticks(monkeypatch, block, rows)
    w = walled_world(Kinematics.UNICYCLE, noise_sigma=0.2)
    turning = aimed(w, 10.9, 3.5, math.pi, (20.0, 3.5), 15, range(40, 46))
    batch, made = run_and_check(w, [turning] + pushing_runs(w), calls)
    assert {t.outcome for t in batch[0]} == {"stage_timeout"}
    assert 15 < made < ticks_of(batch) / 2
