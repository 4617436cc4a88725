"""Occupancy-grid world model: collision oracle and a seeded stochastic simulator.

The collision oracle is the world's frozenset of free ``(ix, iy)`` cells: a
point collides unless its cell is in the set, so every point off the grid
collides. A swept segment is checked at the points that ``sweep`` lists, and
``_walk_sweep`` is the one definition of that check. A ``CellTable`` pairs a
set of free cells with a summed-area table of the grid's other cells, and
answers most checks without the walk: a segment whose last point's cell is
outside the set is blocked, and one whose bounding box of cells lies in the
set is free. The walk runs only when neither holds. The world keeps the table
of its free set.

Coordinate conventions used everywhere in the package:

* world coordinates are meters, x to the right, y up;
* a grid cell is addressed as ``(ix, iy)`` with ``iy = 0`` at the bottom;
* the cell ``(ix, iy)`` covers ``[ix*cs, (ix+1)*cs) x [iy*cs, (iy+1)*cs)``
  where ``cs`` is the cell size, so its center is ``((ix+.5)*cs, (iy+.5)*cs)``.

The text file format stores row 0 as the *top* row; parsing flips it.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InCollision, NoFreeSpace, ParseError
from .settings import read_key_values

TWO_PI = 2.0 * math.pi

# Swept segments are sampled at this fraction of a cell so motion cannot
# tunnel through a one-cell wall.
SWEEP_FRACTION = 0.25


def _walk_sweep(a: tuple[float, float], b: tuple[float, float], cell_size: float,
                cells, first: int) -> tuple[list, bool]:
    """Walk the points a + (i/n)(b - a), i = first..n, of the swept segment
    a->b: n equal sub-steps, each at most SWEEP_FRACTION of a cell, and at
    least one. Stops before the first point whose cell is not in cells;
    cells=None walks them all. Returns the points walked and whether they
    are all of them."""
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    n = max(1, int(math.ceil(math.hypot(dx, dy) / (SWEEP_FRACTION * cell_size))))
    floor = math.floor
    points = []
    for i in range(first, n + 1):
        t = i / n
        x, y = ax + t * dx, ay + t * dy
        # cell_of inlined: a call per point doubles the time
        if cells is not None and (floor(x / cell_size), floor(y / cell_size)) not in cells:
            return points, False
        points.append((x, y))
    return points, True


def sweep(a: tuple[float, float], b: tuple[float, float],
          cell_size: float) -> list[tuple[float, float]]:
    """The points a + (i/n)(b - a), i = 0..n, of the swept segment a->b, n
    as _walk_sweep sets it."""
    return _walk_sweep(a, b, cell_size, None, 0)[0]


# Why a table answers a sweep check exactly: point i of the sweep a->b is
# a + t * (b - a) with t = i/n in [0, 1], each operation rounded. Rounding
# is monotone, so per axis t * (b - a) lies between 0 and b - a, and the point
# between a and a + (b - a), the last point (t = 1 exactly). Dividing by the
# cell size and flooring are monotone too, so every point's cell lies in the
# box of cells spanned by the cells of a and of the last point. The walk
# reaches the last point unless it stops earlier, so a last point outside the
# cells makes the segment blocked, and a box inside them makes it free.


@dataclass(frozen=True)
class CellTable:
    """A set of cells of a grid and the summed-area table (Crow, 1984) of
    the grid's cells outside it: blocked[iy][ix] counts those in columns
    below ix and rows below iy."""

    cells: frozenset
    blocked: list

    def holds_box(self, c: tuple[int, int], d: tuple[int, int]) -> bool:
        """Whether every cell of the box with corner cells c and d is in
        cells: four table lookups."""
        (cx, cy), (dx, dy) = c, d
        lx, hx = (cx, dx + 1) if cx <= dx else (dx, cx + 1)
        ly, hy = (cy, dy + 1) if cy <= dy else (dy, cy + 1)
        blocked = self.blocked
        if lx < 0 or ly < 0 or hy >= len(blocked) or hx >= len(blocked[0]):
            return False
        lo, hi = blocked[ly], blocked[hy]
        return hi[hx] - hi[lx] - lo[hx] + lo[lx] == 0


def cell_table(world: "OccupancyWorld", cells) -> CellTable:
    """The CellTable of a set of cells on the world's grid."""
    w, h = world.width, world.height
    outside = np.ones(h * w, dtype=np.int64)
    outside[[iy * w + ix for ix, iy in cells]] = 0
    blocked = np.zeros((h + 1, w + 1), dtype=np.int64)
    blocked[1:, 1:] = outside.reshape(h, w).cumsum(axis=0).cumsum(axis=1)
    return CellTable(frozenset(cells), blocked.tolist())


def wrap_angle(theta: float) -> float:
    """Normalize an angle to [-pi, pi)."""
    return (theta + math.pi) % TWO_PI - math.pi


class Kinematics(enum.Enum):
    HOLONOMIC = "holonomic"
    UNICYCLE = "unicycle"


@dataclass(frozen=True)
class Configuration:
    """A point in the robot's configuration space.

    ``theta`` is present (not None) only under unicycle kinematics.
    """

    x: float
    y: float
    theta: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite configuration ({self.x}, {self.y})")
        if self.theta is not None:
            object.__setattr__(self, "theta", wrap_angle(self.theta))

    @property
    def xy(self) -> tuple[float, float]:
        return (self.x, self.y)

    def distance_to(self, other: "Configuration | tuple[float, float]") -> float:
        ox, oy = (other.x, other.y) if isinstance(other, Configuration) else other
        return math.hypot(self.x - ox, self.y - oy)


@dataclass(frozen=True)
class HolonomicAction:
    """Commanded planar displacement, Euclidean norm bounded by max_step."""

    dx: float
    dy: float


@dataclass(frozen=True)
class UnicycleAction:
    """Forward velocity and turn rate applied for one tick (dt = 1)."""

    v: float
    omega: float


Action = HolonomicAction | UnicycleAction


@dataclass
class OccupancyWorld:
    """Immutable grid environment plus robot kinematics and noise model.

    occupancy[iy, ix] is True on obstacle cells. Queries never mutate the
    world, so one instance is safely shared by concurrent rollouts.
    """

    width: int
    height: int
    cell_size: float
    occupancy: np.ndarray
    kinematics: Kinematics = Kinematics.HOLONOMIC
    noise_sigma: float = 0.0
    max_step: float = 1.0
    v_max: float = 1.0
    omega_max: float = math.pi / 4.0
    free_set: frozenset = field(init=False, repr=False, compare=False)  # (ix, iy)
    free_list: list = field(init=False, repr=False, compare=False)  # row-major
    free_table: CellTable = field(init=False, repr=False, compare=False)
    # occupancy with a ring of occupied cells around it, for the lane sweep
    _walled: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("grid dimensions must be positive")
        for name in ("cell_size", "max_step", "v_max", "omega_max"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be nonnegative and finite, "
                             f"got {self.noise_sigma}")
        occ = np.array(self.occupancy, dtype=bool)  # private copy, then frozen
        if occ.shape != (self.height, self.width):
            raise ValueError(f"occupancy shape {occ.shape} != ({self.height}, {self.width})")
        occ.setflags(write=False)
        self.occupancy = occ
        iy, ix = np.nonzero(~occ)
        self.free_list = list(zip(ix.tolist(), iy.tolist()))
        self.free_set = frozenset(self.free_list)
        self.free_table = cell_table(self, self.free_set)
        self._walled = np.pad(occ, 1, constant_values=True)

    # -- geometry -----------------------------------------------------------

    @property
    def extent(self) -> tuple[float, float]:
        return (self.width * self.cell_size, self.height * self.cell_size)

    def cell_of(self, x: float, y: float) -> tuple[int, int]:
        return (int(math.floor(x / self.cell_size)), int(math.floor(y / self.cell_size)))

    def cell_center(self, cell: tuple[int, int]) -> tuple[float, float]:
        ix, iy = cell
        return ((ix + 0.5) * self.cell_size, (iy + 0.5) * self.cell_size)

    def in_bounds(self, cell: tuple[int, int]) -> bool:
        ix, iy = cell
        return 0 <= ix < self.width and 0 <= iy < self.height

    def cell_free(self, cell: tuple[int, int]) -> bool:
        return cell in self.free_set

    # -- collision oracle ----------------------------------------------------

    def collision_xy(self, x: float, y: float) -> bool:
        return self.cell_of(x, y) not in self.free_set

    def segment_free(self, a: tuple[float, float], b: tuple[float, float],
                     table: CellTable | None = None) -> bool:
        """True iff every point that sweep lists for a->b lies in a free
        cell, or, when given, in table.cells, a subset of the free cells.

        The table answers first: False when the cell of the last point,
        a + (b - a), is not in the cells; True when every cell of the box
        spanned by that cell and a's is. Otherwise _walk_sweep answers."""
        table = self.free_table if table is None else table
        cs = self.cell_size
        (ax, ay), (bx, by) = a, b
        floor = math.floor
        last = (floor((ax + (bx - ax)) / cs), floor((ay + (by - ay)) / cs))
        if last not in table.cells:
            return False
        if table.holds_box((floor(ax / cs), floor(ay / cs)), last):
            return True
        return _walk_sweep(a, b, cs, table.cells, 0)[1]


def start_heading(world: OccupancyWorld) -> float | None:
    """The heading of a problem's start that names none: 0 on a unicycle
    world, none on a holonomic one."""
    return 0.0 if world.kinematics is Kinematics.UNICYCLE else None


def collision(world: OccupancyWorld, c: Configuration) -> bool:
    """Collision function over configurations; out-of-bounds collides."""
    return world.collision_xy(c.x, c.y)


def require_free_endpoints(world: OccupancyWorld, x_i: Configuration,
                           x_g: Configuration) -> None:
    """Raise InCollision unless both endpoints of a problem are free."""
    if collision(world, x_i) or collision(world, x_g):
        raise InCollision("endpoints must be collision-free")


def clip_action(world: OccupancyWorld, a: Action) -> Action:
    """Clamp a command into the world's declared action bounds."""
    if isinstance(a, HolonomicAction):
        norm = math.hypot(a.dx, a.dy)
        if norm > world.max_step and norm > 0:
            s = world.max_step / norm
            return HolonomicAction(a.dx * s, a.dy * s)
        return a
    v = min(max(a.v, 0.0), world.v_max)  # forward-only drive
    omega = min(max(a.omega, -world.omega_max), world.omega_max)
    return UnicycleAction(v, omega)


def _truncate_to_free(world: OccupancyWorld, start: tuple[float, float],
                      target: tuple[float, float]) -> tuple[float, float]:
    """The last point that sweep lists for start->target before the first
    one in collision, start itself not checked; start when the first point
    after it collides."""
    if target == start:
        return start
    (sx, sy), (tx, ty) = start, target
    last = (sx + (tx - sx), sy + (ty - sy))
    # every point lies in this box of free cells, so the walk would end at last
    if world.free_table.holds_box(world.cell_of(sx, sy), world.cell_of(*last)):
        return last
    points, _ = _walk_sweep(start, target, world.cell_size, world.free_set, 1)
    return points[-1] if points else start


def step(world: OccupancyWorld, c: Configuration, a: Action,
         rng: np.random.Generator) -> Configuration:
    """Simulate one noisy action from a collision-free configuration.

    The command is clipped to the action bounds, perturbed by zero-mean
    Gaussian noise, integrated by the kinematic model, and the translation is
    truncated at the last free point of the swept segment. A fully blocked
    command leaves the position unchanged.

    Noise law (a declared model; the scale is a fraction of the command):
    holonomic commands get per-axis sigma = noise_sigma * ||(dx, dy)||;
    unicycle commands get sigma = noise_sigma * |v| on v and
    noise_sigma * |omega| on omega, so a zero component stays exactly zero
    and pure rotation never translates.
    """
    a = clip_action(world, a)
    noise = rng.standard_normal(2)
    if isinstance(a, HolonomicAction):
        sigma = world.noise_sigma * math.hypot(a.dx, a.dy)
        dx = a.dx + sigma * noise[0]
        dy = a.dy + sigma * noise[1]
        nx, ny = _truncate_to_free(world, c.xy, (c.x + dx, c.y + dy))
        return Configuration(nx, ny, c.theta)
    theta = c.theta if c.theta is not None else 0.0
    v = a.v + world.noise_sigma * abs(a.v) * noise[0]
    omega = a.omega + world.noise_sigma * abs(a.omega) * noise[1]
    # translate along the current heading, then rotate in place (dt = 1)
    nx, ny = _truncate_to_free(world, c.xy, (c.x + v * math.cos(theta),
                                             c.y + v * math.sin(theta)))
    return Configuration(nx, ny, wrap_angle(theta + omega))


def sample_in_cells(world: OccupancyWorld, cells,
                    rng: np.random.Generator) -> Configuration:
    """Uniform sample over a nonempty sequence of (ix, iy) cells, jittered
    uniformly inside the cell, with a uniform heading on unicycle worlds.
    Draws, in order: the cell index, two jitters, then the heading."""
    ix, iy = cells[int(rng.integers(len(cells)))]
    jx, jy = rng.uniform(0.0, 1.0, size=2)
    theta = None
    if world.kinematics is Kinematics.UNICYCLE:
        theta = float(rng.uniform(-math.pi, math.pi))
    return Configuration((ix + jx) * world.cell_size, (iy + jy) * world.cell_size, theta)


def sample_free(world: OccupancyWorld, rng: np.random.Generator) -> Configuration:
    """Uniform sample over free cells, as sample_in_cells draws it."""
    if not world.free_list:
        raise NoFreeSpace("every cell of the grid is occupied")
    return sample_in_cells(world, world.free_list, rng)


def steer_toward(world: OccupancyWorld, c: Configuration,
                 target: tuple[float, float]) -> Action:
    """Proportional one-tick command that moves ``c`` toward ``target``.

    This is the shared waypoint-tracking law: the replanning baseline uses it
    directly and learned policies use it to turn a commanded displacement
    into a kinematically valid action.
    """
    dx = target[0] - c.x
    dy = target[1] - c.y
    if world.kinematics is Kinematics.HOLONOMIC:
        return clip_action(world, HolonomicAction(dx, dy))
    theta = c.theta if c.theta is not None else 0.0
    dist = math.hypot(dx, dy)
    if dist < 1e-12:
        return UnicycleAction(0.0, 0.0)
    err = wrap_angle(math.atan2(dy, dx) - theta)
    if abs(err) > 0.5:
        return clip_action(world, UnicycleAction(0.0, err))  # rotate in place
    v = min(world.v_max, dist) * math.cos(err)
    return clip_action(world, UnicycleAction(v, err))


# -- lanes: the simulator over (N,) arrays, one element per episode -------------
# Each function below repeats its scalar twin bit for bit. Arithmetic runs
# on arrays; hypot, atan2, cos and sin run per element through `math`,
# because numpy's versions can round differently, and `min`/`max` become
# np.where on the same comparison so that ties and NaNs resolve alike.


def _per_lane(fn, *arrays) -> np.ndarray:
    return np.fromiter(map(fn, *(a.tolist() for a in arrays)), np.float64,
                       count=len(arrays[0]))


def _wrap_lanes(theta: np.ndarray) -> np.ndarray:
    return (theta + math.pi) % TWO_PI - math.pi


def _clip_lanes(world: OccupancyWorld, a0: np.ndarray, a1: np.ndarray, norm=None):
    """clip_action over lanes of (dx, dy) or (v, omega) commands; returns
    the clipped commands and, for (dx, dy), their norms, else None. norm,
    when given, holds the norms of (a0, a1); a lane the clip leaves unscaled
    keeps its norm, and only the scaled ones are measured again."""
    if world.kinematics is Kinematics.HOLONOMIC:
        if norm is None:
            norm = _per_lane(math.hypot, a0, a1)
        big = (norm > world.max_step) & (norm > 0)
        if big.any():
            s = world.max_step / np.where(big, norm, 1.0)
            a0, a1 = np.where(big, a0 * s, a0), np.where(big, a1 * s, a1)
            norm = norm.copy()
            norm[big] = _per_lane(math.hypot, a0[big], a1[big])
        return a0, a1, norm
    v = np.where(0.0 > a0, 0.0, a0)
    v = np.where(world.v_max < v, world.v_max, v)
    omega = np.where(-world.omega_max > a1, -world.omega_max, a1)
    omega = np.where(world.omega_max < omega, world.omega_max, omega)
    return v, omega, None


def padded_cells(world: OccupancyWorld, x, y):
    """(row, column) indices of the cells holding points (x, y) in a grid
    with one cell of padding on every side; every point off the grid lands
    in the padding."""
    ix = np.minimum(np.maximum(np.floor(x / world.cell_size), -1), world.width) + 1
    iy = np.minimum(np.maximum(np.floor(y / world.cell_size), -1), world.height) + 1
    return iy.astype(np.int64), ix.astype(np.int64)


def _truncate_lanes(world: OccupancyWorld, sx, sy, tx, ty):
    """_truncate_to_free over lanes; raises ValueError on a non-finite target."""
    dx, dy = tx - sx, ty - sy
    dist = _per_lane(math.hypot, dx, dy)
    if not np.isfinite(dist).all():
        raise ValueError("non-finite configuration")
    n = np.ceil(dist / (SWEEP_FRACTION * world.cell_size)).astype(np.int64)
    np.maximum(n, 1, out=n)
    # sub-samples 1..n of each lane, and one past its last as a stop marker
    i = np.arange(1, int(n.max()) + 2)
    t = i / n[:, None]
    px = sx[:, None] + t * dx[:, None]
    py = sy[:, None] + t * dy[:, None]
    stop = world._walled[padded_cells(world, px, py)]
    stop |= i > n[:, None]
    kept = stop.argmax(axis=1)   # free sub-samples before the first stop
    stay = (kept == 0) | (dist == 0.0)
    rows = np.arange(len(sx))
    last = np.maximum(kept - 1, 0)
    return np.where(stay, sx, px[rows, last]), np.where(stay, sy, py[rows, last])


def steer_lanes(world: OccupancyWorld, x, y, theta, tx, ty):
    """steer_toward for lanes at (x, y, theta) heading for (tx, ty): the
    commands as two arrays, (dx, dy) or (v, omega), and the norms of
    holonomic commands (else None). step_lanes takes the three as they are,
    and measures again only the norms that its clip scales."""
    dx = tx - x
    dy = ty - y
    if world.kinematics is Kinematics.HOLONOMIC:
        return _clip_lanes(world, dx, dy)
    dist = _per_lane(math.hypot, dx, dy)
    err = _wrap_lanes(_per_lane(math.atan2, dy, dx) - theta)
    turn = np.abs(err) > 0.5
    v = np.where(dist < world.v_max, dist, world.v_max) * _per_lane(math.cos, err)
    v, omega, _ = _clip_lanes(world, np.where(turn, 0.0, v), err)
    still = dist < 1e-12
    return np.where(still, 0.0, v), np.where(still, 0.0, omega), None


def step_lanes(world: OccupancyWorld, x, y, theta, a0, a1, noise, norm=None):
    """step for lanes at (x, y, theta) under commands (a0, a1), with this
    step's (N, 2) standard normals; returns the new (x, y, theta). theta is
    carried unchanged under holonomic kinematics. norm, when given, holds
    the norms of holonomic commands. Each row's result depends on that row
    alone, so a row may stand for one tick of a lane as well as a lane."""
    a0, a1, norm = _clip_lanes(world, a0, a1, norm)
    if world.kinematics is Kinematics.HOLONOMIC:
        sigma = world.noise_sigma * norm
        nx, ny = _truncate_lanes(world, x, y, x + (a0 + sigma * noise[:, 0]),
                                 y + (a1 + sigma * noise[:, 1]))
        return nx, ny, theta
    v = a0 + world.noise_sigma * np.abs(a0) * noise[:, 0]
    omega = a1 + world.noise_sigma * np.abs(a1) * noise[:, 1]
    nx, ny = _truncate_lanes(world, x, y, x + v * _per_lane(math.cos, theta),
                             y + v * _per_lane(math.sin, theta))
    # step's Configuration wraps the angle once more, which leaves any
    # wrapped angle unchanged: its sum with pi is exact
    return nx, ny, _wrap_lanes(theta + omega)


# -- text format ---------------------------------------------------------------

MAGIC = "P1-ASCII"


def world_to_text(world: OccupancyWorld) -> str:
    """Serialize the grid to the plain-text format (row 0 = top row)."""
    lines = [f"{MAGIC} {world.width} {world.height} {world.cell_size:g}"]
    for row in range(world.height):
        iy = world.height - 1 - row
        lines.append("".join("#" if world.occupancy[iy, ix] else "."
                             for ix in range(world.width)))
    return "\n".join(lines) + "\n"


def world_from_text(text: str, **overrides) -> OccupancyWorld:
    """Parse the plain-text grid format; keyword overrides set kinematics etc."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty world file", line=1)
    header = lines[0].split()
    if len(header) != 4 or header[0] != MAGIC:
        raise ParseError(f"expected '{MAGIC} <width> <height> <cell_size>'", line=1)
    try:
        width, height = int(header[1]), int(header[2])
        cell_size = float(header[3])
    except ValueError as e:
        raise ParseError(f"bad header field: {e}", line=1) from None
    if width <= 0 or height <= 0 or cell_size <= 0:
        raise ParseError("width, height, cell_size must be positive", line=1)
    if len(lines) < 1 + height:
        raise ParseError(f"expected {height} grid rows, found {len(lines) - 1}",
                         line=len(lines))
    for lineno, raw in enumerate(lines[1 + height:], start=2 + height):
        if raw.strip():
            raise ParseError(f"more than {height} grid rows", line=lineno)
    rows = lines[1:1 + height]
    for lineno, raw in enumerate(rows, start=2):
        if len(raw) != width:
            raise ParseError(f"row has {len(raw)} cells, expected {width}",
                             line=lineno, offset=len(raw))
        for ix, ch in enumerate(raw):
            if ch not in ".#":
                raise ParseError(f"unknown cell character {ch!r}", line=lineno,
                                 offset=ix)
    occ = np.array([[ch == "#" for ch in raw] for raw in reversed(rows)], dtype=bool)
    return OccupancyWorld(width=width, height=height, cell_size=cell_size,
                          occupancy=occ, **overrides)


_CONFIG_KEYS = ("kinematics", "noise_sigma", "max_step", "v_max", "omega_max")


def parse_sidecar(text: str) -> dict:
    """Parse a key=value sidecar config into OccupancyWorld overrides."""
    out: dict = {}
    for key, (value, lineno) in read_key_values(text).items():
        if key not in _CONFIG_KEYS:
            raise ParseError(f"unknown world config key {key!r}", line=lineno)
        try:
            out[key] = Kinematics(value) if key == "kinematics" else float(value)
        except ValueError:
            raise ParseError(f"bad value {value!r} for {key}", line=lineno) from None
    return out


def sidecar_to_text(world: OccupancyWorld) -> str:
    return (f"kinematics={world.kinematics.value}\n"
            f"noise_sigma={world.noise_sigma:g}\n"
            f"max_step={world.max_step:g}\n"
            f"v_max={world.v_max:g}\n"
            f"omega_max={world.omega_max!r}\n")


def world_hash(world: OccupancyWorld) -> str:
    """Stable 16-hex digest of geometry plus simulation parameters."""
    payload = world_to_text(world) + sidecar_to_text(world)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
