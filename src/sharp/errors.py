"""Exception types shared across the toolkit."""

import contextlib


class SharpError(Exception):
    """Base class for all toolkit errors."""


class NoFreeSpace(SharpError):
    """The occupancy grid has no free cell to sample from."""


class Unreachable(SharpError):
    """The motion planner exhausted its iteration budget without connecting."""


class InsufficientData(SharpError):
    """Too few solvable problems to estimate a solution-density grid."""


class NoRegions(SharpError):
    """Density thresholding produced no usable region."""


class TooFewRegions(SharpError):
    """Voronoi partitioning needs at least two anchor regions."""


class InCollision(SharpError):
    """A configuration expected to be free is inside an obstacle."""


class UnassignedCell(SharpError):
    """A free cell has no abstract state (no region reaches it geodesically)."""


class EmptyRegion(SharpError):
    """A threshold ball contains no grid cell."""


class NotNeighbors(SharpError):
    """The two abstract states share no boundary."""


class GuideUnreachable(SharpError):
    """Masked planning between option endpoints failed."""


class NoAbstractPath(SharpError):
    """The option graph does not connect the start state to the goal state."""


class OptionsDoNotChain(SharpError):
    """Consecutive options of a plan do not share a handoff region."""


class EmptyLibrary(SharpError):
    """A plan is needed over a library of zero options."""


class DivergedTraining(SharpError):
    """Losses became non-finite during policy optimization."""


class ShapeMismatch(SharpError):
    """Network input or gradient dimensions disagree with the layer shapes."""


class ParseError(SharpError):
    """A world or config file is malformed; carries file/line/offset context."""

    def __init__(self, message: str, line: int | None = None,
                 offset: int | None = None, path: str | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", offset {offset}" if offset is not None else "") + ")"
        super().__init__((f"{path}: " if path is not None else "") + message + loc)
        self.message = message
        self.line = line
        self.offset = offset
        self.path = path


@contextlib.contextmanager
def in_file(path: str):
    """Name path in every ParseError the block raises that names no file."""
    try:
        yield
    except ParseError as e:
        if e.path is not None:
            raise
        raise ParseError(e.message, e.line, e.offset, path) from None


class VersionMismatch(SharpError):
    """An artifact file was produced by a different format version or world."""
