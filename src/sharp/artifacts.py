"""Serialization for every pipeline artifact.

Every artifact (density grid, partition, option library, policy cache) is
one JSON envelope carrying a format version, its kind and the hash of the
world it was built from; there are no binary files. Loading verifies all
three and never leaves partial state behind. Policy-cache entries store only
what the cache key cannot rebuild (actor weights, cost, training steps). A
malformed payload raises ParseError, an unwritable file SharpError.
"""

from __future__ import annotations

import base64
import json
import math
import os
from contextlib import contextmanager

import numpy as np

from .abstraction import NO_STATE, Region, RegionVoronoi, partition
from .errors import ParseError, SharpError, VersionMismatch
from .mlp import Mlp
from .options import OptionKind, OptionSpec
from .planner import CacheEntry, OptionLibrary
from .regions import CriticalRegion
from .world import Configuration, OccupancyWorld

ARTIFACT_FORMAT = "sharp-artifact"
ARTIFACT_VERSION = 1
POLICY_CACHE_FILE = "policy_cache.json"


def save_artifact(path: str, kind: str, world_hash: str, payload: dict,
                  make_dirs: bool = False) -> None:
    """Write the artifact's envelope to path; with make_dirs, create the
    directories above path first."""
    envelope = {"format": ARTIFACT_FORMAT, "version": ARTIFACT_VERSION,
                "kind": kind, "world_hash": world_hash, "payload": payload}
    tmp = path + ".tmp"
    try:
        if make_dirs:
            os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(tmp, "w") as fh:
            json.dump(envelope, fh, sort_keys=True, separators=(",", ":"))
        os.replace(tmp, path)
    except OSError as e:
        raise SharpError(f"cannot write {path}: {e.strerror}") from None


def load_artifact(path: str, kind: str, world_hash: str | None = None) -> dict:
    try:
        with open(path) as fh:
            envelope = json.load(fh)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed artifact {path}: {e.msg}",
                         line=e.lineno, offset=e.colno) from None
    if not isinstance(envelope, dict) or envelope.get("format") != ARTIFACT_FORMAT:
        raise VersionMismatch(f"{path} is not a {ARTIFACT_FORMAT} file")
    if envelope.get("version") != ARTIFACT_VERSION:
        raise VersionMismatch(f"{path}: version {envelope.get('version')} != "
                              f"{ARTIFACT_VERSION}")
    if envelope.get("kind") != kind:
        raise VersionMismatch(f"{path}: artifact kind {envelope.get('kind')!r}, "
                              f"expected {kind!r}")
    if world_hash is not None and envelope.get("world_hash") != world_hash:
        raise VersionMismatch(f"{path}: built for world {envelope.get('world_hash')}, "
                              f"expected {world_hash}")
    return envelope["payload"]


@contextmanager
def _parsing(where: str):
    """Missing keys and mistyped values of a payload raise ParseError naming where."""
    try:
        yield
    except KeyError as e:
        raise ParseError(f"{where} lacks {e}") from None
    except (TypeError, ValueError, IndexError) as e:
        raise ParseError(f"{where} is malformed: {e}") from None


# -- grids and regions --------------------------------------------------------------


def density_payload(density: np.ndarray) -> dict:
    return {"grid": [[float(v) for v in row] for row in density]}


def _region_payload(region: CriticalRegion) -> dict:
    return {"cells": sorted(map(list, region.cells)),
            "centroid": [region.centroid.x, region.centroid.y],
            "score": region.score}


def _region_from_payload(p: dict) -> CriticalRegion:
    return CriticalRegion(cells=frozenset(map(tuple, p["cells"])),
                          centroid=Configuration(*p["centroid"]),
                          score=float(p["score"]))


def _endpoint_payload(region: Region) -> dict:
    return {"cells": sorted(map(list, region.cells)),
            "rep": [region.representative.x, region.representative.y]}


def _endpoint_from_payload(p: dict) -> Region:
    return Region(cells=frozenset(map(tuple, p["cells"])),
                  representative=Configuration(*p["rep"]))


def rbvd_payload(rbvd: RegionVoronoi) -> dict:
    return {"regions": [_region_payload(s.anchor) for s in rbvd.states],
            "assignment": [[int(v) for v in row] for row in rbvd.assignment],
            "adjacency": sorted(map(list, rbvd.adjacency))}


def rbvd_from_payload(payload: dict, world: OccupancyWorld, where: str) -> RegionVoronoi:
    """The partition as stored; raises ParseError naming where when the
    payload is malformed, the assignment does not fit the world and regions,
    or it implies another adjacency."""
    with _parsing(where):
        assignment = np.array(payload["assignment"], dtype=np.int64)
        regions = [_region_from_payload(p) for p in payload["regions"]]
        if assignment.shape != (world.height, world.width):
            raise ParseError(f"{where}: assignment has shape {assignment.shape}, "
                             f"the world is {world.height}x{world.width}")
        if not NO_STATE <= assignment.min() <= assignment.max() < len(regions):
            raise ParseError(f"{where}: assignment ids must lie in "
                             f"{NO_STATE}..{len(regions) - 1}")
        rbvd = partition(world, regions, assignment)
        stored = frozenset(tuple(p) for p in payload["adjacency"])
        if stored != rbvd.adjacency:
            raise ParseError(f"{where}: stored adjacency {sorted(stored)} differs "
                             f"from the assignment's {sorted(rbvd.adjacency)}")
        return rbvd


def library_payload(library: OptionLibrary) -> dict:
    return {"kind": library.kind,
            "threshold": library.threshold,
            "guide_seed": library.guide_seed,
            "rbvd": rbvd_payload(library.rbvd),
            "options": [{
                "id": o.id, "kind": o.kind, "states": list(o.states),
                "initiation": _endpoint_payload(o.initiation),
                "termination": _endpoint_payload(o.termination),
            } for o in library.options]}


def library_from_payload(payload: dict, world: OccupancyWorld, where: str) -> OptionLibrary:
    """The library as stored; raises ParseError naming where when malformed,
    among others when its kind is neither centroid nor interface, its
    threshold is not a finite positive number, or an option is of another
    kind than the library, does not hold 2 states (centroid) or 3
    (interface), or names a state the partition lacks. The per-option cost
    keys of older files are ignored."""
    with _parsing(where):
        rbvd = rbvd_from_payload(payload["rbvd"], world, where)
        kind = payload["kind"]
        n_states = {OptionKind.CENTROID: 2, OptionKind.INTERFACE: 3}.get(kind)
        if n_states is None:
            raise ParseError(f"{where}: library kind {kind!r} is neither "
                             f"{OptionKind.CENTROID!r} nor {OptionKind.INTERFACE!r}")
        threshold = payload["threshold"]
        if type(threshold) not in (int, float) or not 0 < threshold < math.inf:
            raise ParseError(f"{where}: threshold must be a finite positive "
                             f"number, got {threshold!r}")
        options = [OptionSpec(id=p["id"], kind=p["kind"], states=tuple(p["states"]),
                              initiation=_endpoint_from_payload(p["initiation"]),
                              termination=_endpoint_from_payload(p["termination"]))
                   for p in payload["options"]]
        for o in options:
            if o.kind != kind:
                raise ParseError(f"{where}: option {o.id!r} is of kind {o.kind!r}, "
                                 f"the library of kind {kind!r}")
            if len(o.states) != n_states:
                raise ParseError(f"{where}: option {o.id!r} holds {len(o.states)} "
                                 f"states, a {kind} option {n_states}")
            if not all(type(s) is int and 0 <= s < len(rbvd.states) for s in o.states):
                raise ParseError(f"{where}: option {o.id!r} names states "
                                 f"{list(o.states)}, the partition holds "
                                 f"0..{len(rbvd.states) - 1}")
        return OptionLibrary(kind=kind, threshold=threshold,
                             guide_seed=payload["guide_seed"], options=options,
                             rbvd=rbvd)


# -- policy cache -------------------------------------------------------------------


def cache_dir_for(root: str, world_hash: str) -> str:
    return os.path.join(root, world_hash)


def _actor_payload(actor: Mlp) -> dict:
    """Layer sizes plus the base64 of the little-endian float64 parameters."""
    raw = actor.flat().astype("<f8").tobytes()
    return {"layers": list(actor.layer_sizes),
            "params": base64.b64encode(raw).decode("ascii")}


def _actor_from_payload(p: dict, where: str) -> Mlp:
    layers = p["layers"]
    if not (isinstance(layers, list) and len(layers) == 4
            and all(type(n) is int and n > 0 for n in layers)):
        raise ParseError(f"{where}: layers must be in, h1, h2, out; got {layers!r}")
    raw = base64.b64decode(p["params"], validate=True)
    actor = Mlp(layers)
    n = actor.params.size
    if len(raw) != 8 * n:
        raise ParseError(f"{where}: {len(raw)} parameter bytes, layers {layers} "
                         f"need {8 * n}")
    actor.set_flat(np.frombuffer(raw, dtype="<f8"))
    return actor


def save_cache(root: str, world_hash: str, cache: dict[str, CacheEntry]) -> None:
    """Write one world's policy cache as a single policy-cache artifact."""
    path = os.path.join(cache_dir_for(root, world_hash), POLICY_CACHE_FILE)
    entries = {key: {"cost": e.cost, "training_steps": e.training_steps,
                     "actor": _actor_payload(e.actor)}
               for key, e in cache.items()}
    save_artifact(path, "policy-cache", world_hash, {"entries": entries},
                  make_dirs=True)


def load_cache(root: str, world_hash: str) -> dict[str, CacheEntry]:
    """Rehydrate one world's policy cache; a missing file gives an empty one."""
    path = os.path.join(cache_dir_for(root, world_hash), POLICY_CACHE_FILE)
    if not os.path.exists(path):
        return {}
    cache = {}
    for key, item in load_artifact(path, "policy-cache", world_hash)["entries"].items():
        where = f"{path}: entry {key!r}"
        with _parsing(where):
            cache[key] = CacheEntry(actor=_actor_from_payload(item["actor"], where),
                                    cost=float(item["cost"]),
                                    training_steps=int(item["training_steps"]))
    return cache
