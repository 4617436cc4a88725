"""Serialization for every pipeline artifact.

Every artifact (density grid, option library, policy cache) is one JSON
envelope carrying a format version, its kind and the hash of the world it
was built from; there are no binary files. Loading verifies all three and
never leaves partial state behind. A library file is checked by deriving it
again: its anchor regions, kind, threshold and guide seed rebuild the
partition and options, which must equal the stored ones. Policy-cache
entries store only what the cache key cannot rebuild (actor weights, cost,
training steps). An undecodable file or a malformed payload raises
ParseError, an unreadable or unwritable file SharpError.
"""

from __future__ import annotations

import base64
import json
import math
import os
from contextlib import contextmanager, suppress

import numpy as np

from .abstraction import Region
from .errors import ParseError, SharpError, TooFewRegions, VersionMismatch
from .mlp import Mlp, from_params, param_count
from .planner import CacheEntry, OptionLibrary, library_from_regions
from .regions import CriticalRegion
from .world import Configuration, OccupancyWorld

ARTIFACT_FORMAT = "sharp-artifact"
ARTIFACT_VERSION = 1
POLICY_CACHE_FILE = "policy_cache.json"


def save_artifact(path: str, kind: str, world_hash: str, payload: dict,
                  make_dirs: bool = False) -> None:
    """Write the artifact's envelope to path through path + ".tmp", left
    behind by no exit; with make_dirs, create the directories above first."""
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
    finally:
        with suppress(OSError):   # gone already unless a step above failed
            os.remove(tmp)


def load_artifact(path: str, kind: str, world_hash: str | None = None) -> dict:
    try:
        with open(path) as fh:
            envelope = json.load(fh)
    except OSError as e:
        raise SharpError(f"cannot read {path}: {e.strerror}") from None
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed artifact {path}: {e.msg}",
                         line=e.lineno, offset=e.colno) from None
    except UnicodeDecodeError as e:
        raise ParseError(f"malformed artifact {path}: {e.reason}") from None
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
    if not isinstance(envelope.get("payload"), dict):
        raise ParseError(f"malformed artifact {path}: no payload object")
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


def library_payload(library: OptionLibrary) -> dict:
    rbvd = library.rbvd
    return {"kind": library.kind,
            "threshold": library.threshold,
            "guide_seed": library.guide_seed,
            "rbvd": {"regions": [_region_payload(s.anchor) for s in rbvd.states],
                     "assignment": [[int(v) for v in row] for row in rbvd.assignment],
                     "adjacency": sorted(map(list, rbvd.adjacency))},
            "options": [{
                "id": o.id, "kind": o.kind, "states": list(o.states),
                "initiation": _endpoint_payload(o.initiation),
                "termination": _endpoint_payload(o.termination),
            } for o in library.options]}


def _positive_finite(v) -> bool:
    """Whether v is an int or float (not a bool) in (0, inf)."""
    return type(v) in (int, float) and 0 < v < math.inf


def _holds(stored, derived) -> bool:
    """Whether stored equals derived, but for keys of stored dicts that the
    derived dicts lack."""
    if stored == derived:
        return True
    if isinstance(derived, dict):
        return isinstance(stored, dict) and all(
            k in stored and _holds(stored[k], v) for k, v in derived.items())
    if isinstance(derived, list):
        return (isinstance(stored, list) and len(stored) == len(derived)
                and all(map(_holds, stored, derived)))
    return False


def library_from_payload(payload: dict, world: OccupancyWorld, where: str) -> OptionLibrary:
    """The library that the stored anchor regions, kind, threshold and guide
    seed derive (planner.library_from_regions). The threshold must be a
    finite positive number and the guide seed an int, and every field
    library_payload writes must hold the derived value; keys of older
    formats (guide_spacing, per-option cost and cost_updated) are ignored.
    Otherwise raises a ParseError naming where and saying to remove it."""
    remove = "remove the file to rebuild it"
    try:
        with _parsing(where):
            threshold, seed = payload["threshold"], payload["guide_seed"]
            if not (_positive_finite(threshold) and type(seed) is int):
                raise ParseError(f"{where}: threshold {threshold!r} must be a finite "
                                 f"positive number and guide_seed {seed!r} an int")
            regions = [_region_from_payload(p) for p in payload["rbvd"]["regions"]]
            library = library_from_regions(world, regions, payload["kind"], threshold,
                                           seed)
    except ParseError as e:
        raise ParseError(f"{e}; {remove}") from None
    except TooFewRegions as e:
        raise ParseError(f"{where}: {e}; {remove}") from None
    if not _holds(payload, library_payload(library)):
        raise ParseError(f"{where}: stored library differs from the one its anchor "
                         f"regions derive; {remove}")
    return library


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
    n = param_count(layers)
    if len(raw) != 8 * n:
        raise ParseError(f"{where}: {len(raw)} parameter bytes, layers {layers} "
                         f"need {8 * n}")
    params = np.frombuffer(raw, dtype="<f8")
    if not np.isfinite(params).all():
        raise ParseError(f"{where}: actor parameters must be finite")
    return from_params(layers, params)


def save_cache(root: str, world_hash: str, cache: dict[str, CacheEntry]) -> None:
    """Write one world's policy cache as a single policy-cache artifact."""
    path = os.path.join(cache_dir_for(root, world_hash), POLICY_CACHE_FILE)
    entries = {key: {"cost": e.cost, "training_steps": e.training_steps,
                     "actor": _actor_payload(e.actor)}
               for key, e in cache.items()}
    save_artifact(path, "policy-cache", world_hash, {"entries": entries},
                  make_dirs=True)


def load_cache(root: str, world_hash: str) -> dict[str, CacheEntry]:
    """Rehydrate one world's policy cache; a missing file gives an empty one.
    Each entry's cost must be a finite positive number, its training steps
    a non-negative int, and its actor's parameters finite."""
    path = os.path.join(cache_dir_for(root, world_hash), POLICY_CACHE_FILE)
    if not os.path.exists(path):
        return {}
    entries = load_artifact(path, "policy-cache", world_hash).get("entries")
    if not isinstance(entries, dict):
        raise ParseError(f"malformed artifact {path}: no entries object")
    cache = {}
    for key, item in entries.items():
        where = f"{path}: entry {key!r}"
        with _parsing(where):
            cost, steps = item["cost"], item["training_steps"]
            if not (_positive_finite(cost) and type(steps) is int and steps >= 0):
                raise ParseError(f"{where}: cost {cost!r} must be a finite positive "
                                 f"number and training_steps {steps!r} an int >= 0")
            cache[key] = CacheEntry(actor=_actor_from_payload(item["actor"], where),
                                    cost=float(cost), training_steps=steps)
    return cache
