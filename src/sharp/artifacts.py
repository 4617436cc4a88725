"""Serialization for every pipeline artifact.

Structured artifacts (density grids, partitions, option libraries) are JSON
envelopes carrying a format version and the world hash they were built from;
policies are binary files: a magic header, a JSON metadata block, then raw
row-major float64 parameter blocks. Loading verifies version and world hash
and never leaves partial state behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct

import numpy as np

from .abstraction import Region, RegionVoronoi
from .errors import ParseError, VersionMismatch
from .learn import Policy
from .mlp import Mlp
from .options import OptionGuide, OptionSpec
from .planner import CacheEntry, OptionLibrary, PolicyCache
from .regions import CriticalRegion
from .world import Configuration, OccupancyWorld

ARTIFACT_FORMAT = "sharp-artifact"
ARTIFACT_VERSION = 1
POLICY_MAGIC = b"SHARPPOL"
POLICY_VERSION = 1


def save_artifact(path: str, kind: str, world_hash: str, payload: dict) -> None:
    envelope = {"format": ARTIFACT_FORMAT, "version": ARTIFACT_VERSION,
                "kind": kind, "world_hash": world_hash, "payload": payload}
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(envelope, fh, sort_keys=True, separators=(",", ":"))
    os.replace(tmp, path)


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


# -- grids and regions --------------------------------------------------------------


def density_payload(density: np.ndarray) -> dict:
    return {"grid": [[float(v) for v in row] for row in density]}


def density_from_payload(payload: dict) -> np.ndarray:
    return np.array(payload["grid"], dtype=np.float64)


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


def rbvd_from_payload(payload: dict, world: OccupancyWorld) -> RegionVoronoi:
    from .abstraction import AbstractState
    assignment = np.array(payload["assignment"], dtype=np.int64)
    regions = [_region_from_payload(p) for p in payload["regions"]]
    cells: list[set] = [set() for _ in regions]
    for iy in range(world.height):
        for ix in range(world.width):
            sid = int(assignment[iy, ix])
            if sid >= 0:
                cells[sid].add((ix, iy))
    states = [AbstractState(id=i, anchor=r, cells=frozenset(cs))
              for i, (r, cs) in enumerate(zip(regions, cells))]
    adjacency = frozenset(tuple(p) for p in payload["adjacency"])
    return RegionVoronoi(world=world, states=states, assignment=assignment,
                         adjacency=adjacency)


def library_payload(library: OptionLibrary) -> dict:
    return {"kind": library.kind,
            "threshold": library.threshold,
            "guide_spacing": library.guide_spacing,
            "guide_seed": library.guide_seed,
            "rbvd": rbvd_payload(library.rbvd),
            "options": [{
                "id": o.id, "kind": o.kind, "states": list(o.states),
                "cost": o.cost, "cost_updated": o.cost_updated,
                "initiation": _endpoint_payload(o.initiation),
                "termination": _endpoint_payload(o.termination),
            } for o in library.options]}


def library_from_payload(payload: dict, world: OccupancyWorld) -> OptionLibrary:
    rbvd = rbvd_from_payload(payload["rbvd"], world)
    options = [OptionSpec(id=p["id"], kind=p["kind"], states=tuple(p["states"]),
                          initiation=_endpoint_from_payload(p["initiation"]),
                          termination=_endpoint_from_payload(p["termination"]),
                          cost=float(p["cost"]),
                          cost_updated=bool(p["cost_updated"]))
               for p in payload["options"]]
    return OptionLibrary(kind=payload["kind"], threshold=payload["threshold"],
                         guide_spacing=payload["guide_spacing"],
                         guide_seed=payload["guide_seed"], options=options,
                         rbvd=rbvd)


# -- policies -----------------------------------------------------------------------


def _guide_payload(guide: OptionGuide) -> dict:
    return {"option_id": guide.option_id,
            "points": [[p.x, p.y] for p in guide.points],
            "allowed_states": sorted(guide.allowed_states),
            "terminal_reward": guide.terminal_reward,
            "penalty_reward": guide.penalty_reward,
            "initiation": _endpoint_payload(guide.initiation),
            "termination": _endpoint_payload(guide.termination)}


def _guide_from_payload(p: dict) -> OptionGuide:
    return OptionGuide(option_id=p["option_id"],
                       initiation=_endpoint_from_payload(p["initiation"]),
                       termination=_endpoint_from_payload(p["termination"]),
                       points=[Configuration(x, y) for x, y in p["points"]],
                       allowed_states=frozenset(p["allowed_states"]),
                       terminal_reward=float(p["terminal_reward"]),
                       penalty_reward=float(p["penalty_reward"]))


def save_policy(path: str, policy: Policy, world_hash: str) -> None:
    meta = {"world_hash": world_hash,
            "layers": list(policy.actor.layer_sizes),
            "act_scale": policy.act_scale,
            "guide": _guide_payload(policy.guide)}
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(POLICY_MAGIC)
        fh.write(struct.pack("<II", POLICY_VERSION, len(blob)))
        fh.write(blob)
        for p in policy.actor.parameters():
            fh.write(np.ascontiguousarray(p, dtype="<f8").tobytes())
    os.replace(tmp, path)


def load_policy(path: str, world_hash: str | None = None) -> Policy:
    with open(path, "rb") as fh:
        magic = fh.read(len(POLICY_MAGIC))
        if magic != POLICY_MAGIC:
            raise VersionMismatch(f"{path}: not a policy file")
        header = fh.read(8)
        if len(header) != 8:
            raise ParseError(f"{path}: truncated policy header")
        version, meta_len = struct.unpack("<II", header)
        if version != POLICY_VERSION:
            raise VersionMismatch(f"{path}: policy version {version} != "
                                  f"{POLICY_VERSION}")
        try:
            meta = json.loads(fh.read(meta_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise ParseError(f"{path}: malformed policy metadata") from None
        if world_hash is not None and meta["world_hash"] != world_hash:
            raise VersionMismatch(f"{path}: policy for world {meta['world_hash']}, "
                                  f"expected {world_hash}")
        sizes = meta["layers"]
        weights, biases = [], []
        for a, b in zip(sizes, sizes[1:]):
            w = fh.read(a * b * 8)
            if len(w) != a * b * 8:
                raise ParseError(f"{path}: truncated parameter block")
            weights.append(np.frombuffer(w, dtype="<f8").reshape(a, b).copy())
            bb = fh.read(b * 8)
            if len(bb) != b * 8:
                raise ParseError(f"{path}: truncated parameter block")
            biases.append(np.frombuffer(bb, dtype="<f8").copy())
    return Policy(actor=Mlp(weights, biases), guide=_guide_from_payload(meta["guide"]),
                  act_scale=float(meta["act_scale"]))


# -- cache persistence ---------------------------------------------------------------


def cache_dir_for(root: str, world_hash: str) -> str:
    return os.path.join(root, world_hash)


def save_cache(root: str, world_hash: str, cache: PolicyCache) -> None:
    """Write every cache entry as a policy file plus a JSON index that maps
    each opaque key to its file; the file is named by the key's digest."""
    base = cache_dir_for(root, world_hash)
    os.makedirs(os.path.join(base, "policies"), exist_ok=True)
    index = {}
    for key, entry in cache.items():
        fname = hashlib.sha256(key.encode()).hexdigest()[:16] + ".pol"
        save_policy(os.path.join(base, "policies", fname), entry.policy, world_hash)
        index[key] = {"file": fname, "cost": entry.cost,
                      "training_steps": entry.training_steps}
    save_artifact(os.path.join(base, "cache_index.json"), "policy-cache",
                  world_hash, {"entries": index})


def load_cache(root: str, world_hash: str) -> PolicyCache:
    """Rehydrate the policy cache; missing directory gives an empty cache."""
    cache = PolicyCache()
    base = cache_dir_for(root, world_hash)
    index_path = os.path.join(base, "cache_index.json")
    if not os.path.exists(index_path):
        return cache
    payload = load_artifact(index_path, "policy-cache", world_hash)
    for key, item in payload["entries"].items():
        policy = load_policy(os.path.join(base, "policies", item["file"]), world_hash)
        cache.put(key, CacheEntry(policy=policy, cost=float(item["cost"]),
                                  training_steps=int(item["training_steps"])))
    return cache
