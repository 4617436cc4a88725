import json
import os
import struct

import numpy as np
import pytest

from sharp import artifacts
from sharp.abstraction import build_region_voronoi
from sharp.errors import ParseError, VersionMismatch
from sharp.learn import Policy, displacement_scale, observation_dim
from sharp.mlp import init_mlp
from sharp.options import OptionGuide, synth_centroid_options
from sharp.planner import CacheEntry, OptionLibrary, PolicyCache
from sharp.world import Configuration, world_hash

from conftest import open_world
from test_abstraction import point_region


@pytest.fixture
def setup(tmp_path):
    w = open_world(12, 12, cell_size=0.5)
    regions = [point_region(w, (2, 2)), point_region(w, (9, 9))]
    rbvd = build_region_voronoi(w, regions)
    options = synth_centroid_options(rbvd, t=1.5)
    library = OptionLibrary(kind="centroid", threshold=1.5, guide_spacing=0.5,
                            guide_seed=3, options=options, rbvd=rbvd)
    return w, rbvd, library, tmp_path


class TestEnvelope:
    def test_round_trip_density(self, setup, rng):
        w, rbvd, library, tmp = setup
        density = rng.random((12, 12))
        path = str(tmp / "density.json")
        artifacts.save_artifact(path, "density-grid", world_hash(w),
                                artifacts.density_payload(density))
        loaded = artifacts.density_from_payload(
            artifacts.load_artifact(path, "density-grid", world_hash(w)))
        assert np.allclose(loaded, density)

    def test_round_trip_rbvd(self, setup):
        w, rbvd, library, tmp = setup
        path = str(tmp / "rbvd.json")
        artifacts.save_artifact(path, "rbvd", world_hash(w),
                                artifacts.rbvd_payload(rbvd))
        loaded = artifacts.rbvd_from_payload(
            artifacts.load_artifact(path, "rbvd", world_hash(w)), w)
        assert np.array_equal(loaded.assignment, rbvd.assignment)
        assert loaded.adjacency == rbvd.adjacency
        for a, b in zip(loaded.states, rbvd.states):
            assert a.cells == b.cells and a.anchor == b.anchor

    def test_round_trip_library(self, setup):
        w, rbvd, library, tmp = setup
        path = str(tmp / "library.json")
        artifacts.save_artifact(path, "option-library", world_hash(w),
                                artifacts.library_payload(library))
        loaded = artifacts.library_from_payload(
            artifacts.load_artifact(path, "option-library", world_hash(w)), w)
        assert loaded.kind == library.kind
        assert loaded.guide_seed == library.guide_seed
        assert [o.id for o in loaded.options] == [o.id for o in library.options]
        for a, b in zip(loaded.options, library.options):
            assert a.initiation.cells == b.initiation.cells
            assert a.termination.representative == b.termination.representative
            assert a.cost == b.cost

    def test_truncated_file_parse_error(self, setup):
        w, rbvd, library, tmp = setup
        path = str(tmp / "library.json")
        artifacts.save_artifact(path, "option-library", world_hash(w),
                                artifacts.library_payload(library))
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text[:len(text) // 2])
        with pytest.raises(ParseError):
            artifacts.load_artifact(path, "option-library", world_hash(w))

    def test_wrong_world_hash(self, setup):
        w, rbvd, library, tmp = setup
        path = str(tmp / "library.json")
        artifacts.save_artifact(path, "option-library", world_hash(w),
                                artifacts.library_payload(library))
        with pytest.raises(VersionMismatch):
            artifacts.load_artifact(path, "option-library", "deadbeef00000000")

    def test_wrong_kind(self, setup):
        w, rbvd, library, tmp = setup
        path = str(tmp / "x.json")
        artifacts.save_artifact(path, "density-grid", world_hash(w), {"grid": []})
        with pytest.raises(VersionMismatch):
            artifacts.load_artifact(path, "rbvd", world_hash(w))


def make_policy(w, rng):
    guide = OptionGuide(option_id="c0-1",
                        initiation=None, termination=None,
                        points=[Configuration(1.0, 1.0), Configuration(2.0, 1.5)],
                        allowed_states=frozenset([0, 1]))
    from sharp.abstraction import Region
    guide.initiation = Region(frozenset([(2, 2)]), Configuration(1.25, 1.25))
    guide.termination = Region(frozenset([(9, 9)]), Configuration(4.75, 4.75))
    actor = init_mlp(observation_dim(w), (6, 6), 4, rng)
    return Policy(actor=actor, guide=guide, act_scale=displacement_scale(w))


class TestPolicyFile:
    def test_bit_exact_round_trip(self, setup, rng):
        w, rbvd, library, tmp = setup
        policy = make_policy(w, rng)
        path = str(tmp / "p.pol")
        artifacts.save_policy(path, policy, world_hash(w))
        loaded = artifacts.load_policy(path, world_hash(w))
        for a, b in zip(loaded.actor.parameters(), policy.actor.parameters()):
            assert np.array_equal(a, b)
        assert loaded.guide.points == policy.guide.points
        assert loaded.guide.allowed_states == policy.guide.allowed_states
        assert loaded.act_scale == policy.act_scale

    def test_earlier_metadata_keys_ignored(self, setup, rng):
        # policy files of earlier versions also carry "extent" and "unicycle"
        w, rbvd, library, tmp = setup
        policy = make_policy(w, rng)
        path = str(tmp / "p.pol")
        artifacts.save_policy(path, policy, world_hash(w))
        with open(path, "rb") as fh:
            data = fh.read()
        head = len(artifacts.POLICY_MAGIC)
        version, meta_len = struct.unpack("<II", data[head:head + 8])
        meta = json.loads(data[head + 8:head + 8 + meta_len])
        meta.update(extent=list(w.extent), unicycle=False)
        blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(data[:head] + struct.pack("<II", version, len(blob)) + blob
                     + data[head + 8 + meta_len:])
        loaded = artifacts.load_policy(path, world_hash(w))
        for a, b in zip(loaded.actor.parameters(), policy.actor.parameters()):
            assert np.array_equal(a, b)
        assert loaded.act_scale == policy.act_scale

    def test_wrong_magic(self, setup, tmp_path):
        path = str(tmp_path / "bad.pol")
        with open(path, "wb") as fh:
            fh.write(b"NOTAPOL!" + b"\x00" * 16)
        with pytest.raises(VersionMismatch):
            artifacts.load_policy(path)

    def test_truncated_parameters(self, setup, rng):
        w, rbvd, library, tmp = setup
        policy = make_policy(w, rng)
        path = str(tmp / "p.pol")
        artifacts.save_policy(path, policy, world_hash(w))
        size = os.path.getsize(path)
        with open(path, "rb") as fh:
            data = fh.read(size - 64)
        with open(path, "wb") as fh:
            fh.write(data)
        with pytest.raises(ParseError):
            artifacts.load_policy(path, world_hash(w))

    def test_world_hash_mismatch(self, setup, rng):
        w, rbvd, library, tmp = setup
        policy = make_policy(w, rng)
        path = str(tmp / "p.pol")
        artifacts.save_policy(path, policy, world_hash(w))
        with pytest.raises(VersionMismatch):
            artifacts.load_policy(path, "0123456789abcdef")


class TestCachePersistence:
    def test_save_load_cycle(self, setup, rng):
        w, rbvd, library, tmp = setup
        whash = world_hash(w)
        cache = PolicyCache()
        policy = make_policy(w, rng)
        key = f"{whash}/c0-1/{'a' * 16}"
        cache.put(key, CacheEntry(policy=policy, cost=12.5, training_steps=4000))
        artifacts.save_cache(str(tmp), whash, cache)
        loaded = artifacts.load_cache(str(tmp), whash)
        assert len(loaded) == 1
        entry = loaded.get(key)
        assert entry is not None
        assert entry.cost == 12.5 and entry.training_steps == 4000
        for a, b in zip(entry.policy.actor.parameters(),
                        policy.actor.parameters()):
            assert np.array_equal(a, b)

    def test_missing_dir_empty_cache(self, tmp_path):
        cache = artifacts.load_cache(str(tmp_path), "f" * 16)
        assert len(cache) == 0
