import base64
import json
import math
import os

import numpy as np
import pytest

from sharp import artifacts, experiment
from sharp.abstraction import build_region_voronoi
from sharp.errors import ParseError, SharpError, VersionMismatch
from sharp.learn import Policy, observation_dim
from sharp.mlp import init_mlp
from sharp.options import OptionGuide, synth_options
from sharp.planner import CacheEntry, OptionLibrary, library_from_regions
from sharp.world import Configuration, world_hash

from conftest import open_world
from helpers import density_from_payload
from test_abstraction import point_region


@pytest.fixture
def setup(tmp_path):
    w = open_world(12, 12, cell_size=0.5)
    regions = [point_region(w, (2, 2)), point_region(w, (9, 9))]
    rbvd = build_region_voronoi(w, regions)
    options = synth_options(rbvd, "centroid", t=1.5)
    library = OptionLibrary(kind="centroid", threshold=1.5, guide_seed=3,
                            options=options, rbvd=rbvd)
    return w, rbvd, library, tmp_path


class TestEnvelope:
    def test_round_trip_density(self, setup, rng):
        w, rbvd, library, tmp = setup
        density = rng.random((12, 12))
        path = str(tmp / "density.json")
        artifacts.save_artifact(path, "density-grid", world_hash(w),
                                artifacts.density_payload(density))
        loaded = density_from_payload(
            artifacts.load_artifact(path, "density-grid", world_hash(w)))
        assert np.allclose(loaded, density)

    def test_round_trip_rbvd(self, setup):
        w, rbvd, library, tmp = setup
        path = str(tmp / "library.json")
        artifacts.save_artifact(path, "option-library", world_hash(w),
                                artifacts.library_payload(library))
        loaded = artifacts.library_from_payload(
            artifacts.load_artifact(path, "option-library", world_hash(w)), w,
            path).rbvd
        assert np.array_equal(loaded.assignment, rbvd.assignment)
        assert loaded.adjacency == rbvd.adjacency
        for a, b in zip(loaded.states, rbvd.states):
            assert a.cells == b.cells and a.anchor == b.anchor

    @pytest.mark.parametrize("edit", [
        lambda p: p.update(adjacency=[]),
        lambda p: p.update(adjacency=[[0, 1], [0, 2]]),
        lambda p: p["assignment"][0].__setitem__(0, 2),
        lambda p: p["assignment"][0].__setitem__(0, -2),
        lambda p: p["assignment"].pop(),
        lambda p: p["regions"].pop(),
        lambda p: p["regions"][1].update(cells=p["regions"][0]["cells"]
                                         + p["regions"][1]["cells"]),
    ], ids=["adjacency-missing-pair", "adjacency-extra-pair", "id-too-large",
            "id-negative", "row-missing", "one-region", "overlapping-regions"])
    def test_inconsistent_rbvd_parse_error(self, setup, edit):
        # the stored partition must be the one the anchor regions derive,
        # and those must be at least two disjoint regions
        w, rbvd, library, tmp = setup
        payload = artifacts.library_payload(library)
        assert payload["rbvd"]["adjacency"] == [[0, 1]]
        edit(payload["rbvd"])
        with pytest.raises(ParseError, match="library.json.*remove"):
            artifacts.library_from_payload(payload, w, "library.json")

    def test_consistently_edited_options_parse_error(self, setup):
        # a smaller termination ball, shared by every option that holds it,
        # still chains; it is not the ball the threshold derives
        w, rbvd, library, tmp = setup
        payload = artifacts.library_payload(library)
        ball = payload["options"][0]["termination"]
        smaller = dict(ball, cells=ball["cells"][:1])
        assert len(ball["cells"]) > 1
        for option in payload["options"]:
            for end in ("initiation", "termination"):
                if option[end] == ball:
                    option[end] = smaller
        with pytest.raises(ParseError, match="library.json.*remove"):
            artifacts.library_from_payload(payload, w, "library.json")

    @pytest.mark.parametrize("threshold, guide_seed", [
        (-1, 3), (0, 3), (math.nan, 3), (math.inf, 3), (True, 3),
        (1.5, "x"), (1.5, 1.5), (1.5, True),
    ], ids=["threshold-negative", "threshold-zero", "threshold-nan", "threshold-inf",
            "threshold-bool", "guide_seed-text", "guide_seed-float", "guide_seed-bool"])
    def test_threshold_and_guide_seed_parse_error(self, setup, threshold, guide_seed):
        # the file is the one these values derive, so only the values
        # themselves can reject it
        w, rbvd, library, tmp = setup
        derived = library_from_regions(w, [s.anchor for s in rbvd.states], "centroid",
                                       threshold, guide_seed)
        path = str(tmp / "library.json")
        artifacts.save_artifact(path, "option-library", world_hash(w),
                                artifacts.library_payload(derived))
        payload = artifacts.load_artifact(path, "option-library", world_hash(w))
        with pytest.raises(ParseError, match="library.json.*remove"):
            artifacts.library_from_payload(payload, w, path)

    @pytest.mark.parametrize("kind", ["centroid", "interface"])
    def test_bundled_library_loads_as_stored(self, kind, tmp_path):
        spec = experiment.spec_for_bundled("env_a")
        _, library = experiment.build_library(spec.world, kind, spec.abstraction)
        path, whash = str(tmp_path / "library.json"), world_hash(spec.world)
        artifacts.save_artifact(path, "option-library", whash,
                                artifacts.library_payload(library))
        stored = artifacts.load_artifact(path, "option-library", whash)
        loaded = artifacts.library_from_payload(stored, spec.world, path)
        assert artifacts.library_payload(loaded) == stored

    def test_round_trip_library(self, setup):
        w, rbvd, library, tmp = setup
        path = str(tmp / "library.json")
        artifacts.save_artifact(path, "option-library", world_hash(w),
                                artifacts.library_payload(library))
        loaded = artifacts.library_from_payload(
            artifacts.load_artifact(path, "option-library", world_hash(w)), w, path)
        assert loaded.kind == library.kind
        assert loaded.guide_seed == library.guide_seed
        assert loaded.options == library.options

    def test_library_guide_spacing_key_ignored(self, setup):
        # library files of earlier versions also carry "guide_spacing"
        w, rbvd, library, tmp = setup
        path = str(tmp / "library.json")
        payload = artifacts.library_payload(library)
        artifacts.save_artifact(path, "option-library", world_hash(w),
                                dict(payload, guide_spacing=0.5))
        loaded = artifacts.library_from_payload(
            artifacts.load_artifact(path, "option-library", world_hash(w)), w, path)
        assert json.dumps(artifacts.library_payload(loaded), sort_keys=True) \
            == json.dumps(payload, sort_keys=True)

    def test_library_cost_keys_ignored(self, setup):
        # library files of earlier versions also carry each option's cost
        # and cost_updated
        w, rbvd, library, tmp = setup
        path = str(tmp / "library.json")
        payload = artifacts.library_payload(library)
        older = dict(payload, options=[dict(p, cost=12.5, cost_updated=True)
                                       for p in payload["options"]])
        artifacts.save_artifact(path, "option-library", world_hash(w), older)
        loaded = artifacts.library_from_payload(
            artifacts.load_artifact(path, "option-library", world_hash(w)), w, path)
        assert loaded.options == library.options
        assert json.dumps(artifacts.library_payload(loaded), sort_keys=True) \
            == json.dumps(payload, sort_keys=True)

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


@pytest.mark.parametrize("path, payload, error", [
    ("d", {"grid": []}, SharpError),       # a directory at the path
    ("", {"grid": []}, SharpError),        # no path
    ("x.json", {"grid": object()}, TypeError),   # a payload JSON cannot hold
], ids=["directory", "empty-path", "unencodable"])
def test_failed_save_leaves_no_temp_file(tmp_path, monkeypatch, path, payload, error):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    with pytest.raises(error):
        artifacts.save_artifact(path, "density-grid", "h", payload)
    assert [p.name for p in tmp_path.iterdir()] == ["d"]


def make_policy(w, rng):
    guide = OptionGuide(option_id="c0-1",
                        initiation=None, termination=None,
                        points=[Configuration(1.0, 1.0), Configuration(2.0, 1.5)],
                        allowed_states=frozenset([0, 1]))
    from sharp.abstraction import Region
    guide.initiation = Region(frozenset([(2, 2)]), Configuration(1.25, 1.25))
    guide.termination = Region(frozenset([(9, 9)]), Configuration(4.75, 4.75))
    actor = init_mlp(observation_dim(w), (6, 6), 4, rng)
    return Policy(actor=actor, guide=guide)


class TestCachePersistence:
    def test_save_load_cycle(self, setup, rng):
        w, rbvd, library, tmp = setup
        whash = world_hash(w)
        cache = {}
        policy = make_policy(w, rng)
        key = f"{whash}/c0-1/{'a' * 16}"
        cache[key] = CacheEntry(actor=policy.actor, cost=12.5, training_steps=4000)
        artifacts.save_cache(str(tmp), whash, cache)
        loaded = artifacts.load_cache(str(tmp), whash)
        assert len(loaded) == 1
        entry = loaded.get(key)
        assert entry is not None
        assert entry.cost == 12.5 and entry.training_steps == 4000
        assert entry.actor.layer_sizes == policy.actor.layer_sizes
        assert np.array_equal(entry.actor.params, policy.actor.params)

    def test_missing_dir_empty_cache(self, tmp_path):
        cache = artifacts.load_cache(str(tmp_path), "f" * 16)
        assert len(cache) == 0

    def test_round_trip_is_bit_exact(self, setup, rng):
        # values a decimal rendering would round: signed zero, a subnormal,
        # the extremes of float64, and random values over 600 decades
        w, rbvd, library, tmp = setup
        whash = world_hash(w)
        special = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308,
                   1.7976931348623157e308, 1.0 / 3.0, math.nextafter(1.0, 2.0)]
        cache = {}
        for i, hidden in enumerate([(6, 6), (3, 5), (64, 64)]):
            actor = init_mlp(observation_dim(w), hidden, 4, rng)
            n = actor.flat().size
            vec = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
            vec[:len(special)] = special
            actor.set_flat(vec)
            cache[f"{whash}/c0-{i}"] = CacheEntry(
                actor=actor, cost=[0.1 + 0.2, 1e-6, math.pi * 1e10][i],
                training_steps=[0, 4000, 2 ** 53 + 1][i])
        artifacts.save_cache(str(tmp), whash, cache)
        loaded = artifacts.load_cache(str(tmp), whash)
        assert sorted(loaded) == sorted(cache)
        for key, entry in cache.items():
            got = loaded[key]
            assert got.actor.layer_sizes == entry.actor.layer_sizes
            assert got.actor.params.dtype == entry.actor.params.dtype
            assert got.actor.params.tobytes() == entry.actor.params.tobytes()
            assert got.cost.hex() == entry.cost.hex()
            assert got.training_steps == entry.training_steps

    def test_other_world_rejected(self, setup, rng):
        w, rbvd, library, tmp = setup
        whash = world_hash(w)
        cache = {"k": CacheEntry(actor=make_policy(w, rng).actor, cost=1.0,
                                 training_steps=1)}
        artifacts.save_cache(str(tmp), whash, cache)
        os.rename(tmp / whash, tmp / ("0" * 16))
        with pytest.raises(VersionMismatch):
            artifacts.load_cache(str(tmp), "0" * 16)

    def test_earlier_layout_loads_empty(self, setup, rng):
        # earlier versions kept cache_index.json plus one binary file per policy
        w, rbvd, library, tmp = setup
        whash = world_hash(w)
        base = tmp / whash
        os.makedirs(base / "policies")
        (base / "policies" / "0123456789abcdef.pol").write_bytes(
            b"SHARPPOL" + b"\x00" * 64)
        artifacts.save_artifact(
            str(base / "cache_index.json"), "policy-cache", whash,
            {"entries": {f"{whash}/c0-1/{'a' * 16}": {
                "file": "0123456789abcdef.pol", "cost": 3.0,
                "training_steps": 10}}})
        assert artifacts.load_cache(str(tmp), whash) == {}
        key = f"{whash}/c0-1/{'b' * 16}"
        artifacts.save_cache(str(tmp), whash, {key: CacheEntry(
            actor=make_policy(w, rng).actor, cost=2.0, training_steps=5)})
        assert list(artifacts.load_cache(str(tmp), whash)) == [key]


def _drop(*path):
    def mutate(entry):
        for k in path[:-1]:
            entry = entry[k]
        del entry[path[-1]]
    return mutate


def _set_actor(field, value):
    def mutate(entry):
        entry["actor"][field] = value(entry["actor"]) if callable(value) else value
    return mutate


def _params_bytes(edit):
    def value(actor):
        raw = base64.b64decode(actor["params"])
        return base64.b64encode(edit(raw)).decode("ascii")
    return value


MALFORMED_ENTRIES = {
    "no-cost": _drop("cost"),
    "text-cost": lambda entry: entry.update(cost="twelve"),
    "nan-text-cost": lambda entry: entry.update(cost="nan"),
    "inf-text-cost": lambda entry: entry.update(cost="inf"),
    "nan-cost": lambda entry: entry.update(cost=math.nan),
    "negative-cost": lambda entry: entry.update(cost=-5),
    "zero-cost": lambda entry: entry.update(cost=0),
    "bool-cost": lambda entry: entry.update(cost=True),
    "negative-training_steps": lambda entry: entry.update(training_steps=-3),
    "fractional-training_steps": lambda entry: entry.update(training_steps=2.7),
    "bool-training_steps": lambda entry: entry.update(training_steps=True),
    "no-training_steps": _drop("training_steps"),
    "no-actor": _drop("actor"),
    "no-layers": _drop("actor", "layers"),
    "no-params": _drop("actor", "params"),
    "params-not-base64": _set_actor("params", "not base64!"),
    "params-bad-padding": _set_actor("params", "QUJ"),
    "params-not-text": _set_actor("params", 12),
    "three-layer-sizes": _set_actor("layers", [6, 6, 4]),
    "five-layer-sizes": _set_actor("layers", [6, 6, 6, 6, 4]),
    "zero-layer-size": _set_actor("layers", [6, 0, 6, 4]),
    "text-layer-size": _set_actor("layers", ["6", 6, 6, 4]),
    "layers-not-a-list": _set_actor("layers", 4),
    "layers-larger-than-params": _set_actor("layers", [6, 6, 7, 4]),
    "one-parameter-short": _set_actor("params", _params_bytes(lambda b: b[:-8])),
    "one-parameter-over": _set_actor("params", _params_bytes(lambda b: b + b[:8])),
    "partial-parameter": _set_actor("params", _params_bytes(lambda b: b[:-3])),
    "nan-parameters": _set_actor("params", _params_bytes(
        lambda b: np.full(len(b) // 8, math.nan, "<f8").tobytes())),
    "inf-parameter": _set_actor("params", _params_bytes(
        lambda b: b[:-8] + np.array([math.inf], "<f8").tobytes())),
    # 7.28 TiB of parameters: rejected by its byte count, not by allocating it
    "oversized-layers": _set_actor("layers", [6, 1_000_000, 1_000_000, 4]),
}


@pytest.mark.parametrize("mutate", MALFORMED_ENTRIES.values(),
                         ids=MALFORMED_ENTRIES.keys())
def test_malformed_cache_entry_parse_error(setup, rng, mutate):
    w, rbvd, library, tmp = setup
    whash = world_hash(w)
    actor = init_mlp(observation_dim(w), (6, 6), 4, rng)
    artifacts.save_cache(str(tmp), whash, {
        "k": CacheEntry(actor=actor, cost=1.0, training_steps=1)})
    path = tmp / whash / "policy_cache.json"
    envelope = json.loads(path.read_text())
    mutate(envelope["payload"]["entries"]["k"])
    path.write_text(json.dumps(envelope))
    with pytest.raises(ParseError, match="entry 'k'"):
        artifacts.load_cache(str(tmp), whash)


def _cache_envelope(payload) -> dict:
    return {"format": artifacts.ARTIFACT_FORMAT, "version": artifacts.ARTIFACT_VERSION,
            "kind": "policy-cache", "world_hash": "f" * 16, "payload": payload}


MALFORMED_ENVELOPES = {
    "not-utf8": b"\xff" + json.dumps(_cache_envelope({"entries": {}})).encode(),
    "no-payload": json.dumps({k: v for k, v in _cache_envelope(None).items()
                              if k != "payload"}).encode(),
    "list-payload": json.dumps(_cache_envelope([])).encode(),
    "list-entries": json.dumps(_cache_envelope({"entries": []})).encode(),
    "no-entries": json.dumps(_cache_envelope({})).encode(),
}


@pytest.mark.parametrize("data", MALFORMED_ENVELOPES.values(),
                         ids=MALFORMED_ENVELOPES.keys())
def test_malformed_envelope_parse_error(tmp_path, data):
    path = tmp_path / ("f" * 16) / artifacts.POLICY_CACHE_FILE
    path.parent.mkdir()
    path.write_bytes(data)
    with pytest.raises(ParseError, match=str(path)):
        artifacts.load_cache(str(tmp_path), "f" * 16)
