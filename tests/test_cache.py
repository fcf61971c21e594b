import hashlib
import json
import random
import zlib

import pytest

from locspot import (
    GazetteerEntry,
    LocationExtractor,
    build_gazetteer,
    compute_model,
    load_cache,
    save_cache,
)
from locspot import gazetteer as gazetteer_module
from locspot.cache import KIND_CODES, MAGIC, VERSION
from locspot.errors import DataError

from conftest import MINI_NAMES, build_from_names


def test_round_trip(tmp_path, mini_gazetteer, mini_model):
    path = tmp_path / "model.lspc"
    save_cache(path, mini_gazetteer, mini_model)
    gazetteer, model = load_cache(path)

    assert set(gazetteer.variants) == set(mini_gazetteer.variants)
    for surface, variant in mini_gazetteer.variants.items():
        other = gazetteer.variants[surface]
        assert other.kind == variant.kind
        assert other.entry_ids == variant.entry_ids
    assert set(gazetteer.entries) == set(mini_gazetteer.entries)
    assert gazetteer.entries["g9"].canonical_name == "Cars India - Adyar"
    assert gazetteer.stopnames == mini_gazetteer.stopnames

    assert model.counts.unigram_counts == mini_model.counts.unigram_counts
    assert model.counts.bigram_cfd == mini_model.counts.bigram_cfd
    assert model.counts.trigram_cfd == mini_model.counts.trigram_cfd
    assert model.counts.total_unigrams == mini_model.counts.total_unigrams


def test_rebuild_is_byte_identical(tmp_path):
    digests = []
    for attempt in range(2):
        gazetteer = build_from_names(MINI_NAMES)
        model = compute_model(gazetteer)
        path = tmp_path / f"cache{attempt}.lspc"
        save_cache(path, gazetteer, model)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.lspc"
    path.write_bytes(b"NOPE" + b"\x01" + b"garbage")
    with pytest.raises(DataError):
        load_cache(path)


def test_bad_version_rejected(tmp_path, mini_gazetteer, mini_model):
    path = tmp_path / "model.lspc"
    save_cache(path, mini_gazetteer, mini_model)
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError):
        load_cache(path)


def test_corrupt_payload_rejected(tmp_path, mini_gazetteer, mini_model):
    path = tmp_path / "model.lspc"
    save_cache(path, mini_gazetteer, mini_model)
    blob = path.read_bytes()
    path.write_bytes(blob[:16] + b"\x00\x00\x00\x00" + blob[20:])
    with pytest.raises(DataError):
        load_cache(path)


def test_version_1_cache_rejected(tmp_path, mini_gazetteer, mini_model):
    path = tmp_path / "model.lspc"
    save_cache(path, mini_gazetteer, mini_model)
    blob = bytearray(path.read_bytes())
    blob[4] = 1
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="unsupported cache version 1"):
        load_cache(path)


@pytest.mark.parametrize("payload", [{"entries": {}}, [1, 2]])
def test_wrong_shape_payload_rejected(tmp_path, payload):
    path = tmp_path / "model.lspc"
    path.write_bytes(MAGIC + bytes([VERSION])
                     + zlib.compress(json.dumps(payload).encode("utf-8")))
    with pytest.raises(DataError):
        load_cache(path)


# --------------------------------------------- version 3 members, seeded

_WORDS = ["oak", "mill", "são", "zürich", "new", "river", "köln", "avadi",
          "north", "park", "東京", "st."]
_CATEGORIES = ["road", "street", "school"]


def _random_entry(rng, entry_id, name):
    source = rng.choice(["osm", "geonames", "dbpedia", "generic"])
    return GazetteerEntry(
        id=f"{source}:{entry_id}", canonical_name=name,
        latitude=rng.choice([None, rng.uniform(-90, 90), 0.1 + 0.2]),
        longitude=rng.choice([None, rng.uniform(-180, 180), -0.0]),
        source=source,
        extra=rng.choice([{}, {"country_code": "IN"},
                          {"note": "café ☕", "rank": [1, 2.5, None]}]))


def _random_gazetteer(rng):
    entries = []
    for i in range(rng.randint(1, 60)):
        base = " ".join(rng.choice(_WORDS).title()
                        for _ in range(rng.randint(1, 4)))
        shape = rng.random()
        if shape < 0.25:
            name = f"{base} {rng.choice(_CATEGORIES).title()}"
        elif shape < 0.4:
            name = f"{base} ({rng.choice(_WORDS)})"
        elif shape < 0.55:
            name = f"{base} - {rng.choice(_WORDS).title()}"
        else:
            name = base
        entries.append(_random_entry(rng, i, name))
    shared = rng.choice(_WORDS).title() + " Road"
    entries += [_random_entry(rng, f"shared{k}", shared)
                for k in range(rng.randint(1, 100))]
    return build_gazetteer(entries, stopname_list=[rng.choice(_WORDS)],
                           phrase_list=["historical"],
                           category_words=_CATEGORIES)


def test_v3_round_trip_matches_built_gazetteer(tmp_path):
    rng = random.Random(31)
    path = tmp_path / "model.lspc"
    kinds, widest = set(), 0
    for _ in range(150):
        built = _random_gazetteer(rng)
        save_cache(path, built, None)
        loaded, _ = load_cache(path)

        assert {s: (v.kind, v.entry_ids) for s, v in loaded.variants.items()} \
            == {s: (v.kind, v.entry_ids) for s, v in built.variants.items()}
        assert dict(loaded.entries) == dict(built.entries)
        assert loaded.category_words == built.category_words
        assert loaded.stopnames == built.stopnames
        kinds |= {v.kind for v in built.variants.values()}
        widest = max(widest, *(len(v.entry_ids)
                               for v in built.variants.values()))
    assert kinds == set(KIND_CODES)
    assert widest >= 100


def _members(path):
    blob = path.read_bytes()
    reader = zlib.decompressobj()
    index = json.loads(reader.decompress(blob[5:]))
    return index, json.loads(zlib.decompress(reader.unused_data))


def _write_members(path, index, columns):
    path.write_bytes(MAGIC + bytes([VERSION])
                     + zlib.compress(json.dumps(index).encode("utf-8"))
                     + zlib.compress(json.dumps(columns).encode("utf-8")))


def test_version_2_cache_rejected(tmp_path, mini_gazetteer, mini_model):
    path = tmp_path / "model.lspc"
    save_cache(path, mini_gazetteer, mini_model)
    blob = bytearray(path.read_bytes())
    blob[4] = 2
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError,
                       match="unsupported cache version 2.*rebuild it"):
        load_cache(path)


@pytest.mark.parametrize("field, value, message", [
    ("surfaces", lambda v: v[:-1], "malformed cache payload.*zip"),
    ("kinds", lambda v: v + [0], "malformed cache payload.*zip"),
    ("kinds", lambda v: [7] + v[1:], "unknown variant kind code 7"),
    ("entry_indices", lambda v: [[-1]] + v[1:], "entry index -1 out of range"),
    ("entry_indices", lambda v: [[16]] + v[1:], "entry index 16 out of range"),
    # extraction reads rows without checking them, so a bad one must
    # fail here: it would reach the output linked to the wrong entry,
    # unsorted or repeated
    ("entry_indices", lambda v: [[True]] + v[1:],
     "model.lspc: entry index True of .* is not an integer"),
    ("entry_indices", lambda v: [[1.0]] + v[1:],
     "model.lspc: entry index 1.0 of .* is not an integer"),
    ("entry_indices", lambda v: [[3, 1]] + v[1:],
     "model.lspc: entry indices of .* are not increasing"),
    ("entry_indices", lambda v: [[2, 2]] + v[1:],
     "model.lspc: entry indices of .* are not increasing"),
    ("kinds", lambda v: [True] + v[1:],
     "model.lspc: unknown variant kind code True"),
    ("ids", lambda v: v[1:2] + v[:1] + v[2:],
     "model.lspc: entry ids are not sorted and distinct"),
    ("surfaces", lambda v: v[:1] + v[:-1],
     "model.lspc: malformed cache payload.*not distinct"),
])
def test_malformed_index_member_rejected(tmp_path, mini_gazetteer, mini_model,
                                          field, value, message):
    path = tmp_path / "model.lspc"
    save_cache(path, mini_gazetteer, mini_model)
    index, columns = _members(path)
    index[field] = value(index[field])
    _write_members(path, index, columns)
    with pytest.raises(DataError, match=message):
        load_cache(path)


def test_load_builds_no_variant_and_no_prefix_set(
        tmp_path, monkeypatch, mini_gazetteer, mini_model, extraction_config):
    path = tmp_path / "model.lspc"
    save_cache(path, mini_gazetteer, mini_model)
    built = []

    class CountedNameVariant(gazetteer_module.NameVariant):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(gazetteer_module, "NameVariant", CountedNameVariant)
    gazetteer, model = load_cache(path)
    pipeline = LocationExtractor(model, gazetteer, extraction_config)
    mentions = pipeline.extract(
        "We r lucky where I am in New Iberia. #PrayForLouisiana #lawx")
    assert [m.entry_ids for m in mentions] == [("g3",), ("g4",)]
    assert built == []
    assert "prefixes" not in vars(model)

    assert gazetteer.variants["houston"].entry_ids == {"g5"}
    assert built == ["houston"]


@pytest.mark.parametrize("damage", [
    lambda columns: {**columns, "lat": columns["lat"][:-1]},
    lambda columns: {**columns, "name": columns["name"] + ["Extra"]},
    lambda columns: {k: v for k, v in columns.items() if k != "source"},
])
def test_malformed_entries_member_raises_on_first_access(
        tmp_path, mini_gazetteer, mini_model, damage):
    path = tmp_path / "model.lspc"
    save_cache(path, mini_gazetteer, mini_model)
    index, columns = _members(path)
    _write_members(path, index, damage(columns))
    gazetteer, _ = load_cache(path)
    assert gazetteer.variants["houston"].entry_ids == {"g5"}
    with pytest.raises(DataError, match="model.lspc"):
        gazetteer.entries["g9"]


def test_corrupt_entries_member_raises_on_first_access(
        tmp_path, mini_gazetteer, mini_model):
    path = tmp_path / "model.lspc"
    save_cache(path, mini_gazetteer, mini_model)
    blob = path.read_bytes()
    path.write_bytes(blob[:-12] + bytes(12))
    gazetteer, _ = load_cache(path)
    with pytest.raises(DataError, match="model.lspc: corrupt cache entries"):
        len(gazetteer.entries)
