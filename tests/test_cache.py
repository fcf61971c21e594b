import hashlib
import json
import zlib

import pytest

from locspot import compute_model, load_cache, save_cache
from locspot.cache import MAGIC, VERSION
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
