"""Versioned binary cache for a built gazetteer.

Layout: 4 magic bytes "LSPC", 1 version byte, then two zlib members
(level 6) back to back, each a UTF-8 JSON object with sorted keys, so
identical inputs always produce byte-identical cache files.

1. The index member holds what extraction reads: `ids`, the sorted
   entry ids; `surfaces`, the sorted variant surfaces; `kinds`, one
   kind code per surface (its position in KIND_CODES);
   `entry_indices`, each surface's entry ids as sorted positions in
   `ids`; `category_words`; and `stopnames`.
2. The entries member holds the columns `name`, `lat`, `lon`, `source`
   and `extra`, each parallel to `ids`.

load_cache decodes the index member only and checks every column of
it: kind codes, entry positions (integers, in range, increasing within
a row), sorted distinct ids, distinct surfaces and parallel lengths.
The columns become the gazetteer's VariantIndex as they are; its
NameVariants are built only when read. The entries member stays
compressed until Gazetteer.entries is first read, which extraction
never does. The language model is a pure function of the variants and
derives its tables on first use. A cache of any other version is
rejected and must be rebuilt.
"""

from __future__ import annotations

import json
import zlib
from collections.abc import Mapping
from functools import cached_property
from operator import lt
from pathlib import Path

from .errors import DataError
from .gazetteer import (
    KIND_CODES,
    Gazetteer,
    GazetteerEntry,
    VariantIndex,
)
from .langmodel import CompiledModel, compute_model

MAGIC = b"LSPC"
VERSION = 3
_COLUMNS = ("name", "lat", "lon", "source", "extra")


def _member(obj) -> bytes:
    text = json.dumps(obj, sort_keys=True, ensure_ascii=False,
                      separators=(",", ":"))
    return zlib.compress(text.encode("utf-8"), 6)


def save_cache(path, gazetteer: Gazetteer, model: CompiledModel):
    """Write the cache file; overwrites any existing file at path.

    The model is not stored, because load_cache derives it on load.
    """
    variants = gazetteer.variants
    ids = variants.ids
    index = {
        "ids": ids,
        "surfaces": variants.surfaces,
        "kinds": variants.kinds,
        "entry_indices": variants.entry_indices,
        "category_words": sorted(gazetteer.category_words),
        "stopnames": sorted(gazetteer.stopnames),
    }
    entries = [gazetteer.entries[entry_id] for entry_id in ids]
    columns = {
        "name": [e.canonical_name for e in entries],
        "lat": [e.latitude for e in entries],
        "lon": [e.longitude for e in entries],
        "source": [e.source for e in entries],
        "extra": [e.extra for e in entries],
    }
    blob = MAGIC + bytes([VERSION]) + _member(index) + _member(columns)
    Path(path).write_bytes(blob)


class _CachedEntries(Mapping):
    """Read-only entries that decode the entries member on first access."""

    def __init__(self, path, ids, member: bytes):
        self._path = path
        self._ids = ids
        self._member = member

    @cached_property
    def _entries(self) -> dict[str, GazetteerEntry]:
        try:
            columns = json.loads(zlib.decompress(self._member).decode("utf-8"))
            rows = zip(self._ids, *(columns[c] for c in _COLUMNS), strict=True)
            entries = {row[0]: GazetteerEntry(*row) for row in rows}
        except (zlib.error, KeyError, TypeError, ValueError) as exc:
            raise DataError(
                f"{self._path}: corrupt cache entries: {exc!r}") from None
        del self._member
        return entries

    def __getitem__(self, entry_id) -> GazetteerEntry:
        return self._entries[entry_id]

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


def _bad_position(surface, i, count) -> str:
    if type(i) is not int:
        return f"entry index {i!r} of {surface!r} is not an integer"
    if not 0 <= i < count:
        return f"entry index {i} out of range"
    return f"entry indices of {surface!r} are not increasing"


def _variants(path, index) -> VariantIndex:
    """Check the variant columns of the index member, then index them."""
    ids, surfaces = index["ids"], index["surfaces"]
    kinds, positions = index["kinds"], index["entry_indices"]
    known = range(len(KIND_CODES))
    if not (set(map(type, kinds)) <= {int} and set(kinds) <= set(known)):
        code = next(c for c in kinds if type(c) is not int or c not in known)
        raise DataError(f"{path}: unknown variant kind code {code!r}")
    if not all(map(lt, ids, ids[1:])):
        raise DataError(f"{path}: entry ids are not sorted and distinct")
    count = len(ids)
    # zip(strict=True) also checks that each column has one row per surface
    for surface, _, row in zip(surfaces, kinds, positions, strict=True):
        previous = -1
        for i in row:
            if type(i) is not int or not previous < i < count:
                raise DataError(f"{path}: {_bad_position(surface, i, count)}")
            previous = i
    return VariantIndex(ids, surfaces, kinds, positions)


def load_cache(path) -> tuple[Gazetteer, CompiledModel]:
    """Read a cache file back into a Gazetteer and its CompiledModel."""
    blob = Path(path).read_bytes()
    if blob[:4] != MAGIC:
        raise DataError(f"{path}: not a locspot model cache (bad magic)")
    if blob[4:5] != bytes([VERSION]):
        version = blob[4] if len(blob) > 4 else "?"
        raise DataError(f"{path}: unsupported cache version {version}; "
                        "rebuild it with `locspot build`")
    reader = zlib.decompressobj()
    try:
        text = reader.decompress(blob[5:])
        if not reader.eof:
            raise DataError(f"{path}: truncated cache index")
        index = json.loads(text.decode("utf-8"))
    except (zlib.error, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: corrupt cache payload: {exc}") from None
    try:
        gazetteer = Gazetteer(
            variants=_variants(path, index),
            entries=_CachedEntries(path, index["ids"], reader.unused_data),
            category_words=frozenset(index["category_words"]),
            stopnames=frozenset(index["stopnames"]),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"{path}: malformed cache payload: {exc!r}") from None
    return gazetteer, compute_model(gazetteer)
