"""Versioned binary cache for a built gazetteer.

Layout: 4 magic bytes "LSPC", 1 version byte, then a zlib-compressed
UTF-8 JSON payload with sorted keys, so identical inputs always produce
byte-identical cache files. The version 2 payload stores entries, the
variant index, category words, and stop-names; the language model is a
pure function of the variants and is derived on load. Version 1 caches
(which also stored n-gram counts) are rejected and must be rebuilt.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

from .errors import DataError
from .gazetteer import Gazetteer, GazetteerEntry, NameVariant
from .langmodel import CompiledModel, compute_model

MAGIC = b"LSPC"
VERSION = 2


def _payload(gazetteer: Gazetteer) -> dict:
    return {
        "entries": {
            e.id: {
                "name": e.canonical_name,
                "lat": e.latitude,
                "lon": e.longitude,
                "source": e.source,
                "extra": e.extra,
            }
            for e in gazetteer.entries.values()
        },
        "variants": {
            surface: {"kind": v.kind, "entry_ids": sorted(v.entry_ids)}
            for surface, v in gazetteer.variants.items()
        },
        "category_words": sorted(gazetteer.category_words),
        "stopnames": sorted(gazetteer.stopnames),
    }


def save_cache(path, gazetteer: Gazetteer, model: CompiledModel):
    """Write the cache file; overwrites any existing file at path.

    The model is not stored, because load_cache derives it on load.
    """
    payload = json.dumps(_payload(gazetteer), sort_keys=True,
                         ensure_ascii=False, separators=(",", ":"))
    blob = MAGIC + bytes([VERSION]) + zlib.compress(payload.encode("utf-8"), 9)
    Path(path).write_bytes(blob)


def _gazetteer(payload) -> Gazetteer:
    entries = {
        entry_id: GazetteerEntry(
            id=entry_id,
            canonical_name=spec["name"],
            latitude=spec["lat"],
            longitude=spec["lon"],
            source=spec["source"],
            extra=spec.get("extra") or {},
        )
        for entry_id, spec in payload["entries"].items()
    }
    variants = {
        surface: NameVariant(surface=surface, kind=spec["kind"],
                             entry_ids=set(spec["entry_ids"]))
        for surface, spec in payload["variants"].items()
    }
    return Gazetteer(
        variants=variants,
        entries=entries,
        category_words=frozenset(payload["category_words"]),
        stopnames=frozenset(payload["stopnames"]),
    )


def load_cache(path) -> tuple[Gazetteer, CompiledModel]:
    """Read a cache file back into a Gazetteer and its CompiledModel."""
    blob = Path(path).read_bytes()
    if blob[:4] != MAGIC:
        raise DataError(f"{path}: not a locspot model cache (bad magic)")
    if blob[4:5] != bytes([VERSION]):
        version = blob[4] if len(blob) > 4 else "?"
        raise DataError(f"{path}: unsupported cache version {version}; "
                        "rebuild it with `locspot build`")
    try:
        payload = json.loads(zlib.decompress(blob[5:]).decode("utf-8"))
    except (zlib.error, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: corrupt cache payload: {exc}") from None
    try:
        gazetteer = _gazetteer(payload)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DataError(f"{path}: malformed cache payload: {exc!r}") from None
    return gazetteer, compute_model(gazetteer)
