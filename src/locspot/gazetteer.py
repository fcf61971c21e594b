"""Gazetteer ingestion, filtering, and skip-gram augmentation.

Raw place-name records are loaded from files, cleaned of auxiliary
content (bracketed tags, spaced hyphens), expanded with skip-gram name
variants, and indexed into a surface -> variant mapping that the
language model is compiled from.

The index is built in one pass: a hyphen split that is also some
entry's original name is dropped with its skip-grams, every other
surface merges in (entry ids unioned, lowest kind rank kept, so entry
order does not matter), and stop-names are never inserted.

The variants are held as columns (VariantIndex), the same ones the
model cache stores, plus one surface -> code dict that extraction
probes; a NameVariant is built only when one is read.
"""

from __future__ import annotations

import json
import logging
import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import combinations

from .errors import ConfigError, GazetteerFormatError

log = logging.getLogger(__name__)

SOURCES = ("osm", "geonames", "dbpedia", "generic")
FORMATS = ("geonames_tsv", "osm_json", "generic_json")

# variant kinds
ORIGINAL = "original"
SKIPGRAM = "skipgram"
BRACKET_ALTERNATIVE = "bracket_alternative"
HYPHEN_SPLIT = "hyphen_split"

# a skip-gram keeps at most this many of a name's interior tokens
MAX_SKIPGRAM_INTERIOR = 3

# precedence when a surface is produced more than once; lower wins
_KIND_RANK = {ORIGINAL: 0, BRACKET_ALTERNATIVE: 1, HYPHEN_SPLIT: 2, SKIPGRAM: 3}

# a variant's kind code is the kind's position here
KIND_CODES = (ORIGINAL, SKIPGRAM, BRACKET_ALTERNATIVE, HYPHEN_SPLIT)
_KIND_CODE = {kind: code for code, kind in enumerate(KIND_CODES)}

# flags of a VariantIndex code; the bits above them hold the row
VARIANT = 1
PREFIX = 2

_BRACKET_RE = re.compile(r"\(([^()]*)\)")
_WS_RE = re.compile(r"\s+")


@dataclass(slots=True)
class GazetteerEntry:
    """One named place from a gazetteer source."""

    id: str
    canonical_name: str
    latitude: float | None = None
    longitude: float | None = None
    source: str = "generic"
    extra: dict = field(default_factory=dict)


@dataclass(slots=True)
class NameVariant:
    """A matchable surface form together with the entries it names."""

    surface: str
    kind: str
    entry_ids: set[str]


class VariantIndex(Mapping):
    """Read-only surface -> NameVariant mapping over four columns.

    ids holds the entry ids, sorted; surfaces the variant surfaces, with
    kinds (kind codes) and entry_indices (each row's entry ids as
    increasing positions in ids) parallel to it. codes maps each
    surface, and each proper token prefix of one ("new avadi" for "new
    avadi road"), to row << 2 | VARIANT | PREFIX, with the flags that
    apply; extraction probes nothing else. Reading an item builds a
    fresh NameVariant.
    """

    def __init__(self, ids, surfaces, kinds, entry_indices):
        self.ids = ids
        self.surfaces = surfaces
        self.kinds = kinds
        self.entry_indices = entry_indices
        # row << 2 | VARIANT for rows 0, 1, 2, ...
        codes = dict(zip(surfaces, range(VARIANT, 4 * len(surfaces), 4)))
        if len(codes) != len(surfaces):
            raise ValueError("variant surfaces are not distinct")
        for surface in surfaces:
            # mark proper prefixes from the longest down; a prefix that
            # is already marked had all of its own prefixes marked then
            cut = surface.rfind(" ")
            while cut > 0:
                surface = surface[:cut]
                code = codes.get(surface, 0)
                if code & PREFIX:
                    break
                codes[surface] = code | PREFIX
                cut = surface.rfind(" ")
        self.codes = codes

    def _row(self, surface) -> int:
        code = self.codes.get(surface, 0)
        if not code & VARIANT:
            raise KeyError(surface)
        return code >> 2

    def entry_ids(self, surface) -> tuple[str, ...]:
        """The variant's entry ids in sorted order."""
        ids = self.ids
        return tuple([ids[i] for i in self.entry_indices[self._row(surface)]])

    def __getitem__(self, surface) -> NameVariant:
        row = self._row(surface)
        ids = self.ids
        return NameVariant(surface, KIND_CODES[self.kinds[row]],
                           {ids[i] for i in self.entry_indices[row]})

    def __contains__(self, surface) -> bool:
        return bool(self.codes.get(surface, 0) & VARIANT)

    def __iter__(self):
        return iter(self.surfaces)

    def __len__(self) -> int:
        return len(self.surfaces)


@dataclass
class Gazetteer:
    """Immutable-after-build name index used for matching and linking.

    entries is read-only; a gazetteer loaded from a cache decodes it on
    first access, because extraction reads only the variants.
    """

    variants: VariantIndex
    entries: Mapping[str, GazetteerEntry]
    category_words: frozenset[str]
    stopnames: frozenset[str]


def normalize_surface(text: str) -> str:
    """Case-fold and collapse whitespace runs to single spaces."""
    return _WS_RE.sub(" ", text.strip()).lower()


def _in_bbox(lat, lon, bbox) -> bool:
    if lat is None or lon is None:
        return True
    south, west, north, east = bbox
    return south <= lat <= north and west <= lon <= east


def is_finite_number(value) -> bool:
    """True for a finite int or float; bool is an int, but not a number."""
    return type(value) in (int, float) and math.isfinite(value)


def _parse_float(value, what, index, path):
    value = value.strip()
    if value == "":
        return None
    try:
        number = float(value)
        if math.isfinite(number):
            return number
    except ValueError:
        pass
    raise GazetteerFormatError(f"bad {what}: {value!r}", index, path)


def load_gazetteer(path, format: str, bbox=None) -> list[GazetteerEntry]:
    """Load raw gazetteer entries from a file.

    Supported formats: geonames_tsv (the public Geonames dump layout,
    name in column 2), osm_json (array of {id,name,lat,lon,tags}), and
    generic_json (array of {id,name} with optional lat/lon/source).
    An optional bbox (south, west, north, east) drops entries whose
    coordinates fall outside it; entries without coordinates pass.
    Names are preserved verbatim; filtering happens in build_gazetteer.
    A file that is not UTF-8, a coordinate that is not a finite number
    (a JSON string or boolean, a Geonames nan or inf) and osm_json tags
    that are not an object each raise GazetteerFormatError naming the
    file and, where there is one, the record.
    """
    if format not in FORMATS:
        raise ConfigError(f"unknown gazetteer format: {format!r}")
    if bbox is not None:
        south, west, north, east = bbox
        if not (south < north and west < east):
            raise ConfigError(f"bbox is not well-ordered: {bbox!r}")

    try:
        if format == "geonames_tsv":
            entries = _load_geonames_tsv(path)
        else:
            entries = _load_json(path, format)
    except UnicodeDecodeError as exc:
        raise GazetteerFormatError(f"not UTF-8 text: {exc}", path=path) from None

    if bbox is not None:
        entries = [e for e in entries if _in_bbox(e.latitude, e.longitude, bbox)]
    return entries


def _load_geonames_tsv(path):
    entries = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) < 6:
                raise GazetteerFormatError(
                    f"expected >= 6 tab-separated fields, got {len(fields)}",
                    lineno, path)
            geonameid, name = fields[0].strip(), fields[1].strip()
            if not geonameid or not name:
                raise GazetteerFormatError("missing id or name", lineno, path)
            lat = _parse_float(fields[4], "latitude", lineno, path)
            lon = _parse_float(fields[5], "longitude", lineno, path)
            extra = {}
            if len(fields) > 7 and fields[6].strip():
                extra["feature_class"] = fields[6].strip()
            if len(fields) > 8 and fields[8].strip():
                extra["country_code"] = fields[8].strip()
            entries.append(GazetteerEntry(
                id=f"geonames:{geonameid}", canonical_name=name,
                latitude=lat, longitude=lon, source="geonames", extra=extra))
    return entries


def _load_json(path, format):
    with open(path, encoding="utf-8") as f:
        try:
            records = json.load(f)
        except json.JSONDecodeError as exc:
            raise GazetteerFormatError(f"invalid JSON: {exc}", path=path) from None
    if records == []:
        return []
    if not isinstance(records, list):
        raise GazetteerFormatError("expected a top-level JSON array", path=path)

    default_source = "osm" if format == "osm_json" else "generic"
    entries = []
    for index, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise GazetteerFormatError("record is not an object", index, path)
        rec_id = rec.get("id")
        name = rec.get("name")
        if rec_id is None or name is None or not str(name).strip():
            raise GazetteerFormatError("record needs 'id' and 'name'", index, path)
        source = rec.get("source", default_source)
        if source not in SOURCES:
            raise GazetteerFormatError(f"unknown source: {source!r}", index, path)
        lat, lon = rec.get("lat"), rec.get("lon")
        if not all(v is None or is_finite_number(v) for v in (lat, lon)):
            raise GazetteerFormatError(
                f"bad lat/lon: {lat!r}, {lon!r}", index, path)
        tags = rec.get("tags")
        if tags is not None and not isinstance(tags, dict):
            raise GazetteerFormatError(
                f"'tags' must be an object, not {type(tags).__name__}",
                index, path)
        entries.append(GazetteerEntry(
            id=f"{source}:{rec_id}", canonical_name=str(name),
            latitude=None if lat is None else float(lat),
            longitude=None if lon is None else float(lon),
            source=source, extra=tags or {}))
    return entries


def filter_entry(name: str, phrase_list) -> list[tuple[str, str]]:
    """Clean one raw name into (surface, kind) pairs.

    Bracketed content matching phrase_list is deleted; other bracketed
    content becomes a separate bracket_alternative surface. A name with
    exactly one spaced hyphen (" - ") additionally yields both sides as
    hyphen_split surfaces. Surfaces are case-folded and whitespace
    normalized. Degenerate names come back unchanged.
    """
    return _filter_entry(name, _phrase_set(phrase_list))


def _phrase_set(phrase_list) -> set[str]:
    return {normalize_surface(p).strip("()").strip() for p in phrase_list}


def _filter_entry(name: str, phrases: set[str]) -> list[tuple[str, str]]:
    alternatives = []
    def _strip_bracket(match):
        inner = normalize_surface(match.group(1))
        if inner and inner not in phrases:
            alternatives.append(inner)
        return " "

    primary = normalize_surface(_BRACKET_RE.sub(_strip_bracket, name))
    if not primary:
        primary = normalize_surface(name)
        return [(primary, ORIGINAL)] if primary else []

    # first kind wins for a surface the name yields more than once
    kinds = {primary: ORIGINAL}
    for alt in alternatives:
        kinds.setdefault(alt, BRACKET_ALTERNATIVE)
    sides = primary.split(" - ")
    if len(sides) == 2:
        for side in map(str.strip, sides):
            if side:
                kinds.setdefault(side, HYPHEN_SPLIT)
    return list(kinds.items())


def skipgram_variants(name_tokens, category_words) -> set[str]:
    """Generate contraction variants of a tokenized name.

    When the name has three or more tokens and ends in a category word,
    the full name comes back with every subsequence that keeps the first
    and last token and at most MAX_SKIPGRAM_INTERIOR interior tokens:
    all 2^(m-2) subsequences up to m = 6, O(m^3) of them above, as
    Guthrie et al. bound a k-skip-n-gram ("A Closer Look at Skip-gram
    Modelling", LREC 2006). Otherwise only the full name comes back.
    """
    tokens = list(name_tokens)
    m = len(tokens)
    full = " ".join(tokens)
    if m <= 2 or tokens[-1] not in category_words:
        return {full}
    interior = tokens[1:-1]
    variants = {full}
    for k in range(min(len(interior), MAX_SKIPGRAM_INTERIOR) + 1):
        for kept in combinations(interior, k):
            variants.add(" ".join([tokens[0], *kept, tokens[-1]]))
    return variants


def build_gazetteer(entries, stopname_list, phrase_list, category_words) -> Gazetteer:
    """Filter and augment raw entries into a surface -> variant index.

    One pass over the filtered surfaces, after collecting the set of
    surfaces that some entry has as its original name. A hyphen split in
    that set is dropped together with its skip-grams. Every other
    surface is added with its own kind and each of its skip-gram
    variants as a skipgram; a surface produced more than once merges
    the entry ids, and the lowest kind rank wins (original, bracket
    alternative, hyphen split, skipgram). A surface on the stop-name
    list is never added and is reported in stopnames instead. The
    variants come back as a VariantIndex over the sorted surfaces and
    the sorted entry ids.
    """
    stopnames = {normalize_surface(s) for s in stopname_list}
    categories = frozenset(normalize_surface(c) for c in category_words)

    entry_index: dict[str, GazetteerEntry] = {}
    for entry in entries:
        if not entry.canonical_name.strip():
            raise GazetteerFormatError(f"entry {entry.id!r} has an empty name")
        if entry.id in entry_index:
            raise GazetteerFormatError(f"duplicate entry id: {entry.id!r}")
        entry_index[entry.id] = entry

    ids = sorted(entry_index)
    position = {entry_id: i for i, entry_id in enumerate(ids)}
    phrases = _phrase_set(phrase_list)
    filtered = {
        position[entry.id]: _filter_entry(entry.canonical_name, phrases)
        for entry in entry_index.values()
    }
    originals = {surface for surfaces in filtered.values()
                 for surface, kind in surfaces if kind == ORIGINAL}

    # surface -> [kind, positions of its entries]
    merged: dict[str, list] = {}
    removed: set[str] = set()

    def _add(surface, kind, at):
        if surface in stopnames:
            removed.add(surface)
            return
        existing = merged.get(surface)
        if existing is None:
            merged[surface] = [kind, {at}]
            return
        existing[1].add(at)
        if _KIND_RANK[kind] < _KIND_RANK[existing[0]]:
            existing[0] = kind

    for at, surfaces in filtered.items():
        for surface, kind in surfaces:
            if kind == HYPHEN_SPLIT and surface in originals:
                continue
            _add(surface, kind, at)
            for variant in skipgram_variants(surface.split(), categories):
                if variant != surface:
                    _add(variant, SKIPGRAM, at)

    if not merged:
        log.warning("gazetteer is empty after filtering; extraction will "
                    "find nothing")

    surfaces = sorted(merged)
    kinds, entry_indices = [], []
    for surface in surfaces:
        # popping frees each set before the code dict is built
        kind, positions = merged.pop(surface)
        kinds.append(_KIND_CODE[kind])
        entry_indices.append(sorted(positions))
    merged.clear()  # releases the emptied table as well
    return Gazetteer(
        variants=VariantIndex(ids, surfaces, kinds, entry_indices),
        entries=entry_index,
        category_words=categories,
        stopnames=frozenset(removed),
    )
