import json
import random

import pytest

from locspot import (
    GazetteerEntry,
    build_gazetteer,
    filter_entry,
    load_gazetteer,
    skipgram_variants,
)
from locspot.errors import ConfigError, GazetteerFormatError
from locspot.gazetteer import (
    BRACKET_ALTERNATIVE,
    HYPHEN_SPLIT,
    ORIGINAL,
)

from conftest import build_from_names, shipped_dictionaries
from oracles import reference_build_gazetteer


# ---------------------------------------------------------------- loading

def test_generic_json_record(tmp_path):
    path = tmp_path / "gaz.json"
    path.write_text(json.dumps([{"id": "g1", "name": "Cars India - Adyar"}]))
    entries = load_gazetteer(path, "generic_json")
    assert len(entries) == 1
    assert entries[0].canonical_name == "Cars India - Adyar"
    assert entries[0].source == "generic"


def test_empty_json_file(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    assert load_gazetteer(path, "generic_json") == []


GEONAMES_ROWS = (
    "1269843\tChennai\tChennai\tMadras,Chennai\t13.08784\t80.27847\tP\tPPLA\t"
    "IN\t\t25\t\t\t\t4328063\t\t14\tAsia/Kolkata\t2019-09-05\n"
    "4699066\tHouston\tHouston\tHouston City\t29.76328\t-95.36327\tP\tPPLA2\t"
    "US\t\t48\t201\t\t\t2296224\t12\t12\tAmerica/Chicago\t2019-02-27\n"
    "2643743\tLondon\tLondon\t\t51.50853\t-0.12574\tP\tPPLC\t"
    "GB\t\tENG\tGLA\t\t\t7556900\t\t25\tEurope/London\t2019-09-05\n"
)

# frozen expectations, parsed by hand from the three rows above
GEONAMES_EXPECTED = [
    ("geonames:1269843", "Chennai", 13.08784, 80.27847),
    ("geonames:4699066", "Houston", 29.76328, -95.36327),
    ("geonames:2643743", "London", 51.50853, -0.12574),
]


def test_geonames_rows(tmp_path):
    path = tmp_path / "gaz.tsv"
    path.write_text(GEONAMES_ROWS, encoding="utf-8")
    entries = load_gazetteer(path, "geonames_tsv")
    got = [(e.id, e.canonical_name, e.latitude, e.longitude) for e in entries]
    assert got == GEONAMES_EXPECTED
    assert all(e.source == "geonames" for e in entries)


def test_geonames_malformed_row_reports_line(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("1\tA\ta\t\t13.0\t80.0\n2\tB\tb\tnope\n", encoding="utf-8")
    with pytest.raises(GazetteerFormatError) as err:
        load_gazetteer(path, "geonames_tsv")
    assert err.value.record_index == 2


def test_geonames_bad_latitude(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("1\tA\ta\t\tnorth\t80.0\n", encoding="utf-8")
    with pytest.raises(GazetteerFormatError):
        load_gazetteer(path, "geonames_tsv")


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_geonames_non_finite_coordinate_rejected(tmp_path, value):
    path = tmp_path / "bad.tsv"
    path.write_text(f"1\tA\ta\t\t13.0\t80.0\n2\tB\tb\t\t{value}\t80.0\n",
                    encoding="utf-8")
    with pytest.raises(GazetteerFormatError, match="latitude") as err:
        load_gazetteer(path, "geonames_tsv")
    assert err.value.record_index == 2


def test_unknown_format_is_config_error(tmp_path):
    path = tmp_path / "gaz.xml"
    path.write_text("<gazetteer/>")
    with pytest.raises(ConfigError):
        load_gazetteer(path, "xml")


def test_osm_json_and_bbox(tmp_path):
    path = tmp_path / "osm.json"
    path.write_text(json.dumps([
        {"id": 1, "name": "Adyar", "lat": 13.00, "lon": 80.25,
         "tags": {"place": "suburb"}},
        {"id": 2, "name": "Far Away", "lat": 51.5, "lon": -0.1},
        {"id": 3, "name": "No Coords"},
    ]))
    entries = load_gazetteer(path, "osm_json", bbox=(12.8, 80.0, 13.3, 80.4))
    names = [e.canonical_name for e in entries]
    assert names == ["Adyar", "No Coords"]
    assert entries[0].source == "osm"
    assert entries[0].extra["place"] == "suburb"


def test_bad_bbox_rejected(tmp_path):
    path = tmp_path / "osm.json"
    path.write_text("[]")
    with pytest.raises(ConfigError):
        load_gazetteer(path, "osm_json", bbox=(13.3, 80.0, 12.8, 80.4))


@pytest.mark.parametrize("tags", [[1, 2], "ab", [], 7])
def test_osm_json_tags_must_be_an_object(tmp_path, tags):
    path = tmp_path / "osm.json"
    path.write_text(json.dumps([
        {"id": 1, "name": "Adyar", "tags": None},
        {"id": 2, "name": "Besant Nagar", "tags": tags},
    ]))
    with pytest.raises(GazetteerFormatError, match="tags") as err:
        load_gazetteer(path, "osm_json")
    assert err.value.record_index == 1


@pytest.mark.parametrize("coordinates", [
    {"lat": True, "lon": 80.25},
    {"lat": 13.0, "lon": "12"},
    {"lat": float("nan"), "lon": 80.25},
    {"lat": 13.0, "lon": float("inf")},
])
def test_json_coordinates_must_be_finite_numbers(tmp_path, coordinates):
    path = tmp_path / "gaz.json"
    path.write_text(json.dumps([
        {"id": "a", "name": "Adyar", "lat": 13, "lon": 80},
        {"id": "b", "name": "Besant Nagar", **coordinates},
    ]))
    with pytest.raises(GazetteerFormatError, match="lat/lon") as err:
        load_gazetteer(path, "generic_json")
    assert err.value.record_index == 1


def test_malformed_json_record_reports_index(tmp_path):
    path = tmp_path / "gaz.json"
    path.write_text(json.dumps([{"id": "a", "name": "Fine"}, {"id": "b"}]))
    with pytest.raises(GazetteerFormatError) as err:
        load_gazetteer(path, "generic_json")
    assert err.value.record_index == 1


# ---------------------------------------------------------------- filtering

PHRASES = frozenset({"historical", "private road", "closed"})


def test_filter_removes_listed_phrase():
    assert filter_entry("Little Rock School (historical)", PHRASES) == [
        ("little rock school", ORIGINAL),
    ]


def test_filter_keeps_legitimate_alternative():
    assert filter_entry("Scenic Road (Frontage Road)", PHRASES) == [
        ("scenic road", ORIGINAL),
        ("frontage road", BRACKET_ALTERNATIVE),
    ]


def test_filter_splits_spaced_hyphen():
    assert filter_entry("Cars India - Adyar", PHRASES) == [
        ("cars india - adyar", ORIGINAL),
        ("cars india", HYPHEN_SPLIT),
        ("adyar", HYPHEN_SPLIT),
    ]


def test_filter_plain_name_untouched():
    assert filter_entry("Houston", PHRASES) == [("houston", ORIGINAL)]


def test_filter_acronym_alternative():
    surfaces = dict(filter_entry("International House of Pancakes (IHOP)",
                                 PHRASES))
    assert surfaces["international house of pancakes"] == ORIGINAL
    assert surfaces["ihop"] == BRACKET_ALTERNATIVE


def test_filter_intra_word_hyphen_left_alone():
    assert filter_entry("Winston-Salem", PHRASES) == [
        ("winston-salem", ORIGINAL),
    ]


def test_filter_degenerate_name_unchanged():
    assert filter_entry("(historical)", PHRASES) == [("(historical)", ORIGINAL)]


def test_filter_is_idempotent_on_primary():
    names = ["Little Rock School (historical)", "Cars India - Adyar",
             "Scenic Road (Frontage Road)", "Houston", "Winston-Salem"]
    for name in names:
        primary = filter_entry(name, PHRASES)[0][0]
        again = filter_entry(primary, PHRASES)
        assert again[0] == (primary, ORIGINAL)


# ---------------------------------------------------------------- skipgrams

CATEGORIES = frozenset({"school", "road", "street", "park"})


def test_skipgram_balalok():
    variants = skipgram_variants(
        "balalok matriculation higher secondary school".split(), CATEGORIES)
    assert len(variants) == 8  # 2^(5-2)
    assert "balalok school" in variants
    assert "balalok secondary school" in variants
    assert "balalok matriculation higher secondary school" in variants


def test_skipgram_two_tokens_only_full_name():
    assert skipgram_variants(["new", "york"], CATEGORIES) == {"new york"}


def test_skipgram_requires_category_last_token():
    variants = skipgram_variants("city college of new york".split(), CATEGORIES)
    assert variants == {"city college of new york"}
    assert "city york" not in variants


def test_skipgram_count_and_shape():
    rng = random.Random(7)
    pool = ["alpha", "bravo", "delta", "echo", "foxtrot", "golf", "hotel"]
    for _ in range(200):
        m = rng.randint(2, 6)
        tokens = rng.sample(pool, m - 1) + ["road"]
        variants = skipgram_variants(tokens, CATEGORIES)
        assert len(variants) == 2 ** (m - 2)
        for variant in variants:
            words = variant.split()
            assert words[0] == tokens[0] and words[-1] == tokens[-1]
            # subsequence check
            it = iter(tokens)
            assert all(w in it for w in words)


# ---------------------------------------------------------------- building

def test_build_hammond_not_readded(mini_gazetteer):
    variant = mini_gazetteer.variants["hammond"]
    assert variant.entry_ids == {"g15"}
    assert variant.kind == ORIGINAL
    # the hyphenated original itself is still matchable
    assert "pilot - hammond" in mini_gazetteer.variants


def test_build_drops_stopnames(mini_gazetteer):
    assert "boring" not in mini_gazetteer.variants
    assert "boring" in mini_gazetteer.stopnames


def test_build_single_entry():
    gazetteer = build_from_names([("h1", "Houston")])
    assert set(gazetteer.variants) == {"houston"}
    assert gazetteer.variants["houston"].entry_ids == {"h1"}


def test_build_merges_skipgram_collision():
    gazetteer = build_from_names([
        ("a", "Balalok School"),
        ("b", "Balalok Matriculation Higher Secondary School"),
    ])
    variant = gazetteer.variants["balalok school"]
    assert variant.kind == ORIGINAL  # the standalone name wins the kind
    assert variant.entry_ids == {"a", "b"}


def test_build_is_order_independent():
    names = [(f"n{i}", name) for i, name in enumerate([
        "New Avadi Road", "Avadi Road", "Cars India - Adyar", "Adyar",
        "Balalok Matriculation Higher Secondary School", "Hammond",
        "Pilot - Hammond", "Scenic Road (Frontage Road)",
    ])]
    reference = build_from_names(names)
    for seed in range(5):
        shuffled = names[:]
        random.Random(seed).shuffle(shuffled)
        rebuilt = build_from_names(shuffled)
        assert set(rebuilt.variants) == set(reference.variants)
        for surface, variant in reference.variants.items():
            other = rebuilt.variants[surface]
            assert other.entry_ids == variant.entry_ids
            assert other.kind == variant.kind


def test_build_duplicate_id_rejected():
    entries = [GazetteerEntry("x", "A Street"), GazetteerEntry("x", "B Street")]
    with pytest.raises(GazetteerFormatError):
        build_gazetteer(entries, **shipped_dictionaries())


def test_build_empty_result_warns(caplog):
    entries = [GazetteerEntry("x", "Boring")]
    with caplog.at_level("WARNING", logger="locspot.gazetteer"):
        gazetteer = build_gazetteer(entries, **shipped_dictionaries())
    assert not gazetteer.variants
    assert any("empty" in r.message for r in caplog.records)


def test_variant_invariants(mini_gazetteer):
    for surface, variant in mini_gazetteer.variants.items():
        assert surface == variant.surface
        assert surface.strip() == surface and "  " not in surface
        assert surface not in mini_gazetteer.stopnames
        assert variant.entry_ids
        for entry_id in variant.entry_ids:
            assert entry_id in mini_gazetteer.entries


# a few words so that names, hyphen sides, bracket contents and
# skip-grams collide often; some stop-names have skip-grams of their own
_DIFF_WORDS = ["a", "b", "c", "d", "road", "school", "park"]
_DIFF_LISTS = {
    "stopname_list": ["park", "b school", "Tiny  C", "a c road",
                      "b a school", "c d park"],
    "phrase_list": ["closed", "(B Road)"],
    "category_words": ["road", "School", "park"],
}


def _random_diff_name(rng):
    parts = [rng.choice(_DIFF_WORDS) for _ in range(rng.randint(1, 5))]
    if rng.random() < 0.4:
        parts.insert(rng.randint(0, len(parts)), rng.choice(["-", "-", "--"]))
    if rng.random() < 0.3:
        inner = rng.choice(["closed", "b road", "", "a b road", "c", "-"]
                           + parts)
        parts.insert(rng.randint(0, len(parts)), f"({inner})")
    name = rng.choice([" ", "  ", "\t"]).join(parts)
    return name.title() if rng.random() < 0.5 else name


def _variant_table(gazetteer):
    return {surface: (v.kind, v.entry_ids)
            for surface, v in gazetteer.variants.items()}


def test_build_matches_four_pass_reference():
    rng = random.Random(4)
    for _ in range(10000):
        entries = [GazetteerEntry(f"e{i}", _random_diff_name(rng))
                   for i in range(rng.randint(1, 8))]
        if rng.random() < 0.5:  # named as another entry or one side of it
            other = rng.choice(entries).canonical_name
            entries.append(GazetteerEntry(
                "shared", rng.choice(other.split("-")).strip() or other))
        got = build_gazetteer(entries, **_DIFF_LISTS)
        want = reference_build_gazetteer(entries, **_DIFF_LISTS)
        names = [e.canonical_name for e in entries]
        assert _variant_table(got) == _variant_table(want), names
        assert got.stopnames == want.stopnames, names
