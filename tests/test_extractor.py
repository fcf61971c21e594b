import random
import time

from locspot import (
    AbbreviationDictionary,
    ExtractionConfig,
    ExtractionStats,
    GazetteerEntry,
    LocationExtractor,
    SegmenterDictionary,
    build_gazetteer,
    compute_model,
    expand_token,
    find_valid_ngrams,
    load_cache,
    resolve_overlaps,
    save_cache,
    valid_ngram,
)
from locspot import extractor as extractor_module
from locspot.cli import MAX_TEXT_CHARS
from locspot.extractor import Candidate
from locspot.gazetteer import PREFIX, VARIANT
from locspot.textprep import Token

from conftest import build_from_names, shipped_dictionaries
from oracles import (
    CATEGORY_POOL,
    WORD_POOL,
    enumerate_candidates,
    random_names,
    random_tweet,
    reference_build_gazetteer,
    reference_find_valid_ngrams,
    reference_prefixes,
    reference_resolve_overlaps,
)
from synthetic import synthetic_gazetteer

SUFFIXES = AbbreviationDictionary({"rd": {"road"}, "road": {"rd"},
                                   "ave": {"avenue"}, "avenue": {"ave"},
                                   "st": {"street", "saint"},
                                   "street": {"st"}, "saint": {"st"}})
OSM = AbbreviationDictionary({"n": {"north"}, "north": {"n"},
                              "w": {"west"}, "west": {"w"}})


def vectors_for(words, suffixes=SUFFIXES, osm=OSM):
    return [expand_token(w, suffixes, osm) for w in words]


def plain_tokens(words):
    tokens = []
    pos = 0
    for w in words:
        tokens.append(Token(w, pos, pos + len(w)))
        pos += len(w) + 1
    return tokens


# ---------------------------------------------------------------- vectors

def test_expand_token_both_directions():
    assert expand_token("rd", SUFFIXES, OSM).alternatives == ("rd", "road")
    assert expand_token("road", SUFFIXES, OSM).alternatives == ("road", "rd")


def test_expand_token_identity():
    vector = expand_token("ganapathy", SUFFIXES, OSM)
    assert vector.alternatives == ("ganapathy",)
    assert vector.original == "ganapathy"


def test_expand_token_multiple_images():
    assert set(expand_token("st", SUFFIXES, OSM).alternatives) == {
        "st", "street", "saint"}


# ------------------------------------------------------------- tree search

def test_find_valid_ngrams_texas_ave():
    gazetteer = build_from_names(
        [("t1", "Texas"), ("t2", "Ave"), ("t3", "Texas Ave")])
    model = compute_model(gazetteer)
    candidates = find_valid_ngrams(
        vectors_for(["texas", "ave"]), model, gazetteer)
    assert {(c.start, c.end, c.surface) for c in candidates} == {
        (0, 1, "texas"), (1, 2, "ave"), (0, 2, "texas ave")}


def test_find_valid_ngrams_avadi(mini_model, mini_gazetteer):
    candidates = find_valid_ngrams(
        vectors_for(["new", "avadi", "road"]), mini_model, mini_gazetteer)
    surfaces = {c.surface for c in candidates}
    assert "new avadi road" in surfaces
    assert "avadi road" in surfaces


def test_find_valid_ngrams_oov_fragment(mini_model, mini_gazetteer):
    candidates = find_valid_ngrams(
        vectors_for(["zzz", "qqq"]), mini_model, mini_gazetteer)
    assert candidates == set()


def test_find_valid_ngrams_uses_expansions(mini_model, mini_gazetteer):
    candidates = find_valid_ngrams(
        vectors_for(["avadi", "rd"]), mini_model, mini_gazetteer)
    assert {c.surface for c in candidates} == {"avadi road"}


def test_find_valid_ngrams_ignores_spaced_expansion(mini_model,
                                                    mini_gazetteer):
    # an expansion holding a space is never a vocabulary token, so it
    # cannot match the variant it spells out
    osm = AbbreviationDictionary({"ar": {"avadi road"}})
    candidates = find_valid_ngrams(
        vectors_for(["ar"], SUFFIXES, osm), mini_model, mini_gazetteer)
    assert candidates == set()


# ---------------------------------------------------------- overlap rules

def test_resolve_prefers_longest(mini_gazetteer):
    tokens = plain_tokens(["new", "avadi", "road"])
    candidates = {Candidate(0, 3, "new avadi road"),
                  Candidate(1, 3, "avadi road")}
    mentions = resolve_overlaps(candidates, mini_gazetteer, tokens,
                                "new avadi road")
    assert [m.matched_name for m in mentions] == ["new avadi road"]


def test_resolve_keeps_equal_length_overlaps():
    gazetteer = build_from_names([("a", "Alpha Park"), ("b", "Park Lane")])
    tokens = plain_tokens(["alpha", "park", "lane"])
    candidates = {Candidate(0, 2, "alpha park"), Candidate(1, 3, "park lane")}
    mentions = resolve_overlaps(candidates, gazetteer, tokens,
                                "alpha park lane")
    assert [m.matched_name for m in mentions] == ["alpha park", "park lane"]


def test_resolve_single_candidate(mini_gazetteer):
    tokens = plain_tokens(["houston"])
    mentions = resolve_overlaps({Candidate(0, 1, "houston")},
                                mini_gazetteer, tokens, "houston")
    assert len(mentions) == 1
    assert mentions[0].entry_ids == ("g5",)


def test_resolve_full_name_inside_partial_context(mini_extractor):
    # "The Louisiana" is a valid-looking longer span but not a variant,
    # so only the contained full name comes out.
    gazetteer = build_from_names(
        [("l1", "Louisiana"), ("l2", "The Louisiana Theatre")])
    model = compute_model(gazetteer)
    pipeline = LocationExtractor(model, gazetteer, mini_extractor.config)
    mentions = pipeline.extract("stuck in The Louisiana right now")
    assert [m.matched_name for m in mentions] == ["louisiana"]
    surface = mentions[0]
    assert surface.surface == "Louisiana"


# ------------------------------------------------------------ full pipeline

TABLE5 = [
    ("sou th kr koil street near Oxford school.west mambalam..",
     [("Oxford school", "oxford school", False),
      ("west mambalam", "west mambalam", False)]),
    ("We r lucky where I am in New Iberia. #PrayForLouisiana #lawx",
     [("New Iberia", "new iberia", False),
      ("louisiana", "louisiana", True)]),
    ("Didn't Houston have a bad flood last year now again poor htown",
     [("Houston", "houston", False)]),
]


def test_table5_golden_rows(mini_extractor):
    for raw, expected in TABLE5:
        mentions = mini_extractor.extract(raw)
        got = [(m.surface, m.matched_name, m.from_hashtag) for m in mentions]
        assert got == expected, raw


def test_table5_exact_spans(mini_extractor):
    raw = "We r lucky where I am in New Iberia. #PrayForLouisiana #lawx"
    mentions = mini_extractor.extract(raw)
    iberia, louisiana = mentions
    assert (iberia.char_start, iberia.char_end) == (
        raw.index("New Iberia"), raw.index("New Iberia") + len("New Iberia"))
    assert (louisiana.char_start, louisiana.char_end) == (
        raw.index("#PrayForLouisiana"),
        raw.index("#PrayForLouisiana") + len("#PrayForLouisiana"))
    assert louisiana.from_hashtag


def test_abbreviation_match_reports_original_span(mini_extractor):
    raw = "accident on avadi rd this morning"
    mentions = mini_extractor.extract(raw)
    assert len(mentions) == 1
    mention = mentions[0]
    assert mention.matched_name == "avadi road"
    assert raw[mention.char_start:mention.char_end] == "avadi rd"


def test_prepared_tokens_carry_their_alternatives(
        mini_model, mini_gazetteer, extraction_config):
    import dataclasses

    suffixes = extraction_config.suffix_dict
    osm = extraction_config.osm_abbrev_dict
    spelling = dataclasses.replace(extraction_config, spelling_correction=True)
    raws = [raw for raw, _ in TABLE5] + [
        "accident on avadi rd this morning", "flooding near avadi raod"]
    for config in (extraction_config, spelling):
        pipeline = LocationExtractor(mini_model, mini_gazetteer, config)
        for raw in raws:
            for token in (t for f in pipeline.prepare(raw) for t in f):
                assert token.alternatives == expand_token(
                    token.surface, suffixes, osm).alternatives, raw
    # looked up after correction: "raod" becomes "road", which has "rd"
    corrected = pipeline.prepare("avadi raod")[0][1]
    assert (corrected.surface, corrected.alternatives) == ("road", ("road", "rd"))


def test_extract_builds_no_synonym_vector(mini_extractor, monkeypatch):
    built = []

    class CountedVector(extractor_module.TokenSynonymVector):
        def __init__(self, *args, **kwargs):
            built.append(args or kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(extractor_module, "TokenSynonymVector", CountedVector)
    for raw, expected in TABLE5:
        mentions = mini_extractor.extract(raw)
        got = [(m.surface, m.matched_name, m.from_hashtag) for m in mentions]
        assert got == expected, raw
    assert built == []


def test_extract_malformed_inputs(mini_model, mini_gazetteer,
                                  extraction_config):
    pipeline = LocationExtractor(mini_model, mini_gazetteer,
                                 extraction_config)
    assert pipeline.extract(None) == []
    assert pipeline.extract("") == []
    assert pipeline.extract("\x00\x01\x02") == []


def test_extract_follows_config_changes(mini_model, mini_gazetteer,
                                        extraction_config):
    import dataclasses

    config = dataclasses.replace(extraction_config)
    raw = "flooding near new avadi rd"
    mentions = LocationExtractor(mini_model, mini_gazetteer, config).extract(raw)
    assert [m.matched_name for m in mentions] == ["new avadi road"]
    config.spelling_correction = True  # "rd" is now corrected away
    pipeline = LocationExtractor(mini_model, mini_gazetteer, config)
    assert pipeline.extract(raw) == []


def test_extract_is_deterministic(mini_extractor):
    raw = TABLE5[1][0]
    assert mini_extractor.extract(raw) == mini_extractor.extract(raw)


def test_mentions_ordered_by_char_start(mini_extractor):
    raw = "from Houston to New Iberia and back to Houston"
    starts = [m.char_start for m in mini_extractor.extract(raw)]
    assert starts == sorted(starts)


def test_linking_totality_and_soundness(mini_extractor, mini_gazetteer,
                                        mini_model):
    rng = random.Random(23)
    for _ in range(100):
        raw = random_tweet(rng, mini_gazetteer)
        for mention in mini_extractor.extract(raw):
            variant = mini_gazetteer.variants[mention.matched_name]
            assert set(mention.entry_ids) == variant.entry_ids
            assert mention.entry_ids
            assert valid_ngram(mini_model, mention.matched_name)
            assert 0 <= mention.char_start < mention.char_end <= len(raw)


def test_no_forbidden_overlaps(mini_extractor, mini_gazetteer):
    rng = random.Random(29)
    for _ in range(200):
        raw = random_tweet(rng, mini_gazetteer)
        mentions = mini_extractor.extract(raw)
        for a in mentions:
            for b in mentions:
                if a is b:
                    continue
                if a.char_start < b.char_end and b.char_start < a.char_end:
                    len_a = len(a.matched_name.split())
                    len_b = len(b.matched_name.split())
                    assert len_a == len_b, (raw, a, b)


def test_candidate_bound_instrumentation(mini_extractor):
    stats = ExtractionStats()
    for raw, _ in TABLE5:
        mini_extractor.extract(raw, stats)
    assert stats.max_vector_len <= 4
    assert stats.max_combos() <= 4 ** 3


def test_fragments_are_hard_boundaries(mini_extractor):
    # a stop word between two name tokens blocks gluing across it
    mentions = mini_extractor.extract("new in iberia")
    assert all(m.matched_name != "new iberia" for m in mentions)


def test_spelling_correction_recovers_typo(mini_model, mini_gazetteer,
                                           extraction_config):
    import dataclasses

    from locspot import LocationExtractor

    config = dataclasses.replace(extraction_config, spelling_correction=True)
    pipeline = LocationExtractor(mini_model, mini_gazetteer, config)
    raw = "flooding near houstonn tonight"
    mentions = pipeline.extract(raw)
    assert [m.matched_name for m in mentions] == ["houston"]
    # offsets still point at the misspelled original
    assert raw[mentions[0].char_start:mentions[0].char_end] == "houstonn"


def test_spelling_ranks_by_true_segmenter_counts():
    config = ExtractionConfig(
        suffix_dict=AbbreviationDictionary({}),
        osm_abbrev_dict=AbbreviationDictionary({}),
        stopwords=frozenset(),
        segmenter=SegmenterDictionary({"aab": 13, "aac": 14, "zzz": 12345}),
        spelling_words=frozenset({"aab", "aac"}),
        spelling_correction=True,
    )
    gazetteer = build_from_names([("h", "Houston")])
    pipeline = LocationExtractor(compute_model(gazetteer), gazetteer, config)
    # both are one edit away; aac is the more frequent word
    assert pipeline.corrector.correct("aax") == "aac"


def test_spelling_off_by_default(mini_extractor):
    assert mini_extractor.corrector is None
    assert mini_extractor.extract("flooding near houstonn tonight") == []


# ------------------------------------------------------------- oracle sweep

def test_candidates_match_exhaustive_enumeration(extraction_config):
    rng = random.Random(31)
    suffixes = extraction_config.suffix_dict
    osm = extraction_config.osm_abbrev_dict
    for round_index in range(200):
        names = random_names(rng, rng.randint(1, 20))
        gazetteer = build_from_names(
            [(f"o{round_index}.{i}", n) for i, n in enumerate(names)])
        if not gazetteer.variants:
            continue
        model = compute_model(gazetteer)
        words = random_tweet(rng, gazetteer).split()
        vectors = [expand_token(w, suffixes, osm) for w in words]
        got = {(c.start, c.end, c.surface)
               for c in find_valid_ngrams(vectors, model, gazetteer)}
        expected = enumerate_candidates(vectors, set(gazetteer.variants))
        assert got == expected, (names, words)


# ------------------------------------------------ former hot path, seeded

def _differential_entries(rng):
    """Random names plus the shapes the variant index must get right.

    Some names are a proper token prefix of another name, some repeat a
    token, and some are shared by several entries, whose ids do not sort
    in numeric order.
    """
    names = random_names(rng, rng.randint(1, 12))
    for _ in range(rng.randint(1, 4)):
        head = " ".join(rng.sample(WORD_POOL, rng.randint(1, 3)))
        names += [head, f"{head} {rng.choice(CATEGORY_POOL)}"]
    for _ in range(rng.randint(0, 2)):
        word = rng.choice(WORD_POOL)
        names.append(f"{word} {word} {rng.choice(CATEGORY_POOL)}")
    names += [rng.choice(names) for _ in range(rng.randint(0, 6))]
    ids = rng.sample(range(1000), len(names))
    return [GazetteerEntry(f"e{i}", name) for i, name in zip(ids, names)]


def _differential_words(rng, vocabulary):
    """A fragment drawn with replacement, so tokens repeat, plus the
    shipped abbreviations of the category words and some noise."""
    pool = sorted(vocabulary) + ["rd", "st", "ave", "blvd", "zzyzx"]
    words = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
    if rng.random() < 0.3:
        at = rng.randrange(len(words))
        words.insert(at, words[at])
    return words


def test_hot_path_matches_former_two_probe_version(extraction_config,
                                                  tmp_path):
    rng = random.Random(41)
    suffixes = extraction_config.suffix_dict
    osm = extraction_config.osm_abbrev_dict
    shapes = dict.fromkeys(["prefix variant", "shared", "synonym", "repeat",
                            "several entries"], 0)
    for round_index in range(300):
        entries = _differential_entries(rng)
        gazetteer = build_gazetteer(entries, **shipped_dictionaries())
        if not gazetteer.variants:
            continue
        if round_index % 10 == 0:
            save_cache(tmp_path / "model.lspc", gazetteer, None)
            gazetteer, model = load_cache(tmp_path / "model.lspc")
        else:
            model = compute_model(gazetteer)
        former = reference_build_gazetteer(entries, **shipped_dictionaries())
        former_model = compute_model(former)
        shapes["prefix variant"] += bool(
            set(former.variants) & reference_prefixes(former.variants))
        shapes["shared"] += any(
            len(v.entry_ids) > 1 for v in former.variants.values())

        for _ in range(10):
            words = _differential_words(rng, former_model.vocabulary)
            vectors = [expand_token(w, suffixes, osm) for w in words]
            shapes["synonym"] += any(len(v.alternatives) > 1
                                     for v in vectors)
            shapes["repeat"] += len(set(words)) < len(words)
            stats, former_stats = ExtractionStats(), ExtractionStats()
            got = find_valid_ngrams(vectors, model, gazetteer, stats)
            want = reference_find_valid_ngrams(
                vectors, former_model, former, former_stats)
            assert got == want, words
            assert stats == former_stats, words

            tokens = plain_tokens(words)
            raw = " ".join(words)
            mentions = resolve_overlaps(got, gazetteer, tokens, raw)
            assert mentions == reference_resolve_overlaps(
                want, former, tokens, raw)
            shapes["several entries"] += any(len(m.entry_ids) > 1
                                             for m in mentions)
    assert min(shapes.values()) >= 50, shapes


def test_back_to_back_variants_extract_in_bounded_time():
    # one fragment of thousands of overlapping candidates, under the
    # length cap: pairwise overlap tests took about 6 s on such a line
    _, gazetteer = synthetic_gazetteer(8000, seed=5)
    pipeline = LocationExtractor(compute_model(gazetteer), gazetteer,
                                 ExtractionConfig.load())
    line = ""
    for surface in sorted(gazetteer.variants):
        if len(line) + len(surface) + 1 > MAX_TEXT_CHARS:
            break
        line += surface + " "
    assert len(pipeline.prepare(line)) == 1
    started = time.perf_counter()
    mentions = pipeline.extract(line)
    assert time.perf_counter() - started < 2
    assert len(mentions) > 4000


def test_index_flags_equal_membership():
    rng = random.Random(43)
    for _ in range(300):
        entries = _differential_entries(rng)
        gazetteer = build_gazetteer(entries, **shipped_dictionaries())
        former = reference_build_gazetteer(entries, **shipped_dictionaries())
        if not former.variants:
            continue
        variants = set(former.variants)
        prefixes = reference_prefixes(former.variants)
        index = gazetteer.variants
        assert set(index.codes) == variants | prefixes
        for surface, code in index.codes.items():
            assert bool(code & VARIANT) == (surface in variants), surface
            assert bool(code & PREFIX) == (surface in prefixes), surface
            if code & VARIANT:
                assert index.surfaces[code >> 2] == surface
