import random
import time

import pytest

from locspot import clean_tweet, prepare_tweet, split_on_stopwords, tokenize
from locspot.spelling import SymmetricDeleteCorrector
from locspot.textprep import _PUNCT, Token

from oracles import (
    reference_clean_tweet,
    reference_prepare_tweet,
    reference_tokenize,
)


# ---------------------------------------------------------------- cleaning

def test_clean_removes_rt_mention_url():
    cleaned, _ = clean_tweet("RT @user flood in adyar http://t.co/x")
    assert cleaned == "flood in adyar"


def test_clean_keeps_plain_text():
    raw = "water level in Ganapathy Colony is around 2 m"
    cleaned, offset_map = clean_tweet(raw)
    assert cleaned == raw.lower()
    assert offset_map == list(range(len(raw)))


def test_clean_drops_non_ascii():
    cleaned, _ = clean_tweet("flooding… café")
    assert cleaned == "flooding caf"


def test_clean_never_grows_and_maps_uniquely():
    rng = random.Random(3)
    alphabet = "ab #@.:é…xyz/RT "
    for _ in range(300):
        raw = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 40)))
        cleaned, offset_map = clean_tweet(raw)
        assert len(cleaned) <= len(raw)
        assert len(offset_map) == len(cleaned)
        assert offset_map == sorted(set(offset_map))  # strictly increasing


def test_clean_offsets_realign_tokens():
    # oracle: every cleaned token must be findable in the raw text at
    # exactly the mapped position (case-insensitively)
    samples = [
        "RT @who Big flood near Adyar http://x.io/a #ChennaiRains",
        "café closed — stay safe everyone",
        "Water @ Ganapathy Colony is 2m!!",
    ]
    for raw in samples:
        cleaned, offset_map = clean_tweet(raw)
        for token in tokenize(cleaned):
            raw_start = offset_map[token.start]
            raw_end = offset_map[token.end - 1] + 1
            assert raw[raw_start:raw_end].lower() == token.surface


# URL, mention and retweet pieces, every whitespace and control class the
# cleaner treats differently, non-ASCII letters (İ lower-cases to two
# characters) and the token shapes the tokenizer keeps whole
_FUZZ_PIECES = [
    "http://", "https://t.co/", "www.", "HTTP://x", ".com", "/", "@", "@user",
    "@foowww.x.com", "RT", "rt", "xRT", "#", "#chennai", "#RT", ":)", ":-(",
    "<3", "^_^", "xD", "u.s.", "U.S.", "2.5", "1,000", ".", ",", "!!", "-",
    "(", ")", "'", "a", "Adyar", "new", "iberia", "the", "in", "floood",
    " ", "  ", "\t", "\n", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0",
    "\x00", "\x7f", "é", "…", "İ", "_", "😀",
]


def _fuzz_strings(seed, how_many):
    rng = random.Random(seed)
    return ["".join(rng.choice(_FUZZ_PIECES)
                    for _ in range(rng.randint(0, 16)))
            for _ in range(how_many)]


def test_clean_matches_per_character_oracle():
    for raw in _fuzz_strings(11, 5000):
        assert clean_tweet(raw) == reference_clean_tweet(raw), repr(raw)


def test_clean_blanks_overlapping_mention_and_url():
    # the mention ends inside the URL; both spans are blanked
    assert clean_tweet("hi @foowww.x.com there")[0] == "hi there"


def test_clean_keeps_non_whitespace_controls():
    cleaned, offset_map = clean_tweet("a\x00b \x1fc\x7f")
    assert cleaned == "a\x00b c\x7f"
    assert offset_map == [0, 1, 2, 4, 5, 6]


def test_clean_many_mentions_in_linear_time():
    raw = "@a " * 350_000  # about 1 MB, every word a mention
    started = time.perf_counter()
    assert clean_tweet(raw) == ("", [])
    assert time.perf_counter() - started < 5


# ------------------------------------------------------------- tokenizing

def test_tokenize_table5_louisiana_fragment():
    tokens = [t.surface for t in tokenize("in new iberia. #prayforlouisiana")]
    assert tokens == ["in", "new", "iberia", ".", "#prayforlouisiana"]


def test_tokenize_keeps_acronym_periods():
    assert [t.surface for t in tokenize("u.s. aid")] == ["u.s.", "aid"]


def test_tokenize_empty():
    assert tokenize("") == []


def test_tokenize_splits_missing_space_after_period():
    tokens = [t.surface for t in tokenize("oxford school.west mambalam..")]
    assert tokens == ["oxford", "school", ".", "west", "mambalam", ".."]


def test_tokenize_offsets_address_source():
    cleaned = "in new iberia. #prayforlouisiana :)"
    for token in tokenize(cleaned):
        assert cleaned[token.start:token.end] == token.surface


def test_tokenize_emoticons_and_hashtags_single_tokens():
    tokens = [t.surface for t in tokenize("so sad :( #chennai #rains2015 :-)")]
    assert tokens == ["so", "sad", ":(", "#chennai", "#rains2015", ":-)"]


def test_tokenize_long_hashtag_chain():
    tokens = tokenize("adyar " + "#a" * 1200 + ":)")
    assert tokens[0] == Token("adyar", 0, 5)
    assert [t.surface for t in tokens[1:]] == ["#a"] * 1200 + [":)"]
    assert all(t.end - t.start == len(t.surface) for t in tokens)
    assert tokens[-1] == Token(":)", 2406, 2408)


def test_tokenize_numbers_stay_whole():
    tokens = [t.surface for t in tokenize("depth 2.5 m, rose 1,000 mm")]
    assert tokens == ["depth", "2.5", "m", ",", "rose", "1,000", "mm"]


@pytest.mark.parametrize("chunk, surfaces", [
    ("#a#b", ["#a", "#b"]),
    ("##a", ["##", "a"]),
    ("a#b", ["a#b"]),
    ("#a8)", ["#a8", ")"]),
    ("(#a", ["(#", "a"]),
    ("u.s.a.!", ["u.s.a.", "!"]),
    ("u.s..", ["u.s.", "."]),
    ("..u.s.", ["..", "u.s."]),
    ("x..u.s.", ["x", "..", "u", ".", "s", "."]),
    ("1,000.5.", ["1,000.5", "."]),
    ("ab:-)x", ["ab", ":", "-)x"]),
    ("adyar:)", ["adyar", ":)"]),
])
def test_tokenize_chunk_edge_cases(chunk, surfaces):
    assert [t.surface for t in tokenize(chunk)] == surfaces


# hashtag, emoticon, acronym and number shapes and their fragments, every
# punctuation mark, letters and digits; concatenated, they make chunks
# that sit on the boundaries between the grammar's branches
_CHUNK_FUZZ_PIECES = [
    "#", "#a", "##", ":)", ":-(", "(-:", "<3", "^_^", "xd", ":p", "8", "x",
    "d", "p", "o", "3", "0", ")", "(", "<", ">", "u.", "s.", "u.s.a",
    "1,000", "2.5", "12:30", "a", "b", "z", "1", "7", *_PUNCT,
]


def _chunk_strings(seed, how_many):
    rng = random.Random(seed)
    return [" ".join("".join(rng.choice(_CHUNK_FUZZ_PIECES)
                             for _ in range(rng.randint(1, 5)))
                     for _ in range(rng.randint(1, 3)))
            for _ in range(how_many)]


def test_tokenize_matches_chunk_oracle():
    texts = _chunk_strings(13, 60_000)
    texts += [clean_tweet(raw)[0] for raw in _fuzz_strings(14, 40_000)]
    for text in texts:
        assert tokenize(text) == reference_tokenize(text), repr(text)


@pytest.mark.parametrize("chunk", [
    "a" + "!" * 100_000 + "a",
    "(" * 100_000 + "a" + ")" * 100_000,
    "a." * 100_000 + "ab",
    ":" + ")" * 100_000 + "a",
], ids=["bang_run", "brackets", "acronym_run", "emoticon_run"])
def test_tokenize_adversarial_chunks_in_linear_time(chunk):
    started = time.perf_counter()
    tokens = tokenize(chunk)
    assert time.perf_counter() - started < 2
    assert tokens == reference_tokenize(chunk)


def test_tokenize_hashtag_properties():
    rng = random.Random(5)
    bodies = ["".join(rng.choice("abcz123") for _ in range(rng.randint(1, 12)))
              for _ in range(200)]
    for body in bodies:
        for token in tokenize(f"before #{body} after"):
            if token.surface.startswith("#"):
                assert " " not in token.surface
                assert token.surface == f"#{body}"


# ---------------------------------------------------------------- splitting

def _as_tokens(words):
    tokens = []
    pos = 0
    for w in words:
        tokens.append(Token(w, pos, pos + len(w)))
        pos += len(w) + 1
    return tokens


def test_split_example():
    tokens = _as_tokens(
        ["water", "level", "in", "ganapathy", "colony", "is", "around",
         "2", "m"])
    fragments = split_on_stopwords(tokens, {"in", "is", "around"})
    assert [[t.surface for t in f] for f in fragments] == [
        ["water", "level"], ["ganapathy", "colony"], ["2", "m"]]


def test_split_all_stopwords():
    tokens = _as_tokens(["is", "in", "at"])
    assert split_on_stopwords(tokens, {"is", "in", "at"}) == []


def test_split_reinsertion_roundtrip():
    rng = random.Random(9)
    vocabulary = ["a", "b", "c", "stop1", "stop2", "word"]
    stops = {"stop1", "stop2"}
    for _ in range(200):
        words = [rng.choice(vocabulary) for _ in range(rng.randint(0, 12))]
        tokens = _as_tokens(words)
        fragments = split_on_stopwords(tokens, stops)
        flattened = [t for fragment in fragments for t in fragment]
        assert flattened == [t for t in tokens if t.surface not in stops]
        for fragment in fragments:
            assert all(t.surface not in stops for t in fragment)


def test_split_gazetteer_unigrams_never_split(mini_extractor):
    # "new" is a gazetteer unigram, so the effective stop list loses it
    assert "new" not in mini_extractor.stopwords
    assert "where" in mini_extractor.stopwords


# ------------------------------------------------------------ preparation

def test_prepare_tweet_document(mini_extractor):
    raw = "We r lucky where I am in New Iberia. #PrayForLouisiana #lawx"
    doc = prepare_tweet(raw, mini_extractor.stopwords,
                        mini_extractor.segmenter)
    for token in doc.tokens:
        assert raw[token.start:token.end].lower() == token.surface
    hashtag_indices = [i for i, t in enumerate(doc.tokens)
                       if t.surface.startswith("#")]
    assert set(doc.hashtag_expansions) == set(hashtag_indices)
    words = [t.surface for f in doc.splits for t in f]
    assert "louisiana" in words and "law" in words
    for fragment in doc.splits:
        for token in fragment:
            assert token.surface not in mini_extractor.stopwords


def test_prepare_matches_staged_oracle(mini_extractor):
    corrector = SymmetricDeleteCorrector({"flood", "adyar", "iberia", "new"})
    stages = [(mini_extractor.segmenter, None),
              (mini_extractor.segmenter, corrector), (None, corrector)]
    for raw in _fuzz_strings(12, 5000):
        for segmenter, speller in stages:
            doc = prepare_tweet(raw, mini_extractor.stopwords, segmenter,
                                speller)
            tokens, splits = reference_prepare_tweet(
                raw, mini_extractor.stopwords, segmenter, speller)
            assert (doc.tokens, doc.splits) == (tokens, splits), repr(raw)


def test_prepare_is_deterministic(mini_extractor):
    raw = "Flooding near Cars India - Adyar!! #chennai café"
    first = prepare_tweet(raw, mini_extractor.stopwords,
                          mini_extractor.segmenter)
    second = prepare_tweet(raw, mini_extractor.stopwords,
                           mini_extractor.segmenter)
    assert first == second
