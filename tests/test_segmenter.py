import random
import time
import tracemalloc

import pytest

from locspot import SegmenterDictionary, segment_hashtag
from locspot.assets import ENGLISH_UNIGRAMS, data_path

from oracles import reference_segment


@pytest.fixture(scope="module")
def shipped():
    return SegmenterDictionary.from_file(data_path(ENGLISH_UNIGRAMS))


def test_pray_for_louisiana(shipped):
    assert segment_hashtag("#PrayForLouisiana", shipped) == [
        "pray", "for", "louisiana"]


def test_lawx_prefers_law_x(shipped):
    assert segment_hashtag("#lawx", shipped) == ["law", "x"]


def test_single_word_dominates(shipped):
    assert segment_hashtag("#houston", shipped) == ["houston"]


def test_empty_body(shipped):
    assert segment_hashtag("#", shipped) == []


def test_not_a_hashtag_rejected(shipped):
    with pytest.raises(ValueError):
        segment_hashtag("plain", shipped)


def test_segmentation_is_lossless(shipped):
    rng = random.Random(21)
    alphabet = "abcdefghijklmnopqrstuvwxyz0123456789_"
    for _ in range(1000):
        body = "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(1, 24)))
        words = segment_hashtag("#" + body, shipped)
        assert "".join(words) == body


def test_unknown_blob_stays_whole(shipped):
    # one unknown word beats two unknown halves (fewer penalty factors)
    assert segment_hashtag("#zzqxxjvzz", shipped) == ["zzqxxjvzz"]


def test_unknown_penalty_decreases_with_length(shipped):
    penalties = [shipped.log_probability("q" * n) for n in range(1, 12)]
    assert penalties == sorted(penalties, reverse=True)


def test_merge_words_makes_new_vocabulary_segmentable(shipped):
    merged = shipped.merge_words({"mambalam"})
    assert merged.segment("westmambalam") == ["west", "mambalam"]
    # merged words land at the configured rank's probability
    assert merged.word_probabilities["mambalam"] > 0


def test_probabilities_are_normalized(shipped):
    assert sum(shipped.word_probabilities.values()) == pytest.approx(1.0)


@pytest.mark.parametrize("count", [0, -3])
def test_non_positive_count_rejected(count):
    with pytest.raises(ValueError):
        SegmenterDictionary({"the": 5, "road": count})


def _random_dictionary(rng, kind):
    alphabet = rng.choice(["ab", "abc", "abcdef", "abcdefghij_0"])
    words = {"".join(rng.choice(alphabet) for _ in range(rng.randint(1, 5)))
             for _ in range(rng.randint(1, 10))}
    if kind == "long_words":
        words.add("".join(rng.choice(alphabet)
                          for _ in range(rng.randint(6, 20))))
    if kind == "one_letter_count_1":
        words |= set(rng.sample(alphabet, rng.randint(1, len(alphabet))))
        return {w: 1 if len(w) == 1 else rng.randint(1, 50) for w in words}
    if kind == "equal_counts":
        count = rng.randint(1, 1000)
        return {w: count for w in words}
    if kind == "mass_at_most_10":
        # log10(10 / mass) >= 0: splitting unknown runs costs nothing
        counts = {w: 1 for w in sorted(words)[:10]}
        for _ in range(rng.randint(0, 10 - len(counts))):
            counts[rng.choice(sorted(counts))] += 1
        return counts
    return {w: rng.randint(1, 10 ** rng.randint(1, 9)) for w in words}


def _random_text(rng, words):
    longest = max(map(len, words))
    alphabet = sorted(set("".join(words)) | set("qxz09_"))
    kind = rng.randrange(4)
    if kind == 0:
        return "".join(rng.choice(words) for _ in range(rng.randint(2, 4)))
    if kind == 1:  # an unknown run longer than the longest known word
        run = "".join(rng.choice("qxz09_")
                      for _ in range(rng.randint(longest + 1, longest + 5)))
        return rng.choice(words) + run + rng.choice(words)
    if kind == 2:
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 1)))
    return "".join(
        rng.choice(words) if rng.random() < 0.6
        else "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
        for _ in range(rng.randint(1, 5)))


def test_matches_reference_segment(shipped):
    rng = random.Random(77)
    dictionaries = [shipped, shipped.merge_words({"mambalam", "chennai"})]
    kinds = ["one_letter_count_1", "equal_counts", "mass_at_most_10",
             "long_words", "random_counts"]
    dictionaries += [SegmenterDictionary(_random_dictionary(rng, kind))
                     for _ in range(500) for kind in kinds]
    cases = 0
    for dictionary in dictionaries:
        words = sorted(dictionary.counts)
        for _ in range(1000 if len(words) > 100 else 20):
            text = _random_text(rng, words)
            assert dictionary.segment(text) == list(
                reference_segment(dictionary, text)), (dictionary.counts, text)
            cases += 1
    assert cases >= 50000


@pytest.mark.parametrize("counts, text", [
    ({"d": 1, "bb": 848}, "dbbbdd"),
    ({"a": 1, "d": 1, "c": 1, "e": 1, "dafc": 28, "dfb": 28, "ece": 28,
      "dd": 28}, "edddaefb"),
])
def test_known_letter_keeps_its_known_score(counts, text):
    # log10(10 / total) - 1 rounds above log10(1 / total) here; scoring a
    # count-1 letter as unknown would flip a later rounding tie
    dictionary = SegmenterDictionary(counts)
    assert dictionary.segment(text) == list(
        reference_segment(dictionary, text))


def test_segment_long_body_in_linear_time(shipped):
    # the former quadratic program needs minutes at this length
    rng = random.Random(9)
    vocabulary = sorted(shipped.counts)
    body = "".join(rng.choice(vocabulary) if rng.random() < 0.7
                   else "qxz09_" * rng.randint(1, 30)
                   for _ in range(2000))[:20000]
    assert len(body) == 20000
    started = time.perf_counter()
    words = segment_hashtag("#" + body, shipped)
    assert time.perf_counter() - started < 2
    assert "".join(words) == body


def test_memo_keeps_no_long_body():
    # the memo is bounded in entries; keeping only short bodies bounds its
    # bytes too, where these 200 long bodies would hold about 0.9 MB
    counts = {"pray": 5, "for": 9, "houston": 3, "rain": 4}
    rng = random.Random(13)
    bodies = ["".join(rng.choice(("Pray", "For", "Houston", "Rain", "x"))
                      for _ in range(90))[:300] for _ in range(200)]
    expected = [SegmenterDictionary(counts).segment(b) for b in bodies]
    dictionary = SegmenterDictionary(counts)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for body, words in zip(bodies, expected):
            assert dictionary.segment(body) == words
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 100_000, held
    assert all("".join(words) == body.lower()
               for body, words in zip(bodies, expected))
