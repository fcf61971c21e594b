"""Synthetic throughput and memory run behind acceptance criterion 7.

Generates a reproducible fake region: a gazetteer of the requested
variant count (names built from word pools, many ending in category
words so skip-grams kick in) and a stream of tweets that mix everyday
words, location names, and hashtags. Reports wall-clock extraction
throughput and peak resident memory.
"""

from __future__ import annotations

import random
import resource
import time

from locspot.extractor import ExtractionConfig, LocationExtractor
from locspot.gazetteer import GazetteerEntry, build_gazetteer, skipgram_variants
from locspot.langmodel import compute_model

_SPECIFIC = """
alder baker cedar dalton ellis fairview granite holly iris juniper
keller linden maple norwood oakler pinehill quarry rosedale sutton
tanner union vernon walnut yardley zephyr ashford briarwood calder
dover everly fenwick gable harlow ivydale jasper kenmore langley
merton nolan overton preston quimby redwood stanton thatcher updike
vickers wendell xavier yates zelda arbor bennett carver denholm
""".split()

_GENERIC = """
road street avenue lane drive court park school bridge market
station hospital college temple garden square plaza river lake
heights colony nagar tower building hall library museum
""".split()

_CHATTER = """
the water is rising fast near my place and we are moving to higher
ground please stay safe everyone the rain has not stopped since
morning roads are blocked cars floating power cut since last night
need boats for rescue our area is badly hit volunteers doing great
work god bless them all schools closed tomorrow avoid travel if you
can situation getting worse by the hour
""".split()


def synthetic_gazetteer(variant_target: int, seed: int):
    """Generate entries until their variants reach the target, build once.

    With no stop-names and no bracket phrases, the built variant set is
    exactly the union of the names' skip-gram variants, so generation
    counts that union instead of building the gazetteer to measure it.
    """
    rng = random.Random(seed)
    categories = set(_GENERIC)
    entries: list[GazetteerEntry] = []
    variants: set[str] = set()
    while len(variants) < variant_target:
        tokens = rng.sample(_SPECIFIC, rng.randint(1, 3))
        if rng.random() < 0.8:
            tokens.append(rng.choice(_GENERIC))
        entries.append(GazetteerEntry(
            id=f"bench:{len(entries)}",
            canonical_name=" ".join(t.capitalize() for t in tokens),
            source="generic"))
        variants |= skipgram_variants(tokens, categories)
    gazetteer = build_gazetteer(entries, stopname_list=(), phrase_list=(),
                                category_words=categories)
    return entries, gazetteer


def synthetic_tweets(tweet_count: int, entries, seed: int) -> list[str]:
    rng = random.Random(seed + 1)
    names = [e.canonical_name for e in entries]
    tweets = []
    for _ in range(tweet_count):
        words = rng.choices(_CHATTER, k=rng.randint(6, 14))
        if rng.random() < 0.7:
            where = rng.randrange(len(words))
            words.insert(where, rng.choice(names))
        if rng.random() < 0.3:
            words.append("#" + rng.choice(names).replace(" ", ""))
        if rng.random() < 0.2:
            words.append("http://example.com/" + str(rng.randrange(10 ** 6)))
        tweets.append(" ".join(words))
    return tweets


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_benchmark(tweet_count=10000, variant_target=50000, seed=13,
                  extraction_config=None) -> dict:
    """Build a synthetic region, extract a tweet stream, report numbers."""
    if extraction_config is None:
        extraction_config = ExtractionConfig.load()

    entries, gazetteer = synthetic_gazetteer(variant_target, seed)
    model = compute_model(gazetteer)
    extractor = LocationExtractor(model, gazetteer, extraction_config)
    tweets = synthetic_tweets(tweet_count, entries, seed)

    extracted = 0
    started = time.perf_counter()
    for tweet in tweets:
        extracted += len(extractor.extract(tweet))
    elapsed = time.perf_counter() - started

    return {
        "tweets": tweet_count,
        "variants": len(gazetteer.variants),
        "entries": len(entries),
        "mentions_extracted": extracted,
        "seconds": elapsed,
        "tweets_per_second": tweet_count / elapsed if elapsed > 0 else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
