"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line so a plain `pytest -s
tests/test_acceptance.py` reads as a checklist. Run order follows the
criterion numbering.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from locspot import (
    SegmenterDictionary,
    aggregate,
    compute_model,
    expand_token,
    find_valid_ngrams,
    match_spans,
    segment_hashtag,
    sequence_probability,
    skipgram_variants,
    valid_ngram,
)
from locspot.assets import ENGLISH_UNIGRAMS, data_path
from locspot.evaluation import GoldAnnotation

from conftest import build_from_names
from oracles import (
    brute_force_probability,
    enumerate_candidates,
    random_names,
    random_tweet,
)
from synthetic import run_benchmark

DATA = Path(__file__).parent / "data"


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


# ---------------------------------------------------------------- 1

TABLE5_EXPECTED = {
    "sou th kr koil street near Oxford school.west mambalam..": [
        ("Oxford school", False), ("west mambalam", False)],
    "We r lucky where I am in New Iberia. #PrayForLouisiana #lawx": [
        ("New Iberia", False), ("#PrayForLouisiana", True)],
    "Didn't Houston have a bad flood last year now again poor htown": [
        ("Houston", False)],
}


def test_criterion_1_table5_golden(mini_extractor):
    with criterion(1, "Table-5 tweets yield exactly the expected "
                      "extractions, exact spans, < 1 s"):
        started = time.perf_counter()
        for raw, expected in TABLE5_EXPECTED.items():
            mentions = mini_extractor.extract(raw)
            spans = [(raw[m.char_start:m.char_end], m.from_hashtag)
                     for m in mentions]
            assert spans == expected, raw
            # the specific misses called out alongside the expected hits
            matched = {m.matched_name for m in mentions}
            assert "la" not in matched
            assert not any("htown" in m or "koil" in m for m in matched)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


# ---------------------------------------------------------------- 2

def test_criterion_2_skipgram_bound():
    with criterion(2, "1,000 random category names produce exactly "
                      "2^(m-2) variants, zero tolerance"):
        rng = random.Random(1002)
        pool = ("alfa bravo charlie delta echo foxtrot golf hotel india"
                " juliet kilo lima mike november oscar papa").split()
        categories = frozenset({"school", "road", "park", "bridge"})
        for _ in range(1000):
            m = rng.randint(2, 6)
            tokens = rng.sample(pool, m - 1) + [rng.choice(sorted(categories))]
            variants = skipgram_variants(tokens, categories)
            assert len(variants) == 2 ** (m - 2)


# ---------------------------------------------------------------- 3

def test_criterion_3_language_model_oracle():
    with criterion(3, "sequence probabilities match a brute-force recount "
                      "within 1e-12 on 50 random gazetteers; closure and "
                      "normalization hold"):
        rng = random.Random(1003)
        checked = 0
        for round_index in range(50):
            names = random_names(rng, rng.randint(1, 20))
            gazetteer = build_from_names(
                [(f"a3.{round_index}.{i}", n) for i, n in enumerate(names)])
            if not gazetteer.variants:
                continue
            model = compute_model(gazetteer)
            surfaces = list(gazetteer.variants)
            vocab = sorted({w for s in surfaces for w in s.split()})

            probes = []
            for surface in surfaces:
                words = surface.split()
                for k in range(1, min(5, len(words)) + 1):
                    for i in range(len(words) - k + 1):
                        probes.append(words[i:i + k])
            for _ in range(100):
                k = rng.randint(1, 5)
                probes.append([rng.choice(vocab + ["zzx", "qqy"])
                               for _ in range(k)])

            for probe in probes:
                expected = brute_force_probability(surfaces, probe)
                got = sequence_probability(model, probe)
                assert abs(got - expected) <= 1e-12, probe
                checked += 1

            for surface in surfaces:
                assert valid_ngram(model, surface)
            assert sum(model.unigram_p.values()) == pytest.approx(
                1.0, abs=1e-9)
            for table in model.cpd.values():
                for row in table.values():
                    assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)
        assert checked > 1000


# ---------------------------------------------------------------- 4

def test_criterion_4_extraction_oracle(extraction_config):
    with criterion(4, "tree candidates equal exhaustive enumeration on 200 "
                      "random pairs; no forbidden overlaps after "
                      "resolution"):
        from locspot import LocationExtractor

        rng = random.Random(1004)
        suffixes = extraction_config.suffix_dict
        osm = extraction_config.osm_abbrev_dict
        for round_index in range(200):
            names = random_names(rng, rng.randint(1, 20))
            gazetteer = build_from_names(
                [(f"a4.{round_index}.{i}", n) for i, n in enumerate(names)])
            if not gazetteer.variants:
                continue
            model = compute_model(gazetteer)
            tweet = random_tweet(rng, gazetteer)
            words = tweet.split()

            vectors = [expand_token(w, suffixes, osm) for w in words]
            got = {(c.start, c.end, c.surface)
                   for c in find_valid_ngrams(vectors, model, gazetteer)}
            expected = enumerate_candidates(vectors, set(gazetteer.variants))
            assert got == expected, (names, words)

            pipeline = LocationExtractor(model, gazetteer, extraction_config)
            mentions = pipeline.extract(tweet)
            for a in mentions:
                for b in mentions:
                    if a is not b and (a.char_start < b.char_end
                                       and b.char_start < a.char_end):
                        assert (len(a.matched_name.split())
                                == len(b.matched_name.split()))


# ---------------------------------------------------------------- 5

def test_criterion_5_scoring_arithmetic():
    with criterion(5, "partial matches cost exactly 1/2 FP + 1/2 FN; the "
                      "4-document toy corpus micro-averages exactly; strict "
                      "precision <= standard on 100 random sets"):
        def gold(start, end, category="inLoc"):
            return GoldAnnotation("d", start, end, "x", category)

        partial = match_spans([(0, 13)], [gold(4, 13)])
        assert (partial.tp, partial.fp, partial.fn) == (0.0, 0.5, 0.5)

        # four hand-scored documents
        documents = [
            match_spans([(0, 6), (10, 16)], [gold(0, 6), gold(10, 16)]),
            match_spans([(0, 13)], [gold(4, 13)]),
            match_spans([(0, 4)], [gold(0, 4), gold(9, 14)]),
            match_spans([(0, 3), (20, 25)], [gold(0, 3)]),
        ]
        assert [(d.tp, d.fp, d.fn) for d in documents] == [
            (2.0, 0.0, 0.0), (0.0, 0.5, 0.5), (1.0, 0.0, 1.0),
            (1.0, 1.0, 0.0)]
        total = aggregate(documents)
        assert (total.tp, total.fp, total.fn) == (4.0, 1.5, 1.5)
        assert total.precision == pytest.approx(4 / 5.5)
        assert total.recall == pytest.approx(4 / 5.5)
        assert total.f1 == pytest.approx(4 / 5.5)

        rng = random.Random(1005)
        for _ in range(100):
            annotations = []
            cursor = 0
            for _ in range(rng.randint(1, 8)):
                start = cursor + rng.randint(0, 4)
                end = start + rng.randint(1, 6)
                cursor = end + 1
                annotations.append(gold(start, end, rng.choice(
                    ("inLoc", "outLoc", "ambLoc"))))
            spans = []
            for g in annotations:
                if rng.random() < 0.6:
                    spans.append((g.char_start, g.char_end))
            for _ in range(rng.randint(0, 3)):
                start = cursor + rng.randint(1, 30)
                spans.append((start, start + 3))
            standard = match_spans(spans, annotations, mode="standard")
            strict = match_spans(spans, annotations, mode="lnex_strict")
            assert strict.precision <= standard.precision + 1e-12


# ---------------------------------------------------------------- 6

def test_criterion_6_hashtag_segmentation():
    with criterion(6, "#PrayForLouisiana and #lawx segment as documented; "
                      "1,000 fuzzed hashtags are lossless"):
        shipped = SegmenterDictionary.from_file(data_path(ENGLISH_UNIGRAMS))
        assert segment_hashtag("#PrayForLouisiana", shipped) == [
            "pray", "for", "louisiana"]
        assert segment_hashtag("#lawx", shipped) == ["law", "x"]

        rng = random.Random(1006)
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789_"
        for _ in range(1000):
            body = "".join(rng.choice(alphabet)
                           for _ in range(rng.randint(1, 24)))
            assert "".join(segment_hashtag("#" + body, shipped)) == body


# ---------------------------------------------------------------- 7

def test_criterion_7_throughput_and_memory():
    with criterion(7, ">= 200 tweets/s single-threaded over 10,000 tweets "
                      "with a 50,000-variant gazetteer; memory reported "
                      "against the 650 MB soft target"):
        report = run_benchmark(tweet_count=10000, variant_target=50000,
                               seed=1007)
        rate = report["tweets_per_second"]
        rss = report["peak_rss_mb"]
        print(f"  throughput {rate:.0f} tweets/s over "
              f"{report['variants']} variants, peak RSS {rss:.0f} MB")
        assert report["variants"] >= 50000
        assert rate >= 200.0, f"only {rate:.0f} tweets/s"
        if rss > 650.0:  # soft target: report, do not fail
            print(f"  note: peak RSS {rss:.0f} MB exceeds the 650 MB "
                  "soft target")


# ---------------------------------------------------------------- 8

def test_criterion_8_worker_determinism(tmp_path):
    with criterion(8, "extract with 4 workers is byte-identical to 1 worker "
                      "over the golden corpus"):
        cache = tmp_path / "mini.lspc"
        build = subprocess.run(
            [sys.executable, "-m", "locspot",
             "--config", str(DATA / "config.json"),
             "--model-cache", str(cache), "build"],
            capture_output=True, text=True)
        assert build.returncode == 0, build.stderr

        stdin = (DATA / "golden_tweets.jsonl").read_text(encoding="utf-8")
        outputs = []
        for workers in ("1", "4"):
            result = subprocess.run(
                [sys.executable, "-m", "locspot", "--model-cache",
                 str(cache), "--workers", workers, "extract"],
                input=stdin, capture_output=True, text=True)
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout.encode("utf-8"))
        assert outputs[0] == outputs[1]
        assert len(outputs[0].splitlines()) == 8
