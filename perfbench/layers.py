"""In-process runs against the package's public API.

The reference check replays sample lines through
LocationExtractor.extract(...) -> to_dict(). The traced run times each
layer through spans.Tracer and turns spans and ExtractionStats counts
into the per-layer metrics.
"""

from __future__ import annotations

import json
import statistics
import time

from locspot import cache, cli, extractor, textprep
from locspot.assets import read_word_list
from locspot.config import PipelineConfig
from locspot.extractor import (
    ExtractionConfig,
    ExtractionStats,
    LocationExtractor,
)
from locspot.gazetteer import build_gazetteer, load_gazetteer
from locspot.langmodel import compute_model

from spans import Tracer


def reference_line(ex: LocationExtractor, line: str) -> str:
    """What `extract` must print for one input line."""
    record = json.loads(line)
    mentions = [m.to_dict() for m in ex.extract(record["text"])]
    return json.dumps({"id": record["id"], "mentions": mentions},
                      sort_keys=True, ensure_ascii=False)


def mismatches(ex, lines, outputs) -> int:
    """Count CLI output lines that differ from the in-process reference."""
    return sum(reference_line(ex, line) != out
               for line, out in zip(lines, outputs))


def load_extractor(cache_path, spell: bool) -> LocationExtractor:
    gazetteer, model = cache.load_cache(cache_path)
    return LocationExtractor(model, gazetteer,
                             ExtractionConfig.load(spelling_correction=spell))


def _build(tracer, config_path, cache_path) -> dict:
    config = PipelineConfig.load(config_path)
    entries = []
    for source in config.gazetteers:
        entries += tracer.call("gazetteer.load_gazetteer", load_gazetteer,
                               source.path, source.format, config.bbox)
    gazetteer = tracer.call(
        "gazetteer.build_gazetteer", build_gazetteer, entries,
        read_word_list(config.asset("gazetteer_stopnames")),
        read_word_list(config.asset("bracket_phrases")),
        read_word_list(config.asset("category_words")))
    model = tracer.call("langmodel.compute_model", compute_model, gazetteer)
    tracer.call("cache.save_cache", cache.save_cache, cache_path, gazetteer,
                model)
    counts = model.counts
    ngrams = (len(counts.unigram_counts)
              + sum(len(r) for r in counts.bigram_cfd.values())
              + sum(len(r) for r in counts.trigram_cfd.values()))
    return {"gazetteer.variants": len(gazetteer.variants),
            "gazetteer.variants_per_entry":
                len(gazetteer.variants) / len(gazetteer.entries),
            "langmodel.ngrams": ngrams}


def _new_extractor(tracer, model, gazetteer, config):
    with tracer.patched([(extractor, "SymmetricDeleteCorrector",
                          "spelling.index_build")]):
        return tracer.call("extractor.init", LocationExtractor, model,
                           gazetteer, config)


def _untraced_pass(ex, lines) -> float:
    started = time.perf_counter()
    for line in lines:
        cli.process_line(line, ex)
    return time.perf_counter() - started


def _traced_pass(tracer, ex, lines) -> tuple[float, ExtractionStats]:
    stats = ExtractionStats()
    find_valid_ngrams = extractor.find_valid_ngrams

    def counted_find_valid_ngrams(fragment, model, gazetteer, _stats=None):
        return find_valid_ngrams(fragment, model, gazetteer, stats)

    targets = [
        (cli, "process_line", "cli.process_line"),
        (ex, "extract", "extractor.extract"),
        (textprep, "prepare_tweet", "textprep.prepare_tweet"),
        (textprep, "clean_tweet", "textprep.clean_tweet"),
        (textprep, "tokenize", "textprep.tokenize"),
        (textprep, "split_on_stopwords", "textprep.split_on_stopwords"),
        (ex.segmenter, "segment", "segmenter.segment"),
        (extractor, "expand_token", "extractor.expand_token"),
        (extractor, "find_valid_ngrams", "extractor.find_valid_ngrams"),
        (extractor, "resolve_overlaps", "extractor.resolve_overlaps"),
    ]
    if ex.corrector is not None:
        targets.append((ex.corrector, "correct", "spelling.correct"))
    keep = ("textprep.tokenize", "segmenter.segment",
            "extractor.find_valid_ngrams", "extractor.resolve_overlaps")
    with tracer.patched(targets, keep_results=keep, replace={
            "extractor.find_valid_ngrams": counted_find_valid_ngrams}):
        started = time.perf_counter()
        for i, line in enumerate(lines):
            tracer.tweet = i
            cli.process_line(line, ex)
        elapsed = time.perf_counter() - started
    tracer.tweet = None
    return elapsed, stats


def _spelling_probe(tracer, model, gazetteer, lines):
    """Time the spelling layer on a workload that runs with it off.

    Builds the index the extractor would build with spelling on and
    corrects the prepared tokens of the sample, so the spelling numbers
    exist for every workload.
    """
    ex = _new_extractor(tracer, model, gazetteer,
                        ExtractionConfig.load(spelling_correction=True))
    with tracer.patched([(ex.corrector, "correct", "spelling.correct")]):
        for line in lines:
            ex.prepare(json.loads(line)["text"])


def traced_run(workload, config_path, cache_path, lines, spans_path) -> dict:
    """Build in-process, then time one untraced and one traced pass.

    Each pass gets a fresh extractor, so both start with empty caches,
    as a freshly started `extract` does.
    """
    tracer = Tracer()
    metrics = _build(tracer, config_path, cache_path)
    gazetteer, model = tracer.call("cache.load_cache", cache.load_cache,
                                   cache_path)
    config = ExtractionConfig.load(spelling_correction=workload.spell)
    untraced_s = _untraced_pass(
        _new_extractor(tracer, model, gazetteer, config), lines)
    ex = _new_extractor(tracer, model, gazetteer, config)
    traced_s, stats = _traced_pass(tracer, ex, lines)
    if not workload.spell:
        _spelling_probe(tracer, model, gazetteer, lines)
    tracer.write(spans_path)

    calls, total, own = tracer.totals()
    n = len(lines)
    per_tweet_us = {name: seconds * 1e6 / n for name, seconds in total.items()}
    self_us = {name: seconds * 1e6 / n for name, seconds in own.items()}
    results = tracer.results
    bodies = [args[0] for args, _ in results["segmenter.segment"]]
    candidates = sum(len(r) for _, r in results["extractor.find_valid_ngrams"])
    mentions = sum(len(r) for _, r in results["extractor.resolve_overlaps"])
    attempts = sum(stats.combos_per_range.values())
    init_s = [end - start for _, name, start, end, _, _ in tracer.spans
              if name == "extractor.init"][:2]
    segment_calls = calls["segmenter.segment"]
    correct_calls = calls["spelling.correct"]
    metrics.update({
        "textprep.clean_tweet.us": per_tweet_us["textprep.clean_tweet"],
        "textprep.tokenize.us": per_tweet_us["textprep.tokenize"],
        "textprep.split_on_stopwords.us":
            per_tweet_us["textprep.split_on_stopwords"],
        "textprep.prepare_tweet.self_us": self_us["textprep.prepare_tweet"],
        "textprep.tokens_per_tweet":
            sum(len(r) for _, r in results["textprep.tokenize"]) / n,
        "segmenter.segment.calls": segment_calls,
        "segmenter.segment.us_per_call":
            total["segmenter.segment"] * 1e6 / max(segment_calls, 1),
        "segmenter.segment.chars_per_call":
            sum(map(len, bodies)) / max(segment_calls, 1),
        "segmenter.repeat_share":
            (len(bodies) - len(set(bodies))) / max(len(bodies), 1),
        "spelling.index_build_s":
            statistics.median(
                (end - start) / 1e9 for _, name, start, end, _, _
                in tracer.spans if name == "spelling.index_build"),
        "spelling.correct.calls": correct_calls,
        "spelling.correct.us_per_call":
            total["spelling.correct"] * 1e6 / max(correct_calls, 1),
        "extractor.find_valid_ngrams.us":
            per_tweet_us["extractor.find_valid_ngrams"],
        "extractor.resolve_overlaps.us":
            per_tweet_us["extractor.resolve_overlaps"],
        "extractor.extract.self_us": self_us["extractor.extract"],
        "extractor.ngram_attempts": attempts / n,
        "extractor.candidate_yield": candidates / max(attempts, 1),
        "extractor.kept_share": mentions / max(candidates, 1),
        "extractor.expand_token.calls": calls["extractor.expand_token"],
        "extractor.init_s": statistics.median(init_s) / 1e9,
        "cli.process_line.self_us": self_us["cli.process_line"],
        "cli.process_line.us": per_tweet_us["cli.process_line"],
        "gazetteer.load_gazetteer_s": total["gazetteer.load_gazetteer"],
        "gazetteer.build_gazetteer_s": total["gazetteer.build_gazetteer"],
        "langmodel.compute_model_s": total["langmodel.compute_model"],
        "cache.save_cache_s": total["cache.save_cache"],
        "cache.load_cache_s": total["cache.load_cache"],
        "trace.overhead_share": traced_s / untraced_s - 1.0,
        "trace.spans": len(tracer.spans),
    })
    return metrics
