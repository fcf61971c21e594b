"""locspot: gazetteer-driven location name extraction for short texts.

Build a gazetteer, compile its name collocations into an n-gram model,
and use the model to delimit and link location mentions:

    from locspot import (
        build_gazetteer, compute_model, ExtractionConfig, LocationExtractor,
    )

    gaz = build_gazetteer(entries, stopnames, phrases, categories)
    model = compute_model(gaz)
    pipeline = LocationExtractor(model, gaz, ExtractionConfig.load())
    mentions = pipeline.extract("water level in Ganapathy Colony is 2 m")
"""

from .cache import load_cache, save_cache
from .evaluation import (
    GoldAnnotation,
    ScoreReport,
    aggregate,
    load_annotations,
    match_spans,
    normalize_hashtag_spans,
)
from .extractor import (
    AbbreviationDictionary,
    ExtractionConfig,
    ExtractionStats,
    LocationExtractor,
    LocationMention,
    TokenSynonymVector,
    expand_token,
    extract,
    find_valid_ngrams,
    resolve_overlaps,
)
from .gazetteer import (
    Gazetteer,
    GazetteerEntry,
    NameVariant,
    VariantIndex,
    build_gazetteer,
    filter_entry,
    load_gazetteer,
    skipgram_variants,
)
from .langmodel import (
    CompiledModel,
    NGramCounts,
    compute_model,
    sequence_probability,
    valid_ngram,
)
from .segmenter import SegmenterDictionary, segment_hashtag
from .spelling import SymmetricDeleteCorrector, correct_spelling
from .textprep import (
    Token,
    TweetDocument,
    clean_tweet,
    prepare_tweet,
    split_on_stopwords,
    tokenize,
)

__version__ = "0.1.0"

__all__ = [
    "AbbreviationDictionary",
    "CompiledModel",
    "ExtractionConfig",
    "ExtractionStats",
    "Gazetteer",
    "GazetteerEntry",
    "GoldAnnotation",
    "LocationExtractor",
    "LocationMention",
    "NGramCounts",
    "NameVariant",
    "ScoreReport",
    "SegmenterDictionary",
    "SymmetricDeleteCorrector",
    "Token",
    "TokenSynonymVector",
    "TweetDocument",
    "VariantIndex",
    "aggregate",
    "build_gazetteer",
    "clean_tweet",
    "compute_model",
    "correct_spelling",
    "expand_token",
    "extract",
    "filter_entry",
    "find_valid_ngrams",
    "load_annotations",
    "load_cache",
    "load_gazetteer",
    "match_spans",
    "normalize_hashtag_spans",
    "prepare_tweet",
    "resolve_overlaps",
    "save_cache",
    "segment_hashtag",
    "sequence_probability",
    "skipgram_variants",
    "split_on_stopwords",
    "tokenize",
    "valid_ngram",
]
