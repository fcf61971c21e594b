"""Loaders for the bundled dictionary assets.

All assets are UTF-8 text files. Word lists hold one surface per line,
pair tables one abbrev<TAB>expansion per line, frequency tables one
word<TAB>count per line. Lines starting with '#' are comments. A file
that is not UTF-8, or a count that is not a positive integer, raises
DataError naming the file (and the line of the count).

The default asset directory is the package's data/ directory; set the
LOCSPOT_DATA environment variable to point somewhere else.
"""

from __future__ import annotations

import os
from pathlib import Path

from .errors import ConfigError, DataError

_PACKAGE_DATA = Path(__file__).parent / "data"

CATEGORY_WORDS = "category_words.txt"
BRACKET_PHRASES = "bracket_phrases.txt"
GAZETTEER_STOPNAMES = "gazetteer_stopnames.txt"
TWEET_STOPWORDS = "tweet_stopwords.txt"
ENGLISH_UNIGRAMS = "english_unigrams.txt"
ENGLISH_WORDS = "english_words.txt"
STREET_SUFFIXES = "usps_street_suffixes.tsv"
OSM_ABBREVIATIONS = "osm_abbreviations.tsv"

# asset key -> packaged file, for every asset a config may override
ASSET_FILES = {
    "category_words": CATEGORY_WORDS,
    "bracket_phrases": BRACKET_PHRASES,
    "gazetteer_stopnames": GAZETTEER_STOPNAMES,
    "tweet_stopwords": TWEET_STOPWORDS,
    "english_unigrams": ENGLISH_UNIGRAMS,
    "english_words": ENGLISH_WORDS,
    "street_suffixes": STREET_SUFFIXES,
    "osm_abbreviations": OSM_ABBREVIATIONS,
}


def data_dir() -> Path:
    root = os.environ.get("LOCSPOT_DATA")
    return Path(root) if root else _PACKAGE_DATA


def data_path(name: str) -> Path:
    return data_dir() / name


def check_asset_keys(overrides):
    """Raise ConfigError for an override key that names no asset."""
    for key in overrides or ():
        if key not in ASSET_FILES:
            raise ConfigError(f"unknown asset key: {key!r}")


def asset_path(key: str, overrides=None):
    """The override for an asset key, else its file in data_dir()."""
    return (overrides or {}).get(key) or data_path(ASSET_FILES[key])


def _content_lines(path):
    """(line number, stripped line) of each non-blank, non-comment line."""
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if line and not line.startswith("#"):
                    yield lineno, line
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None


def read_word_list(path) -> frozenset[str]:
    """Read a newline-delimited surface list, case-folded."""
    return frozenset(line.lower() for _, line in _content_lines(path))


def read_pair_table(path) -> dict[str, set[str]]:
    """Read a two-column abbreviation table as a bidirectional mapping."""
    mapping: dict[str, set[str]] = {}
    for _, line in _content_lines(path):
        short, _, long = line.partition("\t")
        short, long = short.strip().lower(), long.strip().lower()
        if not short or not long:
            continue
        mapping.setdefault(short, set()).add(long)
        mapping.setdefault(long, set()).add(short)
    return mapping


def read_frequency_table(path) -> dict[str, int]:
    """Read a word<TAB>count frequency list."""
    counts: dict[str, int] = {}
    for lineno, line in _content_lines(path):
        word, _, count = line.partition("\t")
        word = word.strip().lower()
        if word:
            try:
                n = int(count)
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: bad count {count!r}") from None
            if n < 1:
                raise DataError(
                    f"{path}:{lineno}: count {n} is not positive")
            counts[word] = counts.get(word, 0) + n
    return counts
