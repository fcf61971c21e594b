"""Location mention extraction.

Each token of a stop-word-free fragment of a prepared tweet gets its
alternatives (abbreviations and expansions in both directions), then a
bottom-up tree glues consecutive tokens into longer sequences, keeping
only those that are a proper prefix of some gazetteer variant (the
same candidates as language-model pruning; see find_valid_ngrams).
Sequences whose surface is an actual gazetteer variant become
candidates. Both tests read one code from the gazetteer's VariantIndex,
a single dict probe per sequence. Overlap resolution prefers the longest
mentions and links every survivor to the entry ids of its variant's
row, which the index keeps sorted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby

from . import textprep
from .assets import (
    asset_path, check_asset_keys, read_pair_table, read_word_list)
from .gazetteer import PREFIX, VARIANT
from .segmenter import SegmenterDictionary
from .spelling import SymmetricDeleteCorrector


@dataclass(frozen=True)
class TokenSynonymVector:
    """A token plus its abbreviation/expansion alternatives."""

    original: str
    alternatives: tuple[str, ...]


@dataclass(frozen=True)
class Candidate:
    """A validated match over fragment token positions [start, end)."""

    start: int
    end: int
    surface: str  # the gazetteer variant surface that validated it

    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class LocationMention:
    """An extracted location span linked to its gazetteer entries."""

    surface: str
    matched_name: str
    char_start: int
    char_end: int
    entry_ids: tuple[str, ...]
    from_hashtag: bool = False

    def to_dict(self) -> dict:
        return {
            "surface": self.surface,
            "matched_name": self.matched_name,
            "char_start": self.char_start,
            "char_end": self.char_end,
            "entry_ids": list(self.entry_ids),
            "from_hashtag": self.from_hashtag,
        }


@dataclass
class ExtractionStats:
    """Instrumentation for the candidate-space bound checks."""

    max_vector_len: int = 0
    combos_per_range: dict[tuple[int, int], int] = field(default_factory=dict)

    def count(self, start: int, end: int):
        key = (start, end)
        self.combos_per_range[key] = self.combos_per_range.get(key, 0) + 1

    def max_combos(self) -> int:
        return max(self.combos_per_range.values(), default=0)


class AbbreviationDictionary:
    """Bidirectional abbreviation <-> expansion lookups."""

    def __init__(self, mapping: dict[str, set[str]]):
        self._mapping = {k: frozenset(v) for k, v in mapping.items()}

    @classmethod
    def from_file(cls, path) -> "AbbreviationDictionary":
        return cls(read_pair_table(path))

    def lookup(self, token: str) -> frozenset[str]:
        return self._mapping.get(token, frozenset())

    def keys(self):
        """Every token that has alternatives (abbreviation or expansion)."""
        return self._mapping.keys()


def expand_token(token, suffix_dict, osm_abbrev_dict) -> TokenSynonymVector:
    """Build the synonym vector for one case-folded token."""
    alternatives = [token]
    for dictionary in (suffix_dict, osm_abbrev_dict):
        for alt in sorted(dictionary.lookup(token)):
            if alt not in alternatives:
                alternatives.append(alt)
    return TokenSynonymVector(original=token, alternatives=tuple(alternatives))


def find_valid_ngrams(fragment, model, gazetteer, stats=None) -> set[Candidate]:
    """Bottom-up assembly of valid n-grams over a fragment's .alternatives.

    Level 1 keeps every alternative in the model's vocabulary; level k
    glues a level-(k-1) sequence with an adjacent level-1 alternative.
    A sequence becomes a candidate when its surface is a gazetteer
    variant and is extended only while its surface is a proper token
    prefix of one; one lookup in gazetteer.variants.codes answers both.
    Every prefix of a variant has nonzero bigram and trigram counts, so
    this keeps exactly the candidates that pruning by the language model
    keeps, and it is the tightest filter that does.
    """
    n = len(fragment)
    if n == 0:
        return set()
    if stats is not None:
        stats.max_vector_len = max(
            stats.max_vector_len,
            max(len(v.alternatives) for v in fragment),
        )

    codes = gazetteer.variants.codes
    vocabulary = model.vocabulary
    level1 = [[a for a in position.alternatives if a in vocabulary]
              for position in fragment]

    candidates: set[Candidate] = set()
    # surfaces by start position, of the current length, that can still
    # grow; level 1 grows each start from the empty surface
    active: dict[int, list[str]] = {i: [""] for i in range(n)}
    for length in range(1, n + 1):
        extended: dict[int, list[str]] = {}
        for start, heads in active.items():
            end = start + length
            if end > n:
                continue
            grown = []
            for head in heads:
                for alt in level1[end - 1]:
                    if stats is not None:
                        stats.count(start, end)
                    surface = f"{head} {alt}" if head else alt
                    code = codes.get(surface, 0)
                    if code & VARIANT:
                        candidates.add(Candidate(start, end, surface))
                    if code & PREFIX:
                        grown.append(surface)
            if grown:
                extended[start] = grown
        if not extended:
            break
        active = extended

    return candidates


def resolve_overlaps(candidates, gazetteer, tokens, raw) -> list[LocationMention]:
    """Keep the longest mentions among overlapping candidates.

    A candidate survives unless a strictly longer surviving candidate
    overlaps it; equal-length overlapping mentions all survive. Taken in
    groups of equal length, longest first, a candidate survives when no
    token it spans is covered by a survivor of an earlier group, so after
    the sort the work grows with the candidates times their length, not
    with their square. Each survivor links to its gazetteer entries, in
    sorted order, and reports offsets taken from the tweet's own tokens
    (never from expanded forms).
    """
    ordered = sorted(candidates, key=lambda c: (-c.length(), c.start, c.surface))
    covered = bytearray(len(tokens))
    kept: list[Candidate] = []
    for _, group in groupby(ordered, Candidate.length):
        survivors = [c for c in group if covered.find(1, c.start, c.end) < 0]
        for c in survivors:
            covered[c.start:c.end] = b"\x01" * (c.end - c.start)
        kept.extend(survivors)

    variants = gazetteer.variants
    mentions = []
    for candidate in kept:
        span = tokens[candidate.start:candidate.end]
        char_start = span[0].start
        char_end = span[-1].end
        from_hashtag = any(t.from_hashtag for t in span)
        if all(t.from_hashtag for t in span):
            surface = " ".join(t.surface for t in span)
        else:
            surface = raw[char_start:char_end]
        mentions.append(LocationMention(
            surface=surface,
            matched_name=candidate.surface,
            char_start=char_start,
            char_end=char_end,
            entry_ids=variants.entry_ids(candidate.surface),
            from_hashtag=from_hashtag,
        ))
    mentions.sort(key=lambda m: (m.char_start, m.matched_name))
    return mentions


@dataclass
class ExtractionConfig:
    """Dictionaries and switches the extraction pipeline runs with."""

    suffix_dict: AbbreviationDictionary
    osm_abbrev_dict: AbbreviationDictionary
    stopwords: frozenset[str]
    segmenter: SegmenterDictionary
    spelling_words: frozenset[str] = frozenset()
    spelling_correction: bool = False
    max_edit_distance: int = 2

    @classmethod
    def load(cls, paths=None, spelling_correction=False, max_edit_distance=2):
        """Load the shipped (or overridden) dictionary assets.

        paths may override any key of assets.ASSET_FILES (a key that is
        not one raises ConfigError); five of them are read here.
        """
        check_asset_keys(paths)
        return cls(
            suffix_dict=AbbreviationDictionary.from_file(
                asset_path("street_suffixes", paths)),
            osm_abbrev_dict=AbbreviationDictionary.from_file(
                asset_path("osm_abbreviations", paths)),
            stopwords=read_word_list(asset_path("tweet_stopwords", paths)),
            segmenter=SegmenterDictionary.from_file(
                asset_path("english_unigrams", paths)),
            spelling_words=read_word_list(asset_path("english_words", paths)),
            spelling_correction=spelling_correction,
            max_edit_distance=max_edit_distance,
        )


class LocationExtractor:
    """Reusable extraction pipeline bound to one model and gazetteer.

    Stateless after construction: extract() is a pure function of the
    raw text, so one instance can serve any number of worker threads
    or forked processes.
    """

    def __init__(self, model, gazetteer, config):
        self.model = model
        self.gazetteer = gazetteer
        self.config = config
        self.stopwords = config.stopwords - model.vocabulary
        self.segmenter = config.segmenter.merge_words(model.vocabulary)
        self.corrector = None
        if config.spelling_correction:
            counts = self.segmenter.counts
            vocabulary = {w: counts.get(w, 1)
                          for w in config.spelling_words | model.vocabulary}
            self.corrector = SymmetricDeleteCorrector(
                vocabulary, config.max_edit_distance)
        # any token missing here has the alternatives (token,)
        self.synonyms = {
            token: expand_token(
                token, config.suffix_dict, config.osm_abbrev_dict).alternatives
            for dictionary in (config.suffix_dict, config.osm_abbrev_dict)
            for token in dictionary.keys()}

    def prepare(self, raw: str) -> list[list[textprep.Token]]:
        """The stop-word-free fragments of one raw tweet, alternatives set."""
        fragments = textprep.prepare_tweet(
            raw, self.stopwords, self.segmenter, self.corrector)
        for fragment in fragments:
            for t in fragment:  # by the surface after spelling correction
                t.alternatives = self.synonyms.get(t.surface) or (t.surface,)
        return fragments

    def extract(self, raw: str, stats=None) -> list[LocationMention]:
        """Extract and link every location mention in one raw tweet."""
        if not isinstance(raw, str) or not raw.strip():
            return []
        mentions: list[LocationMention] = []
        for fragment in self.prepare(raw):
            candidates = find_valid_ngrams(
                fragment, self.model, self.gazetteer, stats)
            if candidates:
                mentions.extend(resolve_overlaps(
                    candidates, self.gazetteer, fragment, raw))
        mentions.sort(key=lambda m: (m.char_start, m.matched_name))
        return mentions

