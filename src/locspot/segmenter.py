"""Statistical word segmentation for hashtags.

Dynamic programming over a unigram probability table: the segmentation
maximizing the product of word probabilities wins, with ties broken
toward fewer segments. Unknown words get the standard length penalty
10 / (total_mass * 10^len), so long unseen strings stay whole rather
than shattering into letters.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .assets import read_frequency_table
from .errors import DataError


class SegmenterDictionary:
    """Unigram probabilities backing the hashtag segmenter."""

    def __init__(self, counts: dict[str, int]):
        if not counts:
            raise ValueError("segmenter dictionary needs at least one word")
        self.total_mass = sum(counts.values())
        self.word_probabilities = {
            w: c / self.total_mass for w, c in counts.items()
        }
        self.counts = dict(counts)
        self._segment_cached = lru_cache(maxsize=65536)(self._segment)

    @classmethod
    def from_file(cls, path) -> "SegmenterDictionary":
        counts = read_frequency_table(path)
        if not counts:
            raise DataError(f"{path}: segmenter dictionary has no words")
        return cls(counts)

    def merge_words(self, words, rank=10000) -> "SegmenterDictionary":
        """Return a copy with extra words (e.g. gazetteer unigrams) added.

        Added words absent from the table receive the count of the
        rank-th most frequent word (or of the rarest word when the
        table is shorter than that).
        """
        ranked = sorted(self.counts.values(), reverse=True)
        default = ranked[min(rank, len(ranked)) - 1]
        counts = dict(self.counts)
        for w in words:
            w = w.lower()
            if w and w not in counts:
                counts[w] = default
        return SegmenterDictionary(counts)

    def log_probability(self, word: str) -> float:
        p = self.word_probabilities.get(word)
        if p is not None:
            return math.log10(p)
        return math.log10(10.0 / self.total_mass) - len(word)

    def segment(self, text: str) -> list[str]:
        """Split text into the most probable word sequence (lossless)."""
        if not text:
            return []
        return list(self._segment_cached(text.lower()))

    def _segment(self, text: str) -> tuple[str, ...]:
        n = len(text)
        # best[i]: (logp, -word_count, words) for text[:i]
        best: list[tuple[float, int, tuple[str, ...]]] = [(0.0, 0, ())]
        for end in range(1, n + 1):
            candidates = []
            for start in range(end):
                prev = best[start]
                word = text[start:end]
                logp = prev[0] + self.log_probability(word)
                candidates.append((logp, prev[1] - 1, prev[2] + (word,)))
            best.append(max(candidates, key=lambda c: (c[0], c[1])))
        return best[n][2]


def segment_hashtag(tag: str, dictionary: SegmenterDictionary) -> list[str]:
    """Segment a '#'-prefixed hashtag body into words."""
    if not tag.startswith("#"):
        raise ValueError(f"not a hashtag: {tag!r}")
    return dictionary.segment(tag[1:])
