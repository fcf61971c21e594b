"""Statistical word segmentation for hashtags.

The segmentation maximizing the product of word probabilities wins,
with ties broken toward fewer words and then toward the split whose
last word starts earliest. A known word scores log10(count / total);
an unknown word scores the standard length penalty
log10(10 / total) - len, so long unseen strings stay whole rather than
shattering into letters.

The dynamic program runs forward over positions, with flat score,
word-count and back-pointer lists, in time linear in the text length:

- Known words are bounded by the longest known word (Norvig, "Natural
  Language Corpus Data", 2009). From each start, a walk through the
  prefixes of the known words stops at the first slice that no known
  word begins with.
- Unknown words have no length bound. The score of an unknown word
  from s to end is score[s] + log10(10 / total) - (end - s), so the
  best one ending anywhere starts where score[s] + s is largest (then
  fewer words, then the earliest start). That set of starts is the
  unknown-run state. It also keeps the starts whose score[s] + s is
  within floating-point rounding of the largest, because the exact
  expression above, evaluated at each end, decides between them.

This is exact: with every count at least 1, a known word's
log10(count / total) is never below its unknown-word score, so the
unknown state may rank every start as if the word from it were
unknown. A word from that state that is known is scored as known.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .assets import read_frequency_table
from .errors import DataError

_NOT_A_PREFIX = object()


class SegmenterDictionary:
    """Unigram probabilities backing the hashtag segmenter."""

    def __init__(self, counts: dict[str, int]):
        if not counts:
            raise ValueError("segmenter dictionary needs at least one word")
        for w, c in counts.items():
            if c < 1:
                raise ValueError(
                    f"segmenter count of {w!r} must be positive, got {c!r}")
        self.total_mass = sum(counts.values())
        self.word_probabilities = {
            w: c / self.total_mass for w, c in counts.items()
        }
        self.counts = dict(counts)
        self._unknown_log_p = math.log10(10.0 / self.total_mass)
        # every prefix of a known word -> its log10 probability when the
        # prefix is itself a known word, else None
        self._prefix_log_p: dict[str, float | None] = {
            w[:i]: None for w in counts for i in range(1, len(w))}
        for w, p in self.word_probabilities.items():
            self._prefix_log_p[w] = math.log10(p)
        self._longest = max(map(len, self.word_probabilities))
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
        return self._unknown_log_p - len(word)

    def segment(self, text: str) -> list[str]:
        """Split text into the most probable word sequence (lossless)."""
        if not text:
            return []
        return list(self._segment_cached(text.lower()))

    def _segment(self, text: str) -> tuple[str, ...]:
        n = len(text)
        prefix_log_p = self._prefix_log_p
        longest = self._longest
        unknown_log_p = self._unknown_log_p
        # for text[:i]: best log-probability, its word count, and the
        # start of its last word
        score = [0.0] + [-math.inf] * n
        n_words = [0] * (n + 1)
        back = [0] * (n + 1)
        # (score[s] + s, s) for the starts whose sum is within `near` of
        # the largest: the best unknown word starts at one of them.
        # Scores lie in [-(n + |unknown_log_p|), 0], so the few roundings
        # in a candidate's score move it by well under `near`.
        near = (n + 1 + abs(unknown_log_p)) * 2.0 ** -46
        best_key = -math.inf
        unknown_starts: list[tuple[float, int]] = []
        for end in range(1, n + 1):
            s = end - 1
            base, k = score[s], n_words[s] + 1
            key = base + s
            if key > best_key:
                best_key = key
                unknown_starts = [t for t in unknown_starts
                                  if t[0] >= key - near]
            if key >= best_key - near:
                unknown_starts.append((key, s))
            # known words text[s:e], each pushed to the end it reaches
            for e in range(end, min(s + longest, n) + 1):
                log_p = prefix_log_p.get(text[s:e], _NOT_A_PREFIX)
                if log_p is _NOT_A_PREFIX:
                    break
                if log_p is None:
                    continue
                logp = base + log_p
                if logp > score[e] or (logp == score[e]
                                       and k < n_words[e]):
                    score[e], n_words[e], back[e] = logp, k, s
            for _, u in unknown_starts:
                if (end - u <= longest
                        and prefix_log_p.get(text[u:end]) is not None):
                    continue  # text[u:end] was pushed as a known word
                logp = score[u] + (unknown_log_p - (end - u))
                k = n_words[u] + 1
                if logp > score[end] or (logp == score[end] and (
                        k < n_words[end]
                        or (k == n_words[end] and u < back[end]))):
                    score[end], n_words[end], back[end] = logp, k, u
        out = []
        while n:
            out.append(text[back[n]:n])
            n = back[n]
        return tuple(reversed(out))


def segment_hashtag(tag: str, dictionary: SegmenterDictionary) -> list[str]:
    """Segment a '#'-prefixed hashtag body into words."""
    if not tag.startswith("#"):
        raise ValueError(f"not a hashtag: {tag!r}")
    return dictionary.segment(tag[1:])
