"""Symmetric-delete spelling correction.

Every vocabulary word is indexed under the shadows of its prefix of
PREFIX_LENGTH characters: that prefix itself and every non-empty string
left by deleting up to max_edit_distance of its characters, each shadow
keying a list bucket of words. Looking up a token means taking the union
of the buckets of the shadows of its own prefix, which turns the
expensive insert/substitute/transpose candidate generation into
dictionary hits. Indexing prefixes only is W. Garbe's SymSpell v6 trick:
it roughly halves the index, and it loses no candidate as long as the
prefix is longer than the edit distance, so the prefix length is raised
to max_edit_distance + 1 when that is larger. Each candidate is then
verified by its full edit distance, computed with H. Hyyrö's bit-vector
algorithm for the optimal-string-alignment distance ("A Bit-Vector
Algorithm for Computing Levenshtein and Damerau Edit Distances", Nordic
Journal of Computing, 2003), with Python ints as bit vectors of any
length. Candidates are ranked by edit distance, then frequency.
"""

from __future__ import annotations

from itertools import combinations

PREFIX_LENGTH = 7


def _shadows(word: str, depth: int) -> set[str]:
    """The word and every non-empty string left by deleting up to depth
    of its characters."""
    return {word} | {"".join(kept)
                     for size in range(max(len(word) - depth, 1), len(word))
                     for kept in combinations(word, size)}


def edit_distance(a: str, b: str) -> int:
    """Damerau-Levenshtein distance (optimal string alignment).

    Hyyrö's bit-vector recurrence: bit i of vp (vn) says the distance
    between a[:i + 1] and the text read so far is one more (less) than
    between a[:i] and it; a column is one character of b.
    """
    if a == b:
        return 0
    if not a or not b:
        return len(a) + len(b)
    masks: dict[str, int] = {}
    for i, c in enumerate(a):
        masks[c] = masks.get(c, 0) | 1 << i
    full = (1 << len(a)) - 1
    last = 1 << (len(a) - 1)
    distance = len(a)
    vp, vn, d0, previous = full, 0, 0, 0
    for c in b:
        pm = masks.get(c, 0)
        d0 = ((~d0 & pm) << 1 & previous
              | ((pm & vp) + vp) ^ vp | pm | vn)
        hp = vn | ~(d0 | vp)
        hn = d0 & vp
        if hp & last:
            distance += 1
        elif hn & last:
            distance -= 1
        hp = hp << 1 | 1
        vn = hp & d0
        vp = (hn << 1 | ~(hp | d0)) & full
        previous = pm
    return distance


class SymmetricDeleteCorrector:
    """Spelling corrector over a fixed vocabulary.

    vocabulary may be a plain set (all words weight 1) or a mapping
    word -> frequency used to rank candidates.
    """

    def __init__(self, vocabulary, max_edit_distance: int = 2):
        if max_edit_distance < 1:
            raise ValueError("max_edit_distance must be >= 1")
        self.max_edit_distance = max_edit_distance
        self._prefix = max(PREFIX_LENGTH, max_edit_distance + 1)
        if hasattr(vocabulary, "items"):
            self._frequencies = {w.lower(): c for w, c in vocabulary.items()}
        else:
            self._frequencies = {w.lower(): 1 for w in vocabulary}
        # distinct words with distinct shadows: no bucket repeats a word
        self._index: dict[str, list[str]] = {}
        for word in self._frequencies:
            for shadow in _shadows(word[:self._prefix], max_edit_distance):
                self._index.setdefault(shadow, []).append(word)

    def candidates(self, token: str) -> set[str]:
        """All vocabulary words within max_edit_distance of the token."""
        return set(self._distances(token.lower()))

    def _distances(self, token: str) -> dict[str, int]:
        """Edit distance of each candidate of a lower-cased token."""
        pool = set().union(*(
            self._index.get(shadow, ())
            for shadow in _shadows(token[:self._prefix],
                                   self.max_edit_distance)))
        return {w: d for w in pool
                if (d := edit_distance(token, w)) <= self.max_edit_distance}

    def correct(self, token: str) -> str:
        """Best correction for an out-of-vocabulary token.

        In-vocabulary and non-alphabetic tokens come back unchanged, as
        does anything without a candidate within max_edit_distance.
        """
        lowered = token.lower()
        if lowered in self._frequencies or not lowered.isalpha():
            return token
        distances = self._distances(lowered)
        if not distances:
            return token
        return min(
            distances,
            key=lambda w: (distances[w], -self._frequencies[w], w),
        )


def correct_spelling(token, vocabulary, max_edit_distance: int = 2) -> str:
    """One-shot correction; builds a throwaway index.

    Pipelines should hold a SymmetricDeleteCorrector instead so the
    delete index is built once.
    """
    return SymmetricDeleteCorrector(vocabulary, max_edit_distance).correct(token)
