"""Symmetric-delete spelling correction.

Every vocabulary word is indexed under its shadows: the word itself and
every non-empty string left by deleting up to max_edit_distance of its
characters, each shadow keying a list bucket of words. Looking up a
token means taking the union of the buckets of its own shadows, which
turns the expensive insert/substitute/transpose candidate generation
into dictionary hits. Candidates are ranked by edit distance, then
frequency.
"""

from __future__ import annotations

from itertools import combinations


def _shadows(word: str, depth: int) -> set[str]:
    """The word and every non-empty string left by deleting up to depth
    of its characters."""
    return {word} | {"".join(kept)
                     for size in range(max(len(word) - depth, 1), len(word))
                     for kept in combinations(word, size)}


def edit_distance(a: str, b: str) -> int:
    """Damerau-Levenshtein distance (optimal string alignment)."""
    if a == b:
        return 0
    prev2: list[int] = []
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        row = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            row[j] = min(prev[j] + 1, row[j - 1] + 1, prev[j - 1] + cost)
            if i > 1 and j > 1 and ca == b[j - 2] and a[i - 2] == cb:
                row[j] = min(row[j], prev2[j - 2] + 1)
        prev2, prev = prev, row
    return prev[len(b)]


class SymmetricDeleteCorrector:
    """Spelling corrector over a fixed vocabulary.

    vocabulary may be a plain set (all words weight 1) or a mapping
    word -> frequency used to rank candidates.
    """

    def __init__(self, vocabulary, max_edit_distance: int = 2):
        if max_edit_distance < 1:
            raise ValueError("max_edit_distance must be >= 1")
        self.max_edit_distance = max_edit_distance
        if hasattr(vocabulary, "items"):
            self._frequencies = {w.lower(): c for w, c in vocabulary.items()}
        else:
            self._frequencies = {w.lower(): 1 for w in vocabulary}
        # distinct words with distinct shadows: no bucket repeats a word
        self._index: dict[str, list[str]] = {}
        for word in self._frequencies:
            for shadow in _shadows(word, max_edit_distance):
                self._index.setdefault(shadow, []).append(word)

    def candidates(self, token: str) -> set[str]:
        """All vocabulary words within max_edit_distance of the token."""
        return set(self._distances(token.lower()))

    def _distances(self, token: str) -> dict[str, int]:
        """Edit distance of each candidate of a lower-cased token."""
        pool = set().union(*(
            self._index.get(shadow, ())
            for shadow in _shadows(token, self.max_edit_distance)))
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
