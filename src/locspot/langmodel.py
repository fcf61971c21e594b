"""N-gram language model compiled from gazetteer name collocations.

Each distinct variant surface is tokenized once; unigram, bigram, and
trigram occurrences feed conditional frequency distributions. A token
sequence's probability is the order-two Markov chain

    P(w_1) * P(w_2 | w_1) * prod_{i>=3} P(w_i | w_{i-2} w_{i-1})

with every conditional estimated as the ratio of collocation counts.
There is no smoothing: a sequence containing any unseen transition has
probability exactly zero, which is the validity signal.

Nothing is computed up front: the vocabulary, the counts and the MLE
tables are each derived from the variant surfaces on first access.
Extraction reads only the vocabulary; it prunes n-gram assembly with the
PREFIX flag of the gazetteer's VariantIndex codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import DataError

_ZERO = float("-inf")  # log-space sentinel for exactly-zero probability


@dataclass
class NGramCounts:
    """Raw collocation counts recorded from the gazetteer surfaces."""

    unigram_counts: dict[str, int] = field(default_factory=dict)
    bigram_cfd: dict[str, dict[str, int]] = field(default_factory=dict)
    trigram_cfd: dict[tuple[str, str], dict[str, int]] = field(default_factory=dict)
    total_unigrams: int = 0


class CompiledModel:
    """Vocabulary and n-gram tables, derived on first use.

    Shareable across any number of concurrent readers.
    """

    def __init__(self, surfaces):
        self.surfaces = surfaces

    @cached_property
    def vocabulary(self) -> frozenset[str]:
        return frozenset(" ".join(self.surfaces).split())

    @cached_property
    def counts(self) -> NGramCounts:
        """Collocation counts over the surfaces, computed on first access."""
        counts = NGramCounts()
        for surface in self.surfaces:
            tokens = surface.split()
            for w in tokens:
                counts.unigram_counts[w] = counts.unigram_counts.get(w, 0) + 1
                counts.total_unigrams += 1
            for w1, w2 in zip(tokens, tokens[1:]):
                row = counts.bigram_cfd.setdefault(w1, {})
                row[w2] = row.get(w2, 0) + 1
            for w1, w2, w3 in zip(tokens, tokens[1:], tokens[2:]):
                row = counts.trigram_cfd.setdefault((w1, w2), {})
                row[w3] = row.get(w3, 0) + 1
        return counts

    @cached_property
    def unigram_p(self) -> dict[str, float]:
        total = self.counts.total_unigrams
        return {w: c / total for w, c in self.counts.unigram_counts.items()}

    @cached_property
    def cpd(self) -> dict[str, dict]:
        """Row-normalized MLE tables (each row sums to 1)."""
        return {
            "bigram": {
                w1: {w2: c / sum(row.values()) for w2, c in row.items()}
                for w1, row in self.counts.bigram_cfd.items()
            },
            "trigram": {
                ctx: {w3: c / sum(row.values()) for w3, c in row.items()}
                for ctx, row in self.counts.trigram_cfd.items()
            },
        }

    def unigram_count(self, w: str) -> int:
        return self.counts.unigram_counts.get(w, 0)

    def bigram_count(self, w1: str, w2: str) -> int:
        return self.counts.bigram_cfd.get(w1, {}).get(w2, 0)

    def trigram_count(self, w1: str, w2: str, w3: str) -> int:
        return self.counts.trigram_cfd.get((w1, w2), {}).get(w3, 0)

    def log_probability(self, tokens) -> float:
        """Log of the chain probability; -inf means exactly zero."""
        tokens = list(tokens)
        if not tokens:
            raise ValueError("cannot score an empty token sequence")
        c1 = self.unigram_count(tokens[0])
        if c1 == 0:
            return _ZERO
        logp = math.log(c1) - math.log(self.counts.total_unigrams)
        if len(tokens) == 1:
            return logp
        c2 = self.bigram_count(tokens[0], tokens[1])
        if c2 == 0:
            return _ZERO
        logp += math.log(c2) - math.log(c1)
        for i in range(2, len(tokens)):
            ctx_bigram = self.bigram_count(tokens[i - 2], tokens[i - 1])
            c3 = self.trigram_count(tokens[i - 2], tokens[i - 1], tokens[i])
            if c3 == 0 or ctx_bigram == 0:
                return _ZERO
            logp += math.log(c3) - math.log(ctx_bigram)
        return logp

    def probability(self, tokens) -> float:
        logp = self.log_probability(tokens)
        return 0.0 if logp == _ZERO else math.exp(logp)


def compute_model(gazetteer) -> CompiledModel:
    """Compile the gazetteer's variant surfaces into a CompiledModel."""
    if not gazetteer.variants:
        raise DataError("cannot compute a language model from an empty gazetteer")
    return CompiledModel(gazetteer.variants)


def sequence_probability(model: CompiledModel, tokens) -> float:
    """Chain probability of a token sequence; 0 for anything unseen."""
    return model.probability(tokens)


def valid_ngram(model: CompiledModel, s: str) -> bool:
    """True iff the string's token sequence has nonzero probability.

    Matching is case-insensitive; empty or whitespace-only strings are
    treated as carrying no n-gram at all.
    """
    tokens = s.lower().split()
    if not tokens:
        return False
    return model.log_probability(tokens) != _ZERO
