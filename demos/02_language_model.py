"""
The n-gram validity model
=========================

The variant surfaces are tokenized into unigram/bigram/trigram counts;
a token sequence is "valid" when its order-two chain probability is
nonzero. No smoothing: unseen transitions are exactly zero, and that
zero is the signal separating location names from everything else.

The language model scores; extraction prunes with the proper token
prefixes of the variants, which keep exactly the sequences that can
still grow into a variant. It reads them as a PREFIX flag in the
gazetteer's variant index, one dict probe per sequence.
"""

from locspot import (
    GazetteerEntry,
    build_gazetteer,
    compute_model,
    sequence_probability,
    valid_ngram,
)
from locspot.gazetteer import PREFIX

entries = [GazetteerEntry("1", "Texas Ave"),
           GazetteerEntry("2", "Texas"),
           GazetteerEntry("3", "New York"),
           GazetteerEntry("4", "York Road")]
gazetteer = build_gazetteer(entries, set(), set(), set())
model = compute_model(gazetteer)

print("vocabulary:", sorted(model.vocabulary))
print("prefixes:  ", sorted(surface for surface, code
                           in gazetteer.variants.codes.items()
                           if code & PREFIX))

# "texas ave" is a valid (and preferred) bigram; "is closed" is not.
for probe in ("texas", "texas ave", "is closed", "ave texas"):
    print(f"valid_ngram({probe!r}) = {valid_ngram(model, probe)}")

# The chain numbers themselves: P(new york) = P1(new) * P(york | new).
print("P(new york)  =", sequence_probability(model, ["new", "york"]))
print("P(york road) =", sequence_probability(model, ["york", "road"]))
print("P(new road)  =", sequence_probability(model, ["new", "road"]))

# Every stored variant is reachable by construction.
assert all(valid_ngram(model, s) for s in gazetteer.variants)
print("closure holds for", len(gazetteer.variants), "variants")
