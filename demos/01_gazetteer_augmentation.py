"""
Gazetteer filtering and skip-gram augmentation
==============================================

Raw gazetteers carry auxiliary content (bracketed tags, spaced hyphens)
and miss the contracted name forms people actually write. This walk
through shows how raw records become a clean variant index.
"""

from locspot import GazetteerEntry, build_gazetteer, filter_entry, skipgram_variants
from locspot.assets import (
    BRACKET_PHRASES,
    CATEGORY_WORDS,
    GAZETTEER_STOPNAMES,
    data_path,
    read_word_list,
)

phrases = read_word_list(data_path(BRACKET_PHRASES))
categories = read_word_list(data_path(CATEGORY_WORDS))
stopnames = read_word_list(data_path(GAZETTEER_STOPNAMES))

# A status tag in brackets is deleted; a bracketed alternative name is
# kept as its own surface; a spaced hyphen yields both sides.
for name in ("Little Rock School (historical)",
             "Scenic Road (Frontage Road)",
             "Cars India - Adyar"):
    print(f"{name!r:45} -> {filter_entry(name, phrases)}")

# Names ending in a category word grow contracted variants: the first
# and last token stay, and up to 3 interior tokens come and go (all
# 2^(m-2) subsequences for names of up to 6 tokens).
full = "balalok matriculation higher secondary school"
for variant in sorted(skipgram_variants(full.split(), categories)):
    print("  ", variant)

# Building ties it together: collisions merge, hyphen splits that
# already exist standalone are skipped, stop names are dropped.
entries = [
    GazetteerEntry("1", "Pilot - Hammond"),
    GazetteerEntry("2", "Hammond"),
    GazetteerEntry("3", "Boring"),
    GazetteerEntry("4", "New Avadi Road"),
]
gazetteer = build_gazetteer(entries, stopnames, phrases, categories)
for surface, variant in sorted(gazetteer.variants.items()):
    print(f"{surface:20} {variant.kind:14} -> {sorted(variant.entry_ids)}")
print("removed as stop names:", sorted(gazetteer.stopnames))
