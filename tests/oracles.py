"""Independent reference implementations used to cross-check the library.

Everything here recomputes results from first principles (plain counting,
exhaustive enumeration) without touching the code paths under test.
"""

import itertools
import logging
import random
import re

from locspot import textprep
from locspot.errors import GazetteerFormatError
from locspot.extractor import Candidate, LocationMention
from locspot.gazetteer import (
    _BRACKET_RE,
    _KIND_RANK,
    BRACKET_ALTERNATIVE,
    HYPHEN_SPLIT,
    ORIGINAL,
    SKIPGRAM,
    Gazetteer,
    GazetteerEntry,
    NameVariant,
    _phrase_set,
    normalize_surface,
    skipgram_variants,
)
from locspot.textprep import Token

log = logging.getLogger("locspot.gazetteer")


def brute_force_probability(surfaces, tokens):
    """Chain probability recomputed by rescanning the surface list.

    Counts every collocation by sliding windows over each tokenized
    surface and multiplies the count ratios directly.
    """
    def count(seq):
        seq = tuple(seq)
        total = 0
        for surface in surfaces:
            words = surface.split()
            for i in range(len(words) - len(seq) + 1):
                if tuple(words[i:i + len(seq)]) == seq:
                    total += 1
        return total

    tokens = list(tokens)
    total_unigrams = sum(len(s.split()) for s in surfaces)
    p = count(tokens[:1]) / total_unigrams
    if p == 0 or len(tokens) == 1:
        return p
    denom = count(tokens[:1])
    num = count(tokens[:2])
    if num == 0:
        return 0.0
    p *= num / denom
    for i in range(2, len(tokens)):
        denom = count(tokens[i - 2:i])
        num = count(tokens[i - 2:i + 1])
        if num == 0 or denom == 0:
            return 0.0
        p *= num / denom
    return p


def enumerate_candidates(vectors, variant_surfaces):
    """All (start, end, surface) combos whose surface is a variant.

    Exhaustive: every contiguous token range crossed with every choice
    of alternatives, filtered by gazetteer membership only.
    """
    found = set()
    n = len(vectors)
    for start in range(n):
        for end in range(start + 1, n + 1):
            pools = [v.alternatives for v in vectors[start:end]]
            for combo in itertools.product(*pools):
                surface = " ".join(combo)
                if surface in variant_surfaces:
                    found.add((start, end, surface))
    return found


def levenshtein_damerau(a, b):
    """Plain O(n*m) optimal-string-alignment distance."""
    rows = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        rows[i][0] = i
    for j in range(len(b) + 1):
        rows[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            rows[i][j] = min(rows[i - 1][j] + 1, rows[i][j - 1] + 1,
                             rows[i - 1][j - 1] + cost)
            if (i > 1 and j > 1 and a[i - 1] == b[j - 2]
                    and a[i - 2] == b[j - 1]):
                rows[i][j] = min(rows[i][j], rows[i - 2][j - 2] + 1)
    return rows[len(a)][len(b)]


WORD_POOL = """
alder baker cedar dalton ellis fairview granite holly iris juniper
keller linden maple norwood pinehill quarry rosedale sutton tanner
vernon walnut ashford briarwood calder dover everly fenwick gable
harlow jasper kenmore langley merton nolan overton preston redwood
""".split()

CATEGORY_POOL = "road street school park bridge market colony lake".split()


def random_names(rng, how_many, min_tokens=1, max_tokens=4):
    """Distinct-token random location names, most ending in a category."""
    names = []
    for _ in range(how_many):
        m = rng.randint(min_tokens, max_tokens)
        tokens = rng.sample(WORD_POOL, max(1, m - 1))[: max(1, m - 1)]
        if m > 1 and rng.random() < 0.7:
            tokens.append(rng.choice(CATEGORY_POOL))
        else:
            tokens = rng.sample(WORD_POOL, m)
        names.append(" ".join(tokens).title())
    return names


def random_tweet(rng, gazetteer, max_tokens=15):
    """A synthetic tweet built from gazetteer tokens, noise, and stops."""
    vocab = sorted({w for s in gazetteer.variants for w in s.split()})
    noise = ["zzyzx", "qwop", "blorp", "flum", "grawl"]
    stops = ["the", "is", "in", "at", "we", "a", "of"]
    words = []
    for _ in range(rng.randint(1, max_tokens)):
        bucket = rng.random()
        if bucket < 0.5 and vocab:
            words.append(rng.choice(vocab))
        elif bucket < 0.75:
            words.append(rng.choice(stops))
        else:
            words.append(rng.choice(noise))
    return " ".join(words)


def reference_clean_tweet(raw):
    """Per-character cleaning: mask, blank, then collapse space runs.

    Masks every URL, mention and retweet span of the raw text, blanks
    non-ASCII and whitespace one character at a time, and copies the
    rest across while tracking each character's raw index.
    """
    masked = list(raw)
    for regex in (textprep._URL_RE, textprep._MENTION_RE, textprep._RT_RE):
        for m in regex.finditer(raw):
            for i in range(m.start(), m.end()):
                masked[i] = " "
    for i, ch in enumerate(masked):
        if ord(ch) > 127 or (ch != " " and ch.isspace()):
            masked[i] = " "

    cleaned_chars = []
    offset_map = []
    pending_space = False
    for i, ch in enumerate(masked):
        if ch == " ":
            pending_space = bool(cleaned_chars)
            continue
        if pending_space:
            cleaned_chars.append(" ")
            offset_map.append(i - 1)
            pending_space = False
        cleaned_chars.append(ch.lower())
        offset_map.append(i)
    return "".join(cleaned_chars), offset_map


# The former textprep chunk splitter, copied verbatim so that the chunk
# grammar is checked against code it does not share.
_HASHTAG_RE = re.compile(r"#\w+")
_ACRONYM_RE = re.compile(r"^(?:[a-z]\.)+[a-z]?$")
_NUMBER_RE = re.compile(r"^\d+(?:[.,:]\d+)*$")
_INTERNAL_SPLIT_RE = re.compile(r"[.,;:!?]+")
_EMOTICON_RE = re.compile(
    r"^(?:"
    r"[<>]?[:;=8][\-o'*]?[)\](\[dph/\\|{}@o0*3]+"  # :-) ;p =D :/
    r"|[)\](\[dp/\\|{}]+[\-o'*]?[:;=8][<>]?"       # (-: mirrored
    r"|<+/?3+"                                      # <3
    r"|\^[_\-.]?\^"                                 # ^_^
    r"|[xX][dD]+"                                   # xD
    r")$"
)
_PUNCT = set(".,!?;:\"'()[]{}<>|\\/`~^*+=&%$#@…-")


def _split_chunk(chunk: str, base: int, out: list[Token]):
    # a leading chain of hashtags ("#a#b") is peeled off in one loop;
    # no emoticon starts with "#", so what follows is split on its own
    pos = 0
    while m := _HASHTAG_RE.match(chunk, pos):
        out.append(Token(m.group(), base + pos, base + m.end()))
        pos = m.end()
    if pos == len(chunk):
        return
    chunk, base = chunk[pos:], base + pos

    if _EMOTICON_RE.match(chunk):
        out.append(Token(chunk, base, base + len(chunk)))
        return

    lead = 0
    while lead < len(chunk) and chunk[lead] in _PUNCT:
        lead += 1
    if lead:
        out.append(Token(chunk[:lead], base, base + lead))
        chunk, base = chunk[lead:], base + lead
        if not chunk:
            return

    trail = len(chunk)
    while trail > 0 and chunk[trail - 1] in _PUNCT:
        # acronym periods belong to the token ("u.s." stays whole)
        if chunk[trail - 1] == "." and _ACRONYM_RE.match(chunk[:trail]):
            break
        trail -= 1
    core, trailing = chunk[:trail], chunk[trail:]

    if core:
        _split_core(core, base, out)
    if trailing:
        out.append(Token(trailing, base + trail, base + len(chunk)))


def _split_core(core: str, base: int, out: list[Token]):
    if _ACRONYM_RE.match(core) or _NUMBER_RE.match(core):
        out.append(Token(core, base, base + len(core)))
        return
    pos = 0
    for m in _INTERNAL_SPLIT_RE.finditer(core):
        if m.start() > pos:
            out.append(Token(core[pos:m.start()], base + pos, base + m.start()))
        out.append(Token(m.group(), base + m.start(), base + m.end()))
        pos = m.end()
    if pos < len(core):
        out.append(Token(core[pos:], base + pos, base + len(core)))


def reference_tokenize(cleaned):
    """Tokens of cleaned text, one space-separated chunk at a time.

    Cuts the chunks by hand and splits each with _split_chunk, the
    hand-written splitter that the chunk grammar replaced.
    """
    tokens = []
    pos = 0
    while pos < len(cleaned):
        if cleaned[pos] == " ":
            pos += 1
            continue
        end = cleaned.find(" ", pos)
        end = len(cleaned) if end == -1 else end
        _split_chunk(cleaned[pos:end], pos, tokens)
        pos = end
    return tokens


def reference_prepare_tweet(raw, stopwords, segmenter=None, corrector=None):
    """Tokens and splits of a tweet, one stage after the other.

    Cleans with reference_clean_tweet and tokenizes with
    reference_tokenize, maps both ends of every token through the offset
    map, segments all hashtags, then corrects spelling in a second pass.
    """
    cleaned, offset_map = reference_clean_tweet(raw)
    tokens = [Token(t.surface, offset_map[t.start], offset_map[t.end - 1] + 1)
              for t in reference_tokenize(cleaned)]

    expansions = {}
    if segmenter is not None:
        for index, token in enumerate(tokens):
            if token.surface.startswith("#") and len(token.surface) > 1:
                expansions[index] = [
                    Token(w, token.start, token.end, from_hashtag=True)
                    for w in segmenter.segment(token.surface[1:])]
    stream = []
    for index, token in enumerate(tokens):
        if index in expansions:
            stream.extend(expansions[index])
        elif (corrector is not None and not token.is_punctuation()
                and not token.surface.startswith("#")):
            stream.append(Token(corrector.correct(token.surface),
                                token.start, token.end))
        else:
            stream.append(token)

    splits, current = [], []
    for token in stream:
        if token.surface in stopwords:
            if current:
                splits.append(current)
            current = []
        else:
            current.append(token)
    if current:
        splits.append(current)
    return tokens, splits


# The former gazetteer._filter_entry and build_gazetteer, copied verbatim
# so that the one-pass build is checked against code it does not share.
def _filter_entry(name: str, phrases: set[str]) -> list[tuple[str, str]]:
    results: list[tuple[str, str]] = []

    alternatives = []
    def _strip_bracket(match):
        inner = normalize_surface(match.group(1))
        if inner and inner not in phrases:
            alternatives.append(inner)
        return " "

    primary = normalize_surface(_BRACKET_RE.sub(_strip_bracket, name))
    if not primary:
        primary = normalize_surface(name)
        if not primary:
            return []
        return [(primary, ORIGINAL)]

    results.append((primary, ORIGINAL))
    results.extend((alt, BRACKET_ALTERNATIVE) for alt in alternatives)

    sides = primary.split(" - ")
    if len(sides) == 2:
        for side in sides:
            side = side.strip()
            if side:
                results.append((side, HYPHEN_SPLIT))

    seen = set()
    deduped = []
    for surface, kind in results:
        if surface not in seen:
            seen.add(surface)
            deduped.append((surface, kind))
    return deduped


def reference_build_gazetteer(entries, stopname_list, phrase_list, category_words) -> Gazetteer:
    """The former four-pass build_gazetteer, copied verbatim.

    It adds originals, bracket alternatives and hyphen splits in one
    pass each, works out again which splits were dropped for the
    skip-gram pass, and sweeps out stop-names at the end.

    Filter and augment raw entries into a surface -> variant index.

    Original names take precedence over derived surfaces. Derived
    surfaces that collide with an existing variant merge their entry
    ids into it, except hyphen splits that already exist as standalone
    names, which are dropped. Surfaces on the stop-name list are
    removed entirely.
    """
    stopnames = {normalize_surface(s) for s in stopname_list}
    categories = frozenset(normalize_surface(c) for c in category_words)

    entry_index: dict[str, GazetteerEntry] = {}
    for entry in entries:
        if not entry.canonical_name.strip():
            raise GazetteerFormatError(f"entry {entry.id!r} has an empty name")
        if entry.id in entry_index:
            raise GazetteerFormatError(f"duplicate entry id: {entry.id!r}")
        entry_index[entry.id] = entry

    phrases = _phrase_set(phrase_list)
    filtered = {
        entry.id: _filter_entry(entry.canonical_name, phrases)
        for entry in entry_index.values()
    }

    variants: dict[str, NameVariant] = {}

    def _add(surface, kind, entry_id):
        existing = variants.get(surface)
        if existing is None:
            variants[surface] = NameVariant(surface, kind, {entry_id})
            return
        existing.entry_ids.add(entry_id)
        if _KIND_RANK[kind] < _KIND_RANK[existing.kind]:
            existing.kind = kind

    # originals first so later passes can see standalone names
    for kind_pass in (ORIGINAL, BRACKET_ALTERNATIVE, HYPHEN_SPLIT):
        for entry_id, surfaces in filtered.items():
            for surface, kind in surfaces:
                if kind != kind_pass:
                    continue
                if kind == HYPHEN_SPLIT:
                    existing = variants.get(surface)
                    if existing is not None and existing.kind == ORIGINAL:
                        continue
                _add(surface, kind, entry_id)

    for entry_id, surfaces in filtered.items():
        for surface, kind in surfaces:
            if kind == HYPHEN_SPLIT:
                existing = variants.get(surface)
                if existing is None or entry_id not in existing.entry_ids:
                    continue  # this split was dropped above
            for variant in skipgram_variants(surface.split(), categories):
                if variant != surface:
                    _add(variant, SKIPGRAM, entry_id)

    removed = frozenset(surface for surface in variants if surface in stopnames)
    for surface in removed:
        del variants[surface]

    if not variants:
        log.warning("gazetteer is empty after filtering; extraction will "
                    "find nothing")

    return Gazetteer(
        variants=variants,
        entries=entry_index,
        category_words=categories,
        stopnames=removed,
    )


# The former spelling._deletes and SymmetricDeleteCorrector, copied
# verbatim, so that the shadow index is checked against the breadth-first
# delete index with its two vocabulary side checks. Distances come from
# levenshtein_damerau above instead of spelling.edit_distance.
edit_distance = levenshtein_damerau


def _deletes(word: str, depth: int) -> set[str]:
    results = set()
    frontier = {word}
    for _ in range(depth):
        next_frontier = set()
        for w in frontier:
            if len(w) <= 1:
                continue
            for i in range(len(w)):
                shorter = w[:i] + w[i + 1:]
                if shorter not in results:
                    results.add(shorter)
                    next_frontier.add(shorter)
        frontier = next_frontier
    return results


class ReferenceSymmetricDeleteCorrector:
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
        self._index: dict[str, set[str]] = {}
        for word in self._frequencies:
            for shadow in _deletes(word, max_edit_distance):
                self._index.setdefault(shadow, set()).add(word)

    def __contains__(self, token: str) -> bool:
        return token.lower() in self._frequencies

    def candidates(self, token: str) -> set[str]:
        """All vocabulary words within max_edit_distance of the token."""
        return set(self._distances(token.lower()))

    def _distances(self, token: str) -> dict[str, int]:
        """Edit distance of each candidate of a lower-cased token."""
        pool = set()
        if token in self._frequencies:
            pool.add(token)
        pool.update(self._index.get(token, ()))
        for shadow in _deletes(token, self.max_edit_distance):
            if shadow in self._frequencies:
                pool.add(shadow)
            pool.update(self._index.get(shadow, ()))
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


# The former SegmenterDictionary._segment, copied verbatim as a function
# of the dictionary: the O(n^2) program that scores every slice of the
# text, known or not, and copies a word tuple into every cell.
def reference_segment(dictionary, text: str) -> tuple[str, ...]:
    n = len(text)
    # best[i]: (logp, -word_count, words) for text[:i]
    best: list[tuple[float, int, tuple[str, ...]]] = [(0.0, 0, ())]
    for end in range(1, n + 1):
        candidates = []
        for start in range(end):
            prev = best[start]
            word = text[start:end]
            logp = prev[0] + dictionary.log_probability(word)
            candidates.append((logp, prev[1] - 1, prev[2] + (word,)))
        best.append(max(candidates, key=lambda c: (c[0], c[1])))
    return best[n][2]


def reference_prefixes(surfaces) -> frozenset[str]:
    """Every proper token prefix of a surface, joined by single spaces.

    "new avadi" and "new" for "new avadi road": the former
    CompiledModel.prefixes, copied verbatim.
    """
    return frozenset(
        " ".join(tokens[:k]) for tokens in map(str.split, surfaces)
        for k in range(1, len(tokens)))


# The former find_valid_ngrams and resolve_overlaps, copied verbatim
# but for the prefix set, which was model.prefixes: two probes per
# n-gram attempt, one in the prefix set and one in gazetteer.variants,
# and entry ids sorted from each variant's set.
def reference_find_valid_ngrams(fragment, model, gazetteer, stats=None) -> set[Candidate]:
    """Bottom-up assembly of valid n-grams over one fragment.

    Level 1 keeps every alternative in the model's vocabulary; level k
    glues a level-(k-1) sequence with an adjacent level-1 alternative.
    A sequence becomes a candidate when its surface is a gazetteer
    variant and is extended only while its surface is a proper token
    prefix of a variant. Every prefix of a variant has nonzero bigram and
    trigram counts, so this keeps exactly the candidates that pruning
    by the language model keeps, and it is the tightest filter that does.
    """
    n = len(fragment)
    if n == 0:
        return set()
    if stats is not None:
        stats.max_vector_len = max(
            stats.max_vector_len,
            max(len(v.alternatives) for v in fragment),
        )

    prefixes = reference_prefixes(model.surfaces)
    variants = gazetteer.variants
    level1 = [[a for a in vector.alternatives if a in model.vocabulary]
              for vector in fragment]

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
                    if surface in variants:
                        candidates.add(Candidate(start, end, surface))
                    if surface in prefixes:
                        grown.append(surface)
            if grown:
                extended[start] = grown
        if not extended:
            break
        active = extended

    return candidates


def reference_resolve_overlaps(candidates, gazetteer, tokens, raw) -> list[LocationMention]:
    """Keep the longest mentions among overlapping candidates.

    A candidate survives unless a strictly longer surviving candidate
    overlaps it; equal-length overlapping mentions all survive. Each
    survivor links to its gazetteer entries and reports offsets taken
    from the tweet's own tokens (never from expanded forms).
    """
    ordered = sorted(candidates, key=lambda c: (-c.length(), c.start, c.surface))
    kept: list[Candidate] = []
    for candidate in ordered:
        if any(other.length() > candidate.length() and other.overlaps(candidate)
               for other in kept):
            continue
        kept.append(candidate)

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
        variant = gazetteer.variants[candidate.surface]
        mentions.append(LocationMention(
            surface=surface,
            matched_name=candidate.surface,
            char_start=char_start,
            char_end=char_end,
            entry_ids=tuple(sorted(variant.entry_ids)),
            from_hashtag=from_hashtag,
        ))
    mentions.sort(key=lambda m: (m.char_start, m.matched_name))
    return mentions

