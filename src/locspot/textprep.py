"""Tweet cleaning, tokenization, and stop-word splitting.

Cleaning is blank-then-scan: non-ASCII and whitespace characters,
URLs, user mentions and retweet markers become spaces in place, so
every character keeps its raw index; one scan over the remaining words
then emits the case-folded text and an offset map from cleaned
positions back to raw ones, for mention spans into the original text.
URLs, mentions and retweet markers are matched on the raw text, each
pattern on its own: a non-ASCII word character still extends a span
before it is blanked, and overlapping matches are all blanked.

Tokenization matches one grammar against each space-separated chunk:
a chain of hashtags ("#a#b", one token per tag), then either an
emoticon that ends the chunk or lead punctuation, a core and trail
punctuation. Acronym ("u.s.") and number ("1,000.5") cores stay whole;
other cores split into runs of [.,;:!?] and runs of everything else, so
"school.west" gives "school", ".", "west".
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")
_RT_RE = re.compile(r"\bRT\b")  # uppercase retweet marker only
_BLANK_RE = re.compile(r"[^\x00-\x7f]|\s")  # \s is exactly str.isspace()
_WORD_RE = re.compile(r"[^ ]+")

_PUNCT = ".,!?;:\"'()[]{}<>|\\/`~^*+=&%$#@…-"
_HASHTAG_RE = re.compile(r"#\w+")
_CORE_RUN_RE = re.compile(r"[.,;:!?]+|[^.,;:!?]+")
# one space-separated chunk; PUNCT stands for the escaped _PUNCT set
_CHUNK_RE = re.compile(r"""
    (?=[^ ])                                            # never empty
    (?P<tags>(?:\#\w+)*)
    (?:
        (?P<emo>
            [<>]?[:;=8][\-o'*]?[)\](\[dph/\\|{}@o0*3]+   # :-) ;p =D :/
          | [)\](\[dp/\\|{}]+[\-o'*]?[:;=8][<>]?         # (-: mirrored
          | <+/?3+                                      # <3
          | \^[_\-.]?\^                                 # ^_^
          | [xX][dD]+                                   # xD
        )(?=\ |$)
      | (?P<lead>[PUNCT]*)
        # the trail's lookahead makes a whole core reach the chunk's end;
        # a lazy core ([^ ]*?) would retry the trail at every character
        (?:
            (?P<whole>(?:[a-z]\.)+[a-z]?|\d+(?:[.,:]\d+)*)  # u.s. 1,000.5
          | (?P<core>(?:[^ ]*[^ PUNCT])?)
        )
        (?P<trail>[PUNCT]*)(?=\ |$)
    )
""".replace("PUNCT", re.escape(_PUNCT)), re.VERBOSE)
# (group number, pattern that cuts the group into tokens) in text order;
# numbers, not names, because Match.span(name) is slower
_CHUNK_PIECES = tuple(
    (_CHUNK_RE.groupindex[name], pieces) for name, pieces in (
        ("tags", _HASHTAG_RE), ("emo", _WORD_RE), ("lead", _WORD_RE),
        ("whole", _WORD_RE), ("core", _CORE_RUN_RE), ("trail", _WORD_RE)))


@dataclass
class Token:
    """A token with [start, end) character offsets into its source text."""

    surface: str
    start: int
    end: int
    from_hashtag: bool = False

    def is_punctuation(self) -> bool:
        return all(ch in _PUNCT for ch in self.surface)


@dataclass
class TweetDocument:
    """A tweet plus everything derived from it during preparation.

    tokens carry raw-text offsets. hashtag_expansions maps a hashtag
    token's index to its segmented sub-tokens (which share the full
    hashtag span). splits are the stop-word-free fragments of the
    expanded token stream, in order.
    """

    raw: str
    cleaned: str
    tokens: list[Token]
    splits: list[list[Token]] = field(default_factory=list)
    hashtag_expansions: dict[int, list[Token]] = field(default_factory=dict)


def clean_tweet(raw: str) -> tuple[str, list[int]]:
    """Strip retweet markers, URLs, mentions, and non-ASCII; case-fold.

    Returns the cleaned text and an offset map where map[i] is the raw
    index of cleaned character i. Everything removed is first blanked
    in place (spans matched on the raw text), then one scan over the
    words joins them; a separator maps to the blank before its word, so
    the map is strictly increasing.
    """
    masked = _BLANK_RE.sub(" ", raw)
    buffer = None  # blanked in place, so many spans cost linear time
    for regex in (_URL_RE, _MENTION_RE, _RT_RE):
        for m in regex.finditer(raw):
            if buffer is None:
                buffer = bytearray(masked, "ascii")  # all ASCII by now
            start, end = m.span()
            buffer[start:end] = b" " * (end - start)
    if buffer is not None:
        masked = buffer.decode("ascii")
    words: list[str] = []
    offset_map: list[int] = []
    for m in _WORD_RE.finditer(masked.lower()):
        if words:
            offset_map.append(m.start() - 1)
        words.append(m.group())
        offset_map.extend(range(m.start(), m.end()))
    return " ".join(words), offset_map


def tokenize(cleaned: str) -> list[Token]:
    """Tokenize cleaned text, offsets relative to the given string."""
    tokens: list[Token] = []
    for chunk in _CHUNK_RE.finditer(cleaned):
        for group, pieces in _CHUNK_PIECES:
            start, end = chunk.span(group)
            if start < end:
                for m in pieces.finditer(cleaned, start, end):
                    tokens.append(Token(m.group(), m.start(), m.end()))
    return tokens


def split_on_stopwords(tokens, stoplist) -> list[list[Token]]:
    """Break a token stream into maximal runs of non-stop-word tokens.

    The stop list is assumed to already exclude gazetteer unigrams;
    order and offsets are preserved.
    """
    fragments: list[list[Token]] = []
    current: list[Token] = []
    for token in tokens:
        if token.surface in stoplist:
            if current:
                fragments.append(current)
                current = []
        else:
            current.append(token)
    if current:
        fragments.append(current)
    return fragments


def prepare_tweet(raw, stopwords, segmenter=None, corrector=None) -> TweetDocument:
    """Run the full preparation pipeline on one raw tweet.

    Cleans and tokenizes, segments every hashtag through the statistical
    segmenter (when given), optionally replaces out-of-vocabulary token
    surfaces with spelling corrections, and splits the expanded token
    stream on stop words.
    """
    cleaned, offset_map = clean_tweet(raw)
    tokens: list[Token] = []
    stream: list[Token] = []
    expansions: dict[int, list[Token]] = {}
    for t in tokenize(cleaned):
        start = offset_map[t.start]  # a token never spans a separator
        token = Token(t.surface, start, start + len(t.surface))
        if t.surface.startswith("#"):
            if segmenter is not None and len(t.surface) > 1:
                expansions[len(tokens)] = [
                    Token(w, token.start, token.end, from_hashtag=True)
                    for w in segmenter.segment(t.surface[1:])]
                stream.extend(expansions[len(tokens)])
            else:
                stream.append(token)
        elif corrector is not None and not token.is_punctuation():
            stream.append(Token(corrector.correct(t.surface),
                                token.start, token.end))
        else:
            stream.append(token)
        tokens.append(token)

    splits = split_on_stopwords(stream, stopwords)
    return TweetDocument(raw=raw, cleaned=cleaned, tokens=tokens,
                         splits=splits, hashtag_expansions=expansions)
