"""Tweet cleaning, tokenization, and stop-word splitting.

Cleaning is blank-then-scan: non-ASCII and whitespace characters,
URLs, user mentions and retweet markers become spaces in place, so
every character keeps its raw index; one scan over the remaining words
then emits the case-folded text and an offset map from cleaned
positions back to raw ones, for mention spans into the original text.
URLs, mentions and retweet markers are matched on the raw text, each
pattern on its own: a non-ASCII word character still extends a span
before it is blanked, and overlapping matches are all blanked.

Tokenization scans the same space-separated words. Hashtags and
emoticons stay single tokens, acronyms like "u.s." keep their periods,
and other punctuation adjacent to (or sandwiched between) words is
detached into separate tokens.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_MENTION_RE = re.compile(r"@\w+")
_RT_RE = re.compile(r"\bRT\b")  # uppercase retweet marker only
_BLANK_RE = re.compile(r"[^\x00-\x7f]|\s")  # \s is exactly str.isspace()
_WORD_RE = re.compile(r"[^ ]+")

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
    for m in _WORD_RE.finditer(cleaned):
        _split_chunk(m.group(), m.start(), tokens)
    return tokens


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
