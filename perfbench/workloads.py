"""Seeded input generator for the benchmark workloads.

Everything the program under test reads is written here from the
workload's parameters and the seed: a generic_json gazetteer plus its
pipeline config, the tweet stream as JSON lines, and the planted gold
names as BRAT .txt/.ann pairs. The word pools are copies owned by the
benchmark, so inputs stay fixed when the package's own data changes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# Continuity pools: the synthetic region of the package's original
# in-process benchmark. 60 specific words and 22 generic words give 82
# distinct unigrams however many entries are drawn.
CONTINUITY_SPECIFIC = """
alder baker cedar dalton ellis fairview granite holly iris juniper
keller linden maple norwood oakler pinehill quarry rosedale sutton
tanner union vernon walnut yardley zephyr ashford briarwood calder
dover everly fenwick gable harlow ivydale jasper kenmore langley
merton nolan overton preston quimby redwood stanton thatcher updike
vickers wendell xavier yates zelda arbor bennett carver denholm
""".split()

CONTINUITY_GENERIC = """
road street avenue lane drive court park school bridge market
station hospital college temple garden square plaza river lake
heights colony nagar tower building hall library museum
""".split()

CONTINUITY_CHATTER = """
the water is rising fast near my place and we are moving to higher
ground please stay safe everyone the rain has not stopped since
morning roads are blocked cars floating power cut since last night
need boats for rescue our area is badly hit volunteers doing great
work god bless them all schools closed tomorrow avoid travel if you
can situation getting worse by the hour
""".split()

# Category words that end pseudo-word names, so skip-grams kick in.
PSEUDO_CATEGORIES = """
road street avenue lane drive court place square plaza terrace
highway junction building tower hall hospital library museum station
bridge park garden beach island lake river creek valley ridge hill
heights temple market mall colony nagar district village ward sector
""".split()

_ONSETS = ("b c d f g h j k l m n p r s t v w z "
           "br dr fr gr kr pr tr bl gl pl sl st sh ch th").split()
_VOWELS = "a e i o u ai ea oo ou ia".split()
_CODAS = ["", "", "n", "r", "l", "s", "m", "nd", "rk", "st"]

WORDS_FILE = Path(__file__).parent / "data" / "words.txt"


@dataclass(frozen=True)
class Workload:
    """Parameters of one generated workload."""

    name: str
    region: str              # "continuity" or "pseudo"
    entries: int             # gazetteer entries to generate
    vocabulary: int          # pseudo-word count (pseudo regions only)
    chatter: str             # "continuity" or "english"
    typo_share: float        # share of words given one typo
    hashtags: str            # "trending" or "distinct"
    spell: bool              # run extract with spelling correction
    gold_docs: int           # leading tweets that get BRAT gold files
    batch_rate: float        # expected workers-1 lines/s, sizes the batches
    open_rate: float         # open-loop send rate, lines/s
    cold_per_round: int      # cold-start spawns per round of a run
    trace_lines: int         # lines in each in-process pass


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="region_stream", region="continuity", entries=52000,
            vocabulary=0, chatter="continuity", typo_share=0.0,
            hashtags="trending", spell=False, gold_docs=300,
            batch_rate=5000.0, open_rate=600.0, cold_per_round=2,
            trace_lines=6000),
        Workload(
            name="noisy_spell", region="pseudo", entries=20000,
            vocabulary=5000, chatter="english", typo_share=0.15,
            hashtags="distinct", spell=True, gold_docs=300,
            batch_rate=600.0, open_rate=250.0, cold_per_round=2,
            trace_lines=800),
    )
}

def _pseudo_vocabulary(rng, size, avoid):
    words: list[str] = []
    seen = set(avoid)
    while len(words) < size:
        syllables = [rng.choice(_ONSETS) + rng.choice(_VOWELS)
                     for _ in range(rng.randint(2, 3))]
        word = "".join(syllables) + rng.choice(_CODAS)
        if len(word) >= 5 and word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _continuity_names(rng, count):
    names = []
    for _ in range(count):
        tokens = rng.sample(CONTINUITY_SPECIFIC, rng.randint(1, 3))
        if rng.random() < 0.8:
            tokens.append(rng.choice(CONTINUITY_GENERIC))
        names.append(" ".join(t.capitalize() for t in tokens))
    return names


def _pseudo_names(rng, count, vocabulary):
    names = []
    for _ in range(count):
        tokens = [rng.choice(vocabulary)
                  for _ in range(rng.choice((1, 1, 2, 2, 2, 3, 3)))]
        if rng.random() < 0.85:
            tokens.append(rng.choice(PSEUDO_CATEGORIES))
        names.append(" ".join(t.capitalize() for t in tokens))
    return names


def _typo(rng, word):
    i = rng.randrange(len(word))
    op = rng.randrange(4)
    letter = rng.choice("abcdefghijklmnopqrstuvwxyz")
    if op == 0:
        return word[:i] + word[i + 1:]
    if op == 1:
        return word[:i] + letter + word[i:]
    if op == 2:
        return word[:i] + letter + word[i + 1:]
    if i == len(word) - 1:
        i -= 1
    return word[:i] + word[i + 1] + word[i] + word[i + 2:]


class _TweetMaker:
    def __init__(self, rng, workload, names, english):
        self.rng = rng
        self.workload = workload
        self.names = names
        self.english = english
        self.chatter = (CONTINUITY_CHATTER if workload.chatter == "continuity"
                        else english)
        self.seen_tags: set[str] = set()
        self.name_tags: set[str] = set()
        if workload.hashtags == "trending":
            tags = [n.replace(" ", "") for n in rng.sample(names, 12)]
            tags += ["".join(rng.sample(self.chatter, 2)) for _ in range(18)]
            self.trending = tags
            self.name_tags = set(tags[:12])
            # Zipf-style: the k-th most popular tag is drawn with weight 1/k
            self.weights = [1.0 / (k + 1) for k in range(len(tags))]

    def _noisy(self, word):
        if len(word) >= 4 and self.rng.random() < self.workload.typo_share:
            return _typo(self.rng, word)
        return word

    def _name(self):
        """A planted name, its words mistyped as often as chatter."""
        return " ".join(map(self._noisy, self.rng.choice(self.names).split()))

    def _hashtag(self):
        if self.workload.hashtags == "trending":
            return self.rng.choices(self.trending, self.weights)[0]
        while True:  # distinct bodies of about 35 characters
            parts: list[str] = []
            while sum(map(len, parts)) < 32:
                parts.append(self.rng.choice(self.english))
            tag = "".join(parts)
            if tag not in self.seen_tags:
                self.seen_tags.add(tag)
                return tag

    def make(self):
        """Return (text, gold spans) for one tweet."""
        rng = self.rng
        pieces = [(self._noisy(rng.choice(self.chatter)), False)
                  for _ in range(rng.randint(6, 14))]
        if rng.random() < 0.7:
            pieces.insert(rng.randrange(len(pieces)), (self._name(), True))
        if self.workload.hashtags == "distinct" or rng.random() < 0.3:
            tag = self._hashtag()
            pieces.append(("#" + tag, tag in self.name_tags))
        if rng.random() < 0.2:
            pieces.append((f"http://example.com/{rng.randrange(10 ** 6)}",
                           False))
        text_parts, gold, offset = [], [], 0
        for piece, is_name in pieces:
            if is_name:
                gold.append((offset, offset + len(piece), piece))
            text_parts.append(piece)
            offset += len(piece) + 1
        return " ".join(text_parts), gold


def english_words() -> list[str]:
    with open(WORDS_FILE, encoding="utf-8") as f:
        return [w.strip() for w in f
                if w.strip() and not w.startswith("#")]


def generate(workload: Workload, seed: int, tweet_count: int,
             out_dir: Path) -> dict:
    """Write the workload's inputs under out_dir; return their paths."""
    rng = random.Random(f"{workload.name}:{seed}")
    english = english_words()
    out_dir.mkdir(parents=True, exist_ok=True)

    if workload.region == "continuity":
        names = _continuity_names(rng, workload.entries)
    else:
        vocabulary = _pseudo_vocabulary(rng, workload.vocabulary, english)
        names = _pseudo_names(rng, workload.entries, vocabulary)
    gazetteer = out_dir / "gazetteer.json"
    gazetteer.write_text(json.dumps(
        [{"id": f"e{i}", "name": name} for i, name in enumerate(names)]),
        encoding="utf-8")
    config = out_dir / "config.json"
    config.write_text(json.dumps({
        "gazetteers": [{"path": gazetteer.name, "format": "generic_json"}],
        "spelling_correction": workload.spell,
    }), encoding="utf-8")

    maker = _TweetMaker(rng, workload, names, english)
    gold_dir = out_dir / "gold"
    gold_dir.mkdir(exist_ok=True)
    tweets = out_dir / "tweets.jsonl"
    with open(tweets, "w", encoding="utf-8") as f:
        for i in range(tweet_count):
            doc_id = f"t{i:06d}"
            text, gold = maker.make()
            f.write(json.dumps({"id": doc_id, "text": text}) + "\n")
            if i < workload.gold_docs:
                (gold_dir / f"{doc_id}.txt").write_text(text, encoding="utf-8")
                (gold_dir / f"{doc_id}.ann").write_text("".join(
                    f"T{k}\tinLoc {start} {end}\t{surface}\n"
                    for k, (start, end, surface) in enumerate(gold, 1)),
                    encoding="utf-8")
    return {"gazetteer": gazetteer, "config": config, "tweets": tweets,
            "gold": gold_dir}
