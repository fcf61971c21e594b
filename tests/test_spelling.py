import random
from collections import Counter

from locspot import SymmetricDeleteCorrector, correct_spelling, spelling

from oracles import ReferenceSymmetricDeleteCorrector, levenshtein_damerau

VOCABULARY = {
    "chennai": 500, "channel": 400, "check": 300, "flood": 900,
    "floor": 200, "street": 800, "colony": 150, "adyar": 100,
    "the": 10000, "road": 700, "mambalam": 50,
}


def test_repeated_letter_typo():
    corrector = SymmetricDeleteCorrector(VOCABULARY, max_edit_distance=2)
    assert corrector.correct("chennnai") == "chennai"


def test_in_vocabulary_unchanged():
    corrector = SymmetricDeleteCorrector(VOCABULARY)
    assert corrector.correct("flood") == "flood"


def test_no_candidate_within_distance():
    corrector = SymmetricDeleteCorrector(VOCABULARY)
    assert corrector.correct("xyzzyplugh") == "xyzzyplugh"


def test_non_alphabetic_unchanged():
    corrector = SymmetricDeleteCorrector(VOCABULARY)
    assert corrector.correct("2m") == "2m"
    assert corrector.correct("#tag") == "#tag"


def test_one_shot_helper():
    assert correct_spelling("chennnai", set(VOCABULARY)) == "chennai"


def oracle_candidates(token, vocabulary, max_distance):
    return {w for w in vocabulary
            if levenshtein_damerau(token, w) <= max_distance}


def oracle_best(token, vocabulary, max_distance):
    pool = oracle_candidates(token, vocabulary, max_distance)
    if not pool:
        return token
    return min(pool, key=lambda w: (levenshtein_damerau(token, w),
                                    -vocabulary[w], w))


def mutate(rng, word):
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    ops = rng.randint(1, 2)
    for _ in range(ops):
        if not word:
            break
        i = rng.randrange(len(word))
        kind = rng.choice(("delete", "insert", "substitute", "transpose"))
        if kind == "delete":
            word = word[:i] + word[i + 1:]
        elif kind == "insert":
            word = word[:i] + rng.choice(alphabet) + word[i:]
        elif kind == "substitute":
            word = word[:i] + rng.choice(alphabet) + word[i + 1:]
        elif kind == "transpose" and i + 1 < len(word):
            word = word[:i] + word[i + 1] + word[i] + word[i + 2:]
    return word


def test_exhaustive_enumeration_oracle():
    rng = random.Random(17)
    corrector = SymmetricDeleteCorrector(VOCABULARY, max_edit_distance=2)
    for _ in range(300):
        source = rng.choice(sorted(VOCABULARY))
        token = mutate(rng, source)
        assert corrector.candidates(token) == oracle_candidates(
            token, VOCABULARY, 2), token
        if token not in VOCABULARY and token.isalpha():
            assert corrector.correct(token) == oracle_best(
                token, VOCABULARY, 2), token


def test_correct_measures_each_candidate_once(monkeypatch):
    corrector = SymmetricDeleteCorrector(VOCABULARY, max_edit_distance=2)
    measured = Counter()
    distance = spelling.edit_distance

    def counting(a, b):
        measured[a, b] += 1
        return distance(a, b)

    monkeypatch.setattr(spelling, "edit_distance", counting)
    for token in ("chennnai", "flod", "stret", "cheek", "roda"):
        measured.clear()
        best = corrector.correct(token)
        assert best == oracle_best(token, VOCABULARY, 2)
        assert measured and max(measured.values()) == 1, token


def _random_word(rng, alphabet, longest):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, longest)))


def _differential_token(rng, words):
    if words and rng.random() < 0.6:
        token = mutate(rng, rng.choice(words))
    else:
        token = _random_word(rng, "aabbcd", 10)
    if rng.random() < 0.05:
        token += rng.choice("1-")
    token = "".join(c.upper() if rng.random() < 0.2 else c for c in token)
    return token[:10]


def test_matches_reference_corrector():
    rng = random.Random(5)
    cases = 0
    while cases < 21000:
        words = [_random_word(rng, "aabbcd", 7) or "a"
                 for _ in range(rng.randint(1, 30))]
        words += [rng.choice("abcd") for _ in range(rng.randint(0, 2))]
        if rng.random() < 0.2:
            words.append("")
        if rng.random() < 0.5:
            vocabulary = {w: rng.randint(1, 4) for w in words}
        else:
            vocabulary = set(words)
        distance = rng.randint(1, 3)
        got = SymmetricDeleteCorrector(vocabulary, distance)
        want = ReferenceSymmetricDeleteCorrector(vocabulary, distance)
        tokens = ["", rng.choice(words)] + [
            _differential_token(rng, words) for _ in range(10)]
        for token in tokens:
            case = (sorted(words), token, distance)
            assert got.candidates(token) == want.candidates(token), case
            assert got.correct(token) == want.correct(token), case
        cases += len(tokens)


def _random_text(rng, alphabet, shortest, longest):
    return "".join(rng.choice(alphabet)
                   for _ in range(rng.randint(shortest, longest)))


def _edited(rng, word, alphabet):
    """word after one to four random edits, transpositions included."""
    for _ in range(rng.randint(1, 4)):
        i = rng.randint(0, len(word))
        kind = rng.choice(("delete", "insert", "substitute", "transpose",
                           "repeat"))
        if kind == "insert":
            word = word[:i] + rng.choice(alphabet) + word[i:]
        elif i == len(word):
            continue
        elif kind == "delete":
            word = word[:i] + word[i + 1:]
        elif kind == "substitute":
            word = word[:i] + rng.choice(alphabet) + word[i + 1:]
        elif kind == "repeat":
            word = word[:i] + word[i] * rng.randint(2, 3) + word[i + 1:]
        elif i + 1 < len(word):
            word = word[:i] + word[i + 1] + word[i] + word[i + 2:]
    return word


def test_edit_distance_matches_oracle():
    rng = random.Random(23)
    pairs = [("", ""), ("", "a"), ("abc", ""), ("ab", "ba"), ("ca", "abc"),
             ("aaaa", "aa"), ("abab", "baba")]
    for _ in range(6000):
        alphabet = rng.choice(("ab", "abc", "abcdefghijklmnopqrstuvwxyz"))
        a = _random_word(rng, alphabet, 12)
        b = (_edited(rng, a, alphabet) if rng.random() < 0.6
             else _random_word(rng, alphabet, 12))
        pairs.append((a, b))
    for _ in range(150):
        # past one 64-bit word: the bit vectors are plain Python ints
        alphabet = rng.choice(("ab", "abcd", "abcdefghij"))
        a = _random_text(rng, alphabet, 65, 80)
        b = (_edited(rng, a, alphabet) if rng.random() < 0.6
             else _random_text(rng, alphabet, 65, 80))
        pairs.append((a, b))
    for a, b in pairs:
        want = levenshtein_damerau(a, b)
        assert spelling.edit_distance(a, b) == want, (a, b)
        assert spelling.edit_distance(b, a) == want, (b, a)


def _assert_matches_reference(rng, words, tokens, distance):
    vocabulary = ({w: rng.randint(1, 4) for w in words}
                  if rng.random() < 0.5 else set(words))
    got = SymmetricDeleteCorrector(vocabulary, distance)
    want = ReferenceSymmetricDeleteCorrector(vocabulary, distance)
    for token in tokens:
        case = (sorted(words), token, distance)
        assert got.candidates(token) == want.candidates(token), case
        assert got.correct(token) == want.correct(token), case


def test_long_words_match_reference_corrector():
    # words longer than the indexed prefix: candidates differing from the
    # token only past it, or in both the prefix and the rest
    rng = random.Random(29)
    for _ in range(150):
        words = [_random_text(rng, "abc", 8, 14)
                 for _ in range(rng.randint(1, 25))]
        distance = rng.randint(1, 3)
        tokens = [rng.choice(words)] + [
            _edited(rng, rng.choice(words), "abcd")[:16] for _ in range(12)]
        tokens += [_random_word(rng, "abc", 16) for _ in range(3)]
        _assert_matches_reference(rng, words, tokens, distance)


def test_prefix_is_exact_beyond_default_length():
    # at distances 7 and 8 the indexed prefix must outgrow PREFIX_LENGTH:
    # a token whose first 7 characters all differ still has to be found
    rng = random.Random(31)
    for distance in (7, 8):
        for _ in range(4):
            words = [_random_text(rng, "abc", 9, 12)
                     for _ in range(rng.randint(3, 8))]
            tokens = []
            for _ in range(6):
                word = rng.choice(words)
                cut = rng.randint(1, distance)
                tokens.append(_random_text(rng, "xyz", cut, cut) + word[cut:])
                tokens.append(_edited(rng, word, "abcx"))
            _assert_matches_reference(rng, words, tokens, distance)
