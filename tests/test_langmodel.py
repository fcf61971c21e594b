import random

import pytest

from locspot import (
    GazetteerEntry,
    build_gazetteer,
    compute_model,
    sequence_probability,
    valid_ngram,
)
from locspot.errors import DataError
from locspot.gazetteer import PREFIX

from conftest import build_from_names
from oracles import brute_force_probability, random_names


def model_for(*names):
    gazetteer = build_from_names([(f"n{i}", n) for i, n in enumerate(names)])
    return gazetteer, compute_model(gazetteer)


# ---------------------------------------------------------------- counting

def test_texas_ave_counts():
    _, model = model_for("Texas Ave")
    assert model.counts.unigram_counts == {"texas": 1, "ave": 1}
    assert model.counts.bigram_cfd == {"texas": {"ave": 1}}
    assert model.counts.trigram_cfd == {}


def test_single_unigram_gazetteer():
    gazetteer = build_gazetteer(
        [GazetteerEntry("x", "A")], set(), set(), set())
    model = compute_model(gazetteer)
    assert model.counts.unigram_counts == {"a": 1}
    assert model.counts.bigram_cfd == {}


def test_toy_mle_numbers():
    _, model = model_for("New York", "York Road")
    assert model.unigram_p["york"] == pytest.approx(2 / 4)
    assert model.bigram_count("new", "york") / model.unigram_count("new") == 1.0
    # conditional against the unigram context count, not the row total
    assert (model.bigram_count("york", "road")
            / model.unigram_count("york")) == pytest.approx(1 / 2)


def test_prefixes_are_proper_token_prefixes():
    gazetteer, model = model_for("New Avadi Road", "Texas")
    codes = gazetteer.variants.codes
    assert {s for s, code in codes.items() if code & PREFIX} == {
        "new", "new avadi"}
    assert model.vocabulary == {"new", "avadi", "road", "texas"}
    # the counts and MLE tables are derived only when read
    assert not {"counts", "unigram_p", "cpd"} & set(vars(model))


def test_empty_gazetteer_rejected():
    gazetteer = build_gazetteer([], set(), set(), set())
    with pytest.raises(DataError):
        compute_model(gazetteer)


# ------------------------------------------------------------- probability

def test_sequence_probability_new_york():
    _, model = model_for("New York", "York Road")
    assert sequence_probability(model, ["new", "york"]) == pytest.approx(0.25)


def test_unknown_token_probability_zero():
    _, model = model_for("New York", "York Road")
    assert sequence_probability(model, ["is"]) == 0.0
    assert sequence_probability(model, ["new", "is"]) == 0.0
    assert sequence_probability(model, ["is", "york"]) == 0.0


def test_stored_variants_have_positive_probability(mini_gazetteer, mini_model):
    for surface in mini_gazetteer.variants:
        assert sequence_probability(mini_model, surface.split()) > 0.0


def test_empty_sequence_is_error():
    _, model = model_for("New York")
    with pytest.raises(ValueError):
        sequence_probability(model, [])


# -------------------------------------------------------------- valid_ngram

def test_valid_ngram_examples():
    _, model = model_for("Texas Ave", "Texas", "Houston Street")
    assert valid_ngram(model, "texas ave")
    assert valid_ngram(model, "Texas Ave")  # case-insensitive
    assert not valid_ngram(model, "is closed")
    assert not valid_ngram(model, "")
    assert not valid_ngram(model, "   ")


def test_gazetteer_closure(mini_gazetteer, mini_model):
    for surface in mini_gazetteer.variants:
        assert valid_ngram(mini_model, surface)


# ---------------------------------------------------------------- oracles

def all_probe_sequences(gazetteer, rng, max_len=5, extra=200):
    """Contiguous k-grams of every variant plus random probes."""
    probes = []
    vocab = sorted({w for s in gazetteer.variants for w in s.split()})
    for surface in gazetteer.variants:
        words = surface.split()
        for k in range(1, min(len(words), max_len) + 1):
            for i in range(len(words) - k + 1):
                probes.append(words[i:i + k])
    for _ in range(extra):
        k = rng.randint(1, max_len)
        pool = vocab + ["zzgram", "qwop"]
        probes.append([rng.choice(pool) for _ in range(k)])
    return probes


def test_brute_force_oracle_on_random_gazetteers():
    rng = random.Random(42)
    for round_index in range(50):
        names = random_names(rng, rng.randint(1, 20))
        gazetteer = build_from_names(
            [(f"r{round_index}.{i}", n) for i, n in enumerate(names)])
        if not gazetteer.variants:
            continue
        model = compute_model(gazetteer)
        surfaces = list(gazetteer.variants)
        for probe in all_probe_sequences(gazetteer, rng):
            expected = brute_force_probability(surfaces, probe)
            actual = sequence_probability(model, probe)
            assert actual == pytest.approx(expected, abs=1e-12), probe


def test_prefix_monotonicity():
    rng = random.Random(11)
    for round_index in range(20):
        names = random_names(rng, rng.randint(2, 20))
        gazetteer = build_from_names(
            [(f"p{round_index}.{i}", n) for i, n in enumerate(names)])
        if not gazetteer.variants:
            continue
        model = compute_model(gazetteer)
        for probe in all_probe_sequences(gazetteer, rng, extra=50):
            if sequence_probability(model, probe) > 0:
                for k in range(1, len(probe)):
                    assert sequence_probability(model, probe[:k]) > 0


def test_normalization_invariants(mini_model):
    assert sum(mini_model.unigram_p.values()) == pytest.approx(1.0, abs=1e-9)
    for row in mini_model.cpd["bigram"].values():
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)
    for row in mini_model.cpd["trigram"].values():
        assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)


def test_bigram_rows_bounded_by_unigram_occurrences(mini_model):
    counts = mini_model.counts
    for w1, row in counts.bigram_cfd.items():
        assert sum(row.values()) <= counts.unigram_counts[w1]
