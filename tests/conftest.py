import os
from pathlib import Path

import pytest

from locspot import (
    ExtractionConfig,
    GazetteerEntry,
    LocationExtractor,
    build_gazetteer,
    compute_model,
)
from locspot.assets import (
    BRACKET_PHRASES,
    CATEGORY_WORDS,
    GAZETTEER_STOPNAMES,
    data_path,
    read_word_list,
)

# child processes (`python -m locspot`, the demos) import the package
# from this checkout too, as pytest's `pythonpath` setting does here
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parent.parent / "src"),
    os.environ.get("PYTHONPATH"),
]))

# Table-5 style mini gazetteer: the five names the golden tweets need
# plus distractors exercising hyphen splits, brackets, and skip-grams.
MINI_NAMES = [
    ("g1", "Oxford School"),
    ("g2", "West Mambalam"),
    ("g3", "New Iberia"),
    ("g4", "Louisiana"),
    ("g5", "Houston"),
    ("g6", "Texas Ave"),
    ("g7", "New Avadi Road"),
    ("g8", "Avadi Road"),
    ("g9", "Cars India - Adyar"),
    ("g10", "Balalok Matriculation Higher Secondary School"),
    ("g11", "Ganapathy Colony"),
    ("g12", "Scenic Road (Frontage Road)"),
    ("g13", "Little Rock School (historical)"),
    ("g14", "Pilot - Hammond"),
    ("g15", "Hammond"),
    ("g16", "Boring"),
]


def shipped_dictionaries():
    return {
        "stopname_list": read_word_list(data_path(GAZETTEER_STOPNAMES)),
        "phrase_list": read_word_list(data_path(BRACKET_PHRASES)),
        "category_words": read_word_list(data_path(CATEGORY_WORDS)),
    }


def build_from_names(names):
    entries = [GazetteerEntry(i, n) for i, n in names]
    return build_gazetteer(entries, **shipped_dictionaries())


@pytest.fixture(scope="session")
def mini_gazetteer():
    return build_from_names(MINI_NAMES)


@pytest.fixture(scope="session")
def mini_model(mini_gazetteer):
    return compute_model(mini_gazetteer)


@pytest.fixture(scope="session")
def extraction_config():
    return ExtractionConfig.load()


@pytest.fixture(scope="session")
def mini_extractor(mini_model, mini_gazetteer, extraction_config):
    return LocationExtractor(mini_model, mini_gazetteer, extraction_config)
