"""The fixture specs, each read from its JSON file under ``fixtures/``."""

import pathlib

from chronosynth.automaton import load_automaton

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def load_fixture(name):
    """The automaton in ``fixtures/<name>.json``."""
    return load_automaton(FIXTURES / f"{name}.json")
