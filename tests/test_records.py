"""The package's records: read-only where they were frozen, no shared defaults,
and an import of the CLI that generates no code for them."""

import dataclasses
import functools
import importlib
import inspect
import json
import pathlib
import subprocess
import sys
import typing
from fractions import Fraction

import pytest

from chronosynth.automaton import ParityAutomaton
from chronosynth.continuous_synth import SynthStats, Violation
from chronosynth.definable_synth import DefinableResult
from chronosynth.discrete_game import MealyMachine, MooreCounterMachine, SolveResult
from chronosynth.game_sim import Accept, InterruptMove, PlayOutcome, TraceStep
from chronosynth.omega_word import LassoWord
from chronosynth.state_monoid import MonoidContext

ROOT = pathlib.Path(__file__).resolve().parents[1]

# the records that stay dataclasses; tests call dataclasses.replace or
# dataclasses.fields on TimedPlay and ParityAutomaton
KEPT_DATACLASSES = {"LassoWord", "ParityAutomaton", "TimedPlay"}
MODULES = {
    "chronosynth",
    "chronosynth.arena",
    "chronosynth.automaton",
    "chronosynth.cli",
    "chronosynth.continuous_synth",
    "chronosynth.definable_synth",
    "chronosynth.discrete_game",
    "chronosynth.game_sim",
    "chronosynth.omega_word",
    "chronosynth.state_monoid",
}

FROZEN_RECORDS = [
    ParityAutomaton.from_transitions(("q",), ("0",), ("0",), {("q", "0", "0"): "q"}, "q", {"q": 0}),
    MonoidContext(("q",), {"0": {("q", "q")}}),
    MealyMachine(("s",), "s", {("s", "0"): ("s", "0")}),
    MooreCounterMachine(("s",), "s", {"s": "0"}, {("s", "0"): "s"}),
    SolveResult("output", None, None, frozenset()),
    DefinableResult(True, None, None),
    Violation("B", priority=1),
    LassoWord(("0",), ("1",)),
    Accept(),
    InterruptMove(Fraction(1, 2), "1", "left"),
    TraceStep("I accept", None, Fraction(0)),
    PlayOutcome("O", "parity_even"),
]


def _attributes(record):
    if dataclasses.is_dataclass(record):
        return [f.name for f in dataclasses.fields(record)]
    return list(getattr(record, "_fields", None) or record.__slots__)


@pytest.mark.parametrize("record", FROZEN_RECORDS, ids=lambda r: type(r).__name__)
def test_frozen_records_reject_assignment(record):
    for name in _attributes(record) + ["extra"]:
        before = getattr(record, name, None)
        with pytest.raises(AttributeError):
            setattr(record, name, "changed")
        assert getattr(record, name, None) is before, name
        if name != "extra":
            with pytest.raises(AttributeError):
                delattr(record, name)


def test_defaults_hold():
    violation = Violation("A")
    assert (violation.node, violation.priority, violation.cycle, violation.entry) == (None, -1, (), ())
    assert InterruptMove(Fraction(1), "0").kind == ""
    assert DefinableResult(False, None, None).losing_region == frozenset()
    stats = SynthStats()
    assert (stats.d_bound, stats.solve_calls, stats.game_nodes, stats.game_edges) == (1, 0, 0, 0)


def test_synth_stats_do_not_share_their_dicts():
    first, second = SynthStats(), SynthStats()
    first.class_counts["0"] = 3
    first.up_sizes["0"] = 5
    assert (second.class_counts, second.up_sizes) == ({}, {})
    assert first.class_counts is not second.class_counts and first.up_sizes is not second.up_sizes


def test_cli_import_builds_at_most_the_kept_dataclasses():
    # each dataclass compiles its generated methods at import; count the
    # classes in a fresh interpreter, which is deterministic where a time is not.
    # -S leaves site-packages off the path, so this import is also the check of
    # zero runtime dependencies: cli imports every module, and an import of
    # anything outside the standard library fails here
    code = (
        "import dataclasses, json, sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "names = []\n"
        "process_class = dataclasses._process_class\n"
        "def recording(cls, *args, **kwargs):\n"
        "    names.append(cls.__name__)\n"
        "    return process_class(cls, *args, **kwargs)\n"
        "dataclasses._process_class = recording\n"
        "import chronosynth.cli\n"
        "modules = sorted(m for m in sys.modules if m.partition('.')[0] == 'chronosynth')\n"
        "print(json.dumps([names, modules]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    names, modules = json.loads(proc.stdout)
    assert set(names) <= KEPT_DATACLASSES and len(names) <= len(KEPT_DATACLASSES), names
    # no module is left to a first use
    assert set(modules) == MODULES


def _annotated(module):
    """Every function and class the module defines, and every method of each class."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield obj
        elif inspect.isclass(obj):
            yield obj
            for member in vars(obj).values():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                elif isinstance(member, functools.cached_property):
                    member = member.func
                if inspect.isfunction(member):
                    yield member


@pytest.mark.parametrize("name", sorted(MODULES))
def test_every_annotation_resolves(name):
    # annotations are strings under "from __future__ import annotations";
    # each must name something its module can see
    module = importlib.import_module(name)
    for obj in _annotated(module):
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            pytest.fail(f"{name}.{obj.__qualname__}: {exc}")
