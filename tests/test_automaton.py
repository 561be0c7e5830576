"""Parity automaton runs, acceptance, the loader's conventions, and monitor products."""

import copy
import dataclasses
import itertools
import json
import pickle
import random
import re

import pytest

from chronosynth.automaton import (
    MAX_EVEN,
    MIN_EVEN,
    SINK,
    AlphabetMismatchError,
    AutomatonError,
    InputDomainError,
    ParityAutomaton,
    accepts,
    automaton_from_json,
    product_with_monitor,
    run_over,
)
from chronosynth.definable_synth import build_psi_star_monitor, solve_definable, square_alphabet
from chronosynth.discrete_game import solve
from chronosynth.omega_word import LassoWord, inf_set

from fixture_specs import FIXTURES
from oracles import reference_automaton_from_json, reference_product


def build(states, sigma_in, sigma_out, step, initial, priority):
    transition = {
        (q, a, b): step(q, a, b) for q in states for a in sigma_in for b in sigma_out
    }
    return ParityAutomaton.from_transitions(
        states=tuple(states),
        sigma_in=tuple(sigma_in),
        sigma_out=tuple(sigma_out),
        transition=transition,
        initial=initial,
        priority=dict(priority),
    )


def one_state(priority=0):
    return build(["q"], ["0", "1"], ["0", "1"], lambda q, a, b: "q", "q", {"q": priority})


def toggler():
    # toggles state exactly on letter ('1','0')
    def step(q, a, b):
        if (a, b) == ("1", "0"):
            return "s" if q == "r" else "r"
        return q

    return build(["r", "s"], ["0", "1"], ["0", "1"], step, "r", {"r": 0, "s": 1})


def random_automaton(rng, n_states=3):
    states = [f"q{i}" for i in range(n_states)]
    sigma_in, sigma_out = ("0", "1"), ("0", "1")
    transition = {
        (q, a, b): rng.choice(states) for q in states for a in sigma_in for b in sigma_out
    }
    priority = {q: rng.randint(0, 3) for q in states}
    return ParityAutomaton.from_transitions(
        tuple(states), sigma_in, sigma_out, transition, states[0], priority
    )


def spec_json(a, convention):
    """The spec file of ``a``, its priorities written as they are, under ``convention``."""
    return {
        "states": list(a.states), "sigma_in": list(a.sigma_in), "sigma_out": list(a.sigma_out),
        "initial": a.initial, "priority": dict(a.priority), "convention": convention,
        "transitions": [{"from": q, "in": x, "out": b, "to": t} for (q, x, b), t in a.transition.items()],
    }


def literal_accepts(convention, a, word):
    """Acceptance read off ``a``'s own priorities under ``convention``: the least
    (min-even) or greatest (max-even) priority the run sees infinitely often is even."""
    seen = [a.priority[q] for q in inf_set(run_over(a, word))]
    return (min if convention == MIN_EVEN else max)(seen) % 2 == 0


def random_word(rng, max_len=4):
    letters = [(a, b) for a in "01" for b in "01"]
    u = tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))
    v = tuple(rng.choice(letters) for _ in range(rng.randint(1, max_len)))
    return LassoWord(u, v)


def unrolled_inf(a, word, steps):
    """Oracle: states seen in the last quarter of a long unrolled simulation."""
    cur = a.initial
    visited = [cur]
    for i in range(steps):
        ain, aout = word.letter_at(i)
        cur = a.transition[(cur, ain, aout)]
        visited.append(cur)
    return set(visited[-max(1, steps // 4) :])


def test_run_one_state_constant():
    a = one_state()
    w = LassoWord((("0", "1"),), (("1", "1"),))
    run = run_over(a, w)
    assert inf_set(run) == {"q"}
    assert run.letter_at(0) == "q"


def test_run_toggler_alternates():
    # hand simulation: r -(1,0)-> s -(1,0)-> r ...
    a = toggler()
    w = LassoWord((), (("1", "0"),))
    run = run_over(a, w)
    assert run.unfold(6) == ("r", "s", "r", "s", "r", "s")


def test_run_matches_unrolled_simulation():
    rng = random.Random(5)
    for _ in range(60):
        a = random_automaton(rng)
        w = random_word(rng)
        run = run_over(a, w)
        steps = 10 * (len(w.prefix) + len(w.period)) * len(a.states) + 20
        cur = a.initial
        for i in range(steps):
            assert run.letter_at(i) == cur
            ain, aout = w.letter_at(i)
            cur = a.transition[(cur, ain, aout)]
        assert inf_set(run) == unrolled_inf(a, w, 40 * len(a.states))


def test_run_deterministic():
    rng = random.Random(9)
    a = random_automaton(rng)
    w = random_word(rng)
    assert run_over(a, w) == run_over(a, w)


def test_letter_outside_alphabet_rejected():
    a = one_state()
    with pytest.raises(InputDomainError):
        run_over(a, LassoWord((), (("2", "0"),)))
    with pytest.raises(InputDomainError):
        run_over(a, LassoWord((), ("x",)))


def test_accepts_one_state_priorities():
    w = LassoWord((), (("0", "0"),))
    assert accepts(one_state(0), w)
    assert not accepts(one_state(1), w)


def test_accepts_min_vs_max_convention():
    # run with Inf = {p: 1, q: 2}: a min-even file rejects it, a max-even file accepts it
    def step(q, a, b):
        return "q" if q == "p" else "p"

    a = build(["p", "q"], ["0"], ["0"], step, "p", {"p": 1, "q": 2})
    for convention, expected in ((MIN_EVEN, False), (MAX_EVEN, True)):
        assert accepts(automaton_from_json(spec_json(a, convention)), LassoWord((), (("0", "0"),))) is expected


def test_min_even_file_loads_with_mirrored_priorities():
    def step(q, a, b):
        return "q" if (a, b) == ("0", "0") else "p"

    a = build(["p", "q"], ["0", "1"], ["0"], step, "p", {"p": 0, "q": 1})
    assert automaton_from_json(spec_json(a, MIN_EVEN)).priority == {"p": 2, "q": 1}
    b = build(["p", "q", "r"], ["0"], ["0"], lambda q, a_, b_: "r", "p", {"p": 1, "q": 2, "r": 3})
    assert automaton_from_json(spec_json(b, MIN_EVEN)).priority == {"p": 3, "q": 2, "r": 1}
    # a max-even file, or one without the field, loads as it is written
    assert automaton_from_json(spec_json(b, MAX_EVEN)) == b
    data = spec_json(b, MIN_EVEN)
    del data["convention"]
    assert automaton_from_json(data) == automaton_from_json(spec_json(b, MIN_EVEN))


def test_min_even_file_keeps_its_language_random():
    rng = random.Random(23)
    for _ in range(50):
        convention = rng.choice((MIN_EVEN, MAX_EVEN))
        a = random_automaton(rng)
        loaded = automaton_from_json(spec_json(a, convention))
        w = random_word(rng)
        assert accepts(loaded, w) == literal_accepts(convention, a, w)


def test_min_even_file_keeps_its_language_on_small_lassos():
    # exhaustive over 2-letter product alphabets, |u|, |v| <= 3
    rng = random.Random(1)
    letters = [("0", "0"), ("1", "0")]
    a = random_automaton(rng, n_states=2)
    a = ParityAutomaton.from_transitions(
        a.states, ("0", "1"), ("0",),
        {(q, x, "0"): a.transition[(q, x, "0")] for q in a.states for x in ("0", "1")},
        a.initial, a.priority,
    )
    loaded = automaton_from_json(spec_json(a, MIN_EVEN))
    for ulen in range(0, 4):
        for vlen in range(1, 4):
            for u in itertools.product(letters, repeat=ulen):
                for v in itertools.product(letters, repeat=vlen):
                    w = LassoWord(u, v)
                    assert accepts(loaded, w) == literal_accepts(MIN_EVEN, a, w)


def safety_monitor(sigma_in, sigma_out, rejects=lambda a, b: False) -> ParityAutomaton:
    """A safety monitor that moves from 'ok' to the sink 'dead' on the letters it rejects."""
    transition = {("dead", a, b): "dead" for a in sigma_in for b in sigma_out}
    transition.update(
        {("ok", a, b): "dead" if rejects(a, b) else "ok" for a in sigma_in for b in sigma_out}
    )
    return ParityAutomaton.from_transitions(
        ("ok", "dead"), sigma_in, sigma_out, transition, "ok", {"ok": 0, "dead": 1}
    )


def accept_all_monitor(sigma_in, sigma_out) -> ParityAutomaton:
    return safety_monitor(sigma_in, sigma_out)


def test_product_accept_all_monitor_is_identity_on_language():
    rng = random.Random(31)
    for _ in range(50):
        a = random_automaton(rng)
        p = product_with_monitor(a, accept_all_monitor(a.sigma_in, a.sigma_out))
        w = random_word(rng)
        assert accepts(p, w) == accepts(a, w)


def test_product_with_letter_rejecting_monitor():
    a = one_state(0)
    # monitor rejects any word containing letter ('1', '1')
    mon = safety_monitor("01", "01", lambda x, y: (x, y) == ("1", "1"))
    p = product_with_monitor(a, mon)
    assert accepts(p, LassoWord((), (("0", "0"),)))
    assert not accepts(p, LassoWord((("1", "1"),), (("0", "0"),)))
    # the sink's priority tops an even one
    p2 = product_with_monitor(one_state(2), mon)
    assert accepts(p2, LassoWord((), (("0", "0"),)))
    assert not accepts(p2, LassoWord((("1", "1"),), (("0", "0"),)))


@pytest.mark.parametrize(
    "sigma_in, sigma_out",
    [(("0",), ("0", "1")), (("0", "1"), ("0", "1", "2")), (("1", "0"), ("0", "1")), (("0", "1"), ("1", "0"))],
    ids=["fewer", "more", "in-reordered", "out-reordered"],
)
def test_product_with_a_monitor_over_other_alphabets_is_an_alphabet_mismatch(sigma_in, sigma_out):
    # the tables are composed slot by slot, so the order of the letters counts too
    with pytest.raises(AlphabetMismatchError, match="monitor alphabets"):
        product_with_monitor(one_state(0), accept_all_monitor(sigma_in, sigma_out))


# each fault set raises what the constructor's one walk meets first: the
# fields, then per state in order its priority and its transitions, then
# repeated names, then keys outside the triples
CONSTRUCTOR_FAULTS = {
    ("initial",): "initial state not among states",
    ("transition",): "transition missing at ('p', '1', '0')",
    ("priority",): "priority missing for state 'q'",
    ("negative",): "priorities must be nonnegative",
    ("target",): "transition target 'nowhere' not a state",
    ("repeat",): "states, sigma_in or sigma_out repeats an entry",
    ("outside",): "transition key ('zz', '0', '0') outside states x sigma_in x sigma_out",
    ("initial", "transition"): "initial state not among states",
    # a missing transition at an earlier state before a missing priority at a later one
    ("priority", "transition"): "transition missing at ('p', '1', '0')",
    ("priority", "target"): "priority missing for state 'q'",
    ("negative", "transition"): "transition missing at ('p', '1', '0')",
    # a repeated state is found only after the walk over every triple
    ("repeat", "transition"): "transition missing at ('p', '1', '0')",
    ("repeat", "target"): "transition target 'nowhere' not a state",
    ("outside", "repeat"): "states, sigma_in or sigma_out repeats an entry",
    ("outside", "target"): "transition target 'nowhere' not a state",
}


@pytest.mark.parametrize("faults", sorted(CONSTRUCTOR_FAULTS), ids="+".join)
def test_constructor_faults_raise_in_the_walk_order(faults):
    states = ("p", "q", "p") if "repeat" in faults else ("p", "q")
    transition = {(q, x, y): q for q in "pq" for x in "01" for y in "01"}
    priority = {"p": 0, "q": -1 if "negative" in faults else 1}
    if "transition" in faults:
        del transition[("p", "1", "0")]
    if "priority" in faults:
        del priority["q"]
    if "target" in faults:
        transition[("q", "0", "0")] = "nowhere"
    if "outside" in faults:
        transition[("zz", "0", "0")] = "p"
    initial = "nowhere" if "initial" in faults else "p"
    with pytest.raises(AutomatonError) as info:
        ParityAutomaton.from_transitions(states, ("0", "1"), ("0", "1"), transition, initial, priority)
    assert type(info.value) is AutomatonError and str(info.value) == CONSTRUCTOR_FAULTS[faults]


def test_a_named_transition_dict_fails_when_the_automaton_is_built():
    # the constructor takes the table, by keyword, so the named dict of the
    # old positional call is refused at once, not on the first step
    t = toggler()
    with pytest.raises(TypeError):
        ParityAutomaton(t.states, t.sigma_in, t.sigma_out, t.transition, t.initial, t.priority)
    with pytest.raises(TypeError, match="'transition'"):
        ParityAutomaton(
            states=t.states, sigma_in=t.sigma_in, sigma_out=t.sigma_out,
            transition=t.transition, initial=t.initial, priority=t.priority,
        )


def test_transition_keys_outside_the_triples_are_rejected():
    transition = {(q, x, y): q for q in "pq" for x in "01" for y in "01"}
    transition[("zz", "0", "0")] = "p"
    transition[("p", "9", "0")] = "nowhere"
    with pytest.raises(AutomatonError) as info:
        ParityAutomaton.from_transitions(("p", "q"), ("0", "1"), ("0", "1"), transition, "p", {"p": 0, "q": 1})
    assert str(info.value) == "transition key ('zz', '0', '0') outside states x sigma_in x sigma_out"


@pytest.mark.parametrize("states, sigma_in", [(("p", "q", "p"), ("0", "1")), (("p", "q"), ("0", "1", "0"))])
@pytest.mark.parametrize("outside", [0, 4])
def test_repeated_states_or_letters_are_rejected(states, sigma_in, outside):
    transition = {(q, x, y): q for q in "pq" for x in "01" for y in "01"}
    # with 4 keys outside the triples the key count equals the count of listed triples
    transition.update({("zz", str(i), "0"): "p" for i in range(outside)})
    with pytest.raises(AutomatonError, match="^states, sigma_in or sigma_out repeats an entry$"):
        ParityAutomaton.from_transitions(states, sigma_in, ("0", "1"), transition, "p", {"p": 0, "q": 1})


@pytest.mark.parametrize("kind", [list, tuple, iter])
def test_json_transitions_may_be_any_iterable(kind):
    data = {
        "states": ["a", "b"],
        "sigma_in": ["0", "1"],
        "sigma_out": ["0"],
        "initial": "a",
        "priority": {"a": 0, "b": 1},
        "transitions": [{"from": q, "in": x, "out": "0", "to": "b"} for q in "ab" for x in "01"],
    }
    expected = automaton_from_json(data)
    data["transitions"] = kind(data["transitions"])
    a = automaton_from_json(data)
    assert a == expected and SINK not in a.states


def test_json_roundtrip_and_sink_completion():
    data = {
        "states": ["a", "b"],
        "sigma_in": ["0", "1"],
        "sigma_out": ["0"],
        "initial": "a",
        "priority": {"a": 0, "b": 1},
        "convention": "min_even",
        "transitions": [
            {"from": "a", "in": "0", "out": "0", "to": "b"},
        ],
    }
    a = automaton_from_json(data)
    assert SINK in a.states
    assert a.priority[SINK] % 2 == 1
    assert a.transition[("a", "1", "0")] == SINK
    assert a.transition[(SINK, "0", "0")] == SINK


@pytest.mark.parametrize("value", [1.7, 2.0, True, False, "2", None, [1]])
def test_json_rejects_non_integer_priorities(value):
    data = {
        "states": ["a"],
        "sigma_in": ["0"],
        "sigma_out": ["0"],
        "initial": "a",
        "priority": {"a": value},
        "transitions": [{"from": "a", "in": "0", "out": "0", "to": "a"}],
    }
    with pytest.raises(AutomatonError, match="not an integer"):
        automaton_from_json(json.dumps(data))


@pytest.mark.parametrize(
    "convention, priorities, sink, product_sink",
    [
        # a min-even file's sink gets 1 and is then mirrored with M = 4, to 3;
        # mirroring first would give it 5, as the monitor product does over the
        # mirrored priorities; arena JSON prints the 3
        (MIN_EVEN, [0, 4], 3, 5),
        (MAX_EVEN, [0, 1], 1, 1),
        (MAX_EVEN, [0, 2], 3, 3),
        (MAX_EVEN, [5, 2], 5, 5),
    ],
)
def test_loader_and_monitor_product_give_the_sink_one_priority(convention, priorities, sink, product_sink):
    data = {
        "states": ["a", "b"],
        "sigma_in": ["0", "1"],
        "sigma_out": ["0"],
        "initial": "a",
        "priority": dict(zip("ab", priorities)),
        "convention": convention,
        "transitions": [{"from": q, "in": "0", "out": "0", "to": q} for q in "ab"],
    }
    assert automaton_from_json(data).priority[SINK] == sink
    data["transitions"] = [{"from": q, "in": x, "out": "0", "to": q} for q in "ab" for x in "01"]
    complete = automaton_from_json(data)
    prod = product_with_monitor(complete, accept_all_monitor(complete.sigma_in, complete.sigma_out))
    assert {prod.priority[(q, "dead")] for q in "ab"} == {product_sink}


@pytest.mark.parametrize("state", [1, ["a"]], ids=["int", "list"])
def test_json_rejects_states_that_are_not_strings(state):
    data = {
        "states": [state, "q"],
        "sigma_in": ["0"],
        "sigma_out": ["0"],
        "initial": "q",
        "priority": {"q": 0},
        "transitions": [{"from": "q", "in": "0", "out": "0", "to": "q"}],
    }
    with pytest.raises(AutomatonError, match="is not a string"):
        automaton_from_json(json.dumps(data))


NOT_A_WORD = "is empty or contains whitespace"


@pytest.mark.parametrize(
    "letter, problem",
    [
        (0, "is not a string"),
        (True, "is not a string"),
        (None, "is not a string"),
        ("", NOT_A_WORD),
        (" 1", NOT_A_WORD),
        ("a\tb", NOT_A_WORD),
    ],
    ids=["int", "bool", "null", "empty", "space", "tab"],
)
@pytest.mark.parametrize("field", ["sigma_in", "sigma_out"])
def test_json_rejects_letters_that_are_not_strings(field, letter, problem):
    data = {
        "states": ["q"],
        "sigma_in": ["0"],
        "sigma_out": ["0"],
        "initial": "q",
        "priority": {"q": 0},
        "transitions": [],
    }
    data[field] = ["1", letter]
    with pytest.raises(AutomatonError, match=re.escape(f"{field} entry {letter!r} {problem}")):
        automaton_from_json(json.dumps(data))


ONE_STATE = {
    "states": ["q"],
    "sigma_in": ["0", "1"],
    "sigma_out": ["0"],
    "initial": "q",
    "priority": {"q": 0},
    "transitions": [{"from": "q", "in": x, "out": "0", "to": "q"} for x in "01"],
}


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("states", "q", "states is not a JSON array"),
        ("states", {"q": 5}, "states is not a JSON array"),
        ("sigma_in", "01", "sigma_in is not a JSON array"),
        ("sigma_out", "0", "sigma_out is not a JSON array"),
        ("states", ["q", "q"], "states repeats an entry"),
        ("sigma_in", ["0", "1", "0"], "sigma_in repeats an entry"),
        ("sigma_out", ["0", "0"], "sigma_out repeats an entry"),
        # an undeclared key used to set the priority of the added sink
        ("priority", {"q": 0, "zz": 9}, "priority of undeclared state 'zz'"),
    ],
    ids=["states_str", "states_obj", "sigma_in_str", "sigma_out_str",
         "states_repeat", "sigma_in_repeat", "sigma_out_repeat", "priority_undeclared"],
)
def test_json_rejects_names_that_are_not_distinct_declared_entries(field, value, message):
    data = dict(ONE_STATE, transitions=ONE_STATE["transitions"][1:], **{field: value})
    with pytest.raises(AutomatonError, match=message):
        automaton_from_json(json.dumps(data))


def test_json_rejects_bad_references():
    data = {
        "states": ["a"],
        "sigma_in": ["0"],
        "sigma_out": ["0"],
        "initial": "a",
        "priority": {"a": 0},
        "transitions": [{"from": "z", "in": "0", "out": "0", "to": "a"}],
    }
    with pytest.raises(AutomatonError):
        automaton_from_json(data)


def _family_spec(family="large", n_states=300, letters=("0", "1"), max_priority=7):
    """Member 0 of one of the bench's families, as its spec file reads: by
    default the 300-state ``large`` family, or the 40-state ``squared`` one
    over the squared letters of 0 and 1."""
    rng = random.Random(f"{family}/0")
    states = [f"q{i}" for i in range(n_states)]
    priority = {q: rng.randint(0, max_priority) for q in states}
    transitions = [
        {"from": q, "in": a, "out": b, "to": rng.choice(states)} for q in states for a in letters for b in letters
    ]
    return {
        "states": states, "sigma_in": list(letters), "sigma_out": list(letters), "initial": "q0",
        "priority": priority, "convention": MAX_EVEN, "transitions": transitions,
    }


def _squared_family_spec():
    return _family_spec("squared", 40, square_alphabet("01"), 5)


# values a mutation writes besides the spec's own names: unhashable, non-str, empty or odd names
ODD_VALUES = (None, True, False, 0, -1, 3, 2.5, "", " ", "a b", "(", "zz", SINK, "max_even", [], ["q0"], {}, {"q0": 1})
FIELDS = ("states", "sigma_in", "sigma_out", "initial", "priority", "convention", "transitions")


def _mutated(spec, rng):
    """A copy of the JSON spec with one or two seeded faults; the input stays as it was."""
    data = dict(spec)
    names = list(spec["states"]) + list(spec["sigma_in"]) + list(spec["sigma_out"]) + [SINK, "zz"]

    def value():
        return rng.choice(names) if rng.random() < 0.6 else rng.choice(ODD_VALUES)

    for _ in range(rng.randint(1, 2)):
        kind = rng.randrange(8)
        if kind == 0:  # a field replaced or dropped
            key = rng.choice(FIELDS)
            if rng.random() < 0.3:
                data.pop(key, None)
            else:
                data[key] = rng.choice((value(), [value() for _ in range(rng.randint(0, 3))]))
        elif kind <= 3 and isinstance(data.get("transitions"), list) and data["transitions"]:
            entries = data["transitions"] = list(data["transitions"])
            i = rng.randrange(len(entries))
            if kind == 1:  # an entry dropped or repeated
                if rng.random() < 0.5:
                    del entries[i]
                else:
                    entries.insert(rng.randrange(len(entries) + 1), entries[i])
            elif kind == 2:  # an entry's field changed, dropped or pointed at the sink
                entry = entries[i] = dict(entries[i]) if isinstance(entries[i], dict) else {}
                key = rng.choice(("from", "in", "out", "to"))
                if rng.random() < 0.15:
                    entry.pop(key, None)
                else:
                    entry[key] = SINK if key == "to" and rng.random() < 0.3 else value()
            else:  # an entry that is not an object
                entries[i] = rng.choice(ODD_VALUES[:8] + ("from", [1, 2], ["from", "in"]))
        elif kind == 4 and isinstance(data.get("states"), list):  # a state added, dropped or repeated
            states = data["states"] = list(data["states"])
            if rng.random() < 0.5 or not states:
                state = rng.choice((SINK, "zz", value()))
                states.insert(rng.randrange(len(states) + 1), state)
                if state == SINK and isinstance(data.get("priority"), dict) and rng.random() < 0.7:
                    # a declared sink, perhaps also a target
                    data["priority"] = dict(data["priority"], **{SINK: rng.randint(0, 3)})
                    entries = data.get("transitions")
                    if isinstance(entries, list) and entries and isinstance(entries[0], dict) and rng.random() < 0.5:
                        data["transitions"] = [dict(entries[0], to=SINK)] + entries[1:]
            else:
                i = rng.randrange(len(states))
                states.append(states[i]) if rng.random() < 0.3 else states.pop(i)
        elif kind == 5:  # a letter added, dropped, repeated or malformed
            key = rng.choice(("sigma_in", "sigma_out"))
            letters = data[key] = list(data[key]) if isinstance(data.get(key), list) else []
            if rng.random() < 0.4:
                letters.append(rng.choice(("9", "x", value())))
            elif letters:
                i = rng.randrange(len(letters))
                letters.append(letters[i]) if rng.random() < 0.3 else letters.pop(i)
        elif kind == 6 and isinstance(data.get("priority"), dict):  # a priority dropped, added or odd
            priority = data["priority"] = dict(data["priority"])
            q = rng.choice(list(priority) + [SINK, "zz"])
            if rng.random() < 0.3:
                priority.pop(q, None)
            else:
                priority[q] = rng.choice((-1, -4, 0, 9, True, 2.0, "1", None))
        else:  # an initial state or convention that may not be declared
            key = rng.choice(("initial", "convention"))
            data[key] = rng.choice((value(), [value()], MIN_EVEN, MAX_EVEN, "max_odd"))
    return data


def _outcome(load, data):
    try:
        a = load(data)
    except Exception as exc:  # the loaders must fail alike, whatever the error
        return type(exc), str(exc)
    return a, a.table


def test_one_pass_loader_matches_the_two_pass_reference_on_seeded_mutations():
    bases = [json.loads(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))]
    large = _family_spec()
    rng = random.Random(37)
    loaded, completed, declared, messages = 0, 0, 0, []
    for trial in range(4000):
        spec = large if trial % 25 == 0 else rng.choice(bases)
        data = _mutated(spec, rng)
        got = _outcome(automaton_from_json, data)
        assert got == _outcome(reference_automaton_from_json, data), (trial, data)
        if isinstance(got[0], ParityAutomaton):
            loaded += 1
            completed += SINK in got[0].states
            declared += SINK in data["states"]
        else:
            messages.append(got[1])
    # both loaders accept some mutations, complete some to the sink (some
    # declared as a state), and fail every way a spec can on the rest
    assert loaded > 150 and completed > 50 and declared > 10, (loaded, completed, declared)
    for fault in (
        "not a JSON array", "not a string", "repeats an entry", "priority of undeclared state",
        "is not an integer", "transition from undeclared state", "transition letter",
        "duplicate transition", "transition target", "unknown convention",
        "initial state not among states", "priority missing", "priorities must be nonnegative",
    ):
        assert any(fault in message for message in messages), fault


def test_an_undeclared_source_after_an_undeclared_target_wins():
    # targets are checked once every entry is read, so the later entry's fault is the one reported
    data = dict(ONE_STATE, transitions=[
        {"from": "q", "in": "0", "out": "0", "to": "zz"},
        {"from": "yy", "in": "0", "out": "0", "to": "q"},
    ])
    for load in (automaton_from_json, reference_automaton_from_json):
        with pytest.raises(AutomatonError, match="^transition from undeclared state 'yy'$"):
            load(data)


def test_solving_a_loaded_spec_leaves_its_transitions_unnamed():
    # solve-discrete and definable read only the tables
    large = automaton_from_json(_family_spec())
    solve(large)
    assert "transition" not in large.__dict__
    squared = automaton_from_json(_squared_family_spec())
    solve_definable(squared)
    assert "transition" not in squared.__dict__
    product = product_with_monitor(squared, build_psi_star_monitor(squared.sigma_in, squared.sigma_out))
    solve(product)
    assert "transition" not in product.__dict__


def _table_built(kind):
    """A fresh automaton built from a table, and its twin built from named transitions."""
    if kind == "loaded":
        data = _family_spec()
        return automaton_from_json(data), reference_automaton_from_json(data)
    if kind == "converted":  # a min-even file, its priorities mirrored by the loader
        t = toggler()
        twin = ParityAutomaton.from_transitions(
            t.states, t.sigma_in, t.sigma_out, t.transition, t.initial, {"r": 2, "s": 1}
        )
        return automaton_from_json(spec_json(t, MIN_EVEN)), twin
    monitor = accept_all_monitor(("0", "1"), ("0", "1"))
    return product_with_monitor(toggler(), monitor), reference_product(toggler(), monitor)


@pytest.mark.parametrize("kind", ["loaded", "converted", "product"])
def test_table_built_automata_work_before_their_transitions_are_named(kind):
    twin = _table_built(kind)[1]
    rng = random.Random(43)
    words = [random_word(rng) for _ in range(20)]
    checks = {
        "equal": lambda a: a == twin and a.table == twin.table,
        "step": lambda a: a.step(a.initial, "1", "0") == twin.step(twin.initial, "1", "0"),
        "accepts": lambda a: [accepts(a, w) for w in words] == [accepts(twin, w) for w in words],
        "repr": lambda a: repr(a) == repr(twin),
        "deepcopy": lambda a: copy.deepcopy(a) == twin,
        "pickle": lambda a: pickle.loads(pickle.dumps(a)) == twin,
        "replace": lambda a: dataclasses.replace(a, priority=dict(a.priority)) == twin,
    }
    for check, holds in checks.items():
        a = _table_built(kind)[0]
        assert type(a) is ParityAutomaton and "transition" not in a.__dict__, check
        assert holds(a), check
    a = _table_built(kind)[0]
    with pytest.raises(InputDomainError, match=re.escape(f"letter ('2', '0') outside alphabet at state {a.initial!r}")):
        a.step(a.initial, "2", "0")
    with pytest.raises(AttributeError, match="^'ParityAutomaton' object has no attribute 'spec'$"):
        a.spec
