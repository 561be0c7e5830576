"""Discrete solver vs oracles, machine extraction, machine runs.

``PYTHONPATH=src python tests/test_discrete_game.py`` prints the pinned
machine tables below, as recorded by the code under test.
"""

import hashlib
import itertools
import json
import random
from dataclasses import replace

from chronosynth.automaton import (
    CONVENTIONS,
    MAX_EVEN,
    MIN_EVEN,
    SINK,
    ParityAutomaton,
    accepts,
    automaton_from_json,
    load_automaton,
    mirrored_priority,
    product_with_monitor,
)
from chronosynth.definable_synth import build_psi_star_monitor, solve_definable, square_alphabet
from chronosynth.discrete_game import (
    Game,
    MealyMachine,
    dense_ranks,
    machine_to_dot,
    machine_to_json,
    parity_node,
    run_counter_machine,
    run_machine,
    solve,
    solve_indexed,
)
from chronosynth.omega_word import LassoWord, zip_lassos

from fixture_specs import FIXTURES
from oracles import (
    brute_force_solve,
    game_from_automaton,
    game_graph,
    reference_automaton_from_json,
    reference_edge_relations,
    reference_product,
    reference_solve,
    reference_zielonka,
)


def copy_spec():
    """Accept iff the output letter equals the input letter at every step."""
    states = ("ok", "bad")
    transition = {}
    for q in states:
        for a in "01":
            for b in "01":
                transition[(q, a, b)] = "bad" if (q == "bad" or a != b) else "ok"
    return ParityAutomaton.from_transitions(states, ("0", "1"), ("0", "1"), transition, "ok", {"ok": 0, "bad": 1})


def predict_next_spec():
    """Accept iff each output letter equals the next input letter."""
    states = ("start", "p0", "p1", "bad")
    transition = {}
    for a in "01":
        for b in "01":
            transition[("start", a, b)] = f"p{b}"
            transition[("p0", a, b)] = f"p{b}" if a == "0" else "bad"
            transition[("p1", a, b)] = f"p{b}" if a == "1" else "bad"
            transition[("bad", a, b)] = "bad"
    return ParityAutomaton.from_transitions(
        states, ("0", "1"), ("0", "1"), transition, "start",
        {"start": 0, "p0": 0, "p1": 0, "bad": 1},
    )


def random_game(rng, n=6, max_prio=3):
    """(succ, owner, priority) lists of a game on nodes 0..n-1, as ``solve_indexed`` reads them."""
    owner = [rng.choice("OI") for _ in range(n)]
    priority = [rng.randint(0, max_prio) for _ in range(n)]
    succ = [rng.sample(range(n), rng.randint(1, min(3, n))) for _ in range(n)]
    return succ, owner, priority


def solve_sets(game):
    """``solve_indexed`` on the game, its regions as sets."""
    w_o, w_i, s_o, s_i = solve_indexed(*game)
    return set(w_o), set(w_i), s_o, s_i


def max_even_twin(a, convention):
    """The automaton whose priorities, read max-even, give the language of
    ``a``'s read under ``convention``: a min-even one is mirrored, as the loader does."""
    return a if convention == MAX_EVEN else replace(a, priority=mirrored_priority(a))


def random_automaton(rng, n_states=6):
    states = [f"q{i}" for i in range(n_states)]
    transition = {
        (q, a, b): rng.choice(states) for q in states for a in "01" for b in "01"
    }
    priority = {q: rng.randint(0, 3) for q in states}
    a = ParityAutomaton.from_transitions(tuple(states), ("0", "1"), ("0", "1"), transition, states[0], priority)
    return max_even_twin(a, MIN_EVEN)


def random_in_lasso(rng, letters=("0", "1"), max_len=4):
    u = tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))
    v = tuple(rng.choice(letters) for _ in range(rng.randint(1, max_len)))
    return LassoWord(u, v)


def enumeration_oracle(game):
    """Third opinion: enumerate O's positional strategies outright."""
    succ, owner, priority = game
    nodes = range(len(succ))

    def wins_with(sigma, start):
        # in the one-player graph, I defeats sigma from start iff it can
        # reach a cycle whose maximal priority is odd
        moves = [(sigma[v],) if owner[v] == "O" else succ[v] for v in nodes]
        reach = {start}
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in moves[v]:
                if w not in reach:
                    reach.add(w)
                    frontier.append(w)
        # odd-dominated cycle inside the reachable part?
        for p in sorted({priority[v] for v in reach}, reverse=True):
            if p % 2 == 0:
                continue
            sub = {v for v in reach if priority[v] <= p}
            # cycle through a priority-p node within sub
            for scc in _sccs(sub, moves):
                if len(scc) > 1 or any(v in moves[v] for v in scc):
                    if any(priority[v] == p for v in scc):
                        return False
        return True

    o_nodes = [v for v in nodes if owner[v] == "O"]
    w_o = set()
    for choice in itertools.product(*(succ[v] for v in o_nodes)):
        sigma = dict(zip(o_nodes, choice))
        for start in nodes:
            if start not in w_o and wins_with(sigma, start):
                w_o.add(start)
    return w_o, set(nodes) - w_o


def _sccs(nodes, succ):
    index = {}
    low = {}
    stack, on_stack = [], set()
    out = []
    counter = [0]

    def strong(v):
        work = [(v, iter([w for w in succ[v] if w in nodes]))]
        index[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter([x for x in succ[w] if x in nodes])))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if low[node] == index[node]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == node:
                        break
                out.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])

    for v in sorted(nodes):
        if v not in index:
            strong(v)
    return out


def test_brute_force_self_loops():
    w_o, w_i = brute_force_solve(game_graph([[0]], ["I"], [0]))
    assert w_o == {0} and not w_i
    w_o, w_i = brute_force_solve(game_graph([[0]], ["O"], [1]))
    assert w_i == {0} and not w_o


def test_zielonka_agrees_with_brute_force_and_enumeration():
    rng = random.Random(3)
    for trial in range(100):
        game = random_game(rng, n=rng.randint(2, 8))
        zo, zi, so, si = solve_sets(game)
        bo, bi = brute_force_solve(game_graph(*game))
        assert zo == bo, f"trial {trial}"
        assert zi == bi
        if trial < 25:
            eo, ei = enumeration_oracle(game)
            assert eo == zo
        # determinacy: regions partition the nodes
        assert zo | zi == set(range(len(game[0])))
        assert not (zo & zi)


def _assert_strategy_wins(game, player, region, strat):
    """player's strategy keeps every play from region inside it, and the
    opponent can reach no cycle whose top priority has the opponent's parity."""
    succ, owner, priority = game
    for v in region:
        if owner[v] == player:
            assert v in strat, f"{player} has no move at {v}"
            assert strat[v] in succ[v] and strat[v] in region, f"{player} leaves its region at {v}"
    moves = [(strat[v],) if v in strat else succ[v] for v in range(len(succ))]
    reach = set(region)
    frontier = list(region)
    while frontier:
        v = frontier.pop()
        for w in moves[v]:
            if w not in reach:
                reach.add(w)
                frontier.append(w)
    losing_parity = 1 if player == "O" else 0
    for p in {priority[v] for v in reach}:
        if p % 2 != losing_parity:
            continue
        sub = {v for v in reach if priority[v] <= p}
        for scc in _sccs(sub, moves):
            if len(scc) > 1 or any(v in moves[v] for v in scc):
                assert not any(
                    priority[v] == p for v in scc
                ), f"{player} strategy admits a cycle won by the opponent"


def test_zielonka_strategy_is_winning_in_own_region():
    # validate extracted strategies by adversarial search in the fixed graph
    rng = random.Random(13)
    for _ in range(60):
        game = random_game(rng, n=rng.randint(2, 7))
        zo, zi, so, si = solve_sets(game)
        _assert_strategy_wins(game, "O", zo, so)
        _assert_strategy_wins(game, "I", zi, si)


def test_solve_copy_spec_identity():
    res = solve(copy_spec())
    assert res.winner == "output"
    m = res.mealy
    for a in "01":
        q_next, b = m.react(m.initial, a)
        assert b == a
    out = run_machine(m, LassoWord((), ("0", "1")))
    assert out.unfold(8) == tuple("01010101")


def test_solve_predict_next_input_player_wins():
    res = solve(predict_next_spec())
    assert res.winner == "input"
    counter = res.counter
    # the counter defeats every output lasso
    rng = random.Random(5)
    spec = predict_next_spec()
    for _ in range(50):
        w_out = random_in_lasso(rng)
        w_in = run_counter_machine(counter, w_out)
        assert not accepts(spec, zip_lassos(w_in, w_out))


def test_solve_agrees_with_brute_force_on_random_specs():
    rng = random.Random(11)
    for trial in range(100):
        a = random_automaton(rng, n_states=rng.randint(1, 6))
        bo, bi = brute_force_solve(game_from_automaton(a))
        res = solve(a)
        assert res.input_region == bi, trial
        assert (res.winner == "output") == (("i", a.initial) in bo)


def test_solved_machines_win_random_lassos():
    rng = random.Random(17)
    for trial in range(30):
        a = random_automaton(rng, n_states=rng.randint(1, 5))
        res = solve(a)
        for _ in range(10):
            if res.winner == "output":
                w_in = random_in_lasso(rng)
                w_out = run_machine(res.mealy, w_in)
                assert accepts(a, zip_lassos(w_in, w_out))
            else:
                w_out = random_in_lasso(rng)
                w_in = run_counter_machine(res.counter, w_out)
                assert not accepts(a, zip_lassos(w_in, w_out))


def test_run_machine_identity_and_constant():
    ident = MealyMachine(("s",), "s", {("s", a): ("s", a) for a in "01"})
    w = LassoWord(("0",), ("1", "0"))
    assert run_machine(ident, w).unfold(9) == w.unfold(9)
    const = MealyMachine(("s",), "s", {("s", a): ("s", "1") for a in "01"})
    out = run_machine(const, w)
    assert set(out.prefix + out.period) == {"1"}


def _family_spec(family, index, n_states, letters, max_priority):
    """The spec bench/workloads.random_spec draws as member index of a family."""
    rng = random.Random(f"{family}/{index}")
    states = [f"q{i}" for i in range(n_states)]
    priority = {q: rng.randint(0, max_priority) for q in states}
    transition = {
        (q, a, b): rng.choice(states) for q in states for a in letters for b in letters
    }
    return ParityAutomaton.from_transitions(tuple(states), letters, letters, transition, "q0", priority)


def _seeded_games(repeats=False):
    """Seeded games, successors drawn with replacement; unless ``repeats``, each is kept once in order."""
    rng = random.Random(37)
    for trial in range(2000):
        n = rng.randint(1, 40)
        owner = [rng.choice("OI") for _ in range(n)]
        priority = [rng.randint(0, 7) for _ in range(n)]
        succ = [rng.choices(range(n), k=rng.randint(1, 4)) for _ in range(n)]
        if not repeats:
            succ = [list(dict.fromkeys(ws)) for ws in succ]
        yield succ, owner, priority


def _family_specs():
    """Three specs each of the bench's large and squared (definable) families."""
    for i in range(3):
        yield f"large {i}", _family_spec("large", i, 300, ("0", "1"), 7)
    squared = square_alphabet("01")
    monitor = build_psi_star_monitor(squared, squared)
    for i in range(3):
        yield f"squared {i}", product_with_monitor(_family_spec("squared", i, 40, squared, 5), monitor)


def test_zielonka_matches_reference_on_seeded_games():
    for trial, game in enumerate(_seeded_games()):
        assert solve_sets(game) == reference_zielonka(game_graph(*game)), trial
    for name, a in _family_specs():
        assert solve(a) == reference_solve(a), name


def _small_specs():
    """1-3-state specs with 3 or 4 output letters, whose rows often reach one target twice."""
    rng = random.Random(41)
    for trial in range(300):
        states = tuple(f"q{i}" for i in range(rng.randint(1, 3)))
        sigma_in, sigma_out = ("0", "1")[:rng.randint(1, 2)], ("a", "b", "c", "d")[:rng.randint(3, 4)]
        transition = {key: rng.choice(states) for key in itertools.product(states, sigma_in, sigma_out)}
        priority = {q: rng.randint(0, 4) for q in states}
        a = ParityAutomaton.from_transitions(states, sigma_in, sigma_out, transition, "q0", priority)
        yield max_even_twin(a, rng.choice(CONVENTIONS))


def test_repeated_successors_change_no_region_or_strategy():
    # solve lists an output node's row slice as its successors, repeats and all
    repeated = 0
    for trial, (succ, owner, priority) in enumerate(_seeded_games(repeats=True)):
        once = [list(dict.fromkeys(ws)) for ws in succ]
        repeated += once != succ
        assert solve_indexed(succ, owner, priority) == solve_indexed(once, owner, priority), trial
    assert repeated > 1000
    repeated = 0
    for trial, a in enumerate(_small_specs()):
        width = len(a.sigma_out)
        rows = [a.table[c:c + width] for c in range(0, len(a.table), width)]
        repeated += any(len(set(row)) < width for row in rows)
        assert solve(a) == reference_solve(a), trial
    assert repeated > 250


def solve_through_hops(game, routed):
    """``Game.solve`` on the parity game, the edges of the nodes in ``routed`` passing through hops.

    A routed node has colour 0, which ``Game`` allows because every cycle
    through it passes a hop: its edge to w passes through the hop node of
    (w, the node's colour), an environment node of that colour whose one
    successor is w.  Hops are shared by all routed nodes and numbered after
    the game's nodes, as the hops of ``continuous_synth.solve_interrupt``.
    Returns what ``solve_sets`` returns on the game's nodes, a move into a
    hop read as a move to its target.
    """
    succ, owner, priority = game
    rank, n = dense_ranks(priority), len(succ)
    colour = [1 << rank[p] for p in priority]
    succ, owner, hops = list(succ), list(owner), {}
    for v in routed:
        succ[v] = [hops.setdefault((w, colour[v]), n + len(hops)) for w in succ[v]]
        colour[v] = 0
    for w, c in hops:
        succ.append([w])
        owner.append("I")
        colour.append(c)
    win, strat = Game(succ, owner, colour).solve(parity_node, bytearray(b"\x01") * len(succ))
    target = list(range(n)) + [w for w, _ in hops]
    return (
        {v for v in win["O"] if v < n},
        {v for v in win["I"] if v < n},
        {v: target[w] for v, w in strat["O"].items() if v < n},
        {v: target[w] for v, w in strat["I"].items() if v < n},
    )


def _opponent_wins_none_against(game, player, region, strat):
    """With player's moves in region fixed to strat, the opponent wins no node of region."""
    succ, owner, priority = game
    fixed = []
    for v, ws in enumerate(succ):
        if v in region and owner[v] == player:
            assert strat.get(v) in ws, f"{player} has no move at {v}"
            ws = [strat[v]]
        fixed.append(ws)
    w_o, w_i, _, _ = reference_zielonka(game_graph(fixed, owner, priority))
    return not (w_i if player == "O" else w_o) & region


def test_hop_nodes_match_reference_on_seeded_games():
    # the same games with a seeded subset of nodes uncoloured, each of
    # their edges through a hop
    rng = random.Random(43)
    for trial, game in enumerate(_seeded_games()):
        n = len(game[0])
        w_o, w_i, s_o, s_i = solve_through_hops(game, rng.sample(range(n), rng.randint(0, n)))
        assert (w_o, w_i) == reference_zielonka(game_graph(*game))[:2], trial
        # a hop adds an attractor level, which may break ties otherwise:
        # the strategies need only win
        assert _opponent_wins_none_against(game, "O", w_o, s_o), trial
        assert _opponent_wins_none_against(game, "I", w_i, s_i), trial


def test_zielonka_depth_does_not_grow_with_peeled_regions():
    # gadget j: t_j moves to y_j; y_j loops or moves to t_{j-1}.  Each pass
    # of the decomposition peels only the bottom gadget off for I.
    # t_j is node 2j - 2 and y_j node 2j - 1
    k = 1500
    succ = []
    for j in range(1, k + 1):
        t, y = 2 * j - 2, 2 * j - 1
        succ += [[y], [y] + ([t - 2] if j > 1 else [])]
    game = (succ, ["O"] * (2 * k), [2, 1] * k)
    w_o, w_i, s_o, s_i = solve_indexed(*game)
    assert not w_o and sorted(w_i) == list(range(2 * k))
    assert not s_o and not s_i


def _differential_specs():
    """Specs whose game numbering can go wrong: unsorted states and alphabets,
    every letter count from 1 to 3, both conventions (a min-even draw
    mirrored, in memory or by the loader), tuple states with a
    sink, specs the loader completes with SINK, and the fixtures.  Each comes
    with its twin built from named transitions: itself when constructed, else
    ``reference_product``'s product or the two-pass reference loader's spec."""
    rng = random.Random(41)
    for trial in range(300):
        states = rng.sample(["b", "a2", "a10", "q", "Q", "z_", "m", "c"], rng.randint(1, 8))
        sigma_in = tuple(rng.sample("10x", rng.randint(1, 3)))
        sigma_out = tuple(rng.sample("ba0", rng.randint(1, 3)))
        transition = {
            (q, x, b): rng.choice(states) for q in states for x in sigma_in for b in sigma_out
        }
        priority = {q: rng.randint(0, 5) for q in states}
        a = ParityAutomaton.from_transitions(
            tuple(states), sigma_in, sigma_out, transition, rng.choice(states), priority
        )
        a = max_even_twin(a, CONVENTIONS[trial % 2])
        yield f"seeded {trial}", a, a
    squared = square_alphabet("01")
    monitor = build_psi_star_monitor(squared, squared)
    for trial in range(12):
        spec = _seeded_spec(rng, rng.randint(1, 4), squared)
        yield f"product {trial}", product_with_monitor(spec, monitor), reference_product(spec, monitor)
    for trial in range(40):
        spec, convention = _seeded_draw(rng, rng.randint(1, 5), ("0", "1"))
        kept = [t for t in spec.transition.items() if rng.random() < 0.7]
        data = {
            "states": list(spec.states),
            "sigma_in": list(spec.sigma_in),
            "sigma_out": list(spec.sigma_out),
            "initial": spec.initial,
            "priority": spec.priority,
            "convention": convention,
            "transitions": [
                {"from": q, "in": x, "out": b, "to": t} for (q, x, b), t in kept
            ],
        }
        yield f"sink {trial}", automaton_from_json(data), reference_automaton_from_json(data)
    for path in sorted(FIXTURES.glob("*.json")):
        yield path.name, load_automaton(path), reference_automaton_from_json(path.read_text())


def test_solve_matches_reference_solve():
    sinks = products = 0
    for name, a, _ in _differential_specs():
        assert solve(a) == reference_solve(a), name
        sinks += SINK in a.states
        products += isinstance(a.initial, tuple)
    assert sinks >= 20 and products == 12


def test_table_lists_each_transition_target_by_index():
    for name, a, twin in _differential_specs():
        # read the targets off the twin's named transitions, not off a's own view of its table
        keys = itertools.product(a.states, a.sigma_in, a.sigma_out)
        assert [a.states[t] for t in a.table] == [twin.transition[key] for key in keys], name


def test_every_differential_spec_equals_its_named_twin():
    specs = products = 0
    for name, a, twin in _differential_specs():
        assert type(a) is ParityAutomaton and a == twin and a.table == twin.table, name
        assert a.edge_relations() == reference_edge_relations(twin), name
        specs += 1
        products += isinstance(a.initial, tuple)
    assert specs == 360 and products == 12


def test_machine_serialization_roundtrip():
    res = solve(copy_spec())
    data = machine_to_json(res.mealy)
    assert data["kind"] == "mealy"
    transition = {(e["from"], e["in"]): (e["to"], e["out"]) for e in data["transitions"]}
    assert transition == res.mealy.transition
    dot = machine_to_dot(res.mealy)
    assert dot.startswith("digraph")
    assert dot.count("->") >= len(res.mealy.transition)
    res2 = solve(predict_next_spec())
    data2 = machine_to_json(res2.counter)
    assert data2["kind"] == "moore_counter"
    assert data2["output"] == res2.counter.output


# per seeded spec: (winner, first 16 hex digits of the sha256 of the winning
# machine's JSON).  Zielonka's tie-breaking decides every strategy edge and so
# every machine transition; these were recorded before the solver was made
# player-symmetric.
SOLVE_TABLE = {
    0: ('output', '22948e3b9b82ce49'),
    1: ('input', '25a578f1cb77f6aa'),
    2: ('output', 'cd847b89e5b13a8b'),
    3: ('output', '8285444901c05b0f'),
    4: ('output', '00b5cafe33162792'),
    5: ('output', '1da7957e24904d14'),
    6: ('input', '1c121fafbf3a631b'),
    7: ('output', '6213c299926ccd90'),
    8: ('output', '5720b00e46459a94'),
    9: ('output', '7799a3593bf69f56'),
    10: ('output', '9765741a583dbfa1'),
    11: ('output', '4511916577036a13'),
    12: ('output', '51772d2a84d1b1e8'),
    13: ('output', '1838a6ff04080c06'),
    14: ('output', '4e67afff39b0c6e9'),
    15: ('output', 'e40e96b7bf992b43'),
    16: ('input', '161c22547380dc74'),
    17: ('output', '368991319b22283a'),
    18: ('input', '1fc4c3bb3451cd20'),
    19: ('input', '8b0e6cda2ce4ba8f'),
    20: ('input', '83f2546351bb678d'),
    21: ('input', 'ca6771c08c7bd2ca'),
    22: ('output', 'faee9ee32d0d98a2'),
    23: ('output', '6694bfbf1bacf994'),
    24: ('input', '84a080a7b669bb76'),
    25: ('input', '962ecdad8cf51b0e'),
    26: ('output', 'c4b8c236afaaf6fd'),
    27: ('output', 'dd453dea2f7e0746'),
    28: ('output', '18caaf03a0b575cf'),
    29: ('input', '4b6a51a8a37b3758'),
}

# per seeded squared spec: (definable, machine digest, digest of the losing
# region), recorded alongside SOLVE_TABLE.
DEFINABLE_TABLE = {
    0: (True, '3f66abb682c9381a', '4f53cda18c2baa0c'),
    1: (False, 'f93cf14efc093026', '48ee6a0b8bbd5aa2'),
    2: (False, 'fe475fd6f288c0f0', '59a89bcc832b9b6c'),
    3: (False, '0d841554ccc6e15b', '48ee6a0b8bbd5aa2'),
    4: (False, 'e3d0a21167f3cb3a', 'd13b200b4b4d27d1'),
    5: (False, '1b4048aae10b6758', '59a89bcc832b9b6c'),
    6: (False, '155b5de011c48aa5', '500e6b0e72d2278a'),
    7: (False, 'f85b3dfdcb316e2e', '22b632cfda8fd687'),
    8: (False, 'd299b912b6fb321e', '97956226dc1e24cf'),
    9: (False, '3e5c707f7ee031e0', '48ee6a0b8bbd5aa2'),
}


def _digest(data):
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()[:16]


def _seeded_draw(rng, n_states, letters):
    """A seeded automaton, and the convention its priorities are drawn under."""
    states = [f"q{i}" for i in range(n_states)]
    transition = {
        (q, a, b): rng.choice(states) for q in states for a in letters for b in letters
    }
    priority = {q: rng.randint(0, 5) for q in states}
    a = ParityAutomaton.from_transitions(tuple(states), letters, letters, transition, states[0], priority)
    return a, rng.choice(CONVENTIONS)


def _seeded_spec(rng, n_states, letters):
    """A seeded spec, its min-even draws mirrored to max-even."""
    return max_even_twin(*_seeded_draw(rng, n_states, letters))


def _pinned_solve_rows():
    rng = random.Random(29)
    for i in range(30):
        res = solve(_seeded_spec(rng, rng.randint(2, 30), ("0", "1")))
        yield i, (res.winner, _digest(machine_to_json(res.mealy or res.counter)))


def _pinned_definable_rows():
    rng = random.Random(31)
    for i in range(10):
        res = solve_definable(_seeded_spec(rng, rng.randint(2, 8), square_alphabet("01")))
        machine = res.witness or res.counter
        losing = sorted(repr(v) for v in res.losing_region)
        yield i, (res.definable, _digest(machine_to_json(machine)), _digest(losing))


def test_seeded_solve_machines_are_pinned():
    for i, row in _pinned_solve_rows():
        assert row == SOLVE_TABLE[i], i


def test_seeded_definable_machines_are_pinned():
    for i, row in _pinned_definable_rows():
        assert row == DEFINABLE_TABLE[i], i


if __name__ == "__main__":
    for title, rows in (("SOLVE_TABLE", _pinned_solve_rows()), ("DEFINABLE_TABLE", _pinned_definable_rows())):
        print(f"{title} = {{")
        for i, row in rows:
            print(f"    {i}: {row!r},")
        print("}")
