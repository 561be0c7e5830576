"""Independent checks of the winners a traced job returned.

Only public functions are used:

- a realizable witness must pass ``build_strategy_graph`` plus
  ``find_violation``, and seeded ``RandomEnvironment`` plays against it
  must adjudicate to the controller (O);
- a returned ``Violation``, replayed by ``ViolationEnvironment`` against the
  choices along it, must adjudicate to the environment (I);
- discrete Mealy and counter machines are run on seeded lassos with
  ``run_machine`` / ``run_counter_machine`` and judged with ``accepts``.

Modules are looked up at call time, because the harness re-imports the
package during set-up.
"""

from __future__ import annotations

import importlib
import random

RANDOM_PLAYS = 3
LASSOS = 4


def _mod(name):
    return importlib.import_module(f"chronosynth.{name}")


def random_lasso(rng, alphabet):
    omega = _mod("omega_word")
    prefix = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 3)))
    period = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
    return omega.LassoWord(prefix, period)


def check_synth(result, rng):
    """Yield (description, passed) for one continuous-time verdict."""
    cs, gs = _mod("continuous_synth"), _mod("game_sim")
    arena = result.arena
    if result.realizable:
        graph = cs.build_strategy_graph(arena, result.witness)
        yield "witness passes find_violation", cs.find_violation(graph) is None
        controller = gs.ChoiceController(arena, result.witness)
        for _ in range(RANDOM_PLAYS):
            env = gs.RandomEnvironment(
                arena, random.Random(rng.getrandbits(32)), force_accept_after=rng.randint(1, 6)
            )
            play = gs.run_play(arena, controller, env, max_rounds=20)
            yield "random play against the witness goes to O", gs.adjudicate(play).winner == "O"
        return
    violation = result.violation
    if violation is None:
        yield "unrealizable verdict carries a violation", False
        return
    path = tuple(violation.entry) + tuple(violation.cycle)
    choice = {e.src: e for e in path if arena.owner(e.src) == "O"}
    interrupts = sum(1 for e in path if e.labeled)
    env = gs.ViolationEnvironment(arena, violation, rng=random.Random(rng.getrandbits(32)))
    play = gs.run_play(
        arena, gs.ChoiceController(arena, choice), env, max_rounds=4 * interrupts + 4
    )
    yield f"violation {violation.kind} replay goes to I", gs.adjudicate(play).winner == "I"


def _check_machines(automaton, mealy, counter, rng):
    """Mealy outputs must be accepted; counter inputs must be rejected."""
    am, dg, omega = _mod("automaton"), _mod("discrete_game"), _mod("omega_word")
    for _ in range(LASSOS):
        if mealy is not None:
            w_in = random_lasso(rng, automaton.sigma_in)
            word = omega.zip_lassos(w_in, dg.run_machine(mealy, w_in))
            yield "mealy run accepted", am.accepts(automaton, word)
        else:
            w_out = random_lasso(rng, automaton.sigma_out)
            word = omega.zip_lassos(dg.run_counter_machine(counter, w_out), w_out)
            yield "counter run rejected", not am.accepts(automaton, word)


def certify(captured, rng):
    """Run every check the captured results allow; return (checks, failures)."""
    checks, failures = 0, []
    spec = product = None
    for kind, obj in captured:
        if kind == "spec":
            spec = obj
            continue
        if kind == "product":
            product = obj
            continue
        if kind == "synth":
            results = check_synth(obj, rng)
        elif kind == "discrete":
            mealy = obj.mealy if obj.winner == "output" else None
            results = _check_machines(spec, mealy, obj.counter, rng)
        else:  # definable: the machines play the spec x jump-discipline product
            results = _check_machines(product, obj.witness, obj.counter, rng)
        for text, passed in results:
            checks += 1
            if not passed:
                failures.append(text)
    return checks, failures
