"""A walk through the finite game arenas.

The environment owns the fresh start, the dagger nodes where it fixes the
next input, and the block nodes where it interrupts; the controller owns
the output commitments.  Interrupt edges say where an interrupt lands
(small: inside the block's lag; big: in its period) and what the worst
priority seen on the way was.
"""

from pathlib import Path

from chronosynth.arena import FV, RC, export_dot
from chronosynth.automaton import load_automaton
from chronosynth.continuous_synth import build_game_arena

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
spec = load_automaton(FIXTURES / "psi_copy.json")

for name, semantics in (("right-continuous", RC), ("finite-variability", FV)):
    arena, _ = build_game_arena(spec, semantics)
    kinds = {}
    for n in arena.nodes:
        kinds[n.kind] = kinds.get(n.kind, 0) + 1
    bigs = sum(1 for e in arena.edges if e.size == "big")
    smalls = sum(1 for e in arena.edges if e.size == "small")
    print(f"== {name} arena ==")
    print(f"  nodes by kind: {dict(sorted(kinds.items()))}")
    print(f"  edges: {len(arena.edges)} ({bigs} big, {smalls} small interrupts)")
    print(f"  final block nodes: {len(arena.final_up)}")
    print()

print("== DOT rendering of the right-continuous arena ==")
print(export_dot(build_game_arena(spec, RC)[0]))
