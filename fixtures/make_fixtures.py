"""Regenerate the JSON fixture specs from the builders in chronosynth.fixtures.

Run from the repository root:  python fixtures/make_fixtures.py
"""

import json
import pathlib

from chronosynth.automaton import automaton_to_json
from chronosynth.fixtures import (
    SQ,
    copy_spec,
    indeterminate_spec_fv,
    jump_spec_fv,
    jump_spec_rc,
    jump_spec_squared,
    predict_next_spec,
)
from chronosynth.automaton import MAX_EVEN, ParityAutomaton

HERE = pathlib.Path(__file__).parent


def one_state():
    transition = {("q", a, b): "q" for a in ("0", "1") for b in ("0", "1")}
    return ParityAutomaton(("q",), ("0", "1"), ("0", "1"), transition, "q", {"q": 0}, MAX_EVEN)


FILES = {
    "psi_copy.json": copy_spec(),
    "psi_jump_fv.json": jump_spec_fv(),
    "psi_jump_rc.json": jump_spec_rc(),
    "psi_indet_fv.json": indeterminate_spec_fv(),
    "psi_copy_d.json": copy_spec(SQ),
    "psi_jump_d.json": jump_spec_squared(),
    "predict_next.json": predict_next_spec(),
    "one_state.json": one_state(),
}


def main():
    for name, automaton in sorted(FILES.items()):
        path = HERE / name
        path.write_text(
            json.dumps(automaton_to_json(automaton), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
