"""Command-line entry point.

Subcommands: solve-discrete, definable, synth, monoid, arena, play; each
reads one spec file.  Exit codes: 0 success, 2 usage, 3 resource cap
exceeded, 4 adjudication undecided; an unreadable or malformed spec or
script file (an empty alphabet included), a cap that is not positive, an
unknown monoid --letter, a --run lasso that does not parse over the
machine's alphabet, a --dot file that cannot be written and a definable
spec whose alphabets are not squared are usage errors.  Usage errors and
--help go to the err and out streams given to main.  Output is
byte-deterministic for a fixed invocation.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from json.encoder import encode_basestring_ascii as _quote

from .arena import FV, RC, arena_to_json, export_dot
from .automaton import AlphabetMismatchError, AutomatonError, load_automaton
from .continuous_synth import build_game_arena, decide_continuous
from .definable_synth import solve_definable
from .discrete_game import machine_to_dot, machine_to_json, run_counter_machine, run_machine, solve
from .game_sim import ROUND_CAP, ChoiceController, PlaySession, UndecidedError
from .omega_word import format_lasso, parse_lasso
from .state_monoid import (
    MONOID_CAP,
    ResourceCapError,
    build_UP,
    build_class_table,
    context_from_automaton,
    vocabulary,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_UNDECIDED = 4

# what reading a malformed spec or script file can raise; OverflowError is int() of a json
# Infinity read as a priority, and RecursionError json nested too deep for the parser
_BAD_INPUT = (
    OSError, ValueError, KeyError, TypeError, AttributeError, OverflowError, RecursionError,
    AutomatonError,
)


class UsageError(Exception):
    """A bad argument, or a spec or script file that cannot be read or parsed."""


def _read_input(reader, path):
    try:
        return reader(path)
    except _BAD_INPUT as exc:
        detail = " ".join(str(exc).split())
        raise UsageError(f"cannot read {path}: {type(exc).__name__}: {detail}") from exc


def _script_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


def _stdin_lines():
    """The lines typed at a ``> `` prompt, until end of input."""
    try:
        while True:
            yield input("> ")
    except EOFError:
        return


def _text(value, indent):
    """value as json.dumps(value, indent=2, sort_keys=True) writes it.

    Takes dicts with str keys, lists, str, int, bool and None; any other
    value raises TypeError.  A container writes a value of exactly class
    str, and a dict one of exactly class int, in place rather than by a
    call: a discrete machine's records of such fields are most of its output.
    """
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        texts = []
        # json.dumps sorts the items; the keys are distinct, so sorting them alone gives
        # the same order, faster.  _quote raises TypeError unless the key is a str
        for key in sorted(value):
            v = value[key]
            v = _quote(v) if type(v) is str else int.__repr__(v) if type(v) is int else _text(v, inner)
            texts.append(f"{_quote(key)}: {v}")
        return "{\n" + inner + (",\n" + inner).join(texts) + "\n" + indent + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = indent + "  "
        texts = [_quote(v) if type(v) is str else _text(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(texts) + "\n" + indent + "]"
    if isinstance(value, str):
        return _quote(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"{type(value).__name__} is not emitted as JSON")


def _emit(obj, out):
    # json.dumps(indent=...) runs the pure-Python encoder; _text writes the same bytes, faster
    out.write(_text(obj, "") + "\n")


def positive_int(text):
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, not {value}")
    return value


def _witness_json(arena, choice):
    names = arena.names
    return [{"at": names[node], "to": names[choice[node].dst]} for node in sorted(choice)]


def cmd_solve_discrete(spec, args, out, err):
    res = solve(spec)
    # the winner's machine, the losing side whose word --run gives the machine,
    # that word's alphabet and the alphabet of the machine's reply
    if res.winner == "output":
        machine, side, runner = res.mealy, "input", run_machine
        alphabet, reply = spec.sigma_in, spec.sigma_out
    else:
        machine, side, runner = res.counter, "output", run_counter_machine
        alphabet, reply = spec.sigma_out, spec.sigma_in
    payload = {"winner": res.winner, "machine": machine_to_json(machine)}
    if args.run:
        try:
            word = parse_lasso(args.run, alphabet)
        except ValueError as exc:
            raise UsageError(f"--run {args.run!r}: {exc}") from exc
        foreign = sorted(set(word.prefix + word.period) - set(alphabet))
        if foreign:
            raise UsageError(f"--run {args.run!r}: {foreign} not in the {side} alphabet {list(alphabet)}")
        payload["run"] = {side: args.run, res.winner: format_lasso(runner(machine, word), reply)}
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as dot:
                dot.write(machine_to_dot(machine))
        except OSError as exc:
            raise UsageError(f"cannot write {args.dot}: {type(exc).__name__}: {exc.strerror}") from exc
    _emit(payload, out)
    return EXIT_OK


def cmd_definable(spec, args, out, err):
    try:
        res = solve_definable(spec)
    except AlphabetMismatchError as exc:
        raise UsageError(f"{args.spec}: {exc}") from exc
    payload = {"definable": res.definable}
    if res.definable:
        payload["witness"] = machine_to_json(res.witness)
    else:
        payload["counter"] = machine_to_json(res.counter)
        payload["losing_region_size"] = len(res.losing_region)
    _emit(payload, out)
    return EXIT_OK


def cmd_synth(spec, args, out, err):
    res = decide_continuous(spec, args.semantics, monoid_cap=args.monoid_cap)
    payload = {"realizable": res.realizable, "semantics": res.arena.semantics}
    if res.witness is not None:
        payload["witness"] = _witness_json(res.arena, res.witness)
    if args.stats:
        payload["stats"] = {
            **vars(res.stats), "arena_nodes": len(res.arena.nodes), "arena_edges": res.arena.edge_count
        }
    _emit(payload, out)
    return EXIT_OK


def cmd_monoid(spec, args, out, err):
    if args.letter is not None and args.letter not in spec.sigma_in:
        letters = ", ".join(spec.sigma_in)
        raise UsageError(f"unknown input letter {args.letter!r}; the spec's letters are {letters}")
    ctx = context_from_automaton(spec)
    # the cap also bounds the (class, idempotent) pairs, one member each under --full
    table = build_class_table(ctx, cap=args.monoid_cap, letter=args.letter, pair_cap=args.monoid_cap)
    payload = {
        "classes": table.class_count,
        "d_Q": table.d_q,
        "idempotents": len(table.idempotents),
        "up_members": sum(len(es) for *_, groups in vocabulary(table) for _, es in groups),
    }
    if args.letter is not None:
        payload["letter"] = args.letter
    if args.full:
        payload["representatives"] = [list(w) for w in table.witnesses.values()]
        payload["up"] = [
            {"lag": list(m.lag), "period": list(m.period)} for m in build_UP(table)
        ]
    _emit(payload, out)
    return EXIT_OK


def cmd_arena(spec, args, out, err):
    arena, _ = build_game_arena(spec, args.semantics, args.monoid_cap)
    if args.dot:
        out.write(export_dot(arena))
    else:
        _emit(arena_to_json(arena), out)
    return EXIT_OK


def cmd_play(spec, args, out, err):
    res = decide_continuous(spec, args.semantics, monoid_cap=args.monoid_cap)
    if not res.realizable:
        out.write("unrealizable: the environment wins; nothing to play against\n")
        return EXIT_OK
    controller = ChoiceController(res.arena, res.witness)
    if args.script:
        lines = _read_input(_script_lines, args.script)
    else:
        out.write("you play the environment; type 'help' for commands\n")
        lines = _stdin_lines()
    session = PlaySession(
        res.arena, controller, lines, lambda s: out.write(s + "\n"),
        max_rounds=args.round_cap,
    )
    try:
        play, outcome = session.run()
    except UndecidedError as exc:
        err.write(f"undecided: {exc}\n")
        return EXIT_UNDECIDED
    out.write("transcript:\n")
    out.write(play.transcript())
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronosynth",
        description="synthesis of causal controllers over discrete and continuous time",
    )
    parser.add_argument("--monoid-cap", type=positive_int, default=MONOID_CAP)
    parser.add_argument("--round-cap", type=positive_int, default=ROUND_CAP)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-discrete", help="solve the discrete synthesis game")
    p.add_argument("spec")
    p.add_argument("--dot", help="write the winning machine as DOT")
    p.add_argument(
        "--run", metavar="LASSO",
        help="drive the machine on a lasso like '01(10)^w' and show its answer",
    )
    p.set_defaults(fn=cmd_solve_discrete)

    p = sub.add_parser("definable", help="decide finite-state implementability over signals")
    p.add_argument("spec")
    p.set_defaults(fn=cmd_definable)

    p = sub.add_parser("synth", help="decide continuous-time realizability")
    p.add_argument("spec")
    p.add_argument("--semantics", choices=(RC, FV), required=True)
    p.add_argument("--stats", action="store_true")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("monoid", help="print the state-string class table summary")
    p.add_argument("spec")
    p.add_argument("--letter", help="restrict to paths of one input letter")
    p.add_argument("--full", action="store_true", help="include representatives")
    p.set_defaults(fn=cmd_monoid)

    p = sub.add_parser("arena", help="dump the game arena")
    p.add_argument("spec")
    p.add_argument("--semantics", choices=(RC, FV), required=True)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(fn=cmd_arena)

    p = sub.add_parser("play", help="play the environment against a synthesized winner")
    p.add_argument("spec")
    p.add_argument("--semantics", choices=(RC, FV), required=True)
    p.add_argument("--script", help="replay environment moves from a file (default: stdin)")
    p.set_defaults(fn=cmd_play)

    return parser


def main(argv=None, out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    parser = build_parser()
    try:
        # argparse prints usage errors and --help to sys.stderr/sys.stdout
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.fn(_read_input(load_automaton, args.spec), args, out, err)
    except UsageError as exc:
        err.write(f"{exc}\n")
        return EXIT_USAGE
    except ResourceCapError as exc:
        err.write(f"resource cap exceeded: {exc}\n")
        return EXIT_CAP


def entry():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (`| head`, `| grep -q`); send what is still
        # buffered to devnull, or the flush at exit reports the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    entry()
