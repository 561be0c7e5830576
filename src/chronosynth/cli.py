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


def _flat(values, sep, close):
    """The JSON text of each value, or None unless every value is flat.

    A flat value is a str, int, bool or None, or a nonempty dict of those
    (a record), written with each field after sep and close last.
    """
    texts = []
    for value in values:
        if isinstance(value, dict) and value:
            fields = []
            for key, v in sorted(value.items()):
                if isinstance(v, str):
                    v = _quote(v)
                elif v is None or v is True or v is False:
                    v = "null" if v is None else "true" if v else "false"
                elif isinstance(v, int):
                    v = int.__repr__(v)
                else:
                    return None
                fields.append(_quote(key) + ": " + v)  # raises TypeError unless key is a str
            value = "{" + sep + ("," + sep).join(fields) + close
        elif isinstance(value, str):
            value = _quote(value)
        elif value is None or value is True or value is False:
            value = "null" if value is None else "true" if value else "false"
        elif isinstance(value, int):
            value = int.__repr__(value)
        else:
            return None
        texts.append(value)
    return texts


def _json_parts(obj, parts, indent):
    """Append obj as json.dumps(obj, indent=2, sort_keys=True) writes it.

    Takes dicts with str keys, lists, str, int, bool and None; any other
    value raises TypeError.  A dict or list whose values are all flat
    (``_flat``: machine transitions, a machine's states, a counter
    machine's output, arena nodes and edges) is written with one join; any
    other value recurses once per item.
    """
    if not isinstance(obj, (dict, list)):
        texts = _flat((obj,), "", "")
        if texts is None:
            raise TypeError(f"{type(obj).__name__} is not emitted as JSON")
        parts.append(texts[0])
    elif not obj:
        parts.append("{}" if isinstance(obj, dict) else "[]")
    else:
        inner = indent + "  "
        sep = "\n" + inner
        # a record among the values sits one level further in
        field_sep, close = sep + "  ", sep + "}"
        if isinstance(obj, dict):
            keys = sorted(obj)
            texts = _flat([obj[key] for key in keys], field_sep, close)
            if texts is not None:
                fields = [_quote(key) + ": " + text for key, text in zip(keys, texts)]
                parts.append("{" + sep + ("," + sep).join(fields) + "\n" + indent + "}")
                return
            parts.append("{")
            for key in keys:
                if not isinstance(key, str):
                    raise TypeError(f"key {key!r} is not a str")
                parts += (sep, _quote(key), ": ")
                _json_parts(obj[key], parts, inner)
                sep = ",\n" + inner
            parts.append("\n" + indent + "}")
        else:
            texts = _flat(obj, field_sep, close)
            if texts is not None:
                parts.append("[" + sep + ("," + sep).join(texts) + "\n" + indent + "]")
                return
            parts.append("[")
            for value in obj:
                parts.append(sep)
                sep = ",\n" + inner
                _json_parts(value, parts, inner)
            parts.append("\n" + indent + "]")


def _emit(obj, out):
    # json.dumps(indent=...) falls back to the pure-Python encoder; same bytes, faster
    parts = []
    _json_parts(obj, parts, "")
    parts.append("\n")
    out.write("".join(parts))


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
