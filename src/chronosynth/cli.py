"""Command-line entry point.

Subcommands: solve-discrete, definable, synth, monoid, arena, play,
check-fixtures.  Exit codes: 0 success, 2 usage, 3 resource cap exceeded,
4 adjudication undecided; an unreadable or malformed spec or script file
(an empty alphabet included), a cap that is not positive, an unknown
monoid --letter and a definable spec whose alphabets are not squared are
usage errors.  Usage errors and --help go to the err and out streams given
to main.  All randomness is seeded (--seed) and output is
byte-deterministic for a fixed invocation.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import sys
from fractions import Fraction

from .arena import FV, RC, arena_to_json, export_dot
from .automaton import (
    MAX_EVEN,
    AlphabetMismatchError,
    AutomatonError,
    convert_convention,
    load_automaton,
)
from .continuous_synth import ResourceCapError, build_game_arena, decide_continuous
from .definable_synth import solve_definable
from .discrete_game import machine_to_dot, machine_to_json, solve
from .game_sim import (
    ChoiceController,
    PlaySession,
    UndecidedError,
    script_reader,
)
from .state_monoid import (
    MonoidCapExceeded,
    build_UP,
    build_class_table,
    context_from_automaton,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_UNDECIDED = 4

# what reading a malformed spec or script file can raise; OverflowError is
# int() of an Infinity that json reads as a priority
_BAD_INPUT = (
    OSError, ValueError, KeyError, TypeError, AttributeError, OverflowError, AutomatonError,
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


def _emit(obj, out):
    out.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def positive_int(text):
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, not {value}")
    return value


def _witness_json(arena, choice):
    entries = []
    for node in sorted(choice):
        e = choice[node]
        entry = {"at": node.pretty(arena), "to": e.dst.pretty(arena)}
        if e.labeled:
            entry["priority"] = e.priority
            entry["size"] = e.size
        entries.append(entry)
    return entries


def cmd_solve_discrete(args, out, err):
    from .discrete_game import run_counter_machine, run_machine
    from .omega_word import format_lasso, parse_lasso

    a = _read_input(load_automaton, args.spec)
    res = solve(a)
    payload = {"winner": res.winner}
    machine = res.mealy if res.winner == "output" else res.counter
    payload["machine"] = machine_to_json(machine)
    if args.run:
        side, alphabet = ("input", a.sigma_in) if res.winner == "output" else ("output", a.sigma_out)
        try:
            word = parse_lasso(args.run)
        except ValueError as exc:
            raise UsageError(f"--run {args.run!r}: {exc}") from exc
        foreign = sorted(set(word.prefix + word.period) - set(alphabet))
        if foreign:
            raise UsageError(f"--run {args.run!r}: {foreign} not in the {side} alphabet {list(alphabet)}")
        if res.winner == "output":
            payload["run"] = {"input": args.run, "output": format_lasso(run_machine(machine, word))}
        else:
            payload["run"] = {"output": args.run, "input": format_lasso(run_counter_machine(machine, word))}
    _emit(payload, out)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(machine_to_dot(machine))
    return EXIT_OK


def cmd_definable(args, out, err):
    a = _read_input(load_automaton, args.spec)
    try:
        res = solve_definable(a)
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


def cmd_synth(args, out, err):
    a = _read_input(load_automaton, args.spec)
    res = decide_continuous(
        a, args.semantics, monoid_cap=args.monoid_cap, strategy_cap=args.strategy_cap
    )
    payload = {"realizable": res.realizable, "semantics": res.semantics}
    if res.witness is not None:
        payload["witness"] = _witness_json(res.arena, res.witness)
    if args.stats:
        payload["stats"] = {
            "strategies_examined": res.stats.strategies_examined,
            "pruned": res.stats.pruned,
            "class_counts": res.stats.class_counts,
            "up_sizes": res.stats.up_sizes,
            "d_bound": res.stats.d_bound,
            "arena_nodes": len(res.arena.nodes),
            "arena_edges": len(res.arena.edges),
        }
    _emit(payload, out)
    return EXIT_OK


def cmd_monoid(args, out, err):
    a = _read_input(load_automaton, args.spec)
    if args.letter is not None and args.letter not in a.sigma_in:
        letters = ", ".join(a.sigma_in)
        raise UsageError(f"unknown input letter {args.letter!r}; the spec's letters are {letters}")
    canonical = convert_convention(a, MAX_EVEN)
    ctx = context_from_automaton(canonical)
    table = build_class_table(ctx, cap=args.monoid_cap, letter=args.letter)
    up = build_UP(table)
    payload = {
        "classes": table.class_count,
        "d_Q": table.d_q,
        "idempotents": len(table.idempotents),
        "up_members": len(up),
    }
    if args.letter:
        payload["letter"] = args.letter
    if args.full:
        payload["representatives"] = ["".join(map(str, table.witnesses[s])) for s in table.order]
        payload["up"] = [
            {"lag": list(m.lag), "period": list(m.period)} for m in up
        ]
    _emit(payload, out)
    return EXIT_OK


def cmd_arena(args, out, err):
    a = _read_input(load_automaton, args.spec)
    arena, _ = build_game_arena(a, args.semantics, args.monoid_cap)
    if args.dot:
        out.write(export_dot(arena))
    else:
        _emit(arena_to_json(arena), out)
    return EXIT_OK


def cmd_play(args, out, err):
    a = _read_input(load_automaton, args.spec)
    res = decide_continuous(
        a, args.semantics, monoid_cap=args.monoid_cap, strategy_cap=args.strategy_cap
    )
    if not res.realizable:
        out.write("unrealizable: the environment wins; nothing to play against\n")
        return EXIT_OK
    controller = ChoiceController(res.arena, res.witness)
    if args.script:
        reader = script_reader(_read_input(_script_lines, args.script))
    else:
        out.write("you play the environment; type 'help' for commands\n")

        def reader():
            try:
                return input("> ")
            except EOFError:
                return None

    session = PlaySession(
        res.arena, controller, reader, lambda s: out.write(s + "\n"),
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


def _fixture_checks(seed):
    """The counterexample-construction property suite (runtime self-checks)."""
    from .discrete_game import run_machine
    from .fixtures import (
        SQ,
        copy_spec,
        indeterminate_spec_fv,
        jump_spec_fv,
        jump_spec_squared,
    )
    from .omega_word import LassoWord
    from .signal import (
        counter_operator,
        delta_signal,
        encode_D,
        integer_samples,
        signals_equal,
    )

    rng = random.Random(seed)
    checks = []

    def check(name, fn):
        checks.append((name, fn))

    def random_binary_signal():
        from chronosynth.signal import ConstantTail, FVSignal

        k = rng.randint(1, 3)
        bps = [Fraction(0)]
        for _ in range(k - 1):
            bps.append(bps[-1] + Fraction(rng.randint(1, 4), rng.randint(1, 3)))
        pv = tuple(rng.choice("01") for _ in range(k))
        iv = tuple(rng.choice("01") for _ in range(k - 1))
        return FVSignal(tuple(bps), pv, iv, ConstantTail(rng.choice("01")))

    def c_indicator_values():
        d1 = delta_signal(1)
        assert d1.value_at(1) == "1" and d1.value_at(Fraction(1, 2)) == "0"
        assert d1.jumps_at(1) and d1.jumps_at(0) and not d1.jumps_at(2)

    def c_indicator_encoding():
        w = encode_D(delta_signal(1), integer_samples())
        assert w == LassoWord((("0", "0"), ("1", "0")), (("0", "0"),))

    def c_counter_differs():
        for _ in range(50):
            y = random_binary_signal()
            assert not signals_equal(counter_operator(y), y)

    def c_counter_strong_causality():
        for _ in range(50):
            y = random_binary_signal()
            t0 = y.first_jump_after_zero()
            g = counter_operator(y)
            if t0 is None:
                continue
            flip = {"0": "1", "1": "0"}[y.right_limit(0)]
            assert g.value_at(t0 / 2) == flip
            assert g.value_at(t0) == flip and g.value_at(t0 + 1) == "1"

    def c_machine_causality_on_indicator_prefixes():
        res = solve_definable(copy_spec(SQ))
        assert res.definable
        m = res.witness
        from .definable_synth import pair_letter

        for t in (Fraction(1, 2), Fraction(1, 3)):
            # letters of the two indicator signals agree strictly below the
            # divergence index; a causal machine must answer identically there
            w1 = encode_D(delta_signal(1), integer_samples(Fraction(1, 6)))
            w2 = encode_D(delta_signal(t), integer_samples(Fraction(1, 6)))
            k = 0
            while w1.letter_at(k) == w2.letter_at(k):
                k += 1
            outs1, outs2 = [], []
            q1 = q2 = m.initial
            for i in range(k):
                q1, b1 = m.react(q1, pair_letter(*w1.letter_at(i)))
                q2, b2 = m.react(q2, pair_letter(*w2.letter_at(i)))
                outs1.append(b1)
                outs2.append(b2)
            assert outs1 == outs2

    def c_gap_definable_no():
        assert not solve_definable(jump_spec_squared()).definable

    def c_gap_synth_yes():
        assert decide_continuous(jump_spec_fv(), FV).realizable

    def c_copy_both_yes():
        assert solve_definable(copy_spec(SQ)).definable
        assert decide_continuous(copy_spec(), FV).realizable

    def c_indeterminate_unrealizable():
        assert not decide_continuous(indeterminate_spec_fv(), FV).realizable

    check("indicator_signal_values", c_indicator_values)
    check("indicator_signal_encoding", c_indicator_encoding)
    check("counter_operator_differs_everywhere", c_counter_differs)
    check("counter_operator_strong_causality", c_counter_strong_causality)
    check("machine_causality_on_indicator_prefixes", c_machine_causality_on_indicator_prefixes)
    check("jump_spec_not_definable", c_gap_definable_no)
    check("jump_spec_realizable_fv", c_gap_synth_yes)
    check("copy_spec_definable_and_realizable", c_copy_both_yes)
    check("indeterminate_spec_unrealizable", c_indeterminate_unrealizable)
    return checks


def cmd_check_fixtures(args, out, err):
    out.write(f"# seed={args.seed}\n")
    failures = 0
    for name, fn in _fixture_checks(args.seed):
        try:
            fn()
            out.write(f"ok   {name}\n")
        except AssertionError as exc:
            failures += 1
            out.write(f"FAIL {name}: {exc}\n")
    out.write(f"{'all checks passed' if not failures else f'{failures} check(s) failed'}\n")
    return EXIT_OK if not failures else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronosynth",
        description="synthesis of causal controllers over discrete and continuous time",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    parser.add_argument("--monoid-cap", type=positive_int, default=200_000)
    parser.add_argument("--strategy-cap", type=positive_int, default=1_000_000)
    parser.add_argument("--round-cap", type=positive_int, default=60)
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

    p = sub.add_parser("check-fixtures", help="run the counterexample property suites")
    p.set_defaults(fn=cmd_check_fixtures)
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
        return args.fn(args, out, err)
    except UsageError as exc:
        err.write(f"{exc}\n")
        return EXIT_USAGE
    except (ResourceCapError, MonoidCapExceeded) as exc:
        err.write(f"resource cap exceeded: {exc}\n")
        return EXIT_CAP


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
