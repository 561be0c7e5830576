"""Operational semantics of the timed interrupt games.

A play walks the arena with exact rational timestamps.  A move is one of
three things: an arena edge out of a node that is not a block node (a start
or input letter, a point output, or a block), an interrupt, or accepting.
Only an interrupt carries a time.  The i-th block of a play, counting from
0, runs at time scale 2^-i.  At a block node the environment either accepts,
ending the play, or interrupts at a chosen time, which resolves to a
position inside the block: in the right-continuous game position n covers
the half-open span ending at scale * n; in the finite-variability game odd
positions are open intervals (interrupts from the left) and even positions
are grid points (interrupts from the right, legal exactly at the grid).

Adjudication of capped plays detects the eventual cycle of the move
sequence: an all-small cycle keeps the total duration finite under the
halving scales and goes to the controller; otherwise the maximal
effective priority on the cycle decides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .arena import (
    FRESH, FV, I_UP, LEFT, O_DAG, O_PAIR, RC, RIGHT, Arena, ArenaEdge, ArenaNode,
)
from .continuous_synth import Violation

ROUND_CAP = 60  # interrupts before a session stops and adjudicates


class PlayError(Exception):
    pass


class IllegalMove(PlayError):
    pass


class UndecidedError(PlayError):
    """The round cap was too small to classify the play."""


# -- moves -------------------------------------------------------------------


class Accept(NamedTuple):
    pass


class InterruptMove(NamedTuple):
    time: Fraction
    letter: str
    kind: str = ""  # '' for rc; 'left' | 'right' for fv


class TraceStep(NamedTuple):
    text: str
    edge: ArenaEdge
    time: Fraction


@dataclass
class TimedPlay:
    arena: Arena
    node: ArenaNode
    now: Fraction  # at a block node, the block's start: a block move keeps the time
    block_scale: Fraction = Fraction(2)  # each block move halves it, so block i runs at 2^-i
    interrupt_count: int = 0
    steps: list = field(default_factory=list)
    finished: bool = False

    def transcript(self) -> str:
        return "\n".join(s.text for s in self.steps) + ("\n" if self.steps else "")


class PlayOutcome(NamedTuple):
    winner: str  # 'O' | 'I'
    reason: str  # accepted_final | rejected_final | zeno_O_win | parity_even | parity_odd


def new_play(arena: Arena) -> TimedPlay:
    return TimedPlay(arena=arena, node=arena.fresh, now=Fraction(0))


def resolve_interrupt(arena: Arena, play: TimedPlay, move: InterruptMove):
    """Map an interrupt move at a block node to (position, arena edge): the one time-to-position rule."""
    node = play.node
    t0, delta = play.now, play.block_scale
    t = Fraction(move.time)
    if t <= t0:
        raise IllegalMove(f"interrupt time {t} not after the block start {t0}")
    if move.letter not in arena.automaton.sigma_in:
        raise IllegalMove(f"unknown input letter {move.letter!r}")
    if move.letter == node.letter:
        raise IllegalMove("interrupts must change the input letter")
    ratio = (t - t0) / delta
    if arena.semantics == RC:
        if move.kind:
            raise IllegalMove("interrupt kinds belong to the fv game")
        n = math.ceil(ratio)
    elif move.kind == LEFT:
        n = 2 * math.ceil(ratio) - 1
    elif move.kind == RIGHT:
        if ratio.denominator != 1:
            raise IllegalMove("interrupts from the right are legal exactly at grid points")
        n = 2 * ratio.numerator
    else:
        raise IllegalMove("fv interrupts must pick kind 'left' or 'right'")
    return n, arena.interrupt_edge(node, n, move.letter)


def _letter_edge(arena: Arena, node: ArenaNode, letter) -> ArenaEdge:
    """The edge out of the fresh node or a (q,+) node that fixes input ``letter``."""
    for edge in arena.outgoing(node):
        if edge.dst.letter == letter:
            return edge
    raise IllegalMove(f"unknown input letter {letter!r}")


def _take(play: TimedPlay, edge: ArenaEdge, text: str, time=None) -> TimedPlay:
    """Move along an arena edge from the current node, at ``time`` if given, and record it."""
    if edge not in play.arena.outgoing(play.node):
        raise IllegalMove("edge does not leave the current node")
    play.node = edge.dst
    if time is not None:
        play.now = time
    play.steps.append(TraceStep(text, edge, play.now))
    return play


def step(play: TimedPlay, move) -> TimedPlay:
    """Apply one move: an arena edge out of a node that is not a block node,
    an ``InterruptMove`` or ``Accept``.  Illegal moves leave the play unchanged.

    Block i of the play, counting from 0, gets the time scale 2^-i.
    """
    arena = play.arena
    node = play.node
    if play.finished:
        raise IllegalMove("the play has ended")

    if isinstance(move, ArenaEdge):
        if node.kind == I_UP:
            raise IllegalMove("block nodes are left only by an interrupt or by accepting")
        if node.kind in (FRESH, O_DAG):
            verb = "start" if node.kind == FRESH else "input"
            return _take(play, move, f"I {verb} a={move.dst.letter}")
        if node.kind == O_PAIR and arena.semantics == FV:
            return _take(play, move, f"O point q={move.dst.state}")
        scale = play.block_scale / 2
        _take(play, move, f"O block u=u{move.dst.up} scale={scale}")
        play.block_scale = scale
        return play

    if isinstance(move, Accept):
        if node.kind != I_UP:
            raise IllegalMove("accepting is only possible at block nodes")
        play.finished = True
        play.steps.append(TraceStep("I accept", None, play.now))
        return play

    if isinstance(move, InterruptMove):
        if node.kind != I_UP:
            raise IllegalMove("interrupts are only possible at block nodes")
        _, edge = resolve_interrupt(arena, play, move)
        kind_part = f" kind={edge.kind}" if arena.semantics == FV else ""
        t = Fraction(move.time)
        # the resolved edge is an arena edge by construction
        _take(play, edge, f"I interrupt t={t} letter={move.letter}{kind_part}", t)
        play.interrupt_count += 1
        return play

    raise IllegalMove(f"unknown move {move!r}")


def adjudicate(play: TimedPlay) -> PlayOutcome:
    """Classify a finished or capped play.

    Finite plays are decided by the final node.  Capped plays must show an
    eventual cycle in their move sequence: an all-small cycle converges,
    since ``step`` halves the block scale each time (total time bounded by
    the lag bound times the remaining geometric sum), and goes to the
    controller; any other cycle is decided by its maximal effective priority.
    """
    arena = play.arena
    if play.finished:
        if play.node in arena.final_up:
            return PlayOutcome("O", "accepted_final")
        return PlayOutcome("I", "rejected_final")
    edges = [s.edge for s in play.steps if s.edge is not None]
    cycle = None
    for lam in range(1, len(edges) // 3 + 1):
        if edges[-lam:] == edges[-2 * lam : -lam] == edges[-3 * lam : -2 * lam]:
            cycle = edges[-lam:]
            break
    if cycle is None:
        raise UndecidedError("no eventual cycle visible; raise the round cap")
    interrupts = [e for e in cycle if e.labeled]
    if interrupts and all(e.size == "small" for e in interrupts):
        return PlayOutcome("O", "zeno_O_win")
    top = max(arena.effective_priority(e) for e in cycle)
    if top < 0:
        raise UndecidedError("cycle carries no priorities; malformed play")
    if top % 2 == 0:
        return PlayOutcome("O", "parity_even")
    return PlayOutcome("I", "parity_odd")


# -- players -----------------------------------------------------------------


class ChoiceController:
    """Plays a positional choice."""

    def __init__(self, arena: Arena, choice: dict):
        self.arena = arena
        self.choice = dict(choice)

    def move(self, play: TimedPlay):
        node = play.node
        if node not in self.choice:
            raise PlayError(f"controller has no choice at {node}")
        return self.choice[node]


def _positions(arena: Arena, play: TimedPlay, letter, first=1):
    """(latest time, edge) of an interrupt to ``letter`` at each block position from ``first`` on.

    Under fv two positions share a span of the scale.  Past the lag the edges
    repeat with the period, twice the period under fv, where parity fixes the
    kind: the scan ends one such window past the lag or ``first - 1``, whichever is later.
    """
    node = play.node
    member = arena.member(node)
    mult = 2 if arena.semantics == FV else 1
    last = max(first - 1, len(member.lag)) + mult * len(member.period)
    for n in range(first, last + 1):
        time = play.now + play.block_scale * ((n + mult - 1) // mult)
        yield time, arena.interrupt_edge(node, n, letter)


def time_for_edge(arena: Arena, play: TimedPlay, edge: ArenaEdge, min_time=None):
    """An interrupt move realizing a labeled arena edge from the current block.

    Picks the earliest position whose edge it is, counting only positions
    whose time is at least ``min_time`` if given (big edges only): the first
    of them is where an interrupt at ``min_time`` lands, from the left under fv.
    """
    kind = edge.kind if arena.semantics == FV else ""
    first = 1
    if min_time is not None:
        probe = InterruptMove(min_time, edge.dst.letter, LEFT if kind else "")
        first, _ = resolve_interrupt(arena, play, probe)
    for time, found in _positions(arena, play, edge.dst.letter, first):
        if found == edge:
            return InterruptMove(time, edge.dst.letter, kind)
    raise PlayError(f"no position realizes {edge} at or after {min_time}")


class RandomEnvironment:
    """Random but legal environment moves; accepts with a small rate.

    ``force_accept_after`` bounds the number of interrupts, making every
    play finite and hence adjudicable (random play is not eventually
    periodic, so capped infinite play cannot be classified).
    """

    def __init__(self, arena: Arena, rng, accept_rate=0.15, force_accept_after=None):
        self.arena = arena
        self.rng = rng
        self.accept_rate = accept_rate
        self.force_accept_after = force_accept_after

    def move(self, play: TimedPlay):
        outs = self.arena.outgoing(play.node)
        if play.node.kind == I_UP and (
            (self.force_accept_after is not None and play.interrupt_count >= self.force_accept_after)
            or not outs
            or self.rng.random() < self.accept_rate
        ):
            return Accept()
        edge = self.rng.choice(outs)
        if play.node.kind != I_UP:
            return edge
        bump = None
        if edge.size == "big" and self.rng.random() < 0.5:
            bump = play.now + self.rng.randint(1, 3)
        return time_for_edge(self.arena, play, edge, bump)


class ViolationEnvironment:
    """Replays a violation witness: reach the flaw, then accept or loop.

    Big edges on the loop are taken at least one time unit apart, which
    forces the total duration to diverge.  An optional rng varies the
    actual interrupt instants (later period repetitions of the same edge),
    which changes the timing but never the traversed edges.
    """

    def __init__(self, arena: Arena, violation: Violation, rng=None):
        self.arena = arena
        self.violation = violation
        self.rng = rng

    def move(self, play: TimedPlay):
        node = play.node
        entry, cycle = self.violation.entry, self.violation.cycle
        # every step but a final accept plays one edge, and until the play
        # diverges each of them is the plan's next edge
        k = len(play.steps)
        if k < len(entry):
            edge = entry[k]
        elif self.violation.kind == "A":
            if node != self.violation.node:
                raise PlayError("violation path ended off target")
            return Accept()
        else:
            edge = cycle[(k - len(entry)) % len(cycle)]
        if edge.src != node:
            raise PlayError(f"environment plan diverged at {node}")
        if node.kind != I_UP:
            return edge
        min_time = None
        if edge.size == "big":
            min_time = play.now + 1
            if self.rng is not None:
                min_time += self.rng.randint(0, 3)
        return time_for_edge(self.arena, play, edge, min_time)


def run_play(arena: Arena, controller, environment, max_rounds):
    """Drive a play to acceptance or the round cap; returns the play."""
    play = new_play(arena)
    while not play.finished and play.interrupt_count < max_rounds:
        actor = controller if arena.owner(play.node) == "O" else environment
        step(play, actor.move(play))
    return play


# -- interactive sessions ----------------------------------------------------


def _parse_time(text) -> Fraction:
    """The time "p/q" or "n" of an ``interrupt`` command."""
    if "/" in text:
        num, den = (int(part) for part in text.split("/", 1))
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    return Fraction(int(text))


HELP_TEXT = """commands:
  start <letter>                 pick the initial input letter
  input <letter>                 pick the input holding for a while (fv)
  accept                         end the play at the current block
  interrupt <t> <letter> [kind]  interrupt at rational time t (kind: left|right, fv only)
  late <letter> [kind]           interrupt as late as legality allows inside the lag
  big <letter> [kind]            interrupt just past the lag (big edge)
  help                           this text
  quit                           stop and adjudicate
"""


class PlaySession:
    """Terminal loop: a scripted controller against environment commands read from ``lines``."""

    def __init__(self, arena: Arena, controller, lines, writer, max_rounds=ROUND_CAP):
        self.arena = arena
        self.controller = controller
        self.lines = lines
        self.writer = writer
        self.max_rounds = max_rounds

    def _render(self, play: TimedPlay):
        node = play.node
        w = self.writer
        w(f"t={play.now} node={self.arena.names[node]}")
        if node.kind == I_UP:
            member = self.arena.member(node)
            lag = ",".join(str(x) for x in member.lag)
            per = ",".join(str(x) for x in member.period)
            final = "final" if node in self.arena.final_up else "non-final"
            w(
                f"  block u{node.up}: lag=[{lag}] period=[{per}] scale="
                f"{play.block_scale} ({final})"
            )
            bound = play.block_scale * 2 * self.arena.lag_bound
            w(f"  small-tail duration bound from here: {bound}")

    def _late_or_big(self, play, letter, kind, size):
        """Interrupt at the last small or the first big position whose edge kind fits ``kind``.

        The move keeps ``kind`` as typed, so ``step`` judges it like an
        ``interrupt`` command; an fv kind other than 'right' picks 'left'
        positions.
        """
        if play.node.kind != I_UP:
            raise IllegalMove("interrupts are only possible at block nodes")
        fits = "interrupt" if self.arena.semantics == RC else (RIGHT if kind == RIGHT else LEFT)
        found = [t for t, e in _positions(self.arena, play, letter) if (e.kind, e.size) == (fits, size)]
        if not found:
            raise IllegalMove("no even lag position to interrupt at")
        return InterruptMove(found[-1] if size == "small" else found[0], letter, kind)

    def _parse(self, play, line):
        parts = line.strip().split()
        if not parts:
            raise IllegalMove("empty command")
        cmd = parts[0].lower()
        if cmd in ("start", "input") and len(parts) == 2:
            if cmd == "start" and play.node.kind != FRESH:
                raise IllegalMove("start moves only at the fresh node")
            if cmd == "input" and play.node.kind != O_DAG:
                raise IllegalMove("input-for-a-while moves only at (q,+) nodes")
            return _letter_edge(self.arena, play.node, parts[1])
        if cmd == "accept":
            return Accept()
        if cmd == "interrupt" and len(parts) in (3, 4):
            kind = parts[3] if len(parts) == 4 else ""
            return InterruptMove(_parse_time(parts[1]), parts[2], kind)
        if cmd in ("late", "big") and len(parts) in (2, 3):
            kind = parts[2] if len(parts) == 3 else (LEFT if self.arena.semantics == FV else "")
            return self._late_or_big(play, parts[1], kind, "small" if cmd == "late" else "big")
        raise IllegalMove(f"cannot parse {line!r}")

    def run(self):
        play = new_play(self.arena)
        lines = iter(self.lines)
        quit_requested = False
        while not play.finished and play.interrupt_count < self.max_rounds:
            mover = self.arena.owner(play.node)
            if mover == "O":
                move = self.controller.move(play)
                step(play, move)
                self.writer(play.steps[-1].text)
                continue
            self._render(play)
            line = next(lines, None)
            if line is None or line.strip().lower() == "quit":
                quit_requested = True
                break
            if line.strip().lower() == "help":
                self.writer(HELP_TEXT)
                continue
            try:
                move = self._parse(play, line)
                step(play, move)
            except (IllegalMove, PlayError, ValueError) as exc:
                self.writer(f"illegal move: {exc}")
                continue
            self.writer(play.steps[-1].text)
        outcome = None
        try:
            outcome = adjudicate(play)
            self.writer(f"outcome: {outcome.winner} wins ({outcome.reason})")
        except UndecidedError:
            if quit_requested:
                self.writer("outcome: undecided (play abandoned early)")
            else:
                raise
        return play, outcome

