"""Operational semantics of the timed interrupt games.

A play walks the arena with exact rational timestamps.  The controller
commits blocks (an arena edge to a block node plus a positive time scale);
the environment either accepts, ending the play, or interrupts at a chosen
time, which resolves to a position inside the block: in the
right-continuous game position n covers the half-open span ending at
scale * n; in the finite-variability game odd positions are open intervals
(interrupts from the left) and even positions are grid points (interrupts
from the right, legal exactly at the grid).

Adjudication of capped plays detects the eventual cycle of the move
sequence: an all-small cycle under geometrically shrinking scales keeps
the total duration finite and goes to the controller; otherwise the
maximal effective priority on the cycle decides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .arena import (
    FRESH, FV, I_DAG, I_UP, LEFT, O_DAG, O_PAIR, RC, RIGHT, Arena, ArenaEdge, ArenaNode, interrupt_at,
)
from .continuous_synth import Violation, effective_priority
from .rationals import format_rational, parse_rational


class PlayError(Exception):
    pass


class IllegalMove(PlayError):
    pass


class UndecidedError(PlayError):
    """The round cap was too small to classify the play."""


# -- moves -------------------------------------------------------------------


@dataclass(frozen=True)
class StartInput:
    letter: str


@dataclass(frozen=True)
class PointOutput:
    state: object


@dataclass(frozen=True)
class InputForAWhile:
    letter: str


@dataclass(frozen=True)
class BlockMove:
    edge: ArenaEdge
    scale: Fraction


@dataclass(frozen=True)
class Accept:
    pass


@dataclass(frozen=True)
class InterruptMove:
    time: Fraction
    letter: str
    kind: str = ""  # '' for rc; 'left' | 'right' for fv


@dataclass(frozen=True)
class TraceStep:
    mover: str
    text: str
    edge: ArenaEdge
    time: Fraction
    scale: Fraction = None


@dataclass
class TimedPlay:
    arena: Arena
    node: ArenaNode
    now: Fraction
    block_index: int = 0  # number of block moves committed so far
    block_start: Fraction = None
    block_scale: Fraction = None
    steps: list = field(default_factory=list)
    finished: bool = False
    final_accepting: bool = None

    @property
    def interrupt_count(self):
        return sum(1 for s in self.steps if s.text.startswith("I interrupt"))

    def transcript(self) -> str:
        return "\n".join(s.text for s in self.steps) + ("\n" if self.steps else "")


@dataclass(frozen=True)
class PlayOutcome:
    winner: str  # 'O' | 'I'
    reason: str  # accepted_final | rejected_final | zeno_O_win | parity_even | parity_odd


def new_play(arena: Arena) -> TimedPlay:
    return TimedPlay(arena=arena, node=arena.fresh, now=Fraction(0))


def _prefix_max_priority(arena: Arena, member, n: int) -> int:
    """Max state priority over positions 1..n; constant past lag + period."""
    pr = arena.automaton.priority
    cap = min(n, len(member.lag) + len(member.period))
    best = max(pr[member.letter(i)] for i in range(1, cap + 1))
    return best


def _ceil_div(num: Fraction, den: Fraction) -> int:
    q = num / den
    return -((-q.numerator) // q.denominator)


def _interrupt_edge(arena: Arena, node: ArenaNode, n: int, b) -> ArenaEdge:
    """The labeled edge of an interrupt to letter b at position n of node's block."""
    member = arena.member(node)
    dst, kind, size = interrupt_at(arena.semantics, member, n, b)
    return ArenaEdge(node, dst, _prefix_max_priority(arena, member, n), size, kind)


def _position_time(arena: Arena, play: TimedPlay, n: int) -> Fraction:
    """The latest interrupt time that resolves to position n of the current block."""
    spans = n if arena.semantics == RC else -(-n // 2)
    return play.block_start + play.block_scale * spans


def resolve_interrupt(arena: Arena, play: TimedPlay, move: InterruptMove):
    """Map an interrupt move at a block node to (position, arena edge)."""
    node = play.node
    t0, delta = play.block_start, play.block_scale
    t = Fraction(move.time)
    if t <= t0:
        raise IllegalMove(f"interrupt time {t} not after the block start {t0}")
    if move.letter not in arena.automaton.sigma_in:
        raise IllegalMove(f"unknown input letter {move.letter!r}")
    if move.letter == node.letter:
        raise IllegalMove("interrupts must change the input letter")
    if arena.semantics == RC:
        if move.kind:
            raise IllegalMove("interrupt kinds belong to the fv game")
        n = _ceil_div(t - t0, delta)
    elif move.kind == LEFT:
        n = 2 * _ceil_div(t - t0, delta) - 1
    elif move.kind == RIGHT:
        ratio = (t - t0) / delta
        if ratio.denominator != 1:
            raise IllegalMove(
                "interrupts from the right are legal exactly at grid points"
            )
        n = 2 * ratio.numerator
    else:
        raise IllegalMove("fv interrupts must pick kind 'left' or 'right'")
    edge = _interrupt_edge(arena, node, n, move.letter)
    if edge not in arena.outgoing(node):
        raise PlayError(f"resolved edge missing from the arena: {edge}")
    return n, edge


def step(play: TimedPlay, move) -> TimedPlay:
    """Apply one move, validating ownership and legality."""
    arena = play.arena
    node = play.node
    if play.finished:
        raise IllegalMove("the play has ended")

    if isinstance(move, StartInput):
        if node.kind != FRESH:
            raise IllegalMove("start moves only at the fresh node")
        dst = ArenaNode(O_PAIR, arena.automaton.initial, move.letter)
        edge = ArenaEdge(node, dst)
        if edge not in arena.outgoing(node):
            raise IllegalMove(f"unknown input letter {move.letter!r}")
        play.node = dst
        play.steps.append(TraceStep("I", f"I start a={move.letter}", edge, play.now))
        return play

    if isinstance(move, PointOutput):
        if not (node.kind == O_PAIR and arena.semantics == FV):
            raise IllegalMove("point outputs only at (q,a) nodes of the fv game")
        dst = ArenaNode(O_DAG, move.state)
        edge = ArenaEdge(node, dst)
        if edge not in arena.outgoing(node):
            raise IllegalMove(f"no output reaches state {move.state!r}")
        play.node = dst
        play.steps.append(TraceStep("O", f"O point q={move.state}", edge, play.now))
        return play

    if isinstance(move, InputForAWhile):
        if node.kind != O_DAG:
            raise IllegalMove("input-for-a-while moves only at (q,+) nodes")
        dst = ArenaNode(I_DAG, node.state, move.letter)
        edge = ArenaEdge(node, dst)
        if edge not in arena.outgoing(node):
            raise IllegalMove(f"unknown input letter {move.letter!r}")
        play.node = dst
        play.steps.append(TraceStep("I", f"I input a={move.letter}", edge, play.now))
        return play

    if isinstance(move, BlockMove):
        expected = O_PAIR if arena.semantics == RC else I_DAG
        if node.kind != expected:
            raise IllegalMove("block moves only at the controller's block nodes")
        if move.edge.src != node or move.edge not in arena.outgoing(node):
            raise IllegalMove("block edge does not leave the current node")
        scale = Fraction(move.scale)
        if scale <= 0:
            raise IllegalMove("block scales must be positive")
        play.node = move.edge.dst
        play.block_start = play.now
        play.block_scale = scale
        play.block_index += 1
        play.steps.append(
            TraceStep(
                "O",
                f"O block u=u{move.edge.dst.up} scale={format_rational(scale)}",
                move.edge,
                play.now,
                scale,
            )
        )
        return play

    if isinstance(move, Accept):
        if node.kind != I_UP:
            raise IllegalMove("accepting is only possible at block nodes")
        play.finished = True
        play.final_accepting = node in arena.final_up
        play.steps.append(TraceStep("I", "I accept", None, play.now))
        return play

    if isinstance(move, InterruptMove):
        if node.kind != I_UP:
            raise IllegalMove("interrupts are only possible at block nodes")
        n, edge = resolve_interrupt(arena, play, move)
        play.node = edge.dst
        play.now = Fraction(move.time)
        kind_part = f" kind={edge.kind}" if arena.semantics == FV else ""
        play.steps.append(
            TraceStep(
                "I",
                f"I interrupt t={format_rational(move.time)} letter={move.letter}{kind_part}",
                edge,
                play.now,
            )
        )
        return play

    raise IllegalMove(f"unknown move {move!r}")


def adjudicate(play: TimedPlay) -> PlayOutcome:
    """Classify a finished or capped play.

    Finite plays are decided by the final node.  Capped plays must show an
    eventual cycle in their move sequence: an all-small cycle whose block
    scales keep halving converges (total time bounded by the lag bound
    times the remaining geometric sum) and goes to the controller; any
    other cycle is decided by its maximal effective priority.
    """
    if play.finished:
        if play.final_accepting:
            return PlayOutcome("O", "accepted_final")
        return PlayOutcome("I", "rejected_final")
    arena = play.arena
    edges = [s.edge for s in play.steps if s.edge is not None]
    cycle = None
    for lam in range(1, len(edges) // 3 + 1):
        if edges[-lam:] == edges[-2 * lam : -lam] == edges[-3 * lam : -2 * lam]:
            cycle = edges[-lam:]
            break
    if cycle is None:
        raise UndecidedError("no eventual cycle visible; raise the round cap")
    interrupts = [e for e in cycle if e.labeled]
    scales = [s.scale for s in play.steps if s.scale is not None]
    shrinking = all(b <= a / 2 for a, b in zip(scales, scales[1:]))
    if interrupts and all(e.size == "small" for e in interrupts) and shrinking:
        return PlayOutcome("O", "zeno_O_win")
    prios = [p for e in cycle if (p := effective_priority(arena, e)) is not None]
    if not prios:
        raise UndecidedError("cycle carries no priorities; malformed play")
    top = max(prios)
    if top % 2 == 0:
        return PlayOutcome("O", "parity_even")
    return PlayOutcome("I", "parity_odd")


# -- players -----------------------------------------------------------------


class ChoiceController:
    """Plays a positional choice; the i-th block uses scale 2^-i."""

    def __init__(self, arena: Arena, choice: dict):
        self.arena = arena
        self.choice = dict(choice)

    def move(self, play: TimedPlay):
        node = play.node
        if node not in self.choice:
            raise PlayError(f"controller has no choice at {node}")
        edge = self.choice[node]
        if node.kind == O_PAIR and self.arena.semantics == FV:
            return PointOutput(edge.dst.state)
        return BlockMove(edge, Fraction(1, 2**play.block_index))


def time_for_edge(arena: Arena, play: TimedPlay, edge: ArenaEdge, min_time=None):
    """An interrupt move realizing a labeled arena edge from the current block.

    Picks the earliest matching position; with ``min_time`` (big edges
    only), later period repetitions are used until the realization time
    reaches it.
    """
    node = play.node
    member = arena.member(node)
    lag_len, period_len = len(member.lag), len(member.period)
    # fv positions advance the clock by delta per two positions
    mult = 2 if arena.semantics == FV else 1
    start = 1
    if min_time is not None and min_time > play.block_start:
        approx = _ceil_div(Fraction(min_time) - play.block_start, play.block_scale) * mult
        start = max(1, approx - 2 * period_len * mult - 2)
    horizon = max(start, lag_len) + (4 * period_len + 2) * mult
    for n in range(start, horizon + 1):
        if _interrupt_edge(arena, node, n, edge.dst.letter) != edge:
            continue
        t = _position_time(arena, play, n)
        if min_time is not None and t < min_time:
            continue
        kind = edge.kind if arena.semantics == FV else ""
        return InterruptMove(t, edge.dst.letter, kind)
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
        node = play.node
        outs = self.arena.outgoing(node)
        if node.kind in (FRESH, O_DAG):
            edge = self.rng.choice(sorted(outs))
            if node.kind == FRESH:
                return StartInput(edge.dst.letter)
            return InputForAWhile(edge.dst.letter)
        if (
            self.force_accept_after is not None
            and play.interrupt_count >= self.force_accept_after
        ):
            return Accept()
        if not outs or self.rng.random() < self.accept_rate:
            return Accept()
        edge = self.rng.choice(sorted(outs))
        bump = None
        if edge.size == "big" and self.rng.random() < 0.5:
            bump = play.now + self.rng.randint(1, 3)
        return time_for_edge(self.arena, play, edge, min_time=bump)


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
        if node.kind == FRESH:
            return StartInput(edge.dst.letter)
        if node.kind == O_DAG:
            return InputForAWhile(edge.dst.letter)
        min_time = None
        if edge.size == "big":
            min_time = play.now + 1
            if self.rng is not None:
                min_time += self.rng.randint(0, 3)
        return time_for_edge(self.arena, play, edge, min_time=min_time)


def run_play(arena: Arena, controller, environment, max_rounds=40, max_steps=5000):
    """Drive a play to acceptance or the round cap; returns the play."""
    play = new_play(arena)
    steps = 0
    while not play.finished and play.interrupt_count < max_rounds and steps < max_steps:
        mover = arena.owner(play.node)
        actor = controller if mover == "O" else environment
        move = actor.move(play)
        step(play, move)
        steps += 1
    return play


# -- the geometric-scale demonstration play ----------------------------------


class HoldThenFlipController:
    """Block choice that keeps the current output for one span, then jumps.

    Scales shrink geometrically, so an environment determined to interrupt
    before the jump materializes runs out of time.
    """

    def __init__(self, arena: Arena, settle_state):
        self.arena = arena
        self.settle = settle_state

    def pick_block_edge(self, node):
        best = None
        for e in self.arena.outgoing(node):
            member = self.arena.member(e.dst)
            if member.letter(1) == self.settle:
                continue
            if member.letter(2) != self.settle:
                continue
            if set(member.period) != {self.settle}:
                continue
            if best is None:
                best = e
        if best is None:
            raise PlayError(f"no hold-then-flip block available at {node}")
        return best

    def move(self, play: TimedPlay):
        node = play.node
        if node.kind == O_PAIR and self.arena.semantics == FV:
            raise PlayError("this demonstration runs on the rc arena")
        edge = self.pick_block_edge(node)
        return BlockMove(edge, Fraction(1, 2**play.block_index))


class LastInstantInterrupter:
    """Always interrupts at the last instant before the controller's jump."""

    def __init__(self, arena: Arena, rounds: int):
        self.arena = arena
        self.rounds = rounds
        self.toggle = 0

    def move(self, play: TimedPlay):
        node = play.node
        if node.kind == FRESH:
            return StartInput(self.arena.automaton.sigma_in[0])
        if play.interrupt_count >= self.rounds:
            return Accept()
        others = [x for x in self.arena.automaton.sigma_in if x != node.letter]
        letter = others[self.toggle % len(others)]
        self.toggle += 1
        # position 1 is the last span before the flip at position 2
        return InterruptMove(_position_time(self.arena, play, 1), letter, "")


def play_example_geometric(rounds: int = 8):
    """Scripted duel on the output-must-jump spec, right-continuous arena.

    The environment interrupts each block as late as it can without letting
    the jump happen; after ``rounds`` interrupts it gives up and accepts.
    Round i consumes exactly 2^-i time units, so the total duration stays
    below 2 no matter how long it fights.
    """
    from .continuous_synth import decide_continuous
    from .fixtures import jump_spec_rc

    spec = jump_spec_rc()
    result = decide_continuous(spec, RC)
    arena = result.arena
    controller = HoldThenFlipController(arena, "done")
    environment = LastInstantInterrupter(arena, rounds)
    play = run_play(arena, controller, environment, max_rounds=rounds + 2)
    return play


# -- interactive sessions ----------------------------------------------------


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
    """Terminal loop: the human is the environment, the controller is scripted."""

    def __init__(self, arena: Arena, controller, reader, writer, max_rounds=50):
        self.arena = arena
        self.controller = controller
        self.reader = reader
        self.writer = writer
        self.max_rounds = max_rounds

    def _render(self, play: TimedPlay):
        node = play.node
        w = self.writer
        w(f"t={format_rational(play.now)} node={node.pretty(self.arena)}")
        if node.kind == I_UP:
            member = self.arena.member(node)
            lag = ",".join(str(x) for x in member.lag)
            per = ",".join(str(x) for x in member.period)
            final = "final" if node in self.arena.final_up else "non-final"
            w(
                f"  block u{node.up}: lag=[{lag}] period=[{per}] scale="
                f"{format_rational(play.block_scale)} ({final})"
            )
            bound = play.block_scale * 2 * self.arena.lag_bound
            w(f"  small-tail duration bound from here: {format_rational(bound)}")

    def _late_or_big(self, play, letter, kind, size):
        """Interrupt at the last small or the first big position whose edge kind fits ``kind``.

        The move keeps ``kind`` as typed, so ``step`` judges it like an
        ``interrupt`` command; an fv kind other than 'right' picks 'left'
        positions.
        """
        node = play.node
        if node.kind != I_UP:
            raise IllegalMove("interrupts are only possible at block nodes")
        member = self.arena.member(node)
        fits = "interrupt" if self.arena.semantics == RC else (RIGHT if kind == RIGHT else LEFT)
        lag_len = len(member.lag)
        positions = range(lag_len, 0, -1) if size == "small" else (lag_len + 1, lag_len + 2)
        for n in positions:
            _, edge_kind, edge_size = interrupt_at(self.arena.semantics, member, n, letter)
            if (edge_kind, edge_size) == (fits, size):
                return InterruptMove(_position_time(self.arena, play, n), letter, kind)
        raise IllegalMove("no even lag position to interrupt at")

    def _parse(self, play, line):
        parts = line.strip().split()
        if not parts:
            raise IllegalMove("empty command")
        cmd = parts[0].lower()
        if cmd == "start" and len(parts) == 2:
            return StartInput(parts[1])
        if cmd == "input" and len(parts) == 2:
            return InputForAWhile(parts[1])
        if cmd == "accept":
            return Accept()
        if cmd == "interrupt" and len(parts) in (3, 4):
            kind = parts[3] if len(parts) == 4 else ""
            return InterruptMove(parse_rational(parts[1]), parts[2], kind)
        if cmd == "late" and len(parts) in (2, 3):
            kind = parts[2] if len(parts) == 3 else (LEFT if self.arena.semantics == FV else "")
            return self._late_or_big(play, parts[1], kind, "small")
        if cmd == "big" and len(parts) in (2, 3):
            kind = parts[2] if len(parts) == 3 else (LEFT if self.arena.semantics == FV else "")
            return self._late_or_big(play, parts[1], kind, "big")
        raise IllegalMove(f"cannot parse {line!r}")

    def run(self):
        play = new_play(self.arena)
        quit_requested = False
        while not play.finished and play.interrupt_count < self.max_rounds:
            mover = self.arena.owner(play.node)
            if mover == "O":
                move = self.controller.move(play)
                step(play, move)
                self.writer(play.steps[-1].text)
                continue
            self._render(play)
            line = self.reader()
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


def script_reader(lines):
    it = iter(lines)

    def read():
        return next(it, None)

    return read
