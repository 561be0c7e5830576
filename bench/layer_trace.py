"""Span recording around the layers' public entry points.

The tracer replaces, in memory only, the module attributes through which
callers reach each layer (for example ``continuous_synth.build_UP`` or
``discrete_game.zielonka``) with wrappers that record a span per call:
name, start, end, parent span and job id.  Spans stay in memory and are
written out when the run ends.  A name that a later refactor removes is
reported as absent instead of failing the run.

Counts (classes, arena nodes, choices examined, ...) are read from the
arguments and results at the same boundaries.  That bookkeeping runs in a
``trace.bookkeeping`` span, so it is not charged to any layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

BOOKKEEPING = "trace.bookkeeping"
JOB_ROOT = "cli.main"


# -- counting hooks: (counts, captured, args, kwargs, result, exc) ------------


def _note(counts, key, value):
    """Add a count; a field missing from a result leaves the metric absent."""
    if value is None:
        counts.setdefault(key, None)
    elif counts.get(key, 0) is not None:
        counts[key] = counts.get(key, 0) + value


def _len(obj, attr):
    value = getattr(obj, attr, None)
    return None if value is None else len(value)


def hook_load(counts, captured, args, kwargs, result, exc):
    if exc is None:
        captured.append(("spec", result))


def hook_table(counts, captured, args, kwargs, result, exc):
    if exc is None:
        _note(counts, "state_monoid.classes", getattr(result, "class_count", None))


def hook_up(counts, captured, args, kwargs, result, exc):
    if exc is not None or not args:
        return
    table = args[0]
    idempotents = _len(table, "idempotents")
    classes = getattr(table, "class_count", None)
    _note(counts, "state_monoid.members", len(result))
    _note(counts, "state_monoid.idempotents", idempotents)
    pairs = None if idempotents is None or classes is None else idempotents * classes
    _note(counts, "state_monoid.up_pairs", pairs)


def behaviour_count(arena) -> int:
    """Distinct (letter, final, labelled successor set, fv node priority) keys."""
    keys = set()
    for node in arena.nodes:
        if node.kind != "i_up":
            continue
        succ = frozenset(
            (e.dst, e.priority, e.size, e.kind) for e in arena.outgoing(node) if e.labeled
        )
        keys.add((node.letter, node in arena.final_up, succ, arena.node_priority(node)))
    return len(keys)


def hook_arena(counts, captured, args, kwargs, result, exc):
    if exc is not None:
        return
    _note(counts, "arena.nodes", _len(result, "nodes"))
    _note(counts, "arena.edges", _len(result, "edges"))
    try:
        blocks = sum(1 for n in result.nodes if n.kind == "i_up")
        behaviours = behaviour_count(result)
    except AttributeError:
        blocks = behaviours = None
    _note(counts, "arena.block_nodes", blocks)
    _note(counts, "arena.behaviours", behaviours)


def hook_decide(counts, captured, args, kwargs, result, exc):
    if exc is not None:
        if type(exc).__name__ in ("ResourceCapError", "MonoidCapExceeded"):
            _note(counts, "continuous_synth.capped", 1)
        return
    stats = getattr(result, "stats", None)
    _note(counts, "continuous_synth.choices_examined", getattr(stats, "strategies_examined", None))
    _note(counts, "continuous_synth.pruned", getattr(stats, "pruned", None))
    _note(counts, "continuous_synth.capped", 0)
    captured.append(("synth", result))


def hook_solve(counts, captured, args, kwargs, result, exc):
    if exc is None:
        captured.append(("discrete", result))


def hook_zielonka(counts, captured, args, kwargs, result, exc):
    if not args:
        return
    game = args[0]
    succ = getattr(game, "succ", None)
    _note(counts, "discrete_game.game_nodes", _len(game, "owner"))
    _note(counts, "discrete_game.game_edges", None if succ is None else sum(map(len, succ.values())))


def hook_product(counts, captured, args, kwargs, result, exc):
    if exc is None:
        _note(counts, "definable_synth.product_states", _len(result, "states"))
        captured.append(("product", result))


def hook_definable(counts, captured, args, kwargs, result, exc):
    if exc is None:
        captured.append(("definable", result))


# (module, attribute as the caller looks it up, span name, counting hook)
WRAPS = (
    ("cli", "load_automaton", "automaton.load", hook_load),
    ("cli", "convert_convention", "automaton.convert", None),
    ("cli", "build_class_table", "state_monoid.table", hook_table),
    ("cli", "build_UP", "state_monoid.up", hook_up),
    ("cli", "build_rc_arena", "arena.build", hook_arena),
    ("cli", "build_fv_arena", "arena.build", hook_arena),
    ("cli", "export_dot", "arena.export", None),
    ("cli", "arena_to_json", "arena.export", None),
    ("cli", "decide_continuous", "continuous_synth.decide", hook_decide),
    ("cli", "solve", "discrete_game.solve", hook_solve),
    ("cli", "solve_definable", "definable_synth.solve", hook_definable),
    ("continuous_synth", "convert_convention", "automaton.convert", None),
    ("continuous_synth", "build_class_table", "state_monoid.table", hook_table),
    ("continuous_synth", "build_UP", "state_monoid.up", hook_up),
    ("continuous_synth", "build_rc_arena", "arena.build", hook_arena),
    ("continuous_synth", "build_fv_arena", "arena.build", hook_arena),
    ("continuous_synth", "enumerate_choices", "continuous_synth.search", None),
    ("continuous_synth", "find_violation", "continuous_synth.check", None),
    ("discrete_game", "convert_convention", "automaton.convert", None),
    ("discrete_game", "game_from_automaton", "discrete_game.game", None),
    ("discrete_game", "zielonka", "discrete_game.zielonka", hook_zielonka),
    ("definable_synth", "convert_convention", "automaton.convert", None),
    ("definable_synth", "product_with_monitor", "automaton.product", hook_product),
    ("definable_synth", "solve", "discrete_game.solve", None),
    ("definable_synth", "game_from_automaton", "discrete_game.game", None),
    ("definable_synth", "zielonka", "discrete_game.zielonka", hook_zielonka),
    ("game_sim", "PlaySession.run", "game_sim.session", None),
    ("game_sim", "step", "game_sim.step", None),
    ("game_sim", "adjudicate", "game_sim.adjudicate", None),
)

# metric -> spans whose self time it sums
TIME_METRICS = {
    "automaton.load_s": ("automaton.load",),
    "automaton.convert_s": ("automaton.convert",),
    "automaton.product_s": ("automaton.product",),
    "state_monoid.table_s": ("state_monoid.table",),
    "state_monoid.up_s": ("state_monoid.up",),
    "arena.build_s": ("arena.build",),
    "arena.export_s": ("arena.export",),
    "continuous_synth.decide_s": ("continuous_synth.decide",),
    "continuous_synth.search_s": ("continuous_synth.search",),
    "continuous_synth.check_s": ("continuous_synth.check",),
    "discrete_game.solve_s": ("discrete_game.solve", "discrete_game.game"),
    "discrete_game.zielonka_s": ("discrete_game.zielonka",),
    "definable_synth.solve_s": ("definable_synth.solve",),
    "game_sim.session_s": ("game_sim.session",),
    "game_sim.step_s": ("game_sim.step",),
    "game_sim.adjudicate_s": ("game_sim.adjudicate",),
    "cli.self_s": (JOB_ROOT,),
}

# metric -> span whose calls it counts
CALL_METRICS = {
    "continuous_synth.check_calls": "continuous_synth.check",
    "discrete_game.zielonka_calls": "discrete_game.zielonka",
    "game_sim.plays": "game_sim.session",
    "game_sim.steps": "game_sim.step",
}

# counts reported as recorded by the hooks or the harness, under their own names
COUNT_METRICS = (
    "state_monoid.classes",
    "state_monoid.members",
    "state_monoid.idempotents",
    "arena.nodes",
    "arena.edges",
    "arena.block_nodes",
    "arena.behaviours",
    "arena.export_bytes",
    "continuous_synth.choices_examined",
    "continuous_synth.pruned",
    "continuous_synth.capped",
    "discrete_game.game_nodes",
    "discrete_game.game_edges",
    "definable_synth.product_states",
    "game_sim.illegal_lines",
    "cli.out_bytes",
)

# metric -> (numerator count, denominator count)
RATIO_METRICS = {
    "state_monoid.up_yield": ("state_monoid.members", "state_monoid.up_pairs"),
    "arena.useful_ratio": ("arena.behaviours", "arena.block_nodes"),
    "continuous_synth.prune_ratio": ("continuous_synth.pruned", "continuous_synth.choices_examined"),
}

UNITS = {"_s": "s", "_bytes": "bytes"}
RATIO_UNIT = "ratio"


def metric_unit(name: str) -> str:
    if name in RATIO_METRICS or name in ("definable_synth.zielonka_per_job", "trace.overhead"):
        return RATIO_UNIT
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


PER_LAYER = (
    tuple(TIME_METRICS)
    + tuple(CALL_METRICS)
    + tuple(COUNT_METRICS)
    + tuple(RATIO_METRICS)
    + ("definable_synth.zielonka_per_job", "trace.overhead", "trace.spans", "certify.checks")
)


class Tracer:
    """Records spans while a job is active; passes calls straight through otherwise."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, job]
        self.stack = []
        self.job = None
        self.job_names = []
        self.counts = {}
        self.captured = []
        self.installed = {JOB_ROOT}  # span names with at least one wrapper in place
        self.missing = []  # "module.attr" targets that do not exist
        self.hook_errors = []
        self._restore = []

    # -- spans --

    def _open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), None, parent, self.job])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        if self.stack and self.stack[-1] == idx:
            self.stack.pop()
        elif idx in self.stack:
            self.stack.remove(idx)

    def begin_job(self, name):
        self.job = len(self.job_names)
        self.job_names.append(name)
        self.captured = []
        self._open(JOB_ROOT)

    def end_job(self):
        # a generator the job abandoned without closing leaves its span open
        for idx in reversed(self.stack):
            self.spans[idx][2] = perf_counter()
        self.stack.clear()
        self.job = None
        captured, self.captured = self.captured, []
        return captured

    def _bookkeep(self, hook, args, kwargs, result, exc):
        idx = self._open(BOOKKEEPING)
        try:
            hook(self.counts, self.captured, args, kwargs, result, exc)
        except Exception as err:  # a result shape the hook does not know must not break the job
            self.hook_errors.append(f"{hook.__name__}: {type(err).__name__}: {err}")
        finally:
            self._close(idx)

    # -- wrappers --

    def _wrap(self, fn, name, hook):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if tracer.job is None:
                    return (yield from fn(*args, **kwargs))
                idx = tracer._open(name)
                try:
                    return (yield from fn(*args, **kwargs))
                finally:
                    tracer._close(idx)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx)
                if hook is not None:
                    tracer._bookkeep(hook, args, kwargs, None, exc)
                raise
            tracer._close(idx)
            if hook is not None:
                tracer._bookkeep(hook, args, kwargs, result, None)
            return result

        return wrapper

    def install(self, package="chronosynth"):
        self.missing = []
        for module_name, attr, span, hook in WRAPS:
            try:
                owner = importlib.import_module(f"{package}.{module_name}")
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if not callable(fn):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(fn, span, hook))
            self._restore.append((owner, leaf, fn))
            self.installed.add(span)

    def uninstall(self):
        for owner, leaf, fn in reversed(self._restore):
            setattr(owner, leaf, fn)
        self._restore.clear()

    # -- results --

    def self_times(self):
        """Per span: duration minus the time its child spans cover."""
        child = defaultdict(float)
        for _name, start, end, parent, _job in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(span[0], (span[2] - span[1]) - child[i]) for i, span in enumerate(self.spans)]

    def metrics(self, passes, extra):
        """Per-layer metrics per pass, with a status of ok / not exercised / absent.

        ``extra`` holds harness-side values: counts keyed like the hooks, plus
        ``trace.overhead``, ``certify.checks`` and ``definable_jobs``.
        """
        selfs = self.self_times()
        totals, calls = defaultdict(float), defaultdict(int)
        for name, dur in selfs:
            totals[name] += dur
            calls[name] += 1
        counts = dict(self.counts)
        for key, value in extra.items():
            if key in COUNT_METRICS:
                counts[key] = value
        out = {}

        def put(name, value, status):
            if status != "ok":
                value = 0.0
            out[name] = (value, metric_unit(name), status)

        def span_status(spans):
            if not any(s in self.installed for s in spans):
                return "absent"
            return "ok" if any(calls[s] for s in spans) else "not exercised"

        for name, spans in TIME_METRICS.items():
            put(name, sum(totals[s] for s in spans) / passes, span_status(spans))
        for name, span in CALL_METRICS.items():
            put(name, calls[span] / passes, span_status((span,)))
        for name in COUNT_METRICS:
            value = counts.get(name, "unset")
            if value is None:
                put(name, 0.0, "absent")
            elif value == "unset":
                put(name, 0.0, "not exercised")
            else:
                put(name, value / passes, "ok")
        for name, (num, den) in RATIO_METRICS.items():
            n, d = counts.get(num), counts.get(den)
            if n is None or d is None:
                put(name, 0.0, "absent" if num in counts or den in counts else "not exercised")
            elif d == 0:
                put(name, 0.0, "not exercised")
            else:
                put(name, n / d, "ok")
        ziel_under_definable = self._calls_under("discrete_game.zielonka", "definable_synth.solve")
        definable_jobs = extra.get("definable_jobs", 0)
        if "definable_synth.solve" not in self.installed:
            put("definable_synth.zielonka_per_job", 0.0, "absent")
        elif definable_jobs:
            put("definable_synth.zielonka_per_job", ziel_under_definable / definable_jobs, "ok")
        else:
            put("definable_synth.zielonka_per_job", 0.0, "not exercised")
        put("trace.overhead", extra["trace.overhead"], "ok")
        put("trace.spans", len(self.spans) / passes, "ok")
        put("certify.checks", extra["certify.checks"] / passes, "ok")
        return out

    def _calls_under(self, name, ancestor):
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent is not None:
                if self.spans[parent][0] == ancestor:
                    n += 1
                    break
                parent = self.spans[parent][3]
        return n

    def write(self, path, header):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        payload = dict(header)
        payload["span_names"] = names
        payload["span_fields"] = ["name", "start_s", "end_s", "parent", "job"]
        payload["missing_wrap_targets"] = self.missing
        payload["spans"] = [
            [index[n], round(s, 7), round(e, 7), p, j] for n, s, e, p, j in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.write("\n")
