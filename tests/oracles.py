"""Slow reference procedures that the tests check the library against.

``brute_force_solve`` solves a parity game by naive nested fixpoints, as an
oracle for ``discrete_game.zielonka``; ``naive_equiv`` checks the defining
conditions of the state-string congruence literally, as an oracle for
``state_monoid.signature_of`` and ``product``.
"""

from chronosynth.discrete_game import GameError, GameGraph
from chronosynth.state_monoid import MonoidContext, MonoidError


def brute_force_solve(g: GameGraph, node_cap: int = 64):
    """Winning region of the output player via naive nested fixpoints.

    Evaluates the alternating fixpoint over one set variable per priority
    value, highest priority outermost (greatest fixpoint when even).  Used
    only as an oracle; exponential in alternations.
    """
    g.check()
    if len(g.owner) > node_cap:
        raise GameError(f"brute force oracle capped at {node_cap} nodes")
    prios = sorted({g.priority[v] for v in g.owner}, reverse=True)
    nodes = set(g.owner)
    X = {}

    def phi():
        res = set()
        for v in nodes:
            quantifier = any if g.owner[v] == "O" else all
            if quantifier(w in X[g.priority[w]] for w in g.succ[v]):
                res.add(v)
        return res

    def eval_chain(i):
        p = prios[i]
        X[p] = set(nodes) if p % 2 == 0 else set()
        while True:
            val = eval_chain(i + 1) if i + 1 < len(prios) else phi()
            if val == X[p]:
                return val
            X[p] = val

    w_o = eval_chain(0)
    return w_o, nodes - w_o


def naive_equiv(u, v, ctx: MonoidContext) -> bool:
    """Literal double-loop check of the defining conditions; test oracle."""
    u, v = tuple(u), tuple(v)
    if not u or not v:
        raise MonoidError("nonempty strings required")
    if u[0] != v[0] or u[-1] != v[-1]:
        return False

    def covers(x, y):
        for m in range(len(x)):
            before_m = set(x[:m])
            found = False
            for n in range(len(y)):
                if y[n] == x[m] and set(y[:n]) == before_m:
                    found = True
                    break
            if not found:
                return False
        return True

    if not covers(u, v) or not covers(v, u):
        return False
    for a in ctx.letters:
        ru = all(ctx.has_edge(a, u[i], u[i + 1]) for i in range(len(u) - 1))
        rv = all(ctx.has_edge(a, v[i], v[i + 1]) for i in range(len(v) - 1))
        if ru != rv:
            return False
    return True
