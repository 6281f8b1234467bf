"""Spans around the package's public functions, and their self times.

The child process calls :func:`install` after importing the package.  Each
traced function is replaced by a wrapper at every module binding that refers
to it (found by identity, since modules import with ``from .x import f``).
A wrapper records one span per call: name, start, end and the index of the
enclosing span.  Spans stay in memory and are written out when the request
ends.  The parent turns them into per-layer figures with :func:`summarize`.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "nablamu"


def _count_len_result(c, args, kwargs, result):
    c["positions"] = c.get("positions", 0) + len(result)


def _count_arena_arg(c, args, kwargs, result):
    arena = args[0] if args else kwargs["arena"]
    c["positions"] = c.get("positions", 0) + len(arena)


def _count_distinct_keys(c, args, kwargs, result):
    c.setdefault("keys", set()).add(tuple(args[:3]))


def _count_models(c, args, kwargs, result):
    keys = c.setdefault("keys", set())
    if args not in keys:
        keys.add(args)
        c["models"] = c.get("models", 0) + len(result)


def _count_eval_models(c, args, kwargs, result):
    # hold the model so its id is not reused while the request runs
    c.setdefault("models", {})[id(args[0])] = args[0]


def _count_states(c, args, kwargs, result):
    c["states"] = c.get("states", 0) + len(result.states)


def _count_chars(c, args, kwargs, result):
    render = sys.modules[PACKAGE + ".logic"].render_formula
    c["chars"] = c.get("chars", 0) + len(render(result))


def _elems(aut) -> int:
    return sum(len(elems) for _, elems in aut.delta)


def _count_elems(c, args, kwargs, result):
    aut = args[0] if args else kwargs["aut"]
    c["elems_in"] = c.get("elems_in", 0) + _elems(aut)
    c["elems_out"] = c.get("elems_out", 0) + _elems(result)


# Traced functions, named module.function after the package's modules, with
# the counter each one feeds.  laxcheck is left out on purpose: no workload
# runs it.  satisfiability_context, element_satisfiable, prune_unsatisfiable
# and witness_coalgebra are traced for the report only; they are expected to
# disappear, and a missing function is reported, not fatal.
TARGETS = {
    "cli.main": None,
    "automata.normalize": None,
    "automata.build_arena": _count_len_result,
    "automata.accepts": None,
    "automata.winning_pairs": None,
    "automata.satisfiability_context": None,
    "automata.element_satisfiable": None,
    "automata.prune_unsatisfiable": None,
    "automata.witness_coalgebra": None,
    "games.solve_parity": _count_arena_arg,
    "functors.minimal_witnesses": _count_distinct_keys,
    "coalgebra.canonical_models": _count_models,
    "coalgebra.greatest_bisimulation": None,
    "coalgebra.parse_model": None,
    "logic.eval_formula": _count_eval_models,
    "logic.satisfies": None,
    "logic.parse_formula": None,
    "translation.formula_to_automaton": _count_states,
    "translation.automaton_to_formula": _count_chars,
    "projection.project_automaton": _count_elems,
    "interpolation.entails_bounded": None,
    "interpolation.uniform_interpolant": None,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []
        self.counts = {}
        self.missing = []

    def wrap(self, name, fn, counter=None):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counts = self.counts.setdefault(name, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[i] = (idx, start, end, parent)
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def dump(self) -> dict:
        """The spans and counters, as JSON-ready data."""
        counts = {}
        for name, c in self.counts.items():
            counts[name] = {
                k: (len(v) if isinstance(v, (set, dict)) else v) for k, v in c.items()
            }
        return {
            "names": self.names,
            "spans": self.spans,
            "counts": counts,
            "missing": self.missing,
        }


def install(tracer: Tracer, targets=TARGETS, package: str = PACKAGE) -> None:
    """Wrap every target found in the loaded package; record the rest as missing."""
    modules = [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == package or name.startswith(package + "."))
    ]
    for target, counter in targets.items():
        modname, fname = target.split(".")
        mod = sys.modules.get(f"{package}.{modname}")
        fn = getattr(mod, fname, None) if mod is not None else None
        if fn is None:
            tracer.missing.append(target)
            continue
        traced = tracer.wrap(target, fn, counter)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, attr, traced)


# --------------------------------------------------------------------------
# Aggregation (parent side)


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def summarize(names, spans) -> dict:
    """Per function name: calls, self_s (duration minus the part covered by
    child spans) and incl_s (duration of spans with no same-name ancestor)."""
    kids = {}
    for n, s, e, p in spans:
        if p >= 0:
            kids.setdefault(p, []).append((s, e))
    out = {name: {"calls": 0, "self_s": 0.0, "incl_s": 0.0} for name in names}
    for i, (n, s, e, p) in enumerate(spans):
        row = out[names[n]]
        row["calls"] += 1
        row["self_s"] += (e - s) - _covered(kids.get(i, ()), s, e)
        if not has_ancestor(spans, i, n):
            row["incl_s"] += e - s
    return out


def has_ancestor(spans, i, name_idx) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name_idx:
            return True
        p = spans[p][3]
    return False


def count_under(names, spans, name: str, ancestor: str) -> int:
    """How many ``name`` spans lie (at any depth) under an ``ancestor`` span."""
    if name not in names or ancestor not in names:
        return 0
    n, a = names.index(name), names.index(ancestor)
    return sum(1 for i, sp in enumerate(spans) if sp[0] == n and has_ancestor(spans, i, a))
