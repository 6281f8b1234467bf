"""Naive powerset nabla/mu evaluator used to check the program's verdicts.

It shares no code with the package under test: formulas and model files are
parsed here, and extensions are computed by plain Kleene iteration over
bitsets (bit i stands for the i-th declared state).

Semantics (Kripke frames, the powerset functor): ``nabla {f1, ..., fk}``
holds at s iff every successor of s satisfies some fi and every fi holds at
some successor of s; ``nabla {}`` therefore means "no successors".
"""

from __future__ import annotations

import itertools
import re

_TOKEN = re.compile(r"\s*(\\/|/\\|[A-Za-z][A-Za-z0-9_]*|[~(){},.;])")


def _tokens(text: str) -> list:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"unexpected input at {pos}: {text[pos:pos + 20]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Cursor:
    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, tok=None):
        got = self.peek()
        if got is None or (tok is not None and got != tok):
            raise ValueError(f"expected {tok!r}, got {got!r}")
        self.i += 1
        return got

    def items(self, parse_item, open_tok="{", close_tok="}"):
        self.take(open_tok)
        out = []
        if self.peek() == close_tok:
            self.take()
            return out
        while True:
            out.append(parse_item())
            if self.take() == close_tok:
                return out


# --------------------------------------------------------------------------
# Formulas: ('top',) ('bot',) ('atom', p) ('not', f) ('and', f, g)
# ('or', [f...]) ('nabla', [f...]) ('mu', x, f) ('nu', x, f)


def parse_formula(text: str):
    cur = _Cursor(text)
    f = _formula(cur)
    if cur.peek() is not None:
        raise ValueError(f"trailing input {cur.peek()!r}")
    return f


def _formula(cur: _Cursor):
    tok = cur.take()
    if tok in ("mu", "nu"):
        var = cur.take()
        cur.take(".")
        return (tok, var, _formula(cur))
    if tok == "~":
        return ("not", _formula(cur))
    if tok == "true":
        return ("top",)
    if tok == "false":
        return ("bot",)
    if tok == "nabla":
        return ("nabla", cur.items(lambda: _formula(cur)))
    if tok == "\\/":
        return ("or", cur.items(lambda: _formula(cur)))
    if tok == "(":
        left = _formula(cur)
        op = cur.take()
        right = _formula(cur)
        cur.take(")")
        if op == "/\\":
            return ("and", left, right)
        if op == "\\/":
            return ("or", [left, right])
        raise ValueError(f"expected a connective, got {op!r}")
    if not tok[0].isalpha():
        raise ValueError(f"unexpected token {tok!r}")
    return ("atom", tok)


def free_atoms(f, bound=frozenset()) -> frozenset:
    """Atoms not bound by an enclosing fixpoint."""
    tag = f[0]
    if tag == "atom":
        return frozenset() if f[1] in bound else frozenset((f[1],))
    if tag in ("top", "bot"):
        return frozenset()
    if tag == "not":
        return free_atoms(f[1], bound)
    if tag == "and":
        return free_atoms(f[1], bound) | free_atoms(f[2], bound)
    if tag in ("or", "nabla"):
        return frozenset().union(*(free_atoms(g, bound) for g in f[1]))
    return free_atoms(f[2], bound | {f[1]})


# --------------------------------------------------------------------------
# Models


class Model:
    """A finite Kripke model: ``succ[i]`` and ``label[p]`` are state bitsets."""

    def __init__(self, names, succ, label, point=None):
        self.names = list(names)
        self.succ = list(succ)
        self.label = dict(label)
        self.point = point

    @property
    def full(self) -> int:
        return (1 << len(self.names)) - 1

    def states_of(self, mask: int) -> list:
        return [s for i, s in enumerate(self.names) if mask >> i & 1]


def parse_model(text: str) -> Model:
    """Parse the powerset model file format (``state s; sigma {..}; gamma {..};``)."""
    cur = _Cursor(text)
    cur.take("functor")
    if cur.take() != "powerset":
        raise ValueError("the oracle only knows the powerset functor")
    cur.take(";")
    cur.take("props")
    props = cur.items(cur.take)
    cur.take(";")
    names, sigma, gamma, point = [], [], [], None
    while cur.peek() is not None:
        kw = cur.take()
        if kw == "state":
            names.append(cur.take())
            cur.take(";")
            cur.take("sigma")
            sigma.append(cur.items(cur.take))
            cur.take(";")
            cur.take("gamma")
            gamma.append(cur.items(cur.take))
            cur.take(";")
        elif kw == "point":
            point = cur.take()
            cur.take(";")
        else:
            raise ValueError(f"unexpected {kw!r}")
    index = {s: i for i, s in enumerate(names)}
    succ = [sum(1 << index[t] for t in set(ts)) for ts in sigma]
    label = {p: sum(1 << i for i, g in enumerate(gamma) if p in g) for p in props}
    return Model(names, succ, label, point)


# --------------------------------------------------------------------------
# Evaluation


def extension(model: Model, f) -> int:
    """The bitset of states satisfying ``f``."""
    n, succ, full = len(model.names), model.succ, model.full

    def ev(g, env):
        tag = g[0]
        if tag == "atom":
            name = g[1]
            return env[name] if name in env else model.label.get(name, 0)
        if tag == "top":
            return full
        if tag == "bot":
            return 0
        if tag == "not":
            return full & ~ev(g[1], env)
        if tag == "and":
            return ev(g[1], env) & ev(g[2], env)
        if tag == "or":
            out = 0
            for h in g[1]:
                out |= ev(h, env)
            return out
        if tag == "nabla":
            exts = [ev(h, env) for h in g[1]]
            union = 0
            for e in exts:
                union |= e
            out = 0
            for s in range(n):
                m = succ[s]
                if m & ~union == 0 and all(m & e for e in exts):
                    out |= 1 << s
            return out
        var, body = g[1], g[2]
        cur = 0 if tag == "mu" else full
        while True:
            nxt = ev(body, {**env, var: cur})
            if nxt == cur:
                return cur
            cur = nxt

    return ev(f, {})


def holds_at_point(model: Model, f) -> bool:
    point = model.point if model.point is not None else model.names[0]
    return bool(extension(model, f) >> model.names.index(point) & 1)


def all_models(props, max_states: int):
    """Every Kripke model over ``props`` with 1..max_states states (labelled,
    not up to isomorphism, so every pointed model appears)."""
    props = sorted(props)
    for n in range(1, max_states + 1):
        names = [f"s{i}" for i in range(n)]
        colorings = range(1 << n)
        for succ in itertools.product(range(1 << n), repeat=n):
            for labels in itertools.product(colorings, repeat=len(props)):
                yield Model(names, succ, dict(zip(props, labels)))


def entails(a, b, max_states: int = 3) -> bool:
    """Whether ``a`` entails ``b`` on every pointed model of at most
    ``max_states`` states over their joint vocabulary."""
    props = free_atoms(a) | free_atoms(b)
    for M in all_models(props, max_states):
        if extension(M, a) & ~extension(M, b):
            return False
    return True
