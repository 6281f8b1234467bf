"""Fixpoint formulas with the Moss modality: syntax, semantics, guarding.

The grammar is deliberately small — propositions, negation, finite
disjunction, the ∇ modality whose argument is a functor element over
formulas, and least fixpoints.  Conjunction, truth constants, and greatest
fixpoints are definable and the printer recognizes their encodings:

    a ::= prop | ~a | \\/{a, …} | (a \\/ b) | (a /\\ b)
        | nabla <element> | mu p. a | nu p. a | true | false

Formula objects are hash-consed: structurally equal formulas are the same
object, so equality and hashing are O(1) even on heavily shared DAGs.
Always build formulas through the ``mk_*`` factories.

The structural walks read a node's subformulas through :func:`_children` and
rebuild it through :func:`_rebuild`, so a new node kind must be added to both.
"""

from __future__ import annotations

from .functors import FunctorDescriptor, base, lift_member, parse_telem, render_telem, t_map
from .parsing import Cursor

RESERVED = frozenset({"mu", "nu", "nabla", "true", "false", "const", "id", "inl", "inr"})


class Formula:
    """Base class; identity equality (valid thanks to hash-consing)."""

    __slots__ = ("_rendered", "_free")

    def canon_key(self) -> str:
        return render_formula(self)

    def __repr__(self):
        return f"<{type(self).__name__} {render_formula(self)}>"


class Atom(Formula):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self._rendered = None
        self._free = None
        self.name = name


class Neg(Formula):
    __slots__ = ("sub",)

    def __init__(self, sub: Formula):
        self._rendered = None
        self._free = None
        self.sub = sub


class Or(Formula):
    __slots__ = ("parts",)

    def __init__(self, parts: frozenset):
        self._rendered = None
        self._free = None
        self.parts = parts


class Nabla(Formula):
    __slots__ = ("functor", "payload")

    def __init__(self, functor: FunctorDescriptor, payload):
        self._rendered = None
        self._free = None
        self.functor = functor
        self.payload = payload


class Mu(Formula):
    __slots__ = ("var", "body")

    def __init__(self, var: str, body: Formula):
        self._rendered = None
        self._free = None
        self.var = var
        self.body = body


_intern: dict = {}


def _interned(key, build):
    got = _intern.get(key)
    if got is None:
        got = _intern[key] = build()
    return got


def mk_atom(name: str) -> Atom:
    return _interned(("atom", name), lambda: Atom(name))


def mk_neg(sub: Formula) -> Neg:
    return _interned(("neg", sub), lambda: Neg(sub))


def mk_or(parts) -> Or:
    parts = frozenset(parts)
    return _interned(("or", parts), lambda: Or(parts))


def mk_nabla(functor: FunctorDescriptor, payload) -> Nabla:
    return _interned(("nabla", functor, payload), lambda: Nabla(functor, payload))


def mk_mu(var: str, body: Formula) -> Mu:
    return _interned(("mu", var, body), lambda: Mu(var, body))


BOT = mk_or(frozenset())
TOP = mk_neg(BOT)


def mk_and(a: Formula, b: Formula) -> Formula:
    return mk_neg(mk_or(frozenset((mk_neg(a), mk_neg(b)))))


def mk_nu(var: str, body: Formula) -> Formula:
    inner = mk_neg(subst(body, var, mk_neg(mk_atom(var))))
    return mk_neg(mk_mu(var, inner))


# --------------------------------------------------------------------------
# Structural queries


def _children(f: Formula):
    """The immediate subformulas of ``f``; a ∇ node's are its payload's base."""
    if isinstance(f, Neg):
        return (f.sub,)
    if isinstance(f, Or):
        return f.parts
    if isinstance(f, Nabla):
        return base(f.functor, f.payload)
    if isinstance(f, Mu):
        return (f.body,)
    return ()


def _rebuild(f: Formula, fn) -> Formula:
    """``f`` with ``fn`` applied to each immediate subformula; atoms unchanged."""
    if isinstance(f, Neg):
        return mk_neg(fn(f.sub))
    if isinstance(f, Or):
        return mk_or(fn(p) for p in f.parts)
    if isinstance(f, Nabla):
        return mk_nabla(f.functor, t_map(f.functor, fn, f.payload))
    if isinstance(f, Mu):
        return mk_mu(f.var, fn(f.body))
    return f


def free_props(f: Formula) -> frozenset:
    """Atoms not bound by any enclosing fixpoint (propositions and free variables)."""
    if f._free is not None:
        return f._free
    if isinstance(f, Atom):
        out = frozenset((f.name,))
    elif isinstance(f, Mu):
        out = free_props(f.body) - {f.var}
    else:
        out = frozenset().union(*map(free_props, _children(f)))
    f._free = out
    return out


def subformulas(f: Formula) -> frozenset:
    """All distinct subformula nodes, the formula itself included."""
    seen = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        stack.extend(_children(g))
    return frozenset(seen)


def _polarities(f: Formula, x: str, pol: bool, out: set):
    if isinstance(f, Atom):
        if f.name == x:
            out.add(pol)
    elif not (isinstance(f, Mu) and f.var == x):
        for g in _children(f):
            _polarities(g, x, pol != isinstance(f, Neg), out)


def validate_monotone(f: Formula):
    """Raise ValueError unless every fixpoint variable occurs only positively."""
    for g in subformulas(f):
        if isinstance(g, Mu):
            pols = set()
            _polarities(g.body, g.var, True, pols)
            if False in pols:
                raise ValueError(
                    f"fixpoint variable {g.var!r} occurs negatively in "
                    f"{render_formula(g)}"
                )


def is_guarded(f: Formula) -> bool:
    """Whether every fixpoint variable lies under a modality inside its binder."""

    def walk(g: Formula, pending: frozenset) -> bool:
        if isinstance(g, Atom):
            return g.name not in pending
        if isinstance(g, Nabla):
            pending = frozenset()
        elif isinstance(g, Mu):
            pending = pending | {g.var}
        return all(walk(h, pending) for h in _children(g))

    return walk(f, frozenset())


# --------------------------------------------------------------------------
# Substitution


def _fresh(stem: str, avoid) -> str:
    i = 1
    while f"{stem}_{i}" in avoid:
        i += 1
    return f"{stem}_{i}"


def subst(f: Formula, var: str, repl: Formula) -> Formula:
    """Capture-avoiding substitution of ``repl`` for the free atom ``var``."""
    if var not in free_props(f):
        return f
    if isinstance(f, Atom):
        return repl  # the atom is ``var`` itself, since ``var`` is free in it
    if not isinstance(f, Mu):
        return _rebuild(f, lambda g: subst(g, var, repl))
    z, body = f.var, f.body  # z ≠ var, since ``var`` is free in f
    if z in free_props(repl):
        z = _fresh(f.var, free_props(body) | free_props(repl) | {var})
        body = subst(body, f.var, mk_atom(z))
    return mk_mu(z, subst(body, var, repl))


# --------------------------------------------------------------------------
# Semantics


def _bits(mask: int):
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _MaskPairs:
    """The pairs ``(t, b)`` with state t in the extension of argument b, read
    from the arguments' bitsets, where t's bit sits ``offset`` places above
    its index: the relation a ∇ node hands to the lifting."""

    __slots__ = ("index", "masks", "offset")

    def __init__(self, index: dict, masks: dict):
        self.index = index
        self.masks = masks
        self.offset = 0

    def __contains__(self, pair) -> bool:
        t, b = pair
        return self.masks[b] >> (self.index[t] + self.offset) & 1


class _BitView:
    """A coalgebra read through bitsets: what :func:`_eval_bits` evaluates on.

    Bit k stands for the k-th of ``size`` states.  ``succ[k]`` is the bitset
    of base(σ(k)) and ``atoms`` maps a proposition to the bitset of the
    states colored with it.  For the liftings other than powerset,
    ``sigma[k]`` is σ(k) over the state names of ``index``, and ``offsets[k]``
    is how far above its index each of those names' bits sits.  A view of one
    model has offset 0 everywhere; ``interpolation.entails_bounded`` puts
    many models of one size side by side, each at its own offset.
    """

    __slots__ = ("functor", "size", "succ", "atoms", "index", "sigma", "offsets")

    def __init__(self, functor, size, succ, atoms, index, sigma, offsets):
        self.functor, self.size, self.succ, self.atoms = functor, size, succ, atoms
        self.index, self.sigma, self.offsets = index, sigma, offsets


def eval_formula(M, f: Formula, env=None) -> frozenset:
    """The set of states of ``M`` satisfying ``f``.

    ``env`` optionally overrides the extension of free atoms (used during
    fixpoint iteration; overriding a proposition is also allowed).  An
    extension naming something that is not a state of ``M`` raises
    ValueError.

    Precondition: every fixpoint variable of ``f`` occurs only positively
    (:func:`validate_monotone`).  Otherwise the iteration need not reach a
    fixpoint and may never terminate.

    The work is done by :func:`_eval_bits` on the bitset view of ``M``
    (bit i stands for ``M.states[i]``, every offset is 0); the bounded
    sweep hands the same evaluator views of many models at once.
    """
    states, index = M.states, M._index
    masks = {}
    for name, ext in (env or {}).items():
        mask = 0
        for s in ext:
            if s not in index:
                raise ValueError(
                    f"env extension of {name!r} names {s!r}, which is not a "
                    f"state of the model"
                )
            mask |= 1 << index[s]
        masks[name] = mask
    atoms = {
        p: sum(1 << i for i, colors in enumerate(M.gamma) if p in colors)
        for p in free_props(f)
        if p not in masks
    }
    F = M.functor
    succ = [sum(1 << index[t] for t in base(F, x)) for x in M.sigma]
    view = _BitView(F, len(states), succ, atoms, index, M.sigma, [0] * len(states))
    return frozenset(states[i] for i in _bits(_eval_bits(view, f, masks)))


def _eval_bits(view: _BitView, f: Formula, env: dict) -> int:
    """The bitset of the states of ``view`` satisfying ``f``, with ``env``
    mapping free names to bitsets; the one evaluator behind
    :func:`eval_formula` and the bounded sweep.

    State sets are Python ints used as bitsets.  ¬, ⋁ and the fixpoint test
    are ``^``, ``|`` and ``==`` on ints, and a node's memo key is the node
    with the bitsets of its free names.  Fixpoints are computed by
    Knaster–Tarski iteration.

    A powerset ∇α is decided by the Egli–Milner lifting on bitsets: with
    ``succ`` the bitset of σ(s), s ∈ ∇α iff ``succ`` lies inside the union
    of the arguments' extensions and meets the extension of every argument.
    Every other functor asks :func:`lift_member` with the pairs ``(t, b)``
    read from the arguments' bitsets at the state's offset.

    Whether s lies in ∇α depends only on whether t satisfies b for
    t ∈ base(σ(s)) and b ∈ base(α): the lifting of every functor kind reads
    no other pair.  So the answer at s reads only the bits of s's successor
    bases, and a view holding several models, each state's bits confined to
    its own model's, evaluates every model as it would alone.

    Each ∇ node is re-evaluated incrementally.  The node keeps its
    arguments' extensions and the states it found at its last evaluation.
    When the arguments' extensions change, only the predecessors of the
    states whose membership changed in some argument are re-checked, and
    every other state keeps its verdict.  This compares the old and new
    extensions only, so it is exact whatever the direction of the iteration
    (ν is encoded as ¬μ¬) and under ``env`` overrides.
    """
    full = (1 << view.size) - 1
    succ, atoms = view.succ, view.atoms
    names: dict = {}  # node ↦ its free names, sorted
    memo: dict = {}
    last: dict = {}  # ∇ node ↦ (argument bitsets, result) of its last evaluation
    preds = None  # t ↦ bitset of {s | t ∈ base(σ(s))}, built at the first re-check

    def ev(g: Formula, env: dict) -> int:
        nonlocal preds
        free = names.get(g)
        if free is None:
            free = names[g] = tuple(sorted(free_props(g)))
        key = (g, tuple(map(env.get, free)))
        got = memo.get(key)
        if got is not None:
            return got
        if isinstance(g, Atom):
            out = env.get(g.name)
            if out is None:
                out = atoms.get(g.name, 0)
        elif isinstance(g, Neg):
            out = full ^ ev(g.sub, env)
        elif isinstance(g, Or):
            out = 0
            for p in g.parts:
                out |= ev(p, env)
        elif isinstance(g, Nabla):
            F = g.functor
            if F != view.functor:
                raise ValueError("modality functor differs from the model functor")
            args = {b: ev(b, env) for b in base(F, g.payload)}
            if g in last:
                if preds is None:
                    preds = [0] * view.size
                    for s, bits in enumerate(succ):
                        for t in _bits(bits):
                            preds[t] |= 1 << s
                old_args, out = last[g]
                changed = 0
                for b, mask in args.items():
                    changed |= mask ^ old_args[b]
                todo = 0
                for t in _bits(changed):
                    todo |= preds[t]
                out &= ~todo
            else:
                todo, out = full, 0
            if F.kind == "powerset":
                outside = full
                for mask in args.values():
                    outside &= ~mask
                needed = tuple(args.values())
                for s in _bits(todo):
                    bits = succ[s]
                    if not bits & outside and all(bits & mask for mask in needed):
                        out |= 1 << s
            else:
                pairs = _MaskPairs(view.index, args)
                sigma, offsets = view.sigma, view.offsets
                for s in _bits(todo):
                    pairs.offset = offsets[s]
                    if lift_member(F, pairs, sigma[s], g.payload):
                        out |= 1 << s
            last[g] = (args, out)
        else:
            cur = 0
            while True:
                env2 = dict(env)
                env2[g.var] = cur
                nxt = ev(g.body, env2)
                if nxt == cur:
                    break
                cur = nxt
            out = cur
        memo[key] = out
        return out

    return ev(f, env)


def satisfies(P, f: Formula) -> bool:
    """Whether the pointed model satisfies the formula."""
    return P.point in eval_formula(P.model, f)


# --------------------------------------------------------------------------
# Guarding


def _has_unguarded(x: str, f: Formula, inside: bool = True) -> bool:
    """An occurrence of ``x`` reachable without crossing a modality; with
    ``inside=False``, only one lying inside some inner fixpoint."""
    if isinstance(f, Atom):
        return inside and f.name == x
    if isinstance(f, Nabla) or (isinstance(f, Mu) and f.var == x):
        return False
    inside = inside or isinstance(f, Mu)
    return any(_has_unguarded(x, g, inside) for g in _children(f))


def _unfold_inner_binders(x: str, f: Formula) -> Formula:
    """Unfold every modality-free inner fixpoint that holds ``x`` unguarded."""
    if isinstance(f, Nabla):
        return f
    if isinstance(f, Mu):
        if f.var != x and _has_unguarded(x, f.body):
            return subst(f.body, f.var, f)
        return f
    return _rebuild(f, lambda g: _unfold_inner_binders(x, g))


def _dnf(f: Formula, positive: bool):
    """Disjunctive normal form of the propositional skeleton over opaque nodes.

    Literals are (node, polarity) pairs where nodes are atoms, modalities, or
    fixpoints.  Contradictory clauses are dropped.
    """
    if isinstance(f, Neg):
        return _dnf(f.sub, not positive)
    if isinstance(f, Or):
        if positive:
            out = []
            for p in f.parts:
                out.extend(_dnf(p, True))
            return out
        clauses = [frozenset()]
        for p in f.parts:
            sub = _dnf(p, False)
            merged = []
            for c in clauses:
                for d in sub:
                    u = c | d
                    if not any((n, not pol) in u for n, pol in d):
                        merged.append(u)
            clauses = merged
        return clauses
    return [frozenset(((f, positive),))]


def _clause_formula(clause: frozenset) -> Formula:
    lits = sorted(
        (node if pol else mk_neg(node) for node, pol in clause),
        key=lambda g: render_formula(g),
    )
    if not lits:
        return TOP
    out = lits[0]
    for lit in lits[1:]:
        out = mk_and(out, lit)
    return out


def guard(f: Formula) -> Formula:
    """An equivalent guarded formula: every fixpoint variable under a modality.

    Works innermost-first.  For each fixpoint μx.b, unguarded occurrences of
    x inside inner binders are first exposed by unfolding those binders; the
    remaining unguarded occurrences then sit in the boolean skeleton, where
    rewriting to disjunctive normal form and dropping the clauses containing
    x is sound: μx.((x ∧ A) ∨ B) ≡ μx.B by the Knaster–Tarski theorem.
    """
    validate_monotone(f)
    return _guard(f)


def _guard(f: Formula) -> Formula:
    if not isinstance(f, Mu):
        return _rebuild(f, _guard)
    x = f.var
    body = _guard(f.body)
    while _has_unguarded(x, body, inside=False):
        body = _unfold_inner_binders(x, body)
    if _has_unguarded(x, body):
        xa = mk_atom(x)
        clauses = []
        for c in _dnf(body, True):
            if (xa, False) in c:
                raise ValueError(f"fixpoint variable {x!r} occurs negatively")
            if (xa, True) not in c:
                clauses.append(c)
        rebuilt = frozenset(_clause_formula(c) for c in clauses)
        body = next(iter(rebuilt)) if len(rebuilt) == 1 else mk_or(rebuilt)
    if x not in free_props(body):
        return body
    return mk_mu(x, body)


# --------------------------------------------------------------------------
# Printer


def render_formula(f: Formula) -> str:
    if f._rendered is not None:
        return f._rendered
    if isinstance(f, Atom):
        out = f.name
    elif isinstance(f, Or):
        if not f.parts:
            out = "false"
        else:
            out = "\\/{" + ", ".join(sorted(render_formula(p) for p in f.parts)) + "}"
    elif isinstance(f, Nabla):
        out = "nabla " + render_telem(f.functor, f.payload, render_formula)
    elif isinstance(f, Mu):
        out = f"mu {f.var}. " + render_formula(f.body)
    else:
        out = _render_neg(f)
    f._rendered = out
    return out


def _render_neg(f: Neg) -> str:
    g = f.sub
    if g is BOT:
        return "true"
    if isinstance(g, Or) and len(g.parts) == 2:
        a, b = sorted(g.parts, key=render_formula)
        if isinstance(a, Neg) and isinstance(b, Neg):
            left, right = sorted(
                (render_formula(a.sub), render_formula(b.sub))
            )
            return f"({left} /\\ {right})"
    if isinstance(g, Mu) and isinstance(g.body, Neg):
        try:
            inner = _strip_one_negation(g.var, g.body.sub)
        except _NotStrippable:
            inner = None
        if inner is not None and mk_nu(g.var, inner) is f:
            return f"nu {g.var}. " + render_formula(inner)
    return "~" + render_formula(g)


class _NotStrippable(Exception):
    pass


def _strip_one_negation(x: str, f: Formula) -> Formula:
    """Undo the substitution x ↦ ¬x: drop one negation from each chain over x.
    Raises :class:`_NotStrippable` on a free occurrence of x that is not negated."""
    if isinstance(f, Atom) and f.name == x:
        raise _NotStrippable
    if isinstance(f, Neg) and f.sub is mk_atom(x):
        return f.sub
    if isinstance(f, Mu) and f.var == x:
        return f
    return _rebuild(f, lambda g: _strip_one_negation(x, g))


# --------------------------------------------------------------------------
# Parser


def parse_formula(text: str, functor: FunctorDescriptor = None) -> Formula:
    """Parse a formula; ∇ payloads are parsed according to ``functor``."""
    from .functors import POWERSET

    F = POWERSET if functor is None else functor
    cur = Cursor(text)
    f = _parse(cur, F)
    cur.expect_end()
    return f


def _parse(cur: Cursor, F: FunctorDescriptor) -> Formula:
    for word, binder in (("mu", mk_mu), ("nu", mk_nu)):
        if cur.take_word(word):
            var = cur.ident("fixpoint variable")
            if var in RESERVED:
                cur.error(f"{var!r} is a reserved word")
            cur.expect(".")
            return binder(var, _parse(cur, F))
    if cur.take("~"):
        return mk_neg(_parse(cur, F))
    if cur.take_word("true"):
        return TOP
    if cur.take_word("false"):
        return BOT
    if cur.take_word("nabla"):
        payload = parse_telem(cur, F, lambda c: _parse(c, F))
        return mk_nabla(F, payload)
    if cur.take("\\/"):
        return mk_or(cur.items("{", "}", lambda c: _parse(c, F)))
    if cur.take("("):
        left = _parse(cur, F)
        if cur.take("\\/"):
            op = "or"
        elif cur.take("/\\"):
            op = "and"
        else:
            cur.error("expected '\\/' or '/\\'")
        right = _parse(cur, F)
        cur.expect(")")
        return mk_or(frozenset((left, right))) if op == "or" else mk_and(left, right)
    name = cur.ident("formula")
    if name in RESERVED:
        cur.error(f"{name!r} cannot be used as a proposition")
    return mk_atom(name)
