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

from itertools import compress

from .coalgebra import CodeSweep, PointedModel
from .functors import POWERSET, FunctorDescriptor, base, lift_bits, parse_telem, render_telem, t_map
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


_BYTE_BITS = [()]  # byte value ↦ the positions of its set bits, ascending
for _k in range(8):
    _BYTE_BITS += [bits + (_k,) for bits in _BYTE_BITS]
del _k


def _bits(mask: int):
    """The indices of the set bits of ``mask``, lowest first.

    ``mask`` is read once as little-endian bytes; ``compress`` skips the
    zero bytes, and each other byte's bits come from ``_BYTE_BITS``.
    """
    data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    for i in compress(range(len(data)), data):
        offset = i << 3
        for k in _BYTE_BITS[data[i]]:
            yield offset + k


def _digit_mask(digits: int, weight: int, radix: int, start: int, count: int) -> int:
    """The bitset of the numbers ``start … start + count − 1`` (bit m − start
    for number m) whose digit of place value ``weight``, (m // weight) %
    radix, is one of the bitset ``digits``: the atoms of the sweep's views
    and of the lax tables.

    That digit has period weight·radix in m: one period is laid out with
    shifts and doubled until it covers the window.
    """
    block = (1 << weight) - 1
    out = 0
    for d in _bits(digits):
        out |= block << d * weight
    span = weight * radix
    offset, width = start % span, span
    while width < offset + count:
        out |= out << width
        width *= 2
    return out >> offset & ((1 << count) - 1)


class _BitView:
    """A model read through bitsets, by :func:`_eval_bits` and by the
    automata's parity fixpoint.

    Bit i stands for ``model.states[i]``, and ``atoms`` maps each of
    ``props`` to the bitset of the states colored with it.  :meth:`nabla`
    decides a ∇ node state by state and re-evaluates it incrementally.
    """

    __slots__ = ("functor", "size", "atoms", "model", "succ", "preds", "last")

    def __init__(self, model, props):
        self.functor, self.size, self.model = model.functor, len(model.states), model
        self.atoms = {p: sum(1 << i for i, g in enumerate(model.gamma) if p in g) for p in props}
        self.succ = None  # s ↦ bitset of base(σ(s)), built at the first ∇ node
        self.preds = None  # t ↦ bitset of {s | t ∈ base(σ(s))}, built with ``succ``
        self.last = {}  # ∇ node ↦ (argument bitsets, result) of its last evaluation

    def nabla(self, g: Nabla, args: dict) -> int:
        """The bitset of the states in ∇α, for ``g = ∇α`` and ``args``
        mapping each formula of base(α) to its extension.

        A powerset ∇α is decided by the Egli–Milner lifting on bitsets: with
        ``succ`` the bitset of σ(s), s ∈ ∇α iff ``succ`` lies inside the
        union of the arguments' extensions and meets the extension of every
        argument.  Every other functor reads :func:`functors.lift_bits` on
        one case: the atom (t, b) is bit t of b's extension.

        Each node is re-evaluated incrementally.  The view keeps the node's
        arguments' extensions and the states it found at its last
        evaluation.  When the arguments' extensions change, only the
        predecessors of the states whose membership changed in some
        argument are re-checked, and every other state keeps its verdict.
        This compares the old and new extensions only, so it is exact
        whatever the direction of the iteration (ν is encoded as ¬μ¬) and
        under ``env`` overrides.
        """
        F, M = self.functor, self.model
        succ, preds = self.succ, self.preds
        if succ is None:
            index, succ, preds = M._index, [], [0] * self.size
            for s, x in enumerate(M.sigma):
                bits = 0
                for t in base(F, x):
                    bits |= 1 << index[t]
                    preds[index[t]] |= 1 << s
                succ.append(bits)
            self.succ, self.preds = succ, preds
        last = self.last.get(g)
        if last is None:
            todo, out = range(self.size), 0
        else:
            old_args, out = last
            changed = hit = 0
            for b, mask in args.items():
                changed |= mask ^ old_args[b]
            for t in _bits(changed):
                hit |= preds[t]
            out &= ~hit
            todo = _bits(hit)
        if F.kind == "powerset":
            outside = (1 << self.size) - 1
            for mask in args.values():
                outside &= ~mask
            needed = tuple(args.values())
            for s in todo:
                bits = succ[s]
                if bits & outside:
                    continue
                for mask in needed:
                    if not bits & mask:
                        break
                else:
                    out |= 1 << s
        else:
            index, sigma = M._index, M.sigma

            def atom(t, b):
                return args[b] >> index[t] & 1

            for s in todo:
                if lift_bits(F, sigma[s], g.payload, atom, 1):
                    out |= 1 << s
        self.last[g] = (args, out)
        return out


# Code tuples per :class:`_TupleView`: a size with more goes in consecutive
# slices, so a view's rows stay at most 4 KiB long.
_SLICE = 1 << 15


class _TupleView:
    """The code tuples ``start … start + count − 1`` of ``sweep``'s n states
    as one bitset view, read by :func:`_eval_bits` and by the automata's
    parity fixpoint.

    A tuple is numbered as in :class:`coalgebra.CodeSweep`: its digit of
    place value ``sweep.places[i]`` is the code of state i.  The view is
    state-major: bit i·count + (m − start) stands for state i of tuple m, so
    row i (:meth:`rows`) holds state i of every tuple.  An atom's bitset,
    and the selector of the tuples whose state i has successor structure t,
    are periodic patterns of one digit (:func:`_digit_mask`).
    """

    __slots__ = ("functor", "size", "atoms", "sweep", "start", "count", "selectors", "last")

    def __init__(self, sweep: CodeSweep, start: int, count: int):
        n, radix = len(sweep.states), sweep.radix
        self.functor, self.size = sweep.functor, n * count
        self.sweep, self.start, self.count = sweep, start, count

        def per_state(digits):  # per state i, the tuples whose digit i is one of ``digits``
            return [_digit_mask(digits, w, radix, start, count) for w in sweep.places]

        self.atoms = {}
        for p in sweep.props:
            held = per_state(sum(1 << v for v in range(radix) if p in sweep.gamma_of(v)))
            self.atoms[p] = sum(row << i * count for i, row in enumerate(held))
        self.selectors = [per_state(sweep.structure_codes(r)) for r in range(len(sweep.elems))]
        self.last = {}  # ∇ node ↦ (argument bitsets, result) of its last evaluation

    def rows(self, ext: int) -> list:
        """``ext`` split by state: row i is the bitset of the tuples (bit
        m − start for tuple m) at whose state i ``ext`` holds."""
        count, full = self.count, (1 << self.count) - 1
        return [ext >> i * count & full for i in range(len(self.sweep.states))]

    def nabla(self, g, args: dict) -> int:
        """The bitset of ∇α, for ``g = ∇α`` and ``args`` mapping each member
        of base(α) to its extension, at every state of every tuple.

        Whether state i of tuple m lies in ∇α depends only on its successor
        structure t and on which of t's states satisfy which argument in
        tuple m.  So the lifting is decided once per t ∈ T(n), for all
        tuples at once, on the argument columns: state x's column of b is
        row x of b's extension.  Powerset reads Egli–Milner on the columns,
        every other functor :func:`functors.lift_bits`.  Each t's verdict is
        kept, in row i, at the tuples whose state i has structure t.  A call
        whose arguments are those of the node's last call returns that
        call's result; any other call decides the node afresh.
        """
        last = self.last.get(g)
        if last is not None and last[0] == args:
            return last[1]
        F, count, sweep = self.functor, self.count, self.sweep
        full, n, index = (1 << count) - 1, len(sweep.states), sweep.index
        cols = {b: self.rows(ext) for b, ext in args.items()}
        anywhere = [0] * n  # per state, the tuples where it satisfies some argument
        for col in cols.values():
            for x in range(n):
                anywhere[x] |= col[x]

        def atom(x, b):
            return cols[b][index[x]]

        rows = [0] * n
        for t, selected in zip(sweep.elems, self.selectors):
            if F.kind == "powerset":
                # every member satisfies some argument, every argument has a member
                lifted = full
                for x in t:
                    lifted &= anywhere[index[x]]
                for b in cols:
                    met = 0
                    for x in t:
                        met |= atom(x, b)
                    lifted &= met
            else:
                lifted = lift_bits(F, t, g.payload, atom, full)
            if lifted:
                rows = [row | lifted & sel for row, sel in zip(rows, selected)]
        out = sum(row << i * count for i, row in enumerate(rows))
        self.last[g] = (args, out)
        return out

    def countermodel(self, ext: int) -> PointedModel:
        """The first point of the nonzero ``ext``: its lowest tuple, at that
        tuple's lowest state; the one model the sweep builds."""
        sweep = self.sweep
        rows = self.rows(ext)
        hits = 0
        for row in rows:
            hits |= row
        m = (hits & -hits).bit_length() - 1
        i = next(i for i, row in enumerate(rows) if row >> m & 1)
        return PointedModel(sweep.model(sweep.decode(self.start + m)), sweep.states[i])


def _tuple_views(F: FunctorDescriptor, props: tuple, n: int):
    """The views of every ``n``-state code tuple, in slices of ``_SLICE``
    consecutive tuples, in tuple order.  Raises CapExceeded past the
    enumeration cap (:class:`coalgebra.CodeSweep`) when first read."""
    sweep = CodeSweep(F, props, n)
    total = sweep.radix**n
    for start in range(0, total, _SLICE):
        yield _TupleView(sweep, start, min(_SLICE, total - start))


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
    (:class:`_BitView`, bit i stands for ``M.states[i]``).
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
    view = _BitView(M, free_props(f))
    return frozenset(states[i] for i in _bits(_eval_bits(view, f, masks)))


def _eval_bits(view, f: Formula, env: dict) -> int:
    """The bitset of the states of ``view`` satisfying ``f``, with ``env``
    mapping free names to bitsets; the one evaluator behind
    :func:`eval_formula` and the bounded sweep.

    A view has a ``functor``, a ``size`` in bits, the bitsets of its
    ``atoms``, and a ∇ rule: ``view.nabla(g, args)`` is the bitset of the
    node ``g`` given the extensions ``args`` of its arguments.  The model
    view (:class:`_BitView`) decides a ∇ node state by state; the sweep's
    view (:class:`_TupleView`) decides it for every tuple of successor
    structures at once.

    State sets are Python ints used as bitsets.  ¬, ⋁ and the fixpoint test
    are ``^``, ``|`` and ``==`` on ints, and a node's memo key is the node
    with the bitsets of its free names.  Fixpoints are computed by
    Knaster–Tarski iteration.
    """
    full = (1 << view.size) - 1
    atoms, nabla, functor = view.atoms, view.nabla, view.functor
    names: dict = {}  # node ↦ its free names, sorted
    memo: dict = {}

    def ev(g: Formula, env: dict) -> int:
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
            if g.functor != functor:
                raise ValueError("modality functor differs from the model functor")
            out = nabla(g, {b: ev(b, env) for b in base(g.functor, g.payload)})
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

    out = ev(f, env)
    del ev  # break the cycle through its own closure, so the memo is freed now
    return out


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
