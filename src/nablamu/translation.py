"""Translation between fixpoint formulas and coalgebra automata.

Formulas are first brought into negation normal form (NNF) over a dedicated
AST with structural sharing through frozensets.  A guarded NNF formula
induces a hierarchical equation system — one variable per fixpoint
subformula, priorities by alternation depth — whose one-step unfoldings give
the transition structure of an equivalent automaton.  The converse direction
reads an automaton as an equation system and eliminates variables by
Gaussian substitution.

Conjunctions of modal obligations distribute over the Moss modality for every
lifting that preserves weak pullbacks, i.e. every functor without a monotone
neighborhood part.  :class:`UnsupportedFragment` is raised for a negated
modality outside powerset, for two modal obligations meeting in a conjunction
over a lifting with a monotone part, and for a conjunction the construction
splits while more than one of its conjuncts carries bound fixpoint variables.
"""

from __future__ import annotations

import functools
import itertools

from . import logic
from .automata import Automaton, find_true_state
from .functors import FunctorDescriptor, base, canon_key, enumerate_t, subsets, t_map
from .logic import (
    Atom,
    Formula,
    Mu,
    Nabla,
    Neg,
    Or,
    free_props,
    guard,
    is_guarded,
    mk_and,
    mk_atom,
    mk_mu,
    mk_nabla,
    mk_neg,
    mk_nu,
    mk_or,
    render_formula,
    subformulas,
    subst,
    validate_monotone,
)
from .records import Record, _set


class UnsupportedFragment(Exception):
    """The construction needs an identity this lifting does not provide."""


# --------------------------------------------------------------------------
# Negation normal form
#
# The nodes are built, hashed and compared throughout the translations, so
# each writes its record methods with direct attribute code.


class NLit(Record):
    prop: str
    pos: bool

    def __init__(self, prop: str, pos: bool):
        _set(self, "prop", prop)
        _set(self, "pos", pos)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.prop, self.pos) == (other.prop, other.pos)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.prop, self.pos))

    def canon_key(self):
        return ("lit", self.prop, self.pos)


class NVar(Record):
    var: str

    def __init__(self, var: str):
        _set(self, "var", var)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.var,) == (other.var,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.var,))

    def canon_key(self):
        return ("var", self.var)


class NAnd(Record):
    parts: frozenset

    def __init__(self, parts: frozenset):
        _set(self, "parts", parts)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.parts,) == (other.parts,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.parts,))

    def canon_key(self):
        return ("and", canon_key(self.parts))


class NOr(Record):
    parts: frozenset

    def __init__(self, parts: frozenset):
        _set(self, "parts", parts)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.parts,) == (other.parts,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.parts,))

    def canon_key(self):
        return ("or", canon_key(self.parts))


class NNabla(Record):
    payload: object

    def __init__(self, payload):
        _set(self, "payload", payload)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.payload,) == (other.payload,)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.payload,))

    def canon_key(self):
        return ("nabla", canon_key(self.payload))


class NFix(Record):
    kind: str  # "mu" | "nu"
    var: str
    body: object

    def __init__(self, kind: str, var: str, body):
        _set(self, "kind", kind)
        _set(self, "var", var)
        _set(self, "body", body)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.kind, self.var, self.body) == (other.kind, other.var, other.body)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.kind, self.var, self.body))

    def canon_key(self):
        return ("fix", self.kind, self.var, canon_key(self.body))


TRUE = NAnd(frozenset())
FALSE = NOr(frozenset())


def nand(parts) -> object:
    """Conjunction with flattening, unit and absorption."""
    out = set()
    for p in parts:
        if isinstance(p, NAnd):
            out |= p.parts
        elif isinstance(p, NOr) and not p.parts:
            return FALSE
        else:
            out.add(p)
    if len(out) == 1:
        return next(iter(out))
    return NAnd(frozenset(out))


def nor(parts) -> object:
    """Disjunction with flattening, unit and absorption."""
    out = set()
    for p in parts:
        if isinstance(p, NOr):
            out |= p.parts
        elif isinstance(p, NAnd) and not p.parts:
            return TRUE
        else:
            out.add(p)
    if len(out) == 1:
        return next(iter(out))
    return NOr(frozenset(out))


def _used_names(f: Formula) -> set:
    names = set()
    for g in subformulas(f):
        if isinstance(g, Atom):
            names.add(g.name)
        elif isinstance(g, Mu):
            names.add(g.var)
    return names


def _fresh_names(avoid):
    """The names ``x0, x1, …`` that are not in ``avoid``, in that order."""
    return (v for v in map("x{}".format, itertools.count()) if v not in avoid)


def _infer_functor(f: Formula, functor=None) -> FunctorDescriptor:
    for g in subformulas(f):
        if isinstance(g, Nabla):
            if functor is None:
                functor = g.functor
            elif functor != g.functor:
                raise ValueError("formula mixes modalities over different functors")
    if functor is None:
        raise ValueError("no functor given and none inferable from the formula")
    return functor


def to_nnf(f: Formula, functor: FunctorDescriptor = None):
    """Negation normal form with freshly named binders.

    Binders are named in a fixed order: ∨-parts and ∇-payload leaves are
    visited in ``canon_key`` order, so the names never depend on hash seeds.
    A leaf that occurs more than once in one ∇ payload is translated once,
    so its copies share their binders; all other binders are pairwise
    distinct.  Negated modalities are rewritten positively — possible only
    for the powerset lifting, where ¬∇α is a disjunction of box and diamond
    steps.
    """
    F = _infer_functor(f, functor)
    fresh = _fresh_names(_used_names(f)).__next__

    def pos(g, env):
        if isinstance(g, Atom):
            if g.name in env:
                return NVar(env[g.name])
            return NLit(g.name, True)
        if isinstance(g, Neg):
            return neg(g.sub, env)
        if isinstance(g, Or):
            return nor(pos(p, env) for p in sorted(g.parts, key=canon_key))
        if isinstance(g, Nabla):
            leaves = sorted(base(F, g.payload), key=canon_key)
            return NNabla(t_map(F, {h: pos(h, env) for h in leaves}, g.payload))
        if isinstance(g, Mu):
            v = fresh()
            return NFix("mu", v, pos(g.body, {**env, g.var: v}))
        raise TypeError(f"not a formula node: {g!r}")

    def neg(g, env):
        if isinstance(g, Atom):
            if g.name in env:
                raise ValueError(
                    f"fixpoint variable {g.name!r} occurs negatively"
                )
            return NLit(g.name, False)
        if isinstance(g, Neg):
            return pos(g.sub, env)
        if isinstance(g, Or):
            return nand(neg(p, env) for p in sorted(g.parts, key=canon_key))
        if isinstance(g, Nabla):
            if F.kind != "powerset":
                raise UnsupportedFragment(
                    "negated modal steps are only expressible over the "
                    "powerset lifting"
                )
            leaves = sorted(g.payload, key=canon_key)
            parts = [
                nor((NNabla(frozenset()), NNabla(frozenset((neg(b, env),)))))
                for b in leaves
            ]
            conj = nand(neg(b, env) for b in leaves)
            parts.append(NNabla(frozenset((conj, TRUE))))
            return nor(parts)
        if isinstance(g, Mu):
            v = fresh()
            body = subst(g.body, g.var, mk_neg(mk_atom(g.var)))
            return NFix("nu", v, neg(body, {**env, g.var: v}))
        raise TypeError(f"not a formula node: {g!r}")

    return pos(f, {})


def _nchildren(F: FunctorDescriptor, g):
    """The immediate subformulas of an NNF node: a junction's parts, the
    leaves of a ∇'s payload, or a binder's body."""
    if isinstance(g, (NAnd, NOr)):
        return g.parts
    if isinstance(g, NNabla):
        return base(F, g.payload)
    if isinstance(g, NFix):
        return (g.body,)
    return ()


def nnf_free_vars(F: FunctorDescriptor, g) -> frozenset:
    if isinstance(g, NVar):
        return frozenset((g.var,))
    out = frozenset().union(*(nnf_free_vars(F, p) for p in _nchildren(F, g)))
    return out - frozenset((g.var,)) if isinstance(g, NFix) else out


def _nmap(F: FunctorDescriptor, g, fn):
    """``g`` with ``fn`` applied to each immediate subformula, the junctions
    re-normalized by :func:`nand` and :func:`nor`; literals and variables
    are returned unchanged."""
    if isinstance(g, NAnd):
        return nand(fn(p) for p in g.parts)
    if isinstance(g, NOr):
        return nor(fn(p) for p in g.parts)
    if isinstance(g, NNabla):
        return NNabla(t_map(F, fn, g.payload))
    if isinstance(g, NFix):
        return NFix(g.kind, g.var, fn(g.body))
    return g


# --------------------------------------------------------------------------
# Hierarchical equation systems


class _System:
    """One variable per fixpoint subformula, with flattened right-hand sides."""

    def __init__(self, F: FunctorDescriptor, root):
        self.F = F
        self._flat = {}
        fixes = []

        def walk(g, d):
            if isinstance(g, NFix):
                fixes.append((g, d))
                d += 1
            for p in _nchildren(F, g):
                walk(p, d)

        walk(root, 0)
        maxd = max((d for _, d in fixes), default=0)
        self.omega = {
            g.var: 2 * (maxd - d) + (1 if g.kind == "mu" else 0) for g, d in fixes
        }
        self.rhs = {g.var: self.flatten(g.body) for g, _ in fixes}
        self.root = self.flatten(root)

    def flatten(self, g):
        """Replace every fixpoint subformula by its variable."""
        got = self._flat.get(g)
        if got is not None:
            return got
        res = NVar(g.var) if isinstance(g, NFix) else _nmap(self.F, g, self.flatten)
        self._flat[g] = res
        return res


def _couplings(F: FunctorDescriptor, a, b, join) -> tuple:
    """The elements γ of ``T Z`` with ``T(π₁)γ = a`` and ``T(π₂)γ = b``.

    ``Z`` is spanned by ``join(x, y)``, which lists the carrier elements
    projecting to ``x`` and ``y``.  For a composition the outer couplings are
    taken over the inner ones.
    """
    kind = F.kind
    if kind == "identity":
        return join(a, b)
    if kind == "const":
        return (a,) if a == b else ()
    if kind == "product":
        return tuple(
            itertools.product(
                _couplings(F.parts[0], a[0], b[0], join),
                _couplings(F.parts[1], a[1], b[1], join),
            )
        )
    if kind == "coproduct":
        if a[0] != b[0]:
            return ()
        part = F.parts[0 if a[0] == "inl" else 1]
        return tuple((a[0], g) for g in _couplings(part, a[1], b[1], join))
    if kind == "comp":
        outer, inner = F.parts
        return _couplings(outer, a, b, lambda u, v: _couplings(inner, u, v, join))
    # powerset: every set of joined cells whose projections cover both sides
    cells = [(x, y, z) for x in a for y in b for z in join(x, y)]
    return tuple(
        frozenset(z for _, _, z in Z)
        for Z in subsets(cells)
        if {x for x, _, _ in Z} == a and {y for _, y, _ in Z} == b
    )


def _merge_pair(F: FunctorDescriptor, x, y):
    """All one-step elements covering the conjunction of two obligations.

    Uses the distributive law ∇α ∧ ∇β ≡ ⋁{∇T(∧)γ : T(π₁)γ = α, T(π₂)γ = β},
    which holds for every lifting that preserves weak pullbacks (Kupke, Kurz
    and Venema, LMCS 2012).
    """
    if x == TRUE:
        return (y,)
    if y == TRUE:
        return (x,)
    if not F.has_functorial_lifting:
        raise UnsupportedFragment(
            "a conjunction of modal obligations needs a distributive law, "
            "which a lifting with a monotone neighborhood part lacks"
        )
    couplings = _couplings(F, x.payload, y.payload, lambda a, b: ((a, b),))
    return tuple({NNabla(t_map(F, nand, g)) for g in couplings})


class _Decomposer:
    """One-step decomposition of flat formulas under a fixed color."""

    def __init__(self, system: _System):
        self.system = system
        self.memo = {}

    def run(self, g, c) -> frozenset:
        """The disjuncts of ``g`` under color ``c``: pairs ``(ψ, r)`` where
        ``ψ`` is TRUE or a modal obligation and ``r`` the maximal priority of
        the variables unfolded on the way."""
        key = (g, c)
        got = self.memo.get(key)
        if got is not None:
            return got
        sysm = self.system
        if isinstance(g, NLit):
            ok = (g.prop in c) == g.pos
            res = frozenset(((TRUE, 0),)) if ok else frozenset()
        elif isinstance(g, NVar):
            k = sysm.omega[g.var]
            res = frozenset(
                (psi, max(r, k)) for psi, r in self.run(sysm.rhs[g.var], c)
            )
        elif isinstance(g, NOr):
            res = frozenset().union(*(self.run(p, c) for p in g.parts)) if g.parts else frozenset()
        elif isinstance(g, NAnd):
            busy = sum(1 for p in g.parts if nnf_free_vars(sysm.F, p))
            if busy > 1:
                raise UnsupportedFragment(
                    "a conjunction couples two fixpoint computations: "
                    f"{busy} conjuncts carry bound variables"
                )
            pools = [self.run(p, c) for p in g.parts]
            res = {(TRUE, 0)} if all(pools) else set()
            for pool in pools:
                res = {
                    (m, max(r, s))
                    for cand, r in res
                    for psi, s in pool
                    for m in _merge_pair(sysm.F, cand, psi)
                }
            res = frozenset(res)
        else:  # NNabla
            res = frozenset(((g, 0),))
        self.memo[key] = res
        return res


def formula_to_automaton(
    f: Formula, functor: FunctorDescriptor = None, props=None
) -> Automaton:
    """An automaton accepting exactly the pointed models of the formula.

    The formula must be monotone; unguarded fixpoints are rewritten by
    :func:`nablamu.logic.guard` first.  Raises :class:`UnsupportedFragment`
    on a negated modality outside powerset, on a conjunction of two modal
    obligations over a lifting with a monotone part, and on a conjunction
    whose decomposition couples two fixpoint computations (more than one
    conjunct carries bound variables).  Only conjunctions the construction
    actually splits are checked.
    """
    validate_monotone(f)
    F = _infer_functor(f, functor)
    if props is None:
        props = tuple(sorted(free_props(f)))
    else:
        props = tuple(sorted(props))
        if not free_props(f) <= set(props):
            raise ValueError("formula mentions propositions outside the vocabulary")
    if not is_guarded(f):
        f = guard(f)
    system = _System(F, to_nnf(f, F))
    dec = _Decomposer(system)

    true_elems = enumerate_t(F, frozenset(((TRUE, 0),)))
    colors = list(subsets(props))
    initial = (system.root, 0)
    seen = {initial}
    delta = {}
    queue = [initial]
    while queue:
        g, k = queue.pop(0)
        for c in colors:
            elems = set()
            for psi, r in dec.run(g, c):
                if psi == TRUE:
                    elems.update(true_elems)
                else:
                    elems.add(t_map(F, lambda h: (h, r), psi.payload))
            if elems:
                delta[((g, k), c)] = elems
            for t in elems:
                for q in base(F, t):
                    if q not in seen:
                        seen.add(q)
                        queue.append(q)
    omega = {q: q[1] for q in seen}
    return Automaton.make(F, props, sorted(seen, key=canon_key), initial, omega, delta)


# --------------------------------------------------------------------------
# Automata back to formulas


def _simp(F: FunctorDescriptor, g, memo=None):
    """Bottom-up simplification: units, absorption, flattening, dead binders."""
    if memo is None:
        memo = {}
    got = memo.get(g)
    if got is not None:
        return got
    res = _nmap(F, g, lambda h: _simp(F, h, memo))
    if isinstance(g, (NAnd, NOr)):
        if type(res) is type(g) and g.parts != res.parts:
            res = _simp(F, res, memo)
    elif isinstance(g, NNabla):
        if F.has_functorial_lifting and FALSE in base(F, res.payload):
            res = FALSE  # some successor would have to satisfy falsity
    elif isinstance(g, NFix):
        if res.body == NVar(g.var):
            res = FALSE if g.kind == "mu" else TRUE
        elif g.var not in nnf_free_vars(F, res.body):
            res = res.body
    memo[g] = res
    return res


def _nsubst(F: FunctorDescriptor, g, mapping: dict):
    if not mapping:
        return g
    if isinstance(g, NVar):
        return mapping.get(g.var, g)
    if isinstance(g, NFix):
        mapping = {v: h for v, h in mapping.items() if v != g.var}
    return _nmap(F, g, lambda h: _nsubst(F, h, mapping))


def nnf_to_formula(F: FunctorDescriptor, g) -> Formula:
    if isinstance(g, NLit):
        a = mk_atom(g.prop)
        return a if g.pos else mk_neg(a)
    if isinstance(g, NVar):
        return mk_atom(g.var)
    if isinstance(g, NAnd):
        parts = sorted(
            (nnf_to_formula(F, p) for p in g.parts), key=render_formula
        )
        return functools.reduce(mk_and, parts) if parts else logic.TOP
    if isinstance(g, NOr):
        return mk_or(frozenset(nnf_to_formula(F, p) for p in g.parts))
    if isinstance(g, NNabla):
        return mk_nabla(F, t_map(F, lambda h: nnf_to_formula(F, h), g.payload))
    binder = mk_mu if g.kind == "mu" else mk_nu
    return binder(g.var, nnf_to_formula(F, g.body))


def _reachable_states(aut: Automaton):
    seen = {aut.initial}
    queue = [aut.initial]
    while queue:
        a = queue.pop(0)
        for c in subsets(aut.props):
            for phi in aut.delta_of(a, c):
                for b in base(aut.functor, phi):
                    if b not in seen:
                        seen.add(b)
                        queue.append(b)
    return tuple(a for a in aut.states if a in seen)


def automaton_to_formula(aut: Automaton) -> Formula:
    """A fixpoint formula with the same pointed models as the automaton.

    States become fixpoint variables (μ at odd priority, ν at even), ordered
    innermost-first by ascending priority, and are eliminated by Gaussian
    substitution.  The universally accepting state that ``find_true_state``
    finds becomes ``true``.
    """
    F = aut.functor
    reach = _reachable_states(aut)
    names = dict(zip(reach, _fresh_names(set(aut.props))))
    true_state = find_true_state(aut)
    rhs = {}
    for a in reach:
        if a == true_state:
            rhs[names[a]] = TRUE
            continue
        choices = []
        for c in subsets(aut.props):
            cell = aut.delta_of(a, c)
            if not cell:
                continue
            chi = nand(NLit(p, p in c) for p in aut.props)
            step = nor(
                NNabla(t_map(F, lambda b: NVar(names[b]), phi)) for phi in cell
            )
            choices.append(nand((chi, step)))
        rhs[names[a]] = nor(choices)
    order = sorted(reach, key=lambda a: (aut.omega_of(a), canon_key(a)))
    solved = []
    for a in order:
        v = names[a]
        kind = "mu" if aut.omega_of(a) % 2 else "nu"
        sol = _simp(F, NFix(kind, v, rhs[v]))
        solved.append((v, sol))
        rest = {v: sol}
        for b in order[len(solved):]:
            w = names[b]
            rhs[w] = _simp(F, _nsubst(F, rhs[w], rest))
    closed: dict = {}
    for v, sol in reversed(solved):
        closed[v] = _simp(F, _nsubst(F, sol, closed))
    return nnf_to_formula(F, _simp(F, closed[names[aut.initial]]))
