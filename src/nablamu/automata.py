"""Coalgebra automata with parity acceptance.

An automaton reads a colored model: from a pair (model state s, automaton
state a) the existential player picks a transition element φ ∈ Δ(a, c) for
the current color c and must show that the lifting of a relation Z relates
σ(s) to φ, where every pair of Z is one from which the play goes on.
Rather than name Z, the players unfold the lifting's one-step formula over
Z: the universal player picks each conjunct, the existential player each
disjunct, and an atom (t, b) ∈ Z continues the play at that pair.  Priorities are announced
at the paired positions and the maximal priority seen infinitely often
decides the play.  Since every lifting here is monotone in Z, this game has
the same winners as the one where the existential player picks Z outright.

Nothing here builds the game: its winners are read off the automaton's
parity fixpoint (:func:`_winning_columns`) on a bitset view.  On the
model's view it gives :func:`accepts` and :func:`winning_pairs`; on the
sweep's tuple views (``logic._tuple_views``) it gives
:func:`bounded_realizations` the winners in every small model at once; on
a view with one state per cell color it decides the nonemptiness game
(:func:`_realizations`).  The fixpoint also records a positional winning
strategy, which is where the strategy model and projection's witnesses are
read.  The arena and Zielonka's algorithm are the tests' oracle.
"""

from __future__ import annotations

from .coalgebra import CodeSweep, ColoredModel, PointedModel
from .coalgebra import coproduct as model_coproduct
from .functors import (
    FunctorDescriptor,
    base,
    canon_key,
    enumerate_t,
    functor_tag,
    lift_bits,
    lift_member,
    parse_functor,
    parse_telem,
    render_telem,
    subsets,
    t_map,
)
from .logic import Nabla, _bits, _BitView, _fresh, _tuple_views
from .parsing import Cursor
from .records import Record


class Automaton(Record):
    """A coalgebra automaton.

    ``omega`` lists parity priorities aligned with ``states``; ``delta`` is a
    canonically sorted tuple of ``((state, color), elements)`` cells, where a
    color is the frozenset of propositions read and each element lives in
    ``T(states)``.  Missing cells denote empty transition sets.
    """

    functor: FunctorDescriptor
    props: tuple
    states: tuple
    initial: object
    omega: tuple
    delta: tuple

    def __post_init__(self):
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate automaton states")
        if self.initial not in self.states:
            raise ValueError("initial state not among the states")
        if len(self.omega) != len(self.states):
            raise ValueError("omega must align with states")
        if any(not isinstance(k, int) or k < 0 for k in self.omega):
            raise ValueError("priorities must be nonnegative integers")
        if list(self.props) != sorted(set(self.props)):
            raise ValueError("props must be sorted and duplicate-free")
        state_set = frozenset(self.states)
        pset = frozenset(self.props)
        seen = set()
        for (a, c), elems in self.delta:
            if a not in state_set:
                raise ValueError(f"transition cell for unknown state {a!r}")
            if not isinstance(c, frozenset) or not c <= pset:
                raise ValueError(f"cell color {c!r} not a subset of the propositions")
            if (a, c) in seen:
                raise ValueError(f"duplicate cell for {(a, c)!r}")
            seen.add((a, c))
            for t in elems:
                if not base(self.functor, t) <= state_set:
                    raise ValueError("transition element leaves the state set")
        object.__setattr__(self, "_delta", dict(self.delta))
        object.__setattr__(
            self, "_omega", {s: k for s, k in zip(self.states, self.omega)}
        )

    @staticmethod
    def make(functor, props, states, initial, omega: dict, delta: dict) -> "Automaton":
        """Build an automaton from dicts, normalizing the cell layout."""
        props = tuple(sorted(set(props)))
        states = tuple(states)
        cells = []
        for (a, c), elems in delta.items():
            elems = tuple(sorted(set(elems), key=canon_key))
            if elems:
                cells.append(((a, frozenset(c)), elems))
        cells.sort(key=lambda cell: (canon_key(cell[0][0]), canon_key(cell[0][1])))
        return Automaton(
            functor,
            props,
            states,
            initial,
            tuple(omega[a] for a in states),
            tuple(cells),
        )

    def delta_of(self, a, c) -> tuple:
        return self._delta.get((a, frozenset(c)), ())

    def omega_of(self, a) -> int:
        return self._omega[a]

    def color_of(self, gamma) -> frozenset:
        """The cell color read from a model state's color set."""
        return frozenset(gamma) & frozenset(self.props)


# --------------------------------------------------------------------------
# Acceptance by the parity fixpoint


def winning_pairs(aut: Automaton, M: ColoredModel) -> frozenset:
    """All pairs (model state, automaton state) won by the existential player
    in the acceptance game, read off the parity fixpoint on the model's bit
    view (:func:`_winning_columns`) rather than a solved arena.  Raises
    ValueError if the automaton and the model live over different
    functors."""
    states = M.states
    return frozenset(
        (states[i], a)
        for a, col in _winning_columns(aut, _BitView(M, aut.props), aut.states).items()
        for i in _bits(col)
    )


def accepts(aut: Automaton, P: PointedModel) -> bool:
    """Whether the automaton accepts the pointed model: the bit of the point
    in the initial state's column of :func:`_winning_columns`, which solves
    only the automaton states reachable from the initial one.  Raises
    ValueError if the automaton and the model live over different
    functors."""
    col = _winning_columns(aut, _BitView(P.model, aut.props), (aut.initial,))[aut.initial]
    return bool(col >> P.model._index[P.point] & 1)


def _winning_columns(aut: Automaton, view, roots, choices=None) -> dict:
    """For each automaton state a reachable from ``roots``, the bitset of the
    states of ``view`` (a model's :class:`logic._BitView`, a sweep's
    :class:`logic._TupleView`, or :class:`_ColorView`) at which the
    existential player wins the acceptance game from a.  The view's
    ``atoms`` give each state's color.

    The winners solve the automaton's hierarchical equation system
    X_a = ⋁_c [color c] ∧ ⋁_{φ ∈ Δ(a, c)} ∇φ[X_b / b], with ν for even
    priorities and μ for odd ones, the highest priority outermost (Emerson
    and Jutla, FOCS 1991; Arnold and Niwiński, *Rudiments of μ-calculus*,
    2001).  A run of priorities of one parity is one level.  Each level is
    iterated from ⊤ (ν) or ⊥ (μ), Gauss–Seidel, with the levels inside it
    solved afresh before every pass: a pass that changes nothing ends the
    level.  Values taken from a stale inner solution lie between the
    level's start and its fixpoint, since every ∇ is monotone, so the
    iteration ends at the fixpoint all the same.

    Each distinct element φ is one ∇ node, asked of the view on every pass.
    A model's view decides a powerset node from pre-images of the X_b that
    it memoizes for all nodes, so a node whose base kept its values costs
    a few lookups; over any other functor it re-checks only the
    predecessors of the states where some X_b changed.  A tuple view
    returns a node's last result when its arguments are unchanged, and
    otherwise decides it afresh for every tuple.  The nodes
    are built here, not interned, so they die with the solve.  Only the
    colors that occur in the view are read, and only the automaton states
    reachable through their cells.

    Given a dict ``choices``, the solve also records a positional strategy
    for the existential player.  A pass records each pair (view state s,
    automaton state a) of its new X_a that has no record yet, as
    ``choices[s, a] = (φ, args)``: the first element φ of the cell whose ∇
    held at s, and ``args``, the columns b ↦ X_b it held on.  So a μ pass
    records the pairs it adds.  A ν pass that changes anything drops every
    record made since it began, its inner levels' included, since those
    rest on values that then fell.  The records that survive cover exactly
    the won pairs, and the first one of each pair wins: it was made on
    values of the enclosing ν levels that no later pass lowers, and, at a
    μ level, on arguments won at earlier stages of that level than the
    pair itself.  Along a play that follows the records through pairs
    their arguments hold, the stages of the highest μ level seen
    infinitely often would decrease forever, so that highest priority is
    even (progress measures: Jurdziński, STACS 2000; strategies from
    fixpoint iteration: Bruse, Falk and Lange, GandALF 2014).
    """
    F = aut.functor
    if F != view.functor:
        raise ValueError("automaton and model live over different functors")
    full = (1 << view.size) - 1
    color_mask = {frozenset(): full}  # cell color ↦ the bitset of the states read with it
    for p in aut.props:
        held, split = view.atoms[p], {}
        for c, mask in color_mask.items():
            if mask & held:
                split[c | {p}] = mask & held
            if mask & ~held:
                split[c] = mask & ~held
        color_mask = split
    # by lowest state: on a model, the order in which its states meet the colors
    colors = sorted(color_mask.items(), key=lambda cm: cm[1] & -cm[1])
    nodes = {}  # φ ↦ (its ∇ node, base(φ))
    rows = {}  # a ↦ [(color bitset, the elements of its cell)]
    todo = list(dict.fromkeys(roots))
    seen = set(todo)
    for a in todo:
        rows[a] = row = []
        for c, mask in colors:
            cell = aut.delta_of(a, c)
            for phi in cell:
                if phi not in nodes:
                    nodes[phi] = Nabla(F, phi), base(F, phi)
                    todo.extend(nodes[phi][1] - seen)
                    seen |= nodes[phi][1]
            if cell:
                row.append((mask, cell))
    levels = []  # (parity, states), outermost first
    for a in sorted(rows, key=aut.omega_of, reverse=True):
        odd = aut.omega_of(a) % 2
        if not levels or levels[-1][0] != odd:
            levels.append((odd, []))
        levels[-1][1].append(a)
    nabla = view.nabla
    X = {}
    recorded = dict.fromkeys(rows, 0)  # a ↦ the bitset of the states with a record at a
    log = []  # the recorded pairs, oldest first

    def solve(i):
        odd, states = levels[i]
        for a in states:
            X[a] = 0 if odd else full
        while True:
            mark = len(log)
            if i + 1 < len(levels):
                solve(i + 1)
            changed = False
            for a in states:
                new = 0
                for mask, cell in rows[a]:
                    hit = 0
                    for phi in cell:
                        g, bs = nodes[phi]
                        args = {b: X[b] for b in bs}
                        got = nabla(g, args)
                        fresh = 0 if choices is None else got & mask & ~(hit | recorded[a])
                        if fresh:
                            recorded[a] |= fresh
                            for s in _bits(fresh):
                                choices[s, a] = phi, args
                                log.append((s, a))
                        hit |= got
                    new |= hit & mask
                if new != X[a]:
                    X[a] = new
                    changed = True
            if not changed:
                return
            if not odd:
                for s, a in log[mark:]:
                    del choices[s, a]
                    recorded[a] &= ~(1 << s)
                del log[mark:]

    if levels:
        solve(0)
    return X


# --------------------------------------------------------------------------
# True state, satisfiability, normalization


def add_true_state(aut: Automaton):
    """Adjoin a state accepting everything; returns (automaton, state).

    The new state has even priority and, for every color, all of
    ``T({state})`` as transition elements, so the existential player can
    always continue and every continuation wins.
    """
    tt = "att" if "att" not in aut.states else _fresh("att", aut.states)
    delta = dict(aut.delta)
    elems = enumerate_t(aut.functor, frozenset((tt,)))
    for c in subsets(aut.props):
        delta[(tt, c)] = elems
    omega = dict(zip(aut.states, aut.omega))
    omega[tt] = 0
    return (
        Automaton.make(
            aut.functor,
            aut.props,
            aut.states + (tt,),
            aut.initial,
            omega,
            delta,
        ),
        tt,
    )


def find_true_state(aut: Automaton):
    """A state that accepts everything by construction, if one exists."""
    for a, k in zip(aut.states, aut.omega):
        if k % 2 != 0:
            continue
        want = set(enumerate_t(aut.functor, frozenset((a,))))
        if all(set(aut.delta_of(a, c)) == want for c in subsets(aut.props)):
            return a
    return None


def _elements(aut: Automaton) -> list:
    """The distinct transition elements, in cell order."""
    return list(dict.fromkeys(phi for _, elems in aut.delta for phi in elems))


def bounded_realizations(aut: Automaton, bound: int) -> dict:
    """The first model realization of each transition element, if any.

    Sweeps the models of at most ``bound`` states over the automaton's
    vocabulary, size by size while some element is unrealized, on the tuple
    views of ``entails_bounded`` (``logic._tuple_views``).  On each view,
    :func:`_winning_columns` gives the column of every automaton state b in
    the base of an unrealized element: the states of every tuple from which
    the existential player wins at b.  A tuple's model realizes φ iff some
    τ ∈ T(n) lifts its winning pairs to φ, so the tuples realizing φ are the
    OR over τ of ``lift_bits(F, τ, φ, atom, full)``, where ``atom(t, b)`` is
    t's row of b's column.

    Each element φ maps to ``(M, τ, Z)`` read off the model M of the least
    tuple realizing it, the only models built: τ is the first element of
    ``T(M.states)`` whose lifting of the winning pairs W of the acceptance
    game on M reaches φ, and ``Z = W ∩ (base(τ) × base(φ))``, a frozenset
    of (model state, automaton state) pairs.  By support restriction that
    Z is a witness for ``(τ, φ)`` inside W.  Realizability is invariant
    under relabeling, so that tuple is the least of its isomorphism class.
    Elements no such model realizes map to ``None``.

    Used only where a monotone part is present (see :func:`_realizations`).
    """
    F = aut.functor
    found = dict.fromkeys(_elements(aut))
    todo = list(found)
    for n in range(1, bound + 1):
        if not todo:
            break
        first = {}  # φ ↦ the number of the least n-state tuple realizing it
        roots = dict.fromkeys(b for phi in todo for b in base(F, phi))
        for view in _tuple_views(F, aut.props, n):
            sweep, full = view.sweep, (1 << view.count) - 1
            # b ↦ per model state x, the tuples where (x, b) is won
            cols = {b: view.rows(col) for b, col in _winning_columns(aut, view, roots).items()}

            def atom(t, b):
                return cols[b][sweep.index[t]]

            for phi in todo:
                hits = 0
                for tau in sweep.elems:
                    hits |= lift_bits(F, tau, phi, atom, full)
                if hits:
                    first[phi] = view.start + (hits & -hits).bit_length() - 1
            todo = [phi for phi in todo if phi not in first]
            if not todo:
                break
        taus = enumerate_t(F, frozenset(sweep.states))
        games = {}  # tuple number ↦ its model and winning pairs
        for phi, m in first.items():
            if m not in games:
                M = sweep.model(sweep.decode(m))
                games[m] = M, winning_pairs(aut, M)
            M, W = games[m]
            tau = next((t for t in taus if lift_member(F, W, t, phi)), None)
            if tau is None:
                raise AssertionError("the realizing tuple's game lifts no τ to φ")
            dom, cod = base(F, tau), base(F, phi)
            Z = frozenset((t, b) for t, b in W if t in dom and b in cod)
            found[phi] = (M, tau, Z)
    return found


class _ColorView:
    """A view with one state per color in ``colors``, on which a ∇ node
    holds at every state or at none: at all of them iff each of its
    arguments holds at some state.

    On it, :func:`_winning_columns` solves the nonemptiness game, where E
    picks an element of a cell of a and A a state of its base: X_a is
    nonzero iff E wins at a.  For a functorial lifting that means a accepts
    some model (Kupke & Venema, *Coalgebraic automata theory: basic
    results*, LMCS 2008): some τ lifts a relation R to φ iff base(φ) ⊆
    rng(R), so φ is realized over the winners iff its base lies inside them.
    """

    __slots__ = ("functor", "size", "atoms")

    def __init__(self, functor, props, colors):
        self.functor, self.size = functor, len(colors)
        self.atoms = {p: sum(1 << i for i, c in enumerate(colors) if p in c) for p in props}

    def nabla(self, g, args: dict) -> int:
        return (1 << self.size) - 1 if all(args.values()) else 0


def _realizations(aut: Automaton, bound: int):
    """Decide which transition elements some model realizes, and realize
    them in one model: the one decision that pruning, normalization and
    witness reconstruction read.  Returns ``(model, tau_of, claimed)``:
    ``tau_of[φ]`` is a τ ∈ T(model.states) with (τ, φ) ∈ L(claimed), or
    ``None`` if no model realizes φ; ``claimed`` holds the (model state,
    automaton state) pairs the construction takes the existential player E
    to win.

    Exact for a functor with a functorial lifting: the parity fixpoint on
    the :class:`_ColorView` of the cell colors, in ``canon_key`` order,
    decides the nonemptiness game, and its records are E's strategy.  The
    model is the strategy model: E's winning states, each with the element
    and the color of its first record (the first cell, in delta order,
    holding that element), and τ_φ = φ, through the diagonal, iff base(φ)
    lies inside the winning states.  Where a monotone part is present,
    base(φ) alone does not decide realizability (the ∀∃ lifting can relate
    one model state to several automaton states): the model is the
    coproduct of the models of :func:`bounded_realizations`, or the model
    of the 1-state code tuple (0,) if none realizes anything.
    """
    F = aut.functor
    if F.has_functorial_lifting:
        colors = sorted({c for (_, c), _ in aut.delta}, key=canon_key)
        choices = {}
        _winning_columns(aut, _ColorView(F, aut.props, colors), aut.states, choices)
        sigma = {}
        gamma = {}
        for (s, a), (phi, _) in choices.items():
            if a not in sigma:
                sigma[a], gamma[a] = phi, colors[s]
        win = [a for a in aut.states if a in sigma]
        model = ColoredModel.make(F, sigma, gamma, props=aut.props, states=win)
        tau_of = {phi: phi if base(F, phi).issubset(sigma) else None for phi in _elements(aut)}
        return model, tau_of, frozenset((a, a) for a in win)
    found = bounded_realizations(aut, bound)
    used = list(dict.fromkeys(r[0] for r in found.values() if r is not None)) or [
        CodeSweep(F, aut.props, 1).model((0,))
    ]
    big, injections = model_coproduct(used)
    inj_of = dict(zip(used, injections))
    tau_of = dict.fromkeys(found)
    claimed = set()
    for phi, r in found.items():
        if r is not None:
            M, tau, Z = r
            inj = inj_of[M]
            tau_of[phi] = t_map(F, inj, tau)
            claimed |= {(inj[t], b) for t, b in Z}
    return big, tau_of, frozenset(claimed)


def prune_unsatisfiable(aut: Automaton, bound: int = 3) -> Automaton:
    """Drop transition elements that no model realizes.

    Keeps exactly the elements to which :func:`_realizations` gives a τ:
    exact for a functor with a functorial lifting; where a monotone part is
    present, ``bound`` caps the realizing models.

    One pass suffices: a realization's winning strategies only ever use
    elements that are themselves realized over the same model, so pruning
    cannot invalidate surviving elements.
    """
    _, tau_of, _ = _realizations(aut, bound)
    # Automaton.make drops the cells left empty
    delta = {
        cell: [phi for phi in elems if tau_of[phi] is not None] for cell, elems in aut.delta
    }
    omega = dict(zip(aut.states, aut.omega))
    return Automaton.make(aut.functor, aut.props, aut.states, aut.initial, omega, delta)


def normalize(aut: Automaton, bound: int = 3) -> Automaton:
    """Adjoin a universally accepting state (unless one exists already),
    then prune unrealizable elements.  Idempotent.

    Exact for functors with a functorial lifting; ``bound`` caps the
    realizing models only where a monotone part is present (realizability
    is decided by :func:`_realizations`, through
    :func:`prune_unsatisfiable`).
    """
    if find_true_state(aut) is None:
        aut, _ = add_true_state(aut)
    return prune_unsatisfiable(aut, bound)


class WitnessCoalgebra(Record):
    """A model realizing every transition element of an automaton.

    ``winning`` pairs (model state, automaton state) are won by the
    existential player; each transition element φ is realized by
    ``tau_of[φ]`` with a witness relation inside ``winning``.
    """

    model: ColoredModel
    winning: frozenset
    tau_of: dict


def witness_coalgebra(aut: Automaton, bound: int = 3) -> WitnessCoalgebra:
    """Realize every transition element of a totally satisfiable automaton
    by the model of :func:`_realizations`: over a functorial lifting, the
    strategy model read off the records of the nonemptiness fixpoint.  Its
    claimed pairs are checked against :func:`winning_pairs` on that model,
    so a strategy that does not win raises AssertionError.

    Raises ValueError if some element has no realization (run
    :func:`prune_unsatisfiable` first).
    """
    model, tau_of, claimed = _realizations(aut, bound)
    if None in tau_of.values():
        raise ValueError("automaton has an unrealizable transition element")
    W = winning_pairs(aut, model)
    if not claimed <= W:
        raise AssertionError("the witness model loses a pair its construction claims")
    return WitnessCoalgebra(model, W, tau_of)


# --------------------------------------------------------------------------
# Text format


def render_automaton(aut: Automaton) -> str:
    """Serialize with canonically renamed states a0, a1, …"""
    ren = {a: f"a{i}" for i, a in enumerate(aut.states)}
    lines = [
        f"functor {functor_tag(aut.functor)};",
        "props {" + ", ".join(aut.props) + "};",
        f"initial {ren[aut.initial]};",
    ]
    for a, k in zip(aut.states, aut.omega):
        lines.append(f"state {ren[a]} priority {k};")
    cells = []
    for (a, c), elems in aut.delta:
        texts = sorted(
            render_telem(aut.functor, t_map(aut.functor, ren, phi)) for phi in elems
        )
        cells.append(
            (
                ren[a],
                "{" + ", ".join(sorted(c)) + "}",
                "[" + ", ".join(texts) + "]",
            )
        )
    cells.sort()
    lines.extend(f"delta {a} {c} : {es};" for a, c, es in cells)
    return "\n".join(lines) + "\n"


def parse_automaton(text: str) -> Automaton:
    cur = Cursor(text)
    cur.expect_word("functor")
    F = parse_functor(cur)
    cur.expect(";")
    cur.expect_word("props")
    props = cur.ident_set()
    cur.expect(";")
    cur.expect_word("initial")
    initial = cur.ident("state name")
    cur.expect(";")
    states = []
    omega = {}
    delta = {}
    while not cur.at_end():
        if cur.take_word("state"):
            name = cur.ident("state name")
            if name in omega:
                cur.error(f"duplicate state {name!r}")
            cur.expect_word("priority")
            k = cur.int_lit()
            cur.expect(";")
            states.append(name)
            omega[name] = k
        elif cur.take_word("delta"):
            a = cur.ident("state name")
            c = cur.ident_set()
            cur.expect(":")
            elems = cur.items(
                "[", "]", lambda cc: parse_telem(cc, F, lambda c: c.ident("state name"))
            )
            cur.expect(";")
            if (a, frozenset(c)) in delta:
                cur.error(f"duplicate cell for state {a!r}")
            delta[(a, frozenset(c))] = elems
        else:
            cur.error("expected 'state' or 'delta'")
    try:
        return Automaton.make(F, props, tuple(states), initial, omega, delta)
    except ValueError as exc:
        cur.error(str(exc))
