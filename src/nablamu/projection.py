"""Existential projection of automata along a proposition.

``project_automaton`` hides a proposition p: after normalization (adjoining
a universally accepting state and discarding unrealizable transition
elements), the two cells a state has for colors c and c ∪ {p} are merged —
the automaton may now *guess* p at every step.

``construct_projection_witness`` justifies the guesses: from a model the
projected automaton accepts, it constructs a model over the full vocabulary
that the original automaton accepts and that is bisimilar to the input up to
p.  The successor structure of the witness is produced by ``qf_middle``,
which realizes the quasi-functorial factorization property of the lifting:
any pair in the lifting of a composite R;S factors through a middle element
related to both sides.
"""

from __future__ import annotations

from .automata import (
    Automaton,
    acceptance_game,
    accepts,
    find_true_state,
    normalize,
    witness_coalgebra,
)
from .coalgebra import ColoredModel, PointedModel, up_to_p_bisimilar
from .functors import (
    FunctorDescriptor,
    _antichain_min,
    _FnPairs,
    base,
    canon_key,
    lift_member,
    t_map,
)


def qf_middle(
    F: FunctorDescriptor, R1, R2, tau, rho, dom_witness=None, rng_witness=None
):
    """A middle element for a lifted composite.

    ``R1`` and ``R2`` are sets of pairs.  Given ``(tau, rho)`` in the
    lifting of ``R1 ; R2``, returns ``m`` with ``(tau, m)`` in the lifting
    of ``R1`` and ``(m, rho)`` in the lifting of ``R2``.  Lax layers (the
    monotone lifting) additionally need a ``dom_witness`` — an element
    related to ``tau`` under ``R1`` — and an ``rng_witness`` — one related
    to ``rho`` under ``R2`` — to anchor the construction; functorial layers
    ignore them.  The monotone middle has one generator per generator of
    ``tau``, anchored in ``dom_witness``, and one per generator of ``rho``,
    anchored in ``rng_witness``.  One helper builds both mirrored halves:
    the second swaps ``tau`` and ``rho`` and reads ``R2`` and the mediator
    backwards.
    """
    succ2: dict = {}
    for u, y in R2:
        succ2.setdefault(u, []).append(y)
    med_map: dict = {}
    for x, u in R1:
        for y in succ2.get(u, ()):
            cur = med_map.get((x, y))
            if cur is None or canon_key(u) < canon_key(cur):
                med_map[(x, y)] = u

    def med(x, y):
        return med_map.get((x, y))

    return _qf(F, tau, rho, R1, R2, med, dom_witness, rng_witness)


def _qf(F, tau, rho, R1, R2, med, dom_w, rng_w):
    kind = F.kind

    def part(G, k):
        """The middle of component ``k`` of the payloads and the witnesses."""
        ws = (None if w is None else w[k] for w in (dom_w, rng_w))
        return _qf(G, tau[k], rho[k], R1, R2, med, *ws)

    if kind == "const":
        if tau != rho:
            raise ValueError("constant payloads of a lifted pair must agree")
        return tau
    if kind == "identity":
        u = med(tau, rho)
        if u is None:
            raise ValueError("no mediator between the identity payloads")
        return u
    if kind == "powerset":
        out = set()
        for x in tau:
            for y in rho:
                u = med(x, y)
                if u is not None:
                    out.add(u)
        return frozenset(out)
    if kind == "monotone":
        if dom_w is None or rng_w is None:
            raise ValueError(
                "the monotone lifting needs domain and range witnesses to mediate"
            )
        gens = _qf_monotone_half(tau, rho, R1, med, dom_w) + _qf_monotone_half(
            rho, tau, _FnPairs(lambda y, u: (u, y) in R2), lambda y, x: med(x, y), rng_w
        )
        return _antichain_min(frozenset(gens))
    if kind == "product":
        return (part(F.parts[0], 0), part(F.parts[1], 1))
    if kind == "coproduct":
        if tau[0] != rho[0]:
            raise ValueError("mismatched coproduct tags in a lifted pair")
        return (tau[0], part(F.parts[0 if tau[0] == "inl" else 1], 1))
    # composite: mediate at the outer level, over elements of the inner layer
    outer, inner = F.parts

    def med_lifted(xe, ye):
        composable = _FnPairs(lambda x, y: med(x, y) is not None)
        if not lift_member(inner, composable, xe, ye):
            return None
        return _qf(inner, xe, ye, R1, R2, med, None, None)

    lifted1 = _FnPairs(lambda xe, ue: lift_member(inner, R1, xe, ue))
    lifted2 = _FnPairs(lambda ue, ye: lift_member(inner, R2, ue, ye))
    return _qf(outer, tau, rho, lifted1, lifted2, med_lifted, dom_w, rng_w)


def _qf_monotone_half(tau, rho, rel, med, anchor) -> list:
    """One candidate generator of the monotone middle per generator A of ``tau``.

    The candidate is the first generator of ``anchor`` whose every member is
    ``rel``-related to some x ∈ A, joined with ``med(x, y)`` for each y of the
    first generator of ``rho`` that A mediates onto, x being the first member
    of A with a mediator to y.  "First" is always in ``canon_key`` order.
    """

    def first(items, test):
        return next((i for i in sorted(items, key=canon_key) if test(i)), None)

    gens = []
    for A in sorted(tau, key=canon_key):
        B = first(rho, lambda H: all(any(med(x, y) is not None for x in A) for y in H))
        U = first(anchor, lambda H: all(any((x, u) in rel for x in A) for u in H))
        if B is None or U is None:
            raise ValueError("monotone mediation lost a generator witness")
        mids = {
            med(first(A, lambda x: med(x, y) is not None), y)
            for y in sorted(B, key=canon_key)
        }
        gens.append(frozenset(U | mids))
    return gens


# --------------------------------------------------------------------------
# Projection


def _delta_p_merge(aut: Automaton, hidden: frozenset) -> Automaton:
    """Merge the cells whose colors differ only in ``hidden``; drop ``hidden``."""
    props = tuple(q for q in aut.props if q not in hidden)
    delta: dict = {}
    for (a, c), elems in aut.delta:
        delta.setdefault((a, c - hidden), set()).update(elems)
    return Automaton.make(
        aut.functor,
        props,
        aut.states,
        aut.initial,
        dict(zip(aut.states, aut.omega)),
        delta,
    )


def project_automaton(aut: Automaton, p: str, bound: int = 3) -> Automaton:
    """The automaton for ∃p: normalize, then let every step guess ``p``.

    Exact for functors with a functorial lifting, where normalization
    decides realizability by the nonemptiness game.  Only where a monotone
    part is present are realizing models bounded by ``bound`` states.
    """
    return _delta_p_merge(normalize(aut, bound), frozenset((p,)))


def _committed_pairs(arena, strat, j) -> frozenset:
    """The pairs (t, b) whose ('state', t, b) positions a play from position
    ``j`` can reach first when E follows ``strat``: the relation E's strategy
    proves the element's lifting with."""
    out = set()
    seen = {j}
    todo = [j]
    while todo:
        v = todo.pop()
        pos = arena.positions[v]
        if pos[0] == "state":
            out.add(pos[1:])
            continue
        for w in (strat[v],) if arena.owner[v] == "E" else arena.moves[v]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return frozenset(out)


def _shrink_witness(F: FunctorDescriptor, pairs, tau, phi) -> frozenset:
    """A ⊆-minimal subset of ``pairs`` whose lifting still relates ``tau`` to
    ``phi``, given that ``pairs`` itself does.

    One pass in ``canon_key`` order drops each pair the lifting can do
    without.  Every lifting is monotone in the relation, so a pair kept
    once can never be dropped later, and the result is minimal.
    """
    Z = set(pairs)
    for pair in sorted(pairs, key=canon_key):
        Z.discard(pair)
        if not lift_member(F, Z, tau, phi):
            Z.add(pair)
    return frozenset(Z)


def construct_projection_witness(
    aut: Automaton, P: PointedModel, p: str, bound: int = 3
) -> PointedModel:
    """Rebuild the hidden proposition behind an accepted projection.

    Given ``P`` accepted by ``project_automaton(aut, p, bound)``, returns a
    pointed model over the full vocabulary that ``aut`` (normalized) accepts
    and that is bisimilar to ``P`` up to ``p``.  Its states are the pairs of
    a model state and an automaton state that E's winning strategy reaches
    from the point, plus the witness-coalgebra states their middles mention.
    At a pair (s, a) the strategy picks an element φ.  The pairs the
    strategy can reach next through the unfolded lifting prove (σ(s), φ), so
    the relation Z behind the step is a ⊆-minimal subset of them that still
    does, and every play the witness allows is one the strategy wins.
    Raises ValueError if the projection rejects ``P``; both claims about the
    result are re-verified and failures raise AssertionError.
    """
    F = aut.functor
    if F != P.functor:
        raise ValueError("automaton and model live over different functors")
    autn = normalize(aut, bound)
    att = find_true_state(autn)
    if att is None:
        raise AssertionError("normalization must leave a universally accepting state")
    pset = frozenset((p,))
    E = _delta_p_merge(autn, pset)
    M = P.model
    # the uncovered successors go to the true state, so its pairs join the arena
    arena, sol = acceptance_game(
        E, M, pairs=[(P.point, E.initial)] + [(t, att) for t in M.states]
    )
    if arena.index(("state", P.point, E.initial)) not in sol.win_e:
        raise ValueError("the projection automaton rejects this pointed model")
    wc = witness_coalgebra(autn, bound)
    strat = sol.strategy_e
    eprops = frozenset(E.props)
    w_pairs = frozenset((("w", q), b) for q, b in wc.winning)

    # walk from the point along E's winning strategy: every pair it reaches
    # is won by E, and the middles mention only such pairs and witness states
    sigma: dict = {}
    gamma: dict = {}
    todo = [("m", P.point, E.initial)]
    while todo:
        tok = todo.pop()
        if tok in sigma:
            continue
        if tok[0] == "w":
            q = tok[1]
            sigma[tok] = t_map(F, lambda r: ("w", r), wc.model.sigma_of(q))
            gamma[tok] = wc.model.gamma_of(q)
        else:
            _, s, a = tok
            j = strat[arena.index(("state", s, a))]
            _, tau, phi = arena.positions[j]
            Zpairs = _shrink_witness(F, _committed_pairs(arena, strat, j), tau, phi)
            covered = {t for t, _ in Zpairs}
            Zp = set(Zpairs) | {(t, att) for t in M.states if t not in covered}
            R1 = frozenset((t, ("m", t, b)) for t, b in Zp)
            R2 = frozenset((("m", t, b), b) for t, b in Zp) | w_pairs
            choice: dict = {}
            for t, b in sorted(Zp, key=canon_key):
                choice.setdefault(t, ("m", t, b))
            dom_w = t_map(F, choice, tau)
            rng_w = t_map(F, lambda q: ("w", q), wc.tau_of[phi])
            mid = qf_middle(F, R1, R2, tau, phi, dom_w, rng_w)
            if not lift_member(F, R1, tau, mid) or not lift_member(F, R2, mid, phi):
                raise AssertionError(
                    "the quasi-functorial middle failed its defining property"
                )
            sigma[tok] = mid
            c = M.gamma_of(s) & eprops
            colors = M.gamma_of(s) - pset
            if phi in autn.delta_of(a, c | pset):
                colors = colors | pset
            gamma[tok] = colors
        todo.extend(base(F, sigma[tok]))

    props = sorted(set(autn.props) | set(M.props))
    big = ColoredModel.make(
        F, sigma, gamma, props=props, states=tuple(sorted(sigma, key=canon_key))
    )
    out = PointedModel(big, ("m", P.point, E.initial))
    if not up_to_p_bisimilar(P, out, p):
        raise AssertionError(
            "projection witness is distinguishable from the input apart from p"
        )
    if not accepts(autn, out):
        raise AssertionError("projection witness escaped the source automaton")
    return out
