"""Shared generators and brute-force oracles for the test suite.

The oracles here are deliberately naive — full subset enumeration, literal
evaluation of definitions — so they can serve as ground truth for the
optimized library code.
"""

import itertools

from hypothesis import strategies as st

from nablamu import (
    IDENTITY,
    MONOTONE,
    POWERSET,
    FunctorDescriptor,
    base,
    canon_key,
    compose,
    constant,
    coproduct,
    lift_member,
    product,
)

CARRIER = ("x", "y", "z")

SHAPES = {
    "powerset": POWERSET,
    "monotone": MONOTONE,
    "identity": IDENTITY,
    "const": constant(["a", "b"]),
    "product": product(POWERSET, constant(["a", "b"])),
    "coproduct": coproduct(POWERSET, IDENTITY),
    "comp": compose(POWERSET, POWERSET),
}


def antichain_min(sets):
    sets = set(sets)
    return frozenset(s for s in sets if not any(o < s for o in sets))


def subsets(xs):
    xs = sorted(xs, key=canon_key)
    for r in range(len(xs) + 1):
        yield from (frozenset(c) for c in itertools.combinations(xs, r))


def telem_strategy(F: FunctorDescriptor, xs):
    """A hypothesis strategy drawing elements of ``T X``."""
    xs = tuple(sorted(set(xs), key=canon_key))
    kind = F.kind
    if kind == "powerset":
        return st.frozensets(st.sampled_from(xs))
    if kind == "monotone":
        return st.frozensets(st.frozensets(st.sampled_from(xs)), max_size=3).map(
            antichain_min
        )
    if kind == "identity":
        return st.sampled_from(xs)
    if kind == "const":
        return st.sampled_from(sorted(F.values))
    if kind == "product":
        return st.tuples(
            telem_strategy(F.parts[0], xs), telem_strategy(F.parts[1], xs)
        )
    if kind == "coproduct":
        return st.one_of(
            st.tuples(st.just("inl"), telem_strategy(F.parts[0], xs)),
            st.tuples(st.just("inr"), telem_strategy(F.parts[1], xs)),
        )
    outer, inner = F.parts
    return st.frozensets(telem_strategy(inner, xs), min_size=1, max_size=3).flatmap(
        lambda pool: telem_strategy(outer, pool)
    )


def relation_strategy(xs, ys):
    pairs = [(x, y) for x in xs for y in ys]
    return st.frozensets(st.sampled_from(pairs)) if pairs else st.just(frozenset())


def function_strategy(xs, ys):
    xs, ys = tuple(xs), tuple(ys)
    return st.fixed_dictionaries({x: st.sampled_from(ys) for x in xs})


# --------------------------------------------------------------------------
# Oracles


def brute_least_support(F, t, ambient):
    """The ⊆-least U ⊆ ambient with t ∈ T U, by trying every subset."""
    from nablamu import enumerate_t

    best = None
    for U in subsets(ambient):
        if t in enumerate_t(F, U):
            if best is None or len(U) < len(best):
                best = U
    return best


def brute_minimal_witnesses(F, t1, t2):
    """All minimal relations on base×base lifting to (t1, t2), by full search."""
    dom, cod = base(F, t1), base(F, t2)
    ground = sorted(itertools.product(dom, cod), key=canon_key)
    sats = [
        frozenset(c)
        for r in range(len(ground) + 1)
        for c in itertools.combinations(ground, r)
        if lift_member(F, frozenset(c), t1, t2)
    ]
    return {Z for Z in sats if not any(W < Z for W in sats)}


def expand_family(gens, ambient):
    """The upward closure of a generator antichain inside P(ambient)."""
    return [S for S in subsets(ambient) if any(G <= S for G in gens)]


def full_family_lift(R, fam1, fam2):
    """The monotone neighborhood lifting evaluated literally on full families.

    Both clauses quantify over every member of the upward-closed families,
    not just the generators.
    """
    clause1 = all(
        any(all(any((x, y) in R for x in U) for y in V) for V in fam2) for U in fam1
    )
    clause2 = all(
        any(all(any((x, y) in R for y in V) for x in U) for U in fam1) for V in fam2
    )
    return clause1 and clause2


def brute_canonical_models(F, props, n):
    """Every ``n``-state model over ``F`` and ``props``, one per isomorphism
    class, by relabeling each combination under every state permutation and
    keeping the least key: ``(rendered successor structure, sorted colors)``
    per state, in state order.  Sorted by that key."""
    from nablamu import ColoredModel, enumerate_t, render_telem, t_map

    props = tuple(sorted(props))
    states = tuple(f"s{i}" for i in range(n))
    elems = enumerate_t(F, frozenset(states))
    colorings = tuple(subsets(props))
    rendered = {t: render_telem(F, t) for t in elems}
    perms = []
    for perm in itertools.permutations(range(n)):
        pi = {states[i]: states[j] for i, j in enumerate(perm)}
        perms.append((perm, {t: t_map(F, pi, t) for t in elems}))
    out = {}
    for sigma in itertools.product(elems, repeat=n):
        for gamma in itertools.product(colorings, repeat=n):
            best = None
            for perm, relabel in perms:
                new_sigma, new_gamma = [None] * n, [None] * n
                for i, j in enumerate(perm):
                    new_sigma[j] = relabel[sigma[i]]
                    new_gamma[j] = gamma[i]
                key = tuple(
                    (rendered[t], tuple(sorted(g)))
                    for t, g in zip(new_sigma, new_gamma)
                )
                if best is None or key < best[0]:
                    best = (key, tuple(new_sigma), tuple(new_gamma))
            out.setdefault(best[0], ColoredModel(F, props, states, best[1], best[2]))
    return tuple(out[k] for k in sorted(out))


def brute_greatest_bisimulation(M1, M2, Q=None):
    """The largest bisimulation between two models, by relation refinement:
    start from every pair whose colors agree on ``Q`` (default: every
    proposition of either model) and drop pairs whose successor structures
    the lifting of the current relation does not relate, until none drops."""
    from nablamu import Relation

    Q = frozenset(M1.props) | frozenset(M2.props) if Q is None else frozenset(Q)
    R = {
        (s, t)
        for s in M1.states
        for t in M2.states
        if M1.gamma_of(s) & Q == M2.gamma_of(t) & Q
    }
    while True:
        keep = {
            (s, t)
            for (s, t) in R
            if lift_member(M1.functor, R, M1.sigma_of(s), M2.sigma_of(t))
        }
        if keep == R:
            return Relation(M1.state_set, M2.state_set, frozenset(R))
        R = keep


# --------------------------------------------------------------------------
# Parity games


def random_arena(rng, max_positions=8, max_priority=3, max_degree=2):
    """A random small arena; zero-degree positions exercise the stuck rules.

    The existential out-degree stays small so the brute-force oracle (which
    enumerates every positional strategy) remains cheap.
    """
    from nablamu.games import Arena

    n = rng.randint(1, max_positions)
    moves = []
    for _ in range(n):
        d = rng.randint(0, min(max_degree, n))
        moves.append(tuple(sorted(rng.sample(range(n), d))))
    return Arena(
        positions=tuple(range(n)),
        owner=tuple(rng.choice("EA") for _ in range(n)),
        priority=tuple(rng.randint(0, max_priority) for _ in range(n)),
        moves=tuple(moves),
    )


def oracle_winners(arena):
    """Winner per position by enumerating the existential player's strategies.

    Once a positional strategy is fixed the existential player has no choices
    left, so the universal player wins a position exactly when SOME play from
    it reaches an existential dead end or an odd-priority position that lies
    on a cycle within the subgraph of no-higher priorities.
    """
    n = len(arena)
    owner, priority, moves = arena.owner, arena.priority, arena.moves
    e_active = [v for v in range(n) if owner[v] == "E" and moves[v]]
    e_stuck = {v for v in range(n) if owner[v] == "E" and not moves[v]}

    def reachable(start, succ, sub):
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in succ(v):
                if w in sub and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    win_e = set()
    for combo in itertools.product(*(moves[v] for v in e_active)):
        sigma = dict(zip(e_active, combo))

        def succ(v):
            if owner[v] == "E":
                return (sigma[v],) if v in sigma else ()
            return moves[v]

        bad = set(e_stuck)
        for u in range(n):
            if priority[u] % 2 == 1:
                sub = {w for w in range(n) if priority[w] <= priority[u]}
                back = {w for w in succ(u) if w in sub}
                if any(u in reachable(w, succ, sub) for w in back):
                    bad.add(u)
        # every play is universal-chosen, so "some play reaches bad" is just
        # plain reachability in the strategy-fixed graph
        doomed = {v for v in range(n) if reachable(v, succ, set(range(n))) & bad}
        win_e |= set(range(n)) - doomed
    return tuple("E" if v in win_e else "A" for v in range(n))


def validate_parity_solution(arena, sol):
    """Certify a claimed solution: region closure plus the cycle criterion.

    A passing check proves the regions correct: the winner's strategy keeps
    play inside the region, the opponent cannot escape or get the winner
    stuck, and every cycle the opponent can still realize has the winner's
    parity.
    """
    n = len(arena)
    assert sol.win_e | sol.win_a == frozenset(range(n))
    assert not (sol.win_e & sol.win_a)
    for player, region, strat in (
        ("E", sol.win_e, sol.strategy_e),
        ("A", sol.win_a, sol.strategy_a),
    ):
        bad_parity = 1 if player == "E" else 0

        def succ(v):
            if arena.owner[v] == player:
                return (strat[v],)
            return arena.moves[v]

        for v in region:
            if arena.owner[v] == player:
                assert arena.moves[v], f"winner stuck at own position {v}"
                assert v in strat.choice, f"no strategy at won position {v}"
                assert strat[v] in arena.moves[v]
                assert strat[v] in region, "strategy leaves the winning region"
            else:
                assert all(w in region for w in arena.moves[v]), (
                    "opponent can escape the region"
                )
        for u in region:
            if arena.priority[u] % 2 != bad_parity:
                continue
            sub = {
                w for w in region if arena.priority[w] <= arena.priority[u]
            }
            stack = [w for w in succ(u) if w in sub]
            seen = set(stack)
            while stack:
                v = stack.pop()
                assert v != u, (
                    f"opponent-parity cycle through {u} in {player}'s region"
                )
                for w in succ(v):
                    if w in sub and w not in seen:
                        seen.add(w)
                        stack.append(w)


def random_automaton(F, props, rng, max_states=3, max_priority=3, max_base=2):
    """A small random automaton; transition elements use tiny state pools so
    acceptance-game witness enumeration stays cheap."""
    from nablamu import random_telem
    from nablamu.automata import Automaton

    n = rng.randint(1, max_states)
    states = [f"a{i}" for i in range(n)]
    omega = {a: rng.randint(0, max_priority) for a in states}
    delta = {}
    for a in states:
        for c in subsets(props):
            if rng.random() < 0.25:
                continue
            elems = set()
            for _ in range(rng.randint(1, 2)):
                pool = rng.sample(states, min(len(states), rng.randint(1, max_base)))
                elems.add(random_telem(F, pool, rng))
            delta[(a, frozenset(c))] = elems
    return Automaton.make(F, props, states, states[0], omega, delta)
