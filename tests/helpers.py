"""Shared generators and brute-force oracles for the test suite.

The oracles here are deliberately naive — full subset enumeration, literal
evaluation of definitions — so they can serve as ground truth for the
optimized library code.
"""

import itertools
import math
import string
import sys
from collections import deque
from functools import lru_cache
from operator import mul

from hypothesis import strategies as st

from nablamu import (
    IDENTITY,
    MONOTONE,
    POWERSET,
    FunctorDescriptor,
    PointedModel,
    automaton_to_formula,
    base,
    canon_key,
    compose,
    constant,
    coproduct,
    enumerate_t,
    eval_formula,
    formula_to_automaton,
    free_props,
    lift_member,
    mk_and,
    mk_neg,
    product,
    project_automaton,
    t_map,
)
from nablamu import laxcheck
from nablamu.coalgebra import CodeSweep
from nablamu.functors import _FnPairs
from nablamu.parsing import ParseError

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


def reference_lift_member(F: FunctorDescriptor, pairs, t1, t2) -> bool:
    """Whether ``(t1, t2)`` belongs to the lifting of a relation for functor
    ``F``: each lifting's closed form, one clause per functor kind (the
    library's membership test before it interpreted the quantifier
    unfolding the acceptance game plays).

    ``pairs`` is the relation: any container of pairs that answers
    ``(x, y) in pairs``, such as a frozenset or a lazy container.
    """
    kind = F.kind
    if kind == "powerset":
        return all(any((x, y) in pairs for y in t2) for x in t1) and all(
            any((x, y) in pairs for x in t1) for y in t2
        )
    if kind == "monotone":
        # Evaluated on generator antichains: every generator of t1 covers onto
        # some generator of t2, and every generator of t2 is reachable from
        # some generator of t1.
        return all(
            any(all(any((x, y) in pairs for x in G) for y in H) for H in t2) for G in t1
        ) and all(
            any(all(any((x, y) in pairs for y in H) for x in G) for G in t1) for H in t2
        )
    if kind == "identity":
        return (t1, t2) in pairs
    if kind == "const":
        return t1 == t2
    if kind == "product":
        return reference_lift_member(
            F.parts[0], pairs, t1[0], t2[0]
        ) and reference_lift_member(F.parts[1], pairs, t1[1], t2[1])
    if kind == "coproduct":
        if t1[0] != t2[0]:
            return False
        part = F.parts[0 if t1[0] == "inl" else 1]
        return reference_lift_member(part, pairs, t1[1], t2[1])
    outer, inner = F.parts
    return reference_lift_member(
        outer, _FnPairs(lambda u, v: reference_lift_member(inner, pairs, u, v)), t1, t2
    )


def per_mask_tables(F: FunctorDescriptor, bound: int, cap: int, member=lift_member):
    """``laxcheck._tables`` as first written: one ``member(F, pairs, t1,
    t2)`` call per relation mask and element pair, on the same carriers."""
    telems = laxcheck._carriers(F, bound, cap)
    rows = {}
    for m, k in itertools.product(telems, repeat=2):
        table = rows[(m, k)] = []
        for mask in range(1 << (m * k)):
            pairs = frozenset(laxcheck._pairs(mask, m, k))
            trows = []
            for t1 in telems[m]:
                bits = 0
                for jj, t2 in enumerate(telems[k]):
                    if member(F, pairs, t1, t2):
                        bits |= 1 << jj
                trows.append(bits)
            table.append(tuple(trows))
    return telems, rows


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
        if reference_lift_member(F, frozenset(c), t1, t2)
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


@lru_cache(maxsize=32)
def canonical_codes(F: FunctorDescriptor, props: tuple, n: int) -> tuple:
    """The ``n``-state models over ``F`` and ``props``, one per isomorphism
    class, as ``(sweep, codes)``: the :class:`~nablamu.coalgebra.CodeSweep`
    and its code tuples, in increasing order.

    A state's code is the rank of its successor structure by rendering,
    times the number of colorings, plus the rank of its coloring by sorted
    names, so code tuples compare exactly as the keys of
    :func:`canonical_models` do.  Each kept tuple is the least of its class.

    Read as mixed-radix integers, the code tuples are walked in increasing
    order with orbit marking (McKay, *Isomorph-free exhaustive generation*,
    J. Algorithms 1998): a combination not yet marked is the least of its
    class, as every smaller class has been marked already, so it is kept
    and its relabelings are marked, in a mark array of one byte per
    combination.  Marking applies the n! − 1 non-identity permutations to
    the kept code, so each runs once per kept class, not once per
    combination; where that could cost more than twice the combinations
    (few codes, many states, as for a constant functor), a transposition and
    an n-cycle are applied to each newly marked code until the class is
    closed instead.  Raises CapExceeded when there are more than
    ``DEFAULT_CAP`` combinations to walk (``CodeSweep``), which also
    bounds the mark array.  This is the one cache of the enumeration:
    models are built from it on demand.
    """
    props = tuple(sorted(props))
    sweep = CodeSweep(F, props, n)
    states, elems, radix = sweep.states, sweep.elems, sweep.radix
    width, places, decode = len(sweep.colorings), sweep.places, sweep.decode
    rank = {t: r for r, t in enumerate(elems)}
    # There are at most B(B+1)…(B+n−1)/n! classes for B = radix, as many as
    # multisets of codes (reached by a constant functor), so marking by
    # every permutation makes up to B(B+1)…(B+n−1) relabelings; closing
    # each class under two generators of the permutations makes 2·B^n.
    closed = math.prod(range(radix, radix + n)) > 2 * radix**n
    perms = itertools.islice(itertools.permutations(range(n)), 1, None)
    if closed:
        perms = ((1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,))
    # Per permutation π: the table c ↦ code of c relabeled by π, and the
    # weight of each state's relabeled code, that of its target position π(i).
    relabelings = []
    for perm in perms:
        pi = {states[i]: states[j] for i, j in enumerate(perm)}
        table = [rank[t_map(F, pi, t)] * width + c for t in elems for c in range(width)]
        relabelings.append((table.__getitem__, [places[j] for j in perm]))
    marked = bytearray(radix**n)
    out = []
    index = marked.find(0)
    while index >= 0:
        code = decode(index)
        out.append(code)
        marked[index] = 1
        stack = [code]
        while stack:
            code = stack.pop()
            for table, weights in relabelings:
                image = sum(map(mul, map(table, code), weights))
                if not marked[image]:
                    marked[image] = 1
                    if closed:
                        stack.append(decode(image))
        index = marked.find(0, index + 1)
    return sweep, tuple(out)


def canonical_models(F: FunctorDescriptor, props: tuple, n: int) -> tuple:
    """All ``n``-state models over ``F`` and ``props``, one per isomorphism class.

    States are named ``s0 … s{n−1}`` and each returned model is the least
    relabeling of its class, so repeated calls are deterministic.  Models
    are ordered by their key, the tuple of ``(render_telem(σ(s)),
    sorted(γ(s)))`` over the states in order.  They are built, without
    re-validation, from the cached code tuples of :func:`canonical_codes`,
    which also raises CapExceeded past the enumeration cap; equal calls
    return equal (not identical) models.
    """
    sweep, codes = canonical_codes(F, tuple(sorted(props)), n)
    return tuple(map(sweep.model, codes))


def canonical_pointed_models(F: FunctorDescriptor, props: tuple, max_states: int):
    """Every pointed model with at most ``max_states`` states, up to isomorphism."""
    out = []
    for n in range(1, max_states + 1):
        for M in canonical_models(F, tuple(sorted(props)), n):
            out.extend(PointedModel(M, s) for s in M.states)
    return out


def per_model_realizations(aut, bound):
    """The first model realization of each transition element, by one
    acceptance game per isomorphism class: the oracle for
    ``automata.bounded_realizations``, which reads every code tuple of a
    size on one bitset view instead.

    Sweeps the canonical models of at most ``bound`` states over the
    automaton's vocabulary once, in order, building each from its code only
    when the sweep reaches it, and maps each element φ to the
    first ``(M, τ, Z)`` found: ``τ ∈ T(M.states)`` whose lifting of the
    winning pairs W of the acceptance game on ``M`` reaches φ, and
    ``Z = W ∩ (base(τ) × base(φ))``, a frozenset of (model state, automaton
    state) pairs.  Elements no such model realizes map to ``None``.  The
    sweep stops as soon as every element is realized.
    """
    from nablamu.automata import _elements, winning_pairs

    F = aut.functor
    found = dict.fromkeys(_elements(aut))
    todo = list(found)
    for n in range(1, bound + 1):
        # every n-state canonical model has the states s0 … s{n−1}
        taus = enumerate_t(F, frozenset(f"s{i}" for i in range(n)))
        sweep, codes = canonical_codes(F, aut.props, n)
        for code in codes:
            if not todo:
                return found
            M = sweep.model(code)
            W = winning_pairs(aut, M)
            for phi in todo:
                tau = next((t for t in taus if lift_member(F, W, t, phi)), None)
                if tau is not None:
                    dom, cod = base(F, tau), base(F, phi)
                    Z = frozenset((t, b) for t, b in W if t in dom and b in cod)
                    found[phi] = (M, tau, Z)
            todo = [phi for phi in todo if found[phi] is None]
    return found


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


def brute_entails_bounded(a, b, max_states=3, functor=None):
    """Bounded entailment by one ``eval_formula`` call per model, one model
    per isomorphism class: the oracle for ``interpolation.entails_bounded``,
    which evaluates every code tuple of a size on one bitset view instead.
    Walks the canonical code tuples and builds each model only when it
    reaches it.  Returns ``(True, None)`` or the first countermodel by size,
    then model order, then state order."""
    from nablamu.interpolation import _functor_for

    F = _functor_for(mk_and(a, b), functor)
    props = tuple(sorted(set(free_props(a)) | set(free_props(b))))
    witness = mk_and(a, mk_neg(b))
    for n in range(1, max_states + 1):
        sweep, codes = canonical_codes(F, props, n)
        for code in codes:
            M = sweep.model(code)
            ext = eval_formula(M, witness)
            for s in M.states:
                if s in ext:
                    return False, PointedModel(M, s)
    return True, None


def iterated_interpolant(f, keep, bound=3, functor=None):
    """The uniform interpolant as first computed: translate, project one
    hidden proposition and translate back, once per proposition of the
    sorted hidden set, each step re-translating the previous step's
    formula."""
    from nablamu.interpolation import _functor_for

    F = _functor_for(f, functor)
    out = f
    for p in sorted(free_props(f) - frozenset(keep)):
        aut = formula_to_automaton(out, functor=F)
        out = automaton_to_formula(project_automaton(aut, p, bound))
    return out


def brute_greatest_bisimulation(M1, M2, Q=None):
    """The largest bisimulation between two models, by relation refinement:
    start from every pair whose colors agree on ``Q`` (default: every
    proposition of either model) and drop pairs whose successor structures
    the lifting of the current relation does not relate, until none drops."""
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
            if reference_lift_member(M1.functor, R, M1.sigma_of(s), M2.sigma_of(t))
        }
        if keep == R:
            return frozenset(R)
        R = keep


def round_refinement(M1, M2, Q=None):
    """``greatest_bisimulation(M1, M2, Q, with_steps=True)`` as first
    computed: every round re-signs every state of the disjoint union with
    ``(its block, T(block-of)(σ(s)))`` and renumbers the blocks, until a
    round leaves the number of blocks unchanged.  Returns ``(pairs, steps)``."""
    F = M1.functor
    Q = frozenset(M1.props) | frozenset(M2.props) if Q is None else frozenset(Q)
    n1 = len(M1.states)
    right = {t: n1 + j for j, t in enumerate(M2.states)}
    succ = [t_map(F, M1._index, x) for x in M1.sigma] + [
        t_map(F, right, x) for x in M2.sigma
    ]
    ids = {}
    block = [ids.setdefault(g & Q, len(ids)) for g in M1.gamma + M2.gamma]
    count, steps = len(ids), 0
    while True:
        ids = {}
        block_of = block.__getitem__
        refined = [
            ids.setdefault((b, t_map(F, block_of, x)), len(ids))
            for b, x in zip(block, succ)
        ]
        if len(ids) == count:
            break
        block, count = refined, len(ids)
        steps += 1
    left = {}
    for s, b in zip(M1.states, block):
        left.setdefault(b, []).append(s)
    pairs = frozenset(
        (s, t) for t, b in zip(M2.states, block[n1:]) for s in left.get(b, ())
    )
    return pairs, steps


def loop_bits(mask: int):
    """The indices of the set bits of ``mask``, lowest first, by clearing
    the lowest set bit one at a time (``logic._bits`` before it read the
    mask byte by byte)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def brute_eval_formula(M, f, env=None) -> frozenset:
    """Knaster–Tarski evaluation that re-checks every state at every ∇ node
    on every iteration (the evaluator before it became incremental)."""
    from nablamu import Atom, Nabla, Neg, Or, free_props

    states = frozenset(M.states)
    memo: dict = {}
    env = {k: frozenset(v) for k, v in (env or {}).items()}

    def ev(g, env: dict) -> frozenset:
        key = (
            g,
            tuple(sorted((v, env[v]) for v in free_props(g) if v in env)),
        )
        got = memo.get(key)
        if got is not None:
            return got
        if isinstance(g, Atom):
            out = env.get(
                g.name,
                frozenset(s for s in M.states if g.name in M.gamma_of(s)),
            )
        elif isinstance(g, Neg):
            out = states - ev(g.sub, env)
        elif isinstance(g, Or):
            out = frozenset()
            for p in g.parts:
                out |= ev(p, env)
        elif isinstance(g, Nabla):
            if g.functor != M.functor:
                raise ValueError("modality functor differs from the model functor")
            sat = frozenset(
                (s, b)
                for b in base(g.functor, g.payload)
                for s in ev(b, env)
            )
            out = frozenset(
                s
                for s in M.states
                if reference_lift_member(g.functor, sat, M.sigma_of(s), g.payload)
            )
        else:
            cur = frozenset()
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
                assert v in strat, f"no strategy at won position {v}"
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


def brute_build_arena(aut, M, pairs=None):
    """The acceptance game as first defined: at ('elem', τ, φ) the existential
    player picks a ⊆-minimal witness relation Z, at ('rel', Z) the universal
    player picks a pair of Z, which leads to its ('state', t, b) position."""
    from nablamu.games import Arena

    if pairs is None:
        pairs = [(s, a) for s in M.states for a in aut.states]
    index, positions, owner, priority, moves = {}, [], [], [], []

    def intern(pos):
        i = index.get(pos)
        if i is None:
            i = index[pos] = len(positions)
            positions.append(pos)
            owner.append("A" if pos[0] == "rel" else "E")
            priority.append(aut.omega_of(pos[2]) if pos[0] == "state" else 0)
            moves.append(None)
            todo.append(pos)
        return i

    todo = []
    for s, a in pairs:
        intern(("state", s, a))
    k = 0
    while k < len(todo):
        pos = todo[k]
        k += 1
        if pos[0] == "state":
            _, s, a = pos
            c = aut.color_of(M.gamma_of(s))
            succ = [intern(("elem", M.sigma_of(s), phi)) for phi in aut.delta_of(a, c)]
        elif pos[0] == "elem":
            _, tau, phi = pos
            witnesses = brute_minimal_witnesses(aut.functor, tau, phi)
            succ = [intern(("rel", Z)) for Z in sorted(witnesses, key=canon_key)]
        else:
            succ = [intern(("state", t, b)) for t, b in sorted(pos[1], key=canon_key)]
        moves[index[pos]] = tuple(succ)
    return Arena(tuple(positions), tuple(owner), tuple(priority), tuple(moves))


def brute_winning_pairs(aut, M):
    """The pairs the existential player wins in :func:`brute_build_arena`."""
    from nablamu.games import solve_parity

    arena = brute_build_arena(aut, M)
    sol = solve_parity(arena)
    return frozenset(
        (pos[1], pos[2])
        for i, pos in enumerate(arena.positions)
        if pos[0] == "state" and i in sol.win_e
    )


def reference_solve_parity(arena):
    """Zielonka's algorithm as first written, whose attractors count every
    position's in-subgame moves up front; the library solver must return the
    same regions and strategies."""
    from nablamu.games import ParitySolution

    n = len(arena.positions)
    # totalize: position n is a sink winning for A (odd self-loop, reached by
    # stuck E positions), position n+1 a sink winning for E.
    owner = list(arena.owner) + ["E", "A"]
    priority = list(arena.priority) + [1, 0]
    moves = [tuple(m) for m in arena.moves] + [(n,), (n + 1,)]
    for v in range(n):
        if not moves[v]:
            moves[v] = (n,) if owner[v] == "E" else ((n + 1),)
    preds = [[] for _ in range(n + 2)]
    for v in range(n + 2):
        for w in moves[v]:
            preds[w].append(v)

    def attractor(target, player, sub):
        """Positions in ``sub`` from which ``player`` forces a visit to target."""
        attr = set(target)
        strat = {}
        cnt = {v: sum(1 for w in moves[v] if w in sub) for v in sub}
        queue = deque(target)
        while queue:
            w = queue.popleft()
            for v in preds[w]:
                if v not in sub or v in attr:
                    continue
                if owner[v] == player:
                    attr.add(v)
                    strat[v] = w
                    queue.append(v)
                else:
                    cnt[v] -= 1
                    if cnt[v] == 0:
                        attr.add(v)
                        queue.append(v)
        return frozenset(attr), strat

    def zielonka(sub: frozenset):
        """Returns (win_e, win_a, strat_e, strat_a) for the total subgame."""
        if not sub:
            return frozenset(), frozenset(), {}, {}
        d = max(priority[v] for v in sub)
        player = "E" if d % 2 == 0 else "A"
        Z = frozenset(v for v in sub if priority[v] == d)
        A, strat_attr = attractor(Z, player, sub)
        we, wa, se, sa = zielonka(sub - A)
        win_mine, win_other = (we, wa) if player == "E" else (wa, we)
        st_mine = se if player == "E" else sa
        st_other = sa if player == "E" else se
        if not win_other:
            # the favored player wins the whole subgame: recurse-region
            # strategy inside sub∖A, attractor strategy on A∖Z, and any
            # in-subgame move on the top-priority positions themselves.
            st = dict(st_mine)
            st.update(strat_attr)
            for v in Z:
                if owner[v] == player:
                    st[v] = next(w for w in moves[v] if w in sub)
            if player == "E":
                return frozenset(sub), frozenset(), st, {}
            return frozenset(), frozenset(sub), {}, st
        other = "A" if player == "E" else "E"
        B, strat_b = attractor(win_other, other, sub)
        we2, wa2, se2, sa2 = zielonka(sub - B)
        st_o = dict(st_other)
        st_o.update(strat_b)
        if player == "E":
            st_o.update(sa2)
            return we2, frozenset(wa2 | B), se2, st_o
        st_o.update(se2)
        return frozenset(we2 | B), wa2, st_o, sa2

    # recursion depth is bounded by the number of positions; the caller's
    # limit comes back however the solver exits
    limit = sys.getrecursionlimit()
    try:
        if limit < 2 * n + 200:
            sys.setrecursionlimit(2 * n + 200)
        we, wa, se, sa = zielonka(frozenset(range(n + 2)))
    finally:
        sys.setrecursionlimit(limit)
    real = set(range(n))
    return ParitySolution(
        frozenset(we & real),
        frozenset(wa & real),
        {v: w for v, w in se.items() if v < n and w < n},
        {v: w for v, w in sa.items() if v < n and w < n},
    )


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


def brute_merge_pair(x, y):
    """The powerset conjunction of two one-step obligations, by enumerating
    every relation on the grid of their leaves whose projections are full
    (the enumeration before the generic distributive law)."""
    from nablamu.translation import TRUE, NNabla, nand

    if x == TRUE:
        return (y,)
    if y == TRUE:
        return (x,)
    alpha = sorted(x.payload, key=canon_key)
    beta = sorted(y.payload, key=canon_key)
    grid = list(itertools.product(range(len(alpha)), range(len(beta))))
    out = set()
    for bits in itertools.product((False, True), repeat=len(grid)):
        Z = [ab for ab, keep in zip(grid, bits) if keep]
        if {a for a, _ in Z} != set(range(len(alpha))):
            continue
        if {b for _, b in Z} != set(range(len(beta))):
            continue
        out.add(NNabla(frozenset(nand((alpha[a], beta[b])) for a, b in Z)))
    return tuple(sorted(out, key=canon_key))


def per_combination_fold(F, pools):
    """A conjunction's disjuncts from its conjuncts' ``pools`` of
    ``(obligation, priority)`` pairs: every combination of one pair per pool
    is merged from TRUE on, with the combination's maximal priority (the
    decomposition before the conjuncts were folded one pool at a time)."""
    from nablamu.translation import TRUE, _merge_pair

    res = set()
    for combo in itertools.product(*pools):
        cands = (TRUE,)
        for psi, _ in combo:
            cands = tuple(m for cand in cands for m in _merge_pair(F, cand, psi))
        r = max((r for _, r in combo), default=0)
        res.update((cand, r) for cand in cands)
    return frozenset(res)


# --------------------------------------------------------------------------
# The character-level reader that ``nablamu.parsing.Cursor`` replaced, kept
# unchanged as the oracle for the token stream: same results, same errors.

_IDENT_START = set(string.ascii_letters)
_IDENT_CHARS = set(string.ascii_letters + string.digits + "_")


class CharCursor:
    """A position in a text, with helpers to consume tokens."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise ParseError(message, self.text, self.pos)

    def skip_ws(self):
        text, n = self.text, len(self.text)
        while self.pos < n and text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def expect_end(self):
        if not self.at_end():
            self.error("unexpected trailing input")

    def peek(self, literal: str) -> bool:
        """True if the next non-whitespace input starts with `literal`."""
        self.skip_ws()
        return self.text.startswith(literal, self.pos)

    def take(self, literal: str) -> bool:
        """Consume `literal` (a symbol, not a word) if it is next."""
        if self.peek(literal):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str):
        if not self.take(literal):
            self.error(f"expected {literal!r}")

    def peek_ident(self) -> str | None:
        self.skip_ws()
        text, i = self.text, self.pos
        if i >= len(text) or text[i] not in _IDENT_START:
            return None
        j = i + 1
        while j < len(text) and text[j] in _IDENT_CHARS:
            j += 1
        return text[i:j]

    def ident(self, what: str = "identifier") -> str:
        word = self.peek_ident()
        if word is None:
            self.error(f"expected {what}")
        self.pos += len(word)
        return word

    def take_word(self, word: str) -> bool:
        """Consume `word` only if it is a whole identifier token."""
        if self.peek_ident() == word:
            self.pos += len(word)
            return True
        return False

    def expect_word(self, word: str):
        if not self.take_word(word):
            self.error(f"expected {word!r}")

    def items(self, open: str, close: str, item) -> list:
        """Consume ``open``, comma-separated ``item(self)`` results, ``close``."""
        self.expect(open)
        out = []
        if not self.take(close):
            while True:
                out.append(item(self))
                if self.take(close):
                    break
                self.expect(",")
        return out

    def ident_set(self) -> frozenset:
        """Consume a braced, comma-separated set of identifiers."""
        return frozenset(self.items("{", "}", lambda c: c.ident("name")))

    def int_lit(self) -> int:
        self.skip_ws()
        text, i = self.text, self.pos
        j = i
        while j < len(text) and text[j].isdigit():
            j += 1
        if j == i:
            self.error("expected a number")
        self.pos = j
        return int(text[i:j])
