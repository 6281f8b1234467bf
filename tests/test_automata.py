"""Automata: acceptance games, true states, satisfiability, text format."""

import random
from pathlib import Path

import pytest

from helpers import (
    SHAPES,
    Arena,
    ParitySolution,
    acceptance_game,
    brute_winning_pairs,
    build_arena,
    nonemptiness_game,
    per_model_realizations,
    random_automaton,
    validate_parity_solution,
)

from nablamu import (
    MONOTONE,
    POWERSET,
    CapExceeded,
    ColoredModel,
    ParseError,
    PointedModel,
    base,
    compose,
    enumerate_t,
    eval_formula,
    greatest_bisimulation,
    lift_member,
    parse_formula,
    product,
    random_model,
    random_telem,
)
from nablamu import automata, logic
from nablamu.translation import formula_to_automaton
from nablamu.automata import (
    Automaton,
    accepts,
    add_true_state,
    bounded_realizations,
    find_true_state,
    normalize,
    parse_automaton,
    prune_unsatisfiable,
    render_automaton,
    winning_pairs,
    witness_coalgebra,
)

P = frozenset(("p",))
NOP = frozenset()


def kripke(sigma, gamma, props=("p",)):
    return ColoredModel.make(
        POWERSET,
        {s: frozenset(v) for s, v in sigma.items()},
        {s: frozenset(v) for s, v in gamma.items()},
        props=props,
    )


def game_winners(aut, M, pairs=None):
    """The pairs E wins in the solved arena of ``acceptance_game``."""
    arena, sol = acceptance_game(aut, M, pairs)
    return frozenset(
        (pos[1], pos[2])
        for i, pos in enumerate(arena.positions)
        if pos[0] == "state" and i in sol.win_e
    )


LOOP = kripke({"s": {"s"}}, {"s": set()})
LOOP_P = kripke({"s": {"s"}}, {"s": {"p"}})
DEAD = kripke({"s": set()}, {"s": set()})


def full_cells(states_pool, colors=(NOP, P)):
    elems = enumerate_t(POWERSET, frozenset(states_pool))
    return {c: elems for c in colors}


A_TRUE = Automaton.make(
    POWERSET,
    ("p",),
    ("t",),
    "t",
    {"t": 0},
    {("t", c): es for c, es in full_cells(("t",)).items()},
)

# accepts exactly the pointed models whose point satisfies p
A_P = Automaton.make(
    POWERSET,
    ("p",),
    ("a0", "tt"),
    "a0",
    {"a0": 0, "tt": 0},
    dict(
        [(("a0", P), enumerate_t(POWERSET, frozenset(("tt",))))]
        + [(("tt", c), es) for c, es in full_cells(("tt",)).items()]
    ),
)

ODD_LOOP = Automaton.make(
    POWERSET,
    ("p",),
    ("a",),
    "a",
    {"a": 1},
    {("a", c): (frozenset(("a",)),) for c in (NOP, P)},
)

EVEN_LOOP = Automaton.make(
    POWERSET,
    ("p",),
    ("a",),
    "a",
    {"a": 0},
    {("a", c): (frozenset(("a",)),) for c in (NOP, P)},
)

A_EMPTYSUCC = Automaton.make(
    POWERSET,
    ("p",),
    ("a",),
    "a",
    {"a": 1},
    {("a", c): (frozenset(),) for c in (NOP, P)},
)


# --------------------------------------------------------------------------
# Construction and validation


def test_automaton_validation():
    mk = lambda **kw: Automaton(
        **{
            "functor": POWERSET,
            "props": ("p",),
            "states": ("a", "b"),
            "initial": "a",
            "omega": (0, 1),
            "delta": (),
            **kw,
        }
    )
    mk()  # baseline is fine
    with pytest.raises(ValueError, match="duplicate automaton states"):
        mk(states=("a", "a"))
    with pytest.raises(ValueError, match="initial"):
        mk(initial="c")
    with pytest.raises(ValueError, match="omega"):
        mk(omega=(0,))
    with pytest.raises(ValueError, match="nonnegative"):
        mk(omega=(0, -1))
    with pytest.raises(ValueError, match="sorted"):
        mk(props=("q", "p"))
    with pytest.raises(ValueError, match="unknown state"):
        mk(delta=((("c", NOP), (frozenset(),)),))
    with pytest.raises(ValueError, match="color"):
        mk(delta=((("a", frozenset(("q",))), (frozenset(),)),))
    with pytest.raises(ValueError, match="duplicate cell"):
        mk(
            delta=(
                (("a", NOP), (frozenset(),)),
                (("a", NOP), (frozenset(("a",)),)),
            )
        )
    with pytest.raises(ValueError, match="leaves the state set"):
        mk(delta=((("a", NOP), (frozenset(("z",)),)),))


def test_make_canonicalizes_cells():
    aut = Automaton.make(
        POWERSET,
        ("p",),
        ("b", "a"),
        "a",
        {"a": 0, "b": 1},
        {
            ("b", P): [frozenset(("a",)), frozenset(), frozenset(("a",))],
            ("a", NOP): [],
            ("a", P): [frozenset(("b",))],
        },
    )
    # empty cell dropped, elements deduplicated and sorted, cells sorted
    assert aut.delta == (
        (("a", P), (frozenset(("b",)),)),
        (("b", P), (frozenset(), frozenset(("a",)))),
    )
    assert aut.delta_of("a", NOP) == ()
    assert aut.omega_of("b") == 1


# --------------------------------------------------------------------------
# Acceptance on hand-built automata


def test_true_automaton_accepts_everything():
    rng = random.Random(1)
    for _ in range(8):
        M = random_model(POWERSET, ("p",), rng.randint(1, 3), rng)
        for s in M.states:
            assert accepts(A_TRUE, PointedModel(M, s))


def test_atom_automaton_checks_the_color():
    rng = random.Random(2)
    for _ in range(10):
        M = random_model(POWERSET, ("p",), rng.randint(1, 3), rng)
        for s in M.states:
            assert accepts(A_P, PointedModel(M, s)) == ("p" in M.gamma_of(s))


def test_loop_parity_decides():
    assert not accepts(ODD_LOOP, PointedModel(LOOP, "s"))
    assert accepts(EVEN_LOOP, PointedModel(LOOP, "s"))
    # no witness for a nonempty element against an empty successor set
    assert not accepts(ODD_LOOP, PointedModel(DEAD, "s"))
    assert not accepts(EVEN_LOOP, PointedModel(DEAD, "s"))


def test_empty_element_accepts_deadlock_only():
    # the empty relation witnesses (∅, ∅), leaving the universal player stuck
    assert accepts(A_EMPTYSUCC, PointedModel(DEAD, "s"))
    assert not accepts(A_EMPTYSUCC, PointedModel(LOOP, "s"))


def test_arena_shape_on_atom_automaton():
    arena, sol = acceptance_game(A_P, LOOP_P)
    pos = set(arena.positions)
    start = ("state", "s", "a0")
    assert start in pos
    i = arena.index(start)
    assert arena.owner[i] == "E" and arena.priority[i] == 0
    # the only cell at color {p} offers the two elements over {tt}
    succs = {arena.positions[j] for j in arena.moves[i]}
    assert succs == {
        ("elem", frozenset(("s",)), frozenset()),
        ("elem", frozenset(("s",)), frozenset(("tt",))),
    }
    # the matching element: A picks the successor s (forward) or the target
    # tt (backward), and E answers with its only partner, back around
    j = arena.index(("elem", frozenset(("s",)), frozenset(("tt",))))
    assert arena.owner[j] == "A"
    fwd = arena.index(("fwd", (), "s", frozenset(("tt",))))
    bwd = arena.index(("bwd", (), frozenset(("s",)), "tt"))
    assert set(arena.moves[j]) == {fwd, bwd}
    back = arena.index(("state", "s", "tt"))
    for k in (fwd, bwd):
        assert arena.owner[k] == "E" and arena.moves[k] == (back,)
    # the mismatched element is won by A: E has no answer to the successor s
    j2 = arena.index(("elem", frozenset(("s",)), frozenset()))
    assert j2 in sol.win_a
    (k2,) = arena.moves[j2]
    assert arena.owner[k2] == "E" and arena.moves[k2] == ()


def test_unfolded_arena_matches_witness_arena():
    # the oracle lets E pick a minimal witness relation and A a pair of it;
    # the unfolded arena and the parity fixpoint must both agree with it
    rng = random.Random(6)
    for name, F in SHAPES.items():
        for _ in range(25):
            props = ("p",) if rng.random() < 0.5 else ("p", "q")
            aut = random_automaton(F, props, rng)
            M = random_model(F, props, rng.randint(1, 3), rng)
            want = brute_winning_pairs(aut, M)
            assert game_winners(aut, M) == want, name
            assert winning_pairs(aut, M) == want, name
    # the benchmark's model-checking automata on a 150-state lasso: a path
    # with forward chords, rare back edges and dead ends at s49 and s99 runs
    # into a 30-state loop; p on every 7th path state, q off every 3rd state
    n, loop = 150, 120
    shape = random.Random(n)
    sigma, gamma = {}, {}
    for i in range(n):
        succ = {i + 1, i + shape.randint(2, 6)}
        if shape.random() < 0.1:
            succ.add(max(0, i - shape.randint(1, 8)))
        if i >= loop:
            succ = {loop + (j - loop) % (n - loop) for j in succ}
        elif i % 50 == 49:
            succ = set()
        sigma[f"s{i}"] = frozenset(f"s{min(j, n - 1)}" for j in succ)
        gamma[f"s{i}"] = frozenset(
            (("p",) if i % 7 == 0 and i < loop else ()) + (("q",) if i % 3 else ())
        )
    lasso = ColoredModel.make(POWERSET, sigma, gamma, props=("p", "q"))
    data = Path(__file__).resolve().parent.parent / "perfbench" / "data"
    for name in ("inf_p_path", "fin_p_path", "nu_mu_nu", "mu_nu_mu"):
        aut = parse_automaton((data / f"{name}.aut").read_text())
        W = brute_winning_pairs(aut, lasso)
        assert game_winners(aut, lasso) == W, name
        assert winning_pairs(aut, lasso) == W, name
        accepted = [s for s in lasso.states if (s, aut.initial) in W]
        assert 0 < len(accepted) < n, name


def test_wide_branching_stays_polynomial():
    # one root over 16 one-loop successors: the initial state's one element
    # has two states, so 2^16 - 2 minimal witness relations, while the
    # unfolded arena grows linearly
    f = parse_formula(r"nabla {mu x. (p \/ nabla {x}), q}", POWERSET)
    aut = formula_to_automaton(f)
    kids = [f"t{i}" for i in range(1, 17)]
    for last in (("q",), ()):
        sigma = {"r": frozenset(kids)}
        gamma = {"r": frozenset()}
        for i, t in enumerate(kids, 1):
            sigma[t] = frozenset((t,))
            gamma[t] = frozenset(("p",) if i % 2 else ("q",))
        gamma[kids[-1]] = frozenset(last)
        M = ColoredModel.make(POWERSET, sigma, gamma, props=("p", "q"))
        want = "r" in eval_formula(M, f)
        assert want == bool(last)
        assert accepts(aut, PointedModel(M, "r")) == want
        start = ("r", aut.initial)
        arena = build_arena(aut, M, [start])
        assert len(arena.positions) <= 8 * len(M.states) * len(aut.states)
        assert (start in game_winners(aut, M, [start])) == want


def test_winning_pairs_matches_accepts():
    rng = random.Random(3)
    for F in (POWERSET, MONOTONE):
        for _ in range(4):
            aut = random_automaton(F, ("p",), rng)
            M = random_model(F, ("p",), rng.randint(1, 3), rng)
            W = winning_pairs(aut, M)
            assert W == game_winners(aut, M)
            for s in M.states:
                assert ((s, aut.initial) in W) == accepts(
                    aut, PointedModel(M, s)
                )


def test_acceptance_is_bisimulation_invariant():
    rng = random.Random(4)
    for F in (POWERSET, MONOTONE):
        done = 0
        while done < 6:
            M1 = random_model(F, ("p",), rng.randint(1, 3), rng)
            M2 = random_model(F, ("p",), rng.randint(1, 3), rng)
            B = greatest_bisimulation(M1, M2)
            if not B:
                continue
            done += 1
            aut = random_automaton(F, ("p",), rng)
            W1 = winning_pairs(aut, M1)
            W2 = winning_pairs(aut, M2)
            assert W1 == game_winners(aut, M1) and W2 == game_winners(aut, M2)
            for s, t in B:
                for a in aut.states:
                    assert ((s, a) in W1) == ((t, a) in W2)


def test_built_arenas_pass_validation():
    # build_arena and nonemptiness_game skip Arena's checks: each arena
    # they return must equal its validated copy
    rng = random.Random(25)
    for F in SHAPES.values():
        for _ in range(8):
            aut = random_automaton(F, ("p",), rng)
            M = random_model(F, ("p",), rng.randint(1, 3), rng)
            point = [(M.states[0], aut.initial)]
            for arena in (
                build_arena(aut, M),
                build_arena(aut, M, point),
                nonemptiness_game(aut)[0],
            ):
                copy = Arena(arena.positions, arena.owner, arena.priority, arena.moves)
                assert arena == copy and arena._index == copy._index


# --------------------------------------------------------------------------
# Acceptance by the parity fixpoint, against the acceptance game

FIXPOINT_SHAPES = dict(
    SHAPES,
    **{
        "product(monotone,powerset)": product(MONOTONE, POWERSET),
        "comp(monotone,powerset)": compose(MONOTONE, POWERSET),
    },
)


def sparse_model(F, props, n, rng):
    """A random model of n states whose successor structures each lie over
    one or two states: over several functors the successor structures of
    :func:`random_model` on 5–12 states are so wide that a random automaton
    wins no pair."""
    states = tuple(f"s{i}" for i in range(n))
    return ColoredModel(
        F,
        props,
        states,
        tuple(random_telem(F, rng.sample(states, rng.randint(1, 2)), rng) for _ in states),
        tuple(frozenset(p for p in props if rng.random() < 0.5) for _ in states),
    )


@pytest.mark.parametrize("name", list(FIXPOINT_SHAPES))
def test_parity_fixpoint_matches_the_acceptance_game(name):
    F = FIXPOINT_SHAPES[name]
    largest = 6 if "monotone" in name or "comp" in name else 12
    rng = random.Random(32)
    won = lost = 0
    for k in range(24):
        props = ("p",) if rng.random() < 0.5 else ("p", "q")
        aut = random_automaton(F, props, rng, max_states=6, max_priority=6, max_base=3)
        model = random_model if k % 4 == 0 else sparse_model
        M = model(F, props, rng.randint(5, largest), rng)
        W = winning_pairs(aut, M)
        assert W == game_winners(aut, M), name
        won += len(W)
        lost += len(M.states) * len(aut.states) - len(W)
        for s in M.states:
            start = (s, aut.initial)
            assert accepts(aut, PointedModel(M, s)) == (start in game_winners(aut, M, [start]))
    assert won and lost, name


TUPLE_VIEW_SHAPES = dict(SHAPES, **{"product(monotone,powerset)": product(MONOTONE, POWERSET)})


@pytest.mark.parametrize(
    "name, tuples_per_view",
    [(name, logic._SLICE) for name in TUPLE_VIEW_SHAPES] + [("monotone", 7)],
)
def test_parity_fixpoint_on_tuple_views_matches_each_model(name, tuples_per_view, monkeypatch):
    # every bit of every column the fixpoint solves on the sweep's views, at
    # 1 and 2 states (comp: 1), against winning_pairs on that tuple's model;
    # slices of 7 tuples start views mid-digit, so bit k is tuple start + k
    monkeypatch.setattr(logic, "_SLICE", tuples_per_view)
    F = TUPLE_VIEW_SHAPES[name]
    largest = 1 if name == "comp" else 2
    rng = random.Random(33)
    won = lost = 0
    for _ in range(4):
        props = ("p",) if rng.random() < 0.5 else ("p", "q")
        aut = random_automaton(F, props, rng, max_priority=4)
        for n in range(1, largest + 1):
            for view in logic._tuple_views(F, aut.props, n):
                cols = automata._winning_columns(aut, view, aut.states)
                assert set(cols) == set(aut.states)
                for k in range(view.count):
                    M = view.sweep.model(view.sweep.decode(view.start + k))
                    W = winning_pairs(aut, M)
                    for a, col in cols.items():
                        for i, s in enumerate(M.states):
                            bit = col >> i * view.count + k & 1
                            assert bit == ((s, a) in W), (name, view.start + k, s, a)
                            won += bit
                            lost += 1 - bit
    assert won and lost, name


def ring(n, seed):
    """A ring over props p, q with short forward chords, rare back edges and
    rare dead ends; p on about one state in 12, q on four in five."""
    rng = random.Random(seed)
    sigma, gamma = {}, {}
    for i in range(n):
        succ = {(i + 1) % n}
        if rng.random() < 0.6:
            succ.add((i + rng.randint(2, 6)) % n)
        if rng.random() < 0.1:
            succ.add((i - rng.randint(1, 8)) % n)
        if rng.random() < 0.05:
            succ = set()
        sigma[f"s{i}"] = frozenset(f"s{j}" for j in succ)
        gamma[f"s{i}"] = frozenset(
            x for x, share in (("p", 0.08), ("q", 0.8)) if rng.random() < share
        )
    return ColoredModel.make(POWERSET, sigma, gamma, props=("p", "q"))


# The benchmark's model-checking formulas that translate, with the two that
# nest three alternating fixpoints; `nu x. (mu y. (p \/ nabla {y, true}) /\
# nabla {x, true})` is left out, since its conjunction couples two fixpoints
# and the translation refuses it.
MODELCHECK_FORMULAS = [
    r"nu x. mu y. ((p /\ nabla {x, true}) \/ nabla {y, true})",
    r"mu x. nu y. ((p /\ nabla {x, true}) \/ (~p /\ nabla {y, true}))",
    r"nu x. mu y. \/{((p /\ q) /\ nabla {x, true}), (q /\ nabla {y, true})}",
    r"nu x. mu y. nu z. \/{(p /\ nabla {x, true}), (q /\ nabla {y, true}), nabla {z, true}}",
    r"mu x. nu y. mu z. \/{(p /\ nabla {x, true}), (q /\ nabla {y, true}), nabla {z, true}}",
]


def test_parity_fixpoint_decides_the_model_checking_formulas():
    models = [ring(n, n) for n in (50, 120, 200)]
    accepted = rejected = 0
    for text in MODELCHECK_FORMULAS:
        f = parse_formula(text, POWERSET)
        aut = formula_to_automaton(f)
        for M in models:
            ext = eval_formula(M, f)
            W = winning_pairs(aut, M)
            assert {s for s, a in W if a == aut.initial} == ext, text
            for s in M.states[::10]:
                assert accepts(aut, PointedModel(M, s)) == (s in ext), (text, s)
            accepted += len(ext)
            rejected += len(M.states) - len(ext)
    assert accepted and rejected


def test_parity_fixpoint_over_eight_priorities():
    # a_k has priority k; a0 accepts everything, and every other cell holds
    # one element, ◇b as {b, a0} or □b as {b}: E picks a path of the ring,
    # along which the colors choose the automaton states
    rng = random.Random(9)
    states = [f"a{k}" for k in range(8)]
    delta = {}
    for c in (NOP, P, frozenset(("q",)), frozenset(("p", "q"))):
        delta[("a0", c)] = [frozenset(("a0",)), frozenset()]
        for a in states[1:]:
            b = rng.choice(states[1:])
            delta[(a, c)] = [frozenset((b,)) if rng.random() < 0.3 else frozenset((b, "a0"))]
    omega = {a: k for k, a in enumerate(states)}
    aut = Automaton.make(POWERSET, ("p", "q"), states, "a1", omega, delta)
    seen = set()
    for n in (20, 50):
        M = ring(n, 100 + n)
        W = winning_pairs(aut, M)
        assert W == game_winners(aut, M)
        assert len(W) < n * len(states)
        seen |= {a for _, a in W}
        for s in M.states[::5]:
            start = (s, aut.initial)
            assert accepts(aut, PointedModel(M, s)) == (start in game_winners(aut, M, [start]))
    assert seen == set(states)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_recorded_choices_are_a_winning_strategy(name):
    # the records of the parity fixpoint cover exactly the won pairs; at
    # (s, a) the recorded φ is in a's cell for s's color, and the pairs Z its
    # argument columns hold on σ(s) lift (σ(s), φ); the graph (s, a) → Z,
    # with the universal player picking from Z, stays among the recorded
    # pairs and closes no cycle whose highest priority is odd
    F = SHAPES[name]
    rng = random.Random(36)
    won = lost = 0
    for _ in range(100):
        props = ("p",) if rng.random() < 0.5 else ("p", "q")
        aut = random_automaton(F, props, rng, max_states=6, max_priority=7, max_base=3)
        M = random_model(F, props, rng.randint(1, 4), rng)
        choices = {}
        cols = automata._winning_columns(aut, logic._BitView(M, aut.props), aut.states, choices)
        pairs = {(i, a) for a, col in cols.items() for i in logic._bits(col)}
        assert set(choices) == pairs, name
        moves = []
        for (i, a), (phi, args) in choices.items():
            s = M.states[i]
            assert phi in aut.delta_of(a, aut.color_of(M.gamma_of(s))), name
            tau = M.sigma_of(s)
            Z = {(t, b) for t in base(F, tau) for b, col in args.items() if col >> M._index[t] & 1}
            assert lift_member(F, Z, tau, phi), name
            succ = {(M._index[t], b) for t, b in Z}
            assert succ <= pairs, name
            moves.append(succ)
        index = {pair: k for k, pair in enumerate(choices)}
        arena = Arena(
            tuple(choices),
            ("A",) * len(choices),
            tuple(aut.omega_of(a) for _, a in choices),
            tuple(tuple(index[v] for v in succ) for succ in moves),
        )
        everything = frozenset(index.values())
        validate_parity_solution(arena, ParitySolution(everything, frozenset(), {}, {}))
        won += len(pairs)
        lost += len(M.states) * len(aut.states) - len(pairs)
    assert won and lost, name


def test_parity_fixpoint_leaves_the_formula_table_alone():
    # the solver's ∇ nodes are not interned, so solving grows no global table
    rng = random.Random(9)
    fresh = random_automaton(POWERSET, ("p", "q"), rng, max_states=4, max_priority=4)
    ren = {a: f"intern_check_{a}" for a in fresh.states}
    aut = Automaton.make(
        POWERSET,
        fresh.props,
        [ren[a] for a in fresh.states],
        ren[fresh.initial],
        {ren[a]: k for a, k in zip(fresh.states, fresh.omega)},
        {
            (ren[a], c): [frozenset(ren[b] for b in phi) for phi in elems]
            for (a, c), elems in fresh.delta
        },
    )
    M = random_model(POWERSET, ("p", "q"), 8, rng)
    before = len(logic._intern)
    winning_pairs(aut, M)
    accepts(aut, PointedModel(M, M.states[0]))
    assert len(logic._intern) == before


def test_acceptance_refuses_a_model_over_another_functor():
    M = random_model(MONOTONE, ("p",), 2, random.Random(1))
    message = "automaton and model live over different functors"
    with pytest.raises(ValueError, match=message):
        build_arena(A_P, M)
    with pytest.raises(ValueError, match=message):
        winning_pairs(A_P, M)
    with pytest.raises(ValueError, match=message):
        accepts(A_P, PointedModel(M, M.states[0]))


# --------------------------------------------------------------------------
# True states


def test_add_true_state_kripke_cells():
    aut = Automaton.make(POWERSET, ("p",), ("a0",), "a0", {"a0": 1}, {})
    out, tt = add_true_state(aut)
    assert tt == "att"
    assert out.initial == "a0"
    assert out.omega_of(tt) == 0
    for c in (NOP, P):
        assert set(out.delta_of(tt, c)) == {frozenset(), frozenset((tt,))}
    assert find_true_state(out) == tt
    assert find_true_state(aut) is None
    # the new state accepts every pointed model
    for M in (LOOP, LOOP_P, DEAD):
        assert all((s, tt) in winning_pairs(out, M) for s in M.states)


def test_add_true_state_avoids_name_clash():
    aut = Automaton.make(POWERSET, (), ("att",), "att", {"att": 1}, {})
    out, tt = add_true_state(aut)
    assert tt == "att_1" and "att" in out.states


def test_find_true_state_rejects_odd_or_partial():
    odd, _ = add_true_state(ODD_LOOP)
    assert find_true_state(odd) == "att"
    # an even state lacking one element is not universally accepting
    partial = Automaton.make(
        POWERSET,
        ("p",),
        ("t",),
        "t",
        {"t": 0},
        {("t", c): (frozenset(("t",)),) for c in (NOP, P)},
    )
    assert find_true_state(partial) is None


# --------------------------------------------------------------------------
# Satisfiability and normalization


def test_element_satisfiable_finds_witness():
    got = bounded_realizations(A_P, 2)[frozenset(("tt",))]
    assert got is not None
    M, tau, Z = got
    assert lift_member(POWERSET, Z, tau, frozenset(("tt",)))
    assert Z <= winning_pairs(A_P, M)


def test_element_unsatisfiable_when_state_rejects_everything():
    assert bounded_realizations(ODD_LOOP, 3)[frozenset(("a",))] is None


def test_prune_drops_rejecting_cells():
    pruned = prune_unsatisfiable(ODD_LOOP, bound=2)
    assert pruned.delta == ()
    # a totally satisfiable automaton is untouched
    assert prune_unsatisfiable(A_P, bound=2).delta == A_P.delta


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_prune_keeps_exactly_the_elements_realizations_realize(name):
    # one decision: pruning keeps φ iff _realizations gives φ a τ
    rng = random.Random(29)
    for _ in range(20):
        aut = random_automaton(SHAPES[name], ("p",), rng)
        _, tau_of, _ = automata._realizations(aut, 2)
        kept = [(c, tuple(phi for phi in es if tau_of[phi] is not None)) for c, es in aut.delta]
        assert prune_unsatisfiable(aut, 2).delta == tuple((c, es) for c, es in kept if es)


def test_prune_follows_realizations_and_witness_builds_one_model(monkeypatch):
    # pruning asks _realizations and nothing else: whatever it decides is kept
    elems = automata._elements(A_P)
    real = automata._realizations
    tau_of = {phi: phi if i % 2 else None for i, phi in enumerate(elems)}
    monkeypatch.setattr(automata, "_realizations", lambda aut, bound: (None, tau_of, None))
    kept = {phi for _, es in prune_unsatisfiable(A_P).delta for phi in es}
    assert kept == set(elems[1::2])
    monkeypatch.setattr(automata, "_realizations", real)
    # the strategy model is built once, by ColoredModel.make
    built = []
    checked = ColoredModel.__post_init__

    def counted(self):
        built.append(self)
        checked(self)

    monkeypatch.setattr(ColoredModel, "__post_init__", counted)
    witness_coalgebra(A_P)
    assert len(built) == 1


def test_normalize_keeps_true_state_and_prunes():
    out = normalize(ODD_LOOP, bound=2)
    assert find_true_state(out) is not None
    assert all(a != "a" for (a, _), _ in out.delta)
    # normalization preserves acceptance at the initial state
    rng = random.Random(5)
    for _ in range(6):
        M = random_model(POWERSET, ("p",), rng.randint(1, 3), rng)
        for s in M.states:
            Pm = PointedModel(M, s)
            assert accepts(normalize(A_P, 2), Pm) == accepts(A_P, Pm)


def test_normalize_idempotent():
    once = normalize(ODD_LOOP, bound=2)
    assert normalize(once, bound=2) == once


def test_game_pruning_matches_bounded_sweep():
    # functorial liftings: the nonemptiness game decides realizability
    # exactly, so it agrees with the ≤3-state model sweep on automata whose
    # realizations fit in three states
    rng = random.Random(12)
    kept = dropped = 0
    for name, count in (("powerset", 12), ("coproduct", 6), ("product", 3)):
        F = SHAPES[name]
        for _ in range(count):
            aut = random_automaton(F, ("p",), rng)
            pruned = prune_unsatisfiable(aut)
            found = bounded_realizations(aut, 3)
            for (a, c), elems in aut.delta:
                for phi in elems:
                    swept = found[phi] is not None
                    assert (phi in pruned.delta_of(a, c)) == swept, (name, aut, phi)
                    kept += swept
                    dropped += not swept
    assert (kept, dropped) == (95, 6)


# (functor, bound, automata per vocabulary, seed).  comp(monotone,powerset)
# draws from seed 0: seed 11 gives it elements no 2-state model realizes, where
# the per-model sweep plays one game per isomorphism class, about 56,000 over
# p (110 s) and more over p, q, while the tuple views take about a second
REALIZATION_CASES = {
    **{name: (F, 2 if name == "comp" else 3, 4, 11) for name, F in SHAPES.items()},
    "product(monotone,powerset)": (product(MONOTONE, POWERSET), 3, 2, 11),
    "comp(monotone,powerset)": (compose(MONOTONE, POWERSET), 2, 2, 0),
}


def _realizations_or_cap(fn, aut, bound):
    try:
        return fn(aut, bound)
    except CapExceeded as exc:
        return str(exc)


@pytest.mark.parametrize("name", sorted(REALIZATION_CASES))
def test_bounded_realizations_match_the_per_model_sweep(name):
    # the tuple views find each element's first realizing model, τ and Z, or
    # the cap, exactly where one game per isomorphism class does
    F, bound, count, seed = REALIZATION_CASES[name]
    rng = random.Random(seed)
    for props in (("p",), ("p", "q")):
        for _ in range(count):
            aut = random_automaton(F, props, rng)
            got = _realizations_or_cap(bounded_realizations, aut, bound)
            assert got == _realizations_or_cap(per_model_realizations, aut, bound), aut


def test_monotone_keeps_element_with_dead_base_state():
    # φ = {{b1}, {b2, b3}} is realized by x ↦ {{y}} with y accepted from b1
    # and b2: the ∀∃ lifting relates y to both, and dead b3 is never needed
    phi = frozenset((frozenset(("b1",)), frozenset(("b2", "b3"))))
    empty = frozenset()
    aut = Automaton.make(
        MONOTONE,
        (),
        ("a", "b1", "b2", "b3"),
        "a",
        {"a": 0, "b1": 0, "b2": 0, "b3": 0},
        {("a", NOP): [phi], ("b1", NOP): [empty], ("b2", NOP): [empty]},
    )
    arena, sol = nonemptiness_game(aut)
    assert arena.index(("state", "b3")) not in sol.win_e
    assert normalize(aut).delta_of("a", NOP) == (phi,)


def test_witness_coalgebra_is_strategy_model():
    rng = random.Random(13)
    for _ in range(8):
        aut = normalize(random_automaton(POWERSET, ("p",), rng))
        wc = witness_coalgebra(aut)
        assert set(wc.model.states) <= set(aut.states)
        for a in wc.model.states:
            assert (a, a) in wc.winning
            assert wc.model.sigma_of(a) in aut.delta_of(a, wc.model.gamma_of(a))
        assert all(tau == phi for phi, tau in wc.tau_of.items())


def test_witness_coalgebra_realizes_every_element():
    rng = random.Random(6)
    for F in (POWERSET, MONOTONE):
        for _ in range(3):
            aut = prune_unsatisfiable(
                random_automaton(F, ("p",), rng), bound=2
            )
            wc = witness_coalgebra(aut, bound=2)
            W = winning_pairs(aut, wc.model)
            assert wc.winning <= W
            elems = {phi for (_, _), es in aut.delta for phi in es}
            assert set(wc.tau_of) == elems
            for phi, tau in wc.tau_of.items():
                assert lift_member(F, wc.winning, tau, phi)


def test_witness_coalgebra_on_every_shape():
    # after pruning, every element is realized over the winning pairs; over
    # a functorial lifting the model is the strategy model on automaton
    # states and every element realizes itself
    rng = random.Random(21)
    for name, F in SHAPES.items():
        for _ in range(6):
            aut = prune_unsatisfiable(random_automaton(F, ("p",), rng), bound=2)
            wc = witness_coalgebra(aut, bound=2)
            assert wc.winning <= winning_pairs(aut, wc.model), name
            elems = {phi for (_, _), es in aut.delta for phi in es}
            assert set(wc.tau_of) == elems, name
            for phi, tau in wc.tau_of.items():
                assert lift_member(F, wc.winning, tau, phi), (name, phi)
            if F.has_functorial_lifting:
                assert set(wc.model.states) <= set(aut.states), name
                assert all(tau == phi for phi, tau in wc.tau_of.items()), name


def test_strategy_model_colors_each_state_by_its_first_cell():
    # over a functorial lifting, each state of the strategy model takes the
    # color of the first cell, in delta order, that holds the element the
    # existential player's strategy picks there
    rng = random.Random(23)
    checked = 0
    for name, F in SHAPES.items():
        if not F.has_functorial_lifting:
            continue
        for _ in range(12):
            aut = prune_unsatisfiable(random_automaton(F, ("p", "q"), rng))
            model = witness_coalgebra(aut).model
            for a in model.states:
                phi = model.sigma_of(a)
                cells = [c for (b, c), es in aut.delta if b == a and phi in es]
                assert model.gamma_of(a) == cells[0], name
                checked += len(cells) > 1
    assert checked > 0


def test_pruning_keeps_the_elements_the_game_wins():
    # over a functorial lifting, pruning keeps exactly the elements whose
    # position the existential player wins in the nonemptiness game
    rng = random.Random(22)
    kept = dropped = 0
    for name, F in SHAPES.items():
        if not F.has_functorial_lifting:
            continue
        for _ in range(12):
            aut = random_automaton(F, ("p",), rng)
            arena, sol = nonemptiness_game(aut)
            pruned = prune_unsatisfiable(aut)
            for (a, c), elems in aut.delta:
                for phi in elems:
                    won = arena.index(("elem", phi)) in sol.win_e
                    assert (phi in pruned.delta_of(a, c)) == won, (name, aut, phi)
                    kept += won
                    dropped += not won
    assert kept > 0 and dropped > 0


def test_witness_coalgebra_rejects_unrealizable():
    with pytest.raises(ValueError, match="unrealizable"):
        witness_coalgebra(ODD_LOOP, bound=2)


# --------------------------------------------------------------------------
# Text format


EXPECTED_TEXT = """functor powerset;
props {p};
initial a0;
state a0 priority 1;
state a1 priority 0;
delta a0 {p} : [{a0, a1}];
delta a1 {} : [{}];
"""


def test_render_exact_text():
    aut = Automaton.make(
        POWERSET,
        ("p",),
        ("q0", "q1"),
        "q0",
        {"q0": 1, "q1": 0},
        {
            ("q0", P): [frozenset(("q0", "q1"))],
            ("q1", NOP): [frozenset()],
        },
    )
    assert render_automaton(aut) == EXPECTED_TEXT
    back = parse_automaton(EXPECTED_TEXT)
    assert back.states == ("a0", "a1")
    assert back.delta_of("a0", P) == (frozenset(("a0", "a1")),)


def test_automaton_text_round_trips():
    rng = random.Random(7)
    for F in (POWERSET, MONOTONE):
        for _ in range(12):
            aut = random_automaton(F, ("p", "q"), rng)
            assert parse_automaton(render_automaton(aut)) == aut


def test_parse_automaton_errors():
    bad = [
        "functor powerset; props {p}; initial a0;",  # initial undeclared
        "functor powerset; props {p}; initial a0; state a0 priority -1;",
        "functor powerset; props {p}; initial a0; state a0 priority 0;"
        " delta a0 {q} : [{}];",
        "functor powerset; props {p}; initial a0; state a0 priority 0;"
        " state a0 priority 1;",
        "functor powerset; props {p}; initial a0; state a0 priority 0;"
        " delta a0 {} : [{}]; delta a0 {} : [{a0}];",
        "functor powerset; props {p}; initial a0; state a0 priority 0;"
        " delta a0 {} : [{a1}];",
        "functor powerset; props {p}; initial a0; state a0 priority 0"
        " delta a0 {} : [{}];",
    ]
    for text in bad:
        with pytest.raises(ParseError):
            parse_automaton(text)
