"""End-to-end verification at desk scale.

Each test certifies one headline guarantee of the package against an
independent oracle: exhaustive axiom sweeps for the lax relation liftings,
literal upward-closed-family semantics for the neighborhood lifting,
bisimulation invariance by sampling, model-checking/automaton agreement over
every small model, positional-strategy enumeration for the parity solver,
acceptance preservation for the automaton surgeries, both directions of the
propositional projection, bounded uniform-interpolant semantics against a
brute-force quantifier, and byte-level determinism of the command line.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time

from formula_corpus import (
    PARSE_CORPUS,
    TRANSLATION_CORPUS,
    random_guarded_formula,
)
from helpers import (
    acceptance_game,
    canonical_models,
    canonical_pointed_models,
    expand_family,
    full_family_lift,
    oracle_winners,
    random_arena,
    random_automaton,
    solve_parity,
    subsets,
    validate_parity_solution,
)

from nablamu import (
    IDENTITY,
    MONOTONE,
    POWERSET,
    ColoredModel,
    PointedModel,
    UnsupportedFragment,
    check_lax_axioms,
    check_support_restriction,
    compose,
    constant,
    coproduct,
    entails,
    entails_bounded,
    enumerate_t,
    eval_formula,
    exists_p,
    free_props,
    greatest_bisimulation,
    lift_member,
    mk_and,
    mk_neg,
    parse_formula,
    parse_functor,
    product,
    project_model,
    random_telem,
    render_automaton,
    render_formula,
    render_model,
    satisfies,
    uniform_interpolant,
    up_to_p_bisimilar,
)
from nablamu.automata import (
    accepts,
    add_true_state,
    normalize,
    prune_unsatisfiable,
    winning_pairs,
    witness_coalgebra,
)
from nablamu import automata, logic
from nablamu.coalgebra import random_model
from nablamu.projection import construct_projection_witness, project_automaton
from nablamu.translation import automaton_to_formula, formula_to_automaton


def pf(src: str):
    return parse_formula(src, POWERSET)


def _initial_column(aut, M):
    """Model states accepted from the automaton's initial state, solving one
    acceptance game restricted to the reachable part of that column: the
    arena oracle, kept on the 1-state models of each test below."""
    seeds = [(s, aut.initial) for s in M.states]
    arena, sol = acceptance_game(aut, M, pairs=seeds)
    return frozenset(
        s
        for s in M.states
        if arena.index(("state", s, aut.initial)) in sol.win_e
    )


def _initial_bits(aut, view):
    """The states of every tuple of a sweep's view (``logic._tuple_views``)
    accepted from the automaton's initial state, by the parity fixpoint."""
    return automata._winning_columns(aut, view, (aut.initial,))[aut.initial]


# --------------------------------------------------------------------------
# 1. The lifting axioms hold exhaustively on the functor catalog.

AXIOM_CATALOG = [
    (POWERSET, 3),
    (MONOTONE, 2),
    (IDENTITY, 2),
    (constant(("a", "b")), 2),
    (product(POWERSET, IDENTITY), 2),
    (coproduct(POWERSET, constant(("a",))), 2),
    (compose(POWERSET, POWERSET), 2),
]


def test_lifting_axioms_exhaustive():
    start = time.monotonic()
    for F, bound in AXIOM_CATALOG:
        report = check_lax_axioms(F, carrier_bound=bound)
        assert report.ok, str(report)
    assert time.monotonic() - start < 300.0


# --------------------------------------------------------------------------
# 2. Support restriction, and the generator encoding of the neighborhood
#    lifting agrees with the literal upward-closed-family semantics.


def test_support_restriction_catalog():
    for F, bound in AXIOM_CATALOG:
        report = check_support_restriction(F, carrier_bound=bound)
        assert report.ok, str(report)


def _family_lift_agrees(R, t1, t2, X, Y):
    got = lift_member(MONOTONE, R, t1, t2)
    want = full_family_lift(R, expand_family(t1, X), expand_family(t2, Y))
    assert got == want, (R, t1, t2)


def test_generator_encoding_matches_full_families():
    # Exhaustive over carriers of size at most two.
    for nx, ny in itertools.product((1, 2), repeat=2):
        X = frozenset(f"x{i}" for i in range(nx))
        Y = frozenset(f"y{j}" for j in range(ny))
        elems_x = enumerate_t(MONOTONE, X)
        elems_y = enumerate_t(MONOTONE, Y)
        for R in subsets(tuple(itertools.product(sorted(X), sorted(Y)))):
            R = frozenset(R)
            for t1 in elems_x:
                for t2 in elems_y:
                    _family_lift_agrees(R, t1, t2, X, Y)
    # Random sampling at carrier size three.
    rng = random.Random(20260819)
    X = frozenset(("x0", "x1", "x2"))
    Y = frozenset(("y0", "y1", "y2"))
    grid = tuple(itertools.product(sorted(X), sorted(Y)))
    samples = 0
    for _ in range(500):
        t1 = random_telem(MONOTONE, X, rng)
        t2 = random_telem(MONOTONE, Y, rng)
        R = frozenset(xy for xy in grid if rng.random() < 0.5)
        _family_lift_agrees(R, t1, t2, X, Y)
        samples += 1
    assert samples >= 500


# --------------------------------------------------------------------------
# 3. States related by the greatest bisimulation satisfy the same formulas.


def test_bisimulation_invariance_sampled():
    rng = random.Random(3)
    checked = 0
    for F in (POWERSET, MONOTONE):
        for _ in range(100):
            f = random_guarded_formula(rng, F, ("p", "q"), 3)
            M1 = random_model(F, ("p", "q"), rng.randint(1, 4), rng)
            M2 = random_model(F, ("p", "q"), rng.randint(1, 4), rng)
            R = greatest_bisimulation(M1, M2, ("p", "q"))
            ext1 = eval_formula(M1, f)
            ext2 = eval_formula(M2, f)
            for s, t in R:
                assert (s in ext1) == (t in ext2), (f, s, t)
            checked += 1
    assert checked >= 200


# --------------------------------------------------------------------------
# 4. Formula → automaton matches evaluation, automaton → formula matches
#    acceptance, and the round trip is a bounded equivalence.


def test_translation_contracts_on_corpus():
    # every state of every code tuple of at most 3 states, one view at a
    # time; the acceptance game checks the 1-state models state by state
    done = 0
    for src in TRANSLATION_CORPUS:
        f = pf(src)
        aut = formula_to_automaton(f, POWERSET)
        g = automaton_to_formula(aut)
        props = tuple(sorted(free_props(f)))
        for n in (1, 2, 3):
            for view in logic._tuple_views(POWERSET, props, n):
                col = _initial_bits(aut, view)
                assert col == logic._eval_bits(view, f, {}), (src, n, view.start)
                assert col == logic._eval_bits(view, g, {}), (src, n, view.start)
        for M in canonical_models(POWERSET, props, 1):
            ext_f = eval_formula(M, f)
            ext_g = eval_formula(M, g)
            col = _initial_column(aut, M)
            for s in M.states:
                accepted = s in col
                assert accepted == (s in ext_f), (src, s)
                assert (s in ext_g) == accepted, (src, s)
                assert accepts(aut, PointedModel(M, s)) == accepted, (src, s)
        ok, counter = entails_bounded(f, g, 3)
        assert ok and counter is None, (src, "forward")
        ok, counter = entails_bounded(g, f, 3)
        assert ok and counter is None, (src, "backward")
        done += 1
    assert done >= 30


# --------------------------------------------------------------------------
# 5. The parity solver agrees with positional-strategy enumeration and every
#    solution passes the strategy-restricted cycle certificate.


def test_parity_solver_matches_strategy_enumeration():
    solved = 0
    for seed in range(1000):
        arena = random_arena(random.Random(seed), max_positions=8, max_priority=3)
        sol = solve_parity(arena)
        validate_parity_solution(arena, sol)
        want = oracle_winners(arena)
        got = tuple(sol.winner(v) for v in range(len(arena)))
        assert got == want, (seed, got, want)
        solved += 1
    assert solved >= 1000


# --------------------------------------------------------------------------
# 6. Adjoining the universally accepting state and pruning unrealizable
#    elements both preserve acceptance; the witness coalgebra is winning.


def test_surgery_preserves_acceptance_and_witnesses_win():
    rng = random.Random(66)
    specs = [
        (POWERSET, ("p",), 10),
        (POWERSET, ("p", "q"), 4),
        (MONOTONE, ("p",), 6),
    ]
    checked = 0
    for F, props, count in specs:
        for _ in range(count):
            aut = random_automaton(F, props, rng, max_states=3)
            with_tt, _ = add_true_state(aut)
            pruned = prune_unsatisfiable(aut, 3)
            for n in (1, 2, 3):
                for view in logic._tuple_views(F, props, n):
                    col = _initial_bits(aut, view)
                    assert col == _initial_bits(with_tt, view), (F.kind, n)
                    if pruned == aut:
                        continue
                    assert col == _initial_bits(pruned, view), (F.kind, n)
            for M in canonical_models(F, props, 1):
                col = _initial_column(aut, M)
                assert col == {s for s in M.states if accepts(aut, PointedModel(M, s))}
                assert col == _initial_column(with_tt, M), F.kind
                assert col == _initial_column(pruned, M), F.kind
            normalized = normalize(aut, 3)
            wc = witness_coalgebra(normalized, 3)
            assert wc.winning <= winning_pairs(normalized, wc.model)
            checked += 1
    assert checked >= 20


# --------------------------------------------------------------------------
# 7. Projection: reducts of accepted models are accepted (easy direction),
#    and every model accepted by the projected automaton extends to an
#    accepted model, constructed rather than merely asserted (hard
#    direction).


def test_projection_automaton_correspondence():
    rng = random.Random(77)
    specs = [(POWERSET, 16), (MONOTONE, 4)]
    total = 0
    witnessed = 0
    for F, count in specs:
        for _ in range(count):
            aut = random_automaton(F, ("p",), rng, max_states=3)
            normalized = normalize(aut, 3)
            proj = project_automaton(aut, "p", 3)
            assert proj.props == ()
            # proj reads no proposition, so it runs on the views over p
            for n in (1, 2, 3):
                for view in logic._tuple_views(F, ("p",), n):
                    col = _initial_bits(normalized, view)
                    assert not col & ~_initial_bits(proj, view), (F.kind, n)
            for M in canonical_models(F, ("p",), 1):
                col = _initial_column(normalized, M)
                reduct_col = _initial_column(proj, project_model(M, ()))
                assert col <= reduct_col, F.kind
                assert col == {s for s in M.states if accepts(normalized, PointedModel(M, s))}
            for P in canonical_pointed_models(F, (), 3):
                if not accepts(proj, P):
                    continue
                W = construct_projection_witness(aut, P, "p", 3)
                assert up_to_p_bisimilar(W, P, "p")
                assert accepts(normalized, W)
                witnessed += 1
            total += 1
    assert total >= 20
    assert witnessed >= 200


# --------------------------------------------------------------------------
# 8. Uniform interpolants: vocabulary containment, entailment transfer, and
#    agreement with a brute-force bounded quantifier that enumerates every
#    small model and tests the up-to-p-bisimilar witness condition directly.

INTERPOLATION_PAIRS = [
    # (antecedent, consequent, kept vocabulary)
    ("(p /\\ q)", "q", ("q",)),
    ("(p /\\ q)", "(q \\/ r)", ("q",)),
    ("(p \\/ q)", "q", ("q",)),
    ("p", "true", ()),
    ("(p /\\ ~p)", "false", ()),
    ("(p /\\ ~p)", "q", ("q",)),
    ("nabla {(p /\\ q)}", "nabla {q}", ("q",)),
    ("nabla {(p /\\ q)}", "nabla {true}", ("q",)),
    ("(q /\\ nabla {p, true})", "q", ("q",)),
    ("(q /\\ nabla {p, true})", "~nabla {}", ("q",)),
    ("nabla {p, q}", "nabla {q, true}", ("q",)),
    ("nabla {}", "~nabla {q, true}", ("q",)),
    ("(p /\\ nabla {})", "~nabla {true}", ()),
    ("mu x. (q \\/ (p /\\ nabla {x, true}))", "mu x. (q \\/ nabla {x, true})", ("q",)),
    ("(q /\\ mu x. (p \\/ nabla {x, true}))", "q", ("q",)),
    ("nu x. ((p /\\ q) /\\ nabla {x, true})", "nu x. (q /\\ nabla {x, true})", ("q",)),
    ("nu x. ((p /\\ q) /\\ nabla {x, true})", "(q /\\ nabla {true})", ("q",)),
    ("(nabla {q, true} /\\ nabla {p, true})", "nabla {q, true}", ("q",)),
    ("mu x. ((p /\\ nabla {}) \\/ nabla {x, true})", "mu x. (nabla {} \\/ nabla {x, true})", ()),
    ("(~q /\\ nabla {p})", "~q", ("q",)),
    ("(q /\\ (p \\/ nabla {q, true}))", "(q \\/ r)", ("q",)),
    ("nabla {p, ~p}", "~nabla {}", ()),
]


def test_interpolants_transfer_entailment():
    done = 0
    for a_src, b_src, keep in INTERPOLATION_PAIRS:
        a = pf(a_src)
        b = pf(b_src)
        assert free_props(a) & free_props(b) <= set(keep)
        a_keep = uniform_interpolant(a, keep, bound=3, functor=POWERSET)
        assert free_props(a_keep) <= set(keep), (a_src, keep)
        ok, counter = entails_bounded(a, a_keep, 3)
        assert ok and counter is None, (a_src, keep)
        direct, _ = entails_bounded(a, b, 3)
        via, _ = entails_bounded(a_keep, b, 3)
        assert direct == via, (a_src, b_src, keep)
        done += 1
    assert done >= 20


def test_interpolants_transfer_entailment_exactly():
    # ∃p.a ⊨ b iff a ⊨ b for every b without p, decided by the nonemptiness
    # game wherever a ∧ ¬b translates; where a ⊨ b, ∃p.a ∧ ¬b must translate
    # too, so the game, not the bounded sweep, proves ∃p.a ⊨ b
    formulas = [pf(src) for src in TRANSLATION_CORPUS]
    projected = {}
    untranslated = held = refuted = 0
    for a, b in itertools.product(formulas, repeat=2):
        hidden = sorted(free_props(a) - free_props(b))
        if not hidden:
            continue
        try:
            formula_to_automaton(mk_and(a, mk_neg(b)), functor=POWERSET)
        except UnsupportedFragment:
            untranslated += len(hidden)
            continue
        direct = entails(a, b)[0]
        for p in hidden:
            if (a, p) not in projected:
                projected[(a, p)] = exists_p(a, p, functor=POWERSET)
            ea = projected[(a, p)]
            assert p not in free_props(ea), (a, p)
            assert entails(ea, b)[0] == direct, (a, p, b)
            if direct:
                formula_to_automaton(mk_and(ea, mk_neg(b)), functor=POWERSET)
        held += direct * len(hidden)
        refuted += (not direct) * len(hidden)
    assert untranslated + held + refuted == 579
    assert held >= 111 and refuted >= 388


def _behavior_signature(P: PointedModel, props, depth=7):
    """A value equal for two pointed Kripke models over ``props`` exactly
    when they are bisimilar: iterated color-and-successor refinement,
    interned per level so signatures stay small and comparable."""
    Q = frozenset(props)
    M = P.model
    sig = {s: None for s in M.states}
    for _ in range(depth):
        table = {}
        sig = {
            s: table.setdefault(key, key)
            for s in M.states
            for key in (
                (
                    frozenset(M.gamma_of(s)) & Q,
                    frozenset(sig[t] for t in M.sigma_of(s)),
                ),
            )
        }
    return sig[P.point]


ORACLE_ONE_PROP = [
    "p",
    "~p",
    "true",
    "false",
    "(p \\/ ~p)",
    "(p /\\ ~p)",
    "nabla {}",
    "nabla {true}",
    "nabla {p}",
    "nabla {~p}",
    "nabla {p, true}",
    "nabla {~p, true}",
    "nabla {(p \\/ ~p)}",
    "~nabla {}",
    "~nabla {p}",
    "~nabla {p, true}",
    "(p /\\ nabla {p, true})",
    "(p \\/ nabla {~p, true})",
    "(p \\/ ~nabla {p})",
    "(nabla {p} \\/ nabla {})",
    "mu x. (nabla {} \\/ nabla {x, true})",
    "nabla {nabla {p, true}, true}",
    "nabla {nabla {}, true}",
    "nabla {nabla {p}}",
    "(p \\/ nabla {p})",
    "(p /\\ ~nabla {})",
    "mu x. (p \\/ nabla {x, true})",
    "nu x. (p /\\ nabla {x, true})",
    "mu x. nabla {x, true}",
    "nu x. nabla {x, true}",
    "nu x. nabla {x}",
    "mu x. (~p \\/ nabla {x})",
    "nu x. nabla {(p /\\ x), true}",
    "mu x. ((p /\\ nabla {}) \\/ nabla {x, true})",
    "nu x. mu y. nabla {((p /\\ x) \\/ y), true}",
    "mu x. nu y. nabla {((p /\\ y) \\/ x), true}",
    "(mu x. (p \\/ nabla {x, true}) /\\ nabla {true})",
    "nabla {mu x. (p \\/ nabla {x, true}), true}",
    "nu x. (nabla {x, true} /\\ nabla {p, true})",
    "(nabla {p, true} \\/ nabla {~p})",
    "~nabla {~p, true}",
    "(p /\\ nabla {~p, true})",
    "nabla {(p /\\ nabla {p, true}), true}",
    # p occurs both ways, under a modality and a fixpoint
    "mu x. ((p /\\ nabla {~p, true}) \\/ nabla {x, true})",
]

ORACLE_TWO_PROP = [
    "(p /\\ q)",
    "(p \\/ q)",
    "(q /\\ ~p)",
    "nabla {(p /\\ q), true}",
    "(q /\\ nabla {p, true})",
    "nabla {(p \\/ q)}",
    "(q \\/ nabla {(p /\\ q), true})",
    "mu x. (q \\/ (p /\\ nabla {x, true}))",
    "nu x. ((p \\/ q) /\\ nabla {x, true})",
]


def _projection_universes(hidden_props):
    """Canonical model universes and behavior signatures for the brute-force
    quantifier: every ≤3-state model over the full vocabulary is a potential
    witness, every ≤3-state model over the visible vocabulary a test point."""
    visible = tuple(q for q in hidden_props if q != "p")
    full_models = list(canonical_pointed_models(POWERSET, hidden_props, 3))
    small_models = list(canonical_pointed_models(POWERSET, visible, 3))
    stripped_sig = {
        P: _behavior_signature(
            PointedModel(project_model(P.model, visible), P.point), visible
        )
        for P in full_models
    }
    small_sig = {P: _behavior_signature(P, visible) for P in small_models}
    return visible, full_models, small_models, stripped_sig, small_sig


def test_projection_formula_matches_bounded_oracle():
    instances = 0
    for hidden_props, sources in ((("p",), ORACLE_ONE_PROP), (("p", "q"), ORACLE_TWO_PROP)):
        _, full_models, small_models, stripped_sig, small_sig = (
            _projection_universes(hidden_props)
        )
        for src in sources:
            f = pf(src)
            g = exists_p(f, "p", bound=3, functor=POWERSET)
            realizable = {stripped_sig[P] for P in full_models if satisfies(P, f)}
            for P in small_models:
                oracle = small_sig[P] in realizable
                assert satisfies(P, g) == oracle, (src, render_model(P.model, P.point))
            instances += 1
    assert instances >= 50


# Formulas whose minimal witnesses outgrow the evaluation models: the point's
# successors must be split into differently colored copies, so no ≤3-state
# recoloring works although a slightly larger one does.  The projection is
# exact, the small-witness quantifier is not; the constructed witnesses prove
# the acceptances genuine.

SPLIT_WITNESS_FORMULAS = [
    "nabla {p, ~p}",
    "(~p /\\ nabla {p})",
    "(nabla {p, true} /\\ nabla {~p, true})",
    # p occurs both ways, under modalities and fixpoints
    "(p /\\ nabla {~p})",
    "nabla {(p /\\ nabla {~p}), true}",
    "nu x. ((p /\\ nabla {~p}) \\/ (~p /\\ nabla {x}))",
]


def test_projection_beyond_small_witnesses():
    _, full_models, small_models, stripped_sig, small_sig = (
        _projection_universes(("p",))
    )
    for src in SPLIT_WITNESS_FORMULAS:
        f = pf(src)
        aut = formula_to_automaton(f, POWERSET)
        g = exists_p(f, "p", bound=3, functor=POWERSET)
        realizable = {stripped_sig[P] for P in full_models if satisfies(P, f)}
        gap = 0
        for P in small_models:
            oracle = small_sig[P] in realizable
            got = satisfies(P, g)
            assert got or not oracle, (src, "small witness missed")
            if got and not oracle:
                W = construct_projection_witness(aut, P, "p", 3)
                assert len(W.model.states) > 3
                assert up_to_p_bisimilar(W, P, "p")
                assert accepts(normalize(aut, 3), W)
                gap += 1
        assert gap > 0, (src, "expected at least one oversized witness")


# --------------------------------------------------------------------------
# 9. Parsing round-trips on the full-grammar corpus, and the command line is
#    byte-deterministic across processes (including hash randomization).


def test_parse_print_round_trip_corpus():
    assert len(PARSE_CORPUS) >= 100
    for functor_text, src in PARSE_CORPUS:
        F = parse_functor(functor_text)
        f = parse_formula(src, F)
        assert parse_formula(render_formula(f), F) == f, (functor_text, src)


def _cli_scenarios(tmp_path):
    sigma = {"s0": frozenset(("s0", "s1")), "s1": frozenset(("s1",))}
    gamma = {"s0": frozenset(("p", "q")), "s1": frozenset(("q",))}
    M = ColoredModel.make(POWERSET, sigma, gamma, props=("p", "q"))
    sigma2 = {"t0": frozenset(("t0",))}
    gamma2 = {"t0": frozenset(("q",))}
    N = ColoredModel.make(POWERSET, sigma2, gamma2, props=("p", "q"))
    aut = formula_to_automaton(pf("nabla {p, true}"), POWERSET)

    model_a = tmp_path / "a.model"
    model_a.write_text(render_model(M, "s0"))
    model_b = tmp_path / "b.model"
    model_b.write_text(render_model(N, "t0"))
    aut_file = tmp_path / "dia.aut"
    aut_file.write_text(render_automaton(aut))

    a, b, au = str(model_a), str(model_b), str(aut_file)
    fmt = ("--format", "structured")
    return [
        (0, ("check", a, "(p /\\ q)") + fmt),
        (1, ("check", b, "p") + fmt),
        (0, ("bisim", a, b, "--disregard", "p") + fmt),
        (1, ("bisim", a, b) + fmt),
        (0, ("automaton", "accept", au, a) + fmt),
        (0, ("automaton", "to-formula", au) + fmt),
        (0, ("automaton", "project", au, "p") + fmt),
        (0, ("automaton", "normalize", au) + fmt),
        (0, ("to-automaton", "mu x. (p \\/ nabla {x, true})") + fmt),
        (
            0,
            (
                "to-automaton",
                "nabla {{nabla {{}}, nu z1. false}, {nu z1. false}}",
                "--functor",
                "comp(powerset,powerset)",
            )
            + fmt,
        ),
        (0, ("interpolate", "(p /\\ q)", "--keep", "q") + fmt),
        (0, ("entails", "(p /\\ q)", "q") + fmt),
        (1, ("entails", "q", "(p /\\ q)") + fmt),
        (2, ("check", a, "(p /\\") + fmt),
        (0, ("selftest", "--functor", "identity", "--carrier-bound", "2") + fmt),
    ]


def _run_cli(argv, seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    return subprocess.run(
        [sys.executable, "-m", "nablamu.cli", *argv],
        capture_output=True,
        env=env,
        timeout=300,
    )


def test_cli_structured_output_is_byte_deterministic(tmp_path):
    for expected_code, argv in _cli_scenarios(tmp_path):
        first = _run_cli(argv, "1")
        second = _run_cli(argv, "2")
        assert first.returncode == expected_code, (argv, first.stderr)
        assert second.returncode == expected_code, (argv, second.stderr)
        assert first.stdout == second.stdout, argv
        if expected_code != 2:
            # structured mode prints exactly one JSON document per run
            json.loads(first.stdout.decode())
