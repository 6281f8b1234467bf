"""Formula ⇄ automaton translation: NNF, fragment limits, equivalence."""

import os
import random
import subprocess
import sys
import time

import pytest

from formula_corpus import TRANSLATION_CORPUS, random_guarded_formula
from helpers import (
    SHAPES,
    brute_eval_formula,
    brute_merge_pair,
    canonical_models,
    canonical_pointed_models,
    per_combination_fold,
    random_automaton,
)

from nablamu import (
    MONOTONE,
    POWERSET,
    ColoredModel,
    PointedModel,
    canon_key,
    eval_formula,
    is_guarded,
    parse_formula,
    render_formula,
    satisfies,
    translation,
    validate_monotone,
)
from nablamu.automata import accepts, winning_pairs
from nablamu.translation import (
    FALSE,
    TRUE,
    NAnd,
    NFix,
    NLit,
    NNabla,
    NOr,
    NVar,
    UnsupportedFragment,
    _merge_pair,
    automaton_to_formula,
    formula_to_automaton,
    nand,
    nnf_free_vars,
    nnf_to_formula,
    nor,
    to_nnf,
)


def pf(src: str):
    return parse_formula(src, POWERSET)


def mf(src: str):
    return parse_formula(src, MONOTONE)


def equivalent_on_small_models(F, f, g, props, max_states=2):
    return all(
        satisfies(P, f) == satisfies(P, g)
        for P in canonical_pointed_models(F, props, max_states)
    )


# --------------------------------------------------------------------------
# Negation normal form


def test_nnf_literals_and_booleans():
    assert to_nnf(pf("p"), POWERSET) == NLit("p", True)
    assert to_nnf(pf("~p"), POWERSET) == NLit("p", False)
    assert to_nnf(pf("~~p"), POWERSET) == NLit("p", True)
    assert to_nnf(pf("true"), POWERSET) == TRUE
    assert to_nnf(pf("false"), POWERSET) == FALSE
    # de Morgan: ¬(p ∨ q) = ¬p ∧ ¬q
    got = to_nnf(pf("~(p \\/ q)"), POWERSET)
    assert got == NAnd(frozenset((NLit("p", False), NLit("q", False))))


def test_nnf_renames_binders_apart():
    f = pf("(mu x. nabla {x, true} /\\ ~mu x. nabla {x})")
    got = to_nnf(f, POWERSET)
    names = set()

    def walk(g):
        if isinstance(g, NFix):
            names.add((g.kind, g.var))
            walk(g.body)
        elif isinstance(g, (NAnd, NOr)):
            for p in g.parts:
                walk(p)
        elif isinstance(g, NNabla):
            for p in sorted(g.payload, key=lambda h: h.canon_key()):
                walk(p)

    walk(got)
    kinds = {k for k, _ in names}
    assert kinds == {"mu", "nu"}
    assert len({v for _, v in names}) == 2, "binders must get distinct names"


def test_nnf_round_trips_semantically():
    sources = [
        "~(p \\/ ~q)",
        "~nabla {p}",
        "~nabla {}",
        "~nabla {p, ~q}",
        "~(nabla {p} \\/ nabla {q, true})",
        "~mu x. nabla {x, true}",
        "~nu x. (p /\\ nabla {x, true})",
    ]
    for src in sources:
        f = pf(src)
        g = nnf_to_formula(POWERSET, to_nnf(f, POWERSET))
        validate_monotone(g)
        assert equivalent_on_small_models(POWERSET, f, g, ("p", "q")), src


def test_nnf_negated_nabla_needs_powerset():
    with pytest.raises(UnsupportedFragment):
        to_nnf(mf("~nabla {{p}}"), MONOTONE)


def test_nnf_rejects_negative_variable():
    # not monotone, and the NNF pass is where the polarity bottoms out
    with pytest.raises(ValueError):
        to_nnf(pf("mu x. ~x"), POWERSET)


def test_smart_constructors_flatten_and_absorb():
    a, b = NLit("p", True), NLit("q", False)
    assert nand((a, TRUE)) == a
    assert nor((a, FALSE)) == a
    assert nand((a, FALSE, b)) == FALSE
    assert nor((a, TRUE, b)) == TRUE
    assert nand((NAnd(frozenset((a,))), b)) == NAnd(frozenset((a, b)))
    assert nor((NOr(frozenset((a,))), b)) == NOr(frozenset((a, b)))
    assert nnf_free_vars(POWERSET, NAnd(frozenset((NVar("x"), a)))) == {"x"}
    assert nnf_free_vars(POWERSET, NFix("mu", "x", NVar("x"))) == frozenset()
    assert nnf_free_vars(POWERSET, NNabla(frozenset((NVar("y"),)))) == {"y"}


# --------------------------------------------------------------------------
# Fragment limits


def test_fragment_rejects_coupled_fixpoints():
    f = pf("mu x. (nabla {x, true} /\\ nabla {x})")
    with pytest.raises(UnsupportedFragment, match="couples"):
        formula_to_automaton(f, POWERSET)


def test_fragment_rejects_modal_conjunction_outside_powerset():
    f = mf("(nabla {{p}} /\\ nabla {{q}})")
    with pytest.raises(UnsupportedFragment, match="distributive"):
        formula_to_automaton(f, MONOTONE)


def test_powerset_modal_conjunction_is_distributed():
    f = pf("(nabla {p} /\\ nabla {q, true})")
    aut = formula_to_automaton(f, POWERSET)
    assert all(
        accepts(aut, P) == satisfies(P, f)
        for P in canonical_pointed_models(POWERSET, ("p", "q"), 2)
    )


MERGE_LEAVES = [
    TRUE,
    FALSE,
    NLit("p", True),
    NLit("p", False),
    NLit("q", True),
    NAnd(frozenset((NLit("p", True), NLit("q", False)))),
]


def test_powerset_merge_pair_matches_grid_oracle():
    # leaves are drawn with replacement, so payloads share and repeat leaves
    rng = random.Random(5)
    for _ in range(300):
        x, y = (
            NNabla(
                frozenset(rng.choice(MERGE_LEAVES) for _ in range(rng.randint(0, 3)))
            )
            for _ in range(2)
        )
        # _merge_pair lists its elements in no particular order
        got = sorted(_merge_pair(POWERSET, x, y), key=canon_key)
        assert got == list(brute_merge_pair(x, y)), (x, y)
        for psi in (x, TRUE):
            assert _merge_pair(POWERSET, TRUE, psi) == brute_merge_pair(TRUE, psi)
            assert _merge_pair(POWERSET, psi, TRUE) == brute_merge_pair(psi, TRUE)


def _agrees_with_evaluation(aut, f, models):
    """Acceptance from the initial state equals both evaluators' extensions."""
    for M in models:
        won = winning_pairs(aut, M)
        ext = eval_formula(M, f)
        assert ext == brute_eval_formula(M, f), render_formula(f)
        for s in M.states:
            assert ((s, aut.initial) in won) == (s in ext), (render_formula(f), s)


def _small_models(F, props, sample=None):
    """Every model of at most 2 states; ``sample`` caps the 2-state ones."""
    twos = list(canonical_models(F, props, 2))
    if sample is not None and len(twos) > sample:
        twos = random.Random(0).sample(twos, sample)
    return list(canonical_models(F, props, 1)) + twos


def test_modal_conjunctions_distribute_over_functorial_liftings(monkeypatch):
    # Random formulas whose translation splits a conjunction of two ∇
    # obligations: before the generic distributive law, every such formula
    # was rejected outside powerset.
    split = []
    couplings = translation._couplings

    def counted(*args):
        split.append(args)
        return couplings(*args)

    monkeypatch.setattr(translation, "_couplings", counted)
    props = ("p", "q")
    for name in ("identity", "const", "product", "coproduct", "comp"):
        F = SHAPES[name]
        rng = random.Random(7)
        found = []
        for _ in range(300):
            f = random_guarded_formula(rng, F, props, 4)
            split.clear()
            try:
                aut = formula_to_automaton(f, F, props)
            except UnsupportedFragment:
                continue
            if split:
                found.append((f, aut))
        assert len(found) >= 10, name
        models = _small_models(F, props, sample=100 if name == "comp" else None)
        for f, aut in found:
            _agrees_with_evaluation(aut, f, models)


COMP_CONJUNCTIONS = [
    "(nabla {{p, q}} /\\ nabla {{p}, {q}})",
    "(nabla {{p, q}, {~p}} /\\ nabla {{p}, {q}})",
    "(nabla {{p, true}} /\\ nabla {{q}, {true}})",
]


def test_comp_conjunctions_split_by_nested_couplings():
    F = SHAPES["comp"]
    models = _small_models(F, ("p", "q"), sample=100)
    for src in COMP_CONJUNCTIONS:
        f = parse_formula(src, F)
        start = time.perf_counter()
        aut = formula_to_automaton(f, F, ("p", "q"))
        assert time.perf_counter() - start < 1.0, src
        _agrees_with_evaluation(aut, f, models)


def test_monotone_conjunction_without_a_modal_merge_translates():
    # the two modal conjuncts never hold under the same color, so no
    # distributive law is needed
    f = mf("(((p /\\ nabla {{q}}) \\/ ~p) /\\ ((~p /\\ nabla {{p}}) \\/ p))")
    aut = formula_to_automaton(f, MONOTONE)
    models = canonical_pointed_models(MONOTONE, ("p", "q"), 2)
    assert len(models) == 612
    for P in models:
        ext = eval_formula(P.model, f)
        assert accepts(aut, P) == (P.point in ext), P.point


def _outcome(fn, *args):
    try:
        return fn(*args)
    except UnsupportedFragment as exc:
        return str(exc)


def test_conjunction_fold_matches_the_per_combination_oracle(monkeypatch):
    # every (conjunction, colour) the translations reach decomposes as the
    # per-combination fold does, and raises UnsupportedFragment exactly
    # where it does; a conjunction with two busy conjuncts raises before
    # its conjuncts run, so it is left to the decomposer
    run = translation._Decomposer.run
    compared = set()

    def checked(self, g, c):
        F = self.system.F
        if (
            not isinstance(g, NAnd)
            or (g, c) in self.memo
            or sum(1 for p in g.parts if nnf_free_vars(F, p)) > 1
        ):
            return run(self, g, c)
        pools = [self.run(p, c) for p in g.parts]
        want = _outcome(per_combination_fold, F, pools)
        got = _outcome(run, self, g, c)
        assert got == want, (g, c)
        compared.add((F.kind, isinstance(got, str)))
        if isinstance(got, str):
            raise UnsupportedFragment(got)
        return got

    monkeypatch.setattr(translation._Decomposer, "run", checked)
    cases = [(pf(src), POWERSET, None) for src in TRANSLATION_CORPUS]
    for F in SHAPES.values():
        rng = random.Random(7)
        cases += [
            (random_guarded_formula(rng, F, ("p", "q"), 4), F, ("p", "q"))
            for _ in range(60)
        ]
    for f, F, props in cases:
        try:
            formula_to_automaton(f, F, props)
        except UnsupportedFragment:
            pass
    assert {kind for kind, _ in compared} == {F.kind for F in SHAPES.values()}
    assert ("monotone", True) in compared


def test_conjunction_with_an_empty_pool_merges_nothing():
    # p /\ ~p has no disjunct under any colour, so the two modal conjuncts
    # are never merged and monotone needs no distributive law; the fold
    # meets the conjuncts in hash order, so each seed runs in its own process
    code = (
        "import sys\n"
        "from nablamu import MONOTONE, formula_to_automaton, parse_formula\n"
        "aut = formula_to_automaton(parse_formula(sys.argv[1], MONOTONE))\n"
        "print(len(aut.states), len(aut.delta))\n"
    )
    src = "((nabla {{q}} /\\ nabla {{p}}) /\\ (p /\\ ~p))"
    for seed in "0123":
        done = subprocess.run(
            [sys.executable, "-c", code, src],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
            timeout=60,
        )
        assert done.returncode == 0, (seed, done.stderr)
        assert done.stdout.split() == ["1", "0"], seed


# --------------------------------------------------------------------------
# Formula → automaton equivalence

POWERSET_CORPUS = [
    "p",
    "~p",
    "true",
    "false",
    "(p /\\ ~q)",
    "nabla {}",
    "nabla {p, true}",
    "~nabla {p}",
    "(nabla {p} /\\ nabla {q, true})",
    "mu x. nabla {x, true}",
    "nu x. nabla {x, true}",
    "mu x. \\/{p, nabla {x, true}}",
    "nu x. (p /\\ (nabla {} \\/ nabla {x}))",
    "mu x. \\/{x, p}",  # unguarded: exercises the guard rewrite
    "nu y. mu x. \\/{(p /\\ nabla {y, true}), nabla {x, true}}",
    "mu x. nu y. \\/{(p /\\ nabla {y, true}), nabla {x, true}}",
    "~mu x. \\/{q, nabla {x, true}}",
]

MONOTONE_CORPUS = [
    "p",
    "nabla {}",
    "nabla {{}}",
    "nabla {{p}}",
    "nabla {{p}, {q}}",
    "mu x. \\/{p, nabla {{x}}}",
    "nu x. (p /\\ nabla {{x}, {}})",
    "nu y. mu x. \\/{(p /\\ nabla {{y}}), nabla {{x}}}",
]


def test_powerset_formulas_equal_their_automata():
    for src in POWERSET_CORPUS:
        f = pf(src)
        aut = formula_to_automaton(f, POWERSET)
        props = tuple(sorted({"p", "q"} & set(src)))
        for P in canonical_pointed_models(POWERSET, props, 2):
            assert accepts(aut, P) == satisfies(P, f), (src, P.point)


def test_monotone_formulas_equal_their_automata():
    for src in MONOTONE_CORPUS:
        f = mf(src)
        aut = formula_to_automaton(f, MONOTONE)
        props = tuple(sorted({"p", "q"} & set(src)))
        for P in canonical_pointed_models(MONOTONE, props, 2):
            assert accepts(aut, P) == satisfies(P, f), (src, P.point)


def test_translation_is_deterministic():
    f = pf("nu y. mu x. \\/{(p /\\ nabla {y, true}), nabla {x, true}}")
    a1 = formula_to_automaton(f, POWERSET)
    a2 = formula_to_automaton(f, POWERSET)
    assert a1 == a2


def test_vocabulary_can_exceed_free_props():
    aut = formula_to_automaton(pf("p"), POWERSET, props=("p", "q"))
    assert aut.props == ("p", "q")
    with pytest.raises(ValueError, match="outside the vocabulary"):
        formula_to_automaton(pf("p"), POWERSET, props=("q",))


def test_alternation_depth_two_separates_on_a_cycle():
    M = ColoredModel.make(
        POWERSET,
        {"s0": frozenset(("s1",)), "s1": frozenset(("s0",))},
        {"s0": frozenset(("p",)), "s1": frozenset()},
        props=("p",),
    )
    io = pf("nu y. mu x. \\/{(p /\\ nabla {y, true}), nabla {x, true}}")
    ea = pf("mu x. nu y. \\/{(p /\\ nabla {y, true}), nabla {x, true}}")
    a_io = formula_to_automaton(io, POWERSET)
    a_ea = formula_to_automaton(ea, POWERSET)
    for s in ("s0", "s1"):
        P = PointedModel(M, s)
        assert accepts(a_io, P) and satisfies(P, io)
        assert not accepts(a_ea, P) and not satisfies(P, ea)


# --------------------------------------------------------------------------
# Automaton → formula


def test_round_trip_preserves_meaning_and_fragment():
    for src in ["p", "mu x. \\/{p, nabla {x, true}}", "~nabla {p}"]:
        f = pf(src)
        aut = formula_to_automaton(f, POWERSET)
        g = automaton_to_formula(aut)
        validate_monotone(g)
        assert is_guarded(g)
        assert equivalent_on_small_models(POWERSET, f, g, aut.props), src
        # the result stays inside the translatable fragment
        aut2 = formula_to_automaton(g, POWERSET, props=aut.props)
        for P in canonical_pointed_models(POWERSET, aut.props, 2):
            assert accepts(aut2, P) == satisfies(P, f), (src, P.point)


def test_random_automata_translate_to_equivalent_formulas():
    rng = random.Random(11)
    for F in (POWERSET, MONOTONE):
        for _ in range(6):
            aut = random_automaton(F, ("p",), rng)
            g = automaton_to_formula(aut)
            validate_monotone(g)
            for P in canonical_pointed_models(F, ("p",), 2):
                assert accepts(aut, PointedModel(P.model, P.point)) == satisfies(
                    P, g
                )
