"""Uniform interpolation: projection of formulas, bounded entailment."""

import itertools

import pytest

from formula_corpus import TRANSLATION_CORPUS

from nablamu import (
    MONOTONE,
    POWERSET,
    canonical_models,
    canonical_pointed_models,
    free_props,
    mk_and,
    mk_neg,
    parse_formula,
    satisfies,
    up_to_p_bisimilar,
)
from nablamu.interpolation import entails_bounded, exists_p, uniform_interpolant
from nablamu.projection import construct_projection_witness
from nablamu.translation import UnsupportedFragment, formula_to_automaton


def pf(src: str):
    return parse_formula(src, POWERSET)


def equivalent(f, g, props, max_states=2, F=POWERSET):
    return all(
        satisfies(P, f) == satisfies(P, g)
        for P in canonical_pointed_models(F, tuple(props), max_states)
    )


# --------------------------------------------------------------------------
# Projection of single propositions


def test_exists_p_of_p_is_true():
    g = exists_p(pf("p"), "p", bound=2)
    assert equivalent(g, pf("true"), ())
    assert equivalent(g, pf("true"), ("q",))


def test_exists_p_keeps_other_props():
    g = exists_p(pf("q"), "p", bound=2)
    assert equivalent(g, pf("q"), ("q",))


def test_exists_p_drops_one_conjunct():
    g = exists_p(pf("(p /\\ q)"), "p", bound=2)
    assert equivalent(g, pf("q"), ("q",))


def test_exists_p_of_contradiction_is_false():
    g = exists_p(pf("(p /\\ ~p)"), "p", bound=2)
    assert equivalent(g, pf("false"), ())


def test_exists_p_under_modality():
    # ∃p. ∇{p} holds exactly when the successor set is nonempty
    g = exists_p(pf("nabla {p}"), "p", bound=2)
    assert equivalent(g, pf("nabla {true}"), (), max_states=3)


def test_exists_p_monotone():
    g = exists_p(parse_formula("nabla {{p}}", MONOTONE), "p", bound=2)
    assert equivalent(
        g, parse_formula("nabla {{true}}", MONOTONE), (), max_states=2, F=MONOTONE
    )


def test_exists_p_unsupported_fragment():
    # two modal conjuncts with fixpoint variables couple after one unfolding
    f = pf("mu x. ((nabla {x} /\\ nabla {x, true}) \\/ p)")
    with pytest.raises(UnsupportedFragment):
        exists_p(f, "p", bound=2)


# --------------------------------------------------------------------------
# Uniform interpolants


def test_uniform_interpolant_keep_all_is_input():
    f = pf("(p /\\ q)")
    assert uniform_interpolant(f, ("p", "q"), bound=2) is f


def test_uniform_interpolant_two_props():
    f = pf("(p /\\ (q \\/ r))")
    g = uniform_interpolant(f, ("q", "r"), bound=2)
    assert equivalent(g, pf("(q \\/ r)"), ("q", "r"))


def test_uniform_interpolant_empty_vocabulary():
    g = uniform_interpolant(pf("(p \\/ ~p)"), (), bound=2)
    assert equivalent(g, pf("true"), ())


# --------------------------------------------------------------------------
# Bounded entailment


def test_entails_bounded_holds():
    ok, cm = entails_bounded(pf("(p /\\ q)"), pf("p"), 2)
    assert ok and cm is None


def test_entails_bounded_countermodel():
    ok, cm = entails_bounded(pf("(p \\/ q)"), pf("p"), 2)
    assert not ok
    assert satisfies(cm, pf("q")) and not satisfies(cm, pf("p"))


def test_entails_bounded_modal():
    ok, cm = entails_bounded(pf("nabla {p}"), pf("nabla {p, true}"), 2)
    # ∇{p} forces a nonempty all-p successor set, which ∇{p, true} allows
    assert ok and cm is None


def test_entails_bounded_returns_the_first_countermodel():
    # the countermodel is the first point of the ≤ 2-state sweep satisfying
    # a ∧ ¬b, on every ordered pair of the translation corpus
    formulas = [pf(src) for src in TRANSLATION_CORPUS]
    held = 0
    for a, b in itertools.product(formulas, repeat=2):
        props = tuple(sorted(set(free_props(a)) | set(free_props(b))))
        witness = mk_and(a, mk_neg(b))
        first = next(
            (
                P
                for P in canonical_pointed_models(POWERSET, props, 2)
                if satisfies(P, witness)
            ),
            None,
        )
        expected = (True, None) if first is None else (False, first)
        assert entails_bounded(a, b, 2) == expected, (a, b)
        held += first is None
    assert 0 < held < len(formulas) ** 2


def test_entails_bounded_stops_at_the_first_countermodel(monkeypatch):
    import nablamu.interpolation as interpolation

    sizes = []

    def counting(F, props, n):
        sizes.append(n)
        return canonical_models(F, props, n)

    monkeypatch.setattr(interpolation, "canonical_models", counting)
    ok, cm = entails_bounded(pf("q"), pf("(p /\\ q)"), 3)
    assert not ok and cm.model.props == ("p", "q")
    assert satisfies(cm, pf("(q /\\ ~p)"))
    assert sizes == [1]


# --------------------------------------------------------------------------
# Interpolants are sound and complete on bounded models


INTERP_CORPUS = [
    "p",
    "(p /\\ q)",
    "(p \\/ q)",
    "nabla {p}",
    "nabla {(p \\/ q), true}",
    "(q /\\ nabla {p})",
    "mu x. (p \\/ nabla {x})",
]


def test_exists_p_bounded_oracle():
    small_q = canonical_pointed_models(POWERSET, ("q",), 2)
    small_pq = canonical_pointed_models(POWERSET, ("p", "q"), 2)
    for src in INTERP_CORPUS:
        f = pf(src)
        g = exists_p(f, "p", bound=2)
        aut = formula_to_automaton(f, functor=POWERSET)
        # soundness: f entails its interpolant
        ok, cm = entails_bounded(f, g, 2)
        assert ok, (src, cm)
        # completeness: each small model of g extends to a model of f,
        # and no small model falsifying g has a p-variant satisfying f
        sat_f = [pm2 for pm2 in small_pq if satisfies(pm2, f)]
        shown, refuted = 0, 0
        for pm in small_q:
            if satisfies(pm, g):
                if shown >= 3:
                    continue
                out = construct_projection_witness(aut, pm, "p", bound=2)
                assert satisfies(out, f), src
                assert up_to_p_bisimilar(pm, out, "p"), src
                shown += 1
            elif refuted < 4:
                for pm2 in sat_f:
                    assert not up_to_p_bisimilar(pm, pm2, "p"), (src, pm, pm2)
                refuted += 1
