"""Uniform interpolation: projection of formulas, bounded entailment."""

import importlib
import itertools
import pkgutil
import random

import pytest

from formula_corpus import (
    TRANSLATION_CORPUS,
    TWO_PROP_TRANSLATION,
    random_guarded_formula,
)
from helpers import (
    SHAPES,
    brute_entails_bounded,
    brute_eval_formula,
    canonical_codes,
    canonical_models,
    canonical_pointed_models,
    iterated_interpolant,
)

from nablamu import (
    BOT,
    IDENTITY,
    MONOTONE,
    POWERSET,
    TOP,
    CapExceeded,
    PointedModel,
    compose,
    eval_formula,
    free_props,
    mk_and,
    mk_neg,
    parse_formula,
    render_formula,
    satisfies,
    subst,
    up_to_p_bisimilar,
)
from nablamu import interpolation, logic
from nablamu.automata import nonemptiness_game, normalize
from nablamu.coalgebra import CodeSweep, ColoredModel
from nablamu.interpolation import (
    entails,
    entails_bounded,
    exists_p,
    uniform_interpolant,
)
from nablamu.logic import _eval_bits, _polarities
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


def test_exists_p_of_a_missing_prop_is_the_input():
    f = pf("nabla {q, true}")
    assert exists_p(f, "p", bound=2) is f


def test_uniform_interpolant_translates_once(monkeypatch):
    # one normalization and one merge hide every proposition
    calls = {"formula_to_automaton": 0, "normalize": 0, "automaton_to_formula": 0}

    def counted(name):
        fn = getattr(interpolation, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(interpolation, name, counted(name))
    f = pf("(p /\\ (q /\\ nabla {r, (p \\/ q), true}))")
    g = uniform_interpolant(f, ("r",), bound=2)
    assert calls == dict.fromkeys(calls, 1)
    assert equivalent(g, pf("nabla {r, true}"), ("r",))


def _random_draws(props, keep, hidden_at_least, per_shape, seed):
    """(F, f) for ``per_shape`` random translatable formulas per ``SHAPES``
    functor with at least ``hidden_at_least`` free propositions outside
    ``keep``."""
    rng = random.Random(seed)
    for F in SHAPES.values():
        found = 0
        while found < per_shape:
            f = random_guarded_formula(rng, F, props, 4)
            if len(free_props(f) - frozenset(keep)) < hidden_at_least:
                continue
            try:
                formula_to_automaton(f, functor=F)
            except UnsupportedFragment:
                continue
            found += 1
            yield F, f


def test_one_hidden_prop_is_the_iterated_projection():
    # with one hidden proposition the single projection is the old fold,
    # down to the hash-consed formula
    cases = 0
    for src in TRANSLATION_CORPUS:
        f = pf(src)
        for p in sorted(free_props(f)):
            keep = free_props(f) - {p}
            oracle = iterated_interpolant(f, keep)
            assert uniform_interpolant(f, keep) is oracle, src
            assert exists_p(f, p) is oracle, src
            cases += 1
    assert cases == 41
    for F, f in _random_draws(("p", "q"), ("q",), 1, 6, 2202):
        got = uniform_interpolant(f, ("q",), bound=2, functor=F)
        assert got is iterated_interpolant(f, ("q",), 2, F), render_formula(f)


def test_several_hidden_props_match_the_iterated_projection():
    # one projection of the whole hidden set against the fold that
    # re-translates after each proposition: equivalent, and never longer
    draws = [(POWERSET, pf(src), ()) for src in TWO_PROP_TRANSLATION]
    randoms = _random_draws(("p", "q", "r"), ("r",), 2, 12, 2203)
    draws += [(F, f, ("r",)) for F, f in randoms]
    for F, f, keep in draws:
        got = uniform_interpolant(f, keep, bound=2, functor=F)
        oracle = iterated_interpolant(f, keep, 2, F)
        assert free_props(got) <= frozenset(keep), render_formula(f)
        assert entails_bounded(got, oracle, 2, F) == (True, None), render_formula(f)
        assert entails_bounded(oracle, got, 2, F) == (True, None), render_formula(f)
        shorter = len(render_formula(got)) <= len(render_formula(oracle))
        assert shorter, render_formula(f)
    assert len(draws) == 10 + 12 * len(SHAPES)


def test_single_polarity_projection_is_a_substitution(monkeypatch):
    # where p occurs only positively, ∃p.f ≡ f[⊤/p]: recoloring every state
    # with p is a bisimulation up to p, f is monotone in p, and f[⊤/p] is
    # p-free; dually f[⊥/p] where p occurs only negatively
    swept = []
    sweep = interpolation.entails_bounded

    def counted(*args, **kwargs):
        swept.append(args)
        return sweep(*args, **kwargs)

    # a holding entailment reaches the sweep only where the game cannot decide
    monkeypatch.setattr(interpolation, "entails_bounded", counted)
    cases = single = 0
    for src in TRANSLATION_CORPUS:
        f = pf(src)
        for p in sorted(free_props(f)):
            cases += 1
            pols = set()
            _polarities(f, p, True, pols)
            if len(pols) != 1:
                continue
            single += 1
            g = exists_p(f, p)
            s = subst(f, p, TOP if True in pols else BOT)
            assert entails(g, s, functor=POWERSET) == (True, None), (src, p)
            assert entails(s, g, functor=POWERSET) == (True, None), (src, p)
    decided = 2 * single - len(swept)
    assert (cases, single) == (41, 38)
    assert decided >= 48, decided


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
    sizes = []
    views = interpolation._tuple_views

    def counting(F, props, n):
        sizes.append(n)
        return views(F, props, n)

    monkeypatch.setattr(interpolation, "_tuple_views", counting)
    ok, cm = entails_bounded(pf("q"), pf("(p /\\ q)"), 3)
    assert not ok and cm.model.props == ("p", "q")
    assert satisfies(cm, pf("(q /\\ ~p)"))
    assert sizes == [1]


def _largest_swept_size(F, props):
    n = 1
    while True:
        try:
            CodeSweep(F, props, n + 1)
        except CapExceeded:
            return n
        n += 1


def test_entails_bounded_matches_per_model_sweep():
    # every 7th ordered corpus pair at 3 states; a holding two-prop pair
    # sweeps the 32,768 code tuples of that size (5,728 models up to
    # isomorphism) in one view
    formulas = [pf(src) for src in TRANSLATION_CORPUS]
    held_two_prop = failed = 0
    for a, b in list(itertools.product(formulas, repeat=2))[::7]:
        got = entails_bounded(a, b, 3)
        assert got == brute_entails_bounded(a, b, 3), (a, b)
        held_two_prop += got[0] and len(set(free_props(a)) | set(free_props(b))) == 2
        failed += not got[0]
    assert held_two_prop > 0 and failed > 0
    # random guarded formulas over every shape, swept to the largest size
    # under the cap; const gets two props, because with one it allows 9
    # states, whose enumeration alone takes about a minute
    rng = random.Random(10)
    for name, F in SHAPES.items():
        props = ("p", "q") if name == "const" else ("p",)
        n = _largest_swept_size(F, props)
        for _ in range(10):
            a = random_guarded_formula(rng, F, props, 3)
            b = random_guarded_formula(rng, F, props, 3)
            got = entails_bounded(a, b, n, F)
            assert got == brute_entails_bounded(a, b, n, F), (name, a, b)


def _counting_eval_bits(monkeypatch):
    """Record the size of every view the sweep evaluates."""
    evaluated = []

    def counting(view, f, env):
        evaluated.append(view.size)
        return _eval_bits(view, f, env)

    monkeypatch.setattr(interpolation, "_eval_bits", counting)
    return evaluated


def test_entails_bounded_slice_boundaries(monkeypatch):
    # refuted first by 3-state tuple 501 (of 32,768), at its last state only,
    # so the point must be mapped back right
    a = pf("(p /\\ nabla {(~p /\\ (q /\\ nabla {(~p /\\ ~q)}))})")
    ok, expected = brute_entails_bounded(a, BOT, 3)
    M = expected.model
    assert not ok and expected.point == M.states[-1] == "s2"
    assert eval_formula(M, a) == {"s2"}
    evaluated = _counting_eval_bits(monkeypatch)
    # the countermodel first, in the middle and last in the second slice
    for K in (501, 300, 251):
        monkeypatch.setattr(logic, "_SLICE", K)
        evaluated.clear()
        got = entails_bounded(a, BOT, 3)
        assert got == (False, expected) and got[1].model == M, K
        # sizes 1 (8 tuples) and 2 (256 tuples) whole, in slices of K, then
        # the first two slices of size 3, and none after the countermodel's
        swept = {1: 8, 2: 256, 3: 2 * K}
        assert evaluated == [
            n * min(K, count - start)
            for n, count in swept.items()
            for start in range(0, count, K)
        ], K


def test_entails_bounded_evaluates_each_slice_once(monkeypatch):
    evaluated = _counting_eval_bits(monkeypatch)
    a, b = pf("nabla {p}"), pf("nabla {p, true}")
    # sizes of 4, 64 and 4,096 tuples with one proposition over powerset
    tuples = [4, 64, 4096]
    for K in (logic._SLICE, 100):
        monkeypatch.setattr(logic, "_SLICE", K)
        evaluated.clear()
        assert entails_bounded(a, b, 3) == (True, None)
        expected = [
            n * min(K, count - start)
            for n, count in enumerate(tuples, 1)
            for start in range(0, count, K)
        ]
        assert evaluated == expected, K


def test_tuple_view_masks_match_every_tuple():
    # each atom and each "state i has structure t" selector of a view, at
    # 2 states, against the tuples decoded one by one; the slices of 7 cut
    # across every digit's period
    for name, F in SHAPES.items():
        props = ("p",) if name in ("product", "comp") else ("p", "q")
        sweep = CodeSweep(F, props, 2)
        total = sweep.radix**2
        for start, count in [(0, total)] + [(s, min(7, total - s)) for s in range(0, total, 7)]:
            view = logic._TupleView(sweep, start, count)
            codes = [divmod(m, sweep.radix) for m in range(start, start + count)]
            for p in props:
                naive = sum(
                    1 << i * count + k
                    for k, code in enumerate(codes)
                    for i in range(2)
                    if p in sweep.gamma_of(code[i])
                )
                assert view.atoms[p] == naive, (name, start, p)
            for r, (t, rows) in enumerate(zip(sweep.elems, view.selectors)):
                for i, row in enumerate(rows):
                    naive = sum(
                        1 << k for k, code in enumerate(codes) if sweep.sigma_of(code[i]) == t
                    )
                    assert row == naive, (name, start, r, i)


def test_entails_bounded_enumerates_no_classes(monkeypatch):
    import nablamu

    calls = []
    codes = canonical_codes

    def counting(*args):
        calls.append(args)
        return codes(*args)

    for info in pkgutil.iter_modules(nablamu.__path__, "nablamu."):
        module = importlib.import_module(info.name)
        for name, value in list(vars(module).items()):
            if value is codes:
                monkeypatch.setattr(module, name, counting)
    assert entails_bounded(pf("(p /\\ q)"), pf("p"), 3) == (True, None)
    assert entails_bounded(pf("nabla {p}"), pf("nabla {p, true}"), 3) == (True, None)
    assert calls == []


# a holding pair and a refuted one per functor, refuted by a 2-state model
# that is not the first tuple of its size
SWEEP_BUILD_CASES = [
    (
        POWERSET,
        ("nabla {nabla {p}}", "mu x. (p \\/ nabla {x})"),
        ("nabla {nabla {p}, q}", "nabla {p, true}"),
    ),
    (
        MONOTONE,
        ("nabla {{p}}", "mu x. (p \\/ nabla {{x}})"),
        ("nabla {{nabla {{p}}}}", "nabla {{p}}"),
    ),
    (
        SHAPES["product"],
        ("nabla ({p}, const:a)", "mu x. (p \\/ nabla ({x}, const:a))"),
        ("nabla ({nabla ({p}, const:b)}, const:a)", "nabla ({p}, const:a)"),
    ),
]


@pytest.mark.parametrize("F, holding, refuted", SWEEP_BUILD_CASES)
def test_entails_bounded_builds_only_the_countermodel(monkeypatch, F, holding, refuted):
    import nablamu
    import nablamu.coalgebra as coalgebra

    a, b = (parse_formula(src, F) for src in refuted)
    ok, expected = brute_entails_bounded(a, b, 3, F)
    n = len(expected.model.states)
    models = canonical_models(F, expected.model.props, n)
    i = models.index(expected.model)
    # a later model than the first, whose tuple (0, …, 0) is its class's least
    assert not ok and n == 2 and i > 0
    built, unions = [], []
    unchecked = ColoredModel._unchecked.__func__
    checked = ColoredModel.__post_init__

    def counted_unchecked(cls, *args):
        built.append(args)
        return unchecked(cls, *args)

    def counted_checked(self):
        built.append(self)
        checked(self)

    def no_union(*args):
        unions.append(args)
        raise AssertionError("the sweep built a coproduct")

    monkeypatch.setattr(ColoredModel, "_unchecked", classmethod(counted_unchecked))
    monkeypatch.setattr(ColoredModel, "__post_init__", counted_checked)
    union = coalgebra.coproduct
    for info in pkgutil.iter_modules(nablamu.__path__, "nablamu."):
        module = importlib.import_module(info.name)
        for name, value in list(vars(module).items()):
            if value is union:
                monkeypatch.setattr(module, name, no_union)
    h_a, h_b = (parse_formula(src, F) for src in holding)
    assert entails_bounded(h_a, h_b, 3, F) == (True, None)
    assert built == [] and unions == []
    got = entails_bounded(a, b, 3, F)
    assert got == (False, PointedModel(models[i], expected.point))
    assert len(built) == 1 and unions == []


# --------------------------------------------------------------------------
# Exact entailment by the nonemptiness game

# fails, but only on models of more than 3 states: the 4-state chain
# s→t→u→v with a loop on v and p true only at v is a countermodel
DEEP_PAIR = (
    "mu x. nu y. nabla {\\/{(p /\\ y), x}, true}",
    "nabla {nabla {p, true}, true}",
)


def refutes(P, a, b) -> bool:
    """Whether the pointed model satisfies a ∧ ¬b under both evaluators."""
    witness = mk_and(a, mk_neg(b))
    return (
        P.point in eval_formula(P.model, witness)
        and P.point in brute_eval_formula(P.model, witness)
    )


def test_entails_refutes_beyond_the_sweep():
    a, b = (pf(src) for src in DEEP_PAIR)
    # the oracle's known blind spot: no countermodel of at most 3 states
    assert entails_bounded(a, b, 3) == (True, None)
    ok, P = entails(a, b, 3)
    assert not ok and len(P.model.states) > 3
    assert refutes(P, a, b)


def test_entails_agrees_with_the_sweep_on_the_corpus():
    # every other ordered pair of the translation corpus
    formulas = [pf(src) for src in TRANSLATION_CORPUS]
    pairs = list(itertools.product(formulas, repeat=2))[::2]
    beyond = 0
    for a, b in pairs:
        got, oracle = entails(a, b, 2), entails_bounded(a, b, 2)
        if not oracle[0]:
            assert got == oracle, (a, b)
        elif not got[0]:
            assert refutes(got[1], a, b), (a, b)
            beyond += 1
    assert beyond > 0


def test_normalized_initial_cells_match_the_nonemptiness_game():
    # ``entails`` reads emptiness off the normalized automaton: its initial
    # state keeps an element iff E wins that state in the nonemptiness game,
    # on every ordered pair of the translation corpus whose a ∧ ¬b translates
    formulas = [pf(src) for src in TRANSLATION_CORPUS]
    seen = {True: 0, False: 0}
    for a, b in itertools.product(formulas, repeat=2):
        props = tuple(sorted(set(free_props(a)) | set(free_props(b))))
        witness = mk_and(a, mk_neg(b))
        try:
            aut = formula_to_automaton(witness, functor=POWERSET, props=props)
        except UnsupportedFragment:
            continue
        aut = normalize(aut)
        kept = any(q == aut.initial for (q, _), _ in aut.delta)
        arena, sol = nonemptiness_game(aut)
        assert kept == (arena.index(("state", aut.initial)) in sol.win_e), (a, b)
        seen[kept] += 1
    assert seen[True] > 0 and seen[False] > 0


def test_entails_outside_the_fragment_is_the_sweep():
    untranslatable = [
        (pf("mu x. (p \\/ nabla {x})"), pf("mu x. (p \\/ nabla {x, true})")),
        (pf("mu x. (p \\/ nabla {x, true})"), pf("mu x. (q \\/ nabla {x})")),
        (parse_formula("nabla {{p}}", MONOTONE), parse_formula("p", MONOTONE)),
        (parse_formula("nabla {{p, q}}", MONOTONE), parse_formula("nabla {{p}}", MONOTONE)),
        (parse_formula("p", IDENTITY), parse_formula("nabla id: p", IDENTITY)),
        (
            parse_formula("mu x. (p \\/ nabla id: x)", IDENTITY),
            parse_formula("nabla id: p", IDENTITY),
        ),
    ]
    for a, b in untranslatable[:2]:
        with pytest.raises(UnsupportedFragment):
            formula_to_automaton(mk_and(a, mk_neg(b)), functor=POWERSET)
    for a, b in untranslatable:
        for n in (1, 2):
            assert entails(a, b, n) == entails_bounded(a, b, n), (a, b, n)
    # a modality-free pair over a functor given explicitly is swept too
    a, b = pf("(p \\/ q)"), pf("p")
    assert entails(a, b, 2, MONOTONE) == entails_bounded(a, b, 2, MONOTONE)


def test_entails_is_exact_for_every_functorial_lifting():
    comp = compose(POWERSET, POWERSET)
    cases = [
        # a is satisfiable, but only in models of at least four states
        (comp, "nabla {{nabla {{nabla {}, true}}, nu z. nabla {{z}}}}", "p", 2),
        # every identity model of nabla id: p /\ ~p has two states
        (IDENTITY, "nabla id: p", "p", 1),
    ]
    for F, a_src, b_src, n in cases:
        a, b = parse_formula(a_src, F), parse_formula(b_src, F)
        assert entails_bounded(a, b, n, F) == (True, None)
        ok, P = entails(a, b, n, F)
        assert not ok and len(P.model.states) > n
        assert refutes(P, a, b), F


def test_exact_holds_sweeps_no_models(monkeypatch):
    import nablamu.automata as automata
    import nablamu.coalgebra as coalgebra
    import nablamu.interpolation as interpolation

    calls = []

    def counting(fn):
        def counted(*args):
            calls.append(args)
            return fn(*args)

        return counted

    # every binding of the sweep's one entry, and of the enumeration and its models
    for module in (logic, interpolation, automata):
        monkeypatch.setattr(module, "_tuple_views", counting(module._tuple_views))
    for module in (coalgebra, automata, interpolation):
        for name in ("canonical_codes", "canonical_models"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(getattr(module, name)))
    a, b = pf("nabla {p}"), pf("mu x. (p \\/ nabla {x, true})")
    assert entails(a, b, 3) == (True, None)
    assert calls == []


def test_exact_holds_raises_the_sweeps_cap_error():
    a, b = pf("(p /\\ q)"), pf("p")
    with pytest.raises(CapExceeded) as swept:
        entails_bounded(a, b, 4)
    with pytest.raises(CapExceeded) as exact:
        entails(a, b, 4)
    assert str(exact.value) == str(swept.value)
    assert entails(a, b, 3) == (True, None)


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
