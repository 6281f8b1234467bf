"""Models, morphisms, bisimulations, coproducts, canonical enumeration."""

import itertools
import random

import pytest

from nablamu import (
    MONOTONE,
    POWERSET,
    CapExceeded,
    ColoredModel,
    PointedModel,
    canonical_models,
    canonical_pointed_models,
    constant,
    greatest_bisimulation,
    is_bisimulation,
    is_morphism,
    model_coproduct,
    parse_model,
    product,
    project_model,
    random_model,
    render_model,
    up_to_p_bisimilar,
)
from nablamu.parsing import ParseError

fs = frozenset


def kripke(sigma, gamma, props=None):
    return ColoredModel.make(
        POWERSET,
        {s: fs(ts) for s, ts in sigma.items()},
        {s: fs(c) for s, c in gamma.items()},
        props=props,
    )


TWO_CYCLE = kripke({"a": {"b"}, "b": {"a"}}, {"a": {"p"}, "b": {"p"}})
LOOP = kripke({"u": {"u"}}, {"u": {"p"}})


def test_model_validation():
    with pytest.raises(ValueError):
        ColoredModel(POWERSET, ("p",), ("s",), (fs({"t"}),), (fs(),))
    with pytest.raises(ValueError):
        ColoredModel(POWERSET, ("p",), ("s",), (fs(),), (fs({"q"}),))
    with pytest.raises(ValueError):
        ColoredModel(POWERSET, ("p",), ("s", "s"), (fs(), fs()), (fs(), fs()))
    with pytest.raises(ValueError):
        PointedModel(LOOP, "nowhere")


def test_is_morphism():
    f = {"a": "u", "b": "u"}
    assert is_morphism(f, TWO_CYCLE, LOOP)
    g = kripke({"u": {"u"}}, {"u": set()}, props={"p"})
    assert not is_morphism(f, TWO_CYCLE, g)
    assert is_morphism(f, TWO_CYCLE, g, preserve_colors=False)
    assert not is_morphism({"a": "u"}, TWO_CYCLE, LOOP)


def test_is_bisimulation_basic():
    R = {("a", "u"), ("b", "u")}
    assert is_bisimulation(R, TWO_CYCLE, LOOP)
    assert not is_bisimulation({("a", "u")}, TWO_CYCLE, LOOP)
    dead = kripke({"u": set()}, {"u": {"p"}})
    assert not is_bisimulation({("a", "u")}, TWO_CYCLE, dead)
    # ignoring p, differently-colored loops become bisimilar
    plain = kripke({"u": {"u"}}, {"u": set()}, props={"p"})
    assert not is_bisimulation({("u", "u")}, LOOP, plain)
    assert is_bisimulation({("u", "u")}, LOOP, plain, Q=set())


def test_greatest_bisimulation_is_bisimulation_and_greatest():
    rng = random.Random(5)
    for F in (POWERSET, MONOTONE):
        for _ in range(12):
            M1 = random_model(F, ("p",), rng.randint(1, 3), rng)
            M2 = random_model(F, ("p",), rng.randint(1, 3), rng)
            R = greatest_bisimulation(M1, M2)
            assert is_bisimulation(R, M1, M2)
            # union of every bisimulation, by full enumeration
            pairs = [(s, t) for s in M1.states for t in M2.states]
            union = set()
            for r in range(len(pairs) + 1):
                for Z in itertools.combinations(pairs, r):
                    if is_bisimulation(fs(Z), M1, M2):
                        union |= set(Z)
            assert R.pairs == union


def test_bisimulations_compose():
    rng = random.Random(6)
    for _ in range(15):
        M1 = random_model(POWERSET, ("p",), rng.randint(1, 3), rng)
        M2 = random_model(POWERSET, ("p",), rng.randint(1, 3), rng)
        M3 = random_model(POWERSET, ("p",), rng.randint(1, 3), rng)
        R1 = greatest_bisimulation(M1, M2)
        R2 = greatest_bisimulation(M2, M3)
        assert is_bisimulation(R1.compose(R2), M1, M3)


def test_greatest_bisimulation_antitone_in_q():
    rng = random.Random(7)
    for _ in range(10):
        M1 = random_model(POWERSET, ("p", "q"), 3, rng)
        M2 = random_model(POWERSET, ("p", "q"), 3, rng)
        big = greatest_bisimulation(M1, M2, Q={"p", "q"})
        small = greatest_bisimulation(M1, M2, Q={"p"})
        assert big.pairs <= small.pairs


def test_refinement_terminates_quickly():
    rng = random.Random(8)
    for _ in range(10):
        M1 = random_model(POWERSET, ("p",), 3, rng)
        M2 = random_model(POWERSET, ("p",), 3, rng)
        _, steps = greatest_bisimulation(M1, M2, with_steps=True)
        assert steps <= len(M1.states) * len(M2.states)


def test_is_bisimulation_rejects_pairs_outside_the_models():
    assert not is_bisimulation({("zz", "a")}, TWO_CYCLE, TWO_CYCLE)
    assert not is_bisimulation({("a", "zz")}, TWO_CYCLE, TWO_CYCLE)
    assert not is_bisimulation({("a", "a"), ("b", "b"), ("a", "u")}, TWO_CYCLE, TWO_CYCLE)


def chain(colors, names):
    """The powerset chain c0 -> c1 -> ... -> deadlock, position c named
    ``names[c]`` and colored ``colors[c]``."""
    n = len(colors)
    return ColoredModel.make(
        POWERSET,
        {names[c]: fs(names[c + 1 : c + 2]) for c in range(n)},
        {names[c]: fs(colors[c]) for c in range(n)},
        props=("p", "q"),
    )


def chain_pairs(n=150):
    """Chains colored periodically by three colors, where positions are
    bisimilar only if their distances to the end agree: the chain against a
    renamed copy, against itself with q flipped a sixth of the way along,
    and the flipped pair again with q disregarded.  Yields (M1, M2, Q)."""
    word = (("p",), ("q",), ("p", "q"))
    colors = [word[i % 3] for i in range(n)]
    flipped = list(colors)
    flipped[n // 6] = tuple(sorted(set(colors[n // 6]) ^ {"q"}))
    names = [f"c{i}" for i in range(n)]
    shuffled = list(names)
    random.Random(12).shuffle(shuffled)
    a = chain(colors, names)
    yield a, chain(colors, shuffled), None
    yield a, chain(flipped, names), None
    yield a, chain(flipped, names), {"p"}


def test_greatest_bisimulation_matches_relation_refinement():
    from helpers import SHAPES, brute_greatest_bisimulation

    rng = random.Random(13)
    pairs = [
        tuple(random_model(F, ("p", "q"), rng.randint(1, 4), rng) for _ in range(2))
        for F in SHAPES.values()
        for _ in range(25)
    ]
    # random_model names the states of both models s0, s1, ...
    assert all(set(M1.states) & set(M2.states) for M1, M2 in pairs)
    cases = [(M1, M2, Q) for M1, M2 in pairs for Q in (None, (), ("p",))]
    sizes = []
    for M1, M2, Q in [*cases, *chain_pairs()]:
        R = greatest_bisimulation(M1, M2, Q)
        assert R == brute_greatest_bisimulation(M1, M2, Q)
        assert is_bisimulation(R, M1, M2, Q)
        sizes.append(len(R.pairs) / (len(M1.states) * len(M2.states)))
    assert 0 in sizes and 1 in sizes and any(0 < x < 1 for x in sizes)


def test_refinement_rounds_stay_below_the_union_size():
    for M1, M2, Q in chain_pairs():
        _, steps = greatest_bisimulation(M1, M2, Q, with_steps=True)
        assert steps < len(M1.states) + len(M2.states)


def test_project_model():
    M = kripke({"a": {"a"}}, {"a": {"p", "q"}})
    N = project_model(M, {"q"})
    assert N.props == ("q",)
    assert N.gamma_of("a") == {"q"}


def test_up_to_p_bisimilar():
    M1 = kripke({"a": {"a"}}, {"a": {"p", "q"}})
    M2 = kripke({"u": {"u"}}, {"u": {"q"}}, props={"q"})
    assert up_to_p_bisimilar(PointedModel(M1, "a"), PointedModel(M2, "u"), "p")
    assert not up_to_p_bisimilar(PointedModel(M1, "a"), PointedModel(M2, "u"), "q")


def test_coproduct_injections_are_morphisms():
    big, (i1, i2) = model_coproduct([TWO_CYCLE, LOOP])
    assert is_morphism(i1, TWO_CYCLE, big)
    assert is_morphism(i2, LOOP, big)
    # every state is bisimilar to its image
    R = greatest_bisimulation(TWO_CYCLE, big)
    assert all((s, i1[s]) in R for s in TWO_CYCLE.states)


def test_canonical_models_counts_and_coverage():
    # 1-state powerset models over one prop: sigma in {{}, {s0}}, gamma in {0, {p}}
    assert len(canonical_models(POWERSET, ("p",), 1)) == 4
    ms = canonical_models(POWERSET, ("p",), 2)
    assert all(len(M.states) == 2 for M in ms)
    # every 2-state model is isomorphic to exactly one canonical representative
    rng = random.Random(9)
    for _ in range(20):
        M = random_model(POWERSET, ("p",), 2, rng)
        hits = []
        for C in ms:
            for perm in itertools.permutations(C.states):
                f = dict(zip(M.states, perm))
                if is_morphism(f, M, C) and is_morphism(
                    {v: k for k, v in f.items()}, C, M
                ):
                    hits.append(C)
                    break
        assert len(hits) == 1
    assert canonical_pointed_models(POWERSET, ("p",), 1) == [
        PointedModel(M, "s0") for M in canonical_models(POWERSET, ("p",), 1)
    ]


@pytest.mark.parametrize(
    "F,props,max_n",
    [
        (POWERSET, (), 3),
        (POWERSET, ("p",), 3),
        (POWERSET, ("p", "q"), 3),
        (MONOTONE, (), 3),
        (MONOTONE, ("p",), 3),
        (product(POWERSET, constant(["a", "b"])), ("p",), 2),
    ],
)
def test_canonical_models_match_relabeling_reference(F, props, max_n):
    from helpers import brute_canonical_models

    for n in range(1, max_n + 1):
        assert canonical_models(F, props, n) == brute_canonical_models(F, props, n)


def test_canonical_models_refuses_sweeps_beyond_the_cap():
    # 16^4 successor sets times 2^4 colorings is just over DEFAULT_CAP
    with pytest.raises(CapExceeded):
        canonical_models(POWERSET, ("p",), 4)


def test_model_text_round_trip():
    rng = random.Random(10)
    from helpers import SHAPES

    for F in SHAPES.values():
        for _ in range(6):
            M = random_model(F, ("p", "q"), rng.randint(1, 3), rng)
            text = render_model(M)
            M2 = parse_model(text)
            assert render_model(M2) == text
            P = PointedModel(M, M.states[0])
            P2 = parse_model(render_model(P))
            assert isinstance(P2, PointedModel)
            assert render_model(P2) == render_model(P)


def test_model_text_example():
    text = (
        "functor powerset;\n"
        "props {p};\n"
        "state s0; sigma {s0, s1}; gamma {p};\n"
        "state s1; sigma {}; gamma {};\n"
        "point s0;\n"
    )
    P = parse_model(text)
    assert isinstance(P, PointedModel)
    assert P.point == "s0"
    assert P.model.sigma_of("s0") == {"s0", "s1"}
    assert render_model(P) == text


def test_model_text_errors():
    with pytest.raises(ParseError):
        parse_model("props {p};")
    with pytest.raises(ParseError):
        parse_model("functor powerset; props {p}; state s0; sigma {s1}; gamma {};")
    with pytest.raises(ParseError):
        parse_model(
            "functor powerset; props {p}; state s0; sigma {}; gamma {}; point s9;"
        )


def test_monotone_bisimulation_example():
    # {{a}} vs {{a},{b}} with a, b bisimilar collapses
    M1 = ColoredModel.make(
        MONOTONE,
        {"a": fs({fs({"a"})}), "b": fs({fs({"a"})})},
        {"a": fs(), "b": fs()},
        props=("p",),
    )
    M2 = ColoredModel.make(
        MONOTONE,
        {"u": fs({fs({"u"})})},
        {"u": fs()},
        props=("p",),
    )
    R = greatest_bisimulation(M1, M2)
    assert ("a", "u") in R and ("b", "u") in R
