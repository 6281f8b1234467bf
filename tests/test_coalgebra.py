"""Models, morphisms, bisimulations, coproducts, canonical enumeration."""

import itertools
import random

import pytest

from nablamu import (
    IDENTITY,
    MONOTONE,
    POWERSET,
    CapExceeded,
    ColoredModel,
    PointedModel,
    compose,
    constant,
    coproduct,
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
from nablamu.coalgebra import CodeSweep
from nablamu.functors import DEFAULT_CAP, enumerate_t
from nablamu.parsing import ParseError

from helpers import SHAPES, canonical_models, canonical_pointed_models

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
            assert R == union


def test_bisimulations_compose():
    rng = random.Random(6)
    for _ in range(15):
        M1 = random_model(POWERSET, ("p",), rng.randint(1, 3), rng)
        M2 = random_model(POWERSET, ("p",), rng.randint(1, 3), rng)
        M3 = random_model(POWERSET, ("p",), rng.randint(1, 3), rng)
        R1 = greatest_bisimulation(M1, M2)
        R2 = greatest_bisimulation(M2, M3)
        composite = {(x, z) for x, y in R1 for y2, z in R2 if y == y2}
        assert is_bisimulation(composite, M1, M3)


def test_greatest_bisimulation_antitone_in_q():
    rng = random.Random(7)
    for _ in range(10):
        M1 = random_model(POWERSET, ("p", "q"), 3, rng)
        M2 = random_model(POWERSET, ("p", "q"), 3, rng)
        big = greatest_bisimulation(M1, M2, Q={"p", "q"})
        small = greatest_bisimulation(M1, M2, Q={"p"})
        assert big <= small


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
        sizes.append(len(R) / (len(M1.states) * len(M2.states)))
    assert 0 in sizes and 1 in sizes and any(0 < x < 1 for x in sizes)


def test_refinement_rounds_stay_below_the_union_size():
    for M1, M2, Q in chain_pairs():
        _, steps = greatest_bisimulation(M1, M2, Q, with_steps=True)
        assert steps < len(M1.states) + len(M2.states)


def ring(n=1000, seed=14):
    """A powerset ring i -> i+1 with short forward chords and a few back
    edges, p on about every 40th state and q on most.  Returns its
    successor lists and colors by position."""
    rng = random.Random(seed)
    succ = [
        {(i + 1) % n}
        | ({(i + rng.randint(2, 5)) % n} if rng.random() < 0.5 else set())
        | ({(i - rng.randint(1, 6)) % n} if rng.random() < 0.1 else set())
        for i in range(n)
    ]
    colors = [
        {x for x, share in (("p", 0.025), ("q", 0.8)) if rng.random() < share}
        for _ in range(n)
    ]
    return succ, colors


def ring_model(succ, colors, names):
    """The ring with position i named ``names[i]``, its states declared in
    the order of their names."""
    return ColoredModel.make(
        POWERSET,
        {names[i]: fs(names[j] for j in ts) for i, ts in enumerate(succ)},
        {names[i]: fs(c) for i, c in enumerate(colors)},
        props=("p", "q"),
    )


def test_greatest_bisimulation_matches_round_refinement():
    from helpers import SHAPES, round_refinement

    rng = random.Random(15)
    cases = [
        (*(random_model(F, ("p", "q"), rng.randint(1, 4), rng) for _ in range(2)), Q)
        for F in SHAPES.values()
        for _ in range(25)
        for Q in (None, (), ("p",))
    ]
    succ, colors = ring()
    names = [f"r{i}" for i in range(len(succ))]
    shuffled = list(names)
    rng.shuffle(shuffled)
    recolored = list(colors)
    recolored[len(colors) // 3] = colors[len(colors) // 3] ^ {"p"}
    a = ring_model(succ, colors, names)
    rings = [
        (a, ring_model(succ, colors, shuffled), None),
        (a, ring_model(succ, recolored, names), None),
    ]
    steps = []
    for M1, M2, Q in [*cases, *chain_pairs(), *rings]:
        got = greatest_bisimulation(M1, M2, Q, with_steps=True)
        assert got == round_refinement(M1, M2, Q)
        steps.append(got[1])
    assert max(steps[-2:]) > 10


def test_refinement_resigns_only_predecessors_of_moved_states(monkeypatch):
    import nablamu.coalgebra as coalgebra

    calls = 0
    t_map = coalgebra.t_map

    def counting(*args):
        nonlocal calls
        calls += 1
        return t_map(*args)

    monkeypatch.setattr(coalgebra, "t_map", counting)
    for M1, M2, Q in chain_pairs():
        calls = 0
        greatest_bisimulation(M1, M2, Q)
        assert calls <= 4 * (len(M1.states) + len(M2.states))


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
        (IDENTITY, (), 5),
        (IDENTITY, ("p",), 4),
        (constant(["a", "b"]), (), 7),
        (constant(["a", "b"]), ("p",), 5),
        (coproduct(POWERSET, IDENTITY), (), 3),
        (coproduct(POWERSET, IDENTITY), ("p",), 3),
        (compose(POWERSET, POWERSET), (), 2),
        (compose(POWERSET, POWERSET), ("p",), 2),
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


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_code_sweep_refuses_past_the_cap_before_rendering(monkeypatch, name):
    # the first size whose tuples pass DEFAULT_CAP raises the cap's message,
    # without ordering any element by its rendering
    import nablamu.coalgebra as coalgebra

    F = SHAPES[name]
    rendered = [0]
    real = coalgebra.render_telem

    def counting(*args):
        rendered[0] += 1
        return real(*args)

    monkeypatch.setattr(coalgebra, "render_telem", counting)
    for props in ((), ("p",), ("p", "q")):
        n = 1
        while True:
            states = frozenset(f"s{i}" for i in range(n))
            combinations = (len(enumerate_t(F, states)) * 2 ** len(props)) ** n
            if combinations > DEFAULT_CAP:
                break
            CodeSweep(F, props, n)
            n += 1
        rendered[0] = 0
        with pytest.raises(CapExceeded) as refused:
            CodeSweep(F, props, n)
        assert str(refused.value) == (
            f"{combinations} {n}-state combinations to sweep exceed the cap {DEFAULT_CAP}"
        ), (name, props)
        assert rendered[0] == 0, (name, props)


def test_models_built_without_checks_pass_them():
    # canonical_models and coproduct skip the constructor's validation
    from helpers import SHAPES

    rng = random.Random(23)
    built = []
    for F in SHAPES.values():
        for props in ((), ("p",)):
            for n in (1, 2, 3):
                try:
                    built.extend(canonical_models(F, props, n))
                except CapExceeded:
                    break
        for _ in range(4):
            parts = [
                random_model(F, rng.sample(("p", "q"), rng.randint(0, 2)), n, rng)
                for n in rng.choices((1, 2, 3), k=rng.randint(1, 3))
            ]
            built.append(model_coproduct(parts)[0])
    for M in built:
        assert M == ColoredModel(M.functor, M.props, M.states, M.sigma, M.gamma)
        assert [M.sigma_of(s) for s in M.states] == list(M.sigma)
        assert [M.gamma_of(s) for s in M.states] == list(M.gamma)


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
