"""Projection: quasi-functorial middles, cell merging, hidden-prop witnesses."""

import random

import pytest

from helpers import SHAPES, canonical_pointed_models, random_automaton

from nablamu import (
    IDENTITY,
    MONOTONE,
    POWERSET,
    ColoredModel,
    PointedModel,
    base,
    compose,
    constant,
    coproduct,
    enumerate_t,
    lift_member,
    parse_model,
    product,
    up_to_p_bisimilar,
)
from nablamu.automata import (
    Automaton,
    accepts,
    find_true_state,
    normalize,
    parse_automaton,
    render_automaton,
)
from nablamu.projection import (
    _delta_p_merge,
    construct_projection_witness,
    project_automaton,
    qf_middle,
)

P = frozenset(("p",))
Q = frozenset(("q",))
PQ = frozenset(("p", "q"))
NOP = frozenset()

X = ("x0", "x1")
U = ("u0", "u1", "u2")
Y = ("y0", "y1")


def compose_pairs(R1, R2):
    succ = {}
    for u, y in R2:
        succ.setdefault(u, set()).add(y)
    return frozenset((x, y) for x, u in R1 for y in succ.get(u, ()))


def assert_mediates(F, R1, R2, tau, rho, m):
    assert lift_member(F, R1, tau, m), (tau, m)
    assert lift_member(F, R2, m, rho), (m, rho)


# --------------------------------------------------------------------------
# Middles, functorial layers


def test_qf_middle_powerset_hand():
    R1 = frozenset((("x0", "u0"), ("x1", "u1")))
    R2 = frozenset((("u0", "y0"), ("u1", "y0")))
    m = qf_middle(POWERSET, R1, R2, frozenset(("x0", "x1")), frozenset(("y0",)))
    assert m == frozenset(("u0", "u1"))


def test_qf_middle_powerset_empty():
    m = qf_middle(POWERSET, frozenset(), frozenset(), frozenset(), frozenset())
    assert m == frozenset()


def test_qf_middle_powerset_random():
    rng = random.Random(11)
    checked = 0
    for _ in range(60):
        R1 = frozenset((x, u) for x in X for u in U if rng.random() < 0.5)
        R2 = frozenset((u, y) for u in U for y in Y if rng.random() < 0.5)
        comp = compose_pairs(R1, R2)
        for tau in enumerate_t(POWERSET, frozenset(X)):
            for rho in enumerate_t(POWERSET, frozenset(Y)):
                if not lift_member(POWERSET, comp, tau, rho):
                    continue
                m = qf_middle(POWERSET, R1, R2, tau, rho)
                assert_mediates(POWERSET, R1, R2, tau, rho, m)
                checked += 1
    assert checked >= 200


def test_qf_middle_identity():
    R1 = frozenset((("x0", "u1"),))
    R2 = frozenset((("u1", "y0"),))
    assert qf_middle(IDENTITY, R1, R2, "x0", "y0") == "u1"
    with pytest.raises(ValueError):
        qf_middle(IDENTITY, frozenset(), frozenset(), "x0", "y0")


def test_qf_middle_const():
    F = constant(("a", "b"))
    assert qf_middle(F, frozenset(), frozenset(), "a", "a") == "a"
    with pytest.raises(ValueError):
        qf_middle(F, frozenset(), frozenset(), "a", "b")


def test_qf_middle_product():
    F = product(POWERSET, IDENTITY)
    R1 = frozenset((("x0", "u0"), ("x1", "u1")))
    R2 = frozenset((("u0", "y0"), ("u1", "y1")))
    tau = (frozenset(("x0",)), "x1")
    rho = (frozenset(("y0",)), "y1")
    m = qf_middle(F, R1, R2, tau, rho)
    assert m == (frozenset(("u0",)), "u1")
    assert_mediates(F, R1, R2, tau, rho, m)


def test_qf_middle_coproduct():
    F = coproduct(POWERSET, constant(("k",)))
    R1 = frozenset((("x0", "u0"),))
    R2 = frozenset((("u0", "y0"),))
    m = qf_middle(F, R1, R2, ("inl", frozenset(("x0",))), ("inl", frozenset(("y0",))))
    assert m == ("inl", frozenset(("u0",)))
    with pytest.raises(ValueError):
        qf_middle(F, R1, R2, ("inl", frozenset(("x0",))), ("inr", "k"))


def test_qf_middle_composite_hand():
    F = compose(POWERSET, POWERSET)
    R1 = frozenset((("x0", "u0"),))
    R2 = frozenset((("u0", "y0"),))
    tau = frozenset((frozenset(("x0",)),))
    rho = frozenset((frozenset(("y0",)),))
    m = qf_middle(F, R1, R2, tau, rho)
    assert m == frozenset((frozenset(("u0",)),))
    assert_mediates(F, R1, R2, tau, rho, m)


def test_qf_middle_composite_random():
    F = compose(POWERSET, POWERSET)
    rng = random.Random(7)
    xs = frozenset(("x0", "x1"))
    ys = frozenset(("y0", "y1"))
    checked = 0
    for _ in range(15):
        R1 = frozenset((x, u) for x in xs for u in U if rng.random() < 0.5)
        R2 = frozenset((u, y) for u in U for y in ys if rng.random() < 0.5)
        comp = compose_pairs(R1, R2)
        for tau in enumerate_t(F, xs):
            for rho in enumerate_t(F, ys):
                if not lift_member(F, comp, tau, rho):
                    continue
                m = qf_middle(F, R1, R2, tau, rho)
                assert_mediates(F, R1, R2, tau, rho, m)
                checked += 1
    assert checked >= 300


# --------------------------------------------------------------------------
# Middles, the lax layer


def monotone_witnesses(F, R1, R2, tau, rho, universe):
    """First domain and range witness in canonical order, or (None, None)."""
    dom = next(
        (w for w in enumerate_t(F, universe) if lift_member(F, R1, tau, w)), None
    )
    rng_ = next(
        (w for w in enumerate_t(F, universe) if lift_member(F, R2, w, rho)), None
    )
    return dom, rng_


def test_qf_middle_monotone_hand():
    R1 = frozenset((("x0", "u0"), ("x1", "u1")))
    R2 = frozenset((("u0", "y0"), ("u1", "y1")))
    tau = frozenset((frozenset(("x0",)), frozenset(("x1",))))
    rho = frozenset((frozenset(("y0",)), frozenset(("y1",))))
    dom_w, rng_w = monotone_witnesses(
        MONOTONE, R1, R2, tau, rho, frozenset(("u0", "u1"))
    )
    assert dom_w is not None and rng_w is not None
    m = qf_middle(MONOTONE, R1, R2, tau, rho, dom_w, rng_w)
    assert_mediates(MONOTONE, R1, R2, tau, rho, m)


def test_qf_middle_monotone_needs_witnesses():
    with pytest.raises(ValueError):
        qf_middle(MONOTONE, frozenset(), frozenset(), frozenset(), frozenset())


def test_qf_middle_monotone_random():
    rng = random.Random(5)
    xs = ("x0", "x1")
    us = ("u0", "u1")
    ys = ("y0", "y1")
    checked = 0
    for _ in range(40):
        R1 = frozenset((x, u) for x in xs for u in us if rng.random() < 0.6)
        R2 = frozenset((u, y) for u in us for y in ys if rng.random() < 0.6)
        comp = compose_pairs(R1, R2)
        for tau in enumerate_t(MONOTONE, frozenset(xs)):
            for rho in enumerate_t(MONOTONE, frozenset(ys)):
                if not lift_member(MONOTONE, comp, tau, rho):
                    continue
                dom_w, rng_w = monotone_witnesses(
                    MONOTONE, R1, R2, tau, rho, frozenset(us)
                )
                assert dom_w is not None and rng_w is not None, (R1, R2, tau, rho)
                m = qf_middle(MONOTONE, R1, R2, tau, rho, dom_w, rng_w)
                assert_mediates(MONOTONE, R1, R2, tau, rho, m)
                checked += 1
    assert checked >= 150


def test_qf_middle_monotone_product_component():
    F = product(MONOTONE, IDENTITY)
    R1 = frozenset((("x0", "u0"),))
    R2 = frozenset((("u0", "y0"),))
    tau = (frozenset((frozenset(("x0",)),)), "x0")
    rho = (frozenset((frozenset(("y0",)),)), "y0")
    dom_w = (frozenset((frozenset(("u0",)),)), "u0")
    rng_w = dom_w
    m = qf_middle(F, R1, R2, tau, rho, dom_w, rng_w)
    assert_mediates(F, R1, R2, tau, rho, m)


# --------------------------------------------------------------------------
# Cell merging


def test_delta_merge_combines_cells():
    phi1 = frozenset(("a",))
    phi2 = frozenset()
    aut = Automaton.make(
        POWERSET,
        ("p", "q"),
        ("a",),
        "a",
        {"a": 0},
        {("a", Q): (phi1,), ("a", PQ): (phi2,), ("a", NOP): (phi1,)},
    )
    merged = _delta_p_merge(aut, frozenset({"p"}))
    assert merged.props == ("q",)
    assert set(merged.delta_of("a", Q)) == {phi1, phi2}
    assert set(merged.delta_of("a", NOP)) == {phi1}
    assert merged.omega == aut.omega


def test_delta_merge_without_p_is_color_restriction():
    phi = frozenset(("a",))
    aut = Automaton.make(
        POWERSET, ("q",), ("a",), "a", {"a": 0}, {("a", Q): (phi,)}
    )
    merged = _delta_p_merge(aut, frozenset({"p"}))
    assert merged.props == ("q",)
    assert set(merged.delta_of("a", Q)) == {phi}


def test_merging_a_set_is_iterated_projection():
    # a merged normalized automaton is normalized, so one normalization and
    # one merge over {p, q} give the automaton of projecting p, then q
    rng = random.Random(2201)
    for name, F in SHAPES.items():
        for _ in range(12):
            aut = random_automaton(F, ("p", "q", "r"), rng)
            once = _delta_p_merge(normalize(aut, 2), frozenset({"p", "q"}))
            twice = project_automaton(project_automaton(aut, "p", 2), "q", 2)
            assert once.props == ("r",)
            assert render_automaton(once) == render_automaton(twice), name


# --------------------------------------------------------------------------
# Projection, end to end


def kripke(sigma, gamma, props=("p",)):
    return ColoredModel.make(
        POWERSET,
        {s: frozenset(v) for s, v in sigma.items()},
        {s: frozenset(v) for s, v in gamma.items()},
        props=props,
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
        + [
            (("tt", c), enumerate_t(POWERSET, frozenset(("tt",))))
            for c in (NOP, P)
        ]
    ),
)

# no transition structure at all: rejects every pointed model
A_REJECT = Automaton.make(POWERSET, ("p",), ("a",), "a", {"a": 0}, {})


def test_project_automaton_masks_prop():
    proj = project_automaton(A_P, "p", bound=2)
    assert proj.props == ()
    assert find_true_state(proj) is not None
    for pm in canonical_pointed_models(POWERSET, (), 2):
        assert accepts(proj, pm)


def test_projection_witness_restores_p():
    loop = PointedModel(kripke({"s": {"s"}}, {"s": set()}, props=()), "s")
    out = construct_projection_witness(A_P, loop, "p", bound=2)
    assert "p" in out.model.gamma_of(out.point)
    assert up_to_p_bisimilar(loop, out, "p")


def test_projection_witness_rejected_model():
    loop = PointedModel(kripke({"s": {"s"}}, {"s": set()}, props=()), "s")
    with pytest.raises(ValueError):
        construct_projection_witness(A_REJECT, loop, "p", bound=2)


def test_projection_witness_random_powerset():
    rng = random.Random(23)
    done = 0
    for _ in range(10):
        aut = random_automaton(POWERSET, ("p", "q"), rng, max_states=2, max_priority=2)
        proj = project_automaton(aut, "p", bound=2)
        per_aut = 0
        for pm in canonical_pointed_models(POWERSET, ("q",), 2):
            if per_aut >= 3:
                break
            if accepts(proj, pm):
                out = construct_projection_witness(aut, pm, "p", bound=2)
                assert up_to_p_bisimilar(pm, out, "p")
                per_aut += 1
        done += per_aut
    assert done >= 10


MON_P = Automaton.make(
    MONOTONE,
    ("p",),
    ("a0", "tt"),
    "a0",
    {"a0": 0, "tt": 0},
    dict(
        [(("a0", P), enumerate_t(MONOTONE, frozenset(("tt",))))]
        + [
            (("tt", c), enumerate_t(MONOTONE, frozenset(("tt",))))
            for c in (NOP, P)
        ]
    ),
)


def test_projection_witness_monotone_hand():
    model = ColoredModel.make(
        MONOTONE,
        {"s": frozenset((frozenset(("s",)),))},
        {"s": frozenset()},
        props=(),
    )
    out = construct_projection_witness(MON_P, PointedModel(model, "s"), "p", bound=2)
    assert "p" in out.model.gamma_of(out.point)


def test_projection_witness_random_monotone():
    rng = random.Random(31)
    done = 0
    for _ in range(6):
        aut = random_automaton(MONOTONE, ("p",), rng, max_states=2, max_priority=2)
        proj = project_automaton(aut, "p", bound=2)
        per_aut = 0
        for pm in canonical_pointed_models(MONOTONE, (), 2):
            if per_aut >= 2:
                break
            if accepts(proj, pm):
                out = construct_projection_witness(aut, pm, "p", bound=2)
                assert up_to_p_bisimilar(pm, out, "p")
                per_aut += 1
        done += per_aut
    assert done >= 6


# a0 -> a1 {p} -> a2 {q} -> a3 {p,q} -> a4 -> deadlock: the accepted chain
# model has five states, more than a bounded realizability sweep of three
CHAIN = """functor powerset; props {p, q}; initial a0;
state a0 priority 0; state a1 priority 0; state a2 priority 0;
state a3 priority 0; state a4 priority 0;
delta a0 {} : [{a1}]; delta a1 {p} : [{a2}]; delta a2 {q} : [{a3}];
delta a3 {p, q} : [{a4}]; delta a4 {} : [{}];
"""

CHAIN_REDUCT = """functor powerset; props {q};
state s0; sigma {s1}; gamma {}; state s1; sigma {s2}; gamma {};
state s2; sigma {s3}; gamma {q}; state s3; sigma {s4}; gamma {q};
state s4; sigma {}; gamma {}; point s0;
"""


def test_projection_accepts_reduct_of_long_chain():
    aut = parse_automaton(CHAIN)
    reduct = parse_model(CHAIN_REDUCT)
    assert accepts(project_automaton(aut, "p"), reduct)
    out = construct_projection_witness(aut, reduct, "p")
    assert accepts(normalize(aut), out)
    assert up_to_p_bisimilar(reduct, out, "p")
    # one witness state per reduct state, each reachable from the point
    W = out.model
    assert len(W.states) == 5
    seen, todo = {out.point}, [out.point]
    while todo:
        for t in base(W.functor, W.sigma_of(todo.pop())) - seen:
            seen.add(t)
            todo.append(t)
    assert seen == set(W.states)
