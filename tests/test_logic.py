"""Formula syntax, semantics, substitution, guarding, parse/print round trips."""

import random

import pytest
from hypothesis import given, strategies as st

from formula_corpus import random_guarded_formula
from helpers import SHAPES, brute_eval_formula, loop_bits
from nablamu import (
    BOT,
    MONOTONE,
    POWERSET,
    TOP,
    ColoredModel,
    Mu,
    PointedModel,
    base,
    enumerate_t,
    eval_formula,
    free_props,
    guard,
    is_guarded,
    lift_member,
    mk_and,
    mk_atom,
    mk_mu,
    mk_nabla,
    mk_neg,
    mk_nu,
    mk_or,
    parse_formula,
    random_model,
    render_formula,
    satisfies,
    subformulas,
    subst,
    validate_monotone,
)
from nablamu.functors import random_telem
from nablamu.logic import Nabla, _bits, _BitView
from nablamu.parsing import ParseError

fs = frozenset

# model: s -> {t}, t -> {}; p holds exactly at t
STEP = ColoredModel.make(
    POWERSET,
    {"s": fs({"t"}), "t": fs()},
    {"s": fs(), "t": fs({"p"})},
    props=("p",),
)


def pf(text, functor=POWERSET):
    return parse_formula(text, functor)


# --------------------------------------------------------------------------
# Hash-consing


def test_interning_gives_identity():
    a = mk_or(fs({mk_atom("p"), mk_neg(mk_atom("q"))}))
    b = mk_or(fs({mk_neg(mk_atom("q")), mk_atom("p")}))
    assert a is b
    assert mk_mu("x", mk_atom("x")) is mk_mu("x", mk_atom("x"))
    assert pf("nabla {p, q}") is pf("nabla {q, p}")


def test_shared_dags_stay_cheap():
    f = mk_atom("p")
    for i in range(40):
        f = mk_and(f, f)
    g = mk_atom("p")
    for i in range(40):
        g = mk_and(g, g)
    assert f is g
    # tree size is 2^40; the interned DAG grows by three nodes per level
    assert len(subformulas(f)) == 3 * 40 + 1


# --------------------------------------------------------------------------
# Structural queries


def test_free_props():
    assert free_props(pf("mu x. \\/{x, p}")) == {"p"}
    assert free_props(pf("nabla {p, ~q}")) == {"p", "q"}
    assert free_props(pf("nu y. (y /\\ p)")) == {"p"}
    assert free_props(TOP) == fs()


def test_validate_monotone():
    validate_monotone(pf("mu x. nabla {~p, x}"))
    with pytest.raises(ValueError):
        validate_monotone(pf("mu x. ~x"))
    with pytest.raises(ValueError):
        validate_monotone(pf("mu x. nabla {~x}"))
    # double negation is positive
    validate_monotone(pf("mu x. ~~x"))


def test_is_guarded():
    assert is_guarded(pf("mu x. nabla {x}"))
    assert not is_guarded(pf("mu x. \\/{x, p}"))
    assert not is_guarded(pf("mu x. mu y. \\/{nabla {y}, x}"))
    assert is_guarded(pf("mu x. nabla {mu y. \\/{y, x}}")) is False
    assert is_guarded(pf("p"))


def test_subst_capture_avoidance():
    f = pf("mu y. \\/{x, nabla {y}}")
    g = subst(f, "x", pf("\\/{y, p}"))
    # the bound y must be renamed away from the free y being substituted in
    assert free_props(g) == {"y", "p"}
    assert "y" in render_formula(g)
    rng = random.Random(1)
    for _ in range(20):
        M = random_model(POWERSET, ("p", "y"), 3, rng)
        env = {"x": eval_formula(M, pf("\\/{y, p}"))}
        assert eval_formula(M, g) == eval_formula(M, f, env=env)


# --------------------------------------------------------------------------
# Semantics


def test_eval_nabla_examples():
    assert eval_formula(STEP, pf("nabla {p}")) == {"s"}
    assert eval_formula(STEP, pf("nabla {}")) == {"t"}
    assert eval_formula(STEP, pf("mu x. x")) == fs()
    assert eval_formula(STEP, TOP) == {"s", "t"}
    assert eval_formula(STEP, BOT) == fs()


def test_eval_boolean_laws():
    rng = random.Random(2)
    for _ in range(15):
        M = random_model(POWERSET, ("p", "q"), rng.randint(1, 3), rng)
        S = fs(M.states)
        p, q = pf("p"), pf("q")
        assert eval_formula(M, mk_neg(p)) == S - eval_formula(M, p)
        assert eval_formula(M, mk_or(fs({p, q}))) == (
            eval_formula(M, p) | eval_formula(M, q)
        )
        assert eval_formula(M, mk_and(p, q)) == (
            eval_formula(M, p) & eval_formula(M, q)
        )


def test_eval_fixpoint_laws():
    rng = random.Random(3)
    reach = pf("mu x. \\/{p, nabla {x, true}}")  # p reachable
    unfold = pf("\\/{p, nabla {mu x. \\/{p, nabla {x, true}}, true}}")
    for _ in range(15):
        M = random_model(POWERSET, ("p",), rng.randint(1, 3), rng)
        got = eval_formula(M, reach)
        assert got == eval_formula(M, unfold)
        # prefixpoint property: any S with body(S) ⊆ S contains the fixpoint
        body = pf("\\/{p, nabla {x, true}}")
        import itertools

        for r in range(len(M.states) + 1):
            for S in itertools.combinations(M.states, r):
                S = fs(S)
                if eval_formula(M, body, env={"x": S}) <= S:
                    assert got <= S


def test_eval_nu_is_greatest_fixpoint():
    rng = random.Random(4)
    always_p = pf("nu x. (p /\\ nabla {x, true})")
    for _ in range(15):
        M = random_model(POWERSET, ("p",), rng.randint(1, 3), rng)
        got = eval_formula(M, always_p)
        body = pf("(p /\\ nabla {x, true})")
        import itertools

        post = fs()
        for r in range(len(M.states) + 1):
            for S in itertools.combinations(M.states, r):
                S = fs(S)
                if S <= eval_formula(M, body, env={"x": S}):
                    post |= S
        assert got == post


def test_eval_monotone_nabla():
    # monotone neighborhoods: a generator containing exactly the p-states
    M = ColoredModel.make(
        MONOTONE,
        {"a": fs({fs({"b"})}), "b": fs()},
        {"a": fs(), "b": fs({"p"})},
        props=("p",),
    )
    f = pf("nabla {{p}}", MONOTONE)
    assert eval_formula(M, f) == {"a"}
    g = pf("nabla {}", MONOTONE)
    assert eval_formula(M, g) == {"b"}


def test_eval_rejects_wrong_functor():
    with pytest.raises(ValueError):
        eval_formula(STEP, pf("nabla {{p}}", MONOTONE))


def test_satisfies():
    assert satisfies(PointedModel(STEP, "s"), pf("nabla {p}"))
    assert not satisfies(PointedModel(STEP, "t"), pf("nabla {p}"))


def test_eval_matches_brute_evaluator_on_random_models():
    rng = random.Random(5)
    for F in SHAPES.values():
        fixpoints = 0
        while fixpoints < 25:
            M = random_model(F, ("p", "q"), rng.randint(1, 12), rng)
            f = random_guarded_formula(rng, F, ("p", "q"), 4)
            fixpoints += any(isinstance(g, Mu) for g in subformulas(f))
            assert eval_formula(M, f) == brute_eval_formula(M, f)
            # ``env`` overrides a proposition, and the bound variable of
            # each fixpoint body, with arbitrary (non-monotone) extensions.
            env = {"p": fs(s for s in M.states if rng.random() < 0.5)}
            assert eval_formula(M, f, env) == brute_eval_formula(M, f, env)
            for g in subformulas(f):
                if isinstance(g, Mu):
                    env = {g.var: fs(s for s in M.states if rng.random() < 0.5)}
                    assert eval_formula(M, g.body, env) == brute_eval_formula(
                        M, g.body, env
                    )


def test_eval_matches_brute_evaluator_on_alternating_ring():
    # A lasso of 300 states: steps forward by 1-6, rare short back edges,
    # the last state loops; p every 60th state in the first half.
    rng = random.Random(7)
    n = 300
    sigma, gamma = {}, {}
    for i in range(n):
        ts = {min(i + 1, n - 1)}
        if rng.random() < 0.6:
            ts.add(min(i + rng.randint(2, 6), n - 1))
        if rng.random() < 0.1:
            ts.add(max(i - rng.randint(1, 8), 0))
        sigma[f"s{i}"] = fs(f"s{t}" for t in ts)
        gamma[f"s{i}"] = fs(
            x
            for x, at in (("p", i % 60 == 0 and i < n // 2), ("q", rng.random() < 0.8))
            if at
        )
    M = ColoredModel.make(POWERSET, sigma, gamma, props=("p", "q"))
    proper = 0
    for text in (
        "nu x. mu y. ((p /\\ nabla {x, true}) \\/ nabla {y, true})",
        "mu x. nu y. ((p /\\ nabla {x, true}) \\/ (~p /\\ nabla {y, true}))",
        "nu x. (mu y. (p \\/ nabla {y, true}) /\\ nabla {x, true})",
        "nu x. mu y. \\/{((p /\\ q) /\\ nabla {x, true}), (q /\\ nabla {y, true})}",
    ):
        f = pf(text)
        got = eval_formula(M, f)
        assert got == brute_eval_formula(M, f), text
        proper += fs() < got < fs(M.states)
    assert proper == 3


def test_eval_rechecks_only_predecessors_of_changed_states(monkeypatch):
    # A chain c0 -> c1 -> ... -> c{n-1} (deadlock) with p only at the end:
    # the least fixpoint grows by one state per iteration.
    import nablamu.logic

    n = 200
    M = ColoredModel.make(
        POWERSET,
        {f"c{i}": fs({f"c{i + 1}"}) if i + 1 < n else fs() for i in range(n)},
        {f"c{i}": fs({"p"}) if i == n - 1 else fs() for i in range(n)},
        props=("p",),
    )
    calls = [0]
    real = nablamu.logic.lift_bits

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(nablamu.logic, "lift_bits", counting)
    assert eval_formula(M, pf("mu x. (p \\/ nabla {x})")) == fs(M.states)
    assert calls[0] <= 3 * n


def test_eval_rechecks_only_predecessors_of_changed_states_monotone(monkeypatch):
    # The chain above over monotone neighbourhoods, c_i -> {{c_(i+1)}}: a
    # powerset ∇ is decided by Egli–Milner mask tests without lift_bits, so
    # the bound on re-checks is kept on a functor that still reads the lifting.
    import nablamu.logic

    n = 200
    M = ColoredModel.make(
        MONOTONE,
        {f"c{i}": fs({fs({f"c{i + 1}"})}) if i + 1 < n else fs() for i in range(n)},
        {f"c{i}": fs({"p"}) if i == n - 1 else fs() for i in range(n)},
        props=("p",),
    )
    calls = [0]
    real = nablamu.logic.lift_bits

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(nablamu.logic, "lift_bits", counting)
    assert eval_formula(M, pf("mu x. (p \\/ nabla {{x}})", MONOTONE)) == fs(M.states)
    assert n <= calls[0] <= 3 * n


def _kripke_model(rng, n):
    """A powerset model on n states with deadlocks (s0 among them) and
    self-loops (s1 among them)."""
    states = [f"s{i}" for i in range(n)]
    sigma = {}
    for i, s in enumerate(states):
        if i == 0 or rng.random() < 0.15:
            sigma[s] = fs()
            continue
        succ = set(rng.sample(states, rng.randint(1, 3)))
        if i == 1 or rng.random() < 0.3:
            succ.add(s)
        sigma[s] = fs(succ)
    gamma = {s: fs(x for x in ("p", "q") if rng.random() < 0.4) for s in states}
    return ColoredModel.make(POWERSET, sigma, gamma, props=("p", "q"), states=states)


# ∇ of no argument, arguments with equal extensions (distinct nodes), and
# alternating fixpoints over both.
POWERSET_KERNEL_FORMULAS = [
    "nabla {}",
    "(p \\/ nabla {})",
    "nabla {p, ~~p, \\/{p, false}}",
    "mu x. \\/{nabla {}, nabla {x, ~~x}}",
    "nu x. (q /\\ nabla {x, (x /\\ true), true})",
    "mu x. nu y. \\/{(p /\\ nabla {x, true}), (q /\\ nabla {y}), nabla {}}",
    "nu x. mu y. ((p /\\ nabla {x, \\/{x, false}}) \\/ nabla {y, true})",
    "nu x. mu y. nu z. \\/{(p /\\ nabla {x, true}), (q /\\ nabla {y, true}), nabla {z, true}}",
]


def test_powerset_kernel_matches_brute_evaluator_on_larger_models():
    rng = random.Random(11)
    formulas = [pf(text) for text in POWERSET_KERNEL_FORMULAS]
    formulas += [random_guarded_formula(rng, POWERSET, ("p", "q"), 4) for _ in range(12)]
    for _ in range(6):
        M = _kripke_model(rng, rng.randint(20, 60))
        for f in formulas:
            assert eval_formula(M, f) == brute_eval_formula(M, f), render_formula(f)
            env = {"p": fs(s for s in M.states if rng.random() < 0.5)}
            assert eval_formula(M, f, env) == brute_eval_formula(M, f, env)
            for g in subformulas(f):
                if isinstance(g, Mu):
                    env = {g.var: fs(s for s in M.states if rng.random() < 0.5)}
                    assert eval_formula(M, g.body, env) == brute_eval_formula(
                        M, g.body, env
                    )


def _bitview_model(rng, F, n):
    """A random model of ``n`` states over ``F`` in which about one state in
    five is a deadlock (an element of T∅), where ``F`` has one."""
    M = random_model(F, (), n, rng)
    dead = enumerate_t(F, ())
    sigma = tuple(
        rng.choice(dead) if dead and (i == 0 or rng.random() < 0.2) else x
        for i, x in enumerate(M.sigma)
    )
    return ColoredModel(F, (), M.states, sigma, M.gamma)


def _argument_maps(rng, keys, n):
    """About 20 argument maps over ``keys``, each bitset of ``n`` bits: a
    random start, then growing, shrinking, mixed, single-bit, identical and
    all-equal steps."""
    def some():
        return rng.getrandbits(n) & rng.getrandbits(n)

    args = {b: rng.getrandbits(n) for b in keys}
    yield args
    for step in range(20):
        kind = step % 6
        if kind == 0:
            args = {b: m | some() for b, m in args.items()}
        elif kind == 1:
            args = {b: m & ~some() for b, m in args.items()}
        elif kind == 2:
            args = {b: m ^ some() for b, m in args.items()}
        elif kind == 3:
            args = {b: m ^ 1 << rng.randrange(n) for b, m in args.items()}
        elif kind == 4:
            args = dict(args)
        else:
            shared = rng.getrandbits(n)
            args = {b: shared for b in args}
        yield args


def test_bitview_incremental_nabla_matches_lift_member():
    # One view and one ∇ node per model, driven through a run of argument
    # maps; every answer is checked state by state against the lifting.
    rng = random.Random(17)
    atoms = tuple(mk_atom(x) for x in "abc")
    for F in SHAPES.values():
        empty = enumerate_t(F, ())
        wide = [t for t in enumerate_t(F, atoms[:2]) if len(base(F, t)) == 2]
        for k in range(9):
            M = _bitview_model(rng, F, rng.randint(5, 40))
            if k % 3 == 0 and empty:
                alpha = rng.choice(empty)  # no arguments, like ∇{}
            elif k % 3 == 1 and wide:
                alpha = rng.choice(wide)  # two arguments, equal extensions at times
            else:
                alpha = random_telem(F, atoms, rng)
            g = Nabla(F, alpha)
            view = _BitView(M, ())
            keys = base(F, alpha)
            for args in _argument_maps(rng, keys, len(M.states)):
                pairs = {(s, b) for b in keys for i, s in enumerate(M.states) if args[b] >> i & 1}
                want = sum(
                    1 << i for i, x in enumerate(M.sigma) if lift_member(F, pairs, x, alpha)
                )
                assert view.nabla(g, args) == want, (F, k, alpha)


def test_bits_matches_the_loop_it_replaced():
    rng = random.Random(19)
    masks = [0] + [1 << i for i in (0, 7, 8, 15, 16, 1023)]
    for n in (1, 8, 9, 64, 1000, 1 << 14, 1 << 17):
        sparse = rng.getrandbits(n)
        for _ in range(10):
            sparse &= rng.getrandbits(n)
        masks += [rng.getrandbits(n), sparse | 1 << n - 1]
        if n < 1 << 17:  # the loop is quadratic in the mask's length
            masks += [rng.getrandbits(n) | rng.getrandbits(n) | rng.getrandbits(n), (1 << n) - 1]
    for mask in masks:
        assert list(_bits(mask)) == list(loop_bits(mask))


def test_eval_rejects_env_naming_non_states():
    M = ColoredModel.make(POWERSET, {"a": fs()}, {"a": fs()}, props=("p",))
    with pytest.raises(ValueError, match="'zz'"):
        eval_formula(M, pf("(p \\/ ~p)"), env={"p": {"zz"}})


# --------------------------------------------------------------------------
# Guarding


GUARD_CORPUS = [
    "mu x. \\/{x, p}",
    "mu x. \\/{(x /\\ nabla {x, true}), q}",
    "mu x. \\/{nabla {x}, (x /\\ p)}",
    "nu x. (p /\\ \\/{x, nabla {x}})",
    "mu x. mu y. \\/{x, y, nabla {\\/{x, y}}}",
    "mu x. \\/{mu y. \\/{x, nabla {y}}, p}",
    "nu x. mu y. \\/{(p /\\ x), y, nabla {y}}",
    "mu x. (x /\\ p)",
    "mu x. ~~x",
    "nu x. \\/{x, p}",
    "mu x. \\/{p, nu y. (x /\\ nabla {\\/{x, y}})}",
]


def test_guard_frozen_example():
    g = guard(pf("mu x. \\/{x, p}"))
    assert g is pf("p")


@pytest.mark.parametrize("text", GUARD_CORPUS)
def test_guard_produces_guarded_equivalent(text):
    f = pf(text)
    g = guard(f)
    assert is_guarded(g), render_formula(g)
    rng = random.Random(hash(text) & 0xFFFF)
    for _ in range(30):
        M = random_model(POWERSET, ("p", "q"), rng.randint(1, 3), rng)
        assert eval_formula(M, f) == eval_formula(M, g), render_formula(g)


def test_guard_leaves_guarded_formulas_guarded():
    f = pf("mu x. nabla {x, p}")
    assert is_guarded(guard(f))


def test_guard_rejects_negative_fixpoints():
    with pytest.raises(ValueError):
        guard(pf("mu x. ~x"))


# --------------------------------------------------------------------------
# Parser and printer


ROUND_TRIP = [
    "p",
    "~p",
    "true",
    "false",
    "\\/{}",
    "\\/{p, q, ~r}",
    "(p /\\ q)",
    "(p \\/ q)",
    "nabla {}",
    "nabla {p, ~q}",
    "nabla {nabla {p}}",
    "mu x. \\/{p, nabla {x}}",
    "nu x. (p /\\ nabla {x})",
    "mu x. nu y. nabla {\\/{x, y}}",
    "~nabla {true}",
    "nu x. nabla {~x, p}",
    "mu x_1. nabla {x_1}",
]


@pytest.mark.parametrize("text", ROUND_TRIP)
def test_parse_render_round_trip(text):
    f = pf(text)
    r = render_formula(f)
    assert parse_formula(r) is f


def test_parse_monotone_payloads():
    f = pf("nabla {{p}, {q, r}}", MONOTONE)
    r = render_formula(f)
    assert parse_formula(r, MONOTONE) is f


def test_parse_binary_forms_desugar():
    assert pf("(p \\/ q)") is pf("\\/{p, q}")
    assert pf("(p /\\ q)") is mk_and(pf("p"), pf("q"))


def test_parse_errors():
    for bad in [
        "",
        "mu. x",
        "mu mu. p",
        "nabla",
        "\\/{p,}",
        "(p \\/ )",
        "(p & q)",
        "~",
        "p q",
        "mu x x",
        "true)",
    ]:
        with pytest.raises(ParseError):
            parse_formula(bad)


def test_reserved_words_rejected_as_atoms():
    for w in ["mu", "nu", "nabla", "true", "false", "const", "id", "inl", "inr"]:
        if w in ("true", "false"):
            continue
        with pytest.raises(ParseError):
            parse_formula(f"\\/{{{w}, p}}")


def test_nu_printer_verified_reconstruction():
    # a body where x occurs under double negation still round-trips
    f = mk_nu("x", mk_neg(mk_neg(mk_atom("x"))))
    assert parse_formula(render_formula(f)) is f
    # plain mu with negated body that is NOT a nu encoding prints as ~mu
    g = mk_neg(mk_mu("x", mk_atom("p")))
    assert render_formula(g).startswith("~mu")
    assert parse_formula(render_formula(g)) is g
