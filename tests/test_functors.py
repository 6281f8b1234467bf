"""Functor kernel: enumeration, mapping, support, liftings."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from nablamu import (
    IDENTITY,
    MONOTONE,
    POWERSET,
    CapExceeded,
    FunctorDescriptor,
    base,
    canon_key,
    check_lax_axioms,
    check_support_restriction,
    compose,
    constant,
    coproduct,
    enumerate_t,
    functor_tag,
    lift_member,
    parse_automaton,
    parse_formula,
    parse_functor,
    parse_model,
    parse_telem,
    product,
    random_telem,
    render_telem,
    t_map,
)
from nablamu import laxcheck
from nablamu.functors import DEFAULT_CAP, _FnPairs
from nablamu.parsing import Cursor, ParseError
from nablamu.projection import _shrink_witness

from helpers import (
    CARRIER,
    SHAPES,
    brute_least_support,
    brute_minimal_witnesses,
    per_mask_tables,
    reference_lift_member,
    relation_strategy,
    subsets,
    telem_strategy,
)

fs = frozenset


def sample_telems(F, xs, n, seed=0):
    rng = random.Random(seed)
    return [random_telem(F, xs, rng) for _ in range(n)]


# --------------------------------------------------------------------------
# Frozen values


def test_enumerate_monotone_singleton():
    got = set(enumerate_t(MONOTONE, {"x"}))
    assert got == {fs(), fs({fs()}), fs({fs({"x"})})}


def test_enumerate_counts():
    assert len(enumerate_t(POWERSET, set())) == 1
    assert len(enumerate_t(POWERSET, {"x", "y"})) == 4
    assert len(enumerate_t(POWERSET, {"x", "y", "z"})) == 8
    # antichain counts over an n-element carrier: the Dedekind numbers
    assert len(enumerate_t(MONOTONE, set())) == 2
    assert len(enumerate_t(MONOTONE, {"x", "y"})) == 6
    assert len(enumerate_t(MONOTONE, {"x", "y", "z"})) == 20
    assert len(enumerate_t(IDENTITY, {"x", "y"})) == 2
    assert len(enumerate_t(constant(["a", "b"]), {"x"})) == 2
    assert len(enumerate_t(product(POWERSET, POWERSET), {"x", "y"})) == 16
    assert len(enumerate_t(coproduct(POWERSET, IDENTITY), {"x", "y"})) == 6
    assert len(enumerate_t(compose(POWERSET, IDENTITY), {"x", "y"})) == 4


def test_enumerate_cap():
    with pytest.raises(CapExceeded):
        enumerate_t(POWERSET, set(range(10)), cap=100)
    with pytest.raises(CapExceeded):
        enumerate_t(MONOTONE, {"x", "y", "z"}, cap=10)


def test_enumerate_deterministic():
    for F in SHAPES.values():
        a = enumerate_t(F, {"y", "x"})
        b = enumerate_t(F, {"x", "y"})
        assert a == b
        assert list(a) == sorted(a, key=canon_key)


def test_tmap_monotone_merges_generators():
    t = fs({fs({"x"}), fs({"y"})})
    assert t_map(MONOTONE, {"x": "u", "y": "u"}, t) == fs({fs({"u"})})


def test_base_values():
    assert base(MONOTONE, fs({fs({"x"}), fs({"y"})})) == {"x", "y"}
    assert base(POWERSET, fs({"x"})) == {"x"}
    assert base(constant(["a", "b"]), "a") == fs()
    assert base(IDENTITY, "x") == {"x"}
    F = compose(POWERSET, POWERSET)
    assert base(F, fs({fs({"x"}), fs({"y", "z"})})) == {"x", "y", "z"}


def test_lift_powerset_example():
    R = {("x", "y"), ("x", "z")}
    assert lift_member(POWERSET, R, fs({"x"}), fs({"y", "z"}))
    assert not lift_member(POWERSET, R, fs({"x"}), fs())
    assert not lift_member(POWERSET, {}, fs({"x"}), fs({"y"}))
    assert lift_member(POWERSET, {}, fs(), fs())


# --------------------------------------------------------------------------
# Oracle comparisons


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_lift_member_matches_reference(name):
    # every relation and payload pair on carriers of at most 2 elements, then
    # random ones on 3; each relation is asked as a frozenset and as a lazy
    # container.  The carriers differ (ints, strings) so that a swapped pair
    # never reads as related.
    F = SHAPES[name]

    def agree(R, t1, t2):
        want = reference_lift_member(F, R, t1, t2)
        assert lift_member(F, R, t1, t2) == want, (R, t1, t2)
        lazy = _FnPairs(lambda x, y: (x, y) in R)
        assert lift_member(F, lazy, t1, t2) == want, (R, t1, t2)
        return want

    seen = set()
    for m, k in itertools.product(range(3), repeat=2):
        xs, ys = range(m), [f"y{j}" for j in range(k)]
        pairs = list(itertools.product(enumerate_t(F, xs), enumerate_t(F, ys)))
        for R in subsets(itertools.product(xs, ys)):
            seen.update(agree(R, t1, t2) for t1, t2 in pairs)
    rng = random.Random(18)
    xs, ys = range(3), ["y0", "y1", "y2"]
    grid = list(itertools.product(xs, ys))
    for _ in range(400):
        density = rng.choice((0.3, 0.6, 0.9))
        R = fs(p for p in grid if rng.random() < density)
        seen.add(agree(R, random_telem(F, xs, rng), random_telem(F, ys, rng)))
    assert seen == {False, True}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_base_is_least_support(name):
    F = SHAPES[name]
    for t in sample_telems(F, CARRIER, 25, seed=hash(name) & 0xFFFF):
        b = base(F, t)
        least = brute_least_support(F, t, CARRIER)
        assert b == least
        assert t in enumerate_t(F, b)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_minimal_witnesses_against_full_search(name):
    # from base × base and from random supersets that lift, the shrink keeps
    # a subset of its input that lifts and is a minimal witness
    F = SHAPES[name]
    elems = enumerate_t(F, ("x", "y"))
    rng = random.Random(7)
    if len(elems) <= 8:
        pairs = [(t1, t2) for t1 in elems for t2 in elems]
    else:
        pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(40)]
    # a third carrier element gives the shrink more pairs to drop
    xs = ("x", "y", "z")
    pairs += [(random_telem(F, xs, rng), random_telem(F, xs, rng)) for _ in range(40)]
    for t1, t2 in pairs:
        ground = fs(itertools.product(base(F, t1), base(F, t2)))
        if not lift_member(F, ground, t1, t2):
            continue
        minimal = brute_minimal_witnesses(F, t1, t2)
        starts = [ground] + [
            fs(rng.sample(sorted(ground, key=canon_key), k)) | Z
            for Z in sorted(minimal, key=canon_key)
            for k in (0, len(ground) // 2)
        ]
        for start in starts:
            Z = _shrink_witness(F, start, t1, t2)
            assert Z <= start and lift_member(F, Z, t1, t2)
            assert Z in minimal, (render_telem(F, t1), render_telem(F, t2))


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_witnesses_lift_and_nothing_smaller_does(name):
    # without the brute-force oracle: the shrink of base × base lifts, and
    # dropping any one of its pairs breaks the lifting
    F = SHAPES[name]
    for t1 in sample_telems(F, ("x", "y"), 10, seed=3):
        for t2 in sample_telems(F, ("x", "y"), 10, seed=4):
            ground = fs(itertools.product(base(F, t1), base(F, t2)))
            if not lift_member(F, ground, t1, t2):
                continue
            Z = _shrink_witness(F, ground, t1, t2)
            assert lift_member(F, Z, t1, t2)
            for p in Z:
                assert not lift_member(F, Z - {p}, t1, t2)


# --------------------------------------------------------------------------
# Properties


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_tmap_functoriality(name):
    F = SHAPES[name]
    rng = random.Random(11)
    xs, ys, zs = ("x", "y", "z"), ("u", "v"), ("p", "q", "r")
    for _ in range(30):
        f = {x: rng.choice(ys) for x in xs}
        g = {y: rng.choice(zs) for y in ys}
        t = random_telem(F, xs, rng)
        gf = {x: g[f[x]] for x in xs}
        assert t_map(F, gf, t) == t_map(F, g, t_map(F, f, t))
        assert t_map(F, {x: x for x in xs}, t) == t


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_lift_converse(name):
    F = SHAPES[name]
    rng = random.Random(13)
    xs, ys = ("x", "y"), ("u", "v")
    for _ in range(40):
        R = fs(
            (x, y) for x in xs for y in ys if rng.random() < 0.5
        )
        Rc = fs((y, x) for x, y in R)
        t1 = random_telem(F, xs, rng)
        t2 = random_telem(F, ys, rng)
        assert lift_member(F, R, t1, t2) == lift_member(F, Rc, t2, t1)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_lift_contains_graph_of_tmap(name):
    F = SHAPES[name]
    rng = random.Random(17)
    xs, ys = ("x", "y", "z"), ("u", "v")
    for _ in range(30):
        f = {x: rng.choice(ys) for x in xs}
        t = random_telem(F, xs, rng)
        assert lift_member(F, fs(f.items()), t, t_map(F, f, t))


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_lift_diagonal_reflexive(name):
    F = SHAPES[name]
    diag = fs((x, x) for x in CARRIER)
    for t in sample_telems(F, CARRIER, 25, seed=19):
        assert lift_member(F, diag, t, t)


@given(
    R=relation_strategy(("x", "y"), ("u", "v")),
    S=relation_strategy(("x", "y"), ("u", "v")),
    t1=telem_strategy(POWERSET, ("x", "y")),
    t2=telem_strategy(POWERSET, ("u", "v")),
)
def test_lift_monotone_in_relation_powerset(R, S, t1, t2):
    if R <= S and lift_member(POWERSET, R, t1, t2):
        assert lift_member(POWERSET, S, t1, t2)


@given(
    R=relation_strategy(("x", "y"), ("u", "v")),
    S=relation_strategy(("x", "y"), ("u", "v")),
    t1=telem_strategy(MONOTONE, ("x", "y")),
    t2=telem_strategy(MONOTONE, ("u", "v")),
)
def test_lift_monotone_in_relation_monotone(R, S, t1, t2):
    if R <= S and lift_member(MONOTONE, R, t1, t2):
        assert lift_member(MONOTONE, S, t1, t2)


# --------------------------------------------------------------------------
# Descriptors and text formats


def test_compose_rejects_nonfunctorial_inner():
    with pytest.raises(ValueError):
        compose(POWERSET, MONOTONE)
    with pytest.raises(ValueError):
        compose(POWERSET, product(MONOTONE, POWERSET))
    # monotone may sit outermost
    compose(MONOTONE, POWERSET)
    # and anywhere outside the inner part of a composition
    for text in (
        "product(powerset,monotone)",
        "coproduct(identity,monotone)",
        "comp(product(powerset,monotone),powerset)",
    ):
        assert functor_tag(parse_functor(text)) == text


def test_descriptor_validation():
    with pytest.raises(ValueError):
        FunctorDescriptor("nonsense")
    with pytest.raises(ValueError):
        constant([])
    with pytest.raises(ValueError):
        FunctorDescriptor("powerset", values=fs({"a"}))
    with pytest.raises(ValueError):
        FunctorDescriptor("product", parts=(POWERSET,))


def test_functor_tag_round_trip():
    shapes = list(SHAPES.values()) + [
        product(coproduct(IDENTITY, constant(["ok"])), compose(POWERSET, POWERSET)),
    ]
    for F in shapes:
        assert parse_functor(functor_tag(F)) == F
    with pytest.raises(ParseError):
        parse_functor("powerset(")
    with pytest.raises(ParseError):
        parse_functor("galaxy")
    with pytest.raises(ParseError):
        parse_functor("comp(powerset,monotone)")


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_telem_text_round_trip(name):
    F = SHAPES[name]
    for t in sample_telems(F, CARRIER, 40, seed=23):
        s = render_telem(F, t)
        cur = Cursor(s)
        t2 = parse_telem(cur, F, lambda c: c.ident("element"))
        cur.expect_end()
        assert t2 == t, s


def test_monotone_text_canonicalizes_to_antichain():
    cur = Cursor("{{x}, {x, y}}")
    t = parse_telem(cur, MONOTONE, lambda c: c.ident("element"))
    assert t == fs({fs({"x"})})


# --------------------------------------------------------------------------
# Axiom sweeps (small bounds; the full-depth sweeps live in the acceptance suite)


_LIST_MODEL = "functor powerset;\nprops {P};\nstate s0; sigma {s0}; gamma {p};\n"
_LIST_AUT = "functor powerset;\nprops {p};\ninitial a;\nstate a priority 0;\ndelta a {}: E;\n"
_LIST_PARSERS = {
    "formula": parse_formula,
    "monotone": lambda text: parse_formula(text, MONOTONE),
    "model": parse_model,
    "automaton": parse_automaton,
}


@pytest.mark.parametrize(
    "parser, text, message, line, column",
    [
        # \/{…}
        ("formula", "\\/{p q}", "expected ','", 1, 6),
        ("formula", "\\/{p, q,}", "expected formula", 1, 9),
        ("formula", "\\/{p, q", "expected ','", 1, 8),
        # a powerset payload
        ("formula", "nabla {p q}", "expected ','", 1, 10),
        ("formula", "nabla {p,}", "expected formula", 1, 10),
        ("formula", "nabla {p, q", "expected ','", 1, 12),
        # a monotone payload, outer level
        ("monotone", "nabla {{p} {q}}", "expected ','", 1, 12),
        ("monotone", "nabla {{p},}", "expected '{'", 1, 12),
        ("monotone", "nabla {{p}, {q}", "expected ','", 1, 16),
        # a monotone payload, inner level
        ("monotone", "nabla {{p q}}", "expected ','", 1, 11),
        ("monotone", "nabla {{p,}}", "expected formula", 1, 11),
        ("monotone", "nabla {{p, q", "expected ','", 1, 13),
        # a props {…} set
        ("model", _LIST_MODEL.replace("P", "p q"), "expected ','", 2, 10),
        ("model", _LIST_MODEL.replace("P", "p,"), "expected name", 2, 10),
        ("model", _LIST_MODEL.replace("{P}", "{p"), "expected ','", 2, 9),
        # an automaton's […] element list
        ("automaton", _LIST_AUT.replace("E", "[{a} {}]"), "expected ','", 5, 18),
        ("automaton", _LIST_AUT.replace("E", "[{a},]"), "expected '{'", 5, 18),
        ("automaton", _LIST_AUT.replace("E", "[{a}"), "expected ','", 5, 17),
    ],
)
def test_list_parse_errors_name_the_position(parser, text, message, line, column):
    with pytest.raises(ParseError) as err:
        _LIST_PARSERS[parser](text)
    assert str(err.value).startswith(f"{message} (line {line}, column {column}, near ")


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_lax_axioms_small(name):
    report = check_lax_axioms(SHAPES[name], carrier_bound=2)
    assert report.ok, str(report)


def test_lax_sweep_refuses_work_past_the_cap():
    # 4 powerset elements at carrier 2 pass the enumeration cap, but the
    # sweep needs 26 lifting tests and relation pairs at carrier 1 already
    with pytest.raises(CapExceeded):
        check_lax_axioms(POWERSET, 2, cap=10)
    with pytest.raises(CapExceeded):
        check_support_restriction(POWERSET, 2, cap=10)


@pytest.mark.parametrize(
    "F, bound",
    [(F, 2) for F in SHAPES.values()] + [(POWERSET, 3), (MONOTONE, 3)],
    ids=[f"{name}-2" for name in SHAPES] + ["powerset-3", "monotone-3"],
)
def test_lax_tables_match_per_mask_oracle(F, bound):
    assert laxcheck._tables(F, bound, DEFAULT_CAP) == per_mask_tables(F, bound, DEFAULT_CAP)


def test_lax_tables_read_each_element_pair_once(monkeypatch):
    # one lift_bits call per (τ, ρ) over carriers 0…3, for every relation mask
    calls = [0]
    real = laxcheck.lift_bits

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(laxcheck, "lift_bits", counting)
    telems, _ = laxcheck._tables(MONOTONE, 3, DEFAULT_CAP)
    assert calls[0] == sum(map(len, telems.values())) ** 2 == 961


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_support_restriction_small(name):
    report = check_support_restriction(SHAPES[name], carrier_bound=2)
    assert report.ok, str(report)


# Broken powerset liftings patched into the checker: each must trip its check.


def _forward_only(F, pairs, t1, t2):
    """The forward half of Egli–Milner alone."""
    return all(any((x, y) in pairs for y in t2) for x in t1)


def _ignores_relation(F, pairs, t1, t2):
    """Egli–Milner over the total relation, whatever ``pairs`` holds."""
    return bool(t1) == bool(t2)


def _reads_outside_supports(F, pairs, t1, t2):
    """Egli–Milner, or the pair (0, 0) whether or not 0 is in the supports."""
    return lift_member(F, pairs, t1, t2) or (0, 0) in pairs


def _negated(F, pairs, t1, t2):
    """The complement of Egli–Milner: adding pairs removes related elements."""
    return not lift_member(F, pairs, t1, t2)


def _needs_pairs(F, pairs, t1, t2):
    """Egli–Milner, except that the empty relation lifts to nothing."""
    return bool(pairs) and lift_member(F, pairs, t1, t2)


def _equal_sizes(F, pairs, t1, t2):
    """Egli–Milner between sets of equal size only: T f may merge elements."""
    return len(t1) == len(t2) and lift_member(F, pairs, t1, t2)


@pytest.mark.parametrize(
    "broken, check, name",
    [
        (_forward_only, check_lax_axioms, "converse"),
        (_ignores_relation, check_lax_axioms, "diagonal"),
        (_reads_outside_supports, check_support_restriction, "support-restriction"),
        (_negated, check_lax_axioms, "monotone"),
        (_needs_pairs, check_lax_axioms, "composition"),
        (_needs_pairs, check_lax_axioms, "quasi-functorial"),
        (_equal_sizes, check_lax_axioms, "functions"),
    ],
)
def test_lax_checks_fail_on_broken_liftings(monkeypatch, broken, check, name):
    # the checker tabulates through lift_bits; the per-mask oracle reads
    # the broken membership test instead
    monkeypatch.setattr(
        "nablamu.laxcheck._tables",
        lambda F, bound, cap: per_mask_tables(F, bound, cap, broken),
    )
    report = check(POWERSET, carrier_bound=2)
    passed, witness = report.checks[name]
    assert not passed and not report.ok
    assert witness


def test_quasi_functorial_failure_names_the_element_that_differs():
    # under _needs_pairs, L(R;S) lacks the element LR;LS has wherever R;S is
    # empty, and never the other way: each quasi-functorial failure names
    # that element, as the composition failure at the same (R, S, τ) does
    tables = per_mask_tables(POWERSET, 2, DEFAULT_CAP, _needs_pairs)
    failures = list(laxcheck._lax_failures(POWERSET, *tables))
    composition = [why for name, why in failures if name == "composition"]
    quasi = [why for name, why in failures if name == "quasi-functorial"]
    side = "L(R;S) misses an element of LR;LS"
    assert quasi[0] == f"{side} for R={{(0,1)}}, S={{(0,0)}} at τ={{}}, ρ={{}}"
    assert len(quasi) == 32
    assert [why.replace(side, "LR;LS ⊄ L(R;S)") for why in quasi] == composition


def test_canon_key_orders_mixed_payloads():
    items = [fs(), fs({"x"}), ("inl", "x"), "plain", fs({fs({"x"})})]
    ordered = sorted(items, key=canon_key)
    assert sorted(ordered, key=canon_key) == ordered
    with pytest.raises(TypeError):
        canon_key(object())
