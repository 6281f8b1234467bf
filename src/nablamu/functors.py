"""Finitary set functors with their canonical relation liftings.

A :class:`FunctorDescriptor` names one of the supported functor shapes —
powerset, monotone neighborhood, identity, constant, product, coproduct,
composition — and each shape carries its lifting implicitly: Egli–Milner for
powerset, the double ∀∃ lifting for monotone neighborhoods, the diagonal for
constants, the relation itself for identity, componentwise liftings for
product and coproduct, and nesting for composition.

Elements of ``T X`` are plain hashable payloads whose shape is dictated by
the functor:

* powerset — a ``frozenset`` of carrier elements;
* monotone neighborhood — a ``frozenset`` of ``frozenset`` generators, kept
  as a ⊆-antichain (the minimal members of an upward-closed family);
* identity — a carrier element;
* constant — a value from the constant set;
* product — a pair ``(t1, t2)``;
* coproduct — a tagged pair ``('inl', t)`` or ``('inr', t)``;
* composition — an outer payload whose carrier elements are inner payloads.

Payloads never mention an ambient carrier, so ``T U ⊆ T X`` holds literally
whenever ``U ⊆ X``, and equality of elements is payload equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .parsing import Cursor

DEFAULT_CAP = 10**6

KINDS = ("powerset", "monotone", "identity", "const", "product", "coproduct", "comp")


class CapExceeded(RuntimeError):
    """An enumeration would exceed the configured cardinality cap."""


def canon_key(x):
    """A total, deterministic sort key over payloads and carrier elements."""
    if isinstance(x, bool):
        return (1, int(x))
    if isinstance(x, int):
        return (1, x)
    if isinstance(x, str):
        return (2, x)
    if isinstance(x, frozenset):
        return (3, len(x), tuple(sorted(canon_key(e) for e in x)))
    if isinstance(x, tuple):
        return (4, len(x), tuple(canon_key(e) for e in x))
    key = getattr(x, "canon_key", None)
    if key is not None:
        return (5, key() if callable(key) else key)
    raise TypeError(f"no canonical order for {type(x).__name__}")


@dataclass(frozen=True)
class FunctorDescriptor:
    """A finitary set functor together with its relation lifting.

    ``values`` is used by the constant functor only; ``parts`` holds the two
    component descriptors of a product/coproduct or the (outer, inner) pair
    of a composition.
    """

    kind: str
    values: frozenset = frozenset()
    parts: tuple = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown functor kind {self.kind!r}")
        if self.kind == "const":
            if not self.values:
                raise ValueError("constant functor needs a nonempty value set")
        elif self.values:
            raise ValueError("only the constant functor carries values")
        if self.kind in ("product", "coproduct", "comp"):
            if len(self.parts) != 2 or not all(
                isinstance(p, FunctorDescriptor) for p in self.parts
            ):
                raise ValueError(f"{self.kind} needs exactly two component functors")
            if self.kind == "comp" and not self.parts[1].has_functorial_lifting:
                raise ValueError(
                    "composition requires an inner functor with a functorial "
                    "lifting; the monotone neighborhood lifting is not functorial"
                )
        elif self.parts:
            raise ValueError(f"{self.kind} takes no component functors")

    @property
    def has_functorial_lifting(self) -> bool:
        """Whether the lifting composes exactly (L(R;S) = LR;LS)."""
        if self.kind == "monotone":
            return False
        return all(p.has_functorial_lifting for p in self.parts)


POWERSET = FunctorDescriptor("powerset")
MONOTONE = FunctorDescriptor("monotone")
IDENTITY = FunctorDescriptor("identity")


def constant(values) -> FunctorDescriptor:
    return FunctorDescriptor("const", values=frozenset(values))


def product(left: FunctorDescriptor, right: FunctorDescriptor) -> FunctorDescriptor:
    return FunctorDescriptor("product", parts=(left, right))


def coproduct(left: FunctorDescriptor, right: FunctorDescriptor) -> FunctorDescriptor:
    return FunctorDescriptor("coproduct", parts=(left, right))


def compose(outer: FunctorDescriptor, inner: FunctorDescriptor) -> FunctorDescriptor:
    return FunctorDescriptor("comp", parts=(outer, inner))


def functor_tag(F: FunctorDescriptor) -> str:
    """Render a functor descriptor in the textual tag syntax."""
    if F.kind == "const":
        return "const(" + ",".join(sorted(F.values)) + ")"
    if F.kind in ("product", "coproduct", "comp"):
        return f"{F.kind}({functor_tag(F.parts[0])},{functor_tag(F.parts[1])})"
    return F.kind


def parse_functor(text_or_cursor) -> FunctorDescriptor:
    """Parse a functor tag such as ``powerset`` or ``product(powerset,const(a,b))``."""
    cur = text_or_cursor if isinstance(text_or_cursor, Cursor) else Cursor(text_or_cursor)
    standalone = not isinstance(text_or_cursor, Cursor)
    word = cur.ident("functor kind")
    if word == "powerset":
        out = POWERSET
    elif word == "monotone":
        out = MONOTONE
    elif word == "identity":
        out = IDENTITY
    elif word == "const":
        cur.expect("(")
        values = [cur.ident("constant value")]
        while cur.take(","):
            values.append(cur.ident("constant value"))
        cur.expect(")")
        out = constant(values)
    elif word in ("product", "coproduct", "comp"):
        cur.expect("(")
        left = parse_functor(cur)
        cur.expect(",")
        right = parse_functor(cur)
        cur.expect(")")
        try:
            out = FunctorDescriptor(word, parts=(left, right))
        except ValueError as exc:
            cur.error(str(exc))
    else:
        cur.error(f"unknown functor kind {word!r}")
    if standalone:
        cur.expect_end()
    return out


# --------------------------------------------------------------------------
# Relations


@dataclass(frozen=True)
class Relation:
    """A finite relation with explicit domain and codomain."""

    domain: frozenset
    codomain: frozenset
    pairs: frozenset

    def __post_init__(self):
        for x, y in self.pairs:
            if x not in self.domain or y not in self.codomain:
                raise ValueError(f"pair {(x, y)!r} outside domain × codomain")

    def __contains__(self, pair) -> bool:
        return pair in self.pairs

    def __iter__(self):
        return iter(self.pairs)

    def converse(self) -> "Relation":
        return Relation(self.codomain, self.domain, frozenset((y, x) for x, y in self.pairs))

    def compose(self, other: "Relation") -> "Relation":
        by_mid: dict = {}
        for x, y in self.pairs:
            by_mid.setdefault(y, []).append(x)
        pairs = set()
        for y, z in other.pairs:
            for x in by_mid.get(y, ()):
                pairs.add((x, z))
        return Relation(self.domain, other.codomain, frozenset(pairs))

    def restrict(self, A, B) -> "Relation":
        A, B = frozenset(A), frozenset(B)
        return Relation(
            self.domain & A,
            self.codomain & B,
            frozenset((x, y) for x, y in self.pairs if x in A and y in B),
        )

    @staticmethod
    def diagonal(X) -> "Relation":
        X = frozenset(X)
        return Relation(X, X, frozenset((x, x) for x in X))

    @staticmethod
    def graph(f: dict, codomain=None) -> "Relation":
        dom = frozenset(f)
        cod = frozenset(f.values()) if codomain is None else frozenset(codomain)
        return Relation(dom, cod, frozenset(f.items()))

    @staticmethod
    def of(pairs, domain=None, codomain=None) -> "Relation":
        pairs = frozenset(pairs)
        dom = frozenset(x for x, _ in pairs) if domain is None else frozenset(domain)
        cod = frozenset(y for _, y in pairs) if codomain is None else frozenset(codomain)
        return Relation(dom, cod, pairs)


def _pairset(R):
    """Accept a Relation, a set of pairs, or any lazy pair container."""
    return R.pairs if isinstance(R, Relation) else R


# --------------------------------------------------------------------------
# Enumeration, mapping, support


def _antichain_min(sets) -> frozenset:
    """The ⊆-minimal members of a finite family of sets."""
    sets = set(sets)
    return frozenset(s for s in sets if not any(o < s for o in sets))


def subsets(xs):
    """All subsets of the sequence ``xs`` as frozensets, by size, then in
    ``itertools.combinations`` order."""
    xs = tuple(xs)
    for r in range(len(xs) + 1):
        yield from (frozenset(c) for c in itertools.combinations(xs, r))


def _antichains(xs: tuple, cap: int):
    """All ⊆-antichains of subsets of ``xs`` (generators of upward-closed families)."""
    subs = list(subsets(xs))
    out = []

    def rec(i: int, chosen: list):
        if i == len(subs):
            if len(out) >= cap:
                raise CapExceeded(
                    f"more than {cap} monotone neighborhood elements over a "
                    f"{len(xs)}-element carrier"
                )
            out.append(frozenset(chosen))
            return
        rec(i + 1, chosen)
        s = subs[i]
        if all(not (s <= c or c <= s) for c in chosen):
            chosen.append(s)
            rec(i + 1, chosen)
            chosen.pop()

    rec(0, [])
    return out


def enumerate_t(F: FunctorDescriptor, X, cap: int = DEFAULT_CAP) -> tuple:
    """All elements of ``T X`` for a finite carrier ``X``, in canonical order."""
    xs = tuple(sorted(set(X), key=canon_key))
    kind = F.kind
    if kind == "powerset":
        if 2 ** len(xs) > cap:
            raise CapExceeded(f"2^{len(xs)} powerset elements exceed the cap {cap}")
        elems = list(subsets(xs))
    elif kind == "monotone":
        elems = _antichains(xs, cap)
    elif kind == "identity":
        elems = list(xs)
    elif kind == "const":
        elems = list(F.values)
    elif kind == "product":
        left = enumerate_t(F.parts[0], xs, cap)
        right = enumerate_t(F.parts[1], xs, cap)
        if len(left) * len(right) > cap:
            raise CapExceeded(f"{len(left)}×{len(right)} product elements exceed the cap")
        elems = [(a, b) for a in left for b in right]
    elif kind == "coproduct":
        left = enumerate_t(F.parts[0], xs, cap)
        right = enumerate_t(F.parts[1], xs, cap)
        if len(left) + len(right) > cap:
            raise CapExceeded("coproduct enumeration exceeds the cap")
        elems = [("inl", a) for a in left] + [("inr", b) for b in right]
    elif kind == "comp":
        inner = enumerate_t(F.parts[1], xs, cap)
        return enumerate_t(F.parts[0], inner, cap)
    return tuple(sorted(elems, key=canon_key))


def base(F: FunctorDescriptor, t) -> frozenset:
    """The least carrier ``U`` with ``t ∈ T U`` (the support of ``t``)."""
    kind = F.kind
    if kind == "powerset":
        return frozenset(t)
    if kind == "monotone":
        return frozenset().union(*t) if t else frozenset()
    if kind == "identity":
        return frozenset((t,))
    if kind == "const":
        return frozenset()
    if kind == "product":
        return base(F.parts[0], t[0]) | base(F.parts[1], t[1])
    if kind == "coproduct":
        return base(F.parts[0 if t[0] == "inl" else 1], t[1])
    outer, inner = F.parts
    out = frozenset()
    for u in base(outer, t):
        out |= base(inner, u)
    return out


def t_map(F: FunctorDescriptor, f, t):
    """Apply ``T f`` to an element, re-canonicalizing where needed.

    ``f`` may be a dict or a callable on carrier elements.
    """
    g = f.__getitem__ if isinstance(f, dict) else f
    kind = F.kind
    if kind == "powerset":
        return frozenset(g(x) for x in t)
    if kind == "monotone":
        return _antichain_min(frozenset(g(x) for x in G) for G in t)
    if kind == "identity":
        return g(t)
    if kind == "const":
        return t
    if kind == "product":
        return (t_map(F.parts[0], g, t[0]), t_map(F.parts[1], g, t[1]))
    if kind == "coproduct":
        return (t[0], t_map(F.parts[0 if t[0] == "inl" else 1], g, t[1]))
    outer, inner = F.parts
    inner_map = {u: t_map(inner, g, u) for u in base(outer, t)}
    return t_map(outer, inner_map, t)


# --------------------------------------------------------------------------
# Lifting membership


class _LiftedPairs:
    """The lifting of a relation by an inner functor, as a lazy pair container."""

    __slots__ = ("functor", "pairs")

    def __init__(self, functor: FunctorDescriptor, pairs):
        self.functor = functor
        self.pairs = pairs

    def __contains__(self, pair) -> bool:
        u, v = pair
        return _lift_member(self.functor, self.pairs, u, v)


def _lift_member(F: FunctorDescriptor, pairs, t1, t2) -> bool:
    kind = F.kind
    if kind == "powerset":
        return all(any((x, y) in pairs for y in t2) for x in t1) and all(
            any((x, y) in pairs for x in t1) for y in t2
        )
    if kind == "monotone":
        # Evaluated on generator antichains: every generator of t1 covers onto
        # some generator of t2, and every generator of t2 is reachable from
        # some generator of t1.
        return all(
            any(all(any((x, y) in pairs for x in G) for y in H) for H in t2) for G in t1
        ) and all(
            any(all(any((x, y) in pairs for y in H) for x in G) for G in t1) for H in t2
        )
    if kind == "identity":
        return (t1, t2) in pairs
    if kind == "const":
        return t1 == t2
    if kind == "product":
        return _lift_member(F.parts[0], pairs, t1[0], t2[0]) and _lift_member(
            F.parts[1], pairs, t1[1], t2[1]
        )
    if kind == "coproduct":
        if t1[0] != t2[0]:
            return False
        return _lift_member(F.parts[0 if t1[0] == "inl" else 1], pairs, t1[1], t2[1])
    outer, inner = F.parts
    return _lift_member(outer, _LiftedPairs(inner, pairs), t1, t2)


def lift_member(F: FunctorDescriptor, R, t1, t2) -> bool:
    """Whether ``(t1, t2)`` belongs to the lifting of ``R`` for functor ``F``."""
    return _lift_member(F, _pairset(R), t1, t2)


# --------------------------------------------------------------------------
# Minimal witnesses


def _all_minimal(items: tuple, pred):
    """All ⊆-minimal subsets of ``items`` satisfying a monotone predicate."""
    if pred(frozenset()):
        return [frozenset()]
    if not items or not pred(frozenset(items)):
        return []
    e, rest = items[0], items[1:]
    out = _all_minimal(rest, pred)
    single = frozenset((e,))
    for S in _all_minimal(rest, lambda A: pred(A | single)):
        if not pred(S):
            out.append(S | single)
    return out


@lru_cache(maxsize=4096)
def minimal_witnesses(F: FunctorDescriptor, t1, t2, cap: int = DEFAULT_CAP) -> tuple:
    """All ⊆-minimal relations ``Z ⊆ base(t1) × base(t2)`` lifting to ``(t1, t2)``.

    Results are cached in a bounded LRU cache: payloads are carrier-free, so
    the answer depends only on the functor and the two payloads.  Empty iff
    no witness exists.
    """
    dom = base(F, t1)
    cod = base(F, t2)
    ground = tuple(sorted(itertools.product(
        sorted(dom, key=canon_key), sorted(cod, key=canon_key)
    ), key=canon_key))

    memo: dict = {}

    def pred(S: frozenset) -> bool:
        got = memo.get(S)
        if got is None:
            got = memo[S] = _lift_member(F, S, t1, t2)
        return got

    found = _all_minimal(ground, pred)
    if len(found) > cap:
        raise CapExceeded(f"more than {cap} minimal witnesses")
    found.sort(key=canon_key)
    return tuple(Relation(dom, cod, Z) for Z in found)


# --------------------------------------------------------------------------
# Element text format


def render_telem(F: FunctorDescriptor, t, render_leaf=str) -> str:
    """Render an element in the textual syntax (deterministic)."""
    kind = F.kind
    if kind == "comp":
        outer, inner = F.parts
        return render_telem(outer, t, lambda e: render_telem(inner, e, render_leaf))
    if kind == "powerset":
        return "{" + ", ".join(sorted(render_leaf(x) for x in t)) + "}"
    if kind == "monotone":
        gens = sorted(
            "{" + ", ".join(sorted(render_leaf(x) for x in G)) + "}" for G in t
        )
        return "{" + ", ".join(gens) + "}"
    if kind == "identity":
        return "id:" + render_leaf(t)
    if kind == "const":
        return "const:" + str(t)
    if kind == "product":
        left = render_telem(F.parts[0], t[0], render_leaf)
        right = render_telem(F.parts[1], t[1], render_leaf)
        return f"({left}, {right})"
    tag, sub = t
    return tag + ":" + render_telem(F.parts[0 if tag == "inl" else 1], sub, render_leaf)


def parse_telem(cur: Cursor, F: FunctorDescriptor, parse_leaf):
    """Parse an element; the payload shape is directed by the functor."""
    kind = F.kind
    if kind == "comp":
        outer, inner = F.parts
        return parse_telem(cur, outer, lambda c: parse_telem(c, inner, parse_leaf))
    if kind == "powerset":
        cur.expect("{")
        items = []
        if not cur.take("}"):
            while True:
                items.append(parse_leaf(cur))
                if cur.take("}"):
                    break
                cur.expect(",")
        return frozenset(items)
    if kind == "monotone":
        cur.expect("{")
        gens = []
        if not cur.take("}"):
            while True:
                cur.expect("{")
                G = []
                if not cur.take("}"):
                    while True:
                        G.append(parse_leaf(cur))
                        if cur.take("}"):
                            break
                        cur.expect(",")
                gens.append(frozenset(G))
                if cur.take("}"):
                    break
                cur.expect(",")
        return _antichain_min(gens)
    if kind == "identity":
        cur.expect_word("id")
        cur.expect(":")
        return parse_leaf(cur)
    if kind == "const":
        cur.expect_word("const")
        cur.expect(":")
        value = cur.ident("constant value")
        if value not in F.values:
            cur.error(f"{value!r} is not one of the constant values")
        return value
    if kind == "product":
        cur.expect("(")
        left = parse_telem(cur, F.parts[0], parse_leaf)
        cur.expect(",")
        right = parse_telem(cur, F.parts[1], parse_leaf)
        cur.expect(")")
        return (left, right)
    # coproduct
    word = cur.ident("'inl' or 'inr'")
    if word not in ("inl", "inr"):
        cur.error(f"expected 'inl' or 'inr', got {word!r}")
    cur.expect(":")
    sub = parse_telem(cur, F.parts[0 if word == "inl" else 1], parse_leaf)
    return (word, sub)


# --------------------------------------------------------------------------
# Random elements (for corpora and sampling-based checks)


def random_telem(F: FunctorDescriptor, X, rng):
    """Draw a random element of ``T X`` (not uniformly; fine for sampling)."""
    xs = sorted(set(X), key=canon_key)
    kind = F.kind
    if kind == "powerset":
        return frozenset(x for x in xs if rng.random() < 0.5)
    if kind == "monotone":
        gens = [
            frozenset(x for x in xs if rng.random() < 0.5)
            for _ in range(rng.randint(0, 3))
        ]
        return _antichain_min(gens)
    if kind == "identity":
        if not xs:
            raise ValueError("identity functor has no elements over an empty carrier")
        return rng.choice(xs)
    if kind == "const":
        return rng.choice(sorted(F.values))
    if kind == "product":
        return (random_telem(F.parts[0], xs, rng), random_telem(F.parts[1], xs, rng))
    if kind == "coproduct":
        tag = rng.choice(["inl", "inr"])
        return (tag, random_telem(F.parts[0 if tag == "inl" else 1], xs, rng))
    outer, inner = F.parts
    pool = {random_telem(inner, xs, rng) for _ in range(3)}
    return random_telem(outer, pool, rng)
