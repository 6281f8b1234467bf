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
import math
from functools import lru_cache
from itertools import chain, repeat

from .parsing import Cursor
from .records import Record, _set

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


class FunctorDescriptor(Record):
    """A finitary set functor together with its relation lifting.

    ``values`` is used by the constant functor only; ``parts`` holds the two
    component descriptors of a product/coproduct or the (outer, inner) pair
    of a composition.  Descriptors key the enumeration caches, so each
    computes its hash once, when it is built.
    """

    kind: str
    values: frozenset = frozenset()
    parts: tuple = ()

    def __init__(self, kind: str, values: frozenset = frozenset(), parts: tuple = ()):
        _set(self, "kind", kind)
        _set(self, "values", values)
        _set(self, "parts", parts)
        self.__post_init__()
        _set(self, "_hash", hash((kind, values, parts)))

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

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._hash == other._hash and (
                (self.kind, self.values, self.parts) == (other.kind, other.values, other.parts)
            )
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

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
    """All ⊆-antichains of subsets of ``xs`` (generators of upward-closed families).

    Raises CapExceeded past ``cap`` antichains, up front when every family of
    middle-layer subsets, an antichain each, already exceeds it.
    """
    k = len(xs)
    too_many = f"more than {cap} monotone neighborhood elements over a {k}-element carrier"
    if 2 ** math.comb(k, k // 2) > cap:
        raise CapExceeded(too_many)
    subs = list(subsets(xs))
    out = []

    def rec(i: int, chosen: list):
        if i == len(subs):
            if len(out) >= cap:
                raise CapExceeded(too_many)
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


class _FnPairs:
    """A lazy pair container whose membership test is a function call."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __contains__(self, pair) -> bool:
        x, y = pair
        return self.fn(x, y)


@lru_cache(maxsize=4096)
def _members(t) -> tuple:
    """The members of a payload in canonical order, sorted once per payload."""
    return tuple(sorted(t, key=canon_key))


def unfold_lifting(F: FunctorDescriptor, t1, t2, atom, node, path=(), label=None):
    """Decide ``(t1, t2) ∈ L_F(R)`` one quantifier at a time.

    ``atom(x, y)`` decides ``(x, y) ∈ R``.  ``node(label, who, moves)``
    decides a position where ``who`` ('A' all, 'E' any) picks one of
    ``moves``, so an empty 'A' holds and an empty 'E' fails.  ``moves`` is a
    lazy iterator that decides each move as it is read: ``node`` reads it
    after naming the position, or not at all.  :func:`lift_member` reads a
    node as ``all``/``any``, :func:`lift_bits` as AND/OR on bitsets of many
    cases at once, the acceptance game as a position.  A label
    names the clause, the ``path`` to the sub-functor (each part of a
    product, coproduct or composition appends 0 or 1) and the payloads read,
    so positions are shared wherever a question recurs; the root's is
    ``label``, by default ``('lift', path, t1, t2)``.  Identity is the atom
    itself; a constant is an empty 'A' if t1 = t2, else an empty 'E', and so
    is a coproduct whose tags differ.
    """
    kind = F.kind
    if kind == "identity":
        return atom(t1, t2)
    if label is None:
        label = ("lift", path, t1, t2)
    if kind == "const":
        return node(label, "A" if t1 == t2 else "E", ())
    if kind == "coproduct":
        if t1[0] != t2[0]:
            return node(label, "E", ())
        k = 0 if t1[0] == "inl" else 1
        return unfold_lifting(F.parts[k], t1[1], t2[1], atom, node, path + (k,), label)
    if kind == "product":  # A picks a part
        parts = (
            unfold_lifting(F.parts[k], t1[k], t2[k], atom, node, path + (k,)) for k in (0, 1)
        )
        return node(label, "A", parts)
    if kind == "comp":  # the outer lifting of inner liftings
        outer, inner = F.parts
        p1 = path + (1,)
        return unfold_lifting(
            outer, t1, t2, lambda u, v: unfold_lifting(inner, u, v, atom, node, p1),
            node, path + (0,), label,
        )

    # map(f, repeat(a), bs) is f(a, b) for each b, called as it is read
    def fwd(x, H):  # E: some y ∈ H with (x, y) ∈ R
        return node(("fwd", path, x, H), "E", map(atom, repeat(x), _members(H)))

    def bwd(G, y):  # E: some x ∈ G with (x, y) ∈ R
        return node(("bwd", path, G, y), "E", map(atom, _members(G), repeat(y)))

    xs, ys = _members(t1), _members(t2)
    if kind == "powerset":  # Egli–Milner: A picks x ∈ t1 or y ∈ t2
        return node(label, "A", chain(map(fwd, xs, repeat(t2)), map(bwd, repeat(t1), ys)))

    def cover(G, H):  # A: every y ∈ H has some x ∈ G
        return node(("cover", path, G, H), "A", map(bwd, repeat(G), _members(H)))

    def reach(G, H):  # A: every x ∈ G has some y ∈ H
        return node(("reach", path, G, H), "A", map(fwd, _members(G), repeat(H)))

    def covered(G):  # E: G covers some generator of t2
        return node(("covered", path, G, t2), "E", map(cover, repeat(G), ys))

    def reached(H):  # E: some generator of t1 reaches H
        return node(("reached", path, t1, H), "E", map(reach, xs, repeat(H)))

    # monotone, on generator antichains: A picks a generator of t1 to cover
    # or one of t2 to reach
    return node(label, "A", chain(map(covered, xs), map(reached, ys)))


def _decide(label, who, moves) -> bool:
    return any(moves) if who == "E" else all(moves)


def lift_member(F: FunctorDescriptor, pairs, t1, t2) -> bool:
    """Whether ``(t1, t2)`` belongs to the lifting of a relation for functor ``F``.

    ``pairs`` is the relation: any container of pairs that answers
    ``(x, y) in pairs``, such as a frozenset or a lazy container.
    """
    return unfold_lifting(F, t1, t2, lambda x, y: (x, y) in pairs, _decide)


def lift_bits(F: FunctorDescriptor, t1, t2, atom, full: int) -> int:
    """The bitset of the cases where ``(t1, t2)`` belongs to the lifting, for
    many relations at once.

    ``atom(x, y)`` is the bitset of the cases whose relation holds ``(x, y)``
    and ``full`` the bitset of all cases.  Reads :func:`unfold_lifting` with
    an 'A' node as the AND of its moves, from ``full``, and an 'E' node as
    the OR of its moves, from 0; each stops reading once the result is
    settled.  Bit k of the result is ``lift_member`` on the k-th relation.
    """

    def node(label, who, moves) -> int:
        if who == "A":
            out = full
            for move in moves:
                out &= move
                if not out:
                    break
        else:
            out = 0
            for move in moves:
                out |= move
                if out == full:
                    break
        return out

    return unfold_lifting(F, t1, t2, atom, node)


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
        return frozenset(cur.items("{", "}", parse_leaf))
    if kind == "monotone":
        gens = cur.items("{", "}", lambda c: frozenset(c.items("{", "}", parse_leaf)))
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
