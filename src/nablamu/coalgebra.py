"""Colored coalgebras: pointed models, morphisms, bisimulations, coproducts.

A model is a coalgebra ``σ : S → T S`` together with a coloring
``γ : S → P(props)``.  Bisimulations between models are relations whose
lifting relates the successor structures of related states and whose colors
agree on a chosen proposition set ``Q``; the converse-compatibility of the
liftings makes the single-direction condition self-dual.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .functors import (
    DEFAULT_CAP,
    CapExceeded,
    FunctorDescriptor,
    Relation,
    base,
    canon_key,
    enumerate_t,
    functor_tag,
    lift_member,
    parse_functor,
    parse_telem,
    random_telem,
    render_telem,
    subsets,
    t_map,
)
from .parsing import Cursor


@dataclass(frozen=True)
class ColoredModel:
    """A finite coalgebra with propositional coloring.

    ``sigma[i]`` is the successor structure of ``states[i]`` (an element of
    ``T states``); ``gamma[i]`` is its set of true propositions.
    """

    functor: FunctorDescriptor
    props: tuple
    states: tuple
    sigma: tuple
    gamma: tuple

    def __post_init__(self):
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state names")
        if not (len(self.states) == len(self.sigma) == len(self.gamma)):
            raise ValueError("sigma and gamma must align with the state list")
        if list(self.props) != sorted(set(self.props)):
            raise ValueError("props must be sorted and duplicate-free")
        state_set = frozenset(self.states)
        pset = frozenset(self.props)
        for s, t, c in zip(self.states, self.sigma, self.gamma):
            if not base(self.functor, t) <= state_set:
                raise ValueError(f"successor structure of {s!r} leaves the state set")
            if not frozenset(c) <= pset:
                raise ValueError(f"colors of {s!r} are not declared propositions")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.states)})

    @staticmethod
    def make(functor, sigma: dict, gamma: dict, props=None, states=None) -> "ColoredModel":
        states = tuple(states) if states is not None else tuple(
            sorted(sigma, key=canon_key)
        )
        if props is None:
            props = set()
            for c in gamma.values():
                props |= set(c)
        return ColoredModel(
            functor,
            tuple(sorted(set(props))),
            states,
            tuple(sigma[s] for s in states),
            tuple(frozenset(gamma.get(s, ())) for s in states),
        )

    @property
    def state_set(self) -> frozenset:
        return frozenset(self.states)

    def sigma_of(self, s):
        return self.sigma[self._index[s]]

    def gamma_of(self, s) -> frozenset:
        return self.gamma[self._index[s]]


@dataclass(frozen=True)
class PointedModel:
    model: ColoredModel
    point: object

    def __post_init__(self):
        if self.point not in self.model._index:
            raise ValueError(f"point {self.point!r} is not a state")

    @property
    def functor(self) -> FunctorDescriptor:
        return self.model.functor

    @property
    def props(self) -> tuple:
        return self.model.props


def _same_functor(M1: ColoredModel, M2: ColoredModel) -> FunctorDescriptor:
    if M1.functor != M2.functor:
        raise ValueError("models live over different functors")
    return M1.functor


def is_morphism(f, M1: ColoredModel, M2: ColoredModel, preserve_colors: bool = True) -> bool:
    """Whether ``f`` (dict) is a coalgebra morphism M1 → M2."""
    F = _same_functor(M1, M2)
    fmap = dict(f)
    if set(fmap) != set(M1.states) or not set(fmap.values()) <= set(M2.states):
        return False
    for s in M1.states:
        if t_map(F, fmap, M1.sigma_of(s)) != M2.sigma_of(fmap[s]):
            return False
        if preserve_colors and M1.gamma_of(s) != M2.gamma_of(fmap[s]):
            return False
    return True


def is_bisimulation(R, M1: ColoredModel, M2: ColoredModel, Q=None) -> bool:
    """Whether ``R`` is a bisimulation between the models, over propositions Q.

    ``Q`` defaults to every proposition of either model.  Because the lifting
    commutes with converses, the single lifting condition already implies its
    mirror image.
    """
    F = _same_functor(M1, M2)
    pairs = R.pairs if isinstance(R, Relation) else frozenset(R)
    Q = (
        frozenset(M1.props) | frozenset(M2.props)
        if Q is None
        else frozenset(Q)
    )
    for s, s2 in pairs:
        if s not in M1._index or s2 not in M2._index:
            return False
        if M1.gamma_of(s) & Q != M2.gamma_of(s2) & Q:
            return False
        if not lift_member(F, pairs, M1.sigma_of(s), M2.sigma_of(s2)):
            return False
    return True


def greatest_bisimulation(M1: ColoredModel, M2: ColoredModel, Q=None, with_steps: bool = False):
    """The largest bisimulation between two models, by partition refinement.

    Refines a partition of the disjoint union of the models.  Its states are
    numbered, ``M1``'s first, so states the two models share by name stay
    apart.  The first partition groups states by their colors in ``Q``.
    Each round gives a state the signature ``(its block, T(block-of)(σ(s)))``
    and splits the blocks by signature; refinement stops at the first round
    that leaves the number of blocks unchanged.  ``s`` and ``t`` are related
    iff they end in one block.

    This is exact for every functor here.  Each lifting (Egli–Milner, ∀∃ on
    generator antichains, the diagonal on constants, and their componentwise
    and nested combinations) preserves diagonals, so bisimilarity is
    behavioural equivalence (Marti & Venema, 2015), which is what the stable
    partition computes.  ``t_map`` re-canonicalizes monotone payloads, so
    equal images are equal payloads.  With ``with_steps`` also returns the
    number of strict refinement rounds, at most ``|S1| + |S2| − 1``.
    """
    F = _same_functor(M1, M2)
    Q = (
        frozenset(M1.props) | frozenset(M2.props)
        if Q is None
        else frozenset(Q)
    )
    n1 = len(M1.states)
    right = {t: n1 + j for j, t in enumerate(M2.states)}
    succ = [t_map(F, M1._index, x) for x in M1.sigma] + [
        t_map(F, right, x) for x in M2.sigma
    ]
    ids: dict = {}
    block = [ids.setdefault(g & Q, len(ids)) for g in M1.gamma + M2.gamma]
    count, steps = len(ids), 0
    while True:
        ids = {}
        block_of = block.__getitem__
        refined = [
            ids.setdefault((b, t_map(F, block_of, x)), len(ids))
            for b, x in zip(block, succ)
        ]
        if len(ids) == count:
            break
        block, count = refined, len(ids)
        steps += 1
    left: dict = {}
    for s, b in zip(M1.states, block):
        left.setdefault(b, []).append(s)
    pairs = frozenset(
        (s, t) for t, b in zip(M2.states, block[n1:]) for s in left.get(b, ())
    )
    rel = Relation(M1.state_set, M2.state_set, pairs)
    return (rel, steps) if with_steps else rel


def project_model(M: ColoredModel, Q) -> ColoredModel:
    """Forget every proposition outside ``Q``."""
    Q = frozenset(Q)
    return ColoredModel(
        M.functor,
        tuple(p for p in M.props if p in Q),
        M.states,
        M.sigma,
        tuple(g & Q for g in M.gamma),
    )


def up_to_p_bisimilar(P1: PointedModel, P2: PointedModel, p: str) -> bool:
    """Bisimilarity of two pointed models ignoring the proposition ``p``.

    Propositions missing from one model's vocabulary count as false there,
    so the models need not share vocabularies.
    """
    Q = (frozenset(P1.model.props) | frozenset(P2.model.props)) - {p}
    R = greatest_bisimulation(P1.model, P2.model, Q)
    return (P1.point, P2.point) in R


def coproduct(models) -> tuple:
    """Disjoint union of models; returns ``(model, injections)``.

    Each injection is a dict from the component's states into the coproduct,
    and is a color-preserving morphism.
    """
    models = list(models)
    if not models:
        raise ValueError("coproduct of no models")
    F = models[0].functor
    for M in models[1:]:
        _same_functor(models[0], M)
    injections = [{s: (i, s) for s in M.states} for i, M in enumerate(models)]
    states = tuple((i, s) for i, M in enumerate(models) for s in M.states)
    props = set()
    for M in models:
        props |= set(M.props)
    sigma = tuple(
        t_map(F, injections[i], M.sigma_of(s))
        for i, M in enumerate(models)
        for s in M.states
    )
    gamma = tuple(M.gamma_of(s) for i, M in enumerate(models) for s in M.states)
    return (
        ColoredModel(F, tuple(sorted(props)), states, sigma, gamma),
        injections,
    )


# --------------------------------------------------------------------------
# Enumeration and sampling


@lru_cache(maxsize=32)
def canonical_models(F: FunctorDescriptor, props: tuple, n: int) -> tuple:
    """All ``n``-state models over ``F`` and ``props``, one per isomorphism class.

    States are named ``s0 … s{n−1}`` and each returned model is the least
    relabeling of its class, so repeated calls are deterministic.  Models
    are ordered by their key, the tuple of ``(render_telem(σ(s)),
    sorted(γ(s)))`` over the states in order.

    The sweep works on integer codes: a state's code is the rank of its
    successor structure by rendering, times the number of colorings, plus
    the rank of its coloring by sorted names.  Both ranks follow the key's
    order, so code tuples compare exactly as keys do.  A combination is
    kept iff no state permutation relabels it to a smaller code tuple, i.e.
    iff it is the least relabeling of its class; the codes are walked in
    increasing order, so the result comes out sorted.  Raises CapExceeded
    when there are more than ``DEFAULT_CAP`` combinations to walk.
    """
    props = tuple(sorted(props))
    states = tuple(f"s{i}" for i in range(n))
    elems = sorted(enumerate_t(F, frozenset(states)), key=lambda t: render_telem(F, t))
    colorings = sorted(subsets(props), key=sorted)
    width = len(colorings)
    combinations = (len(elems) * width) ** n
    if combinations > DEFAULT_CAP:
        raise CapExceeded(
            f"{combinations} {n}-state combinations to sweep exceed the cap "
            f"{DEFAULT_CAP}"
        )
    rank = {t: r for r, t in enumerate(elems)}
    # Per non-identity permutation π (the first one is the identity): the
    # table c ↦ code of c relabeled by π, and a getter reading, for each
    # target state π(i) in order, the source state i.
    relabelings = []
    for perm in itertools.islice(itertools.permutations(range(n)), 1, None):
        pi = {states[i]: states[j] for i, j in enumerate(perm)}
        table = [rank[t_map(F, pi, t)] * width + c for t in elems for c in range(width)]
        relabelings.append((table.__getitem__, itemgetter(*map(perm.index, range(n)))))
    out = []
    for code in itertools.product(range(len(elems) * width), repeat=n):
        for table, source in relabelings:
            if tuple(map(table, source(code))) < code:
                break
        else:
            out.append(
                ColoredModel(
                    F,
                    props,
                    states,
                    tuple(elems[c // width] for c in code),
                    tuple(colorings[c % width] for c in code),
                )
            )
    return tuple(out)


def canonical_pointed_models(F: FunctorDescriptor, props: tuple, max_states: int):
    """Every pointed model with at most ``max_states`` states, up to isomorphism."""
    out = []
    for n in range(1, max_states + 1):
        for M in canonical_models(F, tuple(sorted(props)), n):
            out.extend(PointedModel(M, s) for s in M.states)
    return out


def random_model(F: FunctorDescriptor, props, n: int, rng) -> ColoredModel:
    states = tuple(f"s{i}" for i in range(n))
    return ColoredModel(
        F,
        tuple(sorted(set(props))),
        states,
        tuple(random_telem(F, states, rng) for _ in range(n)),
        tuple(
            frozenset(p for p in props if rng.random() < 0.5) for _ in range(n)
        ),
    )


# --------------------------------------------------------------------------
# Text format


def render_model(M, point=None) -> str:
    """Serialize a model (or pointed model) with canonically renamed states."""
    if isinstance(M, PointedModel):
        M, point = M.model, M.point
    ren = {s: f"s{i}" for i, s in enumerate(M.states)}
    lines = [
        f"functor {functor_tag(M.functor)};",
        "props {" + ", ".join(M.props) + "};",
    ]
    for i, s in enumerate(M.states):
        t = render_telem(M.functor, t_map(M.functor, ren, M.sigma[i]))
        g = "{" + ", ".join(sorted(M.gamma[i])) + "}"
        lines.append(f"state {ren[s]}; sigma {t}; gamma {g};")
    if point is not None:
        lines.append(f"point {ren[point]};")
    return "\n".join(lines) + "\n"


def parse_model(text: str):
    """Parse the model format; returns a PointedModel when a point is given."""
    cur = Cursor(text)
    cur.expect_word("functor")
    F = parse_functor(cur)
    cur.expect(";")
    cur.expect_word("props")
    props = cur.ident_set()
    cur.expect(";")
    states, sigma, gamma = [], {}, {}
    point = None
    while not cur.at_end():
        if cur.take_word("state"):
            name = cur.ident("state name")
            if name in sigma:
                cur.error(f"duplicate state {name!r}")
            cur.expect(";")
            cur.expect_word("sigma")
            t = parse_telem(cur, F, lambda c: c.ident("state name"))
            cur.expect(";")
            cur.expect_word("gamma")
            g = cur.ident_set()
            cur.expect(";")
            states.append(name)
            sigma[name] = t
            gamma[name] = g
        elif cur.take_word("point"):
            point = cur.ident("state name")
            cur.expect(";")
        else:
            cur.error("expected 'state' or 'point'")
    try:
        model = ColoredModel.make(
            F, sigma, gamma, props=props, states=tuple(states)
        )
        return PointedModel(model, point) if point is not None else model
    except ValueError as exc:
        cur.error(str(exc))
