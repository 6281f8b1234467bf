"""Colored coalgebras: pointed models, morphisms, bisimulations, coproducts.

A model is a coalgebra ``σ : S → T S`` together with a coloring
``γ : S → P(props)``.  Bisimulations between models are relations whose
lifting relates the successor structures of related states and whose colors
agree on a chosen proposition set ``Q``; the converse-compatibility of the
liftings makes the single-direction condition self-dual.
"""

from __future__ import annotations

import re

from .functors import (
    DEFAULT_CAP,
    POWERSET,
    CapExceeded,
    FunctorDescriptor,
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
from .records import Record


class ColoredModel(Record):
    """A finite coalgebra with propositional coloring.

    ``sigma[i]`` is the successor structure of ``states[i]`` (an element of
    ``T states``); ``gamma[i]`` is its set of true propositions.  The
    constructor validates the model (and so do ``make``, ``parse_model``,
    ``project_model`` and ``random_model``, which call it); only
    ``CodeSweep.model`` and ``coproduct``, whose models are valid by
    construction, skip the checks through ``_unchecked``.
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

    @classmethod
    def _unchecked(cls, functor, props, states, sigma, gamma, index=None) -> "ColoredModel":
        """The model with these fields, built without ``__post_init__``'s
        checks: for callers that construct only valid models.  ``index``,
        the map from each state to its position, may be shared between
        models with the same states, since nothing writes to it."""
        M = object.__new__(cls)
        M.__dict__.update(
            functor=functor,
            props=props,
            states=states,
            sigma=sigma,
            gamma=gamma,
            _index={s: i for i, s in enumerate(states)} if index is None else index,
        )
        return M

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

    def sigma_of(self, s):
        return self.sigma[self._index[s]]

    def gamma_of(self, s) -> frozenset:
        return self.gamma[self._index[s]]


class PointedModel(Record):
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

    ``R`` is a set of (M1 state, M2 state) pairs.  ``Q`` defaults to every
    proposition of either model.  Because the lifting commutes with
    converses, the single lifting condition already implies its mirror
    image.
    """
    F = _same_functor(M1, M2)
    Q = (
        frozenset(M1.props) | frozenset(M2.props)
        if Q is None
        else frozenset(Q)
    )
    for s, s2 in R:
        if s not in M1._index or s2 not in M2._index:
            return False
        if M1.gamma_of(s) & Q != M2.gamma_of(s2) & Q:
            return False
        if not lift_member(F, R, M1.sigma_of(s), M2.sigma_of(s2)):
            return False
    return True


def greatest_bisimulation(M1: ColoredModel, M2: ColoredModel, Q=None, with_steps: bool = False):
    """The largest bisimulation between two models, by partition refinement,
    as a frozenset of (M1 state, M2 state) pairs.

    Refines a partition of the disjoint union of the models.  Its states are
    numbered, ``M1``'s first, so states the two models share by name stay
    apart.  The first partition groups states by their colors in ``Q``.
    Each round splits every block by the signature ``T(block-of)(σ(s))`` of
    its states, and refinement stops at the first round that moves no state.
    ``s`` and ``t`` are related iff they end in one block.

    Only the first round signs every state.  A signature reads only the
    block ids of a state's successors, and a split keeps the old id for the
    states that stay, so afterwards only the predecessors of the states that
    moved can get a new signature (the worklist form of Paige & Tarjan,
    *Three partition refinement algorithms*, SIAM J. Comput. 1987, made
    generic over functors by Dorsch, Milius, Schröder & Wißmann, CONCUR
    2017).  Each block keeps the one signature its settled members share;
    in a block with settled members, re-signed states whose signature
    equals it stay and every other group moves to a new block, while in a
    block whose members were all re-signed the first group keeps the id.
    The partition after each round is the one a full re-signing would give,
    up to block names.

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
    pred = [[] for _ in succ]
    for i, x in enumerate(succ):
        for j in base(F, x):
            pred[j].append(i)
    ids: dict = {}
    block = [ids.setdefault(g & Q, len(ids)) for g in M1.gamma + M2.gamma]
    size = [0] * len(ids)
    for b in block:
        size[b] += 1
    shared = [None] * len(ids)
    block_of = block.__getitem__
    dirty, steps = range(len(succ)), 0
    while True:
        groups: dict = {}
        for s in dirty:
            by_sig = groups.setdefault(block[s], {})
            by_sig.setdefault(t_map(F, block_of, succ[s]), []).append(s)
        moved = []
        for b, by_sig in groups.items():
            if sum(map(len, by_sig.values())) == size[b]:
                shared[b] = next(iter(by_sig))
            by_sig.pop(shared[b], None)
            for sig, members in by_sig.items():
                new = len(size)
                size.append(len(members))
                shared.append(sig)
                size[b] -= len(members)
                for s in members:
                    block[s] = new
                moved += members
        if not moved:
            break
        steps += 1
        dirty = {i for s in moved for i in pred[s]}
    left: dict = {}
    for s, b in zip(M1.states, block):
        left.setdefault(b, []).append(s)
    pairs = frozenset(
        (s, t) for t, b in zip(M2.states, block[n1:]) for s in left.get(b, ())
    )
    return (pairs, steps) if with_steps else pairs


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
    and is a color-preserving morphism.  The union is not re-validated: its
    parts are models, and the injections rename their states apart.
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
        t_map(F, injection, t)
        for injection, M in zip(injections, models)
        for t in M.sigma
    )
    gamma = tuple(g for M in models for g in M.gamma)
    return (
        ColoredModel._unchecked(F, tuple(sorted(props)), states, sigma, gamma),
        injections,
    )


# --------------------------------------------------------------------------
# Enumeration and sampling


class CodeSweep:
    """The integer codes of the ``n``-state models over ``functor`` and
    ``props``.

    States are named ``s0 … s{n−1}``, ``elems`` lists ``T states`` in
    rendering order and ``colorings`` the subsets of ``props`` by sorted
    names.  A state's code ``v < radix = len(elems) · len(colorings)``
    stands for the successor structure ``sigma_of(v) = elems[v //
    len(colorings)]`` and the coloring ``gamma_of(v) = colorings[v %
    len(colorings)]``, and a model is the tuple of its states' codes, or
    the number m < radix^n whose digit of place value ``places[i]`` is the
    code of state i (:meth:`decode`).  Code tuples compare as the tuples of
    their states' (rendered successor structure, sorted colors) pairs do.
    ``index`` maps each state to its position.  Raises
    CapExceeded, before ordering any element, past ``DEFAULT_CAP`` tuples.
    """

    __slots__ = ("functor", "props", "states", "elems", "colorings", "radix",
                 "places", "index", "sigma_of", "gamma_of")

    def __init__(self, functor: FunctorDescriptor, props: tuple, n: int):
        states = tuple(f"s{i}" for i in range(n))
        elems = enumerate_t(functor, frozenset(states))
        width = 2 ** len(props)
        self.radix = radix = len(elems) * width
        if radix**n > DEFAULT_CAP:
            raise CapExceeded(
                f"{radix**n} {n}-state combinations to sweep exceed the cap "
                f"{DEFAULT_CAP}"
            )
        elems = tuple(sorted(elems, key=lambda t: render_telem(functor, t)))
        colorings = tuple(sorted(subsets(props), key=sorted))
        self.functor, self.props, self.states = functor, props, states
        self.elems, self.colorings = elems, colorings
        self.places = [radix ** (n - 1 - i) for i in range(n)]
        self.index = {s: i for i, s in enumerate(states)}
        self.sigma_of = [t for t in elems for _ in range(width)].__getitem__
        self.gamma_of = (list(colorings) * len(elems)).__getitem__

    def model(self, code) -> ColoredModel:
        """The model whose states carry ``code``; valid by construction."""
        return ColoredModel._unchecked(
            self.functor,
            self.props,
            self.states,
            tuple(map(self.sigma_of, code)),
            tuple(map(self.gamma_of, code)),
            self.index,
        )

    def decode(self, m: int) -> tuple:
        """The code tuple numbered ``m``."""
        return tuple(m // w % self.radix for w in self.places)

    def structure_codes(self, r: int) -> int:
        """The codes whose successor structure is ``elems[r]``, as a bitmask
        (bit v for code v)."""
        width = len(self.colorings)
        return ((1 << width) - 1) << r * width


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


# The statement reader's patterns use the tokenizer's classes: identifiers
# are ``[A-Za-z][A-Za-z0-9_]*`` and ``\s`` is exactly ``str.isspace``.  Each
# repetition starts with a literal ``,``, so a failed match is linear in the
# statement.
_IDENT = r"[A-Za-z][A-Za-z0-9_]*"
_NAMES = rf"\{{\s*({_IDENT}\s*(?:,\s*{_IDENT}\s*)*)?\}}"
_HEAD = re.compile(rf"\s*functor\s+powerset\s*;\s*props\s*{_NAMES}\s*;")
_STATE = re.compile(
    rf"\s*state\s+({_IDENT})\s*;\s*sigma\s*{_NAMES}\s*;\s*gamma\s*{_NAMES}\s*;"
)
_TAIL = re.compile(rf"(?:\s*point\s+({_IDENT})\s*;)?\s*\Z")


def _names(group) -> frozenset:
    """The identifiers of a list ``_NAMES`` matched (``None`` if empty)."""
    return frozenset(map(str.strip, group.split(","))) if group else frozenset()


def _read_statements(text: str):
    """The model of a well-formed powerset model text, read one ``state``
    statement per match, or ``None`` where ``parse_model``'s token reader
    must decide: any other functor, a ``point`` that is not the last
    statement, a second ``point``, anything malformed, or a model that
    ``ColoredModel.make`` or ``PointedModel`` rejects (a state declared
    twice, an undeclared successor, proposition or point)."""
    m = _HEAD.match(text)
    if m is None:
        return None
    props = _names(m[1])
    states, sigma, gamma = [], {}, {}
    pos = m.end()
    match = _STATE.match
    while (m := match(text, pos)) is not None:
        name, t, g = m.groups()
        states.append(name)
        sigma[name] = _names(t)
        gamma[name] = _names(g)
        pos = m.end()
    m = _TAIL.match(text, pos)
    if m is None:
        return None
    try:
        model = ColoredModel.make(
            POWERSET, sigma, gamma, props=props, states=tuple(states)
        )
        return model if m[1] is None else PointedModel(model, m[1])
    except ValueError:
        return None


def parse_model(text: str):
    """Parse the model format; returns a PointedModel when a point is given.

    A powerset model whose statements are all ``state`` statements, save an
    optional last ``point``, is read by ``_read_statements``, one pattern
    match per statement.  Every other text, and every text that reader
    declines, goes through the token ``Cursor``, which alone raises the
    ``ParseError``s; both build the model with ``ColoredModel.make``, so
    they give equal models.
    """
    fast = _read_statements(text)
    if fast is not None:
        return fast
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
            name = cur.ident("state name")
            if point is not None:
                cur.error(f"duplicate point {name!r}")
            point = name
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
