"""Uniform interpolants by existential projection of automata.

``uniform_interpolant`` computes a formula equivalent to "the input holds in
some model that differs only in the propositions outside the vocabulary to
keep", the strongest consequence of the input in that vocabulary: translate
to an automaton, project every hidden proposition at once, translate back.
``exists_p`` hides one proposition.  Both inherit the guarded-fragment
restrictions of the automaton translation; the projection is exact for
functors with a functorial lifting, and its realizability ``bound`` applies
only where a monotone part is present.

``entails`` decides entailment exactly where it can: over every functor with
a functorial lifting, a ⊨ b holds iff the automaton of ``a ∧ ¬b`` accepts
nothing, i.e. iff the existential player loses its initial state in the
nonemptiness game (Kupke & Venema, *Coalgebraic automata theory: basic
results*, LMCS 2008), which normalization solves as a parity fixpoint.
Where a monotone part is present, and where ``a ∧ ¬b`` falls outside the
translatable fragment, it is ``entails_bounded``: the desk-scale check that
sweeps all pointed models up to a size bound, smallest first, and returns
the first countermodel it meets.  The sweep evaluates ``a ∧ ¬b`` once per
size on the bitset views of every tuple of state codes of that size
(``logic._tuple_views``, which the realizability sweep reads too), not
model by model: an atom, and "state i has successor structure t", is a
periodic bit pattern over the tuples, and a ∇ node is decided once per
successor structure for all tuples at once.  Only the countermodel is ever
built, and no isomorphism classes are enumerated.
``entails_bounded`` also validates interpolants and serves as the oracle
for ``entails``.
"""

from __future__ import annotations

from .automata import normalize, witness_coalgebra
from .coalgebra import CodeSweep, ColoredModel, PointedModel
from .functors import POWERSET, FunctorDescriptor, base
from .logic import (
    Formula,
    _eval_bits,
    _tuple_views,
    eval_formula,
    free_props,
    mk_and,
    mk_neg,
    validate_monotone,
)
from .projection import _delta_p_merge
from .translation import (
    UnsupportedFragment,
    _infer_functor,
    automaton_to_formula,
    formula_to_automaton,
)


def _functor_for(f: Formula, functor=None) -> FunctorDescriptor:
    if functor is not None:
        return functor
    try:
        return _infer_functor(f)
    except ValueError:
        return POWERSET


def exists_p(
    f: Formula, p: str, bound: int = 3, functor: FunctorDescriptor = None
) -> Formula:
    """A formula over the remaining vocabulary equivalent to ∃p. f: the
    uniform interpolant keeping every other free proposition."""
    return uniform_interpolant(f, free_props(f) - {p}, bound, functor)


def uniform_interpolant(
    f: Formula, keep, bound: int = 3, functor: FunctorDescriptor = None
) -> Formula:
    """The strongest consequence of ``f`` using only the propositions in ``keep``.

    One normalization and one merge of cells hide every proposition outside
    ``keep`` (``f`` itself is returned when none is free): a merged normalized
    automaton stays normalized, as the merge keeps the true state, each
    state's elements and every realization.  Modality-free formulas default
    to the powerset functor.  Exact for functors with a functorial lifting;
    ``bound`` caps the realizing models only where a monotone part is present.
    Raises UnsupportedFragment outside the translatable fragment, and
    ValueError when a fixpoint variable of ``f`` occurs negatively.
    """
    validate_monotone(f)
    hidden = free_props(f) - frozenset(keep)
    if not hidden:
        return f
    aut = formula_to_automaton(f, functor=_functor_for(f, functor))
    return automaton_to_formula(_delta_p_merge(normalize(aut, bound), hidden))


def entails_bounded(
    a: Formula,
    b: Formula,
    max_states: int = 3,
    functor: FunctorDescriptor = None,
):
    """Whether ``a`` entails ``b`` on all pointed models of at most ``max_states``.

    Returns ``(True, None)`` or ``(False, countermodel)``.  The sweep goes
    size by size and evaluates ``a ∧ ¬b`` with ``logic._eval_bits`` on the
    bitset views of every n-state code tuple (:func:`logic._tuple_views`),
    in slices of consecutive tuples, in tuple order.  No model is built and no isomorphism class is enumerated
    on the way: every bit of the view is one state of one tuple, and
    Boolean operations, fixpoint iteration and the view's ∇ rule all work
    on each tuple's bits as they would on that model alone.

    The countermodel is the lowest tuple with a set bit, decoded, and
    pointed at its lowest such state.  Satisfaction is invariant under
    relabeling, so that tuple is the least of its isomorphism class, and
    no smaller class has a point satisfying ``a ∧ ¬b``.  The sweep stops
    at the slice holding it and builds that model, and no other.  Sizes
    past the countermodel are never swept; a size beyond the enumeration
    cap raises CapExceeded when the sweep reaches it.
    """
    F = _functor_for(mk_and(a, b), functor)
    props = tuple(sorted(set(free_props(a)) | set(free_props(b))))
    witness = mk_and(a, mk_neg(b))
    for n in range(1, max_states + 1):
        for view in _tuple_views(F, props, n):
            ext = _eval_bits(view, witness, {})
            if ext:
                return False, view.countermodel(ext)
    return True, None


def entails(
    a: Formula,
    b: Formula,
    max_states: int = 3,
    functor: FunctorDescriptor = None,
):
    """Whether ``a`` entails ``b``; returns ``(True, None)`` or ``(False, countermodel)``.

    Over a functor with a functorial lifting (every functor without a
    monotone part), when ``a ∧ ¬b`` translates to an automaton, the verdict
    is exact: the entailment holds iff normalizing the automaton, which keeps
    exactly the element moves the existential player wins in its nonemptiness
    game, leaves the initial state none.  Then ``max_states`` bounds only what
    the answer reports.  A failed entailment returns the countermodel
    of ``entails_bounded(a, b, max_states)``, or, when no model of at most
    ``max_states`` states refutes it, the strategy model that normalization's
    nonemptiness fixpoint records (:func:`automata.witness_coalgebra`): its
    submodel generated by the initial state, pointed there, and checked
    against ``a ∧ ¬b``.  It may be larger than ``max_states``.  A holding
    entailment raises CapExceeded exactly where the sweep would: at the
    first size up to ``max_states`` past the enumeration cap.

    Every other input (a functor with a monotone part, or ``a ∧ ¬b`` outside
    the fragment, which holds every negated modality outside powerset) gets
    the result of ``entails_bounded``.  A formula whose fixpoint
    variable occurs negatively raises ValueError.
    """
    validate_monotone(a)
    validate_monotone(b)
    F = _functor_for(mk_and(a, b), functor)
    if not F.has_functorial_lifting:
        return entails_bounded(a, b, max_states, F)
    props = tuple(sorted(set(free_props(a)) | set(free_props(b))))
    witness = mk_and(a, mk_neg(b))
    try:
        aut = normalize(formula_to_automaton(witness, functor=F, props=props))
    except UnsupportedFragment:
        return entails_bounded(a, b, max_states, F)
    if not any(q == aut.initial for (q, _), _ in aut.delta):
        for n in range(1, max_states + 1):
            CodeSweep(F, props, n)  # raises the sweep's CapExceeded
        return True, None
    ok, cm = entails_bounded(a, b, max_states, F)
    if not ok:
        return ok, cm
    model = witness_coalgebra(aut).model
    reach, todo = {aut.initial}, [aut.initial]
    while todo:
        new = base(F, model.sigma_of(todo.pop())) - reach
        reach |= new
        todo.extend(new)
    model = ColoredModel.make(
        F,
        {q: model.sigma_of(q) for q in reach},
        {q: model.gamma_of(q) for q in reach},
        props=model.props,
        states=[q for q in model.states if q in reach],
    )
    if aut.initial not in eval_formula(model, witness):
        raise AssertionError("the strategy model does not refute the entailment")
    return False, PointedModel(model, aut.initial)
