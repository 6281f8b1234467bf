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
results*, LMCS 2008).  Where a monotone part is present, and where
``a ∧ ¬b`` falls outside the translatable fragment, it is
``entails_bounded``: the desk-scale check that sweeps all pointed models
up to a size bound, smallest first, and returns the first countermodel it
meets.  The sweep evaluates ``a ∧ ¬b`` once per batch of models, on one
bitset view of the batch built from the models' integer codes; each state's
successor bits lie inside its own model's, so it satisfies exactly what it
satisfies in its own model, and only the countermodel is ever built.
``entails_bounded`` also validates interpolants and serves as the oracle
for ``entails``.
"""

from __future__ import annotations

from operator import lshift

from .automata import normalize, witness_coalgebra
from .coalgebra import PointedModel, canonical_codes, check_sweep_cap
from .functors import POWERSET, FunctorDescriptor, base
from .logic import (
    Formula,
    _BitView,
    _eval_bits,
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

# Models per bitset view in ``entails_bounded``.  One evaluation's setup then
# serves many models, while the bitsets stay a few machine words long.
_BATCH = 32


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
    size by size through the code tuples of ``canonical_codes`` (the models
    of ``canonical_models``, in the same order), cuts them into consecutive
    batches of ``_BATCH`` and evaluates ``a ∧ ¬b`` once per batch, with
    ``logic._eval_bits`` on a bitset view built from the codes alone.  The
    batch's j-th model of n states takes the bits from j·n up: a state's
    successor bits are the base bits of its successor structure shifted
    there, its atom bits come from its coloring, and the liftings other than
    powerset read its successor structure over the model's own states at
    that offset.  This is exact for every functor: whether a state satisfies
    a formula depends only on the states reachable through ``base`` of
    successor structures (the locality ``_eval_bits`` relies on), and every
    batch state's successor bits are its own model's, shifted, so each model
    is evaluated as it would be alone.  The lowest set bit of the result
    names the first countermodel by size, then by model order, then by state
    order, i.e. the first point of ``canonical_pointed_models`` satisfying
    ``a ∧ ¬b``; the sweep stops at that batch and builds that one model, and
    no other.  Sizes past the countermodel are never enumerated; a size
    beyond the enumeration cap raises CapExceeded when the sweep reaches it.
    """
    F = _functor_for(mk_and(a, b), functor)
    props = tuple(sorted(set(free_props(a)) | set(free_props(b))))
    witness = mk_and(a, mk_neg(b))
    for n in range(1, max_states + 1):
        sweep = canonical_codes(F, props, n)
        state_codes = range(len(sweep.elems) * len(sweep.colorings))
        # per state code: the bitset of its successor structure's base, and
        # per proposition the digit "1" if its coloring holds it, else "0"
        succ_of = [
            sum(1 << sweep.index[t] for t in base(F, sweep.sigma_of(v))) for v in state_codes
        ]
        digits = {p: ["1" if p in sweep.gamma_of(v) else "0" for v in state_codes] for p in props}
        shifts = [k - k % n for k in range(_BATCH * n)]  # the first bit of k's model
        for start in range(0, len(sweep.codes), _BATCH):
            batch = sweep.codes[start : start + _BATCH]
            flat = [v for code in batch for v in code]  # the code of batch state k
            # a proposition's bitset is its digits read as a binary numeral,
            # the last state's first
            atoms = {
                p: int("".join(map(d.__getitem__, reversed(flat))), 2)
                for p, d in digits.items()
            }
            succ = list(map(lshift, map(succ_of.__getitem__, flat), shifts))
            sigma = list(map(sweep.sigma_of, flat))
            view = _BitView(F, len(flat), succ, atoms, sweep.index, sigma, shifts)
            ext = _eval_bits(view, witness, {})
            if ext:
                k = (ext & -ext).bit_length() - 1  # the lowest set bit
                return False, PointedModel(sweep.model(batch[k // n]), sweep.states[k % n])
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
    ``max_states`` states refutes it, the game's strategy model pointed at the
    initial state, which may be larger.  A holding entailment raises
    CapExceeded exactly where the sweep would: at the first size up to
    ``max_states`` past the enumeration cap.

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
            check_sweep_cap(F, props, n)
        return True, None
    ok, cm = entails_bounded(a, b, max_states, F)
    if not ok:
        return ok, cm
    model = witness_coalgebra(aut).model
    if aut.initial not in eval_formula(model, witness):
        raise AssertionError("the strategy model does not refute the entailment")
    return False, PointedModel(model, aut.initial)
