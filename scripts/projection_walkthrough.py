#!/usr/bin/env python3
"""Walk a formula through translation, projection, and witness construction.

Starting from a formula with a distinguished proposition p, the script builds
the equivalent automaton, hides p by normalizing and merging transition
cells, then scans every small model over the reduced vocabulary, one per
code tuple, so isomorphic copies each get a turn: for each one the
projected automaton accepts, it reconstructs a full model that restores p
— bisimilar to the accepted model apart from p and accepted by the original
automaton — and prints the first few witnesses in full.
"""

import argparse
import sys

from nablamu import (
    PointedModel,
    free_props,
    parse_formula,
    parse_functor,
    render_automaton,
    render_formula,
    render_model,
)
from nablamu.automata import accepts, normalize
from nablamu.cli import _positive
from nablamu.coalgebra import CodeSweep
from nablamu.projection import construct_projection_witness, project_automaton
from nablamu.translation import automaton_to_formula, formula_to_automaton


def _pointed_models(F, props, max_states):
    """Every pointed model of every code tuple with at most ``max_states``
    states, smallest first."""
    for n in range(1, max_states + 1):
        sweep = CodeSweep(F, props, n)
        for m in range(sweep.radix**n):
            M = sweep.model(sweep.decode(m))
            for s in M.states:
                yield PointedModel(M, s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "formula",
        nargs="?",
        default="(q /\\ nabla {p, true})",
        help="source formula (default: a conjunction with one modal step)",
    )
    parser.add_argument("--hide", default="p", help="proposition to project away")
    parser.add_argument("--functor", default="powerset")
    parser.add_argument("--witness-bound", type=_positive, default=3)
    parser.add_argument(
        "--max-model-size", type=_positive, default=2, help="scan bound for reducts"
    )
    parser.add_argument(
        "--show", type=int, default=3, help="how many witnesses to print in full"
    )
    args = parser.parse_args(argv)

    F = parse_functor(args.functor)
    f = parse_formula(args.formula, F)
    if args.hide not in free_props(f):
        parser.error(f"{args.hide!r} does not occur in the formula")

    print(f"formula        {render_formula(f)}")
    aut = formula_to_automaton(f, F)
    print(f"automaton      {len(aut.states)} states over props {aut.props}")
    normalized = normalize(aut, args.witness_bound)
    print(f"normalized     {len(normalized.states)} states")
    proj = project_automaton(aut, args.hide, args.witness_bound)
    print(f"projected      props {proj.props}")
    print()
    print(render_automaton(proj))
    print(f"reads back as  {render_formula(automaton_to_formula(proj))}")
    print()

    visible = tuple(sorted(free_props(f) - {args.hide}))
    shown = accepted = scanned = 0
    for P in _pointed_models(F, visible, args.max_model_size):
        scanned += 1
        if not accepts(proj, P):
            continue
        accepted += 1
        W = construct_projection_witness(aut, P, args.hide, args.witness_bound)
        if shown < args.show:
            shown += 1
            print(f"-- accepted reduct #{accepted}")
            print(render_model(P.model, P.point).rstrip())
            print(f"   restored witness ({len(W.model.states)} states):")
            for line in render_model(W.model, W.point).splitlines():
                print(f"   {line}")
            print()
    print(
        f"scanned {scanned} pointed models over {visible}; "
        f"{accepted} accepted, every one restored and re-verified"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
