#!/usr/bin/env python3
"""Compute a uniform interpolant and verify its defining properties.

Given a formula and a vocabulary to keep, hides the remaining propositions
together in one automaton projection, then verifies on all small models
that the input entails the interpolant and that the interpolant proves
exactly the same kept-vocabulary consequences as the input (demonstrated
against a consequent supplied with --against).
"""

import argparse
import sys

from nablamu import (
    entails_bounded,
    free_props,
    parse_formula,
    parse_functor,
    render_formula,
    render_model,
    uniform_interpolant,
)
from nablamu.cli import _positive
from nablamu.parsing import parse_keep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "formula", nargs="?", default="(q /\\ (p /\\ nabla {(p \\/ q), true}))"
    )
    parser.add_argument(
        "--keep",
        default="q",
        type=parse_keep,
        help="comma-separated vocabulary the interpolant may use, optionally "
        "in braces (default q)",
    )
    parser.add_argument(
        "--against",
        default="(q /\\ nabla {true})",
        help="a consequent over the kept vocabulary to compare entailments",
    )
    parser.add_argument("--functor", default="powerset")
    parser.add_argument("--witness-bound", type=_positive, default=3)
    parser.add_argument("--max-model-size", type=_positive, default=3)
    args = parser.parse_args(argv)

    F = parse_functor(args.functor)
    keep = args.keep
    a = parse_formula(args.formula, F)
    b = parse_formula(args.against, F)

    print(f"input          {render_formula(a)}")
    print(f"keep           {set(keep) or '{}'}")
    hidden = sorted(set(free_props(a)) - set(keep))
    print(f"hiding         {hidden}")
    a_keep = uniform_interpolant(a, keep, bound=args.witness_bound, functor=F)
    print(f"interpolant    {render_formula(a_keep)}")
    print(f"vocabulary     {set(free_props(a_keep)) or '{}'} (within keep: "
          f"{set(free_props(a_keep)) <= set(keep)})")
    print()

    ok, counter = entails_bounded(a, a_keep, args.max_model_size, functor=F)
    print(f"input entails interpolant on models <= {args.max_model_size}: {ok}")
    if counter is not None:
        print(render_model(counter.model, counter.point))
        return 1

    direct, _ = entails_bounded(a, b, args.max_model_size, functor=F)
    via, _ = entails_bounded(a_keep, b, args.max_model_size, functor=F)
    print(f"consequent     {render_formula(b)}")
    print(f"entailed by the input: {direct}; by the interpolant: {via}")
    if direct != via:
        print("entailment transfer FAILED")
        return 1
    print("entailment transfer verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
