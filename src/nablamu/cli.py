"""Batch command-line surface over model, formula, and automaton files.

Every command reads the textual file formats, runs one library operation,
and prints either a human-readable report or one line of canonical JSON
(``--format structured``).  Outputs are deterministic: identical inputs and
flags produce byte-identical structured output.

Exit codes: 0 success / semantic yes; 1 semantic no; 2 parse, file, or
argument error; 3 formula outside the translatable fragment.
"""

from __future__ import annotations

import argparse
import json
import sys

from .automata import normalize, parse_automaton, render_automaton
from .automata import accepts as automaton_accepts
from .coalgebra import PointedModel, greatest_bisimulation, parse_model, render_model
from .functors import DEFAULT_CAP, CapExceeded, functor_tag, parse_functor
from .interpolation import entails, entails_bounded, uniform_interpolant
from .laxcheck import _selftest_reports
from .logic import (
    eval_formula,
    free_props,
    parse_formula,
    render_formula,
    validate_monotone,
)
from .parsing import ParseError, parse_keep
from .projection import project_automaton
from .translation import UnsupportedFragment, automaton_to_formula, formula_to_automaton


def _emit(args, data: dict, human: str) -> None:
    if args.format == "structured":
        print(json.dumps(data, sort_keys=True, separators=(",", ":")))
    else:
        print(human)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_model(path: str):
    """Returns (model, point); the point defaults to the first declared state."""
    parsed = parse_model(_read(path))
    if isinstance(parsed, PointedModel):
        return parsed.model, parsed.point
    if not parsed.states:
        raise ValueError("model declares no states")
    return parsed, parsed.states[0]


def _formula_text(args) -> str:
    if args.formula is not None and args.formula_file is not None:
        raise ValueError("give the formula inline or with --formula-file, not both")
    if args.formula is not None:
        return args.formula
    if args.formula_file is not None:
        return _read(args.formula_file)
    raise ValueError("no formula given; pass it inline or with --formula-file")


# --------------------------------------------------------------------------
# Commands


def cmd_check(args) -> int:
    M, point = _load_model(args.model)
    f = parse_formula(_formula_text(args), M.functor)
    validate_monotone(f)
    extension = eval_formula(M, f)
    ext = sorted(extension)
    sat = point in extension
    verdict = "satisfied" if sat else "not satisfied"
    _emit(
        args,
        {"command": "check", "extension": ext, "point": point, "satisfied": sat},
        "extension {" + ", ".join(ext) + "}" + f"\npoint {point}: {verdict}",
    )
    return 0 if sat else 1


def cmd_bisim(args) -> int:
    A, pa = _load_model(args.model_a)
    B, pb = _load_model(args.model_b)
    if A.functor != B.functor:
        raise ValueError("the two models live over different functors")
    Q = frozenset(A.props) | frozenset(B.props)
    if args.disregard is not None:
        Q = Q - {args.disregard}
    R = greatest_bisimulation(A, B, Q)
    pairs = sorted(R)
    related = (pa, pb) in R
    human = "\n".join(f"{x} ~ {y}" for x, y in pairs) or "(empty relation)"
    human += f"\npoints {pa}, {pb}: " + ("related" if related else "not related")
    _emit(
        args,
        {
            "command": "bisim",
            "relation": [[x, y] for x, y in pairs],
            "points": [pa, pb],
            "related": related,
            "disregard": args.disregard,
        },
        human,
    )
    return 0 if related else 1


def cmd_accept(args) -> int:
    aut = parse_automaton(_read(args.automaton))
    M, pt = _load_model(args.model)
    ok = automaton_accepts(aut, PointedModel(M, pt))
    _emit(
        args,
        {"command": "automaton.accept", "point": pt, "accepted": ok},
        f"point {pt}: " + ("accepted" if ok else "rejected"),
    )
    return 0 if ok else 1


def cmd_to_formula(args) -> int:
    text = render_formula(automaton_to_formula(parse_automaton(_read(args.automaton))))
    _emit(args, {"command": "automaton.to-formula", "formula": text}, text)
    return 0


def cmd_project(args) -> int:
    aut = parse_automaton(_read(args.automaton))
    out = render_automaton(project_automaton(aut, args.prop, args.witness_bound))
    _emit(
        args,
        {"command": "automaton.project", "prop": args.prop, "automaton": out},
        out.rstrip("\n"),
    )
    return 0


def cmd_normalize(args) -> int:
    aut = parse_automaton(_read(args.automaton))
    out = render_automaton(normalize(aut, args.witness_bound))
    _emit(args, {"command": "automaton.normalize", "automaton": out}, out.rstrip("\n"))
    return 0


def cmd_to_automaton(args) -> int:
    F = parse_functor(args.functor)
    f = parse_formula(_formula_text(args), F)
    out = render_automaton(formula_to_automaton(f, functor=F))
    _emit(args, {"command": "to-automaton", "automaton": out}, out.rstrip("\n"))
    return 0


def cmd_interpolate(args) -> int:
    F = parse_functor(args.functor)
    f = parse_formula(_formula_text(args), F)
    keep = parse_keep(args.keep)
    g = uniform_interpolant(f, keep, bound=args.witness_bound, functor=F)
    ok, cm = entails_bounded(f, g, args.max_model_size, functor=F)
    text = render_formula(g)
    vocab = sorted(free_props(g))
    human = (
        f"interpolant: {text}\nvocabulary: {{{', '.join(vocab)}}}\n"
        f"input entails interpolant up to {args.max_model_size} states: "
        + ("yes" if ok else "NO")
    )
    _emit(
        args,
        {
            "command": "interpolate",
            "interpolant": text,
            "vocabulary": vocab,
            "keep": list(keep),
            "entailment_verified": ok,
            "max_model_size": args.max_model_size,
        },
        human,
    )
    return 0 if ok else 1


def cmd_entails(args) -> int:
    F = parse_functor(args.functor)
    a = parse_formula(args.formula_a, F)
    b = parse_formula(args.formula_b, F)
    ok, cm = entails(a, b, args.max_model_size, functor=F)
    counter = None if ok else render_model(cm)
    human = (
        f"entailment holds on all models with at most {args.max_model_size} states"
        if ok
        else "countermodel:\n" + counter.rstrip("\n")
    )
    _emit(
        args,
        {
            "command": "entails",
            "holds": ok,
            "countermodel": counter,
            "max_model_size": args.max_model_size,
        },
        human,
    )
    return 0 if ok else 1


def cmd_selftest(args) -> int:
    F = parse_functor(args.functor)
    axioms, support = _selftest_reports(F, args.carrier_bound, args.cap)
    ok = axioms.ok and support.ok
    _emit(
        args,
        {
            "command": "selftest",
            "functor": functor_tag(F),
            "carrier_bound": args.carrier_bound,
            "axioms": {name: passed for name, (passed, _) in axioms.checks.items()},
            "support": {name: passed for name, (passed, _) in support.checks.items()},
            "ok": ok,
        },
        str(axioms) + "\n" + str(support),
    )
    return 0 if ok else 1


# --------------------------------------------------------------------------
# Parser


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0  # reported like any other value that is not positive
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


# The flags several subcommands share, each declared once; a subcommand
# takes only those it reads.
_SHARED_FLAGS = {
    "--format": dict(
        choices=("human", "structured"),
        default="human",
        help="output mode (structured = one line of canonical JSON)",
    ),
    "--functor": dict(
        default="powerset",
        help="functor tag for formula parsing (default: powerset)",
    ),
    "--witness-bound": dict(
        type=_positive,
        default=3,
        metavar="K",
        help="model size bound for realizability checks on functors with a "
        "monotone part (default: 3); exact elsewhere, where K is unused",
    ),
    "--max-model-size": dict(
        type=_positive,
        default=3,
        metavar="N",
        help="model size bound for entailment sweeps (default: 3); an exact "
        "entails verdict uses N only to pick the printed countermodel and to "
        "apply the enumeration cap",
    ),
    "--cap": dict(
        type=_positive,
        default=DEFAULT_CAP,
        metavar="C",
        help="enumeration cardinality cap (default: 10^6)",
    ),
}


class _Unbuilt:
    """Stands in for the parser of a subcommand the command line does not
    name, and takes its arguments and subcommands without building them."""

    def _ignore(self, *args, **kwargs):
        return self

    add_argument = set_defaults = add_subparsers = add_parser = _ignore


def _build_parser(argv=None) -> argparse.ArgumentParser:
    """The CLI's parser; given ``argv``, only the subcommands it names get a
    real parser.  That is exact: argparse dispatches only to a name that
    occurs in ``argv``, and root help, usage and errors read only the names
    and help texts, which every subcommand still registers."""

    def parser_class(**kw):
        # add_parser passes prog="<parent prog> <name>"
        if argv is None or kw["prog"].rsplit(" ", 1)[1] in argv:
            return argparse.ArgumentParser(**kw)
        return _Unbuilt()

    parser = argparse.ArgumentParser(
        prog="nablamu",
        description="Coalgebraic fixpoint logic: models, automata, interpolants.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=parser_class)

    def command(group, name, handler, *positionals, flags=(), formula=False, **kw):
        """Add subcommand ``name``: ``--format`` and the shared ``flags``, the
        ``(name, help)`` positionals, then the formula source if it reads one."""
        p = group.add_parser(name, **kw)
        for flag in ("--format", *flags):
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        for dest, text in positionals:
            p.add_argument(dest, help=text)
        if formula:
            p.add_argument("formula", nargs="?", help="formula text")
            p.add_argument("--formula-file", help="read the formula from a file")
        p.set_defaults(handler=handler)
        return p

    command(
        sub, "check", cmd_check, ("model", "model file"), formula=True,
        help="evaluate a formula on a model",
    )
    p = command(
        sub, "bisim", cmd_bisim, ("model_a", "first model file"),
        ("model_b", "second model file"), help="greatest bisimulation of two models",
    )
    p.add_argument("--disregard", metavar="P", help="ignore this proposition")

    p = sub.add_parser("automaton", help="operate on an automaton file")
    asub = p.add_subparsers(dest="sub", required=True, parser_class=parser_class)
    aut = ("automaton", "automaton file")
    command(
        asub, "accept", cmd_accept, aut, ("model", "model file"),
        help="run the acceptance game",
    )
    command(
        asub, "to-formula", cmd_to_formula, aut,
        help="translate to an equivalent formula",
    )
    command(
        asub, "project", cmd_project, aut, ("prop", "proposition to hide"),
        flags=("--witness-bound",), help="hide a proposition existentially",
    )
    command(
        asub, "normalize", cmd_normalize, aut, flags=("--witness-bound",),
        help="adjoin a true state and prune unrealizable elements",
    )

    command(
        sub, "to-automaton", cmd_to_automaton, flags=("--functor",), formula=True,
        help="translate a formula to an automaton",
    )
    p = command(
        sub, "interpolate", cmd_interpolate, formula=True,
        flags=("--functor", "--witness-bound", "--max-model-size"),
        help="uniform interpolant of a formula",
    )
    p.add_argument(
        "--keep",
        required=True,
        metavar="{q,...}",
        help="propositions the interpolant may use",
    )
    command(
        sub, "entails", cmd_entails, ("formula_a", "antecedent formula text"),
        ("formula_b", "consequent formula text"),
        flags=("--functor", "--max-model-size"),
        help="entailment between two formulas",
        description="Whether formula_a entails formula_b. Exact over every "
        "functor without a monotone part when a /\\ ~b translates to an "
        "automaton: the nonemptiness game, solved as a parity fixpoint, decides "
        "it. A failed entailment prints the first countermodel of at most N "
        "states, or, if there is none, the part of the fixpoint's strategy "
        "model that the point reaches, which may be larger. Functors with a "
        "monotone part and formulas outside the fragment (a negated modality "
        "outside powerset among them) are swept over all models of at most N "
        "states.",
    )
    p = command(
        sub, "selftest", cmd_selftest, flags=("--functor", "--cap"),
        help="exhaustive lax-extension axiom sweep",
    )
    p.add_argument(
        "--carrier-bound",
        type=_positive,
        default=2,
        metavar="N",
        help="carrier size bound for the sweep (default: 2)",
    )

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    try:
        return args.handler(args)
    except UnsupportedFragment as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ParseError, CapExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
