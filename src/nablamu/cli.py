"""Batch command-line surface over model, formula, and automaton files.

Every command reads the textual file formats, runs one library operation,
and prints either a human-readable report or one line of canonical JSON
(``--format structured``).  Outputs are deterministic: identical inputs and
flags produce byte-identical structured output.

Each leaf command is declared once, in ``_COMMANDS``.  A well-formed command
line (the command's words, its positionals, then ``--flag value`` pairs) is
read from that table without argparse; help, usage errors and every other
form of command line go to the argparse parser built from the same table.

Exit codes: 0 success / semantic yes; 1 semantic no; 2 parse, file, or
argument error; 3 formula outside the translatable fragment.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, NamedTuple

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
# Command table and parsers


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0  # reported like any other value that is not positive
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


# Every flag, declared once; each command names those it reads.
_FLAGS = {
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
    "--formula-file": dict(help="read the formula from a file"),
    "--disregard": dict(metavar="P", help="ignore this proposition"),
    "--keep": dict(
        required=True,
        metavar="{q,...}",
        help="propositions the interpolant may use",
    ),
    "--carrier-bound": dict(
        type=_positive,
        default=2,
        metavar="N",
        help="carrier size bound for the sweep (default: 2)",
    ),
}


class _Command(NamedTuple):
    """A leaf command: the words that name it, its handler and help, its
    ``(dest, help)`` positionals, whether an inline formula may follow them,
    its flags (keys of ``_FLAGS``, in help order), and its description."""

    words: tuple
    handler: Callable
    help: str
    positionals: tuple = ()
    formula: bool = False
    flags: tuple = ()
    description: str | None = None


_AUTOMATON = ("automaton", "automaton file")
_MODEL = ("model", "model file")

_COMMANDS = (
    _Command(
        ("check",), cmd_check, "evaluate a formula on a model",
        positionals=(_MODEL,), formula=True, flags=("--format", "--formula-file"),
    ),
    _Command(
        ("bisim",), cmd_bisim, "greatest bisimulation of two models",
        positionals=(("model_a", "first model file"), ("model_b", "second model file")),
        flags=("--format", "--disregard"),
    ),
    _Command(
        ("automaton", "accept"), cmd_accept, "run the acceptance game",
        positionals=(_AUTOMATON, _MODEL), flags=("--format",),
    ),
    _Command(
        ("automaton", "to-formula"), cmd_to_formula, "translate to an equivalent formula",
        positionals=(_AUTOMATON,), flags=("--format",),
    ),
    _Command(
        ("automaton", "project"), cmd_project, "hide a proposition existentially",
        positionals=(_AUTOMATON, ("prop", "proposition to hide")),
        flags=("--format", "--witness-bound"),
    ),
    _Command(
        ("automaton", "normalize"), cmd_normalize,
        "adjoin a true state and prune unrealizable elements",
        positionals=(_AUTOMATON,), flags=("--format", "--witness-bound"),
    ),
    _Command(
        ("to-automaton",), cmd_to_automaton, "translate a formula to an automaton",
        formula=True, flags=("--format", "--functor", "--formula-file"),
    ),
    _Command(
        ("interpolate",), cmd_interpolate, "uniform interpolant of a formula",
        formula=True,
        flags=("--format", "--functor", "--witness-bound", "--max-model-size",
               "--formula-file", "--keep"),
    ),
    _Command(
        ("entails",), cmd_entails, "entailment between two formulas",
        positionals=(
            ("formula_a", "antecedent formula text"),
            ("formula_b", "consequent formula text"),
        ),
        flags=("--format", "--functor", "--max-model-size"),
        description="Whether formula_a entails formula_b. Exact over every "
        "functor without a monotone part when a /\\ ~b translates to an "
        "automaton: the nonemptiness game, solved as a parity fixpoint, decides "
        "it. A failed entailment prints the first countermodel of at most N "
        "states, or, if there is none, the part of the fixpoint's strategy "
        "model that the point reaches, which may be larger. Functors with a "
        "monotone part and formulas outside the fragment (a negated modality "
        "outside powerset among them) are swept over all models of at most N "
        "states.",
    ),
    _Command(
        ("selftest",), cmd_selftest, "exhaustive lax-extension axiom sweep",
        flags=("--format", "--functor", "--cap", "--carrier-bound"),
    ),
)

# The help of each command word that only groups leaf commands.
_GROUPS = {"automaton": "operate on an automaton file"}

_LEAVES = {command.words: command for command in _COMMANDS}


def _read_argv(argv):
    """The namespace ``_build_parser().parse_args(argv)`` returns, read from
    ``_COMMANDS`` without argparse; ``None`` unless ``argv`` is

    - a leaf command's words;
    - its positionals, the inline formula optional, none starting with ``-``;
    - ``--flag value`` pairs: each flag one of the leaf's, spelled out and
      given at most once, each value not starting with ``-`` and passing the
      flag's type and choices, and every required flag among them.

    Flags come last because argparse reads a flag between positionals
    differently from one Python version to the next (3.11 rejects ``check M
    --format structured p``).  Help, usage errors, ``--flag=value``,
    abbreviations and ``--`` are left to argparse."""
    command = _LEAVES.get(tuple(argv[:1])) or _LEAVES.get(tuple(argv[:2]))
    if command is None:
        return None
    rest = argv[len(command.words) :]
    count = next((i for i, arg in enumerate(rest) if arg.startswith("-")), len(rest))
    dests = [dest for dest, _ in command.positionals]
    if not len(dests) <= count <= len(dests) + command.formula:
        return None
    pairs = rest[count:]
    given = dict(zip(pairs[::2], pairs[1::2]))
    if 2 * len(given) != len(pairs):  # a flag without a value, or twice
        return None
    values = {"command": command.words[0], "handler": command.handler}
    if len(command.words) == 2:
        values["sub"] = command.words[1]
    if command.formula:
        values["formula"] = rest[count - 1] if count > len(dests) else None
    values.update(zip(dests, rest))
    for flag in command.flags:
        spec = _FLAGS[flag]
        dest = flag[2:].replace("-", "_")
        if flag not in given:
            if spec.get("required"):
                return None
            values[dest] = spec.get("default")
            continue
        value = given.pop(flag)
        if value.startswith("-"):
            return None
        if "type" in spec:
            try:
                value = spec["type"](value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[dest] = value
    return None if given else argparse.Namespace(**values)


def _build_parser() -> argparse.ArgumentParser:
    """The CLI's argparse parser, built from ``_COMMANDS``; ``main`` builds it
    only for the command lines ``_read_argv`` leaves to it."""
    parser = argparse.ArgumentParser(
        prog="nablamu",
        description="Coalgebraic fixpoint logic: models, automata, interpolants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for command in _COMMANDS:
        group = sub
        if len(command.words) == 2:
            word = command.words[0]
            if word not in groups:
                p = sub.add_parser(word, help=_GROUPS[word])
                groups[word] = p.add_subparsers(dest="sub", required=True)
            group = groups[word]
        p = group.add_parser(
            command.words[-1], help=command.help, description=command.description
        )
        for flag in command.flags:
            p.add_argument(flag, **_FLAGS[flag])
        for dest, text in command.positionals:
            p.add_argument(dest, help=text)
        if command.formula:
            p.add_argument("formula", nargs="?", help="formula text")
        p.set_defaults(handler=command.handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv) or _build_parser().parse_args(argv)
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
