"""Command-line interface: exit codes, output formats, determinism."""

import argparse
import itertools
import json
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers import canonical_pointed_models

import nablamu.cli as cli
from nablamu import (
    IDENTITY,
    MONOTONE,
    POWERSET,
    parse_formula,
    parse_model,
    render_formula,
    satisfies,
)
from nablamu.automata import Automaton, parse_automaton, render_automaton
from nablamu.cli import _build_parser, main

LOOP_P = "functor powerset;\nprops {p};\nstate s0; sigma {s0}; gamma {p};\npoint s0;\n"
LOOP_NOP = "functor powerset;\nprops {p};\nstate s0; sigma {s0}; gamma {};\npoint s0;\n"
LOOP_Q = "functor powerset;\nprops {q};\nstate s0; sigma {s0}; gamma {q};\npoint s0;\n"
LOOP_NOQ = "functor powerset;\nprops {q};\nstate s0; sigma {s0}; gamma {};\npoint s0;\n"

TRUE_AUT = Automaton.make(
    POWERSET,
    ("p",),
    ("t",),
    "t",
    {"t": 0},
    {
        ("t", frozenset()): (frozenset(), frozenset(("t",))),
        ("t", frozenset(("p",))): (frozenset(), frozenset(("t",))),
    },
)

EMPTY_AUT = Automaton.make(POWERSET, ("p",), ("a",), "a", {"a": 1}, {})

# The initial state's only successor element points at a state with no cells.
DEAD_STEP_AUT = Automaton.make(
    IDENTITY,
    (),
    ("a0", "a1"),
    "a0",
    {"a0": 0, "a1": 0},
    {("a0", frozenset()): ("a1",)},
)

CELL_AUT = Automaton.make(
    POWERSET,
    ("p", "q"),
    ("a",),
    "a",
    {"a": 0},
    {
        ("a", frozenset(("q",))): (frozenset(("a",)),),
        ("a", frozenset(("p", "q"))): (frozenset(),),
    },
)


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# check


def test_check_satisfied(write, capsys):
    model = write("m.model", LOOP_P)
    code, out, _ = run(capsys, "check", model, "p")
    assert code == 0
    assert "extension {s0}" in out and "satisfied" in out


def test_check_not_satisfied(write, capsys):
    model = write("m.model", LOOP_P)
    code, out, _ = run(capsys, "check", model, "~p", "--format", "structured")
    assert code == 1
    data = json.loads(out)
    assert data["extension"] == [] and data["satisfied"] is False


def test_check_malformed_formula(write, capsys):
    model = write("m.model", LOOP_P)
    code, _, err = run(capsys, "check", model, "p /\\")
    assert code == 2 and err


def test_negative_fixpoint_variable_exits_2(write):
    # such a fixpoint need not exist, and evaluating it would not terminate;
    # the subprocess timeout turns a hang into a failure
    model = write("m.model", LOOP_NOP)
    for argv in (
        ("check", model, "mu x. (p \\/ ~nabla {x})"),
        ("entails", "mu x. (p \\/ ~nabla {{x}})", "p", "--functor", "monotone"),
        ("interpolate", "mu x. (p \\/ ~nabla {x})", "--keep", "p"),
    ):
        done = subprocess.run(
            [sys.executable, "-m", "nablamu.cli", *argv],
            capture_output=True,
            timeout=30,
        )
        assert done.returncode == 2, argv
        assert b"occurs negatively" in done.stderr, argv


def test_check_missing_file(capsys):
    code, _, err = run(capsys, "check", "/nonexistent.model", "p")
    assert code == 2 and err


def test_subcommands_take_only_the_flags_they_read(write, capsys):
    model = write("m.model", LOOP_P)
    with pytest.raises(SystemExit) as exc:
        main(["check", model, "p", "--witness-bound", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --witness-bound" in capsys.readouterr().err
    aut = write("c.aut", render_automaton(CELL_AUT))
    plain = run(capsys, "automaton", "project", aut, "p")
    assert plain[0] == 0
    assert run(capsys, "automaton", "project", aut, "p", "--witness-bound", "2") == plain


# --------------------------------------------------------------------------
# the formula source and the shared flags

FORMULA = "nabla {p, true}"


@pytest.fixture
def formula_argv(write):
    """Each command that reads a formula: its arguments before and after it."""
    model = write("m.model", LOOP_P)
    return {
        "check": (["check", model], []),
        "to-automaton": (["to-automaton"], []),
        "interpolate": (["interpolate"], ["--keep", "q"]),
    }


@pytest.mark.parametrize("name", ["check", "to-automaton", "interpolate"])
def test_formula_file_reads_like_inline(write, capsys, formula_argv, name):
    head, tail = formula_argv[name]
    inline = run(capsys, *head, FORMULA, *tail)
    assert inline[0] == 0
    path = write("f.txt", FORMULA + "\n")
    assert run(capsys, *head, "--formula-file", path, *tail) == inline


@pytest.mark.parametrize("name", ["check", "to-automaton", "interpolate"])
def test_formula_source_errors_exit_2(write, capsys, formula_argv, name):
    head, tail = formula_argv[name]
    path = write("f.txt", FORMULA)
    code, out, err = run(capsys, *head, FORMULA, "--formula-file", path, *tail)
    assert (code, out) == (2, "")
    assert err == "error: give the formula inline or with --formula-file, not both\n"
    code, out, err = run(capsys, *head, *tail)
    assert (code, out) == (2, "")
    assert err == "error: no formula given; pass it inline or with --formula-file\n"
    missing = path + ".missing"
    code, out, err = run(capsys, *head, "--formula-file", missing, *tail)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and missing in err


# Each leaf subcommand with placeholder positionals; parsing opens no file.
LEAF_ARGS = {
    "check": ["m.model", "p"],
    "bisim": ["a.model", "b.model"],
    "automaton accept": ["a.aut", "m.model"],
    "automaton to-formula": ["a.aut"],
    "automaton project": ["a.aut", "p"],
    "automaton normalize": ["a.aut"],
    "to-automaton": ["p"],
    "interpolate": ["p", "--keep", "q"],
    "entails": ["p", "q"],
    "selftest": [],
}

FLAG_VALUES = {
    "--format": "structured",
    "--functor": "powerset",
    "--witness-bound": "2",
    "--max-model-size": "2",
    "--cap": "5",
    "--formula-file": "f.txt",
}


def _readme_flag_lists() -> dict:
    """Flag ↦ the subcommands the README's flag list gives it."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
    lists = {}
    for flag, where in re.findall(r"^- `(--[\w-]+)[^`]*`[^;:]*? on ([^;:]*)", text, re.M):
        names = set(re.findall(r"`([^`]+)`", where))
        lists[flag] = set(LEAF_ARGS) if where == "every subcommand" else names
    return lists


@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
def test_subcommands_take_the_flags_the_readme_lists(capsys, flag):
    listed = _readme_flag_lists()[flag]
    assert listed and listed <= set(LEAF_ARGS)
    accepting = set()
    for leaf, args in LEAF_ARGS.items():
        argv = [*leaf.split(), *args, flag, FLAG_VALUES[flag]]
        try:
            namespace = _build_parser().parse_args(argv)
            accepting.add(leaf)
        except SystemExit as exc:
            namespace = None
            assert exc.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert cli._read_argv(argv) == namespace, argv
    assert accepting == listed


def test_non_integer_bound_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--carrier-bound", "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: argument --carrier-bound: must be a positive integer\n")


# --------------------------------------------------------------------------
# the command table's reader and the argparse parser


def outcome(capsys, argv):
    """Exit code, stdout and stderr of ``main(argv)``, usage exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_reader_answers_like_argparse(write, capsys, monkeypatch):
    m = write("m.model", LOOP_P)
    aut = write("t.aut", render_automaton(TRUE_AUT))
    helps = [[*leaf.split(), "--help"] for leaf in LEAF_ARGS]
    argvs = helps + [
        [], ["--help"], ["-h"], ["automaton"], ["automaton", "--help"],
        ["--help", "entails"], ["entails", "--help", "p"], ["automaton", "-h", "accept"],
        ["entails", "p", "q", "-h"],
        # flags before the subcommand, --, -1, -, the empty string
        ["--format", "structured", "entails", "p", "q"], ["--functor", "powerset", "check"],
        ["--", "entails", "p", "q"], ["entails", "--", "p", "q"], ["entails", "p", "--", "q"],
        ["-1"], ["entails", "-1", "p"], ["selftest", "--cap", "-1"],
        ["entails", "-", "q"], ["check", m, "-"], ["entails", "", "q"], ["check", m, ""],
        ["bisim", m, m, "--disregard", "-p"],
        # flags between positionals, --flag=value, abbreviations, repeats
        ["check", m, "--format", "structured", "p"],
        ["entails", "p", "--format", "structured", "q"],
        ["entails", "p", "q", "--format=structured"], ["entails", "p", "q", "--form", "structured"],
        ["entails", "p", "q", "--format", "human", "--format", "structured"],
        # extra positionals, unknown leaves, subcommand names as arguments
        ["entails", "p", "q", "r"], ["automaton", "to-formula", aut, "extra"],
        ["bogus"], ["Check"], ["entail", "p", "q"], ["automaton", "bogus"],
        ["automaton", "accepts", aut, m], ["selftest", "entails"],
        ["entails", "check", "entails"], ["check", m, "check"],
        ["automaton", "project", aut, "automaton"], ["to-automaton", "selftest"],
        # one error of each argparse kind
        ["entails", "p"], ["bisim", m], ["interpolate", "p"], ["interpolate", "p", "--keep"],
        ["entails", "p", "q", "--bogus"], ["--bogus"], ["check", m, "p", "--cap", "5"],
        ["entails", "p", "q", "--format", "json"], ["entails", "p", "q", "--functor"],
        ["entails", "p", "q", "--max-model-size", "0"], ["selftest", "--carrier-bound", "x"],
        ["automaton", "project", aut, "p", "--witness-bound", "-2"],
        # calls that reach their handler
        ["entails", "(p /\\ q)", "q"], ["entails", "p", "q", "--format", "structured"],
        ["check", m, "p"], ["check", m, "nabla {"], ["check", m + ".missing", "p"],
        ["bisim", m, m], ["bisim", m, m, "--disregard", "p"],
        ["automaton", "accept", aut, m], ["automaton", "normalize", aut],
        ["to-automaton", "mu x. (p \\/ nabla {x})"],
        ["interpolate", "(p /\\ q)", "--keep", "{q}"],
    ]
    monkeypatch.setenv("COLUMNS", "80")
    shipped = [outcome(capsys, argv) for argv in argvs]
    monkeypatch.setattr(cli, "_read_argv", lambda argv: None)
    for argv, got in zip(argvs, shipped):
        assert outcome(capsys, argv) == got, argv
    assert {code for code, _, _ in shipped} == {0, 1, 2}


def _readme_quickstart() -> list:
    """The argument lists of the README's "Quickstart (CLI)" lines."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
    block = text.split("## Quickstart (CLI)", 1)[1].split("```sh\n", 1)[1]
    lines = block.split("```", 1)[0].splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines]


# One argument list of each request shape of the benchmark's workloads.
BENCHMARK_SHAPES = [
    ["interpolate", "(p /\\ nabla {})", "--keep", "{}", "--format", "structured"],
    ["automaton", "project", "dia.aut", "p", "--format", "structured"],
    ["automaton", "accept", "dia.aut", "a.model", "--format", "structured"],
    ["entails", "nabla {p}", "p", "--format", "structured"],
    ["check", "a.model", "nu x. (p /\\ nabla {x, true})", "--format", "structured"],
    ["bisim", "a.model", "b.model", "--format", "structured"],
    ["bisim", "a.model", "b.model", "--disregard", "q", "--format", "structured"],
]


def test_well_formed_calls_build_no_argument_parser(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, **kw):
        built.append(kw["prog"])
        init(self, **kw)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.model").write_text(LOOP_P)
    (tmp_path / "b.model").write_text(LOOP_NOP)
    (tmp_path / "dia.aut").write_text(render_automaton(TRUE_AUT))
    quickstart = _readme_quickstart()
    assert len(quickstart) == len(LEAF_ARGS)
    for argv in quickstart + BENCHMARK_SHAPES:
        code, _, err = outcome(capsys, argv)
        assert code in (0, 1) and err == "", argv
        assert built == [], argv
    outcome(capsys, ["--help"])
    assert len(built) == 12


# A valid value of each flag, then values the flag's parser rejects.
SWEEP_VALUES = {
    "--format": ("structured", "json", "-1"),
    "--functor": ("monotone", "-x"),
    "--witness-bound": ("2", "0", "x", "-2"),
    "--max-model-size": ("2", "0", "x", "-2"),
    "--cap": ("5", "0", "-5"),
    "--formula-file": ("f.txt", "-f"),
    "--disregard": ("p", "-p"),
    "--keep": ("{q}", "-q"),
    "--carrier-bound": ("3", "x", "-3"),
}


def _flag_lines(flags):
    """(flag pairs, well formed) for each order tried of ``flags``: every
    value valid, one value rejected, and the first flag given twice."""
    orders = (
        itertools.permutations(flags) if len(flags) <= 3 else (flags, flags[::-1])
    )
    for order in orders:
        valid = [(flag, SWEEP_VALUES[flag][0]) for flag in order]
        yield valid, True
        for i, flag in enumerate(order):
            for bad in SWEEP_VALUES[flag][1:]:
                yield valid[:i] + [(flag, bad)] + valid[i + 1 :], False
        if order:
            yield valid + valid[:1], False


def test_the_reader_agrees_with_argparse_on_a_sweep_of_the_table():
    """Each leaf × flag subset × flag order × values × positional count: the
    reader takes exactly the well-formed lines and reads each as argparse."""
    parser = _build_parser()
    read = set()
    for command in cli._COMMANDS:
        required = {f for f in command.flags if cli._FLAGS[f].get("required")}
        least = len(command.positionals)
        subsets = itertools.chain.from_iterable(
            itertools.combinations(command.flags, k) for k in range(len(command.flags) + 1)
        )
        for flags in subsets:
            for pairs, valid in _flag_lines(flags):
                tail = [arg for pair in pairs for arg in pair]
                for count in range(least + command.formula + 2):
                    positionals = [f"x{i}" for i in range(count)]
                    argv = [*command.words, *positionals, *tail]
                    namespace = cli._read_argv(argv)
                    well_formed = (
                        valid
                        and required <= set(flags)
                        and least <= count <= least + command.formula
                    )
                    assert (namespace is not None) == well_formed, argv
                    if namespace is not None:
                        assert namespace == parser.parse_args(argv), argv
                        read.add(command.words)
    assert read == set(cli._LEAVES)


def test_console_script_reads_sys_argv(capsys, monkeypatch):
    argv = ["entails", "(p /\\ q)", "q"]
    monkeypatch.setattr(sys, "argv", ["nablamu", *argv])
    code = main()
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == run(capsys, *argv)
    assert code == 0 and captured.out


# --------------------------------------------------------------------------
# bisim


def test_bisim_self_contains_diagonal(write, capsys):
    model = write("m.model", LOOP_P)
    code, out, _ = run(capsys, "bisim", model, model, "--format", "structured")
    assert code == 0
    data = json.loads(out)
    assert ["s0", "s0"] in data["relation"] and data["related"] is True


def test_bisim_disregard_p(write, capsys):
    a = write("a.model", LOOP_P)
    b = write("b.model", LOOP_NOP)
    assert run(capsys, "bisim", a, b)[0] == 1
    assert run(capsys, "bisim", a, b, "--disregard", "p")[0] == 0


def test_bisim_disregard_p_still_sees_q(write, capsys):
    a = write("a.model", LOOP_Q)
    b = write("b.model", LOOP_NOQ)
    assert run(capsys, "bisim", a, b, "--disregard", "p")[0] == 1


def test_bisim_functor_mismatch(write, capsys):
    a = write("a.model", LOOP_P)
    b = write(
        "b.model",
        "functor monotone;\nprops {p};\nstate s0; sigma {{s0}}; gamma {};\n",
    )
    code, _, err = run(capsys, "bisim", a, b)
    assert code == 2 and err


def test_model_without_states_is_an_input_error(write, capsys):
    empty = write("e.model", "functor powerset; props {p};")
    aut = write("t.aut", render_automaton(TRUE_AUT))
    for argv in (
        ("check", empty, "p"),
        ("bisim", empty, empty),
        ("automaton", "accept", aut, empty),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and err.startswith("error:"), argv


def test_deeply_nested_formula_is_an_input_error(write, capsys):
    model = write("m.model", LOOP_P)
    for text in ("~" * 1200 + "p", "\\/{" * 1200 + "p" + "}" * 1200):
        code, out, err = run(capsys, "check", model, text)
        assert (code, out, err) == (2, "", "error: input nested too deeply\n")


# --------------------------------------------------------------------------
# automaton


def test_automaton_accept_true_state(write, capsys):
    aut = write("t.aut", render_automaton(TRUE_AUT))
    for text in (LOOP_P, LOOP_NOP):
        model = write("m.model", text)
        assert run(capsys, "automaton", "accept", aut, model)[0] == 0


def test_automaton_accept_mismatched_functor(write, capsys):
    aut = write("t.aut", render_automaton(TRUE_AUT))
    model = write(
        "m.model",
        "functor monotone;\nprops {p};\nstate s0; sigma {{s0}}; gamma {};\n",
    )
    assert run(capsys, "automaton", "accept", aut, model)[0] == 2


def test_automaton_project_merges_cells(write, capsys):
    aut = write("c.aut", render_automaton(CELL_AUT))
    code, out, _ = run(capsys, "automaton", "project", aut, "p")
    assert code == 0
    merged = parse_automaton(out)
    assert merged.props == ("q",)
    cell = set(merged.delta_of(merged.initial, frozenset(("q",))))
    assert cell == {frozenset(), frozenset((merged.initial,))}


def test_automaton_to_formula_empty_is_false(write, capsys):
    aut = write("e.aut", render_automaton(EMPTY_AUT))
    code, out, _ = run(capsys, "automaton", "to-formula", aut)
    assert code == 0
    f = parse_formula(out.strip(), POWERSET)
    for pm in canonical_pointed_models(POWERSET, ("p",), 2):
        assert not satisfies(pm, f)


def test_automaton_to_formula_drops_a_step_into_falsity(write, capsys):
    # ∇ id:false holds nowhere, like a ∇ with a false leaf over any
    # lifting that preserves weak pullbacks
    aut = write("d.aut", render_automaton(DEAD_STEP_AUT))
    code, out, _ = run(capsys, "automaton", "to-formula", aut)
    assert code == 0
    assert out.strip() == "false"


def test_automaton_normalize_roundtrips(write, capsys):
    aut = write("e.aut", render_automaton(CELL_AUT))
    code, out, _ = run(capsys, "automaton", "normalize", aut)
    assert code == 0
    normed = parse_automaton(out)
    assert len(normed.states) == len(CELL_AUT.states) + 1


# an element no model realizes: a0 loops through itself at odd priority
ODD_MONOTONE_LOOP = """functor monotone;
props {};
initial a0;
state a0 priority 1;
delta a0 {} : [{{a0}}];
"""


def test_realizability_sweep_past_the_cap_exits_2(write, capsys):
    # the unrealized element sends the monotone sweep on to 4 states, whose
    # 168^4 combinations exceed the cap
    aut = write("odd.aut", ODD_MONOTONE_LOOP)
    code, out, err = run(capsys, "automaton", "normalize", aut, "--witness-bound", "4")
    assert code == 2 and out == ""
    assert "4-state combinations to sweep exceed the cap" in err


def test_realized_elements_end_the_sweep_before_the_cap(write, capsys):
    # at even priority one state realizes every element, so bound 4 is never swept
    aut = write("even.aut", ODD_MONOTONE_LOOP.replace("priority 1", "priority 0"))
    code, out, err = run(capsys, "automaton", "normalize", aut, "--witness-bound", "4")
    assert code == 0 and err == ""
    assert run(capsys, "automaton", "normalize", aut, "--witness-bound", "3") == (code, out, err)


# --------------------------------------------------------------------------
# to-automaton, interpolate, entails


def test_to_automaton_roundtrips(capsys):
    code, out, _ = run(capsys, "to-automaton", "nabla {p}")
    assert code == 0
    aut = parse_automaton(out)
    assert aut.props == ("p",)


def test_to_automaton_unsupported_fragment(capsys):
    code, _, err = run(
        capsys, "to-automaton", "~nabla {{p}}", "--functor", "monotone"
    )
    assert code == 3 and err


def test_interpolate_drops_conjunct(capsys):
    code, out, _ = run(
        capsys, "interpolate", "(p /\\ q)", "--keep", "{q}", "--format", "structured"
    )
    assert code == 0
    data = json.loads(out)
    assert data["vocabulary"] == ["q"] and data["entailment_verified"] is True
    g = parse_formula(data["interpolant"], POWERSET)
    for pm in canonical_pointed_models(POWERSET, ("q",), 2):
        assert satisfies(pm, g) == satisfies(pm, parse_formula("q", POWERSET))


def test_interpolate_keep_all_echoes(capsys):
    src = "(p /\\ q)"
    code, out, _ = run(capsys, "interpolate", src, "--keep", "{p,q}")
    assert code == 0
    rendered = render_formula(parse_formula(src, POWERSET))
    assert f"interpolant: {rendered}" in out


@pytest.mark.parametrize(
    "keep, want", [("q", ["q"]), ("{q}", ["q"]), ("{p,q}", ["p", "q"]), ("{}", [])]
)
def test_interpolate_keep_forms(capsys, keep, want):
    code, out, _ = run(
        capsys, "interpolate", "(p /\\ q)", "--keep", keep, "--format", "structured"
    )
    assert code == 0 and json.loads(out)["keep"] == want


@pytest.mark.parametrize("keep", ["{q r}", "{q; p}", "{{q}"])
def test_interpolate_rejects_malformed_keep(capsys, keep):
    code, out, err = run(capsys, "interpolate", "(p /\\ q)", "--keep", keep)
    assert code == 2 and not out and err


def test_interpolate_unsupported_fragment(capsys):
    code, _, err = run(
        capsys,
        "interpolate",
        "~nabla {{p}}",
        "--keep",
        "{}",
        "--functor",
        "monotone",
    )
    assert code == 3 and err


def test_interpolate_splits_a_product_conjunction(capsys):
    code, out, _ = run(
        capsys,
        "interpolate",
        "(nabla ({p}, const:a) /\\ nabla ({q, true}, const:a))",
        "--keep",
        "{q}",
        "--functor",
        "product(powerset,const(a,b))",
        "--format",
        "structured",
    )
    assert code == 0
    data = json.loads(out)
    assert data["vocabulary"] == ["q"] and data["entailment_verified"] is True


def test_to_automaton_splits_a_comp_conjunction(capsys):
    code, out, _ = run(
        capsys,
        "to-automaton",
        "(nabla {{p, true}} /\\ nabla {{q}, {true}})",
        "--functor",
        "comp(powerset,powerset)",
    )
    assert code == 0
    assert parse_automaton(out).props == ("p", "q")


def test_entails_yes_and_no(capsys):
    assert run(capsys, "entails", "(p /\\ q)", "p")[0] == 0
    code, out, _ = run(
        capsys, "entails", "(p \\/ q)", "p", "--format", "structured"
    )
    assert code == 1
    data = json.loads(out)
    cm = parse_model(data["countermodel"])
    assert satisfies(cm, parse_formula("q", POWERSET))
    assert not satisfies(cm, parse_formula("p", POWERSET))


def test_entails_beyond_the_enumeration_cap_exits_2(capsys):
    # the entailment holds up to 3 states, so the sweep reaches 4 states,
    # whose 16^4 · 4^4 combinations exceed the cap
    code, out, err = run(capsys, "entails", "(p /\\ q)", "p", "--max-model-size", "4")
    assert code == 2 and out == "" and "cap" in err


def test_entails_refuses_a_huge_monotone_carrier_at_once():
    # the 3-state sweep reads monotone families over the 8 subsets of 3
    # states; the 2^70 families of their 4-element sets, antichains all,
    # exceed the cap before any antichain is enumerated
    argv = ["entails", "nabla {{{p}}}", "nabla {{{p}}}", "--functor", "comp(monotone,powerset)"]
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "nablamu.cli", *argv], capture_output=True, timeout=60
    )
    assert time.perf_counter() - start < 2.0
    assert done.returncode == 2 and done.stdout == b""
    assert done.stderr == (
        b"error: more than 1000000 monotone neighborhood elements over a "
        b"8-element carrier\n"
    )


def test_entails_refutes_past_the_max_model_size(capsys):
    # no countermodel has at most `size` states; the part of the strategy
    # model that the point reaches is printed
    cases = [
        ("mu x. nu y. nabla {\\/{(p /\\ y), x}, true}", "nabla {nabla {p, true}, true}", "3"),
        ("nabla {p}", "p", "1"),
    ]
    for a, b, size in cases:
        code, out, _ = run(
            capsys, "entails", a, b, "--max-model-size", size, "--format", "structured"
        )
        assert code == 1 and '"holds":false' in out
        cm = parse_model(json.loads(out)["countermodel"])
        assert len(cm.model.states) > int(size)
        assert satisfies(cm, parse_formula(a, POWERSET))
        assert not satisfies(cm, parse_formula(b, POWERSET))
        reached, todo = {cm.point}, [cm.point]
        while todo:
            new = cm.model.sigma_of(todo.pop()) - reached
            reached |= new
            todo.extend(new)
        assert reached == set(cm.model.states), a


# --------------------------------------------------------------------------
# selftest and determinism


@pytest.mark.parametrize(
    "functor,bound",
    [("powerset", 2), ("monotone", 2), ("identity", 3)],
)
def test_selftest_passes(capsys, functor, bound):
    code, out, _ = run(
        capsys,
        "selftest",
        "--functor",
        functor,
        "--carrier-bound",
        str(bound),
        "--format",
        "structured",
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert all(data["axioms"].values()) and all(data["support"].values())


def test_selftest_tabulates_the_lifting_once(capsys, monkeypatch):
    import nablamu.laxcheck as laxcheck

    calls = []
    tables = laxcheck._tables

    def counted(*args):
        calls.append(args)
        return tables(*args)

    monkeypatch.setattr(laxcheck, "_tables", counted)
    code, _, _ = run(capsys, "selftest", "--functor", "monotone", "--carrier-bound", "2")
    assert code == 0
    assert len(calls) == 1


def test_selftest_past_the_cap_is_an_input_error(capsys):
    # the cap bounds the sweep's relation tables, not only the enumeration
    code, out, err = run(capsys, "selftest", "--carrier-bound", "2", "--cap", "10")
    assert code == 2 and not out
    assert err.startswith("error: ") and "cap" in err


DETERMINISM_RUNS = [
    ("to-automaton", "mu x. (p \\/ nabla {x})", "--format", "structured"),
    ("interpolate", "(p /\\ q)", "--keep", "{q}", "--format", "structured"),
    ("entails", "(p \\/ q)", "p", "--format", "structured"),
    ("selftest", "--functor", "powerset", "--format", "structured"),
]


@pytest.mark.parametrize("argv", DETERMINISM_RUNS, ids=lambda a: a[0])
def test_structured_output_deterministic(capsys, argv):
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second
    assert first[0] == 0 or argv[0] == "entails"