"""The demo scripts run end to end on small arguments."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

SMALL_ARGS = {
    "axiom_sweep": ["--carrier-bound", "1", "--powerset-bound", "1"],
    "projection_walkthrough": ["--max-model-size", "1"],
    "interpolation_demo": ["--max-model-size", "2"],
}


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(SMALL_ARGS))
def test_script_exits_zero(name):
    assert _load(name).main(SMALL_ARGS[name]) == 0


@pytest.mark.parametrize("keep, hidden", [("q, p", "[]"), ("{q}", "['p']")])
def test_interpolation_demo_reads_keep_like_the_cli(capsys, keep, hidden):
    args = ["--keep", keep, "--max-model-size", "2"]
    assert _load("interpolation_demo").main(args) == 0
    assert f"hiding         {hidden}\n" in capsys.readouterr().out


def test_axiom_sweep_past_the_cap_is_an_input_error(capsys):
    # carrier bound 4 is refused before any lifting is tabulated
    args = ["--carrier-bound", "4", "--powerset-bound", "4"]
    assert _load("axiom_sweep").main(args) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("error: ") and "cap" in err


def test_axiom_sweep_checks_every_cap_before_the_first_sweep(capsys):
    # the powerset block at the default bound 3 would print before monotone
    # at carrier bound 4 is refused
    assert _load("axiom_sweep").main(["--carrier-bound", "4"]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("error: ") and "cap" in err


@pytest.mark.parametrize(
    "name, flag",
    [
        ("axiom_sweep", "--carrier-bound"),
        ("axiom_sweep", "--powerset-bound"),
        ("interpolation_demo", "--witness-bound"),
        ("interpolation_demo", "--max-model-size"),
        ("projection_walkthrough", "--witness-bound"),
        ("projection_walkthrough", "--max-model-size"),
    ],
)
def test_scripts_reject_non_positive_bounds(capsys, name, flag):
    with pytest.raises(SystemExit) as exc:
        _load(name).main([flag, "0"])
    assert exc.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err


def test_scripts_reject_non_integer_bounds(capsys):
    with pytest.raises(SystemExit) as exc:
        _load("interpolation_demo").main(["--witness-bound", "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("error: argument --witness-bound: must be a positive integer\n")


def test_projection_walkthrough_may_show_no_witness():
    args = ["--max-model-size", "1", "--show", "0"]
    assert _load("projection_walkthrough").main(args) == 0
