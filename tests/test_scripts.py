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
