"""Judges each request's structured output against the oracle or a
hand-written verdict.  ``judge`` returns None when the output is right and a
one-line reason when it is not."""

from __future__ import annotations

import json
import re
from functools import lru_cache
from pathlib import Path

import oracle


@lru_cache(maxsize=None)
def _model(path: str):
    return oracle.parse_model(Path(path).read_text())


@lru_cache(maxsize=None)
def _formula(text: str):
    return oracle.parse_formula(text)


@lru_cache(maxsize=None)
def _extension(model_path: str, formula: str) -> int:
    return oracle.extension(_model(model_path), _formula(formula))


@lru_cache(maxsize=None)
def _entails(a: str, b: str) -> bool:
    return oracle.entails(_formula(a), _formula(b))


def _exit_code(ok: bool) -> int:
    return 0 if ok else 1


def judge(req, rc: int, stdout: str, workdir: Path):
    """Check one request's exit code and output."""
    try:
        out = json.loads(stdout)
    except ValueError:
        return f"exit {rc}, output is not one JSON document"
    return _JUDGES[req.kind](req.expect, rc, out, workdir)


def _check(expect, rc, out, workdir):
    model = str(workdir / expect["model"])
    ext = _extension(model, expect["formula"])
    M = _model(model)
    want = sorted(M.states_of(ext))
    sat = M.point in want
    if out.get("extension") != want:
        return "extension differs from the oracle's"
    if out.get("satisfied") is not sat or rc != _exit_code(sat):
        return f"verdict {out.get('satisfied')} (exit {rc}), oracle says {sat}"
    return None


def _accept(expect, rc, out, workdir):
    if "formula" in expect:
        model = str(workdir / expect["model"])
        M = _model(model)
        want = bool(_extension(model, expect["formula"]) >> M.names.index(M.point) & 1)
    else:
        want = expect["accepted"]
    if out.get("accepted") is not want or rc != _exit_code(want):
        return f"accepted={out.get('accepted')} (exit {rc}), expected {want}"
    return None


def _project(expect, rc, out, workdir):
    if rc != 0 or "automaton" not in out:
        return f"exit {rc}"
    props = re.search(r"props \{([^}]*)\};", out["automaton"])
    if props is None or expect["hidden"] in re.findall(r"\w+", props.group(1)):
        return "projected automaton still reads the hidden proposition"
    return None


def _bisim(expect, rc, out, workdir):
    want = expect["related"]
    if out.get("related") is not want or rc != _exit_code(want):
        return f"related={out.get('related')} (exit {rc}), expected {want}"
    return None


def _entails_judge(expect, rc, out, workdir):
    want = expect["holds"]
    if out.get("holds") is not want or rc != _exit_code(want):
        return f"holds={out.get('holds')} (exit {rc}), expected {want}"
    if not want:
        M = oracle.parse_model(out.get("countermodel") or "")
        if len(M.names) > 3:
            return "countermodel larger than --max-model-size"
        witness = ("and", _formula(expect["a"]), ("not", _formula(expect["b"])))
        if not oracle.holds_at_point(M, witness):
            return "countermodel does not separate the formulas"
    return None


def _interpolate(expect, rc, out, workdir):
    if rc != 0 or out.get("entailment_verified") is not True:
        return f"exit {rc}, entailment_verified={out.get('entailment_verified')}"
    text = out["interpolant"]
    keep = set(expect["keep"])
    if not set(out.get("vocabulary", ())) <= keep:
        return "reported vocabulary is not inside keep"
    if not oracle.free_atoms(_formula(text)) <= keep:
        return "interpolant uses a proposition outside keep"
    if not _entails(expect["formula"], text):
        return "antecedent does not entail the interpolant"
    if _entails(text, expect["consequent"]) is not expect["holds"]:
        return "interpolant does not transfer the entailment to the consequent"
    return None


_JUDGES = {
    "check": _check,
    "accept": _accept,
    "project": _project,
    "bisim": _bisim,
    "entails": _entails_judge,
    "interpolate": _interpolate,
}
