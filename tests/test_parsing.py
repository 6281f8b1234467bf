"""The token-stream ``Cursor`` against the character-level reader it replaced.

Every input is parsed twice: once as shipped, and once with
``helpers.CharCursor`` swapped into each parsing module's ``Cursor`` name.
Both runs must give equal results, and equal ``ParseError`` messages, which
carry the line, the column and the ``near`` snippet.
"""

import random
from pathlib import Path

import pytest

from nablamu import POWERSET, automata, coalgebra, functors, logic, parsing
from nablamu.automata import Automaton, parse_automaton, render_automaton
from nablamu.coalgebra import (
    ColoredModel,
    PointedModel,
    parse_model,
    random_model,
    render_model,
)
from nablamu.functors import parse_functor
from nablamu.logic import parse_formula
from nablamu.parsing import ParseError, parse_keep

from formula_corpus import PARSE_CORPUS, TRANSLATION_CORPUS
from helpers import SHAPES, CharCursor, random_automaton

DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"
_MODULES = (automata, coalgebra, functors, logic, parsing)


def _outcome(parse, text):
    try:
        return ("ok", parse(text))
    except ValueError as exc:  # ParseError and the model checks' ValueErrors
        return (type(exc).__name__, str(exc))


def _variants(text):
    """The text, each of its truncations and each single-character deletion."""
    yield text
    for k in range(len(text)):
        yield text[:k]
        yield text[:k] + text[k + 1 :]


def _assert_same(monkeypatch, parse, texts):
    texts = [v for t in texts for v in _variants(t)]
    new = [_outcome(parse, t) for t in texts]
    with monkeypatch.context() as m:
        for mod in _MODULES:
            m.setattr(mod, "Cursor", CharCursor)
        old = [_outcome(parse, t) for t in texts]
    for text, a, b in zip(texts, new, old):
        assert a == b, text
    return new


def _formula_parser(functor_text):
    F = parse_functor(functor_text)
    return lambda text: parse_formula(text, F)


@pytest.mark.parametrize("functor_text", sorted({f for f, _ in PARSE_CORPUS}))
def test_parse_corpus_reads_alike(monkeypatch, functor_text):
    texts = [src for f, src in PARSE_CORPUS if f == functor_text]
    out = _assert_same(monkeypatch, _formula_parser(functor_text), texts)
    assert sum(kind == "ParseError" for kind, _ in out) > len(texts)
    _assert_same(monkeypatch, parse_functor, [functor_text])


def test_translation_corpus_and_keep_lists_read_alike(monkeypatch):
    _assert_same(monkeypatch, parse_formula, TRANSLATION_CORPUS)
    _assert_same(monkeypatch, parse_keep, ["p, q", "{p,q_1}", " { }"])


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.iterdir()))
def test_benchmark_files_read_alike(monkeypatch, name):
    parse = parse_automaton if name.endswith(".aut") else parse_model
    out = _assert_same(monkeypatch, parse, [(DATA / name).read_text()])
    assert out[0][0] == "ok"


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_random_models_and_automata_read_alike(monkeypatch, name):
    F = SHAPES[name]
    rng = random.Random(17)
    models = [render_model(random_model(F, ("p", "q"), n, rng)) for n in (1, 3)]
    M = random_model(F, ("p",), 2, rng)
    models.append(render_model(PointedModel(M, M.states[1])))
    auts = [render_automaton(random_automaton(F, ("p",), rng)) for _ in range(2)]
    _assert_same(monkeypatch, parse_model, models)
    _assert_same(monkeypatch, parse_automaton, auts)
    assert {_outcome(parse_model, t)[0] for t in models} == {"ok"}
    assert {_outcome(parse_automaton, t)[0] for t in auts} == {"ok"}


def test_unicode_whitespace_and_digits_read_alike(monkeypatch):
    model = "functor powerset;\u00a0props {p};\x1cstate s; sigma {s};\u2003gamma {};\n"
    aut = (
        "functor\u00a0powerset; props {p}; initial a;\n"
        "state a priority ٣;\x1cdelta a {}\u00a0: [{a}];\n"
    )
    assert _assert_same(monkeypatch, parse_model, [model])[0][0] == "ok"
    assert parse_automaton(aut).omega == (3,)
    _assert_same(monkeypatch, parse_automaton, [aut, aut.replace("٣", "1٣2")])
    _assert_same(monkeypatch, parse_formula, ["mu\u00a0x.\x1c(p\u2028\\/\u00a0x)"])


_TWO_POINTS = (
    "functor powerset; props {}; point s0; state s0; sigma {}; gamma {}; "
    "state s1; sigma {}; gamma {}; point s1;"
)


def test_errors_after_a_consumed_token_read_alike(monkeypatch):
    """Some errors sit at the end of the token just read, before the
    whitespace that follows it, not at the start of the next token."""
    state = "state s ;  sigma {s} ; gamma {} ;\n"
    _assert_same(
        monkeypatch,
        parse_model,
        [
            "functor powerset ; props {} ;\n" + state + state,
            "functor galaxy ; props {} ;\n",
            "functor comp(powerset , monotone) ; props {} ;\n",
            "functor const(a) ; props {} ; state s ; sigma const : b ; gamma {} ;",
            "functor coproduct(identity,identity) ; props {} ;\n"
            "state s ; sigma inx : id : s ; gamma {} ;",
            "functor powerset ; props {} ;\n" + state + "point t ;\n",
            _TWO_POINTS,
        ],
    )
    aut = "functor powerset ; props {} ; initial a ;\nstate a priority 0 ;\n"
    cell = "delta a {} : [ ] ;\n"
    _assert_same(
        monkeypatch,
        parse_automaton,
        [aut + "state a  priority 1 ;", aut + cell + cell, aut + "initial b ;"],
    )
    _assert_same(
        monkeypatch,
        parse_formula,
        ["mu nabla . p", "( nabla  ", "(p  q)", "true  false", "mu x . (x /\\ )"],
    )


def test_a_second_point_is_an_error():
    with pytest.raises(ParseError, match=r"^duplicate point 's1' \(line 1, column 107,"):
        parse_model(_TWO_POINTS)


def test_non_decimal_digits_end_a_number():
    """``str.isdigit`` accepts superscripts that ``int`` rejects: the old
    reader took them into a number and failed with an unpositioned
    ``ValueError`` from ``int``; a number token is decimal digits only."""
    head = "functor powerset; props {}; initial a;\nstate a priority "
    with pytest.raises(ParseError, match=r"expected a number \(line 2, column 18"):
        parse_automaton(head + "²;\n")
    with pytest.raises(ParseError, match=r"expected ';' \(line 2, column 19"):
        parse_automaton(head + "1²;\n")


def _large_model(rng):
    """A 1000-state powerset model pointed at its last state."""
    states = tuple(f"s{i}" for i in range(1000))
    sigma = {s: frozenset(rng.sample(states, rng.randint(0, 4))) for s in states}
    gamma = {s: frozenset(p for p in "pq" if rng.random() < 0.5) for s in states}
    M = ColoredModel.make(POWERSET, sigma, gamma, props=("p", "q"), states=states)
    return PointedModel(M, "s999")


def test_large_model_and_automaton_round_trip():
    """The sizes the benchmark reads: a 1000-state model, a 100-state automaton."""
    rng = random.Random(1000)
    P = _large_model(rng)
    assert parse_model(render_model(P)) == P

    names = [f"a{i}" for i in range(100)]
    delta = {
        (a, c): {frozenset(rng.sample(names, rng.randint(0, 3))) for _ in range(2)}
        for a in names
        for c in (frozenset(), frozenset("p"))
    }
    omega = {a: rng.randint(0, 3) for a in names}
    aut = Automaton.make(POWERSET, ("p",), names, "a0", omega, delta)
    assert parse_automaton(render_automaton(aut)) == aut


def _statement_reader_texts():
    """Powerset model texts, each with whether the token reader accepts it
    and whether the statement reader reads the whole text."""
    M = random_model(POWERSET, ("p", "q"), 8, random.Random(8))
    pointed = render_model(PointedModel(M, M.states[3]))
    small = render_model(random_model(POWERSET, ("p",), 3, random.Random(3)))
    head, states = small.split("\n", 2)[:2], small.split("\n", 2)[2]
    spaced = (
        pointed.replace("\n", "\r\n")
        .replace("; ", " ;\t")
        .replace(", ", "\x1c,\u2003")
        .replace(" {", "\u00a0{")
    )
    return [
        (pointed, True, True),
        (render_model(M), True, True),
        (spaced, True, True),
        ("\n".join(head) + "\npoint s2;\n" + states, True, False),
        (small + small.split("\n")[3] + "\n", False, False),
        (small + "point s9;\n", False, False),
        (small.replace("gamma {", "gamma {r, "), False, False),
    ]


def test_statement_reader_agrees_with_the_token_reader(monkeypatch):
    """``coalgebra._read_statements`` gives ``None`` or the token reader's
    model on every truncation and deletion of powerset model texts, and
    ``parse_model`` answers (models and ``ParseError`` messages alike) as
    the character reader does when the statement reader is switched off."""
    texts = _statement_reader_texts()
    variants = [list(_variants(text)) for text, _, _ in texts]
    flat = [v for vs in variants for v in vs]
    fast = [coalgebra._read_statements(v) for v in flat]
    shipped = [_outcome(parse_model, v) for v in flat]
    with monkeypatch.context() as m:
        m.setattr(coalgebra, "_read_statements", lambda text: None)
        tokens = [_outcome(parse_model, v) for v in flat]
        for mod in _MODULES:
            m.setattr(mod, "Cursor", CharCursor)
        chars = [_outcome(parse_model, v) for v in flat]
    for v, f, new, tok, old in zip(flat, fast, shipped, tokens, chars):
        assert f is None or ("ok", f) == tok, v
        assert new == old, v
    taken = iter(f is not None for f in fast)
    for (text, valid, whole), vs in zip(texts, variants):
        took = [next(taken) for _ in vs]
        assert took[0] == whole, text
        assert (shipped[flat.index(text)][0] == "ok") == valid, text
        if valid:
            assert any(took), text


def test_rendered_powerset_models_take_the_statement_path(monkeypatch):
    """``render_model``'s powerset output never reaches the token reader, so
    a change to the format cannot send large files back to it unnoticed."""

    def refuse(text):
        raise AssertionError("the token reader was used")

    monkeypatch.setattr(coalgebra, "Cursor", refuse)
    rng = random.Random(40)
    for n in range(1, 41):
        M = random_model(POWERSET, ("p", "q")[: n % 3], n, rng)
        assert parse_model(render_model(M)) == M
        P = PointedModel(M, M.states[rng.randrange(n)])
        assert parse_model(render_model(P)) == P
    P = _large_model(random.Random(1000))
    assert parse_model(render_model(P)) == P
