"""The record types' contract: construction, equality, hash, repr, immutability.

Every record compares equal only to a record of its own class with equal
fields, hashes as the tuple of its fields (so set and dict iteration orders,
and with them every rendered automaton and formula, depend only on the
fields), prints as ``Name(field=value, ...)`` and rejects assignment and
deletion: every record is frozen.
"""

import subprocess
import sys

import pytest

from nablamu.automata import WitnessCoalgebra, parse_automaton
from nablamu.coalgebra import ColoredModel, PointedModel
from nablamu.functors import POWERSET, FunctorDescriptor, compose, constant, product
from nablamu.games import Arena, ParitySolution
from nablamu.laxcheck import CheckReport
from nablamu.translation import NAnd, NFix, NLit, NNabla, NOr, NVar

AUT = """functor powerset;
props {p};
initial a0;
state a0 priority 1;
state a1 priority 0;
delta a0 {p} : [{a0, a1}];
delta a1 {} : [{}];
"""


def _records():
    """(record, its field names, its field values) for each record class."""
    model = ColoredModel(
        POWERSET, ("p",), (0, 1), (frozenset({1}), frozenset()), (frozenset({"p"}), frozenset())
    )
    lit = NLit("p", True)
    var = NVar("x")
    cases = [
        (compose(POWERSET, product(POWERSET, constant("ab"))), ("kind", "values", "parts")),
        (model, ("functor", "props", "states", "sigma", "gamma")),
        (PointedModel(model, 1), ("model", "point")),
        (Arena((0, 1), ("E", "A"), (0, 1), ((1,), ())), ("positions", "owner", "priority", "moves")),
        (ParitySolution(frozenset({0}), frozenset({1}), {0: 1}, {}),
         ("win_e", "win_a", "strategy_e", "strategy_a")),
        (parse_automaton(AUT), ("functor", "props", "states", "initial", "omega", "delta")),
        (WitnessCoalgebra(model, frozenset({(0, "a0")}), {}), ("model", "winning", "tau_of")),
        (lit, ("prop", "pos")),
        (var, ("var",)),
        (NAnd(frozenset({lit, var})), ("parts",)),
        (NOr(frozenset({lit, var})), ("parts",)),
        (NNabla(frozenset({var})), ("payload",)),
        (NFix("nu", "x", NAnd(frozenset({lit, NNabla(frozenset({var}))}))), ("kind", "var", "body")),
        (CheckReport("powerset", 2, {"monotone": (True, None)}),
         ("functor", "carrier_bound", "checks")),
    ]
    return [(r, names, tuple(getattr(r, k) for k in names)) for r, names in cases]


RECORDS = _records()
IDS = [type(r).__name__ for r, _, _ in RECORDS]


def test_every_record_class_is_covered():
    assert len(set(IDS)) == len(IDS) == 14


@pytest.mark.parametrize("r, names, values", RECORDS, ids=IDS)
def test_equal_to_a_rebuilt_copy_only_within_the_class(r, names, values):
    cls = type(r)
    assert cls(*values) == r and not cls(*values) != r
    assert cls(**dict(zip(names, values))) == r
    assert r.__eq__(object()) is NotImplemented
    assert r != object()


@pytest.mark.parametrize("r, names, values", RECORDS, ids=IDS)
def test_a_call_that_misses_or_repeats_a_field_is_a_type_error(r, names, values):
    cls = type(r)
    for args, kwargs in [
        ((), {}),
        (values + (None,), {}),
        (values, {names[0]: values[0]}),
        (values, {"extra": None}),
    ]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_equality_across_classes_is_not_implemented():
    parts = frozenset({NLit("p", True), NVar("x")})
    conj, disj = NAnd(parts), NOr(parts)
    assert conj.__eq__(disj) is NotImplemented
    assert conj != disj and disj != conj
    assert len({conj, disj}) == 2  # equal hashes, different records


@pytest.mark.parametrize("r, names, values", RECORDS, ids=IDS)
def test_hash_is_the_hash_of_the_fields(r, names, values):
    try:
        want = hash(values)
    except TypeError:  # a dict field: unhashable, as the tuple is
        with pytest.raises(TypeError):
            hash(r)
        return
    assert hash(r) == want
    assert hash(type(r)(*values)) == want


@pytest.mark.parametrize("r, names, values", RECORDS, ids=IDS)
def test_repr_names_every_field_in_order(r, names, values):
    fields = ", ".join(f"{k}={v!r}" for k, v in zip(names, values))
    assert repr(r) == f"{type(r).__name__}({fields})"


@pytest.mark.parametrize("r, names, values", RECORDS, ids=IDS)
def test_every_record_is_frozen(r, names, values):
    for k in names + ("extra",):
        with pytest.raises(AttributeError):
            setattr(r, k, None)
    for k in names:
        with pytest.raises(AttributeError):
            delattr(r, k)
    assert tuple(getattr(r, k) for k in names) == values


def test_functor_descriptor_keywords_and_defaults():
    assert FunctorDescriptor("powerset") == FunctorDescriptor(
        kind="powerset", values=frozenset(), parts=()
    )
    assert FunctorDescriptor("powerset").values == frozenset()
    assert FunctorDescriptor("powerset").parts == ()
    const = FunctorDescriptor("const", values=frozenset("ab"))
    assert const == constant("ab") and const.parts == ()
    pair = FunctorDescriptor("product", parts=(POWERSET, const))
    assert pair == product(POWERSET, const)
    assert hash(pair) == hash(("product", frozenset(), (POWERSET, const)))
    with pytest.raises(TypeError):
        FunctorDescriptor()
    with pytest.raises(TypeError):
        FunctorDescriptor("powerset", colour=1)


def test_validation_runs_at_every_construction():
    with pytest.raises(ValueError):
        FunctorDescriptor("const")
    with pytest.raises(ValueError):
        PointedModel(RECORDS[1][0], 7)
    with pytest.raises(ValueError):
        Arena((0, 0), ("E", "E"), (0, 0), ((), ()))


def test_importing_the_cli_loads_no_code_generation_modules():
    # the record types need neither module; importing them costs start-up
    # in every CLI call
    code = (
        "import sys, nablamu.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
