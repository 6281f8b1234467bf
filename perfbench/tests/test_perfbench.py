"""Fast checks of the benchmark's own parts: generators, oracle, tracer."""

import json
import sys
import types

import pytest

import checks
import oracle
import run
import tracer
import workloads


def _snapshot(wl):
    return wl.files, [(r.key, r.argv, r.kind, r.expect, r.known_failure, r.save)
                      for r in wl.requests]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    gen = workloads.WORKLOADS[name]
    for seed in (1, 2, 17):
        assert _snapshot(gen(seed)) == _snapshot(gen(seed))


def test_modelcheck_inputs_depend_on_the_seed():
    assert workloads.modelcheck(1).files != workloads.modelcheck(2).files


def test_interpolate_carries_the_chain_known_answer():
    keys = [r.key for r in workloads.interpolate(5).requests]
    i = keys.index("chain.project")
    assert keys[i + 1] == "chain.accept"


MODEL = """functor powerset;
props {p};
state s0; sigma {s1, s2}; gamma {};
state s1; sigma {}; gamma {p};
state s2; sigma {s2}; gamma {};
point s0;
"""


@pytest.mark.parametrize("formula, states", [
    ("p", ["s1"]),
    ("nabla {}", ["s1"]),
    ("nabla {p, ~p}", ["s0"]),
    ("nabla {p}", []),
    ("nabla {true}", ["s0", "s2"]),
    ("(nabla {~p} \\/ nabla {})", ["s1", "s2"]),
    ("mu x. (p \\/ nabla {x, true})", ["s0", "s1"]),
    ("nu x. nabla {x, true}", ["s0", "s2"]),
    ("nu x. (~p /\\ nabla {x})", ["s2"]),
    ("mu x. (p \\/ (nabla {x} \\/ nabla {}))", ["s1"]),
    ("nu x. mu y. ((p /\\ nabla {x, true}) \\/ nabla {y, true})", []),
    ("\\/{p, nabla {}, false}", ["s1"]),
])
def test_oracle_matches_hand_computed_extensions(formula, states):
    M = oracle.parse_model(MODEL)
    assert M.states_of(oracle.extension(M, oracle.parse_formula(formula))) == states


def test_oracle_point_and_free_atoms():
    M = oracle.parse_model(MODEL)
    assert oracle.holds_at_point(M, oracle.parse_formula("nabla {p, ~p}"))
    f = oracle.parse_formula("mu x. (q \\/ nabla {x, p})")
    assert oracle.free_atoms(f) == {"p", "q"}


@pytest.mark.parametrize("a, b, holds", [
    ("p", "(p \\/ q)", True),
    ("(p \\/ q)", "p", False),
    ("nabla {p}", "nabla {true}", True),
    ("nabla {true}", "nabla {p}", False),
    ("nu x. (p /\\ nabla {x})", "p", True),
])
def test_oracle_entailment_small_cases(a, b, holds):
    assert oracle.entails(oracle.parse_formula(a), oracle.parse_formula(b)) is holds


def test_hand_written_verdicts_agree_with_the_oracle():
    P = oracle.parse_formula
    for a, b, holds in workloads.ENTAILMENT_CASES:
        assert oracle.entails(P(a), P(b)) is holds, (a, b)
    for a, keep, b, holds in workloads.INTERPOLATION_CASES:
        assert oracle.free_atoms(P(b)) <= set(keep)
        assert oracle.entails(P(a), P(b)) is holds, (a, b)


def test_oracle_rejects_other_functors():
    with pytest.raises(ValueError):
        oracle.parse_model("functor monotone; props {};")


def test_self_time_of_nested_spans():
    names = ["a", "b", "c"]
    spans = [
        (0, 0.0, 10.0, -1),  # a
        (1, 1.0, 4.0, 0),    # b under a
        (2, 2.0, 3.0, 1),    # c under b
        (1, 5.0, 7.0, 0),    # b under a
        (0, 8.0, 9.0, 0),    # a under a (recursion)
    ]
    got = tracer.summarize(names, spans)
    assert got["a"] == {"calls": 2, "self_s": (10 - 3 - 2 - 1) + 1, "incl_s": 10}
    assert got["b"] == {"calls": 2, "self_s": (3 - 1) + 2, "incl_s": 5}
    assert got["c"] == {"calls": 1, "self_s": 1, "incl_s": 1}
    assert tracer.count_under(names, spans, "c", "a") == 1
    assert tracer.count_under(names, spans, "b", "c") == 0


def test_self_time_clips_overlapping_children():
    spans = [(0, 0.0, 4.0, -1), (1, 1.0, 3.0, 0), (1, 2.0, 6.0, 0)]
    assert tracer.summarize(["a", "b"], spans)["a"]["self_s"] == pytest.approx(1.0)


def test_install_wraps_every_binding_and_reports_missing(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def f(x):
        return x + 1

    a.f = f
    b.g = f  # imported under another name
    b.h = lambda x: a.f(x) * 2
    for m in (pkg, a, b):
        monkeypatch.setitem(sys.modules, m.__name__, m)
    t = tracer.Tracer()
    tracer.install(t, {"a.f": None, "a.gone": None, "c.f": None}, package="fakepkg")
    assert a.f is b.g and a.f is not f
    assert b.h(1) == 4 and b.g(0) == 1
    assert t.missing == ["a.gone", "c.f"]
    data = t.dump()
    assert [s[0] for s in data["spans"]] == [0, 0]


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    value, pct = run.tail([float(i) for i in range(40)])
    assert (value, pct) == (29.0, 75.0)


def test_pass_count_depends_on_seconds_only():
    assert run.pass_count(35) == 3
    assert run.pass_count(1) == 2


@pytest.mark.parametrize("interpolant, reason", [
    ("nabla {\\/{nabla {}, nabla {true}}}", None),
    # entails both consequents as it should, but is too strong: the
    # antecedent does not entail it
    ("nabla {nabla {true}}", "antecedent does not entail the interpolant"),
    ("nabla {p}", "interpolant uses a proposition outside keep"),
])
def test_interpolate_judge_checks_soundness_with_the_oracle(interpolant, reason):
    for consequent, holds in (("~nabla {}", True), ("nabla {nabla {}}", False)):
        req = workloads.Request(
            key="i", argv=[], kind="interpolate",
            expect={"formula": "nabla {p, ~p}", "keep": (),
                    "consequent": consequent, "holds": holds})
        out = {"interpolant": interpolant, "vocabulary": [],
               "entailment_verified": True}
        assert checks.judge(req, 0, json.dumps(out), None) == reason
