"""Request lists for the three workloads, generated from a seed.

A workload is one pass: a list of CLI requests plus the input files they
read.  The same seed always yields the same files and requests.  Every
request carries what the checker needs to judge its output: a hand-written
expected verdict, or the formula whose oracle value is the verdict.

Why these workloads:

* ``interpolate`` is the paper's pipeline (formula -> automaton -> projection
  -> formula).  Its time goes to the bounded realizability sweep in
  ``normalize``, acceptance games and the bounded entailment check.  It also
  carries the known-answer projection of a 5-state chain automaton.
* ``entails`` sweeps bounded models and evaluates formulas on them; no
  automaton, game or translation code runs, so it bypasses what the first
  workload stresses.
* ``modelcheck`` runs ``check``, ``automaton accept`` and ``bisim`` on a few
  large models: a few big arenas and fixpoint iterations instead of
  thousands of tiny ones, and no model enumeration at all.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"


@dataclass
class Request:
    """One CLI call.  ``argv`` names input files relative to the work dir."""

    key: str
    argv: list
    kind: str
    expect: dict = field(default_factory=dict)
    # A known wrong answer of the current code (see baseline.json): counted
    # as a known failure, not as a failed request.  Take the flag off once
    # the code answers right, so that a regression counts as failed.
    known_failure: bool = False
    # Write this field of the structured output to the named file, for a
    # later request of the same pass to read.
    save: tuple = ()


@dataclass
class Workload:
    name: str
    files: dict
    requests: list


# --------------------------------------------------------------------------
# interpolate

# (antecedent, kept vocabulary, consequent, antecedent entails consequent);
# the consequent uses only kept propositions, so the interpolant must
# entail it exactly when the antecedent does.
INTERPOLATION_CASES = [
    ("p", (), "nabla {}", False),
    ("(p /\\ ~p)", (), "false", True),
    ("(p /\\ nabla {})", (), "~nabla {true}", True),
    ("(p /\\ nabla {})", (), "nabla {}", True),
    ("nabla {p, ~p}", (), "~nabla {}", True),
    ("nabla {p, ~p}", (), "nabla {nabla {}}", False),
    ("mu x. ((p /\\ nabla {}) \\/ nabla {x, true})", (), "mu x. (nabla {} \\/ nabla {x, true})", True),
]

# Known answer for bounded pruning in projection: the chain automaton
# a0 -> a1 {p} -> a2 {q} -> a3 {p,q} -> a4 -> deadlock accepts the 5-state
# chain model, so its projection along p must accept the chain's p-reduct.
CHAIN_AUTOMATON = "chain.aut"
CHAIN_REDUCT = "chain_reduct.model"


def _swap_pq(text: str, swap: bool) -> str:
    if not swap:
        return text
    return re.sub(r"\b[pq]\b", lambda m: "q" if m.group(0) == "p" else "p", text)


def interpolate(seed: int) -> Workload:
    rng = random.Random(seed)
    swap = rng.random() < 0.5
    requests = []
    for i, (a, keep, b, holds) in enumerate(INTERPOLATION_CASES):
        a, b = _swap_pq(a, swap), _swap_pq(b, swap)
        keep = tuple(_swap_pq(k, swap) for k in keep)
        requests.append(
            Request(
                key=f"interpolate.{i}",
                argv=["interpolate", a, "--keep", "{" + ", ".join(keep) + "}"],
                kind="interpolate",
                expect={"formula": a, "keep": keep, "consequent": b, "holds": holds},
            )
        )
    rng.shuffle(requests)
    files = {
        CHAIN_AUTOMATON: (DATA / CHAIN_AUTOMATON).read_text(),
        CHAIN_REDUCT: (DATA / CHAIN_REDUCT).read_text(),
    }
    chain = [
        Request(
            key="chain.project",
            argv=["automaton", "project", CHAIN_AUTOMATON, "p"],
            kind="project",
            expect={"hidden": "p"},
            save=("automaton", "chain_projected.aut"),
        ),
        Request(
            key="chain.accept",
            argv=["automaton", "accept", "chain_projected.aut", CHAIN_REDUCT],
            kind="accept",
            expect={"accepted": True},
            known_failure=True,
        ),
    ]
    at = rng.randrange(len(requests) + 1)
    return Workload("interpolate", files, requests[:at] + chain + requests[at:])


# --------------------------------------------------------------------------
# entails

# (antecedent, consequent, holds on every model of at most 3 states)
ENTAILMENT_CASES = [
    ("(p /\\ q)", "q", True),
    ("q", "(p /\\ q)", False),
    ("nabla {p}", "mu x. (p \\/ nabla {x, true})", True),
    ("mu x. (p \\/ nabla {x, true})", "nabla {p}", False),
    ("nu x. (p /\\ nabla {x})", "p", True),
    ("nabla {p}", "p", False),
    ("mu x. (p \\/ nabla {x})", "mu x. (p \\/ nabla {x, true})", True),
    ("nu x. (p /\\ nabla {x, true})", "nu x. (p /\\ nabla {x})", False),
    ("mu x. (p \\/ nabla {x, true})", "(p \\/ nabla {true})", True),
    ("(p \\/ nabla {true})", "mu x. (p \\/ nabla {x, true})", False),
    ("(p \\/ q)", "p", False),
    ("nu x. (p /\\ nabla {x, true})", "p", True),
    ("nu x. (p /\\ nabla {x, true})", "nabla {true}", True),
]


def entails(seed: int) -> Workload:
    rng = random.Random(seed)
    swap = rng.random() < 0.5
    requests = [
        Request(
            key=f"entails.{i}",
            argv=["entails", _swap_pq(a, swap), _swap_pq(b, swap)],
            kind="entails",
            expect={"a": _swap_pq(a, swap), "b": _swap_pq(b, swap), "holds": holds},
        )
        for i, (a, b, holds) in enumerate(ENTAILMENT_CASES)
    ]
    rng.shuffle(requests)
    return Workload("entails", {}, requests)


# --------------------------------------------------------------------------
# modelcheck

# Formulas with alternating fixpoints, evaluated by `check`.
CHECK_FORMULAS = [
    "nu x. mu y. ((p /\\ nabla {x, true}) \\/ nabla {y, true})",
    "mu x. nu y. ((p /\\ nabla {x, true}) \\/ (~p /\\ nabla {y, true}))",
    "nu x. (mu y. (p \\/ nabla {y, true}) /\\ nabla {x, true})",
    "nu x. mu y. \\/{((p /\\ q) /\\ nabla {x, true}), (q /\\ nabla {y, true})}",
]

# Fixed automaton files, each the translation of the formula beside it.
AUTOMATA = [
    ("inf_p_path.aut", CHECK_FORMULAS[0]),
    ("fin_p_path.aut", CHECK_FORMULAS[1]),
    (
        "nu_mu_nu.aut",
        "nu x. mu y. nu z. \\/{(p /\\ nabla {x, true}), (q /\\ nabla {y, true}), nabla {z, true}}",
    ),
    (
        "mu_nu_mu.aut",
        "mu x. nu y. mu z. \\/{(p /\\ nabla {x, true}), (q /\\ nabla {y, true}), nabla {z, true}}",
    ),
]

MODEL_SIZES = (1000, 700)
CHAIN_LENGTH = 150
COLORS = ((), ("p",), ("q",), ("p", "q"))


def _render(names, succ, colors, point) -> str:
    lines = ["functor powerset;", "props {p, q};"]
    for s, ts, c in zip(names, succ, colors):
        lines.append(
            f"state {s}; sigma {{{', '.join(ts)}}}; gamma {{{', '.join(c)}}};"
        )
    lines.append(f"point {point};")
    return "\n".join(lines) + "\n"


def ring_model(rng: random.Random, n: int) -> str:
    """A ring with short forward chords and rare short back edges; p marks
    every 60th state (give or take 3) and q 4n/5 states.  Fixpoints need
    many iterations because information travels only a few states per step.

    The shape is the same for every seed: it is drawn from a generator
    seeded by ``n``, because on freshly drawn shapes the fixpoint and game
    work of one request moved by up to 3x between seeds.  ``rng`` renames
    the states and shuffles their declaration order, so every seed gives
    another file describing an isomorphic model."""
    shape = random.Random(n)
    succ = []
    for i in range(n):
        ts = {(i + 1) % n}
        if shape.random() < 0.6:
            ts.add((i + shape.randint(2, 6)) % n)
        if shape.random() < 0.1:
            ts.add((i - shape.randint(1, 8)) % n)
        succ.append(ts)
    p_at = {(i + shape.randint(-3, 3)) % n for i in range(0, n, 60)}
    order = list(range(n))
    shape.shuffle(order)
    q_at = set(order[: 4 * n // 5])
    colors = [
        tuple(x for x, at in (("p", p_at), ("q", q_at)) if i in at) for i in range(n)
    ]
    name = list(range(n))
    rng.shuffle(name)
    rng.shuffle(order)
    return _render(
        [f"s{name[i]}" for i in order],
        [[f"s{j}" for j in sorted(name[t] for t in succ[i])] for i in order],
        [colors[i] for i in order],
        f"s{name[0]}",
    )


def chain_model(colors, order) -> str:
    """The chain c0 -> c1 -> ... -> deadlock, its states declared in
    ``order`` and named by declaration position; the point is c0."""
    n = len(colors)
    name = {c: f"s{k}" for k, c in enumerate(order)}
    succ = [[name[c + 1]] if c + 1 < n else [] for c in order]
    return _render(
        [name[c] for c in order], succ, [colors[c] for c in order], name[0]
    )


def modelcheck(seed: int) -> Workload:
    rng = random.Random(seed)
    files = {f"m{n}.model": ring_model(rng, n) for n in MODEL_SIZES}
    models = sorted(files)
    for aut, _ in AUTOMATA:
        files[aut] = (DATA / aut).read_text()
    # A chain colored periodically by three distinct colors: two positions
    # are bisimilar only if their distances to the end agree, so refinement
    # takes about CHAIN_LENGTH rounds.  The second chain is the first with
    # its states declared in another order (isomorphic, so bisimilar); the
    # third flips q a sixth of the way along (where the flip sits moves the
    # time to refute by 1.5x, so it is not drawn from the seed).
    word = rng.sample(COLORS, 3)
    colors = [word[i % 3] for i in range(CHAIN_LENGTH)]
    order = list(range(CHAIN_LENGTH))
    flip = CHAIN_LENGTH // 6
    flipped = list(colors)
    flipped[flip] = tuple(sorted(set(colors[flip]) ^ {"q"}))
    files["chain_a.model"] = chain_model(colors, order)
    rng.shuffle(order)
    files["chain_b.model"] = chain_model(colors, order)
    files["chain_c.model"] = chain_model(flipped, list(range(CHAIN_LENGTH)))

    requests = [
        Request(f"check.{i}.{m.split('.')[0]}", ["check", m, f], "check",
                {"formula": f, "model": m})
        for i, f in enumerate(CHECK_FORMULAS)
        for m in models
    ]
    for i, (aut, f) in enumerate(AUTOMATA):
        m = models[(i + 1) % len(models)]
        requests.append(
            Request(
                f"accept.{i}",
                ["automaton", "accept", aut, m],
                "accept",
                {"formula": f, "model": m},
            )
        )
    for key, argv, related in (
        ("bisim.iso", ["bisim", "chain_a.model", "chain_b.model"], True),
        ("bisim.flip", ["bisim", "chain_a.model", "chain_c.model"], False),
        (
            "bisim.flip_disregard",
            ["bisim", "chain_a.model", "chain_c.model", "--disregard", "q"],
            True,
        ),
    ):
        requests.append(Request(key, argv, "bisim", {"related": related}))
    rng.shuffle(requests)
    return Workload("modelcheck", files, requests)


WORKLOADS = {"interpolate": interpolate, "entails": entails, "modelcheck": modelcheck}
