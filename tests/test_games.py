"""Parity game solving: known small games, certificates, oracle agreement."""

import random
import sys

import pytest

from helpers import (
    Arena,
    oracle_winners,
    random_arena,
    reference_solve_parity,
    solve_parity,
    validate_parity_solution,
)


def arena(owner, priority, moves):
    return Arena(
        positions=tuple(range(len(owner))),
        owner=tuple(owner),
        priority=tuple(priority),
        moves=tuple(tuple(m) for m in moves),
    )


def test_validation():
    with pytest.raises(ValueError):
        arena("EX", [0, 0], [(), ()])
    with pytest.raises(ValueError):
        arena("EE", [0, -1], [(), ()])
    with pytest.raises(ValueError):
        arena("EE", [0, 0], [(5,), ()])
    with pytest.raises(ValueError):
        Arena((0, 0), ("E", "E"), (0, 0), ((), ()))


def test_self_loops():
    # even self-loop: E wins regardless of owner; odd: A wins
    for owner in "EA":
        sol = solve_parity(arena(owner, [2], [(0,)]))
        assert sol.win_e == {0}
        sol = solve_parity(arena(owner, [1], [(0,)]))
        assert sol.win_a == {0}


def test_stuck_positions_lose():
    sol = solve_parity(arena("EA", [0, 0], [(), ()]))
    assert sol.win_e == {1}  # A stuck at 1, E stuck at 0
    assert sol.win_a == {0}


def test_choice_matters():
    # E at 0 chooses between an odd loop (1) and an even loop (2)
    sol = solve_parity(arena("EEE", [0, 1, 2], [(1, 2), (1,), (2,)]))
    assert 0 in sol.win_e
    assert sol.strategy_e[0] == 2
    # A at 0 with the same options steers into the odd loop
    sol = solve_parity(arena("AEE", [0, 1, 2], [(1, 2), (1,), (2,)]))
    assert 0 in sol.win_a
    assert sol.strategy_a[0] == 1


def test_alternating_cycle_max_priority_decides():
    # cycle 0 -> 1 -> 0 with priorities 1, 2: max is even, E wins
    sol = solve_parity(arena("AA", [1, 2], [(1,), (0,)]))
    assert sol.win_e == {0, 1}
    # priorities 1, 3: max odd, A wins
    sol = solve_parity(arena("EE", [1, 3], [(1,), (0,)]))
    assert sol.win_a == {0, 1}


def test_forced_detour():
    # A must pass through a high even priority to reach its odd loop
    sol = solve_parity(arena("AEE", [1, 2, 1], [(1,), (2,), (1,)]))
    # cycle 0->1->2->1? moves: 0->1, 1->2, 2->1: loop 1<->2 max=2 even
    assert sol.win_e == {0, 1, 2}


def test_deterministic():
    rng = random.Random(42)
    for _ in range(20):
        a = random_arena(rng)
        s1 = solve_parity(a)
        s2 = solve_parity(a)
        assert s1 == s2


def test_random_arenas_certified():
    rng = random.Random(1)
    for _ in range(300):
        a = random_arena(rng)
        sol = solve_parity(a)
        validate_parity_solution(a, sol)


def test_random_arenas_against_oracle():
    rng = random.Random(2)
    for _ in range(80):
        a = random_arena(rng)
        sol = solve_parity(a)
        want = oracle_winners(a)
        got = tuple(sol.winner(v) for v in range(len(a)))
        assert got == want, (a, got, want)


def test_larger_arena_smoke():
    rng = random.Random(3)
    a = random_arena(rng, max_positions=60, max_priority=5, max_degree=4)
    sol = solve_parity(a)
    validate_parity_solution(a, sol)


def test_larger_arenas_match_reference_solver():
    # attractor counts are taken lazily; regions and strategies must equal
    # those of the solver that counts every position up front
    checked = 0
    for seed in range(200):
        a = random_arena(
            random.Random(seed), max_positions=60, max_priority=5, max_degree=4
        )
        sol = solve_parity(a)
        validate_parity_solution(a, sol)
        assert sol == reference_solve_parity(a), seed
        # the oracle enumerates E's positional strategies: only where few
        choices = 1
        for v in range(len(a)):
            if a.owner[v] == "E" and a.moves[v]:
                choices *= len(a.moves[v])
        if choices <= 256:
            want = oracle_winners(a)
            assert tuple(sol.winner(v) for v in range(len(a))) == want, seed
            checked += 1
    assert checked >= 50


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_single_priority_arenas_match_reference_solver(d):
    # every position has priority d, so after the sinks are peeled the
    # solver meets subgames of one priority, whose attractor it skips;
    # dead ends of both owners send plays to the sinks
    stuck = set()
    for seed in range(60):
        a = random_arena(random.Random(seed), max_positions=12, max_priority=0, max_degree=3)
        a = arena(a.owner, [d] * len(a), a.moves)
        stuck |= {o for o, m in zip(a.owner, a.moves) if not m}
        sol = solve_parity(a)
        validate_parity_solution(a, sol)
        assert sol == reference_solve_parity(a), seed
    assert stuck == {"E", "A"}


def test_solve_parity_restores_recursion_limit():
    before = sys.getrecursionlimit()
    # a cycle long enough that the solver must raise the limit for its call
    n = before
    ring = arena("E" * n, [i % 3 for i in range(n)], [((i + 1) % n,) for i in range(n)])
    sol = solve_parity(ring)
    assert sol.win_e == frozenset(range(n))
    assert sys.getrecursionlimit() == before


def test_solve_parity_leaves_the_recursion_limit_alone(monkeypatch):
    def refuse(limit):
        raise AssertionError("solve_parity changed the recursion limit")

    # as many positions as the recursion limit allows frames
    n = sys.getrecursionlimit()
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    ring = arena("E" * n, [i % 3 for i in range(n)], [((i + 1) % n,) for i in range(n)])
    sol = solve_parity(ring)
    assert sol.win_e == frozenset(range(n))
