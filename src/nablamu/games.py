"""Parity games: arenas, the Zielonka solver, positional strategies.

Conventions: priorities are maximized along plays, even priorities favor the
existential player 'E', odd ones the universal player 'A'; a player stuck at
a position they own loses immediately.  Winning strategies are positional,
and the solver returns one for each player on their winning region.
"""

from __future__ import annotations

from collections import deque

from .records import Record


class Arena(Record):
    """A finite parity game arena.

    ``positions`` are arbitrary hashable labels; ``owner``, ``priority`` and
    ``moves`` align with them by index, ``moves[i]`` listing successor
    indices.  The constructor validates the arena; the builders in
    ``automata``, whose arenas are valid by construction, skip the checks
    through ``_unchecked``.
    """

    positions: tuple
    owner: tuple
    priority: tuple
    moves: tuple

    def __post_init__(self):
        n = len(self.positions)
        if len(set(self.positions)) != n:
            raise ValueError("duplicate positions")
        if not (len(self.owner) == len(self.priority) == len(self.moves) == n):
            raise ValueError("owner/priority/moves must align with positions")
        if any(o not in ("E", "A") for o in self.owner):
            raise ValueError("owners must be 'E' or 'A'")
        if any(p < 0 for p in self.priority):
            raise ValueError("priorities must be nonnegative")
        for succ in self.moves:
            for j in succ:
                if not (0 <= j < n):
                    raise ValueError(f"move target {j} out of range")
        object.__setattr__(
            self, "_index", {p: i for i, p in enumerate(self.positions)}
        )

    @classmethod
    def _unchecked(cls, positions, owner, priority, moves, index) -> "Arena":
        """The arena with these fields, built without ``__post_init__``'s
        checks: for callers that construct only valid arenas.  ``index``
        maps each position to its index."""
        arena = object.__new__(cls)
        arena.__dict__.update(
            positions=positions,
            owner=owner,
            priority=priority,
            moves=moves,
            _index=index,
        )
        return arena

    def index(self, position) -> int:
        return self._index[position]

    def __len__(self) -> int:
        return len(self.positions)


class ParitySolution(Record):
    """The winning regions of both players and a positional strategy for each.

    ``strategy_e`` and ``strategy_a`` are dicts from position index to the
    index of the chosen successor.  Each covers its player's own positions in
    their winning region, and every choice stays inside that region.
    """

    win_e: frozenset
    win_a: frozenset
    strategy_e: dict
    strategy_a: dict

    def winner(self, v: int) -> str:
        return "E" if v in self.win_e else "A"


def solve_parity(arena: Arena) -> ParitySolution:
    """Solve the parity game by Zielonka's recursive algorithm.

    Dead ends are handled by routing them to virtual sinks lost by the stuck
    player, so the recursion only ever sees total games.
    """
    n = len(arena.positions)
    # totalize: position n is a sink winning for A (odd self-loop, reached by
    # stuck E positions), position n+1 a sink winning for E.
    owner = list(arena.owner) + ["E", "A"]
    priority = list(arena.priority) + [1, 0]
    moves = [tuple(m) for m in arena.moves] + [(n,), (n + 1,)]
    for v in range(n):
        if not moves[v]:
            moves[v] = (n,) if owner[v] == "E" else ((n + 1),)
    preds = [[] for _ in range(n + 2)]
    for v in range(n + 2):
        for w in moves[v]:
            preds[w].append(v)

    def attractor(target, player, sub):
        """Positions in ``sub`` from which ``player`` forces a visit to target."""
        attr = set(target)
        strat = {}
        # an opponent position's count of in-subgame moves not yet known to
        # lead into attr, taken when the attractor first reaches it
        cnt = {}
        queue = deque(target)
        while queue:
            w = queue.popleft()
            for v in preds[w]:
                if v not in sub or v in attr:
                    continue
                if owner[v] == player:
                    attr.add(v)
                    strat[v] = w
                    queue.append(v)
                else:
                    k = cnt.get(v)
                    if k is None:
                        k = sum(map(sub.__contains__, moves[v]))
                    cnt[v] = k = k - 1
                    if k == 0:
                        attr.add(v)
                        queue.append(v)
        return frozenset(attr), strat

    def zielonka(sub: frozenset):
        """Returns ({player: winning region}, {player: strategy}) for the
        total subgame.

        The call on ``sub ∖ A`` recurses; A holds the top priority, so the
        depth is at most the number of priorities.  The call on ``sub ∖ B``
        is a loop: each round peels the opponent's attractor B off ``sub``,
        and the peeled regions are joined back innermost first.
        """
        peeled = []
        while sub:
            d = max(map(priority.__getitem__, sub))
            player, other = ("E", "A") if d % 2 == 0 else ("A", "E")
            Z = frozenset([v for v in sub if priority[v] == d])
            if len(Z) < len(sub):
                A, strat_attr = attractor(Z, player, sub)
                win, strat = zielonka(sub - A)
            else:
                # one priority left: the attractor is sub itself and the
                # recursion sees the empty game
                strat_attr = {}
                win, strat = {"E": frozenset(), "A": frozenset()}, {"E": {}, "A": {}}
            if not win[other]:
                # the favored player wins the whole subgame: recurse-region
                # strategy inside sub∖A, attractor strategy on A∖Z, and any
                # in-subgame move on the top-priority positions themselves.
                st = dict(strat[player])
                st.update(strat_attr)
                for v in Z:
                    if owner[v] == player:
                        st[v] = next(w for w in moves[v] if w in sub)
                win = {player: frozenset(sub), other: frozenset()}
                strat = {player: st, other: {}}
                break
            B, strat_b = attractor(win[other], other, sub)
            st = dict(strat[other])
            st.update(strat_b)
            peeled.append((other, B, st))
            sub = sub - B
        else:
            win, strat = {"E": frozenset(), "A": frozenset()}, {"E": {}, "A": {}}
        for other, B, st in reversed(peeled):
            st.update(strat[other])
            win[other], strat[other] = frozenset(win[other] | B), st
        return win, strat

    win, strat = zielonka(frozenset(range(n + 2)))
    real = set(range(n))
    return ParitySolution(
        frozenset(win["E"] & real),
        frozenset(win["A"] & real),
        {v: w for v, w in strat["E"].items() if v < n and w < n},
        {v: w for v, w in strat["A"].items() if v < n and w < n},
    )
