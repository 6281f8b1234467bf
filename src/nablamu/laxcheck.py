"""Exhaustive small-carrier verification of the lax-extension axioms.

For carriers ``{0, …, n−1}`` up to a bound, every relation between carriers is
encoded as a bitmask, and one bitset reading of the lifting per element pair
(:func:`functors.lift_bits`) decides that pair for every relation.  The
checks then verify, for every relation (and every pair/function where
relevant):

* ``monotone`` — R ⊆ S implies LR ⊆ LS;
* ``composition`` — LR ; LS ⊆ L(R;S);
* ``quasi-functorial`` — L(R;S) restricted to the domain of LR and the range
  of LS equals LR ; LS;
* ``converse`` — L(R°) = (LR)°;
* ``diagonal`` — L(Δ_X) ⊆ Δ_TX;
* ``functions`` — L(graph f) = graph(T f).

Monotonicity is checked on single-pair extensions, LR ⊆ L(R ∪ {(x, y)}): any
S ⊇ R is reached from R by adding the pairs of S − R one at a time, so
LR ⊆ LS follows by transitivity of ⊆.

All checks are exhaustive at the given bound, so a ``CheckReport`` with every
entry passing is a finite proof for those carrier sizes.
"""

from __future__ import annotations

import itertools

from .functors import (
    DEFAULT_CAP,
    CapExceeded,
    FunctorDescriptor,
    base,
    enumerate_t,
    functor_tag,
    lift_bits,
    render_telem,
    t_map,
)
from .logic import _bits, _digit_mask
from .records import Record

_LAX_CHECKS = (
    "monotone", "composition", "quasi-functorial", "converse", "diagonal", "functions"
)


class CheckReport(Record):
    """Outcome of an exhaustive axiom sweep: one entry per named check."""

    functor: str
    carrier_bound: int
    checks: dict

    @property
    def ok(self) -> bool:
        return all(passed for passed, _ in self.checks.values())

    def __str__(self) -> str:
        lines = [f"{self.functor} (carriers up to {self.carrier_bound}):"]
        for name, (passed, witness) in self.checks.items():
            mark = "ok" if passed else "FAIL"
            lines.append(f"  {name}: {mark}" + (f" — {witness}" if witness else ""))
        return "\n".join(lines)


def _report(F: FunctorDescriptor, bound: int, names, failures) -> CheckReport:
    """Keep the first description per check name; stop once every name failed."""
    found = {}
    for name, why in failures:
        found.setdefault(name, why)
        if len(found) == len(names):
            break
    return CheckReport(
        functor_tag(F), bound, {n: (n not in found, found.get(n)) for n in names}
    )


def _pairs(mask: int, m: int, k: int) -> list:
    """The pairs (i, j) ∈ m × k of the relation encoded by bit i·k + j of ``mask``."""
    return [(i, j) for i in range(m) for j in range(k) if mask >> (i * k + j) & 1]


def _fmt_rel(mask: int, m: int, k: int) -> str:
    return "{" + ", ".join(f"({i},{j})" for i, j in _pairs(mask, m, k)) + "}"


class _Unions(dict):
    """A mask of row indices ↦ the union of those rows, filled as it is read."""

    def __init__(self, rows):
        self.rows = rows
        self[0] = 0

    def __missing__(self, bits: int) -> int:
        low = bits & -bits
        self[bits] = union = self[bits ^ low] | self.rows[low.bit_length() - 1]
        return union


def _carriers(F: FunctorDescriptor, bound: int, cap: int) -> dict:
    """The elements of ``F`` over each carrier ``{0, …, n−1}``, ``n ≤ bound``.

    Raises :class:`CapExceeded`, without tabulating any lifting, once a
    carrier takes the sweep's work — a table entry per relation and element
    pair, plus the (R, S) pairs :func:`_lax_failures` composes — past ``cap``.
    """
    telems = {}
    for n in range(bound + 1):
        telems[n] = enumerate_t(F, frozenset(range(n)), cap)
        ns = range(n + 1)
        work = sum(
            2 ** (m * k) * (len(telems[m]) * len(telems[k]) + sum(2 ** (k * j) for j in ns))
            for m in ns
            for k in ns
        )
        if work > cap:
            raise CapExceeded(
                f"the sweep up to carrier {n} needs {work} steps, past the cap {cap}"
            )
    return telems


def _tables(F: FunctorDescriptor, bound: int, cap: int):
    """Tabulate the lifting of every relation between carriers up to ``bound``.

    Returns ``(telems, rows)`` where ``rows[(m, k)][mask][ti]`` is the
    bitmask over ``telems[k]`` of elements related to ``telems[m][ti]`` by the
    lifting of the relation encoded by ``mask``.  Raises :class:`CapExceeded`
    before tabulating where :func:`_carriers` does.

    One :func:`functors.lift_bits` call decides an element pair for every
    mask: bit r of the atom (x, y) says whether mask r holds (x, y)
    (:func:`logic._digit_mask`), and bit r of the result goes to row r.
    """
    telems = _carriers(F, bound, cap)
    rows = {}
    for m, k in itertools.product(telems, repeat=2):
        count = 1 << (m * k)
        full = (1 << count) - 1
        held = [_digit_mask(2, 1 << p, 2, 0, count) for p in range(m * k)]

        def atom(x, y):
            return held[x * k + y]

        table = [[0] * len(telems[m]) for _ in range(count)]
        for ti, t1 in enumerate(telems[m]):
            for tj, t2 in enumerate(telems[k]):
                for r in _bits(lift_bits(F, t1, t2, atom, full)):
                    table[r][ti] |= 1 << tj
        rows[(m, k)] = list(map(tuple, table))
    return telems, rows


def _lax_failures(F, telems, rows):
    """Yield ``(check name, description)`` for every violation, check by check."""
    # monotone: LR ⊆ L(R ∪ {pair}) for every pair (see the module docstring).
    for (m, k), table in rows.items():
        for mask, lrows in enumerate(table):
            for bit in range(m * k):
                bigger = mask | 1 << bit
                for ti, (r, s) in enumerate(zip(lrows, table[bigger])):
                    if r & ~s:
                        yield "monotone", (
                            f"L{_fmt_rel(mask, m, k)} ⊄ L{_fmt_rel(bigger, m, k)} at "
                            f"τ={render_telem(F, telems[m][ti])}, "
                            f"ρ={render_telem(F, telems[k][(r & ~s).bit_length() - 1])}"
                        )

    # composition: LR;LS ⊆ L(R;S); quasi-functorial: equality on dom(LR) × rng(LS).
    for m, k, j in itertools.product(telems, repeat=3):
        Rtab, Stab, Ctab = rows[(m, k)], rows[(k, j)], rows[(m, j)]
        TX, TZ = telems[m], telems[j]
        for Smask, Srows in enumerate(Stab):
            lifted = _Unions(Srows)  # LR;LS at τ is the union of LS over τ's LR-row
            rng_mask = lifted[(1 << len(Srows)) - 1]
            # R;S for every R: the union, over the pairs (x, y) of R, of {x} × S(y).
            composed = [0]
            for x, y in itertools.product(range(m), range(k)):
                zs = (Smask >> (y * j) & ((1 << j) - 1)) << (x * j)
                composed += [rs | zs for rs in composed]
            for Rmask, Rrows in enumerate(Rtab):
                Crows = Ctab[composed[Rmask]]
                for ti, rb in enumerate(Rrows):
                    # LR;LS ⊆ rng(LS), so a composition failure fails this test too.
                    if rb and lifted[rb] != Crows[ti] & rng_mask:
                        comp, full = lifted[rb], Crows[ti] & rng_mask
                        pair = f"R={_fmt_rel(Rmask, m, k)}, S={_fmt_rel(Smask, k, j)}"
                        at = f"for {pair} at τ={render_telem(F, TX[ti])}"
                        extra = comp & ~full
                        if extra:
                            rho = render_telem(F, TZ[extra.bit_length() - 1])
                            yield "composition", f"LR;LS ⊄ L(R;S) {at}, ρ={rho}"
                        missing = full & ~comp
                        if missing:
                            yield "quasi-functorial", (
                                f"no middle element {at}, "
                                f"ρ={render_telem(F, TZ[missing.bit_length() - 1])} "
                                f"despite τ ∈ dom(LR), ρ ∈ rng(LS)"
                            )
                        else:  # the two differ only where L(R;S) misses LR;LS
                            yield "quasi-functorial", (
                                f"L(R;S) misses an element of LR;LS {at}, ρ={rho}"
                            )

    # converse: L(R°) = (LR)°.
    for (m, k), table in rows.items():
        for mask, frows in enumerate(table):
            brows = rows[(k, m)][sum(1 << (j * m + i) for i, j in _pairs(mask, m, k))]
            for ti, tj in itertools.product(range(len(telems[m])), range(len(telems[k]))):
                if (frows[ti] >> tj & 1) != (brows[tj] >> ti & 1):
                    yield "converse", (
                        f"L(R°) ≠ (LR)° for R={_fmt_rel(mask, m, k)} at "
                        f"τ={render_telem(F, telems[m][ti])}, "
                        f"ρ={render_telem(F, telems[k][tj])}"
                    )

    # diagonal: L(Δ_X) ⊆ Δ_TX.
    for m, TX in telems.items():
        for ti, row in enumerate(rows[(m, m)][sum(1 << (i * m + i) for i in range(m))]):
            if row & ~(1 << ti):
                yield "diagonal", (
                    f"L(Δ) relates distinct elements {render_telem(F, TX[ti])} "
                    f"and {render_telem(F, TX[(row & ~(1 << ti)).bit_length() - 1])}"
                )

    # functions: L(graph f) = graph(T f), in particular Δ_TX ⊆ L(Δ_X).
    for m, k in itertools.product(telems, repeat=2):
        for fvals in itertools.product(range(k), repeat=m):
            gmask = sum(1 << (i * k + fi) for i, fi in enumerate(fvals))
            fmap = dict(enumerate(fvals))
            for t1, row in zip(telems[m], rows[(m, k)][gmask]):
                want = 1 << telems[k].index(t_map(F, fmap, t1))
                if row != want:
                    yield "functions", (
                        f"L(graph f) ≠ T f for f={fvals} at τ={render_telem(F, t1)}: "
                        f"related-set mask {row:#x}, expected {want:#x}"
                    )


def check_lax_axioms(
    F: FunctorDescriptor, carrier_bound: int = 2, cap: int = DEFAULT_CAP
) -> CheckReport:
    """Exhaustively verify all lax-extension axioms at small carriers."""
    failures = _lax_failures(F, *_tables(F, carrier_bound, cap))
    return _report(F, carrier_bound, _LAX_CHECKS, failures)


def _support_failures(F, telems, rows):
    for (m, k), table in rows.items():
        TX, TY = telems[m], telems[k]
        supports = [
            [sum(1 << (i * k + j) for i in base(F, t1) for j in base(F, t2)) for t2 in TY]
            for t1 in TX
        ]
        for mask, lrows in enumerate(table):
            for ti, row in enumerate(lrows):
                for tj, support in enumerate(supports[ti]):
                    if (row ^ table[mask & support][ti]) >> tj & 1:
                        yield "support-restriction", (
                            f"lifting of R={_fmt_rel(mask, m, k)} at "
                            f"τ={render_telem(F, TX[ti])}, ρ={render_telem(F, TY[tj])} "
                            f"changes when R is restricted to the supports"
                        )


def check_support_restriction(
    F: FunctorDescriptor, carrier_bound: int = 2, cap: int = DEFAULT_CAP
) -> CheckReport:
    """Verify that lifting membership depends only on the supports.

    For every relation R and elements τ, ρ: (τ, ρ) ∈ LR iff
    (τ, ρ) ∈ L(R ∩ (base(τ) × base(ρ))).  This is what makes the winning
    pairs W of an acceptance game, restricted to base(τ) × base(ρ), a
    witness for every pair (τ, ρ) in the lifting of W.
    """
    failures = _support_failures(F, *_tables(F, carrier_bound, cap))
    return _report(F, carrier_bound, ("support-restriction",), failures)


def _selftest_reports(F: FunctorDescriptor, carrier_bound: int, cap: int = DEFAULT_CAP):
    """The reports of :func:`check_lax_axioms` and
    :func:`check_support_restriction`, from one tabulation of the lifting."""
    telems, rows = _tables(F, carrier_bound, cap)
    axioms = _lax_failures(F, telems, rows)
    support = _support_failures(F, telems, rows)
    return (
        _report(F, carrier_bound, _LAX_CHECKS, axioms),
        _report(F, carrier_bound, ("support-restriction",), support),
    )
