"""Exhaustive small-carrier verification of the lax-extension axioms.

For carriers ``{0, …, n−1}`` up to a bound, every relation between carriers is
encoded as a bitmask and the lifting is tabulated once per orientation.  The
checks then verify, for every relation (and every pair/function where
relevant):

* ``monotone`` — R ⊆ S implies LR ⊆ LS;
* ``composition`` — LR ; LS ⊆ L(R;S);
* ``quasi-functorial`` — L(R;S) restricted to the domain of LR and the range
  of LS equals LR ; LS;
* ``converse`` — L(R°) = (LR)°;
* ``diagonal`` — L(Δ_X) ⊆ Δ_TX;
* ``functions`` — L(graph f) = graph(T f).

All checks are exhaustive at the given bound, so a ``CheckReport`` with every
entry passing is a finite proof for those carrier sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .functors import (
    DEFAULT_CAP,
    FunctorDescriptor,
    base,
    enumerate_t,
    functor_tag,
    lift_member,
    render_telem,
    t_map,
)


@dataclass
class CheckReport:
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


def _fmt_rel(mask: int, m: int, k: int) -> str:
    ps = [(i, j) for i in range(m) for j in range(k) if (mask >> (i * k + j)) & 1]
    return "{" + ", ".join(f"({i},{j})" for i, j in ps) + "}"


def _mask_pairs(mask: int, m: int, k: int) -> frozenset:
    return frozenset(
        (i, j) for i in range(m) for j in range(k) if (mask >> (i * k + j)) & 1
    )


def _tables(F: FunctorDescriptor, bound: int, cap: int):
    """Tabulate the lifting of every relation between carriers up to ``bound``.

    Returns ``(telems, index, rows)`` where ``rows[(m, k)][mask][ti]`` is the
    bitmask over ``telems[k]`` of elements related to ``telems[m][ti]`` by the
    lifting of the relation encoded by ``mask``.
    """
    telems = {n: enumerate_t(F, frozenset(range(n)), cap) for n in range(bound + 1)}
    index = {n: {t: i for i, t in enumerate(ts)} for n, ts in telems.items()}
    rows = {}
    for m in range(bound + 1):
        for k in range(bound + 1):
            TX, TY = telems[m], telems[k]
            table = []
            for mask in range(1 << (m * k)):
                pairs = _mask_pairs(mask, m, k)
                trows = []
                for t1 in TX:
                    bits = 0
                    for jj, t2 in enumerate(TY):
                        if lift_member(F, pairs, t1, t2):
                            bits |= 1 << jj
                    trows.append(bits)
                table.append(tuple(trows))
            rows[(m, k)] = table
    return telems, index, rows


def check_lax_axioms(
    F: FunctorDescriptor, carrier_bound: int = 2, cap: int = DEFAULT_CAP
) -> CheckReport:
    """Exhaustively verify all lax-extension axioms at small carriers."""
    telems, index, rows = _tables(F, carrier_bound, cap)
    b = carrier_bound
    checks = {}

    def render(n, t):
        return render_telem(F, t)

    # monotone: R ⊆ S implies LR ⊆ LS, via submask enumeration.
    fail = None
    for (m, k), table in sorted(rows.items()):
        if fail:
            break
        TX, TY = telems[m], telems[k]
        for smask in range(len(table)):
            sub = smask
            while True:
                srow, rrow = table[smask], table[sub]
                for ti in range(len(TX)):
                    extra = rrow[ti] & ~srow[ti]
                    if extra:
                        tj = extra.bit_length() - 1
                        fail = (
                            f"L{_fmt_rel(sub, m, k)} ⊄ L{_fmt_rel(smask, m, k)} at "
                            f"τ={render(m, TX[ti])}, ρ={render(k, TY[tj])}"
                        )
                        break
                if fail or sub == 0:
                    break
                sub = (sub - 1) & smask
            if fail:
                break
    checks["monotone"] = (fail is None, fail)

    # composition (LR;LS ⊆ L(R;S)) and quasi-functoriality, per carrier triple.
    l2fail = qffail = None
    for m in range(b + 1):
        for k in range(b + 1):
            for j in range(b + 1):
                if l2fail and qffail:
                    break
                Rtab, Stab, Ctab = rows[(m, k)], rows[(k, j)], rows[(m, j)]
                TX, TY, TZ = telems[m], telems[k], telems[j]
                kbits = (1 << k) - 1
                ny = len(TY)
                for Smask in range(len(Stab)):
                    if l2fail and qffail:
                        break
                    Srows = Stab[Smask]
                    rng_mask = 0
                    for r in Srows:
                        rng_mask |= r
                    yrow = [(Smask >> (y * j)) & ((1 << j) - 1) for y in range(k)]
                    zrow_of = [0] * (1 << k)
                    for v in range(1, 1 << k):
                        lb = v & -v
                        zrow_of[v] = zrow_of[v ^ lb] | yrow[lb.bit_length() - 1]
                    if ny <= 12:
                        or_of = [0] * (1 << ny)
                        for v in range(1, 1 << ny):
                            lb = v & -v
                            or_of[v] = or_of[v ^ lb] | Srows[lb.bit_length() - 1]
                    else:
                        or_of = None
                    for Rmask in range(len(Rtab)):
                        Rrows = Rtab[Rmask]
                        rs = 0
                        for x in range(m):
                            rs |= zrow_of[(Rmask >> (x * k)) & kbits] << (x * j)
                        Crows = Ctab[rs]
                        for ti in range(len(TX)):
                            rb = Rrows[ti]
                            if or_of is not None:
                                comp = or_of[rb]
                            else:
                                comp = 0
                                bits = rb
                                while bits:
                                    lb = bits & -bits
                                    bits ^= lb
                                    comp |= Srows[lb.bit_length() - 1]
                            if l2fail is None:
                                extra = comp & ~Crows[ti]
                                if extra:
                                    tz = extra.bit_length() - 1
                                    l2fail = (
                                        f"LR;LS ⊄ L(R;S) for R={_fmt_rel(Rmask, m, k)}, "
                                        f"S={_fmt_rel(Smask, k, j)} at "
                                        f"τ={render(m, TX[ti])}, ρ={render(j, TZ[tz])}"
                                    )
                            if qffail is None and rb:
                                want = Crows[ti] & rng_mask
                                if comp != want:
                                    tz = (want & ~comp).bit_length() - 1
                                    qffail = (
                                        f"no middle element for R={_fmt_rel(Rmask, m, k)}, "
                                        f"S={_fmt_rel(Smask, k, j)} at "
                                        f"τ={render(m, TX[ti])}, ρ={render(j, TZ[tz])} "
                                        f"despite τ ∈ dom(LR), ρ ∈ rng(LS)"
                                    )
    checks["composition"] = (l2fail is None, l2fail)
    checks["quasi-functorial"] = (qffail is None, qffail)

    # converse: L(R°) = (LR)°.
    fail = None
    for m in range(b + 1):
        if fail:
            break
        for k in range(b + 1):
            if fail:
                break
            TX, TY = telems[m], telems[k]
            fwd, bwd = rows[(m, k)], rows[(k, m)]
            for mask in range(len(fwd)):
                conv = 0
                for (i, j) in _mask_pairs(mask, m, k):
                    conv |= 1 << (j * m + i)
                frows, brows = fwd[mask], bwd[conv]
                for ti in range(len(TX)):
                    for tj in range(len(TY)):
                        if ((frows[ti] >> tj) & 1) != ((brows[tj] >> ti) & 1):
                            fail = (
                                f"L(R°) ≠ (LR)° for R={_fmt_rel(mask, m, k)} at "
                                f"τ={render(m, TX[ti])}, ρ={render(k, TY[tj])}"
                            )
                            break
                    if fail:
                        break
                if fail:
                    break
    checks["converse"] = (fail is None, fail)

    # diagonal: L(Δ_X) ⊆ Δ_TX.
    fail = None
    for m in range(b + 1):
        if fail:
            break
        TX = telems[m]
        diag = 0
        for i in range(m):
            diag |= 1 << (i * m + i)
        drows = rows[(m, m)][diag]
        for ti in range(len(TX)):
            extra = drows[ti] & ~(1 << ti)
            if extra:
                tj = extra.bit_length() - 1
                fail = (
                    f"L(Δ) relates distinct elements "
                    f"{render(m, TX[ti])} and {render(m, TX[tj])}"
                )
                break
    checks["diagonal"] = (fail is None, fail)

    # functions: L(graph f) = graph(T f), in particular Δ_TX ⊆ L(Δ_X).
    fail = None
    for m in range(b + 1):
        if fail:
            break
        for k in range(b + 1):
            if fail:
                break
            TX = telems[m]
            idx = index[k]
            for fvals in itertools.product(range(k), repeat=m):
                gmask = 0
                for i, fi in enumerate(fvals):
                    gmask |= 1 << (i * k + fi)
                grows = rows[(m, k)][gmask]
                fmap = dict(enumerate(fvals))
                for ti, t1 in enumerate(TX):
                    want = 1 << idx[t_map(F, fmap, t1)]
                    if grows[ti] != want:
                        fail = (
                            f"L(graph f) ≠ T f for f={fvals} at τ={render(m, t1)}: "
                            f"related-set mask {grows[ti]:#x}, expected {want:#x}"
                        )
                        break
                if fail:
                    break
    checks["functions"] = (fail is None, fail)

    return CheckReport(functor_tag(F), carrier_bound, checks)


def check_support_restriction(
    F: FunctorDescriptor, carrier_bound: int = 2, cap: int = DEFAULT_CAP
) -> CheckReport:
    """Verify that lifting membership depends only on the supports.

    For every relation R and elements τ, ρ: (τ, ρ) ∈ LR iff
    (τ, ρ) ∈ L(R ∩ (base(τ) × base(ρ))).  This is what makes the winning
    pairs W of an acceptance game, restricted to base(τ) × base(ρ), a
    witness for every pair (τ, ρ) in the lifting of W.
    """
    telems, index, rows = _tables(F, carrier_bound, cap)
    fail = None
    for m in range(carrier_bound + 1):
        if fail:
            break
        for k in range(carrier_bound + 1):
            if fail:
                break
            TX, TY = telems[m], telems[k]
            table = rows[(m, k)]
            basemask = {}
            for ti, t1 in enumerate(TX):
                bx = base(F, t1)
                for tj, t2 in enumerate(TY):
                    by = base(F, t2)
                    pm = 0
                    for i in bx:
                        for j in by:
                            pm |= 1 << (i * k + j)
                    basemask[(ti, tj)] = pm
            for mask in range(len(table)):
                for ti in range(len(TX)):
                    row = table[mask][ti]
                    for tj in range(len(TY)):
                        restricted = table[mask & basemask[(ti, tj)]][ti]
                        if ((row >> tj) & 1) != ((restricted >> tj) & 1):
                            fail = (
                                f"lifting of R={_fmt_rel(mask, m, k)} at "
                                f"τ={render_telem(F, TX[ti])}, ρ={render_telem(F, TY[tj])} "
                                f"changes when R is restricted to the supports"
                            )
                            break
                    if fail:
                        break
                if fail:
                    break
    return CheckReport(
        functor_tag(F), carrier_bound, {"support-restriction": (fail is None, fail)}
    )
