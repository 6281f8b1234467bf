#!/usr/bin/env python3
"""Sweep the lifting axioms and support laws across the functor catalog.

Runs the exhaustive relation-lifting checks (order/composition laws, converse
compatibility, quasi-functoriality, graph restriction) and the support
restriction for every built-in functor shape, printing one report block per
functor.  Exit status 0 iff every check passes, and 2 with an ``error:``
line on stderr, before any sweep runs, when a sweep would exceed the
enumeration cap.
"""

import argparse
import sys
import time

from nablamu import (
    DEFAULT_CAP,
    IDENTITY,
    MONOTONE,
    POWERSET,
    CapExceeded,
    compose,
    constant,
    coproduct,
    functor_tag,
    product,
)
from nablamu.cli import _positive
from nablamu.laxcheck import _carriers, _selftest_reports

CATALOG = [
    POWERSET,
    MONOTONE,
    IDENTITY,
    constant(("a", "b")),
    product(POWERSET, IDENTITY),
    coproduct(POWERSET, constant(("a",))),
    compose(POWERSET, POWERSET),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--carrier-bound",
        type=_positive,
        default=2,
        help="largest carrier size in the exhaustive sweeps (default 2)",
    )
    parser.add_argument(
        "--powerset-bound",
        type=_positive,
        default=3,
        help="carrier bound used for the powerset functor alone (default 3)",
    )
    args = parser.parse_args(argv)

    bounds = [
        (F, args.powerset_bound if F is POWERSET else args.carrier_bound)
        for F in CATALOG
    ]
    try:
        for F, bound in bounds:  # refuse a sweep past the cap before any output
            _carriers(F, bound, DEFAULT_CAP)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    all_ok = True
    for F, bound in bounds:
        start = time.monotonic()
        axioms, support = _selftest_reports(F, bound)
        elapsed = time.monotonic() - start
        verdict = "ok" if axioms.ok and support.ok else "FAILED"
        print(f"== {functor_tag(F)} (carriers <= {bound}, {elapsed:.1f}s): {verdict}")
        for name, (passed, witness) in sorted(axioms.checks.items()):
            mark = "pass" if passed else f"FAIL at {witness!r}"
            print(f"   axiom  {name}: {mark}")
        for name, (passed, witness) in sorted(support.checks.items()):
            mark = "pass" if passed else f"FAIL at {witness!r}"
            print(f"   support {name}: {mark}")
        all_ok = all_ok and axioms.ok and support.ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
