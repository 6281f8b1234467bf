"""A fixed start-up that measures how fast this machine is now.

The benchmark runs this file in a fresh interpreter after every request and
times it from spawn to exit.  Starting an interpreter and importing a fixed
set of standard modules is the same kind of work as the requests' own
set-up, and moves with the machine's speed the way the requests do; a small
arithmetic loop did not (on a 2-core VM it sped up 1.6x while requests
sped up 1.2x).  It
imports nothing from the package under test.
"""

import argparse  # noqa: F401
import dataclasses  # noqa: F401
import functools  # noqa: F401
import itertools  # noqa: F401
import json  # noqa: F401
