"""Machine-speed probe used to put op times on a fixed scale.

On a shared machine the speed of a core moves by 30% or more over tens of
seconds, from other tenants, with no steal time to show for it; the same
cycle of cvmw calls then takes from 1.0 to 1.5 s. A short fixed kernel of the
same kind of work (Python loop, 2x2 numpy calls and a 120x120 matmul) is timed
next to the ops, and each op time is scaled by NOMINAL_PROBE_S / probe. The
kernel does not touch cvmw, so a change to cvmw moves the scaled times as it
would move the raw ones. NOMINAL_PROBE_S is the probe on a 2-core 2.1 GHz
x86-64 sandbox when its cores run at full speed (it reads up to 5 ms when they
do not), so scaled times read close to raw ones at full speed.
"""

import time

import numpy as np

NOMINAL_PROBE_S = 0.0027

_SMALL = np.eye(2) * 1.5
_LARGE = np.random.default_rng(0).standard_normal((120, 120))


def _kernel():
    start = time.perf_counter()
    total = 0.0
    for i in range(400):
        total += float(np.linalg.det(_SMALL @ _SMALL + np.eye(2))) + i
    for _ in range(4):
        _LARGE @ _LARGE
    return time.perf_counter() - start


def probe():
    """Fastest of three kernel runs, in seconds."""
    return min(_kernel() for _ in range(3))


def scale(probe_s):
    """Factor that takes a time measured next to `probe_s` to the nominal scale."""
    return NOMINAL_PROBE_S / probe_s
