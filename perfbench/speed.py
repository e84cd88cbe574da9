"""Machine-speed probe, so that times from a shared machine compare.

On a shared machine the same Python code runs at speeds that differ by up
to 1.6x from one second to the next, on each CPU separately, because
other tenants load the cores. On a shared two-vCPU virtual machine, such
spells lasted from about one to ten seconds. A run can
fall into one from start to end. Taking the best of several passes does
not remove that.

So the benchmark times a fixed piece of interpreter work, ``probe``,
right before and after each measured job. It scales the job's time by
``PROBE_S`` over the mean of the two probes. A time is then reported at
the speed at which the probe takes ``PROBE_S``. The probe builds tuple
keys and updates a dict, like weylift's inner loops, with the garbage
collector off so that no collection lands in it. Both sides of a
comparison are scaled the same way, so the scaling does not change their
ratio. It only removes the machine's noise.
"""

from __future__ import annotations

import gc
import time

#: Reference probe time: about the probe's time on a quiet CPU of that
#: machine, so scaled times read about like raw ones there.
PROBE_S = 330e-6


def probe():
    """Best of two timings of the fixed work, in seconds."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(2):
            t0 = time.perf_counter()
            acc = {}
            for i in range(2000):
                key = (i & 15, i >> 4)
                acc[key] = acc.get(key, 0) + 3 * i
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best
