"""The reference computation that run.py divides pass times by.

Trial division of a fixed 476-bit integer by 1..19999: pure interpreter and
big-integer work, about 4 ms, with no package code and almost no allocation,
so its time measures only how fast the machine runs Python at the moment.
On a shared 2-core host pass times drifted by 10-25% between runs and by
20-60% between stretches of minutes; divided by the median probe time of the
same run they drifted about half as much.  Probes that allocate many
Fractions drifted more than the package itself and made the ratio worse.
"""

import time

NUMBER = 3 ** 300 + 7
DIVISORS = 20000


def probe():
    return sum(1 for d in range(1, DIVISORS) if NUMBER % d == 0)


def probe_times(seconds):
    """Times of probe() calls, at least one, adding up to `seconds`."""
    times = []
    while not times or sum(times) < seconds:
        t0 = time.perf_counter()
        probe()
        times.append(time.perf_counter() - t0)
    return times
