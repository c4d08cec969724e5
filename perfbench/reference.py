"""Reference work: fixed pieces of work that use no qsdctl code.

The host the benchmark was tuned on runs at speeds that drift by up to
2x over seconds to minutes (other tenants share its cores), far more
than any bound a regression check could use.  Timing this work next to
the requests measures that drift, and every time the benchmark reports
is scaled by REF_S / (time of this work nearby): seconds on a host
where this work takes REF_S.  That is about its time when this host
runs at its best.
"""

import time

import numpy as np

REF_S = 0.0125

# Set-up is scaled apart from the requests, by a launch of a fresh
# interpreter that imports numpy and scipy.linalg and nothing of
# qsdctl, made just after each set-up launch.  Launching, reading the
# modules' files and importing respond to the host's drift in their own
# way, unlike the work above.  REF_LAUNCH_S is about this launch's time
# when the host runs at its best.
REF_LAUNCH_CODE = """\
import sys
import numpy
import scipy.linalg
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""
REF_LAUNCH_S = 0.3


class ReferenceWork:
    """An interpreter loop, small and mid-sized numpy mat-vecs, a sort
    into a dict, and a Python loop of scalar random draws like the
    simulators' inner loop."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.a = rng.random((60, 60))
        self.b = rng.random((200, 200))
        self.u = rng.random(60)
        self.v = rng.random(200)
        self.keys = rng.random(6000).tolist()
        self.cdf = np.cumsum(np.full(4, 0.25))

    def seconds(self) -> float:
        draws = np.random.Generator(np.random.Philox(7))
        t0 = time.perf_counter()
        s = 0
        for i in range(25000):
            s += i * i
        for _ in range(1000):
            self.a @ self.u
        for _ in range(200):
            self.b @ self.v
        dict(zip(sorted(self.keys), range(len(self.keys))))
        t, path = 0.0, []
        for _ in range(2000):
            t += draws.exponential(0.25)
            k = int(np.searchsorted(self.cdf, draws.random(), side="right"))
            path.append((t, k))
        return time.perf_counter() - t0
