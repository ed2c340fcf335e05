"""How fast is this host right now?  A fixed calibration kernel.

The sandbox shares its cores: the same cell took 0.75 to 1.1 s within one
process and whole passes drifted by 30 % over minutes while the benchmark
was written, for pure-Python loops as much as for the simulator.  No
statistic taken inside a run removes a drift that outlasts the run, so
the CPU-bound timings are reported in *reference-host seconds*: measured
seconds divided by the slowdown this kernel saw around them.  The raw
seconds and the slowdown are kept beside every such number in
``bench/out``.  Waits (the daemon's 50 ms poll) and set-up are not scaled.

The kernel never changes with the program: it is interpreter work (loop,
arithmetic, dict stores) and numpy work (``unique``, ``cumsum``, a gather)
in roughly the simulator's proportions, about 0.1 s.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

#: What the kernel takes on the reference host.  A definition, not a
#: measurement: it fixes the unit "reference-host second".
REF_S = 0.100

_COLUMN = np.arange(20000, dtype=np.int64)


def kernel_seconds() -> float:
    t = time.perf_counter()
    acc, table = 0, {}
    for i in range(200000):
        acc += i * i % 7
        table[i & 1023] = acc
    for _ in range(100):
        keys = np.unique(_COLUMN % 977)
        np.cumsum(_COLUMN)[keys]
    return time.perf_counter() - t


class Slowdown:
    """Mean kernel time over the samples taken around one measured phase,
    as a multiple of the reference host's."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        self.samples.append(kernel_seconds())

    @property
    def value(self) -> float:
        return sum(self.samples) / len(self.samples) / REF_S
