"""Host-speed calibration interleaved with the measured work.

On a shared virtual machine the CPU time a fixed piece of Python takes
drifts by tens of percent within minutes (see the README).  ``HostSpeed``
runs a fixed loop that imports nothing from the program and times it in
thread CPU time.  The benchmark samples it between segments of measured
work and rescales each segment by ``REFERENCE_S / sample``: times are
reported as they would read on a host whose calibration pass takes
``REFERENCE_S``.  A change to the program cannot move the calibration, so a
gain in the program still shows in full.
"""

from __future__ import annotations

import time

REFERENCE_S = 450e-6   # about the median calibration pass on the reference host


class HostSpeed:
    """The loop allocates small dicts, tuples and lists much as the engine
    does; of the loops tried it tracked the engine's drift best (README,
    *Host speed*)."""

    def __init__(self):
        self._keys = [(i * 104729) % 65536 for i in range(600)]
        self.samples: list[float] = []

    def sample(self) -> float:
        """CPU seconds of one calibration pass (about half a millisecond)."""
        clock = time.thread_time
        t0 = clock()
        out: list = []
        for k in self._keys:
            d = {k: (k, k + 1), k + 1: (k + 2,)}
            out.append(tuple(sorted(d)) + (k,))
            if len(out) > 64:
                out = []
        s = clock() - t0
        self.samples.append(s)
        return s
