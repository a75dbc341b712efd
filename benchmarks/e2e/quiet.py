"""Find a quiet core before each timed sample.

Measured on the 2-vCPU box this benchmark was written on: each vCPU
alternates, independently of the other, between a fast state and one
30-45% slower that lasts 5-20 s (a busy neighbour on the host), so a
timed sample is only comparable with another if both ran in the fast
state.  :class:`QuietCores` runs a fixed reference kernel on every
allowed core and calls a core quiet while its kernel time is within
:data:`TOLERANCE` of the lower quartile of every time seen in this run.
``acquire`` returns the quietest core, sleeping and probing again while
none is quiet and the wait budget lasts; the waits are in no metric.

The same kernel times give the run's *speed correction*: a whole run can
sit in the slow state (one in ten did, with every sample 30% up), and no
choice of sample then reaches the machine's floor.  The run's floor of
CPU-bound harness-side work moves with the run's floor of the kernel —
measured over 40 runs, dividing one by the other took the run-to-run
spread of ``build_s`` from 9-11% to 1.5-4% — so those times are reported
as ``floor(samples) * KERNEL_REFERENCE_S / floor(kernel)``: seconds on a
machine whose kernel takes :data:`KERNEL_REFERENCE_S`.  The kernel is
benchmark-owned, so no change under ``src/`` can move it.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Dict, List, Tuple

import numpy as np

#: A core is quiet while its kernel time is within this factor of the
#: run's lower-quartile kernel time; the slow state starts at about 1.25x.
TOLERANCE = 1.10

#: The kernel's time on the machine the corrected times are stated
#: for; about its floor on the box this was written on.
KERNEL_REFERENCE_S = 0.010

#: Seconds between probes while no core is quiet.
RETRY_SLEEP_S = 0.15

_BASE = np.arange(250_000, dtype=np.int64)[::-1].copy()


def kernel() -> float:
    """About 10 ms of interpreter loop plus numpy sort and gather — the
    two kinds of work the program under test is made of."""
    start = time.perf_counter()
    acc = 0
    for i in range(90_000):
        acc += i * i % 7
    ordered = np.sort(_BASE)
    ordered[_BASE % 1000].sum()
    return time.perf_counter() - start


class QuietCores:
    def __init__(self, wait_budget_s: float) -> None:
        self.cpus: List[int] = sorted(os.sched_getaffinity(0))
        self.wait_budget_s = wait_budget_s
        self.waited_s = 0.0
        self.samples: List[float] = []

    def probe(self) -> Dict[int, float]:
        """Kernel time per core, pinning as it goes."""
        times = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            times[cpu] = kernel()
        self.samples.extend(times.values())
        return times

    def is_quiet(self, kernel_s: float) -> bool:
        """Against the lower quartile of every sample so far, not the
        minimum: the fast state's own kernel times spread by 10%, and
        a single lucky sample would otherwise call everything noisy."""
        if len(self.samples) < 8:
            return kernel_s <= TOLERANCE * min(self.samples)
        return kernel_s <= TOLERANCE * statistics.quantiles(
            self.samples, n=4)[0]

    def settle(self) -> None:
        """Before the set-up clock starts: probe until the last three
        rounds agree with the fastest seen, within the wait budget."""
        start = time.perf_counter()
        recent: List[float] = []
        while True:
            recent.append(min(self.probe().values()))
            if (len(recent) >= 4
                    and all(self.is_quiet(t) for t in recent[-3:])):
                break
            if time.perf_counter() - start >= self.wait_budget_s / 2:
                break
        self.waited_s += time.perf_counter() - start

    def acquire(self) -> Tuple[int, int, bool]:
        """``(quiet_cpu, other_cpu, is_quiet)``; the calling process is
        left pinned to ``quiet_cpu``.  With one allowed core both are
        that core."""
        while True:
            times = self.probe()
            cpu = min(times, key=times.get)
            quiet = self.is_quiet(times[cpu])
            if quiet or self.waited_s >= self.wait_budget_s:
                break
            time.sleep(RETRY_SLEEP_S)
            self.waited_s += RETRY_SLEEP_S + sum(times.values())
        other = next((c for c in self.cpus if c != cpu), cpu)
        os.sched_setaffinity(0, {cpu})
        return cpu, other, quiet


def pin_process(pid: int, cpu: int) -> None:
    """Pin every thread of ``pid`` (the broker's dispatch thread is not
    the main thread, and ``sched_setaffinity(pid)`` moves only that)."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), {cpu})
        except ProcessLookupError:   # a thread that just exited
            pass
