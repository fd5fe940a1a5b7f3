"""Host-speed probe: scales host times on a shared machine to a quiet one.

The 2-vCPU host the bounds were set on shares its cores with other
machines.  For stretches of 10 to 30 s it runs the workloads up to 1.7
times slower, and such stretches take a third of the time or more, so
whole runs of 30 s can fall inside one.  Neither longer runs, medians
nor the fastest repeat keep that out of a host time.

So a fixed reference task, the *probe*, runs between the workload's own
steps: a walk of ``PROBE_STEPS`` links around a random cycle of
``PROBE_NODES`` Python objects, a memory-bound interpreter loop like the
simulator's own.  It runs at most every ``PROBE_EVERY_S`` while a batch
is measured, when the batch creates a simulated process, and its time is
kept out of the batch's.  A batch's *host factor* is its median probe
time over ``PROBE_REF_S``, raised to ``PROBE_EXPONENT``, and its host
times are divided by that factor.  On a machine unlike that host the
scaled figures differ by a constant, which cancels when a parent and a
change are compared there.

The probe does not import ``repro``, so no change to the program can
change it, except through what the program leaves in the caches.
"""

from __future__ import annotations

import gc
import os
import random
import statistics
from array import array
from time import perf_counter_ns

PROBE_NODES = 400_000
PROBE_STEPS = 2_500
#: Median probe time while the workloads run on that host outside a slow
#: stretch (seconds); scaled host times are seconds of such a host.
PROBE_REF_S = 0.55e-3
#: The workloads slow down more than the probe does: batch host time
#: against probe time, over repeats of one seed on that host, fitted
#: exponents of about 2.0 (ingest), 1.45 (recall) and 1.3-1.5
#: (fleet_outage).
PROBE_EXPONENT = 1.5
PROBE_EVERY_S = 0.025
#: Probes taken before each batch, so that every batch has a host
#: factor even where it creates no process.
PROBES_AT_START = 8


class _Node:
    __slots__ = ("value", "next")


def _resident_bytes() -> int:
    try:
        with open("/proc/self/statm") as statm:
            return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError):
        return 0


def _factor(samples) -> float:
    return (statistics.median(samples) / 1e9 / PROBE_REF_S) ** PROBE_EXPONENT


class HostSpeed:
    """The probe's object cycle and the samples taken in one batch."""

    def __init__(self):
        before = _resident_bytes()
        rng = random.Random(0)
        nodes = [_Node() for _ in range(PROBE_NODES)]
        order = list(range(PROBE_NODES))
        rng.shuffle(order)
        for here, there in zip(order, order[1:] + order[:1]):
            nodes[here].value = here
            nodes[here].next = nodes[there]
        self._at = nodes[0]
        del nodes, order
        # The cycle lives for the whole run: keep it out of every
        # collection the workloads trigger.
        gc.collect()
        gc.freeze()
        #: resident memory the cycle takes, left out of peak_rss_mb
        self.resident_bytes = max(0, _resident_bytes() - before)
        self.samples = array("q")
        #: probe time inside the batch so far (ns)
        self.skipped_ns = 0
        self._last = 0
        self._original = None

    def probe(self) -> int:
        """Walk the cycle once; returns the host time it took (ns)."""
        node = self._at
        total = 0
        start = perf_counter_ns()
        for _ in range(PROBE_STEPS):
            total += node.value
            node = node.next
        elapsed = perf_counter_ns() - start
        self._at = node
        return elapsed

    def start_batch(self) -> None:
        del self.samples[:]
        for _ in range(PROBES_AT_START):
            self.samples.append(self.probe())
        self.skipped_ns = 0
        self._last = perf_counter_ns()

    def factor(self) -> float:
        """How many times slower than a quiet host the batch ran."""
        return _factor(self.samples)

    # -- probing while a batch runs --------------------------------------
    def __enter__(self) -> "HostSpeed":
        from repro.sim.engine import Process

        original = self._original = Process.__init__
        speed = self
        every_ns = round(PROBE_EVERY_S * 1e9)

        def init(process, *args, **kwargs):
            now = perf_counter_ns()
            if now - speed._last >= every_ns:
                speed.samples.append(speed.probe())
                speed._last = perf_counter_ns()
                speed.skipped_ns += speed._last - now
            original(process, *args, **kwargs)

        Process.__init__ = init
        return self

    def __exit__(self, *exc) -> None:
        from repro.sim.engine import Process

        Process.__init__ = self._original
