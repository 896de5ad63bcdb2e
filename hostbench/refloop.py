"""Machine-speed reference probe and the reference-host-second rescaling.

The probe is a fixed, ~1 ms mix of the kinds of host work the workloads
do: Python heap and call traffic (event dispatch), pointer-chasing reads
over an 8 MB list (a working set beyond the core's caches) and small
NumPy calls (per-group sensing and decoding).  It shares no state with
``repro``: its data is built once from constants, and the garbage
collector is paused while it runs, since a collection would walk the
heap ``repro`` allocated.

The host's speed on a shared VM drifts by 2x over minutes and by
10-15 % within tens of milliseconds, so timing a reference loop only
before and after a repetition misses most of what the repetition saw.
:class:`HostSampler` instead runs the probe every :data:`SAMPLE_PERIOD_S`
of wall time *during* the timed region, from a ``SIGALRM`` handler.
The region's net wall time (its wall time minus the probes' own time)
times :data:`PROBE_NOMINAL_S` over the mean probe time is its duration
in **reference-host seconds**: what it would have taken on a host that
runs the probe in exactly ``PROBE_NOMINAL_S``.  Drift that slows the
probe and the workload alike divides out.
"""

import gc
import heapq
import signal
import statistics
import time

import numpy as np

#: Duration of one :func:`probe` on the reference host (a 2-vCPU x86-64
#: VM, Python 3.11, NumPy 2.4).  A fixed constant, so reference-host
#: seconds from different runs and commits compare.
PROBE_NOMINAL_S = 0.00085

#: Wall time between two probes while a :class:`HostSampler` is active.
SAMPLE_PERIOD_S = 0.01

_HEAP_ITEMS = 500
_LIST = [i & 255 for i in range(1 << 20)]
_READS = [(i * 2654435761) % (1 << 20) for i in range(600)]
_SMALL = np.arange(72, dtype=np.float64)
_SMALL_CALLS = 16


def _probe_body() -> int:
    heap = []
    push, pop = heapq.heappush, heapq.heappop
    for i in range(_HEAP_ITEMS):
        push(heap, ((i * 7919) % 1009) << 20 | i)
    total = 0
    while heap:
        total += pop(heap) & 0xFFFFF
    big = _LIST
    for index in _READS:
        total += big[index]
    for i in range(_SMALL_CALLS):
        shifted = _SMALL * (1.0 + i * 1e-3) - 30.0
        total += int(np.count_nonzero(np.where(shifted > 0.0, 1, 0)))
    return total


def probe() -> float:
    """Run the probe once with the collector paused; returns its time [s]."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _probe_body()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def to_reference_seconds(net_wall_s: float, probe_s: float) -> float:
    """Rescale a net wall time measured while the probe took ``probe_s``."""
    return net_wall_s * PROBE_NOMINAL_S / probe_s


class HostSampler:
    """Probes host speed every :data:`SAMPLE_PERIOD_S` while active.

    Usage::

        sampler = HostSampler()
        sampler.start()
        with sampler.window() as window:
            work()
        sampler.stop()
        seconds = to_reference_seconds(window.net_wall_s, window.probe_s)

    ``net_clock()`` is ``time.perf_counter()`` minus all probe time so
    far, so spans timed with it exclude the probes too.
    """

    def __init__(self):
        self.probe_total_s = 0.0
        self._samples = []
        self._busy = False
        self._previous = None

    def _on_alarm(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            elapsed = probe()
            self._samples.append(elapsed)
            self.probe_total_s += elapsed
        finally:
            self._busy = False

    def net_clock(self) -> float:
        while True:  # retry if a probe lands between the two reads
            before = self.probe_total_s
            now = time.perf_counter()
            if self.probe_total_s == before:
                return now - before

    def mean_probe_s(self) -> float:
        """Mean of every probe taken so far (one now if none yet) [s]."""
        return statistics.fmean(self._samples or [probe()])

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def window(self) -> "Window":
        return Window(self)


class Window:
    """One timed region: its net wall time and the probes taken in it."""

    def __init__(self, sampler: HostSampler):
        self._sampler = sampler
        self.net_wall_s = 0.0
        self.probes = []

    def __enter__(self) -> "Window":
        self._first = len(self._sampler._samples)
        self._start = self._sampler.net_clock()
        return self

    def __exit__(self, *exc) -> None:
        self.net_wall_s = self._sampler.net_clock() - self._start
        self.probes = self._sampler._samples[self._first:]
        if not self.probes:  # shorter than one period: probe right after
            self.probes = [probe()]

    @property
    def probe_s(self) -> float:
        """Mean probe time inside the window [s]."""
        return statistics.fmean(self.probes)
