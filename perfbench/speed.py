"""CPU time calibrated to a reference speed.

On a shared host the virtual CPU's speed is not constant: the same
pure-Python loop takes anywhere from 0.6x to 1.6x its usual CPU time,
within seconds, as other tenants load the physical core under it, and
for minutes at a time.  CPU time of the benchmark's phases moved by as
much, so two sets of runs of the same code could not agree within 25 %.

Between :func:`start` and :func:`stop` the speed is sampled while the
phases run.  Every :data:`PROBE_INTERVAL` seconds of wall time a timer
signal runs a short fixed piece of the benchmark's own code
(:func:`probe`, a small breadth-first search, the kind of work the
router does) twice in this process, on the CPU every process of the
run is pinned to, and records the CPU time of the second run: the first
finds the probe's code and data evicted by the phase, and how long that
takes varies from run to run with where the phase's memory lies, not
with the CPU's speed.  A phase's calibrated time is its CPU time, less the probes'
own, scaled by how fast the probe ran during the phase against
:data:`REFERENCE_RATE`: the time the phase takes on a CPU that runs the
probe at that rate.  The probe is not program code, so a change to the
program moves the calibrated time as it moves the CPU time.
"""

from __future__ import annotations

import signal
import time
from collections import deque
from typing import NamedTuple

#: Wall seconds between probes.  A probe and its warm-up take about
#: 140 µs, so the probes cost about 1.4 % of the CPU.
PROBE_INTERVAL = 0.01
#: Warm probe runs per CPU second on the reference CPU, about the
#: median on a 2-vCPU Xeon (Sapphire Rapids) KVM guest.
REFERENCE_RATE = 16000.0

#: A 12 x 12 grid of tiles, each with its neighbours.
_SIDE = 12
_NEIGHBOURS = {
    (x, y): [(a, b) for a, b in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
             if 0 <= a < _SIDE and 0 <= b < _SIDE]
    for x in range(_SIDE) for y in range(_SIDE)
}


def probe() -> dict:
    """The fixed work whose speed is sampled: a breadth-first search
    over :data:`_NEIGHBOURS`, as a router does."""
    parents = {(0, 0): None}
    queue = deque([(0, 0)])
    while queue:
        tile = queue.popleft()
        for neighbour in _NEIGHBOURS[tile]:
            if neighbour not in parents:
                parents[neighbour] = tile
                queue.append(neighbour)
    return parents


class Reading(NamedTuple):
    cpu: float
    probes: int
    #: CPU time of the probes, warm-ups included.
    probe_cpu: float
    #: CPU time of the timed (warm) probe runs.
    timed_cpu: float


class _Probe:
    """Runs :func:`probe` on a ``SIGALRM`` timer.  Python runs the
    handler in the main thread between bytecodes and retries the system
    calls it interrupts (PEP 475)."""

    probes = 0
    probe_cpu = 0.0
    timed_cpu = 0.0

    def __call__(self, signum, frame) -> None:
        started = time.thread_time()
        probe()
        warm = time.thread_time()
        probe()
        ended = time.thread_time()
        self.probe_cpu += ended - started
        self.timed_cpu += ended - warm
        self.probes += 1


_PROBE = _Probe()


def start() -> None:
    signal.signal(signal.SIGALRM, _PROBE)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def read(other_cpu: float = 0.0) -> Reading:
    """This process's CPU clock plus ``other_cpu`` (the CPU clock of the
    other processes doing the measured work), with the probe totals."""
    return Reading(time.process_time() + other_cpu, _PROBE.probes, _PROBE.probe_cpu,
                   _PROBE.timed_cpu)


def work(start: Reading, end: Reading) -> float:
    """CPU seconds between two readings, the probes' own left out."""
    return (end.cpu - start.cpu) - (end.probe_cpu - start.probe_cpu)


def speed(start: Reading, end: Reading) -> float:
    """How fast the probe ran between two readings, against
    :data:`REFERENCE_RATE`."""
    if end.probes == start.probes:
        raise ValueError("no probe ran between the readings")
    rate = (end.probes - start.probes) / (end.timed_cpu - start.timed_cpu)
    return rate / REFERENCE_RATE


def calibrated(start: Reading, end: Reading) -> float:
    """Calibrated seconds between two readings."""
    return work(start, end) * speed(start, end)


def calibrated_each(works: list[float], marks: list[Reading], reach: int) -> list[float]:
    """Calibrated seconds of consecutive intervals too short to hold a
    probe.  ``works[i]`` is the CPU time (:func:`work`) of an interval
    that starts at ``marks[i]``; ``marks`` ends with a reading after the
    last one.  Each is scaled by the speed the probes ran at over the
    ``reach`` intervals on either side of it: the speed changes within
    a second, so a whole stream's average would leave that change in."""
    last = len(works)
    return [work * speed(marks[max(0, i - reach)], marks[min(last, i + reach + 1)])
            for i, work in enumerate(works)]
