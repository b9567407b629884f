"""Host speed: scales measured times to one reference host speed.

The benchmark's host is a shared 2-vCPU guest whose speed flips between
two states many times a second, whatever the benchmark itself does: in
the slow one the same Python code runs about 1.6x slower.  How much of
a run falls in the slow state moves raw timings by more than any bound
a benchmark can usefully set (see README.md, "Host speed").

A :class:`Sampler` in each process that does measured work times a
small fixed pure-Python :func:`kernel` from a ``SIGPROF`` handler, every
:data:`PERIOD_S` of the process's CPU time, so samples land inside the
work in proportion to its CPU time.  The kernel is timed in the
thread's CPU time, so a process sharing the CPU (the load generator
does) cannot inflate a sample by preempting it.  :class:`HostSpeed`
averages the samples taken over an interval into the host's speed, and
:meth:`HostSpeed.scale` gives the time the interval would have lasted on
a host where the kernel always runs in :data:`NOMINAL_KERNEL_MS`.  The
kernel is part of the benchmark, not of the program, so a change to the
program never moves it.

The slow state does not slow every kind of work alike, so each workload
has its own :data:`SENSITIVITY`: the power of the kernel's speed that
its times follow.
"""

from __future__ import annotations

import bisect
import heapq
import json
import signal
import statistics
import time

#: The kernel's time on the machine the benchmark was calibrated on (a
#: 2-vCPU Intel Xeon KVM guest, Python 3.11) in its fast state.
NOMINAL_KERNEL_MS = 0.19
#: Per workload, d log(time) / d log(kernel time) between the rounds of a
#: run, fitted on the seed commit over 20 runs of each workload
#: (README.md, "Host speed"): a multicast slows less than the kernel, the
#: services' JSON work more.
SENSITIVITY = {
    "sim_broadcast": 0.85,
    "sim_sessions": 1.0,
    "plan_hot": 1.1,
    "plan_routed": 1.15,
}
#: CPU time of a process between two of its samples.
PERIOD_S = 0.02
#: Samples this far either side of an interval also describe it.
MARGIN_S = 0.01


def kernel() -> int:
    """A fixed mix of the operations the program spends its time in:
    generator coroutines on a ``heapq`` calendar, like the DES kernel,
    and a JSON round trip, like the plan service."""
    calendar = []

    def process(i):
        total = 0
        for j in range(8):
            total += yield (i * 7 + j) % 13 + 1
        return total

    processes = [process(i) for i in range(16)]
    for i, proc in enumerate(processes):
        heapq.heappush(calendar, (next(proc), i, i))
    sequence = len(processes)
    now = 0
    while calendar:
        now, _, i = heapq.heappop(calendar)
        try:
            delay = processes[i].send(now)
        except StopIteration:
            continue
        sequence += 1
        heapq.heappush(calendar, (now + delay, sequence, i))
    document = {"nodes": [{"id": i, "children": [i, i + 1, i + 2], "t": i / 2} for i in range(16)]}
    return now + len(json.loads(json.dumps(document))["nodes"])


class Sampler:
    """Samples the host speed every :data:`PERIOD_S` of this process's
    CPU time, on the main thread.

    ``samples`` holds ``(monotonic time, kernel CPU ms)`` pairs;
    ``cpu_s`` is the CPU time the samples cost, which measured CPU
    times leave out.
    """

    def __init__(self) -> None:
        self.samples = []
        self.cpu_s = 0.0

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stops the timer; a process must call it before it exits, as
        ``SIGPROF`` kills a process whose handler is already gone."""
        signal.setitimer(signal.ITIMER_PROF, 0.0)

    def _sample(self, _signum, _frame) -> None:
        at, cpu = time.monotonic(), time.thread_time()
        kernel()
        cost = time.thread_time() - cpu
        self.samples.append((at, cost * 1e3))
        self.cpu_s += cost


class HostSpeed:
    """The host's speed against the nominal one, over any interval."""

    def __init__(self, samples, sensitivity: float) -> None:
        samples = sorted(samples)
        if not samples:
            raise ValueError("no host-speed samples")
        self._times = [t for t, _ in samples]
        self._kernel_speeds = [NOMINAL_KERNEL_MS / ms for _, ms in samples]
        self._speeds = [s**sensitivity for s in self._kernel_speeds]

    def speed(self, start: float, end: float) -> float:
        """Mean of ``(nominal / kernel time) ** sensitivity`` over the
        samples taken in ``[start, end]``, or else of the nearest one."""
        low = bisect.bisect_left(self._times, start - MARGIN_S)
        high = bisect.bisect_right(self._times, end + MARGIN_S)
        if low == high:
            low = min(
                (i for i in (low - 1, low) if 0 <= i < len(self._times)),
                key=lambda i: abs(self._times[i] - start),
            )
            high = low + 1
        return statistics.fmean(self._speeds[low:high])

    def scale(self, start: float, end: float) -> float:
        """Seconds that ``[start, end]`` would have lasted on the nominal host."""
        return (end - start) * self.speed(start, end)

    def slowdown(self) -> float:
        """How much slower than nominal the kernel ran, over every sample."""
        return 1.0 / statistics.fmean(self._kernel_speeds)
