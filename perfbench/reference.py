"""Reference readings that track how fast the machine is right now.

On a shared virtual machine the CPU time of the same work swings by a
quarter, at times by half, within seconds, as neighbours load the host's
cores and caches. The benchmark therefore takes readings of a fixed
reference task while it measures and divides each operation's CPU time by
the mean reading around it, so the gated metrics are in reference units
(``ref``): the cost of an operation relative to a fixed piece of work run
at the same moment. Raw seconds are reported beside them. The tasks are
part of the benchmark, so no change to the program can alter them.

* ``SignalProbe`` (in-process workloads) takes a reading every 50 ms from a
  timer signal, also in the middle of a long operation, so a 6 s call is
  normalised by the speed during those 6 s. Its task is a miniature of
  what the library spends time on: interpreter-bound Python, numpy calls
  on tiny arrays and a numpy sort. The handler's own CPU time is
  subtracted from the operation's.
* ``ProcessProbe`` (the ``cli`` workload) runs, between commands, an
  interpreter that only imports numpy: the floor every command pays. It
  tracks process start-up costs that an in-process task does not see.
"""

from __future__ import annotations

import bisect
from array import array
import resource
import signal
import subprocess
import sys
import time

import numpy as np


def children_cpu():
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return kids.ru_utime + kids.ru_stime


class _Readings:
    window_s = 1.0  # readings this close to an op also count towards it

    def __init__(self):
        # arrays, not lists: a reading must not leave Python objects behind
        # that pin the allocator's arenas and so change the program's RSS
        self.times = array("d")  # perf_counter at each reading
        self.cpu = array("d")  # its CPU seconds
        self.spent = 0.0  # CPU seconds the readings took from this process

    def around(self, t0, t1):
        """Mean reading over [t0 - window_s, t1 + window_s], and at least the
        nearest reading on each side.

        A single reading is noisy; the machine's speed drifts over seconds,
        so the readings of the surrounding window average out the first
        and still follow the second.
        """
        lo = max(0, min(bisect.bisect_left(self.times, t0 - self.window_s),
                        bisect.bisect_left(self.times, t0) - 1))
        hi = max(bisect.bisect_right(self.times, t1 + self.window_s),
                 bisect.bisect_right(self.times, t1) + 1)
        near = self.cpu[lo:hi]
        return sum(near) / len(near)

    def clock(self):
        """Seconds on a clock that stops while a reading runs."""
        return time.perf_counter() - self.spent

    def start(self):
        pass

    def stop(self):
        pass

    def between_ops(self):
        pass


class SignalProbe(_Readings):
    period_s = 0.05

    def __init__(self):
        super().__init__()
        rng = np.random.default_rng(12345)
        self._small = rng.random(12)
        self._small_out = np.empty(12)
        self._big = rng.random(20_000)
        self._big_out = np.empty(20_000)
        self._previous = None

    def _task(self):
        # no array is allocated, so readings leave the program's heap alone
        s = 0
        for i in range(3000):
            s += (i * 7) % 13
        a, out = self._small, self._small_out
        for _ in range(100):
            np.maximum.accumulate(a[::-1], out=out)
            np.add(out, a, out=out)
            s += float(out.min())
        np.copyto(self._big_out, self._big)
        self._big_out.sort()
        return s

    def _read(self, signum=None, frame=None):
        # thread time: numpy's helper threads must not count, so that a
        # reading never takes more CPU than the wall time it interrupts
        c0 = time.thread_time()
        self._task()
        c1 = time.thread_time()
        self.cpu.append(c1 - c0)
        self.times.append(time.perf_counter())
        self.spent += time.thread_time() - c0

    def start(self):
        self._read()
        self._previous = signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._read()


class ProcessProbe(_Readings):
    interval_s = 1.0  # at most one reading per this much measuring
    window_s = 3.0

    def __init__(self, env):
        super().__init__()
        self.env = env

    def _take(self):
        c0 = children_cpu()
        subprocess.run(
            [sys.executable, "-c", "import numpy"],
            env=self.env,
            check=True,
            capture_output=True,
            timeout=120,
        )
        self.cpu.append(children_cpu() - c0)
        self.times.append(time.perf_counter())

    def start(self):
        self._take()

    def stop(self):
        self._take()

    def between_ops(self):
        if time.perf_counter() - self.times[-1] >= self.interval_s:
            self._take()
