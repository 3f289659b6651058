"""Probe of the host's CPU speed, to correct wall times for it.

The benchmark runs on virtual CPUs that share physical cores with other
work.  Their speed changes by up to 1.7x within seconds and can stay in one
state for minutes, so a wall time alone says as much about the host as
about cpfs.  The probe measures that speed where the program runs: a timer
signal every ``period`` seconds runs a fixed reference kernel in the main
thread and records how long it took.  The kernel is interpreter work of the
kinds cpfs does, in four parts: float arithmetic; small objects, calls and a
dict; a pairwise comparison scan; number formatting.  The host's load slows
these parts by different factors; in trials each part alone followed only
some of the workloads, and their sum followed all three.  The garbage
collector is paused while the kernel runs, so that the program's heap does
not change its cost.  The kernel never calls cpfs.

A span's corrected time is its wall time, less the probe's own time inside
it, times the mean speed of the samples taken in it and of the nearest
sample on each side.  Speed is ``REF_S`` over the kernel's seconds, so the
corrected time reads as the seconds the span would take on a core that runs
the kernel in ``REF_S``.  Work that waits on the disk rather than the CPU is
corrected as if it were CPU work.

Only ``gc``, ``signal`` and ``time`` are imported, all built into the
interpreter, so that ``setup_sample.py`` can start the probe before its
clock without loading a module that cpfs might need.
"""

import gc
import signal
import time

#: Seconds the kernel takes at reference speed (between its times in the
#: fast and slow states of a 2-vCPU Xeon VM; only the ratio matters).
REF_S = 0.5e-3

_clock = time.perf_counter


class _Cell:
    __slots__ = ("mu", "nu")

    def __init__(self, mu: float, nu: float) -> None:
        self.mu = mu
        self.nu = nu


def _scale(cell: _Cell, w: float) -> tuple[float, float]:
    return cell.mu * w, cell.nu * w


_SCORES = [i * 0.37 % 1.0 for i in range(40)]


def kernel() -> float:
    """The fixed reference work; its result only keeps it from being trivial."""
    s = 0.0
    x = 1.0
    for _ in range(1500):
        x = x * 0.999 + 0.5
        s += x * x

    table = {}
    acc = []
    for i in range(300):
        pair = _scale(_Cell(i * 0.001, 0.5), 0.25)
        table[i & 63] = pair
        acc.append(pair[0] + pair[1])

    scores = _SCORES
    n = len(scores)
    ties = sum(any(i != j and scores[i] == scores[j] for j in range(n)) for i in range(n))

    text = ",".join(f"{i * 0.001:.4f}" for i in range(150))
    return s + sum(acc) + len(table) + ties + len(text)


class Probe:
    """Samples of the kernel's time, taken on ``SIGALRM`` every ``period`` s."""

    def __init__(self, period: float) -> None:
        self.period = period
        self.starts: list[float] = []  # when each sample began
        self.kernel_s: list[float] = []  # the kernel's seconds
        self.cost_s: list[float] = []  # the whole handler's seconds

    def _sample(self, signum, frame) -> None:
        t0 = _clock()
        enabled = gc.isenabled()
        gc.disable()
        a = _clock()
        kernel()
        b = _clock()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.kernel_s.append(b - a)
        self.cost_s.append(_clock() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _range(self, t0: float, t1: float) -> tuple[int, int]:
        from bisect import bisect_left, bisect_right

        return bisect_left(self.starts, t0), bisect_right(self.starts, t1)

    def wall(self, t0: float, t1: float) -> float:
        """Seconds from ``t0`` to ``t1``, less the probe's time inside them."""
        lo, hi = self._range(t0, t1)
        return t1 - t0 - sum(self.cost_s[lo:hi])

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed over ``[t0, t1]``, with the nearest sample on each side."""
        lo, hi = self._range(t0, t1)
        window = self.kernel_s[max(lo - 1, 0):hi + 1]
        if not window:
            raise RuntimeError("the speed probe took no sample")
        return sum(REF_S / s for s in window) / len(window)

    def corrected(self, t0: float, t1: float) -> float:
        """Seconds from ``t0`` to ``t1`` at reference speed."""
        return self.wall(t0, t1) * self.speed(t0, t1)
