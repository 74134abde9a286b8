"""The host's pace, sampled on the core a repetition runs on, and times
rescaled by it.

The shared host this benchmark was written on (a 2-core Xeon VM) changes
the speed of each vCPU by up to half, from one tenth of a second to the
next, and its two vCPUs do not slow together: one repetition of a workload
can take 5 s or 10 s with the same CPU time.  So a clock alone measures
the host as much as the program.

`Pacer` samples the pace of the core a repetition runs on while it runs:
a timer signal interrupts the repetition every ``INTERVAL_S`` and times
``probe``, a fixed exact elimination written with the stdlib alone, so no
change to symred can make it faster or slower.  Each stretch of program
time between two probes is multiplied by ``REF_PROBE_S`` over the mean
time of those two probes: that gives the stretch's length at a fixed
reference pace.  Their sum is the interval's *reference time*.  A program
change moves it as it moves wall time; a host that slows the probe and the
program alike leaves it where it was.  An elimination over ``Fraction``
tracks the program's slowdowns more closely than integer arithmetic does,
and pacing each stretch by its own two probes more closely than by a wider
median of probes.
"""

import importlib.util
import signal
import statistics
import time

# A private copy of the stdlib ``fractions`` module: the probe does the
# program's kind of work (Fraction arithmetic in Python), but a traced run,
# which wraps ``fractions.Fraction.__new__``, does not count its objects.
_spec = importlib.util.find_spec("fractions")
_fractions = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_fractions)
Fraction = _fractions.Fraction

INTERVAL_S = 0.025
# The probe's time at the reference pace: a round figure near its median
# time on the 2-core Xeon VM above, so reference times read about as wall
# times there.
REF_PROBE_S = 700e-6
ROWS, COLS = 4, 6
MATRIX = [[Fraction((3 * i + 5 * j) % 7 - 3, (i + 2 * j) % 4 + 1) for j in range(COLS)] for i in range(ROWS)]
PROBE_SUM = Fraction(14, 41)


def probe() -> Fraction:
    """Gauss-Jordan elimination of a fixed 4x6 rational matrix; returns the
    sum of the entries of its reduced row echelon form."""
    m = [row[:] for row in MATRIX]
    r = 0
    for c in range(COLS):
        p = next((i for i in range(r, ROWS) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(ROWS):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return sum((x for row in m for x in row), Fraction(0))


def timed_probe() -> float:
    """The time of one probe, after checking its answer."""
    t0 = time.perf_counter()
    if probe() != PROBE_SUM:
        raise ValueError("the pace probe computed a wrong sum")
    return time.perf_counter() - t0


def current_pace_s(count: int = 5) -> float:
    """Median time of `count` probes in a row, after one that warms them up."""
    timed_probe()
    return statistics.median(timed_probe() for _ in range(count))


class Pacer:
    """Probes the pace every INTERVAL_S between `start` and `stop`."""

    def __init__(self):
        self.start_t = 0.0
        self.stop_t = 0.0
        self.probes: list[tuple[float, float]] = []  # (start, duration)
        self._previous = None

    def _probe(self, *_):
        t0 = time.perf_counter()
        self.probes.append((t0, timed_probe()))

    def start(self):
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self.start_t = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.stop_t = time.perf_counter()
        self._probe()

    def median_probe_s(self) -> float:
        return statistics.median(d for _, d in self.probes)

    def wall_s(self) -> float:
        """Wall time from `start` to `stop`, probes included."""
        return self.stop_t - self.start_t

    def reference_s(self) -> float:
        """Program time from `start` to `stop` at the reference pace."""
        # program stretches: start -> first timer probe -> ... -> stop; the
        # probes that ran just before start and just after stop pace the ends
        inner = self.probes[1:-1]
        edges = [self.start_t] + [t + d for t, d in inner]
        ends = [t for t, _ in inner] + [self.stop_t]
        durations = [d for _, d in self.probes]
        return sum((b - a) * 2 * REF_PROBE_S / (durations[k] + durations[k + 1])
                   for k, (a, b) in enumerate(zip(edges, ends)))
