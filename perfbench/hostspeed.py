"""Host speed, sampled while a measurement runs.

The benchmark's host shares its cores with other machines, and the same
pipeline runs up to 1.8 times slower or faster from minute to minute.
``Sampler`` times a fixed reference loop every ``interval_s`` of wall
time, from a SIGALRM handler in the main thread, while the measured code
runs.  A time taken under the sampler is then reported in nominal
seconds: the measured time, minus the time spent in the samples, times
the loop's nominal time over the trimmed mean of its sampled times.  On a
host where the loop takes its nominal time a nominal second is a second.

Pipelines are sampled with ``ode_loop``, a small scipy DOP853 integration,
the kind of code they spend their time in: on this host its time follows
the pipelines' slowdowns more closely than a pure-Python loop or a
memory-bound loop does.  Set-up, which imports scipy, is sampled with
``python_loop``, which needs only the standard library.  Both loops are
part of the benchmark, not of the package, so a change to the package
moves the measured time and not the loops.
"""

import math
import signal
import statistics
import time

ODE_NOMINAL_S = 1e-3      # one ode_loop on the nominal host
PYTHON_NOMINAL_S = 5e-4   # one python_loop on the nominal host
INTERVAL_S = 0.05         # one sample per this much wall time, ~2%
MIN_SAMPLES = 20          # topped up after the measurement if fewer
TRIM = 0.1                # share of samples cut at each end of the mean


def _rhs(t, y):
    return [y[1], -y[0] * (1.0 + 0.5 * math.sin(3.0 * t)) - 0.1 * y[0] ** 3]


def ode_loop():
    # imported here, not at the top, so that a set-up probe can load this
    # module before it starts timing the scipy import
    from scipy.integrate import solve_ivp
    return solve_ivp(_rhs, (0.0, 0.5), [1.0, 0.0], method="DOP853",
                     rtol=1e-10, atol=1e-12).y[0, -1]


def python_loop():
    acc = 0.0
    for i in range(3000):
        acc += math.sin(i * 1e-3) * i
    return acc


def time_loop(loop=ode_loop):
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


def trimmed_mean(values, trim=TRIM):
    values = sorted(values)
    cut = int(len(values) * trim)
    return statistics.fmean(values[cut:len(values) - cut])


class Sampler:
    """Context manager: samples the reference while it is active.

    ``samples`` holds the reference times (taken inside the window, or
    right after it when the window was too short for ``MIN_SAMPLES``),
    ``spent_s``/``spent_cpu_s`` the wall and CPU time the samples took
    from the window; ``nominal(raw_s)`` converts a time measured over it.
    """

    def __init__(self, loop=ode_loop, nominal_s=ODE_NOMINAL_S,
                 interval_s=INTERVAL_S):
        self.loop = loop
        self.nominal_s = nominal_s
        self.interval_s = interval_s
        self.samples = []
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        t0, c0 = time.perf_counter(), time.process_time()
        self.samples.append(time_loop(self.loop))
        self.spent_s += time.perf_counter() - t0
        self.spent_cpu_s += time.process_time() - c0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                         self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(time_loop(self.loop))
        return False

    def factor(self):
        """Nominal seconds per measured second over the window."""
        return self.nominal_s / trimmed_mean(self.samples)

    def nominal(self, raw_s, spent_s=None):
        """``raw_s`` measured over the window, without the samples' own
        time (``spent_s``, the wall time by default), in nominal
        seconds."""
        spent = self.spent_s if spent_s is None else spent_s
        return max(raw_s - spent, 0.0) * self.factor()
