"""Host-speed sampling, to state times at a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds to minutes, with process CPU time equal to
wall time: code runs slower, it does not wait. A wall time then says as
much about the neighbours as about lelab. ``Speedometer`` times small
calibration probes every ``INTERVAL`` seconds of wall time, from a SIGALRM
handler, while the benchmark runs. ``normalized`` turns a wall time into
the time the same work takes on a host where the probes take their
reference times ``REF_S``:

    normalized = (wall - handler time) * mean over samples of
                 sum(REF_S[probe]) / sum(probe time)

that is, the work done, integrated over the samples taken meanwhile.

The host does not slow all code alike: the time of one fixed piece of code
over that of another changed by up to a factor of 1.9 from one quarter
second to the next. So each workload is calibrated with the probes that
do the kind of work it does (``workloads.CALIBRATION``), and only those
run while it goes on. Each probe runs twice per sample and only the second
run is timed, so that the caches the interrupted program left do not
count as host speed. No probe calls lelab, so a change to lelab moves the
normalized times exactly as it moves the work.
"""

from __future__ import annotations

import signal
import time
from statistics import mean

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

INTERVAL = 0.01   # seconds of wall time between samples

_ARR = np.linspace(0.0, 1.0, 64)
_BAND = cholesky_banded(np.array([np.r_[0.0, -np.ones(2047)],
                                  np.full(2048, 2.5)]))
_RHS = np.ones(2048)


def _interp() -> None:
    """Interpreted float arithmetic and dict updates."""
    s, d = 0.0, {}
    for i in range(120):
        s += (i * 1.5) % 7.0
        d[i & 31] = s


def _ufunc() -> None:
    """Small numpy ufunc calls: dispatch and allocation."""
    x = _ARR
    for _ in range(6):
        x = np.sin(x) * 0.5 + _ARR


def _text() -> None:
    """Float-to-text formatting, as in CSV emission."""
    ",".join("%.17g" % (i * 0.1) for i in range(30))


def _banded() -> None:
    """A banded Cholesky solve and a dot product on a 2048-node grid."""
    y = cho_solve_banded((_BAND, False), _RHS)
    float(np.dot(y, _RHS))


PROBES = {"interp": _interp, "ufunc": _ufunc, "text": _text,
          "banded": _banded}

# probe times on the reference host (2-core KVM guest, Intel Xeon Sapphire
# Rapids, Python 3.11.7, numpy 2.4.6, scipy 1.17.1), medians over a minute
REF_S = {"interp": 20e-6, "ufunc": 20e-6, "text": 15e-6, "banded": 70e-6}


class Speedometer:
    """Samples the host's speed while it runs; see the module docstring.

    Sampling runs between ``start()`` and ``stop()``. ``mark(probes)``
    selects the probes that calibrate what follows and returns a position;
    ``normalized(mark)`` is the wall time since that position, less handler
    time, at the reference speed.
    """

    def __init__(self):
        self.probes: tuple[str, ...] = ()
        self.speeds: list[float] = []
        self.busy = 0.0
        self._old = None
        self._running = False
        self._in_tick = False

    def _tick(self, signum=None, frame=None) -> None:
        if self._in_tick:  # a signal that came while sampling
            return
        self._in_tick = True
        t0 = time.perf_counter()
        spent = 0.0
        for name in self.probes:
            PROBES[name]()
            t1 = time.perf_counter()
            PROBES[name]()
            spent += time.perf_counter() - t1
        self.speeds.append(sum(REF_S[n] for n in self.probes) / spent)
        self.busy += time.perf_counter() - t0
        self._in_tick = False

    def start(self) -> None:
        self._running = True
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        """Stop sampling; a second call does nothing."""
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._old)
            self._running = False

    def mark(self, probes: tuple[str, ...]) -> tuple[float, float, int]:
        self.probes = probes
        return time.perf_counter(), self.busy, len(self.speeds)

    def normalized(self, mark: tuple[float, float, int]) -> float:
        t0, busy0, n0 = mark
        wall = time.perf_counter() - t0 - (self.busy - busy0)
        if len(self.speeds) == n0:  # too short to hold a sample: take one
            self._tick()
        return wall * mean(self.speeds[n0:])

    def mean_speed(self) -> float:
        return mean(self.speeds) if self.speeds else float("nan")
