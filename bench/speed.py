"""Wall-clock timing that cancels the machine's changing speed.

On a shared machine the same Python code runs up to 1.7x slower while other
tenants load the cores, and that state changes within a second.  Raw wall
times of one pass therefore spread by 15-25 % between runs, which hides any
change to the program smaller than that.

`SpeedClock` times program calls and, every `TICK_S` seconds of wall time, a
``SIGALRM`` handler runs a fixed pure-Python calibration loop, even in the
middle of a program call.  The wall time spent in program calls between two
ticks is scaled by ``REF_S / (mean of the two calibration times)``, which is
that time at the speed at which the calibration loop takes ``REF_S`` seconds;
time spent in the handler is not counted.  The loop does the kinds of work
the program does (method calls, small-int arithmetic, tuple keys, dicts,
frozensets, sorting), so contention slows it and the program alike.

The scaled time is reported as the end-to-end time metric; the raw wall time
is kept beside it (``raw``).
"""

from __future__ import annotations

import signal
import time

# Duration of one calibration loop on the reference machine state: the
# fastest state seen on a 2-core Xeon at 2.0 GHz with Python 3.11.  Only
# ratios of scaled times matter; the constant keeps the figures near seconds.
REF_S = 0.0025
TICK_S = 0.025
_LOOP_ITERATIONS = 2500


class _Residues:
    __slots__ = ("p",)

    def __init__(self, p: int):
        self.p = p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p


def calibration_loop() -> float:
    """Run the fixed calibration workload once; return its wall time."""
    start = time.perf_counter()
    ring = _Residues(10007)
    acc = 1
    table: dict = {}
    seen = frozenset()
    for i in range(_LOOP_ITERATIONS):
        acc = ring.add(acc, ring.mul(i, acc | 1))
        key = ((i & 15, 1), (i % 7, 2))
        table[key] = table.get(key, 0) ^ acc
        if i & 7 == 0:
            seen = seen ^ frozenset(((acc & 31, i & 3),))
            tuple(sorted(dict(key).items()))
    if not table or acc < 0 or seen is None:  # keeps every result live
        raise AssertionError("unreachable")
    return time.perf_counter() - start


class SpeedClock:
    """Accumulates raw and speed-scaled wall time of the calls it makes.

    Use as a context manager: it owns the process's ``SIGALRM`` timer while
    open.  Calls must not be nested.  The handler runs between bytecodes of
    the main thread, so a tick that lands while the clock updates its own
    state is deferred to the end of that update (``_busy``).
    """

    def __init__(self, tick_s: float = TICK_S):
        self.tick_s = tick_s
        self.raw = 0.0
        self.scaled = 0.0
        self._pending = 0.0  # in-call wall time since the last calibration
        self._call_start = None  # start of the open call's current segment
        self._last = 0.0
        self._busy = False
        self._deferred = False
        self._previous_handler = None
        self.calibrating_s = 0.0  # wall time spent in calibration so far

    def __enter__(self) -> "SpeedClock":
        for _ in range(3):  # the first loops of a fresh interpreter run cold
            calibration_loop()
        self._last = calibration_loop()
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _tick(self, signum, frame) -> None:
        if self._busy:
            self._deferred = True
        else:
            self._calibrate()

    def _calibrate(self) -> None:
        """Close the current interval: scale its in-call time by the speed."""
        self._busy = True
        entered = time.perf_counter()
        if self._call_start is not None:
            self._pending += entered - self._call_start
        now = calibration_loop()
        if self._pending:
            self.scaled += self._pending * REF_S / ((self._last + now) / 2)
            self.raw += self._pending
            self._pending = 0.0
        self._last = now
        left = time.perf_counter()
        self.calibrating_s += left - entered
        if self._call_start is not None:
            self._call_start = left
        self._release()

    def now(self) -> float:
        """perf_counter() without the time spent in calibration."""
        return time.perf_counter() - self.calibrating_s

    def _release(self) -> None:
        self._busy = False
        if self._deferred:
            self._deferred = False
            self._calibrate()

    def call(self, fn, *args, **kwargs):
        """Call ``fn``, timing it."""
        self._busy = True
        self._call_start = time.perf_counter()
        self._release()
        try:
            return fn(*args, **kwargs)
        finally:
            self._busy = True
            self._pending += time.perf_counter() - self._call_start
            self._call_start = None
            self._release()

    def take(self) -> tuple[float, float]:
        """Close the last interval, return (scaled, raw) and restart at zero."""
        self._calibrate()
        self._busy = True
        out = (self.scaled, self.raw)
        self.scaled = self.raw = 0.0
        self._release()
        return out
