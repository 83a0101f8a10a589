"""The machine's pace: fixed reference computations timed next to the work.

On a shared host the same Python code runs up to 1.7 times slower for
stretches of minutes, longer than a run (see ``README.md``).  The benchmark
therefore times, next to the work, a fixed computation that calls no
``thd`` code and is like the work: ``unit`` or ``memory_unit`` during the
rounds, and ``compile_unit``, a compilation like an import from source,
after the set-ups.  A time divided by the median unit time of the same
stretch and multiplied by the unit's nominal time is the time at a fixed
pace: seconds on a machine where the unit takes its nominal time.  A
change to ``thd`` moves it as it moves the raw time, since the units do
not change.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import signal
import statistics
import time
from fractions import Fraction
from pathlib import Path


def _matrix(nrows, ncols, per_row, state):
    """A fixed sparse 0/±1 matrix with ``per_row`` draws per row, kept for
    the life of the process like the differentials ``thd`` reduces."""
    rows = []
    for _ in range(nrows):
        row = [0] * ncols
        for _ in range(per_row):
            state = (state * 1103515245 + 12345) % 2147483648
            row[state % ncols] = 1 if state & 65536 else -1
        rows.append(row)
    return rows


_ROWS, _COLS = 768, 256
_MATRIX = _matrix(_ROWS, _COLS, 6, 2024)
# About 8 MB of row pointers, built on first use: scanning its columns
# misses the caches as exact_rank does on a large differential.
_BIG_ROWS, _BIG_COLS = 2048, 512
_BIG = []


@functools.lru_cache(maxsize=None)
def _binom(n, k):
    if k == 0 or k == n:
        return 1
    return _binom(n - 1, k - 1) + _binom(n - 1, k)


def _without_collector(work):
    """The collector is off while ``work`` runs, and a unit leaves nothing
    behind, so units do not move the collections, or the peak memory, of
    the work around them."""

    @functools.wraps(work)
    def run():
        collecting = gc.isenabled()
        gc.disable()
        try:
            return work()
        finally:
            _binom.cache_clear()
            if collecting:
                gc.enable()

    return run


@_without_collector
def unit() -> int:
    """One fixed piece of reference work, about 20 ms; returns a checksum.

    It has four parts, after the four kinds of work in ``thd``: a memoised
    recursion on small ints (``hodge``), a dict keyed by tuples (the cochain
    bases), dense elimination over ``Fraction`` with pivot searches down the
    columns of a larger matrix (``linalg``), and arithmetic mod a prime.
    """
    total = sum(_binom(n, k) % 97 for n in range(90) for k in range(n + 1))
    table = {}
    for i in range(60):
        for j in range(60):
            table[(i, j, i ^ j)] = table.get((j, i, i ^ j), 0) + i * j
    total += len(table)
    # pivot search down every column of the matrix, as exact_rank does
    total += sum(next((r for r in range(_ROWS) if _MATRIX[r][col]), _ROWS)
                 for col in range(_COLS))
    rows = [[Fraction(v) for v in _MATRIX[r][:96]] for r in range(0, 64)]
    rank = 0
    for col in range(96):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                factor = rows[r][col] / rows[rank][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    prime, acc = 32003, 1
    for i in range(1, 20000):
        acc = (acc * i + 7) % prime
    return total + rank + acc


@_without_collector
def memory_unit() -> int:
    """``unit`` plus scans down every sixteenth column of an 8 MB matrix,
    about 35 ms: for work whose matrices are far larger than the caches."""
    if not _BIG:
        _BIG.extend(_matrix(_BIG_ROWS, _BIG_COLS, 8, 7))
    total = sum(sum(1 for r in range(_BIG_ROWS) if _BIG[r][col])
                for col in range(0, _BIG_COLS, 16))
    return total + unit()


_SOURCE = Path(__file__).read_text()


def compile_unit() -> int:
    """Compile this file's source, as importing a module from source does."""
    return len(compile(_SOURCE, "pace.py", "exec").co_consts)


# Each kind of unit with about what it takes on a quiet stretch of the
# reference machine (see README.md): constants, so that a paced time is
# still in seconds.
UNITS = {
    "round": (unit, 0.020),
    "memory": (memory_unit, 0.035),
    "compile": (compile_unit, 0.0015),
}


class Pace:
    """Unit times: taken on demand (``sample``) or, inside ``during()``,
    from a timer signal between two bytecodes of whatever runs, one unit
    per ten nominal unit times of wall time, so that units take about a
    tenth of the run.  ``paused`` is the seconds spent on units inside
    ``during()``, which the caller leaves out of its own timing."""

    def __init__(self, kind: str):
        self.work, self.nominal = UNITS[kind]
        self.period = 10 * self.nominal
        self.units = []
        self.paused = 0.0
        self._due = self.period  # wall time inside during() until the next unit
        self.work()  # warm-up, not recorded

    def sample(self, count: int = 1) -> float:
        """Time ``count`` units; returns the seconds spent."""
        begin = time.perf_counter()
        for _ in range(count):
            t0 = time.perf_counter()
            self.work()
            self.units.append(time.perf_counter() - t0)
        return time.perf_counter() - begin

    def _tick(self, signum, frame):
        self.paused += self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.period)

    @contextlib.contextmanager
    def during(self):
        """Units every ``period`` while the body runs; the period carries
        over from one ``during()`` to the next, so that short rounds get
        their share too."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self._due)
        try:
            yield self
        finally:
            self._due = signal.setitimer(signal.ITIMER_REAL, 0)[0] or self.period
            signal.signal(signal.SIGALRM, previous)

    def paced(self, seconds: float) -> float:
        """``seconds`` measured in this stretch, at the nominal pace."""
        if not self.units:
            self.sample()
        return seconds * self.nominal / statistics.median(self.units)
