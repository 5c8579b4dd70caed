"""Host speed, gauged beside the program so that timings share one scale.

The benchmark's host is shared, and its speed switches between states for
seconds to minutes at a time: interpreter-bound code runs up to twice as
slow while a neighbour is busy, numpy-bound code about 1.3 times as slow
(``README.md``, "Noise on this machine").  Within one run, and from run to
run, the mix of states decides most of a raw timing.

So a run times two fixed kernels, which are not part of the program, every
``EVERY_NS`` while it measures:

- ``loops``: plain-Python sliding minima over a list of dict records, the
  kind of work of the monitor's plain-loop rows and of parsing a trace;
- ``arrays``: numpy running minima over a sliding-window view, the kind of
  work of the monitor's vector until kernel.

A timed section of the program is scaled by ``REF_NS[kind] / t``, where
``t`` is the median of the three readings of that kernel nearest to the
section and ``REF_NS`` is the kernel's time on the reference host in its
fast state.  The scaled time is what the section would have taken on that
host in that state, as far as the section slows down as much as the kernel
does.  Measured over 40 to 60 s per workload, in 250-ms blocks, with
larger versions of the same kernels read without a warm run: the ``loops``
kernel slowed as much as the steps of past-settle, mixed-hold and wide-log
(log-log slope 0.92-1.05), the ``arrays`` kernel as much as the steps of
template-E (0.99), and scaling cut the spread of block medians by a factor
of 2.3-3.9.  A change that moves a workload's work from one kind
to the other makes its scaled times in the slow state too low or too high;
its times in the fast state stay right.
"""

from __future__ import annotations

import random
from array import array
from time import perf_counter_ns as clock

import numpy as np

EVERY_NS = 40_000_000  # gauge interval while the program runs

_records = [{"x": x, "k": k} for k, x in enumerate(random.Random(1).random() for _ in range(200))]
_series = np.random.default_rng(1).normal(size=450)


def _loops() -> None:
    out = []
    for i in range(len(_records)):
        out.append(min(r["x"] for r in _records[max(0, i - 4) : i + 1]))


def _arrays() -> None:
    view = np.lib.stride_tricks.sliding_window_view(_series, 150)
    for r0 in range(0, 300, 100):
        np.max(np.minimum.accumulate(view[r0 : r0 + 100], axis=1), axis=1)


KERNELS = {"loops": _loops, "arrays": _arrays}

# Fast-state kernel times on the reference host (README, "Reference
# figures"): about the 5th percentile of 109,000 readings of each kernel
# over 90 s, which put ``loops`` at 197-202 us in its fast state and 373 us
# at its median, ``arrays`` at 332-344 us and 432 us.
REF_NS = {"loops": 200_000, "arrays": 340_000}


class Gauge:
    """Readings of every kernel: when each was taken and how long it took."""

    def __init__(self) -> None:
        self.at = {kind: array("q") for kind in KERNELS}
        self.took = {kind: array("q") for kind in KERNELS}
        self.next_ns = 0

    def read(self) -> int:
        """Time each kernel once, right after a run of it that is not timed,
        so that the reading does not depend on what the program left in the
        caches; return the nanoseconds this took."""
        begin = clock()
        for kind, kernel in KERNELS.items():
            kernel()
            start = clock()
            kernel()
            self.at[kind].append(start)
            self.took[kind].append(clock() - start)
        end = clock()
        self.next_ns = end + EVERY_NS
        return end - begin

    def scale(self, kind: str, times) -> np.ndarray:
        """REF_NS[kind] over the median of the three `kind` readings
        around each of `times` (perf_counter_ns)."""
        at = np.frombuffer(self.at[kind], dtype=np.int64)
        took = np.frombuffer(self.took[kind], dtype=np.int64).astype(float)
        smooth = np.median(np.lib.stride_tricks.sliding_window_view(np.r_[took[0], took, took[-1]], 3), axis=1)
        times = np.asarray(times, dtype=np.int64)
        j = np.clip(np.searchsorted(at, times), 1, len(at) - 1)
        j -= (times - at[j - 1]) < (at[j] - times)  # the nearer of the two readings
        return REF_NS[kind] / smooth[j]

    def readings(self, kind: str) -> np.ndarray:
        return np.frombuffer(self.took[kind], dtype=np.int64)
