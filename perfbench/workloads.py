"""The four benchmark workloads: specification, predicates, predictor and a
seeded generator for the input trace.

Every signal is stationary: bounded, mean-reverting AR(1) noise plus
out-of-band excursions from a renewal process, so step cost and the share
of negative verdicts do not depend on how long a run goes on.  Values are
rounded to a few decimals, as a recorded log would be; ``repr`` of a
rounded value reads back to the same double, so ``load_trace`` sees
exactly the generated arrays and the reference evaluators can work on
those arrays directly.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference

DT = 0.01  # sampling period written to the time column, in seconds

Columns = dict[str, np.ndarray]


def ar1(rng: np.random.Generator, n: int, phi: float, sigma: float, width: int = 1) -> np.ndarray:
    """Zero-mean AR(1) noise of shape (n, width), started in its stationary law."""
    shocks = rng.normal(0.0, sigma, size=(n, width))
    out = np.empty((n, width))
    out[0] = shocks[0] / np.sqrt(1.0 - phi * phi)
    for k in range(1, n):
        out[k] = phi * out[k - 1] + shocks[k]
    return out


def pulses(
    rng: np.random.Generator,
    n: int,
    gap: tuple[int, int],
    length: tuple[int, int],
    height: tuple[float, float],
    signed: bool = False,
) -> np.ndarray:
    """Excursion train: gaps and pulses of uniformly drawn lengths alternate,
    each pulse at a uniformly drawn height (of random sign if `signed`)."""
    out = np.zeros(n)
    k = int(rng.integers(0, gap[1] + 1))
    while k < n:
        span = int(rng.integers(length[0], length[1] + 1))
        level = rng.uniform(*height)
        if signed and rng.random() < 0.5:
            level = -level
        out[k : k + span] = level
        k += span + int(rng.integers(gap[0], gap[1] + 1))
    return out


def _past_settle(rng: np.random.Generator, n: int) -> Columns:
    lam = 1.0 + ar1(rng, n, 0.95, 0.008)[:, 0] + pulses(rng, n, (600, 1400), (40, 160), (0.15, 0.25), signed=True)
    idle = pulses(rng, n, (60, 240), (5, 30), (1.0, 1.0))
    busy = np.clip(0.5 + ar1(rng, n, 0.9, 0.05)[:, 0], 0.1, 1.0)
    throttle = np.where(idle > 0, 0.02, busy)
    return {"lambda": np.round(lam, 4), "throttle": np.round(throttle, 3)}


def _mixed_hold(rng: np.random.Generator, n: int) -> Columns:
    u = ar1(rng, n, 0.9, 0.3)[:, 0]
    v = 1.0 + ar1(rng, n, 0.9, 0.2)[:, 0] - pulses(rng, n, (100, 300), (10, 40), (1.0, 2.0))
    w = ar1(rng, n, 0.8, 0.5)[:, 0]
    z = 1.0 + ar1(rng, n, 0.9, 0.2)[:, 0] - pulses(rng, n, (60, 200), (5, 25), (1.0, 2.0))
    return {name: np.round(x, 3) for name, x in zip("uvwz", (u, v, w, z))}


def _template_e(rng: np.random.Generator, n: int) -> Columns:
    p0 = ar1(rng, n, 0.99, 0.35)[:, 0]
    p1 = ar1(rng, n, 0.95, 0.3)[:, 0] + pulses(rng, n, (200, 500), (550, 800), (8.5, 9.5))
    return {"p0": np.round(p0, 3), "p1": np.round(p1, 3)}


WIDE_VARIABLES = 64


def _wide_log(rng: np.random.Generator, n: int) -> Columns:
    noise = ar1(rng, n, 0.95, 0.3, WIDE_VARIABLES)
    return {
        f"v{c:02d}": np.round(noise[:, c] + pulses(rng, n, (150, 450), (5, 40), (2.0, 3.5), signed=True), 6)
        for c in range(WIDE_VARIABLES)
    }


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int                # samples in the generated trace
    formula: str             # specification text, bounds in samples
    predicates: str          # predicate file text
    predictor: str           # mtlmon monitor --predictor value
    steps_like: str          # hostspeed kernel whose work the steps resemble
    generate: Callable[[np.random.Generator, int], Columns]
    reference: Callable[[Columns], np.ndarray]  # the expected verdict of every emitted step

    def rng(self, seed: int) -> np.random.Generator:
        return np.random.default_rng([zlib.crc32(self.name.encode()), seed])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "past-settle",
            rows=4000,
            formula=reference.PAST_SETTLE,
            predicates="lam_ok : 0.9 <= lambda <= 1.1\nidle : throttle <= 0.05\n",
            predictor="none",
            steps_like="loops",
            generate=_past_settle,
            reference=reference.past_settle,
        ),
        Workload(
            "mixed-hold",
            rows=1050,
            formula=reference.MIXED_HOLD,
            predicates="a : u >= 0.0\nb : v >= 0.5\nc : w <= 1.0\nd : z >= 0.5\n",
            predictor="hold",
            steps_like="loops",
            generate=_mixed_hold,
            reference=reference.mixed_hold,
        ),
        Workload(
            "template-E",
            rows=2500,
            formula=reference.TEMPLATE_E,
            predicates="p0 : -5.0 <= p0 <= 5.0\np1 : -5.0 <= p1 <= 5.0\n",
            predictor="perfect",
            steps_like="arrays",
            generate=_template_e,
            reference=reference.template_e,
        ),
        Workload(
            "wide-log",
            rows=20000,
            formula=reference.WIDE_LOG,
            predicates="a_ok : -2.0 <= v03 <= 2.0\nb_ok : v17 <= 1.5\nc_ok : v29 >= -1.0\n",
            predictor="none",
            steps_like="loops",
            generate=_wide_log,
            reference=reference.wide_log,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Generated input files of one workload, plus the columns behind them."""

    formula: Path
    predicates: Path
    trace: Path
    columns: Columns


def write_inputs(workload: Workload, seed: int, directory: Path, rows: int | None = None) -> Inputs:
    """Generate the workload's trace from `seed` and write the three input
    files `mtlmon monitor` reads."""
    rows = workload.rows if rows is None else rows
    columns = workload.generate(workload.rng(seed), rows)
    directory.mkdir(parents=True, exist_ok=True)
    stem = directory / workload.name
    inputs = Inputs(
        Path(f"{stem}.mtl"), Path(f"{stem}.preds"), Path(f"{stem}.trace.csv"), columns
    )
    inputs.formula.write_text(workload.formula + "\n", encoding="utf-8")
    inputs.predicates.write_text(workload.predicates, encoding="utf-8")
    names = list(columns)
    table = np.column_stack([columns[name] for name in names])
    with open(inputs.trace, "w", encoding="utf-8") as fh:
        fh.write(",".join(["time", *names]) + "\n")
        for first in range(0, rows, 1000):  # in blocks, so the text never sits in memory whole
            for k, row in enumerate(table[first : first + 1000].tolist(), start=first):
                fh.write(f"{k * DT:.2f}," + ",".join(map(repr, row)) + "\n")
    return inputs
