"""Bounded-memory streaming robustness monitor.

The monitor keeps one row per compiled subformula over a fixed window of
column offsets j in [-history, horizon], where column 0 is the current
step, negative columns are the stored past, and positive columns hold the
supplied predictions.  One more column, -history-1, sits left of the
window, and pad columns sit right of it: as many as the largest until
upper bound in the formula, which is at most its horizon.  An unbounded
since keeps the running value of its recurrence (the paper's Pre) in the
table: each step it restarts from the cell left of the first column it
recomputes, which the shift has filled with a final value, in that extra
column when the row starts at -history.  For why the history side is
widened by the horizon, see Formula.history.

The table is updated incrementally.  A cell of row k at column j depends
on samples up to absolute time i+j+horizon(k), where horizon(k) is the
subformula's own future reach.  Left of column -horizon(k) that is at
most i-1, so the cell read only actual samples and equals the previous
step's column j+1: shifting carries it over unchanged.  Every cell that
read a predicted sample lies at j >= -horizon(k) and is recomputed, so
predicted values never survive into the past.

Each step:

1. check that the sample and the predictions give every variable the
   formula reads a finite real value (semantics.sample_value's rule and
   errors, which the oracle shares); nothing changes before this passes,
   so a rejected step leaves the monitor exactly as it was,
2. shift the whole table one column to the left, dropping the oldest
   column,
3. recompute the columns [-horizon(k), horizon] of every row k bottom-up
   (operands live at larger indices) and left to right: only an
   unbounded since reads its own row, the column left of the one it
   writes,
4. return the root row at column 0.

Every row is written each step.  A [0,0] window compiles to its trigger
(see formula.py), so no node needs more history than the root, and every
row maintains the columns -horizon(k) to horizon that step 3 recomputes.

The table starts at -inf, and two kinds of cell are never written.
Cells whose absolute time i+j is negative: the update starts at column
-i or later, and the shift keeps every cell at its absolute time, so it
only moves such cells into columns that are before the stream too.  And
the pad: every write stops at the horizon column, and the shift does not
reach past column 0.  Every read before the stream start or past the
horizon therefore yields -inf, which is already the right value at both
ends.  A trigger read there makes its disjunct vanish (that window
position does not exist, or lies beyond the predictions), a left-operand
read there only feeds disjuncts whose trigger lies there as well, so
they are -inf anyway, and an unbounded since's running value is -inf,
its own seed (a maximum over nothing).  This makes warm-up steps agree
exactly with evaluation on the finite prefix, and lets until and since
rows pass plain table slices to one windowed kernel.

A row is filled either through numpy over whole slices or one cell at a
time by cr(), the paper's per-cell recurrence.  An atom, not, or or true
row takes numpy exactly when a steady step recomputes more than one of
its cells, which is when the formula has a horizon: one numpy call costs
more than one cr() cell, but less than the 11 or more cells such a row
recomputes in the future-looking benchmark workloads.  An until or
bounded since row takes numpy when the table width (history + 1 +
horizon columns, not the row's recomputed cells) times its window
(up - lo + 1 offsets) is at least _VECTOR_CELLS.  So a past-only row
that recomputes one cell a step still takes numpy when the formula's
history is long, as the since[0,100] and since[0,200] rows of the
past-settle benchmark and the rows of the case study's pt variant
(criterion 5) do.  An until or since row reads the same window slices
on both paths (Monitor._window: forward for until, mirrored in time for
since), and the two produce bit-identical results (min/max select, they
never round).  An unbounded since always takes cr(): its running value
is the cell it wrote one column to the left.
Row k costs (horizon(k) + horizon + 1) cells per step, each linear in
the row's window: quadratic in the window for future rows (template E's
root spans [-H, H]), linear for past-only specifications, whose rows
recompute one cell each.  The until/since kernel (_max_min_window)
builds the running minima of a block of cells, one row per window
offset, takes the disjuncts' minima in place and reduces each column;
the w = 0 disjunct of a [0, b] window needs no running minimum and is
folded into the results afterwards.  A steady template-E step at H = 500
computes 500 rows of 1001 doubles, each one elementwise minimum of the
row above and a shifted operand slice, but holds only 32 of them at a
time: each chunk of rows is reduced into the results while it is still
in cache, and the next chunk continues from its last row.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Mapping, Sequence

import numpy as np

from .formula import ATOM, NOT, OR, SINCE, TRUE, UNTIL, Formula
from .semantics import (
    NEG_INF,
    POS_INF,
    Predicate,
    PredicateError,
    Rho,
    StateSample,
    sample_value,
)

_BLOCK = 1 << 20      # elements per running-minimum block: caps its memory at 8 MB
_CHUNK = 1 << 15      # elements per chunk of a wide block's running minima: 256 KB
_VECTOR_CELLS = 4096  # windowed rows go through numpy when table width x window reaches this


@dataclass(slots=True)
class _Row:
    """How one table row is filled.  The window is [lo, up] with up an int;
    an unbounded since stores [lo, lo], the one disjunct that its running
    value (the row's own cell one column to the left) does not cover;
    every until and bounded since has up >= 1.  vector rows are filled by
    numpy over whole slices, all others cell by cell through Monitor.cr();
    the module docstring says which rows are which."""

    kind: str
    left: int
    right: int
    lo: int
    up: int
    horizon: int
    start: int  # leftmost column the row maintains
    pred: Predicate | None
    unbounded: bool
    vector: bool


class Monitor:
    """Streaming evaluator for one compiled formula over one sample stream.

    Storage is fixed at construction: a node-count by
    (history+2+horizon+pad) table, the window plus the column left of it
    and the -inf pad right of it, pad being the largest until upper bound
    (0 without until); it never grows with the stream.  Column j of row k
    is table[k, j + history + 1].  A table larger than physical memory is
    refused with MemoryError before anything is allocated.
    step() is single-writer: do not call it concurrently on the same
    instance.  Independent monitors are fully isolated.
    """

    def __init__(self, formula: Formula, predicates: Mapping[str, Predicate]):
        missing = sorted(formula.atom_names - set(predicates))
        if missing:
            raise PredicateError("unbound atoms: " + ", ".join(missing))
        self.formula = formula
        self.horizon = formula.horizon
        self.history = formula.history
        self.width = self.history + 1 + self.horizon
        pad = max((int(n.interval.upper) for n in formula.nodes if n.kind == UNTIL), default=0)
        shape = (len(formula.nodes), self.width + 1 + pad)
        size = 8 * shape[0] * shape[1]  # float64; np.full touches every page
        ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if size > ram:
            raise MemoryError(
                f"monitor table {shape[0]} x {shape[1]} needs {size} bytes, "
                f"more than the {ram} bytes of physical memory"
            )
        self.table = np.full(shape, NEG_INF)
        self.i = 0
        self._values: dict[str, list[float]] = {}
        self._rows = [self._plan(node, predicates) for node in formula.nodes]
        self._variables = sorted({r.pred.variable for r in self._rows if r.kind == ATOM})

    def _plan(self, node, predicates) -> _Row:
        lo = node.interval.lower if node.interval is not None else 0
        up = node.interval.upper if node.interval is not None else 0
        unbounded = node.kind == SINCE and up == math.inf
        if unbounded:
            up, vector = lo, False  # the recurrence is inherently sequential
        elif node.kind in (UNTIL, SINCE):
            vector = self.width * (up - lo + 1) >= _VECTOR_CELLS
        else:
            vector = node.horizon + self.horizon > 0  # a steady step recomputes more than one cell
        pred = predicates[node.name] if node.kind == ATOM else None
        start = node.history - self.history
        return _Row(node.kind, node.left, node.right, lo, int(up), node.horizon, start, pred, unbounded, vector)

    def step(self, sample: StateSample, predictions: Sequence[StateSample] = ()) -> Rho:
        """Consume the current sample plus horizon predicted samples and
        return the robustness of the specification at this step."""
        predictions = list(predictions)
        if len(predictions) != self.horizon:
            raise ValueError(
                f"prediction length mismatch: formula horizon is {self.horizon}, "
                f"got {len(predictions)} samples"
            )
        values = self._checked_values([sample, *predictions])
        # nothing above changes the monitor, so a rejected step leaves it as it was
        self.i += 1
        self._values = values
        T = self.table
        off = self.history + 1
        T[:, :off] = T[:, 1 : off + 1]
        for k in range(len(self._rows) - 1, -1, -1):
            self._fill_row(k)
        return float(T[0, off])

    def cell(self, k: int, j: int) -> Rho | None:
        """Stored value of subformula k at column j, or None before the
        first step, where the column precedes the stream or history the
        row does not maintain.  Raises IndexError for a k outside the
        formula's nodes or a j outside the window."""
        row = self._row(k)
        if not -self.history <= j <= self.horizon:
            raise IndexError(f"column {j} outside [-{self.history}, {self.horizon}]")
        if j < row.start or self.i == 0 or self.i - 1 + j < 0:
            return None
        return float(self.table[k, j + self.history + 1])

    def _row(self, k: int) -> _Row:
        if not 0 <= k < len(self._rows):
            raise IndexError(f"subformula {k} outside the formula's {len(self._rows)} nodes")
        return self._rows[k]

    # ------------------------------------------------------------------
    # Row updates

    def _fill_row(self, k: int) -> None:
        row = self._rows[k]
        # columns left of -row.horizon read only actual samples, so the
        # shift has already put their final values there
        jlo = max(row.start, 1 - self.i, -row.horizon)
        T = self.table
        off = self.history + 1
        if not row.vector:
            for j in range(jlo, self.horizon + 1):
                T[k, j + off] = self.cr(k, j)
            return
        a, e = jlo + off, self.horizon + off + 1  # the pad right of the horizon is never written
        if row.kind == ATOM:
            xs = np.array(self._values[row.pred.variable], dtype=float)
            with np.errstate(over="ignore"):  # overflow to +-inf, silently as in cr()
                d = np.minimum(xs - row.pred.lo, row.pred.hi - xs, out=T[k, a:e])
                if row.pred.gain != 1.0:
                    d *= row.pred.gain
        elif row.kind == TRUE:
            T[k, a:e] = POS_INF
        elif row.kind == NOT:
            np.negative(T[row.left, a:e], out=T[k, a:e])
        elif row.kind == OR:
            np.maximum(T[row.left, a:e], T[row.right, a:e], out=T[k, a:e])
        else:
            em, en, out = self._window(k, a, e)
            out[:] = _max_min_window(em, en, row.lo, row.up, e - a)

    def _window(self, k: int, a: int, e: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Left-operand, trigger and output slices of until or since row k
        over table indices [a, e), as _max_min_window takes them: forward
        for until; for since the same window mirrored in time, so that
        out[0] is index e - 1 and the window reaches back from it."""
        row = self._rows[k]
        T, m, n, lo, up = self.table, row.left, row.right, row.lo, row.up
        if row.kind == UNTIL:
            return T[m, a : e + up - 1], T[n, a + lo : e + up], T[k, a:e]
        return T[m, a - up + 1 : e][::-1], T[n, a - up : e - lo][::-1], T[k, a:e][::-1]

    def cr(self, k: int, j: int) -> Rho:
        """Value of row k at column j, recomputed from the operand rows.

        One cell of the table update: the update fills every row that is
        not on numpy through it, and it is exposed so single cells can be
        inspected and tested.  Raises IndexError for a k outside the
        formula's nodes, and unless row.start <= j <= horizon, the columns
        the row maintains.  Only meaningful where the update has run
        (operand rows filled, absolute time i+j nonnegative); reads before
        the stream start or past the horizon see the table's -inf.  An until or since cell is _max_min_window's
        formula for one cell, over the same slices; an unbounded since
        maxes its [lo, lo] disjunct with its running value, the minimum of
        its own cell one column to the left and the left operand here.
        """
        row = self._row(k)
        if not row.start <= j <= self.horizon:
            raise IndexError(f"column {j} outside [{row.start}, {self.horizon}], the columns of row {k}")
        T = self.table
        a = j + self.history + 1
        if row.kind == TRUE:
            return POS_INF
        if row.kind == ATOM:
            return row.pred.distance(self._values[row.pred.variable][j]) if j >= 0 else float(T[k, a])
        if row.kind == NOT:
            return -float(T[row.left, a])
        if row.kind == OR:
            return float(max(T[row.left, a], T[row.right, a]))
        em, en, _ = self._window(k, a, a + 1)
        pmin = accumulate([POS_INF, *em.tolist()], min)  # pmin[w] = min(em[:w])
        value = max(map(min, islice(pmin, row.lo, None), en.tolist()))
        if row.unbounded:
            return max(value, min(float(T[k, a - 1]), float(T[row.left, a])))
        return value

    def _checked_values(self, frontier: Sequence[StateSample]) -> dict[str, list[float]]:
        """Each variable the formula reads, over the frontier.  Rejects a
        step whose samples lack such a variable or give it a value that is
        not a finite real number, as semantics.sample_value does."""
        values = {}
        for var in self._variables:
            try:
                xs = [s.values[var] for s in frontier]
                fast = all(map(float.__instancecheck__, xs)) and all(map(math.isfinite, xs))
            except KeyError:
                fast = False
            # two C-level scans pass a frontier of finite floats; any other
            # is read again through sample_value, which raises for a bad one
            values[var] = xs if fast else [sample_value(s, var) for s in frontier]
        return values


def _max_min_window(em: np.ndarray, en: np.ndarray, lo: int, up: int, count: int) -> np.ndarray:
    """out[r] = max over w in [lo, up] of min(en[r + w - lo], pmin(em, r, w))

    where pmin(em, r, 0) = +inf and pmin(em, r, w) = min(em[r : r + w]).
    Requires up >= 1 (a [0,0] window compiles to its trigger), len(em) =
    count + up - 1 and len(en) = count + up - lo.  Monitor._window gives
    until forward table slices and since the same slices reversed;
    Monitor.cr() evaluates this formula for one cell (count = 1).  Entries
    past the horizon are the table's -inf pad, so a window running off the
    horizon only adds -inf disjuncts.

    The running minima are stored transposed, c[w - 1, r] = pmin(em, r, w)
    for w in [1, up], which keeps the work quadratic in the window like the
    paper's dynamic program (criterion 4 measures that slope).  For a block
    of cells [r0, r1), c[w] = min(c[w - 1], em[r0 + w : r1 + w]): one
    elementwise minimum over every cell with no dependency between
    elements, where np.minimum.accumulate along a window waits on each
    element for the one before it.  That row loop costs one ufunc call per
    window offset, so it runs only on a block at least as wide (cells) as
    it is tall (offsets), such as template E's steady until row, 1001
    cells x 500 offsets.  A taller block keeps accumulate, one call per
    block: the one-cell bounded since rows of past-only specifications,
    and every block of a window above 1024 offsets, where _BLOCK // up
    cells are fewer than up.

    The disjuncts w >= max(lo, 1) are taken in place in c, then reduced
    along each column.  For lo = 0 the w = 0 disjunct is min(+inf, en[r])
    = en[r], so it is folded in at the end by one elementwise maximum over
    the count outputs, instead of copying c into a taller block with a
    +inf row on top.  Min and max only select values, so the order of the
    reduction does not change the result.

    A wide block holds its rows of c only one chunk of h = _CHUNK // cells
    (at least 1) rows at a time, in one scratch buffer with one more row
    on top: the running minimum the chunk continues from, +inf before the
    first.  Each chunk's disjuncts are reduced into the block's outputs
    before the next chunk overwrites the buffer, so _CHUNK bounds the
    wide branch's scratch memory and keeps it in cache between the row
    loop and the reduction.  On template E's steady shape (1001 cells x 500
    offsets, lo = 0; 2-CPU Xeon with 2 MB of L2 per core, numpy 2.4.6),
    three sweeps read per call, against 1381-1760 us for the whole block:
    8K elements (h = 8) 1502-2159 us, 16K 1175-1852, 32K (h = 32, 256 KB)
    994-1584, 64K 1076-1647 and 128K 1272-1538.  32K was the fastest of
    each sweep, and its traced peak was 0.34 MB against the whole block's
    4.08 MB.

    Cells are processed in blocks of _BLOCK // up cells, at most _BLOCK
    elements.  Up to 1024 offsets such a block is at least as wide as it
    is tall and takes the chunked branch; above, it is taller than wide and
    takes accumulate, which _BLOCK caps at 8 MB.  So _BLOCK picks the branch
    of every row wider than one block, not only its memory, and criterion
    4's slope depends on it.  At H = 4000 the 110 steps of criterion 4's
    sweep reach 4110 cells, cut into tall blocks of 262.  Left whole, that
    row would not be a 4000 x 4110 block of float64 (131 MB, or 256 MB at a
    steady step's 8001 cells) but the chunked branch, 7 rows of 4110 cells
    (263 KB) at a time.  On the same host, two sweeps each, H = 4000 then
    took 33.8-35.3 ms a step against 129.9-143.2 ms, about 4x faster, and
    the sweep's slope fell from 2.20-2.28 to 1.45-1.47, below the 1.5 that
    the criterion checks.  Tall blocks thus keep criterion 4's H = 2000 and
    4000 off the chunked branch, which serves its H = 500 and 1000.  Other
    loops over window offsets, with no cell blocks or with blocks or chunks
    over offsets, likewise make large windows as cheap per element as small
    ones, and the slope falls to about 1.4.
    """
    first = max(lo, 1)  # smallest w whose disjunct reads a running minimum
    out = np.full(count, NEG_INF)
    vm = np.lib.stride_tricks.sliding_window_view(em, up)
    vn = np.lib.stride_tricks.sliding_window_view(en[first - lo :], up - first + 1)
    rows = max(1, _BLOCK // up)
    for r0 in range(0, count, rows):
        r1 = min(count, r0 + rows)
        o = out[r0:r1]
        if r1 - r0 < up:
            c = np.minimum.accumulate(vm[r0:r1].T, axis=0)
            d = c[first - 1 :]
            np.minimum(d, vn[r0:r1].T, out=d)
            np.max(d, axis=0, out=o)
            continue
        h = max(1, _CHUNK // (r1 - r0))
        c = np.empty((h + 1, r1 - r0))
        c[0] = POS_INF  # pmin(em, r, 0); then the running minimum a chunk continues from
        for w0 in range(0, up, h):
            w1 = min(up, w0 + h)
            for w in range(w0, w1):
                np.minimum(c[w - w0], em[r0 + w : r1 + w], out=c[w - w0 + 1])
            c[0] = c[w1 - w0]  # before the disjuncts overwrite it
            s = max(first - 1, w0)
            if s < w1:
                d = c[s - w0 + 1 : w1 - w0 + 1]
                np.minimum(d, vn[r0:r1, s - first + 1 : w1 - first + 1].T, out=d)
                np.maximum(o, d.max(axis=0), out=o)
    if lo == 0:
        np.maximum(out, en[:count], out=out)  # w = 0: min(+inf, en[r])
    return out
