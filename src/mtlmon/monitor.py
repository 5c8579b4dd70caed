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
subformula's own future reach, that is on frontier columns up to
j+horizon(k).  Each step finds new, the first frontier column whose
values differ from those the previous step read at the same absolute
time (0.0 and -0.0 do not: they give equal distances, see semantics):
the horizon column always, and column 0 on the first step, without a
horizon, or when any variable's value changed at column 0.  A cell left
of column new-horizon(k) read no new value, so it equals the previous
step's column j+1: shifting carries it over unchanged.  Left of -horizon(k) that holds for any predictions,
since those cells read only actual samples.  Every other cell is
recomputed, so a value computed from a prediction survives only while
that prediction repeats, and a prediction that changed, or an actual
sample that differs from it, never survives into the past.  Perfect
predictions, those of a recorded trace, repeat at every column but the
horizon; held ones repeat only when every variable's sample does.

Each step:

1. build the frontier, the sample followed by the predictions, once, and
   read every variable the formula reads over it, checking that each
   value is a finite real (semantics.sample_value's rule and errors, which
   the oracle shares); nothing changes before this passes, so a rejected
   step leaves the monitor exactly as it was,
2. shift the whole window one column to the left, dropping the oldest
   column; the horizon column keeps its old value until step 3,
3. recompute the columns [new-horizon(k), horizon] of every row k bottom-up
   (operands live at larger indices) and left to right: only an
   unbounded since reads its own row, the column left of the one it
   writes,
4. return the root row at column 0.

The frontier is read one of two ways, to the same floats.  A formula
with a horizon, whose atom rows may take numpy, reads a frontier whose
samples are all rows of one loaded trace through RowValues.columns: one
numpy gather from the trace's buffer gives each variable as a float64
array, checked by np.isfinite, and the atom rows take the arrays as they
are.  Any other frontier, and every frontier of a formula without a
horizon, is read one lookup per variable and sample: two C-level scans
pass a frontier of finite floats, any other is read again through
semantics.sample_value, which raises for a bad value, and a formula with
a horizon turns the result into arrays.

Every row is written each step, its horizon column at least.  A [0,0]
window compiles to its trigger (see formula.py), so no node needs more
history than the root, and every row maintains the columns from
-horizon(k), the leftmost that step 3 can recompute, to horizon.

The table starts at -inf, and two kinds of cell are never written.
Cells whose absolute time i+j is negative: the update starts at column
-i or later, and the shift keeps every cell at its absolute time, so it
only moves such cells into columns that are before the stream too.  And
the pad: every write stops at the horizon column, and the shift reads
no column past it.  Every read before the stream start or past the
horizon therefore yields -inf, which is already the right value at both
ends.  A trigger read there makes its disjunct vanish (that window
position does not exist, or lies beyond the predictions), a left-operand
read there only feeds disjuncts whose trigger lies there as well, so
they are -inf anyway, and an unbounded since's running value is -inf,
its own seed (a maximum over nothing).  This makes warm-up steps agree
exactly with evaluation on the finite prefix, and lets until and since
rows pass plain table slices to one windowed kernel.

A row is filled either through numpy over whole slices or one cell at a
time by cr(), the paper's per-cell recurrence.  Each step picks a row's
path from the cells it recomputes there, horizon + 1 - jlo, jlo being
the row's first recomputed column.  An atom, not, or or true row takes
numpy when that is more than one cell: one numpy call costs more than
one cr() cell (an atom cell 3.6-4.0 us against 0.45-0.48, timeit on
template E at H = 500, 2-CPU Xeon), but less than the 11 or more cells
such a row recomputes under the held predictions of the mixed-hold
benchmark workload.  So a past-only formula's rows never take it, and
under perfect predictions an atom row takes it on the first step alone,
after which it recomputes its horizon column only.  An until or bounded
since row takes numpy when its cells times its window (up - lo + 1
offsets) reach _VECTOR_CELLS, a value not yet calibrated: template E's
until row does, mixed-hold's windowed rows (at most 21 cells over 31
offsets) do not, and neither do the one-cell since rows of past-only
formulas with windows under _VECTOR_CELLS offsets, such as past-settle's
and the case study's (criterion 5).  _plan turns each rule into one
bound per row, the first column from which a step takes cr(), so the
test costs one comparison a step.  An until or since row reads the same
window slices on both paths (Monitor._window: forward for until,
mirrored in time for since), and the two produce bit-identical results:
min and max select, they never round, and they tie only on equal bits,
since no value is -0.0 (see semantics).  An unbounded since always takes
cr(): its running value is the cell it wrote one column to the left.
Row k recomputes horizon + 1 - new + horizon(k) cells per step, at most
horizon(k) + horizon + 1, each linear in the row's window: quadratic in
the window for future rows (template E's root spans [-H, H], and
[0, H] under perfect predictions), linear for past-only specifications,
whose rows recompute one cell each.  The until/since kernel
(_max_min_window) builds the running minima of a block of cells, one
row per window offset, takes the disjuncts' minima in place and reduces
each column; the w = 0 disjunct of a [0, b] window needs no running minimum and is
folded into the results afterwards.  A steady template-E step at H = 500
under perfect predictions computes 500 rows of 501 doubles (1001 under
held ones), each one elementwise minimum of the row above and a shifted
operand slice, but holds only 65 of them (32 of 1001) at a time: each
chunk of rows is reduced into the results while it is still in cache,
and the next chunk continues from its last row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Mapping, Sequence

import numpy as np

from . import semantics
from .formula import ATOM, NOT, OR, SINCE, TRUE, UNTIL, Formula
from .semantics import (
    NEG_INF,
    POS_INF,
    Predicate,
    Rho,
    RowValues,
    StateSample,
    checked_index,
    checked_predicates,
    node_index,
    sample_value,
)

_BLOCK = 1 << 20      # elements per running-minimum block: caps its memory at 8 MB
_CHUNK = 1 << 15      # elements per chunk of a wide block's running minima: 256 KB
_VECTOR_CELLS = 4096  # windowed rows go through numpy when recomputed cells x window reach this


@dataclass(slots=True)
class _Row:
    """How one table row is filled.  The window is [lo, up] with up an int;
    an unbounded since stores [lo, lo], the one disjunct that its running
    value (the row's own cell one column to the left) does not cover;
    every until and bounded since has up >= 1.  A step whose first
    recomputed column is cr_from or later fills the row cell by cell
    through Monitor.cr(), any other step by numpy over whole slices; the
    module docstring gives the rule, and cr_from = start keeps a row on
    cr()."""

    kind: str
    left: int
    right: int
    lo: int
    up: int
    horizon: int
    start: int  # leftmost column the row maintains
    pred: Predicate | None
    unbounded: bool
    cr_from: int  # a step that recomputes from this column on fills the row through cr()


class Monitor:
    """Streaming evaluator for one compiled formula over one sample stream.

    Storage is fixed at construction: a node-count by
    (history+2+horizon+pad) table, the window plus the column left of it
    and the -inf pad right of it, pad being the largest until upper bound
    (0 without until); it never grows with the stream.  Column j of row k
    is table[k, j + history + 1].  A table larger than physical memory is
    refused with MemoryError before anything is allocated.  A formula that
    is not a compiled Formula raises TypeError, and predicates follow
    semantics.checked_predicates, the binding rule the oracle shares.
    step() is single-writer: do not call it concurrently on the same
    instance.  Independent monitors are fully isolated.
    """

    def __init__(self, formula: Formula, predicates: Mapping[str, Predicate]):
        if not isinstance(formula, Formula):
            raise TypeError(f"formula must be a compiled Formula, got {formula!r}")
        checked_predicates(formula.atom_names, predicates)
        self.formula = formula
        self.horizon = formula.horizon
        self.history = formula.history
        self.width = self.history + 1 + self.horizon
        pad = max((int(n.interval.upper) for n in formula.nodes if n.kind == UNTIL), default=0)
        shape = (len(formula.nodes), self.width + 1 + pad)
        size = 8 * shape[0] * shape[1]  # float64; np.full touches every page
        ram = semantics.physical_memory()
        if size > ram:
            raise MemoryError(
                f"monitor table {shape[0]} x {shape[1]} needs {size} bytes, "
                f"more than the {ram} bytes of physical memory"
            )
        self.table = np.full(shape, NEG_INF)
        self.i = 0
        self._values: dict[str, Sequence[float]] = {}
        self._rows = [self._plan(node, *reach, predicates) for node, reach in zip(formula.nodes, formula.bounds)]
        self._variables = sorted({r.pred.variable for r in self._rows if r.kind == ATOM})

    def _plan(self, node, horizon, history, predicates) -> _Row:
        lo = node.interval.lower if node.interval is not None else 0
        up = node.interval.upper if node.interval is not None else 0
        start = history - self.history
        unbounded = node.kind == SINCE and up == math.inf
        if unbounded:
            up, cr_from = lo, start  # the recurrence is inherently sequential
        elif node.kind in (UNTIL, SINCE):  # numpy from ceil(_VECTOR_CELLS / window) cells on
            cr_from = self.horizon + 2 - math.ceil(_VECTOR_CELLS / (int(up) - lo + 1))
        else:
            cr_from = self.horizon  # numpy from two cells on
        pred = predicates[node.name] if node.kind == ATOM else None
        return _Row(node.kind, node.left, node.right, lo, int(up), horizon, start, pred, unbounded, cr_from)

    def step(self, sample: StateSample, predictions: Sequence[StateSample] = ()) -> Rho:
        """Consume the current sample plus horizon predicted samples and
        return the robustness of the specification at this step.  A sample
        or prediction that is not a StateSample raises TypeError, as does
        predictions that is not iterable; a prediction count other than the
        horizon raises ValueError, and a bad value as semantics.sample_value
        does.  A refused step leaves the monitor unchanged."""
        try:
            frontier = [sample, *predictions]
        except TypeError:
            raise TypeError(f"predictions must be an iterable of StateSample, got {predictions!r}") from None
        if len(frontier) != self.horizon + 1:
            raise ValueError(
                f"prediction length mismatch: formula horizon is {self.horizon}, "
                f"got {len(frontier) - 1} samples"
            )
        values = self._checked_values(frontier)
        new = self._first_new(values)
        # nothing above changes the monitor, so a rejected step leaves it as it was
        self.i += 1
        self._values = values
        T = self.table
        T[:, : self.width] = T[:, 1 : self.width + 1]
        for k in range(len(self._rows) - 1, -1, -1):
            self._fill_row(k, new)
        return float(T[0, self.history + 1])

    def _first_new(self, values: dict[str, Sequence[float]]) -> int:
        """First frontier column that is new: a value other than the one
        the previous step read at the same absolute time, for some
        variable (0.0 and -0.0 are one value).  The horizon column is
        always new, and every column is on the first step."""
        if not (self.i and self.horizon):
            return 0
        new = self.horizon
        for var, xs in values.items():
            prev = self._values[var]
            if xs[0] != prev[1]:  # held predictions of a changed sample stop here
                return 0
            diff = xs[:new] != prev[1 : new + 1]
            if diff.any():
                new = int(diff.argmax())
        return new

    def cell(self, k: int, j: int) -> Rho | None:
        """Stored value of subformula k at column j, or None before the
        first step, where the column precedes the stream or history the
        row does not maintain.  k and j follow semantics.checked_index:
        an index outside the formula's nodes or the window raises
        IndexError, and one that is not an integer TypeError.

        Column -horizon of the root is the settled verdict: after the
        step for step i, cell(0, -horizon) is the exact robustness at step
        i - horizon, the value the oracle gives on the actual trace, for
        any predictions fed.  That cell read only actual samples (see the
        module docstring), so it is None only while i < horizon."""
        k = node_index(k, len(self._rows))
        j = checked_index(j, "column", -self.history, self.horizon)
        if j < self._rows[k].start or self.i == 0 or self.i - 1 + j < 0:
            return None
        return float(self.table[k, j + self.history + 1])

    # ------------------------------------------------------------------
    # Row updates

    def _fill_row(self, k: int, new: int) -> None:
        row = self._rows[k]
        # columns left of new - row.horizon read no new frontier value, so
        # the shift has already put their values there
        jlo = max(row.start, 1 - self.i, new - row.horizon)
        T = self.table
        off = self.history + 1
        if jlo >= row.cr_from:  # fewer cells than pay for a numpy call
            for j in range(jlo, self.horizon + 1):
                T[k, j + off] = self._cr(k, j)
            return
        a, e = jlo + off, self.horizon + off + 1  # the pad right of the horizon is never written
        if row.kind == ATOM:
            xs = self._values[row.pred.variable][jlo:]  # an array, or a one-value list without a horizon
            with np.errstate(over="ignore"):  # overflow to +-inf, silently as in cr()
                d = np.minimum(np.subtract(xs, row.pred.lo), np.subtract(row.pred.hi, xs), out=T[k, a:e])
                np.add(np.multiply(d, row.pred.gain, out=d), 0.0, out=d)  # Predicate.distance, bit for bit
        elif row.kind == TRUE:
            T[k, a:e] = POS_INF
        elif row.kind == NOT:
            np.subtract(0.0, T[row.left, a:e], out=T[k, a:e])  # 0.0 - v, never -0.0
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
        inspected and tested.  k and j follow semantics.checked_index, and
        j must be a column the update has filled: row.start <= j <=
        horizon, at absolute time i+j nonnegative, none before the first
        step.  Reads past the horizon see the table's -inf.  An until or
        since cell is _max_min_window's formula for one cell, over the same
        slices; an unbounded since maxes its [lo, lo] disjunct with its
        running value, the minimum of its own cell one column to the left
        and the left operand here.
        """
        k = node_index(k, len(self._rows))
        lo = max(self._rows[k].start, 1 - self.i)  # 1 before the first step: no column is filled
        return self._cr(k, checked_index(j, "column", lo, self.horizon if self.i else 0))

    def _cr(self, k: int, j: int) -> Rho:
        row = self._rows[k]
        T = self.table
        a = j + self.history + 1
        if row.kind == TRUE:
            return POS_INF
        if row.kind == ATOM:
            return row.pred.distance(float(self._values[row.pred.variable][j])) if j >= 0 else float(T[k, a])
        if row.kind == NOT:
            return 0.0 - float(T[row.left, a])
        if row.kind == OR:
            return float(max(T[row.left, a], T[row.right, a]))
        em, en, _ = self._window(k, a, a + 1)
        pmin = accumulate([POS_INF, *em.tolist()], min)  # pmin[w] = min(em[:w])
        value = max(map(min, islice(pmin, row.lo, None), en.tolist()))
        if row.unbounded:
            return max(value, min(float(T[k, a - 1]), float(T[row.left, a])))
        return value

    def _checked_values(self, frontier: list[StateSample]) -> dict[str, Sequence[float]]:
        """Each variable the formula reads, over the frontier: a float64
        array when the formula has a horizon, for atom rows that take
        numpy, a list otherwise.  Rejects a step whose frontier holds an
        object that is not a StateSample, or samples that lack such a
        variable or give it a value that is not a finite real number, as
        semantics.sample_value does."""
        if self.horizon and (columns := RowValues.columns(frontier, self._variables)) is not None:
            return columns
        values = {}
        for var in self._variables:
            try:
                xs = [s.values[var] for s in frontier]
                fast = all(map(float.__instancecheck__, xs)) and all(map(math.isfinite, xs))
            except (KeyError, TypeError, AttributeError):  # the last two from a non-sample
                fast = False
            # two C-level scans pass a frontier of finite floats; any other
            # is read again through sample_value, which raises for a bad one
            values[var] = xs if fast else [sample_value(s, var) for s in frontier]
        return {var: np.array(xs, dtype=float) for var, xs in values.items()} if self.horizon else values


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
    it is tall (offsets), such as template E's steady until row, 501
    cells x 500 offsets under perfect predictions, 1001 under held ones.
    A taller block keeps accumulate, one call per block: the one-cell
    bounded since rows of past-only specifications, and every block of a
    window above 1024 offsets, where _BLOCK // up cells are fewer than up.

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
    loop and the reduction.  On template E's steady shape under held
    predictions (1001 cells x 500 offsets, lo = 0; 2-CPU Xeon with 2 MB
    of L2 per core, numpy 2.4.6), three sweeps read per call, against
    1381-1760 us for the whole block: 8K elements (h = 8) 1502-2159 us,
    16K 1175-1852, 32K (h = 32, 256 KB) 994-1584, 64K 1076-1647 and 128K
    1272-1538.  32K was the fastest of each sweep, and its traced peak
    was 0.34 MB against the whole block's 4.08 MB.

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
