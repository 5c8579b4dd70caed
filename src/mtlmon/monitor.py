"""Bounded-memory streaming robustness monitor.

The monitor keeps one row per compiled subformula over a fixed window of
column offsets j in [-history, horizon], where column 0 is the current
step, negative columns are the stored past, and positive columns hold the
supplied predictions.  One more column, -history-1, sits left of the
window, and pad columns sit right of it: as many as the largest until
upper bound in the formula (not the formula's horizon: an until[0,0]
never reads its left operand, so (a until[4,4] a) until[0,0] c has
horizon 3 and an inner window of 4).  An unbounded since keeps the
running value of its recurrence (the paper's Pre) in the table: each
step it restarts from the cell left of the first column it recomputes,
which the shift has filled with a final value, in that extra column when
the row starts at -history.  For why the history side is widened by the
horizon, see Formula.history.

The table is updated incrementally.  A cell of row k at column j depends
on samples up to absolute time i+j+horizon(k), where horizon(k) is the
subformula's own future reach.  Left of column -horizon(k) that is at
most i-1, so the cell read only actual samples and equals the previous
step's column j+1: shifting carries it over unchanged.  Every cell that
read a predicted sample lies at j >= -horizon(k) and is recomputed, so
predicted values never survive into the past.

Each step:

1. check that the sample and the predictions give every variable the
   formula reads a finite value; nothing changes before this passes, so
   a rejected step leaves the monitor exactly as it was,
2. shift the whole table one column to the left, dropping the oldest
   column,
3. recompute the columns [-horizon(k), horizon] of every row k bottom-up
   (operands live at larger indices): since rows left to right because
   their recurrence consumes the previous column, everything else right
   to left,
4. return the root row at column 0.

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

Rows with large windows are filled through numpy kernels that compute the
same max-of-min network data-parallel; small rows use plain loops.  The
two paths produce bit-identical results (min/max select, they never
round).  Row k costs (horizon(k) + horizon + 1) cells per step, each
linear in the row's window: quadratic in the window for future rows
(template E's root spans [-H, H]), linear for past-only specifications,
whose rows recompute one cell each.  The until/since kernel
(_max_min_window) builds a cells x window block of running minima,
takes the disjuncts' minima in place in it and reduces each row; the
w = 0 disjunct of a [0, b] window needs no running minimum and is folded
into the results afterwards, so the block is never copied.  A steady
template-E step at H = 500 thus makes three passes over a 1001 x 500
block of doubles (accumulate, minimum, maximum).
"""

from __future__ import annotations

import math
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
    signed_distance,
)

_BLOCK = 1 << 20      # elements per running-minimum block: caps its memory at 8 MB
_VECTOR_CELLS = 4096  # windowed rows go through numpy above this many cell-ops
_VECTOR_WIDTH = 64    # elementwise rows go through numpy above this width


class _Row:
    __slots__ = ("kind", "left", "right", "lo", "up", "horizon", "start", "pred", "unbounded", "vector")

    def __init__(self, kind, left, right, lo, up, horizon, start, pred, unbounded, vector):
        self.kind = kind
        self.left = left
        self.right = right
        self.lo = lo
        self.up = up
        self.horizon = horizon
        self.start = start
        self.pred = pred
        self.unbounded = unbounded
        self.vector = vector


class Monitor:
    """Streaming evaluator for one compiled formula over one sample stream.

    Storage is fixed at construction: a node-count by
    (history+2+horizon+pad) table, the window plus the column left of it
    and the -inf pad right of it, pad being the largest until upper bound
    (0 without until); it never grows with the stream.  Column j of row k
    is table[k, j + history + 1].
    step() is single-writer: do not call it concurrently on the same
    instance.  Independent monitors are fully isolated.
    """

    def __init__(
        self,
        formula: Formula,
        predicates: Mapping[str, Predicate],
        engine: str = "auto",
    ):
        if engine not in ("auto", "plain", "vector"):
            raise ValueError(f"unknown engine {engine!r}")
        missing = sorted(formula.atom_names - set(predicates))
        if missing:
            raise PredicateError("unbound atoms: " + ", ".join(missing))
        self.formula = formula
        self.horizon = formula.horizon
        self.history = formula.history
        self.width = self.history + 1 + self.horizon
        self.engine = engine
        pad = max((int(n.interval.upper) for n in formula.nodes if n.kind == UNTIL), default=0)
        self.table = np.full((len(formula.nodes), self.width + 1 + pad), NEG_INF)
        self.i = 0
        self._frontier: list[StateSample] = []
        self._values: dict[str, list[float]] = {}
        self._var_cache: dict[str, np.ndarray] = {}
        self._rows = [self._plan(node, predicates) for node in formula.nodes]
        self._variables = sorted({r.pred.variable for r in self._rows if r.kind == ATOM})

    def _plan(self, node, predicates) -> _Row:
        lo = node.interval.lower if node.interval is not None else 0
        up = node.interval.upper if node.interval is not None else 0
        unbounded = node.kind == SINCE and up == math.inf
        start = node.history - self.history
        pred = predicates[node.name] if node.kind == ATOM else None
        if self.engine == "plain":
            vector = False
        elif node.kind == SINCE and unbounded:
            vector = False  # the recurrence is inherently sequential
        elif node.kind in (UNTIL, SINCE):
            window = int(up) - lo + 1
            vector = self.engine == "vector" or self.width * window >= _VECTOR_CELLS
        else:
            vector = self.engine == "vector" or self.width >= _VECTOR_WIDTH
        return _Row(node.kind, node.left, node.right, lo, up, node.horizon, start, pred, unbounded, vector)

    def step(self, sample: StateSample, predictions: Sequence[StateSample] = ()) -> Rho:
        """Consume the current sample plus horizon predicted samples and
        return the robustness of the specification at this step."""
        predictions = list(predictions)
        if len(predictions) != self.horizon:
            raise ValueError(
                f"prediction length mismatch: formula horizon is {self.horizon}, "
                f"got {len(predictions)} samples"
            )
        frontier = [sample, *predictions]
        values = self._checked_values(frontier)
        # nothing above changes the monitor, so a rejected step leaves it as it was
        self.i += 1
        self._frontier = frontier
        self._values = values
        self._var_cache = {}
        T = self.table
        off = self.history + 1
        T[:, :off] = T[:, 1 : off + 1]
        for k in range(len(self._rows) - 1, -1, -1):
            self._fill_row(k)
        return float(T[0, off])

    def cell(self, k: int, j: int) -> Rho | None:
        """Stored value of subformula k at column j, or None before the
        first step, where the column precedes the stream or history the
        row does not maintain."""
        if not -self.history <= j <= self.horizon:
            raise IndexError(f"column {j} outside [-{self.history}, {self.horizon}]")
        row = self._rows[k]
        if j < row.start or self.i == 0 or self.i - 1 + j < 0:
            return None
        return float(self.table[k, j + self.history + 1])

    # ------------------------------------------------------------------
    # Row updates

    def _fill_row(self, k: int) -> None:
        row = self._rows[k]
        # columns left of -row.horizon read only actual samples, so the
        # shift has already put their final values there
        jlo = max(row.start, 1 - self.i, -row.horizon)
        if jlo > self.horizon:
            return
        T = self.table
        off = self.history + 1
        e = self.horizon + off + 1  # the pad right of the horizon is never written
        if row.kind == ATOM:
            if row.vector:
                xs = self._var_values(row.pred.variable)
                d = np.minimum(xs - row.pred.lo, row.pred.hi - xs)
                if row.pred.gain != 1.0:
                    np.multiply(row.pred.gain, d, out=d)
                T[k, off:e] = d
            else:
                for j in range(0, self.horizon + 1):
                    T[k, j + off] = signed_distance(self._frontier[j], row.pred)
            return
        if row.vector:
            a = jlo + off
            if row.kind == TRUE:
                T[k, a:e] = POS_INF
            elif row.kind == NOT:
                np.negative(T[row.left, a:e], out=T[k, a:e])
            elif row.kind == OR:
                np.maximum(T[row.left, a:e], T[row.right, a:e], out=T[k, a:e])
            else:
                # since reads the until window mirrored in time
                m, n, lo, up = row.left, row.right, row.lo, int(row.up)
                if row.kind == UNTIL:
                    em, en, out = T[m, a : e + up - 1], T[n, a + lo : e + up], T[k, a:e]
                else:
                    em, en, out = T[m, a - up + 1 : e][::-1], T[n, a - up : e - lo][::-1], T[k, a:e][::-1]
                out[:] = _max_min_window(em, en, lo, up, e - a)
            return
        if row.kind == SINCE:
            for j in range(jlo, self.horizon + 1):
                T[k, j + off] = self.cr(k, j)
        else:
            for j in range(self.horizon, jlo - 1, -1):
                T[k, j + off] = self.cr(k, j)

    def cr(self, k: int, j: int) -> Rho:
        """Value of row k at column j, recomputed from the operand rows.

        One cell of the table update; exposed so single cells can be
        inspected and tested.  Only meaningful on columns the update would
        visit (operand rows filled, absolute time i+j nonnegative); reads
        before the stream start or past the horizon see the table's -inf.
        """
        row = self._rows[k]
        T = self.table
        off = self.history + 1
        kind = row.kind
        if kind == TRUE:
            return POS_INF
        if kind == ATOM:
            if j >= 0:
                return signed_distance(self._frontier[j], row.pred)
            return float(T[k, j + off])  # shifted history cell
        if kind == NOT:
            return -float(T[row.left, j + off])
        if kind == OR:
            return float(max(T[row.left, j + off], T[row.right, j + off]))
        m, n = row.left, row.right
        lo = row.lo
        if kind == UNTIL:
            tmp = POS_INF
            for jp in range(j, j + lo):
                tmp = min(tmp, float(T[m, jp + off]))
            acc = NEG_INF
            for jp in range(j + lo, min(self.horizon, j + int(row.up)) + 1):
                acc = max(acc, min(tmp, float(T[n, jp + off])))
                tmp = min(tmp, float(T[m, jp + off]))
            return acc
        # since
        tmp = POS_INF
        for jp in range(j - lo + 1, j + 1):
            tmp = min(tmp, float(T[m, jp + off]))
        if row.unbounded:
            prev = float(T[k, j - 1 + off])
            head = min(prev, float(T[m, j + off]))
            return max(min(float(T[n, j - lo + off]), tmp), head)
        up = int(row.up)
        acc = NEG_INF
        for jp in range(j - lo, j - up - 1, -1):
            acc = max(acc, min(tmp, float(T[n, jp + off])))
            if jp > j - up:  # the extension after the last disjunct is unused
                tmp = min(tmp, float(T[m, jp + off]))
        return acc

    def _checked_values(self, frontier: Sequence[StateSample]) -> dict[str, list[float]]:
        """Each variable the formula reads, over the frontier.  Rejects a
        step whose samples lack such a variable or give it a value that is
        not a finite number."""
        values = {}
        for var in self._variables:
            try:
                xs = [s.values[var] for s in frontier]
            except KeyError:
                at = next(s.time for s in frontier if var not in s.values)
                raise KeyError(f"unknown variable {var!r} in sample at t={at}") from None
            if not all(map(math.isfinite, xs)):
                at = next(s.time for s, x in zip(frontier, xs) if not math.isfinite(x))
                raise ValueError(f"non-finite value of variable {var!r} in sample at t={at}")
            values[var] = xs
        return values

    def _var_values(self, var: str) -> np.ndarray:
        arr = self._var_cache.get(var)
        if arr is None:
            arr = self._var_cache[var] = np.array(self._values[var], dtype=float)
        return arr


def _max_min_window(em: np.ndarray, en: np.ndarray, lo: int, up: int, count: int) -> np.ndarray:
    """out[r] = max over w in [lo, up] of min(en[r + w - lo], pmin(em, r, w))

    where pmin(em, r, 0) = +inf and pmin(em, r, w) = min(em[r : r + w]).
    Requires len(em) = count + up - 1 and len(en) = count + up - lo; for
    up = 0 (so lo = 0) the only disjunct is en[r], and en[:count] is
    returned as it is.  Until passes forward table slices, since the same
    slices reversed; entries past the horizon are the table's -inf pad, so
    a window running off the horizon only adds -inf disjuncts.

    The running minima c[r, w - 1] = pmin(em, r, w) for w in [1, up] come
    from np.minimum.accumulate, which keeps the work quadratic in the
    window like the paper's dynamic program (criterion 4 measures that
    slope).  The disjuncts w >= max(lo, 1) are taken in place in c, then
    reduced along each row.  For lo = 0 the w = 0 disjunct is min(+inf,
    en[r]) = en[r], so it is folded in at the end by one elementwise
    maximum over the count outputs, instead of copying c into a wider
    block with a +inf column in front.  Min and max only select values,
    so the order of the reduction does not change the result.

    Rows are processed in blocks of at most _BLOCK elements, which bounds
    the kernel's memory, not its time: at H = 4000 a steady step covers
    8001 cells, an unblocked 8001 x 4000 block of float64 (256 MB), and
    even the 110 steps that criterion 4's sweep runs reach 4110 cells
    (about 131 MB).
    """
    if up == 0:
        return en[:count]
    first = max(lo, 1)  # smallest w whose disjunct reads a running minimum
    out = np.empty(count)
    vm = np.lib.stride_tricks.sliding_window_view(em, up)
    vn = np.lib.stride_tricks.sliding_window_view(en[first - lo :], up - first + 1)
    rows = max(1, _BLOCK // up)
    for r0 in range(0, count, rows):
        r1 = min(count, r0 + rows)
        c = np.minimum.accumulate(vm[r0:r1], axis=1)
        d = c[:, first - 1 :]
        np.minimum(d, vn[r0:r1], out=d)
        np.max(d, axis=1, out=out[r0:r1])
    if lo == 0:
        np.maximum(out, en[:count], out=out)  # w = 0: min(+inf, en[r])
    return out
