"""Answer checks that share no code with the engines under test.

:class:`BoxOracle` keeps its own copy of every object's latest reported
motion (fed from the generated inputs, never read back from an engine)
and evaluates every box directly at ``t`` with NumPy: ``lo + v * (t -
t_ref)``.  It checks the whole answer — every A object, not a sample —
at every tick.  A pair intersects when, on both axes, neither box lies
wholly beyond the other.  The engines compute exact intervals with a
``PAIR_TEST_EPS`` slack on each constraint; a pair whose separation at
``t`` is within that slack (scaled to the coordinate magnitude) touches,
and either answer counts as agreeing for it.

:class:`DeltaFold` folds the engine's netted delta events into a plain
``pair -> set of rows`` view and compares it with the store.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

import numpy as np

from repro.geometry.constants import PAIR_TEST_EPS

PairKey = Tuple[int, int]


class _Side:
    """One dataset's latest reported motion, as ``(2, n)`` planes."""

    def __init__(self, cols) -> None:
        self.oid = np.asarray(cols.oid, dtype=np.int64).copy()
        order = np.argsort(self.oid)
        self.oid = self.oid[order]
        self.lo = np.asarray(cols.mlo)[:, order].copy()
        self.hi = np.asarray(cols.mhi)[:, order].copy()
        self.v = np.asarray(cols.vlo)[:, order].copy()
        self.tref = np.asarray(cols.tref)[order].copy()

    def apply(self, upd) -> None:
        if not len(upd):
            return
        rows = np.searchsorted(self.oid, upd.oid)
        if not np.array_equal(self.oid[rows], upd.oid):
            raise KeyError("update for an object the oracle does not know")
        self.lo[:, rows] = upd.mlo
        self.hi[:, rows] = upd.mhi
        self.v[:, rows] = upd.vlo
        self.tref[rows] = upd.tref

    def at(self, t: float) -> Tuple[np.ndarray, np.ndarray]:
        shift = self.v * (t - self.tref)
        return self.lo + shift, self.hi + shift


class BoxOracle:
    """Every A box against every B box at ``t``, through a uniform grid.

    The grid's cell side ``w`` is at least the widest box (plus slack),
    so two boxes that touch have lower corners less than ``w`` apart on
    each axis: B's corner lies in one of the 3 x 3 cells around A's.
    Cells are keyed row-major, so each row of three is one key range.
    Each candidate pair from those cells is tested on both axes.
    """

    def __init__(self, cols_a, cols_b) -> None:
        self.a = _Side(cols_a)
        self.b = _Side(cols_b)
        scale = max(
            1.0,
            float(np.abs(self.a.lo).max()),
            float(np.abs(self.b.hi).max()),
        )
        self.tol = PAIR_TEST_EPS * scale

    def apply(self, upd_a, upd_b) -> None:
        self.a.apply(upd_a)
        self.b.apply(upd_b)

    def check(self, t: float, answer: Set[PairKey]) -> List[str]:
        """Mismatches between ``answer`` and direct evaluation at ``t``."""
        a_lo, a_hi = self.a.at(t)
        b_lo, b_hi = self.b.at(t)
        tol = self.tol
        w = max(float((a_hi - a_lo).max()), float((b_hi - b_lo).max())) + 4 * tol
        origin = np.minimum(a_lo.min(axis=1), b_lo.min(axis=1))[:, None]
        a_cell = np.floor((a_lo - origin) / w).astype(np.int64) + 1
        b_cell = np.floor((b_lo - origin) / w).astype(np.int64) + 1
        stride = int(max(a_cell[1].max(), b_cell[1].max())) + 2
        b_key = b_cell[0] * stride + b_cell[1]
        order = np.argsort(b_key, kind="stable")
        b_key = b_key[order]
        ia_parts, ib_parts = [], []
        for dx in (-1, 0, 1):
            # The three cells (dx, -1..1) are adjacent in key order.
            row = (a_cell[0] + dx) * stride + a_cell[1]
            first = np.searchsorted(b_key, row - 1, side="left")
            sizes = np.searchsorted(b_key, row + 1, side="right") - first
            ia = np.repeat(np.arange(sizes.shape[0]), sizes)
            ib = np.arange(ia.shape[0]) - np.repeat(np.cumsum(sizes) - sizes, sizes)
            ia_parts.append(ia)
            ib_parts.append(order[ib + first[ia]])
        ia = np.concatenate(ia_parts)
        ib = np.concatenate(ib_parts)
        # Separation > 0 on any axis means disjoint.
        gap = np.maximum(a_lo[:, ia] - b_hi[:, ib], b_lo[:, ib] - a_hi[:, ia]).max(axis=0)
        keys = _pack(np.stack([self.a.oid[ia], self.b.oid[ib]]))
        must_keys = keys[gap < -tol]
        may_keys = keys[gap <= tol]
        got = np.array(list(answer), dtype=np.int64).reshape(-1, 2).T
        got_keys = _pack(got)
        missing = must_keys[~np.isin(must_keys, got_keys)]
        extra = got_keys[~np.isin(got_keys, may_keys)]
        if missing.size or extra.size:
            return [
                f"t={t}: {missing.size} pairs missing {_unpack(missing[:3])}, "
                f"{extra.size} extra {_unpack(extra[:3])}"
            ]
        return []


def _pack(keys: np.ndarray) -> np.ndarray:
    """``(2, k)`` oid pairs as one int64 key each (oids fit 31 bits)."""
    return (keys[0] << np.int64(31)) | keys[1]


def _unpack(keys: np.ndarray) -> List[PairKey]:
    return [(int(k >> 31), int(k & ((1 << 31) - 1))) for k in keys]


class DeltaFold:
    """The client's view: netted delta events folded into pair rows.

    Rows are kept as sorted tuples, not sets: tuples of floats drop out
    of the garbage collector's tracking, so the view does not lengthen
    the collections that run inside the engine's timed ticks.
    """

    def __init__(self) -> None:
        self.rows: Dict[PairKey, Tuple[Tuple[float, float], ...]] = {}

    def fold(self, events) -> List[str]:
        """Apply one tick's events; returns the ill-formed ones."""
        errors: List[str] = []
        for ev in events:
            key = (ev.a_oid, ev.b_oid)
            row = (ev.start, ev.end)
            rows = self.rows.get(key, ())
            if ev.sign > 0:
                if row in rows:
                    errors.append(f"duplicate add {key} {row}")
                    continue
                self.rows[key] = tuple(sorted(rows + (row,)))
            elif row not in rows:
                errors.append(f"removal of absent row {key} {row}")
            elif len(rows) == 1:
                del self.rows[key]
            else:
                self.rows[key] = tuple(r for r in rows if r != row)
        return errors

    def compare_all(self, interval_rows) -> List[str]:
        """Full equality with the store's ``interval_rows()``."""
        if self.rows == interval_rows:
            return []
        diff = set(self.rows.items()) ^ set(interval_rows.items())
        return [f"view != store on {len(diff)} pair rows"]
