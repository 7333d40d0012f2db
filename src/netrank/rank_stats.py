"""Tie-aware rank statistics and order-comparison relations between score vectors.

Ranks are ascending (smallest score gets rank 1) with tied entries sharing
the mean of the positions they occupy.  Two entries tie when their values
are within `tie_tol`, closed transitively over the sorted order so grouping
does not depend on evaluation order.

`compare` gives the four relations that `netrank compare` prints and each sweep
record stores, from one sort per vector; the three public relations read it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph_core import _frozen

DEFAULT_TIE_TOL = 1e-9


def _values(x) -> np.ndarray:
    v = np.asarray(getattr(x, "values", x), dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d score vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError("scores must be finite")
    return v


@dataclass(frozen=True, eq=False)
class RankStatistic:
    ranks: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ranks", _frozen(self.ranks))


def _ranked(v: np.ndarray, tie_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Average-tie ranks, the stable ascending order and the start of each tie group."""
    order = np.argsort(v, kind="stable")
    # a group starts wherever a gap is not within tie_tol, so a NaN tolerance ties nothing
    cuts = np.ones(len(v) + 1, dtype=bool)
    cuts[1:-1] = ~(np.diff(v[order]) <= tie_tol)
    edges = np.flatnonzero(cuts)
    starts, stops = edges[:-1], edges[1:]
    ranks = np.empty(len(v))
    # positions are 1-based; tied entries share the mean position
    ranks[order] = np.repeat((starts + stops + 1) / 2.0, stops - starts)
    return ranks, order, starts


def rank_statistic(scores, tie_tol: float = DEFAULT_TIE_TOL) -> RankStatistic:
    """Average-tie ascending ranks of a score vector."""
    return RankStatistic(_ranked(_values(scores), tie_tol)[0])


def _refines(ranks: np.ndarray, starts: np.ndarray) -> bool:
    """True when ranks, taken in one vector's order, coincide within its groups and never fall."""
    lo = np.minimum.reduceat(ranks, starts)
    return bool((lo == np.maximum.reduceat(ranks, starts)).all() and (np.diff(lo) >= 0).all())


def compare(x, y, tie_tol: float = DEFAULT_TIE_TOL) -> tuple[int, bool, bool, bool]:
    """(agreement_count, identical, x_finer_y, y_finer_x), in `netrank compare`'s order."""
    vx, vy = _values(x), _values(y)
    if vx.shape != vy.shape:
        raise ValueError(f"length mismatch: {vx.shape[0]} vs {vy.shape[0]}")
    (rx, ox, sx), (ry, oy, sy) = _ranked(vx, tie_tol), _ranked(vy, tie_tol)
    x_finer_y, y_finer_x = _refines(ry[ox], sx), _refines(rx[oy], sy)
    return int((rx == ry).sum()), x_finer_y and y_finer_x, x_finer_y, y_finer_x


def is_finer(x, y, tie_tol: float = DEFAULT_TIE_TOL) -> bool:
    """True when x's ordering refines y's.

    Every ordered pair must satisfy: rank(x)_i <= rank(x)_j implies
    rank(y)_i <= rank(y)_j.  Equivalently x may break y's ties but never
    contradicts y, and ties in x force ties in y.  Evaluated in O(n log n):
    within each x-tie-group all y-ranks must coincide, and the group y-ranks
    must be non-decreasing in x order.
    """
    return compare(x, y, tie_tol)[2]


def is_identical_rank(x, y, tie_tol: float = DEFAULT_TIE_TOL) -> bool:
    """True when each vector's ordering refines the other's.

    Average-tie ranks are a function of the ordering alone, so this holds
    exactly when the rank vectors are equal.
    """
    return compare(x, y, tie_tol)[1]


def agreement_count(x, y, tie_tol: float = DEFAULT_TIE_TOL) -> int:
    """Number of positions whose average-tie ranks coincide exactly."""
    return compare(x, y, tie_tol)[0]
