"""Transition-matrix constructions and Markov-chain regularity checks.

All transition matrices here are column-stochastic: entry (j, i) is the
probability of moving from node i to node j, and probability vectors are
columns updated as x_k = M x_{k-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .graph_core import AdjacencyMatrix, _adopt, _frozen, default_labels

COLUMN_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Column-stochastic matrix."""

    entries: np.ndarray

    def __post_init__(self):
        e = _frozen(self.entries)
        if e.ndim != 2 or e.shape[0] != e.shape[1] or e.shape[0] == 0:
            raise ValueError(f"transition matrix must be square, got shape {e.shape}")
        # both tests fail on NaN; min() allocates no m x m bool array
        if not e.min() >= 0:
            raise ValueError("transition matrix entries must be non-negative")
        colsums = e.sum(axis=0)
        worst = np.abs(colsums - 1.0).max()
        if not worst <= COLUMN_SUM_TOL:
            raise ValueError(f"columns must sum to 1 (max deviation {worst:.3e})")
        object.__setattr__(self, "entries", e)

    @property
    def m(self) -> int:
        return self.entries.shape[0]


def transition_from_patched(patched: AdjacencyMatrix) -> TransitionMatrix:
    """Transpose of the patched adjacency with each row scaled by its sum.

    Requires strictly positive row sums; patch zero rows first.
    """
    zero = np.flatnonzero(patched._out_degrees == 0)
    if zero.size:
        raise ValueError(f"row {zero[0]} has zero sum; patch zero rows before building the chain")
    return transition_generalized_inverse(patched)


def transition_generalized_inverse(adj: AdjacencyMatrix) -> TransitionMatrix:
    """Same chain built without patching, via the diagonal generalized inverse.

    With B = diag(out-degrees) and B- its entrywise reciprocal on nonzero
    entries, returns A^T B- + (1/n) * ones * (I - B B-): zero-out-degree
    nodes redistribute uniformly, all other columns are A^T B- as usual.
    Columns are divided by their out-degree, not multiplied by its
    reciprocal; with no zero rows, this is transition_from_patched's chain.
    """
    # the layout of A^T fixes the rounding of M @ x in stationary_power: C
    # only for a dense adjacency with F-ordered entries
    order = "C" if not adj._edge_backed and np.isfortran(adj.entries) else "F"
    out = np.zeros((adj.n, adj.n), order=order)
    return TransitionMatrix(_adopt(_generalized_inverse(adj, out)))


def _generalized_inverse(adj: AdjacencyMatrix, out: np.ndarray) -> np.ndarray:
    """Write the entries of transition_generalized_inverse(adj) into `out`, n x n of zeros.

    An edge-backed adjacency (see AdjacencyMatrix) scatters weight / out-degree
    per edge, and a dense one divides its entries without making its edges:
    the same division either way.
    """
    deg = adj._out_degrees
    if adj._edge_backed:
        src, dst, weights = adj._edges
        q = deg[src]  # the only E-sized temporary
        out[dst, src] = np.divide(weights, q, out=q)
    else:
        np.divide(adj.entries.T, np.where(deg > 0, deg, 1.0), out=out)
    out[:, deg == 0] = 1.0 / adj.n
    return out


def damped_transition(base: TransitionMatrix, alpha: float) -> TransitionMatrix:
    """Mix the chain with the uniform distribution: alpha*M + (1-alpha)/m."""
    # order="K" keeps the memory layout, and with it the rounding of M @ x
    return TransitionMatrix(_adopt(_damp(base.entries.copy(order="K"), alpha)))


def _damp(entries: np.ndarray, alpha: float) -> np.ndarray:
    """Damp a fresh m x m chain array in place, as damped_transition does."""
    _check_alpha(alpha)
    entries *= alpha
    entries += (1.0 - alpha) / entries.shape[0]
    return entries


def _check_alpha(alpha: float) -> None:
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")


def _check_epsilon(epsilon: float) -> None:
    if not 0 <= epsilon <= 1:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")


def _damped_operator(adj: AdjacencyMatrix, alpha: float) -> Callable[[np.ndarray], np.ndarray]:
    """The step x -> M x of _damp(_generalized_inverse(adj), alpha), read from the edges.

    With P = A^T B- + (1/n) ones d^T (d marks zero-out-degree nodes), the
    damped chain applies alpha * (A^T B- x + (d . x)/n) + (1 - alpha) * sum(x)/n
    (Langville & Meyer, "Deeper Inside PageRank", Internet Math. 1(3), 2004):
    O(n + edges) per step, and no n x n array.  Edge weights are divided by
    the out-degree, as in _generalized_inverse.
    """
    _check_alpha(alpha)
    n = adj.n
    src, dst, weights = adj._edges
    deg = adj._out_degrees
    weights = weights / deg[src]
    dangling = np.flatnonzero(deg == 0)

    def step(x: np.ndarray) -> np.ndarray:
        # float64 without a copy: with no edges, bincount counts in int64
        y = np.bincount(dst, weights * x[src], minlength=n).astype(float, copy=False)
        y += x[dangling].sum() / n
        y *= alpha
        y += (1.0 - alpha) * x.sum() / n
        return y

    return step


def augment_adjacency(patched: AdjacencyMatrix, epsilon: float) -> AdjacencyMatrix:
    """Attach the hub node to a patched adjacency with mixing weight epsilon.

    The result is the paper's (n+1)-node adjacency, labelled "1".."n+1" with
    the hub last: the hub's incoming weights are (eps/2) * rowsum_i / totalsum
    of the base, its outgoing row is (1, ..., 1, 0).
    """
    _check_epsilon(epsilon)
    rowsums = patched._out_degrees
    if (rowsums == 0).any():
        raise ValueError("augmenting requires strictly positive row sums; patch first")
    n = patched.n
    entries = np.zeros((n + 1, n + 1))
    entries[:n, :n] = patched.entries
    entries[:n, n] = 0.5 * epsilon * rowsums / rowsums.sum()
    entries[n, :n] = 1.0
    return AdjacencyMatrix(_adopt(entries), default_labels(n + 1))


def transition_from_augmented(augmented: AdjacencyMatrix) -> TransitionMatrix:
    """Column-stochastic chain on the n+1 nodes of an augmented adjacency."""
    return transition_from_patched(augmented)


@dataclass(frozen=True)
class RegularityResult:
    regular: bool
    witness_k: Optional[int]


def wielandt_bound(m: int) -> int:
    return m * m - 2 * m + 2


def is_regular(matrix: TransitionMatrix, k_max: Optional[int] = None) -> RegularityResult:
    """Check whether some power of the chain is entrywise positive.

    Returns the smallest such exponent as the witness.  Powers are tracked on
    the zero/nonzero pattern only (regularity depends on nothing else), which
    avoids float underflow masking positivity at large exponents; a repeated
    pattern proves the chain can never become positive, so the search usually
    stops long before the default Wielandt bound m^2 - 2m + 2.  Pattern
    products run as float32 matrix products of 0/1 matrices: an entry is a
    sum of ones, positive exactly when the boolean product is true.
    """
    if k_max is None:
        k_max = wielandt_bound(matrix.m)
    step = (matrix.entries > 0).astype(np.float32)
    pattern = step > 0
    seen = set()
    for k in range(1, k_max + 1):
        if pattern.all():
            return RegularityResult(True, k)
        key = np.packbits(pattern).tobytes()
        if key in seen:
            return RegularityResult(False, None)
        seen.add(key)
        pattern = (pattern.astype(np.float32) @ step) > 0
    return RegularityResult(False, None)
