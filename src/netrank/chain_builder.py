"""Transition-matrix constructions and Markov-chain regularity checks.

All transition matrices here are column-stochastic: entry (j, i) is the
probability of moving from node i to node j, and probability vectors are
columns updated as x_k = M x_{k-1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph_core import AdjacencyMatrix, _adopt, _frozen

COLUMN_SUM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Column-stochastic matrix."""

    entries: np.ndarray

    def __post_init__(self):
        e = _frozen(self.entries)
        if e.ndim != 2 or e.shape[0] != e.shape[1] or e.shape[0] == 0:
            raise ValueError(f"transition matrix must be square, got shape {e.shape}")
        if (e < 0).any():
            raise ValueError("transition matrix entries must be non-negative")
        colsums = e.sum(axis=0)
        worst = np.abs(colsums - 1.0).max()
        if worst > COLUMN_SUM_TOL:
            raise ValueError(f"columns must sum to 1 (max deviation {worst:.3e})")
        object.__setattr__(self, "entries", e)

    @property
    def m(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class AugmentedAdjacency:
    """(n+1) x (n+1) adjacency extending a patched base with a hub node.

    The hub's incoming weights are (eps/2) * rowsum_i / totalsum of the base;
    its outgoing row is (1, ..., 1, 0).
    """

    base: AdjacencyMatrix
    epsilon: float
    entries: np.ndarray

    def __post_init__(self):
        n = self.base.n
        e = _frozen(self.entries)
        if e.shape != (n + 1, n + 1):
            raise ValueError(f"augmented matrix must be {(n + 1, n + 1)}, got {e.shape}")
        object.__setattr__(self, "entries", e)


def transition_from_patched(patched: AdjacencyMatrix) -> TransitionMatrix:
    """Transpose of the patched adjacency with each row scaled by its sum.

    Requires strictly positive row sums; patch zero rows first.
    """
    rowsums = patched.entries.sum(axis=1)
    if (rowsums == 0).any():
        bad = int(np.nonzero(rowsums == 0)[0][0])
        raise ValueError(f"row {bad} has zero sum; patch zero rows before building the chain")
    return TransitionMatrix(_adopt(patched.entries.T / rowsums))


def transition_generalized_inverse(adj: AdjacencyMatrix) -> TransitionMatrix:
    """Same chain built without patching, via the diagonal generalized inverse.

    With B = diag(out-degrees) and B- its entrywise reciprocal on nonzero
    entries, returns A^T B- + (1/n) * ones * (I - B B-): zero-out-degree
    nodes redistribute uniformly, all other columns are A^T B- as usual.
    Columns are divided by their out-degree, not multiplied by its
    reciprocal, so the result equals the patched route bit for bit.
    """
    return TransitionMatrix(_adopt(_generalized_inverse(adj)))


def _generalized_inverse(adj: AdjacencyMatrix) -> np.ndarray:
    """Fresh writable entries of transition_generalized_inverse(adj)."""
    deg = adj.entries.sum(axis=1)
    entries = adj.entries.T / np.where(deg > 0, deg, 1.0)
    entries[:, deg == 0] = 1.0 / adj.n
    return entries


def damped_transition(base: TransitionMatrix, alpha: float) -> TransitionMatrix:
    """Mix the chain with the uniform distribution: alpha*M + (1-alpha)/m."""
    # order="K" keeps the memory layout, and with it the rounding of M @ x
    return TransitionMatrix(_adopt(_damp(base.entries.copy(order="K"), alpha)))


def _damp(entries: np.ndarray, alpha: float) -> np.ndarray:
    """Damp a fresh m x m chain array in place, as damped_transition does."""
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    entries *= alpha
    entries += (1.0 - alpha) / entries.shape[0]
    return entries


def augment_adjacency(patched: AdjacencyMatrix, epsilon: float) -> AugmentedAdjacency:
    """Attach the hub node to a patched adjacency with mixing weight epsilon."""
    if not 0 <= epsilon <= 1:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    rowsums = patched.entries.sum(axis=1)
    if (rowsums == 0).any():
        raise ValueError("augmenting requires strictly positive row sums; patch first")
    n = patched.n
    entries = np.zeros((n + 1, n + 1))
    entries[:n, :n] = patched.entries
    entries[:n, n] = 0.5 * epsilon * rowsums / rowsums.sum()
    entries[n, :n] = 1.0
    return AugmentedAdjacency(patched, float(epsilon), _adopt(entries))


def transition_from_augmented(augmented: AugmentedAdjacency) -> TransitionMatrix:
    """Column-stochastic chain on the n+1 nodes of an augmented adjacency."""
    rowsums = augmented.entries.sum(axis=1)
    if (rowsums <= 0).any():
        raise ValueError("augmented matrix has a zero row sum")
    return TransitionMatrix(_adopt(augmented.entries.T / rowsums))


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
