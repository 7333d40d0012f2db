"""Ranking vectors: fixed-point eigenvectors, power iteration, and the two rankings.

The exact method finds the eigenvalue-1 eigenspace of a column-stochastic
matrix as the null space of (M - I) by Gaussian elimination with a pivot
threshold; because eigenvalue 1 of a stochastic matrix is semisimple, the
null-space dimension equals the eigenvalue's multiplicity.  The elimination
is blocked like LAPACK's getrf (column-by-column pivoting inside 32-column
panels, one triangular solve and one matrix product per panel for the other
columns), with the pivot rule of the plain column-by-column elimination.
The power method iterates x_k = M x_{k-1} to the same fixed point on
regular chains.

markovrank is not solved on the (n+1)-state augmented chain: eliminating its
hub state (stochastic complementation, Meyer, SIAM Review 31(2), 1989) shows
markovrank(A, epsilon) = pagerank(A, 2S / (2S + epsilon)), S the total weight
of the patched adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graph_core import AdjacencyMatrix, _adopt, _frozen, default_labels
from .chain_builder import TransitionMatrix, _damp, _generalized_inverse

# Scores at or below this (including any negative score) mark a result as
# numerically degenerate: the chain was solved at an unstable parameter.
DEGENERATE_SCORE = 1e-12

SCORE_SUM_TOL = 1e-9

# eigenvalue_one_space treats pivots at most PIVOT_TOL * m as zero.
PIVOT_TOL = 1e-5


class MultiplicityError(Exception):
    """The eigenvalue-1 eigenspace is not one-dimensional, so no unique ranking exists."""

    def __init__(self, multiplicity: int):
        super().__init__(
            f"The multiplicity of the eigenvalue 1 is not one (got {multiplicity})"
        )
        self.multiplicity = multiplicity


class NonConvergenceError(Exception):
    """Power iteration hit max_iterations; carries the last iterate."""

    def __init__(self, last_iterate: np.ndarray, iterations: int, tolerance: float):
        super().__init__(
            f"power iteration did not reach tolerance {tolerance:g} "
            f"within {iterations} iterations"
        )
        self.last_iterate = last_iterate
        self.iterations = iterations


class DegenerateVectorError(Exception):
    """The fixed-point eigenvector sums to zero and cannot be normalized."""


@dataclass(frozen=True, eq=False)
class ScoreVector:
    """Non-negative scores summing to 1, one per labelled node.

    `degenerate` is true when any score is <= 1e-12 or negative, the signature
    of solving at an unstable parameter (the scores are still returned).
    `iterations` is filled by the power method only.
    """

    values: np.ndarray
    labels: tuple[str, ...]
    iterations: Optional[int] = None

    def __post_init__(self):
        v = _frozen(self.values)
        labels = tuple(self.labels)
        if v.ndim != 1 or len(labels) != v.shape[0]:
            raise ValueError(f"{len(labels)} labels for {v.shape} values")
        if abs(v.sum() - 1.0) > SCORE_SUM_TOL:
            raise ValueError(f"scores must sum to 1, got {v.sum()!r}")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def degenerate(self) -> bool:
        return bool((self.values <= DEGENERATE_SCORE).any())


@dataclass(frozen=True, eq=False)
class EigenSpace:
    """Dimension of the eigenvalue-1 eigenspace and, when it is 1, a basis vector."""

    multiplicity: int
    vector: Optional[np.ndarray]
    tolerance_used: float


@dataclass(frozen=True)
class PowerIterConfig:
    """Stopping rule for power iteration.

    Iteration stops when the max-abs successive difference drops to
    `tolerance`.  `initial` must sum to 1; None means uniform.
    """

    tolerance: float = 1e-6
    max_iterations: int = 10**6
    initial: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


# Columns per panel of the blocked elimination in eigenvalue_one_space: the
# in-panel rank-1 updates grow with the width, the matrix products do not.
_PANEL = 32


def eigenvalue_one_space(matrix: TransitionMatrix) -> EigenSpace:
    """Null space of (M - I) with pivots below PIVOT_TOL*m treated as zero.

    Gaussian elimination with partial pivoting that skips (leaves free) a
    column whose largest remaining entry is at most PIVOT_TOL*m; the threshold
    scales with the dimension to mirror how close to 1 a second eigenvalue
    must be before the ranking is reported as ill-defined.  When the nullity
    is 1 the basis vector is returned unnormalized (arbitrary sign and scale).

    The elimination is blocked, as in LAPACK's getrf.  Each panel of 32
    columns is eliminated column by column: pivot search, full-row swap and
    a rank-1 update of the panel's columns only.  The panel's pivots then
    reach every other non-pivot column (the columns right of the panel and
    the free columns left of it) by one triangular solve and one matrix
    product.  Each pivot is still chosen from fully updated values, so the
    pivot rule, and with it the nullity and every MultiplicityError, is that
    of the unblocked column-by-column elimination.
    """
    m = matrix.m
    threshold = PIVOT_TOL * m
    U = matrix.entries.copy()
    np.fill_diagonal(U, U.diagonal() - 1.0)  # M - I without an m x m identity
    L = np.empty((m, _PANEL))  # multipliers of the current panel, by pivot
    pivot_rows: list[tuple[int, int]] = []
    free: list[int] = []
    r = 0
    for c0 in range(0, m, _PANEL):
        c1 = min(c0 + _PANEL, m)
        r0, free_left = r, list(free)
        for c in range(c0, c1):
            i = int(np.argmax(np.abs(U[r:, c]))) + r
            if abs(U[i, c]) <= threshold:
                free.append(c)
                continue
            if i != r:
                U[[r, i]] = U[[i, r]]
                L[[r, i], : r - r0] = L[[i, r], : r - r0]
            L[r + 1 :, r - r0] = U[r + 1 :, c] / U[r, c]
            # from c0, not c: free columns of this panel keep their updates
            U[r + 1 :, c0:c1] -= L[r + 1 :, r - r0, None] * U[r, c0:c1]
            pivot_rows.append((r, c))
            r += 1
        if r > r0:
            if free_left:
                _apply_panel(U, L, r0, r, free_left)
            _apply_panel(U, L, r0, r, slice(c1, m))
    nullity = m - r
    if nullity != 1:
        return EigenSpace(nullity, None, threshold)
    x = np.zeros(m)
    x[free[0]] = 1.0
    for row, c in reversed(pivot_rows):
        x[c] = -(U[row] @ x) / U[row, c]
    return EigenSpace(1, x, threshold)


def _apply_panel(U: np.ndarray, L: np.ndarray, r0: int, r: int, cols) -> None:
    """Eliminate, in columns `cols` of U, with the pivots of rows r0..r-1.

    L[:, :r - r0] holds their multipliers: the pivot rows take a forward
    solve with the unit lower triangle, the rows below one matrix product.
    """
    k = r - r0
    top = np.linalg.solve(np.tril(L[r0:r, :k], -1) + np.eye(k), U[r0:r, cols])
    U[r0:r, cols] = top
    U[r:, cols] -= L[r:, :k] @ top


def stationary_power(
    matrix: TransitionMatrix,
    cfg: PowerIterConfig = PowerIterConfig(),
    labels: Optional[Sequence[str]] = None,
) -> ScoreVector:
    """Iterate x_k = M x_{k-1} until successive iterates agree within tolerance.

    Raises NonConvergenceError (carrying the last iterate) if max_iterations
    is exhausted, as happens on periodic non-regular chains.
    """
    m = matrix.m
    if cfg.initial is None:
        x = np.full(m, 1.0 / m)
    else:
        x = np.asarray(cfg.initial, dtype=float)
        if x.shape != (m,):
            raise ValueError(f"initial vector has shape {x.shape}, chain has {m} states")
        if abs(x.sum() - 1.0) > SCORE_SUM_TOL:
            raise ValueError("initial vector must sum to 1")
    M = matrix.entries
    for k in range(1, cfg.max_iterations + 1):
        x_next = M @ x
        diff = np.abs(x_next - x).max()
        x = x_next
        if diff <= cfg.tolerance:
            return ScoreVector(
                x, tuple(labels) if labels is not None else default_labels(m), iterations=k
            )
    raise NonConvergenceError(x, cfg.max_iterations, cfg.tolerance)


def _normalize_scores(vector: np.ndarray, labels: tuple[str, ...]) -> ScoreVector:
    s = vector.sum()
    if abs(s) <= 1e-12 * max(np.abs(vector).max(), 1e-300):
        raise DegenerateVectorError("degenerate eigenvector: entry sum is zero")
    return ScoreVector(vector / s, labels)


def pagerank(
    adj: AdjacencyMatrix,
    alpha: float,
    method: str = "exact",
    cfg: Optional[PowerIterConfig] = None,
) -> ScoreVector:
    """Damped ranking of a directed network.

    The column-stochastic chain is built by the generalized inverse (zero
    rows go uniform, as if patched to all-ones), damped by alpha toward
    uniform, and the scores are the normalized fixed-point vector of the
    damped chain.  The chain is built and damped in one n x n array.

    method="exact" solves the eigenvalue-1 problem directly and raises
    MultiplicityError when the eigenspace is not one-dimensional, which can
    happen only at alpha = 1 or within the pivot tolerance of it.
    method="power" iterates to the fixed point (default tolerance 1e-15)
    and raises NonConvergenceError on periodic chains.
    """
    chain = TransitionMatrix(_adopt(_damp(_generalized_inverse(adj), alpha)))
    if method == "exact":
        space = eigenvalue_one_space(chain)
        if space.multiplicity != 1:
            raise MultiplicityError(space.multiplicity)
        return _normalize_scores(space.vector, adj.labels)
    if method == "power":
        # high-accuracy default for the ranking entry points
        cfg = cfg if cfg is not None else PowerIterConfig(tolerance=1e-15)
        return stationary_power(chain, cfg, labels=adj.labels)
    raise ValueError(f"method must be 'exact' or 'power', got {method!r}")


def _hub_alpha(adj: AdjacencyMatrix, epsilon: float) -> float:
    """alpha = 2S / (2S + epsilon), S the total weight of the patched adjacency.

    Each zero row patches to n ones, so S comes from the out-degrees alone.
    """
    if not 0 <= epsilon <= 1:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    out = adj.entries.sum(axis=1)
    total = out.sum() + adj.n * np.count_nonzero(out == 0)
    # 2S / (2S + eps) without the doubling, which could overflow
    return total / (total + epsilon / 2)


def markovrank(
    adj: AdjacencyMatrix,
    epsilon: float,
    method: str = "exact",
    cfg: Optional[PowerIterConfig] = None,
) -> ScoreVector:
    """Augmented-chain ranking of a directed network.

    The paper extends the patched adjacency with a hub node weighted by
    epsilon and drops the hub entry of the (n+1)-state fixed point; by hub
    elimination that vector is pagerank(adj, 2S / (2S + epsilon)), which is
    solved instead, so power `iterations` count n-state damped iterations.

    Methods and errors as for pagerank; MultiplicityError is possible only
    at epsilon = 0 (alpha = 1) or within the pivot tolerance of it.
    """
    return pagerank(adj, _hub_alpha(adj, epsilon), method, cfg)
