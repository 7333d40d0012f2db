"""Ranking vectors: fixed-point eigenvectors, power iteration, and the two rankings.

The exact method finds the eigenvalue-1 eigenspace of a column-stochastic
matrix as the null space of (M - I) by Gaussian elimination with
thresholded partial pivoting; because eigenvalue 1 of a stochastic matrix
is semisimple, the null-space dimension equals the eigenvalue's
multiplicity.  The elimination is blocked (eigenvalue_one_space describes
how), but every decision is that of the column-by-column loop.  Exact
rankings eliminate in the one n x n array where they build the damped
chain.  The power method iterates x_k = M x_{k-1} to the same fixed point
on regular chains; rankings apply the damped M from the adjacency's edges.

markovrank is not solved on the (n+1)-state augmented chain: eliminating its
hub state (stochastic complementation, Meyer, SIAM Review 31(2), 1989) shows
markovrank(A, epsilon) = pagerank(A, 2S / (2S + epsilon)), S the total weight
of the patched adjacency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .graph_core import AdjacencyMatrix, _frozen, default_labels
from .chain_builder import (TransitionMatrix, _check_alpha, _check_epsilon, _damp,
                            _damped_operator, _generalized_inverse)

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
    """Power iteration hit max_iterations, or alternated `step` apart; carries the last iterate."""

    def __init__(self, last_iterate: np.ndarray, iterations: int, tolerance: float, step=None):
        where = f"within {iterations} iterations"
        if step is not None:
            where = f"at iteration {iterations}: it alternates between iterates {step:.3g} apart"
        super().__init__(f"power iteration did not reach tolerance {tolerance:g} {where}")
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
        if not abs(v.sum() - 1.0) <= SCORE_SUM_TOL:  # NaN too
            raise ValueError(f"scores must sum to 1, got {float(v.sum())!r}")
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


@dataclass(frozen=True)
class PowerIterConfig:
    """Stopping rule for power iteration, which starts from the uniform vector.

    Iteration stops when the max-abs successive difference drops to
    `tolerance`.  The default, 1e-15, is tight enough for the 10 significant
    digits that the CLI prints.
    """

    tolerance: float = 1e-15
    max_iterations: int = 10**6

    def __post_init__(self):
        if not self.tolerance > 0:  # NaN too
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


# Columns per panel, the leaves of eigenvalue_one_space's recursive blocking
# (the in-panel rank-1 updates grow with the panel), and the width that bounds
# its product temporaries at (rows below) x _BLOCK.
_PANEL = 32
_BLOCK = 4 * _PANEL


def eigenvalue_one_space(matrix: TransitionMatrix) -> EigenSpace:
    """Null space of (M - I) with pivots below PIVOT_TOL*m treated as zero.

    Gaussian elimination with partial pivoting that skips (leaves free) a
    column whose largest remaining entry is at most PIVOT_TOL*m; the threshold
    scales with the dimension to mirror how close to 1 a second eigenvalue
    must be before the ranking is reported as ill-defined.  When the nullity
    is 1 the basis vector is returned unnormalized (arbitrary sign and scale).

    The elimination is blocked recursively (Toledo, SIAM J. Matrix Anal.
    Appl. 18(4), 1997), down to panels of 32 columns.  M - I has zero column
    sums and is column diagonally dominant, and its Schur complements stay
    so (the structure of GTH elimination: Grassmann, Taksar & Heyman, Oper.
    Res. 33(5), 1985), so partial pivoting nearly always takes the diagonal
    row.  A panel is therefore first factored without row swaps, and kept
    only if the pivot rule, checked with a margin, would take each diagonal
    row and free no column.  Every other panel (ties such as single-out-link
    nodes at alpha = 1, pivots near the threshold) and always the last is
    eliminated column by column: pivot search, a swap of whole rows of U,
    and a rank-1 update of the panel's columns right of the pivot.  As in
    getrf, each multiplier lives in U, in the entry it eliminates, so a swap
    moves it.  One loop over the panels unrolls the recursion: after panel
    p, the last k panels, k the lowest set bit of p + 1, are the finished
    left half of a group of 2k, and their pivots reach the next k panels'
    columns.  Their pivot rows are solved by block forward substitution with
    the inverses of the panels' unit lower triangles, and the rows below
    take products of rank up to 32k, over slices of rows, so that no product
    temporary is n x n.  A free column takes the pivots right of it only at
    nullity 1, in one forward pass before the back-substitution.  Each pivot
    is still chosen from fully updated values, so every decision, and with
    it the nullity and every MultiplicityError, is that of the unblocked
    column loop.
    """
    return _eliminate(matrix.entries.copy())


def _eliminate(U: np.ndarray) -> EigenSpace:
    """eigenvalue_one_space in U, a fresh m x m chain array that it overwrites.

    U is C-ordered like eigenvalue_one_space's copy: the layout rounds the back-substitution.
    """
    m = U.shape[0]
    threshold = PIVOT_TOL * m
    np.fill_diagonal(U, U.diagonal() - 1.0)  # M - I without an m x m identity
    pivots: list[int] = []  # the column of the pivot in row i
    panels = []  # (first pivot row, unit lower inverse) of each panel
    r = 0
    for p, c0 in enumerate(range(0, m, _PANEL)):
        c1 = min(c0 + _PANEL, m)
        r0 = r
        # a unique ranking leaves its free column in the last panel: the column loop finds it
        if c1 < m and _panel_without_swaps(U, r, c0, c1, threshold):
            pivots += range(c0, c1)
            r += c1 - c0
        else:
            for c in range(c0, c1):
                i = int(np.argmax(np.abs(U[r:, c]))) + r
                if abs(U[i, c]) <= threshold:  # a free column
                    continue
                if i != r:
                    U[[r, i]] = U[[i, r]]
                U[r + 1 :, c] /= U[r, c]
                U[r + 1 :, c + 1 : c1] -= U[r + 1 :, c, None] * U[r, c + 1 : c1]
                pivots.append(c)
                r += 1
        triangle = U[r0:r, _multipliers(pivots[r0:])]
        panels.append((r0, np.linalg.inv(np.tril(triangle, -1) + np.eye(r - r0))))
        k = (p + 1) & -(p + 1)  # the last k panels are the left half of a group of 2k
        if c1 < m and r > panels[-k][0]:
            _apply_pivots(U, pivots, panels[-k:], r, slice(c1, c1 + k * _PANEL))
    nullity = m - r
    if nullity != 1:
        return EigenSpace(nullity, None)
    f = next((i for i, c in enumerate(pivots) if c != i), r)  # the free column
    for row, c in enumerate(pivots[f:], f):  # the pivots right of it, which skipped it
        U[row + 1 :, f] -= U[row + 1 :, c] * U[row, f]
    x = np.zeros(m)
    x[f] = 1.0
    for row, c in reversed([*enumerate(pivots)]):
        x[c] = -(U[row] @ x) / U[row, c]
    return EigenSpace(1, x)


# _panel_without_swaps keeps a panel only with this much room on each test of
# the pivot rule, so that rounding cannot turn a decision of the column loop.
_RULE_MARGIN = 1e-9


def _panel_without_swaps(U: np.ndarray, r: int, c0: int, c1: int, threshold: float) -> bool:
    """Factor panel c0..c1-1 from row r with no row swap, if partial pivoting would make none.

    Factors a copy of the diagonal block U[r:r+w, c0:c1] without pivoting;
    the multipliers below it are the rows under the block times the inverse
    of its upper triangle.  The panel is kept only if every multiplier has
    |l| < 1 - _RULE_MARGIN and every pivot exceeds (1 + _RULE_MARGIN) *
    threshold: the column loop would then take each diagonal row (argmax
    returns the first maximum) and free no column, so the decisions are the
    same and only the rounding differs.  Kept, the factored block and the
    multipliers below it go to the panel's columns of U, and it returns
    True; refused, it returns False and has written nothing.
    """
    w = c1 - c0
    block = U[r : r + w, c0:c1].copy()
    top, floor = 1.0 - _RULE_MARGIN, (1.0 + _RULE_MARGIN) * threshold
    # the multipliers are tested after the loop: one past 1 may grow the rest to inf
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(w):
            if not abs(block[j, j]) > floor:
                return False
            block[j + 1 :, j] /= block[j, j]
            block[j + 1 :, j + 1 :] -= np.multiply.outer(block[j + 1 :, j], block[j, j + 1 :])
    upper = np.triu(block)
    if not (np.abs(block - upper) < top).all():  # the multipliers, zeros elsewhere
        return False
    below = U[r + w :, c0:c1] @ np.linalg.inv(upper)
    if not (np.abs(below) < top).all():
        return False
    U[r : r + w, c0:c1] = block
    U[r + w :, c0:c1] = below
    return True


def _multipliers(pivots: list[int]) -> slice | list[int]:
    """The columns of U that hold these pivots' multipliers: a slice, or the list itself if a free column splits them."""
    if pivots and pivots[-1] - pivots[0] < len(pivots):
        return slice(pivots[0], pivots[-1] + 1)
    return pivots


def _apply_pivots(U: np.ndarray, pivots: list[int], panels, r: int, cols: slice) -> None:
    """Eliminate, in columns `cols` of U, with the pivots of these panels, rows panels[0][0]..r-1.

    `panels` holds the first row and unit lower inverse of each panel.  The
    pivot rows are solved by block forward substitution, one product with
    each inverse (for 32 x m right-hand sides, ~10x faster than
    np.linalg.solve), and the rows below take products with all the
    multipliers, read from U in slices of rows small enough that no product
    temporary exceeds (m - r) x _BLOCK.
    """
    r0 = panels[0][0]
    L = _multipliers(pivots[r0:r])
    top = U[r0:r, cols]
    for p0, inverse in panels:
        j, k = p0 - r0, len(inverse)
        if j:
            top[j : j + k] -= U[p0 : p0 + k, L][:, :j] @ top[:j]
        top[j : j + k] = inverse @ top[j : j + k]
    h = max(1, _BLOCK * (len(U) - r) // max(1, top.shape[1]))
    for i in range(r, len(U), h):
        U[i : i + h, cols] -= U[i : i + h, L] @ top


def stationary_power(
    matrix: TransitionMatrix, cfg: PowerIterConfig = PowerIterConfig()
) -> ScoreVector:
    """Iterate x_k = M x_{k-1} from the uniform vector until successive iterates agree.

    The scores are labelled "1".."m".  Raises NonConvergenceError (carrying
    the last iterate) if max_iterations is exhausted or the iterates
    alternate, as happens on periodic non-regular chains.
    """
    return _iterate(matrix.entries.__matmul__, default_labels(matrix.m), cfg)


def _iterate(
    step: Callable[[np.ndarray], np.ndarray], labels: tuple[str, ...], cfg: PowerIterConfig
) -> ScoreVector:
    """Iterate x_k = step(x_{k-1}) on one state per label, from the uniform vector.

    The loop of stationary_power and of power rankings: it stops when the
    max-abs successive difference reaches cfg.tolerance and raises
    NonConvergenceError after cfg.max_iterations steps, or at once when an
    iterate repeats the one two steps before (a periodic chain, or rounding
    that alternates above the tolerance), as it then would for ever.
    """
    x = x_back = np.full(len(labels), 1.0 / len(labels))
    diff_back = None
    for k in range(1, cfg.max_iterations + 1):
        x_next = step(x)
        diff = np.abs(x_next - x).max()
        if diff <= cfg.tolerance:
            return ScoreVector(x_next, labels, iterations=k)
        if diff == diff_back and np.array_equal(x_next, x_back):  # arrays only if the step repeats
            raise NonConvergenceError(x_next, k, cfg.tolerance, diff)
        x, x_back, diff_back = x_next, x, diff
    raise NonConvergenceError(x, cfg.max_iterations, cfg.tolerance)


def _normalize_scores(vector: np.ndarray, labels: tuple[str, ...]) -> ScoreVector:
    s = vector.sum()
    if abs(s) <= 1e-12 * max(np.abs(vector).max(), 1e-300):
        raise DegenerateVectorError("degenerate eigenvector: entry sum is zero")
    return ScoreVector(vector / s + 0.0, labels)  # + 0.0: a -0.0 score prints as 0


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
    damped chain.

    method="exact" builds and damps the chain in one n x n array, from the
    edges of an edge-backed adjacency, and eliminates in it, with no copy and
    no n x n temporary; it raises MultiplicityError when the eigenspace is
    not one-dimensional, which can happen only at alpha = 1 or within the
    pivot tolerance of it.  method="power" builds no n x n array:
    it applies the damped chain from the adjacency's edges, with zero rows
    as a rank-one dangling term, and iterates to the fixed point (cfg, by
    default PowerIterConfig()); it raises NonConvergenceError on periodic chains.
    """
    if method == "exact":
        _check_alpha(alpha)  # before the n x n chain is allocated
        chain = _generalized_inverse(adj, np.zeros((adj.n, adj.n)))
        space = _eliminate(_damp(chain, alpha))
        if space.multiplicity != 1:
            raise MultiplicityError(space.multiplicity)
        return _normalize_scores(space.vector, adj.labels)
    if method == "power":
        return _iterate(_damped_operator(adj, alpha), adj.labels, cfg or PowerIterConfig())
    raise ValueError(f"method must be 'exact' or 'power', got {method!r}")


def _hub_alpha(adj: AdjacencyMatrix, epsilon: float) -> float:
    """alpha = 2S / (2S + epsilon), S the total weight of the patched adjacency.

    Each zero row patches to n ones, so S comes from the out-degrees alone.
    """
    _check_epsilon(epsilon)
    out = adj._out_degrees
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
