"""Seeded random-network generators and parameter-sweep harnesses.

Randomness comes from SplitMix64 so that generated matrices are reproducible
from (shape, densities, seed) alone, independent of platform or numpy
version: output k of stream `seed` is obtained by mixing the 64-bit state
seed + (k+1) * 0x9E3779B97F4A7C15 through the standard xor-shift/multiply
finalizer, and uniforms take the top 53 bits.  Bernoulli sampling consumes
exactly one draw per matrix cell in row-major order (zero-density blocks
included), so generator output is a pure function of the documented inputs.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .graph_core import AdjacencyMatrix
from . import rank_stats
from .eigenrank import DegenerateVectorError, MultiplicityError, _hub_alpha, pagerank

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

BASELINE_ALPHA = 0.85
BASELINE_EPSILON = 1.0
DEFAULT_ALPHAS = (0.8, 0.85, 0.9, 0.95, 1.0)
DEFAULT_EPSILONS = (0.0, 0.1, 0.5, 1.0)


class SplitMix64:
    """Sequential uniform stream over the SplitMix64 output function."""

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & (2**64 - 1))
        self._position = 0

    def uniforms(self, count: int) -> np.ndarray:
        """Next `count` uniforms in [0, 1), consumed in index order."""
        idx = np.arange(self._position + 1, self._position + count + 1, dtype=np.uint64)
        self._position += count
        z = self._seed + idx * _GAMMA
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        z = z ^ (z >> np.uint64(31))
        return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53


def gen_er(n: int, p: float, seed: int) -> AdjacencyMatrix:
    """Random directed network: each off-diagonal entry is 1 with probability p."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability must be in [0, 1], got {p}")
    return gen_block(BlockSpec((((n, n, p),),), seed=seed))


@dataclass(frozen=True)
class BlockSpec:
    """Grid of (rows, cols, density) cells assembling a square block matrix.

    `blocks` is the grid in row-major order: all cells in a grid row share
    their row count, all cells in a grid column share their column count, and
    the row heights must total the same n as the column widths.
    """

    blocks: tuple[tuple[tuple[int, int, float], ...], ...]
    zero_diagonal: bool = True
    seed: int = 0

    def __post_init__(self):
        grid = tuple(tuple(tuple(cell) for cell in row) for row in self.blocks)
        if not grid or any(not row for row in grid):
            raise ValueError("block grid must be non-empty")
        ncols = len(grid[0])
        if any(len(row) != ncols for row in grid):
            raise ValueError("block grid rows must have equal cell counts")
        for row in grid:
            for rows, cols, p in row:
                if rows < 1 or cols < 1:
                    raise ValueError(f"block dimensions must be positive, got {rows}x{cols}")
                if not 0 <= p <= 1:
                    raise ValueError(f"block density must be in [0, 1], got {p}")
        heights = [row[0][0] for row in grid]
        widths = [cell[1] for cell in grid[0]]
        for i, row in enumerate(grid):
            if any(cell[0] != heights[i] for cell in row):
                raise ValueError(f"grid row {i} mixes block heights")
        for j in range(ncols):
            if any(row[j][1] != widths[j] for row in grid):
                raise ValueError(f"grid column {j} mixes block widths")
        if sum(heights) != sum(widths):
            raise ValueError(
                f"blocks tile {sum(heights)}x{sum(widths)}, which is not square"
            )
        object.__setattr__(self, "blocks", grid)

    @property
    def n(self) -> int:
        return sum(row[0][0] for row in self.blocks)


def gen_block(spec: BlockSpec) -> AdjacencyMatrix:
    """Assemble a random block matrix; cells are sampled in grid order."""
    n = spec.n
    entries = np.zeros((n, n))
    stream = SplitMix64(spec.seed)
    r0 = 0
    for row in spec.blocks:
        c0 = 0
        for rows, cols, p in row:
            u = stream.uniforms(rows * cols)
            entries[r0 : r0 + rows, c0 : c0 + cols] = (u < p).astype(float).reshape(rows, cols)
            c0 += cols
        r0 += row[0][0]
    if spec.zero_diagonal:
        np.fill_diagonal(entries, 0.0)
    return AdjacencyMatrix.from_entries(entries)


@dataclass(frozen=True)
class SweepRecord:
    """Comparison of one grid point against its family baseline."""

    family: str  # "pagerank" | "markovrank"
    parameter: float
    baseline: float
    multiplicity_failure: bool
    degenerate_warning: bool
    agreement: Optional[int] = None
    identical: Optional[bool] = None
    point_finer_baseline: Optional[bool] = None
    baseline_finer_point: Optional[bool] = None


@dataclass(frozen=True)
class SweepReport:
    n: int
    alphas: tuple[float, ...]
    epsilons: tuple[float, ...]
    records: tuple[SweepRecord, ...]

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "alphas": list(self.alphas),
            "epsilons": list(self.epsilons),
            "baseline_alpha": BASELINE_ALPHA,
            "baseline_epsilon": BASELINE_EPSILON,
            "records": [vars(r) for r in self.records],
        }
        return json.dumps(payload, indent=2)

    def to_csv(self) -> str:
        out = io.StringIO()
        names = [f.name for f in fields(SweepRecord)]
        writer = csv.DictWriter(out, names, lineterminator="\n")
        writer.writeheader()
        for r in self.records:
            # csv writes None as an empty field
            writer.writerow(
                {**vars(r), "parameter": f"{r.parameter:g}", "baseline": f"{r.baseline:g}"}
            )
        return out.getvalue()


def _sweep_family(family, solve, grid, baseline_param, tie_tol):
    baseline = solve(baseline_param)
    if isinstance(baseline, Exception):
        raise baseline
    records = []
    for param in grid:
        point = solve(param)
        if isinstance(point, Exception):
            records.append(
                SweepRecord(family, float(param), baseline_param, True, False)
            )
            continue
        point_finer = rank_stats.is_finer(point, baseline, tie_tol)
        baseline_finer = rank_stats.is_finer(baseline, point, tie_tol)
        records.append(
            SweepRecord(
                family,
                float(param),
                baseline_param,
                False,
                point.degenerate,
                agreement=rank_stats.agreement_count(point, baseline, tie_tol),
                identical=point_finer and baseline_finer,
                point_finer_baseline=point_finer,
                baseline_finer_point=baseline_finer,
            )
        )
    return records


def invariance_sweep(
    adj: AdjacencyMatrix,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    tie_tol: float = rank_stats.DEFAULT_TIE_TOL,
) -> SweepReport:
    """Rank-statistic comparison of both rankings over parameter grids.

    Each grid point is compared against the family baseline (alpha = 0.85,
    epsilon = 1).  Grid-point failures (no unique fixed point, degenerate
    eigenvector) are recorded in the report rather than raised.  Both
    families are one damped family: epsilon maps to alpha = 2S / (2S + eps)
    (see markovrank).  Each distinct alpha is ranked once, by the exact
    pagerank.
    """
    solved = {}  # alpha -> ScoreVector, or the error its solve raised

    def solve(alpha):
        if alpha not in solved:
            try:
                solved[alpha] = pagerank(adj, alpha)
            except (MultiplicityError, DegenerateVectorError) as exc:
                solved[alpha] = exc
        return solved[alpha]

    records = _sweep_family("pagerank", solve, alphas, BASELINE_ALPHA, tie_tol)
    records += _sweep_family(
        "markovrank", lambda e: solve(_hub_alpha(adj, e)), epsilons, BASELINE_EPSILON, tie_tol
    )
    return SweepReport(adj.n, tuple(alphas), tuple(epsilons), tuple(records))
