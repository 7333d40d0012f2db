"""The benchmark's own numpy references, written independently of netrank.

Networks are held as edge arrays (follower index, followed index) over n
nodes.  A node with no out-edges is patched to link to every node, diagonal
included, as the package documents.  Nothing here imports netrank.
"""

from __future__ import annotations

import csv
from math import gcd

import numpy as np

# Scores are printed with 10 significant digits, so a correct score read
# back differs from the reference by up to 5e-10 of itself; RTOL leaves 20x
# room above that.  Power iteration run to a successive-difference
# tolerance of 1e-12 adds an absolute error of order 1e-11, covered by
# POWER_ATOL with 100x room.
RTOL = 1e-8
POWER_ATOL = 1e-9


def out_degrees(n: int, src: np.ndarray) -> np.ndarray:
    return np.bincount(src, minlength=n).astype(float)


def dense_patched(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    a = np.zeros((n, n))
    a[src, dst] = 1.0
    a[out_degrees(n, src) == 0] = 1.0
    return a


def pagerank_solve(n: int, src, dst, alpha: float) -> np.ndarray:
    """Solve (I - alpha P) x = (1 - alpha)/n * 1 with P the patched chain."""
    a = dense_patched(n, src, dst)
    system = -alpha * (a.T / a.sum(axis=1))
    system[np.diag_indices(n)] += 1.0
    x = np.linalg.solve(system, np.full(n, (1.0 - alpha) / n))
    return x / x.sum()


def augmented_adjacency(n: int, src, dst, epsilon: float) -> np.ndarray:
    """(n+1)-state adjacency: hub in-weights eps/2 * r_i / S, hub row all ones."""
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = dense_patched(n, src, dst)
    r = aug[:n, :n].sum(axis=1)
    aug[:n, n] = 0.5 * epsilon * r / r.sum()
    aug[n, :n] = 1.0
    return aug


def markovrank_solve(n: int, src, dst, epsilon: float) -> np.ndarray:
    """Stationary vector of the augmented chain by one direct solve, hub dropped."""
    aug = augmented_adjacency(n, src, dst, epsilon)
    system = aug.T / aug.sum(axis=1)
    system[np.diag_indices(n + 1)] -= 1.0
    system[n] = 1.0  # replace one balance equation by the normalisation
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    x = np.linalg.solve(system, rhs)[:n]
    return x / x.sum()


def _chain_apply(n, src, dst, x, deg):
    """P x for the patched column-stochastic chain, without a dense matrix."""
    safe = np.where(deg > 0, deg, 1.0)
    y = np.bincount(dst, weights=x[src] / safe[src], minlength=n)
    return y + x[deg == 0].sum() / n


def pagerank_residual(n, src, dst, alpha, x) -> float:
    """||G x - x||_1 / ||x||_1 for the damped chain G."""
    deg = out_degrees(n, src)
    gx = alpha * _chain_apply(n, src, dst, x, deg) + (1.0 - alpha) / n * x.sum()
    return float(np.abs(gx - x).sum() / np.abs(x).sum())


def markovrank_residual(n, src, dst, epsilon, x) -> float:
    """Residual on the augmented chain, the hub value taken from its balance."""
    deg = out_degrees(n, src)
    r = np.where(deg > 0, deg, n)  # patched row sums
    w = 0.5 * epsilon * r / r.sum()
    rs = r + w
    hub = float((w * x / rs).sum())
    y = np.bincount(dst, weights=x[src] / rs[src], minlength=n)
    y += (x[deg == 0] / rs[deg == 0]).sum() + hub / n
    # the hub's own balance holds by the choice of its value
    return float(np.abs(y - x).sum() / (np.abs(x).sum() + hub))


# --- score files ----------------------------------------------------------

def read_scores(path) -> tuple[list[str], np.ndarray]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [r["label"] for r in rows], np.array([float(r["score"]) for r in rows])


def write_scores(path, labels, scores) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("label,score,rank\n")
        fh.writelines(f"{l},{s:.10g},0\n" for l, s in zip(labels, scores))


def check_scores(path, labels, ref, atol: float) -> tuple[bool, float, str]:
    """Compare a score file with a reference vector: (ok, max rel. error, why)."""
    try:
        got_labels, got = read_scores(path)
    except (OSError, KeyError, ValueError) as exc:
        return False, float("inf"), f"unreadable score file: {exc}"
    if got_labels != list(labels):
        return False, float("inf"), "labels differ from the input order"
    err = np.abs(got - ref)
    rel = float((err / np.abs(ref)).max())
    bad = err > atol + RTOL * np.abs(ref)
    if bad.any():
        i = int(np.argmax(bad))
        return False, rel, f"score of {labels[i]} is {got[i]!r}, reference {ref[i]!r}"
    return True, rel, ""


# --- rank relations (pairwise definitions, tie tolerance chained) ----------

def average_ranks(v: np.ndarray, tie_tol: float) -> np.ndarray:
    order = np.argsort(v, kind="stable")
    cuts = np.flatnonzero(np.diff(v[order]) > tie_tol) + 1
    starts, stops = np.r_[0, cuts], np.r_[cuts, len(v)]
    ranks = np.empty(len(v))
    ranks[order] = np.repeat((starts + stops + 1) / 2.0, stops - starts)
    return ranks


def refines(rx: np.ndarray, ry: np.ndarray) -> bool:
    """rx_i <= rx_j implies ry_i <= ry_j for every pair (i, j)."""
    order = np.lexsort((ry, rx))
    sx, sy = rx[order], ry[order]
    same_x = sx[1:] == sx[:-1]
    return bool((np.diff(sy) >= 0).all() and (sy[1:][same_x] == sy[:-1][same_x]).all())


def compare_lines(x: np.ndarray, y: np.ndarray, tie_tol: float) -> list[str]:
    rx, ry = average_ranks(x, tie_tol), average_ranks(y, tie_tol)
    fx, fy = refines(rx, ry), refines(ry, rx)
    return [
        f"agreement_count: {int((rx == ry).sum())}",
        f"identical: {str(fx and fy).lower()}",
        f"a_finer_b: {str(fx).lower()}",
        f"b_finer_a: {str(fy).lower()}",
    ]


# --- SplitMix64 stream and block matrices ---------------------------------

_U64 = 2**64 - 1


def splitmix_uniforms(seed: int, first: int, count: int) -> np.ndarray:
    """Uniforms first..first+count-1 (0-based) of the documented stream.

    Output k (1-based) mixes seed + k * 0x9E3779B97F4A7C15 (mod 2^64) with the
    xor-shift/multiply finalizer and keeps the top 53 bits.
    """
    k = np.arange(first + 1, first + count + 1, dtype=np.uint64)
    z = np.uint64(seed & _U64) + k * np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)) * (1.0 / 2.0**53)


def block_matrix(grid, seed: int) -> np.ndarray:
    """0/1 block matrix: one draw per cell, blocks in grid order, zero diagonal."""
    heights = [row[0][0] for row in grid]
    widths = [cell[1] for cell in grid[0]]
    out = np.zeros((sum(heights), sum(widths)), dtype=np.uint8)
    used = 0
    r0 = 0
    for row, h in zip(grid, heights):
        c0 = 0
        for (_, _, p), w in zip(row, widths):
            u = splitmix_uniforms(seed, used, h * w).reshape(h, w)
            out[r0 : r0 + h, c0 : c0 + w] = u < p
            used += h * w
            c0 += w
        r0 += h
    np.fill_diagonal(out, 0)
    return out


def read_01_csv(path) -> np.ndarray:
    """Parse a dense CSV whose every entry is the single digit 0 or 1."""
    with open(path, "rb") as fh:
        rows = fh.read().split()
    n = len(rows)
    flat = np.frombuffer(b"".join(rows), dtype=np.uint8)
    if flat.size != n * (2 * n - 1):
        raise ValueError(f"not a square 0/1 grid of {n} rows")
    cells = flat.reshape(n, 2 * n - 1)
    if (cells[:, 1::2] != ord(",")).any() or not np.isin(cells[:, ::2], (48, 49)).all():
        raise ValueError("entries other than 0 and 1")
    return cells[:, ::2] - 48


# --- regularity -------------------------------------------------------------

def _bfs_levels(adj: np.ndarray, start: int) -> np.ndarray:
    level = np.full(adj.shape[0], -1)
    level[start] = 0
    frontier = np.zeros(adj.shape[0], dtype=bool)
    frontier[start] = True
    d = 0
    while frontier.any():
        d += 1
        reached = (frontier.astype(np.float32) @ adj) > 0
        frontier = reached & (level < 0)
        level[frontier] = d
    return level


def regularity(adj: np.ndarray) -> bool:
    """Whether the patched chain of a 0/1 adjacency is regular.

    A finite chain is regular exactly when it is irreducible and aperiodic;
    the period is the gcd of level(i) + 1 - level(j) over edges i -> j of a
    breadth-first search tree's levels (Denardo 1977).
    """
    a = np.array(adj, dtype=np.float32)
    a[a.sum(axis=1) == 0] = 1.0
    forward, backward = _bfs_levels(a, 0), _bfs_levels(a.T.copy(), 0)
    if (forward < 0).any() or (backward < 0).any():
        return False
    i, j = np.nonzero(a)
    period = 0
    for d in np.unique(np.abs(forward[i] + 1 - forward[j])):
        period = gcd(period, int(d))
    return period == 1


def is_witness(adj: np.ndarray, k: int) -> bool:
    """True when the k-th pattern power is all positive and the (k-1)-th is not.

    The chain's pattern is the transpose of the patched adjacency, so its
    powers are all positive exactly when the adjacency's powers are.
    """
    step = np.array(adj, dtype=np.float32)
    step[step.sum(axis=1) == 0] = 1.0
    prev, power = None, step
    for _ in range(k - 1):
        prev, power = power, ((power @ step) > 0).astype(np.float32)
    return bool(power.all()) and (prev is None or not prev.all())
