"""The two workloads: inputs made from the seed, the operations of one pass,
and the check of every operation's output.

A workload's inputs are written by `generate` (in a set-up child process;
dense-exact uses netrank's own generators, so that set-up time includes
them) and its references by `references` (in a second child process, with
numpy only, so that neither shows in the workload process's peak memory).
The workload process then calls `load` and runs passes built by `ops`.

Every operation has a kind (pagerank, markovrank, compare, refuse, gen,
sweep, regular, periodic); the kind named by a workload's `main` is the one
its gated `main_call_s` metric times.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import reference as ref

TIE_TOL = 1e-9  # the CLI's default --tie-tol


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], tuple[bool, str]]
    output: Optional[Path] = None  # removed before the call, so a stale file cannot pass
    prepare: Optional[Callable[[], None]] = None  # untimed work the call needs


@dataclass
class Stats:
    """What the checks measured, beyond pass/fail."""

    ref_err_max: float = 0.0
    residual_l1_max: float = 0.0


def cli_call(argv: list[str]) -> Callable[[], tuple[int, str, str]]:
    """An in-process `netrank.cli.main(argv)` with stdout and stderr captured."""

    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = sys.modules["netrank.cli"].main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    return run


def write_01_csv(path: Path, entries: np.ndarray) -> None:
    """Dense 0/1 CSV in the format `netrank gen` writes ("0,1,...")."""
    n = entries.shape[0]
    buf = np.full((n, 2 * n), ord(","), dtype=np.uint8)
    buf[:, ::2] = (entries > 0).astype(np.uint8) + ord("0")
    buf[:, -1] = ord("\n")
    path.write_bytes(buf.tobytes())


def edges_of(adj: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    src, dst = np.nonzero(adj)
    return adj.shape[0], src, dst


def check_refusal(result) -> tuple[bool, str]:
    code, _, err = result
    if code == 2 and "multiplicity" in err.lower():
        return True, ""
    return False, f"expected exit 2 with a multiplicity error, got {code}: {err.strip()[:200]}"


class Workload:
    name: str
    main: str

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.stats = Stats()

    def path(self, name: str) -> Path:
        return self.work / name

    def generate(self, nr) -> None:
        """Write the inputs (set-up child process)."""
        raise NotImplementedError

    def references(self) -> None:
        """Write refs.npz with numpy alone (reference child process)."""
        raise NotImplementedError

    def load(self, nr) -> None:
        self.nr = nr

    def ops(self, pass_index: int) -> list[Op]:
        raise NotImplementedError

    def selfcheck(self) -> list[str]:
        """Feed the checkers known-bad outputs; return the ones they accepted."""
        raise NotImplementedError

    # -- shared checks ------------------------------------------------------

    def check_ranking(self, result, path, family, param, atol) -> tuple[bool, str]:
        code, _, err = result
        if code != 0:
            return False, f"exit {code}: {err.strip()[:200]}"
        ok, rel, why = ref.check_scores(path, self.labels, self.refs[(family, param)], atol)
        if ok:
            _, x = ref.read_scores(path)
            residual = (ref.pagerank_residual if family == "pagerank" else ref.markovrank_residual)
            r = residual(self.n, self.src, self.dst, param, x)
            self.stats.residual_l1_max = max(self.stats.residual_l1_max, r)
        self.stats.ref_err_max = max(self.stats.ref_err_max, rel)
        return ok, why

    def check_compare(self, result, a, b) -> tuple[bool, str]:
        code, out, err = result
        if code != 0:
            return False, f"exit {code}: {err.strip()[:200]}"
        try:
            expected = ref.compare_lines(ref.read_scores(a)[1], ref.read_scores(b)[1], TIE_TOL)
        except (OSError, KeyError, ValueError) as exc:
            return False, f"score files unreadable: {exc}"
        if out.split("\n")[:-1] != expected:
            return False, f"compare printed {out!r}, expected {expected!r}"
        return True, ""

    def selfcheck_scores(self, family, param, atol) -> list[str]:
        """A correct score file must pass and one nudged past the tolerance must fail."""
        path = self.path("selfcheck.csv")
        x = self.refs[(family, param)]
        ref.write_scores(path, self.labels, x)
        accepted = []
        if not ref.check_scores(path, self.labels, x, atol)[0]:
            accepted.append(f"{family}: exact reference rejected")
        nudged = x.copy()
        i = len(x) // 2
        nudged[i] += 10 * (atol + ref.RTOL * x[i])
        ref.write_scores(path, self.labels, nudged)
        if ref.check_scores(path, self.labels, x, atol)[0]:
            accepted.append(f"{family}: perturbed score file accepted")
        if check_refusal((0, "", ""))[0]:
            accepted.append("exit 0 accepted as a refusal")
        return accepted

    def load_refs(self):
        data = np.load(self.path("refs.npz"))
        self.n, self.src, self.dst = int(data["n"]), data["src"], data["dst"]
        self.refs = {}
        for key in data.files:
            if key.startswith(("pagerank@", "markovrank@")):
                family, param = key.split("@")
                self.refs[(family, float(param))] = data[key]
        return data


class DenseExact(Workload):
    name = "dense-exact"
    main = "pagerank"
    N, P = 1000, 0.01
    # two closed classes of 200 nodes; p = 0.1 leaves a zero row (which the
    # patch would link to both classes) with probability below 1e-6
    RED = (((200, 200, 0.1), (200, 200, 0.0)), ((200, 200, 0.0), (200, 200, 0.1)))
    # a fresh network per pass for gen, sweep and is_regular: two communities
    # of 250 whose patched chain is regular with witness k = 5 or 6
    GRID = (((250, 250, 0.04), (250, 250, 0.004)), ((250, 250, 0.004), (250, 250, 0.04)))
    BLOCKS = "250x250@0.04,250x250@0.004;250x250@0.004,250x250@0.04"
    # bipartite: no edges inside a half; p = 0.08 leaves no zero row (which
    # the patch would fill, breaking the bipartition) except with p < 1e-6
    BIPARTITE = (((250, 250, 0.0), (250, 250, 0.08)), ((250, 250, 0.08), (250, 250, 0.0)))
    ALPHAS = [0.8, 0.85, 0.9, 0.95, 1.0]  # the CLI's default grids
    EPSILONS = [0.0, 0.1, 0.5, 1.0]

    def generate(self, nr):
        write_01_csv(self.path("er.csv"), nr.gen_er(self.N, self.P, self.seed).entries)
        for name, grid, seed in (("red.csv", self.RED, self.seed + 1),
                                 ("bipartite.csv", self.BIPARTITE, self.seed + 2)):
            entries = nr.gen_block(nr.BlockSpec(grid, seed=seed)).entries
            if (entries.sum(axis=1) == 0).any():
                raise RuntimeError(f"{name} has a zero row, which the patch would fill")
            write_01_csv(self.path(name), entries)

    def references(self):
        n, src, dst = edges_of(ref.read_01_csv(self.path("er.csv")))
        np.savez(
            self.path("refs.npz"),
            n=n,
            src=src,
            dst=dst,
            **{
                "pagerank@0.85": ref.pagerank_solve(n, src, dst, 0.85),
                "markovrank@1.0": ref.markovrank_solve(n, src, dst, 1.0),
            },
        )

    def load(self, nr):
        super().load(nr)
        self.load_refs()
        self.labels = [str(i + 1) for i in range(self.n)]
        bip = self.path("bipartite.csv")
        self.bipartite = ref.read_01_csv(bip)
        self.bipartite_regular = ref.regularity(self.bipartite)
        self.bipartite_chain = nr.transition_from_patched(nr.patch_zero_rows(nr.read_dense_csv(bip)))
        self.chain = self.adj = None

    def gen_seed(self, pass_index: int) -> int:
        return (self.seed * 1_000_003 + pass_index) & (2**63 - 1)

    def check_gen(self, result, path, seed) -> tuple[bool, str]:
        code, _, err = result
        if code != 0:
            return False, f"exit {code}: {err.strip()[:200]}"
        try:
            got = ref.read_01_csv(path)
        except (OSError, ValueError) as exc:
            return False, f"gen output unreadable: {exc}"
        if not np.array_equal(got, ref.block_matrix(self.GRID, seed)):
            return False, f"gen output differs from the SplitMix64 stream of seed {seed}"
        return True, ""

    def check_sweep(self, result, path) -> tuple[bool, str]:
        code, _, err = result
        if code != 0:
            return False, f"exit {code}: {err.strip()[:200]}"
        try:
            report = json.loads(path.read_text(encoding="utf-8"))
            records = report["records"]
            grid = [(r["family"], r["parameter"]) for r in records]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return False, f"sweep output unreadable: {exc}"
        expected = [("pagerank", a) for a in self.ALPHAS] + [("markovrank", e) for e in self.EPSILONS]
        if report.get("n") != 500 or grid != expected:
            return False, f"sweep covered {grid}, expected {expected}"
        for r in records:  # a grid point at its own baseline ranks identically
            if r["parameter"] == r["baseline"] and not (r["identical"] and r["agreement"] == 500):
                return False, f"{r['family']} at its baseline is not identical to it"
        return True, ""

    def check_regular(self, result, adj, expected_regular) -> tuple[bool, str]:
        if bool(result.regular) != expected_regular:
            return False, f"is_regular says {result.regular}, expected {expected_regular}"
        if result.regular and not ref.is_witness(adj, result.witness_k):
            return False, f"witness k={result.witness_k} is not the smallest positive power"
        return True, ""

    def ops(self, pass_index):
        nr = self.nr
        er, red = str(self.path("er.csv")), str(self.path("red.csv"))
        pr, mr, junk = self.path("pr.csv"), self.path("mr.csv"), self.path("refused.csv")
        g, sw = self.path("gen.csv"), self.path("sweep.json")
        seed = self.gen_seed(pass_index)

        def build_chain():
            self.chain = nr.transition_from_patched(nr.patch_zero_rows(nr.read_dense_csv(g)))
            self.adj = ref.read_01_csv(g)

        return [
            Op("pagerank", cli_call(["pagerank", er, "--alpha", "0.85", "--output", str(pr)]),
               lambda r: self.check_ranking(r, pr, "pagerank", 0.85, 0.0), pr),
            Op("markovrank", cli_call(["markovrank", er, "--epsilon", "1", "--output", str(mr)]),
               lambda r: self.check_ranking(r, mr, "markovrank", 1.0, 0.0), mr),
            Op("compare", cli_call(["compare", str(pr), str(mr)]),
               lambda r: self.check_compare(r, pr, mr)),
            Op("refuse", cli_call(["pagerank", red, "--alpha", "1", "--output", str(junk)]),
               check_refusal, junk),
            Op("refuse", cli_call(["markovrank", red, "--epsilon", "0", "--output", str(junk)]),
               check_refusal, junk),
            Op("gen", cli_call(["gen", "--model", "block", "--seed", str(seed),
                                "--blocks", self.BLOCKS, "--out", str(g)]),
               lambda r: self.check_gen(r, g, seed), g),
            Op("sweep", cli_call(["sweep", str(g), "--output", str(sw)]),
               lambda r: self.check_sweep(r, sw), sw),
            Op("regular", lambda: nr.is_regular(self.chain),
               lambda r: self.check_regular(r, self.adj, ref.regularity(self.adj)),
               prepare=build_chain),
            Op("periodic", lambda: nr.is_regular(self.bipartite_chain),
               lambda r: self.check_regular(r, self.bipartite, self.bipartite_regular)),
        ]

    def selfcheck(self):
        accepted = self.selfcheck_scores("pagerank", 0.85, 0.0)
        seed = self.gen_seed(-1)
        grid = ref.block_matrix(self.GRID, seed)
        flipped = grid.copy()
        flipped[3, 7] ^= 1
        path = self.path("selfcheck.csv")
        write_01_csv(path, flipped)
        if self.check_gen((0, "", ""), path, seed)[0]:
            accepted.append("gen output with one flipped entry accepted")
        write_01_csv(path, grid)
        if not self.check_gen((0, "", ""), path, seed)[0]:
            accepted.append("correct gen output rejected")
        k = next((k for k in range(1, 50) if ref.is_witness(grid, k)), None)
        if k is not None:
            if ref.is_witness(grid, k + 1):
                accepted.append(f"witness {k + 1} accepted for a chain regular at {k}")
        if ref.regularity(self.bipartite):
            accepted.append("bipartite chain judged regular")
        return accepted


class EdgelistPower(Workload):
    name = "edgelist-power"
    main = "pagerank"
    # two communities of unequal size plus 40 isolated roster accounts (2%).
    # Every member has exactly DEGREE distinct out-links, and every
    # CROSS_EVERY-th member has one of them in the other community.  With the
    # degrees and the cross-community share fixed, the chain's slowest mode,
    # and with it the number of power iterations (77-78 for pagerank, 270-280
    # for markovrank), is the same for every seed; with binomial degrees it
    # swung 35-54 and 76-121 between seeds.  Unequal sizes keep that mode in
    # the uniform starting vector, so it sets the iteration count.  n = 2000
    # keeps the 32 MB dense chain in the shared L3 cache: at n = 4000 (128 MB)
    # the matvecs ran at memory-bus speed, which other tenants of the host
    # swung by 20% from one minute to the next.
    SIZES = (1300, 660)
    ISOLATED = 40
    DEGREE = 8
    CROSS_EVERY = 4
    POWER = ["--format", "edgelist", "--method", "power", "--tol", "1e-12"]

    def community_edges(self, rng) -> tuple[np.ndarray, np.ndarray]:
        starts = (0, self.SIZES[0])
        src, dst = [], []
        for i in range(sum(self.SIZES)):
            c = int(i >= starts[1])
            size, start = self.SIZES[c], starts[c]
            cross = int(i % self.CROSS_EVERY == 0)
            own = rng.choice(size - 1, self.DEGREE - cross, replace=False)
            own += own >= i - start  # no self-link
            src += [i] * self.DEGREE
            dst += (own + start).tolist()
            if cross:
                dst.append(starts[1 - c] + int(rng.integers(self.SIZES[1 - c])))
        return np.array(src), np.array(dst)

    def generate(self, nr):
        rng = np.random.default_rng(self.seed)
        src, dst = self.community_edges(rng)
        n = sum(self.SIZES) + self.ISOLATED
        # node i is account labels[i]; nodes 1960.. have no edges, and the
        # roster lists the accounts in an order of its own, so the isolated
        # accounts sit anywhere in it
        labels = np.array([f"u{i:05d}" for i in rng.permutation(n)])
        roster = np.empty(n, dtype=labels.dtype)
        roster[rng.permutation(n)] = labels
        order = rng.permutation(len(src))
        with open(self.path("roster.csv"), "w", encoding="utf-8") as fh:
            fh.write("screen_name\n")
            fh.writelines(f"{name}\n" for name in roster)
        with open(self.path("edges.csv"), "w", encoding="utf-8") as fh:
            fh.write("following,followed\n")
            fh.writelines(f"{labels[a]},{labels[b]}\n" for a, b in zip(src[order], dst[order]))

    def references(self):
        with open(self.path("roster.csv"), encoding="utf-8") as fh:
            roster = fh.read().split()[1:]
        index = {name: i for i, name in enumerate(roster)}
        with open(self.path("edges.csv"), encoding="utf-8") as fh:
            pairs = [line.split(",") for line in fh.read().split()[1:]]
        src = np.array([index[a] for a, _ in pairs])
        dst = np.array([index[b] for _, b in pairs])
        n = len(roster)
        np.savez(
            self.path("refs.npz"),
            n=n,
            src=src,
            dst=dst,
            roster=np.array(roster),
            **{
                "pagerank@0.85": ref.pagerank_solve(n, src, dst, 0.85),
                "markovrank@1.0": ref.markovrank_solve(n, src, dst, 1.0),
            },
        )

    def load(self, nr):
        super().load(nr)
        self.labels = [str(name) for name in self.load_refs()["roster"]]

    def ops(self, pass_index):
        edges, roster = str(self.path("edges.csv")), str(self.path("roster.csv"))
        base = [edges, "--roster", roster, *self.POWER]
        pr, mr = self.path("pr.csv"), self.path("mr.csv")
        atol = ref.POWER_ATOL
        return [
            Op("pagerank", cli_call(["pagerank", *base, "--output", str(pr)]),
               lambda r: self.check_ranking(r, pr, "pagerank", 0.85, atol), pr),
            Op("markovrank", cli_call(["markovrank", *base, "--output", str(mr)]),
               lambda r: self.check_ranking(r, mr, "markovrank", 1.0, atol), mr),
        ]

    def selfcheck(self):
        return self.selfcheck_scores("markovrank", 1.0, ref.POWER_ATOL)


WORKLOADS = {w.name: w for w in (DenseExact, EdgelistPower)}
