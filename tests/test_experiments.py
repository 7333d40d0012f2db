import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from netrank import (
    BlockSpec,
    MultiplicityError,
    SplitMix64,
    eigenvalue_one_space,
    gen_block,
    gen_er,
    invariance_sweep,
    markovrank,
    pagerank,
    patch_zero_rows,
    transition_from_patched,
)

import golden

MASK = (1 << 64) - 1


def splitmix_reference(seed, index):
    """Pure-integer restatement of the generator, one output per index."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    z = z ^ (z >> 31)
    return (z >> 11) * 2.0**-53


class TestSplitMix64:
    @pytest.mark.parametrize("seed", [0, 42, 2**63, 20210723])
    def test_matches_integer_reference(self, seed):
        stream = SplitMix64(seed)
        got = stream.uniforms(16)
        expected = [splitmix_reference(seed, i) for i in range(16)]
        np.testing.assert_array_equal(got, expected)

    def test_stream_is_sequential(self):
        a = SplitMix64(9)
        first, second = a.uniforms(5), a.uniforms(5)
        both = SplitMix64(9).uniforms(10)
        np.testing.assert_array_equal(np.concatenate([first, second]), both)

    def test_uniform_range(self):
        u = SplitMix64(3).uniforms(10_000)
        assert ((0 <= u) & (u < 1)).all()
        assert abs(u.mean() - 0.5) < 0.02


class TestGenEr:
    def test_p_zero_gives_zero_matrix(self):
        assert gen_er(3, 0.0, 1).entries.sum() == 0

    def test_p_one_gives_complete_off_diagonal(self):
        adj = gen_er(3, 1.0, 1)
        np.testing.assert_array_equal(adj.entries, 1 - np.eye(3))

    def test_diagonal_always_zero(self):
        adj = gen_er(50, 0.9, 7)
        assert np.diagonal(adj.entries).sum() == 0

    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(gen_er(20, 0.3, 5).entries, gen_er(20, 0.3, 5).entries)
        assert (gen_er(20, 0.3, 5).entries != gen_er(20, 0.3, 6).entries).any()

    @pytest.mark.parametrize("seed", range(5))
    def test_edge_count_concentration(self, seed):
        # 990 off-diagonal Bernoulli(0.1) cells: stay within 4 sigma of the mean
        adj = gen_er(100, 0.1, seed)
        count = adj.entries.sum()
        mean, sigma = 990.0, math.sqrt(990 * 0.9)
        assert abs(count - mean) < 4 * sigma

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            gen_er(0, 0.5, 1)
        with pytest.raises(ValueError):
            gen_er(3, 1.5, 1)

    @pytest.mark.parametrize("n, p", [(1, 0.0), (1, 1.0), (7, 0.0), (7, 1.0), (40, 0.3)])
    @pytest.mark.parametrize("seed", [0, 5, 2**63, 2**64 - 1])
    def test_matches_direct_sampler(self, n, p, seed):
        # the direct sampler gen_er used before it drew through a one-cell gen_block
        entries = (SplitMix64(seed).uniforms(n * n) < p).astype(float).reshape(n, n)
        np.fill_diagonal(entries, 0.0)
        np.testing.assert_array_equal(gen_er(n, p, seed).entries, entries)


def e2_spec(seed):
    return BlockSpec(
        (
            ((80, 80, 0.1), (80, 20, 0.0)),
            ((20, 80, 0.1), (20, 20, 0.1)),
        ),
        seed=seed,
    )


def e3_spec(seed):
    return BlockSpec(
        (
            ((40, 40, 0.1), (40, 40, 0.0), (40, 20, 0.0)),
            ((40, 40, 0.0), (40, 40, 0.1), (40, 20, 0.0)),
            ((20, 40, 0.1), (20, 40, 0.1), (20, 20, 0.1)),
        ),
        seed=seed,
    )


class TestGenBlock:
    def test_e2_zero_block_is_exactly_zero(self):
        adj = gen_block(e2_spec(0))
        assert adj.n == 100
        assert adj.entries[:80, 80:].sum() == 0
        assert adj.entries[:80, :80].sum() > 0

    def test_zero_diagonal_enforced(self):
        adj = gen_block(e2_spec(3))
        assert np.diagonal(adj.entries).sum() == 0

    def test_all_zero_densities(self):
        spec = BlockSpec((((2, 2, 0.0), (2, 2, 0.0)), ((2, 2, 0.0), (2, 2, 0.0))))
        assert gen_block(spec).entries.sum() == 0

    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(
            gen_block(e2_spec(4)).entries, gen_block(e2_spec(4)).entries
        )

    def test_non_tiling_blocks_rejected(self):
        with pytest.raises(ValueError, match="square"):
            BlockSpec((((3, 2, 0.5),),))
        with pytest.raises(ValueError, match="heights"):
            BlockSpec((((2, 4, 0.5), (3, 4, 0.5)),))

    @pytest.mark.parametrize(
        "blocks, message",
        [
            ((), "block grid must be non-empty"),
            ((((2, 2, 0.5), (2, 2, 0.5)), ((2, 2, 0.5),)),
             "block grid rows must have equal cell counts"),
            ((((0, 3, 0.5),),), "block dimensions must be positive, got 0x3"),
            ((((2, 2, 1.5),),), "block density must be in [0, 1], got 1.5"),
            ((((2, 2, 0.5), (2, 3, 0.5)), ((3, 3, 0.5), (3, 3, 0.5))),
             "grid column 0 mixes block widths"),
        ],
        ids=["empty", "ragged", "zero-rows", "density", "widths"],
    )
    def test_malformed_grid_rejected(self, blocks, message):
        with pytest.raises(ValueError) as info:
            BlockSpec(blocks)
        assert str(info.value) == message

    def test_keep_diagonal_option(self):
        spec = BlockSpec((((3, 3, 1.0),),), zero_diagonal=False, seed=1)
        assert np.diagonal(gen_block(spec).entries).sum() == 3

    def test_e3_isolated_blocks_split_the_fixed_point(self):
        # with no zero rows inside the two isolated blocks nothing bridges
        # them, so each is a closed class and the fixed point is not unique
        for seed in range(20):
            adj = gen_block(e3_spec(seed))
            if (adj.entries[:40].sum(axis=1) == 0).any():
                continue
            if (adj.entries[40:80].sum(axis=1) == 0).any():
                continue
            M = transition_from_patched(patch_zero_rows(adj))
            assert eigenvalue_one_space(M).multiplicity >= 2
            with pytest.raises(MultiplicityError):
                pagerank(adj, 1.0)
            with pytest.raises(MultiplicityError):
                markovrank(adj, 0.0)
            # away from the boundary both rankings exist
            assert pagerank(adj, 0.85).n == 100
            assert markovrank(adj, 1.0).n == 100
            return
        pytest.fail("no zero-row-free instance among 20 seeds")


class TestEpsilonInvarianceBeyondDrift:
    """Order stability over the epsilon sweep, in its per-pair form.

    Sweeping epsilon moves every score by at most drift = ||v1 - v2||_inf, so
    a pair can swap order only when its gap is within 2*drift in both vectors
    (|gap1| + |gap2| = |gap1 - gap2| <= 2*drift for an inverted pair).  The
    assertions below are exactly that theorem: every strict order beyond the
    drift window is preserved, and every inversion sits inside it.  Unlike a
    blanket rank-identity check this holds for every instance, while a wrong
    chain construction would still invert macroscopically separated pairs.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_order_preserved_beyond_drift_window(self, seed):
        adj = gen_er(50, 0.1, seed)
        by_eps = {eps: markovrank(adj, eps).values for eps in (0.0, 0.1, 0.5, 1.0)}
        for e1, e2 in [(0.1, 1.0), (0.5, 1.0), (0.0, 1.0)]:
            v1, v2 = by_eps[e1], by_eps[e2]
            drift = np.abs(v1 - v2).max()
            gap1 = v1[:, None] - v1[None, :]
            gap2 = v2[:, None] - v2[None, :]
            inverted = gap1 * gap2 < 0
            if inverted.any():
                assert np.abs(gap1[inverted]).max() <= 2 * drift
                assert np.abs(gap2[inverted]).max() <= 2 * drift
            preserved = np.abs(gap1) > 2 * drift
            assert (np.sign(gap1[preserved]) == np.sign(gap2[preserved])).all()


class TestInvarianceSweep:
    def test_example_d_epsilon_grid_all_identical(self):
        report = invariance_sweep(golden.EX_D, alphas=(0.85,), epsilons=(0.0, 1e-12, 0.1, 1.0))
        markov = [r for r in report.records if r.family == "markovrank"]
        assert len(markov) == 4
        assert all(r.identical and r.agreement == 6 for r in markov)

    def test_k2_everything_agrees(self):
        report = invariance_sweep(golden.K2)
        for r in report.records:
            assert not r.multiplicity_failure
            assert r.agreement == 2 and r.identical

    def test_example_c_failures_recorded_not_raised(self):
        report = invariance_sweep(golden.EX_C)
        by_point = {(r.family, r.parameter): r for r in report.records}
        assert by_point[("pagerank", 1.0)].multiplicity_failure
        assert by_point[("markovrank", 0.0)].multiplicity_failure
        assert not by_point[("pagerank", 0.85)].multiplicity_failure
        assert not by_point[("markovrank", 1.0)].multiplicity_failure
        assert by_point[("markovrank", 0.5)].identical

    def test_example_d_alpha_grid_order_shift(self):
        report = invariance_sweep(golden.EX_D, alphas=(0.85, 0.9, 0.95, 1.0), epsilons=(1.0,))
        by_alpha = {r.parameter: r for r in report.records if r.family == "pagerank"}
        assert by_alpha[0.9].identical  # same side of the shift as the baseline
        assert not by_alpha[0.95].identical
        assert by_alpha[0.95].agreement == 4

    def test_one_record_per_grid_point(self):
        report = invariance_sweep(golden.FOUR_NODE, alphas=(0.5, 0.85), epsilons=(0.1,))
        assert len(report.records) == 3

    @pytest.mark.parametrize("name", ["EX_C", "EX_D"])
    def test_each_distinct_alpha_solved_once(self, monkeypatch, name):
        # the default grids map onto 8 distinct alphas: 0.85, epsilon = 1 and
        # alpha = 1 (epsilon = 0) repeat; EX_C's failed alpha = 1 is not retried
        from netrank import experiments

        alphas = []
        rank = experiments.pagerank

        def counting_pagerank(adj, alpha):
            alphas.append(alpha)
            return rank(adj, alpha)

        monkeypatch.setattr(experiments, "pagerank", counting_pagerank)
        invariance_sweep(getattr(golden, name))
        assert len(alphas) == len(set(alphas)) == 8

    def test_sweep_peak_is_one_exact_solve(self):
        # each grid point is ranked alone: no chain is held across solves
        adj = gen_er(400, 0.05, 3)

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(lambda: invariance_sweep(adj)) < 1.1 * peak(lambda: pagerank(adj, 0.85))


class TestSweepSerialization:
    def test_json_round_trip(self):
        report = invariance_sweep(golden.EX_C)
        payload = json.loads(report.to_json())
        assert payload["n"] == 6
        assert payload["baseline_alpha"] == 0.85
        assert len(payload["records"]) == len(report.records)
        failed = [r for r in payload["records"] if r["multiplicity_failure"]]
        assert all(r["agreement"] is None for r in failed)

    def test_csv_parameters_read_back_exactly(self):
        # {:g} where it is exact, so the default grids print as before
        report = invariance_sweep(golden.K2, alphas=(0.9999999, 1.0, 0.85), epsilons=(1e-7, 0.1))
        rows = list(csv.DictReader(io.StringIO(report.to_csv())))
        assert [r["parameter"] for r in rows] == ["0.9999999", "1", "0.85", "1e-07", "0.1"]
        assert [r["baseline"] for r in rows] == ["0.85"] * 3 + ["1"] * 2

    def test_csv_shape(self):
        report = invariance_sweep(golden.K2, alphas=(0.85,), epsilons=(0.0, 1.0))
        rows = list(csv.reader(io.StringIO(report.to_csv())))
        assert rows[0][:3] == ["family", "parameter", "baseline"]
        assert len(rows) == 1 + len(report.records)
        assert rows[1][0] == "pagerank"
