import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from netrank import (
    agreement_count,
    is_finer,
    is_identical_rank,
    markovrank,
    pagerank,
    rank_statistic,
)
from netrank.rank_stats import compare

import golden


def pairwise_finer_oracle(x, y, tie_tol=1e-9):
    """Quadratic restatement of the definition, kept as an independent check."""
    rx = rank_statistic(x, tie_tol).ranks
    ry = rank_statistic(y, tie_tol).ranks
    n = len(rx)
    for i in range(n):
        for j in range(n):
            if rx[i] <= rx[j] and not ry[i] <= ry[j]:
                return False
    return True


def loop_tie_groups(v, tie_tol):
    """Element-by-element tie grouping, kept as the oracle for the vectorised one."""
    order = np.argsort(v, kind="stable")
    sv = v[order]
    groups = []
    i = 0
    n = len(v)
    while i < n:
        j = i
        while j + 1 < n and sv[j + 1] - sv[j] <= tie_tol:
            j += 1
        groups.append((i, j + 1))
        i = j + 1
    return order, groups


def loop_rank_statistic(v, tie_tol):
    order, groups = loop_tie_groups(v, tie_tol)
    ranks = np.empty(len(v))
    for start, stop in groups:
        ranks[order[start:stop]] = (start + stop + 1) / 2.0
    return ranks


def loop_is_finer(x, y, tie_tol):
    ry = loop_rank_statistic(y, tie_tol)
    order, groups = loop_tie_groups(x, tie_tol)
    prev = -np.inf
    for start, stop in groups:
        group_ry = ry[order[start:stop]]
        if (group_ry != group_ry[0]).any():
            return False
        if group_ry[0] < prev:
            return False
        prev = group_ry[0]
    return True


def loop_compare(x, y, tie_tol):
    """compare's tuple from the loop oracles: agreement, identity, both refinements."""
    agreement = int((loop_rank_statistic(x, tie_tol) == loop_rank_statistic(y, tie_tol)).sum())
    x_finer_y, y_finer_x = loop_is_finer(x, y, tie_tol), loop_is_finer(y, x, tie_tol)
    return agreement, x_finer_y and y_finer_x, x_finer_y, y_finer_x


def last_tied_value(prev, tol):
    """Largest float b whose computed gap b - prev is still <= tol."""
    b = prev + tol
    while b - prev > tol:
        b = np.nextafter(b, -np.inf)
    while np.nextafter(b, np.inf) - prev <= tol:
        b = np.nextafter(b, np.inf)
    return b


def planted_gap_vector(rng, n, tie_tol):
    """Scores whose consecutive gaps sit at tie_tol, one ulp either side, or far off.

    Tolerances that are not finite and non-negative plant their gaps at 1e-9.
    """
    step = tie_tol if np.isfinite(tie_tol) and tie_tol >= 0 else 1e-9
    v = [rng.uniform(0.1, 1.0)] if n else []
    for _ in range(n - 1):
        prev = v[-1]
        kind = rng.integers(0, 5)
        if kind == 0:
            v.append(prev)
        elif kind == 4:
            v.append(prev + rng.uniform(0.0, 10 * step))
        else:
            edge = last_tied_value(prev, step)
            v.append([edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)][kind - 1])
    return np.array(v)[rng.permutation(n)]


TIE_TOLS = [0.0, 1e-9, -1.0, np.inf, np.nan]


@pytest.mark.parametrize("tie_tol", TIE_TOLS)
@pytest.mark.parametrize("n", [0, 1, 2, 3, 50, 1000])
def test_vectorised_statistics_match_loop_oracle(n, tie_tol):
    rng = np.random.default_rng(1000 * n + 7)
    for _ in range(5 if n < 1000 else 2):
        x = planted_gap_vector(rng, n, tie_tol)
        y = planted_gap_vector(rng, n, tie_tol)
        for v in (x, y):  # bit-identical ranks
            expected = loop_rank_statistic(v, tie_tol)
            assert rank_statistic(v, tie_tol).ranks.tobytes() == expected.tobytes()
        for a, b in ((x, y), (y, x), (x, x), (x, np.round(x, 6))):
            assert is_finer(a, b, tie_tol) == loop_is_finer(a, b, tie_tol)
            relations = compare(a, b, tie_tol)
            assert relations == loop_compare(a, b, tie_tol)
            assert [type(r) for r in relations] == [int, bool, bool, bool]


def test_planted_gaps_hit_the_boundary():
    # the generator must put gaps right at the tolerance on both sides of it
    v = np.sort(planted_gap_vector(np.random.default_rng(3), 1000, 1e-9))
    gaps = np.diff(v)
    one_ulp_wider = np.nextafter(v[1:], np.inf) - v[:-1]
    assert ((gaps <= 1e-9) & (one_ulp_wider > 1e-9)).any()
    assert ((gaps > 1e-9) & (gaps < 1e-9 * (1 + 1e-6))).any()


def test_empty_vectors():
    assert is_finer([], [])
    assert rank_statistic(np.empty(0)).ranks.shape == (0,)
    assert compare([], []) == (0, True, True, True)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_compare_rejects_non_finite(bad):
    for x, y in (([0.5, bad], [0.5, 0.5]), ([0.5, 0.5], [bad, 0.5])):
        with pytest.raises(ValueError, match="scores must be finite"):
            compare(np.array(x), np.array(y))


def test_compare_rejects_a_matrix():
    with pytest.raises(ValueError, match=r"^expected a 1-d score vector, got shape \(2, 2\)$"):
        compare(np.full((2, 2), 0.25), np.full(4, 0.25))


def test_compare_length_mismatch():
    with pytest.raises(ValueError, match="^length mismatch: 2 vs 3$"):
        compare(np.array([0.5, 0.5]), np.array([0.3, 0.3, 0.4]))


@pytest.mark.parametrize("tie_tol, expected", [
    (np.inf, [2.0, 2.0, 2.0]),
    (np.nan, [2.0, 1.0, 3.0]),
    (-1.0, [2.0, 1.0, 3.0]),
])
def test_extreme_tolerances(tie_tol, expected):
    # inf puts everything in one group; nan and negative tolerances tie nothing
    np.testing.assert_array_equal(
        rank_statistic(np.array([0.5, 0.25, 0.7]), tie_tol).ranks, expected
    )


score_vectors = st.integers(2, 9).flatmap(
    lambda n: st.lists(
        st.sampled_from([0.1, 0.2, 0.2, 0.35, 0.5, 0.75, 1.0]), min_size=n, max_size=n
    )
).map(np.array)


class TestRankStatistic:
    def test_example_d_low_alpha_ranks(self):
        ranks = rank_statistic(pagerank(golden.EX_D, 0.85)).ranks
        np.testing.assert_array_equal(ranks, golden.EX_D_RANKS_LOW_ALPHA)

    def test_example_d_markov_ranks(self):
        ranks = rank_statistic(markovrank(golden.EX_D, 1.0)).ranks
        np.testing.assert_array_equal(ranks, golden.EX_D_RANKS_MARKOV)

    def test_average_tie_convention(self):
        ranks = rank_statistic(np.array([0.25, 0.5, 0.25])).ranks
        np.testing.assert_array_equal(ranks, [1.5, 3.0, 1.5])

    def test_matches_rankdata_on_exact_values(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            v = rng.integers(0, 4, size=10).astype(float)  # plenty of exact ties
            np.testing.assert_array_equal(
                rank_statistic(v).ranks, rankdata(v, method="average")
            )

    def test_tolerance_groups_transitively(self):
        # 0.0 ~ 0.9 and 0.9 ~ 1.8 chain into one group even though |0.0-1.8| > tol
        ranks = rank_statistic(np.array([0.0, 0.9, 1.8, 5.0]), tie_tol=1.0).ranks
        np.testing.assert_array_equal(ranks, [2.0, 2.0, 2.0, 4.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            rank_statistic(np.array([0.1, np.nan]))

    @given(score_vectors)
    @settings(max_examples=80, deadline=None)
    def test_ranks_sum_is_triangular(self, v):
        n = len(v)
        assert rank_statistic(v).ranks.sum() == pytest.approx(n * (n + 1) / 2)

    @given(score_vectors, st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_permutation_equivariance(self, v, rnd):
        perm = list(range(len(v)))
        rnd.shuffle(perm)
        base = rank_statistic(v).ranks
        permuted = rank_statistic(v[perm]).ranks
        np.testing.assert_array_equal(permuted, base[perm])

    @given(score_vectors, st.sampled_from([0.5, 2.0, 7.5]))
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, v, c):
        np.testing.assert_array_equal(
            rank_statistic(v).ranks, rank_statistic(c * v).ranks
        )


class TestIsFiner:
    def test_refining_a_tie(self):
        x = np.array([0.3, 0.5, 0.2])
        y = np.array([0.25, 0.5, 0.25])
        assert is_finer(x, y)
        assert not is_finer(y, x)

    def test_reflexive(self):
        x = np.array([0.3, 0.5, 0.2])
        assert is_finer(x, x)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            is_finer(np.array([0.5, 0.5]), np.array([0.3, 0.3, 0.4]))

    @given(score_vectors, st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_pairwise_oracle(self, x, data):
        y = data.draw(
            st.lists(
                st.sampled_from([0.1, 0.2, 0.2, 0.35, 0.5]),
                min_size=len(x),
                max_size=len(x),
            ).map(np.array)
        )
        assert is_finer(x, y) == pairwise_finer_oracle(x, y)
        assert is_finer(y, x) == pairwise_finer_oracle(y, x)

    @given(score_vectors)
    @settings(max_examples=40, deadline=None)
    def test_preorder_reflexivity(self, x):
        assert is_finer(x, x)

    @given(st.integers(2, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_preorder_transitivity(self, n, data):
        pool = st.lists(
            st.sampled_from([0.1, 0.2, 0.2, 0.4, 0.4, 0.8]), min_size=n, max_size=n
        ).map(np.array)
        x, y, z = data.draw(pool), data.draw(pool), data.draw(pool)
        if is_finer(x, y) and is_finer(y, z):
            assert is_finer(x, z)


class TestIsIdenticalRank:
    def test_six_node_rankings_coincide(self):
        assert is_identical_rank(pagerank(golden.EX1, 1.0), markovrank(golden.EX1, 1.0))

    def test_example_d_disagrees_across_families(self):
        assert not is_identical_rank(
            pagerank(golden.EX_D, 0.85), markovrank(golden.EX_D, 1.0)
        )

    def test_self_identity(self):
        v = np.array([0.4, 0.1, 0.5])
        assert is_identical_rank(v, v)

    @given(score_vectors, st.data())
    @settings(max_examples=60, deadline=None)
    def test_equivalent_to_rank_equality(self, x, data):
        y = data.draw(
            st.lists(
                st.sampled_from([0.1, 0.2, 0.2, 0.35, 0.5]),
                min_size=len(x),
                max_size=len(x),
            ).map(np.array)
        )
        by_definition = is_identical_rank(x, y)
        by_ranks = np.array_equal(rank_statistic(x).ranks, rank_statistic(y).ranks)
        assert by_definition == by_ranks

    @pytest.mark.parametrize("tie_tol", [0.0, 1e-9, -1.0, np.inf, np.nan])
    @given(st.integers(0, 7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_mutual_refinement(self, tie_tol, n, data):
        # is_identical_rank's definition, kept as the oracle
        pool = st.lists(
            st.sampled_from([0.1, 0.1 + 1e-10, 0.2, 0.2, 0.5]), min_size=n, max_size=n
        ).map(np.array)
        x, y = data.draw(pool), data.draw(pool)
        both_finer = is_finer(x, y, tie_tol) and is_finer(y, x, tie_tol)
        assert is_identical_rank(x, y, tie_tol) == both_finer


class TestAgreementCount:
    def test_identical_vectors(self):
        v = np.array([0.2, 0.3, 0.5])
        assert agreement_count(v, v) == 3

    def test_example_d_agreement_four(self):
        count = agreement_count(pagerank(golden.EX_D, 0.85), markovrank(golden.EX_D, 1.0))
        assert count == 4

    def test_reversed_order(self):
        assert agreement_count(np.array([1.0, 2, 3]) / 6, np.array([3.0, 2, 1]) / 6) == 1


class TestWorkedExampleRankFacts:
    """Order relations the worked examples exhibit across the parameter grids."""

    GOLDEN = {
        "four_node": golden.FOUR_NODE,
        "six_node": golden.EX1,
        "A": golden.EX_A,
        "D": golden.EX_D,
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_epsilon_invariance_on_worked_examples(self, name):
        adj = self.GOLDEN[name]
        grid = [0.1, 0.3, 0.5, 1.0]
        scores = {eps: markovrank(adj, eps) for eps in grid}
        for e1 in grid:
            for e2 in grid:
                assert is_identical_rank(scores[e1], scores[e2])

    @pytest.mark.parametrize("name", ["four_node", "A", "D"])
    def test_augmented_ranking_refines_the_stationary_one(self, name):
        adj = self.GOLDEN[name]
        assert is_finer(markovrank(adj, 1.0), pagerank(adj, 1.0))

    def test_damped_ranking_moves_with_alpha_on_example_d(self):
        assert not is_identical_rank(
            pagerank(golden.EX_D, 0.85), pagerank(golden.EX_D, 0.95)
        )
        np.testing.assert_array_equal(
            rank_statistic(pagerank(golden.EX_D, 0.9)).ranks,
            golden.EX_D_RANKS_LOW_ALPHA,
        )
        np.testing.assert_array_equal(
            rank_statistic(pagerank(golden.EX_D, 0.95)).ranks,
            golden.EX_D_RANKS_HIGH_ALPHA,
        )

    def test_example_1_rank_identity_across_parameters(self):
        vectors = [
            pagerank(golden.EX1, 1.0),
            pagerank(golden.EX1, 0.9),
            markovrank(golden.EX1, 0.0),
            markovrank(golden.EX1, 1e-5),
            markovrank(golden.EX1, 0.1),
            markovrank(golden.EX1, 1.0),
        ]
        for v in vectors[1:]:
            assert is_identical_rank(vectors[0], v)
