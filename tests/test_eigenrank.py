import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netrank import (
    AdjacencyMatrix,
    DegenerateVectorError,
    MultiplicityError,
    NonConvergenceError,
    PowerIterConfig,
    ScoreVector,
    SplitMix64,
    TransitionMatrix,
    augment_adjacency,
    damped_transition,
    eigenvalue_one_space,
    gen_er,
    invariance_sweep,
    load_edge_list,
    markovrank,
    pagerank,
    patch_zero_rows,
    read_dense_csv,
    stationary_power,
    transition_from_augmented,
    transition_from_patched,
    transition_generalized_inverse,
)
from netrank import eigenrank
from netrank.graph_core import _digit_grid_bytes
from netrank.eigenrank import (
    _BLOCK,
    _PANEL,
    PIVOT_TOL,
    EigenSpace,
    _hub_alpha,
    _normalize_scores,
    _panel_without_swaps,
)

import golden


def augmented_chain_ranking(adj, eps):
    """markovrank by its definition, as an oracle for the hub-eliminated solve.

    Fixed point of the (n+1)-state chain of the patched network plus a hub
    of weight eps, hub entry dropped and the rest renormalized.
    """
    chain = transition_from_augmented(augment_adjacency(patch_zero_rows(adj), eps))
    space = eigenvalue_one_space(chain)
    if space.multiplicity != 1:
        raise MultiplicityError(space.multiplicity)
    return _normalize_scores(space.vector[: adj.n], adj.labels)


def unblocked_elimination(matrix):
    """The column-by-column threshold elimination, as an oracle for the blocked one.

    The pivot rule alone (partial pivoting, a column skipped when its best
    pivot is at most PIVOT_TOL*m), with each pivot's rank-1 update applied
    to whole rows at once: no panels, no blocks and no swap-free shortcut.
    Returns the eliminated U, the (row, column) of each pivot, the row each
    pivot was swapped in from, and the free columns.
    """
    m = matrix.m
    threshold = PIVOT_TOL * m
    U = matrix.entries - np.eye(m)
    pivot_rows, swapped_from, free = [], [], []
    r = 0
    for c in range(m):
        i = int(np.argmax(np.abs(U[r:, c]))) + r
        if abs(U[i, c]) <= threshold:
            free.append(c)
            continue
        if i != r:
            U[[r, i]] = U[[i, r]]
        U[r + 1 :] -= (U[r + 1 :, c] / U[r, c])[:, None] * U[r]
        pivot_rows.append((r, c))
        swapped_from.append(i)
        r += 1
    return U, pivot_rows, swapped_from, free


def unblocked_null_space(matrix):
    """eigenvalue_one_space by unblocked_elimination."""
    U, pivot_rows, _, free = unblocked_elimination(matrix)
    if len(free) != 1:
        return EigenSpace(len(free), None)
    x = np.zeros(matrix.m)
    x[free[0]] = 1.0
    for row, c in reversed(pivot_rows):
        x[c] = -(U[row] @ x) / U[row, c]
    return EigenSpace(1, x)


class TestEigenvalueOneSpace:
    def test_chain_3_unique_fixed_point(self):
        space = eigenvalue_one_space(golden.CHAIN_3)
        assert space.multiplicity == 1
        vec = space.vector / space.vector.sum()
        np.testing.assert_allclose(vec, golden.CHAIN_3_STATIONARY, atol=1e-9)

    def test_example_c_multiplicity_two(self):
        M = transition_from_patched(golden.EX_C)
        assert eigenvalue_one_space(M).multiplicity == 2

    def test_identity_multiplicity_two(self):
        assert eigenvalue_one_space(TransitionMatrix(np.eye(2))).multiplicity == 2

    def test_vector_none_when_not_unique(self):
        space = eigenvalue_one_space(TransitionMatrix(np.eye(3)))
        assert space.multiplicity == 3 and space.vector is None

    def test_residual_small(self):
        for adj in (golden.FOUR_NODE, golden.EX_A, golden.EX_B, golden.EX_D, golden.EX1):
            M = transition_from_patched(patch_zero_rows(adj))
            space = eigenvalue_one_space(M)
            v = space.vector / space.vector.sum()
            assert np.abs(M.entries @ v - v).max() <= 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_multiplicity_matches_eigendecomposition(self, seed):
        # independent oracle: count eigenvalues with real part above the same
        # discrimination threshold the null-space tolerance encodes
        n = 5 + seed
        entries = SplitMix64(seed).uniforms(n * n).reshape(n, n) + 1e-3
        M = TransitionMatrix(entries / entries.sum(axis=0))
        eigvals = np.linalg.eigvals(M.entries)
        expected = int((np.real(eigvals) > 0.99999).sum())
        assert eigenvalue_one_space(M).multiplicity == expected


class TestStationaryPower:
    def test_chain_3_matches_printed_iterates(self):
        scores = stationary_power(golden.CHAIN_3, PowerIterConfig(tolerance=1e-6))
        np.testing.assert_allclose(scores.values, golden.CHAIN_3_POWER_1E6, atol=1e-6)

    def test_identity_fixed_point_after_one_check(self):
        # every power iteration starts from the uniform vector
        scores = stationary_power(TransitionMatrix(np.eye(3)))
        np.testing.assert_array_equal(scores.values, np.full(3, 1 / 3))
        assert scores.iterations == 1

    def test_four_node_matches_printed_iterates(self):
        M = transition_from_patched(golden.FOUR_NODE)
        scores = stationary_power(M, PowerIterConfig(tolerance=1e-6))
        np.testing.assert_allclose(scores.values, golden.FOUR_NODE_POWER_1E6, atol=1e-6)

    def test_periodic_chain_does_not_converge(self):
        # 1 -> {2, 3}, 2 -> 1, 3 -> 1: from uniform, (2/3, 1/6, 1/6) and back,
        # so the second iterate repeats the start and the iteration stops there
        star = TransitionMatrix(np.array([[0.0, 1.0, 1.0], [0.5, 0.0, 0.0], [0.5, 0.0, 0.0]]))
        cfg = PowerIterConfig(tolerance=1e-12, max_iterations=500)
        with pytest.raises(NonConvergenceError, match="at iteration 2: .* 0.333 apart") as err:
            stationary_power(star, cfg)
        assert err.value.iterations == 2
        np.testing.assert_allclose(err.value.last_iterate, np.full(3, 1 / 3))

    def test_period_three_chain_runs_to_the_step_limit(self):
        # 1 -> {2, 3}, 2 -> 4, 3 -> 4, 4 -> 1: the iterates cycle with period 3,
        # so none repeats the one two steps before
        M = np.zeros((4, 4))
        M[[1, 2], 0] = 0.5
        M[3, [1, 2]] = M[0, 3] = 1.0
        cfg = PowerIterConfig(tolerance=1e-12, max_iterations=50)
        with pytest.raises(NonConvergenceError, match="within 50 iterations") as err:
            stationary_power(TransitionMatrix(M), cfg)
        assert err.value.iterations == 50

    @pytest.mark.parametrize("tol", [0.0, -1e-6, np.nan])
    def test_non_positive_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            PowerIterConfig(tolerance=tol)

    def test_labels_attached(self):
        assert stationary_power(golden.CHAIN_3).labels == ("1", "2", "3")


class TestPagerankGolden:
    @pytest.mark.parametrize("alpha", sorted(golden.FOUR_NODE_PAGERANK))
    def test_four_node(self, alpha):
        scores = pagerank(golden.FOUR_NODE, alpha)
        np.testing.assert_allclose(
            scores.values, golden.FOUR_NODE_PAGERANK[alpha], atol=1e-6
        )

    @pytest.mark.parametrize("alpha", sorted(golden.EX1_PAGERANK))
    def test_six_node(self, alpha):
        scores = pagerank(golden.EX1, alpha)
        np.testing.assert_allclose(scores.values, golden.EX1_PAGERANK[alpha], atol=1e-6)

    def test_example_a_limit(self):
        np.testing.assert_allclose(
            pagerank(golden.EX_A, 1.0).values, golden.EX_A_PAGERANK_1, atol=1e-9
        )

    def test_example_b(self):
        scores = pagerank(golden.EX_B, 0.85)
        np.testing.assert_allclose(scores.values, golden.EX_B_PAGERANK_085, atol=1e-6)
        assert not scores.degenerate

    def test_example_c_at_one_reports_multiplicity(self):
        with pytest.raises(MultiplicityError) as err:
            pagerank(golden.EX_C, 1.0)
        assert err.value.multiplicity == 2
        assert "multiplicity of the eigenvalue 1 is not one" in str(err.value)

    def test_example_c_near_one(self):
        np.testing.assert_allclose(
            pagerank(golden.EX_C, 0.9999).values, golden.EX_C_PAGERANK_09999, atol=1e-6
        )
        with pytest.raises(MultiplicityError):
            pagerank(golden.EX_C, 0.99999)

    def test_example_c_at_085(self):
        np.testing.assert_allclose(
            pagerank(golden.EX_C, 0.85).values, golden.EX_C_PAGERANK_085, atol=1e-6
        )

    @pytest.mark.parametrize("alpha", [0.3, 0.85, 1.0])
    def test_k2_symmetry(self, alpha):
        np.testing.assert_allclose(pagerank(golden.K2, alpha).values, [0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 1.5])
    def test_alpha_range(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            pagerank(golden.FOUR_NODE, alpha)

    @pytest.mark.parametrize("alpha", [5.0, float("nan")])
    def test_alpha_is_checked_before_the_chain_is_built(self, monkeypatch, alpha):
        # a 200,001-node edge list asked numpy for 298 GiB before alpha was checked
        def build(adj, out):
            raise AssertionError("the n x n chain was built")

        monkeypatch.setattr(eigenrank, "_generalized_inverse", build)
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\]"):
            pagerank(golden.FOUR_NODE, alpha)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            pagerank(golden.FOUR_NODE, 0.85, method="magic")


class TestMarkovrankGolden:
    @pytest.mark.parametrize("eps", sorted(golden.FOUR_NODE_MARKOVRANK))
    def test_four_node(self, eps):
        scores = markovrank(golden.FOUR_NODE, eps)
        np.testing.assert_allclose(
            scores.values, golden.FOUR_NODE_MARKOVRANK[eps], atol=1e-6
        )

    @pytest.mark.parametrize("eps", sorted(golden.EX1_MARKOVRANK))
    def test_six_node(self, eps):
        scores = markovrank(golden.EX1, eps)
        np.testing.assert_allclose(scores.values, golden.EX1_MARKOVRANK[eps], atol=1e-6)

    def test_example_a(self):
        np.testing.assert_allclose(
            markovrank(golden.EX_A, 0.0).values, golden.EX_A_PAGERANK_1, atol=1e-9
        )
        np.testing.assert_allclose(
            markovrank(golden.EX_A, 1.0).values, golden.EX_A_MARKOVRANK_1, atol=1e-6
        )

    def test_example_b(self):
        scores = markovrank(golden.EX_B, 1.0)
        np.testing.assert_allclose(scores.values, golden.EX_B_MARKOVRANK_1, atol=1e-6)
        assert not scores.degenerate

    def test_example_b_unstable_epsilon_flags_degenerate(self):
        scores = markovrank(golden.EX_B, 1e-15)
        assert scores.degenerate
        # the two-cycle keeps all its mass; the rest decays to roundoff level
        np.testing.assert_allclose(scores.values[3:], [0.5, 0.5], atol=1e-9)

    def test_example_c_boundaries(self):
        for eps in (0.0, 1e-4):
            with pytest.raises(MultiplicityError):
                markovrank(golden.EX_C, eps)
        np.testing.assert_allclose(
            markovrank(golden.EX_C, 1e-3).values, golden.EX_C_MARKOVRANK_1E3, atol=1e-6
        )
        np.testing.assert_allclose(
            markovrank(golden.EX_C, 1.0).values, golden.EX_C_MARKOVRANK_1, atol=1e-6
        )

    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0])
    def test_k2_symmetry(self, eps):
        np.testing.assert_allclose(markovrank(golden.K2, eps).values, [0.5, 0.5], atol=1e-12)

    @pytest.mark.parametrize("eps", [-0.1, 1.2])
    def test_epsilon_range(self, eps):
        with pytest.raises(ValueError, match="epsilon"):
            markovrank(golden.FOUR_NODE, eps)


ALL_GOLDEN = [golden.FOUR_NODE, golden.EX1, golden.EX_A, golden.EX_B, golden.EX_D]
REGULAR_GOLDEN = [golden.FOUR_NODE, golden.EX_A, golden.EX_D, golden.EX1]


class TestCrossMethodProperties:
    @pytest.mark.parametrize("adj", ALL_GOLDEN)
    def test_damped_limit_equals_augmented_limit(self, adj):
        # with a unique fixed point, both parameter boundaries hit the same vector
        np.testing.assert_allclose(
            pagerank(adj, 1.0).values, markovrank(adj, 0.0).values, atol=1e-10
        )

    def test_continuity_toward_alpha_one(self):
        reference = pagerank(golden.EX_A, 1.0).values
        gaps = [
            np.abs(pagerank(golden.EX_A, a).values - reference).max()
            for a in (0.9, 0.99, 0.999, 0.9999)
        ]
        assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3

    def test_continuity_toward_epsilon_zero(self):
        reference = markovrank(golden.EX_A, 0.0).values
        assert np.abs(markovrank(golden.EX_A, 1e-4).values - reference).max() < 1e-3

    @pytest.mark.parametrize("adj", REGULAR_GOLDEN)
    def test_exact_and_power_agree(self, adj):
        for alpha in (0.85, 1.0):
            exact = pagerank(adj, alpha)
            power = pagerank(adj, alpha, method="power")
            assert np.abs(exact.values - power.values).max() <= 1e-8
        for eps in (0.0, 1.0):
            exact = markovrank(adj, eps)
            power = markovrank(adj, eps, method="power")
            assert np.abs(exact.values - power.values).max() <= 1e-8

    @pytest.mark.parametrize("adj", ALL_GOLDEN)
    def test_scores_sum_to_one_and_positive(self, adj):
        for scores in (pagerank(adj, 0.85), markovrank(adj, 1.0)):
            assert abs(scores.values.sum() - 1.0) <= 1e-9
            assert (scores.values > 0).all()


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_augmented_ranking_is_damped_ranking_at_matched_parameter(seed):
    """Cross-check the two constructions against each other.

    Eliminating the hub state from the augmented chain's fixed-point equations
    leaves v = c * Mtilde v + t * ones with c = 2S / (2S + eps), S the total
    weight of the patched adjacency: the augmented ranking at eps must equal
    the damped ranking at alpha = c.
    """
    u = SplitMix64(seed).uniforms(2)
    n = 3 + int(u[0] * 12)
    eps = 0.05 + 0.95 * u[1]
    entries = (SplitMix64(seed + 7).uniforms(n * n) < 0.3).astype(float).reshape(n, n)
    adj = AdjacencyMatrix.from_entries(entries)
    S = patch_zero_rows(adj).entries.sum()
    alpha = 2 * S / (2 * S + eps)
    augmented = augmented_chain_ranking(adj, eps).values
    damped = pagerank(adj, alpha).values
    assert np.abs(augmented - damped).max() <= 1e-10


PARITY_GOLDEN = ["FOUR_NODE", "EX1", "EX_A", "EX_B", "EX_C", "EX_D", "K2"]
PARITY_EPSILONS = [0.0, 1e-15, 1e-12, 1e-4, 1e-3, 0.1, 0.5, 1.0]


@pytest.mark.parametrize("eps", PARITY_EPSILONS)
@pytest.mark.parametrize("name", PARITY_GOLDEN)
def test_markovrank_matches_augmented_chain(name, eps):
    """Hub elimination keeps the errors, flags and scores of the (n+1)-state solve.

    The epsilon grid spans both edges of the pivot-tolerance band, where the
    two solves could disagree on MultiplicityError or on degeneracy.
    """
    adj = getattr(golden, name)
    try:
        expected = augmented_chain_ranking(adj, eps)
    except MultiplicityError:
        with pytest.raises(MultiplicityError):
            markovrank(adj, eps)
        return
    got = markovrank(adj, eps)
    assert got.degenerate == expected.degenerate
    assert np.abs(got.values - expected.values).max() <= 1e-10


@pytest.mark.parametrize(
    "low, degenerate",
    [(1e-12, True), (-1e-3, True), (0.0, True), (np.nextafter(1e-12, 1.0), False)],
)
def test_degenerate_flag_boundary(low, degenerate):
    assert ScoreVector(np.array([low, 1.0 - low]), ("a", "b")).degenerate is degenerate


@pytest.mark.parametrize(
    "values, labels, message",
    [
        ([0.5, 0.5], ("a",), "1 labels for (2,) values"),
        ([[0.5, 0.5]], ("a", "b"), "2 labels for (1, 2) values"),
        ([0.5, 0.4], ("a", "b"), "scores must sum to 1, got 0.9"),
        ([np.nan, 1.0], ("a", "b"), "scores must sum to 1, got nan"),
    ],
    ids=["label-count", "matrix", "sum", "nan-sum"],
)
def test_score_vector_rejects(values, labels, message):
    with pytest.raises(ValueError) as info:
        ScoreVector(np.array(values), labels)
    assert str(info.value) == message


def test_degenerate_zero_sum_vector_raises():
    with pytest.raises(DegenerateVectorError, match="degenerate eigenvector"):
        _normalize_scores(np.array([1.0, -1.0]), ("a", "b"))


def test_power_method_default_tolerance_is_tight():
    scores = pagerank(golden.FOUR_NODE, 0.85, method="power")
    assert np.abs(scores.values - golden.FOUR_NODE_PAGERANK[0.85]).max() <= 1e-7
    assert scores.iterations is not None


def damped_chain_ranking(adj, alpha, method, cfg):
    """pagerank through the public chain constructors, one n x n copy each.

    The oracle for pagerank: exact builds and damps the chain in a single
    array, power applies it from the adjacency's edges.
    """
    chain = damped_transition(transition_generalized_inverse(adj), alpha)
    if method == "power":
        return stationary_power(chain, cfg)
    space = eigenvalue_one_space(chain)
    if space.multiplicity != 1:
        raise MultiplicityError(space.multiplicity)
    return _normalize_scores(space.vector, adj.labels)


def seeded_weighted_network(seed, n=24):
    """Weighted network with zero rows, which the generalized inverse sends uniform."""
    rng = np.random.default_rng(seed)
    entries = rng.random((n, n)) * (rng.random((n, n)) < 0.25)
    entries[rng.random(n) < 0.25] = 0.0
    return AdjacencyMatrix.from_entries(entries)


POWER_CFG = PowerIterConfig(tolerance=1e-15, max_iterations=5000)


def assert_matches_dense_chain(got, expected, method):
    # exact solves the same array; power sums the same terms in another order
    if method == "exact":
        np.testing.assert_array_equal(got.values, expected.values)
    else:
        assert np.abs(got.values - expected.values).max() <= 1e-12
    assert got.iterations == expected.iterations


@pytest.mark.parametrize("alpha", [0.5, 0.85, 0.99, 1.0])
@pytest.mark.parametrize("method", ["exact", "power"])
@pytest.mark.parametrize("seed", range(5))
def test_pagerank_matches_public_constructors_bitwise(seed, method, alpha):
    adj = seeded_weighted_network(seed)
    # an F-ordered adjacency gives a C-ordered public chain; its M @ x rounds
    # otherwise, so at tol 1e-15 the power oracle may stop an iteration apart
    f_ordered = AdjacencyMatrix(np.asfortranarray(adj.entries), adj.labels)
    for a in (adj, f_ordered) if method == "exact" else (adj,):
        expected = damped_chain_ranking(a, alpha, method, POWER_CFG)
        assert_matches_dense_chain(pagerank(a, alpha, method, POWER_CFG), expected, method)


@pytest.mark.parametrize("eps", [0.0, 1e-3, 0.1, 1.0])
@pytest.mark.parametrize("seed", range(5))
def test_exact_markovrank_matches_public_constructors_bitwise(seed, eps):
    adj = seeded_weighted_network(seed)
    expected = damped_chain_ranking(adj, _hub_alpha(adj, eps), "exact", None)
    assert_matches_dense_chain(markovrank(adj, eps), expected, "exact")


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_pagerank_eliminates_in_its_chain():
    # one n x n chain array, eliminated where it is built; the rest is the
    # eliminator's matrix-product temporaries, at most n x 128
    adj = gen_er(400, 0.05, 3)
    assert traced_peak(lambda: pagerank(adj, 0.85)) < 1.5 * adj.entries.nbytes


def edge_backed(tmp_path, source):
    """gen_er(400, 0.05, 3) read from a file in gen's layout or from its edges."""
    entries = gen_er(400, 0.05, 3).entries
    if source == "gen layout":
        path = tmp_path / "er.csv"
        path.write_bytes(_digit_grid_bytes(entries))
        return read_dense_csv(path)
    src, dst = np.nonzero(entries)
    return load_edge_list(zip(map(str, src), map(str, dst)), [str(i) for i in range(400)])


@pytest.mark.parametrize("source", ["gen layout", "edge list"])
@pytest.mark.parametrize("rank", [
    lambda adj: pagerank(adj, 0.85), lambda adj: markovrank(adj, 1.0), invariance_sweep,
], ids=["pagerank", "markovrank", "sweep"])
def test_exact_rankings_of_edges_hold_one_chain(tmp_path, source, rank):
    # no n x n adjacency beside the chain, and no n x n product temporary
    adj = edge_backed(tmp_path, source)
    peak = traced_peak(lambda: rank(adj))
    assert "entries" not in vars(adj)
    assert peak < 1.5 * adj.n * adj.n * 8


@pytest.mark.parametrize("nonzeros, edge_backed", [
    (600 * 600 // 4, True), (600 * 600 // 4 + 1, False), (600 * 600, False),
], ids=["a quarter", "over a quarter", "all"])
def test_gen_layout_storage_holds_at_most_two_arrays(tmp_path, nonzeros, edge_backed):
    # edges cost 32 bytes each in an exact ranking, an n x n adjacency 8 per
    # cell: read_dense_csv keeps a grid's edges up to a quarter of its cells,
    # so the chain and the adjacency take at most two n x n arrays' bytes,
    # besides the eliminator's product temporaries of at most n x 128
    rng = np.random.default_rng(8)
    digits = np.zeros(600 * 600, np.uint8)
    digits[rng.permutation(digits.size)[:nonzeros]] = rng.integers(1, 10, nonzeros)
    path = tmp_path / "grid.csv"
    path.write_bytes(_digit_grid_bytes(digits.reshape(600, 600)))
    assert read_dense_csv(path)._edge_backed == edge_backed
    peak = traced_peak(lambda: pagerank(read_dense_csv(path), 0.85))
    assert peak < 2.5 * digits.size * 8


def test_free_column_costs_no_full_height_multiplier_copy():
    # a closed class on nodes 0..99 and 300 transient nodes: at alpha = 1 the
    # elimination frees a column among the first 128, so the pivots after it
    # are split; their multipliers are read from the chain a slice of rows at
    # a time, never copied at full height
    rng = np.random.default_rng(1)
    entries = np.zeros((400, 400))
    entries[:100, :100] = rng.random((100, 100)) < 0.1
    entries[np.arange(100), (np.arange(100) + 1) % 100] = 1.0
    entries[100:] = rng.random((300, 400)) < 0.05
    src, dst = np.nonzero(entries)
    adj = AdjacencyMatrix._from_edges(src, dst, tuple(str(i) for i in range(400)))
    scores = []
    peak = traced_peak(lambda: scores.append(pagerank(adj, 1.0)))
    assert scores[0].degenerate
    assert peak < 1.6 * 400 * 400 * 8


def test_eigenvalue_one_space_leaves_its_argument():
    chain = damped_transition(transition_generalized_inverse(gen_er(70, 0.1, 5)), 0.85)
    before = chain.entries.copy()
    eigenvalue_one_space(chain)
    np.testing.assert_array_equal(chain.entries, before)


def ranking_outcome(rank, adj, param, method):
    """The scores' bytes and iterations, or the error's type and message."""
    try:
        scores = rank(adj, param, method, PowerIterConfig(max_iterations=300))
    except (MultiplicityError, NonConvergenceError) as exc:
        return type(exc), str(exc)
    return scores.values.tobytes(), scores.iterations


@given(
    n=st.sampled_from([1, 2, 3, 31, 32, 33, 127, 128, 129, 140]),
    density=st.sampled_from([0.0, 0.02, 0.2, 0.25, 1.0]),
    halves=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_edge_backed_and_dense_backed_rank_alike(tmp_path_factory, n, density, halves, seed):
    # read_dense_csv stores a sparse file in gen's layout as edges and a
    # denser one as a dense array; both storages must rank alike, to the bit
    rng = np.random.default_rng(seed)
    digits = rng.integers(1, 10, (n, n)) * (rng.random((n, n)) < density)
    if halves and n > 1:  # two closed classes and no zero row: alpha = 1 is refused
        h = n // 2
        digits[:h, h:] = digits[h:, :h] = 0
        digits[np.arange(n), np.r_[np.arange(1, h), 0, np.arange(h + 1, n), h]] = 1
    else:
        digits[rng.random(n) < 0.2] = 0
    path = tmp_path_factory.mktemp("grid") / "grid.csv"
    path.write_bytes(_digit_grid_bytes(digits))
    read = read_dense_csv(path)
    assert read._edge_backed == (4 * np.count_nonzero(digits) <= n * n)
    src, dst = np.nonzero(digits)
    edges = AdjacencyMatrix._from_edges(src, dst, read.labels, digits[src, dst].astype(float))
    dense = AdjacencyMatrix(digits.astype(float), read.labels)
    for rank, param in ((pagerank, 0.85), (pagerank, 1.0), (markovrank, 1.0), (markovrank, 0.0)):
        for method in ("exact", "power"):
            expected = ranking_outcome(rank, dense, param, method)
            assert ranking_outcome(rank, edges, param, method) == expected
            assert ranking_outcome(rank, read, param, method) == expected
    assert "entries" not in vars(edges)
    assert edges.entries.tobytes() == dense.entries.tobytes() == read.entries.tobytes()


@pytest.mark.parametrize("eps", [0.0, 1e-3, 0.1, 1.0])
@pytest.mark.parametrize("seed", range(5))
def test_power_markovrank_matches_dense_chain(seed, eps):
    adj = seeded_weighted_network(seed)
    expected = damped_chain_ranking(adj, _hub_alpha(adj, eps), "power", POWER_CFG)
    assert_matches_dense_chain(markovrank(adj, eps, "power", POWER_CFG), expected, "power")


def test_power_pagerank_builds_no_chain():
    # the damped chain is applied from the edges: no n x n array at all
    adj = gen_er(400, 0.05, 3)
    tracemalloc.start()
    try:
        pagerank(adj, 0.85, method="power")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * adj.entries.nbytes


@pytest.mark.parametrize("name", PARITY_GOLDEN)
def test_hub_alpha_is_the_doubled_formula(name):
    # S / (S + eps/2) rounds as 2S / (2S + eps) wherever 2S does not overflow
    adj = getattr(golden, name)
    S = patch_zero_rows(adj).entries.sum()
    for eps in PARITY_EPSILONS + [5e-324, 0.3]:
        assert _hub_alpha(adj, eps) == 2 * S / (2 * S + eps)


def test_markovrank_total_weight_near_float_max():
    # 2S overflows although S does not; alpha rounds to 1 on this 2-cycle
    adj = AdjacencyMatrix.from_entries([[0.0, 8e307], [8e307, 0.0]])
    np.testing.assert_array_equal(markovrank(adj, 1.0).values, [0.5, 0.5])


def _column_stochastic(entries):
    entries[:, entries.sum(axis=0) == 0] = 1.0
    return entries / entries.sum(axis=0)


def _closed_class(rng, size):
    # sparse random edges plus a cycle through every state: irreducible
    entries = (rng.random((size, size)) < min(1.0, 5 / size)).astype(float)
    entries[(np.arange(size) + 1) % size, np.arange(size)] = 1.0
    return entries


def eliminator_chain(family, m, seed=0):
    """Column-stochastic m x m chain of one structural family.

    The first closed class has m // 3 states, so its last column is the one
    the elimination skips: inside a panel, with pivots in later panels
    still to come, for m >= 63.
    """
    rng = np.random.default_rng(seed)
    a = max(1, m // 3)
    entries = np.zeros((m, m))
    if family == "irreducible":
        entries = _closed_class(rng, m)
    elif family == "two_classes":
        entries[:a, :a] = _closed_class(rng, a)
        entries[a:, a:] = _closed_class(rng, m - a) if m > a else 0.0
    elif family in ("transient", "permuted_transient"):
        entries[:a, :a] = _closed_class(rng, a)
        entries[:, a:] = rng.random((m, m - a)) < min(1.0, 5 / m)
        entries[0, a:] = 1.0  # every transient state leaks into the closed class
        if family == "permuted_transient":
            perm = rng.permutation(m)
            entries = entries[np.ix_(perm, perm)]
    elif family == "bipartite":
        h = max(1, m // 2)
        entries[:h, h:] = rng.random((h, m - h)) < min(1.0, 5 / m)
        entries[h:, :h] = rng.random((m - h, h)) < min(1.0, 5 / m)
        entries[h:, :h][:, entries[h:, :h].sum(axis=0) == 0] = 1.0
        entries[:h, h:][:, entries[:h, h:].sum(axis=0) == 0] = 1.0
    else:
        raise ValueError(family)
    return TransitionMatrix(_column_stochastic(entries))


ELIMINATOR_SIZES = [1, 2, 3, 63, 64, 65, 127, 128, 129, 255, 256, 257, 300, 400]
ELIMINATOR_FAMILIES = ["irreducible", "two_classes", "transient", "permuted_transient", "bipartite"]
ELIMINATOR_ALPHAS = [1.0, 1 - 1e-9, 1 - 1e-6, 1 - 1e-4, 0.99, 0.85]
ELIMINATOR_EPSILONS = [0.0, 1e-12, 1e-4, 1.0]


def assert_same_null_space(chain, context):
    """eigenvalue_one_space against the oracle; returns the oracle's space."""
    got, expected = eigenvalue_one_space(chain), unblocked_null_space(chain)
    assert got.multiplicity == expected.multiplicity, context
    if expected.multiplicity == 1:
        gap = np.abs(got.vector / got.vector.sum() - expected.vector / expected.vector.sum())
        assert gap.max() <= 1e-12, (context, gap.max())
    return expected


@pytest.mark.parametrize("family", ELIMINATOR_FAMILIES)
@pytest.mark.parametrize("m", ELIMINATOR_SIZES)
def test_blocked_elimination_matches_unblocked(m, family):
    """Same multiplicity and same normalized vector as the unblocked loop.

    Near alpha = 1 the skipped columns fall inside the panels and before
    them, where back-substitution reads their fully updated entries.
    """
    base = eliminator_chain(family, m, seed=m)
    for alpha in ELIMINATOR_ALPHAS:
        assert_same_null_space(damped_transition(base, alpha), alpha)


@pytest.mark.parametrize("m", [m for m in ELIMINATOR_SIZES if m > _BLOCK and m % _BLOCK])
def test_eliminator_sizes_reach_every_level_of_blocking(m):
    """At alpha = 1 the two-class chain frees a column before the last group of
    four panels (_BLOCK columns) and swaps rows in a panel with more of its
    group still to come, so the group's forward substitution crosses a
    swapped panel; and m ends inside a group.  The test below checks every
    group size of the recursive schedule, not only groups of four."""
    chain = damped_transition(eliminator_chain("two_classes", m, seed=m), 1.0)
    _, pivot_rows, swapped_from, free = unblocked_elimination(chain)
    last = (m - 1) // _BLOCK
    assert any(c // _BLOCK < last for c in free)
    assert any(
        i != r and c // _BLOCK < last and c % _BLOCK < _BLOCK - _PANEL
        for (r, c), i in zip(pivot_rows, swapped_from)
    )


def _left_halves(columns, k, m):
    """The left halves of k panels, by index, that hold these columns and whose right half starts before m."""
    w = k * _PANEL
    return {c // w for c in columns if c // w % 2 == 0 and (c // w + 1) * w < m}


def test_every_level_of_the_recursion_sees_a_free_column_and_a_row_swap():
    """After each left half of k panels (k = 1, 2, 4, 8 up to m = 400), its
    pivots reach the right half's columns.  For every k, some two-class chain
    at alpha = 1 frees a column and swaps a pivot row in one such half, so
    each level applies pivots split by a free column over a swapped panel."""
    reached = set()
    for m in [m for m in ELIMINATOR_SIZES if m > _BLOCK and m % _BLOCK]:
        chain = damped_transition(eliminator_chain("two_classes", m, seed=m), 1.0)
        _, pivot_rows, swapped_from, free = unblocked_elimination(chain)
        swapped = [c for (r, c), i in zip(pivot_rows, swapped_from) if i != r]
        reached |= {k for k in (1, 2, 4, 8) if _left_halves(free, k, m) & _left_halves(swapped, k, m)}
    assert reached == {1, 2, 4, 8}


@pytest.mark.parametrize("m", [m for m in ELIMINATOR_SIZES if m > 1])
def test_blocked_elimination_matches_unblocked_on_augmented_chains(m):
    base = eliminator_chain("two_classes", m - 1, seed=m)
    adj = AdjacencyMatrix.from_entries(base.entries.T)
    for eps in ELIMINATOR_EPSILONS:
        chain = transition_from_augmented(augment_adjacency(patch_zero_rows(adj), eps))
        assert_same_null_space(chain, eps)


def two_class_network(seed, m):
    """Two closed classes, each a cycle plus sparse random edges, in shuffled order."""
    rng = np.random.default_rng(seed)
    a = max(1, m // 3)
    entries = np.zeros((m, m))
    entries[:a, :a] = _closed_class(rng, a)
    if m > a:
        entries[a:, a:] = _closed_class(rng, m - a)
    perm = rng.permutation(m)
    return AdjacencyMatrix.from_entries(entries[np.ix_(perm, perm)])


def single_out_link_cycle(seed, m):
    """One cycle through all m nodes in a seeded order: |l| = 1 ties at alpha = 1."""
    order = np.random.default_rng(seed).permutation(m)
    entries = np.zeros((m, m))
    entries[order, np.roll(order, -1)] = 1.0
    return AdjacencyMatrix.from_entries(entries)


ORACLE_NETWORKS = {
    "weighted_zero_rows": seeded_weighted_network,
    "two_classes": two_class_network,
    "single_out_link_cycle": single_out_link_cycle,
}
ORACLE_SIZES = [1, 2, 31, 32, 33, 64, 65, 100, 127, 128, 129, 255, 256, 257, 400, 513]
ORACLE_ALPHAS = [0.5, 0.85, 0.99, 1 - 1e-3, 1 - 1e-4, 1 - 1e-5, 1.0]


@pytest.mark.parametrize("m", ORACLE_SIZES)
@pytest.mark.parametrize("family", sorted(ORACLE_NETWORKS))
def test_eliminator_matches_pivot_rule_oracle(family, m):
    """eigenvalue_one_space and exact pagerank decide as the unblocked pivot rule.

    Every panel but the last of a 33..100-node chain may take the swap-free
    shortcut; its decisions must be the column loop's, on ties and near the
    threshold too.
    """
    adj = ORACLE_NETWORKS[family](m, m)
    for alpha in ORACLE_ALPHAS:
        chain = damped_transition(transition_generalized_inverse(adj), alpha)
        expected = assert_same_null_space(chain, alpha)
        if expected.multiplicity != 1:
            with pytest.raises(MultiplicityError) as err:
                pagerank(adj, alpha)
            assert err.value.multiplicity == expected.multiplicity, alpha
            continue
        gap = np.abs(pagerank(adj, alpha).values - expected.vector / expected.vector.sum())
        assert gap.max() <= 1e-12, (alpha, gap.max())


@pytest.mark.parametrize("seed", range(3))
def test_swap_free_shortcut_takes_every_full_panel(monkeypatch, seed):
    # a damped sparse random chain is strictly diagonally dominant by columns:
    # every panel but the last must take the shortcut, or it stopped running
    kept = []

    def recording(*args):
        kept.append(_panel_without_swaps(*args))
        return kept[-1]

    monkeypatch.setattr(eigenrank, "_panel_without_swaps", recording)
    pagerank(gen_er(300, 0.05, seed), 0.85)
    assert kept == [True] * (300 // _PANEL)


def dense_two_classes(m, a):
    """Dense weighted closed classes 0..a-1 and a..m-1, in that order.

    Eliminating the first class leaves a pivot of order 1 - alpha: below the
    threshold near alpha = 1.  At alpha = 1 the class shows first as a tie,
    |l| = 1 one column earlier; the other multipliers have |l| < 1.
    """
    rng = np.random.default_rng(m)
    entries = np.zeros((m, m))
    entries[:a, :a] = rng.random((a, a)) + 0.1
    entries[a:, a:] = rng.random((m - a, m - a)) + 0.1
    return AdjacencyMatrix.from_entries(entries)


def keeps_first_panel(U, threshold):
    return _panel_without_swaps(U, 0, 0, _PANEL, threshold)


@pytest.mark.parametrize(
    "adj, alpha, reason",
    [
        (single_out_link_cycle(4, 80), 1.0, "tie"),
        (dense_two_classes(80, 10), 1 - 1e-6, "pivot"),
    ],
    ids=["exact_tie", "sub_threshold_pivot"],
)
def test_swap_free_shortcut_refuses_and_leaves_u(adj, alpha, reason):
    chain = damped_transition(transition_generalized_inverse(adj), alpha)
    U = chain.entries - np.eye(adj.n)
    before = U.tobytes()
    assert not keeps_first_panel(U, PIVOT_TOL * adj.n)
    assert U.tobytes() == before
    # a tie refuses at any threshold; the small pivot passes a zero one
    assert keeps_first_panel(U, 0.0) == (reason == "pivot")
