import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netrank import (
    AdjacencyMatrix,
    BlockSpec,
    SplitMix64,
    TransitionMatrix,
    augment_adjacency,
    damped_transition,
    gen_block,
    gen_er,
    is_regular,
    load_edge_list,
    patch_zero_rows,
    read_dense_csv,
    transition_from_augmented,
    transition_from_patched,
    transition_generalized_inverse,
    wielandt_bound,
)
from netrank.graph_core import _digit_grid_bytes

import golden


class TestTransitionMatrixType:
    def test_rejects_non_stochastic_columns(self):
        with pytest.raises(ValueError, match="sum to 1"):
            TransitionMatrix(np.array([[0.5, 0.2], [0.4, 0.8]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            TransitionMatrix(np.array([[1.5, 0.0], [-0.5, 1.0]]))

    @pytest.mark.parametrize("bad, problem", [(np.nan, "non-negative"), (np.inf, "sum to 1")])
    def test_rejects_non_finite(self, bad, problem):
        # NaN compares false both ways, so a `> tol` or `< 0` test lets it through
        with pytest.raises(ValueError, match=problem):
            TransitionMatrix(np.array([[bad, 0.5], [1.0, 0.5]]))

    @pytest.mark.parametrize("shape", [(2, 3), (0, 0), (4,)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError) as info:
            TransitionMatrix(np.ones(shape))
        assert str(info.value) == f"transition matrix must be square, got shape {shape}"

    def test_accepts_chain_3(self):
        assert golden.CHAIN_3.m == 3


class TestTransitionFromPatched:
    def test_four_node_printed_matrix(self):
        M = transition_from_patched(golden.FOUR_NODE)
        np.testing.assert_allclose(M.entries, golden.FOUR_NODE_M, atol=1e-15)

    def test_self_loops_give_identity(self):
        adj = AdjacencyMatrix.from_entries(np.eye(3))
        M = transition_from_patched(adj)
        np.testing.assert_array_equal(M.entries, np.eye(3))

    def test_patched_six_node_column_six_uniform(self):
        # the patched all-ones row has sum 6, so its column is (1/6, ..., 1/6)
        M = transition_from_patched(patch_zero_rows(golden.EX1))
        np.testing.assert_allclose(M.entries[:, 5], np.full(6, 1 / 6), atol=1e-15)

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="zero sum"):
            transition_from_patched(golden.EX1)


class TestTransitionGeneralizedInverse:
    def test_worked_zero_row_case(self):
        M = transition_generalized_inverse(golden.FOUR_NODE_ZERO_ROW)
        np.testing.assert_allclose(M.entries, golden.FOUR_NODE_ZERO_ROW_MTILDE, atol=1e-15)

    def test_no_zero_rows_matches_patched_route(self):
        direct = transition_generalized_inverse(golden.FOUR_NODE)
        patched = transition_from_patched(golden.FOUR_NODE)
        np.testing.assert_array_equal(direct.entries, patched.entries)

    def test_all_zero_matrix_goes_uniform(self):
        adj = AdjacencyMatrix.from_entries(np.zeros((3, 3)))
        M = transition_generalized_inverse(adj)
        np.testing.assert_allclose(M.entries, np.full((3, 3), 1 / 3), atol=1e-15)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_keeps_the_layout_of_the_transpose(self, order):
        # the layout decides the summation order of M @ x in power iteration
        base = gen_er(30, 0.2, 4)
        adj = AdjacencyMatrix(np.asarray(base.entries, order=order), base.labels)
        assert adj.entries.flags[f"{order}_CONTIGUOUS"]
        M = transition_generalized_inverse(adj).entries
        assert M.flags.c_contiguous == adj.entries.T.flags.c_contiguous
        assert M.flags.f_contiguous == adj.entries.T.flags.f_contiguous


def random_adjacency(seed, max_n=30):
    u = SplitMix64(seed).uniforms(3)
    n = 1 + int(u[0] * max_n)
    p = u[1]
    entries = (SplitMix64(seed + 1).uniforms(n * n) < p).astype(float).reshape(n, n)
    # force a few zero rows so both construction routes diverge without the fix
    kill = SplitMix64(seed + 2).uniforms(n) < u[2] * 0.5
    entries[kill] = 0.0
    return AdjacencyMatrix.from_entries(entries)


@pytest.mark.parametrize("seed", range(0, 40, 4))
def test_construction_routes_agree(seed):
    adj = random_adjacency(seed)
    via_inverse = transition_generalized_inverse(adj)
    via_patch = transition_from_patched(patch_zero_rows(adj))
    np.testing.assert_array_equal(via_inverse.entries, via_patch.entries)


@pytest.mark.parametrize("seed", range(20))
def test_construction_routes_bitwise_equal_on_weighted_inputs(seed):
    # rankings use the generalized inverse in place of the patched route,
    # so the two must agree to the last bit, not just within a tolerance
    base = random_adjacency(seed).entries
    weights = SplitMix64(seed + 3).uniforms(base.size).reshape(base.shape)
    adj = AdjacencyMatrix.from_entries(base * weights * 10.0 ** (seed % 7 - 3))
    via_inverse = transition_generalized_inverse(adj)
    via_patch = transition_from_patched(patch_zero_rows(adj))
    np.testing.assert_array_equal(via_inverse.entries, via_patch.entries)


@pytest.mark.parametrize("source", ["edge list", "gen layout"])
def test_generalized_inverse_of_edges_builds_no_entries(tmp_path, source):
    rng = np.random.default_rng(4)
    digits = rng.integers(1, 10, (60, 60)) * (rng.random((60, 60)) < 0.1)
    digits[[3, 17, 59]] = 0
    if source == "edge list":
        src, dst = np.nonzero(digits)
        adj = load_edge_list(zip(map(str, src), map(str, dst)), [str(i) for i in range(60)])
    else:
        path = tmp_path / "grid.csv"
        path.write_bytes(_digit_grid_bytes(digits))
        adj = read_dense_csv(path)
    chain = transition_generalized_inverse(adj)
    assert "entries" not in vars(adj)
    expected = transition_from_patched(patch_zero_rows(adj))
    assert chain.entries.tobytes() == expected.entries.tobytes()
    # the layout of A^T, which rounds M @ x in stationary_power
    assert chain.entries.flags.f_contiguous and expected.entries.flags.f_contiguous


def test_patched_route_of_an_edge_list_holds_only_the_chain():
    # no zero rows, so the chain is scattered from the edges: no n x n adjacency beside it
    n = 1000
    adj = load_edge_list((str(i), str((i + d) % n)) for i in range(n) for d in (1, 2, 3, 5, 8))
    tracemalloc.start()
    try:
        chain = transition_from_patched(adj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "entries" not in vars(adj)
    assert peak <= 1.1 * chain.entries.nbytes


class TestDampedTransition:
    def test_alpha_one_is_identity_damping(self):
        M = transition_from_patched(golden.FOUR_NODE)
        np.testing.assert_array_equal(damped_transition(M, 1.0).entries, M.entries)

    def test_tiny_alpha_approaches_uniform(self):
        M = transition_from_patched(golden.FOUR_NODE)
        damped = damped_transition(M, 1e-9)
        assert np.abs(damped.entries - 0.25).max() < 1e-8

    def test_hand_computed_entry(self):
        M = transition_from_patched(golden.FOUR_NODE)
        damped = damped_transition(M, 0.85)
        assert damped.entries[0, 1] == pytest.approx(0.85 * 0.5 + 0.15 / 4, abs=1e-15)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.0001])
    def test_alpha_out_of_range(self, alpha):
        M = transition_from_patched(golden.FOUR_NODE)
        with pytest.raises(ValueError, match="alpha"):
            damped_transition(M, alpha)

    def test_strictly_positive_below_one(self):
        M = transition_from_patched(golden.FOUR_NODE)
        damped = damped_transition(M, 0.85)
        assert (damped.entries > 0).all()
        assert is_regular(damped).witness_k == 1

    @pytest.mark.parametrize("alpha", [0.5, 0.85, 0.99, 1.0])
    def test_in_place_damping_rounds_as_the_expression(self, alpha):
        # alpha * M + (1 - alpha) / m, evaluated with a temporary per operation
        M = transition_generalized_inverse(gen_er(30, 0.2, 4))
        expected = alpha * M.entries + (1.0 - alpha) / M.m
        damped = damped_transition(M, alpha).entries
        np.testing.assert_array_equal(damped, expected)
        # the layout decides the summation order of M @ x in power iteration
        assert damped.flags.f_contiguous == expected.flags.f_contiguous


class TestAugmentAdjacency:
    def test_is_an_adjacency_with_the_hub_last(self):
        aug = augment_adjacency(golden.FOUR_NODE, 0.5)
        assert isinstance(aug, AdjacencyMatrix)
        assert aug.labels == ("1", "2", "3", "4", "5")
        np.testing.assert_array_equal(aug.entries[4], [1, 1, 1, 1, 0])

    def test_epsilon_zero_empty_last_column(self):
        patched = patch_zero_rows(golden.EX1)
        aug = augment_adjacency(patched, 0.0)
        np.testing.assert_array_equal(aug.entries[:6, 6], np.zeros(6))
        np.testing.assert_array_equal(aug.entries[6], [1, 1, 1, 1, 1, 1, 0])

    def test_four_node_epsilon_one_weights(self):
        # row sums (2, 2, 1, 1), total 6: hub weights (2/12, 2/12, 1/12, 1/12)
        aug = augment_adjacency(golden.FOUR_NODE, 1.0)
        np.testing.assert_allclose(
            aug.entries[:4, 4], np.array([2, 2, 1, 1]) / 12.0, atol=1e-15
        )

    def test_base_block_preserved(self):
        for eps in (0.0, 0.3, 1.0):
            aug = augment_adjacency(golden.FOUR_NODE, eps)
            np.testing.assert_array_equal(aug.entries[:4, :4], golden.FOUR_NODE.entries)

    @pytest.mark.parametrize("eps", [-0.01, 1.01])
    def test_epsilon_out_of_range(self, eps):
        with pytest.raises(ValueError, match="epsilon"):
            augment_adjacency(golden.FOUR_NODE, eps)

    def test_unpatched_base_rejected(self):
        with pytest.raises(ValueError, match="patch"):
            augment_adjacency(golden.EX1, 0.5)


class TestTransitionFromAugmented:
    def test_hub_column_is_uniform(self):
        for eps in (0.0, 0.5, 1.0):
            M = transition_from_augmented(augment_adjacency(golden.FOUR_NODE, eps))
            np.testing.assert_allclose(M.entries[:, 4], [0.25, 0.25, 0.25, 0.25, 0.0])

    def test_epsilon_zero_keeps_base_chain(self):
        M = transition_from_augmented(augment_adjacency(golden.FOUR_NODE, 0.0))
        base = transition_from_patched(golden.FOUR_NODE)
        np.testing.assert_allclose(M.entries[:4, :4], base.entries, atol=1e-15)

    def test_six_node_columns_stochastic_at_half(self):
        M = transition_from_augmented(
            augment_adjacency(patch_zero_rows(golden.EX1), 0.5)
        )
        np.testing.assert_allclose(M.entries.sum(axis=0), np.ones(7), atol=1e-12)


def int_pattern_regular(matrix, k_max=None):
    """is_regular with int64 pattern powers and raw-bytes keys, as an oracle."""
    if k_max is None:
        k_max = wielandt_bound(matrix.m)
    step = (matrix.entries > 0).astype(np.int64)
    pattern = step.copy()
    seen = set()
    for k in range(1, k_max + 1):
        if pattern.all():
            return True, k
        key = pattern.tobytes()
        if key in seen:
            return False, None
        seen.add(key)
        pattern = (pattern @ step > 0).astype(np.int64)
    return False, None


class TestIsRegular:
    def test_four_node_witness_five(self):
        result = is_regular(transition_from_patched(golden.FOUR_NODE))
        assert result.regular and result.witness_k == 5

    def test_example_d_witness_four(self):
        result = is_regular(transition_from_patched(golden.EX_D))
        assert result.regular and result.witness_k == 4

    def test_example_b_not_regular(self):
        result = is_regular(transition_from_patched(patch_zero_rows(golden.EX_B)))
        assert not result.regular and result.witness_k is None

    def test_example_c_not_regular(self):
        result = is_regular(transition_from_patched(golden.EX_C))
        assert not result.regular

    def test_augmented_chains_witness_at_most_three(self):
        for adj in (golden.FOUR_NODE, golden.EX1, golden.EX_A, golden.EX_B,
                    golden.EX_C, golden.EX_D):
            for eps in (0.1, 0.5, 1.0):
                M = transition_from_augmented(
                    augment_adjacency(patch_zero_rows(adj), eps)
                )
                result = is_regular(M)
                assert result.regular and result.witness_k <= 3

    def test_k_max_cutoff(self):
        M = transition_from_patched(golden.FOUR_NODE)
        assert not is_regular(M, k_max=4).regular
        assert is_regular(M, k_max=5).witness_k == 5

    def test_one_state_chain(self):
        M = TransitionMatrix(np.array([[1.0]]))
        assert is_regular(M).witness_k == 1

    def test_wielandt_bound(self):
        assert wielandt_bound(4) == 10
        assert wielandt_bound(1) == 1


@given(st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_stochasticity_preserved_by_constructions(seed):
    adj = random_adjacency(seed, max_n=12)
    patched = patch_zero_rows(adj)
    for M in (
        transition_generalized_inverse(adj),
        damped_transition(transition_from_patched(patched), 0.85),
        transition_from_augmented(augment_adjacency(patched, 0.7)),
    ):
        np.testing.assert_allclose(M.entries.sum(axis=0), 1.0, atol=1e-12)
        assert (M.entries >= 0).all()


def regularity_chain(family, seed):
    n = 20 + seed % 25
    h = n // 2
    if family == "er":
        adj = gen_er(n, 0.1, seed)
    elif family == "block":
        grid = (((h, h, 0.3), (h, n - h, 0.02)), ((n - h, h, 0.02), (n - h, n - h, 0.3)))
        adj = gen_block(BlockSpec(grid, seed=seed))
    else:  # bipartite: period 2, never regular
        grid = (((h, h, 0.0), (h, n - h, 0.3)), ((n - h, h, 0.3), (n - h, n - h, 0.0)))
        adj = gen_block(BlockSpec(grid, seed=seed))
    return transition_from_patched(patch_zero_rows(adj))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("family", ["er", "block", "bipartite"])
def test_is_regular_matches_integer_pattern_powers(family, seed):
    M = regularity_chain(family, seed)
    expected = int_pattern_regular(M)
    result = is_regular(M)
    assert (result.regular, result.witness_k) == expected
    if expected[0]:
        # a cutoff below the witness ends the search undecided: not regular
        k = expected[1] - 1
        result = is_regular(M, k_max=k)
        assert (result.regular, result.witness_k) == int_pattern_regular(M, k_max=k)
        assert not result.regular


def _builders(n=400):
    adj = gen_er(n, 0.05, 3)
    patched = patch_zero_rows(adj)
    augmented = augment_adjacency(patched, 0.5)
    chain = transition_generalized_inverse(adj)
    edges = [(str(i), str((i + d) % n)) for i in range(n) for d in (1, 7)]
    return {
        "load_edge_list": lambda: load_edge_list(edges),
        "transition_generalized_inverse": lambda: transition_generalized_inverse(adj),
        "damped_transition": lambda: damped_transition(chain, 0.85),
        "augment_adjacency": lambda: augment_adjacency(patched, 0.5),
        "transition_from_augmented": lambda: transition_from_augmented(augmented),
    }


@pytest.mark.parametrize("name", sorted(_builders(2)))
def test_builders_keep_their_fresh_array(name):
    # a builder that copies its freshly built n x n array peaks at twice its result
    build = _builders()[name]
    tracemalloc.start()
    try:
        result = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * result.entries.nbytes
