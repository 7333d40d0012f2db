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
    markovrank,
    pagerank,
    patch_zero_rows,
    stationary_power,
    transition_from_augmented,
    transition_from_patched,
    transition_generalized_inverse,
)
from netrank.eigenrank import PIVOT_TOL, EigenSpace, _hub_alpha, _normalize_scores

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


def unblocked_null_space(matrix):
    """The column-by-column threshold elimination, as an oracle for the blocked one.

    Same pivot rule as eigenvalue_one_space (partial pivoting, a column
    skipped when its best pivot is at most PIVOT_TOL*m), with each pivot's
    rank-1 update applied to whole rows at once.
    """
    m = matrix.m
    threshold = PIVOT_TOL * m
    U = matrix.entries - np.eye(m)
    pivot_rows = []
    r = 0
    for c in range(m):
        i = int(np.argmax(np.abs(U[r:, c]))) + r
        if abs(U[i, c]) <= threshold:
            continue
        if i != r:
            U[[r, i]] = U[[i, r]]
        U[r + 1 :] -= (U[r + 1 :, c] / U[r, c])[:, None] * U[r]
        pivot_rows.append((r, c))
        r += 1
    nullity = m - r
    if nullity != 1:
        return EigenSpace(nullity, None, threshold)
    pivot_cols = {c for _, c in pivot_rows}
    free = next(c for c in range(m) if c not in pivot_cols)
    x = np.zeros(m)
    x[free] = 1.0
    for row, c in reversed(pivot_rows):
        x[c] = -(U[row] @ x) / U[row, c]
    return EigenSpace(1, x, threshold)


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

    @pytest.mark.parametrize("M", [golden.CHAIN_3, TransitionMatrix(np.eye(4))])
    def test_tolerance_used_scales_pivot_tol(self, M):
        assert eigenvalue_one_space(M).tolerance_used == PIVOT_TOL * M.m

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
        M = TransitionMatrix(np.eye(3))
        start = np.array([0.2, 0.3, 0.5])
        scores = stationary_power(M, PowerIterConfig(initial=start))
        np.testing.assert_array_equal(scores.values, start)
        assert scores.iterations == 1

    def test_four_node_matches_printed_iterates(self):
        M = transition_from_patched(golden.FOUR_NODE)
        scores = stationary_power(M, PowerIterConfig(tolerance=1e-6))
        np.testing.assert_allclose(scores.values, golden.FOUR_NODE_POWER_1E6, atol=1e-6)

    def test_periodic_chain_does_not_converge(self):
        flip = TransitionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        cfg = PowerIterConfig(
            tolerance=1e-12, max_iterations=500, initial=np.array([1.0, 0.0])
        )
        with pytest.raises(NonConvergenceError) as err:
            stationary_power(flip, cfg)
        assert err.value.iterations == 500
        assert err.value.last_iterate.shape == (2,)

    def test_bad_initial_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            stationary_power(
                golden.CHAIN_3, PowerIterConfig(initial=np.array([1.0, 1.0, 1.0]))
            )

    def test_labels_attached(self):
        scores = stationary_power(golden.CHAIN_3, labels=("x", "y", "z"))
        assert scores.labels == ("x", "y", "z")


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


def test_degenerate_zero_sum_vector_raises():
    with pytest.raises(DegenerateVectorError, match="degenerate eigenvector"):
        _normalize_scores(np.array([1.0, -1.0]), ("a", "b"))


def test_power_method_default_tolerance_is_tight():
    scores = pagerank(golden.FOUR_NODE, 0.85, method="power")
    assert np.abs(scores.values - golden.FOUR_NODE_PAGERANK[0.85]).max() <= 1e-7
    assert scores.iterations is not None


def damped_chain_ranking(adj, alpha, method, cfg):
    """pagerank through the public chain constructors, one n x n copy each.

    The oracle for pagerank's chain, built and damped in a single array.
    """
    chain = damped_transition(transition_generalized_inverse(adj), alpha)
    if method == "power":
        return stationary_power(chain, cfg, labels=adj.labels)
    space = eigenvalue_one_space(chain)
    if space.multiplicity != 1:
        raise MultiplicityError(space.multiplicity)
    return _normalize_scores(space.vector, adj.labels)


@pytest.mark.parametrize("alpha", [0.5, 0.85, 0.99, 1.0])
@pytest.mark.parametrize("method", ["exact", "power"])
@pytest.mark.parametrize("seed", range(5))
def test_pagerank_matches_public_constructors_bitwise(seed, method, alpha):
    # weighted networks with zero rows, which the generalized inverse sends uniform
    rng = np.random.default_rng(seed)
    n = 24
    entries = rng.random((n, n)) * (rng.random((n, n)) < 0.25)
    entries[rng.random(n) < 0.25] = 0.0
    adj = AdjacencyMatrix.from_entries(entries)
    cfg = PowerIterConfig(tolerance=1e-15, max_iterations=5000)
    expected = damped_chain_ranking(adj, alpha, method, cfg)
    got = pagerank(adj, alpha, method, cfg)
    np.testing.assert_array_equal(got.values, expected.values)
    assert got.iterations == expected.iterations


def test_power_pagerank_holds_one_chain():
    # the damped chain is built in place: no undamped n x n chain beside it
    adj = gen_er(400, 0.05, 3)
    tracemalloc.start()
    try:
        pagerank(adj, 0.85, method="power")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * adj.entries.nbytes


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


ELIMINATOR_SIZES = [1, 2, 3, 63, 64, 65, 127, 128, 129, 300]
ELIMINATOR_FAMILIES = ["irreducible", "two_classes", "transient", "permuted_transient", "bipartite"]
ELIMINATOR_ALPHAS = [1.0, 1 - 1e-9, 1 - 1e-6, 1 - 1e-4, 0.99, 0.85]
ELIMINATOR_EPSILONS = [0.0, 1e-12, 1e-4, 1.0]


def assert_same_null_space(chain, context):
    got, expected = eigenvalue_one_space(chain), unblocked_null_space(chain)
    assert got.multiplicity == expected.multiplicity, context
    if expected.multiplicity == 1:
        gap = np.abs(got.vector / got.vector.sum() - expected.vector / expected.vector.sum())
        assert gap.max() <= 1e-12, (context, gap.max())


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


@pytest.mark.parametrize("m", [m for m in ELIMINATOR_SIZES if m > 1])
def test_blocked_elimination_matches_unblocked_on_augmented_chains(m):
    base = eliminator_chain("two_classes", m - 1, seed=m)
    adj = AdjacencyMatrix.from_entries(base.entries.T)
    for eps in ELIMINATOR_EPSILONS:
        chain = transition_from_augmented(augment_adjacency(patch_zero_rows(adj), eps))
        assert_same_null_space(chain, eps)
