"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -rA` to see every line.

Criteria 9 and 10 assert a blanket rank-invariance property over the mixing
parameter on random instances.  That property is generic-position only: the
augmented-chain ranking at epsilon equals the damped ranking at
alpha = 2S/(2S+eps) (S = total patched adjacency weight), so sweeping epsilon
moves every score by O(eps/2S), and instances holding a score pair closer
than that drift swap the pair's order.  At the criterion sizes (n = 50 and
n = 100) roughly a third of random instances contain such a pair, so the
blanket per-instance assertions fail for honest seed streams.  Both tests
below implement their criterion faithfully and are expected to fail; the
violations they report are exclusively sub-drift near-tie swaps, which the
failure messages quantify.  See notes/decisions.md in the review notes for
the full analysis.
"""

import time

import numpy as np
import pytest

from netrank import (
    AdjacencyMatrix,
    MultiplicityError,
    PowerIterConfig,
    SplitMix64,
    agreement_count,
    eigenvalue_one_space,
    gen_block,
    gen_er,
    is_finer,
    is_identical_rank,
    is_regular,
    markovrank,
    pagerank,
    patch_zero_rows,
    rank_statistic,
    stationary_power,
    transition_from_augmented,
    augment_adjacency,
    transition_from_patched,
    transition_generalized_inverse,
    wielandt_bound,
)
from netrank.cli import main as cli_main
from netrank.experiments import BlockSpec

import golden


def report(number, ok, detail):
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_stationary_oracle():
    space = eigenvalue_one_space(golden.CHAIN_3)
    exact = space.vector / space.vector.sum()
    exact_err = np.abs(exact - golden.CHAIN_3_STATIONARY).max()

    power = stationary_power(golden.CHAIN_3, PowerIterConfig(tolerance=1e-6))
    power_err = np.abs(power.values - golden.CHAIN_3_STATIONARY).max()

    best = min(
        _timed(lambda: eigenvalue_one_space(golden.CHAIN_3)) for _ in range(5)
    )
    ok = exact_err <= 1e-9 and power_err <= 2e-6 and best < 1e-3
    report(1, ok, f"exact err {exact_err:.1e}, power err {power_err:.1e}, "
                  f"solve {best * 1e6:.0f} us")
    assert exact_err <= 1e-9
    assert power_err <= 2e-6
    assert best < 1e-3


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_02_four_node_golden_vectors():
    worst = 0.0
    for alpha, expected in golden.FOUR_NODE_PAGERANK.items():
        got = pagerank(golden.FOUR_NODE, alpha).values
        worst = max(worst, np.abs(got - expected).max())
    for eps, expected in golden.FOUR_NODE_MARKOVRANK.items():
        got = markovrank(golden.FOUR_NODE, eps).values
        worst = max(worst, np.abs(got - expected).max())
    report(2, worst <= 1e-6, f"7 vectors, worst entry error {worst:.2e}")
    assert worst <= 1e-6


def test_criterion_03_six_node_golden_vectors_and_rank_identity():
    worst = 0.0
    for alpha, expected in golden.EX1_PAGERANK.items():
        worst = max(worst, np.abs(pagerank(golden.EX1, alpha).values - expected).max())
    for eps, expected in golden.EX1_MARKOVRANK.items():
        worst = max(worst, np.abs(markovrank(golden.EX1, eps).values - expected).max())
    vectors = [pagerank(golden.EX1, 1.0), pagerank(golden.EX1, 0.9)] + [
        markovrank(golden.EX1, eps) for eps in sorted(golden.EX1_MARKOVRANK)
    ]
    identical = all(
        is_identical_rank(a, b) for a in vectors for b in vectors
    )
    report(3, worst <= 1e-6 and identical,
           f"8 vectors, worst error {worst:.2e}, rank statistics identical: {identical}")
    assert worst <= 1e-6
    assert identical


def test_criterion_04_example_a():
    pr1 = pagerank(golden.EX_A, 1.0).values
    mr0 = markovrank(golden.EX_A, 0.0).values
    limit_err = max(
        np.abs(pr1 - golden.EX_A_PAGERANK_1).max(),
        np.abs(mr0 - golden.EX_A_PAGERANK_1).max(),
    )
    mr1_err = np.abs(markovrank(golden.EX_A, 1.0).values - golden.EX_A_MARKOVRANK_1).max()
    finer = is_finer(markovrank(golden.EX_A, 1.0), pagerank(golden.EX_A, 1.0))
    ok = limit_err <= 1e-9 and mr1_err <= 1e-6 and finer
    report(4, ok, f"limit err {limit_err:.1e}, eps=1 err {mr1_err:.1e}, finer: {finer}")
    assert limit_err <= 1e-9
    assert mr1_err <= 1e-6
    assert finer


def test_criterion_05_example_b():
    pr_err = np.abs(pagerank(golden.EX_B, 0.85).values - golden.EX_B_PAGERANK_085).max()
    mr_err = np.abs(markovrank(golden.EX_B, 1.0).values - golden.EX_B_MARKOVRANK_1).max()
    degenerate = markovrank(golden.EX_B, 1e-15).degenerate
    ok = pr_err <= 1e-6 and mr_err <= 1e-6 and degenerate
    report(5, ok, f"alpha=0.85 err {pr_err:.1e}, eps=1 err {mr_err:.1e}, "
                  f"eps=1e-15 degenerate flag: {degenerate}")
    assert pr_err <= 1e-6
    assert mr_err <= 1e-6
    assert degenerate


def test_criterion_06_example_c(tmp_path, capsys):
    failures = []
    for eps in (0.0, 1e-4):
        with pytest.raises(MultiplicityError):
            markovrank(golden.EX_C, eps)
    with pytest.raises(MultiplicityError):
        pagerank(golden.EX_C, 1.0)

    path = tmp_path / "c.csv"
    path.write_text("\n".join(",".join(f"{v:g}" for v in row) for row in golden.EX_C.entries))
    exits = [
        cli_main(["pagerank", str(path), "--alpha", "1"]),
        cli_main(["markovrank", str(path), "--epsilon", "0"]),
        cli_main(["markovrank", str(path), "--epsilon", "1e-4"]),
    ]
    capsys.readouterr()
    err_1e3 = np.abs(markovrank(golden.EX_C, 1e-3).values - golden.EX_C_MARKOVRANK_1E3).max()
    err_1 = np.abs(markovrank(golden.EX_C, 1.0).values - golden.EX_C_MARKOVRANK_1).max()
    ok = exits == [2, 2, 2] and err_1e3 <= 1e-6 and err_1 <= 1e-6
    report(6, ok, f"exit codes {exits}, eps=1e-3 err {err_1e3:.1e}, eps=1 err {err_1:.1e}")
    assert exits == [2, 2, 2]
    assert err_1e3 <= 1e-6
    assert err_1 <= 1e-6


def test_criterion_07_example_d_rank_statistics():
    checks = []
    for alpha in (0.85, 0.9):
        ranks = rank_statistic(pagerank(golden.EX_D, alpha)).ranks
        checks.append((ranks == golden.EX_D_RANKS_LOW_ALPHA).all())
    for alpha in (0.95, 1.0):
        ranks = rank_statistic(pagerank(golden.EX_D, alpha)).ranks
        checks.append((ranks == golden.EX_D_RANKS_HIGH_ALPHA).all())
    for eps in (0.0, 1e-12, 0.1, 1.0):
        ranks = rank_statistic(markovrank(golden.EX_D, eps)).ranks
        checks.append((ranks == golden.EX_D_RANKS_MARKOV).all())
    count = agreement_count(pagerank(golden.EX_D, 0.85), markovrank(golden.EX_D, 1.0))
    ok = all(checks) and count == 4
    report(7, ok, f"8 rank vectors match, agreement(alpha=0.85, eps=1) = {count}")
    assert all(checks)
    assert count == 4


def _random_adjacency_with_zero_rows(seed):
    u = SplitMix64(seed).uniforms(3)
    n = 1 + int(u[0] * 30)
    p = u[1]
    entries = (SplitMix64(seed + 10_000).uniforms(n * n) < p).astype(float).reshape(n, n)
    kill = SplitMix64(seed + 20_000).uniforms(n) < 0.3 * u[2]
    entries[kill] = 0.0
    return AdjacencyMatrix.from_entries(entries)


def test_criterion_08_construction_equivalence():
    worst = 0.0
    for seed in range(200):
        adj = _random_adjacency_with_zero_rows(seed)
        via_inverse = transition_generalized_inverse(adj)
        via_patch = transition_from_patched(patch_zero_rows(adj))
        worst = max(worst, np.abs(via_inverse.entries - via_patch.entries).max())
    report(8, worst <= 1e-12, f"200 matrices (n <= 30), worst route gap {worst:.2e}")
    assert worst <= 1e-12


def test_criterion_09_epsilon_invariance_suite():
    """Faithful per-instance Fact 5 / Fact 6 assertions; expected to fail.

    See the module docstring: at n = 50 the epsilon sweep moves scores by
    about eps/(2S) ~ 2e-3 relative, and instances with a score pair tighter
    than that swap the pair's order, so the blanket assertions below cannot
    hold for all 100 instances of an unmined seed stream.
    """
    t0 = time.perf_counter()
    collected = 0
    seed = 0
    violations = []
    while collected < 100:
        assert seed < 250, "regular-instance yield collapsed; generator broken"
        adj = gen_er(50, 0.1, seed)
        seed += 1
        chain = transition_from_patched(patch_zero_rows(adj))
        if not is_regular(chain).regular:
            continue
        collected += 1
        by_eps = {eps: markovrank(adj, eps) for eps in (0.0, 0.1, 0.5, 1.0)}
        fact5 = all(
            is_identical_rank(by_eps[e1], by_eps[e2])
            for e1 in (0.1, 0.5, 1.0)
            for e2 in (0.1, 0.5, 1.0)
        )
        fact6 = is_finer(by_eps[1.0], by_eps[0.0])
        if not (fact5 and fact6):
            drift = max(
                np.abs(by_eps[e].values - by_eps[1.0].values).max()
                for e in (0.0, 0.1, 0.5)
            )
            gap = np.diff(np.sort(by_eps[1.0].values)).min()
            violations.append((seed - 1, fact5, fact6, drift, gap))
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 60
    detail = (
        f"{collected} regular instances from {seed} seeds in {elapsed:.1f}s; "
        f"{len(violations)} violations"
    )
    if violations:
        worst = max(v[4] / v[3] for v in violations)
        detail += (
            f", every one a near-tie swap (min score gap / parametric drift "
            f"<= {worst:.2f} on each violating instance)"
        )
    report(9, ok, detail)
    assert elapsed < 60
    assert not violations, (
        f"{len(violations)} of {collected} regular instances violate the blanket "
        f"invariance: {[(s, f5, f6) for s, f5, f6, _, _ in violations]}. "
        "Each violating instance holds a score pair closer than the epsilon-drift "
        "eps/(2S), so its order genuinely swaps across the grid; the property is "
        "generic-position only and cannot hold for all unmined instances at n=50."
    )


def _e2_spec(seed):
    return BlockSpec(
        (((80, 80, 0.1), (80, 20, 0.0)), ((20, 80, 0.1), (20, 20, 0.1))),
        seed=seed,
    )


def test_criterion_10_e2_block_suite():
    """Faithful E2-style assertions on 20 instances; expected to fail.

    Same mechanism as criterion 9 at n = 100: about a third of instances hold
    a recurrent-class score pair inside the epsilon-drift window and swap it,
    breaking both the eps in {0.5, 1} rank agreement and the zero-score
    attribution of eps=0 disagreements.
    """
    t0 = time.perf_counter()
    clause_a_failures = []
    clause_b_failures = []
    for seed in range(20):
        adj = gen_block(_e2_spec(seed))
        mr0 = markovrank(adj, 0.0)
        mr05 = markovrank(adj, 0.5)
        mr1 = markovrank(adj, 1.0)
        if not is_identical_rank(mr05, mr1):
            clause_a_failures.append(seed)
        r0 = rank_statistic(mr0).ranks
        r1 = rank_statistic(mr1).ranks
        disagree = r0 != r1
        if not (np.abs(mr0.values[disagree]) <= 1e-12).all():
            offending = np.abs(mr0.values[disagree]).max()
            clause_b_failures.append((seed, float(f"{offending:.10g}")))  # rounding does not move 10 digits
    elapsed = time.perf_counter() - t0
    ok = not clause_a_failures and not clause_b_failures and elapsed < 120
    report(
        10,
        ok,
        f"20 instances in {elapsed:.1f}s; rank agreement eps {{0.5,1}} failed on "
        f"{clause_a_failures or 'none'}; zero-score attribution failed on "
        f"{[s for s, _ in clause_b_failures] or 'none'}",
    )
    assert elapsed < 120
    assert not clause_a_failures and not clause_b_failures, (
        f"near-tie swaps inside the epsilon-drift window: rank agreement failed for "
        f"seeds {clause_a_failures}, zero-score attribution failed for "
        f"{clause_b_failures} (seed, largest eps=0 score at a disagreeing position). "
        "Disagreements beyond the transient (zero-score) nodes come from recurrent "
        "score pairs closer than the drift eps/(2S); the blanket attribution cannot "
        "hold for all unmined instances."
    )


def test_criterion_11_exact_vs_power_agreement():
    t0 = time.perf_counter()
    cfg = PowerIterConfig(tolerance=1e-15)
    worst = 0.0
    for adj in (golden.FOUR_NODE, golden.EX_A, golden.EX_D, golden.EX1):
        for alpha in (0.85, 1.0):
            gap = np.abs(
                pagerank(adj, alpha).values
                - pagerank(adj, alpha, method="power", cfg=cfg).values
            ).max()
            worst = max(worst, gap)
        for eps in (0.0, 1.0):
            gap = np.abs(
                markovrank(adj, eps).values
                - markovrank(adj, eps, method="power", cfg=cfg).values
            ).max()
            worst = max(worst, gap)

    adj = gen_er(500, 0.1, 0)
    assert is_regular(transition_from_patched(patch_zero_rows(adj))).regular
    identity_gap = np.abs(
        pagerank(adj, 1.0, method="power", cfg=cfg).values
        - markovrank(adj, 0.0, method="power", cfg=cfg).values
    ).max()
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and identity_gap <= 1e-10 and elapsed < 60
    report(11, ok, f"exact/power worst gap {worst:.1e}, n=500 limit identity gap "
                   f"{identity_gap:.1e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert identity_gap <= 1e-10
    assert elapsed < 60


def test_criterion_12_regularity_witnesses():
    w4 = is_regular(transition_from_patched(golden.FOUR_NODE))
    wd = is_regular(transition_from_patched(golden.EX_D))
    wb = is_regular(
        transition_from_patched(patch_zero_rows(golden.EX_B)),
        k_max=wielandt_bound(5),
    )
    aug_witnesses = []
    for adj in (golden.FOUR_NODE, golden.EX1, golden.EX_A, golden.EX_B,
                golden.EX_C, golden.EX_D):
        for eps in (0.1, 0.5, 1.0):
            chain = transition_from_augmented(
                augment_adjacency(patch_zero_rows(adj), eps)
            )
            result = is_regular(chain)
            aug_witnesses.append(result.witness_k if result.regular else None)
    ok = (
        w4.witness_k == 5
        and wd.witness_k == 4
        and not wb.regular
        and all(w is not None and w <= 3 for w in aug_witnesses)
    )
    report(12, ok, f"witnesses: 4-node {w4.witness_k}, D {wd.witness_k}, "
                   f"B regular={wb.regular}, augmented max {max(aug_witnesses)}")
    assert w4.witness_k == 5
    assert wd.witness_k == 4
    assert not wb.regular
    assert all(w is not None and w <= 3 for w in aug_witnesses)
