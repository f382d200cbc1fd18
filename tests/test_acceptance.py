"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 5/6 note: the waste-game dual bounds are computed with per-side
best-response value functions as penalty generators (the experiment's
default). The pair-value construction is demonstrated separately below:
its likelihood-ratio amplification makes the estimates diverge, which is
why the default was chosen. Later rounds have no published numeric
targets, so criterion 6 checks the quantified gap properties instead.
"""

import time

import numpy as np
import pytest

import zsgdual as zd
from zsgdual import experiments

from oracles import (
    dense_kernel,
    icdf,
    random_discounted_game,
    random_policy,
    rollout_pair,
    two_by_two_game_value,
)

N_WASTE_SCENARIOS = 5_000
WASTE_SEED = 7
REFERENCE_LOWER = 128.8
REFERENCE_UPPER = 365.5


@pytest.fixture(scope="module")
def waste10_k0():
    t0 = time.perf_counter()
    result = experiments.run_waste_experiment(
        n_sites=10, rounds=0, n=N_WASTE_SCENARIOS, seed=WASTE_SEED
    )
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def waste10_sweep():
    t0 = time.perf_counter()
    result = experiments.run_waste_experiment(
        n_sites=10, rounds=3, n=N_WASTE_SCENARIOS, seed=WASTE_SEED
    )
    return result, time.perf_counter() - t0


def test_criterion_1_two_period_equilibrium(two_period):
    t0 = time.perf_counter()
    J, mu, nu = zd.shapley_value_iteration(two_period, tol=1e-10)
    elapsed = time.perf_counter() - t0
    np.testing.assert_allclose(J[:3], [5.0, 10.0, -10.0], atol=1e-9)
    np.testing.assert_allclose(mu[0], [0.5, 0.5], atol=1e-7)
    np.testing.assert_allclose(nu[0], [0.75, 0.25], atol=1e-7)
    np.testing.assert_allclose(mu[1], [0.0, 1.0], atol=1e-7)
    np.testing.assert_allclose(nu[1], [1.0, 0.0], atol=1e-7)
    np.testing.assert_allclose(mu[2], [1.0, 0.0], atol=1e-7)
    np.testing.assert_allclose(nu[2], [0.0, 1.0], atol=1e-7)
    assert elapsed < 0.1
    print(
        f"\nACCEPTANCE 1 PASS: equilibrium values {np.round(J[:3], 9).tolist()} "
        f"and mixed strategies reproduced in {elapsed * 1e3:.1f} ms"
    )


def test_criterion_2_best_response_to_imbalanced_minimizer(two_period):
    nu_hat = zd.suboptimal_minimizer_policy(two_period)
    values, responder = zd.best_response(two_period, nu_hat, zd.PLAYER_B)
    assert values[0] == pytest.approx(5.6, abs=1e-9)
    np.testing.assert_allclose(responder[0], [0.0, 1.0])
    continuation = np.array([0.0, values[1], values[2], 0.0])
    Q = two_period.cost[0] + two_period.transition[0] @ continuation
    np.testing.assert_allclose(Q, [[6.0, 2.0], [4.0, 8.0]], atol=1e-12)
    print(
        "ACCEPTANCE 2 PASS: best response 5.6 via second action, "
        "lookahead matrix [[6,2],[4,8]] exact"
    )


def test_criterion_3_finite_strong_duality_pathwise(two_period):
    nu_hat = zd.suboptimal_minimizer_policy(two_period)
    view = zd.fix_player(two_period, nu_hat, zd.PLAYER_B)
    exact, _ = zd.solve_view(view)
    est = zd.estimate_dual_bound_finite(view, exact, 1000, seed=1, keep_values=True)
    dev = float(np.abs(est.per_scenario_values - 5.6).max())
    assert dev < 1e-9
    assert est.standard_error == 0.0
    print(
        f"ACCEPTANCE 3 PASS: 1000/1000 scenarios give 5.6 "
        f"(max deviation {dev:.1e}), reported SE = 0"
    )


def test_criterion_4_rough_generator_bound_against_oracle(two_period):
    nu_hat = zd.suboptimal_minimizer_policy(two_period)
    view = zd.fix_player(two_period, nu_hat, zd.PLAYER_B)
    h = zd.first_action_value_generator(two_period)
    t0 = time.perf_counter()
    golden = zd.exact_dual_bound_enumeration(view, h)
    est = zd.estimate_dual_bound_finite(view, h, 10_000, seed=1)
    elapsed = time.perf_counter() - t0
    assert 5.6 <= golden <= 6.5
    assert abs(est.mean - golden) <= 3 * est.standard_error
    assert est.standard_error <= 0.05
    assert elapsed < 5.0
    print(
        f"ACCEPTANCE 4 PASS: enumeration value {golden:.6f} in [5.6, 6.5], "
        f"estimate {est.mean:.4f} +- {est.standard_error:.4f} within 3 SE "
        f"({elapsed:.2f} s)"
    )


def test_criterion_5_waste_game_reference_bounds(waste10_k0):
    result, elapsed = waste10_k0
    row = result.rows[0]
    assert abs(row.dual_lower - REFERENCE_LOWER) <= 0.10 * REFERENCE_LOWER
    assert abs(row.dual_upper - REFERENCE_UPPER) <= 0.10 * REFERENCE_UPPER
    assert row.dual_lower - 3 * row.dual_lower_se <= row.br_lower + 1e-9
    assert row.br_upper <= row.dual_upper + 3 * row.dual_upper_se + 1e-9
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 5 PASS: k=0 dual bounds [{row.dual_lower:.4f}, "
        f"{row.dual_upper:.4f}] within 10% of [{REFERENCE_LOWER}, "
        f"{REFERENCE_UPPER}]; exact responses [{row.br_lower:.4f}, "
        f"{row.br_upper:.4f}] bracketed ({elapsed:.1f} s)"
    )


def test_criterion_6_waste_game_gap_convergence(waste10_sweep):
    result, elapsed = waste10_sweep
    rows = result.rows
    assert [row.k for row in rows] == [0, 1, 2, 3]
    gaps = [row.dual_upper - row.dual_lower for row in rows]
    for a, b, row_a, row_b in zip(gaps, gaps[1:], rows, rows[1:]):
        slack = 3 * (
            row_a.dual_lower_se + row_a.dual_upper_se
            + row_b.dual_lower_se + row_b.dual_upper_se
        )
        assert b <= a + slack
    for row in rows[2:]:
        gap = row.dual_upper - row.dual_lower
        assert gap <= 0.10 * row.pair_value
    assert elapsed < 300.0
    print(
        f"ACCEPTANCE 6 PASS: root gaps {[f'{g:.4g}' for g in gaps]} "
        f"non-increasing, k>=2 gap under 10% of the pair value "
        f"({elapsed:.1f} s)"
    )


def test_criterion_7_ssp_strong_duality_pathwise(waste3):
    nu = zd.uniform_policy(waste3, zd.PLAYER_B)
    view = zd.fix_player(waste3, nu, zd.PLAYER_B)
    exact, _ = zd.solve_view(view, tol=0.0)
    q = zd.make_uniform_reference(waste3)
    est = zd.estimate_dual_bound_ssp(
        view, exact, q, 500, seed=WASTE_SEED, keep_values=True
    )
    dev = float(np.abs(est.per_scenario_values - exact[waste3.root]).max())
    assert dev < 1e-7
    assert est.standard_error == 0.0
    print(
        f"ACCEPTANCE 7 PASS: 500/500 q-paths give the exact response value "
        f"{exact[waste3.root]:.6f} (max deviation {dev:.1e}), SE = 0"
    )


class TestCriterion8PropertySuites:
    def test_matrix_solver_saddle_and_affine_covariance(self):
        rng = np.random.default_rng(80)
        for _ in range(200):
            m, n = rng.integers(1, 7, size=2)
            R = rng.uniform(-10, 10, size=(m, n))
            sol = zd.solve(R)
            assert (sol.row_strategy @ R).min() >= sol.value - 1e-7
            assert (R @ sol.col_strategy).max() <= sol.value + 1e-7
            a, b = rng.uniform(0.1, 3.0), rng.uniform(-5.0, 5.0)
            shifted = zd.solve(a * R + b)
            assert abs(shifted.value - (a * sol.value + b)) <= 1e-7
        print("ACCEPTANCE 8a PASS: saddle + affine covariance on 200 matrices")

    def test_backup_operator_contraction(self):
        rng = np.random.default_rng(81)
        for _ in range(50):
            model = random_discounted_game(rng, n_states=4, alpha=0.85)
            J1 = rng.uniform(-10, 10, size=4)
            J2 = rng.uniform(-10, 10, size=4)
            T1, _, _ = zd.shapley_backup(model, J1)
            T2, _, _ = zd.shapley_backup(model, J2)
            assert np.abs(T1 - T2).max() <= 0.85 * np.abs(J1 - J2).max() + 1e-9
        print("ACCEPTANCE 8b PASS: backup contraction on 50 discounted games")

    def test_zero_mean_penalties(self, two_period):
        nu_hat = zd.suboptimal_minimizer_policy(two_period)
        view = zd.fix_player(two_period, nu_hat, zd.PLAYER_B)
        h = np.array([0.0, 6.5, -3.0, 0.0])
        n = 6000
        totals = np.empty(n)
        kernel = dense_kernel(view)
        for i in range(n):
            w = zd.scenario_rng(17, i).random(2)
            x, total = 0, 0.0
            for t in range(2):
                nxt = icdf(np.cumsum(kernel[x, 1]), w[t])
                total += kernel[x, 1] @ h - h[nxt]
                x = nxt
            totals[i] = total
        se = totals.std(ddof=1) / np.sqrt(n)
        assert abs(totals.mean()) <= 3 * se
        print(
            f"ACCEPTANCE 8c PASS: accumulated penalties mean "
            f"{totals.mean():+.4f} within 3 SE ({se:.4f}) of zero"
        )

    def test_evaluation_matches_rollout(self, waste3):
        mu = zd.uniform_policy(waste3, zd.PLAYER_A)
        nu = zd.uniform_policy(waste3, zd.PLAYER_B)
        J = zd.evaluate_policy_pair(waste3, mu, nu)
        mean, se = rollout_pair(waste3, mu, nu, waste3.root, 30_000, seed=82)
        assert abs(mean - J[waste3.root]) <= 3 * se

        rng = np.random.default_rng(83)
        model = random_discounted_game(rng, n_states=4, alpha=0.8)
        mu_d = random_policy(rng, model, zd.PLAYER_A)
        nu_d = random_policy(rng, model, zd.PLAYER_B)
        J_d = zd.evaluate_policy_pair(model, mu_d, nu_d)
        mean_d, se_d = rollout_pair(model, mu_d, nu_d, 0, 40_000, seed=84)
        assert abs(mean_d - J_d[0]) <= 3 * se_d
        print(
            "ACCEPTANCE 8d PASS: linear-solve evaluation within 3 SE of "
            "episodic rollouts (absorbing and discounted regimes)"
        )

    def test_estimates_prefix_stable_across_scenario_counts(self, two_period, waste3):
        nu_hat = zd.suboptimal_minimizer_policy(two_period)
        view_f = zd.fix_player(two_period, nu_hat, zd.PLAYER_B)
        h_f = zd.first_action_value_generator(two_period)
        finite = [
            zd.estimate_dual_bound_finite(view_f, h_f, n, seed=3, keep_values=True)
            for n in (1000, 2000)
        ]
        mu = zd.uniform_policy(waste3, zd.PLAYER_A)
        view_s = zd.fix_player(waste3, mu, zd.PLAYER_A)
        h_s, _ = zd.solve_view(view_s, tol=0.0)
        q = zd.make_uniform_reference(waste3)
        ssp = [
            zd.estimate_dual_bound_ssp(
                view_s, h_s * 0.97, q, n, seed=3, keep_values=True
            )
            for n in (500, 1000)
        ]
        for short, full in (finite, ssp):
            k = short.n_scenarios
            assert np.unique(full.per_scenario_values).size > 1
            np.testing.assert_array_equal(
                short.per_scenario_values, full.per_scenario_values[:k]
            )
        print(
            "ACCEPTANCE 8e PASS: a k-scenario run reproduces the first k "
            "per-scenario values of a 2k-scenario run bit for bit"
        )


def test_pair_value_generator_divergence_documented():
    """Demonstrates why the experiment defaults to response-value generators.

    With the round's pair value as the generator on both sides, the
    clairvoyant inner optimizer rides the likelihood ratios and the
    estimates blow up by orders of magnitude (they remain valid bounds, so
    the exact interval is still bracketed). Kept as documentation of the
    generator decision, not as a reproduction target.
    """
    result = experiments.run_waste_experiment(
        n_sites=3, rounds=0, n=300, seed=WASTE_SEED, generator="pair-value"
    )
    row = result.rows[0]
    assert row.status == "diverged" or abs(row.dual_lower) > 1e3 or abs(
        row.dual_upper
    ) > 1e3
    assert experiments.check_row_consistency(row) == []
    print(
        f"NOTE: pair-value generators give [{row.dual_lower:.3g}, "
        f"{row.dual_upper:.3g}] around exact [{row.br_lower:.4f}, "
        f"{row.br_upper:.4f}] (status {row.status})"
    )
