import json
import math
import re
import tracemalloc

import numpy as np
import pytest

import zsgdual as zd
from zsgdual.games import SIMPLEX_TOL, absorbing_attractor, absorbing_reachable
from zsgdual.solvers import (
    _pair_lists, _pair_rows, _pair_values, _proper_start, _stage_groups, _stage_policies,
    _stage_view, _sweep,
)

try:
    from numpy.lib.array_utils import byte_bounds
except ImportError:  # numpy < 2
    from numpy import byte_bounds

from oracles import (
    check_policy_by_state,
    dense_chain,
    dense_kernel,
    embed_by_entry,
    finite_forward_value,
    fix_player_by_state,
    induced_chain_by_state,
    proper_start_by_loop,
    random_discounted_game,
    random_finite_game,
    random_policy,
    random_sparse_ssp_game,
    random_ssp_game,
    reached_by_loop,
    rollout_pair,
    stage_policies_by_state,
    validate_by_entry,
    waste_game_by_site,
)


# Mixed actions act on the model's tensors directly: the expected stage cost
# is y @ cost[i] @ z and the next-state distribution the einsum of y, z and
# transition[i].
E1, E2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])


class TestStageCostMixed:
    def test_pure_actions(self, two_period):
        assert E2 @ two_period.cost[0] @ E1 == pytest.approx(6.0, abs=1e-12)
        assert E1 @ two_period.cost[0] @ E1 == pytest.approx(2.0, abs=1e-12)

    def test_mixed_actions(self, two_period):
        y, z = np.array([0.5, 0.5]), np.array([0.75, 0.25])
        assert y @ two_period.cost[0] @ z == pytest.approx(4.125, abs=1e-12)

    def test_rejects_bad_vectors(self, two_period):
        # Mixed actions reach the model through policies; check_policy
        # rejects a vector of the wrong length or off the simplex.
        mu = [E1, E1, E2, np.array([1.0])]
        for bad in (np.array([1.0, 0.0, 0.0]), np.array([0.7, 0.7])):
            with pytest.raises(ValueError, match="state 0"):
                zd.check_policy(two_period, zd.make_policy([bad, *mu[1:]]), zd.PLAYER_A)
        zd.check_policy(two_period, zd.make_policy(mu), zd.PLAYER_A)

    def test_bilinearity(self, two_period):
        rng = np.random.default_rng(10)
        R = two_period.cost[0]
        for _ in range(50):
            lam = rng.uniform()
            y1, y2 = rng.dirichlet([1, 1]), rng.dirichlet([1, 1])
            z = rng.dirichlet([1, 1])
            mix = (lam * y1 + (1 - lam) * y2) @ R @ z
            parts = lam * (y1 @ R @ z) + (1 - lam) * (y2 @ R @ z)
            assert mix == pytest.approx(parts, abs=1e-12)


class TestTransitionMixed:
    def test_pure_actions(self, two_period):
        row = np.einsum("u,v,uvj->j", E2, E1, two_period.transition[0])
        np.testing.assert_allclose(row, [0.0, 0.4, 0.6, 0.0], atol=1e-12)

    def test_mixed_column(self, two_period):
        z = np.array([0.6, 0.4])
        row = np.einsum("u,v,uvj->j", E1, z, two_period.transition[0])
        np.testing.assert_allclose(row, [0.0, 0.64, 0.36, 0.0], atol=1e-12)

    def test_deterministic_row_is_unit(self, two_period):
        row = np.einsum("u,v,uvj->j", E1, E1, two_period.transition[1])
        np.testing.assert_allclose(row, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_always_a_distribution(self, two_period):
        rng = np.random.default_rng(11)
        for _ in range(100):
            i = int(rng.integers(0, two_period.n_states))
            y = rng.dirichlet(np.ones(two_period.actions_a[i]))
            z = rng.dirichlet(np.ones(two_period.actions_b[i]))
            row = np.einsum("u,v,uvj->j", y, z, two_period.transition[i])
            assert row.min() >= -SIMPLEX_TOL
            assert row.sum() == pytest.approx(1.0, abs=1e-12)


class TestFixPlayer:
    def test_expected_costs_against_imbalanced_minimizer(self, two_period):
        nu_hat = zd.suboptimal_minimizer_policy(two_period)
        view = zd.fix_player(two_period, nu_hat, zd.PLAYER_B)
        np.testing.assert_allclose(view.cost[0], [1.6, 6.8], atol=1e-12)
        assert dense_kernel(view)[0][0, 1] == pytest.approx(0.64, abs=1e-12)
        assert view.orientation == "max"

    def test_pure_fixing_selects_column(self, two_period):
        nu = zd.pure_policy(two_period, zd.PLAYER_B, [0, 0, 0, 0])
        view = zd.fix_player(two_period, nu, zd.PLAYER_B)
        np.testing.assert_allclose(view.cost[0], [2.0, 6.0], atol=1e-12)

    def test_kernel_rows_are_distributions(self, waste3):
        nu = zd.uniform_policy(waste3, zd.PLAYER_B)
        view = zd.fix_player(waste3, nu, zd.PLAYER_B)
        for x in range(view.n_states):
            a = view.n_actions[x]
            sums = dense_kernel(view)[x, :a].sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_padded_slots_are_never_optimal(self, waste3):
        # The absorbing state has one action, the others three: its row is
        # padded with empty successor lists and the orientation's losing cost.
        for player, pad in ((zd.PLAYER_B, -np.inf), (zd.PLAYER_A, np.inf)):
            view = zd.fix_player(waste3, zd.uniform_policy(waste3, player), player)
            kernel = dense_kernel(view)
            x = waste3.absorbing
            assert view.cost.shape == (waste3.n_states, 3)
            assert kernel.shape == (waste3.n_states, 3, waste3.n_states)
            assert view.succ.shape[1:] == view.prob.shape[1:] == (waste3.n_states, 3)
            assert view.n_actions[x] == 1
            assert view.cost[x, 0] == 0.0 and kernel[x, 0, x] == 1.0
            assert np.all(view.cost[x, 1:] == pad)
            assert not kernel[x, 1:].any() and not view.prob[:, x, 1:].any()

    def test_orientation_min_when_a_fixed(self, waste3):
        mu = zd.uniform_policy(waste3, zd.PLAYER_A)
        assert zd.fix_player(waste3, mu, zd.PLAYER_A).orientation == "min"

    def test_pure_action_reproduces_stage_cost(self, two_period):
        rng = np.random.default_rng(12)
        for _ in range(30):
            i = int(rng.integers(0, two_period.n_states))
            z = rng.dirichlet(np.ones(two_period.actions_b[i]))
            nu_vectors = [
                rng.dirichlet(np.ones(c)) for c in two_period.actions_b
            ]
            nu_vectors[i] = z
            view = zd.fix_player(two_period, zd.make_policy(nu_vectors), zd.PLAYER_B)
            for a in range(two_period.actions_a[i]):
                e_a = np.eye(two_period.actions_a[i])[a]
                assert view.cost[i][a] == pytest.approx(
                    e_a @ two_period.cost[i] @ z, abs=1e-12
                )

    def test_policy_mismatch_raises(self, two_period):
        short = zd.make_policy([np.array([1.0])] * 3)
        with pytest.raises(ValueError):
            zd.fix_player(two_period, short, zd.PLAYER_B)


class TestEmbedFiniteHorizon:
    def test_two_period_structure(self, two_period):
        assert two_period.n_states == 4
        assert two_period.labels == ("t0:g1", "t1:g2", "t1:g3", "end")
        assert two_period.horizon == 2
        assert list(two_period.period) == [0, 1, 1, 2]
        assert two_period.root == 0

    def test_single_period_keeps_all_states(self):
        rng = np.random.default_rng(13)
        raw = random_discounted_game(rng, n_states=3)
        raw = zd.make_game(
            zd.FiniteHorizon(periods=1), raw.transition, raw.cost
        )
        emb = zd.embed_finite_horizon(raw)
        assert emb.n_states == 4  # three period-0 states plus terminal
        assert emb.absorbing == 3

    def test_embedded_model_validates(self, two_period):
        assert zd.validate(two_period) == []

    def test_requires_finite_horizon(self, waste3):
        with pytest.raises(ValueError):
            zd.embed_finite_horizon(waste3)

    def test_cost_preserved_exactly_and_by_rollout(self):
        rng = np.random.default_rng(14)
        base = random_discounted_game(rng, n_states=3, max_actions=2, alpha=0.9)
        T = 3
        raw = zd.make_game(
            zd.FiniteHorizon(periods=T), base.transition, base.cost
        )
        mu = random_policy(rng, raw, zd.PLAYER_A)
        nu = random_policy(rng, raw, zd.PLAYER_B)
        emb = zd.embed_finite_horizon(raw)
        assert zd.validate(emb) == []
        J = zd.evaluate_policy_pair(
            emb, zd.lift_policy(emb, mu), zd.lift_policy(emb, nu)
        )
        for x0 in range(3):
            exact = finite_forward_value(raw, mu, nu, x0, T)
            assert J[x0] == pytest.approx(exact, abs=1e-12)
        # Monte Carlo rollout of the embedded chain agrees within 3 SE.
        mean, se = rollout_pair(
            emb, zd.lift_policy(emb, mu), zd.lift_policy(emb, nu), 0, 20_000, seed=99
        )
        assert abs(mean - J[0]) <= 3 * se


class TestValidate:
    def test_clean_game(self, two_period, waste3):
        assert zd.validate(two_period) == []
        assert zd.validate(waste3) == []

    def test_row_sum_violation_names_cell(self, two_period):
        t = [np.array(x) for x in two_period.transition]
        t[0] = t[0].copy()
        t[0][1, 0] *= 0.9
        broken = zd.make_game(two_period.regime, t, two_period.cost)
        problems = zd.validate(broken)
        assert len(problems) == 1
        location, message = problems[0]
        assert location == "state 0, u=1, v=0"
        assert "0.9" in message

    def test_absorbing_cost_violation(self, waste3):
        c = [np.array(x) for x in waste3.cost]
        c[-1] = np.ones_like(c[-1])
        broken = zd.make_game(waste3.regime, waste3.transition, c)
        problems = zd.validate(broken)
        assert any("nonzero cost" in msg for _, msg in problems)

    def test_non_finite_entries_name_the_state(self, waste3):
        # A cost per destination is checked at every destination, also at
        # one the move never reaches (state 4 under (0, 2) cannot reach 7).
        assert waste3.transition[4][0, 2, 7] == 0.0
        for bad in (np.nan, np.inf, -np.inf):
            for per_destination in (False, True):
                t = [np.array(x) for x in waste3.transition]
                t[2][1, 0, 5] = bad
                c = [np.array(x) for x in waste3.cost]
                if per_destination:
                    c[4] = np.repeat(c[4][:, :, None], waste3.n_states, axis=2)
                    c[4][0, 2, 7] = bad
                else:
                    c[4][0, 2] = bad
                broken = zd.make_game(waste3.regime, t, c)
                problems = zd.validate(broken)
                non_finite = [loc for loc, msg in problems if "non-finite" in msg]
                assert non_finite == ["state 2", "state 4"]

    def test_absorbing_leak_above_tolerance(self, waste3):
        # 4e-6 is inside allclose's default rtol; the check allows SIMPLEX_TOL only.
        a = waste3.absorbing
        t = [np.array(x) for x in waste3.transition]
        t[a][0, 0, a] = 1.0 - 4e-6
        t[a][0, 0, 0] = 4e-6
        broken = zd.make_game(waste3.regime, t, waste3.cost)
        assert zd.validate(broken) == [
            (f"state {a}", "absorbing state does not self-transition w.p. 1")
        ]
        t[a] = t[a].copy()  # make_game froze it
        t[a][0, 0, a] = 1.0 - SIMPLEX_TOL / 2
        t[a][0, 0, 0] = SIMPLEX_TOL / 2
        assert zd.validate(zd.make_game(waste3.regime, t, waste3.cost)) == []

    def test_short_absorbing_row_is_recorded_not_raised(self, waste3):
        a = waste3.absorbing
        t = [np.array(x) for x in waste3.transition]
        t[a] = t[a][:, :, :a]
        broken = zd.make_game(waste3.regime, t, waste3.cost)
        shape = (1, 1, a + 1)
        assert zd.validate(broken) == [
            (f"state {a}", f"tensor shape {(1, 1, a)} != {shape}")
        ]


def _random_game(rng):
    kind = int(rng.integers(4))
    n = int(rng.integers(2, 12))
    if kind == 0:
        return random_discounted_game(rng, n_states=n, max_actions=4)
    if kind == 1:
        return random_ssp_game(rng, n_states=n, max_actions=4)
    raw = random_finite_game(rng, n_states=max(n, 3), periods=int(rng.integers(1, 4)))
    return raw if kind == 2 else zd.embed_finite_horizon(raw)


def _break(rng, model):
    """A copy of ``model`` with a few random entries spoilt in the ways
    ``validate`` looks for, and some left valid."""
    t = [np.array(x) for x in model.transition]
    c = [np.array(x) for x in model.cost]
    for _ in range(int(rng.integers(4))):
        i = int(rng.integers(len(t)))
        if rng.random() < 0.2 and model.absorbing is not None:
            i = model.absorbing
        u, v, j = (int(rng.integers(k)) for k in t[i].shape)
        kind = int(rng.integers(7))
        if kind == 0:
            t[i][u, v, j] = -rng.uniform(0.0, 0.3)
        elif kind == 1:
            t[i][u, v] *= rng.uniform(0.5, 1.5)
        elif kind == 2:
            t[i][u, v, j] += rng.choice([1e-13, 2e-12, 1e-9])
        elif kind == 3:
            t[i][u, v, j] = rng.choice([np.nan, np.inf, -np.inf])
        elif kind == 4:
            c[i][u, v] = rng.choice([np.nan, np.inf, -np.inf, 1.0])
        elif kind == 5:
            t[i][u, v, j], t[i][u, v, -1] = t[i][u, v, -1], t[i][u, v, j]
    return zd.make_game(
        model.regime, t, c, labels=model.labels, root=model.root,
        horizon=model.horizon, period=model.period, base_state=model.base_state,
    )


class TestGamesLayerMatchesEntryLoops:
    """``validate`` and ``embed_finite_horizon`` work one array pass per
    state; the per-entry loops in ``oracles`` are their references, as the
    reachability loops are ``absorbing_attractor``'s."""

    def test_validate_records(self):
        rng = np.random.default_rng(2024)
        broken = 0
        for _ in range(300):
            model = _random_game(rng)
            if rng.random() < 0.7:
                model = _break(rng, model)
            want = validate_by_entry(model)
            assert zd.validate(model) == want
            broken += bool(want)
        assert 100 < broken < 300

    def test_records_of_two_blocks_come_in_state_order(self):
        # States 0 and 2 share the (2, 1) block, state 1 has the (1, 2) one,
        # so the blocks' flagged states interleave.
        n = 4
        rng = np.random.default_rng(3)
        t = [rng.dirichlet(np.ones(n), size=s) for s in [(2, 1), (1, 2), (2, 1), (1, 1)]]
        c = [np.zeros(p.shape[:2]) for p in t]
        t[0][1, 0, 2] = -0.1
        t[1][0, 1] *= 0.5
        c[1][0, 0] = np.nan
        t[2][0, 0] *= 2.0
        t[2][1, 0, 0] = -0.2
        broken = zd.make_game(zd.Discounted(alpha=0.9), t, c)
        assert [len(b.states) for b in broken.blocks] == [2, 1, 1]
        got = zd.validate(broken)
        assert [loc for loc, _ in got] == [
            "state 0, u=1, v=0", "state 0, u=1, v=0",
            "state 1", "state 1, u=0, v=1",
            "state 2, u=0, v=0", "state 2, u=1, v=0", "state 2, u=1, v=0",
        ]
        assert got == validate_by_entry(broken)

    def test_skipped_periods_of_two_blocks_come_in_state_order(self):
        emb = zd.embed_finite_horizon(random_finite_game(np.random.default_rng(5), n_states=4))
        live = [i for i in range(emb.n_states) if i != emb.absorbing]
        t = [np.array(p) for p in emb.transition]
        for i in live:  # half of every row stays put: a transition within a period
            t[i] *= 0.5
            t[i][:, :, i] += 0.5
        broken = zd.make_game(
            emb.regime, t, emb.cost, root=emb.root, horizon=emb.horizon,
            period=emb.period, base_state=emb.base_state,
        )
        assert np.concatenate([b.states for b in broken.blocks]).tolist() != sorted(range(emb.n_states))
        got = zd.validate(broken)
        assert [loc for loc, _ in got] == [f"state {i}" for i in live]
        assert all("skip a period" in message for _, message in got)
        assert got == validate_by_entry(broken)

    def test_row_sum_text(self, two_period):
        t = [np.array(x) for x in two_period.transition]
        t[0][1, 1] *= 1.0 + 3e-12
        broken = zd.make_game(two_period.regime, t, two_period.cost)
        assert zd.validate(broken) == validate_by_entry(broken)
        [(_, message)] = zd.validate(broken)
        assert message == f"row sums to {float(t[0][1, 1].sum())!r}, not 1"

    def test_absorbing_attractor(self):
        # Sparse views, n in 3..19: A or B fixed, at a pure policy on even
        # seeds and a random mixed one on odd seeds; 35 of them have no
        # proper start. The reached set is the loop's on the union of the
        # slots' chains.
        improper = 0
        for seed in range(300):
            rng = np.random.default_rng(seed)
            model = random_sparse_ssp_game(rng, n_states=int(rng.integers(3, 20)))
            player = (zd.PLAYER_A, zd.PLAYER_B)[seed // 2 % 2]
            policy = random_policy(rng, model, player)
            if seed % 2 == 0:
                policy = zd.pure_policy(model, player, [int(rng.integers(len(p))) for p in policy])
            view = zd.fix_player(model, policy, player)
            a = view.absorbing
            reached, slot = absorbing_attractor(view.succ, view.prob, a)
            kernel = dense_kernel(view)
            assert reached.tolist() == reached_by_loop(kernel.sum(axis=1), a).tolist()
            try:
                want = proper_start_by_loop(view)
            except zd.UnboundedValue as exc:
                improper += 1
                with pytest.raises(zd.UnboundedValue, match=f"^{re.escape(str(exc))}$"):
                    _proper_start(view)
            else:
                assert slot.tolist() == want.tolist() == _proper_start(view).tolist()
            first = kernel[:, 0]
            assert absorbing_reachable(first, a) == bool(reached_by_loop(first, a).all())
        assert 0 < improper < 300

    @pytest.mark.parametrize("rooted", [True, False])
    def test_embedding_bytes(self, rooted):
        rng = np.random.default_rng(77 + rooted)
        for _ in range(40):
            raw = random_finite_game(
                rng,
                n_states=int(rng.integers(2, 9)),
                periods=int(rng.integers(1, 5)),
                successors=int(rng.integers(1, 3)),
            )
            root = int(rng.integers(raw.n_states)) if rooted else None
            raw = zd.make_game(
                raw.regime, raw.transition, raw.cost,
                labels=[f"s{i}" for i in range(raw.n_states)], root=root,
            )
            got, want = zd.embed_finite_horizon(raw), embed_by_entry(raw)
            assert got.regime == want.regime and got.root == want.root
            assert got.labels == want.labels and got.horizon == want.horizon
            assert got.period.tobytes() == want.period.tobytes()
            assert got.base_state.tobytes() == want.base_state.tobytes()
            assert len(got.transition) == len(want.transition)
            for x in range(got.n_states):
                assert got.transition[x].tobytes() == want.transition[x].tobytes()
                assert got.cost[x].tobytes() == want.cost[x].tobytes()
            assert zd.validate(got) == []


def _spoilt_policy(rng, model, player):
    """A random policy for ``player`` with a few states spoilt: a wrong
    length, a negative, NaN or infinite entry, or a sum off by amounts on
    both sides of ``SIMPLEX_TOL``."""
    counts = model.actions_a if player == zd.PLAYER_A else model.actions_b
    vecs = [rng.dirichlet(np.ones(c)) for c in counts]
    for _ in range(int(rng.integers(4))):
        i = int(rng.integers(len(vecs)))
        v = vecs[i]
        if not len(v):
            continue
        kind = int(rng.integers(5))
        if kind == 0:
            vecs[i] = v[:-1] if rng.random() < 0.5 else np.append(v, 0.0)
        elif kind == 1:
            v[int(rng.integers(len(v)))] = -rng.choice([1e-3, 2e-12, 5e-13])
        elif kind == 2:
            v[int(rng.integers(len(v)))] = rng.choice([np.nan, np.inf, -np.inf])
        elif kind == 3:
            v[int(rng.integers(len(v)))] += rng.choice([-1e-9, -3e-12, 8e-13, 2e-12, 0.5])
    return zd.make_policy(vecs)


def _outcome(check, model, policy, player):
    try:
        check(model, policy, player)
    except ValueError as exc:
        return str(exc)
    return None


class TestCheckPolicyMatchesStateLoop:
    """``check_policy`` checks every state in one array pass; the per-state
    loop in ``oracles`` is its reference, error text included."""

    def test_random_policies(self):
        rng = np.random.default_rng(315)
        faulty = 0
        for _ in range(400):
            model = _random_game(rng)
            player = zd.PLAYER_A if rng.random() < 0.5 else zd.PLAYER_B
            policy = _spoilt_policy(rng, model, player)
            want = _outcome(check_policy_by_state, model, policy, player)
            assert _outcome(zd.check_policy, model, policy, player) == want
            faulty += want is not None
        assert 150 < faulty < 400

    @pytest.mark.filterwarnings("error")
    def test_first_faulty_state_and_length_first(self, waste3):
        vecs = [np.ones(3) / 3 for _ in range(waste3.n_states)]
        vecs[-1] = np.ones(1)
        vecs[9] = np.full(3, 1e308)  # its sum overflows, after the first fault
        vecs[7] = np.array([0.5, 0.5, np.nan])
        vecs[4] = np.array([0.5, 0.5])
        vecs[2] = np.array([1.0, 1.0])
        with pytest.raises(ValueError, match=r"^state 2: policy vector has length 2"):
            zd.check_policy(waste3, zd.make_policy(vecs), zd.PLAYER_A)
        vecs[2] = np.ones(3) / 3
        with pytest.raises(ValueError, match=r"^state 4: policy vector has length 2"):
            zd.check_policy(waste3, zd.make_policy(vecs), zd.PLAYER_A)
        vecs[4] = np.ones(3) / 3
        with pytest.raises(ValueError, match=r"^policy at state 7 is not a probability"):
            zd.check_policy(waste3, zd.make_policy(vecs), zd.PLAYER_A)


class TestMakeGame:
    def test_caller_arrays_stay_writable(self, two_period):
        t = [np.array(x) for x in two_period.transition]
        c = [np.array(x) for x in two_period.cost]
        model = zd.make_game(two_period.regime, t, c)
        assert t[0].flags.writeable and c[0].flags.writeable
        assert not model.transition[0].flags.writeable
        assert not model.cost[0].flags.writeable
        # Stacked into its block, a copy: the caller's arrays stay their own.
        assert not np.shares_memory(model.transition[0], t[0])
        t[0][0, 0, 0] = 0.25
        assert model.transition[0][0, 0, 0] == two_period.transition[0][0, 0, 0]


def _permuted(rng, model):
    """``model`` with its states in a random order, so that the absorbing
    state of an SSP game need not be the last."""
    perm = rng.permutation(model.n_states)  # new state k is old state perm[k]
    regime = model.regime
    if isinstance(regime, zd.Ssp):
        regime = zd.Ssp(absorbing=int(np.flatnonzero(perm == regime.absorbing)[0]))
    return zd.make_game(
        regime,
        [model.transition[i][:, :, perm] for i in perm],
        [model.cost[i] for i in perm],
    )


def _block_game(rng, kind):
    """A random game of 1 to 4 actions per player and state, so that its
    shape blocks interleave in state order and hold 1-action states."""
    n = int(rng.integers(4, 14))
    if kind == "discounted":
        return random_discounted_game(rng, n_states=n, max_actions=4)
    if kind == "ssp":
        return _permuted(rng, random_ssp_game(rng, n_states=n, max_actions=4))
    raw = random_finite_game(rng, n_states=n, max_actions=4, periods=int(rng.integers(1, 4)))
    return zd.embed_finite_horizon(raw)


def _owned_bytes(model) -> int:
    """The bytes of memory the arrays of a model's blocks span."""
    arrays = [
        a for b in model.blocks for a in (b.succ, b.transition, b.cost)
    ]
    return sum(high - low for low, high in map(byte_bounds, arrays))


def assert_lists_of(model, transition, cost):
    """``model`` rebuilds ``transition`` and holds the stage costs ``cost``
    byte for byte, and its blocks list, ascending, exactly the destinations
    of a nonzero probability, with every pad of probability 0 after them."""
    assert len(model.transition) == len(model.cost) == len(transition) == model.n_states
    for i in range(model.n_states):
        for got, want in ((model.transition[i], transition[i]), (model.cost[i], cost[i])):
            assert got.shape == want.shape and got.tobytes() == np.asarray(want).tobytes()
            assert not got.flags.writeable
    for b in model.blocks:
        listed = b.transition != 0.0
        assert not (listed[..., 1:] & ~listed[..., :-1]).any()  # pads come last
        step = np.diff(b.succ, axis=3)
        assert (step[listed[..., 1:]] > 0).all()
        for r, i in enumerate(b.states):
            dense = np.asarray(transition[i]) != 0.0
            assert np.array_equal(listed[r].sum(axis=2), dense.sum(axis=2))


class TestBlockLayout:
    @pytest.mark.parametrize("kind", ["discounted", "ssp", "embedded"])
    def test_views_chains_and_stage_policies_match_state_loops(self, kind):
        rng = np.random.default_rng({"discounted": 3, "ssp": 4, "embedded": 5}[kind])
        interleaved = one_action = absorbing_inside = False
        for _ in range(40):
            model = _block_game(rng, kind)
            mu = random_policy(rng, model, zd.PLAYER_A)
            nu = random_policy(rng, model, zd.PLAYER_B)
            for fixed, player in ((mu, zd.PLAYER_A), (nu, zd.PLAYER_B)):
                got = zd.fix_player(model, fixed, player)
                want = fix_player_by_state(model, fixed, player)
                assert got.orientation == want.orientation
                assert np.array_equal(got.n_actions, want.n_actions)
                assert np.array_equal(got.cost, want.cost)
                assert np.array_equal(got.succ, want.succ)
                assert np.array_equal(got.prob, want.prob)
            # The successor lists scatter into the dense chain bit for bit.
            succ, prob, G = _pair_lists(model, _pair_rows(model, mu, nu))
            P = dense_chain(succ, prob)
            for got, want in zip((P, G), induced_chain_by_state(model, mu, nu)):
                assert np.array_equal(got, want)

            values = rng.uniform(-5.0, 5.0, model.n_states)
            if model.absorbing is not None:
                values[model.absorbing] = 0.0
            groups = _stage_groups(model)
            _, strategies, _ = _sweep(model, groups, values)
            got = _stage_policies(model, strategies)
            want = stage_policies_by_state(model, strategies)
            # Hoffman-Karp's views of the stage strategies skip the policy
            # check and the restacking, not a bit of the view.
            for policy, player in zip(got, (zd.PLAYER_A, zd.PLAYER_B)):
                view = _stage_view(model, strategies, player)
                want_view = fix_player_by_state(model, policy, player)
                assert np.array_equal(view.n_actions, want_view.n_actions)
                assert np.array_equal(view.cost, want_view.cost)
                assert np.array_equal(view.succ, want_view.succ)
                assert np.array_equal(view.prob, want_view.prob)
            for g, w in zip(got, want):
                assert len(g) == model.n_states
                assert all(np.array_equal(x, y) for x, y in zip(g.probs, w.probs))
                assert not any(v.flags.writeable for v in g.probs)
            for b, rows, cols in strategies:  # row views, not copies
                assert all(np.shares_memory(got[0][i], rows) for i in b.states)
                assert all(np.shares_memory(got[1][i], cols) for i in b.states)
            # The pair's value read from the stacked rows, without the
            # absorbing state's, is the checked evaluation's, bit for bit.
            pair = _pair_values(model, strategies)
            assert pair.tobytes() == zd.evaluate_policy_pair(model, *got).tobytes()

            interleaved |= any(np.diff(b.states).max(initial=1) > 1 for b in model.blocks)
            free = np.arange(model.n_states) != model.absorbing
            one_action |= bool(((model.actions_a == 1) | (model.actions_b == 1))[free].any())
            absorbing_inside |= model.absorbing not in (None, model.n_states - 1)
        assert interleaved and one_action
        assert absorbing_inside == (kind == "ssp")

    def test_blocks_are_read_only_successor_lists(self, waste3, two_period):
        rng = np.random.default_rng(6)
        for model in (waste3, two_period, *(_block_game(rng, "ssp") for _ in range(5))):
            covered = np.sort(np.concatenate([b.states for b in model.blocks]))
            assert np.array_equal(covered, np.arange(model.n_states))
            for b in model.blocks:
                assert b.width == model.n_states
                assert b.succ.shape == b.transition.shape
                assert b.transition.shape[:3] == b.cost.shape
                for a in b[:4]:
                    assert not a.flags.writeable
                for r, i in enumerate(b.states):
                    state = model.cost[i]
                    assert np.shares_memory(state, b.cost)
                    assert np.array_equal(state, b.cost[r]) and not state.flags.writeable

    def test_builders_make_no_transient_copy(self):
        # A build's peak stays within a quarter above what its model keeps:
        # its lists and the Python objects of its labels and per-state views.
        # Each build runs once unmeasured, so that the one-off work of a
        # first call (imports, caches) does not count.
        raw = random_finite_game(np.random.default_rng(7), n_states=60, periods=8)
        builds = {
            "waste": lambda: zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=10)),
            "embed": lambda: zd.embed_finite_horizon(raw),
        }
        tracemalloc.start()
        try:
            for name, build in builds.items():
                model = build()
                del model
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                model = build()
                kept, peak = (m - before for m in tracemalloc.get_traced_memory())
                assert kept >= _owned_bytes(model) and peak <= 1.25 * kept, name
        finally:
            tracemalloc.stop()
        # A move of the waste game lists at most two destinations.
        assert builds["waste"]().blocks[0].succ.shape[3] == 2
        # Dense (k, A, B, n) blocks of waste N=20 take 540 MiB.
        big = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=20))
        assert _owned_bytes(big) < 8 * 2**20


class TestDenseTensors:
    """``transition[i]`` and ``cost[i]`` rebuild the dense tensors a model
    was made from, whatever builder made it."""

    def test_random_games(self):
        rng = np.random.default_rng(808)
        kinds = set()
        for _ in range(60):
            model = _random_game(rng)
            kinds.add((type(model.regime), model.horizon is not None))
            # make_game packs any dense tensors; these are a model's own.
            t = [np.array(x) for x in model.transition]
            c = [np.array(x) for x in model.cost]
            again = zd.make_game(model.regime, t, c)
            assert_lists_of(again, t, c)
            assert_lists_of(model, t, c)
        assert len(kinds) == 4

    @pytest.mark.parametrize("rooted", [True, False])
    def test_embedded_games(self, rooted):
        rng = np.random.default_rng(31 + rooted)
        for _ in range(20):
            raw = random_finite_game(
                rng, n_states=int(rng.integers(3, 9)), periods=int(rng.integers(1, 5))
            )
            if not rooted:
                raw = zd.make_game(raw.regime, raw.transition, raw.cost)
            want = embed_by_entry(raw)
            assert_lists_of(zd.embed_finite_horizon(raw), want.transition, want.cost)

    def test_built_in_games(self, two_period):
        for n_sites in (2, 3, 6):
            cfg = zd.WasteGameConfig(n_sites=n_sites)
            want = waste_game_by_site(cfg)
            assert_lists_of(zd.build_waste_inspection_game(cfg), want.transition, want.cost)
        payoff = [[[2.0, 1.0], [6.0, 8.0]], [[8.0, 15.0], [10.0, 12.0]], [[-8.0, -10.0], [3.0, -11.0]]]
        p = np.zeros((3, 2, 2, 3))
        p[0, :, :, 1] = [[0.7, 0.55], [0.4, 0.5]]
        p[0, :, :, 2] = 1.0 - p[0, :, :, 1]
        p[1, :, :, 1] = p[2, :, :, 2] = 1.0
        raw = zd.make_game(zd.FiniteHorizon(periods=2), p, payoff, root=0)
        want = embed_by_entry(raw)
        assert_lists_of(two_period, want.transition, want.cost)

    def test_json_round_trip(self, two_period, waste3):
        rng = np.random.default_rng(12)
        for model in (two_period, waste3, *(_random_game(rng) for _ in range(10))):
            again = zd.game_from_dict(json.loads(json.dumps(zd.game_to_dict(model))))
            assert_lists_of(again, model.transition, model.cost)

    def test_stage_cost_round_trip_of_every_generator(self, two_period):
        rng = np.random.default_rng(13)
        built_in = [two_period, *(
            zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=n)) for n in (2, 3, 5, 10)
        )]
        random = []
        for _ in range(5):
            finite = random_finite_game(rng, n_states=int(rng.integers(3, 9)))
            random += [
                random_discounted_game(rng, n_states=int(rng.integers(2, 9))),
                random_ssp_game(rng, n_states=int(rng.integers(2, 9))),
                random_sparse_ssp_game(rng, n_states=int(rng.integers(2, 9))),
                finite, zd.embed_finite_horizon(finite),
            ]
        for model in built_in + random:
            doc = zd.game_to_dict(model)
            assert [np.shape(c) for c in doc["cost"]] == list(zip(model.actions_a, model.actions_b))
            again = zd.game_from_dict(json.loads(json.dumps(doc)))
            assert_lists_of(again, model.transition, model.cost)

    def test_cost_per_destination_reduces_over_listed_entries(self):
        # Each move reaches one to four states, and its cost is drawn at
        # every destination: the stage cost is the sum over the entries of
        # nonzero probability in destination order, bit for bit, whatever
        # the others hold.
        rng = np.random.default_rng(14)
        n = 9
        transition, cost = [], []
        for _ in range(n - 1):
            p = np.zeros((int(rng.integers(1, 4)), int(rng.integers(1, 4)), n))
            for row in p.reshape(-1, n):
                reach = rng.choice(n, int(rng.integers(1, 5)), replace=False)
                row[reach] = rng.dirichlet(np.ones(len(reach)))
            transition.append(p)
            cost.append(rng.uniform(-5.0, 5.0, p.shape))
        transition.append(np.eye(n)[None, None, -1])
        cost.append(np.zeros((1, 1, n)))
        doc = {
            "n_states": n, "regime": {"kind": "ssp", "absorbing": n - 1},
            "transition": [p.tolist() for p in transition],
            "cost": [g.tolist() for g in cost],
        }
        model = zd.game_from_dict(json.loads(json.dumps(doc)))
        for i, (p, g) in enumerate(zip(transition, cost)):
            want = np.zeros(p.shape[:2])
            for u, v in np.ndindex(*p.shape[:2]):
                listed = p[u, v] != 0.0
                want[u, v] = sum((p[u, v][listed] * g[u, v][listed]).tolist(), -0.0)
            assert model.cost[i].tobytes() == want.tobytes()
        written = zd.game_to_dict(model)["cost"]
        assert [np.shape(c) for c in written] == [p.shape[:2] for p in transition]

    def test_stage_cost_written_at_every_destination_packs_to_the_moves(self):
        # 200 states, 3 x 3 actions and 2 successors per move, with each
        # move's cost written out at all 200 destinations: the rows list
        # the 2 successors, and the blocks take less than dense transitions.
        rng = np.random.default_rng(15)
        n, m = 200, 3
        p = np.zeros((n, m, m, n))
        for row in p.reshape(-1, n):
            row[rng.choice(n, 2, replace=False)] = rng.dirichlet(np.ones(2))
        stage = rng.uniform(0.0, 10.0, (n, m, m))
        model = zd.make_game(
            zd.Discounted(alpha=0.9), p, np.repeat(stage[..., None], n, axis=3)
        )
        [b] = model.blocks
        assert b.succ.shape == (n, m, m, 2)
        assert _owned_bytes(model) < p.nbytes
        np.testing.assert_allclose(b.cost, stage, rtol=1e-15, atol=0.0)


class TestListOrderSums:
    """A state's numbers depend on its own successor list alone, not on the
    width of the block it shares with other states of its action shape."""

    def test_state_results_ignore_block_mate_width(self):
        # State 0 (2 x 3 actions) reaches 5 destinations per move and shares
        # its block with state 1, which reaches 5 or 12. Its stage cost from
        # a cost per destination, its Shapley backup from (A, B) costs and
        # the row sum that validate prints for a spoilt row come out byte
        # for byte the same next to either mate.
        rng = np.random.default_rng(16)
        n, absorbing = 14, 13

        def moves(width):
            p = np.zeros((2, 3, n))
            for row in p.reshape(-1, n):
                reach = rng.choice(n, width, replace=False)
                row[reach] = rng.dirichlet(np.ones(width))
            return p

        def results(p0, mate, per_destination, stage):
            transition = [p0, mate] + [np.eye(n)[None, None, absorbing]] * (n - 2)
            rest = [np.zeros((1, 1))] * (n - 2)
            dest = zd.make_game(zd.Ssp(absorbing), transition, per_destination + rest)
            plain = zd.make_game(zd.Ssp(absorbing), transition, stage + rest)
            [b] = [b for b in dest.blocks if 0 in b.states]
            assert b.succ.shape[3] == mate.astype(bool).sum(axis=2).max()
            values = np.linspace(-7.0, 11.0, n) ** 3
            records = [rec for rec in zd.validate(dest) if rec[0].startswith("state 0,")]
            assert records
            return dest.cost[0].tobytes(), zd.shapley_backup(plain, values)[0][0], records

        for _ in range(50):
            p0 = moves(5)
            p0[0, 0] *= 1.0 + 1e-9  # spoilt: sums to about 1 + 1e-9
            g0, stage0 = rng.uniform(-5.0, 5.0, (2, 3, n)), rng.uniform(-5.0, 5.0, (2, 3))
            got = [
                results(p0, moves(width), [g0, rng.uniform(-5.0, 5.0, (2, 3, n))],
                        [stage0, rng.uniform(-5.0, 5.0, (2, 3))])
                for width in (5, 12)
            ]
            assert got[0][0] == got[1][0]
            assert got[0][1].tobytes() == got[1][1].tobytes()
            assert got[0][2] == got[1][2]


def dense_bincount_kernel(model, policy, player):
    """The dense ``(n, amax, n)`` kernel that ``fix_player`` built before
    views held successor lists: one ``np.bincount`` over every block entry,
    in entry order, scattered into all ``n * amax * n`` cells."""
    free_a = player == zd.PLAYER_B
    n = model.n_states
    amax = int((model.actions_a if free_a else model.actions_b).max())
    index, weight = [], []
    for b, w in zip(model.blocks, zd.games.block_rows(model, policy, player)):
        if free_a:
            free = np.arange(b.succ.shape[1])[:, None, None]
            weight.append((w[:, None, :, None] * b.transition).ravel())
        else:
            free = np.arange(b.succ.shape[2])[:, None]
            weight.append((w[:, :, None, None] * b.transition).ravel())
        index.append(((b.states[:, None, None, None] * amax + free) * n + b.succ).ravel())
    kernel = np.bincount(np.concatenate(index), np.concatenate(weight), minlength=n * amax * n)
    return kernel.reshape(n, amax, n)


class TestSuccessorLists:
    """A view lists each slot's destinations of nonzero probability in
    ascending order, then pads of probability +0.0 and destination n."""

    def assert_lists_are_the_kernel(self, model, policy, player):
        view = zd.fix_player(model, policy, player)
        kernel = dense_bincount_kernel(model, policy, player)
        n = model.n_states
        assert view.succ.dtype == np.int32
        assert view.succ.shape == view.prob.shape == (len(view.prob), n, kernel.shape[1])
        listed = view.prob != 0.0
        assert not (listed[1:] & ~listed[:-1]).any()  # pads come last
        assert (view.succ[~listed] == n).all() and not np.signbit(view.prob).any()
        assert (np.diff(view.succ, axis=0)[listed[1:]] > 0).all()
        # Every listed probability is its dense cell bit for bit, and every
        # nonzero cell is listed.
        l, x, a = np.nonzero(listed)
        assert view.prob[l, x, a].tobytes() == kernel[x, a, view.succ[l, x, a]].tobytes()
        assert np.count_nonzero(kernel) == len(l)

    @pytest.mark.parametrize("n_sites", [3, 10])
    def test_waste_views_list_the_dense_kernel(self, n_sites):
        model = zd.build_waste_inspection_game(zd.WasteGameConfig(n_sites=n_sites))
        for player in (zd.PLAYER_A, zd.PLAYER_B):
            self.assert_lists_are_the_kernel(model, zd.uniform_policy(model, player), player)

    def test_random_views_list_the_dense_kernel(self):
        makers = (
            lambda rng: random_ssp_game(rng, n_states=int(rng.integers(3, 9)), max_actions=3),
            lambda rng: random_sparse_ssp_game(rng, n_states=int(rng.integers(3, 12))),
            lambda rng: random_discounted_game(rng, n_states=int(rng.integers(2, 8))),
            lambda rng: zd.embed_finite_horizon(random_finite_game(rng, n_states=6)),
        )
        for seed in range(20):
            rng = np.random.default_rng(seed)
            model = makers[seed % len(makers)](rng)
            for player in (zd.PLAYER_A, zd.PLAYER_B):
                self.assert_lists_are_the_kernel(model, random_policy(rng, model, player), player)

    def test_pads_add_nothing_to_a_lookahead(self):
        # States 1, 2 and 3 hold +inf, -inf and -0.0; every state's lists
        # hold pads, and state 0 has a padded slot. The
        # probabilities are dyadic and the other values small integers, so
        # each expectation is exact and the lookahead is list_sum's, in list
        # order: a pad adds neither the NaN of 0 * inf nor a zero's sign.
        rows = [
            [[0, 0.5, 0, 0, 0.5, 0], [0, 0, 0, 0.25, 0, 0.75]],
            [[0, 0, 0, 0.5, 0, 0.5], [0, 0.5, 0.5, 0, 0, 0], [0.25, 0, 0, 0, 0.25, 0.5]],
            [[0, 0, 0.5, 0, 0, 0.5], [0.5, 0, 0, 0, 0.5, 0], [0, 0, 0, 0, 0, 1.0]],
            [[0, 0, 0, 1.0, 0, 0], [0, 0, 0, 0.25, 0, 0.75], [0, 0, 0, 0.5, 0.5, 0]],
            [[0, 0.125, 0.125, 0.25, 0, 0.5], [0, 0, 0, 0, 0, 1.0], [0, 0, 0, 0, 0, 1.0]],
            [[0, 0, 0, 0, 0, 1.0]],
        ]
        cost = [np.array([1.0, -0.0]), np.array([-0.0, 2.0, -1.0]), np.array([0.5, 1.5, -0.0]),
                np.array([-0.0, 3.0, -0.0]), np.array([-2.0, 4.0, 0.0]), np.zeros(1)]
        values = np.array([2.0, np.inf, -np.inf, -0.0, -3.0, 0.0])
        for orientation in ("max", "min"):
            cost_, succ, prob = zd.games.stack_view(cost, [np.array(r) for r in rows], orientation)
            view = zd.games.MdpView(
                orientation=orientation, n_states=6, n_actions=np.array([2, 3, 3, 3, 3, 1]),
                cost=cost_, succ=succ, prob=prob, regime=zd.Ssp(absorbing=5),
            )
            assert (view.prob == 0.0).any(axis=(0, 2)).all()  # pads in every state
            ext = np.append(values, np.nan)  # a pad's destination holds NaN here
            lists = (np.moveaxis(a, 0, -1) for a in (view.prob, ext[view.succ]))
            with np.errstate(invalid="ignore"):
                want = view.cost + zd.games.list_sum(*lists)
            got = zd.games.lookahead(view, values)
            assert got.tobytes() == want.tobytes()
            assert np.isnan(got).any() and np.isinf(got[:5]).any() and np.signbit(got[got == 0.0]).any()

    def test_lookahead_sums_as_if_exactly(self):
        # Each expectation is the exactly rounded sum of its terms (math.fsum)
        # within an ulp, so lists that hold the same terms in another order,
        # as mirror-image slots of a symmetric game do, sum to the same bits.
        # Values are mirror-symmetric over states 0 .. n - 2, and slot 1 of a
        # state lists slot 0's probabilities at the mirror-image states, so
        # in the reverse order.
        rng = np.random.default_rng(7)
        n, L = 41, 12
        for _ in range(20):
            half = rng.uniform(-1e3, 1e3, n // 2) * 10.0 ** rng.integers(-3, 4, n // 2)
            values = np.concatenate([half, half[::-1], [0.0]])
            kernel = np.zeros((n, 2, n))
            for x in range(n - 1):
                dest = rng.choice(n - 1, L, replace=False)
                kernel[x, 0, dest] = kernel[x, 1, n - 2 - dest] = rng.dirichlet(np.ones(L))
            kernel[n - 1, :, n - 1] = 1.0
            cost, succ, prob = zd.games.stack_view(list(np.zeros((n, 2))), list(kernel), "max")
            view = zd.games.MdpView(
                orientation="max", n_states=n, n_actions=np.full(n, 2), cost=cost,
                succ=succ, prob=prob, regime=zd.Ssp(absorbing=n - 1),
            )
            got = zd.games.lookahead(view, values)
            for x in range(n - 1):
                terms = [kernel[x, 0, y] * values[y] for y in np.flatnonzero(kernel[x, 0])]
                assert abs(got[x, 0] - math.fsum(terms)) <= np.spacing(abs(got[x, 0]))
            assert got[:, 0].tobytes() == got[:, 1].tobytes()


class TestJsonInterchange:
    def test_round_trip(self, two_period):
        doc = zd.game_to_dict(two_period)
        again = zd.game_from_dict(doc)
        assert again.n_states == two_period.n_states
        assert again.regime == two_period.regime
        for i in range(4):
            np.testing.assert_array_equal(again.transition[i], two_period.transition[i])
            np.testing.assert_array_equal(again.cost[i], two_period.cost[i])

    def test_load_game_file(self, two_period, tmp_path):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(zd.game_to_dict(two_period)))
        model = zd.load_game(str(path))
        assert model.labels == two_period.labels

    @pytest.mark.parametrize("field", ["transition", "cost"])
    @pytest.mark.parametrize("value", [5, "abc", {"0": 1}, [[[[1.0]], [[1.0, 2.0]]]]])
    def test_malformed_tensor_fields_name_the_field(self, two_period, field, value):
        doc = zd.game_to_dict(two_period)
        doc[field] = value
        with pytest.raises(ValueError, match=f"^{field} "):
            zd.game_from_dict(doc)

    @pytest.mark.parametrize("field, value, message", [
        ("root", True, "root True is not a state index in [0, 13)"),
        ("root", 1.5, "root 1.5 is not a state index in [0, 13)"),
        ("n_states", True, "n_states must be an integer, got True"),
        ("regime", {"kind": "ssp", "absorbing": 12.7}, "absorbing must be an integer, got 12.7"),
        ("regime", {"kind": "ssp", "absorbing": True}, "absorbing must be an integer, got True"),
        ("regime", {"kind": "finite_horizon", "periods": 2.9}, "periods must be an integer, got 2.9"),
        ("regime", {"kind": "finite_horizon", "periods": True}, "periods must be an integer, got True"),
    ])
    def test_bool_or_fractional_index_rejected(self, waste3, field, value, message):
        # int() would read 12.7 as 12 and a bool as 0 or 1.
        doc = {**zd.game_to_dict(waste3), field: value}
        with pytest.raises(ValueError) as exc:
            zd.game_from_dict(doc)
        assert message in str(exc.value)

    def test_invalid_document_rejected(self, two_period):
        doc = zd.game_to_dict(two_period)
        doc["transition"][0][0][0] = [0.5, 0.0, 0.0, 0.0]
        with pytest.raises(ValueError):
            zd.game_from_dict(doc)

    def test_policy_and_value_files(self, two_period):
        doc = {
            "0": [0.6, 0.4],
            "1": [1.0, 0.0],
            "2": [0.0, 1.0],
            "3": [1.0],
        }
        nu = zd.policy_from_dict(two_period, zd.PLAYER_B, doc)
        np.testing.assert_allclose(nu[0], [0.6, 0.4])
        with pytest.raises(ValueError):
            zd.policy_from_dict(two_period, zd.PLAYER_B, {"0": [0.6, 0.4]})
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="policy at state 1"):
                zd.policy_from_dict(two_period, zd.PLAYER_B, {**doc, "1": [bad, 1.0]})
        values = zd.values_from_dict(
            two_period, {"0": 0.0, "1": 8.0, "2": -8.0, "3": 0.0}
        )
        np.testing.assert_allclose(values, [0.0, 8.0, -8.0, 0.0])
