import json

import numpy as np
import pytest

import zsgdual as zd
from zsgdual.games import SIMPLEX_TOL

from oracles import (
    check_policy_by_state,
    embed_by_entry,
    finite_forward_value,
    random_discounted_game,
    random_finite_game,
    random_policy,
    random_ssp_game,
    rollout_pair,
    validate_by_entry,
)


# Mixed actions act on the model's tensors directly: the expected stage cost
# is y @ expected_cost[i] @ z and the next-state distribution the einsum of
# y, z and transition[i].
E1, E2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])


class TestStageCostMixed:
    def test_pure_actions(self, two_period):
        assert E2 @ two_period.expected_cost[0] @ E1 == pytest.approx(6.0, abs=1e-12)
        assert E1 @ two_period.expected_cost[0] @ E1 == pytest.approx(2.0, abs=1e-12)

    def test_mixed_actions(self, two_period):
        y, z = np.array([0.5, 0.5]), np.array([0.75, 0.25])
        assert y @ two_period.expected_cost[0] @ z == pytest.approx(4.125, abs=1e-12)

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
        R = two_period.expected_cost[0]
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
        assert view.kernel[0][0, 1] == pytest.approx(0.64, abs=1e-12)
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
            sums = view.kernel[x, :a].sum(axis=1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_padded_slots_are_never_optimal(self, waste3):
        # The absorbing state has one action, the others three: its row is
        # padded with a zero kernel and the orientation's losing cost.
        for player, pad in ((zd.PLAYER_B, -np.inf), (zd.PLAYER_A, np.inf)):
            view = zd.fix_player(waste3, zd.uniform_policy(waste3, player), player)
            x = waste3.absorbing
            assert view.cost.shape == (waste3.n_states, 3)
            assert view.kernel.shape == (waste3.n_states, 3, waste3.n_states)
            assert view.n_actions[x] == 1
            assert view.cost[x, 0] == 0.0 and view.kernel[x, 0, x] == 1.0
            assert np.all(view.cost[x, 1:] == pad)
            assert not view.kernel[x, 1:].any()

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
                    e_a @ two_period.expected_cost[i] @ z, abs=1e-12
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
        for bad in (np.nan, np.inf, -np.inf):
            t = [np.array(x) for x in waste3.transition]
            t[2][1, 0, 5] = bad
            c = [np.array(x) for x in waste3.cost]
            c[4][0, 2, 7] = bad
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
        c = [np.array(x) for x in waste3.cost]
        t[a], c[a] = t[a][:, :, :a], c[a][:, :, :a]
        broken = zd.make_game(waste3.regime, t, c)
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
            c[i][u, v, j] = rng.choice([np.nan, np.inf, -np.inf, 1.0])
        elif kind == 5:
            t[i][u, v, j], t[i][u, v, -1] = t[i][u, v, -1], t[i][u, v, j]
    return zd.make_game(
        model.regime, t, c, labels=model.labels, root=model.root,
        horizon=model.horizon, period=model.period, base_state=model.base_state,
    )


class TestGamesLayerMatchesEntryLoops:
    """``validate`` and ``embed_finite_horizon`` work one array pass per
    state; the per-entry loops in ``oracles`` are their references."""

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

    def test_row_sum_text(self, two_period):
        t = [np.array(x) for x in two_period.transition]
        t[0][1, 1] *= 1.0 + 3e-12
        broken = zd.make_game(two_period.regime, t, two_period.cost)
        assert zd.validate(broken) == validate_by_entry(broken)
        [(_, message)] = zd.validate(broken)
        assert message == f"row sums to {float(t[0][1, 1].sum())!r}, not 1"

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
        assert np.shares_memory(model.transition[0], t[0])  # frozen, not copied
        t[0][0, 0, 0] = 0.25
        assert model.transition[0][0, 0, 0] == 0.25


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
