"""Certify policies for the waste-inspection pursuit game.

A dumper must dump waste at one of N sites every night; an inspector tries
to catch it twice in a row. The dumper maximizes its expected time in
business, the inspector minimizes it. Starting from uniform play, a few
rounds of naive policy iteration get close to equilibrium, and each round's
policy pair is certified two ways: exactly (best responses) and by
simulation only (weak-form dual bounds along reference-measure paths).

Run:  python demos/waste_inspection.py
"""

import numpy as np

import zsgdual as zd


def main():
    cfg = zd.WasteGameConfig(n_sites=3)
    model = zd.build_waste_inspection_game(cfg)
    root = model.root
    print(f"{model.n_states} states (root {model.label(root)}), "
          f"{cfg.n_sites} sites per player per night")

    mu = zd.uniform_policy(model, zd.PLAYER_A)
    nu = zd.uniform_policy(model, zd.PLAYER_B)
    trace = zd.naive_policy_iteration(model, mu, nu, rounds=3)
    q = zd.make_uniform_reference(model)

    print("\nround  pair value   exact interval          dual interval (n=2000)")
    for k, rec in enumerate(trace.rounds):
        sw = zd.sandwich(model, rec.mu, rec.nu)
        view_lo = zd.fix_player(model, rec.mu, zd.PLAYER_A)
        view_hi = zd.fix_player(model, rec.nu, zd.PLAYER_B)
        h_lo, _ = zd.solve_view(view_lo, tol=0.0)
        h_hi, _ = zd.solve_view(view_hi, tol=0.0)
        lo, hi = zd.estimate_dual_bounds(
            [(view_lo, h_lo), (view_hi, h_hi)], n=2000, seed=7, q=q
        )
        print(f"  {k}    {rec.values[root]:9.4f}   "
              f"[{sw.lower[root]:8.4f}, {sw.upper[root]:8.4f}]   "
              f"[{lo.mean:8.4f} +- {lo.standard_error:.1e}, "
              f"{hi.mean:8.4f} +- {hi.standard_error:.1e}]")

    print("\nA pure inspection schedule is useless: the dumper dodges it forever.")
    pure = zd.pure_policy(model, zd.PLAYER_B, [0] * model.n_states)
    try:
        zd.best_response(model, pure, zd.PLAYER_B)
    except zd.UnboundedValue as exc:
        print(f"  best_response raised UnboundedValue: {exc}")


if __name__ == "__main__":
    main()
