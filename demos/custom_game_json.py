"""Define a small custom game, save it as JSON, and drive the CLI formats.

The game: a two-state discounted pursuit toy where the evader (maximizer)
earns 1 per period while uncaught. Shows the game-file schema, the policy
file schema, and round-tripping through the loader.

Run:  python demos/custom_game_json.py
"""

import json
import tempfile
from pathlib import Path

import numpy as np

import zsgdual as zd


def build():
    # State 0: evader loose, state 1: evader cornered. Both players pick
    # left/right; matching moves corner (from 0) or catch-and-reset (from 1).
    # Each state's cost is its (A, B) stage cost: what B pays A per period.
    p0 = np.zeros((2, 2, 2))
    for u in range(2):
        for v in range(2):
            p0[u, v, 1 if u == v else 0] = 1.0
    g0 = np.ones((2, 2))
    p1 = np.zeros((2, 2, 2))
    p1[:, :, 0] = 1.0
    g1 = 1.0 - np.eye(2)
    return zd.make_game(
        regime=zd.Discounted(alpha=0.9),
        transition=[p0, p1],
        cost=[g0, g1],
        labels=("loose", "cornered"),
        root=0,
    )


def main():
    model = build()
    print("validation:", zd.validate(model) or "clean")

    values, mu, nu = zd.shapley_value_iteration(model, tol=1e-12)
    for i in range(model.n_states):
        print(f"  {model.label(i):9s} value {values[i]:.6f}  A {mu[i]}  B {nu[i]}")

    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "pursuit.json"
        path.write_text(json.dumps(zd.game_to_dict(model), indent=2))
        again = zd.load_game(str(path))
        v2, _, _ = zd.shapley_value_iteration(again, tol=1e-12)
        print("round-trip value drift:", float(np.abs(values - v2).max()))

        policy_doc = {str(i): list(map(float, nu[i])) for i in range(model.n_states)}
        ppath = Path(d) / "inspector.json"
        ppath.write_text(json.dumps(policy_doc))
        nu_again = zd.policy_from_dict(again, zd.PLAYER_B, json.loads(ppath.read_text()))
        br, _ = zd.best_response(again, nu_again, zd.PLAYER_B)
        print(f"best response to the saved policy at root: {br[again.root]:.6f} "
              f"(equilibrium value {values[0]:.6f})")


if __name__ == "__main__":
    main()
