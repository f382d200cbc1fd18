"""Outside-in tracing of the library's layers.

The tracer times calls into each module's public functions without
touching the library: for the duration of a traced pass it rebinds every
name, in every ``zsgdual`` module, that refers to a traced function, so a
``from .games import fix_player`` in another module is caught as well as a
call through a module attribute. Spans (name, start, end, parent, pass id)
stay in memory and are written out when the run ends; self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

import numpy as np

from zsgdual import duality

# Layer (module) -> public functions timed in it.
TRACED = {
    "games": ("fix_player", "stack_view", "validate", "load_game", "embed_finite_horizon"),
    "builtin_games": ("build_waste_inspection_game",),
    "matrix_games": ("solve",),
    "solvers": (
        "shapley_backup", "shapley_value_iteration", "solve_view", "evaluate_policy_pair",
    ),
    "duality": (
        "estimate_dual_bound_ssp", "estimate_dual_bound_finite",
        "exact_dual_bound_enumeration",
    ),
    "experiments": ("run_waste_experiment", "run_two_period_experiment"),
    "cli": ("main",),
}
_GAME_BUILDERS = {
    "games.load_game", "games.embed_finite_horizon",
    "builtin_games.build_waste_inspection_game",
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.sites: dict[str, list[str]] = {}
        self.ssp_calls: list[tuple] = []
        self.finite_scenarios = 0
        self.kernel_bytes = 0
        # pass id -> factor that rescales its wall times to nominal host speed
        self.scale: dict[int, float] = {}
        self._stack: list[int] = []
        self._pass_id = -1

    @contextmanager
    def tracing(self, pass_id: int):
        """Patch the traced functions for one pass, then restore them."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "zsgdual"]
        restore = []
        for layer, names in TRACED.items():
            home = sys.modules[f"zsgdual.{layer}"]
            for fname in names:
                name = f"{layer}.{fname}"
                original = getattr(home, fname)
                wrapper = self._wrap(name, original)
                sites = []
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            restore.append((mod, attr, original))
                            sites.append(mod.__name__)
                self.sites[name] = sorted(sites)
        self._pass_id = pass_id
        try:
            yield
        finally:
            for mod, attr, original in reversed(restore):
                setattr(mod, attr, original)

    @contextmanager
    def span(self, name: str):
        spans, stack = self.spans, self._stack
        parent = stack[-1] if stack else None
        idx = len(spans)
        spans.append(None)
        stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            spans[idx] = Span(name, start, end, parent, self._pass_id)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = self._observer(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self._pass_id)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _observer(self, name: str, fn):
        """Records the arguments or results that per-layer counts need."""
        if name == "duality.estimate_dual_bound_ssp":
            sig = inspect.signature(fn)

            def observe(args, kwargs, result):
                a = sig.bind(*args, **kwargs)
                a.apply_defaults()
                a = a.arguments
                x0 = a["view"].root if a["x0"] is None else a["x0"]
                self.ssp_calls.append((a["q"], x0, a["seed"], a["n_paths"], a["cap"]))

            return observe
        if name == "duality.estimate_dual_bound_finite":
            def observe(args, kwargs, result):
                self.finite_scenarios += result.n_scenarios

            return observe
        if name in _GAME_BUILDERS:
            def observe(args, kwargs, result):
                size = sum(t.nbytes for t in result.transition)
                size += sum(c.nbytes for c in result.cost)
                self.kernel_bytes = max(self.kernel_bytes, size)

            return observe
        return None

    # -----------------------------------------------------------------------
    # Derived metrics

    def metrics(self, check) -> dict[str, float]:
        """Per-pass layer metrics over all traced passes, with times
        rescaled to nominal host speed like the passes they belong to.

        ``check`` counts the SSP path recount's agreement with
        ``simulate_q_path``.
        """
        spans = self.spans
        scale = self.scale
        passes = [s for s in spans if s.name == "pass"]
        n_pass = len(passes)
        pass_time = sum((s.end - s.start) * scale[s.pass_id] for s in passes)
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] += (s.end - s.start) * scale[s.pass_id]
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        self_time: dict[str, float] = {}
        layer_time = dict.fromkeys(TRACED, 0.0)
        for i, s in enumerate(spans):
            if s.name == "pass":
                continue
            d = (s.end - s.start) * scale[s.pass_id]
            calls[s.name] = calls.get(s.name, 0) + 1
            busy[s.name] = busy.get(s.name, 0.0) + d
            self_time[s.name] = self_time.get(s.name, 0.0) + d - child_time[i]
            # A layer covers the time of its outermost spans only.
            layer = s.name.split(".")[0]
            p = s.parent
            while p is not None and spans[p].name.split(".")[0] != layer:
                p = spans[p].parent
            if p is None:
                layer_time[layer] += d

        def per_pass(table, name):
            return table.get(name, 0) / n_pass

        out: dict[str, float] = {}
        for layer, names in TRACED.items():
            for fname in names:
                name = f"{layer}.{fname}"
                out[f"{name}.calls"] = per_pass(calls, name)
                out[f"{name}.busy_s"] = per_pass(busy, name)
                out[f"{name}.self_s"] = per_pass(self_time, name)
            out[f"{layer}.share"] = layer_time[layer] / pass_time

        lengths = self._recount_ssp_paths(check)
        paths = sum(c[3] for c in self.ssp_calls) / n_pass
        steps = sum(int(x.sum()) for x in lengths) / n_pass
        every = np.concatenate(lengths) if lengths else np.zeros(1)
        ssp_busy = out["duality.estimate_dual_bound_ssp.busy_s"]
        out["duality.estimate_dual_bound_ssp.paths"] = paths
        out["duality.estimate_dual_bound_ssp.steps"] = steps
        out["duality.estimate_dual_bound_ssp.us_per_step"] = (
            1e6 * ssp_busy / steps if steps else 0.0
        )
        out["duality.estimate_dual_bound_ssp.path_len_max_over_mean"] = (
            float(every.max() / every.mean()) if every.any() else 0.0
        )
        scenarios = self.finite_scenarios / n_pass
        out["duality.estimate_dual_bound_finite.scenarios"] = scenarios
        out["duality.estimate_dual_bound_finite.us_per_scenario"] = (
            1e6 * out["duality.estimate_dual_bound_finite.busy_s"] / scenarios
            if scenarios else 0.0
        )
        solves = out["matrix_games.solve.calls"]
        out["matrix_games.solve.us_per_call"] = (
            1e6 * out["matrix_games.solve.busy_s"] / solves if solves else 0.0
        )
        out["games.kernel_mb"] = self.kernel_bytes / 2**20
        return out

    def _recount_ssp_paths(self, check) -> list[np.ndarray]:
        """Path lengths (steps) of every traced SSP estimator call.

        Redraws each path with the public ``scenario_rng`` and
        ``inverse_cdf_transition`` on the rows of ``q``; calls that share a
        reference kernel, start, seed and count share one recount.
        """
        cache: dict[tuple, np.ndarray] = {}
        out = []
        for q, x0, seed, n, cap in self.ssp_calls:
            key = (hashlib.sha256(q.kernel.tobytes()).hexdigest(), q.absorbing, x0, seed, n)
            if key not in cache:
                lengths = np.empty(n, dtype=int)
                for i in range(n):
                    rng = duality.scenario_rng(seed, i)
                    path = [x0]
                    while path[-1] != q.absorbing and len(path) <= cap:
                        row = q.kernel[path[-1]]
                        path.append(duality.inverse_cdf_transition(row, float(rng.random())))
                    lengths[i] = len(path) - 1
                    if i == 0:
                        ref = duality.simulate_q_path(q, x0, seed, cap)
                        check("trace: SSP path 0 recount equals simulate_q_path",
                              np.array_equal(np.array(path), ref))
                cache[key] = lengths
            out.append(cache[key])
        return out

    def write(self, path, meta: dict) -> None:
        """JSON lines: one metadata record, then one record per span."""
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as f:
            f.write(json.dumps({"meta": meta, "sites": self.sites}) + "\n")
            for s in self.spans:
                f.write(json.dumps({
                    "name": s.name, "start": s.start - t0, "end": s.end - t0,
                    "parent": s.parent, "pass": s.pass_id,
                }) + "\n")
