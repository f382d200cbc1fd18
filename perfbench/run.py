"""Benchmark for zsgdual: set up one workload, time passes over it for a
fixed budget, check every pass's outputs, and print the metrics.

    python3 perfbench/run.py --workload ssp-certify --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; the library is imported from
``src``. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` untraced and traced
passes alternate and it holds the per-layer metrics instead. The exit code
is 0 only if every check passed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("ssp-certify", "equilibrium", "finite-certify")
SETUPS = 3
# Host-speed reference: wall time of reference_loop on a quiet 2.1 GHz x86-64
# host, and how often HostClock samples it. Timings are rescaled to this speed.
REF_NOMINAL_S = 0.001
SAMPLE_PERIOD_S = 0.05
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

# Per-layer metric -> unit. Counts and times are per traced pass.
PER_LAYER = {
    "duality.estimate_dual_bound_ssp.calls": "count",
    "duality.estimate_dual_bound_ssp.busy_s": "s",
    "duality.estimate_dual_bound_ssp.paths": "count",
    "duality.estimate_dual_bound_ssp.steps": "count",
    "duality.estimate_dual_bound_ssp.us_per_step": "us",
    "duality.estimate_dual_bound_ssp.path_len_max_over_mean": "ratio",
    "duality.estimate_dual_bound_ssp.nonfinite_share": "ratio",
    "duality.estimate_dual_bound_finite.calls": "count",
    "duality.estimate_dual_bound_finite.busy_s": "s",
    "duality.estimate_dual_bound_finite.scenarios": "count",
    "duality.estimate_dual_bound_finite.us_per_scenario": "us",
    "duality.exact_dual_bound_enumeration.busy_s": "s",
    "duality.share": "ratio",
    "matrix_games.solve.calls": "count",
    "matrix_games.solve.busy_s": "s",
    "matrix_games.solve.us_per_call": "us",
    "matrix_games.share": "ratio",
    "solvers.shapley_backup.calls": "count",
    "solvers.shapley_backup.self_s": "s",
    "solvers.shapley_value_iteration.busy_s": "s",
    "solvers.shapley_value_iteration.cert_gap": "value",
    "solvers.shapley_value_iteration.value_err": "value",
    "solvers.solve_view.calls": "count",
    "solvers.solve_view.busy_s": "s",
    "solvers.evaluate_policy_pair.calls": "count",
    "solvers.evaluate_policy_pair.busy_s": "s",
    "solvers.share": "ratio",
    "games.fix_player.calls": "count",
    "games.fix_player.busy_s": "s",
    "games.stack_view.calls": "count",
    "games.stack_view.busy_s": "s",
    "games.load_game.busy_s": "s",
    "games.embed_finite_horizon.busy_s": "s",
    "games.validate.busy_s": "s",
    "games.kernel_mb": "MiB",
    "games.share": "ratio",
    "builtin_games.build_waste_inspection_game.busy_s": "s",
    "builtin_games.share": "ratio",
    "experiments.run_waste_experiment.self_s": "s",
    "experiments.run_two_period_experiment.self_s": "s",
    "experiments.share": "ratio",
    "cli.main.self_s": "s",
    "cli.share": "ratio",
    "trace.overhead_s": "s",
}

# Deterministic quality figure from a workload's checks -> per-layer name.
QUALITY = {
    "cert_gap": "solvers.shapley_value_iteration.cert_gap",
    "value_err": "solvers.shapley_value_iteration.value_err",
    "nonfinite_share": "duality.estimate_dual_bound_ssp.nonfinite_share",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_info() -> dict:
    """BLAS build and the thread count it runs with, as numpy reports them."""
    import ctypes

    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    info = {
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "blas_threads": None,
    }
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    try:
        lib = ctypes.CDLL(str(libs[0]))
        info["blas_threads"] = lib.scipy_openblas_get_num_threads64_()
    except (IndexError, OSError, AttributeError):
        pass
    return info


def run_metadata(args) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        **blas_info(),
    }


def reference_loop() -> float:
    """Wall time of a fixed mix of interpreter work and small numpy calls.

    It touches nothing in zsgdual, so a change to the library cannot move
    it; only the host's current speed can.
    """
    import numpy as np

    a = np.arange(32, dtype=float)
    t = time.perf_counter()
    s = 0.0
    for i in range(250):
        c = np.cumsum(a)
        s += float(c[i % 32]) + int(np.searchsorted(c, s % 400.0))
        for j in range(10):
            s += j * 0.5
    return time.perf_counter() - t


class HostClock:
    """Times work in seconds at nominal host speed.

    While the clock runs, an interval timer interrupts the work every
    SAMPLE_PERIOD_S to time the reference loop. These pauses are taken out
    of the work's wall time, which is then scaled by the mean ratio
    REF_NOMINAL_S / sample. On a shared machine the host's speed changes
    within a second; samples this dense follow it, where samples taken only
    before and after a pass of several seconds do not.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.paused = 0.0
        self._busy = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        t = time.perf_counter()
        self.samples.append(reference_loop())
        self.paused += time.perf_counter() - t
        self._busy = False

    def __enter__(self) -> HostClock:
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.paused = 0.0
        self._start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)
        self.elapsed = end - self._start  # wall time, sampling pauses included
        self.wall = self.elapsed - self.paused
        self._sample()
        self.scaled = self.wall * statistics.fmean(REF_NOMINAL_S / s for s in self.samples)


def measure(args, import_s: float, workdir: Path) -> int:
    import tracing
    import workloads

    meta = run_metadata(args)
    print("meta", json.dumps(meta))
    cls = workloads.WORKLOADS[args.workload]

    clocks = []
    for _ in range(SETUPS):
        with HostClock() as clock:
            wl = cls(args.seed, workdir)
        clocks.append(clock)
    setup_s = statistics.median(c.scaled for c in clocks)

    check = workloads.Checks()
    tracer = tracing.Tracer() if args.trace else None
    plain, traced = [], []
    quality: dict[str, float] = {}
    first_digest = None
    start = time.perf_counter()
    while True:
        is_traced = tracer is not None and len(plain) > len(traced)
        with tracer.tracing(len(traced)) if is_traced else nullcontext():
            with HostClock() as clock, tracer.span("pass") if is_traced else nullcontext():
                out = wl.run_pass()
        clocks.append(clock)
        if is_traced:
            # Spans include the sampling pauses, as the elapsed time does.
            tracer.scale[len(traced)] = clock.scaled / clock.elapsed
            traced.append(clock.scaled)
        else:
            plain.append(clock.scaled)
        quality = wl.check(out, check)
        digest = wl.digest(out)
        first_digest = first_digest or digest
        check("pass outputs are bit-identical to the first pass", digest == first_digest)
        print(f"pass {len(plain) + len(traced)}: {clock.wall:.4f} s wall, "
              f"{clock.scaled:.4f} s scaled{' (traced)' if is_traced else ''}")
        elapsed = time.perf_counter() - start
        # Start no pass that would end past the budget; a traced run needs
        # at least one pass of each kind.
        if elapsed + clock.elapsed > args.seconds and (tracer is None or traced):
            break
    samples = [x for c in clocks for x in c.samples]
    host_factor = statistics.fmean(REF_NOMINAL_S / x for x in samples)
    print(f"host speed factor {host_factor:.4f}; median unscaled pass "
          f"{statistics.median(c.wall for c in clocks[SETUPS:]):.4f} s wall")

    if tracer is None:
        pass_s = statistics.median(plain)
        metrics = {
            "setup_s": import_s * host_factor + setup_s,
            "pass_s": pass_s,
            "work_per_s": wl.work_per_pass / pass_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        layer = tracer.metrics(check)
        layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        for key, name in QUALITY.items():
            layer[name] = quality.get(key, 0.0)
        metrics = {name: layer[name] for name in PER_LAYER}
        units = PER_LAYER
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}.jsonl"
        tracer.write(trace_path, meta)
        print(f"spans written to {trace_path.relative_to(ROOT)}")

    print(f"{args.workload}: {len(plain)} plain and {len(traced)} traced passes, "
          f"{wl.work_per_pass} {wl.work_unit} per pass")
    for name, value in metrics.items():
        print(f"  {name} = {value!r} {units[name]}")
    for key, value in quality.items():
        print(f"  {key} = {value!r}")
    print(f"  fail_ratio = {len(check.failed)}/{check.attempted}")
    for name in sorted(set(check.failed)):
        print(f"FAILED: {name}", file=sys.stderr)
    print(json.dumps({
        "correct": not check.failed,
        "attempted": check.attempted,
        "failed": len(check.failed),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if not check.failed else 1


def run_all(args) -> int:
    """Each workload in turn, in its own process, one at a time."""
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        code = max(code, subprocess.run(cmd).returncode)
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    src = ROOT / "src"
    if not (src / "zsgdual" / "__init__.py").is_file():
        print(f"error: no zsgdual sources under {src}", file=sys.stderr)
        return 2
    # One process, single-threaded BLAS: set before numpy is first imported.
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    t = time.perf_counter()
    import numpy  # noqa: F401
    import zsgdual  # noqa: F401
    import_s = time.perf_counter() - t

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        return measure(args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
