"""ekstat benchmark: one workload, one seed, one JSON line of metrics.

    python3 benchmarks/run.py --workload verify-matrix --seed 1 --seconds 45 --trace 0

Every run interleaves three stages (stages.py) in one closed loop, so that
it reports every end-to-end metric; the workload sets each stage's work:

* verify stage: a fixed list of (identity id, k) cases, in verify-matrix
  every id 1.1 ... 2.5 at k=1 plus ids 1.3 and 2.4 at k=2, in operators
  id 1.1 four times at k=1; per case a fresh verification at
  1e6 draws with min(2, nproc) sampling threads, then the negative control
  (density constant x1.25) on the same draws;
* eval stage: refined single-point values of the four operators at k=1, 2
  and 3, checked against mpmath references; single-threaded;
* mellin stage: the acceptance suite's two Mellin factorization checks at
  k=2 through ``cli.run``; single-threaded.

A run does the same work whatever the machine's speed: on a 2-vCPU x86
VM it takes about ``--seconds``, of which ``verify-matrix`` gives the
verify stage 60% and ``operators`` gives the eval and mellin stages 35%
and 40%.  ``setup_s`` is a median over set-up probes, the eval latencies
and ``mellin_check_s`` are geometric means of medians (see ``typical``),
and ``verify_draws_per_s`` and ``control_s`` are totals over the run.

With ``--trace 0`` the library runs untouched and the last line carries the
end-to-end metrics.  With ``--trace 1`` spans are installed around every
layer call (tracing.py), each multi-worker simulate is repeated at
workers=1, the traced verify report is compared with untraced ones at
workers=2 and workers=1, the spans are written to ``.bench_out/``, the
tracing overhead is measured on alternating traced and untraced repeats
of the same work, and the last line carries the per-layer metrics.
Earlier lines, each starting with ``#``, give the run settings, sample
counts and tail percentiles.

Exit status is 0 when the run completed, whatever its checks found; the
checks show in ``correct`` and ``failed``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7
BLAS_THREADS = 1  # the eval and mellin stages run on one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads() -> int:
    """Thread count OpenBLAS reports, or the requested one if it cannot be asked."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            return int(ctypes.CDLL(path).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            pass
    return BLAS_THREADS


def percentile_line(name: str, values: list) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    vals = sorted(values)
    n = len(vals)
    text = f"# {name}: n={n} p50={statistics.median(vals):.6g}" if vals else f"# {name}: n=0"
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            text += f" p{p:g}={vals[min(n - 1, int(p / 100.0 * n))]:.6g}"
            break
    return text


def typical(groups: dict) -> float:
    """Geometric mean over the groups of each group's median.

    A group is one evaluation point or one kind of Mellin check.  The
    groups' costs form clusters (a point in a split regime costs about
    1.5 times one in the plain regime, at k=1), and a median over all
    calls would sit in the gap between two clusters, where it moves with
    every jitter of the host; the median per group, repeated over the run,
    and their geometric mean over the fixed set of groups do not.
    """
    meds = [statistics.median(xs) for xs in groups.values() if xs]
    return math.exp(statistics.fmean(math.log(m) for m in meds)) if meds else float("nan")


def measure_setup() -> list:
    """Seconds from process start to the probe's ready line, per probe."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(BENCH / "warm.py")],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(elapsed)
    return times


def end_to_end(ctx, setup_times) -> dict:
    lat = ctx.latency_ms
    led = ctx.ledger
    frac = lambda xs: sum(xs) / len(xs) if xs else float("nan")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "verify_draws_per_s": (ctx.fresh_draws / ctx.fresh_s if ctx.fresh_s else float("nan"), "1/s"),
        "control_s": (ctx.control_s if ctx.corrupt else float("nan"), "s"),
        "verify_pass_frac": (frac(ctx.clean), "ratio"),
        "control_reject_frac": (frac(ctx.corrupt), "ratio"),
        "eval_k1_ms_p50": (typical(lat[1]), "ms"),
        "eval_k2_ms_p50": (typical(lat[2]), "ms"),
        "eval_k3_ms_p50": (typical(lat[3]), "ms"),
        "eval_max_rel_err": (max(ctx.rel_err, default=float("nan")), "ratio"),
        "mellin_check_s": (typical(ctx.mellin_s), "s"),
        "mellin_max_rel_err": (max(ctx.mellin_err, default=float("nan")), "ratio"),
        "ops_ok_frac": (1.0 - led.failed / led.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "ekstat" / "__init__.py").is_file():
        print(f"error: no ekstat sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy
    import scipy

    import stages
    import warm

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(stages.UNITS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be non-negative and --seconds positive")

    OUT_DIR.mkdir(exist_ok=True)
    workers = min(2, nproc())
    print(f"# settings: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} nproc={nproc()} sampling_workers={workers} "
          f"blas_threads={blas_threads()} numpy={numpy.__version__} scipy={scipy.__version__} "
          f"python={sys.version.split()[0]}")

    setup_times = measure_setup()
    warm.warm()
    ctx = stages.Context(seed=args.seed, workload=args.workload, workers=workers, out_dir=OUT_DIR)
    t0 = time.perf_counter()
    ctx.points = stages.eval_points(ctx.rng(2))
    print(f"# {len(ctx.points)} evaluation points, references in {time.perf_counter() - t0:.3f} s")

    tracer = None
    if args.trace:
        import tracing

        tracer = ctx.tracer = tracing.Tracer()
        tracer.install()
    t_run = time.perf_counter()
    stages.run_workload(ctx, args.seconds)
    run_s = time.perf_counter() - t_run

    metrics = end_to_end(ctx, setup_times)
    print(f"# stages took {run_s:.3f} s; set-up probes {[round(t, 4) for t in setup_times]}")
    print(f"# verify cases (id, k, s): {[(t, k, round(s, 3)) for t, k, s in ctx.fresh_cases]}")
    print(f"# control seconds: {ctx.control_s:.4f}")
    for k in (1, 2, 3):
        print(percentile_line(f"eval_k{k}_ms over all calls", sum(ctx.latency_ms[k].values(), [])))
    print(percentile_line("mellin_check_s over all checks", sum(ctx.mellin_s.values(), [])))
    if tracer is not None:
        layers = tracing.layer_metrics(tracer.spans)
        layers["trace.spans"] = len(tracer.spans)
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(path)
        print(f"# spans written to {path.relative_to(ROOT)}")
        layers.update(stages.trace_checks(ctx, tracer))
        print("# end-to-end metrics of this traced run: "
              + " ".join(f"{name}={value:.6g}" for name, (value, _) in metrics.items()))
        metrics = {name: (value, tracing.unit(name)) for name, value in layers.items()}

    for problem in ctx.ledger.problems:
        print(f"# FAILED: {problem}".replace("\n", "\n# "))

    result = {
        "correct": ctx.ledger.failed == 0,
        "attempted": ctx.ledger.attempted,
        "failed": ctx.ledger.failed,
        # a metric without samples is null; its stage's failures show in "failed"
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
