"""The three kinds of work the benchmark drives through ekstat's public API.

Every run executes all three stages so that it can report every end-to-end
metric.  Each stage's work comes in units: one per case for the verify
stage (VERIFY_CASES), and for the others repeats set by the workload and
``--seconds`` (UNITS).  ``run_workload`` runs them in one closed loop,
each stage's units spread evenly over the run, so that every stage sees
the same machine over the whole run rather than one moment of it.  Every
run of a workload does the same work, whatever the machine's speed, so
that its figures compare from run to run.  Inputs come from the run's seed
only: the verify draws and the jittered eval points come from generators
of their own, so the eval stage sees the same points whichever workload
runs it; the Mellin checks use the acceptance suite's fixed parameters.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from ekstat import cli, kober, mc_oracle, reporting

import reference
from warm import EVAL_KINDS, MELLIN_CASES, N_NODES, regime_threshold

N_DRAWS = 10**6
CONTROL_SCALE = 1.25
MELLIN_TOL = 1e-6
# The (id, k) cases of the verify stage: each run of a workload checks each
# of its cases once, so that every run verifies the same mix.  verify-matrix
# checks every id at k=1, where a case is cheap, and at k=2, where box
# counting grows, a transforms id with two candidate readings (1.3) and the
# Dirichlet id whose report adjudicates between them (2.4): the cases take
# about 30 s on two threads, 60% of a run.  operators checks only the
# README's identity at k=1, four times, so that a run's draw rate does not
# rest on the machine's speed of one moment.
VERIFY_CASES = {
    "verify-matrix": tuple((t, 1) for t in ("1.1", "1.2", "1.3", "1.4", "2.1", "2.3", "2.4", "2.5"))
    + (("1.3", 2), ("2.4", 2)),
    "operators": (("1.1", 1),) * 4,
}
# Repeats in a run at --seconds UNIT_SECONDS, other lengths scaling them:
# passes over the k<=2 points ("low"), evaluations of each k=3 point and
# runs of each Mellin check.  On a 2-vCPU x86 VM a pass takes about 80 ms,
# a k=3 point 0.3 s and a check 2 s, so that verify-matrix, mostly
# simulation and box counting, gives single-point evaluation and the
# Mellin checks about 15% and 20% of a run, and operators about 35% and 40%.
UNIT_SECONDS = 45.0
UNITS = {
    "verify-matrix": {"low": 20, "k3": 2, "mellin": 3},
    "operators": {"low": 24, "k3": 4, "mellin": 4},
}
# Evaluation points per dimension, as multiples of that dimension's regime
# switch point (see warm.regime_threshold): four strata in the plain regime
# and four in the split regime, about two and a half decades on each side of
# the switch; the far-field end, 100x, is where the test suite checks the
# far-field rule (u = 1e4).  The strata are fixed so that runs compare; the
# seed jitters each coordinate by up to 2.3% and orders the points.
STRATA = {
    "second": {"plain": (1.5, 4.0, 12.0, 40.0), "split": (0.5, 0.1, 0.02, 0.004)},
    "first": {"plain": (0.6, 0.1, 0.02, 0.004), "split": (1.5, 5.0, 20.0, 100.0)},
}
JITTER_DECADES = 0.01


@dataclass
class Ledger:
    """Counts library calls and the calls whose output failed a check."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    _last_failed: bool = False

    def call(self, label, fn, *args, **kwargs):
        """Time one library call; the result is None when it raised."""
        self.attempted += 1
        self._last_failed = False
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:  # a failed call is a measured outcome, not an abort
            self.expect(False, f"{label} raised:\n{traceback.format_exc(limit=4)}")
            return None, time.perf_counter() - t0
        return out, time.perf_counter() - t0

    def expect(self, ok: bool, label: str) -> None:
        """Count the last call as failed, once, unless its output check holds."""
        if ok:
            return
        if not self._last_failed:
            self.failed += 1
            self._last_failed = True
        self.problems.append(label)


@dataclass
class Context:
    seed: int
    workload: str
    workers: int
    out_dir: object
    ledger: Ledger = field(default_factory=Ledger)
    tracer: object = None
    # verify
    fresh_draws: int = 0
    fresh_s: float = 0.0
    fresh_cases: list = field(default_factory=list)  # (theorem, k, seconds)
    control_s: float = 0.0
    clean: list = field(default_factory=list)  # passed flags
    corrupt: list = field(default_factory=list)  # rejected flags
    first_case: tuple | None = None
    # eval
    points: list | None = None
    latency_ms: dict = field(default_factory=lambda: {1: {}, 2: {}, 3: {}})  # point -> ms per call
    rel_err: list = field(default_factory=list)
    # mellin
    mellin_s: dict = field(default_factory=dict)  # kind -> seconds per check
    mellin_err: list = field(default_factory=list)

    def rng(self, stage: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stage])


# ---------------------------------------------------------------------------
# verify stage
# ---------------------------------------------------------------------------

def fresh_verification(theorem: str, k: int, draw_seed: int, workers: int):
    """New draws, their verification and its serialized report.

    Draws are simulated first and handed to ``verify`` so that the negative
    control can reuse them, as acceptance criterion 10 does; the report is
    the one ``verify(spec, n_samples, seed, workers)`` writes.
    """
    spec = mc_oracle.make_spec(theorem, k)
    samples = mc_oracle.simulate(spec, N_DRAWS, draw_seed, workers)
    report = mc_oracle.verify(spec, samples=samples)
    return spec, samples, report, reporting.dumps_json(report.to_dict())


def _control(spec, samples):
    report = mc_oracle.verify(spec, samples=samples, constant_scale=CONTROL_SCALE)
    reporting.dumps_json(report.to_dict())
    return report


def verify_case(ctx: Context, theorem: str, k: int, rng: np.random.Generator) -> None:
    """A fresh verification, then the negative control on the same draws."""
    led = ctx.ledger
    draw_seed = int(rng.integers(0, 2**31))
    label = f"verify {theorem} k={k} seed={draw_seed}"
    out, fresh_s = led.call(label, fresh_verification, theorem, k, draw_seed, ctx.workers)
    ctx.clean.append(False)
    if ctx.tracer is not None:
        led.expect(ctx.tracer.run_pending_w1(), f"{label}: workers=1 draws differ")
    if out is None:
        return
    spec, samples, report, text = out
    ctx.fresh_draws += N_DRAWS
    ctx.fresh_s += fresh_s
    ctx.fresh_cases.append((theorem, k, fresh_s))
    ctx.clean[-1] = report.passed
    notes = report.adjudication_notes
    led.expect(report.passed, f"{label}: clean report fails")
    if theorem == "2.4":
        led.expect(notes.startswith("derivation-consistent parameters satisfy"),
                   f"{label}: 2.4 report does not name the derivation-consistent reading")
    if theorem == "2.5":
        led.expect("coincide" in notes, f"{label}: 2.5 report does not say the readings coincide")
    if ctx.first_case is None:
        ctx.first_case = (theorem, k, draw_seed, text)

    corrupt, dt = led.call(f"control {label}", _control, spec, samples)
    ctx.corrupt.append(corrupt is not None and not corrupt.passed)
    ctx.control_s += dt
    if corrupt is not None:
        led.expect(not corrupt.passed, f"control {label}: corrupted report passes")


# ---------------------------------------------------------------------------
# eval stage
# ---------------------------------------------------------------------------

def eval_points(seed_rng: np.random.Generator) -> list:
    """Refined single-point evaluations with their reference values.

    Per eval function: at k=1 and k=2, one point per stratum of both
    regimes; at k=3, one point per regime.  Coordinate j of the point for
    stratum s sits in stratum s+j, and a jittered value is shared by every
    point that uses the same (kind, regime, stratum, dimension), so the
    reference needs one mpmath integral per distinct value.
    """
    coords = {}

    def coord(fn, kind, p, regime, s, j):
        key = (fn, regime, s, j)
        if key not in coords:
            u = regime_threshold(kind, p) * STRATA[kind][regime][s] \
                * 10.0 ** seed_rng.uniform(-JITTER_DECADES, JITTER_DECADES)
            coords[key] = (u, reference.operator_1d(kind, p, 2.0 + j, u))
        return coords[key]

    points = []
    for idx, (fn, kind, theorem) in enumerate(EVAL_KINDS):
        params = mc_oracle.make_spec(theorem, 3).params
        for k in (1, 2, 3):
            for regime in ("plain", "split"):
                for s in range(4) if k < 3 else (idx,):
                    cs = [coord(fn, kind, params[j], regime, (s + j) % 4, j) for j in range(k)]
                    points.append((fn, k, params[:k], np.array([u for u, _ in cs]),
                                   math.prod(r for _, r in cs)))
    order = seed_rng.permutation(len(points))
    return [points[i] for i in order]


def eval_points_unit(ctx: Context, points) -> None:
    led = ctx.ledger
    dens = {k: mc_oracle.default_density(k) for k in (1, 2, 3)}
    for fn, k, params, u, ref in points:
        label = f"{fn} k={k} u={u.tolist()}"
        res, dt = led.call(label, getattr(kober, fn), u, params, dens[k], n=N_NODES)
        if res is None:
            continue
        ctx.latency_ms[k].setdefault((fn, tuple(u.tolist())), []).append(dt * 1e3)
        ok = math.isfinite(res.value) and math.isfinite(res.est_error)
        led.expect(ok, f"{label}: non-finite value {res.value} or error {res.est_error}")
        if ok:
            ctx.rel_err.append(abs(res.value - ref) / abs(ref))


def warm_then_time(ctx: Context, points) -> None:
    """An untimed pass over ``points``, then the timed one.

    A verify case, a k=3 point or a Mellin check leaves the caches to its
    own data; the warm pass refills them as a run of single-point calls
    keeps them, so that a pass's first points do not time the refill,
    whose cost follows the host's memory traffic more than the library.
    """
    dens = {k: mc_oracle.default_density(k) for k in (1, 2)}
    for fn, k, params, u, _ in points:
        with contextlib.suppress(Exception):  # the timed pass records a failure
            getattr(kober, fn)(u, params, dens[k], n=N_NODES)
    eval_points_unit(ctx, points)


# ---------------------------------------------------------------------------
# mellin stage
# ---------------------------------------------------------------------------

def mellin_argv(kind: str, dims, out_path) -> list:
    zetas = ",".join(str(z) for z, _ in dims)
    alphas = ",".join(str(a) for _, a in dims)
    return ["mellin-check", "--kind", kind, "--k", str(len(dims)), "--zeta", zetas,
            "--alpha", alphas, "--density", "gamma:2,3", "--nodes", str(N_NODES),
            "--tol", str(MELLIN_TOL), "--out", str(out_path)]


def mellin_check(ctx: Context, kind: str, dims) -> None:
    led = ctx.ledger
    out_path = ctx.out_dir / f"mellin-{kind}.json"
    label = f"cli mellin-check --kind {kind}"
    rc, dt = led.call(label, cli.run, mellin_argv(kind, dims, out_path))
    if rc is None:
        return
    ctx.mellin_s.setdefault(kind, []).append(dt)
    try:
        with open(out_path) as fh:
            result = json.load(fh)["result"]
        err = float(result["max_rel_err"])
    except (OSError, ValueError, KeyError) as exc:
        led.expect(False, f"{label}: unreadable report ({exc})")
        return
    ctx.mellin_err.append(err)
    led.expect(rc == cli.EXIT_OK and result["pass"] and err <= MELLIN_TOL,
               f"{label}: exit {rc}, max_rel_err {err}")


def run_workload(ctx: Context, seconds: float) -> None:
    """Every unit of the run, each stage's units spread evenly over it.

    A unit is a verify case, a pass over the k<=2 points (after a warm-up
    pass), one evaluation of a k=3 point or one Mellin check.  Every point
    and both kinds of check are repeated alike, and the repeats of each
    are spread over the whole run, because the host's speed drifts by tens
    of percent from one second to the next: the more moments a point's
    median samples, the less a run's figure depends on when the host was
    slow.
    """
    counts = {name: max(1, round(n * seconds / UNIT_SECONDS))
              for name, n in UNITS[ctx.workload].items()}
    rng = ctx.rng(1)
    low = [p for p in ctx.points if p[1] <= 2]
    per_stage = (
        [lambda t=t, k=k: verify_case(ctx, t, k, rng) for t, k in VERIFY_CASES[ctx.workload]],
        [lambda: warm_then_time(ctx, low)] * counts["low"],
        [lambda p=p: eval_points_unit(ctx, [p]) for p in ctx.points if p[1] == 3] * counts["k3"],
        [lambda c=c: mellin_check(ctx, *c) for c in MELLIN_CASES] * counts["mellin"],
    )
    plan = [((j + 0.5) / len(units), i, unit)
            for i, units in enumerate(per_stage) for j, unit in enumerate(units)]
    for _, _, unit in sorted(plan, key=lambda item: item[:2]):
        unit()


OVERHEAD_PAIRS = 15


def _overhead_frac(tracer, work) -> float:
    """Median over OVERHEAD_PAIRS of (traced time / untraced time - 1) of
    ``work``, run once traced and once untraced per pair, the two in turn
    first so that a drift of the machine's speed cancels; leaves the tracer
    uninstalled."""
    ratios = []
    for i in range(OVERHEAD_PAIRS):
        seconds = {}
        for traced in (i % 2 == 0, i % 2 == 1):
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            work()
            seconds[traced] = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        ratios.append(seconds[True] / seconds[False] - 1.0)
    return statistics.median(ratios)


def trace_checks(ctx: Context, tracer) -> dict:
    """Check, with tracing removed, that the run's first verify case writes
    the same report as it did traced and the same at workers=1.  Then
    measure the tracing overhead as the median ratio of traced to untraced
    times of the same work: one pass over the k<=2 points, and the first
    case's negative control."""
    led = ctx.ledger
    tracer.uninstall()
    out = None
    if ctx.first_case is not None:  # None only when every verify call raised
        theorem, k, draw_seed, traced_text = ctx.first_case
        label = f"untraced verify {theorem} k={k} seed={draw_seed}"
        out, _ = led.call(label, fresh_verification, theorem, k, draw_seed, ctx.workers)
        if out is not None:
            led.expect(out[3] == traced_text, f"{label}: report differs from the traced run")
        one, _ = led.call(f"{label} workers=1", mc_oracle.verify, mc_oracle.make_spec(theorem, k),
                          n_samples=N_DRAWS, seed=draw_seed, workers=1)
        if one is not None:
            led.expect(reporting.dumps_json(one.to_dict()) == traced_text,
                       f"{label}: report at workers=1 differs from workers={ctx.workers}")

    low_k = [p for p in ctx.points if p[1] <= 2]
    result = {"trace.eval_overhead_frac": _overhead_frac(tracer, lambda: eval_points_unit(ctx, low_k)),
              "trace.verify_overhead_frac": float("nan")}
    if out is not None:
        samples = out[1]
        result["trace.verify_overhead_frac"] = _overhead_frac(
            tracer, lambda: _control(mc_oracle.make_spec(theorem, k), samples))
    return result
