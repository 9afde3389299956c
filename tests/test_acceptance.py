"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The Monte Carlo criteria share a single verification matrix (all identity
ids, k in {1, 2}, three seeds, one million samples each) computed once per
session.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats
from scipy.special import betaln

from ekstat.densities import PathwayDimParams, pathway_factor, pathway_limit_factor
from ekstat.kober import DimParams, gamma_product, identity_setup, predicted_density
from ekstat.mc_oracle import make_spec, simulate, verify
from ekstat.mellin import mellin_factorization_check
from ekstat.quadrature import jacobi_rule, semiaxis_log_rule
from ekstat.transforms import forward, inverse, jacobian, ratio_beta_pairs

ALL_IDS = ("1.1", "1.2", "1.3", "1.4", "2.1", "2.3", "2.4", "2.5")
SEEDS = (101, 202, 303)
N_SAMPLES = 10**6
RUNTIME_CAP_S = 60.0


def announce(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


@pytest.fixture(scope="module")
def mc_matrix():
    """verify() reports for every (id, k, seed), with wall-clock times."""
    out = {}
    for theorem in ALL_IDS:
        for k in (1, 2):
            for seed in SEEDS:
                spec = make_spec(theorem, k)
                t0 = time.time()
                report = verify(spec, n_samples=N_SAMPLES, seed=seed)
                out[(theorem, k, seed)] = (report, time.time() - t0)
    return out


def matrix_ok(mc_matrix, theorem, dims=(1, 2)):
    worst = 0.0
    for k in dims:
        for seed in SEEDS:
            report, _ = mc_matrix[(theorem, k, seed)]
            if not report.passed:
                return False, report
            worst = max(worst, report.max_abs_z)
    return True, worst


def test_criterion_01_mellin_factorization_second_kind():
    f = gamma_product((2.0, 3.0))
    params = [DimParams(0.5, 0.7), DimParams(1.0, 1.3)]
    t0 = time.time()
    report = mellin_factorization_check("second", params, f, n=64, tol=1e-6)
    elapsed = time.time() - t0
    ok = report.passed and report.max_rel_err <= 1e-6 and elapsed <= 30.0
    announce(
        "criterion 1 (Mellin factorization, second kind)",
        ok,
        f"max rel err {report.max_rel_err:.3e} over {len(report.s_points)} "
        f"grid points in {elapsed:.1f}s",
    )


def test_criterion_02_mellin_factorization_first_kind():
    f = gamma_product((2.0, 3.0))
    params = [DimParams(1.0, 0.7), DimParams(2.0, 1.3)]
    t0 = time.time()
    report = mellin_factorization_check("first", params, f, n=64, tol=1e-6)
    elapsed = time.time() - t0
    strips = all(
        s[j].real < 1.0 + d.zeta for s in report.s_points for j, d in enumerate(params)
    )
    ok = report.passed and report.max_rel_err <= 1e-6 and strips
    announce(
        "criterion 2 (Mellin factorization, first kind)",
        ok,
        f"max rel err {report.max_rel_err:.3e} over {len(report.s_points)} "
        f"strip-respecting points in {elapsed:.1f}s",
    )


@pytest.mark.parametrize("kind, zetas, alphas", [
    ("second", (0.5, 1.0, 0.8), (0.7, 1.3, 1.2)),
    ("first", (1.0, 2.0, 1.5), (0.7, 1.3, 1.0)),
])
def test_criterion_02b_mellin_factorization_three_dimensions(kind, zetas, alphas):
    f = gamma_product((2.0, 3.0, 4.0))
    params = [DimParams(z, a) for z, a in zip(zetas, alphas)]
    t0 = time.time()
    report = mellin_factorization_check(kind, params, f, n=64, tol=1e-6)
    elapsed = time.time() - t0
    ok = report.passed and report.max_rel_err <= 1e-6
    announce(
        f"criterion 2b (Mellin factorization, {kind} kind, k=3)",
        ok,
        f"max rel err {report.max_rel_err:.3e} over {len(report.s_points)} "
        f"grid points in {elapsed:.1f}s",
    )


def test_criterion_03_density_identities_classical(mc_matrix):
    ok_11, detail_11 = matrix_ok(mc_matrix, "1.1")
    ok_21, detail_21 = matrix_ok(mc_matrix, "2.1")
    slowest = max(t for (_, _, _), (_, t) in
                  ((key, val) for key, val in mc_matrix.items() if key[0] in ("1.1", "2.1")))
    ok = ok_11 and ok_21 and slowest <= RUNTIME_CAP_S
    announce(
        "criterion 3 (density identities 1.1 and 2.1)",
        ok,
        f"worst |z| {max(detail_11 if ok_11 else 99, detail_21 if ok_21 else 99):.2f} "
        f"across k in (1,2) x 3 seeds, slowest run {slowest:.1f}s",
    )


def test_criterion_04_dirichlet_identities_with_ks(mc_matrix, unit_mass):
    ok_12, detail_12 = matrix_ok(mc_matrix, "1.2")
    ok_13, detail_13 = matrix_ok(mc_matrix, "1.3")
    # per-coordinate KS of the ratio coordinates against the derived laws:
    # with a unit-mass f, u of these product identities is y
    worst_p = 1.0
    for theorem in ("1.2", "1.3"):
        spec = make_spec(theorem, 2, f=unit_mass(2))
        y = simulate(spec, 10**5, seed=404).data
        pairs = ratio_beta_pairs(spec.params.alphas, spec.params.betas)
        for j, (first, second) in enumerate(pairs):
            p = stats.kstest(y[:, j], stats.beta(first, second).cdf).pvalue
            worst_p = min(worst_p, p)
    ok = ok_12 and ok_13 and worst_p > 1e-3
    announce(
        "criterion 4 (Dirichlet identities 1.2 and 1.3 + KS)",
        ok,
        f"worst |z| {max(detail_12 if ok_12 else 99, detail_13 if ok_13 else 99):.2f}, "
        f"worst KS p-value {worst_p:.2e}",
    )


def test_criterion_05_adjudication(mc_matrix):
    details = []
    ok = True
    for theorem in ("2.4", "2.5"):
        report, _ = mc_matrix[(theorem, 2, SEEDS[0])]
        by_label = {c.label: c for c in report.candidates}
        derived = by_label["derivation-consistent"]
        printed = by_label["as-printed"]
        if derived.pairs == printed.pairs:
            # the two readings coincide; the common set must pass
            ok = ok and derived.passed and printed.passed
            ok = ok and "coincide" in report.adjudication_notes
            details.append(f"{theorem}: readings coincide and pass")
        else:
            # exactly one reading passes and the report names it
            ok = ok and derived.passed and not printed.passed
            ok = ok and "derivation-consistent" in report.adjudication_notes
            details.append(
                f"{theorem}: derivation-consistent passes, as-printed fails"
                + (" (inadmissible)" if not printed.admissible else "")
            )
    announce("criterion 5 (adjudication of 2.4 and 2.5)", ok, "; ".join(details))


def test_criterion_06_pathway_identities_and_limit(mc_matrix):
    ok_14, detail_14 = matrix_ok(mc_matrix, "1.4", dims=(1,))
    ok_23, detail_23 = matrix_ok(mc_matrix, "2.3", dims=(1,))
    # q -> 1 factor check at ten (u, v) pairs
    base = dict(a=1.2, eta=0.8, zeta=0.7)
    p = PathwayDimParams(q=1.0 - 1e-5, **base)
    pairs = [(u, v) for u in (0.3, 0.8, 1.5, 2.4, 3.0) for v in (0.9, 2.1)]
    worst = 0.0
    for u, v in pairs:
        finite = pathway_factor(u, v, p)
        limit = pathway_limit_factor(u, v, **base)
        worst = max(worst, abs(finite - limit) / limit)
    ok = ok_14 and ok_23 and worst <= 1e-3
    announce(
        "criterion 6 (pathway identities 1.4 and 2.3 + limit factor)",
        ok,
        f"worst |z| {max(detail_14 if ok_14 else 99, detail_23 if ok_23 else 99):.2f}, "
        f"worst limit-factor rel err {worst:.2e} over {len(pairs)} pairs",
    )


def test_criterion_07_quadrature_exactness():
    pairs = [(-0.3, -0.5), (0.5, -0.5), (0.3, 0.0), (0.7, 1.0), (1.3, 0.5), (0.0, 1.5)]
    worst = 0.0
    for edge1, edge0 in pairs:
        for n in (4, 8, 16, 32, 64):
            rule = jacobi_rule(n, edge1, edge0)
            for m in range(2 * n):
                approx = float(rule.weights @ rule.nodes**m)
                exact = math.exp(betaln(edge0 + m + 1.0, edge1 + 1.0))
                worst = max(worst, abs(approx - exact) / exact)
    ok = worst <= 1e-12
    announce(
        "criterion 7 (quadrature exactness)",
        ok,
        f"worst monomial rel err {worst:.3e} over {len(pairs)} weights x 5 sizes",
    )


def test_criterion_08_normalization():
    details = []
    ok = True
    for theorem in ("1.1", "1.2", "2.1"):
        for k, tol in ((1, 1e-5), (2, 1e-4)):
            spec = make_spec(theorem, k)
            kind = identity_setup(theorem, spec.params)[0]
            tail = "exp" if kind == "second" else "algebraic"
            log_x, log_w = semiaxis_log_rule(96, tail)
            axes = [log_x] * k
            mesh = np.meshgrid(*axes, indexing="ij")
            pts = np.exp(np.stack([m.ravel() for m in mesh], axis=-1))
            g = predicted_density(theorem, spec.params, spec.f, pts, n=64)
            logvol = sum(np.meshgrid(*([log_x + log_w] * k), indexing="ij")).ravel()
            integral = float(np.sum(g * np.exp(logvol)))
            ok = ok and abs(integral - 1.0) <= tol
            details.append(f"{theorem} k={k}: {integral:.8f}")
    announce("criterion 8 (predicted densities normalize)", ok, "; ".join(details))


def test_criterion_09_transform_round_trip_and_jacobian():
    worst_rt = 0.0
    worst_jac = 0.0
    for k in (2, 3, 5):
        rng = np.random.default_rng(900 + k)
        g = rng.exponential(size=(10**4, k + 1))
        x = g[:, :k] / g.sum(axis=1, keepdims=True)
        worst_rt = max(worst_rt, float(np.max(np.abs(inverse(forward(x)) - x))))
        g2 = rng.exponential(size=(10**4, k + 1))
        y = forward(g2[:, :k] / g2.sum(axis=1, keepdims=True))
        worst_rt = max(worst_rt, float(np.max(np.abs(forward(inverse(y)) - y))))
        for trial in range(5):
            y0 = rng.uniform(0.1, 0.9, size=k)
            h = 1e-6
            jac = np.empty((k, k))
            for j in range(k):
                step = np.zeros(k)
                step[j] = h
                jac[:, j] = (inverse(y0 + step) - inverse(y0 - step)) / (2 * h)
            fd = abs(np.linalg.det(jac))
            worst_jac = max(worst_jac, abs(jacobian(y0) - fd) / fd)
    ok = worst_rt <= 1e-12 and worst_jac <= 1e-6
    announce(
        "criterion 9 (triangular map round trips and volume factor)",
        ok,
        f"worst round-trip {worst_rt:.2e}, worst analytic-vs-FD {worst_jac:.2e}",
    )


def test_criterion_10_negative_controls():
    flipped = []
    ok = True
    for theorem in ALL_IDS:
        spec = make_spec(theorem, 1)
        samples = simulate(spec, N_SAMPLES, SEEDS[0])
        clean = verify(spec, samples=samples)
        corrupt = verify(spec, samples=samples, constant_scale=1.25)
        ok = ok and clean.passed and not corrupt.passed
        flipped.append(f"{theorem}:{'ok' if clean.passed and not corrupt.passed else 'BAD'}")
    announce(
        "criterion 10 (corrupted constants flip verification to fail)",
        ok,
        ", ".join(flipped),
    )


def test_criterion_11_three_dimensional_identities():
    # k=3 on the first seed, with the x1.25 control on the same draws
    details = []
    ok = True
    for theorem in ALL_IDS:
        spec = make_spec(theorem, 3)
        samples = simulate(spec, N_SAMPLES, SEEDS[0])
        clean = verify(spec, samples=samples)
        corrupt = verify(spec, samples=samples, constant_scale=1.25)
        flips = clean.passed and not corrupt.passed
        ok = ok and flips
        details.append(f"{theorem}: max |z| {clean.max_abs_z:.2f}{'' if flips else ' BAD'}")
    announce("criterion 11 (identities at k=3, with controls)", ok, ", ".join(details))
