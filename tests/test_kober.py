import math

import numpy as np
import pytest
from scipy.special import roots_genlaguerre

from ekstat import kober
from ekstat.densities import PathwayDimParams
from ekstat.errors import (
    DomainError,
    EvaluationError,
    ParameterError,
    SizeError,
    UsageError,
)
from ekstat.kober import (
    DimParams,
    MultiDensity,
    density_constant,
    eval_many,
    exponential_product,
    gamma_product,
    identity_setup,
    kober1_eval,
    kober2_eval,
    operator_image,
    pathway_kober1_eval,
    pathway_kober2_eval,
    predicted_density,
)
from ekstat.mc_oracle import make_spec
from ekstat.quadrature import semiaxis_log_rule

# frozen from the alternating series -euler_gamma + sum (-1)^(n+1)/(n n!),
# the integral of v^-1 e^-v over (1, inf)
E1_AT_ONE = 0.2193839343955205
# integral of t e^-t over (0,1)
MOMENT_ONE_TRUNC = 0.26424111765711533


def exp1_series(x: float) -> float:
    total = 0.0
    for n in range(1, 60):
        total += (-1) ** (n + 1) * x**n / (n * math.factorial(n))
    return -0.5772156649015328606 - math.log(x) + total


class TestSecondKind:
    def test_exponential_integral_case(self):
        # zeta -> 0 (shifted-weight path), alpha = 1: K f(1) = E1(1)
        assert exp1_series(1.0) == pytest.approx(E1_AT_ONE, rel=1e-14)
        res = kober2_eval(np.array([1.0]), [DimParams(0.0, 1.0)], exponential_product(1))
        assert res.value == pytest.approx(E1_AT_ONE, rel=1e-8)
        assert res.est_error < 1e-8

    def test_shifted_and_direct_weights_agree(self):
        # zeta slightly above and below 0 must evaluate continuously
        f = exponential_product(1)
        lo = kober2_eval(np.array([1.0]), [DimParams(-1e-9, 1.3)], f).value
        hi = kober2_eval(np.array([1.0]), [DimParams(+1e-9, 1.3)], f).value
        assert lo == pytest.approx(hi, rel=1e-6)

    def test_separability(self):
        f2 = gamma_product((2.0, 3.0))
        params = [DimParams(0.5, 1.5), DimParams(1.0, 0.7)]
        joint = kober2_eval(np.array([0.8, 1.7]), params, f2, refine=False).value
        parts = [
            kober2_eval(np.array([0.8]), [params[0]], gamma_product((2.0,)), refine=False).value,
            kober2_eval(np.array([1.7]), [params[1]], gamma_product((3.0,)), refine=False).value,
        ]
        assert joint == pytest.approx(parts[0] * parts[1], rel=1e-10)

    def test_identity_limit_small_alpha(self):
        f = gamma_product((2.0,))
        u = np.array([1.3])
        target = float(f.pdf(u))
        errs = []
        for alpha in (0.05, 0.01):
            val = kober2_eval(u, [DimParams(1.0, alpha)], f, refine=False).value
            errs.append(abs(val - target) / target)
        assert errs[1] < 0.01
        assert errs[1] < errs[0]

    def test_positivity(self):
        f = gamma_product((2.0,))
        for u in (0.05, 0.5, 2.0, 20.0, 500.0):
            assert kober2_eval(np.array([u]), [DimParams(0.5, 0.7)], f, refine=False).value >= 0.0

    def test_semigroup_composition(self):
        # second-kind operators compose: (zeta, a) after (zeta+a, b) equals (zeta, a+b)
        f = exponential_product(1)
        zeta, a, b = 0.6, 0.8, 0.9
        inner = operator_image("second", [DimParams(zeta + a, b)], f, n=64)
        for u in (0.5, 1.0, 2.0):
            composed = kober2_eval(np.array([u]), [DimParams(zeta, a)], inner, refine=False).value
            direct = kober2_eval(np.array([u]), [DimParams(zeta, a + b)], f, refine=False).value
            assert composed == pytest.approx(direct, rel=1e-6)


class TestFirstKind:
    def test_truncated_moment_case(self):
        # zeta = 1, alpha = 1, exponential f at u = 1
        res = kober1_eval(np.array([1.0]), [DimParams(1.0, 1.0)], exponential_product(1))
        assert res.value == pytest.approx(MOMENT_ONE_TRUNC, rel=1e-12)

    def test_separability(self):
        f2 = gamma_product((2.0, 3.0))
        params = [DimParams(1.0, 0.7), DimParams(2.0, 1.3)]
        joint = kober1_eval(np.array([1.1, 0.6]), params, f2, refine=False).value
        parts = [
            kober1_eval(np.array([1.1]), [params[0]], gamma_product((2.0,)), refine=False).value,
            kober1_eval(np.array([0.6]), [params[1]], gamma_product((3.0,)), refine=False).value,
        ]
        assert joint == pytest.approx(parts[0] * parts[1], rel=1e-10)

    def test_identity_limit_small_alpha(self):
        f = gamma_product((2.0,))
        u = np.array([1.3])
        target = float(f.pdf(u))
        val = kober1_eval(u, [DimParams(1.5, 0.01)], f, refine=False).value
        assert abs(val - target) / target < 0.01

    def test_zeta_domain(self):
        with pytest.raises(ParameterError):
            kober1_eval(np.array([1.0]), [DimParams(0.0, 1.0)], exponential_product(1))

    def test_far_field_branch_consistency(self):
        # both branches around the switch point must be internally converged
        f = gamma_product((2.0,))
        params = [DimParams(1.0, 0.7)]
        for u in (99.9, 100.1, 1e4):
            coarse = eval_many("first", params, f, np.array([[u]]), 64)[0]
            fine = eval_many("first", params, f, np.array([[u]]), 128)[0]
            assert coarse == pytest.approx(fine, rel=1e-10)


class TestPathwayOperators:
    def test_second_kind_reduction(self):
        # a(1-q)=1, eta/(1-q)=alpha-1 collapses to the classical operator
        f = gamma_product((2.0,))
        pw = PathwayDimParams(a=2.0, q=0.5, eta=0.25, zeta=0.5)  # rho = 0.5
        cl = DimParams(0.5, 1.5)
        for u in (0.4, 1.0, 3.0):
            got = pathway_kober2_eval(np.array([u]), [pw], f, refine=False).value
            want = kober2_eval(np.array([u]), [cl], f, refine=False).value
            assert got == pytest.approx(want, rel=1e-10)

    def test_first_kind_reduction(self):
        f = gamma_product((2.0,))
        pw = PathwayDimParams(a=2.0, q=0.5, eta=0.25, zeta=1.0)
        cl = DimParams(1.0, 1.5)
        for u in (0.4, 1.0, 3.0):
            got = pathway_kober1_eval(np.array([u]), [pw], f, refine=False).value
            want = kober1_eval(np.array([u]), [cl], f, refine=False).value
            assert got == pytest.approx(want, rel=1e-10)

    def test_first_kind_requires_positive_zeta(self):
        with pytest.raises(ParameterError):
            pathway_kober1_eval(
                np.array([1.0]),
                [PathwayDimParams(1.0, 0.5, 1.0, 0.0)],
                exponential_product(1),
            )

    def test_second_kind_limit_matches_gamma_kernel(self):
        # q -> 1: the predicted density tends to the gamma-weight mixture
        # (1/Gamma(z+1)) (a eta)^(z+1) int w^(z-1) e^(-a eta w) f(u/w) dw
        a, eta, zeta, d = 1.0, 1.0, 0.5, 2.0
        f = gamma_product((d,))
        p = PathwayDimParams(a, 1.0 - 1e-5, eta, zeta)
        xg, wg = roots_genlaguerre(64, zeta - 1.0)

        def g_limit(u):
            w = xg / (a * eta)
            vals = f.pdf((u / w)[:, None])
            return (a * eta) / math.gamma(zeta + 1.0) * float(wg @ vals)

        for u in (0.3, 0.7, 1.5, 3.0):
            finite = predicted_density("1.4", [p], f, np.array([[u]]))[0]
            assert abs(finite - g_limit(u)) / g_limit(u) < 1e-3

    def test_first_kind_limit_matches_gamma_kernel(self):
        # q -> 1: mixing variable tends to Gamma(zeta, rate a eta), so the
        # predicted density of v/x is a Laguerre-weighted mixture
        a, eta, zeta, d = 1.0, 1.0 - 1e-5, 1.0, 2.0
        q = 1.0 - 1e-5
        f = gamma_product((d,))
        p = PathwayDimParams(a, q, 1.0, zeta)
        xg, wg = roots_genlaguerre(64, zeta)

        def g_limit(u):
            aeta = a * 1.0
            vals = f.pdf((u * xg / aeta)[:, None])
            return float(wg @ vals) / (aeta * math.gamma(zeta))

        for u in (0.5, 1.0, 2.0):
            finite = predicted_density("2.3", [p], f, np.array([[u]]))[0]
            assert abs(finite - g_limit(u)) / g_limit(u) < 1e-3


class TestDensityConstants:
    @pytest.mark.parametrize(
        "theorem,params,expected",
        [
            ("1.1", (DimParams(0.0, 1.0),), 1.0),
            ("1.1", (DimParams(1.0, 2.0),), 1.0 / 6.0),
            ("2.1", (DimParams(2.0, 1.0),), 0.5),
        ],
    )
    def test_gamma_ratio_values(self, theorem, params, expected):
        assert density_constant(theorem, params) == pytest.approx(expected, rel=1e-13)

    def test_unknown_theorem(self):
        with pytest.raises(UsageError):
            density_constant("3.1", (DimParams(1.0, 1.0),))

    @pytest.mark.parametrize("theorem", ["1.1", "1.2", "1.3", "1.4", "2.1", "2.3", "2.4", "2.5"])
    def test_predicted_density_normalizes(self, theorem):
        # operator / constant must integrate to 1 over the semi-axis
        spec = make_spec(theorem, 1)
        kind = identity_setup(theorem, spec.params)[0]
        tail = "exp" if kind == "second" else "algebraic"
        log_x, log_w = semiaxis_log_rule(96, tail)
        pts = np.exp(log_x)[:, None]
        g = predicted_density(theorem, spec.params, spec.f, pts, n=96)
        integral = float(np.sum(g * np.exp(log_x + log_w)))
        assert integral == pytest.approx(1.0, abs=1e-5)


class TestEvaluationPlumbing:
    def test_refinement_estimate_bounds_error(self):
        f = exponential_product(1)
        res = kober1_eval(np.array([1.0]), [DimParams(1.0, 1.0)], f, n=16)
        true_err = abs(res.value - MOMENT_ONE_TRUNC)
        assert true_err <= max(res.est_error * 10.0, 1e-12)

    def test_point_domain(self):
        f = exponential_product(1)
        with pytest.raises(DomainError):
            kober2_eval(np.array([-1.0]), [DimParams(0.5, 1.0)], f)

    @pytest.mark.parametrize("u", [np.inf, np.nan])
    def test_points_must_be_finite(self, u):
        f = exponential_product(1)
        with pytest.raises(DomainError, match="finite and positive"):
            kober2_eval(np.array([u]), [DimParams(0.5, 1.5)], f)
        with pytest.raises(DomainError, match="finite and positive"):
            kober1_eval(np.array([u]), [DimParams(1.5, 1.0)], f)

    def test_prefactor_overflow_raises(self):
        # the summed log prefactor is about 1256.9 here, far past the float
        # range; the value must not come back capped
        with pytest.raises(OverflowError, match=r"log prefactor 1256\.9"):
            kober2_eval(np.array([1e-300, 1e-300]), [DimParams(-0.9, 0.1)] * 2,
                        gamma_product((2.0, 2.0)), refine=False)

    @pytest.mark.parametrize("kind, zeta, points, rule_calls", [
        ("second", 0.5, [1.0, 3.0, 2.0], 1),
        ("second", -0.5, [0.01, 1.0, 0.02, 0.05], 2),
        ("second", 0.5, [0.01, 0.02], 1),
        ("first", 1.5, [1.0, 2.0], 1),
        ("first", 1.5, [300.0, 1.0, 1e4], 3),
        ("first", 1.5, [300.0, 1e4], 2),
    ])
    def test_rules_are_built_once_per_plan(self, monkeypatch, kind, zeta, points, rule_calls):
        # each rule once per plan, and only once a point enters its regime:
        # plain, split edge, and (first kind) split tail
        calls = []
        for name in ("jacobi_rule", "semiaxis_log_rule"):
            def counted(*args, _rule=getattr(kober, name), **kw):
                calls.append(args)
                return _rule(*args, **kw)
            monkeypatch.setattr(kober, name, counted)
        pts = np.array(points)[:, None]
        eval_many(kind, [DimParams(zeta, 1.5)], gamma_product((2.0,)), pts)
        assert len(calls) == rule_calls

    def test_dimension_cap(self, monkeypatch):
        # the default budget admits refined k=3 at n=64 and refuses k=4
        assert 128**3 <= kober._MAX_TENSOR_NODES < 64**4
        # a small budget, so that a missing check cannot allocate much
        monkeypatch.setattr(kober, "_MAX_TENSOR_NODES", 8**4)
        calls = []

        def pdf(pts):
            calls.append(pts.shape)
            return np.ones(pts.shape[:-1])
        f = MultiDensity(dim=4, pdf=pdf)
        params, u = [DimParams(0.5, 1.0)] * 4, np.ones(4)
        with pytest.raises(SizeError, match="budget of 4096"):
            eval_many("second", params, f, u, n=9)
        # the refinement at 2n is refused before the n-node grid is built
        with pytest.raises(SizeError, match="16 nodes in each of 4"):
            kober2_eval(u, params, f, n=8)
        assert calls == []
        assert kober2_eval(u, params, f, n=8, refine=False).value > 0.0
        assert calls == [(8, 8, 8, 8, 4)]

    def test_nonfinite_density_rejected(self):
        bad = MultiDensity(dim=1, pdf=lambda p: np.full(p.shape[:-1], np.nan))
        with pytest.raises(EvaluationError):
            kober2_eval(np.array([1.0]), [DimParams(0.5, 1.0)], bad)

    def test_missing_sampler_raises(self):
        bare = MultiDensity(dim=1, pdf=lambda p: np.ones(p.shape[:-1]))
        with pytest.raises(UsageError):
            bare.sample(10, seed=1)

    def test_shape_mismatch(self):
        f = gamma_product((2.0, 3.0))
        with pytest.raises(Exception):
            kober2_eval(np.array([1.0]), [DimParams(0.5, 1.0)], f)


class TestPlainRegimeReference:
    """Plain-regime values against the operators' defining integrals, with
    f = Gamma(shape, 1), computed by mpmath at 30 digits."""

    ALPHAS = (0.4, 1.0, 2.5)
    SHAPES = (2.0, 3.0)
    POINTS = (0.5, 2.0, 8.0)

    @staticmethod
    def reference(kind, zeta, alpha, c, shape, u):
        """Second kind: u^zeta/Gamma(alpha) int_{cu}^inf (v-cu)^(alpha-1)
        v^(-zeta-alpha) f(v) dv.  First kind: u^(-zeta-alpha)/Gamma(alpha)
        int_0^(u/c) (u-cv)^(alpha-1) v^zeta f(v) dv.  c = 1 is classical,
        c = a(1-q) the pathway support factor."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            z, a, c, s, u = (mpmath.mpf(x) for x in (zeta, alpha, c, shape, u))

            def f(v):
                return v ** (s - 1) * mpmath.exp(-v) / mpmath.gamma(s)
            # integrated over the kernel's distance x from its edge, so the
            # edge singularity x^(alpha-1) sits at the endpoint x = 0
            if kind == "second":  # v = cu + x
                val = u**z * mpmath.quad(
                    lambda x: x ** (a - 1) * (c * u + x) ** (-z - a) * f(c * u + x),
                    [0, 1, mpmath.inf])
            else:  # v = (u - x)/c
                val = u ** (-z - a) / c * mpmath.quad(
                    lambda x: x ** (a - 1) * ((u - x) / c) ** z * f((u - x) / c), [0, u])
            return float(val / mpmath.gamma(a))

    def max_rel_err(self, kind, cases):
        """Largest relative error over (params, (zeta, alpha, c)) cases,
        shapes and points."""
        op = kober2_eval if kind == "second" else kober1_eval
        worst = 0.0
        for p, (zeta, alpha, c) in cases:
            for shape in self.SHAPES:
                f = gamma_product((shape,))
                for u in self.POINTS:
                    got = op(np.array([u]), [p], f, refine=False).value
                    want = self.reference(kind, zeta, alpha, c, shape, u)
                    worst = max(worst, abs(got - want) / want)
        return worst

    # both plain-rule exponents: t^(zeta-1) for zeta > 0, t^zeta and 1/t otherwise
    @pytest.mark.parametrize("zeta", [-0.6, -1e-9, 0.0, 1e-9, 0.5, 2.0])
    def test_second_kind(self, zeta):
        cases = [(DimParams(zeta, a), (zeta, a, 1.0)) for a in self.ALPHAS]
        assert self.max_rel_err("second", cases) <= 1e-8

    @pytest.mark.parametrize("zeta", [0.3, 1.5])
    def test_first_kind(self, zeta):
        cases = [(DimParams(zeta, a), (zeta, a, 1.0)) for a in self.ALPHAS]
        assert self.max_rel_err("first", cases) <= 1e-8

    @pytest.mark.parametrize("kind", ["second", "first"])
    def test_pathway(self, kind):
        # alpha = eta/(1-q) + 1 and c = a(1-q)
        cases = [(PathwayDimParams(1.5, 0.25, 2.0, 0.5), (0.5, 2.0 / 0.75 + 1.0, 1.5 * 0.75)),
                 (PathwayDimParams(1.0, 0.5, 1.0, 1.5), (1.5, 3.0, 0.5))]
        assert self.max_rel_err(kind, cases) <= 1e-8
