import dataclasses
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
    ShapeError,
    SizeError,
    UsageError,
)
from ekstat.kober import (
    DimParams,
    MultiDensity,
    eval_many,
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
from ekstat.mellin import mellin_factorization_check
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
        res = kober2_eval(np.array([1.0]), [DimParams(0.0, 1.0)], gamma_product((1.0,)))
        assert res.value == pytest.approx(E1_AT_ONE, rel=1e-8)
        assert res.est_error < 1e-8

    def test_shifted_and_direct_weights_agree(self):
        # zeta slightly above and below 0 must evaluate continuously
        f = gamma_product((1.0,))
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

    @staticmethod
    def composed_and_direct(f, zeta, a, b, u):
        # second-kind operators compose: (zeta, a) after (zeta+a, b) equals (zeta, a+b)
        inner = operator_image("second", [DimParams(zeta + a, b)], f, n=64)
        composed = kober2_eval(np.array([u]), [DimParams(zeta, a)], inner, refine=False).value
        direct = kober2_eval(np.array([u]), [DimParams(zeta, a + b)], f, refine=False).value
        return composed, direct

    def test_semigroup_composition(self):
        for u in (0.5, 1.0, 2.0):
            composed, direct = self.composed_and_direct(gamma_product((1.0,)), 0.6, 0.8, 0.9, u)
            assert composed == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("shape", [1.0, 2.0, 0.5])
    @pytest.mark.parametrize("zeta, a, b", [(0.6, 0.8, 0.9), (0.5, 0.7, 1.3),
                                            (0.0, 1.5, 0.5), (-0.5, 1.0, 1.0)])
    def test_semigroup_composition_near_field(self, shape, zeta, a, b):
        # c*u < 0.25: both operators take the near-field split
        for u in (0.05, 0.2):
            composed, direct = self.composed_and_direct(gamma_product((shape,)), zeta, a, b, u)
            assert composed == pytest.approx(direct, rel=1e-7)

    @pytest.mark.parametrize("tiny", [1e-17, 5e-17])
    def test_tiny_zeta_evaluates_as_zero(self, tiny):
        # zeta - 1 rounds to -1 for 0 < zeta <= 2^-54, so the plain rule keeps
        # its 1/t in the weights, as for zeta = 0
        f = gamma_product((2.0,))
        for u in (1.0, 5.0):
            for alpha in (0.4, 1.5):
                at_zero = kober2_eval(np.array([u]), [DimParams(0.0, alpha)], f).value
                at_tiny = kober2_eval(np.array([u]), [DimParams(tiny, alpha)], f).value
                assert at_tiny == pytest.approx(at_zero, rel=1e-15)


class TestFirstKind:
    def test_truncated_moment_case(self):
        # zeta = 1, alpha = 1, exponential f at u = 1
        res = kober1_eval(np.array([1.0]), [DimParams(1.0, 1.0)], gamma_product((1.0,)))
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
            kober1_eval(np.array([1.0]), [DimParams(0.0, 1.0)], gamma_product((1.0,)))

    def test_far_field_branch_consistency(self):
        # both branches around the switch point must be internally converged
        f = gamma_product((2.0,))
        params = [DimParams(1.0, 0.7)]
        for u in (99.9, 100.1, 1e4):
            coarse = eval_many("first", params, f, np.array([[u]]), 64)[0]
            fine = eval_many("first", params, f, np.array([[u]]), 128)[0]
            assert coarse == pytest.approx(fine, rel=1e-10)


class TestRegimeThresholds:
    """The splits start at c*u = 0.25 (second kind) and u = 100*c (first
    kind), absolute; c = a(1-q) = 1.125 here.  benchmarks/warm.py restates
    both thresholds."""

    C = 1.125

    def regime(self, monkeypatch, kind, u):
        plan = kober._DimQuad(kind, 0.8, 1.7, self.C, (64,))
        taken = []

        def spy(name):
            split = getattr(plan, name)

            def run(u_eff):
                taken.append(name)
                return split(u_eff)
            monkeypatch.setattr(plan, name, run)
        spy("_near_second")
        spy("_far_first")
        plan.nodes_weights(u)
        return taken[0] if taken else "plain"

    def test_second_kind_near_field(self, monkeypatch):
        at = 0.25 / self.C
        assert self.regime(monkeypatch, "second", at * (1.0 - 1e-12)) == "_near_second"
        assert self.regime(monkeypatch, "second", at * (1.0 + 1e-12)) == "plain"

    def test_first_kind_far_field(self, monkeypatch):
        at = 100.0 * self.C
        assert self.regime(monkeypatch, "first", at * (1.0 - 1e-12)) == "plain"
        assert self.regime(monkeypatch, "first", at * (1.0 + 1e-12)) == "_far_first"


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
                gamma_product((1.0,)),
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
        assert math.exp(identity_setup(theorem, params)[2]) == pytest.approx(expected, rel=1e-13)

    def test_unknown_theorem(self):
        with pytest.raises(UsageError):
            identity_setup("3.1", (DimParams(1.0, 1.0),))

    @pytest.mark.parametrize("theorem, params", [
        ("1.1", (DimParams(0.3, 1.5),)),
        ("1.1", (DimParams(0.1, 1.5),)),
        ("1.1", (DimParams(1e-17, 1.5),)),
        ("1.4", (PathwayDimParams(1.0, 0.5, 1.0, 0.3),)),
    ])
    def test_setup_dims_are_the_family_records(self, theorem, params):
        # zeta + 1 - 1 reads 0.30000000000000004, 0.10000000000000009 and 0
        dims = identity_setup(theorem, params)[1]
        assert len(dims) == len(params) and all(d is p for d, p in zip(dims, params))
        assert dims[0].zeta == params[0].zeta

    def test_prediction_is_the_operator_at_the_given_zeta(self):
        params, f = (DimParams(0.3, 1.5),), gamma_product((2.0,))
        pts = np.array([[0.05], [0.7], [1.3], [4.0], [12.0]])
        log_c = identity_setup("1.1", params)[2]
        want = eval_many("second", params, f, pts, log_shift=log_c)
        assert np.array_equal(predicted_density("1.1", params, f, pts), want)

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
        f = gamma_product((1.0,))
        res = kober1_eval(np.array([1.0]), [DimParams(1.0, 1.0)], f, n=16)
        true_err = abs(res.value - MOMENT_ONE_TRUNC)
        assert true_err <= max(res.est_error * 10.0, 1e-12)

    def test_point_domain(self):
        f = gamma_product((1.0,))
        with pytest.raises(DomainError):
            kober2_eval(np.array([-1.0]), [DimParams(0.5, 1.0)], f)

    @pytest.mark.parametrize("u", [np.inf, np.nan])
    def test_points_must_be_finite(self, u):
        f = gamma_product((1.0,))
        with pytest.raises(DomainError, match="finite and positive"):
            kober2_eval(np.array([u]), [DimParams(0.5, 1.5)], f)
        with pytest.raises(DomainError, match="finite and positive"):
            kober1_eval(np.array([u]), [DimParams(1.5, 1.0)], f)

    def test_near_field_tail_grid_overflow_is_a_domain_error(self):
        # 350/(c*u) overflows: the tail grid would put nodes at v = inf
        f = gamma_product((2.0,))
        with pytest.raises(DomainError, match="point 1e-310 is too small"):
            kober2_eval(np.array([1e-310]), [DimParams(0.5, 1.5)], f, refine=False)
        pw = PathwayDimParams(a=1.0, q=0.5, eta=1.0, zeta=0.5)  # c = 0.5
        with pytest.raises(DomainError, match="point 3e-306 is too small"):
            kober2_eval(np.array([3e-306]), [pw], f, refine=False)
        value = kober2_eval(np.array([2e-306]), [DimParams(0.5, 1.5)], f, refine=False).value
        assert 0.0 < value < math.inf

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
        # plain, split edge, and (first kind) split tail; plans are cached,
        # so the cache is emptied first
        kober._plan.cache_clear()
        calls = []
        for name in ("jacobi_rule", "semiaxis_log_rule"):
            def counted(*args, _rule=getattr(kober, name), **kw):
                calls.append(args)
                return _rule(*args, **kw)
            monkeypatch.setattr(kober, name, counted)
        pts = np.array(points)[:, None]
        eval_many(kind, [DimParams(zeta, 1.5)], gamma_product((2.0,)), pts)
        assert len(calls) == rule_calls

    def test_cached_plan_arrays_are_read_only(self):
        for kind, u in (("second", [0.01, 1.0]), ("first", [1.0, 300.0, 1e4])):
            for sizes in ((64,), (128, 64)):
                plan = kober._plan(kind, 1.5, 0.7, 1.0, sizes)
                assert plan is kober._plan(kind, 1.5, 0.7, 1.0, sizes)
                plan.sums(np.array(u), lambda x: np.exp(-x))  # builds every rule of both regimes
                split = plan._near_rules if kind == "second" else plan._far_rules
                arrays = [a for a in (*plan._plain, *split) if isinstance(a, np.ndarray)]
                assert len(arrays) == (7 if kind == "second" else 8)
                assert not any(a.flags.writeable for a in arrays)

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

    @pytest.mark.parametrize("n", [4, 7])
    def test_fewer_than_eight_nodes_refused(self, n):
        # with n=4 this point came back as 0 with est_error 1.35e-11, where
        # the value is about 1.5e-9
        f = gamma_product((2.0,))
        with pytest.raises(ParameterError, match="at least 8 nodes"):
            kober1_eval(np.array([1e6]), [DimParams(0.5, 1.5)], f, n=n)
        with pytest.raises(ParameterError, match="at least 8 nodes"):
            eval_many("second", [DimParams(0.5, 1.5)], f, np.array([1.0]), n)
        assert eval_many("second", [DimParams(0.5, 1.5)], f, np.array([1.0]), 8) > 0.0

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


def _pdf_not_called(pts):
    raise AssertionError("a density with factors must not be evaluated on the tensor grid")


class TestSeparablePath:
    """A density with factors is summed one dimension at a time; the dense
    tensor sum over the same density's joint pdf is the reference."""

    SHAPES = (2.0, 3.0, 2.5)
    # per kind: the operator parameters of three dimensions, and one point
    # in each regime (second: near field, plain, plain far out; first: plain
    # near 0, plain, far field)
    CASES = {
        ("second", "classical"): ([DimParams(-0.5, 1.5), DimParams(0.0, 0.7),
                                   DimParams(0.8, 1.2)], (0.01, 1.3, 30.0)),
        ("second", "pathway"): ([PathwayDimParams(1.0, 0.5, 1.0, -0.3),
                                 PathwayDimParams(1.5, 0.25, 2.0, 0.8),
                                 PathwayDimParams(1.0, 0.5, 1.0, 0.5)], (0.01, 1.3, 30.0)),
        ("first", "classical"): ([DimParams(1.5, 1.0), DimParams(2.0, 0.7),
                                  DimParams(1.2, 1.3)], (1e-3, 1.3, 1e3)),
        ("first", "pathway"): ([PathwayDimParams(1.0, 0.5, 1.0, 1.5),
                                PathwayDimParams(1.5, 0.25, 2.0, 1.0),
                                PathwayDimParams(1.0, 0.5, 1.0, 2.0)], (1e-3, 1.3, 1e3)),
    }

    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("case", list(CASES), ids="-".join)
    def test_dense_and_separable_agree(self, case, k, n):
        params, regimes = self.CASES[case]
        f = gamma_product(self.SHAPES[:k])
        # each row puts every regime in some dimension
        pts = np.array([np.roll(regimes, -r)[:k] for r in range(3)])
        sep = eval_many(case[0], params[:k], dataclasses.replace(f, pdf=_pdf_not_called), pts, n)
        dense = eval_many(case[0], params[:k], dataclasses.replace(f, factors=None), pts, n)
        assert np.all(dense > 0.0)
        np.testing.assert_allclose(sep, dense, rtol=1e-12, atol=0.0)

    def test_four_dimensions_beyond_the_tensor_budget(self):
        shapes = (2.0, 3.0, 2.5, 1.5)
        params = [DimParams(0.5, 1.5), DimParams(1.0, 0.7), DimParams(-0.3, 1.2),
                  DimParams(0.8, 0.9)]
        u = np.array([0.8, 1.7, 0.05, 2.5])
        f = gamma_product(shapes)
        joint = kober2_eval(u, params, f)
        parts = [kober2_eval(u[j:j + 1], params[j:j + 1], gamma_product(shapes[j:j + 1]))
                 for j in range(4)]
        assert joint.value == pytest.approx(math.prod(r.value for r in parts), rel=1e-12)
        # the same density without factors is refused before a grid is built
        with pytest.raises(SizeError, match="over the budget"):
            eval_many("second", params, dataclasses.replace(f, factors=None), u, 64)

    def test_nonfinite_factor_rejected(self):
        f = MultiDensity(dim=2, pdf=_pdf_not_called,
                         factors=(lambda x: np.exp(-x), lambda x: np.where(x > 2.0, np.inf, 1.0)))
        with pytest.raises(EvaluationError, match="not finite") as info:
            eval_many("second", [DimParams(0.5, 1.0)] * 2, f, np.ones(2))
        assert info.value.point > 2.0

    def test_factor_shape_checked(self):
        f = MultiDensity(dim=2, pdf=_pdf_not_called, factors=(lambda x: np.exp(-x), lambda x: np.ones(3)))
        with pytest.raises(ShapeError, match="one value per node"):
            eval_many("second", [DimParams(0.5, 1.0)] * 2, f, np.ones(2))

    def test_factor_count_must_match_dimension(self):
        with pytest.raises(ShapeError, match="needs 2 factors"):
            MultiDensity(dim=2, pdf=_pdf_not_called, factors=(np.exp,))

    def test_dense_prefactor_overflow_raises(self):
        # the separable twin is test_prefactor_overflow_raises
        f = dataclasses.replace(gamma_product((2.0, 2.0)), factors=None)
        with pytest.raises(OverflowError, match=r"log prefactor 1256\.9"):
            kober2_eval(np.array([1e-300, 1e-300]), [DimParams(-0.9, 0.1)] * 2, f, refine=False)


def _counted_factors(f: MultiDensity, calls: list) -> MultiDensity:
    """``f`` with each factor call recorded in ``calls`` as (dimension, nodes)."""
    def counted(j, fj):
        def factor(x):
            calls.append((j, np.size(x)))
            return fj(x)
        return factor
    return dataclasses.replace(f, pdf=_pdf_not_called,
                               factors=tuple(counted(j, fj) for j, fj in enumerate(f.factors)))


class TestSeparableBatches:
    """A batch of points on a product density sums each distinct coordinate
    once per dimension; its values and errors are those of one point at a
    time."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("case", list(TestSeparablePath.CASES), ids="-".join)
    def test_batch_equals_single_points_bit_for_bit(self, case, k):
        params, regimes = TestSeparablePath.CASES[case]
        f = gamma_product(TestSeparablePath.SHAPES[:k])
        # every regime plus a plain value per dimension, on a shuffled
        # tensor grid with each point twice
        coords = [np.roll(regimes + (0.7,), -j) for j in range(k)]
        grid = np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1).reshape(-1, k)
        pts = np.random.default_rng(k).permutation(np.concatenate([grid, grid]))
        for shift in (0.0, 3.5):
            batch = eval_many(case[0], params[:k], f, pts, log_shift=shift)
            single = np.array([eval_many(case[0], params[:k], f, p, log_shift=shift)
                               for p in pts])
            assert np.all(batch > 0.0)
            assert np.array_equal(batch, single)

    def test_tensor_grid_sums_each_grid_line_once(self):
        calls = []
        f = _counted_factors(gamma_product((2.0, 3.0)), calls)
        axis = np.geomspace(1e-3, 50.0, 64)
        pts = np.stack(np.meshgrid(axis, axis[::-1], indexing="ij"), axis=-1).reshape(-1, 2)
        vals = eval_many("second", [DimParams(0.5, 0.7), DimParams(1.0, 1.3)], f, pts)
        assert vals.shape == (4096,) and np.all(vals > 0.0)
        # 64 distinct coordinates per dimension, 64 nodes each
        assert [sum(m for j, m in calls if j == d) for d in (0, 1)] == [64 * 64] * 2

    def test_mellin_check_sums_each_grid_line_once(self):
        # the k=2 check evaluates the operator image on a 64 x 64 grid
        calls = []
        f = _counted_factors(gamma_product((2.0, 3.0)), calls)
        report = mellin_factorization_check(
            "second", [DimParams(0.5, 0.7), DimParams(1.0, 1.3)], f, n=64)
        assert report.passed
        assert [sum(m for j, m in calls if j == d) for d in (0, 1)] == [64 * 64] * 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    def test_bad_coordinate_after_good_points(self, bad):
        pts = np.array([[1.0, 2.0], [1.0, 3.0], [bad, 2.0]])
        with pytest.raises(DomainError, match="finite and positive"):
            eval_many("second", [DimParams(0.5, 1.0)] * 2, gamma_product((2.0, 3.0)), pts)

    def test_bad_coordinate_raises_before_a_density_error(self):
        # dimension 0's factor fails at this point, dimension 1's coordinate
        # is NaN: the point's coordinates are checked first
        f = MultiDensity(dim=2, pdf=_pdf_not_called,
                         factors=(lambda x: np.where(x > 2.0, np.inf, 1.0), lambda x: np.exp(-x)))
        with pytest.raises(DomainError):
            eval_many("first", [DimParams(1.0, 1.0)] * 2, f, np.array([[1.0, 1.0], [5.0, np.nan]]))

    def test_prefactor_overflow_after_good_points(self):
        pts = np.array([[1.0, 1.0], [0.5, 1.0], [1e-300, 1e-300]])
        with pytest.raises(OverflowError, match=r"log prefactor 1256\.9"):
            eval_many("second", [DimParams(-0.9, 0.1)] * 2, gamma_product((2.0, 2.0)), pts)

    def test_nonfinite_factor_after_good_points(self):
        # first kind: the nodes of u lie in (0, u), so only the last point
        # reaches the factor's non-finite values above 2
        f = MultiDensity(dim=2, pdf=_pdf_not_called,
                         factors=(lambda x: np.exp(-x), lambda x: np.where(x > 2.0, np.inf, 1.0)))
        pts = np.array([[1.0, 1.0], [3.0, 1.5], [1.0, 5.0]])
        with pytest.raises(EvaluationError, match="not finite at") as info:
            eval_many("first", [DimParams(1.0, 1.0)] * 2, f, pts)
        assert 2.0 < info.value.point < 5.0


class TestRefinedPass:
    """A refined evaluation builds and sums its n- and 2n-node rules in one
    pass; its value and error are bit for bit those of one pass per size."""

    # classical and pathway dimensions per kind, and a point per regime
    # (second: near field, plain, plain far out; first: plain near 0,
    # plain, far field); the second kind has a negative zeta with c =
    # 1.125 and with alpha = 0.7, the first kind c = 0.5 and 0.8
    DIMS = {
        "second": (DimParams(0.5, 1.5), PathwayDimParams(1.5, 0.25, 2.0, -0.3),
                   DimParams(-0.3, 0.7)),
        "first": (DimParams(1.5, 1.0), PathwayDimParams(1.0, 0.5, 1.0, 1.5),
                  PathwayDimParams(1.6, 0.5, 0.15, 1.2)),
    }
    REGIMES = {"second": (0.01, 1.3, 30.0), "first": (1e-3, 1.3, 1e3)}
    EVAL = {"second": kober2_eval, "first": kober1_eval}

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("k, dense", [(1, False), (2, False), (3, False), (1, True), (2, True)])
    @pytest.mark.parametrize("kind", ["second", "first"])
    def test_bit_identical_to_one_pass_per_size(self, kind, k, dense, n):
        dims = self.DIMS[kind][:k]
        f = gamma_product((2.0, 3.0, 2.5)[:k])
        if dense:
            f = dataclasses.replace(f, factors=None)
        # each point puts every regime in some dimension
        for u in (np.roll(self.REGIMES[kind], -r)[:k] for r in range(3)):
            res = self.EVAL[kind](u, dims, f, n=n)
            value = eval_many(kind, dims, f, u, n)
            assert res.value == value > 0.0
            assert res.est_error == abs(value - eval_many(kind, dims, f, u, 2 * n))
            once = self.EVAL[kind](u, dims, f, n=n, refine=False)
            assert once.value == res.value and once.est_error is None

    @pytest.mark.parametrize("kind", ["second", "first"])
    def test_one_factor_call_per_dimension(self, kind):
        calls = []
        f = _counted_factors(gamma_product((2.0, 3.0, 2.5)), calls)
        res = self.EVAL[kind](np.array(self.REGIMES[kind]), self.DIMS[kind], f, n=64)
        assert res.value > 0.0
        assert [j for j, _ in calls] == [0, 1, 2]
        # a call takes the 128 nodes of the refinement and the 64 of n (the
        # far field drops the tail nodes past u/2)
        assert calls[1] == (1, 192) and all(m <= 192 for _, m in calls)

    def test_dense_refinement_over_budget_calls_no_density(self):
        # 256**3 nodes are over the budget; 128**3 would not be
        f = MultiDensity(dim=3, pdf=_pdf_not_called)
        with pytest.raises(SizeError, match="256 nodes in each of 3"):
            kober2_eval(np.ones(3), [DimParams(0.5, 1.0)] * 3, f, n=128)

    def test_near_field_refusal_when_refined(self):
        with pytest.raises(DomainError, match="point 1e-310 is too small"):
            kober2_eval(np.array([1e-310]), [DimParams(0.5, 1.5)], gamma_product((2.0,)))

    def test_overflow_when_refined(self):
        with pytest.raises(OverflowError, match="log prefactor"):
            kober2_eval(np.array([1e-300, 1e-300]), [DimParams(-0.9, 0.1)] * 2,
                        gamma_product((2.0, 2.0)))

    def test_too_few_nodes_is_refused_after_the_2n_faults(self):
        # with n = 4 the 2n = 8 evaluation is admissible, and its fault
        # comes first, as in one pass per size
        f = gamma_product((2.0,))
        with pytest.raises(DomainError, match="finite and positive"):
            kober2_eval(np.array([-1.0]), [DimParams(0.5, 1.0)], f, n=4)
        with pytest.raises(EvaluationError):
            kober2_eval(np.array([1.0]), [DimParams(0.5, 1.0)],
                        MultiDensity(dim=1, pdf=lambda p: np.full(p.shape[:-1], np.nan)), n=4)
        with pytest.raises(ParameterError, match="at least 8 nodes"):
            kober2_eval(np.array([1.0]), [DimParams(0.5, 1.0)], f, n=4)


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
