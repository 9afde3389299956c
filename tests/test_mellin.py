import dataclasses
import math

import numpy as np
import pytest

from ekstat import mellin, quadrature
from ekstat.errors import EvaluationError, PoleError, SizeError, UsageError
from ekstat.densities import PathwayDimParams
from ekstat.kober import (
    IDENTITY_IDS,
    DimParams,
    MultiDensity,
    gamma_product,
    identity_setup,
    operator_image,
)
from ekstat.mc_oracle import make_spec
from ekstat.mellin import (
    default_s_grid,
    kober_mellin_ratio,
    mellin_factorization_check,
    mellin_numeric,
)

SQRT_PI = 1.7724538509055159
# Gamma(2.5)/Gamma(4), frozen from log-gamma evaluation
RATIO_HALF = 0.22155673136318954


class TestMellinNumeric:
    def test_gamma_integral_identity(self):
        res = mellin_numeric(gamma_product((1.0,)), 2.0)
        assert res.value.real == pytest.approx(1.0, rel=1e-8)
        assert abs(res.value.imag) < 1e-12
        assert res.converged

    def test_half_integer_point(self):
        res = mellin_numeric(gamma_product((1.0,)), 0.5)
        assert res.value.real == pytest.approx(SQRT_PI, rel=1e-8)

    def test_two_dim_product(self):
        res = mellin_numeric(gamma_product((1.0, 1.0)), np.array([2.0, 3.0]))
        assert res.value.real == pytest.approx(2.0, rel=1e-8)

    def test_conjugate_symmetry(self):
        f = gamma_product((2.0,))
        s = np.array([1.5 + 0.5j])
        plus = mellin_numeric(f, s, refine=False).value
        minus = mellin_numeric(f, s.conj(), refine=False).value
        assert minus == pytest.approx(plus.conjugate(), rel=1e-12)

    def test_matches_closed_form_at_complex_point(self):
        f = gamma_product((2.0,))
        s = np.array([1.5 + 0.5j])
        res = mellin_numeric(f, s, refine=False)
        assert res.value == pytest.approx(f.mellin(s), rel=1e-8)

    def test_divergent_point_flags_nonconvergence(self):
        # integral of u^(s-1) e^-u diverges at s = -0.2
        res = mellin_numeric(gamma_product((1.0,)), -0.2)
        assert res.converged is False

    def test_overflow_raises(self):
        # 200! is about 7.9e374, past the float range
        with pytest.raises(FloatingPointError):
            mellin_numeric(gamma_product((2.0,)), 200.0)

    def test_non_finite_density_raises(self):
        # the operator path refuses this density the same way
        f = MultiDensity(dim=1, pdf=lambda x: np.where(x[..., 0] > 5.0, np.nan, np.exp(-x[..., 0])))
        with pytest.raises(EvaluationError, match="not finite") as info:
            mellin_numeric(f, 2.0)
        assert info.value.point[0] > 5.0

    @pytest.mark.parametrize("negative_beyond", [0.0, 5.0])
    def test_negative_density_raises(self, negative_beyond):
        # clamping the negative values to 0 reported -exp(-x) as 0j, converged
        f = MultiDensity(dim=1, pdf=lambda x: np.where(x[..., 0] > negative_beyond, -1.0, 1.0)
                         * np.exp(-x[..., 0]))
        with pytest.raises(EvaluationError, match="negative") as info:
            mellin_numeric(f, 2.0)
        assert info.value.point[0] > negative_beyond
        nodes = np.exp(mellin.semiaxis_log_rule(mellin.DEFAULT_NODES, f.tail)[0])
        assert info.value.point[0] == nodes[nodes > negative_beyond][0]

    def test_refinement_bound_on_smooth_case(self):
        res = mellin_numeric(gamma_product((3.0,)), 1.7)
        exact = math.gamma(3.0 + 1.7 - 1.0) / math.gamma(3.0)
        assert abs(res.value.real - exact) <= max(res.est_error * 10.0, 1e-12)


class TestMellinRatio:
    def test_second_kind_value(self):
        val = kober_mellin_ratio("second", [DimParams(0.5, 1.5)], 2.0)
        assert val.real == pytest.approx(RATIO_HALF, rel=1e-12)

    def test_first_kind_value(self):
        # Gamma(1.5)/Gamma(2.5) = 1/1.5
        val = kober_mellin_ratio("first", [DimParams(1.0, 1.0)], 0.5)
        assert val.real == pytest.approx(1.0 / 1.5, rel=1e-12)

    def test_vanishing_order_gives_unity(self):
        val = kober_mellin_ratio("second", [DimParams(0.5, 1e-13)], 1.7)
        assert val.real == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("kind,zeta,power", [("second", 0.5, lambda z, s: -(z + s)),
                                                 ("first", 1.5, lambda z, s: s - z - 1.0)])
    def test_support_factor_scales_the_classical_multiplier(self, kind, zeta, power):
        # the operator with support factor c is the classical one at c*u
        # (second kind) or u/c (first kind), times c^-zeta or c^-(zeta+1)
        p, s = PathwayDimParams(5.0, 0.5, 0.35, zeta), np.array([1.25 + 0.5j])  # c = 2.5
        classical = kober_mellin_ratio(kind, [DimParams(zeta, p.beta_law[1])], s)
        scaled = kober_mellin_ratio(kind, [p], s)
        assert scaled == pytest.approx(classical * p.scale_factor ** power(zeta, s[0]), rel=1e-14)

    def test_pole_detection_names_dimension(self):
        with pytest.raises(PoleError) as info:
            kober_mellin_ratio("second", [DimParams(0.5, 1.0), DimParams(1.0, 1.0)],
                               np.array([2.0, -1.0]))
        assert info.value.dimension == 1


class TestDefaultGrid:
    def test_second_kind_keeps_whole_base_grid(self):
        grid = default_s_grid("second", [DimParams(0.5, 1.5)])
        assert len(grid) == 5

    def test_first_kind_respects_strip(self):
        grid = default_s_grid("first", [DimParams(1.0, 1.0)])
        for s in grid:
            assert s[0].real < 2.0
        assert len(grid) == 3  # 0.8, 1.5, 1.5+0.5i

    def test_two_dim_is_cartesian_product(self):
        grid = default_s_grid("first", [DimParams(1.0, 0.7), DimParams(2.0, 1.3)])
        assert len(grid) == 3 * 4


class TestFactorizationCheck:
    def test_second_kind_exponential_single_point(self):
        f = gamma_product((1.0,))
        rep = mellin_factorization_check(
            "second", [DimParams(0.5, 1.5)], f, s_grid=[np.array([2.0])]
        )
        assert rep.passed
        # lhs equals Gamma(2.5)/Gamma(4) * Gamma(2)
        assert rep.lhs[0].real == pytest.approx(RATIO_HALF, rel=1e-7)

    def test_second_kind_default_grid_one_dim(self):
        f = gamma_product((2.0,))
        rep = mellin_factorization_check("second", [DimParams(0.5, 0.7)], f)
        assert rep.passed and rep.max_rel_err < 1e-6

    def test_first_kind_default_grid_one_dim(self):
        f = gamma_product((2.0,))
        rep = mellin_factorization_check("first", [DimParams(1.0, 0.7)], f)
        assert rep.passed and rep.max_rel_err < 1e-6

    def test_identity_limit_small_alpha(self):
        f = gamma_product((2.0,))
        rep = mellin_factorization_check(
            "second", [DimParams(0.5, 1e-9)], f, s_grid=[np.array([1.5])]
        )
        assert rep.lhs[0] == pytest.approx(f.mellin(np.array([1.5])), rel=1e-6)

    @pytest.mark.parametrize("theorem", IDENTITY_IDS)
    @pytest.mark.parametrize("k", [1, 2])
    def test_identity_setup_dims_pass(self, theorem, k):
        # 1.4 and 2.3 set up dims with support factor a(1-q) != 1
        spec = make_spec(theorem, k)
        kind, dims, _ = identity_setup(theorem, spec.params)
        rep = mellin_factorization_check(kind, dims, spec.f)
        assert rep.passed and rep.max_rel_err < 1e-6

    @pytest.mark.parametrize("kind,zeta", [("second", 0.5), ("first", 1.5)])
    def test_pathway_params_pass(self, kind, zeta):
        p = PathwayDimParams(a=1.5, q=0.25, eta=2.0, zeta=zeta)  # c = 1.125
        rep = mellin_factorization_check(kind, [p], gamma_product((2.0,)))
        assert rep.passed and rep.max_rel_err < 1e-6
        assert rep.zetas == (zeta,) and rep.alphas == (p.beta_law[1],)

    def test_requires_closed_form(self):
        bare = MultiDensity(dim=1, pdf=lambda p: np.exp(-p[..., 0]))
        with pytest.raises(UsageError):
            mellin_factorization_check("second", [DimParams(0.5, 1.0)], bare)

    def test_report_dict_shape(self):
        f = gamma_product((2.0,))
        rep = mellin_factorization_check(
            "second", [DimParams(0.5, 1.5)], f, s_grid=[np.array([2.0])]
        )
        doc = rep.to_dict()
        assert doc["pass"] is True
        assert doc["points"][0]["s"][0]["re"] == pytest.approx(2.0)


class TestFactoredMellinSum:
    """A product density's Mellin sum is a product of one-dimensional sums;
    the sum over the n^k tensor grid of the joint pdf is its oracle."""

    CASES = {
        "second": ((0.5, 0.7), (1.0, 1.3), (0.8, 1.2)),
        "first": ((1.5, 1.0), (2.0, 0.7), (1.2, 1.3)),
    }

    @pytest.mark.parametrize("k, n", [(2, 64), (3, 32)])
    @pytest.mark.parametrize("kind", ["second", "first"])
    def test_equals_the_tensor_grid_sum(self, kind, k, n):
        params = [DimParams(*za) for za in self.CASES[kind][:k]]
        image = operator_image(kind, params, gamma_product((2.0, 3.0, 4.0)[:k]), n)
        grid = default_s_grid(kind, params)
        factored = mellin._mellin_values(image, grid, n)
        dense = mellin._mellin_values(dataclasses.replace(image, factors=None), grid, n)
        np.testing.assert_allclose(factored, dense, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("kind", ["second", "first"])
    def test_image_factors_multiply_to_the_image(self, kind):
        params = [DimParams(*za) for za in self.CASES[kind]]
        image = operator_image(kind, params, gamma_product((2.0, 3.0, 4.0)))
        # every regime of both kinds: near field below 0.25, far field above 100
        axis = np.geomspace(1e-3, 1e3, 9)
        pts = np.stack(np.meshgrid(axis, axis[::-1], axis[::2].repeat(2)[:9],
                                   indexing="ij"), axis=-1).reshape(-1, 3)
        product = np.prod([g(pts[:, j]) for j, g in enumerate(image.factors)], axis=0)
        np.testing.assert_allclose(product, image.pdf(pts), rtol=1e-14, atol=0.0)

    @staticmethod
    def pair(factor):
        """A two-dimensional density with factors exp(-x) and ``factor``, and
        the same density without factors."""
        joint = lambda p: np.exp(-p[..., 0]) * factor(p[..., 1])
        f = MultiDensity(dim=2, pdf=joint, factors=(lambda x: np.exp(-x), factor))
        return f, dataclasses.replace(f, factors=None)

    def nodes(self):
        return np.exp(mellin.semiaxis_log_rule(mellin.DEFAULT_NODES, "exp")[0])

    def test_negative_factor_raises_naming_the_node(self):
        factored, dense = self.pair(lambda x: np.where(x > 5.0, -1.0, 1.0) * np.exp(-x))
        first = self.nodes()[self.nodes() > 5.0][0]
        for f, what in ((factored, "density factor 1"), (dense, "density")):
            with pytest.raises(EvaluationError, match=f"{what} is negative") as info:
                mellin_numeric(f, [2.0, 2.0])
            assert info.value.point[-1] == first

    def test_non_finite_factor_raises_naming_the_node(self):
        factored, dense = self.pair(lambda x: np.where(x > 5.0, np.nan, np.exp(-x)))
        first = self.nodes()[self.nodes() > 5.0][0]
        for f in (factored, dense):
            with pytest.raises(EvaluationError, match="not finite") as info:
                mellin_numeric(f, [2.0, 2.0])
            assert np.ravel(info.value.point)[-1] == first

    def test_overflowing_factor_raises(self):
        factored, dense = self.pair(lambda x: x * np.exp(-x))
        for f in (factored, dense):
            with pytest.raises(FloatingPointError):
                mellin_numeric(f, [2.0, 200.0])

    def test_overflowing_product_raises(self):
        # each one-dimensional sum is finite (about 1e187), their product is not
        f = gamma_product((2.0, 2.0))
        assert math.isfinite(mellin_numeric(gamma_product((2.0,)), 110.0, refine=False).value.real)
        with pytest.raises(FloatingPointError):
            mellin_numeric(f, [110.0, 110.0], refine=False)

    def test_non_product_density_over_budget_is_refused(self, monkeypatch):
        # only a product density escapes the n^k budget; the refusal comes
        # before any rule is built
        def fail(*args, **kwargs):
            raise AssertionError("rule builder called")
        monkeypatch.setattr(quadrature, "_jacobi_rule_cached", fail)
        monkeypatch.setattr(mellin, "semiaxis_log_rule", fail)
        f = dataclasses.replace(gamma_product((2.0, 3.0, 4.0)), factors=None)
        params = [DimParams(*za) for za in self.CASES["second"]]
        with pytest.raises(SizeError, match="over the budget"):
            mellin_factorization_check("second", params, f, n=256)
