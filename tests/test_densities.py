import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import betaln

from ekstat.densities import (
    BetaParams,
    DirichletParams,
    GenDirichletParams,
    PathwayDimParams,
    _beta_log_norm,
    _gamma_cols,
    beta1_pdf,
    beta1_sample,
    beta_product_draws,
    dirichlet1_pdf,
    dirichlet1_sample,
    dirichlet_draws,
    gen_dirichlet1_pdf,
    gen_dirichlet1_sample,
    pathway_factor,
    pathway_limit_factor,
    pathway_norm_const,
    pathway_pdf,
    pathway_sample,
)
from ekstat.errors import EmptyRequestError, ParameterError, ShapeError
from ekstat.kober import gamma_product
from ekstat.streams import map_rows
from ekstat.transforms import forward, ratio_beta_pairs

LEGGAUSS_N = 400


def unit_leggauss():
    x, w = np.polynomial.legendre.leggauss(LEGGAUSS_N)
    return 0.5 * (x + 1.0), 0.5 * w


class TestBetaPdf:
    def test_hand_value(self):
        # Gamma(5)/(Gamma(2)Gamma(3)) * 0.5 * 0.25 = 12 * 0.125 = 1.5
        assert beta1_pdf(0.5, BetaParams(2.0, 3.0)) == pytest.approx(1.5, rel=1e-14)

    def test_outside_support_is_zero(self):
        p = BetaParams(2.0, 3.0)
        assert beta1_pdf(1.5, p) == 0.0
        assert beta1_pdf(0.0, p) == 0.0
        assert beta1_pdf(1.0, p) == 0.0

    def test_uniform_case(self):
        assert beta1_pdf(0.7, BetaParams(1.0, 1.0)) == pytest.approx(1.0)

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            BetaParams(0.0, 1.0)
        with pytest.raises(ParameterError):
            BetaParams(1.0, -2.0)

    def test_vectorized_and_nonnegative(self):
        x = np.linspace(-0.5, 1.5, 101)
        vals = beta1_pdf(x, BetaParams(0.7, 2.5))
        assert vals.shape == x.shape
        assert np.all(vals >= 0.0)


class TestBetaSampler:
    def test_uniform_mean(self):
        n = 10**6
        draws = beta1_sample(BetaParams(1.0, 1.0), n, seed=11).data[:, 0]
        tol = 4.0 * math.sqrt(1.0 / (12.0 * n))
        assert abs(draws.mean() - 0.5) < tol

    def test_beta_mean(self):
        n = 10**6
        p = BetaParams(2.0, 3.0)
        draws = beta1_sample(p, n, seed=12).data[:, 0]
        se = math.sqrt(draws.var() / n)
        assert abs(draws.mean() - 0.4) < 4.0 * se

    def test_support_and_determinism(self):
        p = BetaParams(0.5, 0.5)
        a = beta1_sample(p, 2000, seed=5)
        b = beta1_sample(p, 2000, seed=5)
        c = beta1_sample(p, 2000, seed=6)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)
        assert a.data.min() > 0.0 and a.data.max() < 1.0

    def test_worker_split_reproduces(self):
        p = BetaParams(2.0, 1.0)
        one = beta1_sample(p, 5000, seed=9, workers=1)
        four = beta1_sample(p, 5000, seed=9, workers=4)
        assert np.array_equal(one.data, four.data)

    def test_empty_request(self):
        with pytest.raises(EmptyRequestError):
            beta1_sample(BetaParams(1.0, 1.0), 0, seed=1)

    def test_histogram_matches_pdf(self):
        n = 10**5
        p = BetaParams(2.0, 3.0)
        draws = beta1_sample(p, n, seed=14).data[:, 0]
        edges = np.linspace(0.0, 1.0, 21)
        counts, _ = np.histogram(draws, bins=edges)
        expected = np.diff(stats.beta(p.first, p.second).cdf(edges))
        se = np.sqrt(expected * (1.0 - expected) / n)
        assert np.all(np.abs(counts / n - expected) <= 4.0 * se)


class TestDirichletPdf:
    def test_uniform_on_simplex(self):
        p = DirichletParams(alphas=(0.0, 0.0), alpha_last=1.0)
        assert dirichlet1_pdf(np.array([0.2, 0.3]), p) == pytest.approx(2.0, rel=1e-14)

    def test_outside_simplex_is_zero(self):
        p = DirichletParams(alphas=(0.0, 0.0), alpha_last=1.0)
        assert dirichlet1_pdf(np.array([0.6, 0.6]), p) == 0.0

    def test_k1_reduces_to_beta(self):
        p = DirichletParams(alphas=(0.7,), alpha_last=2.2)
        x = np.linspace(0.05, 0.95, 7)
        got = dirichlet1_pdf(x[:, None], p)
        want = beta1_pdf(x, BetaParams(1.7, 2.2))
        assert got == pytest.approx(want, rel=1e-13)

    def test_normalizes_by_quadrature(self):
        p = DirichletParams(alphas=(0.5, 1.0), alpha_last=2.0)
        t, w = unit_leggauss()
        # map the square onto the simplex: x = (t1, (1-t1) t2), volume 1-t1
        t1 = t[:, None] + 0.0 * t[None, :]
        t2 = 0.0 * t[:, None] + t[None, :]
        pts = np.stack([t1, (1.0 - t1) * t2], axis=-1)
        vals = dirichlet1_pdf(pts, p) * (1.0 - t1)
        integral = float(w @ vals @ w)
        assert integral == pytest.approx(1.0, abs=1e-6)


class TestDirichletSampler:
    def test_symmetric_means(self):
        n = 10**6
        p = DirichletParams(alphas=(0.0, 0.0), alpha_last=1.0)
        draws = dirichlet1_sample(p, n, seed=21).data
        for j in range(2):
            se = math.sqrt(draws[:, j].var() / n)
            assert abs(draws[:, j].mean() - 1.0 / 3.0) < 4.0 * se

    def test_rows_inside_simplex(self):
        p = DirichletParams(alphas=(0.5, 1.5), alpha_last=0.7)
        draws = dirichlet1_sample(p, 5000, seed=3).data
        assert np.all(draws > 0.0)
        assert np.all(draws.sum(axis=1) < 1.0)

    def test_determinism(self):
        p = DirichletParams(alphas=(1.0, 2.0), alpha_last=1.5)
        assert np.array_equal(
            dirichlet1_sample(p, 1000, seed=4).data,
            dirichlet1_sample(p, 1000, seed=4).data,
        )

    def test_marginal_histogram_matches_beta(self):
        # first coordinate of a Dirichlet is Beta(a_1, total - a_1)
        n = 10**5
        p = DirichletParams(alphas=(0.5, 1.0), alpha_last=2.0)
        draws = dirichlet1_sample(p, n, seed=31).data[:, 0]
        a1 = p.alphas[0] + 1.0
        rest = (p.alphas[1] + 1.0) + p.alpha_last
        edges = np.linspace(0.0, 1.0, 21)
        counts, _ = np.histogram(draws, bins=edges)
        cdf = stats.beta(a1, rest).cdf(edges)
        expected = np.diff(cdf)
        se = np.sqrt(expected * (1.0 - expected) / n)
        assert np.all(np.abs(counts / n - expected) <= 4.0 * se)


class TestGenDirichlet:
    def test_reduces_to_dirichlet_when_betas_collapse(self):
        gp = GenDirichletParams(alphas=(0.5, 1.0), betas=(0.0, 2.0))
        dp = DirichletParams(alphas=(0.5, 1.0), alpha_last=2.0)
        pts = np.array([[0.2, 0.3], [0.1, 0.6], [0.4, 0.1]])
        assert gen_dirichlet1_pdf(pts, gp) == pytest.approx(
            dirichlet1_pdf(pts, dp), rel=1e-12
        )

    def test_k1_reduces_to_beta(self):
        gp = GenDirichletParams(alphas=(0.8,), betas=(1.7,))
        x = np.linspace(0.05, 0.95, 9)
        assert gen_dirichlet1_pdf(x[:, None], gp) == pytest.approx(
            beta1_pdf(x, BetaParams(1.8, 1.7)), rel=1e-13
        )

    def test_normalizes_by_quadrature(self):
        gp = GenDirichletParams(alphas=(0.5, 1.0), betas=(1.0, 2.0))
        t, w = unit_leggauss()
        t1 = t[:, None] + 0.0 * t[None, :]
        t2 = 0.0 * t[:, None] + t[None, :]
        pts = np.stack([t1, (1.0 - t1) * t2], axis=-1)
        vals = gen_dirichlet1_pdf(pts, gp) * (1.0 - t1)
        integral = float(w @ vals @ w)
        assert integral == pytest.approx(1.0, abs=1e-6)

    def test_sampler_first_marginal_is_beta(self):
        # x_1 equals the first ratio coordinate, so its law is the first
        # ratio beta pair
        n = 10**5
        gp = GenDirichletParams(alphas=(0.5, 1.0), betas=(1.0, 2.0))
        draws = gen_dirichlet1_sample(gp, n, seed=41).data
        first, second = ratio_beta_pairs(gp.alphas, gp.betas)[0]
        res = stats.kstest(draws[:, 0], stats.beta(first, second).cdf)
        assert res.pvalue > 1e-3

    def test_sampler_support_and_determinism(self):
        gp = GenDirichletParams(alphas=(0.5, 1.0), betas=(1.0, 2.0))
        a = gen_dirichlet1_sample(gp, 4000, seed=8)
        b = gen_dirichlet1_sample(gp, 4000, seed=8)
        assert np.array_equal(a.data, b.data)
        assert np.all(a.data > 0.0)
        assert np.all(np.cumsum(a.data, axis=1) < 1.0)

    def test_sampler_matches_pdf_in_two_dims(self):
        # 2-D box counts against the analytic density closes the loop
        # between the sampler construction and the direct formula
        n = 2 * 10**5
        gp = GenDirichletParams(alphas=(0.5, 1.0), betas=(1.0, 2.0))
        draws = gen_dirichlet1_sample(gp, n, seed=55).data
        probes = np.array([[0.2, 0.2], [0.4, 0.3], [0.15, 0.5], [0.55, 0.2]])
        h = 0.06
        for probe in probes:
            inside = np.all(np.abs(draws - probe) <= h / 2.0, axis=1)
            phat = inside.mean()
            est = phat / h**2
            se = math.sqrt(phat * (1.0 - phat) / n) / h**2
            assert abs(est - gen_dirichlet1_pdf(probe, gp)) < 5.0 * se


class TestPathway:
    def test_norm_const_beta_case(self):
        # a=1, q=0, eta=1, zeta=0 collapses to Beta(1,2): constant 2
        p = PathwayDimParams(1.0, 0.0, 1.0, 0.0)
        assert pathway_norm_const(p) == pytest.approx(2.0, rel=1e-13)
        assert pathway_pdf(0.5, p) == pytest.approx(1.0, rel=1e-13)

    def test_boundary_value_is_zero(self):
        p = PathwayDimParams(2.0, 0.5, 3.0, 1.5)
        assert pathway_pdf(p.support_upper, p) == 0.0
        assert pathway_pdf(-0.1, p) == 0.0

    def test_normalizes_by_quadrature(self):
        p = PathwayDimParams(2.0, 0.5, 3.0, 1.5)
        t, w = unit_leggauss()
        x = t * p.support_upper
        integral = float(w @ pathway_pdf(x, p)) * p.support_upper
        assert integral == pytest.approx(1.0, abs=1e-8)

    def test_matches_beta_when_scale_is_one(self):
        # a(1-q)=1 and eta/(1-q)=alpha-1 give Beta(zeta+1, alpha) exactly
        p = PathwayDimParams(2.0, 0.5, 1.2, 0.7)  # scale 1, alpha = 3.4
        alpha = p.tail_exponent + 1.0
        x = np.linspace(0.01, 0.99, 23)
        assert pathway_pdf(x, p) == pytest.approx(
            beta1_pdf(x, BetaParams(p.zeta + 1.0, alpha)), rel=1e-12
        )

    def test_sampler_support_mean_determinism(self):
        p = PathwayDimParams(1.0, 0.0, 1.0, 0.0)  # Beta(1,2), mean 1/3
        n = 10**6
        sm = pathway_sample(p, n, seed=61)
        draws = sm.data[:, 0]
        assert draws.min() > 0.0 and draws.max() < p.support_upper
        se = math.sqrt(draws.var() / n)
        assert abs(draws.mean() - 1.0 / 3.0) < 4.0 * se
        again = pathway_sample(p, 1000, seed=61)
        assert np.array_equal(sm.data[:1000], again.data)

    def test_sampler_histogram_matches_pdf(self):
        n = 10**5
        p = PathwayDimParams(2.0, 0.5, 3.0, 1.5)
        draws = pathway_sample(p, n, seed=62).data[:, 0]
        edges = np.linspace(0.0, p.support_upper, 21)
        counts, _ = np.histogram(draws, bins=edges)
        t, w = unit_leggauss()
        expected = np.array([
            float(w @ pathway_pdf(a + (b - a) * t, p)) * (b - a)
            for a, b in zip(edges[:-1], edges[1:])
        ])
        se = np.sqrt(expected * (1.0 - expected) / n)
        assert np.all(np.abs(counts / n - expected) <= 4.0 * se)

    def test_q_domain_error(self):
        with pytest.raises(ParameterError):
            PathwayDimParams(1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ParameterError):
            PathwayDimParams(1.0, 1.5, 1.0, 0.0)


class TestScaledBetaReferences:
    """The beta, pathway and Dirichlet pdfs against scipy's laws, and the
    generalized Dirichlet against its x-space formula."""

    def test_log_normalizer_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        shapes = (0.01, 0.5, 1.0, 1.7, 41.0, 1e3, 1e5)
        # c = 1 isolates the log-gamma difference: with c != 1 the term
        # first*log(c) cancels against it and adds rounding of its own size
        with mpmath.workdps(40):
            for first in shapes:
                for second in shapes:
                    f, s = mpmath.mpf(first), mpmath.mpf(second)
                    ref = float(mpmath.loggamma(f + s) - mpmath.loggamma(f) - mpmath.loggamma(s))
                    got = _beta_log_norm(first, second, 1.0)
                    assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), (first, second)

    @pytest.mark.parametrize("first,second", [(2.0, 3.0), (0.4, 0.7), (7.5, 1.3)])
    def test_beta1_pdf_matches_scipy(self, first, second):
        x = np.linspace(0.001, 0.999, 211)
        want = stats.beta(first, second).pdf(x)
        assert beta1_pdf(x, BetaParams(first, second)) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("a,q,eta,zeta", [(2.0, 0.5, 3.0, 1.5), (1.0, -0.5, 0.3, -0.4),
                                              (0.7, 0.9, 2.0, 0.0)])
    def test_pathway_pdf_is_scaled_scipy_beta(self, a, q, eta, zeta):
        p = PathwayDimParams(a, q, eta, zeta)
        c = a * (1.0 - q)
        law = stats.beta(zeta + 1.0, eta / (1.0 - q) + 1.0)
        x = np.linspace(0.001, 0.999, 211) / c
        assert pathway_pdf(x, p) == pytest.approx(c * law.pdf(c * x), rel=1e-12)
        want = c ** (zeta + 1.0) / math.exp(betaln(zeta + 1.0, eta / (1.0 - q) + 1.0))
        assert pathway_norm_const(p) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("alphas,alpha_last", [((0.5, 1.0), 2.0), ((-0.3, 0.2, 1.5), 0.8)])
    def test_dirichlet1_pdf_matches_scipy(self, alphas, alpha_last):
        p = DirichletParams(alphas=alphas, alpha_last=alpha_last)
        rng = np.random.default_rng(11)
        full = rng.dirichlet(np.ones(len(alphas) + 1), size=300)
        law = stats.dirichlet(np.append(np.array(alphas) + 1.0, alpha_last))
        want = np.array([law.pdf(row) for row in full])
        assert dirichlet1_pdf(full[:, :-1], p) == pytest.approx(want, rel=1e-12)

    @staticmethod
    def x_space_pdf(x, p):
        """prod x_j^alphas_j (1 - x_1 - ... - x_j)^(betas_j - [j == k]),
        normalized by the ratio-coordinate beta functions."""
        a, b = np.asarray(p.alphas), np.asarray(p.betas)
        rem = 1.0 - np.cumsum(x, axis=-1)
        bexp = b - (np.arange(p.dim) == p.dim - 1)
        log_norm = sum(-betaln(f, s) for f, s in ratio_beta_pairs(p.alphas, p.betas))
        return np.exp(log_norm + np.sum(a * np.log(x), axis=-1)
                      + np.sum(bexp * np.log(rem), axis=-1))

    def test_gen_dirichlet1_pdf_matches_x_space_formula(self):
        p = GenDirichletParams(alphas=(0.5, -0.4, 1.0), betas=(1.0, 2.0, 1.5))
        rng = np.random.default_rng(12)
        interior = rng.dirichlet(np.ones(4), size=2000)
        # the same kind of points with one coordinate, or the remainder
        # 1 - x_1 - x_2 - x_3, moved to 1e-5 .. 1e-2 from its face; both
        # formulas round the remainder to about 1e-16/gap relative
        near = rng.dirichlet(np.ones(4), size=2000)
        rows, face = np.arange(2000), rng.integers(0, 4, size=2000)
        gap = 10.0 ** rng.uniform(-5.0, -2.0, size=2000)
        near[rows, face] = 0.0
        near *= ((1.0 - gap) / near.sum(axis=1))[:, None]
        near[rows, face] = gap
        x = np.concatenate([interior, near])[:, :3]
        assert gen_dirichlet1_pdf(x, p) == pytest.approx(self.x_space_pdf(x, p), rel=1e-10)

    def test_gen_dirichlet1_pdf_zero_set(self):
        p = GenDirichletParams(alphas=(0.5, 1.0), betas=(1.0, 2.0))
        x = np.array([[0.0, 0.3], [0.3, -0.1], [0.6, 0.4], [0.7, 0.5], [0.2, 0.3]])
        got = gen_dirichlet1_pdf(x, p)
        assert np.array_equal(got[:4], np.zeros(4)) and got[4] > 0.0

    def test_gen_dirichlet1_pdf_within_an_ulp_of_the_outer_face(self):
        # x_3 is the largest float with x_1 + x_2 + x_3 < 1; the triangular
        # map can round such a ratio coordinate onto 1 or past it
        p = GenDirichletParams(alphas=(0.5, 1.0, 0.5), betas=(1.0, 2.0, 1.5))
        x = np.random.default_rng(13).dirichlet(np.ones(4), size=1000)[:, :3]
        x[:, 2] = 1.0 - (x[:, 0] + x[:, 1])
        while np.any(over := np.cumsum(x, axis=1)[:, 2] >= 1.0):
            x[over, 2] = np.nextafter(x[over, 2], 0.0)
        assert np.any(forward(x)[:, 2] >= 1.0)
        got = gen_dirichlet1_pdf(x, p)
        assert np.all(np.isfinite(got)) and np.all(got >= 0.0)


class TestPathwayLimitFactor:
    def test_exponential_value(self):
        val = pathway_limit_factor(1.0, 1.0, a=1.0, eta=1.0, zeta=0.0)
        assert val == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_small_u_limit(self):
        val = pathway_limit_factor(1e-14, 2.0, a=1.0, eta=1.0, zeta=0.0)
        assert val == pytest.approx(0.5, rel=1e-10)

    def test_finite_q_factor_converges(self):
        p_base = dict(a=1.2, eta=0.8, zeta=0.7)
        q = 1.0 - 1e-5
        p = PathwayDimParams(q=q, **p_base)
        for u, v in [(0.3, 1.0), (1.0, 1.0), (2.5, 1.3), (0.7, 2.0)]:
            finite = pathway_factor(u, v, p)
            limit = pathway_limit_factor(u, v, **p_base)
            assert abs(finite - limit) / limit < 1e-3

    def test_outside_support_is_zero(self):
        p = PathwayDimParams(1.0, 0.0, 1.0, 0.0)  # support of u/v in (0,1)
        assert pathway_factor(3.0, 1.0, p) == 0.0


# the paper's shapes sit between 0.3 and 6; 20 is the far end the old
# fixed-column sampler was checked at
GAMMA_SHAPES = [0.3, 0.7, 1.0, 2.0, 2.5, 3.0, 6.0, 20.0]
# not a multiple of the 2**14-row block, so the last block is a short one
GAMMA_ROWS = 200_003


def _gamma_sample(seed, shape):
    return gamma_product((shape,)).sample(GAMMA_ROWS, seed).data[:, 0]


class TestGammaSampler:
    """numpy's gamma draws on the per-block generators, against scipy's
    gamma law."""

    @pytest.mark.parametrize("shape", GAMMA_SHAPES)
    def test_draws_follow_the_gamma_law(self, shape):
        draws = _gamma_sample(31, shape)
        assert stats.kstest(draws, stats.gamma(shape).cdf).pvalue > 1e-3

    def test_column_widths(self):
        # one column per gamma shape, per beta triple, per Dirichlet coordinate
        gen = np.random.default_rng(30)
        assert _gamma_cols(gen, 5, [2.0]).shape == (5, 1)
        assert _gamma_cols(gen, 5, GAMMA_SHAPES).shape == (5, len(GAMMA_SHAPES))
        assert beta_product_draws(gen, 5, [(2.0, 3.0, 1.0), (0.5, 1.5, 2.0)]).shape == (5, 2)
        assert dirichlet_draws(gen, 5, DirichletParams((0.5, 1.0), 2.0)).shape == (5, 2)
        assert gamma_product((2.0, 0.5)).from_uniforms(gen, 5).shape == (5, 2)

    @pytest.mark.parametrize("shape", [0.3, 0.7, 1.0, 2.5, 6.0])
    def test_moments_match_the_gamma_law(self, shape):
        # mean and variance both equal the shape, within 5 standard errors:
        # the fourth central moment is 3a^2 + 6a, so the sample variance
        # has variance (2a^2 + 6a)/n
        draws = _gamma_sample(32, shape)
        n = draws.size
        assert stats.gamma(shape).stats("mv") == (shape, shape)
        assert abs(draws.mean() - shape) < 5.0 * math.sqrt(shape / n)
        assert abs(draws.var() - shape) < 5.0 * math.sqrt((2.0 * shape**2 + 6.0 * shape) / n)

    def test_columns_run_per_shape_in_order(self):
        # row by row, and within a row one draw per shape in order
        shapes = [2.0, 0.5, 3.0]
        got = _gamma_cols(np.random.default_rng(35), 1000, shapes)
        gen = np.random.default_rng(35)
        want = [[gen.standard_gamma(s) for s in shapes] for _ in range(1000)]
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_misaligned_block_raises(self, extra):
        # a table one column narrower or wider than the sampler's rows is
        # refused, never broadcast
        triples = [(2.0, 3.0, 1.0), (0.5, 1.5, 2.0)]
        dirichlet = DirichletParams((0.5, 1.0), 2.0)
        f = gamma_product((2.0, 0.5))
        cases = [
            (f.from_uniforms, f.dim),
            (lambda gen, count: beta_product_draws(gen, count, triples), len(triples)),
            (lambda gen, count: dirichlet_draws(gen, count, dirichlet), dirichlet.dim),
        ]
        for draw, width in cases:
            with pytest.raises(ShapeError, match=f"{width + extra} columns"):
                map_rows(draw, 36, 10, width + extra)
            assert map_rows(draw, 36, 10, width).shape == (10, width)

