import numpy as np
import pytest
from scipy import stats

from ekstat.densities import DirichletParams, GenDirichletParams, dirichlet1_sample
from ekstat.errors import DomainError, ParameterError
from ekstat.mc_oracle import identity_candidates, make_spec
from ekstat.transforms import forward, inverse, jacobian, ratio_beta_pairs


def random_simplex_points(rng, n, k):
    """Uniform draws on the open simplex via exponential spacings."""
    g = rng.exponential(size=(n, k + 1))
    return g[:, :k] / g.sum(axis=1, keepdims=True)


class TestForwardInverse:
    def test_forward_hand_example(self):
        y = forward(np.array([0.2, 0.3]))
        assert y == pytest.approx([0.2, 0.375], abs=1e-15)

    def test_inverse_hand_example(self):
        x = inverse(np.array([0.2, 0.375]))
        assert x == pytest.approx([0.2, 0.3], abs=1e-15)

    def test_inverse_geometric_halving(self):
        x = inverse(np.array([0.5, 0.5, 0.5]))
        assert x == pytest.approx([0.5, 0.25, 0.125], abs=1e-15)

    def test_k1_is_identity(self):
        assert forward(np.array([0.37]))[0] == pytest.approx(0.37, abs=1e-16)
        assert inverse(np.array([0.37]))[0] == pytest.approx(0.37, abs=1e-16)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_round_trips(self, k):
        rng = np.random.default_rng(101 + k)
        x = random_simplex_points(rng, 500, k)
        assert np.max(np.abs(inverse(forward(x)) - x)) < 1e-12
        y = rng.uniform(0.01, 0.99, size=(500, k))
        assert np.max(np.abs(forward(inverse(y)) - y)) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            forward(np.array([0.6, 0.6]))
        with pytest.raises(DomainError):
            forward(np.array([-0.1, 0.3]))
        with pytest.raises(DomainError):
            inverse(np.array([0.5, 1.2]))


class TestJacobian:
    def test_two_dim_value(self):
        # only the first coordinate contributes: (1-0.5)^1
        assert jacobian(np.array([0.5, 0.9])) == pytest.approx(0.5, abs=1e-15)

    def test_k1_is_one(self):
        assert jacobian(np.array([0.4])) == pytest.approx(1.0)

    def test_matches_finite_difference_determinant(self):
        y0 = np.array([0.3, 0.6, 0.2])
        h = 1e-6
        k = y0.size
        jac = np.empty((k, k))
        for j in range(k):
            step = np.zeros(k)
            step[j] = h
            jac[:, j] = (inverse(y0 + step) - inverse(y0 - step)) / (2 * h)
        fd_det = abs(np.linalg.det(jac))
        assert jacobian(y0) == pytest.approx(fd_det, rel=1e-6)

    def test_positive_on_batch(self):
        rng = np.random.default_rng(7)
        y = rng.uniform(0.05, 0.95, size=(200, 4))
        assert np.all(jacobian(y) > 0)


def printed(theorem, params):
    """The as-printed candidate pairs of ``theorem`` with the mixing record ``params``."""
    return identity_candidates(make_spec(theorem, params.dim, params))[1].pairs


class TestRatioBetaPairs:
    def test_simplex_example(self):
        # a type-1 Dirichlet reads as partial-sum exponents (0, alpha_last)
        params = DirichletParams(alphas=(1.0, 2.0), alpha_last=3.0)
        assert params.betas == (0.0, 3.0)
        assert ratio_beta_pairs(params.alphas, params.betas) == ((2.0, 6.0), (3.0, 3.0))

    def test_partial_sum_example(self):
        assert ratio_beta_pairs((1.0, 2.0), (1.0, 2.0)) == ((2.0, 6.0), (3.0, 2.0))

    def test_printed_partial_sum_reading_drops_last_alpha(self):
        # 1.3 as printed: alphas_k is missing from second_j for j < k
        assert printed("1.3", GenDirichletParams((1.0, 2.0), (1.0, 2.0))) == ((2.0, 4.0), (3.0, 2.0))

    def test_printed_simplex_reading_degenerates(self):
        # 2.4 with catalogued alphas (2, 3) samples exponents (1, 2)
        params = DirichletParams(alphas=(1.0, 2.0), alpha_last=1.0)
        assert ratio_beta_pairs(params.alphas, params.betas) == ((2.0, 4.0), (3.0, 1.0))
        assert printed("2.4", params) == ((2.0, 3.0), (3.0, 0.0))

    def test_printed_shifted_partial_sum_reading_coincides(self):
        params = GenDirichletParams(alphas=(1.0, 2.0), betas=(1.0, 2.0))
        pairs = ratio_beta_pairs(params.alphas, params.betas)
        assert pairs == ((2.0, 6.0), (3.0, 2.0))
        assert printed("2.5", params) == pairs

    def test_nonpositive_parameter_raises(self):
        with pytest.raises(ParameterError):
            ratio_beta_pairs((1.0,), (-1.0,))
        with pytest.raises(ParameterError):
            ratio_beta_pairs((-1.0,), (1.0,))
        with pytest.raises(ParameterError):
            ratio_beta_pairs((float("nan"),), (1.0,))

    def test_mismatched_or_empty_exponents_raise(self):
        with pytest.raises(ParameterError):
            ratio_beta_pairs((1.0, 2.0), (1.0,))
        with pytest.raises(ParameterError):
            ratio_beta_pairs((), ())


class TestIndependenceProperty:
    """Dirichlet draws become independent betas under the triangular map."""

    def test_ks_and_correlation(self):
        n = 10**5
        params = DirichletParams(alphas=(0.5, 1.0), alpha_last=2.0)
        x = dirichlet1_sample(params, n, seed=2024).data
        y = forward(x)
        for j, (first, second) in enumerate(ratio_beta_pairs(params.alphas, params.betas)):
            res = stats.kstest(y[:, j], stats.beta(first, second).cdf)
            assert res.pvalue > 1e-3, f"coordinate {j} failed KS: {res}"
        corr = abs(np.corrcoef(y[:, 0], y[:, 1])[0, 1])
        assert corr <= 4.0 / np.sqrt(n)
