import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.special import betaln, roots_jacobi

from ekstat import quadrature
from ekstat.errors import ParameterError, SizeError
from ekstat.quadrature import MAX_RULE_NODES, jacobi_rule, semiaxis_log_rule

# exponent pairs drawn from the operator test matrix (alpha-1, zeta-1 style)
EXPONENT_PAIRS = [
    (0.0, 0.0),
    (0.5, 0.0),
    (-0.3, -0.5),
    (0.3, 0.7),
    (2.0, 1.5),
    (-0.99, 0.5),
    (0.7, -0.2),
]


def closed_form_moment(m, edge1, edge0):
    # integral t^m (1-t)^edge1 t^edge0 dt = B(edge0+m+1, edge1+1)
    return math.exp(betaln(edge0 + m + 1.0, edge1 + 1.0))


@pytest.mark.parametrize("edge1,edge0", EXPONENT_PAIRS)
@pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
def test_monomial_exactness(n, edge1, edge0):
    rule = jacobi_rule(n, edge1, edge0)
    for m in range(2 * n):
        approx = float(rule.weights @ rule.nodes**m)
        exact = closed_form_moment(m, edge1, edge0)
        assert approx == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("edge1,edge0", EXPONENT_PAIRS)
def test_nodes_interior_weights_positive(edge1, edge0):
    rule = jacobi_rule(48, edge1, edge0)
    assert rule.nodes.min() > 0.0 and rule.nodes.max() < 1.0
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights_unit > 0)


def test_single_node_midpoint():
    rule = jacobi_rule(1, 0.0, 0.0)
    assert rule.nodes[0] == pytest.approx(0.5, abs=1e-15)
    assert rule.weights[0] == pytest.approx(1.0, rel=1e-15)


def test_weights_raise_when_mass_underflows():
    # B(601, 601) ~ 1e-362 lies below the smallest normal float
    rule = jacobi_rule(4, 600.0, 600.0)
    assert rule.log_mass < math.log(np.finfo(float).tiny)
    assert np.isclose(rule.weights_unit.sum(), 1.0)
    with pytest.raises(FloatingPointError, match="log_mass"):
        rule.weights
    # below -700 but above the underflow the weights are still the true ones
    rule = jacobi_rule(4, 505.0, 505.0)
    assert -700.0 > rule.log_mass > math.log(np.finfo(float).tiny)
    assert rule.weights.sum() == pytest.approx(math.exp(rule.log_mass), rel=1e-12)


def test_sqrt_weight_mass():
    # integral (1-t)^0.5 dt = 2/3
    rule = jacobi_rule(8, 0.5, 0.0)
    assert rule.weights @ np.ones_like(rule.nodes) == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_degree_five_against_fractional_weight():
    rule = jacobi_rule(8, 0.3, 0.7)
    approx = rule.weights @ rule.nodes**5
    assert approx == pytest.approx(closed_form_moment(5, 0.3, 0.7), rel=1e-12)


def test_matches_scipy_reference():
    n, a, b = 32, 0.3, 0.7
    mine = jacobi_rule(n, a, b)
    x, w = roots_jacobi(n, a, b)
    order = np.argsort(x)
    assert np.allclose(0.5 * (x[order] + 1.0), mine.nodes, rtol=1e-12, atol=1e-14)
    assert np.allclose(w[order] / w.sum(), mine.weights_unit, rtol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 8, 9, 64, 256])
def test_matches_tridiagonal_solver(n):
    # numpy's dense eigh against scipy's tridiagonal solver on the same
    # Jacobi matrix, edge exponents from weak singularities to pathway limits
    edges = (-0.99, -0.5, 0.0, 0.7, 3.0, 40.0, 400.0)
    for edge1 in edges:
        for edge0 in edges:
            rule = jacobi_rule(n, edge1, edge0)
            x, vec = eigh_tridiagonal(*quadrature._jacobi_matrix(n, edge1, edge0))
            w = vec[0, :] ** 2
            np.testing.assert_allclose(rule.nodes, 0.5 * (x + 1.0), rtol=0.0, atol=1e-14)
            np.testing.assert_allclose(rule.weights_unit, w / w.sum(), rtol=1e-10, atol=1e-16)


def test_log_mass_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    edges = (-0.99, -0.5, 0.0, 0.7, 40.0, 1e3, 1e5)
    with mpmath.workdps(40):
        for edge1 in edges:
            for edge0 in edges:
                ref = float(mpmath.log(mpmath.beta(mpmath.mpf(edge0) + 1, mpmath.mpf(edge1) + 1)))
                got = jacobi_rule(1, edge1, edge0).log_mass
                assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), (edge1, edge0)


def test_recurrence_outside_the_float_range_raises():
    with pytest.raises(FloatingPointError, match="float range"):
        jacobi_rule(8, 1e308, 1e308)


def test_rule_size_ceiling(monkeypatch):
    def no_rule(*args):
        raise AssertionError("rule builder called")

    monkeypatch.setattr(quadrature, "_jacobi_rule_cached", no_rule)
    with pytest.raises(SizeError, match=f"ceiling of {MAX_RULE_NODES}"):
        jacobi_rule(MAX_RULE_NODES + 1, 0.0, 0.0)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        jacobi_rule(8, -1.0, 0.0)
    with pytest.raises(ParameterError):
        jacobi_rule(8, 0.0, -1.5)
    with pytest.raises(ParameterError):
        jacobi_rule(0, 0.0, 0.0)


def test_refinement_convergence_on_smooth_integrand():
    exact = math.e - 1.0
    errors = []
    for n in (8, 16, 32, 64):
        rule = jacobi_rule(n, 0.0, 0.0)
        errors.append(abs(rule.weights @ np.exp(rule.nodes) - exact))
    assert all(e2 < e1 or e2 < 1e-15 for e1, e2 in zip(errors, errors[1:]))
    rule_n, rule_2n = jacobi_rule(8, 0.0, 0.0), jacobi_rule(16, 0.0, 0.0)
    delta = abs(rule_n.weights @ np.exp(rule_n.nodes) - rule_2n.weights @ np.exp(rule_2n.nodes))
    assert delta < 1e-10


def test_semiaxis_rules_integrate_gamma_mass():
    # integral_0^inf x^(d-1) e^-x dx = Gamma(d) with both tail layouts
    for tail, rel in (("exp", 1e-12), ("algebraic", 1e-5)):
        log_x, log_w = semiaxis_log_rule(96, tail)
        for d, exact in ((1.0, 1.0), (2.5, math.gamma(2.5))):
            val = float(np.sum(np.exp(d * log_x - np.exp(log_x) + log_w)))
            assert val == pytest.approx(exact, rel=rel)
