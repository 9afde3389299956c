"""Jacobi-weighted Gaussian quadrature on (0,1) and semi-axis node layouts.

The operator kernels in this library carry endpoint factors
``(1-t)^edge1 * t^edge0`` with exponents that may approach -1 (weak
singularities) or grow very large (pathway limits).  Rules are therefore
built from the Jacobi three-term recurrence by Golub-Welsch
eigendecomposition (``numpy.linalg.eigh`` of the symmetric tridiagonal Jacobi
matrix), with the weight mass kept in log space: ``weights_unit`` always sums
to 1 and ``exp(log_mass)`` restores the true scale.

The module also provides double-exponential node layouts for semi-infinite
integrals (used by the Mellin transform), parameterized by the tail type of
the integrand.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError, SizeError

DEFAULT_NODES = 64
# Largest rule built: the eigenvectors of an n-point rule take n^2 doubles
# (32 MB at 2048, where eigh takes about 1.5 s on a 2-vCPU VM).
MAX_RULE_NODES = 2048

# Double-exponential windows, sized so float64 covers both tails.
_EXP_SINH_LO = -4.45
_EXP_SINH_HI = 6.8
_SINH_HALF_WIDTH = 3.4


@dataclass(frozen=True)
class QuadratureRule:
    """Gaussian rule for ``integral_0^1 (1-t)^edge1 t^edge0 h(t) dt``.

    Attributes
    ----------
    nodes : ndarray
        Strictly increasing points inside (0,1).
    weights_unit : ndarray
        Positive weights normalized to sum to 1.
    log_mass : float
        Log of the weight-function mass ``B(edge0+1, edge1+1)``.
    """

    nodes: np.ndarray
    weights_unit: np.ndarray
    log_mass: float

    @property
    def weights(self) -> np.ndarray:
        """True quadrature weights; raises FloatingPointError when the mass
        is below the smallest normal float (use ``log_mass`` there)."""
        mass = math.exp(self.log_mass)
        if mass < sys.float_info.min:
            raise FloatingPointError(
                f"weight mass exp(log_mass) underflows: log_mass={self.log_mass}")
        return self.weights_unit * mass


def _jacobi_matrix(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and subdiagonal of the symmetric tridiagonal Jacobi matrix of
    the weight ``(1-x)^a (1+x)^b`` on (-1, 1).  Raises FloatingPointError
    (or OverflowError) when a coefficient leaves the float range, which
    ``numpy.linalg.eigh`` would otherwise turn into nan nodes."""
    k = np.arange(n, dtype=float)
    kk = k[1:]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        diag = np.where(
            k == 0,
            (b - a) / (a + b + 2.0),
            (b * b - a * a) / ((2.0 * k + a + b) * (2.0 * k + a + b + 2.0)),
        )
        off = (
            4.0 * kk * (kk + a) * (kk + b) * (kk + a + b)
            / ((2.0 * kk + a + b) ** 2 * (2.0 * kk + a + b + 1.0) * (2.0 * kk + a + b - 1.0))
        )
        if n > 1:
            # k=1 coefficient in cancellation-safe form; the generic expression
            # is 0/0 when a+b = -1.
            off[0] = 4.0 * (1.0 + a) * (1.0 + b) / ((a + b + 2.0) ** 2 * (a + b + 3.0))
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise FloatingPointError(f"Jacobi recurrence leaves the float range: edge1={a}, edge0={b}")
    return diag, np.sqrt(off)


@lru_cache(maxsize=512)
def _jacobi_rule_cached(n: int, edge1: float, edge0: float) -> QuadratureRule:
    diag, sub = _jacobi_matrix(n, edge1, edge0)
    # eigh reads the lower triangle: the diagonal and the subdiagonal
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(sub, -1))
    nodes = 0.5 * (x + 1.0)
    # at extreme exponents the nodes crowd an endpoint closer than the
    # eigenvalues' rounding, and 0.5 * (x + 1) lands on or past it
    if not (nodes[0] > 0.0 and nodes[-1] < 1.0 and np.all(np.diff(nodes) > 0.0)):
        raise ParameterError(f"the {n}-node Gauss-Jacobi rule for edge1={edge1}, "
                             f"edge0={edge0} has nodes that are not strictly increasing "
                             f"inside (0, 1) in double precision")
    w = vec[0, :] ** 2
    w = w / w.sum()
    nodes.setflags(write=False)
    w.setflags(write=False)
    return QuadratureRule(nodes, w, math.lgamma(edge0 + 1.0) + math.lgamma(edge1 + 1.0)
                          - math.lgamma(edge0 + edge1 + 2.0))


def jacobi_rule(n: int, edge1: float, edge0: float) -> QuadratureRule:
    """n-point Gauss rule for the weight ``(1-t)^edge1 t^edge0`` on (0,1).

    Parameters
    ----------
    n : int
        Number of nodes, at most :data:`MAX_RULE_NODES`; the rule
        integrates polynomials of degree ``<= 2n - 1`` exactly against the
        weight.
    edge1, edge0 : float
        Weight exponents at t=1 and t=0; both must exceed -1.
    """
    if n < 1:
        raise ParameterError("rule size must be at least 1")
    if n > MAX_RULE_NODES:
        raise SizeError(f"a rule of {n} nodes is over the ceiling of {MAX_RULE_NODES}")
    if edge1 <= -1.0 or edge0 <= -1.0:
        raise ParameterError(
            f"weight exponents must exceed -1, got edge1={edge1}, edge0={edge0}"
        )
    return _jacobi_rule_cached(int(n), float(edge1), float(edge0))


def semiaxis_log_rule(
    n: int,
    tail: str = "exp",
    log_scale: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Double-exponential nodes for ``integral_0^inf g(x) dx`` in log form.

    Returns arrays ``(log_x, log_w)`` such that the integral is approximated
    by ``sum(exp(log_x + log_w) * g(exp(log_x)))``; callers typically fold
    ``log_x + log_w`` into a fused log-space integrand instead.

    ``tail`` selects the variable change: ``"exp"`` (x = s*e^(w - e^-w))
    suits integrands with exponential decay at infinity, ``"algebraic"``
    (x = s*e^(pi sinh w)) suits two-sided power-law behavior.  ``log_scale``
    shifts the node layout to match an integrand living at scale
    ``s = exp(log_scale)``.
    """
    if n < 2:
        raise ParameterError("semi-axis rules need at least 2 nodes")
    if tail == "exp":
        w = np.linspace(_EXP_SINH_LO, _EXP_SINH_HI, n)
        h = w[1] - w[0]
        log_x = log_scale + w - np.exp(-w)
        log_w = np.log1p(np.exp(-w)) + math.log(h)
    elif tail == "algebraic":
        w = np.linspace(-_SINH_HALF_WIDTH, _SINH_HALF_WIDTH, n)
        h = w[1] - w[0]
        log_x = log_scale + np.pi * np.sinh(w)
        log_w = np.log(np.pi * np.cosh(w) * h)
    else:
        raise ParameterError(f"unknown tail type {tail!r}")
    return log_x, log_w
