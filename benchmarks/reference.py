"""Independent reference values of the four operators for gamma densities.

Each operator is written as its defining integral over v and evaluated by
mpmath's tanh-sinh quadrature at 20 digits, with break points at the kernel
edge and on a geometric ladder out to the density's scale; nothing here
shares code with ``ekstat.kober``'s Gauss-Jacobi plans.  A product density
with product kernels factors per dimension, so a k-dimensional reference is
the product of one-dimensional ones.
"""

from __future__ import annotations

import mpmath as mp

_DPS = 20
_LADDER_END = 200.0  # the unit-rate gamma densities are negligible beyond


def _ladder(lo, hi):
    """Break points lo < 4lo < 16lo < ... < hi, stopping at the density's
    scale so the tanh-sinh panels resolve both the kernel edge and f."""
    pts = [lo]
    x = 4 * lo
    while x < hi and x < _LADDER_END:
        pts.append(x)
        x *= 4
    pts.append(hi)
    return pts


def _gamma_pdf(shape):
    norm = mp.gamma(shape)
    return lambda v: v ** (shape - 1) * mp.exp(-v) / norm


def second_kind(u, zeta, alpha, shape):
    """u^zeta / Gamma(alpha) * int_u^inf (v-u)^(alpha-1) v^(-zeta-alpha) f(v) dv."""
    f = _gamma_pdf(shape)
    u = mp.mpf(u)
    integrand = lambda v: (v - u) ** (alpha - 1) * v ** (-zeta - alpha) * f(v)
    return u ** zeta / mp.gamma(alpha) * mp.quad(integrand, _ladder(u, mp.inf))


def first_kind(u, zeta, alpha, shape):
    """u^(-zeta-alpha) / Gamma(alpha) * int_0^u (u-v)^(alpha-1) v^zeta f(v) dv."""
    f = _gamma_pdf(shape)
    u = mp.mpf(u)
    integrand = lambda v: (u - v) ** (alpha - 1) * v ** zeta * f(v)
    pts = [mp.mpf(0)] + [p for p in _ladder(mp.mpf("1e-3"), u) if p < u] + [u]
    return u ** (-zeta - alpha) / mp.gamma(alpha) * mp.quad(integrand, pts)


def operator_1d(kind: str, p, shape: float, u: float) -> float:
    """Reference value of one dimension of the operator at u.

    ``p`` is a ``DimParams`` (classical) or ``PathwayDimParams``.  The
    pathway operators are the classical ones with order eta/(1-q) + 1,
    taken at c u (second kind) or u / c (first kind), c = a(1-q), times the
    support-scale power c^-zeta or c^-(zeta+1).
    """
    with mp.workdps(_DPS):
        if hasattr(p, "scale_factor"):
            c = mp.mpf(p.scale_factor)
            order = p.tail_exponent + 1.0
            if kind == "second":
                val = c ** (-p.zeta) * second_kind(c * u, p.zeta, order, shape)
            else:
                val = c ** (-(p.zeta + 1)) * first_kind(u / c, p.zeta, order, shape)
        elif kind == "second":
            val = second_kind(u, p.zeta, p.alpha, shape)
        else:
            val = first_kind(u, p.zeta, p.alpha, shape)
        return float(val)
