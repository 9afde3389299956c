"""Triangular change of variables on the nested simplex.

The map sends a point ``x`` with ``0 < x_1 + ... + x_j < 1`` for every j to
ratios ``y_j = x_j / (1 - x_1 - ... - x_{j-1})`` in the open unit cube.  It
is the coordinate change under which the Dirichlet-type densities of
:mod:`ekstat.densities` factor into independent beta laws, whose parameter
pairs :func:`ratio_beta_pairs` gives.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import DomainError, ParameterError


def _as_points(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] < 1:
        raise DomainError(f"{name} must have at least one coordinate")
    return arr


def forward(x) -> np.ndarray:
    """Map nested-simplex points to ratio coordinates in (0,1)^k.

    Accepts a single point of shape (k,) or a batch (..., k); the last axis
    is the coordinate axis.
    """
    x = _as_points(x, "x")
    if np.any(x <= 0.0) or np.any(np.cumsum(x, axis=-1) >= 1.0):
        raise DomainError("partial sums of x must lie strictly inside (0,1)")
    # running-product denominator d_{j+1} = d_j * (d_j - x_j)/d_j: the
    # product keeps d relatively accurate near the simplex boundary, and the
    # direct subtraction avoids amplifying rounding when y_j is close to 1
    y = np.empty_like(x)
    denom = np.ones_like(x[..., 0])
    for j in range(x.shape[-1]):
        y[..., j] = x[..., j] / denom
        denom = denom * ((denom - x[..., j]) / denom)
    return y


def inverse(y) -> np.ndarray:
    """Map ratio coordinates in (0,1)^k back to the nested simplex."""
    y = _as_points(y, "y")
    if np.any(y <= 0.0) or np.any(y >= 1.0):
        raise DomainError("all ratio coordinates must lie strictly inside (0,1)")
    lead = np.cumprod(1.0 - y[..., :-1], axis=-1)
    prefix = np.concatenate([np.ones_like(y[..., :1]), lead], axis=-1)
    return y * prefix


def jacobian(y) -> np.ndarray:
    """Volume factor of :func:`inverse`: prod_j (1 - y_j)^(k-j), j < k."""
    y = _as_points(y, "y")
    if np.any(y <= 0.0) or np.any(y >= 1.0):
        raise DomainError("all ratio coordinates must lie strictly inside (0,1)")
    powers = np.arange(y.shape[-1] - 1, 0, -1, dtype=float)
    out = np.prod((1.0 - y[..., :-1]) ** powers, axis=-1)
    return out if y.ndim > 1 else float(out)


def ratio_beta_pairs(alphas: Sequence[float],
                     betas: Sequence[float]) -> tuple[tuple[float, float], ...]:
    """Beta laws of the ratio coordinates of a generalized type-1 Dirichlet
    point (see :class:`ekstat.densities.GenDirichletParams`).

    y_1..y_k are independent, y_j ~ Beta(first_j, second_j) with
    ``first_j = alphas_j + 1`` and ``second_j = sum_{i>j} alphas_i +
    sum_{i>=j} betas_i + (k - j)``.  The type-1 Dirichlet is the case
    ``betas = (0, ..., 0, alpha_last)``.
    """
    a = np.asarray(alphas, dtype=float)
    b = np.asarray(betas, dtype=float)
    if a.ndim != 1 or a.shape != b.shape or a.size < 1:
        raise ParameterError("alphas and betas must be equal-length, non-empty")
    a, b = a.tolist(), b.tolist()
    # sums from coordinate j on, added from the last coordinate as
    # np.cumsum of the reversal adds them
    from_a = list(accumulate(reversed(a)))[::-1]
    from_b = list(accumulate(reversed(b)))[::-1]
    k = len(a)
    firsts = [x + 1.0 for x in a]
    seconds = [later + fb + float(k - 1 - j)
               for j, (later, fb) in enumerate(zip(from_a[1:] + [0.0], from_b))]
    if not (all(x > 0.0 for x in firsts) and all(x > 0.0 for x in seconds)):
        raise ParameterError(
            f"ratio beta parameters must be positive, got firsts={np.array(firsts)}, "
            f"seconds={np.array(seconds)}"
        )
    return tuple(zip(firsts, seconds))
