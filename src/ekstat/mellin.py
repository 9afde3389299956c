"""Numeric multivariable Mellin transforms and factorization checks.

The transform of a k-variable function is evaluated coordinate-wise over
the positive orthant: each semi-axis is mapped to (0,1) by x = t/(1-t) and
the resulting unit-interval integral is discretized with double-exponential
nodes (the composition is a direct double-exponential layout in log x).
The node layout follows the integrand's tail type, and the integrand is
assembled in log space, so algebraic endpoint behavior x^(s-1+e) with
non-integer e costs no accuracy.

The factorization check compares the numeric Mellin transform of an
operator image against the closed-form gamma-ratio multiplier times the
density's own transform, point by point over an admissible s-grid.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ParameterError, PoleError, ShapeError, UsageError
from .kober import DimParams, MultiDensity, check_grid, check_nodes, operator_image
from .quadrature import DEFAULT_NODES, semiaxis_log_rule

_BASE_GRID = (0.8, 1.5, 2.0, 3.0, 1.5 + 0.5j)
# Keep this much real-part distance from the convergence strip's boundary;
# closer points push mass beyond the node window.
_STRIP_MARGIN_SECOND = 0.2
_STRIP_MARGIN_FIRST = 0.4


@dataclass(frozen=True)
class MellinResult:
    """One numeric Mellin value with refinement diagnostics.

    ``est_error`` is |value_n - value_2n| when refinement ran; ``converged``
    is False when that delta exceeded the requested relative tolerance
    (a divergence warning, typically an inadmissible ``s``).
    """

    value: complex
    est_error: float | None
    n_nodes: int
    converged: bool | None = None


def _mellin_values(f: MultiDensity, s_points: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Mellin transform of ``f`` at each s-vector, sharing one pdf sweep."""
    k = f.dim
    check_grid(n, k)
    axes = [semiaxis_log_rule(n, f.tail, math.log(f.scale))] * k
    mesh = np.meshgrid(*[np.exp(lx) for lx, _ in axes], indexing="ij")
    pts = np.stack(mesh, axis=-1)
    vals = np.asarray(f.pdf(pts), dtype=float)
    if vals.shape != pts.shape[:-1]:
        raise ShapeError("density must return one value per grid point")
    with np.errstate(divide="ignore"):
        log_vals = np.log(np.maximum(vals, 0.0))
    for j, (_, lw) in enumerate(axes):
        shape = [1] * k
        shape[j] = -1
        log_vals = log_vals + lw.reshape(shape)
    out = np.empty(len(s_points), dtype=complex)
    for i, s in enumerate(s_points):
        z = log_vals.astype(complex)
        for j, (lx, _) in enumerate(axes):
            shape = [1] * k
            shape[j] = -1
            z = z + s[j] * lx.reshape(shape)
        # a term past the float range raises FloatingPointError; one below
        # it underflows to 0, which is its correct share of the sum
        with np.errstate(over="raise"):
            out[i] = np.sum(np.exp(z.real) * (np.cos(z.imag) + 1j * np.sin(z.imag)))
    return out


def mellin_numeric(f: MultiDensity, s, n: int = DEFAULT_NODES,
                   refine: bool = True, rtol: float = 1e-6) -> MellinResult:
    """Numeric Mellin transform of ``f`` at the complex vector ``s``.

    The integral must exist at ``s``; divergence shows up as refinement
    non-convergence (``converged=False`` in the result).
    """
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    if s.shape != (f.dim,):
        raise ShapeError(f"s must be a vector of length {f.dim}")
    value = complex(_mellin_values(f, [s], n)[0])
    if not refine:
        return MellinResult(value=value, est_error=None, n_nodes=n)
    fine = complex(_mellin_values(f, [s], 2 * n)[0])
    err = abs(value - fine)
    converged = err <= rtol * max(abs(fine), 1e-300)
    return MellinResult(value=value, est_error=err, n_nodes=n, converged=converged)


def kober_mellin_ratio(kind: str, params: Sequence[DimParams], s) -> complex:
    """Gamma-ratio Mellin multiplier of the operator, per dimension.

    Second kind: ``prod Gamma(zeta_j + s_j) / Gamma(alpha_j + zeta_j + s_j)``;
    first kind: ``prod Gamma(1 + zeta_j - s_j) / Gamma(1 + alpha_j + zeta_j - s_j)``.
    """
    from scipy.special import loggamma  # complex Gamma; scipy loads on the first check

    s = np.atleast_1d(np.asarray(s, dtype=complex))
    params = tuple(params)
    if s.shape != (len(params),):
        raise ShapeError("s must supply one value per dimension")
    total = 0.0 + 0.0j
    for j, (d, sj) in enumerate(zip(params, s)):
        if kind == "second":
            arg = d.zeta + sj
        elif kind == "first":
            arg = 1.0 + d.zeta - sj
        else:
            raise UsageError(f"unknown operator kind {kind!r}")
        if abs(arg.imag) < 1e-12 and arg.real <= 0.0 and \
                abs(arg.real - round(arg.real)) < 1e-12:
            raise PoleError(
                f"gamma factor has a pole in dimension {j} (argument {arg})",
                dimension=j,
            )
        total += loggamma(arg) - loggamma(arg + d.alpha)
    return complex(np.exp(total))


def default_s_grid(kind: str, params: Sequence[DimParams]) -> list[np.ndarray]:
    """Tensor grid of admissible Mellin points for the factorization check.

    Per dimension the base values {0.8, 1.5, 2.0, 3.0, 1.5+0.5i} are
    filtered to keep a safe distance from the convergence strip boundary:
    Re(zeta_j + s_j) >= 0.2 (second kind), Re(s_j) <= 1 + zeta_j - 0.4
    (first kind).
    """
    per_dim = []
    for d in params:
        if kind == "second":
            vals = [s for s in _BASE_GRID
                    if complex(s).real + d.zeta >= _STRIP_MARGIN_SECOND]
        elif kind == "first":
            vals = [s for s in _BASE_GRID
                    if complex(s).real <= 1.0 + d.zeta - _STRIP_MARGIN_FIRST]
        else:
            raise UsageError(f"unknown operator kind {kind!r}")
        if not vals:
            raise ParameterError(
                f"no admissible grid values for zeta={d.zeta} ({kind} kind)"
            )
        per_dim.append(vals)
    return [np.asarray(combo, dtype=complex)
            for combo in itertools.product(*per_dim)]


@dataclass(frozen=True)
class MellinCheckReport:
    """Outcome of a Mellin factorization check over an s-grid."""

    kind: str
    zetas: tuple[float, ...]
    alphas: tuple[float, ...]
    n_nodes: int
    tol: float
    s_points: tuple[tuple[complex, ...], ...]
    lhs: tuple[complex, ...]
    rhs: tuple[complex, ...]
    rel_err: tuple[float, ...]
    max_rel_err: float
    passed: bool
    notes: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        cplx = lambda z: {"re": z.real, "im": z.imag}
        return {
            "kind": self.kind,
            "zetas": list(self.zetas),
            "alphas": list(self.alphas),
            "n_nodes": self.n_nodes,
            "tol": self.tol,
            "points": [
                {
                    "s": [cplx(c) for c in s],
                    "lhs": cplx(l),
                    "rhs": cplx(r),
                    "rel_err": e,
                }
                for s, l, r, e in zip(self.s_points, self.lhs, self.rhs, self.rel_err)
            ],
            "max_rel_err": self.max_rel_err,
            "pass": self.passed,
            "notes": list(self.notes),
        }


def mellin_factorization_check(
    kind: str,
    params: Sequence[DimParams],
    f: MultiDensity,
    s_grid: Sequence[np.ndarray] | None = None,
    n: int = DEFAULT_NODES,
    tol: float = 1e-6,
) -> MellinCheckReport:
    """Compare numeric Mellin transforms of the operator image of ``f``
    against the gamma-ratio multiplier times f's closed-form transform.

    ``f`` must carry a closed-form Mellin transform; the operator image is
    evaluated pointwise by quadrature (one sweep shared by all grid
    points), so the two sides are computed along genuinely different routes.
    """
    params = tuple(params)
    if not 0.0 < tol < math.inf:
        raise ParameterError(f"tol must be finite and positive, got {tol}")
    check_nodes(n)
    if f.mellin is None:
        raise UsageError("the factorization check needs a density with a closed-form Mellin transform")
    if f.dim != len(params):
        raise ShapeError("parameter count must match the density dimension")
    if s_grid is None:
        s_grid = default_s_grid(kind, params)
    s_grid = [np.atleast_1d(np.asarray(s, dtype=complex)) for s in s_grid]
    image = operator_image(kind, params, f, n)
    lhs = _mellin_values(image, s_grid, n)
    rhs = np.array([kober_mellin_ratio(kind, params, s) * f.mellin(s) for s in s_grid])
    rel = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)
    max_rel = float(np.max(rel))
    return MellinCheckReport(
        kind=kind,
        zetas=tuple(d.zeta for d in params),
        alphas=tuple(d.alpha for d in params),
        n_nodes=n,
        tol=tol,
        s_points=tuple(tuple(complex(c) for c in s) for s in s_grid),
        lhs=tuple(complex(v) for v in lhs),
        rhs=tuple(complex(v) for v in rhs),
        rel_err=tuple(float(e) for e in rel),
        max_rel_err=max_rel,
        passed=bool(max_rel <= tol),
    )
