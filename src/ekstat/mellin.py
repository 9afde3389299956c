"""Numeric multivariable Mellin transforms and factorization checks.

The transform of a k-variable function is evaluated coordinate-wise over
the positive orthant: each semi-axis is mapped to (0,1) by x = t/(1-t) and
the resulting unit-interval integral is discretized with double-exponential
nodes (the composition is a direct double-exponential layout in log x).
The node layout follows the integrand's tail type, and the integrand is
assembled in log space, so algebraic endpoint behavior x^(s-1+e) with
non-integer e costs no accuracy.

A density with factors (every ``gamma_product``, and the operator image of
one) is a product of one-dimensional functions, and so is its transform:
the sum over the n^k grid becomes a product of k sums of n terms, each
dimension's sums taken for all s-points at once, with no n^k node budget.
Any other density is summed over the n^k grid, within the operators' node
budget.

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

from .errors import EvaluationError, ParameterError, PoleError, ShapeError, UsageError
from .kober import (DimParams, MultiDensity, _density_values, _zeta_alpha_c, check_grid,
                    check_nodes, operator_image)
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


def _check_nonnegative(vals: np.ndarray, pts: np.ndarray, what: str) -> None:
    """EvaluationError naming the first node where ``vals`` is negative."""
    if (vals < 0.0).any():
        idx = np.unravel_index(int(np.argmax(vals < 0.0)), vals.shape)
        raise EvaluationError(f"{what} is negative at {pts[idx]!r}", point=pts[idx])


def _exp_sum(z: np.ndarray, axis=None) -> np.ndarray:
    """Sum of exp(z) over ``axis``.  A term past the float range raises
    FloatingPointError; one below it underflows to 0, which is its correct
    share of the sum."""
    with np.errstate(over="raise"):
        return np.sum(np.exp(z.real) * (np.cos(z.imag) + 1j * np.sin(z.imag)), axis=axis)


def _mellin_values(f: MultiDensity, s_points: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Mellin transform of ``f`` at each s-vector.

    A product density's transform is the product of its factors'
    transforms: each dimension takes one factor sweep over the n semi-axis
    nodes and sums it for every s-point at once.  Any other density takes
    one pdf sweep over the n^k tensor grid, shared by all s-points.
    """
    k = f.dim
    if f.factors is None:
        check_grid(n, k)
    lx, lw = semiaxis_log_rule(n, f.tail)
    x = np.exp(lx)
    if f.factors is not None:
        s = np.reshape(np.asarray(s_points, dtype=complex), (-1, k))
        out = np.ones(len(s), dtype=complex)
        for j, factor in enumerate(f.factors):
            vals = _density_values(factor, x, x.shape)
            _check_nonnegative(vals, x[:, None], f"density factor {j}")
            with np.errstate(divide="ignore"):
                log_terms = np.log(vals) + lw
            with np.errstate(over="raise"):
                out = out * _exp_sum(log_terms + s[:, j, None] * lx, axis=-1)
        return out
    pts = np.stack(np.meshgrid(*[x] * k, indexing="ij"), axis=-1)
    vals = _density_values(f.pdf, pts, pts.shape[:-1])
    _check_nonnegative(vals, pts, "density")
    with np.errstate(divide="ignore"):
        log_vals = np.log(vals)
    for j in range(k):
        shape = [1] * k
        shape[j] = -1
        log_vals = log_vals + lw.reshape(shape)
    out = np.empty(len(s_points), dtype=complex)
    for i, s in enumerate(s_points):
        z = log_vals.astype(complex)
        for j in range(k):
            shape = [1] * k
            shape[j] = -1
            z = z + s[j] * lx.reshape(shape)
        out[i] = _exp_sum(z)
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


def _mellin_multipliers(kind: str, params: Sequence[DimParams], s: np.ndarray) -> np.ndarray:
    """Gamma-ratio multipliers at the (m, k) complex s-points ``s``, per
    dimension as in :func:`kober_mellin_ratio`, each dimension's Gamma
    arguments formed for every s-point at once.  A pole raises PoleError
    for the first s-point, in grid order, whose argument hits one, and its
    first such dimension."""
    from scipy.special import loggamma  # complex Gamma; scipy loads on the first check

    zac = [_zeta_alpha_c(d) for d in params]
    args = np.stack([z + s[:, j] if kind == "second" else 1.0 + z - s[:, j]
                     for j, (z, _, _) in enumerate(zac)], axis=1)
    pole = (np.abs(args.imag) < 1e-12) & (args.real <= 0.0) & \
        (np.abs(args.real - np.round(args.real)) < 1e-12)
    if pole.any():
        i, j = np.unravel_index(int(np.argmax(pole)), pole.shape)
        raise PoleError(f"gamma factor has a pole in dimension {j} (argument {args[i, j]})",
                        dimension=int(j))
    total = np.zeros(len(s), dtype=complex)
    for j, (_, alpha, c) in enumerate(zac):
        arg = args[:, j]
        total += loggamma(arg) - loggamma(arg + alpha)
        total += -arg * math.log(c)
    return np.exp(total)


def kober_mellin_ratio(kind: str, params: Sequence[DimParams], s) -> complex:
    """Gamma-ratio Mellin multiplier of the operator, per dimension.

    Per dimension the Gamma argument is ``arg = zeta_j + s_j`` (second
    kind) or ``arg = 1 + zeta_j - s_j`` (first kind), and the factor is
    ``Gamma(arg) / Gamma(arg + alpha_j)`` times ``c_j^-arg`` for the
    support factor c_j (``a(1-q)`` for pathway parameters, 1 for the
    classical operators): the operator is the classical one at c*u or u/c.
    """
    if kind not in ("second", "first"):
        raise UsageError(f"unknown operator kind {kind!r}")
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    params = tuple(params)
    if s.shape != (len(params),):
        raise ShapeError("s must supply one value per dimension")
    return complex(_mellin_multipliers(kind, params, s[None])[0])


def default_s_grid(kind: str, params: Sequence[DimParams]) -> list[np.ndarray]:
    """Tensor grid of admissible Mellin points for the factorization check.

    Per dimension the base values {0.8, 1.5, 2.0, 3.0, 1.5+0.5i} are
    filtered to keep a safe distance from the convergence strip boundary:
    Re(zeta_j + s_j) >= 0.2 (second kind), Re(s_j) <= 1 + zeta_j - 0.4
    (first kind).
    """
    per_dim = []
    for zeta, _, _ in map(_zeta_alpha_c, params):
        if kind == "second":
            vals = [s for s in _BASE_GRID
                    if complex(s).real + zeta >= _STRIP_MARGIN_SECOND]
        elif kind == "first":
            vals = [s for s in _BASE_GRID
                    if complex(s).real <= 1.0 + zeta - _STRIP_MARGIN_FIRST]
        else:
            raise UsageError(f"unknown operator kind {kind!r}")
        if not vals:
            raise ParameterError(
                f"no admissible grid values for zeta={zeta} ({kind} kind)"
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
    evaluated by quadrature at the semi-axis nodes (for a product density,
    one dimension at a time at the n nodes of each axis; otherwise over the
    n^k grid, in one sweep shared by all s-points), so the two sides are
    computed along genuinely different routes.
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
    if any(s.shape != (len(params),) for s in s_grid):
        raise ShapeError("s must supply one value per dimension")
    image = operator_image(kind, params, f, n)
    lhs = _mellin_values(image, s_grid, n)
    ratios = _mellin_multipliers(kind, params, np.reshape(s_grid, (len(s_grid), len(params))))
    rhs = np.array([r * f.mellin(s) for r, s in zip(ratios.tolist(), s_grid)])
    rel = np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)
    max_rel = float(np.max(rel))
    zetas, alphas, _ = zip(*map(_zeta_alpha_c, params))
    return MellinCheckReport(
        kind=kind,
        zetas=zetas,
        alphas=alphas,
        n_nodes=n,
        tol=tol,
        s_points=tuple(tuple(complex(c) for c in s) for s in s_grid),
        lhs=tuple(lhs.tolist()),
        rhs=tuple(rhs.tolist()),
        rel_err=tuple(rel.tolist()),
        max_rel_err=max_rel,
        passed=bool(max_rel <= tol),
    )
