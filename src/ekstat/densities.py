"""Parametric density families: type-1 beta, Dirichlet, generalized
Dirichlet, and the pathway family, with exact seeded samplers.

Each family is one scaled-beta law Beta(first, second)/c, written once
here: the type-1 beta with c = 1, the pathway family with the triple
:attr:`PathwayDimParams.beta_law`, and the two Dirichlet families as
independent betas (:func:`ekstat.transforms.ratio_beta_pairs`) in the ratio
coordinates of the triangular map.  Every pdf evaluates to exactly 0
outside (and on the boundary of) its support, so quadrature and histogram
code may touch boundaries freely; normalizing constants are assembled in
log space.  Samplers are built from exact gamma draws: numpy's
``Generator.standard_gamma`` (Marsaglia-Tsang with ziggurat normals, in C)
on the per-block generators of :mod:`ekstat.streams`, row by row and
within a row one draw per shape in order (:func:`_gamma_cols`).  A block's
draws depend on the seed and the block alone, so worker-partitioned runs
reproduce the single-worker draws exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import transforms
from .errors import ParameterError, ShapeError
from .streams import map_rows


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------

def check_finite(what: str, values: Sequence[float]) -> None:
    """ParameterError unless every value is a finite float: an inf or nan
    parameter would flow into the samplers and the rules as nan."""
    for v in values:
        if not math.isfinite(v):
            raise ParameterError(f"{what} must be finite, got {v}")


@dataclass(frozen=True)
class BetaParams:
    """Type-1 beta parameters; density x^(first-1) (1-x)^(second-1) / B."""

    first: float
    second: float

    def __post_init__(self):
        check_finite("beta parameters", (self.first, self.second))
        if not (self.first > 0.0 and self.second > 0.0):
            raise ParameterError(
                f"beta parameters must be positive, got ({self.first}, {self.second})"
            )


@dataclass(frozen=True)
class DirichletParams:
    """Type-1 Dirichlet with power exponents ``alphas`` and simplex exponent.

    The joint density is proportional to
    ``prod x_j^alphas[j] * (1 - sum x)^(alpha_last - 1)`` on the open
    simplex, i.e. the concentration parameters are ``alphas + 1`` and
    ``alpha_last``.
    """

    alphas: tuple[float, ...]
    alpha_last: float

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        check_finite("Dirichlet parameters", self.alphas + (self.alpha_last,))
        if len(self.alphas) < 1:
            raise ParameterError("at least one alpha is required")
        if any(a <= -1.0 for a in self.alphas):
            raise ParameterError("each alpha exponent must exceed -1")
        if not self.alpha_last > 0.0:
            raise ParameterError("alpha_last must be positive")

    @property
    def dim(self) -> int:
        return len(self.alphas)

    @property
    def betas(self) -> tuple[float, ...]:
        """Partial-sum exponents of the same density read as a generalized
        Dirichlet: ``(0, ..., 0, alpha_last)``."""
        return (0.0,) * (self.dim - 1) + (self.alpha_last,)


@dataclass(frozen=True)
class GenDirichletParams:
    """Generalized type-1 Dirichlet with per-partial-sum exponents ``betas``.

    Density proportional to
    ``prod_j x_j^alphas[j] (1 - x_1 - ... - x_j)^(betas[j] - [j == k])`` on
    the nested simplex.  Under the triangular map its ratio coordinates are
    independent betas, and the density is valid exactly when every pair of
    :func:`ekstat.transforms.ratio_beta_pairs` is positive.
    """

    alphas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        check_finite("generalized Dirichlet parameters", self.alphas + self.betas)
        transforms.ratio_beta_pairs(self.alphas, self.betas)

    @property
    def dim(self) -> int:
        return len(self.alphas)


@dataclass(frozen=True)
class PathwayDimParams:
    """One-dimensional pathway family x^zeta [1 - a(1-q)x]^(eta/(1-q)).

    The support is (0, 1/(a(1-q))); as q -> 1 the family tends to the gamma
    density x^zeta e^(-a eta x) (up to normalization).
    """

    a: float
    q: float
    eta: float
    zeta: float

    def __post_init__(self):
        check_finite("pathway parameters", (self.a, self.q, self.eta, self.zeta))
        if not self.a > 0.0:
            raise ParameterError("a must be positive")
        if not self.q < 1.0:
            raise ParameterError("the pathway family requires q < 1")
        if not self.eta > 0.0:
            raise ParameterError("eta must be positive")
        if not self.zeta > -1.0:
            raise ParameterError("zeta must exceed -1")
        # a(1-q) and eta/(1-q) can overflow from finite parameters
        check_finite("the pathway beta law", self.beta_law)

    @property
    def scale_factor(self) -> float:
        """a(1-q), the reciprocal of the support width."""
        return self.a * (1.0 - self.q)

    @property
    def tail_exponent(self) -> float:
        """eta/(1-q), the power on the support factor."""
        return self.eta / (1.0 - self.q)

    @property
    def support_upper(self) -> float:
        return 1.0 / self.scale_factor

    @property
    def beta_law(self) -> tuple[float, float, float]:
        """``(first, second, c)``: the family is Beta(first, second)/c with
        first = zeta+1, second = eta/(1-q)+1 and c = a(1-q)."""
        return self.zeta + 1.0, self.tail_exponent + 1.0, self.scale_factor


@dataclass(frozen=True)
class SampleMatrix:
    """Sample rows together with the seed that generated them.

    ``data`` is a read-only view of the rows (the array passed in stays
    writable), so what :func:`ekstat.mc_oracle.verify` keeps of the sample
    in ``_memo`` cannot go stale through this object.
    """

    data: np.ndarray
    seed: int
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float).view()
        if data.ndim != 2:
            raise ShapeError("sample data must be a 2-D (n, k) array")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


# ---------------------------------------------------------------------------
# pdfs
# ---------------------------------------------------------------------------

def _with_support(values: np.ndarray, inside: np.ndarray, scalar: bool):
    out = np.where(inside, values, 0.0)
    return float(out) if scalar else out


def _beta_log_norm(first: float, second: float, c: float) -> float:
    """Log normalizer of Beta(first, second)/c on (0, 1/c)."""
    return (first * math.log(c) + math.lgamma(first + second)
            - math.lgamma(first) - math.lgamma(second))


def _beta_pdf(x, first: float, second: float, c: float = 1.0):
    """Density of Beta(first, second)/c; 0 outside (0, 1/c)."""
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (c * x < 1.0)
    xs = np.where(inside, x, 0.5 / c)
    logpdf = (_beta_log_norm(first, second, c) + (first - 1.0) * np.log(xs)
              + (second - 1.0) * np.log1p(-c * xs))
    return _with_support(np.exp(logpdf), inside, x.ndim == 0)


def beta1_pdf(x, p: BetaParams):
    """Type-1 beta density at ``x`` (scalar or array); 0 outside (0,1)."""
    return _beta_pdf(x, p.first, p.second)


def dirichlet1_pdf(x, p: DirichletParams):
    """Joint type-1 Dirichlet density on the open simplex; 0 outside.

    ``x`` has shape (..., k) with k = ``p.dim``.
    """
    return gen_dirichlet1_pdf(x, p)


def gen_dirichlet1_pdf(x, p: GenDirichletParams | DirichletParams):
    """Generalized type-1 Dirichlet density on the nested simplex; 0 outside.

    The ratio coordinates y = :func:`ekstat.transforms.forward` (x) are
    independent betas (:func:`ekstat.transforms.ratio_beta_pairs`), so the
    density is their product divided by the Jacobian of the inverse map.
    A :class:`DirichletParams` record reads as its partial-sum exponents.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != p.dim:
        raise ShapeError(f"points must have {p.dim} coordinates, got {x.shape[-1]}")
    inside = np.all(x > 0.0, axis=-1) & np.all(np.cumsum(x, axis=-1) < 1.0, axis=-1)
    y = transforms.forward(np.where(inside[..., None], x, 0.25 / p.dim))
    # within an ulp of the outer face, rounding can put a ratio on 1
    inside &= np.all(y < 1.0, axis=-1)
    y = np.where(inside[..., None], y, 0.5)
    pairs = transforms.ratio_beta_pairs(p.alphas, p.betas)
    betas = np.prod([_beta_pdf(y[..., j], f, s) for j, (f, s) in enumerate(pairs)], axis=0)
    return _with_support(betas / transforms.jacobian(y), inside, x.ndim == 1)


def pathway_norm_const(p: PathwayDimParams) -> float:
    """Pathway normalizing constant (linear scale)."""
    return math.exp(_beta_log_norm(*p.beta_law))


def pathway_pdf(x, p: PathwayDimParams):
    """Pathway density at ``x``; 0 outside (0, 1/(a(1-q)))."""
    return _beta_pdf(x, *p.beta_law)


def pathway_factor(u, v, p: PathwayDimParams):
    """Weighted pathway kernel factor (u/v)^zeta (1/v) [1-a(1-q)u/v]^(eta/(1-q)).

    Computed through ``log1p`` so the q -> 1 regime stays accurate; 0 where
    u/v falls outside the support.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    scalar = u.ndim == 0 and v.ndim == 0
    c = p.scale_factor
    ratio = u / v
    inside = (ratio > 0.0) & (c * ratio < 1.0)
    r = np.where(inside, ratio, 0.5 / c)
    logval = p.zeta * np.log(r) - np.log(v) + p.tail_exponent * np.log1p(-c * r)
    return _with_support(np.exp(logval), inside, scalar)


def pathway_limit_factor(u, v, *, a: float, eta: float, zeta: float):
    """q -> 1 limit of :func:`pathway_factor`: (u/v)^zeta (1/v) e^(-a eta u/v)."""
    if not (a > 0.0 and eta > 0.0):
        raise ParameterError("a and eta must be positive")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(u <= 0.0) or np.any(v <= 0.0):
        raise ParameterError("u and v must be positive")
    out = (u / v) ** zeta / v * np.exp(-a * eta * u / v)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _gamma_cols(gen: np.random.Generator, count: int, shapes: Sequence[float]) -> np.ndarray:
    """(count, len(shapes)) unit-rate gamma draws, column j at ``shapes[j]``.

    One ``gen.standard_gamma`` call draws them row by row, so the first rows
    of a block do not depend on how many rows it has.
    """
    return gen.standard_gamma(np.asarray(shapes, dtype=float), (count, len(shapes)))


def beta_product_draws(gen: np.random.Generator, count: int, triples) -> np.ndarray:
    """Independent scaled betas, one column per ``(first, second, c)``
    triple: column j is Beta(first, second) / c, drawn as a gamma ratio."""
    g = _gamma_cols(gen, count, [p for first, second, _ in triples for p in (first, second)])
    scale = np.array([c for _, _, c in triples])
    return g[:, 0::2] / (g[:, 0::2] + g[:, 1::2]) / scale


def dirichlet_draws(gen: np.random.Generator, count: int, p: DirichletParams) -> np.ndarray:
    """Dirichlet rows on the open simplex by gamma normalization of k+1
    draws."""
    g = _gamma_cols(gen, count, tuple(a + 1.0 for a in p.alphas) + (p.alpha_last,))
    return g[:, :p.dim] / np.sum(g, axis=1, keepdims=True)


def _beta_rows(triples, n: int, seed: int, workers: int,
               triangular: bool = False) -> SampleMatrix:
    """Rows of independent Beta(first, second)/c draws, one column per
    ``(first, second, c)`` triple, pushed through the inverse triangular map
    when ``triangular``; deterministic given ``seed``."""
    draw = lambda gen, count: beta_product_draws(gen, count, triples)
    rows = (lambda gen, count: transforms.inverse(draw(gen, count))) if triangular else draw
    return SampleMatrix(map_rows(rows, seed, n, len(triples), workers), seed)


def beta1_sample(p: BetaParams, n: int, seed: int, workers: int = 1) -> SampleMatrix:
    """n independent type-1 beta draws; deterministic given ``seed``."""
    return _beta_rows([(p.first, p.second, 1.0)], n, seed, workers)


def dirichlet1_sample(p: DirichletParams, n: int, seed: int, workers: int = 1) -> SampleMatrix:
    """Dirichlet rows via gamma normalization; rows lie on the open simplex."""
    draw = lambda gen, count: dirichlet_draws(gen, count, p)
    return SampleMatrix(map_rows(draw, seed, n, p.dim, workers), seed)


def gen_dirichlet1_sample(p: GenDirichletParams, n: int, seed: int, workers: int = 1) -> SampleMatrix:
    """Generalized Dirichlet rows: independent betas pushed through the
    inverse triangular map."""
    pairs = transforms.ratio_beta_pairs(p.alphas, p.betas)
    return _beta_rows([(f, s, 1.0) for f, s in pairs], n, seed, workers, triangular=True)


def pathway_sample(p: PathwayDimParams, n: int, seed: int, workers: int = 1) -> SampleMatrix:
    """Pathway draws as scaled type-1 betas on (0, 1/(a(1-q)))."""
    return _beta_rows([p.beta_law], n, seed, workers)
