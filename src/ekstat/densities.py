"""Parametric density families: type-1 beta, Dirichlet, generalized
Dirichlet, and the pathway family, with exact seeded samplers.

Every pdf evaluates to exactly 0 outside (and on the boundary of) its
support, so quadrature and histogram code may touch boundaries freely.
Normalizing constants are assembled in log space.  Samplers are built from
inverse-CDF gamma draws on the counter-based uniform streams of
:mod:`ekstat.streams`: each sample row consumes a fixed number of uniforms,
which makes worker-partitioned runs reproduce the single-worker draws
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaincinv, gammaln

from . import transforms
from .errors import ParameterError, ShapeError
from .streams import map_uniform_rows


# ---------------------------------------------------------------------------
# parameter records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BetaParams:
    """Type-1 beta parameters; density x^(first-1) (1-x)^(second-1) / B."""

    first: float
    second: float

    def __post_init__(self):
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
        if len(self.alphas) < 1:
            raise ParameterError("at least one alpha is required")
        if any(a <= -1.0 for a in self.alphas):
            raise ParameterError("each alpha exponent must exceed -1")
        if not self.alpha_last > 0.0:
            raise ParameterError("alpha_last must be positive")

    @property
    def dim(self) -> int:
        return len(self.alphas)


@dataclass(frozen=True)
class GenDirichletParams:
    """Generalized type-1 Dirichlet with per-partial-sum exponents ``betas``.

    Density proportional to
    ``prod_j x_j^alphas[j] (1 - x_1 - ... - x_j)^(betas[j] - [j == k])`` on
    the nested simplex.  Validity requires every derived second beta
    parameter to be positive; see :func:`ekstat.transforms.derived_beta_params`.
    """

    alphas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        if len(self.alphas) != len(self.betas) or len(self.alphas) < 1:
            raise ParameterError("alphas and betas must be equal-length, non-empty")
        if any(a <= -1.0 for a in self.alphas):
            raise ParameterError("each alpha exponent must exceed -1")
        # raises ParameterError when any derived pair is non-positive
        transforms.derived_beta_params("thm1_3", self.alphas, betas=self.betas)

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
        if not self.a > 0.0:
            raise ParameterError("a must be positive")
        if not self.q < 1.0:
            raise ParameterError("the pathway family requires q < 1")
        if not self.eta > 0.0:
            raise ParameterError("eta must be positive")
        if not self.zeta > -1.0:
            raise ParameterError("zeta must exceed -1")

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


@dataclass(frozen=True)
class SampleMatrix:
    """Sample rows together with the seed that generated them."""

    data: np.ndarray
    seed: int

    def __post_init__(self):
        if self.data.ndim != 2:
            raise ShapeError("sample data must be a 2-D (n, k) array")

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


def beta1_pdf(x, p: BetaParams):
    """Type-1 beta density at ``x`` (scalar or array); 0 outside (0,1)."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    inside = (x > 0.0) & (x < 1.0)
    xs = np.where(inside, x, 0.5)
    logc = gammaln(p.first + p.second) - gammaln(p.first) - gammaln(p.second)
    logpdf = logc + (p.first - 1.0) * np.log(xs) + (p.second - 1.0) * np.log1p(-xs)
    return _with_support(np.exp(logpdf), inside, scalar)


def dirichlet1_pdf(x, p: DirichletParams):
    """Joint type-1 Dirichlet density on the open simplex; 0 outside.

    ``x`` has shape (..., k) with k = ``p.dim``.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != p.dim:
        raise ShapeError(f"points must have {p.dim} coordinates, got {x.shape[-1]}")
    scalar = x.ndim == 1
    total = np.sum(x, axis=-1)
    inside = np.all(x > 0.0, axis=-1) & (total < 1.0)
    xs = np.where(inside[..., None], x, 0.25 / p.dim)
    rem = np.where(inside, 1.0 - np.sum(xs, axis=-1), 0.5)
    a = np.asarray(p.alphas)
    logc = (
        gammaln(np.sum(a + 1.0) + p.alpha_last)
        - np.sum(gammaln(a + 1.0))
        - gammaln(p.alpha_last)
    )
    logpdf = logc + np.sum(a * np.log(xs), axis=-1) + (p.alpha_last - 1.0) * np.log(rem)
    return _with_support(np.exp(logpdf), inside, scalar)


def gen_dirichlet1_log_norm(p: GenDirichletParams) -> float:
    """Log normalizing constant of the generalized Dirichlet density.

    Assembled from the independent-beta factorization under the triangular
    map; validated numerically by the quadrature normalization tests.
    """
    derived = transforms.derived_beta_params("thm1_3", p.alphas, betas=p.betas)
    return float(
        sum(
            gammaln(f + s) - gammaln(f) - gammaln(s)
            for f, s in derived.pairs
        )
    )


def gen_dirichlet1_pdf(x, p: GenDirichletParams):
    """Generalized type-1 Dirichlet density on the nested simplex; 0 outside."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != p.dim:
        raise ShapeError(f"points must have {p.dim} coordinates, got {x.shape[-1]}")
    scalar = x.ndim == 1
    partial = np.cumsum(x, axis=-1)
    inside = np.all(x > 0.0, axis=-1) & np.all(partial < 1.0, axis=-1)
    xs = np.where(inside[..., None], x, 0.25 / p.dim)
    rem = np.where(inside[..., None], 1.0 - np.cumsum(xs, axis=-1), 0.5)
    a = np.asarray(p.alphas)
    b = np.asarray(p.betas)
    bexp = b - np.where(np.arange(p.dim) == p.dim - 1, 1.0, 0.0)
    logpdf = (
        gen_dirichlet1_log_norm(p)
        + np.sum(a * np.log(xs), axis=-1)
        + np.sum(bexp * np.log(rem), axis=-1)
    )
    return _with_support(np.exp(logpdf), inside, scalar)


def pathway_log_norm_const(p: PathwayDimParams) -> float:
    """Log of the pathway normalizing constant.

    Equals ``(zeta+1) log(a(1-q)) + log Gamma(zeta + eta/(1-q) + 2)
    - log Gamma(zeta+1) - log Gamma(eta/(1-q) + 1)``, fixed against the
    quadrature normalization oracle.
    """
    rho = p.tail_exponent
    return float(
        (p.zeta + 1.0) * math.log(p.scale_factor)
        + gammaln(p.zeta + rho + 2.0)
        - gammaln(p.zeta + 1.0)
        - gammaln(rho + 1.0)
    )


def pathway_norm_const(p: PathwayDimParams) -> float:
    """Pathway normalizing constant (linear scale)."""
    return math.exp(pathway_log_norm_const(p))


def pathway_pdf(x, p: PathwayDimParams):
    """Pathway density at ``x``; 0 outside (0, 1/(a(1-q)))."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    c = p.scale_factor
    inside = (x > 0.0) & (c * x < 1.0)
    xs = np.where(inside, x, 0.5 / c)
    logpdf = (
        pathway_log_norm_const(p)
        + p.zeta * np.log(xs)
        + p.tail_exponent * np.log1p(-c * xs)
    )
    return _with_support(np.exp(logpdf), inside, scalar)


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

def _gamma_cols(u: np.ndarray, shapes: Sequence[float]) -> np.ndarray:
    """Inverse-CDF unit-rate gamma draws, one column per shape."""
    out = np.empty((u.shape[0], len(shapes)))
    for j, s in enumerate(shapes):
        out[:, j] = gammaincinv(s, u[:, j])
    return out


def beta_product_from_uniforms(u: np.ndarray, triples) -> np.ndarray:
    """Independent scaled betas, one per ``(first, second, c)`` triple:
    column j is Beta(first, second) / c, drawn as a gamma ratio from
    uniform columns 2j and 2j+1."""
    g = _gamma_cols(u, [p for first, second, _ in triples for p in (first, second)])
    scale = np.array([c for _, _, c in triples])
    return g[:, 0::2] / (g[:, 0::2] + g[:, 1::2]) / scale


def dirichlet_from_uniforms(u: np.ndarray, p: DirichletParams) -> np.ndarray:
    """Dirichlet rows on the open simplex by gamma normalization of k+1 columns."""
    g = _gamma_cols(u, tuple(a + 1.0 for a in p.alphas) + (p.alpha_last,))
    return g[:, :p.dim] / np.sum(g, axis=1, keepdims=True)


def beta_from_uniforms(u: np.ndarray, first: float, second: float) -> np.ndarray:
    """Beta(first, second) draws from two uniform columns via gamma ratios."""
    return beta_product_from_uniforms(u, ((first, second, 1.0),))[:, 0]


def beta1_sample(p: BetaParams, n: int, seed: int, workers: int = 1) -> SampleMatrix:
    """n independent type-1 beta draws; deterministic given ``seed``."""
    draw = lambda u: beta_from_uniforms(u, p.first, p.second)[:, None]
    return SampleMatrix(map_uniform_rows(draw, seed, n, 2, 1, workers), seed)


def dirichlet1_sample(p: DirichletParams, n: int, seed: int, workers: int = 1) -> SampleMatrix:
    """Dirichlet rows via gamma normalization; rows lie on the open simplex."""
    draw = lambda u: dirichlet_from_uniforms(u, p)
    return SampleMatrix(map_uniform_rows(draw, seed, n, p.dim + 1, p.dim, workers), seed)


def gen_dirichlet1_sample(p: GenDirichletParams, n: int, seed: int, workers: int = 1) -> SampleMatrix:
    """Generalized Dirichlet rows: independent betas pushed through the
    inverse triangular map."""
    derived = transforms.derived_beta_params("thm1_3", p.alphas, betas=p.betas)
    triples = [(f, s, 1.0) for f, s in derived.pairs]
    draw = lambda u: transforms.inverse(beta_product_from_uniforms(u, triples))
    return SampleMatrix(map_uniform_rows(draw, seed, n, 2 * p.dim, p.dim, workers), seed)


def pathway_sample(p: PathwayDimParams, n: int, seed: int, workers: int = 1) -> SampleMatrix:
    """Pathway draws as scaled type-1 betas on (0, 1/(a(1-q)))."""
    triple = (p.zeta + 1.0, p.tail_exponent + 1.0, p.scale_factor)
    draw = lambda u: beta_product_from_uniforms(u, (triple,))
    return SampleMatrix(map_uniform_rows(draw, seed, n, 2, 1, workers), seed)
