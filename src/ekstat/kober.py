"""Pointwise evaluation of the multivariable fractional integral operators.

Four operators are provided, all acting on a joint density ``f`` of k
positive variables:

* second kind, kernel ``(v - u)^(alpha-1) v^(-zeta-alpha)`` over ``v > u``;
* first kind, kernel ``(u - v)^(alpha-1) v^zeta`` over ``0 < v < u``;
* their pathway extensions, the same two read with ``PathwayDimParams``:
  support factor ``a(1-q)``, and ``eta/(1-q)`` in place of ``alpha - 1``.

Per dimension, the kernel is absorbed exactly into a Jacobi weight after
mapping the integration range to (0,1), so weak endpoint singularities never
meet a quadrature node.  Two regimes supplement the plain rule so that
evaluation stays accurate over the whole semi-axis: for the second kind a
near-field split (evaluation points near 0), for the first kind a
far-field split (points far out on the semi-axis).  Their thresholds are
absolute; there is no per-density scale.  Both splits pair a kernel-edge
Jacobi rule with scale-adapted double-exponential nodes and keep the total
node count per dimension at ``n``.

All scalar prefactors are accumulated in log space; ``predicted_density``
fuses the operator with the reciprocal of its density constant so that
extreme parameter regimes (pathway q near 1) never overflow.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .densities import (
    DirichletParams,
    GenDirichletParams,
    PathwayDimParams,
    SampleMatrix,
    _gamma_cols,
    check_finite,
)
from .errors import (
    DomainError,
    EvaluationError,
    ParameterError,
    ShapeError,
    SizeError,
    UsageError,
)
from .quadrature import (
    _EXP_SINH_HI,
    _EXP_SINH_LO,
    DEFAULT_NODES,
    MAX_RULE_NODES,
    jacobi_rule,
    semiaxis_log_rule,
)
from .streams import map_rows
from .transforms import ratio_beta_pairs

# Most tensor nodes one dense evaluation or Mellin sum may build: (n nodes
# per dimension)**k.
# 1 << 22 admits the refined k=3 evaluation at n=64 (128**3 = 2**21).  A
# density with factors is summed one dimension at a time and builds no grid.
_MAX_TENSOR_NODES = 1 << 22
# Fewest nodes per dimension: the near- and far-field splits need room for
# both of their parts, and without them the error estimate far from the
# density's scale understates the error by orders of magnitude.
_MIN_NODES = 8
# Largest log prefactor whose exponential is a float.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

# Regime-switch thresholds, absolute: near field where c*u < _NEAR_FIELD
# (second kind), far field where u > _FAR_FIELD*c (first kind).
_NEAR_FIELD = 0.25
_FAR_FIELD = 100.0


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DimParams:
    """Classical per-dimension operator parameters (zeta, alpha).

    The second kind admits ``zeta > -1``; the first kind requires
    ``zeta > 0``.  ``alpha`` is the fractional order and must be positive.
    """

    zeta: float
    alpha: float

    def __post_init__(self):
        check_finite("operator parameters", (self.zeta, self.alpha))
        if not self.alpha > 0.0:
            raise ParameterError("alpha must be positive")
        if not self.zeta > -1.0:
            raise ParameterError("zeta must exceed -1")


@dataclass(frozen=True)
class ScaledDimParams(DimParams):
    """Operator parameters with the pathway support factor a(1-q); see
    :func:`identity_setup`."""

    scale_factor: float


@dataclass(frozen=True)
class MultiDensity:
    """A joint density of ``dim`` positive variables.

    ``pdf`` is the only required hook: it takes points of shape (..., dim)
    and returns nonnegative values of shape (...).  It must be safe to call
    concurrently.  Optional extras power the statistical machinery:
    ``from_uniforms(gen, count)`` returns ``count`` exact draws, shape
    (count, dim), taking all its randomness from the numpy Generator
    ``gen`` (one per block of rows, see :func:`ekstat.streams.map_rows`;
    the field keeps the name it had when it took a block of uniforms,
    because benchmarks/tracing.py replaces it under that name), and
    ``mellin`` is a closed-form Mellin transform taking a complex vector of
    length ``dim``.

    ``tail`` ("exp" or "algebraic") describes the decay at infinity and
    selects semi-axis node layouts.

    ``factors``, when set, holds ``dim`` one-dimensional pdfs whose product
    is ``pdf``: factor j takes an array of coordinate-j values and returns
    one value per entry.  The operators then evaluate as a product of
    one-dimensional sums instead of a sum over the ``n^dim`` tensor grid.
    """

    dim: int
    pdf: Callable[[np.ndarray], np.ndarray]
    from_uniforms: Callable[[np.random.Generator, int], np.ndarray] | None = None
    mellin: Callable[[np.ndarray], complex] | None = None
    tail: str = "exp"
    name: str = ""
    factors: tuple[Callable[[np.ndarray], np.ndarray], ...] | None = None

    def __post_init__(self):
        if self.factors is not None and len(self.factors) != self.dim:
            raise ShapeError(f"a density of dimension {self.dim} needs {self.dim} "
                             f"factors, got {len(self.factors)}")

    def sample(self, n: int, seed: int, workers: int = 1) -> SampleMatrix:
        """Exact draws from the density; deterministic given ``seed``."""
        if self.from_uniforms is None:
            raise UsageError(f"density {self.name or '<anonymous>'} has no sampler")
        return SampleMatrix(map_rows(self.from_uniforms, seed, n, self.dim, workers), seed)


@dataclass(frozen=True)
class OperatorResult:
    """Value of one operator evaluation with an a posteriori error estimate.

    ``est_error`` is the absolute difference between the n-node and 2n-node
    evaluations (None when refinement was not requested).
    """

    value: float
    est_error: float | None
    n_nodes: int


# ---------------------------------------------------------------------------
# per-dimension quadrature plans
# ---------------------------------------------------------------------------

def check_nodes(n: int) -> None:
    """ParameterError unless ``n`` nodes per dimension are enough, and
    SizeError when they are more than one rule may hold
    (:data:`ekstat.quadrature.MAX_RULE_NODES`); a refined evaluation at n
    builds rules of 2n nodes."""
    if not n >= _MIN_NODES:
        raise ParameterError(f"operator quadrature needs at least {_MIN_NODES} "
                             f"nodes per dimension, got {n}")
    if n > MAX_RULE_NODES:
        raise SizeError(f"operator quadrature takes at most {MAX_RULE_NODES} nodes per "
                        f"dimension (a refined evaluation at n takes 2n), got {n}")


def check_grid(n: int, k: int) -> None:
    """SizeError when a tensor grid of ``n`` nodes in each of ``k``
    dimensions is over the node budget."""
    if n ** k > _MAX_TENSOR_NODES:
        raise SizeError(f"a tensor grid of {n} nodes in each of {k} dimensions has "
                        f"{n ** k} nodes, over the budget of {_MAX_TENSOR_NODES}")


class _DimQuad:
    """Nodes and log-weights for one dimension of an operator integral.

    For an evaluation point ``u`` the dimension contributes
    ``sum_i exp(logw_i) * f(... v_i ...)``; the plan chooses between the
    plain Jacobi rule and the composite near/far-field split.  ``c`` is the
    pathway support factor a(1-q) (1 for the classical operators).
    """

    def __init__(self, kind: str, zeta: float, alpha: float, c: float, n: int):
        if kind not in ("second", "first"):
            raise UsageError(f"unknown operator kind {kind!r}")
        if kind == "first" and not zeta > 0.0:
            raise ParameterError("the first kind requires zeta > 0")
        check_nodes(n)
        self.kind = kind
        self.zeta = z = float(zeta)
        self.alpha = float(alpha)
        self.c = float(c)
        self.n = int(n)
        # pathway prefactors: c^-zeta (second) or c^-(zeta+1) (first)
        self.extra_log = -(z if kind == "second" else z + 1.0) * math.log(self.c)

    @cached_property
    def _plain(self):
        """Nodes t and log weights of the plain rule, with -lnGamma(alpha) and
        the pathway prefactor folded in.  The weight is (1-t)^(alpha-1) t^edge0;
        the second kind's edge0 = zeta-1 is inadmissible for zeta <= 0, so there
        edge0 = zeta and one power 1/t stays in the weights (nodes are interior)."""
        z, second = self.zeta, self.kind == "second"
        keep_t = second and not z > 0.0
        rule = jacobi_rule(self.n, self.alpha - 1.0, z - 1.0 if second and z > 0.0 else z)
        logw = np.log(rule.weights_unit) - np.log(rule.nodes) if keep_t else np.log(rule.weights_unit)
        logw = logw + rule.log_mass - math.lgamma(self.alpha) + self.extra_log
        logw.setflags(write=False)
        return rule.nodes, logw

    @cached_property
    def _split_rules(self):
        """The split's point-independent rules: the kernel-edge Jacobi rule
        with its log weights, and for the first kind the semi-axis tail."""
        n_edge = self.n // 2 if self.kind == "second" else min(max(4, self.n // 4), self.n - 4)
        edge = jacobi_rule(n_edge, 0.0, self.alpha - 1.0)
        # node variable is c*v, so the layout sits at scale c
        tail = None if self.kind == "second" else semiaxis_log_rule(
            self.n - n_edge, "exp", math.log(self.c))
        return edge, np.log(edge.weights_unit), tail

    def _near_second(self, u_eff: float):
        """Second kind for c*u below :data:`_NEAR_FIELD`.

        Edge part: v in (u, 2u) with the kernel power exact; tail part:
        v in (2u, inf) on scale-adapted nodes with a double-exponentially
        damped approach to 2u.
        """
        z, a = self.zeta, self.alpha
        edge, edge_logw, _ = self._split_rules
        lu = math.log(u_eff)
        v_edge = u_eff * (1.0 + edge.nodes)
        logw_edge = (edge_logw + edge.log_mass - math.lgamma(a)
                     + (z + a) * lu - (z + a) * np.log(v_edge))
        # tail nodes: v = 2u (1 + e^(w - e^-w)), reaching past v = 350
        w_hi = max(_EXP_SINH_HI, math.log(350.0 / u_eff))
        w = np.linspace(_EXP_SINH_LO, w_hi, self.n - len(edge.nodes))
        h = w[1] - w[0]
        e = np.exp(w - np.exp(-w))
        v_tail = 2.0 * u_eff * (1.0 + e)
        log_dv = math.log(2.0 * u_eff) + np.log(e) + np.log1p(np.exp(-w)) + math.log(h)
        logw_tail = (z * lu - math.lgamma(a) + log_dv
                     + (a - 1.0) * np.log(v_tail - u_eff)
                     - (z + a) * np.log(v_tail))
        return (np.concatenate([v_edge, v_tail]),
                np.concatenate([logw_edge, logw_tail]) + self.extra_log)

    def _far_first(self, u_eff: float):
        """First kind for u above :data:`_FAR_FIELD` * c.

        Tail part: v in (0, u/2) on scale-adapted semi-axis nodes (the
        kernel is smooth there); edge part: v in (u/2, u) with the kernel
        power exact (the density is exponentially small there).
        """
        z, a = self.zeta, self.alpha
        edge, edge_logw, (log_x, log_w) = self._split_rules
        lu = math.log(u_eff)
        base = -(z + a) * lu - math.lgamma(a)
        keep = log_x < lu - math.log(2.0)
        lv = log_x[keep]
        v_tail = np.exp(lv)
        logw_tail = (base + (z + 1.0) * lv
                     + (a - 1.0) * (lu + np.log1p(-v_tail / u_eff))
                     + log_w[keep])
        v_edge = u_eff * (1.0 - 0.5 * edge.nodes)
        logw_edge = (base + edge_logw + edge.log_mass
                     + z * np.log(v_edge) + a * (lu - math.log(2.0)))
        return (np.concatenate([v_tail, v_edge]) / self.c,
                np.concatenate([logw_tail, logw_edge]) + self.extra_log)

    # -- dispatch: each rule is fetched once, when a point first needs it --

    def nodes_logw(self, u: float) -> tuple[np.ndarray, np.ndarray]:
        if not 0.0 < u < math.inf:
            raise DomainError(f"operator evaluation points must be finite and positive, got {u}")
        # normalized weights may underflow to exact zeros at extreme
        # exponents; their log is -inf and drops out of the final sums
        second = self.kind == "second"
        with np.errstate(divide="ignore"):
            if second and self.c * u < _NEAR_FIELD:
                return self._near_second(self.c * u)
            if not second and u > _FAR_FIELD * self.c:
                return self._far_first(u)
            # plain: v = c*u/t (second kind) or u*t/c (first; nodes on (0, u/c))
            t, logw = self._plain
            return (self.c * u / t if second else u * t / self.c), logw


def _zeta_alpha_c(p) -> tuple[float, float, float]:
    """Operator zeta, alpha and support factor of one dimension's parameters."""
    if isinstance(p, PathwayDimParams):
        return (p.zeta,) + p.beta_law[1:]
    return p.zeta, p.alpha, getattr(p, "scale_factor", 1.0)


# ---------------------------------------------------------------------------
# evaluation core
# ---------------------------------------------------------------------------

def _density_values(pdf: Callable[[np.ndarray], np.ndarray], pts: np.ndarray,
                    shape: tuple[int, ...]) -> np.ndarray:
    """``pdf(pts)``, checked to hold one finite value per point of ``shape``."""
    vals = np.asarray(pdf(pts), dtype=float)
    if vals.shape != shape:
        raise ShapeError(f"density must return one value per node: expected shape "
                         f"{shape}, got {vals.shape}")
    if not np.isfinite(vals).all():
        idx = np.unravel_index(int(np.argmax(~np.isfinite(vals))), shape)
        raise EvaluationError(f"density is not finite at {pts[idx]!r}", point=pts[idx])
    return vals


def _scaled(total: float, scales: Sequence[float], log_shift: float) -> float:
    """``total`` times exp(sum of the dimensions' top log weights minus
    ``log_shift``), or OverflowError when that leaves the float range."""
    log_scale = math.fsum(scales) - log_shift
    value = total * math.exp(log_scale) if log_scale < _LOG_FLOAT_MAX else math.inf
    if not math.isfinite(value):
        raise OverflowError(f"operator value overflows the float range (log prefactor {log_scale:.6g})")
    return value


def _dense_point(plans: Sequence[_DimQuad], point: Sequence[float],
                 pdf: Callable[[np.ndarray], np.ndarray], log_shift: float) -> float:
    """Operator value at one point: the sum of ``pdf`` over the tensor grid
    of the dimensions' nodes."""
    nodes, scales, weights = [], [], []
    for plan, u in zip(plans, point):
        v, logw = plan.nodes_logw(u)
        top = float(np.max(logw))
        nodes.append(v)
        scales.append(top)
        weights.append(np.exp(logw - top))
    pts = np.stack(np.meshgrid(*nodes, indexing="ij"), axis=-1)
    acc = _density_values(pdf, pts, pts.shape[:-1])
    for w in reversed(weights):
        acc = np.tensordot(acc, w, axes=([-1], [0]))
    return _scaled(float(acc), scales, log_shift)


def _separable_values(plans: Sequence[_DimQuad], points: list[list[float]],
                      factors: Sequence[Callable[[np.ndarray], np.ndarray]],
                      log_shift: float) -> np.ndarray:
    """Operator values at points of a product density: per point, the
    product of one weighted factor sum per dimension.

    Sum j depends on coordinate j alone, so each dimension computes its
    (sum, top log weight) once per distinct coordinate value and a tensor
    grid of points costs one sum per grid line.  A point's new coordinates
    get their nodes before any factor is called, so a bad coordinate is a
    DomainError ahead of a density error, as for a single point.
    """
    sums: list[dict[float, tuple[float, float]]] = [{} for _ in plans]
    out = np.empty(len(points))
    for i, point in enumerate(points):
        rules = [(j, u, plans[j].nodes_logw(u))
                 for j, u in enumerate(point) if u not in sums[j]]
        for j, u, (v, logw) in rules:
            top = float(np.max(logw))
            sums[j][u] = float(_density_values(factors[j], v, v.shape) @ np.exp(logw - top)), top
        entries = [sums[j][u] for j, u in enumerate(point)]
        out[i] = _scaled(math.prod(s for s, _ in entries), [top for _, top in entries], log_shift)
    return out


def eval_many(kind: str, params, f: MultiDensity, points,
              n: int = DEFAULT_NODES, log_shift: float = 0.0) -> np.ndarray:
    """Vectorized operator evaluation at (m, k) points (a single k-vector
    gives a scalar).  With ``f.factors`` each dimension sums once per
    distinct coordinate value; other densities sum the dense grid per point.

    ``log_shift`` is subtracted from the log prefactor before
    exponentiation, allowing fused computation of operator/constant ratios.
    """
    points = np.asarray(points, dtype=float)
    single = points.ndim == 1
    if single:
        points = points[None, :]
    k = len(params)
    if k != f.dim:
        raise ShapeError(f"density dimension {f.dim} != parameter count {k}")
    if points.shape[-1] != k:
        raise ShapeError(f"points must have {k} coordinates")
    if f.factors is None:
        check_grid(n, k)
    plans = [_DimQuad(kind, *_zeta_alpha_c(p), n) for p in params]
    rows = points.tolist()
    if f.factors is not None:
        out = _separable_values(plans, rows, f.factors, log_shift)
    else:
        out = np.array([_dense_point(plans, pt, f.pdf, log_shift) for pt in rows])
    return out[0] if single else out


def _operator_result(kind: str, params, f: MultiDensity, u,
                     n: int, refine: bool) -> OperatorResult:
    u = np.atleast_1d(np.asarray(u, float))
    # the 2n evaluation goes first, so an over-budget refinement fails
    # before any grid is built
    fine = float(eval_many(kind, params, f, u, 2 * n)) if refine else None
    value = float(eval_many(kind, params, f, u, n))
    err = None if fine is None else abs(value - fine)
    return OperatorResult(value=value, est_error=err, n_nodes=n)


# ---------------------------------------------------------------------------
# public operators
# ---------------------------------------------------------------------------

def kober2_eval(u, params: Sequence[DimParams | PathwayDimParams], f: MultiDensity,
                n: int = DEFAULT_NODES, refine: bool = True) -> OperatorResult:
    """Second-kind operator at the point ``u`` (a positive k-vector).

    With :class:`PathwayDimParams` it is the pathway operator, whose kernel
    carries the support factor ``a(1-q)`` and the inverse power
    ``v^-(zeta + eta/(1-q) + 1)`` of the product construction's density.
    """
    return _operator_result("second", tuple(params), f, u, n, refine)


def kober1_eval(u, params: Sequence[DimParams | PathwayDimParams], f: MultiDensity,
                n: int = DEFAULT_NODES, refine: bool = True) -> OperatorResult:
    """First-kind operator at the point ``u``; requires ``zeta > 0``.

    With :class:`PathwayDimParams` the upper limit is ``u/(a(1-q))``, where
    the kernel factor ``u - a(1-q) v`` vanishes; the sign-indefinite
    alternative ``u/(1 - a(1-q))`` is not used.
    """
    return _operator_result("first", tuple(params), f, u, n, refine)


# the pathway operators are the classical ones read with PathwayDimParams;
# the aliases stay because benchmarks/warm.py and benchmarks/tracing.py look
# them up by name
pathway_kober2_eval = kober2_eval
pathway_kober1_eval = kober1_eval


def operator_image(kind: str, params, f: MultiDensity,
                   n: int = DEFAULT_NODES) -> MultiDensity:
    """The operator applied to ``f``, wrapped as an evaluable density-like
    object (used by Mellin checks and operator composition)."""
    params = tuple(params)
    k = len(params)

    def pdf(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        flat = pts.reshape(-1, k)
        vals = eval_many(kind, params, f, flat, n)
        return np.asarray(vals).reshape(pts.shape[:-1])

    tail = "exp" if (kind == "second" and f.tail == "exp") else "algebraic"
    return MultiDensity(dim=k, pdf=pdf, tail=tail, name=f"{kind}-kind image of {f.name or 'f'}")


# ---------------------------------------------------------------------------
# identity catalogue
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """Parameter record of a mixing density: a tuple of per-dimension
    records (``per_dim``), or one record whose ``scalars`` hold one value
    and other fields a value per dimension.  Its field names are also
    ``ekstat verify`` flags."""

    name: str
    params_type: type
    per_dim: bool
    scalars: tuple[str, ...] = ()

    @property
    def fields(self) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(self.params_type))

    def build(self, values: dict):
        """Parameter record from the values of each field."""
        if not self.per_dim:
            return self.params_type(**values)
        return tuple(self.params_type(*row) for row in zip(*(values[f] for f in self.fields)))

    def dim(self, params) -> int:
        return len(params) if self.per_dim else params.dim


CLASSICAL = Family("classical", DimParams, per_dim=True)
PATHWAY = Family("pathway", PathwayDimParams, per_dim=True)
DIRICHLET = Family("dirichlet", DirichletParams, per_dim=False, scalars=("alpha_last",))
GEN_DIRICHLET = Family("gen-dirichlet", GenDirichletParams, per_dim=False)


class BetaLaws(NamedTuple):
    """Per dimension ``(first, second, c)``: the mixing coordinate (its
    ratio coordinate, for a triangular identity) is Beta(first, second)/c.
    ``printed``: the pairs of the source's as-printed reading, if any."""

    triples: tuple[tuple[float, float, float], ...]
    printed: tuple[tuple[float, float], ...] | None = None
    note: str = ""


@dataclass(frozen=True)
class Identity:
    """One catalogued identity: with f-draws v and y = x (or the
    triangular map of x), u = y * v (second kind) or v / y (first kind) has
    the density ``kind`` operator(f) / :func:`identity_setup` constant.
    ``defaults``: the family's field values for k <= 3."""

    kind: str
    family: Family
    defaults: dict
    beta: Callable[[object], BetaLaws]
    triangular: bool = False
    notes: tuple[str, ...] = ()

    @property
    def combine(self) -> str:
        step = "product" if self.kind == "second" else "ratio"
        return "transformed-" + step if self.triangular else step


def _per_dim_laws(shift: float) -> Callable[[object], BetaLaws]:
    """Beta laws of per-dimension operator parameters: first = zeta + shift,
    with shift = 1 for the second kind."""
    return lambda p: BetaLaws(tuple((z + shift, a, c) for z, a, c in map(_zeta_alpha_c, p)))


def _dirichlet_laws(printed: Callable | None = None,
                    note: str = "") -> Callable[[object], BetaLaws]:
    """Beta laws of a Dirichlet-type record: its ratio coordinates follow
    :func:`ratio_beta_pairs`.  ``printed`` maps the record and those pairs
    to the source's as-printed reading, which ``note`` describes."""
    def laws(p) -> BetaLaws:
        pairs = ratio_beta_pairs(p.alphas, p.betas)
        return BetaLaws(tuple((f, s, 1.0) for f, s in pairs),
                        printed(p, pairs) if printed else None, note)
    return laws


def _printed_1_3(p, pairs):
    """1.3 as printed: alphas_k is missing from second_j for j < k."""
    return tuple((f, s - p.alphas[-1]) for f, s in pairs[:-1]) + pairs[-1:]


def _printed_2_4(p, pairs):
    """2.4 as printed: alpha_last is missing from every second_j."""
    return tuple((f, s - p.alpha_last) for f, s in pairs)


def _printed_2_5(p, pairs):
    """2.5 as printed: the derived pairs themselves."""
    return pairs


_PATHWAY_DEFAULTS = {"a": (1.0, 1.5, 1.0), "q": (0.5, 0.25, 0.5), "eta": (1.0, 2.0, 1.0)}

IDENTITIES = {
    "1.1": Identity(
        "second", CLASSICAL, {"zeta": (0.5, 1.0, 0.8), "alpha": (1.5, 0.7, 1.2)},
        _per_dim_laws(1.0)),
    "1.2": Identity(
        "second", DIRICHLET, {"alphas": (0.5, 1.0, 0.5), "alpha_last": 2.0},
        _dirichlet_laws(), triangular=True),
    "1.3": Identity(
        "second", GEN_DIRICHLET, {"alphas": (0.5, 1.0, 0.5), "betas": (1.0, 2.0, 1.5)},
        _dirichlet_laws(_printed_1_3, "printed running sum stops one alpha term early"),
        triangular=True),
    "1.4": Identity(
        "second", PATHWAY, {**_PATHWAY_DEFAULTS, "zeta": (0.0, 0.8, 0.5)}, _per_dim_laws(1.0),
        notes=("second-kind pathway kernel includes the inverse power "
               "v^-(zeta + eta/(1-q) + 1) from the product construction; the "
               "density constant carries the factor [a(1-q)]^-(zeta+1) alongside "
               "the gamma ratio",)),
    "2.1": Identity(
        "first", CLASSICAL, {"zeta": (1.5, 2.0, 1.2), "alpha": (1.0, 0.7, 1.3)},
        _per_dim_laws(0.0)),
    "2.3": Identity(
        "first", PATHWAY, {**_PATHWAY_DEFAULTS, "zeta": (1.5, 1.0, 2.0)}, _per_dim_laws(0.0),
        notes=("first-kind pathway upper limit is u/(a(1-q)), where the kernel "
               "factor u - a(1-q)v vanishes; the alternative reading "
               "u/(1-a(1-q)) is sign-indefinite for a(1-q) >= 1 and is not used",
               "the density constant carries the factor [a(1-q)]^-zeta alongside "
               "the gamma ratio")),
    # sampling exponents: the catalogued alphas (2, 3, 2) minus one
    "2.4": Identity(
        "first", DIRICHLET, {"alphas": (1.0, 2.0, 1.0), "alpha_last": 1.0},
        _dirichlet_laws(_printed_2_4, "printed second parameters omit the final simplex "
                        "exponent; the last pair degenerates to zero there"),
        triangular=True),
    "2.5": Identity(
        "first", GEN_DIRICHLET, {"alphas": (1.0, 2.0, 1.0), "betas": (1.0, 2.0, 1.5)},
        _dirichlet_laws(_printed_2_5, "printed and derivation-consistent parameter sums "
                        "coincide"),
        triangular=True),
}
IDENTITY_IDS = tuple(IDENTITIES)


def identity_record(theorem: str) -> Identity:
    if theorem not in IDENTITIES:
        raise UsageError(f"unknown identity id {theorem!r}; expected one of {IDENTITY_IDS}")
    return IDENTITIES[theorem]


def setup_from_triples(kind: str, triples):
    """(kind, operator dims, log constant) for mixing coordinates
    Beta(first, second)/c: per dimension ``zeta = first - [kind ==
    second]``, ``alpha = second``, support factor c, and the constant
    ``prod Gamma(first) c^-first / Gamma(first + second)``."""
    triples = tuple(triples)
    if not all(f > 0.0 and s > 0.0 for f, s, _ in triples):
        raise ParameterError(f"mixing beta laws (first, second, c) need positive "
                             f"first and second, got {triples}")
    shift = 1.0 if kind == "second" else 0.0
    dims = tuple(ScaledDimParams(f - shift, s, c) for f, s, c in triples)
    # keep this order of operations: reports depend on the constant bit for bit
    log_c = sum(math.lgamma(f) - f * math.log(c) - math.lgamma(f + s) for f, s, c in triples)
    return kind, dims, log_c


def identity_setup(theorem: str, params):
    """Operator kind, per-dimension parameters, and log density constant
    for one catalogued operator-density identity.

    ``params`` is the record of the identity's mixing family in
    :data:`IDENTITIES`.  The constant is the factor c with ``c * (joint
    density of u) = operator applied to f``; for the pathway identities it
    carries the support-scale power ``[a(1-q)]^(zeta+1)`` (second kind) or
    ``[a(1-q)]^zeta`` (first kind) alongside the gamma ratio.
    """
    rec = identity_record(theorem)
    fam = rec.family
    records = params if fam.per_dim and isinstance(params, (tuple, list)) else [params]
    if not all(isinstance(p, fam.params_type) for p in records):
        raise UsageError(f"identity {theorem} takes {fam.params_type.__name__} parameters")
    return setup_from_triples(rec.kind, rec.beta(params).triples)


# ---------------------------------------------------------------------------
# density constants and fused predicted densities
# ---------------------------------------------------------------------------

def density_constant(theorem: str, params) -> float:
    """Constant c with ``c * g = operator(f)`` for the identity ``theorem``."""
    return math.exp(identity_setup(theorem, params)[2])


def predicted_density(theorem: str, params, f: MultiDensity, points,
                      n: int = DEFAULT_NODES, constant_scale: float = 1.0) -> np.ndarray:
    """Operator evaluation divided by the identity's density constant.

    Computed with the constant fused into the operator's log prefactor, so
    extreme parameter regimes stay finite.  ``constant_scale`` multiplies
    the constant (used by negative-control checks).
    """
    kind, dims, log_c = identity_setup(theorem, params)
    return eval_many(kind, dims, f, points, n,
                     log_shift=log_c + math.log(constant_scale))


# ---------------------------------------------------------------------------
# density factories
# ---------------------------------------------------------------------------

def gamma_product(shapes: Sequence[float], name: str = "") -> MultiDensity:
    """Product of unit-rate gamma densities with the given shapes.

    Carries an exact sampler (numpy's ``standard_gamma``, one column per
    coordinate, see :func:`ekstat.densities._gamma_cols`), the
    closed-form Mellin transform
    ``prod_j Gamma(shape_j + s_j - 1) / Gamma(shape_j)``, and one factor
    pdf per coordinate, on the same log density as the joint ``pdf``.
    """
    shapes = tuple(float(s) for s in shapes)
    check_finite("gamma shapes", shapes)
    if not shapes or any(s <= 0.0 for s in shapes):
        raise ParameterError("gamma shapes must be positive")
    k = len(shapes)
    arr = np.asarray(shapes)
    log_norm = np.array([math.lgamma(s) for s in shapes])

    def log_pdf(x: np.ndarray, j) -> np.ndarray:
        """Log density of coordinate ``j`` (an index or a slice) at x > 0."""
        return (arr[j] - 1.0) * np.log(x) - x - log_norm[j]

    def pdf(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if pts.shape[-1] != k:
            raise ShapeError(f"points must have {k} coordinates")
        inside = np.all(pts > 0.0, axis=-1)
        safe = np.where(pts > 0.0, pts, 1.0)
        return np.where(inside, np.exp(np.sum(log_pdf(safe, slice(None)), axis=-1)), 0.0)

    def factor(j: int) -> Callable[[np.ndarray], np.ndarray]:
        def pdf_j(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            return np.where(x > 0.0, np.exp(log_pdf(np.where(x > 0.0, x, 1.0), j)), 0.0)
        return pdf_j

    def from_uniforms(gen: np.random.Generator, count: int) -> np.ndarray:
        return _gamma_cols(gen, count, shapes)

    def mellin(s) -> complex:
        from scipy.special import loggamma  # complex Gamma; scipy loads on the first check

        s = np.asarray(s, dtype=complex)
        if s.shape != (k,):
            raise ShapeError(f"Mellin argument must be a {k}-vector")
        return complex(np.exp(np.sum(loggamma(arr + s - 1.0) - log_norm)))

    return MultiDensity(
        dim=k, pdf=pdf, from_uniforms=from_uniforms, mellin=mellin, tail="exp",
        name=name or f"gamma-product{shapes}", factors=tuple(map(factor, range(k))),
    )


def exponential_product(k: int = 1) -> MultiDensity:
    """Product of unit-rate exponential densities (gamma shapes all 1)."""
    return gamma_product((1.0,) * k, name=f"exponential-product(k={k})")
