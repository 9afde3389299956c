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
import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import transforms
from .densities import (
    DirichletParams,
    GenDirichletParams,
    PathwayDimParams,
    SampleMatrix,
    _gamma_cols,
    beta_product_draws,
    check_finite,
    dirichlet_draws,
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

# Most tensor nodes one dense evaluation or Mellin sum may build: (n nodes
# per dimension)**k.
# 1 << 22 admits the refined k=3 evaluation at n=64 (128**3 = 2**21).  A
# density with factors, and its operator image, is summed one dimension at
# a time, by the operators and by the Mellin sum alike, and builds no grid.
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
    is ``pdf``: factor j takes an array (of any shape) of coordinate-j
    values and returns one value per entry.  The operators then evaluate as
    a product of one-dimensional sums instead of a sum over the ``n^dim``
    tensor grid, the operator image (:func:`operator_image`) has factors
    too, and the Mellin transform is a product of one-dimensional sums.
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
    """Nodes and weights for one dimension of an operator integral, at one
    or more rule sizes.

    For an evaluation point ``u`` the dimension contributes, at each size,
    ``exp(top) * sum_i w_i * f(... v_i ...)`` (:meth:`_blocks`); the plan
    chooses between the plain Jacobi rule and the composite near/far-field
    split.  ``c`` is the pathway support factor a(1-q) (1 for the classical
    operators).  A plan takes an array of one dimension's coordinates at
    once (:meth:`sums`); :func:`_plan` keeps the plans built.

    ``sizes`` holds the node counts: ``(n,)`` for a batch, ``(2n, n)`` for
    a refined evaluation.  The sizes share one build and one factor call;
    their arrays hold each size's columns in turn (:class:`_Layout`), bit
    for bit what a plan of that size alone holds.
    """

    def __init__(self, kind: str, zeta: float, alpha: float, c: float, sizes: tuple[int, ...]):
        if kind not in ("second", "first"):
            raise UsageError(f"unknown operator kind {kind!r}")
        if kind == "first" and not zeta > 0.0:
            raise ParameterError("the first kind requires zeta > 0")
        for n in sizes:
            check_nodes(n)
        self.kind = kind
        self.zeta = z = float(zeta)
        self.alpha = float(alpha)
        self.c = float(c)
        self.sizes = tuple(int(n) for n in sizes)
        self.layout = _layout(self.sizes)
        # pathway prefactors: c^-zeta (second) or c^-(zeta+1) (first)
        self.extra_log = -(z if kind == "second" else z + 1.0) * math.log(self.c)

    @cached_property
    def _plain(self):
        """Nodes t, top log weights and weights divided by exp(top) of the
        plain rule, as the one row (shapes (1, nodes), (1, sizes) and
        (1, nodes)) that every plain-regime coordinate shares, with
        -lnGamma(alpha) and the pathway prefactor in the log weights.  The
        weight is (1-t)^(alpha-1) t^edge0; the second kind folds its 1/t
        into edge0 = zeta - 1 only where that exponent is above -1 in
        floating point, so for zeta <= 2^-54 (zeta = 0 included) edge0 =
        zeta and one power 1/t stays in the weights (nodes are interior)."""
        edge0 = self.zeta - 1.0 if self.kind == "second" else self.zeta
        keep_t = not edge0 > -1.0
        ts, tops, ws = [], [], []
        for n in self.sizes:
            rule = jacobi_rule(n, self.alpha - 1.0, self.zeta if keep_t else edge0)
            logw = _log_weights(rule)
            if keep_t:
                logw = logw - np.log(rule.nodes)
            logw = logw + rule.log_mass - math.lgamma(self.alpha) + self.extra_log
            tops.append(np.max(logw))
            ts.append(rule.nodes)
            ws.append(np.exp(logw - tops[-1]))
        t, top, w = np.concatenate(ts), np.array([tops]), np.concatenate(ws)[None]
        for a in (t, top, w):
            a.setflags(write=False)
        return t, top, w

    @cached_property
    def _near_rules(self):
        """The near field's point-independent arrays: the edge nodes as
        multiples of u (1 + t), the edge log weights with the rule's log
        mass and -lnGamma(alpha), and their layout; the index j of each tail
        node on its w-grid (w = LO + j * step), its layout, and each size's
        last tail column."""
        lga = math.lgamma(self.alpha)
        edges = [jacobi_rule(n // 2, 0.0, self.alpha - 1.0) for n in self.sizes]
        tail = _layout(tuple(n - len(e.nodes) for n, e in zip(self.sizes, edges)))
        edge_v = np.concatenate([1.0 + e.nodes for e in edges])
        edge_logw = np.concatenate([_log_weights(e) + e.log_mass - lga for e in edges])
        tail_j = np.concatenate([np.arange(m, dtype=float) for m in tail.lengths])
        ends = np.array([cut.stop - 1 for cut in tail.cuts])
        for a in (edge_v, edge_logw, tail_j, ends):
            a.setflags(write=False)
        return edge_v, edge_logw, _layout(tuple(len(e.nodes) for e in edges)), tail_j, tail, ends

    @cached_property
    def _far_rules(self):
        """The far field's point-independent arrays: the edge nodes as
        multiples of u (1 - t/2), the edge log weights, each edge node's
        rule log mass, and the edge node counts; the semi-axis tail's rows
        (x, (zeta+1) log x, log w, -x), its log x, and each size's first
        tail column."""
        edges, tails = [], []
        for n in self.sizes:
            edges.append(jacobi_rule(min(max(4, n // 4), n - 4), 0.0, self.alpha - 1.0))
            # node variable is c*v, so the layout sits at scale c
            tails.append(semiaxis_log_rule(n - len(edges[-1].nodes), "exp", math.log(self.c)))
        edge_v = np.concatenate([1.0 - 0.5 * e.nodes for e in edges])
        edge_logw = np.concatenate([_log_weights(e) for e in edges])
        edge_mass = np.concatenate([np.full(len(e.nodes), e.log_mass) for e in edges])
        log_x, log_w = (np.concatenate(a) for a in zip(*tails))
        x = np.exp(log_x)
        tail = np.array([x, (self.zeta + 1.0) * log_x, log_w, -x])
        for a in (edge_v, edge_logw, edge_mass, tail, log_x):
            a.setflags(write=False)
        starts = _layout(tuple(len(a) for a, _ in tails)).starts
        return edge_v, edge_logw, edge_mass, tuple(len(e.nodes) for e in edges), tail, log_x, starts

    # The split regimes take an array of coordinates; row i of their nodes
    # and log weights is what one coordinate alone gets, bit for bit, at
    # every size.  The per-coordinate scalars go through math, as for one
    # coordinate, and numpy takes only the arithmetic of whole rows, with
    # every size's columns in one array.

    def _near_second(self, u: np.ndarray):
        """Second kind for coordinates u with c*u below :data:`_NEAR_FIELD`,
        as one (rows, nodes, log weights, layout) block (see :meth:`_far_first`).

        Edge part: v in (u, 2u) with the kernel power exact; tail part:
        v in (2u, inf) on scale-adapted nodes with a double-exponentially
        damped approach to 2u.  A coordinate so small that 350/(c*u)
        overflows (or c*u underflows) is a DomainError: the tail would
        reach v = inf.
        """
        z, a = self.zeta, self.alpha
        edge_v, edge_logw, edge, tail_j, tail, ends = self._near_rules
        lga = math.lgamma(a)
        u_eff = self.c * u
        cols = []
        for x, point in zip(u_eff.tolist(), u.tolist()):
            if x == 0.0 or 350.0 / x == math.inf:
                raise DomainError(f"second-kind evaluation point {point} is too small: "
                                  f"its near-field tail grid would reach v = inf")
            lu = math.log(x)
            # each size's w-grid is np.linspace(LO, w_hi, m), reaching past v = 350
            w_hi = max(_EXP_SINH_HI, math.log(350.0 / x))
            row = [(z + a) * lu, z * lu - lga, math.log(2.0 * x), 2.0 * x, w_hi]
            for m in tail.lengths:
                step = (w_hi - _EXP_SINH_LO) / (m - 1)
                row += step, math.log((step + _EXP_SINH_LO) - _EXP_SINH_LO)
            cols.append(row)
        table = np.array(cols)
        lu_za, lu_z, log_2u, two_u, w_hi = table.T[:5, :, None]
        u_col = u_eff[:, None]
        v_edge = u_col * edge_v
        # tail nodes: v = 2u (1 + e^(w - e^-w))
        w = tail_j * _spread(table[:, 5::2], tail)
        w += _EXP_SINH_LO
        w[:, ends] = w_hi
        e_neg = np.exp(-w)
        e = np.exp(w - e_neg)
        v_tail = two_u * (1.0 + e)
        log_dv = log_2u + np.log(e) + np.log1p(e_neg) + _spread(table[:, 6::2], tail)
        v = _interleave(v_edge, edge, v_tail, tail)
        # both parts end in - (z + a) log v, taken once for all nodes
        logw = _interleave(edge_logw + lu_za, edge,
                           lu_z + log_dv + (a - 1.0) * np.log(v_tail - u_col), tail)
        logw -= (z + a) * np.log(v)
        logw += self.extra_log
        return [(slice(0, len(u)), v, logw, self.layout)]

    def _far_first(self, u: np.ndarray):
        """First kind for values u above :data:`_FAR_FIELD` * c, as a list
        of (rows, nodes, log weights, layout) blocks: row i of a block belongs
        to ``u[rows][i]``, and a block holds the values that keep the same
        number of tail nodes at every size.

        Tail part: v in (0, u/2) on scale-adapted semi-axis nodes (the
        kernel is smooth there); edge part: v in (u/2, u) with the kernel
        power exact (the density is exponentially small there).
        """
        z, a = self.zeta, self.alpha
        edge_v, edge_logw, edge_mass, n_edge, tail, log_x, tail_starts = self._far_rules
        lga, log2 = math.lgamma(a), math.log(2.0)
        cols = []
        for x in u.tolist():
            lu = math.log(x)
            cols.append((lu, -(z + a) * lu - lga, lu - log2, a * (lu - log2)))
        lu, base, lu_half, edge_top = np.array(cols).T[:, :, None]
        u_col = u[:, None]
        v_edge = u_col * edge_v
        logw_edge = base + edge_logw + edge_mass + z * np.log(v_edge) + edge_top
        # each size's tail nodes increase, so the kept ones are a prefix
        groups = {}
        for i, kept in enumerate(np.add.reduceat(log_x < lu_half, tail_starts, axis=1).tolist()):
            groups.setdefault(tuple(kept), []).append(i)
        blocks = []
        for kept, rows in sorted(groups.items()):
            rows = _run(rows)
            tail_cols, tail_part, edge, layout = _far_layout(tail_starts, n_edge, kept)
            x_tail, zeta_log_x, log_w, neg_x = tail[:, tail_cols]
            logw_tail = (base[rows] + zeta_log_x
                         + (a - 1.0) * (lu[rows] + np.log1p(neg_x / u_col[rows])) + log_w)
            x_tail = np.broadcast_to(x_tail, logw_tail.shape)
            v = _interleave(x_tail, tail_part, v_edge[rows], edge)
            logw = _interleave(logw_tail, tail_part, logw_edge[rows], edge)
            logw += self.extra_log
            blocks.append((rows, v / self.c, logw, layout))
        return blocks

    def _blocks(self, u: np.ndarray) -> list[tuple]:
        """(rows, nodes, top log weights, weights, layout) blocks for an
        array of checked coordinates: row i of a block belongs to
        ``u[rows][i]``, and its columns ``layout.cuts[s]`` hold size s's
        nodes and weights divided by exp(top[i, s]).  The plain block's
        rows share its one row, cached by the plan.  Each rule is fetched
        once, when a coordinate first needs its regime."""
        second, c = self.kind == "second", self.c
        split = [c * x < _NEAR_FIELD for x in u.tolist()] if second else \
            [x > _FAR_FIELD * c for x in u.tolist()]
        n_split = sum(split)
        blocks = []
        if n_split:
            rows = _rows(split, True, n_split)
            for r, v, logw, layout in (self._near_second if second else self._far_first)(u[rows]):
                top = np.maximum.reduceat(logw, layout.starts, axis=1)
                logw -= _spread(top, layout)
                blocks.append((_within(rows, r), v, top, np.exp(logw, out=logw), layout))
        if n_split < len(u):
            # plain: v = c*u/t (second kind) or u*t/c (first; nodes on (0, u/c))
            rows = _rows(split, False, len(u) - n_split)
            t, top, w = self._plain
            u_col = u[rows, None]
            blocks.append((rows, c * u_col / t if second else u_col * t / c, top, w, self.layout))
        return blocks

    def nodes_weights(self, u: float) -> list[tuple[np.ndarray, float, np.ndarray]]:
        """Per size, the nodes, top log weight and weights divided by
        exp(top) of one coordinate."""
        coords = np.array([u], dtype=float)
        _check_coordinates(coords)
        (_, v, top, w, layout), = self._blocks(coords)
        return [(v[0, cut], float(top[0, s]), w[0, cut]) for s, cut in enumerate(layout.cuts)]

    def sums(self, u: np.ndarray, factor: Callable[[np.ndarray], np.ndarray]):
        """(sums, top log weights), each of shape (coordinates, sizes), for
        an array of checked coordinates: the sum of ``factor`` over each
        coordinate's nodes with the weights of its :meth:`_blocks` row, at
        each size.  One factor call per block, on every size's nodes; the
        rows are summed by ``np.vecdot``, whose per-row order is that of one
        coordinate alone (a matrix product's is not)."""
        sums, tops = np.empty((len(u), len(self.sizes))), np.empty((len(u), len(self.sizes)))
        for rows, v, top, w, layout in self._blocks(u):
            vals = _density_values(factor, v, v.shape)
            for s, (x, y) in enumerate(zip(_columns(vals, layout), _columns(w, layout))):
                sums[rows, s] = np.vecdot(x, y)
            tops[rows] = top
        return sums, tops


class _Layout(NamedTuple):
    """Where each rule size's columns sit in an array that holds every
    size's columns in turn: a column slice, first column and length per
    size.  With one size the helpers below take such arrays whole."""

    cuts: tuple[slice, ...]
    starts: tuple[int, ...]
    lengths: tuple[int, ...]


@lru_cache(maxsize=1024)
def _layout(lengths: tuple[int, ...]) -> _Layout:
    ends = tuple(itertools.accumulate(lengths))
    starts = tuple(end - m for end, m in zip(ends, lengths))
    return _Layout(tuple(map(slice, starts, ends)), starts, lengths)


def _spread(cols: np.ndarray, layout: _Layout) -> np.ndarray:
    """Per-size columns (rows, sizes), each repeated over its size's columns."""
    return cols if len(layout.lengths) == 1 else np.repeat(cols, layout.lengths, axis=1)


def _columns(a: np.ndarray, layout: _Layout):
    """Each size's columns of ``a``."""
    return (a,) if len(layout.lengths) == 1 else [a[:, cut] for cut in layout.cuts]


def _interleave(a: np.ndarray, a_layout: _Layout, b: np.ndarray, b_layout: _Layout) -> np.ndarray:
    """Each size's columns of ``a`` and then of ``b``, size after size."""
    if len(a_layout.lengths) == 1:
        return np.concatenate([a, b], axis=1)
    return np.concatenate([x for ca, cb in zip(a_layout.cuts, b_layout.cuts)
                           for x in (a[:, ca], b[:, cb])], axis=1)


@lru_cache(maxsize=1024)
def _far_layout(tail_starts: tuple[int, ...], n_edge: tuple[int, ...], kept: tuple[int, ...]):
    """(tail columns, tail layout, edge layout, block layout) of a far-field
    block keeping the first ``kept[s]`` tail nodes of size s: the columns
    select them from the plan's tail rows, and the block holds each size's
    kept tail and then its edge."""
    if len(kept) == 1:
        cols = slice(kept[0])
    else:
        cols = np.concatenate([np.arange(s, s + m) for s, m in zip(tail_starts, kept)])
        cols.setflags(write=False)
    return cols, _layout(kept), _layout(n_edge), _layout(tuple(map(sum, zip(kept, n_edge))))


def _rows(mask: list[bool], value: bool, count: int):
    """Selector of the ``count`` rows where ``mask`` is ``value``: a slice
    when they are consecutive, as a regime's rows of sorted coordinates
    are, else an index array."""
    if count == len(mask):
        return slice(0, count)
    rows = [i for i, x in enumerate(mask) if x is value]
    return _run(rows)


def _run(rows: list[int]):
    """Selector of ascending row indices (see :func:`_rows`)."""
    if rows[-1] - rows[0] + 1 == len(rows):
        return slice(rows[0], rows[-1] + 1)
    return np.array(rows)


def _within(rows, r):
    """The selector of rows ``r`` of the rows ``rows`` (each a slice from
    :func:`_run` or an index array)."""
    if not isinstance(rows, slice):
        return rows[r]
    if isinstance(r, slice):
        return slice(rows.start + r.start, rows.start + r.stop)
    return r + rows.start


# a plan's arrays are read-only, so one plan serves every evaluation with
# its parameters, each rule built once, when a coordinate first needs it
_plan = lru_cache(maxsize=256)(_DimQuad)


def _log_weights(rule) -> np.ndarray:
    """Log of a rule's normalized weights.  They may underflow to exact
    zeros at extreme exponents; their log is -inf and drops out of the
    final sums."""
    with np.errstate(divide="ignore"):
        return np.log(rule.weights_unit)


def _check_coordinates(u: np.ndarray) -> None:
    """DomainError naming the first coordinate of ``u`` (in C order) that
    is not finite and positive."""
    bad = next((x for x in u.ravel().tolist() if not 0.0 < x < math.inf), None)
    if bad is not None:
        raise DomainError(f"operator evaluation points must be finite and positive, got {bad}")


def _zeta_alpha_c(p) -> tuple[float, float, float]:
    """Operator zeta, alpha and support factor of one dimension's parameters."""
    if isinstance(p, PathwayDimParams):
        return (p.zeta,) + p.beta_law[1:]
    return p.zeta, p.alpha, 1.0


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


def _scaled(totals: Sequence[float], log_sums: Sequence[float], log_shift: float) -> np.ndarray:
    """Each total times exp(its ``log_sums`` entry, the fsum of the
    dimensions' top log weights, minus ``log_shift``), or OverflowError
    when a value leaves the float range."""
    out = []
    for total, log_sum in zip(totals, log_sums):
        log_scale = log_sum - log_shift
        value = total * math.exp(log_scale) if log_scale < _LOG_FLOAT_MAX else math.inf
        if not math.isfinite(value):
            raise OverflowError(f"operator value overflows the float range (log prefactor {log_scale:.6g})")
        out.append(value)
    return np.array(out)


def _dense_point(plans: Sequence[_DimQuad], point: Sequence[float],
                 pdf: Callable[[np.ndarray], np.ndarray]) -> list[tuple[float, float]]:
    """Per rule size, (unscaled total, fsum of top log weights) of the
    operator at one point: the sum of ``pdf`` over the tensor grid of the
    dimensions' nodes."""
    out = []
    for dims in zip(*(plan.nodes_weights(u) for plan, u in zip(plans, point))):
        nodes, scales, weights = zip(*dims)
        pts = np.stack(np.meshgrid(*nodes, indexing="ij"), axis=-1)
        acc = _density_values(pdf, pts, pts.shape[:-1])
        for w in reversed(weights):
            acc = np.tensordot(acc, w, axes=([-1], [0]))
        out.append((float(acc), math.fsum(scales)))
    return out


def _separable_parts(plans: Sequence[_DimQuad], points: np.ndarray,
                     factors: Sequence[Callable[[np.ndarray], np.ndarray]]) -> list[tuple]:
    """Per rule size, (unscaled totals, fsums of top log weights) of the
    operator at the (m, k) points of a product density: per point, the
    product of one weighted factor sum per dimension, in dimension order.

    Sum j depends on coordinate j alone, so each dimension sums its
    distinct coordinates once, in one batch, and a tensor grid of points
    costs one sum per grid line.  Every coordinate is checked before any
    factor is called, so a bad coordinate is a DomainError ahead of a
    density error.
    """
    _check_coordinates(points)
    totals, tops = None, []
    for plan, factor, u in zip(plans, factors, points.T):
        if len(u) == 1:
            s, top = plan.sums(u, factor)
        else:
            distinct, inverse = np.unique(u, return_inverse=True)
            s, top = (a[inverse] for a in plan.sums(distinct, factor))
        totals = s if totals is None else totals * s
        tops.append(top.T.tolist())
    return [(total, [math.fsum(scales) for scales in zip(*size_tops)])
            for total, *size_tops in zip(totals.T.tolist(), *tops)]


def _sized_parts(kind: str, params, f: MultiDensity, points: np.ndarray,
                 sizes: tuple[int, ...]) -> list[tuple[list, list]]:
    """:func:`_eval_parts` at each rule size of ``sizes``, in one pass:
    each dimension builds the nodes of every size at once and makes one
    factor call for them.  The dense path checks the largest grid against
    the budget before it builds any."""
    k = len(params)
    if k != f.dim:
        raise ShapeError(f"density dimension {f.dim} != parameter count {k}")
    if points.shape[-1] != k:
        raise ShapeError(f"points must have {k} coordinates")
    plans = [_plan(kind, *_zeta_alpha_c(p), sizes) for p in params]
    if f.factors is not None:
        return _separable_parts(plans, points, f.factors)
    check_grid(max(sizes), k)
    parts = [_dense_point(plans, pt, f.pdf) for pt in points.tolist()]
    return [([p[s][0] for p in parts], [p[s][1] for p in parts]) for s in range(len(sizes))]


def _eval_parts(kind: str, params, f: MultiDensity, points: np.ndarray,
                n: int) -> tuple[list, list]:
    """The part of the operator's values at (m, k) points that does not
    depend on a density constant: each point's unscaled total and the fsum
    of its top log weights.  :func:`_scaled` finishes a value from them, so
    a caller that keeps them (``mc_oracle``'s negative controls) rescales
    without summing again."""
    return _sized_parts(kind, params, f, points, (n,))[0]


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
    out = _scaled(*_eval_parts(kind, params, f, points, n), log_shift)
    return out[0] if single else out


def _operator_result(kind: str, params, f: MultiDensity, u,
                     n: int, refine: bool) -> OperatorResult:
    u = np.atleast_1d(np.asarray(u, float))
    single = u.ndim == 1
    if refine and n < _MIN_NODES <= 2 * n:
        # a refinement below the node minimum fails as two passes would:
        # the 2n evaluation's faults come before the refusal of n
        eval_many(kind, params, f, u, 2 * n)
    # the 2n rule goes first, so an over-budget refinement fails before
    # any grid is built; both sizes share each dimension's node build and
    # factor call, and each is finished on its own, 2n first
    sizes = (2 * n, n) if refine else (n,)
    values = []
    for parts in _sized_parts(kind, params, f, u[None, :] if single else u, sizes):
        out = _scaled(*parts, 0.0)
        values.append(float(out[0] if single else out))
    value = values[-1]
    err = abs(value - values[0]) if refine else None
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
    object (used by Mellin checks and operator composition).

    When ``f`` has factors, so has the image: the operator acts on each
    coordinate alone, and factor j is the one-dimensional operator of
    dimension j applied to f's factor j.
    """
    params = tuple(params)
    k = len(params)
    if k != f.dim:
        raise ShapeError(f"density dimension {f.dim} != parameter count {k}")

    def pdf(pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        flat = pts.reshape(-1, k)
        vals = eval_many(kind, params, f, flat, n)
        return np.asarray(vals).reshape(pts.shape[:-1])

    def factor(p, f_j: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
        def image_j(x: np.ndarray) -> np.ndarray:
            x = np.asarray(x, dtype=float)
            plan = _plan(kind, *_zeta_alpha_c(p), (n,))
            (parts,) = _separable_parts([plan], x.reshape(-1, 1), (f_j,))
            return _scaled(*parts, 0.0).reshape(x.shape)
        return image_j

    tail = "exp" if (kind == "second" and f.tail == "exp") else "algebraic"
    return MultiDensity(dim=k, pdf=pdf, tail=tail, name=f"{kind}-kind image of {f.name or 'f'}",
                        factors=None if f.factors is None else tuple(map(factor, params, f.factors)))


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


# first - zeta of a mixing beta: u = y * v with y ~ Beta(zeta + 1, alpha)
# has the second-kind operator, u = v / y with y ~ Beta(zeta, alpha) the first
_FIRST_SHIFT = {"second": 1.0, "first": 0.0}


@dataclass(frozen=True)
class MixingLaw:
    """The law of an identity's mixing coordinates y: column j is
    Beta(first, second)/c for the triple ``triples[j]``, independent
    across j.  ``dims``, the operator's per-dimension records, is set
    where the family states them; else every c is 1 and dimension j is
    ``DimParams(first - shift, second)``.  ``dirichlet`` is set for
    1.2/2.4, whose mixing vector is a type-1 Dirichlet: y is the
    triangular map of its draws, and the triples are the laws of those
    ratio coordinates."""

    kind: str
    triples: tuple[tuple[float, float, float], ...]
    dims: tuple | None = None
    dirichlet: DirichletParams | None = None

    def draw(self, gen: np.random.Generator, count: int) -> np.ndarray:
        """``count`` rows of y from ``gen``."""
        if self.dirichlet is not None:
            return transforms.forward(dirichlet_draws(gen, count, self.dirichlet))
        return beta_product_draws(gen, count, self.triples)

    def setup(self):
        """(kind, operator dims, log constant), the constant being
        ``prod Gamma(first) c^-first / Gamma(first + second)``."""
        if not all(f > 0.0 and s > 0.0 for f, s, _ in self.triples):
            raise ParameterError(f"mixing beta laws (first, second, c) need positive "
                                 f"first and second, got {self.triples}")
        dims = self.dims or tuple(DimParams(f - _FIRST_SHIFT[self.kind], s) for f, s, _ in self.triples)
        # keep this order of operations: reports depend on the constant bit for bit
        log_c = sum(math.lgamma(f) - f * math.log(c) - math.lgamma(f + s)
                    for f, s, c in self.triples)
        return self.kind, dims, log_c


@dataclass(frozen=True)
class Identity:
    """One catalogued identity: with f-draws v and mixing draws y
    (:meth:`law`), u = y * v (second kind) or v / y (first kind) has the
    density ``kind`` operator(f) / :func:`identity_setup` constant.
    ``defaults``: the family's field values for k <= 3.  ``printed`` maps
    the family record and the derived (first, second) pairs to the
    source's as-printed reading, which ``printed_note`` describes."""

    kind: str
    family: Family
    defaults: dict
    printed: Callable | None = None
    printed_note: str = ""
    notes: tuple[str, ...] = ()

    @property
    def combine(self) -> str:
        step = "product" if self.kind == "second" else "ratio"
        return step if self.family.per_dim else "transformed-" + step

    def law(self, params) -> MixingLaw:
        """The mixing law of the family record ``params``: per dimension
        (zeta + shift, alpha, c) with the records themselves as the
        operator dims, or the ratio coordinates'
        :func:`~ekstat.transforms.ratio_beta_pairs`."""
        if self.family.per_dim:
            shift = _FIRST_SHIFT[self.kind]
            triples = tuple((z + shift, a, c) for z, a, c in map(_zeta_alpha_c, params))
            return MixingLaw(self.kind, triples, tuple(params))
        pairs = transforms.ratio_beta_pairs(params.alphas, params.betas)
        return MixingLaw(self.kind, tuple((f, s, 1.0) for f, s in pairs),
                         dirichlet=params if isinstance(params, DirichletParams) else None)


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
    "1.1": Identity("second", CLASSICAL, {"zeta": (0.5, 1.0, 0.8), "alpha": (1.5, 0.7, 1.2)}),
    "1.2": Identity("second", DIRICHLET, {"alphas": (0.5, 1.0, 0.5), "alpha_last": 2.0}),
    "1.3": Identity(
        "second", GEN_DIRICHLET, {"alphas": (0.5, 1.0, 0.5), "betas": (1.0, 2.0, 1.5)},
        _printed_1_3, "printed running sum stops one alpha term early"),
    "1.4": Identity(
        "second", PATHWAY, {**_PATHWAY_DEFAULTS, "zeta": (0.0, 0.8, 0.5)},
        notes=("second-kind pathway kernel includes the inverse power "
               "v^-(zeta + eta/(1-q) + 1) from the product construction; the "
               "density constant carries the factor [a(1-q)]^-(zeta+1) alongside "
               "the gamma ratio",)),
    "2.1": Identity("first", CLASSICAL, {"zeta": (1.5, 2.0, 1.2), "alpha": (1.0, 0.7, 1.3)}),
    "2.3": Identity(
        "first", PATHWAY, {**_PATHWAY_DEFAULTS, "zeta": (1.5, 1.0, 2.0)},
        notes=("first-kind pathway upper limit is u/(a(1-q)), where the kernel "
               "factor u - a(1-q)v vanishes; the alternative reading "
               "u/(1-a(1-q)) is sign-indefinite for a(1-q) >= 1 and is not used",
               "the density constant carries the factor [a(1-q)]^-zeta alongside "
               "the gamma ratio")),
    # sampling exponents: the catalogued alphas (2, 3, 2) minus one
    "2.4": Identity(
        "first", DIRICHLET, {"alphas": (1.0, 2.0, 1.0), "alpha_last": 1.0},
        _printed_2_4, "printed second parameters omit the final simplex "
        "exponent; the last pair degenerates to zero there"),
    "2.5": Identity(
        "first", GEN_DIRICHLET, {"alphas": (1.0, 2.0, 1.0), "betas": (1.0, 2.0, 1.5)},
        _printed_2_5, "printed and derivation-consistent parameter sums coincide"),
}
IDENTITY_IDS = tuple(IDENTITIES)


def identity_record(theorem: str) -> Identity:
    if theorem not in IDENTITIES:
        raise UsageError(f"unknown identity id {theorem!r}; expected one of {IDENTITY_IDS}")
    return IDENTITIES[theorem]


def identity_setup(theorem: str, params):
    """Operator kind, per-dimension parameters, and log density constant
    for one catalogued operator-density identity.

    ``params`` is the record of the identity's mixing family in
    :data:`IDENTITIES`; a per-dimension family's records are the operator
    dims as given (see :class:`MixingLaw`).  The constant is the factor c
    with ``c * (joint density of u) = operator applied to f``; for the
    pathway identities it carries the support-scale power
    ``[a(1-q)]^(zeta+1)`` (second kind) or ``[a(1-q)]^zeta`` (first kind)
    alongside the gamma ratio.
    """
    rec = identity_record(theorem)
    fam = rec.family
    records = params if fam.per_dim and isinstance(params, (tuple, list)) else [params]
    if not all(isinstance(p, fam.params_type) for p in records):
        raise UsageError(f"identity {theorem} takes {fam.params_type.__name__} parameters")
    return rec.law(params).setup()


# ---------------------------------------------------------------------------
# fused predicted densities
# ---------------------------------------------------------------------------

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
            inside = x > 0.0
            if inside.all():  # operator and Mellin nodes always are
                return np.exp(log_pdf(x, j))
            return np.where(inside, np.exp(log_pdf(np.where(inside, x, 1.0), j)), 0.0)
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
