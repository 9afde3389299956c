"""Monte Carlo verification of the operator-density identities.

Each catalogued identity states that a specific operator applied to an
arbitrary joint density f equals a known constant times the joint density
of a vector u built from f-draws and an independent mixing vector.  The
engine simulates that construction exactly, estimates the density of u
with axis-aligned box counts (exact binomial standard errors), evaluates
the predicted density ``operator / constant`` by quadrature, and compares
the two probe by probe.

Identities whose mixing-parameter formulas admit two readings (1.3, 2.4,
2.5) are adjudicated: both candidate parameter sets are scored against the
same empirical sample and the report names the one that satisfies the
identity.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import transforms
from .densities import (
    DirichletParams,
    SampleMatrix,
    beta_product_draws,
    dirichlet_draws,
)
from .errors import ParameterError, ShapeError, SizeError, UsageError
from .kober import (
    IDENTITY_IDS,
    MultiDensity,
    check_nodes,
    eval_many,
    gamma_product,
    identity_record,
    identity_setup,
    setup_from_triples,
)
from .quadrature import DEFAULT_NODES
from .streams import map_rows


def _removed_sampler(*args, **kwargs):
    raise NotImplementedError("this sampler was removed; simulate draws through streams.map_rows")


# ``simulate`` draws through ``densities._gamma_cols`` and
# ``streams.map_rows``; nothing in the library calls ``gammaincinv``,
# ``beta_from_uniforms`` or ``uniform_block_parallel``.  Only
# benchmarks/tracing.py looks those three names up here, to patch them, so
# they are served on lookup: ``gammaincinv`` as scipy's (imported only
# then), the other two as a stub that raises if called.
def __getattr__(name: str):
    if name == "gammaincinv":
        from scipy.special import gammaincinv
        return gammaincinv
    if name in ("beta_from_uniforms", "uniform_block_parallel"):
        return _removed_sampler
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


MAX_VERIFY_DIM = 3

# quantile levels of the probe grid; the report's probes depend on these
# bit for bit, and linspace's second level is 0.30000000000000004, not 0.3
_PROBE_LEVELS = np.linspace(0.1, 0.9, 5)
_BANDWIDTH_FRAC = {1: 0.02, 2: 0.07, 3: 0.12}

# pass policy: at least this fraction of probes within 4 SE, none beyond 6
_PASS_FRACTION = 0.95
_SOFT_Z = 4.0
_HARD_Z = 6.0


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremSpec:
    """One identity check: id, mixing parameters, and the density f.

    ``params`` is the parameter record of the identity's mixing family (see
    :data:`ekstat.kober.IDENTITIES`).  For 2.4/2.5 the record holds the
    actual sampling exponents (the catalogued parameters shifted down by
    one).
    """

    theorem: str
    params: object
    f: MultiDensity

    def __post_init__(self):
        identity_setup(self.theorem, self.params)  # validates eagerly
        if self.k != self.f.dim:
            raise ShapeError(
                f"identity {self.theorem} has {self.k} parameter dimensions "
                f"but the density has {self.f.dim}"
            )

    @property
    def k(self) -> int:
        return identity_record(self.theorem).family.dim(self.params)


def default_density(k: int) -> MultiDensity:
    """Product-gamma reference density with shapes 2, 3, 4, ..."""
    return gamma_product(tuple(float(2 + j) for j in range(k)))


def make_spec(theorem: str, k: int, params=None, f: MultiDensity | None = None) -> TheoremSpec:
    """A ready-to-run spec, with the identity's default parameters when
    ``params`` is None."""
    if k < 1:
        raise ParameterError("dimension must be at least 1")
    if params is None:
        rec = identity_record(theorem)
        family = rec.family
        params = family.build({name: v if name in family.scalars else v[:k]
                               for name, v in rec.defaults.items()})
        if family.dim(params) != k:
            raise SizeError(f"identity {theorem} has default parameters for "
                            f"k <= {family.dim(params)} only")
    return TheoremSpec(theorem=theorem, params=params, f=f or default_density(k))


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def simulate(spec: TheoremSpec, n: int, seed: int, workers: int = 1) -> SampleMatrix:
    """Draws of the combined vector u, exactly per the identity's construction.

    Each block of rows draws the mixing vector x first and then the
    f-draw v, from the block's generator.  The ratio coordinates y are x,
    or the triangular map of x for a triangular identity, whose betas are
    drawn as the ratio coordinates of x; u is y * v (second kind) or v / y
    (first kind).  Every stage is row-wise, so each block runs the whole
    construction on its own generator.
    """
    if spec.f.from_uniforms is None:
        raise UsageError("the identity's density f carries no sampler")
    rec = identity_record(spec.theorem)
    dirichlet = isinstance(spec.params, DirichletParams)
    triples = None if dirichlet else rec.beta(spec.params).triples

    def rows(gen, count):
        if dirichlet:
            x = dirichlet_draws(gen, count, spec.params)
        else:
            x = beta_product_draws(gen, count, triples)
            x = transforms.inverse(x) if rec.triangular else x
        v = spec.f.from_uniforms(gen, count)
        y = transforms.forward(x) if rec.triangular else x
        return y * v if rec.kind == "second" else v / y

    return SampleMatrix(map_rows(rows, seed, n, spec.k, workers), seed)


# ---------------------------------------------------------------------------
# histogram estimation
# ---------------------------------------------------------------------------

def _sorted_columns(data) -> list[np.ndarray]:
    """Each column of the (n, k) sample sorted ascending, NaN last."""
    return [np.sort(data[:, j]) for j in range(data.shape[1])]


_SIGN_BIT = 1 << 63


def _float_key(x: float) -> int:
    """Position of ``x`` in the order of the floats: monotone in x, 0 for both zeros."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & (_SIGN_BIT - 1))


def _key_float(key: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", key if key >= 0 else -key | _SIGN_BIT))[0]


def _box_edges(c: float, r: float) -> tuple[float, float]:
    """Floats lo, hi such that ``lo <= x <= hi`` holds exactly when
    ``abs(x - c) <= r`` does, for every float x; (inf, -inf) when no x does.

    fl(x - c) is monotone in x, so the x that qualify form one run of the
    float order.  Each end of the run is found by bisection over the floats'
    ordered bit patterns, in at most 64 steps.  Stepping one float at a
    time from c +- r can take about 2^62 steps: for c = -0.25 and r = 0.25,
    c + r == 0 and the upper end is 2^-55, past every subnormal.
    """
    def inside(key):
        return abs(_key_float(key) - c) <= r

    start = next((_float_key(x) for x in (c, 0.0) if abs(x - c) <= r), None)
    if start is None:   # c or r is NaN, r < 0, or c is infinite and r finite
        return math.inf, -math.inf

    def end(a, b):  # the key of the last qualifying float from a toward b
        if inside(b):
            return b
        while abs(b - a) > 1:
            m = (a + b) // 2
            a, b = (m, b) if inside(m) else (a, m)
        return a

    return (_key_float(end(start, _float_key(-math.inf))),
            _key_float(end(start, _float_key(math.inf))))


def _check_rows(n: int) -> None:
    if n < 10_000:
        raise UsageError("histogram estimation needs at least 1e4 samples")


def histogram_estimate(samples, probes, bandwidths, *, _sorted_cols=None):
    """Box-kernel density estimates with exact binomial standard errors.

    For each probe the estimate is (count inside the axis-aligned box of
    the given full edge lengths) / (n * volume); the standard error is
    sqrt(p(1-p)/n) / volume.  Empty boxes are flagged and get the standard
    error of a single count.

    A row x lies in probe p's box when ``abs(x_j - p_j) <= h_j / 2`` in
    every dimension j.  Each distinct (j, p_j) becomes float edges with
    ``lo <= x_j <= hi`` exactly when that test holds (:func:`_box_edges`),
    so NaN and infinite coordinates are never counted.  At k = 1 a count is
    two binary searches in the sorted column (``_sorted_cols``, the output
    of :func:`_sorted_columns`, which ``verify`` shares with
    :func:`default_probes`; sorted here when absent).  At k >= 2 one pass
    per distinct first coordinate picks that slab's rows, and each further
    dimension is tested on the rows kept so far only.

    Returns (estimates, standard errors, low-count flags).
    """
    data = samples.data if isinstance(samples, SampleMatrix) else np.asarray(samples, dtype=float)
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    h = np.asarray(bandwidths, dtype=float)
    if data.ndim != 2 or probes.shape[1] != data.shape[1] or h.shape != (data.shape[1],):
        raise ShapeError("samples (n,k), probes (P,k) and bandwidths (k,) must agree")
    n, k = data.shape
    _check_rows(n)
    volume = float(np.prod(h))

    # edges once per dimension and distinct coordinate; group[i, j] names
    # probe i's coordinate among dimension j's distinct ones
    lo, hi = np.empty_like(probes), np.empty_like(probes)
    group = np.empty(probes.shape, dtype=np.intp)
    for j in range(k):
        coords, group[:, j] = np.unique(probes[:, j], return_inverse=True)
        edges = np.array([_box_edges(float(c), float(h[j] / 2.0)) for c in coords]).reshape(-1, 2)
        lo[:, j], hi[:, j] = edges[group[:, j]].T

    if k == 1:
        col = np.sort(data[:, 0]) if _sorted_cols is None else _sorted_cols[0]
        counts = np.maximum(np.searchsorted(col, hi[:, 0], side="right")
                            - np.searchsorted(col, lo[:, 0], side="left"), 0)
    else:
        counts = np.empty(probes.shape[0], dtype=np.int64)

        def count(cols, idx, j):
            # cols: dimensions j.. of the sample rows inside dimensions < j
            # of every box in idx, which share their coordinates there
            col, later = cols[0], cols[1:]
            # two masks per level, reused by its boxes: a fresh temporary
            # per box left about 10 MB more resident at verify's peak
            inside, below = np.empty(len(col), bool), np.empty(len(col), bool)
            for g in np.unique(group[idx, j]):
                sel = idx[group[idx, j] == g]
                np.greater_equal(col, lo[sel[0], j], out=inside)
                np.less_equal(col, hi[sel[0], j], out=below)
                np.logical_and(inside, below, out=inside)
                if later:
                    rows = np.flatnonzero(inside)
                    count([c[rows] for c in later], sel, j + 1)
                else:
                    counts[sel] = np.count_nonzero(inside)

        # a contiguous first column: its passes run over every row
        count([np.ascontiguousarray(data[:, 0])] + [data[:, j] for j in range(1, k)],
              np.arange(probes.shape[0]), 0)
    phat = counts / n
    low = counts == 0
    phat_se = np.where(low, 1.0 / n, phat)
    se = np.sqrt(phat_se * (1.0 - phat_se) / n) / volume
    return phat / volume, se, low


def _linear_quantiles(col, levels):
    """``np.quantile(col, levels)`` of a sorted column, for levels in [0, 1],
    bit for bit: numpy's "linear" rule with its top index bound, its
    two-sided ``_lerp`` (from b where the weight is at least 0.5) and NaN
    for a column holding NaN."""
    n = len(col)
    virtual = (n - 1) * levels
    prev = np.floor(virtual)
    nxt = prev + 1
    top = virtual >= n - 1
    prev[top] = nxt[top] = -1
    a, b = col[prev.astype(np.intp)], col[nxt.astype(np.intp)]
    t = virtual - prev
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    if np.isnan(col[-1]):
        out[:] = col[-1]
    return out


def default_probes(samples, *, _sorted_cols=None):
    """Interior probe grid and box bandwidths from sample quantiles.

    Probes sit at the 10..90 percent quantiles per dimension (tensor grid);
    bandwidths are a dimension-count-dependent fraction of the central 90
    percent range.  The quantiles are ``np.quantile``'s, read off the
    sorted columns (``_sorted_cols``, as from :func:`_sorted_columns`;
    sorted here when absent).
    """
    data = samples.data if isinstance(samples, SampleMatrix) else np.asarray(samples, dtype=float)
    k = data.shape[1]
    if k not in _BANDWIDTH_FRAC:
        raise SizeError(f"probe grids support at most {MAX_VERIFY_DIM} dimensions")
    cols = _sorted_columns(data) if _sorted_cols is None else _sorted_cols
    levels = np.concatenate([_PROBE_LEVELS, [0.05, 0.25, 0.75, 0.95]])
    qs = np.stack([_linear_quantiles(col, levels) for col in cols], axis=-1)
    qs, (lo, q25, q75, hi) = qs[:-4], qs[-4:]     # (levels, k), 4 x (k,)
    # robust scale: the central 90% range unless the tails dominate it
    scale = np.minimum(hi - lo, 2.7 * (q75 - q25))
    bandwidths = _BANDWIDTH_FRAC[k] * scale
    mesh = np.meshgrid(*[qs[:, j] for j in range(k)], indexing="ij")
    probes = np.stack([m.ravel() for m in mesh], axis=-1)
    return probes, bandwidths


# ---------------------------------------------------------------------------
# candidates for the adjudicated identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Candidate:
    """One parameter-set reading of an adjudicated identity."""

    label: str
    pairs: tuple[tuple[float, float], ...]
    kind: str
    note: str = ""

    @property
    def admissible(self) -> bool:
        return all(f > 0.0 and s > 0.0 for f, s in self.pairs)

    def setup(self):
        """(kind, operator dims, log constant) of this reading."""
        return setup_from_triples(self.kind, ((f, s, 1.0) for f, s in self.pairs))

    def dim_params(self):
        return self.setup()[1]


def identity_candidates(spec: TheoremSpec) -> list[Candidate]:
    """Derivation-consistent and as-printed parameter sets, for the
    identities whose source prints a second reading."""
    rec = identity_record(spec.theorem)
    laws = rec.beta(spec.params)
    if laws.printed is None:
        return []
    derived = tuple((f, s) for f, s, _ in laws.triples)
    return [Candidate("derivation-consistent", derived, rec.kind),
            Candidate("as-printed", laws.printed, rec.kind, note=laws.note)]


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CandidateResult:
    label: str
    pairs: tuple[tuple[float, float], ...]
    admissible: bool
    predicted: tuple[float, ...]
    z: tuple[float, ...]
    fraction_within_4se: float
    max_abs_z: float
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        return _fields_dict(self)


@dataclass(frozen=True)
class VerificationReport:
    """Structured outcome of one identity verification run."""

    theorem: str
    k: int
    n_samples: int
    seed: int
    n_nodes: int
    constant_scale: float
    density: str
    params: dict
    probes: tuple[tuple[float, ...], ...]
    bandwidths: tuple[float, ...]
    empirical: tuple[float, ...]
    se: tuple[float, ...]
    low_count: tuple[bool, ...]
    predicted: tuple[float, ...]
    z: tuple[float, ...]
    fraction_within_4se: float
    max_abs_z: float
    passed: bool
    candidates: tuple[CandidateResult, ...] = field(default_factory=tuple)
    adjudication_notes: str = ""
    notes: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        doc = _fields_dict(self)
        doc["candidates"] = [c.to_dict() for c in self.candidates]
        return doc


def _fields_dict(report) -> dict:
    """A report's fields in declaration order, with ``passed`` keyed as ``pass``."""
    return {("pass" if f.name == "passed" else f.name): getattr(report, f.name)
            for f in fields(report)}


def _params_echo(spec: TheoremSpec) -> dict:
    rec = identity_record(spec.theorem)
    p = spec.params
    values = {"dims": [asdict(d) for d in p]} if rec.family.per_dim else asdict(p)
    return {"combine": rec.combine, "family": rec.family.name, **values}


def _pass_policy(z: np.ndarray) -> tuple[float, float, bool]:
    absz = np.abs(z)
    fraction = float(np.mean(absz <= _SOFT_Z))
    max_abs = float(np.max(absz))
    return fraction, max_abs, bool(fraction >= _PASS_FRACTION and max_abs <= _HARD_Z)


_GL_BOX = np.polynomial.legendre.leggauss(3)


def _box_average(kind, dims, f, probes, bandwidths, n_nodes, log_shift):
    """Predicted density averaged over each probe's counting box.

    The box count estimates the integral of the density over the box, so
    the prediction must be the matching box average; comparing against the
    center value would re-introduce curvature bias.  Boxes reaching below
    the support boundary u_j = 0 are clipped exactly (the density of u
    vanishes there) and the average keeps the full box volume; a box
    entirely below it averages to 0.
    """
    nodes, wts = _GL_BOX
    k = probes.shape[1]
    lo = np.maximum(probes - bandwidths / 2.0, 0.0)
    hi = probes + bandwidths / 2.0
    kept = np.all(hi > lo, axis=1)
    out = np.zeros(probes.shape[0])
    if not kept.any():
        return out
    lo, hi = lo[kept], hi[kept]
    mass_fraction = functools.reduce(np.multiply, ((hi - lo) / bandwidths).T)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    axes = mid[..., None] + half[..., None] * nodes         # (boxes, k, 3)
    # the 3^k tensor rule in C order: node index per axis, weight per point
    grid = np.indices((len(nodes),) * k).reshape(k, -1).T
    wall = functools.reduce(np.multiply.outer, [wts / 2.0] * k).ravel()
    pts = axes[:, np.arange(k), grid]                       # (boxes, 3^k, k)
    # one call for every box: the boxes share their coordinates per
    # dimension, and eval_many sums each distinct coordinate once
    vals = eval_many(kind, dims, f, pts.reshape(-1, k), n_nodes, log_shift=log_shift)
    # vecdot sums each box in np.dot's order (a matrix product does not),
    # which keeps the reports' predictions bit for bit
    out[kept] = np.vecdot(vals.reshape(len(pts), -1), wall) * mass_fraction
    return out


def _sample_counts(samples: SampleMatrix, probes):
    """(probes, bandwidths, box counts) for ``verify``: the part that depends
    on the sample alone.

    The first call sorts the columns, once for the probe grid and the k = 1
    counts, and keeps the default grid and bandwidths on ``samples._memo``;
    the counts at that grid are kept the first time ``probes`` is None.  A
    negative control on the same draws then only scores its predictions.
    User ``probes`` are counted per call.  Nothing n-sized is kept.
    """
    _check_rows(samples.n)
    memo = samples._memo
    cols = None
    if "grid" not in memo:
        cols = _sorted_columns(samples.data)
        for j, col in enumerate(cols):
            if np.isnan(col[-1]):     # NaN sorts last
                raise ParameterError(f"sample column {j} holds "
                                     f"{len(col) - np.searchsorted(col, np.nan)} NaN rows")
        memo["grid"], memo["bandwidths"] = default_probes(samples, _sorted_cols=cols)
    grid, bandwidths = memo["grid"], memo["bandwidths"]
    points = grid if probes is None else np.atleast_2d(np.asarray(probes, dtype=float))
    if not np.all((points > 0.0) & (points < np.inf)):
        raise ParameterError("probes must be finite and lie in the interior of the positive orthant")
    if probes is not None:
        return points, bandwidths, histogram_estimate(samples, points, bandwidths, _sorted_cols=cols)
    if "counts" not in memo:
        memo["counts"] = histogram_estimate(samples, grid, bandwidths, _sorted_cols=cols)
    return grid, bandwidths, memo["counts"]


def verify(
    spec: TheoremSpec,
    probes=None,
    n_samples: int = 10**6,
    seed: int = 0,
    n_nodes: int = DEFAULT_NODES,
    constant_scale: float = 1.0,
    workers: int = 1,
    samples: SampleMatrix | None = None,
) -> VerificationReport:
    """Run one identity verification and assemble its report.

    ``constant_scale`` multiplies the density constant (a value other than
    1 is a deliberate corruption for negative-control checks).  ``samples``
    may carry a pre-simulated :class:`SampleMatrix` (with ``spec.k``
    coordinates and no NaN) to reuse draws across policy variations: its
    probe grid, bandwidths and box counts are computed once per sample and
    kept on it, so a later call on the same object only scores predictions.
    Box bandwidths always come from :func:`default_probes`, also for user
    ``probes``, whose boxes are counted per call.
    """
    if spec.k > MAX_VERIFY_DIM:
        raise SizeError(f"verification supports at most {MAX_VERIFY_DIM} dimensions")
    if not 0.0 < constant_scale < math.inf:
        raise ParameterError(f"constant_scale must be finite and positive, got {constant_scale}")
    check_nodes(n_nodes)
    if samples is None:
        samples = simulate(spec, n_samples, seed, workers)
    else:
        if samples.dim != spec.k:
            raise ShapeError(f"samples have {samples.dim} coordinates but identity "
                             f"{spec.theorem} is set up for k = {spec.k}")
        n_samples = samples.n
        seed = samples.seed
    probes, bandwidths, (empirical, se, low) = _sample_counts(samples, probes)
    scored = {}

    def score(setup):  # a reading equal to the identity's own is scored once
        if setup not in scored:
            kind, dims, log_c = setup
            pred = _box_average(kind, dims, spec.f, probes, bandwidths, n_nodes,
                                log_shift=log_c + math.log(constant_scale))
            z = (empirical - pred) / se
            scored[setup] = (pred, z, *_pass_policy(z))
        return scored[setup]

    predicted, z, fraction, max_abs, passed = score(identity_setup(spec.theorem, spec.params))

    cand_results = []
    adjudication = ""
    cands = identity_candidates(spec)
    if cands:
        for cand in cands:
            note = cand.note
            if cand.admissible:
                pred_c, z_c, frac_c, max_c, pass_c = score(cand.setup())
            else:
                pred_c, z_c, frac_c, max_c, pass_c = (), (), 0.0, float("inf"), False
                note = (note + "; " if note else "") + "inadmissible: a beta parameter is not positive"
            cand_results.append(CandidateResult(
                label=cand.label, pairs=cand.pairs, admissible=cand.admissible,
                predicted=tuple(float(v) for v in pred_c),
                z=tuple(float(v) for v in z_c),
                fraction_within_4se=frac_c, max_abs_z=max_c, passed=pass_c, note=note,
            ))
        winners = [c.label for c in cand_results if c.passed]
        if cands[0].pairs == cands[-1].pairs:
            adjudication = (
                "printed and derivation-consistent parameter sets coincide; "
                + ("the common set passes" if winners else "the common set fails")
            )
        elif winners == ["derivation-consistent"]:
            adjudication = (
                "derivation-consistent parameters satisfy the density "
                "identity; the as-printed set fails"
            )
        elif winners:
            adjudication = f"passing parameter sets: {', '.join(winners)}"
        else:
            adjudication = "no candidate parameter set passes"

    return VerificationReport(
        theorem=spec.theorem,
        k=spec.k,
        n_samples=n_samples,
        seed=seed,
        n_nodes=n_nodes,
        constant_scale=constant_scale,
        density=spec.f.name,
        params=_params_echo(spec),
        probes=tuple(tuple(float(c) for c in p) for p in probes),
        bandwidths=tuple(float(b) for b in bandwidths),
        empirical=tuple(float(v) for v in empirical),
        se=tuple(float(v) for v in se),
        low_count=tuple(bool(b) for b in low),
        predicted=tuple(float(v) for v in predicted),
        z=tuple(float(v) for v in z),
        fraction_within_4se=fraction,
        max_abs_z=max_abs,
        passed=passed,
        candidates=tuple(cand_results),
        adjudication_notes=adjudication,
        notes=identity_record(spec.theorem).notes,
    )
