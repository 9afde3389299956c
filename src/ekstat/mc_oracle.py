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
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import transforms
from .densities import (
    DirichletParams,
    SampleMatrix,
    beta_from_uniforms,  # noqa: F401
    beta_product_from_uniforms,
    beta_shapes,
    dirichlet_from_uniforms,
    dirichlet_shapes,
    gamma_uniform_cols,
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
from .streams import run_rows, uniform_block, uniform_block_parallel  # noqa: F401

# The sampling path draws through ``densities`` (fixed-column Marsaglia-Tsang
# gamma draws, with ``gammaincinv`` only as their fallback) and
# ``streams.run_rows``; it calls none of ``gammaincinv``,
# ``beta_from_uniforms`` or ``uniform_block_parallel`` through this module.
# benchmarks/tracing.py patches those three names here, so they stay
# reachable: the last two as imports above, and ``gammaincinv`` through
# ``__getattr__``, so that importing this module does not import scipy.


def __getattr__(name: str):
    if name == "gammaincinv":
        from scipy.special import gammaincinv
        return gammaincinv
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


MAX_VERIFY_DIM = 3

# quantile levels of the probe grid; the report's probes depend on these
# bit for bit, and linspace's second level is 0.30000000000000004, not 0.3
_PROBE_LEVELS = np.linspace(0.1, 0.9, 5)
_BANDWIDTH_FRAC = {1: 0.02, 2: 0.07, 3: 0.12}
# memory for the cached per-dimension box indicator rows (one byte per sample)
_INDICATOR_BYTES = 1 << 26

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

def simulate_parts(spec: TheoremSpec, n: int, seed: int, workers: int = 1) -> dict:
    """Draw all intermediate stages of the identity's construction.

    Returns a dict with the mixing vector ``x``, the ratio coordinates
    ``y`` (identical to x for the independent families), the f-draws ``v``
    and the combined vector ``u``.  The betas drawn for a triangular
    identity are the ratio coordinates of x.  Every stage is row-wise, so
    each row range runs the whole construction on its own uniforms.
    """
    if spec.f.from_uniforms is None or spec.f.uniform_cols is None:
        raise UsageError("the identity's density f carries no sampler")
    rec = identity_record(spec.theorem)
    dirichlet = isinstance(spec.params, DirichletParams)
    triples = None if dirichlet else rec.beta(spec.params).triples
    cols_x = gamma_uniform_cols(dirichlet_shapes(spec.params) if dirichlet
                                else beta_shapes(triples))
    x, v, u = (np.empty((max(n, 0), spec.k)) for _ in range(3))
    y = np.empty_like(x) if rec.triangular else x

    def fill(start, count):
        rows = slice(start, start + count)
        block = uniform_block(seed, n, cols_x + spec.f.uniform_cols, start, count)
        ux, uf = block[:, :cols_x], block[:, cols_x:]
        v[rows] = spec.f.from_uniforms(uf)
        if dirichlet:
            x[rows] = dirichlet_from_uniforms(ux, spec.params)
        else:
            betas = beta_product_from_uniforms(ux, triples)
            x[rows] = transforms.inverse(betas) if rec.triangular else betas
        if rec.triangular:
            y[rows] = transforms.forward(x[rows])
        if rec.kind == "second":
            np.multiply(y[rows], v[rows], out=u[rows])
        else:
            np.divide(v[rows], y[rows], out=u[rows])

    run_rows(fill, n, workers)
    return {"x": x, "y": y, "v": v, "u": u}


def simulate(spec: TheoremSpec, n: int, seed: int, workers: int = 1) -> SampleMatrix:
    """Draws of the combined vector u, exactly per the identity's construction."""
    return SampleMatrix(simulate_parts(spec, n, seed, workers)["u"], seed)


# ---------------------------------------------------------------------------
# histogram estimation
# ---------------------------------------------------------------------------

def histogram_estimate(samples, probes, bandwidths):
    """Box-kernel density estimates with exact binomial standard errors.

    For each probe the estimate is (count inside the axis-aligned box of
    the given full edge lengths) / (n * volume); the standard error is
    sqrt(p(1-p)/n) / volume.  Empty boxes are flagged and get the standard
    error of a single count.

    Returns (estimates, standard errors, low-count flags).
    """
    data = samples.data if isinstance(samples, SampleMatrix) else np.asarray(samples, dtype=float)
    probes = np.atleast_2d(np.asarray(probes, dtype=float))
    h = np.asarray(bandwidths, dtype=float)
    if data.ndim != 2 or probes.shape[1] != data.shape[1] or h.shape != (data.shape[1],):
        raise ShapeError("samples (n,k), probes (P,k) and bandwidths (k,) must agree")
    n = data.shape[0]
    if n < 10_000:
        raise UsageError("histogram estimation needs at least 1e4 samples")
    volume = float(np.prod(h))
    cols = [np.ascontiguousarray(data[:, j]) for j in range(data.shape[1])]

    # one indicator row per dimension and probe coordinate; a probe's box
    # is the AND of its k rows, so repeated coordinates cost one pass each
    @functools.lru_cache(maxsize=max(len(cols), _INDICATOR_BYTES // n))
    def indicator(j, c):
        return np.abs(cols[j] - c) <= h[j] / 2.0

    counts = np.empty(probes.shape[0], dtype=np.int64)
    both = np.empty(n, dtype=bool)
    for i, p in enumerate(probes):
        inside = indicator(0, p[0])
        for j in range(1, len(cols)):
            inside = np.logical_and(inside, indicator(j, p[j]), out=both)
        counts[i] = np.count_nonzero(inside)
    phat = counts / n
    low = counts == 0
    phat_se = np.where(low, 1.0 / n, phat)
    se = np.sqrt(phat_se * (1.0 - phat_se) / n) / volume
    return phat / volume, se, low


def default_probes(samples):
    """Interior probe grid and box bandwidths from sample quantiles.

    Probes sit at the 10..90 percent quantiles per dimension (tensor grid);
    bandwidths are a dimension-count-dependent fraction of the central 90
    percent range.
    """
    data = samples.data if isinstance(samples, SampleMatrix) else np.asarray(samples, dtype=float)
    k = data.shape[1]
    if k not in _BANDWIDTH_FRAC:
        raise SizeError(f"probe grids support at most {MAX_VERIFY_DIM} dimensions")
    # quantiles depend on the order statistics alone, so each sorted column
    # gives the same values as np.quantile over the data, in less time and memory
    levels = np.concatenate([_PROBE_LEVELS, [0.05, 0.25, 0.75, 0.95]])
    qs = np.stack([np.quantile(np.sort(data[:, j]), levels, overwrite_input=True)
                   for j in range(k)], axis=-1)
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
    vanishes there) and the average keeps the full box volume.
    """
    nodes, wts = _GL_BOX
    k = probes.shape[1]
    boxes, pts = [], []     # (probe index, node weights, mass fraction), nodes
    for i, p in enumerate(probes):
        axes, mass_fraction = [], 1.0
        for j in range(k):
            lo = max(p[j] - bandwidths[j] / 2.0, 0.0)
            hi = p[j] + bandwidths[j] / 2.0
            if hi <= lo:
                axes = None
                break
            mass_fraction *= (hi - lo) / bandwidths[j]
            mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
            axes.append((mid + half * nodes, wts / 2.0))
        if axes is None:
            continue
        mesh = np.meshgrid(*[a[0] for a in axes], indexing="ij")
        pts.append(np.stack([m.ravel() for m in mesh], axis=-1))
        wall = axes[0][1]
        for a in axes[1:]:
            wall = np.multiply.outer(wall, a[1])
        boxes.append((i, wall.ravel(), mass_fraction))
    out = np.zeros(probes.shape[0])
    if not boxes:
        return out
    # one call for every box: the boxes share their coordinates per
    # dimension, and eval_many sums each distinct coordinate once
    vals = eval_many(kind, dims, f, np.concatenate(pts), n_nodes, log_shift=log_shift)
    size = len(nodes) ** k
    for b, (i, wall, mass_fraction) in enumerate(boxes):
        out[i] = float(np.dot(wall, vals[b * size:(b + 1) * size])) * mass_fraction
    return out


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
    may carry a pre-simulated :class:`SampleMatrix` to reuse draws across
    policy variations.  Box bandwidths always come from
    :func:`default_probes`, also for user ``probes``.
    """
    if spec.k > MAX_VERIFY_DIM:
        raise SizeError(f"verification supports at most {MAX_VERIFY_DIM} dimensions")
    if not 0.0 < constant_scale < math.inf:
        raise ParameterError(f"constant_scale must be finite and positive, got {constant_scale}")
    check_nodes(n_nodes)
    if samples is None:
        samples = simulate(spec, n_samples, seed, workers)
    else:
        n_samples = samples.n
        seed = samples.seed
    grid, bandwidths = default_probes(samples)
    probes = grid if probes is None else np.atleast_2d(np.asarray(probes, dtype=float))
    if not np.all((probes > 0.0) & (probes < np.inf)):
        raise ParameterError("probes must be finite and lie in the interior of the positive orthant")

    empirical, se, low = histogram_estimate(samples, probes, bandwidths)
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
