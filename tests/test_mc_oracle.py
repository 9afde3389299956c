import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import ekstat.mc_oracle as mc_oracle
from ekstat.densities import SampleMatrix
from ekstat.errors import ParameterError, ShapeError, SizeError, UsageError
from ekstat.kober import (
    IDENTITY_IDS,
    DimParams,
    MultiDensity,
    eval_many,
    exponential_product,
    gamma_product,
    identity_record,
    identity_setup,
)
from ekstat.mc_oracle import (
    default_density,
    default_probes,
    histogram_estimate,
    identity_candidates,
    make_spec,
    simulate,
    verify,
)
from ekstat.reporting import dumps_json
from ekstat.transforms import inverse


class TestSimulate:
    def test_product_construction_mean(self):
        # uniform mixing times unit exponential: E[u] = 1/2
        spec = make_spec("1.1", 1, params=(DimParams(0.0, 1.0),), f=exponential_product(1))
        n = 10**5
        u = simulate(spec, n, seed=17).data[:, 0]
        se = math.sqrt(u.var() / n)
        assert abs(u.mean() - 0.5) < 4.0 * se

    def test_ratio_construction_dominates_numerator(self, unit_mass):
        # u = v / y with y in (0, 1]: for v = 1, u = 1 / y
        spec = make_spec("2.1", 1, f=unit_mass(1))
        u = simulate(spec, 10**4, seed=3).data
        assert np.all(u >= 1.0)

    def test_seed_determinism(self):
        spec = make_spec("1.2", 2)
        a = simulate(spec, 4000, seed=5).data
        b = simulate(spec, 4000, seed=5).data
        c = simulate(spec, 4000, seed=6).data
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_worker_partition_reproduces(self):
        for theorem in IDENTITY_IDS:
            for k in (1, 2):
                spec = make_spec(theorem, k)
                one = simulate(spec, 6000, seed=11, workers=1).data
                many = simulate(spec, 6000, seed=11, workers=3).data
                assert np.array_equal(one, many), (theorem, k)

    def test_triangular_constructions_route_through_the_map(self, unit_mass):
        # the second ratio coordinate follows its beta law; the simplex
        # coordinate it is mapped from (reference draws from scipy) does not
        spec = make_spec("1.3", 2, f=unit_mass(2))
        triples = identity_record("1.3").beta(spec.params).triples
        y = simulate(spec, 10**4, seed=7).data
        rng = np.random.default_rng(7)
        x_ref = inverse(np.stack([rng.beta(a, b, 10**4) for a, b, _ in triples], axis=-1))
        assert stats.kstest(y[:, 1], stats.beta(*triples[1][:2]).cdf).pvalue > 1e-3
        assert stats.ks_2samp(y[:, 1], x_ref[:, 1]).pvalue < 1e-6
        # and u is y times the f-draws of the same rows
        f, draws = default_density(2), []

        def recorded(gen, count):
            draws.append(f.from_uniforms(gen, count))
            return draws[-1]

        u = simulate(make_spec("1.3", 2, f=dataclasses.replace(f, from_uniforms=recorded)),
                     10**4, seed=7).data
        assert np.allclose(u, y * np.concatenate(draws))

    @pytest.mark.parametrize("theorem,k", [("1.1", 1), ("1.3", 2), ("1.2", 3)])
    def test_peak_memory_is_the_output_and_a_chunk(self, theorem, k):
        spec = make_spec(theorem, k)
        n = 2 * 10**5
        simulate(spec, 100, seed=1)  # imports and caches outside the measurement
        tracemalloc.start()
        try:
            simulate(spec, n, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * n * k * 8, f"peak {peak / (n * k * 8):.2f} x n*k*8 bytes"

    def test_missing_sampler_raises(self):
        bare = MultiDensity(dim=1, pdf=lambda p: np.exp(-p[..., 0]))
        spec = make_spec("1.1", 1, f=bare)
        with pytest.raises(UsageError):
            simulate(spec, 100, seed=0)


class TestHistogramEstimate:
    def test_degenerate_concentration(self):
        data = np.full((10**4, 1), 0.5)
        est, se, low = histogram_estimate(data, np.array([[0.5]]), np.array([0.2]))
        assert est[0] == pytest.approx(1.0 / 0.2)
        assert not low[0]

    def test_uniform_box_count(self):
        rng = np.random.default_rng(23)
        data = rng.random((10**6, 1))
        est, se, _ = histogram_estimate(data, np.array([[0.5]]), np.array([0.1]))
        assert abs(est[0] - 1.0) < 4.0 * se[0]

    def test_se_scales_with_sqrt_n(self):
        rng = np.random.default_rng(29)
        data = rng.random((4 * 10**5, 1))
        probes, h = np.array([[0.4]]), np.array([0.05])
        _, se_half, _ = histogram_estimate(data[: 2 * 10**5], probes, h)
        _, se_full, _ = histogram_estimate(data, probes, h)
        assert se_half[0] / se_full[0] == pytest.approx(math.sqrt(2.0), rel=0.1)

    def test_empty_box_flagged(self):
        data = np.full((10**4, 1), 0.5)
        est, se, low = histogram_estimate(data, np.array([[10.0]]), np.array([0.1]))
        assert est[0] == 0.0
        assert low[0]
        assert se[0] > 0.0

    def test_partition_estimates_sum_to_one(self):
        # box estimates over a covering partition recover total mass
        rng = np.random.default_rng(31)
        data = rng.exponential(size=(10**5, 1))
        edges = np.linspace(0.0, data.max() + 1e-9, 41)
        centers = 0.5 * (edges[:-1] + edges[1:])
        width = np.array([edges[1] - edges[0]])
        est, se, _ = histogram_estimate(data, centers[:, None], width)
        total = float(np.sum(est) * width[0])
        combined_se = float(np.sqrt(np.sum((se * width[0]) ** 2)))
        assert abs(total - 1.0) <= max(3.0 * combined_se, 1e-12)

    def test_minimum_sample_size(self):
        with pytest.raises(UsageError):
            histogram_estimate(np.ones((100, 1)), np.array([[1.0]]), np.array([0.1]))


class TestVerify:
    def test_uniform_mixing_predicts_exponential_integral(self):
        # with uniform mixing and exponential f, the predicted density of
        # u = x v is the integral of v^-1 e^-v over (u, inf); frozen from
        # the alternating series at u = 0.5
        e1_half = 0.5597735947761608
        spec = make_spec("1.1", 1, params=(DimParams(0.0, 1.0),), f=exponential_product(1))
        from ekstat.kober import predicted_density

        pred = predicted_density("1.1", spec.params, spec.f, np.array([[0.5]]))[0]
        assert pred == pytest.approx(e1_half, rel=1e-8)
        u = simulate(spec, 10**6, seed=99).data
        h = np.array([0.02])
        est, se, _ = histogram_estimate(u, np.array([[0.5]]), h)
        box_avg = np.mean(predicted_density(
            "1.1", spec.params, spec.f,
            (0.5 + np.linspace(-h[0] / 2, h[0] / 2, 9))[:, None]))
        assert abs(est[0] - box_avg) < 4.0 * se[0]

    def test_node_count_checked_before_drawing(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("simulate called")

        monkeypatch.setattr(mc_oracle, "simulate", no_draws)
        with pytest.raises(ParameterError, match="at least 8 nodes"):
            verify(make_spec("1.1", 1), n_nodes=4)

    def test_identity_passes_and_corruption_fails(self):
        spec = make_spec("1.1", 1)
        samples = simulate(spec, 4 * 10**5, seed=42)
        report = verify(spec, samples=samples)
        assert report.passed, report.z
        corrupted = verify(spec, samples=samples, constant_scale=1.25)
        assert not corrupted.passed

    def test_first_kind_identity(self):
        spec = make_spec("2.1", 1)
        report = verify(spec, n_samples=4 * 10**5, seed=43)
        assert report.passed, report.z

    def test_report_fields_round_trip(self):
        spec = make_spec("1.4", 1)
        report = verify(spec, n_samples=2 * 10**5, seed=44)
        doc = report.to_dict()
        assert doc["theorem"] == "1.4"
        assert len(doc["probes"]) == len(doc["z"]) == 5
        assert doc["notes"], "pathway reports must document the kernel reading"

    def test_dimension_cap(self):
        f = gamma_product((2.0,) * 4)
        params = tuple(DimParams(0.5, 1.0) for _ in range(4))
        spec = make_spec("1.1", 4, params=params, f=f)
        with pytest.raises(SizeError):
            verify(spec, n_samples=10**4, seed=0)

    def test_defaults_stop_at_three_dimensions(self):
        for theorem in IDENTITY_IDS:
            with pytest.raises(SizeError):
                make_spec(theorem, 4)

    def test_parameter_count_must_match_density(self):
        with pytest.raises(ShapeError):
            make_spec("1.1", 1, params=(DimParams(0.5, 1.0),) * 2)
        with pytest.raises(ShapeError):
            make_spec("1.2", 2, params=make_spec("1.2", 1).params)

    def test_parameters_of_another_family_rejected(self):
        with pytest.raises(UsageError):
            make_spec("1.1", 1, params=make_spec("1.2", 1).params)


class TestSampleCounts:
    """What ``verify`` computes from the sample alone is kept on the
    SampleMatrix and reused by later calls on the same object."""

    @pytest.mark.parametrize("theorem,k", [("1.1", 1), ("2.4", 2), ("1.2", 3)])
    def test_reused_counts_write_the_fresh_reports(self, theorem, k):
        spec = make_spec(theorem, k)
        samples = simulate(spec, 10**5, seed=71)
        calls = [{}, {"constant_scale": 1.25}, {},
                 {"probes": [[0.5] * k, [1.0] * k, [1.5] * k]}, {}]
        for kwargs in calls:
            fresh = SampleMatrix(samples.data, samples.seed)
            assert (dumps_json(verify(spec, samples=samples, **kwargs).to_dict())
                    == dumps_json(verify(spec, samples=fresh, **kwargs).to_dict())), kwargs

    def test_sample_stages_run_once(self, monkeypatch):
        calls = dict.fromkeys(("_sorted_columns", "default_probes", "histogram_estimate"), 0)

        def counted(name):
            inner = getattr(mc_oracle, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(mc_oracle, name, counted(name))
        spec = make_spec("1.3", 2)
        samples = simulate(spec, 2 * 10**4, seed=72)
        verify(spec, samples=samples)
        assert calls == dict.fromkeys(calls, 1)
        verify(spec, samples=samples, constant_scale=1.25)
        verify(spec, samples=samples)
        assert calls == dict.fromkeys(calls, 1)
        verify(spec, samples=samples, probes=[[0.5, 0.5]])   # user probes count per call
        assert calls == {"_sorted_columns": 1, "default_probes": 1, "histogram_estimate": 2}
        verify(spec, samples=samples)
        assert calls["histogram_estimate"] == 2

    def test_rows_are_read_only(self):
        data = np.full((4, 2), 0.5)
        samples = SampleMatrix(data, 0)
        with pytest.raises(ValueError):
            samples.data[0, 0] = 1.0
        data[0, 0] = 1.0     # the caller's array stays writable
        assert samples.data[0, 0] == 1.0

    def test_nested_lists_are_coerced(self):
        samples = SampleMatrix([[1.0], [2.0]], 1)
        assert samples.data.dtype == float and (samples.n, samples.dim) == (2, 1)
        with pytest.raises(ShapeError):
            SampleMatrix([1.0, 2.0], 1)

    @pytest.mark.parametrize("probes", [None, [[0.5], [1.0]]])
    def test_nan_rows_raise(self, probes):
        spec = make_spec("1.1", 1)
        data = simulate(spec, 2 * 10**4, seed=73).data.copy()
        data[::4000] = np.nan
        with pytest.raises(ParameterError, match="column 0 holds 5 NaN rows"):
            verify(spec, samples=SampleMatrix(data, 73), probes=probes)

    def test_infinite_rows_are_not_counted(self):
        spec = make_spec("1.1", 1)
        data = simulate(spec, 2 * 10**4, seed=74).data.copy()
        data[:3] = np.inf
        report = verify(spec, samples=SampleMatrix(data, 74))
        assert np.all(np.isfinite(report.bandwidths)) and np.all(np.isfinite(report.z))

    def test_dimension_mismatch_raises_before_sorting(self, monkeypatch):
        def no_sort(*args, **kwargs):
            raise AssertionError("columns sorted")

        monkeypatch.setattr(mc_oracle, "_sorted_columns", no_sort)
        samples = simulate(make_spec("1.1", 2), 2 * 10**4, seed=75)
        with pytest.raises(ShapeError, match="samples have 2 coordinates .* k = 1"):
            verify(make_spec("1.1", 1), samples=samples)

    @pytest.mark.parametrize("rows", [0, 5000])
    def test_short_sample_raises_before_sorting(self, rows, monkeypatch):
        def no_sort(*args, **kwargs):
            raise AssertionError("columns sorted")

        monkeypatch.setattr(mc_oracle, "_sorted_columns", no_sort)
        samples = SampleMatrix(np.full((rows, 1), 0.5), 0)
        with pytest.raises(UsageError, match="at least 1e4 samples"):
            verify(make_spec("1.1", 1), samples=samples)


class TestAdjudication:
    def test_gen_dirichlet_candidates_differ_and_derivation_wins(self):
        spec = make_spec("1.3", 2)
        cands = identity_candidates(spec)
        assert [c.label for c in cands] == ["derivation-consistent", "as-printed"]
        assert cands[0].pairs != cands[1].pairs
        assert cands[1].admissible  # wrong but evaluable: MC must reject it
        report = verify(spec, n_samples=10**6, seed=45)
        by_label = {c.label: c for c in report.candidates}
        assert by_label["derivation-consistent"].passed
        assert not by_label["as-printed"].passed
        assert "derivation-consistent" in report.adjudication_notes

    def test_shifted_simplex_printed_candidate_inadmissible(self):
        spec = make_spec("2.4", 2)
        cands = identity_candidates(spec)
        assert not cands[1].admissible  # last printed second parameter is 0
        report = verify(spec, n_samples=4 * 10**5, seed=46)
        by_label = {c.label: c for c in report.candidates}
        assert by_label["derivation-consistent"].passed
        assert not by_label["as-printed"].passed
        assert "inadmissible" in by_label["as-printed"].note

    def test_shifted_partial_sum_candidates_coincide(self):
        spec = make_spec("2.5", 2)
        cands = identity_candidates(spec)
        assert cands[0].pairs == cands[1].pairs
        report = verify(spec, n_samples=4 * 10**5, seed=47)
        assert report.passed
        assert "coincide" in report.adjudication_notes

    def test_printed_candidate_rejected_by_ks(self, unit_mass):
        # transform-level adjudication: KS test separates the two readings
        spec = make_spec("1.3", 2, f=unit_mass(2))
        y = simulate(spec, 10**5, seed=48).data
        cands = identity_candidates(spec)
        derived, printed = cands[0].pairs, cands[1].pairs
        j = 0  # first coordinate differs between readings
        p_derived = stats.kstest(y[:, j], stats.beta(*derived[j]).cdf).pvalue
        p_printed = stats.kstest(y[:, j], stats.beta(*printed[j]).cdf).pvalue
        assert p_derived > 1e-3
        assert p_printed < 1e-6


class TestRatioCoordinateLaws:
    @pytest.mark.parametrize("theorem", ["1.2", "1.3", "2.4", "2.5"])
    def test_ratio_coordinates_follow_catalogued_laws(self, theorem, unit_mass):
        # with a unit-mass f, u is y (second kind) or 1 / y (first kind)
        spec = make_spec(theorem, 2, f=unit_mass(2))
        u = simulate(spec, 10**5, seed=49).data
        y = u if identity_record(theorem).kind == "second" else 1.0 / u
        for j, (first, second, _) in enumerate(identity_record(theorem).beta(spec.params).triples):
            p = stats.kstest(y[:, j], stats.beta(first, second).cdf).pvalue
            assert p > 1e-3, f"{theorem} coordinate {j}: KS p-value {p:.2e}"


class TestDefaultProbes:
    def test_probe_grid_avoids_tails(self):
        rng = np.random.default_rng(51)
        data = rng.exponential(size=(10**5, 2))
        probes, bw = default_probes(data)
        assert probes.shape == (25, 2)
        lo = np.quantile(data, 0.05, axis=0)
        hi = np.quantile(data, 0.95, axis=0)
        assert np.all(probes >= lo) and np.all(probes <= hi)
        assert bw.shape == (2,)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_probes_equal_quantiles_of_the_data(self, k):
        # quantiles read off the sorted columns are np.quantile's bit for
        # bit, ties included, at sizes whose quantile positions fall on
        # every side of numpy's interpolation weight 0.5
        levels = np.concatenate([mc_oracle._PROBE_LEVELS, [0.05, 0.25, 0.75, 0.95]])
        for n, jumps in itertools.product((10_000, 10_001, 65_537, 10**6), (False, True)):
            rng = np.random.default_rng(60 + k + n)
            data = rng.gamma(2.0, size=(n, k))
            if jumps:
                # order statistics far apart at every quantile position, where
                # numpy's two interpolation formulas round differently
                steps = rng.uniform(0.0, 1e-3, size=(n, k))
                rank = np.argsort(np.argsort(levels))[:, None]
                steps[np.floor((n - 1) * levels).astype(int) + 1] = rng.uniform(
                    1.0, 10.0, size=(len(levels), k)) * 1e3 ** (rank + 1)
                data = rng.permuted(np.cumsum(steps, axis=0), axis=0)
            data[:, 0] = np.round(data[:, 0], 1)     # heavily tied column
            data[::7, -1] = data[0, -1]              # one value repeated
            qs = np.quantile(data, levels, axis=0)
            probes, bw = default_probes(data)
            mesh = np.meshgrid(*[qs[:5, j] for j in range(k)], indexing="ij")
            assert np.array_equal(probes, np.stack([m.ravel() for m in mesh], axis=-1)), n
            scale = np.minimum(qs[8] - qs[5], 2.7 * (qs[7] - qs[6]))
            assert np.array_equal(bw, mc_oracle._BANDWIDTH_FRAC[k] * scale), n

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tiny_samples_match_quantiles(self, n):
        # with one row every level sits on numpy's top index bound
        data = np.arange(1.0, n + 1.0)[:, None] ** 1.5
        probes, _ = default_probes(data)
        assert np.array_equal(probes[:, 0], np.quantile(data[:, 0], mc_oracle._PROBE_LEVELS))


class TestBoxEdges:
    @pytest.mark.parametrize("c, r", [
        (0.1, 0.25), (-0.25, 0.25), (0.3, 0.1), (1e-300, 1e-300), (-7.3, 1e-3),
        (0.0, 0.0), (2.5, 1e308), (1e308, 1e308),
    ])
    def test_edges_are_the_last_floats_inside(self, c, r):
        # c = -0.25, r = 0.25 puts hi at 2^-55, about 2^62 floats above
        # c + r = 0
        lo, hi = mc_oracle._box_edges(c, r)
        inside = lambda x: abs(x - c) <= r
        assert inside(lo) and inside(hi)
        assert lo == -math.inf or not inside(math.nextafter(lo, -math.inf))
        assert hi == math.inf or not inside(math.nextafter(hi, math.inf))

    @pytest.mark.parametrize("c, r", [(math.nan, 1.0), (1.0, math.nan), (1.0, -0.5),
                                      (math.inf, 1.0), (-math.inf, 1e308)])
    def test_nothing_inside_gives_an_empty_range(self, c, r):
        assert mc_oracle._box_edges(c, r) == (math.inf, -math.inf)

    def test_infinite_radius(self):
        assert mc_oracle._box_edges(1.0, math.inf) == (-math.inf, math.inf)
        # inf - inf is NaN, so x = inf is outside a box centred at inf
        assert mc_oracle._box_edges(math.inf, math.inf) == (-math.inf, np.finfo(float).max)


def _box_average_per_probe(kind, dims, f, probes, bandwidths, n_nodes, log_shift):
    """Brute-force reference for ``mc_oracle._box_average``: each probe's
    clipped box, its Gauss-Legendre axes and weight tensor built one probe
    at a time."""
    nodes, wts = mc_oracle._GL_BOX
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
    vals = eval_many(kind, dims, f, np.concatenate(pts), n_nodes, log_shift=log_shift)
    size = len(nodes) ** k
    for b, (i, wall, mass_fraction) in enumerate(boxes):
        out[i] = float(np.dot(wall, vals[b * size:(b + 1) * size])) * mass_fraction
    return out


def _box_probes(k):
    """A grid of probes with repeated coordinates, the first row's boxes
    clipped at 0 and the last probe's box below it entirely, and their
    box edge lengths."""
    axis = np.array([0.01, 0.4, 1.1, 2.5])
    probes = np.stack(np.meshgrid(*[axis] * k, indexing="ij"), axis=-1).reshape(-1, k)
    return np.vstack([probes, np.full(k, -1.0)]), np.linspace(0.1, 0.3, k)


class TestBoxAverage:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("theorem", ["1.3", "2.4"])
    def test_equals_per_probe_reference(self, theorem, k):
        spec = make_spec(theorem, k)
        setups = [identity_setup(theorem, spec.params)]
        setups += [c.setup() for c in identity_candidates(spec) if c.admissible]
        probes, bw = _box_probes(k)
        for kind, dims, log_c in setups:
            got = mc_oracle._box_average(kind, dims, spec.f, probes, bw, 64, log_c)
            want = _box_average_per_probe(kind, dims, spec.f, probes, bw, 64, log_c)
            assert np.array_equal(got, want)
            assert got[-1] == 0.0 and np.all(got[:-1] > 0.0)

    def test_no_box_above_zero_evaluates_nothing(self, monkeypatch):
        kind, dims, log_c = identity_setup("1.1", make_spec("1.1", 2).params)
        monkeypatch.setattr(mc_oracle, "eval_many", None)
        out = mc_oracle._box_average(kind, dims, mc_oracle.default_density(2),
                                     np.full((2, 2), -1.0), np.ones(2), 64, log_c)
        assert np.array_equal(out, np.zeros(2))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_one_call_equals_one_box_at_a_time(self, monkeypatch, k):
        kind, dims, log_c = identity_setup("1.1", make_spec("1.1", k).params)
        f = mc_oracle.default_density(k)
        probes, bw = _box_probes(k)
        calls = []

        def counted(*args, **kw):
            calls.append(len(args[3]))
            return eval_many(*args, **kw)
        monkeypatch.setattr(mc_oracle, "eval_many", counted)
        batch = mc_oracle._box_average(kind, dims, f, probes, bw, 64, log_c)
        assert calls == [3**k * (len(probes) - 1)]
        single = [mc_oracle._box_average(kind, dims, f, p[None], bw, 64, log_c)[0] for p in probes]
        assert np.array_equal(batch, single)
        assert batch[-1] == 0.0 and np.all(batch[:-1] > 0.0)
