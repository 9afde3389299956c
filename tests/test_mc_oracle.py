import math

import numpy as np
import pytest
from scipy import stats

import ekstat.mc_oracle as mc_oracle
from ekstat.errors import ParameterError, ShapeError, SizeError, UsageError
from ekstat.kober import (
    IDENTITY_IDS,
    DimParams,
    MultiDensity,
    exponential_product,
    gamma_product,
    identity_record,
)
from ekstat.mc_oracle import (
    default_probes,
    histogram_estimate,
    identity_candidates,
    make_spec,
    simulate,
    simulate_parts,
    verify,
)
from ekstat.transforms import forward


class TestSimulate:
    def test_product_construction_mean(self):
        # uniform mixing times unit exponential: E[u] = 1/2
        spec = make_spec("1.1", 1, params=(DimParams(0.0, 1.0),), f=exponential_product(1))
        n = 10**5
        u = simulate(spec, n, seed=17).data[:, 0]
        se = math.sqrt(u.var() / n)
        assert abs(u.mean() - 0.5) < 4.0 * se

    def test_ratio_construction_dominates_numerator(self):
        spec = make_spec("2.1", 1)
        parts = simulate_parts(spec, 10**4, seed=3)
        assert np.all(parts["u"][:, 0] >= parts["v"][:, 0])

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

    def test_triangular_constructions_route_through_the_map(self):
        spec = make_spec("1.3", 2)
        parts = simulate_parts(spec, 10**4, seed=7)
        assert np.allclose(parts["y"], forward(parts["x"]), atol=1e-12)
        assert np.allclose(parts["u"], parts["y"] * parts["v"])

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

    def test_printed_candidate_rejected_by_ks(self):
        # transform-level adjudication: KS test separates the two readings
        spec = make_spec("1.3", 2)
        parts = simulate_parts(spec, 10**5, seed=48)
        cands = identity_candidates(spec)
        derived, printed = cands[0].pairs, cands[1].pairs
        j = 0  # first coordinate differs between readings
        p_derived = stats.kstest(parts["y"][:, j], stats.beta(*derived[j]).cdf).pvalue
        p_printed = stats.kstest(parts["y"][:, j], stats.beta(*printed[j]).cdf).pvalue
        assert p_derived > 1e-3
        assert p_printed < 1e-6


class TestRatioCoordinateLaws:
    @pytest.mark.parametrize("theorem", ["1.2", "1.3", "2.4", "2.5"])
    def test_ratio_coordinates_follow_catalogued_laws(self, theorem):
        spec = make_spec(theorem, 2)
        y = simulate_parts(spec, 10**5, seed=49)["y"]
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
