"""Properties of the row-range split: the per-row pipeline run on any
number of workers equals the single-worker run bit for bit, and the
per-dimension box counts equal one full pass over the sample per probe."""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ekstat.streams as streams
from ekstat.kober import IDENTITY_IDS
from ekstat.mc_oracle import (
    _box_edges,
    default_probes,
    histogram_estimate,
    make_spec,
    simulate,
    verify,
)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("theorem", IDENTITY_IDS)
@settings(max_examples=8, deadline=None, database=None)
@given(n=st.integers(1, 5000), workers=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@example(n=1, workers=4, seed=0)
@example(n=3, workers=4, seed=1)
def test_row_range_split_is_bit_exact(theorem, k, n, workers, seed):
    spec = make_spec(theorem, k)
    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as mp:
        # the draws depend on the block size, so both runs use blocks of
        # 257 rows; let up to four ranges of several blocks run, whatever
        # this machine's CPU count, and switch threads often so that they
        # interleave
        mp.setattr(streams, "_CHUNK_ROWS", 257)
        one = simulate(spec, n, seed, workers=1).data
        mp.setattr(streams, "_cpu_count", lambda: 4)
        sys.setswitchinterval(1e-5)
        try:
            split = simulate(spec, n, seed, workers=workers).data
        finally:
            sys.setswitchinterval(interval)
    assert np.array_equal(one, split)


def _brute_force_histogram(data, probes, h):
    """One full pass over the sample per probe."""
    n = data.shape[0]
    volume = float(np.prod(h))
    est, se, low = np.empty(len(probes)), np.empty(len(probes)), np.zeros(len(probes), bool)
    for i, p in enumerate(probes):
        count = int(np.count_nonzero(np.all(np.abs(data - p) <= h / 2.0, axis=1)))
        phat = count / n
        est[i] = phat / volume
        if count == 0:
            low[i] = True
            phat = 1.0 / n
        se[i] = math.sqrt(phat * (1.0 - phat) / n) / volume
    return est, se, low


@settings(max_examples=30, deadline=None, database=None)
@given(
    k=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    lattice_frac=st.floats(0.0, 1.0),
    probe_ticks=st.lists(st.integers(-1, 10), min_size=1, max_size=30),
    free_probes=st.integers(0, 6),
    repeats=st.integers(0, 6),
)
def test_histogram_matches_per_probe_passes(k, seed, lattice_frac, probe_ticks,
                                           free_probes, repeats):
    # samples and probes on a quarter lattice with h/2 a lattice step or two
    # put many points exactly on box edges; the rest are off-lattice
    rng = np.random.default_rng(seed)
    n = 10_000
    lattice = rng.integers(0, 9, size=(n, k)) * 0.25
    data = np.where(rng.random((n, k)) < lattice_frac, lattice, rng.uniform(0.0, 2.0, (n, k)))
    h = rng.choice([0.5, 1.0], size=k)
    ticks = np.resize(np.asarray(probe_ticks), (max(len(probe_ticks) // k, 1), k))
    probes = np.concatenate([ticks * 0.25, rng.uniform(-0.5, 2.5, (free_probes, k))])
    probes = np.concatenate([probes, probes[rng.integers(0, len(probes), repeats)]])
    got = histogram_estimate(data, probes, h)
    want = _brute_force_histogram(data, probes, h)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def _around(x, steps=3):
    """x and the ``steps`` floats on either side of it."""
    out = [x]
    for toward in (-math.inf, math.inf):
        y = x
        for _ in range(steps):
            y = math.nextafter(y, toward)
            out.append(y)
    return out


# tiny floats of both signs: an edge of a box with c + h/2 == 0 lies among them
_NEAR_ZERO = [sign * x for sign in (1.0, -1.0)
              for x in [0.0, 5e-324, 2.2250738585072014e-308] + [2.0**-e for e in range(48, 62)]]


@settings(max_examples=40, deadline=None, database=None)
@given(
    k=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    centers=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3),
    halves=st.lists(st.floats(1e-3, 1.5), min_size=3, max_size=3),
    zero_edge=st.booleans(),
    special_frac=st.floats(0.0, 0.2),
)
@example(k=1, seed=0, centers=[-0.25], halves=[0.25] * 3, zero_edge=True, special_frac=0.1)
@example(k=3, seed=1, centers=[0.1, 0.7], halves=[0.3, 0.05, 0.7], zero_edge=True, special_frac=0.05)
def test_histogram_exact_edges_match_per_probe_passes(k, seed, centers, halves, zero_edge,
                                                      special_frac):
    # non-dyadic centres and half-widths; samples on c +- h/2, on the
    # computed edges, and a few floats either side of each; a centre with
    # c + h/2 == 0 whose upper edge sits among the tiny floats; and NaN and
    # infinite coordinates, which no box counts
    rng = np.random.default_rng(seed)
    h = np.asarray(halves[:k]) * 2.0
    coords, pools = [], []
    for j in range(k):
        r = float(h[j] / 2.0)
        cs = list(centers) + ([-r] if zero_edge else [])
        pool = list(_NEAR_ZERO)
        for c in cs:
            for x in (c - r, c + r, *_box_edges(c, r)):
                if math.isfinite(x):
                    pool += _around(x)
        coords.append(cs)
        pools.append(np.array(pool))
    n = 10_000
    data = np.empty((n, k))
    for j in range(k):
        pick = rng.random(n)
        data[:, j] = np.where(pick < 0.6, rng.choice(pools[j], n), rng.uniform(-3.0, 3.0, n))
        data[pick > 1.0 - special_frac, j] = rng.choice([np.nan, np.inf, -np.inf], n)[
            pick > 1.0 - special_frac]
    probes = np.array(list(itertools.product(*coords)))
    got = histogram_estimate(data, probes, h)
    want = _brute_force_histogram(data, probes, h)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("theorem", IDENTITY_IDS)
def test_verify_counts_equal_per_probe_passes(theorem, k):
    # the sorted columns verify shares between probes and counts belong to
    # the dimensions they were taken from
    spec = make_spec(theorem, k)
    samples = simulate(spec, 20_000, seed=3)
    report = verify(spec, samples=samples)
    probes, bandwidths = default_probes(samples.data)
    assert np.array_equal(report.probes, probes)
    assert np.array_equal(report.bandwidths, bandwidths)
    est, se, low = _brute_force_histogram(samples.data, probes, bandwidths)
    assert np.array_equal(report.empirical, est)
    assert np.array_equal(report.se, se)
    assert np.array_equal(report.low_count, low)
