"""Properties of the row-range split: the per-row pipeline run on any
number of workers equals the single-worker run bit for bit, and the
per-dimension box counts equal one full pass over the sample per probe."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ekstat.streams as streams
from ekstat.kober import IDENTITY_IDS
from ekstat.mc_oracle import histogram_estimate, make_spec, simulate_parts


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("theorem", IDENTITY_IDS)
@settings(max_examples=8, deadline=None, database=None)
@given(n=st.integers(1, 5000), workers=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
@example(n=1, workers=4, seed=0)
@example(n=3, workers=4, seed=1)
def test_row_range_split_is_bit_exact(theorem, k, n, workers, seed):
    spec = make_spec(theorem, k)
    one = simulate_parts(spec, n, seed, workers=1)
    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as mp:
        # let up to four ranges of several chunks run, whatever this
        # machine's CPU count, and switch threads often so that they interleave
        mp.setattr(streams, "_cpu_count", lambda: 4)
        mp.setattr(streams, "_CHUNK_ROWS", 257)
        sys.setswitchinterval(1e-5)
        try:
            split = simulate_parts(spec, n, seed, workers=workers)
        finally:
            sys.setswitchinterval(interval)
    for key in "xyvu":
        assert np.array_equal(one[key], split[key]), key


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
