import numpy as np
import pytest

import ekstat.streams as streams
from ekstat.densities import beta_product_draws
from ekstat.errors import EmptyRequestError, ParameterError, ShapeError, SizeError
from ekstat.streams import default_workers, map_rows, run_rows


def _gammas(gen, count):
    return gen.standard_gamma(2.5, (count, 3))


def test_values_open_interval():
    # every cell of the table is written by a row function, and gamma-ratio
    # betas on the block generators lie strictly inside (0, 1)
    triples = [(0.7, 0.9, 1.0), (2.0, 3.0, 1.0), (6.0, 0.7, 1.0)]
    u = map_rows(lambda gen, count: beta_product_draws(gen, count, triples), 1, 100_003, 3,
                 workers=2)
    assert u.shape == (100_003, 3)
    assert u.min() > 0.0 and u.max() < 1.0


def test_column_count_changes_stream_layout_only(monkeypatch):
    # a block's generator does not depend on the table width, so a row
    # function that draws column by column gives a narrower table the
    # leading columns of a wider one
    monkeypatch.setattr(streams, "_CHUNK_ROWS", 100)

    def by_column(width):
        return lambda gen, count: gen.random((width, count)).T

    wide = map_rows(by_column(4), 3, 250, 4)
    narrow = map_rows(by_column(2), 3, 250, 2)
    assert np.array_equal(wide[:, :2], narrow)


def test_parallel_split_is_exact(monkeypatch):
    # 31 blocks of 257 rows, the last one short
    monkeypatch.setattr(streams, "_CHUNK_ROWS", 257)
    one = map_rows(_gammas, 11, 7919, 3, workers=1)
    for workers in (2, 3, 8):
        assert np.array_equal(one, map_rows(_gammas, 11, 7919, 3, workers=workers))


def test_row_slices_match_full_table(monkeypatch):
    # a block's generator depends on the seed and the block alone, so a
    # shorter run's rows are the leading rows of a longer one, up to the
    # row function's own layout (here one draw call per block)
    monkeypatch.setattr(streams, "_CHUNK_ROWS", 100)
    full = map_rows(_gammas, 7, 1000, 3)
    for n_rows in (1, 99, 100, 101, 250):
        assert np.array_equal(full[:n_rows], map_rows(_gammas, 7, n_rows, 3))


def test_adjacent_blocks_draw_different_values(monkeypatch):
    monkeypatch.setattr(streams, "_CHUNK_ROWS", 100)
    u = map_rows(lambda gen, count: gen.random((count, 2)), 5, 300, 2)
    blocks = u.reshape(3, 100, 2)
    for b in range(2):
        assert not np.intersect1d(blocks[b], blocks[b + 1]).size
    # block b is the generator jumped b times, whichever rows it holds
    jumped = np.random.Generator(np.random.Philox(key=5).jumped(2))
    assert np.array_equal(blocks[2], jumped.random((100, 2)))


def test_distinct_seeds_differ():
    assert not np.array_equal(map_rows(_gammas, 1, 100, 3), map_rows(_gammas, 2, 100, 3))


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seed_range_accepted(seed):
    assert map_rows(_gammas, seed, 10, 3).shape == (10, 3)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_out_of_range_rejected(seed):
    with pytest.raises(ParameterError, match="seed"):
        map_rows(_gammas, seed, 10, 3)


def test_empty_request():
    with pytest.raises(EmptyRequestError):
        map_rows(_gammas, 1, 0, 3)


def test_bad_slice():
    # a row function must fill exactly its block's rows; numpy would
    # broadcast a single row over the block, so map_rows checks the shape
    for rows in (lambda count: 1, lambda count: count - 1, lambda count: count + 1):
        with pytest.raises(ShapeError, match="block of 10 rows"):
            map_rows(lambda gen, count: gen.random((rows(count), 2)), 1, 10, 2)


def test_table_over_budget_refused_before_allocating(monkeypatch):
    # one row over 2^30 bytes at width 1, and a width-3 table of 2^26 rows
    def no_alloc(*args, **kwargs):
        raise AssertionError("table allocated")

    monkeypatch.setattr(streams.np, "empty", no_alloc)
    for n_rows, width in ((2**27 + 1, 1), (2**26, 3)):
        with pytest.raises(SizeError, match=f"{n_rows * width * 8} bytes.* {2**30} bytes"):
            map_rows(_gammas, 1, n_rows, width)


def test_blocks_from_a_later_start_are_the_table_rows(monkeypatch):
    # blocks drawn from a block boundary on are the rows of the full table,
    # each handed over once, on any worker count
    monkeypatch.setattr(streams, "_CHUNK_ROWS", 100)
    full = map_rows(_gammas, 9, 1050, 3)
    for workers in (1, 3):
        got = {}
        streams.draw_blocks(_gammas, 9, 300, 1050, 3, got.__setitem__, workers)
        assert sorted(got) == list(range(300, 1050, 100))
        assert np.array_equal(np.concatenate([got[r] for r in sorted(got)]), full[300:])
    with pytest.raises(ValueError, match="block boundary"):
        streams.draw_blocks(_gammas, 9, 150, 1050, 3, got.__setitem__)


class _RecordingPool:
    """Stands in for ThreadPoolExecutor: records ``max_workers`` and runs
    the ranges inline, so no thread is started."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_threads_capped_at_cpu_count(monkeypatch):
    monkeypatch.setattr(streams, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(streams, "_cpu_count", lambda: 3)
    _RecordingPool.sizes = []
    chunks = []
    run_rows(lambda start, count: chunks.append((start, count)), 10**6, workers=100_000)
    assert _RecordingPool.sizes == [3]
    # 62 blocks of 2**14 rows, cut into ranges of 20, 21 and 21 blocks
    starts = [s for s, _ in chunks]
    assert {0, 20 << 14, 41 << 14} <= set(starts)
    assert all(s % (1 << 14) == 0 for s in starts)
    assert all(s + c == t for (s, c), t in zip(chunks, starts[1:] + [10**6]))


def test_chunks_cover_every_row_once(monkeypatch):
    monkeypatch.setattr(streams, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(streams, "_cpu_count", lambda: 8)
    monkeypatch.setattr(streams, "_CHUNK_ROWS", 4)
    _RecordingPool.sizes = []
    chunks = []
    run_rows(lambda start, count: chunks.append((start, count)), 11, workers=2)
    assert _RecordingPool.sizes == [2]
    assert chunks == [(0, 4), (4, 4), (8, 3)]
    # never more threads than blocks
    chunks.clear()
    run_rows(lambda start, count: chunks.append((start, count)), 9, workers=4)
    assert _RecordingPool.sizes == [2, 3]
    assert chunks == [(0, 4), (4, 4), (8, 1)]
    chunks.clear()
    run_rows(lambda start, count: chunks.append((start, count)), 3, workers=4)
    assert _RecordingPool.sizes == [2, 3]
    assert chunks == [(0, 3)]


def test_range_errors_propagate():
    def boom(start, count):
        raise ArithmeticError("range failed")

    with pytest.raises(ArithmeticError):
        run_rows(boom, 100, workers=2)
    with pytest.raises(EmptyRequestError):
        run_rows(lambda start, count: None, 0, workers=2)


@pytest.mark.parametrize("workers", [0, -4, 2.5, "2"])
def test_bad_worker_count_rejected(workers):
    with pytest.raises(ParameterError):
        run_rows(lambda start, count: None, 10, workers=workers)


def test_worker_environment_variable(monkeypatch):
    monkeypatch.delenv(streams.WORKERS_ENV_VAR, raising=False)
    assert default_workers() == 1
    monkeypatch.setenv(streams.WORKERS_ENV_VAR, "3")
    assert default_workers() == 3
    for bad in ("abc", "0", "-2", ""):
        monkeypatch.setenv(streams.WORKERS_ENV_VAR, bad)
        with pytest.raises(ParameterError, match=streams.WORKERS_ENV_VAR):
            default_workers()
