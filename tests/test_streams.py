import numpy as np
import pytest

import ekstat.streams as streams
from ekstat.errors import EmptyRequestError, ParameterError
from ekstat.streams import default_workers, run_rows, uniform_block, uniform_block_parallel


def test_values_open_interval():
    u = uniform_block(1, 1000, 3)
    assert u.shape == (1000, 3)
    assert u.min() > 0.0 and u.max() < 1.0


def test_row_slices_match_full_table():
    full = uniform_block(7, 100, 5)
    for start, count in ((0, 10), (13, 20), (90, 10)):
        part = uniform_block(7, 100, 5, start, count)
        assert np.array_equal(full[start:start + count], part)


def test_column_count_changes_stream_layout_only():
    # rows are padded to counter blocks, so narrower tables share the
    # leading columns of the padded width
    wide = uniform_block(3, 50, 4)
    narrow = uniform_block(3, 50, 2)
    assert np.array_equal(wide[:, :2], narrow)


def test_parallel_split_is_exact():
    one = uniform_block_parallel(11, 7919, 6, workers=1)
    for workers in (2, 3, 8):
        assert np.array_equal(one, uniform_block_parallel(11, 7919, 6, workers=workers))


def test_distinct_seeds_differ():
    assert not np.array_equal(uniform_block(1, 100, 2), uniform_block(2, 100, 2))


def test_empty_request():
    with pytest.raises(EmptyRequestError):
        uniform_block(1, 0, 2)


def test_bad_slice():
    with pytest.raises(ValueError):
        uniform_block(1, 10, 2, row_start=8, row_count=5)


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
    starts = [s for s, _ in chunks]
    assert {0, 333_333, 666_666} <= set(starts)
    assert all(s + c == t for (s, c), t in zip(chunks, starts[1:] + [10**6]))


def test_chunks_cover_every_row_once(monkeypatch):
    monkeypatch.setattr(streams, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(streams, "_cpu_count", lambda: 8)
    monkeypatch.setattr(streams, "_CHUNK_ROWS", 4)
    _RecordingPool.sizes = []
    chunks = []
    run_rows(lambda start, count: chunks.append((start, count)), 11, workers=2)
    assert _RecordingPool.sizes == [2]
    assert chunks == [(0, 4), (4, 1), (5, 4), (9, 2)]
    chunks.clear()
    run_rows(lambda start, count: chunks.append((start, count)), 3, workers=4)
    assert _RecordingPool.sizes == [2, 3]
    assert chunks == [(0, 1), (1, 1), (2, 1)]


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
