"""Counter-based uniform random streams with reproducible worker splits.

All samplers in this library draw their randomness through
:func:`uniform_block`, which lays out one fixed-width row of uniforms per
sample.  Rows are aligned to Philox counter blocks (4 doubles each), so any
contiguous row range can be generated on its own.  :func:`run_rows` uses
this to run a whole per-row pipeline (uniforms, inverse-CDF draws and
whatever follows them) on contiguous row ranges in a thread pool, at most
one thread per CPU.  Each range is worked in chunks of a fixed number of
rows that write into preallocated outputs, so the result equals the
single-worker output exactly, row for row, for any worker count.
"""

from __future__ import annotations

import operator
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import EmptyRequestError, ParameterError

WORKERS_ENV_VAR = "EKSTAT_WORKERS"

# Keep uniforms strictly inside (0,1) so inverse CDFs never hit the endpoints.
_U_LO = 2.0 ** -53
_U_HI = 1.0 - 2.0 ** -53


def check_workers(workers) -> int:
    """``workers`` as an int; ParameterError unless it is a positive integer."""
    try:
        count = operator.index(workers)
    except TypeError:
        count = 0
    if count < 1:
        raise ParameterError(f"workers must be a positive integer, got {workers!r}")
    return count


def default_workers() -> int:
    """Worker count from the environment, defaulting to 1."""
    text = os.environ.get(WORKERS_ENV_VAR, "1")
    try:
        return check_workers(int(text))
    except ValueError:
        raise ParameterError(
            f"{WORKERS_ENV_VAR} must be a positive integer, got {text!r}") from None


def _cpu_count() -> int:
    """CPUs this process may run on (all CPUs where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# rows per call of a run_rows callback: keeps each call's temporaries to a
# few MB, whatever the sample size
_CHUNK_ROWS = 1 << 16


def run_rows(fn, n_rows: int, workers: int = 1) -> None:
    """Call ``fn(row_start, row_count)`` on consecutive chunks covering rows
    [0, n_rows), each thread taking one contiguous range of chunks.

    At most ``workers`` threads run, and never more than the CPUs this
    process may use or than there are rows.  ``fn`` writes its rows into
    outputs the caller preallocated, so the split leaves no trace in them.
    """
    if n_rows < 1:
        raise EmptyRequestError("at least one row must be requested")
    workers = min(check_workers(workers), n_rows)
    if workers > 1:
        workers = min(workers, _cpu_count())

    def run(start, stop):
        for row in range(start, stop, _CHUNK_ROWS):
            fn(row, min(_CHUNK_ROWS, stop - row))

    if workers == 1:
        run(0, n_rows)
        return
    bounds = np.linspace(0, n_rows, workers + 1, dtype=int).tolist()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run, bounds[:-1], bounds[1:]))


def _blocks_per_row(n_cols: int) -> int:
    return (n_cols + 3) // 4


def uniform_block(
    seed: int,
    n_rows: int,
    n_cols: int,
    row_start: int = 0,
    row_count: int | None = None,
) -> np.ndarray:
    """Deterministic (row_count, n_cols) uniforms in the open interval (0,1).

    Row ``r`` of the full (n_rows, n_cols) table is always generated from the
    same Philox counter range, so any contiguous row slice of a run equals the
    corresponding slice of the full run.
    """
    if n_rows < 1:
        raise EmptyRequestError("at least one row of uniforms must be requested")
    if not 0 <= seed < 2**64:
        raise ParameterError(f"seed must lie in [0, 2**64), got {seed}")
    if row_count is None:
        row_count = n_rows - row_start
    if row_start < 0 or row_count < 0 or row_start + row_count > n_rows:
        raise ValueError("row slice out of range")
    bpr = _blocks_per_row(n_cols)
    bits = np.random.Philox(key=np.uint64(seed))
    if row_start:
        bits.advance(int(row_start) * bpr)
    u = np.random.Generator(bits).random(row_count * bpr * 4)
    u = u.reshape(row_count, bpr * 4)[:, :n_cols]
    return np.clip(u, _U_LO, _U_HI)


def map_uniform_rows(fn, seed: int, n_rows: int, n_cols: int, width: int,
                     workers: int = 1) -> np.ndarray:
    """(n_rows, width) array whose rows in each range are ``fn`` of that
    range's rows of ``uniform_block(seed, n_rows, n_cols)``; the ranges run
    on :func:`run_rows`."""
    out = np.empty((max(n_rows, 0), width))

    def fill(start, count):
        out[start:start + count] = fn(uniform_block(seed, n_rows, n_cols, start, count))

    run_rows(fill, n_rows, workers)
    return out


def uniform_block_parallel(seed: int, n_rows: int, n_cols: int, workers: int = 1) -> np.ndarray:
    """Same table as :func:`uniform_block`, generated by ``workers`` threads."""
    return map_uniform_rows(lambda u: u, seed, n_rows, n_cols, n_cols, workers)
