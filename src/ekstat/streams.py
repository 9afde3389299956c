"""Counter-based random streams with reproducible worker splits.

All samplers in this library draw their randomness through
:func:`draw_blocks`, which cuts the rows of a sample into fixed blocks of
``_CHUNK_ROWS`` rows, counted from row 0, and gives block b its own
generator: ``Philox(key=seed)`` jumped b times, so blocks never share
random numbers and each block can be drawn on its own.  :func:`run_rows`
runs the blocks on contiguous ranges of whole blocks in a thread pool, at
most one thread per CPU.  Each block is handed to a consumer on the thread
that drew it: :func:`map_rows` writes it into a preallocated table, so the
table equals the single-worker output exactly, row for row, for any worker
count; a consumer that only tallies the block (``verify`` counting boxes)
holds one block per thread and never the sample.  A table above
``_SAMPLE_BUDGET`` bytes is refused before it is allocated.
"""

from __future__ import annotations

import operator
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import EmptyRequestError, ParameterError, ShapeError, SizeError

WORKERS_ENV_VAR = "EKSTAT_WORKERS"


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


# rows per block: each block of rows draws from its own generator, so the
# draws depend on this size (and on the seed) but not on the worker count;
# it also keeps each call's temporaries to a few MB, whatever the sample size
_CHUNK_ROWS = 1 << 14


def run_rows(fn, n_rows: int, workers: int = 1) -> None:
    """Call ``fn(row_start, row_count)`` on the blocks of ``_CHUNK_ROWS``
    rows (the last one shorter) that cover rows [0, n_rows), each thread
    taking one contiguous range of whole blocks.

    At most ``workers`` threads run, and never more than the CPUs this
    process may use or than there are blocks.  ``fn`` writes its rows into
    outputs the caller preallocated, or adds them into integer tallies, so
    the split leaves no trace in its results.
    """
    if n_rows < 1:
        raise EmptyRequestError("at least one row must be requested")
    n_blocks = -(-n_rows // _CHUNK_ROWS)
    workers = min(check_workers(workers), n_blocks)
    if workers > 1:
        workers = min(workers, _cpu_count())

    def run(first, stop):
        for block in range(first, stop):
            row = block * _CHUNK_ROWS
            fn(row, min(_CHUNK_ROWS, n_rows - row))

    if workers == 1:
        run(0, n_blocks)
        return
    bounds = np.linspace(0, n_blocks, workers + 1, dtype=int).tolist()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run, bounds[:-1], bounds[1:]))


# the largest table map_rows allocates: 1 GiB, an eighth of an 8 GB machine
_SAMPLE_BUDGET = 1 << 30


def draw_blocks(fn, seed: int, start: int, stop: int, width: int, use, workers: int = 1) -> None:
    """Call ``use(row, rows)`` for each block of rows in [start, stop), with
    ``rows = fn(gen, count)``, ``count`` the block's rows and ``gen`` a
    generator on ``Philox(key=seed)`` jumped b times for block b, counted
    from row 0; the blocks run on :func:`run_rows`, and ``use`` runs on the
    drawing thread.

    ``start`` is a block boundary, so the rows are those of a table drawn
    from row 0.  ShapeError if ``fn`` returns anything but (count, width),
    which numpy would otherwise broadcast over the block (one row repeated,
    say)."""
    if not 0 <= seed < 2**64:
        raise ParameterError(f"seed must lie in [0, 2**64), got {seed}")
    if start % _CHUNK_ROWS:
        raise ValueError(f"row {start} is not a block boundary")
    bits = np.random.Philox(key=seed)

    def block(offset, count):
        row = start + offset
        rows = fn(np.random.Generator(bits.jumped(row // _CHUNK_ROWS)), count)
        if np.shape(rows) != (count, width):
            raise ShapeError(f"row function returned shape {np.shape(rows)} for a block "
                             f"of {count} rows and {width} columns")
        use(row, rows)

    run_rows(block, stop - start, workers)


def map_rows(fn, seed: int, n_rows: int, width: int, workers: int = 1) -> np.ndarray:
    """(n_rows, width) array whose rows in block b are ``fn(gen, count)``,
    drawn by :func:`draw_blocks`.

    SizeError, before anything is allocated, when the table would take
    more than ``_SAMPLE_BUDGET`` bytes."""
    nbytes = max(n_rows, 0) * width * 8
    if nbytes > _SAMPLE_BUDGET:
        raise SizeError(f"a table of {n_rows} rows and {width} columns takes {nbytes} bytes, "
                        f"over the sample budget of {_SAMPLE_BUDGET} bytes")
    out = np.empty((max(n_rows, 0), width))

    def put(row, rows):
        out[row:row + len(rows)] = rows

    draw_blocks(fn, seed, 0, n_rows, width, put, workers)
    return out
