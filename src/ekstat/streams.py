"""Counter-based uniform random streams with reproducible worker splits.

All samplers in this library draw their randomness through
:func:`uniform_block`, which lays out one fixed-width row of uniforms per
sample.  Rows are aligned to Philox counter blocks (4 doubles each), so a
run partitioned across workers by row ranges reproduces the single-worker
output exactly, row for row.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import EmptyRequestError, ParameterError

WORKERS_ENV_VAR = "EKSTAT_WORKERS"

# Keep uniforms strictly inside (0,1) so inverse CDFs never hit the endpoints.
_U_LO = 2.0 ** -53
_U_HI = 1.0 - 2.0 ** -53


def default_workers() -> int:
    """Worker count from the environment, defaulting to 1."""
    try:
        return max(1, int(os.environ.get(WORKERS_ENV_VAR, "1")))
    except ValueError:
        return 1


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


def uniform_block_parallel(seed: int, n_rows: int, n_cols: int, workers: int = 1) -> np.ndarray:
    """Same table as :func:`uniform_block`, generated by ``workers`` threads."""
    workers = max(1, min(int(workers), n_rows))
    if workers == 1:
        return uniform_block(seed, n_rows, n_cols)
    bounds = np.linspace(0, n_rows, workers + 1, dtype=int)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(
            lambda i: uniform_block(seed, n_rows, n_cols, bounds[i], bounds[i + 1] - bounds[i]),
            range(workers),
        )
        return np.vstack(list(parts))
