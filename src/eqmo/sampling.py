"""Reproducible normal sampling, independent of the worker count.

Randoms are generated per fixed-size block of path indices from the substream
``SeedSequence((seed, block_index))``, so the value drawn for path p depends
only on (seed, p), never on how many threads produced it. `EQMO_WORKERS`
selects the thread count (an integer >= 1, capped at the number of blocks);
threads fill disjoint row slices of one preallocated array, which keeps the
output bit-identical for any setting. Seeds must lie in [0, 2**63).
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ValidationError

BLOCK = 4096
SEED_LIMIT = 2 ** 63


def worker_count() -> int:
    """Thread count from EQMO_WORKERS (default 1); never affects results.

    A value that is not an integer, or is below 1, is a ValidationError.
    """
    raw = os.environ.get("EQMO_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        raise ValidationError(f"EQMO_WORKERS must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ValidationError(f"EQMO_WORKERS must be >= 1, got {workers}")
    return workers


def check_seed(seed) -> int:
    """The seed as an int in [0, 2**63); anything else is a ValidationError."""
    if isinstance(seed, (bool, np.bool_)) or not isinstance(seed, (int, np.integer)):
        raise ValidationError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < SEED_LIMIT:
        raise ValidationError(f"seed must lie in [0, 2**63), got {seed}")
    return int(seed)


def _pool_size(blocks: int) -> int:
    """Threads to start for ``blocks`` blocks: EQMO_WORKERS, at most one per block."""
    return min(worker_count(), blocks)


def _fill_block(out: np.ndarray, seed: int, block: int, cols: int) -> None:
    lo = block * BLOCK
    hi = min(lo + BLOCK, out.shape[0])
    rng = np.random.default_rng(np.random.SeedSequence((seed, block)))
    out[lo:hi] = rng.standard_normal((hi - lo, cols))


def blocked_normals(seed: int, paths: int, cols: int) -> np.ndarray:
    """(paths, cols) standard normals keyed by (seed, path block)."""
    seed = check_seed(seed)
    out = np.empty((paths, cols))
    blocks = range((paths + BLOCK - 1) // BLOCK)
    workers = _pool_size(len(blocks))
    if workers <= 1:
        for b in blocks:
            _fill_block(out, seed, b, cols)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda b: _fill_block(out, seed, b, cols), blocks))
    return out
