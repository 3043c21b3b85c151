"""Reproducible normal sampling, independent of the worker count.

Randoms are generated per fixed-size block of path indices from the substream
``SeedSequence((seed, block_index))``, so the value drawn for path p depends
only on (seed, p), never on how many threads produced it. `EQMO_WORKERS`
selects the thread count (an integer >= 1, capped at the number of blocks);
threads draw and consume disjoint row slices, which keeps every output
bit-identical for any setting. Seeds must lie in [0, 2**63), path counts
in [1, MAX_PATHS] and time-major matrices hold at most MAX_CELLS normals.

:func:`blocked_normals` returns the whole (paths, cols) matrix.
:func:`for_each_block` hands one block of it at a time to a consumer, so a
simulation that reads the normals once keeps only O(BLOCK * cols) of them
alive; :func:`time_major_normals` is the (cols, paths) transpose built that
way.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from .errors import ValidationError

BLOCK = 4096
SEED_LIMIT = 2 ** 63
MAX_PATHS = 10 ** 8
MAX_CELLS = 3 * 10 ** 7
"""Largest paths x cols matrix :func:`time_major_normals` fills. The
regression route keeps every path at every date: the state and dW matrices,
plus whatever its solve keeps. Every solve runs one backward date loop that
holds its block of member rows and one Z buffer; its visitor keeps the
rest. A full-grid ``solve_bsde`` (a one-row block filling Y and Z grids)
and an s-dependent flow (an (n + 1)-row block and an n-row Z buffer) keep 4
float64 per path and date; their peak RSS measured about 40 MB + 32 bytes
per cell of this matrix (fresh-process ``ru_maxrss``, grid_n 50, 40000 and
80000 paths), so the bound keeps such a run under about 1.0 GB. A means
solve (``solve_bsde_means``, which is all the ``bsde`` command runs on
either factor kind) keeps 2 float64 per path and date, a flow of identical
members keeps 3 and a recurrent system of m members
(``solve_recurrent_system``) keeps 2 + 2m."""


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


def _check_int(name: str, value) -> None:
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")


def check_seed(seed) -> int:
    """The seed as an int in [0, 2**63); anything else is a ValidationError."""
    _check_int("seed", seed)
    if not 0 <= seed < SEED_LIMIT:
        raise ValidationError(f"seed must lie in [0, 2**63), got {seed}")
    return int(seed)


def check_paths(paths) -> int:
    """The path count as an int in [1, MAX_PATHS]; anything else is a ValidationError."""
    _check_int("paths", paths)
    if not 1 <= paths <= MAX_PATHS:
        raise ValidationError(f"paths must lie in [1, {MAX_PATHS}], got {paths}")
    return int(paths)


def _pool_size(blocks: int) -> int:
    """Threads to start for ``blocks`` blocks: EQMO_WORKERS, at most one per block."""
    return min(worker_count(), blocks)


def _rows(block: int, paths: int) -> tuple[int, int]:
    lo = block * BLOCK
    return lo, min(lo + BLOCK, paths)


def _draw(seed: int, block: int, out: np.ndarray) -> None:
    """Fill ``out`` (the block's rows, C-contiguous) from the block's substream."""
    np.random.default_rng(np.random.SeedSequence((seed, block))).standard_normal(out=out)


def _run_blocks(paths: int, work: Callable[[range], None]) -> None:
    """Call ``work(blocks)`` once per thread on disjoint stripes of the block range."""
    n = (paths + BLOCK - 1) // BLOCK
    workers = _pool_size(n)
    if workers <= 1:
        work(range(n))
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(work, range(w, n, workers)) for w in range(workers)]
        for f in futures:
            f.result()


def blocked_normals(seed: int, paths: int, cols: int) -> np.ndarray:
    """(paths, cols) standard normals keyed by (seed, path block)."""
    seed, paths = check_seed(seed), check_paths(paths)
    out = np.empty((paths, cols))

    def work(blocks: range) -> None:
        for b in blocks:
            lo, hi = _rows(b, paths)
            _draw(seed, b, out[lo:hi])

    _run_blocks(paths, work)
    return out


def for_each_block(seed: int, paths: int, cols: int,
                   visit: Callable[[int, int, np.ndarray], None]) -> None:
    """Call ``visit(lo, hi, Z)`` for each block, Z bitwise equal to
    ``blocked_normals(seed, paths, cols)[lo:hi]``.

    Z is scratch space that the thread overwrites with its next block, so
    ``visit`` copies whatever must outlive the call. With more than one
    worker, blocks are visited concurrently; ``visit`` must then write only
    rows (or columns) lo:hi of any shared output.
    """
    seed, paths = check_seed(seed), check_paths(paths)

    def work(blocks: range) -> None:
        scratch = np.empty((min(BLOCK, paths), cols))
        for b in blocks:
            lo, hi = _rows(b, paths)
            Z = scratch[:hi - lo]
            _draw(seed, b, Z)
            visit(lo, hi, Z)

    _run_blocks(paths, work)


def time_major_normals(seed: int, paths: int, cols: int) -> np.ndarray:
    """``blocked_normals(seed, paths, cols).T`` as a C-contiguous (cols, paths) array.

    More than MAX_CELLS normals is a ValidationError, raised before anything
    is allocated.
    """
    paths = check_paths(paths)
    if paths * cols > MAX_CELLS:
        raise ValidationError(
            f"paths x steps = {paths} x {cols} exceeds the {MAX_CELLS} normals "
            f"a time-major matrix may hold"
        )
    out = np.empty((cols, paths))

    def visit(lo: int, hi: int, Z: np.ndarray) -> None:
        out[:, lo:hi] = Z.T

    for_each_block(seed, paths, cols, visit)
    return out
