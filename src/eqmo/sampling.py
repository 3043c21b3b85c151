"""Reproducible normal sampling, independent of the worker count.

The stream for (seed, paths, cols) is a (paths, cols) matrix of standard
normals in blocks of BLOCK = 4096 rows: block b holds rows b * 4096 up to
min((b + 1) * 4096, paths) and is filled in C order by numpy's ziggurat
``standard_normal`` from its own substream, an SFC64 bit generator seeded
with ``SeedSequence((seed, b))``. Path p's row thus depends only on (seed,
p, cols), never on how many threads drew it. `EQMO_WORKERS` selects the
thread count (an integer >= 1, capped at the number of blocks); threads
draw and consume disjoint blocks, which keeps every output bit-identical
for any setting. Seeds must lie in [0, 2**63), path counts in [1,
MAX_PATHS], column counts be integers >= 0 and time-major matrices hold at
most MAX_CELLS normals.

The stream is never built whole, nor even a whole block of it.
:func:`for_each_block` fills each block from its one generator in
consecutive chunks of about CHUNK_BYTES and hands one chunk at a time to a
consumer. Consecutive fills from a generator give the numbers of one fill,
so a chunk holds exactly its rows of the block, and a simulation that reads
the normals once keeps only O(CHUNK_BYTES) of them alive per thread,
whatever the column count. :func:`time_major_normals` fills the
(cols, paths) transpose that way.
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
CHUNK_BYTES = 2 ** 20
"""Size of the scratch chunk each thread fills and visits, in bytes. Chunks
of 256 KiB to 2 MiB drew and reduced `mc`'s normals equally fast
(BENCH_mc_chunk.json); 1 MiB is half of a 2 MiB per-core L2 cache, so a
visit reads normals that are still cached."""
MAX_CELLS = 3 * 10 ** 7
"""Largest paths x cols matrix :func:`time_major_normals` fills. The
regression route keeps every path at every date, so its memory grows with
this matrix: a full-grid solve (4 float64 per path and date) measured about
40 MB + 32 bytes per cell of peak RSS, and the bound keeps it under about
1.0 GB. :mod:`eqmo.bsde`'s module docstring accounts for what each solve
holds."""


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


def _check_int(name: str, value) -> int:
    """``value`` as an int; a bool or a non-integer is a ValidationError."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_seed(seed) -> int:
    """The seed as an int in [0, 2**63); anything else is a ValidationError."""
    seed = _check_int("seed", seed)
    if not 0 <= seed < SEED_LIMIT:
        raise ValidationError(f"seed must lie in [0, 2**63), got {seed}")
    return seed


def check_paths(paths) -> int:
    """The path count as an int in [1, MAX_PATHS]; anything else is a ValidationError."""
    paths = _check_int("paths", paths)
    if not 1 <= paths <= MAX_PATHS:
        raise ValidationError(f"paths must lie in [1, {MAX_PATHS}], got {paths}")
    return paths


def _check_cols(cols) -> int:
    cols = _check_int("cols", cols)
    if cols < 0:
        raise ValidationError(f"cols must be >= 0, got {cols}")
    return cols


def _pool_size(blocks: int) -> int:
    """Threads to start for ``blocks`` blocks: EQMO_WORKERS, at most one per block."""
    return min(worker_count(), blocks)


def block_generator(seed: int, b: int) -> np.random.Generator:
    """The generator of block b's substream: an SFC64 bit generator seeded
    with ``SeedSequence((seed, b))``. Under numpy's ziggurat it takes about a
    fifth less time per normal than numpy's default PCG64 (BENCH_sfc64.json)."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, b))))


def for_each_block(seed: int, paths: int, cols: int,
                   visit: Callable[[int, int, np.ndarray], None]) -> None:
    """Call ``visit(lo, hi, Z)`` once per chunk of the (paths, cols) stream,
    Z holding rows lo:hi. Block b (rows b * BLOCK up to the next block) is
    drawn in C order by ``Generator(SFC64(SeedSequence((seed, b))))``'s
    ziggurat as consecutive chunks of max(1, min(BLOCK, CHUNK_BYTES //
    (8 * cols))) rows, the last one shorter, so the chunks of a block tile it
    in order.

    Z is scratch space that the thread overwrites with its next chunk, so
    ``visit`` copies whatever must outlive the call. One thread visits the
    chunks in order; with more workers, thread w visits the chunks of blocks
    w, w + workers, ... in order, concurrently with the others, and ``visit``
    must then write only rows (or columns) lo:hi of any shared output.
    """
    seed, paths, cols = check_seed(seed), check_paths(paths), _check_cols(cols)
    blocks = (paths + BLOCK - 1) // BLOCK
    workers = _pool_size(blocks)
    rows = max(1, min(BLOCK, CHUNK_BYTES // (8 * max(cols, 1))))

    def work(stripe: range) -> None:
        scratch = np.empty((min(rows, paths), cols))
        for b in stripe:
            draw = block_generator(seed, b).standard_normal
            end = min((b + 1) * BLOCK, paths)
            for lo in range(b * BLOCK, end, rows):
                hi = min(lo + rows, end)
                Z = scratch[:hi - lo]
                draw(out=Z)
                visit(lo, hi, Z)

    if workers <= 1:
        work(range(blocks))
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(work, range(w, blocks, workers)) for w in range(workers)]
        for f in futures:
            f.result()


def time_major_normals(seed: int, paths: int, cols: int) -> np.ndarray:
    """The (paths, cols) stream's transpose as a C-contiguous (cols, paths)
    array: row j holds every path's j-th normal. Each chunk is written into
    its columns as it is drawn, so the output plus one chunk per thread is
    all this holds.

    More than MAX_CELLS normals is a ValidationError, raised before anything
    is allocated.
    """
    paths, cols = check_paths(paths), _check_cols(cols)
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
