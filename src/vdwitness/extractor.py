"""Monochromatic cube extraction from tower colorings by block patterns.

Given a c-coloring of a stage-n tower, the top stage splits the tower into
W_n blocks of size sizes[n-2] and colors each block by its full color
pattern: a block's id is its pattern, as packed bytes when the palette fits
in a byte (core._packed) and as a tuple otherwise, compared by value.
The id sequence is a coloring of the block indices with at most
c^(block size) colors, and the block count W_n = W(k_n, c_{n-1}) guarantees
it contains a monochromatic k_n-term progression of block indices. Equal ids
mean the blocks agree position for position, so stepping d* blocks is a rigid
color-preserving shift of d* * sizes[n-2] positions; that shift becomes the
top difference and the construction recurses into the first selected block.
The stage-1 base case is a plain monochromatic progression search. Both
scans run _least_ap, defined here because extraction is its only caller.

Each stage's blocks are read in order from block 0, as far as the
progression scan (least block first, then least step) has looked plus a
read-ahead of at most as many blocks as are already read, so a stage whose
least progression of equal blocks starts near its first block is read only
about that far. The scan jumps from a block to the next block with the same
id, and past the blocks read so far _Stage.fill reads the blocks between
them in order, as a block-by-block scan would. The recursion works on the
colors of the selected block that the scan has already read: one unchecked
extraction reads each cell at most once. The source is a finite coloring or
an oracle; oracle reads, read-ahead and checked re-reads included, count
against the cell limit.
A trace reports how many patterns the whole stage has, so a traced stage
reads every block before its scan.

The recursion runs iteratively from the top stage down so that degenerate
deep towers (single color, twenty stages) stay clear of call-stack limits.
"""

from __future__ import annotations

import struct
from typing import Callable

from .core import (
    ColorOracle,
    CubeWitness,
    DomainError,
    FiniteColoring,
    Interval,
    InvariantViolationError,
    _Reader,
    _reader,
    _slicer,
)
from .tower import TowerParams, build_tower_interval

# Blocks are read in batches of at most about this many cells.
_BATCH_CELLS = 1 << 16


def _least_ap(
    ids, n: int, k: int, fill: Callable[[int], None] | None = None
) -> tuple[int, int] | None:
    """Least (a0, d) with ids[a0] == ids[a0 + j*d] for 0 < j < k, over
    0-based indices below n, k >= 2.

    The scan runs a0 ascending, then d ascending. It jumps from one
    candidate d to the next with ids.index(gamma, start, stop), the least
    index in [start, stop) holding gamma, and reads the points j >= 2 only
    for that d. ids is a tuple, bytes or a list; a list may be shorter
    than n if fill(p) extends it through at least index p (_Stage.fill).
    The scan calls fill only for an index p >= len(ids) that it is about
    to look at, and continues a jump that finds nothing from len(ids), so
    a lazily filled stage is read exactly as an element-by-element scan
    would read it, and no further than the answer needs.
    """
    for a0 in range(n - k + 1):
        if a0 >= len(ids):
            fill(a0)
        gamma = ids[a0]
        stop = a0 + (n - 1 - a0) // (k - 1) + 1  # a0 + the largest d, plus one
        q = a0 + 1
        while q < stop:
            if q >= len(ids):
                fill(q)
            try:
                q = ids.index(gamma, q, stop)
            except ValueError:
                q = len(ids)
                continue
            d = q - a0
            for p in range(q + d, a0 + k * d, d):
                if p >= len(ids):
                    fill(p)
                if ids[p] != gamma:
                    break
            else:
                return (a0, d)
            q += 1
    return None


class _Stage:
    """Pattern ids of blocks 0..len(ids)-1 of one stage, read in order.

    A block's id is its color pattern as read: packed bytes when the
    palette fits in a byte, else a tuple; equal blocks have equal ids.
    fill(b) reads the blocks from len(ids) through b, or as many blocks as
    are already read if that is more (at least one, at most about
    _BATCH_CELLS cells), in batches of at most about _BATCH_CELLS cells.
    So a scan that walks the blocks in order reads at most about twice what
    it looks at, in few batches, and no block is read twice. A batch of
    several blocks is cut with no Python loop per block, bytes by one
    struct.unpack and tuples by zip; a batch of one block is kept as read,
    since cutting a long block cell by cell costs more than its read.
    """

    __slots__ = ("read", "size", "count", "ids")

    def __init__(self, read: _Reader, size: int, count: int) -> None:
        self.read = read
        self.size = size
        self.count = count
        self.ids: list[bytes | tuple[int, ...]] = []

    def fill(self, b: int) -> None:
        ids, size = self.ids, self.size
        front = len(ids)
        step = max(1, _BATCH_CELLS // size)
        stop = min(self.count, max(b + 1, front + max(1, min(front, step))))
        for lo in range(front, stop, step):
            cells = self.read(lo * size, min(stop, lo + step) * size)
            if len(cells) == size:
                ids.append(cells)
            elif isinstance(cells, bytes):
                ids += struct.unpack(f"{size}s" * (len(cells) // size), cells)
            else:
                ids += zip(*[iter(cells)] * size)


def extract(
    source: FiniteColoring | ColorOracle,
    I: Interval,
    n: int,
    params: TowerParams,
    *,
    checked: bool = False,
    trace: list | None = None,
    max_cells: int | None = None,
) -> CubeWitness:
    """A monochromatic n-cube from a stage-n tower coloring.

    source is a coloring of exactly the stage-n tower over I, or an oracle,
    which is read only where the scan looks (at most
    max_cells_limit(max_cells) cells, else MaterializationLimitError).
    Dimension m of the cube has side length params.ks[m-1], so uniform and
    per-stage lengths take the same path. The witness is fully determined
    by the least-progression tie-break at every stage. With checked=True
    the selected blocks are re-read at each stage (oracle re-reads count
    against the cell limit) and compared color by color with their id, the
    pattern read first. If trace is a list, one record {stage, b1, dstar,
    block_size, palette_size} is appended per stage above the base, top
    stage first; palette_size counts the distinct patterns of all the
    stage's blocks, so a traced stage reads every block before its scan.
    """
    params._stage_index(n)  # refuses a stage outside the tower
    W, sizes, ks = params.W[:n], params.sizes[:n], params.ks[:n]
    if source.c != params.c:
        raise DomainError(
            f"coloring has {source.c} colors, parameters expect {params.c}"
        )
    expected = build_tower_interval(I, n, params)
    if isinstance(source, FiniteColoring) and source.domain != expected:
        raise DomainError(
            f"coloring domain [{source.domain.lo}, {source.domain.hi}] is not "
            f"the stage-{n} tower [{expected.lo}, {expected.hi}]"
        )
    read = _reader(source, I.lo, max_cells)

    lo = I.lo
    ds_rev: list[int] = []
    for m in range(n, 1, -1):
        size, count, k = sizes[m - 2], W[m - 1], ks[m - 1]
        stage = _Stage(read, size, count)
        if trace is not None:
            stage.fill(count - 1)
        hit = _least_ap(stage.ids, count, k, stage.fill)
        if hit is None:
            raise InvariantViolationError(
                f"no length-{k} progression among {count} blocks with "
                f"{len(set(stage.ids))} patterns at stage {m}"
            )
        b1, dstar = hit
        if dstar > count:  # the step moves whole stage-(m-1) towers
            raise InvariantViolationError(
                f"difference {dstar * size} at stage {m} exceeds bound {count * size}"
            )
        if trace is not None:
            trace.append(
                {
                    "stage": m,
                    "b1": b1,
                    "dstar": dstar,
                    "block_size": size,
                    "palette_size": len(set(stage.ids)),
                }
            )
        block = stage.ids[b1]
        if checked:
            _check_block_shift(read, b1, dstar, size, k, block)
        ds_rev.append(dstar * size)
        lo += b1 * size
        read = _slicer(block)

    cells = read(0, W[0])
    base_hit = _least_ap(cells, len(cells), ks[0])
    if base_hit is None:
        raise InvariantViolationError(
            f"no length-{ks[0]} progression in a {len(cells)}-cell base "
            f"with {params.c} colors"
        )
    a0, d1 = base_hit
    if d1 > W[0]:
        raise InvariantViolationError(f"difference {d1} at stage 1 exceeds bound {W[0]}")
    return CubeWitness(cells[a0], lo + a0, (d1, *reversed(ds_rev)), ks)


def _check_block_shift(
    read: _Reader,
    b1: int,
    dstar: int,
    block_size: int,
    k: int,
    pattern: bytes | tuple[int, ...],
) -> None:
    """Selected blocks, re-read, must be literal copies of their id, the
    pattern first read: color(q + j*dstar*block_size) = pattern[q] for 0 <= j < k."""
    start = b1 * block_size
    for j in range(k):
        shifted = start + j * dstar * block_size
        if read(shifted, shifted + block_size) != pattern:
            raise InvariantViolationError(
                f"block {b1 + j * dstar} does not match the pattern of its id"
            )
