"""Monochromatic cube extraction from tower colorings by block interning.

Given a c-coloring of a stage-n tower, the top stage splits the tower into
W_n blocks of size sizes[n-1] and interns each block's full color pattern as
a small id. The id sequence is a coloring of the block indices with at most
c^(block size) colors, and the block count W_n = W(k_n, c_{n-1}) guarantees
it contains a monochromatic k_n-term progression of block indices. Equal ids
mean the blocks agree position for position, so stepping d* blocks is a rigid
color-preserving shift of d* * sizes[n-1] positions; that shift becomes the
top difference and the construction recurses into the first selected block.
The stage-1 base case is a plain monochromatic progression search.

A block is read and interned only when the progression scan (least block
first, then least step) first looks at it, or when a scan walking the
blocks in order reads ahead past it (never further ahead than it has
already read), so a stage whose least progression of equal blocks starts
near its first block is read only about that far. The scan jumps from a
block to the next block with the same id (_Stage.index), which looks the
blocks between them up in order, so it reads what a block-by-block scan
would read. The recursion works on the colors of the selected block that
the scan has already read: one unchecked extraction reads each cell at most
once. The source is a finite coloring or an oracle; oracle reads, read-ahead
and checked re-reads included, count against the cell limit.
A trace reports how many patterns the whole stage has, so with a trace
every block of a stage is interned before its scan.

The recursion runs iteratively from the top stage down so that degenerate
deep towers (single color, twenty stages) stay clear of call-stack limits.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable

from .core import (
    ColorOracle,
    CubeWitness,
    DomainError,
    FiniteColoring,
    Interval,
    InvariantViolationError,
    MaterializationLimitError,
    max_cells_limit,
)
from .tower import TowerParams, build_tower_interval
from .wnumbers import _least_ap

# read(i, j): the colors at 0-based offsets i..j-1 of the current tower segment.
_Reader = Callable[[int, int], tuple[int, ...]]

# Blocks are read in batches of at most about this many cells.
_BATCH_CELLS = 1 << 16


class _ReadFailure(Exception):
    """A block read's ValueError, as __cause__: index raises ValueError for "none"."""


class _Stage(dict):
    """Pattern id of each block of one stage, by 0-based block index.

    A block is read and interned on its first lookup. Ids number the
    distinct patterns in the order they were first read, so equal ids mean
    equal colors at every offset, and the id-th key of patterns is the
    pattern of id.
    A lookup just past the run of blocks read from block 0 reads ahead as
    many blocks as that run holds (at most about _BATCH_CELLS cells), so a
    scan that walks the blocks in order reads at most about twice what it
    looks at, in few batches, and no block is read twice. run holds the
    ids of that run as a list, which index searches at C speed. A read
    that raises ValueError raises _ReadFailure from it.
    """

    __slots__ = ("read", "size", "count", "patterns", "run")

    def __init__(self, read: _Reader, size: int, count: int) -> None:
        super().__init__()
        self.read = read
        self.size = size
        self.count = count
        self.patterns: dict[tuple[int, ...], int] = {}
        self.run: list[int] = []  # the ids of blocks 0..len(run)-1, all read

    def index(self, value: int, start: int, stop: int) -> int:
        """Least block b in [start, stop) whose id is value, else ValueError.

        Blocks are looked up in ascending order up to the answer, so the
        reads are those of looking up start, start + 1, ... one by one.
        """
        run = self.run
        b = start
        while b < stop:
            if b < len(run):
                try:
                    return run.index(value, b, stop)
                except ValueError:
                    b = len(run)
            elif self[b] == value:  # reads ahead when b is the front
                return b
            else:
                b += 1
        raise ValueError(f"no block with id {value} in [{start}, {stop})")

    def intern(self, b0: int, b1: int) -> list[int]:
        """The ids of blocks b0..b1-1, read in batches and interned."""
        size, patterns = self.size, self.patterns
        step = max(1, _BATCH_CELLS // size)
        ids: list[int] = []
        for lo in range(b0, b1, step):
            cells = self.read(lo * size, min(b1, lo + step) * size)
            ids += [
                patterns.setdefault(cells[i : i + size], len(patterns) + 1)
                for i in range(0, len(cells), size)
            ]
        return ids

    def __missing__(self, b: int) -> int:
        run = self.run
        stop = b + 1
        if b == len(run):
            stop = min(self.count, b + max(1, min(b, _BATCH_CELLS // self.size)))
            if len(self) > b:
                # A block past the front was read out of order: stop before it.
                stop = next((x for x in range(b + 1, stop) if x in self), stop)
        try:
            ids = self.intern(b, stop)
        except ValueError as exc:
            raise _ReadFailure from exc
        self.update(zip(range(b, stop), ids))
        if b == len(run):
            run += ids
            while len(run) in self:
                run.append(self[len(run)])
        return self[b]


def _reader(source: FiniteColoring | ColorOracle, lo: int, max_cells: int | None) -> _Reader:
    """Reads of the tower starting at position lo. Oracle reads count their
    cells, refusing once the total would pass max_cells_limit(max_cells),
    and their colors are checked against the palette."""
    if isinstance(source, FiniteColoring):
        return _slicer(source.colors)
    c, limit = source.c, max_cells_limit(max_cells)
    total = 0

    def read(i: int, j: int) -> tuple[int, ...]:
        nonlocal total
        total += j - i
        if total > limit:
            raise MaterializationLimitError(
                f"extraction would read {total} cells, over the materialization "
                f"limit {limit}"
            )
        cells = source._colors(lo + i, lo + j - 1)
        if min(cells) < 1 or max(cells) > c:
            raise DomainError(f"colors must lie in [1, {c}]")
        return cells

    return read


def _slicer(cells: tuple[int, ...]) -> _Reader:
    return lambda i, j: cells[i:j]


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
    against the cell limit) and compared color by color with the pattern
    their id stands for. If trace is a list, one record {stage, b1, dstar,
    block_size, palette_size} is appended per stage above the base, top
    stage first; palette_size counts the patterns of all the stage's blocks.
    """
    if n < 1 or n > params.stages:
        raise DomainError(f"stage {n} outside [1, {params.stages}]")
    ks = params.ks[:n]
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
        size = params.size(m - 1)
        count = params.w(m)
        stage = _Stage(read, size, count)
        ids = stage.intern(0, count) if trace is not None else stage
        try:
            hit = _least_ap(ids, count, ks[m - 1])
        except _ReadFailure as exc:
            raise exc.__cause__ from None
        if hit is None:
            raise InvariantViolationError(
                f"no length-{ks[m - 1]} progression among {count} blocks with "
                f"{len(stage.patterns)} patterns at stage {m}"
            )
        b1, dstar = hit
        if trace is not None:
            trace.append(
                {
                    "stage": m,
                    "b1": b1,
                    "dstar": dstar,
                    "block_size": size,
                    "palette_size": len(stage.patterns),
                }
            )
        block = next(islice(stage.patterns, ids[b1] - 1, None))
        if checked:
            _check_block_shift(read, b1, dstar, size, ks[m - 1], block)
        ds_rev.append(dstar * size)
        lo += b1 * size
        read = _slicer(block)

    cells = read(0, params.w(1))
    base_hit = _least_ap(cells, len(cells), ks[0])
    if base_hit is None:
        raise InvariantViolationError(
            f"no length-{ks[0]} progression in a {len(cells)}-cell base "
            f"with {params.c} colors"
        )
    a0, d1 = base_hit
    witness = CubeWitness(cells[a0], lo + a0, (d1, *reversed(ds_rev)), ks)
    _check_bounds(witness, n, params)
    return witness


def _check_block_shift(
    read: _Reader, b1: int, dstar: int, block_size: int, k: int, pattern: tuple[int, ...]
) -> None:
    """Selected blocks, re-read, must be literal copies of the pattern their
    id stands for: color(q + j*dstar*block_size) = pattern[q] for 0 <= j < k."""
    start = b1 * block_size
    for j in range(k):
        shifted = start + j * dstar * block_size
        if read(shifted, shifted + block_size) != pattern:
            raise InvariantViolationError(
                f"block {b1 + j * dstar} does not match the pattern of its id"
            )


def _check_bounds(witness: CubeWitness, n: int, params: TowerParams) -> None:
    """d_1 <= W_1 and d_m <= W_m * sizes[m-1]: the step at stage m moves whole
    stage-(m-1) towers, so its positional size carries that factor."""
    for m, d in enumerate(witness.ds, start=1):
        bound = params.w(1) if m == 1 else params.w(m) * params.size(m - 1)
        if d > bound:
            raise InvariantViolationError(
                f"difference {d} at stage {m} exceeds bound {bound}"
            )
