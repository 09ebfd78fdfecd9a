"""Monochromatic cube extraction from tower colorings by block compression.

Given a c-coloring of a stage-n tower, the top stage splits the tower into
W_n blocks of size sizes[n-1] and interns each block's full color pattern as
a small id. The id sequence is a coloring of the block indices with at most
c^(block size) colors, and the block count W_n = W(k_n, c_{n-1}) guarantees
it contains a monochromatic k_n-term progression of block indices. Equal ids
mean the blocks agree position for position, so stepping d* blocks is a rigid
color-preserving shift of d* * sizes[n-1] positions; that shift becomes the
top difference and the construction recurses into the first selected block.
The stage-1 base case is a plain monochromatic progression search.

The recursion runs iteratively from the top stage down so that degenerate
deep towers (single color, twenty stages) stay clear of call-stack limits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    CubeWitness,
    DomainError,
    FiniteColoring,
    Interval,
    InvariantViolationError,
)
from .tower import TowerParams, build_tower_interval
from .wnumbers import find_ap


@dataclass(frozen=True)
class CompressedColoring:
    """Block-pattern interning of a coloring cut into consecutive equal blocks.

    Two blocks receive the same id exactly when their color sequences agree
    at every offset. Ids are assigned by first occurrence starting at 1, so
    the id sequence is deterministic and uses at most min(num_blocks,
    c^block_size) distinct values.
    """

    num_blocks: int
    block_size: int
    palette: dict[tuple[int, ...], int]
    ids: tuple[int, ...]

    @property
    def palette_size(self) -> int:
        return len(self.palette)

    def ids_coloring(self) -> FiniteColoring:
        """The id sequence as a coloring of [1, num_blocks] (block i at position i+1)."""
        return FiniteColoring(self.palette_size, Interval(1, self.num_blocks), self.ids)


def compress(coloring: FiniteColoring, block_size: int, num_blocks: int) -> CompressedColoring:
    if block_size < 1 or num_blocks < 1:
        raise DomainError("block size and count must be >= 1")
    if coloring.domain.size() != block_size * num_blocks:
        raise DomainError(
            f"{coloring.domain.size()} cells cannot split into "
            f"{num_blocks} blocks of {block_size}"
        )
    colors = coloring.colors
    palette: dict[tuple[int, ...], int] = {}
    ids = []
    for i in range(num_blocks):
        pattern = colors[i * block_size : (i + 1) * block_size]
        pid = palette.get(pattern)
        if pid is None:
            pid = len(palette) + 1
            palette[pattern] = pid
        ids.append(pid)
    return CompressedColoring(num_blocks, block_size, palette, tuple(ids))


def extract(
    coloring: FiniteColoring,
    I: Interval,
    n: int,
    params: TowerParams,
    *,
    checked: bool = False,
    trace: list | None = None,
) -> CubeWitness:
    """A monochromatic n-cube from a stage-n tower coloring.

    Dimension m of the cube has side length params.ks[m-1], so uniform and
    per-stage lengths take the same path. The witness is fully determined by
    the least-progression tie-break at every stage. With checked=True the
    block-shift identity is re-verified against the raw colors at each
    stage. If trace is a list, one record {stage, b1, dstar, block_size,
    palette_size} is appended per compression stage, top stage first.
    """
    if n < 1 or n > params.stages:
        raise DomainError(f"stage {n} outside [1, {params.stages}]")
    ks = params.ks[:n]
    if coloring.c != params.c:
        raise DomainError(
            f"coloring has {coloring.c} colors, parameters expect {params.c}"
        )
    expected = build_tower_interval(I, n, params)
    if coloring.domain != expected:
        raise DomainError(
            f"coloring domain [{coloring.domain.lo}, {coloring.domain.hi}] is not "
            f"the stage-{n} tower [{expected.lo}, {expected.hi}]"
        )

    segment = coloring
    ds_rev: list[int] = []
    for m in range(n, 1, -1):
        block_size = params.size(m - 1)
        num_blocks = params.w(m)
        comp = compress(segment, block_size, num_blocks)
        hit = find_ap(comp.ids_coloring(), ks[m - 1])
        if hit is None:
            raise InvariantViolationError(
                f"no length-{ks[m - 1]} progression among {num_blocks} blocks with "
                f"{comp.palette_size} patterns at stage {m}"
            )
        pos, dstar = hit
        b1 = pos - 1  # block indices are 0-based
        if trace is not None:
            trace.append(
                {
                    "stage": m,
                    "b1": b1,
                    "dstar": dstar,
                    "block_size": block_size,
                    "palette_size": comp.palette_size,
                }
            )
        if checked:
            _check_block_shift(segment, b1, dstar, block_size, ks[m - 1])
        ds_rev.append(dstar * block_size)
        lo = segment.domain.lo + b1 * block_size
        segment = segment.restrict(Interval(lo, lo + block_size - 1))

    base_hit = find_ap(segment, ks[0])
    if base_hit is None:
        raise InvariantViolationError(
            f"no length-{ks[0]} progression in a {segment.domain.size()}-cell base "
            f"with {segment.c} colors"
        )
    a, d1 = base_hit
    gamma = segment.color_at(a)
    ds = (d1, *reversed(ds_rev))
    witness = CubeWitness(gamma, a, ds, ks)
    _check_bounds(witness, n, params)
    return witness


def _check_block_shift(
    segment: FiniteColoring, b1: int, dstar: int, block_size: int, k: int
) -> None:
    """Selected blocks must be literal copies: color(q + j*dstar*block_size) = color(q)."""
    colors = segment.colors
    start = b1 * block_size
    first = colors[start : start + block_size]
    for j in range(1, k):
        shifted = start + j * dstar * block_size
        if colors[shifted : shifted + block_size] != first:
            raise InvariantViolationError(
                f"block {b1 + j * dstar} is not a copy of block {b1} despite equal ids"
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
