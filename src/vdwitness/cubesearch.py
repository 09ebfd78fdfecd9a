"""Direct search for monochromatic cubes.

This module is the independent oracle for the tower extraction: it knows
nothing about towers or block compression and simply enumerates witnesses
(a, d_1, ..., d_n) in lexicographic order. When all side lengths are equal
the cube set is symmetric in its dimensions, so the enumeration restricts
to nondecreasing difference vectors without losing any cube.

find_cube tests all differences of a level at once with bitmasks. The row
of a cell p for side length k has bit d set iff p, p+d, ..., p+(k-1)d all
carry p's colour; it is the AND over strides j < k of a per-(colour, j,
p mod j) mask of colors[p mod j::j], shifted down by p // j. Those masks and
rows are built the first time a call needs them. The differences that
extend a cube by one dimension are the AND of its points' rows, cut to the
cap and the order's lower bound, and are walked in ascending order; a row
has no bits past the end of the domain, so the domain bound needs no check.
The work is bounded by the caps, not by the window: rows keep only the
differences up to the widest cap and live for one segment, each until the
anchors pass its cell, and the masks cover a segment of the window that
holds every cell the cubes of the next anchors can reach, rebuilt when the
anchors pass it. The first segment serves a few anchors and each later one
twice as many, up to a fixed step. When the cubes of one anchor can reach
the end of the window (no caps), the masks cover a prefix instead,
_MIN_STEP cells first, with every bit past it set, and the prefix doubles
whenever the least cube it cannot rule out leaves it, so the work is
bounded by how far the search reads; rows then span the prefix and live
for one anchor.

The search reads a window's cells through one reader (core._reader), in
window order and only as the masks first reach them, as bytes when the
palette fits in a byte: find_cube reads a finite coloring's cells, and a
search-mode stream window (streamer.solve_window) is colored by the
oracle, so only the cells up to the end of the last segment or prefix are
ever read.
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from .core import (
    CubeWitness,
    DomainError,
    FiniteColoring,
    Interval,
    _Reader,
    _reader,
    _side_lengths,
    _stride_mask,
)


def _check_caps(caps: Sequence[int] | None) -> tuple[int, ...] | None:
    """Per-dimension caps on the differences d_i as a tuple; None means
    domain-bounded."""
    caps = None if caps is None else tuple(caps)
    if caps and min(caps) < 1:
        raise DomainError("difference caps must be >= 1")
    return caps


# Anchors served by one segment of stride masks at least, once the segments
# have grown, and the cells of the first prefix: shifting a mask of a few
# hundred bits costs no more than a short one, and with small caps a longer
# segment rebuilds its masks less often.
_MIN_STEP = 256
# Anchors served by the first segment. Segments grow from it by doubling, so
# a window whose least cube lies near its start is read about reach +
# _FIRST_STEP cells far.
_FIRST_STEP = 32


def find_cube(
    coloring: FiniteColoring,
    ks: Sequence[int],
    bounds: Sequence[int] | None = None,
    *,
    distinct: bool = False,
) -> CubeWitness | None:
    """Least monochromatic cube witness, ordered by (a, d_1, ..., d_n).

    With uniform side lengths the differences are enumerated nondecreasing
    (a symmetry cut, not a restriction); distinct=True additionally demands
    strictly increasing differences. Returns None when no witness exists
    within the domain and caps.
    """
    read = _reader(coloring, coloring.domain.lo, None)
    return _least_cube(read, coloring.domain, ks, bounds, distinct)


def _least_cube(
    read: _Reader,
    window: Interval,
    ks: Sequence[int],
    bounds: Sequence[int] | None,
    distinct: bool,
) -> CubeWitness | None:
    """find_cube over the cells of window. read(i, j) returns the colors
    of the window's cells i..j-1 (0-based), as bytes for a byte palette;
    the buffer cells is extended by them as the masks first reach them, so
    the window is read only as far as the search reaches. With every
    dimension capped a cell's row lives for one segment, as the masks it is
    cut from do, until the anchors pass the cell; without, it spans the
    prefix and lives for one anchor.
    """
    n, lo = window.size(), window.lo
    ks = _side_lengths(ks)
    bounds = _check_caps(bounds)
    last = len(ks) - 1
    # The floor of the level after difference d: the differences above d
    # when they must be distinct, from d on for uniform sides, else every
    # d >= 1 (the floor -2), as at level 0.
    strict = 1 if distinct else 0
    free = not distinct and len(set(ks)) > 1
    # Bit d of limits[i] is set iff d is within dimension i's cap; widest is
    # the largest difference any dimension allows. No difference reaches n,
    # so a larger or absent cap is cut to n.
    limits = [-1] * len(ks)
    widest = n
    if bounds is not None:
        caps = [min(cap, n) for cap in bounds[: len(ks)]]
        for i, cap in enumerate(caps):
            limits[i] = (2 << cap) - 1
        if len(caps) == len(ks):
            widest = max(caps)
    # Rows keep the differences up to widest, so a search from anchor a
    # reads only the cells in [a, a + reach].
    reach = (sum(ks) - len(ks)) * widest
    # The stride masks cover the segment [base, base + len(segment)) of the
    # window. With reach < n it is [base, base + step + reach): every cell
    # read from the anchors [base, base + step). The first segment serves
    # _FIRST_STEP anchors and each later one twice as many as the one
    # before, up to top. Otherwise it is a prefix [0, known), _MIN_STEP
    # cells first, or the whole window when known == n. Past a prefix the
    # masks have every bit set, as if each later cell matched, so a search
    # finds the least cube that the prefix does not rule out; one that ends
    # inside the prefix is a real witness and the least, and any other
    # doubles the prefix and searches the anchor again.
    top = max(reach + 1, _MIN_STEP)
    step = _FIRST_STEP if reach < n else n
    cut = (2 << widest) - 1 if reach < n else -1
    base = known = 0
    # The colors read so far, from cell 0 on: a list once a read is not bytes.
    cells: bytearray | list[int] = bytearray()
    segment: bytearray | Sequence[int] = ()
    # gamma -> {slot: stride mask}, the mask of stride j and residue r at the
    # slot j(j - 1)/2 + r, as _avoid's stride rows place them.
    strides: dict[int, dict[int, int]] = {}
    # k -> {cell: row} for each side length k, and memos[i] is rows[ks[i]].
    # A row depends only on its cell and the masks, so it is kept until the
    # masks move (load) or the anchors pass its cell: every cube point lies
    # at or after its anchor, so no later anchor reads an earlier row.
    rows: dict[int, dict[int, int]] = {}
    memos: list[dict[int, int]] = []

    def load(start: int, hi: int) -> None:
        """Mask the cells [start, hi) of the window from now on."""
        nonlocal base, known, segment, cells, rows, memos
        hi = min(hi, n)
        if hi > len(cells):
            more = read(len(cells), hi)
            if not isinstance(more, bytes) and isinstance(cells, bytearray):
                cells = list(cells)
            cells += more
        base, segment = start, cells[start:hi]
        known = hi if reach >= n else n
        strides.clear()
        rows = {k: {} for k in ks}
        memos = [rows[k] for k in ks]

    def descend(level: int, pts: list[int], floor: int) -> tuple[int, ...] | None:
        """Least (d_level, ..., d_last) extending the cube on the cell
        indices pts (0-based, positions minus the domain start), with the
        differences d allowed by the order set in floor, or None."""
        k = ks[level]
        # Bit d of valid: d is allowed here and every point starts a
        # monochromatic k-term progression with difference d.
        valid = limits[level] & floor
        memo = memos[level]
        get = memo.get
        for p in pts:
            row = get(p)
            if row is None:
                # Bit d of row, for d up to widest: cells p, p+d, ...,
                # p+(k-1)d all have p's colour or lie past a prefix.
                try:
                    gamma = cells[p]
                except IndexError:  # p is past the cells read, so past a prefix
                    gamma = 0  # no cell has colour 0
                masks = strides.get(gamma)
                if masks is None:
                    masks = strides[gamma] = {}
                q = p - base
                row = cut
                for j in range(1, k):
                    r = q % j
                    mask = masks.get(j * (j - 1) // 2 + r)
                    if mask is None:
                        mask = _stride_mask(segment, gamma, j, r)
                        if known < n:
                            mask |= -1 << len(range(r, len(segment), j))
                        masks[j * (j - 1) // 2 + r] = mask
                    row &= mask >> (q // j)
                memo[p] = row
            valid &= row
            if not valid:
                return None
        if level == last:  # every valid d completes a cube: take the least
            return ((valid & -valid).bit_length() - 1,)
        while valid:  # set bits in ascending order
            low = valid & -valid
            valid ^= low
            d = low.bit_length() - 1
            grown = [p + o for o in range(0, k * d, d) for p in pts]
            rest = descend(level + 1, grown, -2 if free else -low << strict)
            if rest is not None:
                return (d, *rest)
        return None

    load(0, step + reach if reach < n else _MIN_STEP)
    for a in range(n):
        if a == base + step:  # the anchors left the segment: move it to a
            step = min(2 * step, top)
            load(a, a + step + reach)
        ds = descend(0, [a], -2)
        while ds is not None and a + sum(map(mul, ds, ks)) - sum(ds) >= known:
            load(0, 2 * known)  # the cube leaves the prefix: double it
            ds = descend(0, [a], -2)
        if ds is not None:
            return CubeWitness(cells[a], lo + a, ds, ks)
        for memo in rows.values():
            if reach < n:  # capped rows have at most widest bits: keep the rest
                memo.pop(a, None)
            else:  # uncapped rows span the prefix: keep one anchor's only
                memo.clear()
    return None
