"""Exact van der Waerden numbers W(k, c) with extremal certificate colorings.

W(k, c) is the least n such that every c-coloring of [1, n] contains a
monochromatic k-term arithmetic progression. The search is a depth-first
extension of colorings position by position, pruning any prefix that
completes a monochromatic k-AP at its newest position, restricted to
canonical colorings (colors appear in order of first use). Canonical
restriction is exhaustive up to renaming and the lexicographically least
AP-free coloring is itself canonical, so the first coloring the search
reaches at the extremal length is the lexicographically least one.

The search (_avoid) checks forward: each colour keeps a mask of the
positions it may no longer take, so a candidate costs one bit test, and a
placement at s fires the forward list of s, the cubes whose second-highest
position is s, packed one mask per lane (_pack, _fire). A k-AP is the
1-dimensional cube of side k, so cubesearch.cube_number runs the same
search with its own side lengths. A candidate that leaves a later position
no colour may take is pruned only when its subtree could not colour a
longer prefix than the best so far, so values, certificates and refusals
are those of the search without the prune (see _avoid).

Extraction's least-progression scan (_least_ap) lives in extractor, and the
decimal print bound (_show, _check_digits) in core.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    FiniteColoring,
    Interval,
    LimitError,
    _check_cells,
    _check_palette,
    _limit,
    _show,
    _side_lengths,
    max_cells_limit,
)

DEFAULT_SEARCH_LIMIT = 128

# (k, c) -> (value, certificate colors); filled by searches in this process.
_MEMO: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}


class SearchLimitError(LimitError):
    """The search reached the position limit without resolving W(k, c)."""

    def __init__(self, k: int, c: int, limit: int):
        super().__init__(
            f"W({k},{_show(c)}) not resolved within {limit} positions: an AP-free "
            f"coloring of that length exists"
        )
        self.k = k
        self.c = c
        self.limit = limit


@dataclass(frozen=True)
class WNumberResult:
    k: int
    c: int
    value: int
    certificate: FiniteColoring


def search_limit_default(explicit: int | None = None) -> int:
    return _limit(explicit, "search limit", "VDW_WNUMBER_LIMIT", DEFAULT_SEARCH_LIMIT)


def _cube_tails(ks: tuple[int, ...], reach: int) -> tuple[int, ...]:
    """Masks of every cube of side lengths ks anchored at 0 whose maximum is reach.

    Bit q stands for offset q; the maximum's own bit is cleared. Uniform side
    lengths take nondecreasing differences only, which loses no cube.
    """
    uniform = len(set(ks)) == 1
    last = len(ks) - 1
    # need[i]: the least reach of dimensions i.. per unit of difference, so
    # the loops below visit only difference vectors that end at reach.
    need = [0] * (last + 2)
    for i in range(last, -1, -1):
        need[i] = need[i + 1] + ks[i] - 1
    out: set[int] = set()

    def spread(m: int, d: int, k: int) -> int:
        grown = m
        for j in range(1, k):
            grown |= m << (j * d)
        return grown

    def rec(i: int, d_lo: int, left: int, m: int) -> None:
        k = ks[i]
        if i == last:
            d, rem = divmod(left, k - 1)
            if not rem and d >= d_lo:
                out.add(spread(m, d, k) & ~(1 << reach))
            return
        d_hi = left // need[i] if uniform else (left - need[i + 1]) // (k - 1)
        for d in range(d_lo, d_hi + 1):
            rec(i + 1, d if uniform else 1, left - (k - 1) * d, spread(m, d, k))

    rec(0, 1, reach, 1)
    return tuple(out)


def _add_shapes(
    ks: tuple[int, ...], shapes: list[list[tuple[int, int]]], lo: int, hi: int
) -> None:
    """Append the tails of every reach in [lo, hi) to shapes, as (tail, reach)
    in shapes[h] where h is the tail's highest bit: the cube's second-highest
    offset. Each list stays in increasing reach."""
    for reach in range(lo, hi):
        for t in _cube_tails(ks, reach):
            h = t.bit_length() - 1
            while len(shapes) <= h:
                shapes.append([])
            shapes[h].append((t, reach))


def _forward(shapes: list[list[tuple[int, int]]], s: int, horizon: int) -> list[tuple[int, int]]:
    """(mask, top) of every cube anchored at 1 or later whose second-highest
    position is s and whose top is at most horizon; mask holds the cube's
    other positions (bit q is position q), so its highest bit is s.

    A tail with second-highest offset h ends at s when it is anchored at
    s - h, so its top is s - h + reach. shapes must hold every reach below
    horizon.
    """
    out = []
    for h in range(min(s, len(shapes))):
        a = s - h
        for t, reach in shapes[h]:
            if a + reach > horizon:
                break
            out.append((t << a, a + reach))
    return out


def _pack(entries: list[tuple[int, int]], s: int) -> tuple[int, int, int, int, list[int]]:
    """The forward list of position s packed for _fire: (tails, ones, guard,
    width, tops).

    Masks go one per lane of whole bytes, width bits wide, holding bits 0..s
    and a guard bit s + 1, which is set in every lane of tails. ones has bit
    0 of every lane and guard bit s + 1. tops[i] is the top of lane i.
    """
    nbytes = (s + 9) // 8
    ones = int.from_bytes((b"\x01" + bytes(nbytes - 1)) * len(entries), "little")
    guard = ones << (s + 1)
    tails = int.from_bytes(b"".join(t.to_bytes(nbytes, "little") for t, _ in entries), "little")
    return tails | guard, ones, guard, 8 * nbytes, [q for _, q in entries]


def _fire(lanes: tuple[int, int, int, int, list[int]], m: int, f: int) -> int:
    """f with bit q added for the top q of every lane whose mask is a subset
    of m; m holds bits 0..s only.

    A lane of x = tails & ~(m * ones) keeps its guard bit and the mask bits
    m misses, so it is 2^(s+1) exactly when m covers its mask. Subtracting
    ones borrows out of no lane and clears the guard bit of exactly those
    lanes, so guard & ~(x - ones) flags them. (Without the guard bit set, a
    covered lane would borrow from the lane above it and could flag that
    one too.)
    """
    tails, ones, guard, width, tops = lanes
    flags = guard & ~((tails & ~(m * ones)) - ones)
    while flags:
        b = flags.bit_length() - 1
        f |= 1 << tops[b // width]
        flags ^= 1 << b
    return f


def _avoid(ks: tuple[int, ...], c: int, limit: int) -> tuple[bool, int, tuple[int, ...]]:
    """Depth-first search for the longest canonical c-coloring with no
    monochromatic cube of side lengths ks; ks = (k,) forbids k-term APs.

    Returns (reached_limit, best_length, prefix), where prefix is the
    lexicographically least such coloring of best_length. If the search
    reaches the limit, prefix is the first coloring of that full length
    and nothing is proved about longer colorings.

    Forward checking: forbidden[g] has bit q set iff some cube with top q
    has all its other positions in the coloured prefix, coloured g. Every
    cube with top p has its other positions before p, so a candidate g at p
    is blocked iff bit p of forbidden[g] is set. Placing g at p adds the top
    of every cube whose second-highest position is p and whose other
    positions are all g (_fire over the forward list of p); taking it back
    restores the value saved before the placement.

    Prune: once a placement leaves every one of the c colours in use
    (before that, an unused colour forbids nothing), let q be the least
    position past p that every colour forbids. No extension then colours
    q, so the subtree colours no prefix longer than q - 1, and forbidden
    masks only grow inside it. The candidate is rejected iff q - 1 <=
    best_len: best changes only on a strictly longer prefix, so the pruned
    subtree could not have changed (reached, best_len, prefix), and the
    search returns the same triple as one without the prune.

    The forward list of p is built when the search first reaches p, and
    holds only cubes with top at most the horizon. Every position the
    prune or the candidate test reads lies at or below the deepest
    position reached, so when the search first reaches a position past the
    horizon, the horizon grows by half and the lists and forbidden masks of
    the current path are rebuilt. The limit bounds the search but sizes
    nothing up front, even for ks = (2,), whose cubes reach every later
    position.
    """
    # Canonical colorings never use more colors than positions, so huge
    # palettes need no huge mask tables.
    size = min(c, limit + 1) + 2
    masks = [0] * size
    forbidden = [0] * size
    color = [0, 0]
    saved = [0, 0]
    shapes: list[list[tuple[int, int]]] = []
    horizon = min(limit, 8)
    _add_shapes(ks, shapes, 1, horizon)
    lanes = [None, _pack(_forward(shapes, 1, horizon), 1)]
    used = 0
    best_len = 0
    best: tuple[int, ...] = ()
    p = 1
    while p >= 1:
        cand = color[p] + 1
        hi = used + 1 if used < c else c
        bit = 1 << p
        fwd = lanes[p]
        # positions p + 1 .. best_len + 1, the tops whose forbidding prunes
        window = (4 << best_len) - (bit << 1) if p <= best_len else 0
        chosen = 0
        while cand <= hi:
            f = forbidden[cand]
            if not f & bit:
                f = _fire(fwd, masks[cand] | bit, f)
                # an unused colour forbids nothing, so dead stays 0 until
                # every colour is in use
                dead = f & window
                for g in range(1, c + 1):
                    if not dead:
                        break
                    if g != cand:
                        dead &= forbidden[g]
                if not dead:
                    chosen = cand
                    break
            cand += 1
        if chosen:
            color[p] = chosen
            saved[p] = forbidden[chosen]
            forbidden[chosen] = f
            masks[chosen] |= bit
            if chosen > used:
                used = chosen
            if p > best_len:
                best_len = p
                best = tuple(color[1 : p + 1])
            if p == limit:
                return True, best_len, best
            p += 1
            if p == len(lanes):
                if p > horizon:
                    old, horizon = horizon, min(limit, p + p // 2)
                    _add_shapes(ks, shapes, old, horizon)
                    lanes = [None] + [_pack(_forward(shapes, s, horizon), s) for s in range(1, p)]
                    forbidden = [0] * size
                    # replay the path; bits of masks past s would spill
                    # into the guard bits of the lanes of s
                    for s in range(1, p):
                        g = color[s]
                        saved[s] = forbidden[g]
                        forbidden[g] = _fire(lanes[s], masks[g] & ((2 << s) - 1), forbidden[g])
                lanes.append(_pack(_forward(shapes, p, horizon), p))
                color.append(0)
                saved.append(0)
        else:
            color[p] = 0
            p -= 1
            if p >= 1:
                prev = color[p]
                masks[prev] &= ~(1 << p)
                forbidden[prev] = saved[p]
                if prev == used and masks[prev] == 0:
                    used -= 1
    return False, best_len, best


def _closed_form(k: int, c: int) -> int | None:
    """W(k, c) where it has a closed form: c = 1 or k = 2."""
    if c == 1:
        return k
    if k == 2:
        # Any two equal colors form a 2-AP, so extremal colorings are injective.
        return c + 1
    return None


def _search(k: int, c: int, limit: int, use_cache: bool) -> tuple[int, tuple[int, ...]]:
    """W(k, c) and its certificate colors for k >= 3, c >= 2, from the memo or
    by search; raises SearchLimitError when limit does not resolve it."""
    if use_cache and (k, c) in _MEMO:
        value, cert = _MEMO[(k, c)]
        # A fresh search resolves W only when limit >= W; keep memoized
        # results indistinguishable from fresh ones.
        if value > limit:
            raise SearchLimitError(k, c, limit)
        return value, cert
    reached, best_len, cert = _avoid((k,), c, limit)
    if reached:
        raise SearchLimitError(k, c, limit)
    _MEMO[(k, c)] = (best_len + 1, cert)
    return best_len + 1, cert


def _validate(k: int, c: int, search_limit: int | None) -> None:
    _side_lengths((k,))
    _check_palette(c)
    if search_limit is not None:
        search_limit_default(search_limit)


def vdw_number(
    k: int, c: int, search_limit: int | None = None, *, use_cache: bool = True
) -> WNumberResult:
    """The exact van der Waerden number with its lexicographically least certificate.

    Raises SearchLimitError if the answer is not determined within
    search_limit positions, and MaterializationLimitError if a closed-form
    certificate would have more cells than max_cells_limit(). use_cache=False
    searches even when this process has already resolved W(k, c).
    """
    _validate(k, c, search_limit)
    value = _closed_form(k, c)
    if value is not None:
        what = f"the W({k},{_show(c)}) certificate has"
        _check_cells(what, value - 1, max_cells_limit())
        cert = (1,) * (k - 1) if c == 1 else tuple(range(1, c + 1))
    else:
        value, cert = _search(k, c, search_limit_default(search_limit), use_cache)
    return WNumberResult(k, c, value, FiniteColoring(c, Interval(1, value - 1), cert))


def vdw_value(k: int, c: int, search_limit: int | None = None) -> int:
    """The number alone, skipping certificate construction.

    Materially cheaper than vdw_number for closed forms with huge palettes
    (W(2, c) = c + 1 would otherwise build a c-cell certificate)."""
    _validate(k, c, search_limit)
    value = _closed_form(k, c)
    if value is not None:
        return value
    return _search(k, c, search_limit_default(search_limit), True)[0]


def verify_ap_free(coloring: FiniteColoring, k: int) -> bool:
    """True iff the coloring has no monochromatic k-term arithmetic progression.

    Enumerates progressions difference-major, independently of the search
    above and of extraction's least-progression scan, so certificates are
    checked through a separate code path.
    """
    _side_lengths((k,))
    colors = coloring.colors
    n = len(colors)
    for d in range(1, (n - 1) // (k - 1) + 1):
        for a0 in range(n - (k - 1) * d):
            first = colors[a0]
            for j in range(1, k):
                if colors[a0 + j * d] != first:
                    break
            else:
                return False
    return True
