"""Exact van der Waerden numbers W(k, c) with extremal certificate colorings,
and cube numbers.

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
placement at s fires: it adds the top of every cube whose second-highest
position is s and whose other positions have the placed colour. The fire
reads the colour's row, which holds its positions; the fire record of s
names the row bits of s (its steps), set on placement and XORed off on
backtrack. The shape of the side lengths picks the row and the fire.

Progressions (ks = (k,)) fire through stride masks. A colour's row holds one
reflected mask per stride j = 1..k-2 and residue mod j, and the plan of s
(_plan) turns them into every top s + d at once: k - 2 shifts and ANDs. The
masks reach a horizon that doubles when the search passes it (_widen), so
nothing is sized by the limit or the palette.

Cubes with more than one side keep a colour's positions in a one-int row
and fire the forward list of s, packed one mask per lane (_pack, _fire).
Each list is built once, complete, when the search first reaches s, from
the list of s - 1: a cube anchored at 2 or later is one of that list moved
up one position, so the list of s is the list of s - 1 moved up, less the
tops past the limit, plus the cubes anchored at 1 (_forward). With
S = sum(k_i - 1) >= 2 its cubes reach at most (s - 1)S/(S - 1) past their
anchor (proof in _cube_tails).

A k-AP is the 1-dimensional cube of side k, so cube_number runs the same
search with its own side lengths; both answer c = 1 and ks = (2,), the one
shape with S = 1, by _closed_form instead. A candidate that leaves a later
position no colour may take is pruned only when its subtree could not
colour a longer prefix than the best so far, so values, certificates and
refusals are those of the search without the prune.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    DomainError,
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


class CapExceededError(LimitError):
    """The cube number is not determined within the interval cap."""

    def __init__(self, ks: tuple[int, ...], c: int, cap: int):
        super().__init__(
            f"cube number for sides {list(ks)} with {_show(c)} colors "
            f"exceeds cap {_show(cap)}"
        )
        self.cap = cap


@dataclass(frozen=True)
class WNumberResult:
    k: int
    c: int
    value: int
    certificate: FiniteColoring


def search_limit_default(explicit: int | None = None) -> int:
    return _limit(explicit, "search limit", "VDW_WNUMBER_LIMIT", DEFAULT_SEARCH_LIMIT)


def _cube_tails(ks: tuple[int, ...], h: int, limit: int) -> list[tuple[int, int]]:
    """(mask, top) of every cube of side lengths ks anchored at position 1
    whose second-highest position is h + 1 and whose top is at most limit;
    mask holds the cube's other positions (bit q is position q).

    Bound: with least difference m, h is the reach minus m (one step back
    along that dimension), so h = sum((k_i - 1)d_i) - m >= (S - 1)m with
    S = sum(k_i - 1). So when S >= 2, m <= h/(S - 1) and the reach h + m
    (the top minus 1) is at most hS/(S - 1); ks = (2,) (S = 1) has h = 0 and
    every m. Each m pins one dimension's difference to m and spreads the
    others, all at least m, over the rest of the reach. Uniform side lengths
    pin the first and take nondecreasing differences only, which loses no
    cube.
    """
    span = sum(ks) - len(ks)
    uniform = len(set(ks)) == 1
    cubes: set[int] = set()

    def spread(mask: int, d: int, k: int) -> int:
        grown = mask
        for j in range(1, k):
            grown |= mask << (j * d)
        return grown

    def rec(rest: tuple[int, ...], d_lo: int, left: int, mask: int) -> None:
        # differences for rest, each at least d_lo and the loop's m, reaching left
        k, more = rest[0], rest[1:]
        if not more:
            d, rem = divmod(left, k - 1)
            if not rem and d >= d_lo:
                cubes.add(spread(mask, d, k))
            return
        after = sum(more) - len(more)  # the least reach of more per unit
        d_hi = left // (k - 1 + after) if uniform else (left - after * m) // (k - 1)
        for d in range(d_lo, d_hi + 1):
            rec(more, d if uniform else m, left - (k - 1) * d, spread(mask, d, k))

    for m in range(1, min(limit - h, h // (span - 1) + 1 if span > 1 else limit)):
        for j in range(1 if uniform else len(ks)):
            rest = ks[:j] + ks[j + 1 :]
            left = h + m - (ks[j] - 1) * m
            if rest:
                rec(rest, m, left, spread(2, m, ks[j]))
            elif not left:
                cubes.add(spread(2, m, ks[j]))
    return [(t ^ (1 << t.bit_length() - 1), t.bit_length() - 1) for t in cubes]


def _forward(
    prev: list[tuple[int, int]], ks: tuple[int, ...], s: int, limit: int
) -> list[tuple[int, int]]:
    """(mask, top) of every cube anchored at 1 or later whose second-highest
    position is s and whose top is at most limit; mask holds the cube's
    other positions (bit q is position q), so its highest bit is s.

    prev is that list for s - 1 (empty for s = 1). A cube anchored at 2 or
    later is a cube of prev moved up one position, and _cube_tails gives
    those anchored at 1.
    """
    return [(t << 1, q + 1) for t, q in prev if q < limit] + _cube_tails(ks, s - 1, limit)


def _pack(entries: list[tuple[int, int]], s: int) -> tuple[int, int, int, int, list[int]]:
    """The forward list of position s packed for _fire: (holes, ones, guard,
    width, tops).

    Lanes are whole bytes, width bits wide, one per mask: lane i of holes
    has bits 0..s set where mask i is clear, and its guard bit s + 1 clear.
    ones has bit 0 of every lane, guard bit s + 1 of every lane, and tops[i]
    is the top of lane i.
    """
    nbytes = (s + 9) // 8
    ones = int.from_bytes((b"\x01" + bytes(nbytes - 1)) * len(entries), "little")
    guard = ones << (s + 1)
    tails = int.from_bytes(b"".join(t.to_bytes(nbytes, "little") for t, _ in entries), "little")
    return (guard - ones) ^ tails, ones, guard, 8 * nbytes, [q for _, q in entries]


def _fire(lanes: tuple[int, int, int, int, list[int]], m: int, f: int) -> int:
    """f with bit q added for the top q of every lane whose mask is a subset
    of m; m holds bits 0..s only.

    A lane of holes | m * ones has all of bits 0..s set exactly when m
    covers its mask, so adding ones carries into the lane's guard bit for
    exactly those lanes; the guard bit was clear, so no carry leaves a lane,
    and guard & ((holes | m * ones) + ones) flags them.
    """
    holes, ones, guard, width, tops = lanes
    flags = guard & ((holes | m * ones) + ones)
    while flags:
        b = flags.bit_length() - 1
        f |= 1 << tops[b // width]
        flags ^= 1 << b
    return f


# The first horizon of the stride masks: the greatest position they can hold
# before _widen doubles it.
_HORIZON = 64


def _plan(k: int, s: int, horizon: int, limit: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The stride-mask fire of position s <= horizon for ks = (k,): (cut,
    steps).

    A colour's stride row holds one int per stride j = 1..k-2 and residue r
    mod j, at slot j(j - 1)/2 + r, whose bit horizon//j - u stands for
    position r + j*u. The bits are reflected, so the positions before s
    with s's residue sit above the bit of s. Step j is (slot, shift): the
    slot of s's residue, and the shift right that leaves bit d - 1 set iff
    s - j*d has the colour; bit shift - 1 stands for s itself.

    Colour g placed at s completes the k-AP s - (k-2)d, ..., s, s + d iff
    s - j*d has colour g for every j, so the tops it forbids are the AND of
    the shifted slots, moved up s + 1 positions and cut to the limit. cut
    is the run of tops s + 1..limit, or -1 when 2s <= limit, where a k-AP
    with k >= 3 has no top past the limit. For k = 2 there are no steps and
    the whole run fires.
    """
    steps = tuple((j * (j - 1) // 2 + s % j, horizon // j - s // j + 1) for j in range(1, k - 1))
    cut = (1 << limit - s) - 1 if k == 2 or 2 * s > limit else -1
    return cut, steps


def _widen(rows: list[list[int]], k: int, horizon: int) -> int:
    """Double the horizon of the stride rows in place and return it: the
    bit of position r + j*u moves from horizon//j - u to 2*horizon//j - u."""
    for j in range(1, k - 1):
        up = 2 * horizon // j - horizon // j
        for row in rows:
            for slot in range(j * (j - 1) // 2, j * (j + 1) // 2):
                row[slot] <<= up
    return 2 * horizon


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
    is blocked iff bit p of forbidden[g] is set. fires[p], built when the
    search first reaches p, is the fire record (head, steps) of p. Placing g
    at p adds the top of every cube whose second-highest position is p and
    whose other positions are all g, sets bit shift - 1 of rows[g][slot] for
    each step (slot, shift), and keeps in prior[p] the colours in use before
    p; taking it back restores forbidden[g] as saved, XORs the same bits off
    and restores prior[p]. The shape of ks picks the row and the fire:
    - ks = (k,): rows[g] is g's stride slots and fires[p] the plan of p
      (_plan). The slots reach the horizon, which doubles (_widen, and every
      plan rebuilt) when the search first passes it. ks = (2,) has no
      strides and fires the run of tops p + 1..limit; _closed_form keeps it
      out of every public search.
    - more than one side: rows[g] is one int with bit q for each position q
      coloured g, and fires[p] is (lanes, ((0, p + 1),)): _fire over the
      lanes (_pack) of the forward list of p, built from the list of p - 1
      (_forward), which is then dropped. When S = sum(k_i - 1) >= 2 each
      list is finite.

    Prune: once a placement leaves every one of the c colours in use
    (before that, an unused colour forbids nothing), let q be the least
    position past p that every colour forbids. No extension then colours
    q, so the subtree colours no prefix longer than q - 1, and forbidden
    masks only grow inside it. The candidate is rejected iff q - 1 <=
    best_len: best changes only on a strictly longer prefix, so the pruned
    subtree could not have changed (reached, best_len, prefix), and the
    search returns the same triple as one without the prune.
    """
    ap = len(ks) == 1
    k = ks[0]
    horizon = _HORIZON
    slots = (k - 1) * (k - 2) // 2 if ap else 1
    # At position p the search reads colour indices up to p + 1 (a canonical
    # colouring uses at most p - 1 colours before p), so every table grows
    # by one entry when the loop first reaches p, whatever the palette.
    forbidden = [0, 0]
    rows = [[0] * slots, [0] * slots]
    color = [0]
    saved = [0]
    prior = [0]
    fires: list = [None]
    entries: list[tuple[int, int]] = []
    used = 0
    best_len = 0
    best: tuple[int, ...] = ()
    p = 1
    while p >= 1:
        if p == len(fires):
            if not ap:
                entries = _forward(entries, ks, p, limit)
                fires.append((_pack(entries, p), ((0, p + 1),)))
            elif p <= horizon:
                fires.append(_plan(k, p, horizon, limit))
            else:
                horizon = _widen(rows, k, horizon)
                fires[1:] = [_plan(k, s, horizon, limit) for s in range(1, p + 1)]
            color.append(0)
            saved.append(0)
            prior.append(0)
            forbidden.append(0)
            rows.append([0] * slots)
        cand = color[p] + 1
        hi = used + 1 if used < c else c
        bit = 1 << p
        head, steps = fires[p]
        # positions p + 1 .. best_len + 1, the tops whose forbidding prunes
        window = (4 << best_len) - (bit << 1) if p <= best_len else 0
        chosen = 0
        while cand <= hi:
            f = forbidden[cand]
            if not f & bit:
                if ap:
                    tops = head
                    row = rows[cand]
                    for slot, shift in steps:
                        tops &= row[slot] >> shift
                    f |= tops << p + 1
                else:
                    f = _fire(head, rows[cand][0] | bit, f)
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
            prior[p] = used
            forbidden[chosen] = f
            row = rows[chosen]
            for slot, shift in steps:
                row[slot] |= 1 << shift - 1
            if chosen > used:
                used = chosen
            if p > best_len:
                best_len = p
                best = tuple(color[1 : p + 1])
            if p == limit:
                return True, best_len, best
            p += 1
        else:
            color[p] = 0
            p -= 1
            if p >= 1:
                prev = color[p]
                forbidden[prev] = saved[p]
                row = rows[prev]
                for slot, shift in fires[p][1]:
                    row[slot] ^= 1 << shift - 1
                used = prior[p]
    return False, best_len, best


def _closed_form(ks: tuple[int, ...], c: int) -> int | None:
    """The cube number for side lengths ks and c colours (W(k, c) for ks =
    (k,)) where it has a closed form: for c = 1 the span of the least cube,
    and for ks = (2,) c + 1, since any two equal colours form that cube."""
    if c == 1:
        return 1 + sum(ks) - len(ks)
    if ks == (2,):
        return c + 1
    return None


def _resolve(k: int, c: int, search_limit: int | None) -> tuple[int, tuple[int, ...] | None]:
    """W(k, c) and its certificate colors: None for a closed form, answered
    before VDW_WNUMBER_LIMIT is read, else by search."""
    _side_lengths((k,))
    _check_palette(c)
    if search_limit is not None:
        search_limit_default(search_limit)
    value = _closed_form((k,), c)
    if value is not None:
        return value, None
    limit = search_limit_default(search_limit)
    reached, best_len, cert = _avoid((k,), c, limit)
    if reached:
        raise SearchLimitError(k, c, limit)
    return best_len + 1, cert


def vdw_number(
    k: int, c: int, search_limit: int | None = None, *, use_cache: bool = True
) -> WNumberResult:
    """The exact van der Waerden number with its lexicographically least certificate.

    Raises SearchLimitError if the answer is not determined within
    search_limit positions, and MaterializationLimitError if a closed-form
    certificate would have more cells than max_cells_limit(). Every call
    resolves afresh; use_cache is accepted for existing callers and changes
    nothing.
    """
    value, cert = _resolve(k, c, search_limit)
    if cert is None:
        what = f"the W({k},{_show(c)}) certificate has"
        _check_cells(what, value - 1, max_cells_limit())
        cert = (1,) * (k - 1) if c == 1 else tuple(range(1, c + 1))
    return WNumberResult(k, c, value, FiniteColoring(c, Interval(1, value - 1), cert))


def vdw_value(k: int, c: int, search_limit: int | None = None) -> int:
    """The number alone, skipping certificate construction.

    Materially cheaper than vdw_number for closed forms with huge palettes
    (W(2, c) = c + 1 would otherwise build a c-cell certificate)."""
    return _resolve(k, c, search_limit)[0]


def cube_number(ks: Sequence[int], c: int, cap: int) -> int:
    """Least N <= cap such that every c-coloring of [1, N] has a monochromatic
    cube with side lengths ks.

    The closed form where _closed_form has one, else the exhaustive avoidance
    search _avoid, practical only for small N. Raises CapExceededError when
    N > cap: a cube-free coloring of length cap exists.
    """
    ks = _side_lengths(ks)
    _check_palette(c)
    if cap < 1:
        raise DomainError(f"cap must be >= 1, got {cap}")
    value = _closed_form(ks, c)
    if value is None:
        reached, best_len, _ = _avoid(ks, c, cap)
        value = cap + 1 if reached else best_len + 1
    if value > cap:
        raise CapExceededError(ks, c, cap)
    return value


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
