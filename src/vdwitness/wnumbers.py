"""Exact van der Waerden numbers W(k, c) with extremal certificate colorings.

W(k, c) is the least n such that every c-coloring of [1, n] contains a
monochromatic k-term arithmetic progression. The search is a depth-first
extension of colorings position by position, pruning any prefix that
completes a monochromatic k-AP at its newest position, restricted to
canonical colorings (colors appear in order of first use). Canonical
restriction is exhaustive up to renaming and the lexicographically least
AP-free coloring is itself canonical, so the first coloring the search
reaches at the extremal length is the lexicographically least one.

The search (_avoid) prunes with one row of hyperedge masks per position,
built the first time the search reaches that position. A k-AP is the
1-dimensional cube of side k, so cubesearch.cube_number runs the same
search with its own side lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    DomainError,
    FiniteColoring,
    Interval,
    LimitError,
    MaterializationLimitError,
    _limit,
    max_cells_limit,
)

DEFAULT_SEARCH_LIMIT = 128
# Numbers are printed in decimal only below 10^4300. The bound is CPython's
# default int-to-str limit, fixed here so that every supported Python
# (3.10.0-3.10.6 have no such limit) prints and refuses the same numbers.
_MAX_DIGITS = 4300
_DECIMAL_BOUND = 10**_MAX_DIGITS

# (k, c) -> (value, certificate colors); filled by searches in this process.
_MEMO: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}


def _show(x: int) -> str:
    """x in decimal, or its number of decimal digits past _MAX_DIGITS."""
    if x < _DECIMAL_BOUND:
        return str(x)
    # 30102/100000 < log10(2), so the first guess never exceeds the count.
    digits = (x.bit_length() - 1) * 30102 // 100000 + 1
    power = 10**digits
    while x >= power:
        power *= 10
        digits += 1
    return f"<{digits}-digit number>"


def _check_digits(x: int, name: str) -> None:
    """Refuse, with a LimitError, a number x too long to print in decimal."""
    if x >= _DECIMAL_BOUND:
        raise LimitError(f"{name} has more than {_MAX_DIGITS} decimal digits")


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
        for d in range(d_lo, left // (k - 1) + 1):
            rec(i + 1, d if uniform else 1, left - (k - 1) * d, spread(m, d, k))

    rec(0, 1, reach, 1)
    return tuple(out)


def _cube_rows(ks: tuple[int, ...]):
    """Yield row p for p = 1, 2, ...: the masks of the other positions of
    every cube of side lengths ks whose maximum is p (bit q is position q).

    A cube of reach r ends at p when it is anchored at p - r, so row p is
    the tails of every reach r < p shifted by p - r. The order of a row
    never changes which colour the search picks, only how soon a blocked
    colour is rejected: masks with fewest positions come first, since they
    are completed most often.
    """
    tails: list[tuple[int, ...]] = []
    p = 0
    while True:
        p += 1
        tails.append(_cube_tails(ks, p - 1))
        row = [t << (p - r) for r, level in enumerate(tails) for t in level]
        yield tuple(sorted(row, key=lambda t: (t.bit_count(), t)))


def _avoid(ks: tuple[int, ...], c: int, limit: int) -> tuple[bool, int, tuple[int, ...]]:
    """Depth-first search for the longest canonical c-coloring with no
    monochromatic cube of side lengths ks; ks = (k,) forbids k-term APs.

    Returns (reached_limit, best_length, prefix), where prefix is the
    lexicographically least such coloring of best_length. If the search
    reaches the limit, prefix is the first coloring of that full length
    and nothing is proved about longer colorings. Row p of the hyperedge
    table and the colour slot of p are built when the search first reaches
    p, so the limit bounds the search but sizes nothing up front.
    """
    row_gen = _cube_rows(ks)
    rows: list[tuple[int, ...]] = [(), next(row_gen)]
    color = [0, 0]
    # Canonical colorings never use more colors than positions, so huge
    # palettes need no huge mask table.
    masks = [0] * (min(c, limit + 1) + 2)
    used = 0
    best_len = 0
    best: tuple[int, ...] = ()
    p = 1
    while p >= 1:
        cand = color[p] + 1
        top = used + 1 if used < c else c
        row = rows[p]
        chosen = 0
        while cand <= top:
            m = masks[cand]
            for t in row:
                if m & t == t:
                    break
            else:
                chosen = cand
                break
            cand += 1
        if chosen:
            color[p] = chosen
            masks[chosen] |= 1 << p
            if chosen > used:
                used = chosen
            if p > best_len:
                best_len = p
                best = tuple(color[1 : p + 1])
            if p == limit:
                return True, best_len, best
            p += 1
            if p == len(rows):
                rows.append(next(row_gen))
                color.append(0)
        else:
            color[p] = 0
            p -= 1
            if p >= 1:
                prev = color[p]
                masks[prev] &= ~(1 << p)
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


def _validate(k: int, c: int) -> None:
    if k < 2:
        raise DomainError(f"progression length must be >= 2, got {k}")
    if c < 1:
        raise DomainError(f"number of colors must be >= 1, got {c}")


def vdw_number(
    k: int, c: int, search_limit: int | None = None, *, use_cache: bool = True
) -> WNumberResult:
    """The exact van der Waerden number with its lexicographically least certificate.

    Raises SearchLimitError if the answer is not determined within
    search_limit positions, and MaterializationLimitError if a closed-form
    certificate would have more cells than max_cells_limit(). use_cache=False
    searches even when this process has already resolved W(k, c).
    """
    _validate(k, c)
    value = _closed_form(k, c)
    if value is not None:
        limit = max_cells_limit()
        if value - 1 > limit:
            raise MaterializationLimitError(
                f"the W({k},{_show(c)}) certificate has {_show(value - 1)} cells, "
                f"over the materialization limit {limit}"
            )
        cert = (1,) * (k - 1) if c == 1 else tuple(range(1, c + 1))
    else:
        value, cert = _search(k, c, search_limit_default(search_limit), use_cache)
    return WNumberResult(k, c, value, FiniteColoring(c, Interval(1, value - 1), cert))


def vdw_value(k: int, c: int, search_limit: int | None = None) -> int:
    """The number alone, skipping certificate construction.

    Materially cheaper than vdw_number for closed forms with huge palettes
    (W(2, c) = c + 1 would otherwise build a c-cell certificate)."""
    _validate(k, c)
    value = _closed_form(k, c)
    if value is not None:
        return value
    return _search(k, c, search_limit_default(search_limit), True)[0]


def verify_ap_free(coloring: FiniteColoring, k: int) -> bool:
    """True iff the coloring has no monochromatic k-term arithmetic progression.

    Enumerates progressions difference-major, independently of the search
    above and of the least-progression scan, so certificates are checked
    through a separate code path.
    """
    if k < 2:
        raise DomainError(f"progression length must be >= 2, got {k}")
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


def _least_ap(colors, n: int, k: int) -> tuple[int, int] | None:
    """Least (a0, d) with colors[a0] == colors[a0 + j*d] for 0 < j < k, over
    0-based indices below n, k >= 2.

    The scan runs a0 ascending, then d ascending. It jumps from one
    candidate d to the next with colors.index(gamma, start, stop), the
    least index in [start, stop) holding gamma (ValueError if none), and
    reads the points j >= 2 only for that d. colors is a tuple, a list or
    anything else with int indexing and that index; a lazily filled stage
    whose index looks its elements up in ascending order is read exactly as
    an element-by-element scan would read it, and no further than the
    answer needs. Such a stage must not let a failed read out of index as
    a ValueError.
    """
    for a0 in range(n - k + 1):
        gamma = colors[a0]
        stop = a0 + (n - 1 - a0) // (k - 1) + 1  # a0 + the largest d, plus one
        q = a0
        while True:
            try:
                q = colors.index(gamma, q + 1, stop)
            except ValueError:
                break
            d = q - a0
            for p in range(q + d, a0 + k * d, d):
                if colors[p] != gamma:
                    break
            else:
                return (a0, d)
    return None
