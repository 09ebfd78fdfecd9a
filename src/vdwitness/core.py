"""Shared domain model: intervals, finite colorings, infinite coloring oracles,
and monochromatic cube witnesses.

Positions are 1-based positive integers throughout; colors are 1-based
integers drawn from [1..c]. Every type here is immutable after construction
and every operation is a pure function.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterable, Sequence

DEFAULT_MAX_CELLS = 1 << 26
# Numbers are printed in decimal only below 10^4300. The bound is CPython's
# default int-to-str limit, fixed here so that every supported Python
# (3.10.0-3.10.6 have no such limit) prints and refuses the same numbers.
_MAX_DIGITS = 4300
_DECIMAL_BOUND = 10**_MAX_DIGITS


class DomainError(ValueError):
    """A malformed input or an out-of-domain access (distinct from a negative result)."""


class LimitError(RuntimeError):
    """A configured resource limit was reached before the computation resolved."""


class MaterializationLimitError(LimitError):
    """Refusing to build a dense coloring larger than the cell limit."""


class InvariantViolationError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""


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


def _check_palette(c: int | None, colors: Sequence[int] = ()) -> int:
    """The palette rule: at least one color, and each of colors in [1, c].
    Returns c, or the least palette [1, c] that holds colors if c is None."""
    distinct = set(colors)  # one pass over colors; min and max see each color once
    if c is None:
        c = max(1, max(distinct))
    if c < 1:
        raise DomainError(f"number of colors must be >= 1, got {c}")
    if distinct and (min(distinct) < 1 or max(distinct) > c):
        raise DomainError(f"colors must lie in [1, {c}]")
    return c


def _side_lengths(ks: Iterable[int]) -> tuple[int, ...]:
    """The side lengths ks as a tuple: at least one, each >= 2."""
    ks = tuple(ks)
    if not ks:
        raise DomainError("need at least one side length")
    if min(ks) < 2:
        raise DomainError(f"side lengths must be >= 2, got {min(ks)}")
    return ks


def _check_cells(what: str, cells: int, limit: int) -> None:
    """Refuse, with a MaterializationLimitError, cells past the cell cap
    limit; what starts the message ("extraction would read", say)."""
    if cells > limit:
        raise MaterializationLimitError(
            f"{what} {_show(cells)} cells, over the materialization limit {limit}"
        )


def _limit(explicit: int | None, what: str, env: str, default: int) -> int:
    """A positive limit: explicit argument, else environment variable env,
    else default. Bad values raise DomainError naming what or env."""
    if explicit is not None:
        if explicit < 1:
            raise DomainError(f"{what} must be >= 1, got {explicit}")
        return explicit
    raw = os.environ.get(env)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise DomainError(f"{env} is not an integer: {raw!r}") from exc
    if value < 1:
        raise DomainError(f"{env} must be >= 1, got {value}")
    return value


def max_cells_limit(explicit: int | None = None) -> int:
    """Cell cap for dense colorings: explicit argument, else VDW_MAX_CELLS, else 2^26."""
    return _limit(explicit, "cell limit", "VDW_MAX_CELLS", DEFAULT_MAX_CELLS)


@dataclass(frozen=True)
class Interval:
    """Contiguous range [lo, hi] of positive integers with 1-based element access."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 1:
            raise DomainError(f"interval start must be >= 1, got {self.lo}")
        if self.hi < self.lo:
            raise DomainError(f"empty interval [{self.lo}, {self.hi}]")

    def size(self) -> int:
        return self.hi - self.lo + 1

    def __contains__(self, p: int) -> bool:
        return self.lo <= p <= self.hi


def translate(iv: Interval, b: int) -> Interval:
    """Shift an interval upward by b >= 0."""
    if b < 0:
        raise DomainError(f"translation must be non-negative, got {b}")
    return Interval(iv.lo + b, iv.hi + b)


@dataclass(frozen=True)
class FiniteColoring:
    """A c-coloring of an interval, stored densely by domain position."""

    c: int
    domain: Interval
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "colors", tuple(self.colors))
        if len(self.colors) != self.domain.size():
            raise DomainError(
                f"{len(self.colors)} colors for a domain of {self.domain.size()} cells"
            )
        _check_palette(self.c, self.colors)

    def color_at(self, p: int) -> int:
        if p not in self.domain:
            raise DomainError(
                f"position {p} outside domain [{self.domain.lo}, {self.domain.hi}]"
            )
        return self.colors[p - self.domain.lo]


class ColorOracle:
    """A deterministic coloring of all positive integers with finitely many colors.

    Subclasses implement _color(p); repeated queries at the same position always
    return the same value, so oracles are safe to query in any order.

    Windows are read in batches through _colors(lo, hi), the colors of
    positions lo..hi (1 <= lo <= hi) as one tuple: materialize reads a whole
    window at once, while extraction and search-mode windows read only the
    runs of cells their scans reach (_reader). Overriding it is optional:
    the default calls _color once per position. An override is a faster
    batch rule and must equal _color position by position.
    """

    c: int

    def color_at(self, p: int) -> int:
        if p < 1:
            raise DomainError(f"positions start at 1, got {p}")
        return self._color(p)

    def _color(self, p: int) -> int:
        raise NotImplementedError

    def _colors(self, lo: int, hi: int) -> tuple[int, ...]:
        return tuple(self._color(p) for p in range(lo, hi + 1))


@dataclass(frozen=True)
class EventuallyPeriodicOracle(ColorOracle):
    """The colors of prefix, then of pattern repeated forever."""

    prefix: tuple[int, ...]
    pattern: tuple[int, ...]
    c: int | None = None

    def __post_init__(self) -> None:
        prefix = tuple(self.prefix)
        pattern = tuple(self.pattern)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "pattern", pattern)
        if not pattern:
            raise DomainError("empty period pattern")
        object.__setattr__(self, "c", _check_palette(self.c, prefix + pattern))

    def _color(self, p: int) -> int:
        if p <= len(self.prefix):
            return self.prefix[p - 1]
        return self.pattern[(p - 1 - len(self.prefix)) % len(self.pattern)]

    def _colors(self, lo: int, hi: int) -> tuple[int, ...]:
        m, pattern = len(self.prefix), self.pattern
        start = max(lo, m + 1)  # first position of the periodic part in [lo, hi]
        r = (start - 1 - m) % len(pattern)
        rotated = pattern[r:] + pattern[:r]
        q, rem = divmod(max(hi - start + 1, 0), len(pattern))
        return self.prefix[lo - 1 : hi] + rotated * q + rotated[:rem]


class PeriodicOracle(EventuallyPeriodicOracle):
    def __init__(self, pattern: tuple[int, ...], c: int | None = None) -> None:
        super().__init__((), pattern, c)


class ConstantOracle(EventuallyPeriodicOracle):
    def __init__(self, gamma: int, c: int | None = None) -> None:
        super().__init__((), (gamma,), c)


@dataclass(frozen=True)
class ThueMorseOracle(ColorOracle):
    """Color 1 + (popcount(p-1) mod 2): the Thue-Morse word over two colors."""

    c: ClassVar[int] = 2

    def _color(self, p: int) -> int:
        return 1 + ((p - 1).bit_count() & 1)

    def _colors(self, lo: int, hi: int) -> tuple[int, ...]:
        return tuple(1 + (q.bit_count() & 1) for q in range(lo - 1, hi))


_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


# SplitMix64 over a batch of cells at once: cell i of a batch lives in bits
# [128i, 128i + 128) of one int, its 64-bit value in the low half. A 64x64-bit
# product fits in the 128-bit lane, so no carry crosses into the next cell.
_LANE_BATCH = 1024
_LANE_ONES = ((1 << (128 * _LANE_BATCH)) - 1) // ((1 << 128) - 1)  # 1 in every lane
_LANE_RAMP = int.from_bytes(  # i in lane i
    b"".join(i.to_bytes(16, "little") for i in range(_LANE_BATCH)), "little"
)
_LANE_LOW64 = _LANE_ONES * _MASK64
_LANE_GAMMA = _LANE_ONES * 0x9E3779B97F4A7C15
# Written in native byte order and read as native 64-bit words, a batch
# holds lane i's low half at word 2i on a little-endian machine and at word
# -(2i + 1) on a big-endian one.
_LANE_STEP = 2 if sys.byteorder == "little" else -2


def _splitmix64_lanes(key: int, q0: int, n: int) -> memoryview:
    """_splitmix64(key ^ q) for q = q0, ..., q0 + n - 1, with n <= _LANE_BATCH
    and q0 + n <= 2^64."""
    cut = (1 << (128 * n)) - 1
    ones = _LANE_ONES & cut
    x = (q0 * ones + (_LANE_RAMP & cut)) ^ (key * ones)
    x = (x + (_LANE_GAMMA & cut)) & _LANE_LOW64
    z = (x ^ (x >> 30)) & _LANE_LOW64
    z = z * 0xBF58476D1CE4E5B9 & _LANE_LOW64
    z = (z ^ (z >> 27)) & _LANE_LOW64
    z = z * 0x94D049BB133111EB & _LANE_LOW64
    z ^= z >> 31
    return memoryview(z.to_bytes(16 * n, sys.byteorder)).cast("Q")[::_LANE_STEP]


@dataclass(frozen=True)
class SeededRandomOracle(ColorOracle):
    """Pseudo-random coloring keyed by (seed, position) so queries are order-independent."""

    seed: int
    c: int

    def __post_init__(self) -> None:
        _check_palette(self.c)
        # The seed's key, hashed once; not a field, so eq, hash and repr ignore it.
        object.__setattr__(self, "_key", _splitmix64(self.seed & _MASK64))

    def _color(self, p: int) -> int:
        x = self._key
        q = p - 1
        while True:
            x = _splitmix64(x ^ (q & _MASK64))
            q >>= 64
            if not q:
                break
        return 1 + x % self.c

    def _colors(self, lo: int, hi: int) -> tuple[int, ...]:
        if hi > 1 << 64:  # some q = p - 1 needs more than one 64-bit word
            return super()._colors(lo, hi)
        key, c = self._key, self.c
        out: list[int] = []
        for q0 in range(lo - 1, hi, _LANE_BATCH):
            words = _splitmix64_lanes(key, q0, min(_LANE_BATCH, hi - q0))
            out += [1 + v % c for v in words]
        return tuple(out)


@dataclass(frozen=True)
class PrefixOracle(ColorOracle):
    """A finite coloring on its own domain, a fixed default color everywhere else."""

    coloring: FiniteColoring
    default: int
    c: int | None = None

    def __post_init__(self) -> None:
        if self.default < 1:
            raise DomainError(f"default color must be >= 1, got {self.default}")
        palette = _check_palette(self.c, (self.coloring.c, self.default))
        object.__setattr__(self, "c", palette)

    def _color(self, p: int) -> int:
        if p in self.coloring.domain:
            return self.coloring.color_at(p)
        return self.default


@dataclass(frozen=True)
class CubeWitness:
    """A monochromatic combinatorial cube: color gamma on {a + sum j_i*d_i : 0 <= j_i <= k_i-1}.

    Coinciding position sums are allowed and collapse; the witness set is
    whatever the expansion actually hits.
    """

    gamma: int
    a: int
    ds: tuple[int, ...]
    ks: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ds", tuple(self.ds))
        object.__setattr__(self, "ks", tuple(self.ks))
        if self.gamma < 1:
            raise DomainError(f"color must be >= 1, got {self.gamma}")
        if self.a < 1:
            raise DomainError(f"anchor must be >= 1, got {self.a}")
        if len(self.ds) != len(self.ks) or not self.ds:
            raise DomainError("ds and ks must be nonempty and of equal length")
        if min(self.ds) < 1:
            raise DomainError("all differences must be >= 1")
        _side_lengths(self.ks)

    @property
    def dim(self) -> int:
        return len(self.ds)

    def max_position(self) -> int:
        return self.a + sum((k - 1) * d for d, k in zip(self.ds, self.ks))


def cube_positions(w: CubeWitness, *, max_cells: int | None = None) -> tuple[int, ...]:
    """Sorted, deduplicated expansion of the cube set.

    Raises MaterializationLimitError, before building anything, when both
    the number of index tuples and the span of the cube exceed
    max_cells_limit(max_cells), since either one bounds the number of
    positions.
    """
    limit = max_cells_limit(max_cells)
    if w.max_position() - w.a >= limit:
        count = 1
        for k in w.ks:
            count *= k
            if count > limit:
                break
        _check_cells(f"a cube of {w.dim} dimensions may have", count, limit)
    dims = sorted(zip(w.ds, w.ks))
    reach = 0  # span of the dimensions before the current one
    for d, k in dims:
        if d <= reach:
            break
        reach += (k - 1) * d
    else:
        # Each difference clears the span below it, so no two sums collide
        # and each shifted copy lies wholly above the previous one.
        pts = [w.a]
        for d, k in dims:
            lower = pts[:]
            for j in range(1, k):
                pts += map((j * d).__add__, lower)
        return tuple(pts)
    # Sums collide: grow a set by doubling the run of copies j*d it holds, so
    # each dimension costs about log2(k) unions, each no larger than its result.
    grown = {w.a}
    for d, k in dims:
        m = 1  # grown holds the copies j*d for 0 <= j < m
        while 2 * m <= k:
            grown |= set(map((m * d).__add__, grown))
            m *= 2
        if m < k:  # k/2 < m < k: the copies from k-m on cover the rest
            grown |= set(map(((k - m) * d).__add__, grown))
    return tuple(sorted(grown))


# Cube positions are coloured by one batch over their span when the span is
# at most this many times the number of positions.
_DENSE_SPAN = 4


def _first_violation(
    source: FiniteColoring | ColorOracle,
    pts: tuple[int, ...],
    gamma: int,
    max_cells: int | None = None,
) -> tuple[int, int] | None:
    """First of the sorted positions pts whose color under source is not gamma.

    A finite coloring must contain every position. An oracle colours a
    dense span of pts in one batch, if it stays within the cell limit, and
    other positions one at a time.
    """
    lo, hi = pts[0], pts[-1]
    if isinstance(source, FiniteColoring):
        dom = source.domain
        if lo < dom.lo or hi > dom.hi:
            p = lo if lo < dom.lo else next(q for q in pts if q > dom.hi)
            raise DomainError(
                f"cube position {_show(p)} outside domain [{dom.lo}, {dom.hi}]"
            )
        colors, lo = source.colors, dom.lo
    elif hi - lo < _DENSE_SPAN * len(pts) and hi - lo < max_cells_limit(max_cells):
        colors = source._colors(lo, hi)
    else:
        for p in pts:
            col = source.color_at(p)
            if col != gamma:
                return (p, col)
        return None
    for p in pts:
        col = colors[p - lo]
        if col != gamma:
            return (p, col)
    return None


def find_violation(
    source: FiniteColoring | ColorOracle, w: CubeWitness
) -> tuple[int, int] | None:
    """First cube position (in sorted order) whose color differs from w.gamma.

    For a finite coloring, every cube position must lie inside the domain;
    an out-of-domain position raises DomainError rather than counting as a
    mismatch.
    """
    return _first_violation(source, cube_positions(w), w.gamma)


def verify_witness(source: FiniteColoring | ColorOracle, w: CubeWitness) -> bool:
    """True iff every cube position has color w.gamma under the source."""
    return find_violation(source, w) is None


def materialize(
    oracle: ColorOracle, interval: Interval, max_cells: int | None = None
) -> FiniteColoring:
    """Evaluate an oracle over an interval as a dense coloring, subject to the cell cap."""
    _check_cells("the interval has", interval.size(), max_cells_limit(max_cells))
    return FiniteColoring(oracle.c, interval, oracle._colors(interval.lo, interval.hi))


# read(i, j): the colors of the cells at 0-based offsets i..j-1 of a window.
_Reader = Callable[[int, int], tuple[int, ...]]


def _reader(source: FiniteColoring | ColorOracle, lo: int, max_cells: int | None) -> _Reader:
    """Reads of the cells from position lo on, for extraction and the cube
    search. A finite coloring's reads slice its colors, checked when it
    was built. Oracle reads count their cells, refusing once the total
    would pass max_cells_limit(max_cells), and their colors are checked
    against the palette. A search window is refused whole before its
    first read, so only extraction reaches the count's refusal."""
    if isinstance(source, FiniteColoring):
        return _slicer(source.colors)
    c, limit = source.c, max_cells_limit(max_cells)
    total = 0

    def read(i: int, j: int) -> tuple[int, ...]:
        nonlocal total
        total += j - i
        _check_cells("extraction would read", total, limit)
        cells = source._colors(lo + i, lo + j - 1)
        _check_palette(c, cells)
        return cells

    return read


def _slicer(cells: tuple[int, ...]) -> _Reader:
    return lambda i, j: cells[i:j]
