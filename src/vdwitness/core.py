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
from itertools import compress
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


# The palettes [1, c] that fit in a byte, c < 256, each as the bytes 1..c:
# packed colours lie in [1, c] iff translate deletes every one of them.
_PALETTE = {c: bytes(range(1, c + 1)) for c in range(1, 256)}


def _packed(c: int, colors: Sequence[int]) -> bytes | tuple[int, ...]:
    """colors as reads hand them out: packed into bytes when the palette
    [1, c] fits in a byte and bytes() takes every colour, else as a tuple
    (colors itself when it is one). The one owner of the byte rule; it
    checks no palette."""
    try:
        if c in _PALETTE:
            return bytes(colors)
    except (TypeError, ValueError):  # a colour that is no byte
        pass
    return tuple(colors)


def _checked(c: int, colors: Sequence[int]) -> bytes | tuple[int, ...]:
    """_packed(c, colors), checked against the palette rule: one translate
    when packed, else (or on a bad colour) through _check_palette."""
    cells = _packed(c, colors)
    if type(cells) is not bytes or cells.translate(None, _PALETTE[c]):
        _check_palette(c, cells)
    return cells


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
    """Contiguous range [lo, hi] of positive integers, with size and membership."""

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
    """A c-coloring of an interval, stored densely by domain position.

    Reads (_reader) slice a private copy of colors, checked against the
    palette once here: packed bytes when the palette fits in a byte
    (_packed), else colors itself. It is not a field, so eq, hash and repr
    ignore it."""

    c: int
    domain: Interval
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "colors", tuple(self.colors))
        if len(self.colors) != self.domain.size():
            raise DomainError(
                f"{len(self.colors)} colors for a domain of {self.domain.size()} cells"
            )
        object.__setattr__(self, "_cells", _checked(self.c, self.colors))

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
    positions lo..hi (1 <= lo <= hi) as bytes when the palette fits in a
    byte (c < 256) and as a tuple otherwise, as _packed hands them out:
    materialize reads a whole window at once, while extraction and
    search-mode windows read only the runs of cells their scans reach
    (_reader), which checks each batch against the palette. Overriding it
    is optional: the default calls _color once per position. An override is
    a faster batch rule and must equal _color position by position.
    """

    c: int

    def color_at(self, p: int) -> int:
        if p < 1:
            raise DomainError(f"positions start at 1, got {p}")
        return self._color(p)

    def _color(self, p: int) -> int:
        raise NotImplementedError

    def _colors(self, lo: int, hi: int) -> bytes | tuple[int, ...]:
        return _packed(self.c, [self._color(p) for p in range(lo, hi + 1)])


@dataclass(frozen=True)
class EventuallyPeriodicOracle(ColorOracle):
    """The colors of prefix, then of pattern repeated forever.

    Batches are cut from private copies of prefix and pattern, packed once
    here (_packed); they are not fields, so eq, hash and repr ignore them."""

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
        colors = prefix + pattern
        object.__setattr__(self, "c", _check_palette(self.c, colors))
        cells = _packed(self.c, colors)
        object.__setattr__(self, "_pre", cells[: len(prefix)])
        object.__setattr__(self, "_pat", cells[len(prefix) :])

    def _color(self, p: int) -> int:
        if p <= len(self.prefix):
            return self.prefix[p - 1]
        return self.pattern[(p - 1 - len(self.prefix)) % len(self.pattern)]

    def _colors(self, lo: int, hi: int) -> bytes | tuple[int, ...]:
        pre, pattern = self._pre, self._pat
        start = max(lo, len(pre) + 1)  # first position of the periodic part in [lo, hi]
        r = (start - 1 - len(pre)) % len(pattern)
        rotated = pattern[r:] + pattern[:r]
        q, rem = divmod(max(hi - start + 1, 0), len(pattern))
        return pre[lo - 1 : hi] + rotated * q + rotated[:rem]


class PeriodicOracle(EventuallyPeriodicOracle):
    def __init__(self, pattern: tuple[int, ...], c: int | None = None) -> None:
        super().__init__((), pattern, c)


class ConstantOracle(EventuallyPeriodicOracle):
    def __init__(self, gamma: int, c: int | None = None) -> None:
        super().__init__((), (gamma,), c)


_PARITY = bytes(1 + (n & 1) for n in range(256))  # a bit count to its Thue-Morse color


@dataclass(frozen=True)
class ThueMorseOracle(ColorOracle):
    """Color 1 + (popcount(p-1) mod 2): the Thue-Morse word over two colors."""

    c: ClassVar[int] = 2

    def _color(self, p: int) -> int:
        return 1 + ((p - 1).bit_count() & 1)

    def _colors(self, lo: int, hi: int) -> bytes:
        if hi > 1 << 255:  # some bit count may not fit in a byte
            return super()._colors(lo, hi)
        return bytes(map(int.bit_count, range(lo - 1, hi))).translate(_PARITY)


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

    def _colors(self, lo: int, hi: int) -> bytes | tuple[int, ...]:
        if hi > 1 << 64:  # some q = p - 1 needs more than one 64-bit word
            return super()._colors(lo, hi)
        key, c = self._key, self.c
        out: list[int] = []
        for q0 in range(lo - 1, hi, _LANE_BATCH):
            words = _splitmix64_lanes(key, q0, min(_LANE_BATCH, hi - q0))
            out += [1 + v % c for v in words]
        return _packed(c, out)


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
    """Sorted, deduplicated expansion of the cube set; a dense cube (see
    _dense) is read off its mask in one pass, or is the range of its span
    when the mask fills it. Raises
    MaterializationLimitError, before building anything, when both the
    number of index tuples and the span of the cube exceed
    max_cells_limit(max_cells), since either one bounds the number of
    positions."""
    limit = max_cells_limit(max_cells)
    span = w.max_position() - w.a
    if span >= limit:
        count = 1
        for k in w.ks:
            count *= k
            if count > limit:
                break
        _check_cells(f"a cube of {w.dim} dimensions may have", count, limit)
    dims = sorted(zip(w.ds, w.ks))
    reach, count = 0, 1  # span and positions of the dimensions before d
    for d, k in dims:
        if d <= reach:  # sums collide; |A + B| >= |A| + |B| - 1 bounds count
            count = 1 + sum(w.ks) - w.dim
            break
        reach += (k - 1) * d
        count *= k
    if _dense(span, count):
        mask = _cube_mask(w)
        if mask == (2 << span) - 1:  # every position of the span
            return tuple(range(w.a, w.a + span + 1))
        bits = bin(mask)[:1:-1].encode().translate(_BITS)  # bit t is byte t
        return tuple(compress(range(w.a, w.a + len(bits)), bits))
    if reach == span:
        # No sums collide: each shifted copy lies wholly above the previous.
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


_DENSE_SPAN = 4  # see _dense
_BITS = bytes.maketrans(b"01", b"\0\1")  # the digits of bin() to bytes 0 and 1
# Translate tables sending byte gamma to b"1" and every other byte to b"0";
# a colour past the bytes matches none of them.
_ONE_HOT = {g: b"0" * g + b"1" + b"0" * (255 - g) for g in range(256)}
_NO_HOT = b"0" * 256


def _dense(span: int, positions: int) -> bool:
    """Whether a cube of at least this many positions over this span is
    dense, and so expanded and coloured in one pass over its span."""
    return span < _DENSE_SPAN * positions


def _stride_mask(cells: bytes | Sequence[int], gamma: int, j: int, r: int) -> int:
    """Bit t set iff cells[r + t*j] == gamma; cells are bytes (or a
    bytearray) when the palette fits in a byte."""
    if isinstance(cells, (bytes, bytearray)):
        return int(cells[r::j][::-1].translate(_ONE_HOT.get(gamma, _NO_HOT)) or b"0", 2)
    return int("".join(["01"[x == gamma] for x in cells[r::j][::-1]]) or "0", 2)


def _cube_mask(w: CubeWitness) -> int:
    """Bit t set iff w.a + t is a point of the cube w, built by doubling the
    run of copies j*d per dimension, so colliding sums merge."""
    mask = 1
    for d, k in zip(w.ds, w.ks):
        m = 1  # mask holds the copies j*d for 0 <= j < m
        while 2 * m <= k:
            mask |= mask << m * d
            m *= 2
        if m < k:  # k/2 < m < k: the copies from k-m on cover the rest
            mask |= mask << (k - m) * d
    return mask


def _first_violation(
    source: FiniteColoring | ColorOracle,
    w: CubeWitness,
    pts: tuple[int, ...],
    limit: int,
) -> tuple[int, int] | None:
    """First of the positions pts = cube_positions(w) whose color under
    source is not w.gamma, with that color; a finite coloring must contain
    them all. Dense pts (see _dense) are read once over their span (a slice,
    or one oracle batch of fewer than limit cells, the resolved cell limit)
    and checked by mask."""
    gamma, lo, hi = w.gamma, pts[0], pts[-1]
    dense = _dense(hi - lo, len(pts))
    if isinstance(source, FiniteColoring):
        dom = source.domain
        if lo < dom.lo or hi > dom.hi:
            p = lo if lo < dom.lo else next(q for q in pts if q > dom.hi)
            raise DomainError(
                f"cube position {_show(p)} outside domain [{dom.lo}, {dom.hi}]"
            )
        if dense:
            cells = source._cells[lo - dom.lo : hi - dom.lo + 1]
    elif dense and hi - lo < limit:
        cells = _packed(source.c, source._colors(lo, hi))
    else:
        dense = False
    if not dense:
        for p, col in zip(pts, map(source.color_at, pts)):
            if col != gamma:
                return (p, col)
        return None
    bad = _cube_mask(w) & ~_stride_mask(cells, gamma, 1, 0)  # points not coloured gamma
    t = (bad & -bad).bit_length() - 1
    return (lo + t, cells[t]) if bad else None


def find_violation(
    source: FiniteColoring | ColorOracle, w: CubeWitness
) -> tuple[int, int] | None:
    """First cube position (in sorted order) whose color differs from w.gamma.

    For a finite coloring, every cube position must lie inside the domain;
    an out-of-domain position raises DomainError rather than counting as a
    mismatch.
    """
    limit = max_cells_limit()
    return _first_violation(source, w, cube_positions(w, max_cells=limit), limit)


def verify_witness(source: FiniteColoring | ColorOracle, w: CubeWitness) -> bool:
    """True iff every cube position has color w.gamma under the source."""
    return find_violation(source, w) is None


def materialize(
    oracle: ColorOracle, interval: Interval, max_cells: int | None = None
) -> FiniteColoring:
    """Evaluate an oracle over an interval as a dense coloring, subject to the cell cap."""
    _check_cells("the interval has", interval.size(), max_cells_limit(max_cells))
    return FiniteColoring(oracle.c, interval, oracle._colors(interval.lo, interval.hi))


# read(i, j): the colors of the cells at 0-based offsets i..j-1 of a window,
# as bytes when the palette fits in a byte (_packed), else as a tuple: the
# form a coloring's _cells and every oracle batch already take.
_Reader = Callable[[int, int], bytes | tuple[int, ...]]


def _reader(
    source: FiniteColoring | ColorOracle,
    lo: int,
    max_cells: int | None,
    *,
    limit: int | None = None,
) -> _Reader:
    """Reads of the cells from position lo on, for extraction and the cube
    search. A finite coloring's reads slice its cells, packed and checked
    when it was built. Oracle reads count their cells, refusing once the
    total would pass limit, by default max_cells_limit(max_cells); each
    batch comes packed from the oracle (_checked packs any other) and is
    checked against the palette on every read. A search
    window is refused whole before its first read, so only extraction
    reaches the count's refusal."""
    if isinstance(source, FiniteColoring):
        return _slicer(source._cells)
    c = source.c
    if limit is None:
        limit = max_cells_limit(max_cells)
    total = 0

    def read(i: int, j: int) -> bytes | tuple[int, ...]:
        nonlocal total
        total += j - i
        _check_cells("extraction would read", total, limit)
        return _checked(c, source._colors(lo + i, lo + j - 1))

    return read


def _slicer(cells: bytes | tuple[int, ...]) -> _Reader:
    return lambda i, j: cells[i:j]
