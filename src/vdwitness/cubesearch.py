"""Direct search for monochromatic cubes, and minimal cube numbers.

This module is the independent oracle for the tower extraction: it knows
nothing about towers or block compression and simply enumerates witnesses
(a, d_1, ..., d_n) in lexicographic order. When all side lengths are equal
the cube set is symmetric in its dimensions, so the enumeration restricts
to nondecreasing difference vectors without losing any cube.

cube_number is the W(k, c) avoidance search (wnumbers._avoid) run with cube
hyperedges. Its rows are checked independently, by the naive cube expansion
in the tests, not by a second copy of the search here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import CubeWitness, DomainError, FiniteColoring, LimitError
from .wnumbers import _avoid


@dataclass(frozen=True)
class SearchBounds:
    """Per-dimension caps on the differences d_i; absent caps mean domain-bounded."""

    caps: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "caps", tuple(self.caps))
        if self.caps and min(self.caps) < 1:
            raise DomainError("difference caps must be >= 1")

    @classmethod
    def of(cls, caps: Sequence[int] | "SearchBounds" | None) -> "SearchBounds | None":
        if caps is None:
            return None
        if isinstance(caps, SearchBounds):
            return caps
        return cls(tuple(caps))

    def cap(self, i: int) -> int | None:
        """Cap for dimension i (0-based); None past the end of the list."""
        return self.caps[i] if i < len(self.caps) else None


class CapExceededError(LimitError):
    """The cube number is not determined within the interval cap."""

    def __init__(self, ks: tuple[int, ...], c: int, cap: int):
        super().__init__(
            f"cube number for sides {list(ks)} with {c} colors exceeds cap {cap}"
        )
        self.ks = ks
        self.c = c
        self.cap = cap


def _validate_ks(ks: Sequence[int]) -> tuple[int, ...]:
    ks = tuple(ks)
    if not ks:
        raise DomainError("need at least one side length")
    if min(ks) < 2:
        raise DomainError("side lengths must be >= 2")
    return ks


def find_cube(
    coloring: FiniteColoring,
    ks: Sequence[int],
    bounds: Sequence[int] | SearchBounds | None = None,
    *,
    distinct: bool = False,
) -> CubeWitness | None:
    """Least monochromatic cube witness, ordered by (a, d_1, ..., d_n).

    With uniform side lengths the differences are enumerated nondecreasing
    (a symmetry cut, not a restriction); distinct=True additionally demands
    strictly increasing differences. Returns None when no witness exists
    within the domain and caps.
    """
    ks = _validate_ks(ks)
    bounds = SearchBounds.of(bounds)
    colors = coloring.colors
    lo, hi = coloring.domain.lo, coloring.domain.hi
    n = len(ks)
    uniform = len(set(ks)) == 1

    def descend(i: int, pts: list[int], prev_d: int, reach: int) -> tuple[int, ...] | None:
        if i == n:
            return ()
        k = ks[i]
        if distinct:
            d_lo = prev_d + 1
        elif uniform:
            d_lo = max(prev_d, 1)
        else:
            d_lo = 1
        d_hi = (hi - reach) // (k - 1)
        cap = bounds.cap(i) if bounds is not None else None
        if cap is not None:
            d_hi = min(d_hi, cap)
        gamma = colors[pts[0] - lo]
        for d in range(d_lo, d_hi + 1):
            grown = list(pts)
            ok = True
            for p in pts:
                for j in range(1, k):
                    q = p + j * d
                    if q > hi or colors[q - lo] != gamma:
                        ok = False
                        break
                    grown.append(q)
                if not ok:
                    break
            if ok:
                rest = descend(i + 1, grown, d, reach + (k - 1) * d)
                if rest is not None:
                    return (d, *rest)
        return None

    for a in range(lo, hi + 1):
        ds = descend(0, [a], 0, a)
        if ds is not None:
            return CubeWitness(colors[a - lo], a, ds, ks)
    return None


def cube_number(ks: Sequence[int], c: int, cap: int) -> int:
    """Least N <= cap such that every c-coloring of [1, N] has a monochromatic
    cube with side lengths ks.

    Exhaustive over colorings up to color renaming: the depth-first extension
    enumerates canonical colorings (colors first used in increasing order)
    and prunes any prefix completing a monochromatic cube at its newest
    position. Raises CapExceededError when a cube-free coloring of the full
    cap length exists. Practical only for small N; the state space is c^N.
    """
    ks = _validate_ks(ks)
    if c < 1:
        raise DomainError(f"number of colors must be >= 1, got {c}")
    if cap < 1:
        raise DomainError(f"cap must be >= 1, got {cap}")
    reached, best_len, _ = _avoid(ks, c, cap)
    if reached:
        raise CapExceededError(ks, c, cap)
    return best_len + 1
