"""Naive reference implementations used as independent oracles by the tests.

Everything here favors obviousness over speed and deliberately shares no
code with the package: cube sets come from itertools.product over the index
tuples, progression scans enumerate (a, d) pairs directly, and coloring
spaces are walked exhaustively.
"""

from __future__ import annotations

from itertools import product


def expand_cube(a: int, ds, ks) -> set[int]:
    """{a + sum j_i * d_i} over all index tuples 0 <= j_i <= k_i - 1; the
    product walks the tuples of terms j_i * d_i, so map and sum run in C."""
    terms = (tuple(j * d for j in range(k)) for d, k in zip(ds, ks))
    return {a + s for s in map(sum, product(*terms))}


def all_colorings(n: int, c: int):
    """Every c-coloring of [1, n] as a tuple of colors."""
    return product(range(1, c + 1), repeat=n)


def mono_aps(colors, k: int):
    """All (a, d) with a monochromatic k-term progression, 1-based positions."""
    n = len(colors)
    hits = []
    for a in range(1, n + 1):
        for d in range(1, n):
            last = a + (k - 1) * d
            if last > n:
                break
            if len({colors[a - 1 + j * d] for j in range(k)}) == 1:
                hits.append((a, d))
    return hits


def has_mono_ap(colors, k: int) -> bool:
    return bool(mono_aps(colors, k))


def least_mono_ap(colors, k: int):
    hits = mono_aps(colors, k)
    return min(hits) if hits else None


def mono_cubes(colors, ks, *, nondecreasing: bool):
    """All (a, ds) whose cube is monochromatic inside [1, len(colors)]."""
    n = len(colors)
    hits = []
    dims = len(ks)
    for a in range(1, n + 1):
        # a difference past (n - a) // (k - 1) alone puts the cube's top past n
        ranges = [range(1, (n - a) // (k - 1) + 1 if k > 1 else n + 1) for k in ks]
        for ds in product(*ranges):
            if nondecreasing and any(ds[i] > ds[i + 1] for i in range(dims - 1)):
                continue
            if a + sum((k - 1) * d for d, k in zip(ds, ks)) > n:
                continue
            pts = expand_cube(a, ds, ks)
            if max(pts) > n:
                continue
            if len({colors[p - 1] for p in pts}) == 1:
                hits.append((a, ds))
    return hits


def has_mono_cube(colors, ks) -> bool:
    return bool(mono_cubes(colors, ks, nondecreasing=True))


def least_mono_cube(colors, ks, *, nondecreasing: bool):
    hits = mono_cubes(colors, ks, nondecreasing=nondecreasing)
    return min(hits) if hits else None


def dense_extract(colors, lo: int, ks, counts):
    """Reference tower extraction that interns every block before scanning.

    colors is a coloring of the tower starting at position lo whose stage m
    splits into counts[m-1] blocks (counts[0] cells at stage 1), and ks[m-1]
    is the progression length at stage m. Returns (gamma, a, ds, trace) with
    one trace record per stage above the base, top first, in the format of
    `extract --trace`. Raises ValueError when the cells do not split into
    that tower.
    """
    sizes = [counts[0]]
    for w in counts[1:]:
        sizes.append(sizes[-1] * w)
    if len(colors) != sizes[-1]:
        raise ValueError(f"{len(colors)} cells are not a tower of {sizes[-1]}")
    segment = tuple(colors)
    ds = []
    trace = []
    for m in range(len(ks), 1, -1):
        size = sizes[m - 2]
        blocks = [segment[i * size : (i + 1) * size] for i in range(counts[m - 1])]
        first_seen: dict = {}
        ids = [first_seen.setdefault(b, len(first_seen) + 1) for b in blocks]
        b1, dstar = _first_mono_ap(ids, ks[m - 1])
        trace.append({"stage": m, "b1": b1, "dstar": dstar, "block_size": size,
                      "palette_size": len(first_seen)})
        ds.append(dstar * size)
        lo += b1 * size
        segment = blocks[b1]
    a0, d1 = _first_mono_ap(segment, ks[0])
    return segment[a0], lo + a0, (d1, *reversed(ds)), trace


def _first_mono_ap(colors, k: int):
    """The least (a0, d), 0-based, ordered by a0 then d, of a monochromatic k-AP."""
    n = len(colors)
    for a0 in range(n):
        for d in range(1, n):
            if a0 + (k - 1) * d >= n:
                break
            if len({colors[a0 + j * d] for j in range(k)}) == 1:
                return a0, d
    raise ValueError(f"no monochromatic {k}-AP in {n} cells")


def scan_least_ap(colors, n: int, k: int):
    """The least (a0, d), 0-based, of a monochromatic k-AP among the first n
    elements, looking elements up one at a time in scan order: a0
    ascending, then d ascending, then j. A lazily filled sequence scanned
    here is read in the order of that element-by-element scan."""
    for a0 in range(n - k + 1):
        gamma = colors[a0]
        for d in range(1, (n - 1 - a0) // (k - 1) + 1):
            if all(colors[a0 + j * d] == gamma for j in range(1, k)):
                return a0, d
    return None


def longest_avoiding(ks, c: int, limit: int):
    """(reached_limit, best_length, prefix) of a plain depth-first search over
    canonical c-colorings of [1, limit] (each new colour is the least unused
    one) that rejects a colouring when its newest position tops a
    monochromatic cube of side lengths ks. prefix is the first colouring the
    search reaches at best_length, so the lexicographically least one; when
    the search reaches limit, prefix is its first colouring of that length.
    """
    dims = len(ks)

    def completes(colors) -> bool:
        n = len(colors)
        for ds in product(range(1, n), repeat=dims):
            if sum((k - 1) * d for k, d in zip(ks, ds)) >= n:
                continue
            pts = expand_cube(0, ds, ks)
            a = n - max(pts)
            if len({colors[a + q - 1] for q in pts}) == 1:
                return True
        return False

    best: list = []

    def extend(colors) -> bool:
        if len(colors) > len(best):
            best[:] = colors
        if len(colors) == limit:
            return True
        for g in range(1, min(c, max(colors, default=0) + 1) + 1):
            colors.append(g)
            if not completes(colors) and extend(colors):
                return True
            colors.pop()
        return False

    reached = extend([])
    return reached, len(best), tuple(best)


def greedy_avoiding(k: int, n: int):
    """The colouring of [1, n] that gives each position in turn the least
    colour completing no monochromatic k-term progression with the
    positions before it; colours are tried 1, 2, ... and differences
    scanned directly."""
    colors: list = []
    for q in range(n):
        g = 1
        while any(
            all(colors[q - j * d] == g for j in range(1, k))
            for d in range(1, q // (k - 1) + 1)
        ):
            g += 1
        colors.append(g)
    return tuple(colors)
