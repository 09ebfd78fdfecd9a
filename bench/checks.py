"""Answer checks that share no code with the package under test.

Everything here is written from the definitions: a cube is the set
{a + sum j_i*d_i : 0 <= j_i < k_i}, a certificate is a coloring of
[1, W-1] with no monochromatic k-term progression, each oracle colours a
position by its stated rule, and proof-mode windows follow the tower sizes
W_1 = W(k, c), c_m = c^(W_m...W_1), W_{m+1} = W(k, c_m). Only the closed
forms W(k, 1) = k and W(2, c) = c + 1 are used for geometry, which covers
every proof-mode job in the benchmark.
"""

from __future__ import annotations

from typing import Callable, Sequence

MASK64 = (1 << 64) - 1

Color = Callable[[int], int]


def expand(a: int, ds: Sequence[int], ks: Sequence[int]) -> list[int]:
    """Sorted positions of the cube anchored at a (coinciding sums collapse)."""
    points = [a]
    for d, k in zip(ds, ks):
        points = list({p + j * d for j in range(k) for p in points})
    return sorted(points)


def cube_problem(
    color: Color, gamma: int, a: int, ds: Sequence[int], ks: Sequence[int], lo: int, hi: int
) -> str | None:
    """None if the cube lies in [lo, hi] and every position has colour gamma."""
    if len(ds) != len(ks) or not ds or min(ds) < 1:
        return f"malformed cube a={a} ds={list(ds)} ks={list(ks)}"
    points = expand(a, ds, ks)
    if points[0] < lo or points[-1] > hi:
        return f"cube [{points[0]}, {points[-1]}] leaves [{lo}, {hi}]"
    for p in points:
        got = color(p)
        if got != gamma:
            return f"position {p} has colour {got}, not {gamma}"
    return None


def has_mono_ap(colors: Sequence[int], k: int) -> bool:
    """True if some k-term progression inside the sequence is monochromatic."""
    n = len(colors)
    for start in range(n):
        for step in range(1, n):
            last = start + (k - 1) * step
            if last >= n:
                break
            if all(colors[start + j * step] == colors[start] for j in range(1, k)):
                return True
    return False


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def oracle_color(spec: tuple) -> Color:
    """The colour rule of an oracle spec, as documented for each oracle kind.

    Specs: ("constant", g), ("periodic", pattern), ("evperiodic", prefix,
    pattern), ("thue-morse",), ("random", seed, c).
    """
    kind = spec[0]
    if kind == "constant":
        gamma = spec[1]
        return lambda p: gamma
    if kind == "periodic":
        pattern = spec[1]
        return lambda p: pattern[(p - 1) % len(pattern)]
    if kind == "evperiodic":
        prefix, pattern = spec[1], spec[2]
        return lambda p: (
            prefix[p - 1] if p <= len(prefix) else pattern[(p - 1 - len(prefix)) % len(pattern)]
        )
    if kind == "thue-morse":
        return lambda p: 1 + bin(p - 1).count("1") % 2
    if kind == "random":
        seed, c = spec[1], spec[2]
        key = _splitmix64(seed & MASK64)

        def color(p: int) -> int:
            x, q = key, p - 1
            while True:
                x = _splitmix64(x ^ (q & MASK64))
                q >>= 64
                if not q:
                    return 1 + x % c

        return color
    raise ValueError(f"unknown oracle spec {spec!r}")


def closed_form_w(k: int, c: int) -> int:
    """W(k, c) where a closed form exists (one colour, or 2-term progressions)."""
    if c == 1:
        return k
    if k == 2:
        return c + 1
    raise ValueError(f"no closed form for W({k}, {c})")


def tower_sizes(k: int, c: int, stages: int) -> list[int]:
    """sizes[m-1] = W_m * ... * W_1 for the closed-form cases."""
    sizes = [closed_form_w(k, c)]
    while len(sizes) < stages:
        palette = 1 if c == 1 else c ** sizes[-1]
        sizes.append(closed_form_w(k, palette) * sizes[-1])
    return sizes


def proof_windows(k: int, c: int, windows: int, depth: int) -> list[tuple[int, int]]:
    """[lo, hi] of proof-mode windows 1..windows: window 1 is [1, W_1], and
    window m+1 is the stage-m tower over the W_1 cells right after window m."""
    sizes = tower_sizes(k, c, max(1, windows - 1, depth))
    out = [(1, sizes[0])]
    for m in range(1, windows):
        lo = out[-1][1] + 1
        out.append((lo, lo + sizes[m - 1] - 1))
    return out
