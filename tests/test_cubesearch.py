import random
import time
import tracemalloc
from itertools import product

import pytest

from vdwitness import (
    CapExceededError,
    DomainError,
    FiniteColoring,
    Interval,
    ThueMorseOracle,
    cube_number,
    cube_positions,
    extract,
    find_cube,
    materialize,
    tower_params,
    vdw_number,
    verify_witness,
)
from vdwitness import cubesearch
from vdwitness.cubesearch import _FIRST_STEP, _MIN_STEP
from bruteforce import (
    all_colorings,
    expand_cube,
    has_mono_cube,
    least_mono_cube,
    longest_avoiding,
    mono_cubes,
)


def _least_naive(colors, lo, ks, caps, distinct, *, nondecreasing):
    """The naive least (a, ds) on a domain starting at lo, under caps, and
    with strictly increasing differences when distinct."""
    hits = [
        (a + lo - 1, ds)
        for a, ds in mono_cubes(colors, ks, nondecreasing=nondecreasing)
        if all(d <= cap for d, cap in zip(ds, caps))
        and not (distinct and any(x >= y for x, y in zip(ds, ds[1:])))
    ]
    return min(hits) if hits else None


def _least_capped(colors, lo, ks, caps, *, nondecreasing):
    """The naive least (a, ds) with every d_i <= caps[i], trying each
    difference vector within the caps at each anchor."""
    n = len(colors)
    for a in range(1, n + 1):
        for ds in product(*(range(1, cap + 1) for cap in caps)):
            if nondecreasing and any(x > y for x, y in zip(ds, ds[1:])):
                continue
            pts = expand_cube(a, ds, ks)
            if max(pts) <= n and len({colors[p - 1] for p in pts}) == 1:
                return a + lo - 1, ds
    return None


def _random_case(rng, c, n_max, dims):
    """A random coloring on a domain that often starts past 1, with random caps
    for some dimensions and distinct differences in some cases."""
    n = rng.randint(1, n_max)
    lo = rng.choice((1, rng.randint(2, 60)))
    colors = tuple(rng.randint(1, c) for _ in range(n))
    caps = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, dims)))
    distinct = dims > 1 and rng.random() < 0.3
    return FiniteColoring(c, Interval(lo, lo + n - 1), colors), caps, distinct


class TestFindCube:
    def test_constant_collapsing(self):
        col = FiniteColoring(1, Interval(1, 3), (1, 1, 1))
        w = find_cube(col, [2, 2])
        assert (w.a, w.ds) == (1, (1, 1))
        assert cube_positions(w) == (1, 2, 3)

    def test_thue_morse_prefix(self):
        col = materialize(ThueMorseOracle(), Interval(1, 16))
        w = find_cube(col, [2, 2])
        assert (w.gamma, w.a, w.ds) == (1, 1, (3, 3))

    def test_absent(self):
        col = FiniteColoring(2, Interval(1, 2), (1, 2))
        assert find_cube(col, [2]) is None

    def test_minimality_against_naive(self):
        rng = random.Random(21)
        for ks in ((2,), (3,), (2, 2)):
            for _ in range(120):
                n = rng.randint(1, 11)
                colors = tuple(rng.randint(1, 2) for _ in range(n))
                col = FiniteColoring(2, Interval(1, n), colors)
                w = find_cube(col, ks)
                naive = least_mono_cube(colors, ks, nondecreasing=True)
                if naive is None:
                    assert w is None
                else:
                    assert (w.a, w.ds) == naive
                    assert verify_witness(col, w)
        # three colours, domains not starting at 1, three dimensions, caps
        # and distinct differences
        for c, ks, n_max, runs in (
            (3, (2,), 11, 60),
            (3, (3,), 11, 60),
            (3, (2, 2), 11, 80),
            (2, (3, 3), 11, 60),
            (2, (2, 2, 2), 8, 40),
            (3, (2, 2, 2), 8, 40),
        ):
            for _ in range(runs):
                col, caps, distinct = _random_case(rng, c, n_max, len(ks))
                w = find_cube(col, ks, caps, distinct=distinct)
                naive = _least_naive(col.colors, col.domain.lo, ks, caps, distinct, nondecreasing=True)
                if naive is None:
                    assert w is None
                else:
                    assert (w.a, w.ds) == naive
                    assert w.gamma == col.color_at(w.a)
                    assert verify_witness(col, w)

    def test_bounds_respected(self):
        rng = random.Random(4)
        for _ in range(150):
            n = rng.randint(4, 20)
            colors = tuple(rng.randint(1, 2) for _ in range(n))
            col = FiniteColoring(2, Interval(1, n), colors)
            caps = (rng.randint(1, 4), rng.randint(1, 4))
            w = find_cube(col, (2, 2), caps)
            if w is not None:
                assert w.ds[0] <= caps[0] and w.ds[1] <= caps[1]
            # absent means absent: the unbounded least witness violates a cap
            unbounded = find_cube(col, (2, 2))
            if w is None and unbounded is not None:
                refit = find_cube(col, (2, 2), tuple(caps))
                assert refit is None

    def test_bounds_can_exclude_everything(self):
        col = materialize(ThueMorseOracle(), Interval(1, 16))
        assert find_cube(col, [2, 2], (2, 2)) is None

    def test_distinct_differences(self):
        col = FiniteColoring(1, Interval(1, 8), (1,) * 8)
        w = find_cube(col, [2, 2], distinct=True)
        assert w.ds == (1, 2)
        rng = random.Random(8)
        for _ in range(100):
            colors = tuple(rng.randint(1, 2) for _ in range(14))
            col = FiniteColoring(2, Interval(1, 14), colors)
            w = find_cube(col, (2, 2, 2), distinct=True)
            if w is not None:
                assert w.ds[0] < w.ds[1] < w.ds[2]

    def test_nonuniform_sides_enumerate_all_orders(self):
        # with distinct side lengths there is no symmetry cut: compare against
        # the naive minimum over unrestricted difference vectors
        rng = random.Random(13)
        decreasing_seen = False
        for _ in range(200):
            n = rng.randint(3, 11)
            colors = tuple(rng.randint(1, 2) for _ in range(n))
            col = FiniteColoring(2, Interval(1, n), colors)
            w = find_cube(col, (2, 3))
            naive = least_mono_cube(colors, (2, 3), nondecreasing=False)
            if naive is None:
                assert w is None
            else:
                assert (w.a, w.ds) == naive
                if w.ds[0] > w.ds[1]:
                    decreasing_seen = True
        assert decreasing_seen
        for c, ks, n_max, runs in (
            (3, (2, 3), 11, 80),
            (2, (3, 2), 11, 60),
            (2, (2, 3, 2), 7, 40),
            (3, (3, 2, 2), 7, 30),
        ):
            for _ in range(runs):
                col, caps, distinct = _random_case(rng, c, n_max, len(ks))
                w = find_cube(col, ks, caps, distinct=distinct)
                naive = _least_naive(col.colors, col.domain.lo, ks, caps, distinct, nondecreasing=False)
                if naive is None:
                    assert w is None
                else:
                    assert (w.a, w.ds) == naive
                    assert verify_witness(col, w)

    def test_palette_past_a_byte(self, monkeypatch):
        # colours that do not fit in a byte give the same witnesses as their
        # relabelling to 1..5
        rng = random.Random(30)
        relabel = {1: 1, 256: 2, 10**9: 3, 300: 4, 65536: 5}
        labels = list(relabel)
        late = 0

        def same(colors, ks, caps=None):
            nonlocal late
            domain = Interval(5, len(colors) + 4)
            big = FiniteColoring(10**9, domain, colors)
            small = FiniteColoring(5, domain, tuple(relabel[x] for x in colors))
            w, v = find_cube(big, ks, caps), find_cube(small, ks, caps)
            assert (w is None) == (v is None)
            if w is not None:
                assert (relabel[w.gamma], w.a, w.ds) == (v.gamma, v.a, v.ds)
                late += w.a - 5 >= _FIRST_STEP

        for _ in range(60):
            n = rng.randint(1, 16)
            colors = tuple(rng.choice(labels[:3]) for _ in range(n))
            for ks in ((2,), (2, 2), (3, 2)):
                same(colors, ks)
        # Longer windows, read across the doublings of a 3-cell first prefix
        # and the moves of capped segments. The labels in turn have no cube
        # with differences below 5, so under caps below 5 the least cube
        # sits at a changed cell, or there is none.
        monkeypatch.setattr(cubesearch, "_MIN_STEP", 3)
        for _ in range(40):
            n = rng.randint(17, 600)
            colors = [labels[i % 5] for i in range(n)]
            for _ in range(rng.randint(0, 3)):
                colors[rng.randrange(n)] = rng.choice(labels)
            for ks, caps in (((2,), None), ((2, 2), None), ((2,), (4,)), ((3, 2), (4, 3))):
                same(tuple(colors), ks, caps)
        assert late >= 10

    def test_huge_cap_sizes_nothing(self):
        col = materialize(ThueMorseOracle(), Interval(1, 16))
        start = time.perf_counter()
        w = find_cube(col, [2, 2], (10**12, 10**12))
        assert time.perf_counter() - start < 1.0
        assert (w.a, w.ds) == (1, (3, 3))

    def test_capped_windows_past_one_mask_segment(self):
        # With every dimension capped the stride masks cover a segment of
        # anchors and the cells their cubes reach: _FIRST_STEP anchors
        # first, then twice as many per segment up to _MIN_STEP (the caps
        # here are too small to raise it). Colours 1..5 repeated have no
        # cube with differences at most 4; a cube planted at a random
        # anchor, at the last anchors before _MIN_STEP or on either side of
        # an anchor that starts a segment, and a few changed cells, put the
        # least witness anywhere in a long window, or leave none.
        starts, step = [_FIRST_STEP], _FIRST_STEP  # 0-based segment starts
        while starts[-1] < 900:
            step = min(2 * step, _MIN_STEP)
            starts.append(starts[-1] + step)
        sides = {e + side for e in starts for side in (-1, 0)}
        rng = random.Random(40)
        late = edge = seam = 0
        for ks in ((2,), (3,), (2, 2), (3, 2), (4,)):
            for _ in range(24):
                n = rng.randint(300, 900)
                lo = rng.choice((1, rng.randint(2, 60)))
                caps = tuple(rng.randint(1, 4) for _ in ks)
                colors = [1 + i % 5 for i in range(n)]
                if rng.random() < 0.8:
                    a = rng.choice((
                        rng.randint(1, n - 20),
                        _MIN_STEP - rng.randint(0, 2),
                        1 + rng.choice([e for e in sorted(sides) if e < n - 20]),
                    ))
                    ds = caps if rng.random() < 0.5 else tuple(rng.randint(1, cap) for cap in caps)
                    gamma = rng.randint(1, 5)
                    for p in expand_cube(a, ds, ks):
                        colors[p - 1] = gamma
                if rng.random() < 0.5:
                    for _ in range(rng.randint(1, 3)):
                        colors[rng.randrange(n)] = rng.randint(1, 5)
                col = FiniteColoring(5, Interval(lo, lo + n - 1), tuple(colors))
                w = find_cube(col, ks, caps)
                naive = _least_capped(colors, lo, ks, caps, nondecreasing=len(set(ks)) == 1)
                if naive is None:
                    assert w is None
                else:
                    assert (w.a, w.ds) == naive
                    late += w.a - lo >= _MIN_STEP
                    edge += _MIN_STEP - 3 <= w.a - lo < _MIN_STEP and w.ds == caps
                    seam += w.a - lo in sides
        assert late >= 10 and edge >= 5 and seam >= 10

    def test_capped_search_is_bounded_by_the_caps(self):
        # 1122 repeated has no 3-term progression with difference at most 3,
        # so every anchor of the 200,000-cell window is tried. The work per
        # anchor is bounded by the caps, not by the window.
        col = FiniteColoring(2, Interval(1, 200_000), (1, 1, 2, 2) * 50_000)
        start = time.perf_counter()
        assert find_cube(col, (3,), (3,)) is None
        assert find_cube(col, (3, 3), (3, 3)) is None
        assert time.perf_counter() - start < 8.0

    def test_uncapped_search_reads_a_prefix(self, monkeypatch):
        # The least witness of a 2^20-cell window is at its start, so the
        # stride masks cover a short prefix of it, not the whole window.
        lengths = []
        stride_mask = cubesearch._stride_mask

        def recording(cells, *key):
            lengths.append(len(cells))
            return stride_mask(cells, *key)

        monkeypatch.setattr(cubesearch, "_stride_mask", recording)
        n = 1 << 20
        col = FiniteColoring(2, Interval(1, n), (1, 1, 1) + (1, 2) * ((n - 3) // 2) + (2,))
        w = find_cube(col, (2, 2))
        assert (w.a, w.ds) == (1, (1, 1))
        assert 0 < max(lengths) < 1 << 16

    def test_uncapped_rows_live_for_one_anchor(self):
        # Without caps a row spans the prefix, so rows kept past their
        # anchor would hold memory quadratic in the prefix read: 50 random
        # colours over 20,000 cells, whose least (3,3)-cube lies at 2,322,
        # peak near 0.4 MB traced (5 MB with the rows kept).
        rng = random.Random(1)
        n = 20000
        col = FiniteColoring(50, Interval(1, n), tuple(rng.randint(1, 50) for _ in range(n)))
        tracemalloc.start()
        try:
            w = find_cube(col, (3, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (w.a, w.ds) == (2322, (37, 37))
        assert peak < 2 * 10**6

    @pytest.mark.parametrize("prefix", [1, 2, 3, 7])
    def test_prefix_doubling_matches_naive(self, monkeypatch, prefix):
        # A first prefix of a few cells makes the search double it, redoing
        # the anchor, on every window past it: with and without caps on some
        # dimensions, distinct differences and domains not starting at 1.
        monkeypatch.setattr(cubesearch, "_MIN_STEP", prefix)
        rng = random.Random(50 + prefix)
        for c, ks, n_max, runs in (
            (2, (2,), 14, 40),
            (3, (3,), 14, 40),
            (2, (2, 2), 11, 60),
            (3, (2, 3), 10, 40),
            (2, (3, 2), 10, 40),
            (2, (2, 2, 2), 8, 30),
        ):
            for _ in range(runs):
                col, caps, distinct = _random_case(rng, c, n_max, len(ks))
                w = find_cube(col, ks, caps, distinct=distinct)
                naive = _least_naive(col.colors, col.domain.lo, ks, caps, distinct,
                                     nondecreasing=len(set(ks)) == 1)
                assert (None if w is None else (w.a, w.ds)) == naive

    def test_validation(self):
        col = FiniteColoring(1, Interval(1, 3), (1, 1, 1))
        with pytest.raises(DomainError):
            find_cube(col, [])
        with pytest.raises(DomainError):
            find_cube(col, [1])
        with pytest.raises(DomainError):
            find_cube(col, [2], (0,))


class TestOracleDominance:
    def test_search_never_beats_extraction_order(self):
        p = tower_params(2, 2, 2)
        rng = random.Random(77)
        for _ in range(300):
            colors = tuple(rng.randint(1, 2) for _ in range(27))
            col = FiniteColoring(2, Interval(1, 27), colors)
            we = extract(col, Interval(1, 3), 2, p)
            ws = find_cube(col, (2, 2))
            assert ws is not None
            assert (ws.a, ws.ds) <= (we.a, we.ds)


class TestCubeNumber:
    def test_pair_pigeonhole(self):
        assert cube_number([2], 2, 10) == 3

    def test_one_dimension_matches_wnumber(self):
        assert cube_number([3], 2, 64) == vdw_number(3, 2).value == 9

    def test_two_by_two_baseline(self):
        value = cube_number([2, 2], 2, 16)
        assert value == 8
        # independent confirmation by exhaustive naive enumeration
        assert any(not has_mono_cube(cl, (2, 2)) for cl in all_colorings(7, 2))
        assert all(has_mono_cube(cl, (2, 2)) for cl in all_colorings(8, 2))

    def test_monotonicity(self):
        assert cube_number([2], 1, 10) == 2
        assert cube_number([2], 1, 10) <= cube_number([2], 2, 10)
        assert cube_number([2], 2, 10) <= cube_number([3], 2, 64)
        assert cube_number([2], 2, 10) <= cube_number([2, 2], 2, 16)
        assert cube_number([2, 2], 2, 16) <= cube_number([2, 3], 2, 32)

    def test_exceeds_cap(self):
        with pytest.raises(CapExceededError) as exc:
            cube_number([3], 2, 5)
        assert exc.value.cap == 5

    @pytest.mark.parametrize(
        "ks, c, value", [((2, 2), 3, 15), ((3,), 3, 27), ((2, 3), 2, 21), ((2, 2, 2), 2, 21)]
    )
    def test_cap_only_bounds_the_search(self, ks, c, value):
        assert cube_number(ks, c, value) == cube_number(ks, c, 64) == value

    @pytest.mark.parametrize("ks", [(2,), (3,), (2, 2), (2, 3), (3, 2), (3, 3), (2, 2, 2), (2, 4)])
    def test_closed_forms_equal_the_reference_search(self, ks):
        # c = 1 for every ks, and every small c for ks = (2,); caps on both
        # sides of the value check the refusal too
        for c in (1, 2, 3, 4) if ks == (2,) else (1,):
            reached, best_len, _ = longest_avoiding(ks, c, 8)
            assert not reached
            value = best_len + 1
            assert cube_number(ks, c, value) == cube_number(ks, c, value + 3) == value
            with pytest.raises(CapExceededError) as exc:
                cube_number(ks, c, value - 1)
            assert exc.value.cap == value - 1

    def test_huge_palette_allocates_nothing(self):
        start = time.perf_counter()
        with pytest.raises(CapExceededError):
            cube_number((2, 2), 10**12, 3)
        assert cube_number((2,), 10**12, 10**13) == 10**12 + 1
        assert time.perf_counter() - start < 1.0

    def test_a_refusal_past_the_decimal_limit_is_reported(self):
        # numbers past Python's int-to-str digit limit show as digit counts
        with pytest.raises(CapExceededError, match="with <5001-digit number> colors exceeds cap 3$"):
            cube_number((2,), 10**5000, 3)
        with pytest.raises(CapExceededError, match="exceeds cap <5000-digit number>$"):
            cube_number((2,), 10**5000, 10**4999)

    def test_huge_cap_sizes_nothing_up_front(self):
        start = time.perf_counter()
        assert cube_number((2, 2, 2), 2, 10**6) == 21
        assert time.perf_counter() - start < 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            cube_number([2], 0, 5)
        with pytest.raises(DomainError):
            cube_number([2], 2, 0)
