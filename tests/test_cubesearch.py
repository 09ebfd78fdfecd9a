import random
import time

import pytest

from vdwitness import (
    CapExceededError,
    DomainError,
    FiniteColoring,
    Interval,
    SearchBounds,
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
from bruteforce import all_colorings, has_mono_cube, least_mono_cube


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
                refit = find_cube(col, (2, 2), SearchBounds(caps))
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

    def test_validation(self):
        col = FiniteColoring(1, Interval(1, 3), (1, 1, 1))
        with pytest.raises(DomainError):
            find_cube(col, [])
        with pytest.raises(DomainError):
            find_cube(col, [1])
        with pytest.raises(DomainError):
            SearchBounds((0,))


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

    def test_huge_palette_allocates_nothing(self):
        start = time.perf_counter()
        with pytest.raises(CapExceededError):
            cube_number((2, 2), 10**12, 3)
        assert time.perf_counter() - start < 1.0

    def test_huge_cap_sizes_nothing_up_front(self):
        start = time.perf_counter()
        assert cube_number((2, 2, 2), 2, 10**6) == 21
        assert time.perf_counter() - start < 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            cube_number([2], 0, 5)
        with pytest.raises(DomainError):
            cube_number([2], 2, 0)
