import dataclasses
import random
import tracemalloc
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vdwitness import (
    ColorOracle,
    ConstantOracle,
    CubeWitness,
    DomainError,
    EventuallyPeriodicOracle,
    FiniteColoring,
    Interval,
    MaterializationLimitError,
    PeriodicOracle,
    PrefixOracle,
    SeededRandomOracle,
    ThueMorseOracle,
    cube_positions,
    find_violation,
    materialize,
    translate,
    verify_witness,
)
from vdwitness import core
from vdwitness.core import (
    _DENSE_SPAN,
    _LANE_BATCH,
    DEFAULT_MAX_CELLS,
    _check_palette,
    _first_violation,
    _reader,
)
from bruteforce import expand_cube


class TestInterval:
    def test_basics(self):
        iv = Interval(3, 7)
        assert iv.size() == 5
        assert 3 in iv and 7 in iv and 8 not in iv

    def test_invalid(self):
        with pytest.raises(DomainError):
            Interval(0, 5)
        with pytest.raises(DomainError):
            Interval(5, 4)


class TestTranslate:
    def test_identity(self):
        assert translate(Interval(1, 3), 0) == Interval(1, 3)

    def test_shift(self):
        assert translate(Interval(1, 3), 5) == Interval(6, 8)
        assert translate(Interval(13, 15), 12) == Interval(25, 27)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            translate(Interval(1, 3), -1)

    @settings(max_examples=200, derandomize=True)
    @given(
        lo=st.integers(1, 1000),
        size=st.integers(1, 1000),
        b1=st.integers(0, 1000),
        b2=st.integers(0, 1000),
    )
    def test_composition(self, lo, size, b1, b2):
        iv = Interval(lo, lo + size - 1)
        assert translate(translate(iv, b1), b2) == translate(iv, b1 + b2)


class TestCubePositions:
    def test_single_dimension(self):
        assert cube_positions(CubeWitness(1, 1, (2,), (2,))) == (1, 3)

    def test_two_dimensions(self):
        # direct expansion of the four index tuples
        assert cube_positions(CubeWitness(1, 2, (1, 3), (2, 2))) == (2, 3, 5, 6)

    def test_collapse(self):
        # equal differences collapse (0,1) and (1,0)
        assert cube_positions(CubeWitness(1, 1, (3, 3), (2, 2))) == (1, 4, 7)

    @settings(max_examples=200, derandomize=True)
    @given(
        a=st.integers(1, 50),
        ds=st.lists(st.integers(1, 9), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_matches_product_expansion(self, a, ds, data):
        ks = data.draw(st.lists(st.integers(2, 9), min_size=len(ds), max_size=len(ds)))
        w = CubeWitness(1, a, tuple(ds), tuple(ks))
        pts = cube_positions(w)
        assert set(pts) == expand_cube(a, ds, ks)
        assert list(pts) == sorted(set(pts))
        assert pts[-1] == a + sum((k - 1) * d for d, k in zip(ds, ks))

    @settings(max_examples=200, derandomize=True)
    @given(
        a=st.integers(1, 50),
        b=st.integers(0, 50),
        ds=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    )
    def test_translation_in_anchor(self, a, b, ds):
        ks = (2,) * len(ds)
        base = cube_positions(CubeWitness(1, a, tuple(ds), ks))
        shifted = cube_positions(CubeWitness(1, a + b, tuple(ds), ks))
        assert shifted == tuple(p + b for p in base)

    def test_size_bound_and_exactness(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(1, 3)
            ds = tuple(rng.randint(1, 8) for _ in range(n))
            ks = tuple(rng.randint(2, 4) for _ in range(n))
            w = CubeWitness(1, rng.randint(1, 20), ds, ks)
            pts = cube_positions(w)
            full = 1
            for k in ks:
                full *= k
            assert 1 <= len(pts) <= full
            sums = [
                sum(j * d for j, d in zip(js, ds))
                for js in __import__("itertools").product(*(range(k) for k in ks))
            ]
            assert (len(pts) == full) == (len(set(sums)) == len(sums))

    @settings(max_examples=200, derandomize=True)
    @given(a=st.integers(1, 50), data=st.data())
    def test_disjoint_dimensions(self, a, data):
        # each difference clears the span of the smaller ones: no sums
        # collide, whatever order the dimensions come in
        ks = data.draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
        ds, reach = [], 0
        for k in ks:
            ds.append(reach + data.draw(st.integers(1, 5)))
            reach += (k - 1) * ds[-1]
        order = data.draw(st.permutations(range(len(ks))))
        w = CubeWitness(1, a, tuple(ds[i] for i in order), tuple(ks[i] for i in order))
        pts = cube_positions(w)
        assert list(pts) == sorted(expand_cube(a, w.ds, w.ks))
        full = 1
        for k in ks:
            full *= k
        assert len(pts) == full

    def test_refused_past_the_cell_limit(self, monkeypatch):
        monkeypatch.setenv("VDW_MAX_CELLS", "120")
        with pytest.raises(MaterializationLimitError):
            cube_positions(CubeWitness(1, 1, (1, 11), (11, 11)))  # 121 of each
        # 121 index tuples over a span of 21 cells, or 4 over 1001: expanded
        assert cube_positions(CubeWitness(1, 1, (1, 1), (11, 11))) == tuple(range(1, 22))
        assert cube_positions(CubeWitness(1, 1, (1, 999), (2, 2))) == (1, 2, 1000, 1001)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(a=st.integers(1, 50), data=st.data())
    def test_matches_brute_force_across_the_density_boundary(self, a, data):
        # dimensions whose differences collide (equal, or multiples of one
        # base), long sides on d = 1 and far differences up to 10^6; a last
        # side of 2 puts the span at _DENSE_SPAN times prod(ks) (the
        # positions when no sums collide) or 1 + sum(k - 1) (a lower bound
        # on them when some do), or one below, unless the others already
        # span past it
        base = data.draw(st.integers(1, 6))
        dims = data.draw(
            st.lists(
                st.one_of(
                    st.tuples(st.integers(1, 3).map(base.__mul__), st.integers(2, 5)),
                    st.tuples(st.just(1), st.integers(2, 300)),
                    st.tuples(st.integers(1, 10**6), st.integers(2, 3)),
                ),
                max_size=3,
            )
        )
        count = data.draw(
            st.sampled_from((2 * prod(k for _, k in dims), 2 + sum(k - 1 for _, k in dims)))
        )
        assume(count <= 20000)
        span = _DENSE_SPAN * count - data.draw(st.integers(0, 1))
        last = span - sum((k - 1) * d for d, k in dims)
        if last < 1:
            last = data.draw(st.integers(1, 10**6))
        dims.insert(data.draw(st.integers(0, len(dims))), (last, 2))
        ds, ks = zip(*dims)
        assert cube_positions(CubeWitness(1, a, ds, ks)) == tuple(sorted(expand_cube(a, ds, ks)))

    def test_long_sides_on_one_difference(self):
        # 10^10 index tuples over 199,999 positions
        w = CubeWitness(1, 1, (1, 1), (100000, 100000))
        assert cube_positions(w) == tuple(range(1, 200000))

    def test_far_colliding_cube_stays_small(self):
        # 4,000,000 index tuples, but 3,999 positions over a span of about
        # 16,000,000: expanded as a set and checked position by position,
        # with no mask or batch over the span
        w = CubeWitness(2, 1, (3998, 3998), (2000, 2000))
        tracemalloc.start()
        try:
            pts = cube_positions(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pts == tuple(range(1, 3998 * 3998 + 2, 3998))
        assert peak < 4_000_000
        counting = _Counting()
        assert find_violation(counting, w) is None
        assert (counting.colors_calls, counting.color_calls) == (0, 3999)

    @pytest.mark.parametrize(
        "ds, ks, contiguous",
        [
            (tuple(2**i for i in range(10)), (2,) * 10, True),
            (tuple(3**i for i in range(6)), (3,) * 6, True),
            ((1, 1), (11, 11), True),
            ((1, 3), (2, 2), False),  # a single gap: a, a + 1, a + 3, a + 4
        ],
        ids=["2^i-sides-2", "3^i-sides-3", "1,1-sides-11", "1,3-sides-2"],
    )
    def test_contiguous_cubes_expand_as_a_range(self, monkeypatch, ds, ks, contiguous):
        # a dense cube that fills its span skips the bit-by-bit compress
        calls = []
        real = core.compress
        monkeypatch.setattr(core, "compress", lambda *args: calls.append(args) or real(*args))
        for a in (1, 7):
            pts = cube_positions(CubeWitness(1, a, ds, ks))
            assert pts == tuple(sorted(expand_cube(a, ds, ks)))
            assert (pts == tuple(range(a, pts[-1] + 1))) == contiguous
        assert len(calls) == (0 if contiguous else 2)

    def test_validation(self):
        with pytest.raises(DomainError):
            CubeWitness(1, 1, (), ())
        with pytest.raises(DomainError):
            CubeWitness(1, 1, (0,), (2,))
        with pytest.raises(DomainError):
            CubeWitness(1, 1, (1,), (1,))
        with pytest.raises(DomainError):
            CubeWitness(0, 1, (1,), (2,))
        with pytest.raises(DomainError):
            CubeWitness(1, 0, (1,), (2,))
        with pytest.raises(DomainError):
            CubeWitness(1, 1, (1, 2), (2,))


class TestVerifyWitness:
    def test_constant_coloring(self):
        col = FiniteColoring(1, Interval(1, 100), (1,) * 100)
        assert verify_witness(col, CubeWitness(1, 5, (3, 7), (2, 3)))

    def test_examples_on_121(self):
        col = FiniteColoring(2, Interval(1, 3), (1, 2, 1))
        assert verify_witness(col, CubeWitness(1, 1, (2,), (2,)))
        assert not verify_witness(col, CubeWitness(1, 1, (1,), (2,)))
        assert find_violation(col, CubeWitness(1, 1, (1,), (2,))) == (2, 2)

    def test_out_of_domain_is_an_error_not_false(self):
        col = FiniteColoring(2, Interval(1, 3), (1, 2, 1))
        with pytest.raises(DomainError):
            verify_witness(col, CubeWitness(1, 2, (2,), (2,)))

    def test_oracle_source(self):
        assert verify_witness(ConstantOracle(2, 3), CubeWitness(2, 10**9, (5,), (4,)))
        assert not verify_witness(ThueMorseOracle(), CubeWitness(1, 1, (1,), (2,)))

    def test_oracle_agrees_with_its_coloring(self, monkeypatch):
        # dense spans are coloured in one batch, sparse ones position by
        # position; both must report the same first violation
        oracle = SeededRandomOracle(5, 2)
        col = materialize(oracle, Interval(1, 4000))
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randint(1, 3)
            ds = tuple(rng.choice((rng.randint(1, 4), rng.randint(1, 600))) for _ in range(n))
            w = CubeWitness(rng.randint(1, 2), rng.randint(1, 100), ds, (2,) * n)
            assert find_violation(oracle, w) == find_violation(col, w)
        # a span past the cell limit is read position by position
        monkeypatch.setenv("VDW_MAX_CELLS", "16")
        w = CubeWitness(2, 1, (2, 4, 10), (2, 2, 2))  # 8 odd positions in [1, 17]
        assert find_violation(oracle, w) == find_violation(col, w)
        counting = _Counting()
        assert find_violation(counting, w) is None
        assert (counting.colors_calls, counting.color_calls) == (0, 8)
        monkeypatch.setenv("VDW_MAX_CELLS", "17")
        counting = _Counting()
        assert find_violation(counting, w) is None
        assert counting.colors_calls == 1

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        c=st.sampled_from((2, 255, 256, 300)),
        a=st.integers(1, 20),
        dims=st.lists(st.tuples(st.integers(1, 12), st.integers(2, 4)), min_size=1, max_size=3),
        places=st.sets(st.sampled_from(("anchor", "middle", "top"))),
        data=st.data(),
    )
    def test_first_violation_matches_a_scan(self, c, a, dims, places, data):
        # dense and sparse cubes under finite colorings and oracles, on both
        # sides of the byte palette, with violations at the anchor, in the
        # middle and at the top, the other cells colored at random
        ds, ks = zip(*dims)
        w = CubeWitness(data.draw(st.integers(1, c)), a, ds, ks)
        pts = cube_positions(w)
        cube = set(pts)
        other = st.integers(1, c).filter(lambda x: x != w.gamma)
        colors = [w.gamma if p in cube else data.draw(st.integers(1, c)) for p in range(1, pts[-1] + 1)]
        for place in places:
            p = {"anchor": pts[0], "middle": pts[len(pts) // 2], "top": pts[-1]}[place]
            colors[p - 1] = data.draw(other)
        scan = next(((p, colors[p - 1]) for p in pts if colors[p - 1] != w.gamma), None)
        col = FiniteColoring(c, Interval(1, len(colors)), colors)
        assert find_violation(col, w) == scan
        assert find_violation(EventuallyPeriodicOracle(tuple(colors), (w.gamma,), c), w) == scan

    @settings(max_examples=100, derandomize=True)
    @given(
        a=st.integers(2, 30),
        dims=st.lists(st.tuples(st.integers(1, 3), st.integers(2, 5)), min_size=1, max_size=3),
        data=st.data(),
    )
    def test_dense_cube_past_the_domain(self, a, dims, data):
        ds, ks = zip(*dims)
        w = CubeWitness(1, a, ds, ks)
        pts = cube_positions(w)
        assume(pts[-1] - a < _DENSE_SPAN * len(pts))
        # cut the domain just after the anchor, or just before a point
        lo = data.draw(st.integers(1, a))
        if lo == a:
            lo, hi, p = a + 1, pts[-1], a
        else:
            p = data.draw(st.sampled_from(pts[1:]))
            hi = data.draw(st.integers(pts[pts.index(p) - 1], p - 1))
        col = FiniteColoring(1, Interval(lo, hi), (1,) * (hi - lo + 1))
        with pytest.raises(DomainError, match=rf"^cube position {p} outside domain \[{lo}, {hi}\]$"):
            find_violation(col, w)

    def test_colour_past_the_palette_is_reported(self):
        # an oracle that breaks its palette is read as it is, in a batch too
        class Wide(ColorOracle):
            c = 2

            def _color(self, p):
                return 300 if p == 3 else 1

        assert find_violation(Wide(), CubeWitness(1, 1, (1,), (4,))) == (3, 300)
        assert find_violation(Wide(), CubeWitness(1, 1, (1,), (2,))) is None
        # a witness colour past the bytes matches no cell of a byte palette
        far = CubeWitness(300, 1, (1,), (4,))
        assert find_violation(ConstantOracle(1), far) == (1, 1)
        assert find_violation(FiniteColoring(2, Interval(1, 4), (2, 1, 1, 1)), far) == (1, 2)

    @pytest.mark.parametrize(
        "ds, ks, violation, reads",
        [
            # 4 positions over a span of 15, below _DENSE_SPAN * 4: one batch
            # of 16 cells; over a span of 16, position by position up to the
            # violation
            ((1, 14), (2, 2), (2, 1), (1, 16)),
            ((1, 15), (2, 2), (2, 1), (0, 2)),
            # colliding sums: 6 positions of 8 index tuples, over a span of 7
            # or of 31, so the positions decide, not the index tuples
            ((2, 2, 3), (2, 2, 2), (4, 1), (1, 8)),
            ((10, 10, 11), (2, 2, 2), (12, 1), (0, 3)),
        ],
    )
    def test_density_decides_the_reads(self, ds, ks, violation, reads):
        counting = _Counting()
        assert find_violation(counting, CubeWitness(2, 1, ds, ks)) == violation
        assert (counting.colors_calls, counting.color_calls) == reads

    def test_permutation_invariance_uniform_k(self):
        rng = random.Random(11)
        oracle = SeededRandomOracle(99, 3)
        for _ in range(200):
            n = rng.randint(2, 4)
            ds = tuple(rng.randint(1, 6) for _ in range(n))
            w = CubeWitness(rng.randint(1, 3), rng.randint(1, 30), ds, (3,) * n)
            perm = list(ds)
            rng.shuffle(perm)
            wp = CubeWitness(w.gamma, w.a, tuple(perm), (3,) * n)
            assert verify_witness(oracle, w) == verify_witness(oracle, wp)


class TestOracles:
    def test_thue_morse_values(self):
        tm = ThueMorseOracle()
        assert tm.color_at(1) == 1
        assert tm.color_at(2) == 2
        assert [tm.color_at(p) for p in range(1, 9)] == [1, 2, 2, 1, 2, 1, 1, 2]

    def test_thue_morse_pair_recurrence(self):
        # adjacent odd/even positions always differ
        tm = ThueMorseOracle()
        assert all(tm.color_at(2 * p - 1) != tm.color_at(2 * p) for p in range(1, 10**6 + 1))

    def test_periodic(self):
        o = PeriodicOracle((1, 2, 2))
        assert o.color_at(7) == 1
        assert o.c == 2
        assert [o.color_at(p) for p in range(1, 7)] == [1, 2, 2, 1, 2, 2]
        with pytest.raises(DomainError, match="^empty period pattern$"):
            PeriodicOracle(())

    def test_eventually_periodic(self):
        o = EventuallyPeriodicOracle((1, 1), (1, 2))
        assert [o.color_at(p) for p in range(1, 7)] == [1, 1, 1, 2, 1, 2]

    def test_constant(self):
        assert ConstantOracle(3).c == 3
        assert ConstantOracle(1, 4).color_at(12) == 1
        with pytest.raises(DomainError):
            ConstantOracle(3, 2)

    def test_position_validation(self):
        for oracle in (ThueMorseOracle(), ConstantOracle(1), PeriodicOracle((1, 2))):
            with pytest.raises(DomainError):
                oracle.color_at(0)

    def test_seeded_random_determinism_and_order_independence(self):
        o = SeededRandomOracle(42, 5)
        forward = [o.color_at(p) for p in range(1, 200)]
        backward = [o.color_at(p) for p in range(199, 0, -1)]
        assert forward == backward[::-1]
        assert all(1 <= x <= 5 for x in forward)
        assert SeededRandomOracle(42, 5).color_at(17) == o.color_at(17)
        window = Interval(1, 64)
        assert materialize(SeededRandomOracle(43, 5), window) != materialize(o, window)
        # huge positions stay deterministic
        big = 10**40
        assert o.color_at(big) == o.color_at(big)

    def test_prefix_oracle(self):
        inner = FiniteColoring(2, Interval(1, 3), (2, 1, 2))
        o = PrefixOracle(inner, 1)
        assert [o.color_at(p) for p in range(1, 6)] == [2, 1, 2, 1, 1]
        assert o.c == 2
        with pytest.raises(DomainError, match="^default color must be >= 1, got 0$"):
            PrefixOracle(inner, 0)


class TestColoringAndMaterialize:
    def test_coloring_validation(self):
        with pytest.raises(DomainError):
            FiniteColoring(2, Interval(1, 3), (1, 2))
        with pytest.raises(DomainError):
            FiniteColoring(2, Interval(1, 3), (1, 2, 3))
        with pytest.raises(DomainError):
            FiniteColoring(2, Interval(1, 3), (0, 1, 2))

    @pytest.mark.parametrize(
        "c, colors",
        [
            (1, (True,)), (2, (1, 2)), (2, (True, 2)), (2, (1.0, 2)), (2, (1.5,)),
            (255, (255, 1)), (256, (256, 1)), (300, (300, 7)), (2.0, (1, 2)),
            (None, (1, 2)), (2, (0, 1)), (2, (3,)), (2, (-1,)), (2, (256,)),
            (2, (2**70,)), (255, (256,)), (300, (301,)), (0, (1,)), (-1, (1,)),
            (2, ("1",)),
        ],
    )
    def test_palette_check_packed_or_not(self, c, colors):
        # FiniteColoring accepts exactly the colourings that the palette
        # rule accepts, packed into bytes or not, and refuses through it
        # with its error; the cells it reads equal its colors
        def outcome(call):
            try:
                call()
            except Exception as exc:
                tb = exc.__traceback__
                while tb.tb_next is not None:
                    tb = tb.tb_next
                return type(exc), str(exc), tb.tb_frame.f_code
            return None

        domain = Interval(1, len(colors))
        expected = outcome(lambda: _check_palette(c, colors))
        assert outcome(lambda: FiniteColoring(c, domain, colors)) == expected
        if expected is None:
            col = FiniteColoring(c, domain, colors)
            assert col.colors == colors and col == FiniteColoring(c, domain, colors)
            cells = _reader(col, 1, None)(0, len(colors))
            assert list(cells) == list(colors)
            packed = c in (1, 2, 255) and all(isinstance(x, int) for x in colors)
            assert isinstance(cells, bytes) == packed

    def test_color_at_and_restrict(self):
        col = FiniteColoring(3, Interval(5, 10), (1, 2, 3, 1, 2, 3))
        assert col.color_at(7) == 3
        with pytest.raises(DomainError):
            col.color_at(4)

    def test_materialize_and_limit(self):
        col = materialize(PeriodicOracle((1, 2)), Interval(3, 8))
        assert col.colors == (1, 2, 1, 2, 1, 2)
        with pytest.raises(MaterializationLimitError):
            materialize(ConstantOracle(1), Interval(1, 100), max_cells=99)

    def test_max_cells_env(self, monkeypatch):
        monkeypatch.setenv("VDW_MAX_CELLS", "10")
        with pytest.raises(MaterializationLimitError):
            materialize(ConstantOracle(1), Interval(1, 11))
        materialize(ConstantOracle(1), Interval(1, 10))
        for raw, message in (("x", "is not an integer: 'x'"), ("0", "must be >= 1, got 0")):
            monkeypatch.setenv("VDW_MAX_CELLS", raw)
            with pytest.raises(DomainError, match=f"^VDW_MAX_CELLS {message}$"):
                materialize(ConstantOracle(1), Interval(1, 10))


class _OnlyColor(ColorOracle):
    """A user oracle that defines only _color and inherits the batch rule."""

    c = 3

    def _color(self, p):
        return 1 + (p * p + p // 7) % 3


class _Counting(ColorOracle):
    """Counts calls of both evaluation hooks."""

    c = 2

    def __init__(self):
        self.color_calls = 0
        self.colors_calls = 0

    def _color(self, p):
        self.color_calls += 1
        return 1 + p % 2

    def _colors(self, lo, hi):
        self.colors_calls += 1
        return super()._colors(lo, hi)


_COLOR = st.integers(1, 3)
_PATTERN = st.lists(_COLOR, min_size=1, max_size=6).map(tuple)
_ORACLES = st.one_of(
    st.builds(ConstantOracle, _COLOR),
    st.builds(PeriodicOracle, _PATTERN),
    st.builds(EventuallyPeriodicOracle, st.lists(_COLOR, max_size=6).map(tuple), _PATTERN),
    st.just(ThueMorseOracle()),
    st.builds(SeededRandomOracle, st.integers(-(2**70), 2**70), st.integers(1, 9)),
    st.builds(
        lambda lo, colors, default: PrefixOracle(
            FiniteColoring(3, Interval(lo, lo + len(colors) - 1), colors), default
        ),
        st.integers(1, 20),
        st.lists(_COLOR, min_size=1, max_size=8).map(tuple),
        _COLOR,
    ),
    st.just(_OnlyColor()),
)


def _boundaries(oracle):
    """Groups of nearby positions, each around a place where an oracle's batch rule changes case."""
    if isinstance(oracle, EventuallyPeriodicOracle):
        return [[len(oracle.prefix), len(oracle.prefix) + 1], [len(oracle.prefix) + 1000]]
    if isinstance(oracle, PrefixOracle):
        return [[oracle.coloring.domain.lo, oracle.coloring.domain.hi]]
    if isinstance(oracle, SeededRandomOracle):
        return [[1], [1000], [1 << 64, (1 << 64) + 1]]
    return [[1, 1000]]


# How far a window reaches past its boundary points: a few cells, or far
# enough that a window from a single point is one cell short of, exactly, one
# cell over or one cell more than twice the seeded-random lane batch.
_EXTEND = st.one_of(
    st.integers(0, 10),
    st.sampled_from([_LANE_BATCH - 2, _LANE_BATCH - 1, _LANE_BATCH, 2 * _LANE_BATCH]),
)


def _per_position(oracle, lo, hi):
    return tuple(oracle.color_at(p) for p in range(lo, hi + 1))


class TestBatchEvaluation:
    @settings(max_examples=400, derandomize=True)
    @given(oracle=_ORACLES, data=st.data())
    def test_materialize_equals_color_at(self, oracle, data):
        points = data.draw(st.sampled_from(_boundaries(oracle)))
        first = data.draw(st.sampled_from(points))
        last = data.draw(st.sampled_from([p for p in points if p >= first]))
        lo = max(1, first - data.draw(_EXTEND))
        hi = max(lo, last + data.draw(_EXTEND))
        col = materialize(oracle, Interval(lo, hi))
        assert col.colors == _per_position(oracle, lo, hi)
        assert col.c == oracle.c

    @pytest.mark.parametrize(
        "oracle, lo, hi",
        [
            (EventuallyPeriodicOracle((3, 1, 1), (1, 2)), 2, 9),
            (EventuallyPeriodicOracle((3, 1, 1), (1, 2)), 4, 4),
            (EventuallyPeriodicOracle((3, 1, 1), (1, 2)), 1, 3),
            (EventuallyPeriodicOracle((), (2, 1, 1)), 1, 7),
            (PrefixOracle(FiniteColoring(3, Interval(5, 9), (1, 2, 3, 3, 2)), 2), 1, 14),
            (PrefixOracle(FiniteColoring(3, Interval(5, 9), (1, 2, 3, 3, 2)), 2), 6, 8),
            (PrefixOracle(FiniteColoring(3, Interval(5, 9), (1, 2, 3, 3, 2)), 2), 10, 12),
            (SeededRandomOracle(-3, 4), (1 << 64) - 3, (1 << 64) + 4),
            (_OnlyColor(), 1, 30),
            (SeededRandomOracle(5, 9), 1, 2 * _LANE_BATCH + 1),
            (SeededRandomOracle(5, 7), 3, _LANE_BATCH + 2),
            (SeededRandomOracle(5, 3), 1000, 1000 + _LANE_BATCH - 2),
            (SeededRandomOracle(5, 1), 1, _LANE_BATCH),
            (SeededRandomOracle(-3, 4), (1 << 64) - _LANE_BATCH, 1 << 64),
            (SeededRandomOracle(-3, 4), (1 << 64) - _LANE_BATCH - 1, 1 << 64),
            (SeededRandomOracle(-3, 4), 1 << 64, 1 << 64),
            (EventuallyPeriodicOracle((3, 1, 2, 1), (1, 2)), 2, 3),
            (EventuallyPeriodicOracle((3, 1), (1, 2, 3)), 3, 8),
            (EventuallyPeriodicOracle((3,), (1, 2, 3, 1)), 4, 10),
            (PeriodicOracle((1, 2, 3)), 5, 12),
        ],
    )
    def test_straddling_ranges(self, oracle, lo, hi):
        assert materialize(oracle, Interval(lo, hi)).colors == _per_position(oracle, lo, hi)

    def test_seeded_random_colors_pinned(self):
        assert materialize(SeededRandomOracle(42, 5), Interval(1, 24)).colors == (
            4, 4, 5, 4, 2, 4, 2, 2, 4, 4, 5, 5, 5, 4, 5, 1, 2, 5, 3, 5, 2, 3, 5, 3,
        )
        window = Interval((1 << 64) - 3, (1 << 64) + 4)
        assert materialize(SeededRandomOracle(-3, 4), window).colors == (
            3, 3, 2, 1, 4, 2, 3, 1,
        )

    def test_seeded_random_identity_ignores_stored_key(self):
        o = SeededRandomOracle(7, 3)
        assert repr(o) == "SeededRandomOracle(seed=7, c=3)"
        assert hash(o) == hash((7, 3))
        assert o == SeededRandomOracle(7, 3)
        # seeds 7 and 7 + 2^64 share a key and colors but stay distinct oracles
        twin = SeededRandomOracle(7 + (1 << 64), 3)
        assert materialize(twin, Interval(1, 50)) == materialize(o, Interval(1, 50))
        assert twin != o and hash(twin) == hash((7 + (1 << 64), 3))

    @pytest.mark.parametrize(
        "oracle",
        [
            ConstantOracle(1),
            ConstantOracle(255),
            ConstantOracle(1, 256),
            PeriodicOracle((1, 2, 3)),
            PeriodicOracle((300, 1, 7)),
            EventuallyPeriodicOracle((3, 1), (1, 2)),
            EventuallyPeriodicOracle((255,), (1, 2), 255),
            EventuallyPeriodicOracle((256,), (1, 2)),
            ThueMorseOracle(),
            SeededRandomOracle(5, 1),
            SeededRandomOracle(5, 255),
            SeededRandomOracle(5, 256),
            SeededRandomOracle(5, 1000),
            PrefixOracle(FiniteColoring(3, Interval(5, 9), (1, 2, 3, 3, 2)), 2),
            PrefixOracle(FiniteColoring(3, Interval(5, 9), (1, 2, 3, 3, 2)), 2, 300),
            _OnlyColor(),
        ],
        ids=lambda o: "_OnlyColor" if isinstance(o, _OnlyColor) else repr(o),
    )
    def test_batches_are_bytes_exactly_for_byte_palettes(self, oracle):
        # one batch rule for every built-in oracle: bytes when c < 256, else
        # a tuple, equal to _color position by position
        for lo, hi in ((1, 1), (1, 12), (3, 2 * _LANE_BATCH + 5)):
            cells = oracle._colors(lo, hi)
            assert type(cells) is (bytes if oracle.c < 256 else tuple)
            assert tuple(cells) == _per_position(oracle, lo, hi)

    @pytest.mark.parametrize(
        "owner, oracle",
        [
            (ThueMorseOracle, ThueMorseOracle()),
            (EventuallyPeriodicOracle, EventuallyPeriodicOracle((3,), (1, 2))),
            (EventuallyPeriodicOracle, PeriodicOracle((300, 1, 7))),
            (SeededRandomOracle, SeededRandomOracle(5, 3)),
            (SeededRandomOracle, SeededRandomOracle(5, 1000)),
        ],
        ids=["thue-morse", "evperiodic", "periodic-c300", "random-c3", "random-c1000"],
    )
    def test_batches_skip_the_per_cell_rule(self, monkeypatch, owner, oracle):
        def by_cell(self, p):
            raise AssertionError(f"cell {p} read on its own")

        monkeypatch.setattr(owner, "_color", by_cell)
        assert len(oracle._colors(1, 3000)) == 3000

    @pytest.mark.parametrize(
        "oracle, lo, hi",
        [
            (ThueMorseOracle(), (1 << 256) - 4, 1 << 256),  # 2^256 - 1 has 256 set bits
            (SeededRandomOracle(-3, 4), (1 << 64) - 3, (1 << 64) + 4),  # past one word
            (SeededRandomOracle(-3, 300), (1 << 64) - 3, (1 << 64) + 4),
        ],
        ids=["thue-morse-2^256", "random-c4-2^64", "random-c300-2^64"],
    )
    def test_far_batches_keep_the_contract(self, oracle, lo, hi):
        cells = oracle._colors(lo, hi)
        assert type(cells) is (bytes if oracle.c < 256 else tuple)
        assert tuple(cells) == _per_position(oracle, lo, hi)

    @pytest.mark.parametrize(
        "oracle, lo, hi",
        [
            (PeriodicOracle((300, 1, 7)), 2, 50),
            (EventuallyPeriodicOracle((300, 2, 1), (7, 300, 1, 5), 300), 1, 40),
            (EventuallyPeriodicOracle((300, 2, 1), (7, 300, 1, 5), 300), 3, 4),
            (SeededRandomOracle(5, 1000), _LANE_BATCH - 20, _LANE_BATCH + 20),
            (SeededRandomOracle(5, 1000), 1, 2 * _LANE_BATCH + 1),
        ],
    )
    def test_wide_palettes_read_alike_on_every_path(self, oracle, lo, hi):
        # materialize, the reader (whole and in two reads across the
        # boundary) and the dense check read the same colours as _color
        want = _per_position(oracle, lo, hi)
        assert materialize(oracle, Interval(lo, hi)).colors == want
        n, cut = hi - lo + 1, (hi - lo + 1) // 2
        read = _reader(oracle, lo, None)
        assert read(0, n) == want
        assert read(0, cut) + read(cut, n) == want
        for gamma in sorted(set(want))[:3] + [max(want)]:
            w = CubeWitness(gamma, lo, (1,), (n,))
            first = next(((p, x) for p, x in enumerate(want, lo) if x != gamma), None)
            assert _first_violation(oracle, w, cube_positions(w), DEFAULT_MAX_CELLS) == first
            assert find_violation(oracle, w) == first

    def test_wide_byte_batches_are_read_as_colours(self):
        # a c >= 256 subclass whose batches are bytes passes the palette
        # check and reads like the same colours as a tuple
        class Bytes(PeriodicOracle):
            def _colors(self, lo, hi):
                return bytes(super()._colors(lo, hi))

        pattern = (1, 2, 2, 1, 2, 2, 2)
        for lo, hi in ((1, 20), (5, 2 * _LANE_BATCH)):
            want = _per_position(PeriodicOracle(pattern, 300), lo, hi)
            assert _reader(Bytes(pattern, 300), lo, None)(0, hi - lo + 1) == want
        w = CubeWitness(2, 1, (1, 3), (2, 2))  # positions 1, 2, 4, 5: colours 1, 2, 1, 2
        assert find_violation(Bytes(pattern, 300), w) == (1, 1)
        assert find_violation(Bytes(pattern, 300), CubeWitness(2, 2, (1, 3), (2, 2))) is None

    def test_periodic_identity_ignores_the_packed_copies(self):
        o = EventuallyPeriodicOracle([3, 1], [1, 2])
        assert [f.name for f in dataclasses.fields(o)] == ["prefix", "pattern", "c"]
        assert repr(o) == "EventuallyPeriodicOracle(prefix=(3, 1), pattern=(1, 2), c=3)"
        assert o == EventuallyPeriodicOracle((3, 1), (1, 2), 3)
        assert hash(o) == hash(((3, 1), (1, 2), 3))
        wide = EventuallyPeriodicOracle((3, 1), (1, 2), 300)
        assert repr(wide) == "EventuallyPeriodicOracle(prefix=(3, 1), pattern=(1, 2), c=300)"
        assert wide != o and hash(wide) == hash(((3, 1), (1, 2), 300))
        assert repr(ConstantOracle(2)) == "ConstantOracle(prefix=(), pattern=(2,), c=2)"
        assert PeriodicOracle((1, 2)) == PeriodicOracle([1, 2], 2)
        assert hash(PeriodicOracle((1, 2))) == hash(((), (1, 2), 2))

    def test_cap_refused_before_any_color(self):
        oracle = _Counting()
        with pytest.raises(MaterializationLimitError):
            materialize(oracle, Interval(1, 11), max_cells=10)
        assert (oracle.colors_calls, oracle.color_calls) == (0, 0)
        col = materialize(oracle, Interval(1, 10), max_cells=10)
        assert (oracle.colors_calls, oracle.color_calls) == (1, 10)
        assert col.colors == (2, 1) * 5
