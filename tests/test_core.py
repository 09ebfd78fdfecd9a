import random

import pytest
from hypothesis import given, settings
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
from bruteforce import expand_cube


class TestInterval:
    def test_basics(self):
        iv = Interval(3, 7)
        assert iv.size() == 5
        assert iv.element(1) == 3
        assert iv.element(5) == 7
        assert 3 in iv and 7 in iv and 8 not in iv

    def test_invalid(self):
        with pytest.raises(DomainError):
            Interval(0, 5)
        with pytest.raises(DomainError):
            Interval(5, 4)
        with pytest.raises(DomainError):
            Interval(1, 3).element(4)
        with pytest.raises(DomainError):
            Interval(1, 3).element(0)


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
        ks = data.draw(st.lists(st.integers(2, 4), min_size=len(ds), max_size=len(ds)))
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


class TestColoringAndMaterialize:
    def test_coloring_validation(self):
        with pytest.raises(DomainError):
            FiniteColoring(2, Interval(1, 3), (1, 2))
        with pytest.raises(DomainError):
            FiniteColoring(2, Interval(1, 3), (1, 2, 3))
        with pytest.raises(DomainError):
            FiniteColoring(2, Interval(1, 3), (0, 1, 2))

    def test_color_at_and_restrict(self):
        col = FiniteColoring(3, Interval(5, 10), (1, 2, 3, 1, 2, 3))
        assert col.color_at(7) == 3
        with pytest.raises(DomainError):
            col.color_at(4)
        sub = col.restrict(Interval(7, 9))
        assert sub.colors == (3, 1, 2)
        assert sub.color_at(8) == 1
        with pytest.raises(DomainError):
            col.restrict(Interval(9, 12))

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
    st.builds(SeededRandomOracle, st.integers(-(2**70), 2**70), st.integers(1, 5)),
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
        return [[len(oracle.prefix), len(oracle.prefix) + 1]]
    if isinstance(oracle, PrefixOracle):
        return [[oracle.coloring.domain.lo, oracle.coloring.domain.hi]]
    if isinstance(oracle, SeededRandomOracle):
        return [[1], [1000], [1 << 64, (1 << 64) + 1]]
    return [[1, 1000]]


def _per_position(oracle, lo, hi):
    return tuple(oracle.color_at(p) for p in range(lo, hi + 1))


class TestBatchEvaluation:
    @settings(max_examples=400, derandomize=True)
    @given(oracle=_ORACLES, data=st.data())
    def test_materialize_equals_color_at(self, oracle, data):
        points = data.draw(st.sampled_from(_boundaries(oracle)))
        first = data.draw(st.sampled_from(points))
        last = data.draw(st.sampled_from([p for p in points if p >= first]))
        lo = max(1, first - data.draw(st.integers(0, 10)))
        hi = max(lo, last + data.draw(st.integers(0, 10)))
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

    def test_cap_refused_before_any_color(self):
        oracle = _Counting()
        with pytest.raises(MaterializationLimitError):
            materialize(oracle, Interval(1, 11), max_cells=10)
        assert (oracle.colors_calls, oracle.color_calls) == (0, 0)
        col = materialize(oracle, Interval(1, 10), max_cells=10)
        assert (oracle.colors_calls, oracle.color_calls) == (1, 10)
        assert col.colors == (2, 1) * 5
