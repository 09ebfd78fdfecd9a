import random

import pytest

from vdwitness import (
    DomainError,
    FiniteColoring,
    Interval,
    InvariantViolationError,
    PeriodicOracle,
    TowerUncomputableError,
    compress,
    cube_positions,
    extract,
    materialize,
    tower_params,
    verify_witness,
)
from vdwitness.extractor import _check_block_shift
from bruteforce import all_colorings, mono_aps


def coloring_of(text: str, c: int, lo: int = 1) -> FiniteColoring:
    colors = tuple(int(x) for x in text)
    return FiniteColoring(c, Interval(lo, lo + len(colors) - 1), colors)


class TestCompress:
    def test_identical_blocks(self):
        comp = compress(coloring_of("122122122", 2), 3, 3)
        assert comp.ids == (1, 1, 1)
        assert comp.palette_size == 1

    def test_all_pairs_equal(self):
        assert compress(coloring_of("121212", 2), 2, 3).ids == (1, 1, 1)

    def test_first_occurrence_interning(self):
        comp = compress(coloring_of("112211", 2), 2, 3)
        assert comp.ids == (1, 2, 1)
        assert comp.palette == {(1, 1): 1, (2, 2): 2}

    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            compress(coloring_of("1212", 2), 3, 2)

    def test_ids_coloring_positions(self):
        comp = compress(coloring_of("112211", 2), 2, 3)
        ids = comp.ids_coloring()
        assert ids.domain == Interval(1, 3)
        assert ids.color_at(2) == 2

    def test_palette_bound(self):
        rng = random.Random(1)
        for _ in range(100):
            nb, bs = rng.randint(1, 6), rng.randint(1, 4)
            colors = tuple(rng.randint(1, 2) for _ in range(nb * bs))
            col = FiniteColoring(2, Interval(1, nb * bs), colors)
            comp = compress(col, bs, nb)
            assert comp.palette_size <= min(nb, 2**bs)
            # equal ids demand positionwise equality
            for i in range(nb):
                for j in range(nb):
                    same = colors[i * bs : (i + 1) * bs] == colors[j * bs : (j + 1) * bs]
                    assert (comp.ids[i] == comp.ids[j]) == same


class TestExtractBase:
    def test_example_121(self):
        p = tower_params(2, 2, 1)
        w = extract(coloring_of("121", 2), Interval(1, 3), 1, p)
        assert (w.gamma, w.a, w.ds) == (1, 1, (2,))

    def test_exhaustive_three_term_base(self):
        # every 2-coloring of [1,9] yields a verified monochromatic 3-AP
        p = tower_params(3, 2, 1)
        for cl in all_colorings(9, 2):
            col = FiniteColoring(2, Interval(1, 9), cl)
            w = extract(col, Interval(1, 9), 1, p, checked=True)
            assert w.ks == (3,)
            assert verify_witness(col, w)
            assert (w.a, w.ds[0]) in mono_aps(cl, 3)


class TestExtractInductive:
    def test_periodic_example(self):
        p = tower_params(2, 2, 2)
        col = materialize(PeriodicOracle((1, 2, 2)), Interval(1, 27))
        trace: list = []
        w = extract(col, Interval(1, 3), 2, p, checked=True, trace=trace)
        assert (w.gamma, w.a, w.ds) == (2, 2, (1, 3))
        assert cube_positions(w) == (2, 3, 5, 6)
        assert trace == [
            {"stage": 2, "b1": 0, "dstar": 1, "block_size": 3, "palette_size": 1}
        ]

    def test_sampled_soundness_and_bounds(self):
        p = tower_params(2, 2, 2)
        rng = random.Random(271)
        for _ in range(2000):
            colors = tuple(rng.randint(1, 2) for _ in range(27))
            col = FiniteColoring(2, Interval(1, 27), colors)
            w = extract(col, Interval(1, 3), 2, p, checked=True)
            assert verify_witness(col, w)
            assert all(q in col.domain for q in cube_positions(w))
            assert w.ds[0] <= 3
            assert w.ds[1] <= 9 * 3

    def test_shifted_base(self):
        p = tower_params(2, 2, 2)
        col = materialize(PeriodicOracle((1, 2, 2)), Interval(28, 54))
        w = extract(col, Interval(28, 30), 2, p, checked=True)
        assert verify_witness(col, w)

    def test_deep_constant(self):
        p = tower_params(2, 1, 10)
        n = 2**10
        col = FiniteColoring(1, Interval(1, n), (1,) * n)
        w = extract(col, Interval(1, 2), 10, p, checked=True)
        assert w.ds == tuple(2**i for i in range(10))
        assert w.a == 1 and w.gamma == 1
        assert cube_positions(w) == tuple(range(1, n + 1))

    def test_preconditions(self):
        p = tower_params(2, 2, 2)
        col = coloring_of("121", 2)
        with pytest.raises(DomainError):
            extract(col, Interval(1, 3), 2, p)  # wrong domain for stage 2
        col3 = FiniteColoring(3, Interval(1, 27), (1,) * 27)
        with pytest.raises(DomainError):
            extract(col3, Interval(1, 3), 2, p)  # palette mismatch
        with pytest.raises(DomainError):
            extract(coloring_of("1" * 27, 2), Interval(2, 4), 2, p)  # base not at domain start


class TestExtractNonuniform:
    def test_single_stage_matches_uniform(self):
        p = tower_params((2,), 2, 1)
        w = extract(coloring_of("121", 2), Interval(1, 3), 1, p)
        assert (w.gamma, w.a, w.ds) == (1, 1, (2,))

    def test_constant_two_stage(self):
        p = tower_params((2, 2), 1, 2)
        col = FiniteColoring(1, Interval(1, 4), (1, 1, 1, 1))
        w = extract(col, Interval(1, 2), 2, p)
        assert (w.gamma, w.a, w.ds) == (1, 1, (1, 2))

    def test_growing_sides(self):
        # ks = (2, 3) over one color: 2-AP of blocks inside a 3-wide id row
        p = tower_params((2, 3), 1, 2)
        assert p.W == (2, 3)
        col = FiniteColoring(1, Interval(1, 6), (1,) * 6)
        w = extract(col, Interval(1, 2), 2, p, checked=True)
        assert w.ks == (2, 3)
        assert verify_witness(col, w)

    def test_uncomputable_parameters(self):
        with pytest.raises(TowerUncomputableError):
            tower_params((2, 3), 2, 2)

    def test_decreasing_sides_rejected(self):
        # extract takes its side lengths from the parameters, which refuse them
        with pytest.raises(DomainError):
            tower_params((3, 2), 1, 2)


class TestCheckedMode:
    def test_block_shift_fuzz(self):
        p = tower_params(2, 2, 2)
        rng = random.Random(9)
        for _ in range(500):
            colors = tuple(rng.randint(1, 2) for _ in range(27))
            col = FiniteColoring(2, Interval(1, 27), colors)
            extract(col, Interval(1, 3), 2, p, checked=True)

    def test_block_shift_detects_mismatch(self):
        # feed the checker blocks that are not actual copies
        col = coloring_of("111222", 2)
        with pytest.raises(InvariantViolationError):
            _check_block_shift(col, 0, 1, 3, 2)
