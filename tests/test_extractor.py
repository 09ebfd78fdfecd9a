import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdwitness import (
    ColorOracle,
    ConstantOracle,
    DomainError,
    FiniteColoring,
    Interval,
    InvariantViolationError,
    MaterializationLimitError,
    PeriodicOracle,
    PrefixOracle,
    ThueMorseOracle,
    TowerUncomputableError,
    cube_positions,
    extract,
    materialize,
    tower_params,
    verify_witness,
)
from vdwitness import extractor
from vdwitness.extractor import _Stage, _check_block_shift
from vdwitness.wnumbers import _least_ap
from bruteforce import all_colorings, dense_extract, mono_aps, scan_index, scan_least_ap


def coloring_of(text: str, c: int, lo: int = 1) -> FiniteColoring:
    colors = tuple(int(x) for x in text)
    return FiniteColoring(c, Interval(lo, lo + len(colors) - 1), colors)


def _agrees_with_dense(c: int, ks, colors, lo: int = 1) -> list:
    """Run extract on a finite coloring and on an oracle with the same colors,
    lazily and with a trace, checked and not; every run must equal the dense
    reference, trace records included. Returns the reference trace."""
    params = tower_params(ks, c, len(ks))
    base = Interval(lo, lo + params.w(1) - 1)
    gamma, a, ds, trace = dense_extract(colors, lo, ks, params.W)
    col = FiniteColoring(c, Interval(lo, lo + len(colors) - 1), colors)
    for source in (col, PrefixOracle(col, 1, c)):
        for checked in (False, True):
            w = extract(source, base, len(ks), params, checked=checked)
            assert (w.gamma, w.a, w.ds, w.ks) == (gamma, a, ds, tuple(ks))
            got: list = []
            w = extract(source, base, len(ks), params, checked=checked, trace=got)
            assert (w.gamma, w.a, w.ds) == (gamma, a, ds)
            assert got == trace
    return trace


# (c, ks) of every tower of at most 5125 cells whose parameters resolve fast.
SMALL_TOWERS = [
    (1, (2,)), (1, (3,)), (1, (2, 3)), (1, (2, 2, 2)), (1, (2, 3, 4)), (1, (3, 3, 3)),
    (2, (2,)), (2, (3,)), (2, (4,)), (2, (2, 2)),
    (3, (2,)), (3, (3,)), (3, (2, 2)),
    (4, (2,)), (4, (2, 2)),
]


class TestLazyScan:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        shape=st.sampled_from(SMALL_TOWERS),
        style=st.sampled_from(["uniform", "periodic", "sparse"]),
        seed=st.integers(0, 2**32),
        lo=st.integers(1, 40),
    )
    def test_matches_dense_reference(self, shape, style, seed, lo):
        c, ks = shape
        size = tower_params(ks, c, len(ks)).size(len(ks))
        rng = random.Random(seed)
        if style == "uniform":
            colors = [rng.randint(1, c) for _ in range(size)]
        elif style == "periodic":
            pattern = [rng.randint(1, c) for _ in range(rng.randint(1, 12))]
            colors = [pattern[i % len(pattern)] for i in range(size)]
        else:
            colors = [1] * size
            for _ in range(rng.randint(0, 4)):
                colors[rng.randrange(size)] = rng.randint(1, c)
        _agrees_with_dense(c, ks, tuple(colors), lo)

    def test_reads_stop_at_the_least_progression(self):
        # stage 2 of a c=4 tower has 1025 blocks of 5 cells; the least pair of
        # equal blocks is blocks 0 and 1
        class Counting(PeriodicOracle):
            cells = 0

            def _colors(self, lo, hi):
                Counting.cells += hi - lo + 1
                return super()._colors(lo, hi)

        p = tower_params(2, 4, 2)
        w = extract(Counting((1, 2, 3, 4, 1), 4), Interval(1, 5), 2, p)
        assert (w.gamma, w.a, w.ds) == (1, 1, (4, 5))
        assert Counting.cells == 10

    def test_an_in_order_scan_reads_in_doubling_batches(self):
        # block b < 1024 of the c=4 stage-2 tower spells b in base 4, so block
        # 0 first recurs at block 1024 and the scan reads all 1025 blocks in
        # order: once each, in 12 batches rather than 1025 reads
        colors = tuple(1 + (b >> 2 * i) % 4 for b in range(1025) for i in range(5))
        col = FiniteColoring(4, Interval(1, len(colors)), colors)

        class Counting(PrefixOracle):
            calls = cells = 0

            def _colors(self, lo, hi):
                Counting.calls += 1
                Counting.cells += hi - lo + 1
                return super()._colors(lo, hi)

        p = tower_params(2, 4, 2)
        w = extract(Counting(col, 1, 4), Interval(1, 5), 2, p)
        assert (w.a, w.ds) == (1, (1, 1024 * 5))
        assert (Counting.calls, Counting.cells) == (12, len(colors))

    def test_read_ahead_stops_at_a_block_already_read(self):
        reads = []
        cells = tuple(range(1, 11))

        def read(i, j):
            reads.append((i, j))
            return cells[i:j]

        stage = _Stage(read, 1, 10)
        assert [stage[b] for b in (5, 0, 1, 2, 4, 5, 6)] == [1, 2, 3, 4, 6, 1, 7]
        assert reads == [(5, 6), (0, 1), (1, 2), (2, 4), (4, 5), (6, 10)]

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        count=st.integers(1, 300),
        size=st.integers(1, 3),
        k=st.integers(2, 5),
        palette=st.floats(0, 1),
        distinct_but_one=st.booleans(),
        batch=st.sampled_from([4, extractor._BATCH_CELLS]),
        seed=st.integers(0, 2**32),
    )
    def test_index_reads_like_an_element_by_element_scan(
        self, count, size, k, palette, distinct_but_one, batch, seed
    ):
        # The jumping scan and the element-by-element reference, each on its
        # own lazy stage, find the same progression with the same reads: the
        # same blocks, in the same order and batches. So do index and a
        # one-by-one lookup from a start past the blocks read so far.
        rng = random.Random(seed)
        if distinct_but_one:
            ids = list(range(1, count + 1))
            if count > 1:
                i, j = sorted(rng.sample(range(count), 2))
                ids[j] = ids[i]
        else:
            ids = [rng.randint(1, 1 + int(palette * (count - 1))) for _ in range(count)]
        cells = tuple(x for b in ids for x in (b,) * size)
        early = rng.sample(range(count), min(count, rng.randint(0, 3)))
        value, start = rng.choice(ids), rng.randrange(count)
        stop = rng.randint(start, count)

        def run(scan, find):
            reads = []

            def read(i, j):
                reads.append((i, j))
                return cells[i:j]

            stage = _Stage(read, size, count)
            with mock.patch.object(extractor, "_BATCH_CELLS", batch):
                hit = scan(stage, count, k)
                fresh = _Stage(read, size, count)
                for b in early:
                    fresh[b]
                try:
                    found = find(fresh, value, start, stop)
                except ValueError:
                    found = None
            return hit, found, reads, dict(stage), dict(fresh)

        got = run(_least_ap, lambda s, *args: s.index(*args))
        assert got == run(scan_least_ap, scan_index)
        naive = mono_aps(ids, k)
        assert got[0] == (None if not naive else (min(naive)[0] - 1, min(naive)[1]))

    def test_oracle_colors_outside_the_palette(self):
        # block 1 holds a 3; the scan reads it but selects blocks 0 and 2
        colors = (1, 2, 2, 3, 1, 1, 1, 2, 2) + (1,) * 18

        class Bad(ColorOracle):
            c = 2

            def _color(self, p):
                return colors[p - 1]

        with pytest.raises(DomainError, match=r"colors must lie in \[1, 2\]"):
            extract(Bad(), Interval(1, 3), 2, tower_params(2, 2, 2))

    def test_oracle_value_error_propagates(self):
        # blocks 0-7 of the c=2 stage-2 tower are the eight distinct 3-cell
        # patterns, so the scan from block 0 reads block 8, whose cells raise
        # a bare ValueError; it must not pass for "no such block"
        failure = ValueError("no colors past cell 24")

        class Failing(ColorOracle):
            c = 2

            def _color(self, p):
                if p > 24:
                    raise failure
                return 1 + ((p - 1) // 3 >> (2 - (p - 1) % 3) & 1)

        with pytest.raises(ValueError) as info:
            extract(Failing(), Interval(1, 3), 2, tower_params(2, 2, 2))
        assert info.value is failure

    def test_oracle_reads_are_capped(self, monkeypatch):
        p = tower_params(2, 1, 4)
        monkeypatch.setenv("VDW_MAX_CELLS", "16")
        extract(ConstantOracle(1), Interval(1, 2), 4, p)  # reads all 16 cells
        monkeypatch.setenv("VDW_MAX_CELLS", "15")
        with pytest.raises(MaterializationLimitError):
            extract(ConstantOracle(1), Interval(1, 2), 4, p)

    def test_checked_re_reads_are_capped(self):
        # unchecked reads 12 cells; the check re-reads the two selected 3-cell blocks
        p = tower_params(2, 2, 2)
        w = extract(ThueMorseOracle(), Interval(1, 3), 2, p, max_cells=12)
        assert (w.a, w.ds) == (2, (1, 6))
        with pytest.raises(MaterializationLimitError):
            extract(ThueMorseOracle(), Interval(1, 3), 2, p, max_cells=11)
        with pytest.raises(MaterializationLimitError):
            extract(ThueMorseOracle(), Interval(1, 3), 2, p, checked=True, max_cells=17)
        w = extract(ThueMorseOracle(), Interval(1, 3), 2, p, checked=True, max_cells=18)
        assert (w.a, w.ds) == (2, (1, 6))


class TestCompress:
    """Block compression, the interning step of extract, through the dense
    reference comparison."""

    def test_identical_blocks(self):
        trace = _agrees_with_dense(2, (2, 2), tuple(int(x) for x in "122" * 9))
        assert trace == [{"stage": 2, "b1": 0, "dstar": 1, "block_size": 3, "palette_size": 1}]

    def test_all_pairs_equal(self):
        # period 4 in 4-cell blocks: all 82 blocks of the c=3 tower agree
        trace = _agrees_with_dense(3, (2, 2), (1, 2, 3, 3) * 82)
        assert trace[0]["palette_size"] == 1

    def test_first_occurrence_interning(self):
        # blocks 112, 221, 112, ...: ids 1, 2, 1 give the least step 2
        colors = tuple(int(x) for x in "112221" * 4 + "112")
        trace = _agrees_with_dense(2, (2, 2), colors)
        assert trace == [{"stage": 2, "b1": 0, "dstar": 2, "block_size": 3, "palette_size": 2}]

    def test_size_mismatch(self):
        p = tower_params(2, 2, 2)
        with pytest.raises(DomainError):
            extract(coloring_of("12" * 13, 2), Interval(1, 3), 2, p)
        with pytest.raises(ValueError):
            dense_extract((1, 2) * 13, 1, (2, 2), p.W)

    def test_ids_coloring_positions(self):
        # blocks 0..7 are the eight 3-cell patterns and block 8 repeats block
        # 1, so the progression starts at block index 1 (position 4)
        blocks = ["111", "112", "121", "122", "211", "212", "221", "222", "112"]
        trace = _agrees_with_dense(2, (2, 2), tuple(int(x) for x in "".join(blocks)), lo=5)
        assert trace == [{"stage": 2, "b1": 1, "dstar": 7, "block_size": 3, "palette_size": 8}]

    def test_palette_bound(self):
        rng = random.Random(1)
        for _ in range(100):
            colors = tuple(rng.randint(1, 2) for _ in range(27))
            trace = _agrees_with_dense(2, (2, 2), colors)
            distinct = len({colors[i : i + 3] for i in range(0, 27, 3)})
            assert trace[0]["palette_size"] == distinct <= min(9, 2**3)


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
        colors = coloring_of("111222", 2).colors
        with pytest.raises(InvariantViolationError):
            _check_block_shift(lambda i, j: colors[i:j], 0, 1, 3, 2, colors[:3])
