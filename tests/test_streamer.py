import json
import random
import tracemalloc

import pytest

from vdwitness import (
    ConstantOracle,
    CubeWitness,
    DomainError,
    EventuallyPeriodicOracle,
    Interval,
    InvariantViolationError,
    MaterializationLimitError,
    PeriodicOracle,
    SeededRandomOracle,
    ThueMorseOracle,
    TowerUncomputableError,
    WindowFailureError,
    WindowWitness,
    find_cube,
    materialize,
    run_stream,
    solve_window,
    stabilize,
    tower_params,
    verify_witness,
)
from vdwitness import core, cubesearch, streamer
from vdwitness.cubesearch import _FIRST_STEP, _MIN_STEP


class TestNextWindow:
    def test_windows_are_consecutive(self):
        # window m + 1 starts right after window m and has p.size(m) cells
        p = tower_params(2, 2, 3)
        out = run_stream(ThueMorseOracle(), 2, 2, 3, 4, "proof")
        windows = [w.window for w in out.state.witnesses]
        assert windows[0] == Interval(1, 3)
        for m in range(1, 4):
            window, nxt = windows[m - 1], windows[m]
            assert nxt.lo == window.hi + 1
            assert nxt.size() == p.size(m)


class TestSolveWindow:
    def test_proof_mode_capped_by_window_stage(self):
        p = tower_params(2, 1, 4)
        ww = solve_window(
            ConstantOracle(1), Interval(3, 4), 2, "proof", ks=(2, 2), params=p,
        )
        assert (ww.e, ww.ls, ww.gamma) == (3, (1,), 1)

    def test_proof_mode_two_dimensional(self):
        p = tower_params(2, 1, 4)
        ww = solve_window(
            ConstantOracle(1), Interval(5, 8), 3, "proof", ks=(2, 2), params=p,
        )
        assert (ww.e, ww.ls, ww.gamma) == (5, (1, 2), 1)

    def test_proof_mode_base_is_the_first_w1_cells(self):
        # c = 2: windows 2.. are far larger than their 3-cell bases
        out = run_stream(ThueMorseOracle(), 2, 2, 3, 4, "proof")
        p = tower_params(2, 2, 3)
        assert out.state.witnesses[-1].window.size() > p.w(1)
        for w in out.state.witnesses:
            assert solve_window(
                ThueMorseOracle(), w.window, w.m, "proof", ks=(2, 2, 2), params=p
            ) == w

    def test_search_mode_thue_morse(self):
        ww = solve_window(
            ThueMorseOracle(), Interval(1, 16), 2, "search", ks=(2, 2), caps=(8, 8),
        )
        assert (ww.e, ww.ls, ww.gamma) == (1, (3, 3), 1)

    def test_search_mode_periodic(self):
        ww = solve_window(
            PeriodicOracle((1, 2)), Interval(1, 8), 2, "search", ks=(2, 2)
        )
        assert (ww.e, ww.ls, ww.gamma) == (1, (2, 2), 1)

    def test_search_mode_failure(self):
        with pytest.raises(WindowFailureError):
            solve_window(
                PeriodicOracle((1, 2)), Interval(1, 2), 1, "search", ks=(2,)
            )

    def test_search_mode_answers_as_find_cube_over_the_whole_window(self):
        # A search window is colored only as far as the search reaches, and
        # its answer is find_cube's over the materialized window, witness or
        # none: with and without caps, 1-3 dimensions, windows from 1 and
        # past it. Colors 1..5 repeated have no cube with differences at
        # most 4, so those two oracles put a capped least cube past the
        # first mask segment.
        rng = random.Random(21)
        oracles = [
            SeededRandomOracle(3, 2),
            SeededRandomOracle(8, 3),
            ThueMorseOracle(),
            PeriodicOracle((1, 2, 2, 1, 3), 3),
            EventuallyPeriodicOracle((2, 2, 1), (1, 2, 3, 3, 2)),
            EventuallyPeriodicOracle(tuple(1 + i % 5 for i in range(230)), (3,)),
            EventuallyPeriodicOracle(tuple(1 + i % 5 for i in range(470)), (1, 1, 2)),
        ]
        found = late = 0
        for i in range(280):
            oracle = oracles[i % len(oracles)]
            dim = rng.randint(1, 3)
            ks = tuple(sorted(rng.randint(2, 3) for _ in range(dim)))
            lo = rng.choice((1, rng.randint(2, 300), rng.randint(2, 10**4)))
            window = Interval(lo, lo + rng.randint(1, 600) - 1)
            caps = rng.choice((
                None,
                [rng.randint(1, 4) for _ in ks],
                [rng.randint(1, 12) for _ in ks],
                [rng.randint(1, 12) for _ in ks[1:]],  # the last dimension uncapped
            ))
            want = find_cube(materialize(oracle, window), ks, caps)
            try:
                got = solve_window(oracle, window, dim, "search", ks=ks, caps=caps)
            except WindowFailureError:
                assert want is None
            else:
                assert (got.e, got.ls, got.gamma) == (want.a, want.ds, want.gamma)
                found += 1
                late += caps is not None and len(caps) == dim and got.e - lo >= _FIRST_STEP
        assert 100 <= found <= 260 and late >= 8

    def test_search_mode_colors_a_window_up_to_its_first_segment(self):
        # The least cube of a 10^5-cell window sits at its start, so the
        # search colors reach + _FIRST_STEP cells at most under caps, and
        # its first prefix of _MIN_STEP cells without them.
        class Counting(PeriodicOracle):
            cells = 0

            def _colors(self, lo, hi):
                Counting.cells += hi - lo + 1
                return super()._colors(lo, hi)

        for ks, caps in (
            ((3,), (5,)), ((2, 2), (7, 7)), ((2, 3, 3), (4, 4, 4)), ((3,), None)
        ):
            Counting.cells = 0
            window = Interval(7, 7 + 10**5 - 1)
            ww = solve_window(Counting((1,)), window, len(ks), "search", ks=ks, caps=caps)
            assert (ww.e, ww.ls) == (7, (1,) * len(ks))
            if caps is None:
                assert 0 < Counting.cells <= _MIN_STEP
            else:
                reach = (sum(ks) - len(ks)) * max(caps)
                assert 0 < Counting.cells <= reach + _FIRST_STEP

    def test_search_mode_reads_a_pinned_number_of_cells(self):
        # 3,000 cells of 200 colours, then colour 1 forever: the least
        # (2,2)-cube under caps 128 (reach 256) is the first one of the
        # constant tail, and the segments that find it read 3,306 cells; a
        # segment bound one cell higher reads more
        class Counting(EventuallyPeriodicOracle):
            cells = 0

            def _colors(self, lo, hi):
                Counting.cells += hi - lo + 1
                return super()._colors(lo, hi)

        oracle = Counting(tuple(1 + i % 200 for i in range(3000)), (1,), 200)
        ww = solve_window(
            oracle, Interval(1, 10**4), 2, "search", ks=(2, 2), caps=(128, 128)
        )
        assert (ww.e, ww.ls) == (3001, (1, 1))
        assert Counting.cells == 3306

    def test_search_mode_refuses_a_window_over_the_cell_limit_unread(self):
        class Counting(PeriodicOracle):
            cells = 0

            def _colors(self, lo, hi):
                Counting.cells += hi - lo + 1
                return super()._colors(lo, hi)

        message = "^the interval has 1000 cells, over the materialization limit 999$"
        with pytest.raises(MaterializationLimitError, match=message):
            solve_window(
                Counting((1, 2)), Interval(5, 1004), 1, "search", ks=(2,), max_cells=999
            )
        assert Counting.cells == 0

    def test_search_mode_checks_the_palette_of_the_cells_it_reads(self):
        # Cell 30 lies inside the first mask segment of a capped search.
        class Stray(PeriodicOracle):
            def _colors(self, lo, hi):
                cells = super()._colors(lo, hi)
                return tuple(5 if p == 30 else x for p, x in enumerate(cells, lo))

        with pytest.raises(DomainError, match=r"^colors must lie in \[1, 2\]$"):
            solve_window(
                Stray((1, 2)), Interval(1, 10**4), 1, "search", ks=(2,), caps=(3,)
            )

    def test_search_mode_resolves_the_cell_limit_once(self, monkeypatch):
        # one core._limit call per window: the window check and the reader
        # share one resolved cell limit
        calls = []
        limit = core._limit

        def counting(*args):
            calls.append(args)
            return limit(*args)

        monkeypatch.delenv("VDW_MAX_CELLS", raising=False)
        monkeypatch.setattr(core, "_limit", counting)
        oracle = SeededRandomOracle(5, 2)
        for m, max_cells in enumerate((None, None, 10**6, None), start=1):
            window = Interval(64 * m - 63, 64 * m)
            solve_window(
                oracle, window, m, "search", ks=(2, 2, 2), caps=(16,) * 3,
                max_cells=max_cells,
            )
            assert len(calls) == m

    def test_bad_mode(self):
        with pytest.raises(DomainError):
            solve_window(ConstantOracle(1), Interval(1, 2), 1, "guess", ks=(2,))
        with pytest.raises(DomainError, match="^proof mode needs tower parameters$"):
            solve_window(ConstantOracle(1), Interval(1, 2), 1, "proof", ks=(2,))

    def test_refuses_a_witness_that_escapes_its_window(self, monkeypatch):
        monkeypatch.setattr(
            streamer, "_least_cube",
            lambda read, window, *args: CubeWitness(1, window.hi, (1,), (2,)),
        )
        with pytest.raises(InvariantViolationError) as excinfo:
            solve_window(ConstantOracle(1), Interval(1, 8), 1, "search", ks=(2,))
        assert str(excinfo.value) == "window 1 witness escapes [1, 8]"


def _ww(m, ls, gamma, e=1):
    hi = e + sum(ls) + 1
    return WindowWitness(m, e, tuple(ls), gamma, Interval(1, max(hi, 2)))


class TestStabilize:
    def test_all_agree(self):
        ws = [_ww(m, (1,) * m, 1) for m in range(1, 6)]
        st = stabilize(ws, 3)
        assert st.gamma == 1
        assert st.ds == (1, 1, 1)
        assert st.survivor_sets[3] == (3, 4, 5)

    def test_color_majority(self):
        ws = [_ww(m, (1,) * m, g) for m, g in enumerate((1, 2, 1, 2, 1), start=1)]
        st = stabilize(ws, 0)
        assert st.gamma == 1
        assert st.survivor_sets[0] == (1, 3, 5)

    def test_color_tie_prefers_smaller(self):
        ws = [_ww(m, (1,) * m, g) for m, g in enumerate((1, 2, 2, 1), start=1)]
        assert stabilize(ws, 0).gamma == 1

    def test_value_tie_prefers_smaller(self):
        ws = [_ww(1, (5,), 1), _ww(2, (3, 1), 1), _ww(3, (5, 1, 1), 1), _ww(4, (3, 1, 1, 1), 1)]
        st = stabilize(ws, 1)
        assert st.ds == (3,)
        assert st.survivor_sets[1] == (2, 4)

    def test_depth_limited_by_dimensions(self):
        ws = [_ww(1, (1,), 1), _ww(2, (1,), 1)]
        st = stabilize(ws, 3)
        assert st.achieved_depth == 1

    def test_sources_and_anchors(self):
        ws = [_ww(1, (2,), 1, e=10), _ww(2, (1, 4), 1, e=20), _ww(3, (1, 4, 9), 1, e=30)]
        st = stabilize(ws, 3)
        assert st.ds == (1, 4, 9)
        assert st.sources == (2, 2, 3)
        assert st.anchors == (20, 20, 30)

    def test_survivors_filtered_by_color_first(self):
        ws = [_ww(1, (7,), 2), _ww(2, (1, 1), 1), _ww(3, (1, 1, 1), 1)]
        st = stabilize(ws, 1)
        assert st.gamma == 1
        assert st.ds == (1,)
        assert st.survivor_sets[0] == (2, 3)

    def test_validation(self):
        with pytest.raises(DomainError):
            stabilize([], 1)
        with pytest.raises(DomainError):
            stabilize([_ww(1, (1,), 1), _ww(1, (2,), 1)], 1)
        with pytest.raises(DomainError, match="^depth must be >= 0, got -1$"):
            stabilize([_ww(1, (1,), 1)], -1)


class TestRunStreamProof:
    def test_constant_single_color(self):
        out = run_stream(ConstantOracle(1), 2, 1, 5, 8, "proof")
        st = out.state
        assert st.gamma == 1
        assert st.ds == (1, 2, 4, 8, 16)
        assert st.achieved_depth == 5
        assert all(r.verified for r in out.depths)
        assert [w.window for w in st.witnesses[:4]] == [
            Interval(1, 2), Interval(3, 4), Interval(5, 8), Interval(9, 16),
        ]

    def test_proof_mode_two_colors_shallow(self):
        out = run_stream(ThueMorseOracle(), 2, 2, 2, 4, "proof")
        assert out.state.achieved_depth >= 1
        assert all(r.verified for r in out.depths)

    def test_goes_through_the_public_entry_points(self, monkeypatch):
        # one extract per proof window and one cube_positions per achieved
        # depth, each under the stream's own cell limit
        limits = {"extract": [], "cube_positions": []}

        def counting(name):
            real = getattr(streamer, name)

            def wrapper(*args, **kwargs):
                limits[name].append(kwargs.get("max_cells"))
                return real(*args, **kwargs)

            return wrapper

        for name in limits:
            monkeypatch.setattr(streamer, name, counting(name))
        out = run_stream(ThueMorseOracle(), 2, 2, 2, 4, "proof", max_cells=10**5)
        assert out.state.achieved_depth == 2
        assert limits == {"extract": [10**5] * 4, "cube_positions": [10**5] * 2}

    def test_the_proof_schedule_has_one_owner(self, monkeypatch):
        # window sizes, dimensions and the tower's depth all follow
        # _proof_stage, so a site with its own copy of the rule fails here
        def schedule():
            out = run_stream(ConstantOracle(1), 2, 1, 2, 3, "proof")
            return [(w.window, w.dim) for w in out.state.witnesses]

        assert schedule() == [
            (Interval(1, 2), 1), (Interval(3, 4), 1), (Interval(5, 8), 2),
        ]
        monkeypatch.setattr(streamer, "_proof_stage", lambda m: m)
        assert schedule() == [
            (Interval(1, 2), 1), (Interval(3, 6), 2), (Interval(7, 14), 2),
        ]

    @pytest.mark.parametrize(
        "args, kwargs, max_cells",
        [
            ((ConstantOracle(1), 2, 1, 5, 8, "proof"), {}, None),
            ((ConstantOracle(1), 2, 1, 5, 8, "proof"), {}, 10**5),
            ((ThueMorseOracle(), 2, 2, 3, 4, "proof"), {}, None),
            (
                (SeededRandomOracle(3, 3), 3, 3, 3, 6, "search"),
                {"window_size": 1024, "caps": [64] * 3},
                None,
            ),
        ],
        ids=["constant", "constant-max-cells", "thue-morse", "random-search"],
    )
    def test_depths_resolve_the_cell_limit_once(
        self, monkeypatch, args, kwargs, max_cells
    ):
        # the stream resolves the cell limit once, before its first window;
        # each depth's cube_positions gets the resolved value and its check
        # needs no call of its own
        calls, marks = [], []
        limit, real_stabilize = core._limit, streamer.stabilize

        def counting(*limit_args):
            calls.append(limit_args[0])
            return limit(*limit_args)

        def marking(*stabilize_args):
            marks.append(len(calls))
            return real_stabilize(*stabilize_args)

        monkeypatch.delenv("VDW_MAX_CELLS", raising=False)
        monkeypatch.setattr(core, "_limit", counting)
        monkeypatch.setattr(streamer, "stabilize", marking)
        out = run_stream(*args, **kwargs, max_cells=max_cells)
        resolved = max_cells or core.DEFAULT_MAX_CELLS
        assert calls[0] == max_cells
        assert calls[1:] == [resolved] * (len(calls) - 1)
        assert calls[marks[0] :] == [resolved] * out.state.achieved_depth
        assert out.state.achieved_depth == args[3]

    def test_each_dense_depth_is_verified_in_one_batch(self, monkeypatch):
        # every depth of a one-colour proof stream is a dense cube (ds 1, 2,
        # 4, ...), so its final check reads one batch and no single position
        class Counting(ConstantOracle):
            batches = singles = 0

            def color_at(self, p):
                Counting.singles += 1
                return super().color_at(p)

            def _colors(self, lo, hi):
                Counting.batches += 1
                return super()._colors(lo, hi)

        reads = []
        real = streamer._first_violation

        def recording(*args):
            before = (Counting.batches, Counting.singles)
            result = real(*args)
            reads.append((Counting.batches - before[0], Counting.singles - before[1]))
            return result

        monkeypatch.setattr(streamer, "_first_violation", recording)
        out = run_stream(Counting(1), 2, 1, 10, 11, "proof")
        assert [len(r.positions) for r in out.depths] == [2**t for t in range(1, 11)]
        assert all(r.verified for r in out.depths)
        assert reads == [(1, 0)] * 10

    def test_reads_only_the_scanned_blocks(self):
        # window 3 is a stage-2 tower of 6^7 + 1 blocks of 7 cells
        class Counting(PeriodicOracle):
            cells = 0

            def _color(self, p):
                Counting.cells += 1
                return super()._color(p)

            def _colors(self, lo, hi):
                Counting.cells += hi - lo + 1
                return super()._colors(lo, hi)

        out = run_stream(Counting((3, 1, 4, 1, 5, 2, 6, 5, 3), 6), 2, 6, 2, 3, "proof")
        assert out.state.witnesses[-1].window.size() == 7 * (6**7 + 1)
        assert all(r.verified for r in out.depths)
        assert Counting.cells < 1000

    def test_a_refused_random_proof_stream_stays_small(self):
        # the stage-3 extraction of window 4 reads about 2^20 cells of
        # mostly distinct blocks before the cell limit refuses it; the
        # blocks it holds are its only large allocation
        tracemalloc.start()
        try:
            with pytest.raises(MaterializationLimitError):
                run_stream(SeededRandomOracle(7, 2), 2, 2, 3, 4, "proof", max_cells=2**20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3_200_000

    def test_nested_survivors(self):
        out = run_stream(ConstantOracle(1), 2, 1, 4, 8, "proof")
        sets = out.state.survivor_sets
        for bigger, smaller in zip(sets, sets[1:]):
            assert set(smaller) <= set(bigger)

    def test_nonuniform_sides_proof_mode(self):
        # stages past the requested depth reuse the last side length
        out = run_stream(ConstantOracle(1), [2, 3], 1, 2, 5, "proof")
        st = out.state
        assert st.achieved_depth == 2
        assert all(r.verified for r in out.depths)
        assert all(w.window.size() in (2, 6, 18, 54) for w in st.witnesses[1:])


class TestRunStreamSearch:
    def test_thue_morse_baseline(self):
        out = run_stream(
            ThueMorseOracle(), 2, 2, 3, 64, "search", window_size=64, caps=[16, 16, 16]
        )
        st = out.state
        assert st.achieved_depth == 3
        assert (st.gamma, st.ds) == (1, (3, 3, 3))
        assert all(r.verified for r in out.depths)
        assert out.conforming

    def test_periodic_baseline(self):
        out = run_stream(
            PeriodicOracle((1, 2, 2)), 2, 2, 2, 16, "search", window_size=32, caps=[8, 8]
        )
        st = out.state
        assert (st.gamma, st.ds) == (2, (1, 3))
        assert all(r.verified for r in out.depths)

    def test_prefix_stability_across_depths(self):
        runs = [
            run_stream(
                ThueMorseOracle(), 2, 2, d, 32, "search",
                window_size=64, caps=[16] * d,
            ).state.ds
            for d in (1, 2, 3)
        ]
        assert runs[0] == runs[1][:1]
        assert runs[1] == runs[2][:2]

    def test_pigeonhole_depth_guarantee(self):
        # one color and caps forcing a single difference value: the achieved
        # depth equals the request for every window count >= depth
        for n in (1, 2, 3, 4):
            for m_count in (n, n + 3):
                out = run_stream(
                    ConstantOracle(1), 2, 1, n, m_count, "search",
                    window_size=8, caps=[1] * n,
                )
                assert out.state.achieved_depth == n
                assert out.state.ds == (1,) * n

    def test_a_bad_cell_limit_is_read_after_the_tower(self, monkeypatch):
        # an uncomputable tower is reported before the cell limit is read
        monkeypatch.setenv("VDW_MAX_CELLS", "bogus")
        with pytest.raises(TowerUncomputableError):
            run_stream(ThueMorseOracle(), 3, 2, 2, 3, "proof")
        with pytest.raises(DomainError, match="^VDW_MAX_CELLS is not an integer"):
            run_stream(ThueMorseOracle(), 2, 2, 2, 3, "proof")
        with pytest.raises(DomainError, match="^VDW_MAX_CELLS is not an integer"):
            run_stream(ThueMorseOracle(), 2, 2, 2, 3, "search", window_size=8)

    @pytest.mark.parametrize(
        "oracle, k, c, depth, windows, size, caps, ds, work",
        [
            (SeededRandomOracle(3, 3), 3, 3, 3, 20, 1024, [64] * 3, (17, 17, 17), (142, 38880)),
            (ThueMorseOracle(), 2, 2, 3, 64, 64, [16] * 3, (3, 3, 3), (64, 4080)),
            (SeededRandomOracle(7, 2), 3, 2, 2, 20, 256, None, (3, 3), (56, 9728)),
        ],
        ids=["random:3 caps 64", "thue-morse caps 16", "random:7 uncapped"],
    )
    def test_search_streams_mask_a_pinned_number_of_cells(
        self, monkeypatch, oracle, k, c, depth, windows, size, caps, ds, work
    ):
        # the stride masks that the CI search streams build, and the cells
        # they cover: a mask built twice in one segment, or over more cells
        # than its segment or prefix holds, moves these counts
        made = [0, 0]
        stride_mask = cubesearch._stride_mask

        def counting(cells, gamma, j, r):
            made[0] += 1
            made[1] += len(range(r, len(cells), j))
            return stride_mask(cells, gamma, j, r)

        monkeypatch.setattr(cubesearch, "_stride_mask", counting)
        out = run_stream(oracle, k, c, depth, windows, "search", window_size=size, caps=caps)
        assert out.state.ds == ds
        assert tuple(made) == work

    def test_window_failure_aborts(self):
        with pytest.raises(WindowFailureError):
            run_stream(PeriodicOracle((1, 2)), 2, 2, 1, 3, "search", window_size=2)

    def test_skip_failures_marks_nonconforming(self):
        oracle = EventuallyPeriodicOracle((1, 1), (1, 2))
        out = run_stream(
            oracle, 2, 2, 1, 3, "search", window_size=2, skip_failures=True
        )
        assert not out.conforming
        assert out.skipped == (2, 3)
        assert out.state.achieved_depth == 1
        assert out.report()["conforming"] is False

    def test_nonuniform_sides(self):
        out = run_stream(
            PeriodicOracle((1, 2, 2)), [2, 2, 3], 2, 3, 16, "search",
            window_size=64, caps=[12, 12, 12],
        )
        st = out.state
        assert st.achieved_depth == 3
        assert (st.gamma, st.ds) == (2, (1, 3, 3))
        assert all(r.verified for r in out.depths)

    def test_side_lengths_nondecreasing_before_any_read(self):
        class Counting(SeededRandomOracle):
            cells = 0

            def _colors(self, lo, hi):
                Counting.cells += hi - lo + 1
                return super()._colors(lo, hi)

        for ks, message in (([3, 2], "nondecreasing"), ([2, 1], ">= 2, got 1")):
            with pytest.raises(DomainError, match=message):
                run_stream(Counting(1, 2), ks, 2, 2, 4, "search", window_size=64)
        assert Counting.cells == 0

    def test_validation(self):
        with pytest.raises(DomainError):
            run_stream(ConstantOracle(1), 2, 1, 3, 2, "search", window_size=8)
        with pytest.raises(DomainError):
            run_stream(ConstantOracle(1), 2, 1, 1, 1, "search")
        with pytest.raises(DomainError):
            run_stream(ConstantOracle(1), 2, 2, 1, 1, "search", window_size=8)
        with pytest.raises(DomainError):
            run_stream(ConstantOracle(1), [2, 2], 1, 1, 1, "search", window_size=8)
        with pytest.raises(DomainError):
            run_stream(ConstantOracle(1), 2, 1, 1, 1, "nope", window_size=8)
        with pytest.raises(DomainError, match="^depth must be >= 1, got 0$"):
            run_stream(ConstantOracle(1), 2, 1, 0, 1, "search", window_size=8)


class TestStreamProperties:
    def test_fuzz_nesting_and_verification(self):
        rng = random.Random(2024)
        oracles = [
            ConstantOracle(1, 2),
            PeriodicOracle((1, 2, 2)),
            PeriodicOracle((2, 1)),
            EventuallyPeriodicOracle((2, 2, 2), (1, 2)),
            ThueMorseOracle(),
            SeededRandomOracle(5, 2),
        ]
        for i in range(60):
            oracle = oracles[i % len(oracles)]
            depth = rng.randint(1, 3)
            windows = rng.randint(depth, depth + 4)
            out = run_stream(
                oracle, 2, 2, depth, windows, "search",
                window_size=32, caps=[8] * depth, skip_failures=True,
            )
            st = out.state
            sets = st.survivor_sets
            for bigger, smaller in zip(sets, sets[1:]):
                assert set(smaller) <= set(bigger)
            by_m = {w.m: w for w in st.witnesses}
            for t in range(1, st.achieved_depth + 1):
                for m in sets[t]:
                    assert by_m[m].gamma == st.gamma
                    assert by_m[m].ls[t - 1] == st.ds[t - 1]
            assert all(r.verified for r in out.depths)

    def test_report_shape_and_json(self):
        out = run_stream(ConstantOracle(1), 2, 1, 2, 4, "proof")
        report = out.report()
        assert list(report) == [
            "mode", "gamma", "ds", "depths", "survivor_sizes", "windows", "conforming",
        ]
        assert report["windows"] == 4
        parsed = json.loads(json.dumps(report))
        assert parsed["depths"][0]["verified"] is True
        assert parsed["depths"][0]["n"] == 1

    def test_depth_records_match_witness_checks(self):
        out = run_stream(ThueMorseOracle(), 2, 2, 2, 16, "search", window_size=32)
        for record in out.depths:
            from vdwitness import CubeWitness

            w = CubeWitness(out.state.gamma, record.a, out.state.ds[: record.n], (2,) * record.n)
            assert verify_witness(ThueMorseOracle(), w) == record.verified
