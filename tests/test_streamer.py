import json
import random

import pytest

from vdwitness import (
    ConstantOracle,
    DomainError,
    EventuallyPeriodicOracle,
    Interval,
    PeriodicOracle,
    SeededRandomOracle,
    ThueMorseOracle,
    WindowFailureError,
    WindowWitness,
    next_window,
    run_stream,
    solve_window,
    stabilize,
    tower_params,
    verify_witness,
)
from vdwitness import streamer


class TestNextWindow:
    def test_single_color_chain(self):
        p = tower_params(2, 1, 6)
        j2 = next_window(1, Interval(1, 2), p)
        assert j2 == Interval(3, 4)
        j3 = next_window(2, j2, p)
        assert j3 == Interval(5, 8)
        j4 = next_window(3, j3, p)
        assert j4 == Interval(9, 16)

    def test_windows_are_consecutive(self):
        p = tower_params(2, 2, 3)
        window = Interval(1, 3)
        for m in range(1, 4):
            nxt = next_window(m, window, p)
            assert nxt.lo == window.hi + 1
            assert nxt.size() == p.size(m)
            window = nxt


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

    def test_bad_mode(self):
        with pytest.raises(DomainError):
            solve_window(ConstantOracle(1), Interval(1, 2), 1, "guess", ks=(2,))


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
