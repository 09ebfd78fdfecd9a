"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every stated time budget is asserted.
"""

import json
import random
import time

from vdwitness import (
    ConstantOracle,
    EventuallyPeriodicOracle,
    FiniteColoring,
    Interval,
    PeriodicOracle,
    SeededRandomOracle,
    ThueMorseOracle,
    check_translation_identity,
    cube_number,
    cube_positions,
    extract,
    run_stream,
    tower_params,
    vdw_number,
    verify_ap_free,
    verify_witness,
)
from vdwitness.cli import main as cli_main
from vdwitness.formats import write_coloring
from vdwitness.wnumbers import _avoid
from bruteforce import all_colorings, has_mono_ap, mono_aps


def _criterion(num, description, body):
    try:
        body()
    except BaseException:
        print(f"\n[FAIL] criterion {num}: {description}")
        raise
    print(f"\n[PASS] criterion {num}: {description}")


def test_criterion_1_van_der_waerden_values():
    def body():
        t0 = time.perf_counter()
        for c in range(1, 65):
            assert vdw_number(2, c).value == c + 1
        assert time.perf_counter() - t0 < 1.0
        for c in range(1, 7):
            reached, best_len, _ = _avoid((2,), c, c + 4)
            assert not reached and best_len + 1 == c + 1

        t0 = time.perf_counter()
        assert vdw_number(3, 2, use_cache=False).value == 9
        assert time.perf_counter() - t0 < 1.0

        t0 = time.perf_counter()
        assert vdw_number(3, 3, use_cache=False).value == 27
        assert time.perf_counter() - t0 < 300.0

        t0 = time.perf_counter()
        assert vdw_number(4, 2, use_cache=False).value == 35
        assert time.perf_counter() - t0 < 300.0

        # independent naive confirmation of W(3,2)
        assert any(not has_mono_ap(cl, 3) for cl in all_colorings(8, 2))
        assert all(has_mono_ap(cl, 3) for cl in all_colorings(9, 2))

    _criterion(1, "W(2,c)=c+1, W(3,2)=9, W(3,3)=27, W(4,2)=35 within budgets", body)


def test_criterion_2_certificate_soundness():
    def body():
        pairs = [(2, c) for c in range(1, 65)]
        pairs += [(k, 1) for k in range(2, 7)]
        pairs += [(3, 2), (3, 3), (4, 2)]
        for k, c in pairs:
            result = vdw_number(k, c)
            assert result.certificate.domain == Interval(1, result.value - 1)
            assert verify_ap_free(result.certificate, k)

    _criterion(2, "every emitted certificate passes the independent checker", body)


def test_criterion_3_base_case_exhaustive():
    def body():
        t0 = time.perf_counter()
        params = tower_params(3, 2, 1)
        base = Interval(1, 9)
        for cl in all_colorings(9, 2):
            col = FiniteColoring(2, base, cl)
            w = extract(col, base, 1, params, checked=True)
            assert w.ks == (3,)
            assert verify_witness(col, w)
            assert (w.a, w.ds[0]) in mono_aps(cl, 3)
        assert time.perf_counter() - t0 < 1.0

    _criterion(3, "all 512 2-colorings of [1,9] yield a verified mono 3-AP", body)


def test_criterion_4_inductive_case_sampled():
    def body():
        t0 = time.perf_counter()
        params = tower_params(2, 2, 2)
        base = Interval(1, 3)
        rng = random.Random(20240127)
        for _ in range(10**4):
            colors = tuple(rng.randint(1, 2) for _ in range(27))
            col = FiniteColoring(2, Interval(1, 27), colors)
            w = extract(col, base, 2, params, checked=True)
            assert verify_witness(col, w)
            assert w.ds[0] <= 3
            assert w.ds[1] <= 27
        assert time.perf_counter() - t0 < 30.0

    _criterion(4, "10^4 random colorings of [1,27]: extraction verifies, d1<=3, d2<=27", body)


def test_criterion_5_deep_tower():
    def body():
        t0 = time.perf_counter()
        params = tower_params(2, 1, 20)
        assert params.sizes == tuple(2**m for m in range(1, 21))
        rng = random.Random(5)
        for _ in range(100):
            lo = rng.randint(1, 10**6)
            n = rng.randint(1, 20)
            b = rng.randint(0, 10**6)
            assert check_translation_identity(Interval(lo, lo + 1), n, params, b)
        col = FiniteColoring(1, Interval(1, 2**20), (1,) * 2**20)
        w = extract(col, Interval(1, 2), 20, params, checked=True)
        assert w.ds == tuple(2**i for i in range(20))
        assert time.perf_counter() - t0 < 10.0

    _criterion(5, "twenty-stage tower: sizes 2^m, translation identity, ds=(1,2,...,2^19)", body)


def test_criterion_6_oracle_agreement():
    def body():
        assert cube_number([3], 2, 64) == vdw_number(3, 2).value == 9
        assert cube_number([4], 2, 64) == vdw_number(4, 2).value == 35

    _criterion(6, "cube numbers for 1-dimensional cubes equal W(3,2) and W(4,2)", body)


def test_criterion_7_thue_morse_stream(capsys):
    def body():
        t0 = time.perf_counter()
        code = cli_main(
            [
                "stream", "--oracle", "thue-morse", "--k", "2", "--c", "2",
                "--depth", "3", "--windows", "64", "--mode", "search",
                "--window-size", "64", "--caps", "16,16,16",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert len(report["depths"]) == 3
        assert all(d["verified"] for d in report["depths"])
        # regression baseline recorded on first run
        assert report["gamma"] == 1
        assert report["ds"] == [3, 3, 3]
        # prefix stability across depths
        for d in (1, 2):
            shallow = run_stream(
                ThueMorseOracle(), 2, 2, d, 64, "search",
                window_size=64, caps=[16] * d,
            )
            assert list(shallow.state.ds) == report["ds"][:d]
        assert time.perf_counter() - t0 < 60.0

    _criterion(7, "Thue-Morse search stream reaches depth 3 with stable prefixes", body)


def test_criterion_8_proof_mode_stream():
    def body():
        t0 = time.perf_counter()
        out = run_stream(ConstantOracle(1), 2, 1, 5, 8, "proof")
        state = out.state
        assert [w.window for w in state.witnesses[:4]] == [
            Interval(1, 2), Interval(3, 4), Interval(5, 8), Interval(9, 16),
        ]
        assert state.achieved_depth == 5
        assert state.ds == (1, 2, 4, 8, 16)
        assert all(r.verified for r in out.depths)
        assert time.perf_counter() - t0 < 1.0

    _criterion(8, "proof-mode stream walks [1,2],[3,4],[5,8],[9,16] and verifies depth 5", body)


def test_criterion_9_nonuniform_stream():
    def body():
        t0 = time.perf_counter()
        out = run_stream(
            PeriodicOracle((1, 2, 2)), [2, 2, 3], 2, 3, 16, "search",
            window_size=64, caps=[12, 12, 12],
        )
        assert out.state.achieved_depth == 3
        assert all(r.verified for r in out.depths)
        assert (out.state.gamma, out.state.ds) == (2, (1, 3, 3))
        assert time.perf_counter() - t0 < 60.0

    _criterion(9, "sides (2,2,3) over the periodic 122 oracle reach verified depth 3", body)


def test_criterion_10_property_suites(capsys, tmp_path):
    def body():
        runs = 0

        # block-shift law in checked-mode extraction
        params1 = tower_params(3, 2, 1)
        params2 = tower_params(2, 2, 2)
        rng = random.Random(99)
        for i in range(1000):
            if i % 2:
                colors = tuple(rng.randint(1, 2) for _ in range(27))
                col = FiniteColoring(2, Interval(1, 27), colors)
                w = extract(col, Interval(1, 3), 2, params2, checked=True)
            else:
                colors = tuple(rng.randint(1, 2) for _ in range(9))
                col = FiniteColoring(2, Interval(1, 9), colors)
                w = extract(col, Interval(1, 9), 1, params1, checked=True)
            assert verify_witness(col, w)
            runs += 1

        # survivor nesting and ds prefix stability across all oracle kinds
        inner = FiniteColoring(2, Interval(1, 6), (1, 1, 2, 1, 2, 2))
        oracles = [
            ConstantOracle(1, 2),
            PeriodicOracle((1, 2, 2)),
            EventuallyPeriodicOracle((2, 2), (1, 2)),
            ThueMorseOracle(),
            SeededRandomOracle(11, 2),
            __import__("vdwitness").PrefixOracle(inner, 1),
        ]
        for i in range(120):
            oracle = oracles[i % len(oracles)]
            depth = 1 + i % 3
            out = run_stream(
                oracle, 2, 2, depth, depth + 3 + i % 4, "search",
                window_size=40, caps=[10] * depth, skip_failures=True,
            )
            sets = out.state.survivor_sets
            for bigger, smaller in zip(sets, sets[1:]):
                assert set(smaller) <= set(bigger)
            assert all(r.verified for r in out.depths)
            runs += 1
            if depth > 1:
                shallower = run_stream(
                    oracle, 2, 2, depth - 1, depth + 3 + i % 4, "search",
                    window_size=40, caps=[10] * (depth - 1), skip_failures=True,
                )
                assert shallower.state.ds == out.state.ds[: shallower.state.achieved_depth]
                runs += 1

        # witness round-trip through the CLI
        rng = random.Random(7)
        for i in range(60):
            n = rng.randint(8, 24)
            colors = tuple(rng.randint(1, 2) for _ in range(n))
            col = FiniteColoring(2, Interval(1, n), colors)
            col_path = tmp_path / f"col{i}.txt"
            write_coloring(col, str(col_path))
            code = cli_main(["search", "--ks", "2", "--coloring", str(col_path)])
            out = capsys.readouterr().out
            assert code in (0, 1)
            if code == 0:
                w_path = tmp_path / f"w{i}.json"
                w_path.write_text(out)
                code = cli_main(
                    ["verify", "--witness", str(w_path), "--coloring", str(col_path)]
                )
                capsys.readouterr()
                assert code == 0
            runs += 1

        assert runs >= 1000

    _criterion(10, "nesting, prefix stability, CLI round-trip, block-shift law: no violations", body)
