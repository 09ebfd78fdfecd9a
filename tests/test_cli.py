import errno
import io
import json
import os
import random
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdwitness import Interval, ThueMorseOracle, run_stream
from vdwitness.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_json(out: str) -> dict:
    return json.loads(out)


class TestWnumber:
    def test_w32_exact_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "wnumber", "--k", "3", "--c", "2")
        assert code == 0
        assert out == '{"k":3,"c":2,"value":9,"certificate":"11221122"}\n'

    def test_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "wnumber", "--k", "2", "--c", "5")
        assert code == 0
        assert out_json(out)["value"] == 6

    def test_determinism(self, capsys):
        _, first, _ = run_cli(capsys, "wnumber", "--k", "3", "--c", "2")
        _, second, _ = run_cli(capsys, "wnumber", "--k", "3", "--c", "2")
        assert first == second

    def test_limit_exceeded(self, capsys):
        code, out, _ = run_cli(capsys, "wnumber", "--k", "3", "--c", "2", "--limit", "5")
        assert code == 3
        data = out_json(out)
        assert data["error"] == "search limit exceeded"
        assert data["limit"] == 5


class TestTower:
    def test_report(self, capsys):
        code, out, _ = run_cli(capsys, "tower", "--k", "2", "--c", "2", "--n", "2")
        assert code == 0
        assert out == '{"k":2,"c":2,"n":2,"W":["3","9"],"C":["8"],"sizes":["3","27"]}\n'

    def test_start_adds_interval(self, capsys):
        code, out, _ = run_cli(
            capsys, "tower", "--k", "2", "--c", "2", "--n", "2", "--start", "6"
        )
        assert code == 0
        assert out_json(out)["interval"] == ["6", "32"]

    def test_uncomputable(self, capsys):
        code, out, _ = run_cli(capsys, "tower", "--k", "3", "--c", "2", "--n", "2")
        assert code == 3
        assert out_json(out) == {"error": "tower uncomputable", "stage": 2}

    @pytest.mark.parametrize(
        "c, n, name",
        [
            pytest.param("5", "3", "W_3", id="c5-n3"),
            pytest.param("1", "16000", "the stage-14285 size", id="c1-n16000"),
        ],
    )
    def test_too_many_digits(self, capsys, c, n, name):
        code, out, err = run_cli(capsys, "tower", "--k", "2", "--c", c, "--n", n)
        assert (code, out, err) == (3, "", f"{name} has more than 4300 decimal digits\n")


@pytest.fixture
def coloring_122(tmp_path):
    path = tmp_path / "col.txt"
    body = " ".join(("1", "2", "2") * 9)
    path.write_text(f"c=2 lo=1 hi=27\n{body}\n")
    return str(path)


class TestExtractSearchVerify:
    def test_extract(self, capsys, coloring_122):
        code, out, _ = run_cli(
            capsys, "extract", "--k", "2", "--c", "2", "--n", "2",
            "--coloring", coloring_122,
        )
        assert code == 0
        data = out_json(out)
        assert data["gamma"] == 2 and data["a"] == 2
        assert data["ds"] == [1, 3] and data["positions"] == [2, 3, 5, 6]
        assert "trace" not in data

    def test_extract_trace(self, capsys, coloring_122):
        code, out, _ = run_cli(
            capsys, "extract", "--k", "2", "--c", "2", "--n", "2",
            "--coloring", coloring_122, "--trace",
        )
        assert code == 0
        assert out_json(out)["trace"] == [
            {"stage": 2, "b1": 0, "dstar": 1, "block_size": 3, "palette_size": 1}
        ]

    def test_extract_trace_counts_distinct_patterns_exact_bytes(self, capsys, tmp_path):
        # a seeded 3-colour stage-2 tower: 82 blocks of 4 cells, 52 patterns
        path = tmp_path / "random.txt"
        rng = random.Random(35)
        colors = [rng.randint(1, 3) for _ in range(328)]
        path.write_text("c=3 lo=1 hi=328\n" + " ".join(map(str, colors)) + "\n")
        code, out, _ = run_cli(
            capsys, "extract", "--k", "2", "--c", "3", "--n", "2",
            "--coloring", str(path), "--trace",
        )
        assert code == 0
        assert out == (
            '{"gamma":3,"a":1,"ds":[3,208],"ks":[2,2],"positions":[1,4,209,212],'
            '"trace":[{"stage":2,"b1":0,"dstar":52,"block_size":4,"palette_size":52}]}\n'
        )

    def test_extract_nonuniform_sides(self, capsys, tmp_path):
        path = tmp_path / "six.txt"
        path.write_text("c=1 lo=1 hi=6\n1 1 1 1 1 1\n")
        code, out, _ = run_cli(
            capsys, "extract", "--ks", "2,3", "--c", "1", "--n", "2",
            "--coloring", str(path),
        )
        assert code == 0
        data = out_json(out)
        assert data["ks"] == [2, 3]
        assert data["gamma"] == 1

    def test_extract_ks_length_mismatch(self, capsys, tmp_path):
        path = tmp_path / "six.txt"
        path.write_text("c=1 lo=1 hi=6\n1 1 1 1 1 1\n")
        code, _, _ = run_cli(
            capsys, "extract", "--ks", "2,3,3", "--c", "1", "--n", "2",
            "--coloring", str(path),
        )
        assert code == 2

    def test_extract_palette_mismatch(self, capsys, coloring_122):
        code, _, err = run_cli(
            capsys, "extract", "--k", "2", "--c", "3", "--n", "2",
            "--coloring", coloring_122,
        )
        assert code == 2
        assert err.strip()

    def test_extract_verify_roundtrip(self, capsys, tmp_path, coloring_122):
        _, out, _ = run_cli(
            capsys, "extract", "--k", "2", "--c", "2", "--n", "2",
            "--coloring", coloring_122,
        )
        witness_path = tmp_path / "w.json"
        witness_path.write_text(out)
        code, out, _ = run_cli(
            capsys, "verify", "--witness", str(witness_path),
            "--coloring", coloring_122,
        )
        assert code == 0
        assert out_json(out) == {"verified": True}

    def test_search_found_and_verify_against_oracle(self, capsys, tmp_path, coloring_122):
        code, out, _ = run_cli(
            capsys, "search", "--ks", "2,2", "--coloring", coloring_122
        )
        assert code == 0
        witness_path = tmp_path / "w.json"
        witness_path.write_text(out)
        code, out, _ = run_cli(
            capsys, "verify", "--witness", str(witness_path),
            "--oracle", "periodic:122",
        )
        assert code == 0

    def test_search_takes_side_lengths_in_any_order(self, capsys, coloring_122):
        code, out, _ = run_cli(capsys, "search", "--ks", "3,2", "--coloring", coloring_122)
        assert code == 0
        assert out_json(out)["ks"] == [3, 2]

    def test_search_past_a_mask_segment_exact_bytes(self, capsys, tmp_path):
        # colours 1..5 repeated hold no 3x3 cube with caps 3; the one planted
        # at cell 476 lies past the first segment and _MIN_STEP, and reaches
        # past the anchors of the segment that holds it
        path = tmp_path / "seam.txt"
        cube = {0, 2, 3, 4, 5, 6, 7, 8, 10}
        colors = [1 if p - 475 in cube else 1 + p % 5 for p in range(2000)]
        path.write_text("c=5 lo=1 hi=2000\n" + " ".join(map(str, colors)) + "\n")
        code, out, _ = run_cli(
            capsys, "search", "--ks", "3,3", "--bounds", "3,3", "--coloring", str(path)
        )
        assert code == 0
        assert out == (
            '{"gamma":1,"a":476,"ds":[2,2],"ks":[3,3],'
            '"positions":[476,478,480,482,484]}\n'
        )

    def test_search_absent(self, capsys, tmp_path):
        path = tmp_path / "two.txt"
        path.write_text("c=2 lo=1 hi=2\n1 2\n")
        code, out, _ = run_cli(capsys, "search", "--ks", "2", "--coloring", str(path))
        assert code == 1
        assert out_json(out) == {"found": False}

    def test_search_bounds_and_distinct(self, capsys, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("c=1 lo=1 hi=8\n1 1 1 1 1 1 1 1\n")
        code, out, _ = run_cli(
            capsys, "search", "--ks", "2,2", "--coloring", str(path), "--distinct"
        )
        assert code == 0
        assert out_json(out)["ds"] == [1, 2]
        code, _, _ = run_cli(
            capsys, "search", "--ks", "2,2", "--coloring", str(path), "--bounds", "1"
        )
        assert code == 2

    def test_verify_false_reports_violation(self, capsys, tmp_path, coloring_122):
        witness_path = tmp_path / "w.json"
        witness_path.write_text('{"gamma":1,"a":1,"ds":[1],"ks":[2]}')
        code, out, _ = run_cli(
            capsys, "verify", "--witness", str(witness_path),
            "--coloring", coloring_122,
        )
        assert code == 1
        assert out_json(out) == {
            "verified": False,
            "first_violation": {"position": 2, "color": 2},
        }

    def test_verify_out_of_domain_is_input_error(self, capsys, tmp_path):
        witness_path = tmp_path / "w.json"
        witness_path.write_text('{"gamma":1,"a":1,"ds":[5],"ks":[2]}')
        coloring_path = tmp_path / "c.txt"
        coloring_path.write_text("c=2 lo=1 hi=3\n1 2 1\n")
        code, out, _ = run_cli(
            capsys, "verify", "--witness", str(witness_path),
            "--coloring", str(coloring_path),
        )
        assert code == 2
        assert out == ""

    def test_verify_huge_position_outside_the_domain(self, capsys, tmp_path):
        witness_path = tmp_path / "w.json"
        witness_path.write_text('{"gamma":1,"a":1,"ds":[%d],"ks":[2]}' % (10**4300 - 1))
        coloring_path = tmp_path / "c.txt"
        coloring_path.write_text("c=1 lo=1 hi=4\n1 1 1 1\n")
        code, out, err = run_cli(
            capsys, "verify", "--witness", str(witness_path),
            "--coloring", str(coloring_path),
        )
        assert (code, out, err) == (
            2, "", "cube position <4301-digit number> outside domain [1, 4]\n"
        )


class TestCubeNumber:
    def test_value(self, capsys):
        code, out, _ = run_cli(capsys, "cube-number", "--ks", "2,2", "--c", "2", "--cap", "16")
        assert code == 0
        assert out == '{"ks":[2,2],"c":2,"value":8}\n'

    def test_exceeds_cap(self, capsys):
        code, out, _ = run_cli(capsys, "cube-number", "--ks", "3", "--c", "2", "--cap", "5")
        assert code == 3
        assert out_json(out) == {"exceeds_cap": 5}


class TestLimits:
    def test_out_of_memory(self, capsys, monkeypatch):
        # like a bare limit refusal: exit 3, one stderr line, nothing on stdout
        def exhaust(*args):
            raise MemoryError

        monkeypatch.setattr("vdwitness.cli.cube_number", exhaust)
        code, out, err = run_cli(
            capsys, "cube-number", "--ks", "2,2", "--c", "1000", "--cap", "1000"
        )
        assert (code, out, err) == (3, "", "out of memory\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["wnumber", "--k", "3", "--c", "2"],
            ["stream", "--oracle", "thue-morse", "--k", "2", "--c", "2", "--depth", "3",
             "--windows", "4", "--mode", "proof"],
            ["cube-number", "--ks", "2,2", "--c", "2", "--cap", "5"],
        ],
    )
    def test_out_of_memory_while_serialising(self, capsys, monkeypatch, argv):
        # a result or a refusal's payload that cannot be serialised exits like
        # a search that runs out of memory, with nothing on stdout
        class Exhausted:
            @staticmethod
            def dumps(*args, **kwargs):
                raise MemoryError

        monkeypatch.setattr("vdwitness.cli.json", Exhausted)
        assert run_cli(capsys, *argv) == (3, "", "out of memory\n")

    def test_env_search_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("VDW_WNUMBER_LIMIT", "5")
        code, out, _ = run_cli(capsys, "wnumber", "--k", "3", "--c", "2")
        assert code == 3
        assert out_json(out)["limit"] == 5
        # explicit flag wins over the environment
        code, out, _ = run_cli(capsys, "wnumber", "--k", "3", "--c", "2", "--limit", "64")
        assert code == 0
        assert out_json(out)["value"] == 9

    def test_closed_form_certificate_over_the_cell_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("VDW_MAX_CELLS", "1000")
        code, out, err = run_cli(capsys, "wnumber", "--k", "2", "--c", "1001")
        assert code == 3
        assert out_json(out) == {"error": "materialization limit exceeded"}
        assert err == (
            "the W(2,1001) certificate has 1001 cells, over the materialization limit 1000\n"
        )
        code, out, _ = run_cli(capsys, "wnumber", "--k", "2", "--c", "1000")
        assert code == 0 and out_json(out)["value"] == 1001

    def test_huge_palette_past_the_search_limit(self, capsys):
        # the stage-3 palette is 5^93756, a 65533-digit number
        code, out, err = run_cli(
            capsys, "stream", "--oracle", "constant:1", "--ks", "2,2,3", "--c", "5",
            "--depth", "3", "--windows", "4", "--mode", "proof",
        )
        assert code == 3
        assert out_json(out) == {"error": "tower uncomputable", "stage": 3}
        assert err == (
            "tower uncomputable at stage 3: W(3,<65533-digit number>) "
            "exceeds the search limit 128\n"
        )

    def test_stream_max_cells(self, capsys):
        code, out, _ = run_cli(
            capsys, "stream", "--oracle", "constant:1", "--k", "2", "--c", "1",
            "--depth", "5", "--windows", "8", "--mode", "proof", "--max-cells", "4",
        )
        assert code == 3
        assert out_json(out)["error"] == "materialization limit exceeded"

    def test_proof_window_read_up_to_the_cap(self, capsys):
        # window 4's blocks do not repeat early, so its stage is read in
        # order until the next read would pass the cap
        code, out, err = run_cli(
            capsys, "stream", "--oracle", "random:7", "--k", "2", "--c", "2",
            "--depth", "3", "--windows", "4", "--mode", "proof", "--max-cells", "65536",
        )
        assert (code, out) == (3, '{"error":"materialization limit exceeded"}\n')
        assert err == (
            "extraction would read 110592 cells, over the materialization limit 65536\n"
        )

    def test_stream_max_cells_wins_over_the_environment(self, capsys, monkeypatch):
        # depth records expand cubes of up to 32 positions under the flag's
        # limit, not the environment's
        monkeypatch.setenv("VDW_MAX_CELLS", "4")
        code, out, _ = run_cli(
            capsys, "stream", "--oracle", "constant:1", "--k", "2", "--c", "1",
            "--depth", "5", "--windows", "8", "--mode", "proof", "--max-cells", "1000",
        )
        assert code == 0
        assert [d["verified"] for d in out_json(out)["depths"]] == [True] * 5

    def test_verify_refuses_a_huge_expansion(self, capsys, tmp_path):
        witness_path = tmp_path / "w.json"
        witness_path.write_text(
            json.dumps({"gamma": 1, "a": 1, "ds": [1, 10**3, 10**6, 10**9], "ks": [1000] * 4})
        )
        t0 = time.perf_counter()
        code, out, err = run_cli(
            capsys, "verify", "--witness", str(witness_path), "--oracle", "constant:1"
        )
        assert time.perf_counter() - t0 < 1.0
        assert code == 3
        assert out_json(out) == {"error": "materialization limit exceeded"}
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_verify_refuses_to_print_a_huge_violation(self, capsys, tmp_path):
        # every number has 4,300 digits; the first violation, 10^4300 + 2, has more
        witness_path = tmp_path / "w.json"
        witness_path.write_text(
            '{"gamma":1,"a":%d,"ds":[%d],"ks":[2]}' % (10**4299 + 1, 9 * 10**4299 + 1)
        )
        code, out, err = run_cli(
            capsys, "verify", "--witness", str(witness_path), "--oracle", "periodic:12"
        )
        assert (code, out, err) == (
            3, "", "the first violating position has more than 4300 decimal digits\n"
        )

    def test_verify_degenerate_cube(self, capsys, tmp_path):
        # 1000^4 index tuples collapse onto 3,997 positions
        witness_path = tmp_path / "w.json"
        witness_path.write_text(json.dumps({"gamma": 1, "a": 1, "ds": [1] * 4, "ks": [1000] * 4}))
        code, out, _ = run_cli(
            capsys, "verify", "--witness", str(witness_path), "--oracle", "constant:1"
        )
        assert code == 0 and out_json(out) == {"verified": True}

    def test_verify_collapsing_cube_quickly(self, capsys, tmp_path):
        # 10^10 index tuples collapse onto 199,999 positions, a span far
        # under the cell limit; the expansion must not cost k per position
        witness_path = tmp_path / "w.json"
        witness_path.write_text(
            json.dumps({"gamma": 1, "a": 1, "ds": [1, 1], "ks": [100000] * 2})
        )
        t0 = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "verify", "--witness", str(witness_path), "--oracle", "constant:1"
        )
        assert time.perf_counter() - t0 < 5.0
        assert code == 0 and out_json(out) == {"verified": True}


class TestStream:
    def test_determinism(self, capsys):
        args = (
            "stream", "--oracle", "random:3", "--k", "2", "--c", "2",
            "--depth", "2", "--windows", "8", "--mode", "search",
            "--window-size", "32", "--caps", "8,8",
        )
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        assert json.loads(first)["windows"] == 8

    def test_thue_morse_search(self, capsys):
        code, out, _ = run_cli(
            capsys, "stream", "--oracle", "thue-morse", "--k", "2", "--c", "2",
            "--depth", "3", "--windows", "64", "--mode", "search",
            "--window-size", "64", "--caps", "16,16,16",
        )
        assert code == 0
        data = out_json(out)
        assert data["gamma"] == 1 and data["ds"] == [3, 3, 3]
        assert len(data["depths"]) == 3
        assert all(d["verified"] for d in data["depths"])
        assert data["conforming"] is True

    def test_proof_mode_constant(self, capsys):
        code, out, _ = run_cli(
            capsys, "stream", "--oracle", "constant:1", "--k", "2", "--c", "1",
            "--depth", "5", "--windows", "8", "--mode", "proof",
        )
        assert code == 0
        data = out_json(out)
        assert data["ds"] == [1, 2, 4, 8, 16]
        assert len(data["depths"]) == 5

    def test_nonuniform_sides(self, capsys):
        code, out, _ = run_cli(
            capsys, "stream", "--oracle", "periodic:122", "--ks", "2,2,3",
            "--c", "2", "--depth", "3", "--windows", "16", "--mode", "search",
            "--window-size", "64", "--caps", "12,12,12",
        )
        assert code == 0
        data = out_json(out)
        assert data["gamma"] == 2 and data["ds"] == [1, 3, 3]
        assert all(d["verified"] for d in data["depths"])

    def test_window_failure_exit(self, capsys):
        code, out, _ = run_cli(
            capsys, "stream", "--oracle", "periodic:12", "--k", "2", "--c", "2",
            "--depth", "1", "--windows", "2", "--mode", "search",
            "--window-size", "2",
        )
        assert code == 1
        assert out_json(out)["error"] == "window failure"

    def test_every_window_skipped(self, capsys):
        code, out, _ = run_cli(
            capsys, "stream", "--oracle", "random:1", "--k", "3", "--c", "2",
            "--depth", "1", "--windows", "2", "--mode", "search",
            "--window-size", "2", "--skip-failures",
        )
        assert (code, out) == (1, '{"error":"window failure","window":2,"lo":3,"hi":4}\n')

    def test_search_mode_side_lengths_nondecreasing(self, capsys):
        code, out, err = run_cli(
            capsys, "stream", "--oracle", "random:1", "--ks", "3,2", "--c", "2",
            "--depth", "2", "--windows", "4", "--mode", "search",
            "--window-size", "64",
        )
        assert (code, out, err) == (2, "", "progression lengths must be nondecreasing\n")

    def test_thue_morse_proof_past_the_cell_limit(self, capsys):
        # window 4 is a stage-3 tower of 3,623,878,683 cells; its extraction
        # reads 33 blocks of 27 cells
        code, out, _ = run_cli(
            capsys, "stream", "--oracle", "thue-morse", "--k", "2", "--c", "2",
            "--depth", "3", "--windows", "4", "--mode", "proof",
        )
        assert code == 0
        report = out_json(out)
        assert report["ds"] == [1, 6, 864]
        assert [d["verified"] for d in report["depths"]] == [True, True, True]
        witnesses = run_stream(ThueMorseOracle(), 2, 2, 3, 4, "proof").state.witnesses
        assert [(w.e, w.ls, w.gamma) for w in witnesses] == [
            (2, (1,), 2), (4, (2,), 1), (8, (1, 6), 2), (34, (1, 6, 864), 1),
        ]
        assert [w.window for w in witnesses] == [
            Interval(1, 3), Interval(4, 6), Interval(7, 33), Interval(34, 3623878716),
        ]

    # whole stdout lines of proof and search streams, byte for byte
    @pytest.mark.parametrize(
        "argv, line",
        [
            (
                "thue-morse --k 2 --c 2 --depth 3 --windows 4 --mode proof",
                '{"mode":"proof","gamma":1,"ds":[1,6,864],"depths":[{"n":1,"a":34,"s":4,"positions":[34,35],"verified":true},{"n":2,"a":34,"s":4,"positions":[34,35,40,41],"verified":true},{"n":3,"a":34,"s":4,"positions":[34,35,40,41,898,899,904,905],"verified":true}],"survivor_sizes":[2,1,1,1],"windows":4,"conforming":true}',
            ),
            (
                "constant:1 --k 2 --c 1 --depth 5 --windows 8 --mode proof",
                '{"mode":"proof","gamma":1,"ds":[1,2,4,8,16],"depths":[{"n":1,"a":1,"s":1,"positions":[1,2],"verified":true},{"n":2,"a":5,"s":3,"positions":[5,6,7,8],"verified":true},{"n":3,"a":9,"s":4,"positions":[9,10,11,12,13,14,15,16],"verified":true},{"n":4,"a":17,"s":5,"positions":[17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32],"verified":true},{"n":5,"a":33,"s":6,"positions":[33,34,35,36,37,38,39,40,41,42,43,44,45,46,47,48,49,50,51,52,53,54,55,56,57,58,59,60,61,62,63,64],"verified":true}],"survivor_sizes":[8,8,6,5,4,3],"windows":8,"conforming":true}',
            ),
            (
                "evperiodic:31/1122 --k 2 --c 3 --depth 2 --windows 3 --mode proof",
                '{"mode":"proof","gamma":2,"ds":[1,4],"depths":[{"n":1,"a":5,"s":2,"positions":[5,6],"verified":true},{"n":2,"a":9,"s":3,"positions":[9,10,13,14],"verified":true}],"survivor_sizes":[2,2,1],"windows":3,"conforming":true}',
            ),
            (
                "random:7 --k 3 --c 2 --depth 2 --windows 12 --mode search --window-size 8 --skip-failures",
                '{"mode":"search","gamma":2,"ds":[1,1],"depths":[{"n":1,"a":1,"s":1,"positions":[1,2,3],"verified":true},{"n":2,"a":89,"s":12,"positions":[89,90,91,92,93],"verified":true}],"survivor_sizes":[2,2,1],"windows":12,"conforming":false}',
            ),
            # a known fault: the tower builds stage 3, which no window reads,
            # so the stream reaches only depth 2
            (
                "constant:1 --k 2 --c 1 --depth 3 --windows 3 --mode proof",
                '{"mode":"proof","gamma":1,"ds":[1,2],"depths":[{"n":1,"a":1,"s":1,"positions":[1,2],"verified":true},{"n":2,"a":5,"s":3,"positions":[5,6,7,8],"verified":true}],"survivor_sizes":[3,3,1],"windows":3,"conforming":true}',
            ),
            (
                "constant:1 --k 3 --c 1 --depth 3 --windows 4 --mode proof",
                '{"mode":"proof","gamma":1,"ds":[1,3,9],"depths":[{"n":1,"a":1,"s":1,"positions":[1,2,3],"verified":true},{"n":2,"a":7,"s":3,"positions":[7,8,9,10,11,12,13,14,15],"verified":true},{"n":3,"a":16,"s":4,"positions":[16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39,40,41,42],"verified":true}],"survivor_sizes":[4,4,2,1],"windows":4,"conforming":true}',
            ),
            (
                "periodic:300,1,7 --k 2 --c 300 --depth 2 --windows 3 --mode proof",
                '{"mode":"proof","gamma":1,"ds":[3],"depths":[{"n":1,"a":302,"s":2,"positions":[302,305],"verified":true}],"survivor_sizes":[1,1],"windows":3,"conforming":true}',
            ),
        ],
    )
    def test_report_bytes(self, capsys, argv, line):
        code, out, _ = run_cli(capsys, "stream", "--oracle", *argv.split())
        assert code == 0
        assert out == line + "\n"

    def test_proof_tower_built_past_the_depth(self, capsys):
        # a known fault: two windows at depth 2 read stage 1 only, but the
        # tower still builds stage 2, whose W(3, 2^9) is past the search limit
        code, out, err = run_cli(
            capsys, "stream", "--oracle", "thue-morse", "--k", "3", "--c", "2",
            "--depth", "2", "--windows", "2", "--mode", "proof",
        )
        assert code == 3
        assert out == '{"error":"tower uncomputable","stage":2}\n'
        assert err == "tower uncomputable at stage 2: W(3,512) exceeds the search limit 128\n"

    # whole stdout lines that read batches of the Thue-Morse and seeded-random
    # oracles, the same strings as the CI workflow's stdlib-only step; c = 255
    # is the last palette coloured in lanes, c = 256 the first read by words
    @pytest.mark.parametrize(
        "argv, line",
        [
            (
                "random:3 --k 3 --c 3 --depth 3 --windows 20 --mode search --window-size 1024 --caps 64,64,64",
                '{"mode":"search","gamma":3,"ds":[17,17,17],"depths":[{"n":1,"a":1,"s":1,"positions":[1,18,35],"verified":true},{"n":2,"a":7169,"s":8,"positions":[7169,7186,7203,7220,7237],"verified":true},{"n":3,"a":7169,"s":8,"positions":[7169,7186,7203,7220,7237,7254,7271],"verified":true}],"survivor_sizes":[8,2,1,1],"windows":20,"conforming":true}',
            ),
            (
                "thue-morse --k 3 --c 2 --depth 3 --windows 20 --mode search --window-size 1024 --skip-failures",
                '{"mode":"search","gamma":1,"ds":[3,3,3],"depths":[{"n":1,"a":1,"s":1,"positions":[1,4,7],"verified":true},{"n":2,"a":3073,"s":4,"positions":[3073,3076,3079,3082,3085],"verified":true},{"n":3,"a":3073,"s":4,"positions":[3073,3076,3079,3082,3085,3088,3091],"verified":true}],"survivor_sizes":[10,10,9,9],"windows":20,"conforming":true}',
            ),
            (
                "random:1 --k 2 --c 6 --depth 2 --windows 3 --mode proof",
                '{"mode":"proof","gamma":3,"ds":[1,1260672],"depths":[{"n":1,"a":22,"s":3,"positions":[22,23],"verified":true},{"n":2,"a":22,"s":3,"positions":[22,23,1260694,1260695],"verified":true}],"survivor_sizes":[1,1,1],"windows":3,"conforming":true}',
            ),
            (
                "random:5 --k 2 --c 255 --depth 2 --windows 6 --mode search --window-size 1024",
                '{"mode":"search","gamma":9,"ds":[422,422],"depths":[{"n":1,"a":3078,"s":4,"positions":[3078,3500],"verified":true},{"n":2,"a":3078,"s":4,"positions":[3078,3500,3922],"verified":true}],"survivor_sizes":[1,1,1],"windows":6,"conforming":true}',
            ),
            (
                "random:5 --k 2 --c 256 --depth 2 --windows 6 --mode search --window-size 1024",
                '{"mode":"search","gamma":54,"ds":[284],"depths":[{"n":1,"a":1,"s":1,"positions":[1,285],"verified":true}],"survivor_sizes":[1,1],"windows":6,"conforming":true}',
            ),
        ],
        ids=[
            "random-3d-search", "thue-morse-k3-search", "random-c6-proof",
            "random-c255-search", "random-c256-search",
        ],
    )
    def test_report_bytes_of_oracle_batches(self, capsys, argv, line):
        code, out, _ = run_cli(capsys, "stream", "--oracle", *argv.split())
        assert code == 0
        assert out == line + "\n"

    def test_depth_needs_windows(self, capsys):
        code, _, err = run_cli(
            capsys, "stream", "--oracle", "thue-morse", "--k", "2", "--c", "2",
            "--depth", "5", "--windows", "2", "--mode", "search",
            "--window-size", "16",
        )
        assert code == 2
        assert err.strip()


class TestInputErrors:
    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_help_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert out.startswith("usage:")

    def test_missing_required(self, capsys):
        assert run_cli(capsys, "wnumber", "--k", "3")[0] == 2

    def test_bad_oracle(self, capsys, tmp_path, coloring_122):
        code, _, _ = run_cli(
            capsys, "stream", "--oracle", "bogus:1", "--k", "2", "--c", "2",
            "--depth", "1", "--windows", "1", "--mode", "search",
            "--window-size", "8",
        )
        assert code == 2
        witness = tmp_path / "w.json"
        witness.write_text('{"gamma":1,"a":1,"ds":[1],"ks":[2]}')
        code, out, err = run_cli(
            capsys, "verify", "--witness", str(witness), "--oracle", f"file:{coloring_122}:0"
        )
        assert (code, out, err) == (2, "", "default color must be >= 1, got 0\n")

    def test_missing_file(self, capsys):
        assert run_cli(capsys, "search", "--ks", "2", "--coloring", "/nope")[0] == 2

    def test_witness_with_bad_positions(self, capsys, tmp_path, coloring_122):
        for positions in ('["x"]', "5"):
            witness_path = tmp_path / "w.json"
            witness_path.write_text(
                '{"gamma":1,"a":1,"ds":[1],"ks":[2],"positions":%s}' % positions
            )
            code, out, err = run_cli(
                capsys, "verify", "--witness", str(witness_path),
                "--coloring", coloring_122,
            )
            assert (code, out) == (2, "")
            assert err.startswith("bad witness object") and err.count("\n") == 1

    def test_directory_as_coloring(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "search", "--ks", "2", "--coloring", str(tmp_path))
        assert (code, out, err) == (2, "", f"not a file: {tmp_path}\n")

    def test_directory_as_witness(self, capsys, tmp_path, coloring_122):
        code, out, err = run_cli(
            capsys, "verify", "--witness", str(tmp_path), "--coloring", coloring_122
        )
        assert (code, out, err) == (2, "", f"not a file: {tmp_path}\n")

    def test_path_with_a_newline_is_quoted(self, capsys):
        code, out, err = run_cli(capsys, "search", "--ks", "2", "--coloring", "/nope\nsecond")
        assert (code, out, err) == (2, "", "missing file: '/nope\\nsecond'\n")

    @pytest.mark.parametrize("error", ["ENOTDIR", "ENAMETOOLONG", "ELOOP"])
    @pytest.mark.parametrize("reader", ["coloring", "witness", "oracle"])
    def test_unreadable_path(self, capsys, tmp_path, reader, error):
        if error == "ENOTDIR":
            (tmp_path / "file").write_text("")
            path = tmp_path / "file" / "x"
        elif error == "ENAMETOOLONG":
            path = tmp_path / ("x" * 5000)
        else:
            path = tmp_path / "a"
            path.symlink_to(tmp_path / "b")
            (tmp_path / "b").symlink_to(path)
        argv = {
            "coloring": ["search", "--ks", "2", "--coloring", str(path)],
            "witness": ["verify", "--witness", str(path), "--oracle", "constant:1", "--c", "1"],
            "oracle": ["stream", "--oracle", f"file:{path}", "--k", "2", "--c", "2",
                       "--depth", "1", "--windows", "1", "--mode", "search",
                       "--window-size", "4"],
        }[reader]
        code, out, err = run_cli(capsys, *argv)
        message = f"{path}: {os.strerror(getattr(errno, error))}\n"
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize(
        "text",
        [
            "[" * 100_000,
            pytest.param(
                "1" * 5000,
                marks=pytest.mark.skipif(
                    not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no limit on integer digits",
                ),
            ),
        ],
        ids=["deep", "long-integer"],
    )
    def test_witness_json_past_the_decoder_limits(self, capsys, tmp_path, text):
        witness_path = tmp_path / "w.json"
        witness_path.write_text(text)
        code, out, err = run_cli(
            capsys, "verify", "--witness", str(witness_path),
            "--oracle", "constant:1", "--c", "1",
        )
        assert (code, out) == (2, "")
        assert err.startswith("bad witness JSON:") and err.count("\n") == 1

    @pytest.mark.parametrize("reader", ["coloring", "witness"])
    def test_non_utf8_file(self, capsys, tmp_path, coloring_122, reader):
        bad = tmp_path / "bad"
        bad.write_bytes(b"c=2 lo=1 hi=1\n\xff\n")
        argv = {
            "coloring": ["search", "--ks", "2", "--coloring", str(bad)],
            "witness": ["verify", "--witness", str(bad), "--coloring", coloring_122],
        }[reader]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"{bad}: not UTF-8 text\n")

    def test_non_finite_number_in_witness(self, capsys, tmp_path):
        witness_path = tmp_path / "w.json"
        witness_path.write_text('{"gamma":1,"a":1,"ds":[1e400],"ks":[2]}')
        code, out, err = run_cli(
            capsys, "verify", "--witness", str(witness_path),
            "--oracle", "constant:1", "--c", "1",
        )
        assert (code, out) == (2, "")
        assert err.startswith("bad witness object") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--ks", "2", "--coloring", "COLORING", "--bounds", "0"],
            ["stream", "--oracle", "constant:1", "--k", "2", "--c", "1", "--depth", "2",
             "--windows", "4", "--mode", "search", "--window-size", "16", "--caps", "0,4"],
            ["stream", "--oracle", "constant:1", "--k", "2", "--c", "1", "--depth", "2",
             "--windows", "4", "--mode", "proof", "--caps", "0,4"],
        ],
    )
    def test_non_positive_caps(self, capsys, coloring_122, argv):
        argv = [coloring_122 if a == "COLORING" else a for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "difference caps must be >= 1\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["wnumber", "--k", "2", "--c", "3", "--limit", "0"],
            ["wnumber", "--k", "4", "--c", "1", "--limit", "-7"],
            ["tower", "--k", "2", "--c", "1", "--n", "3", "--limit", "0"],
            ["stream", "--oracle", "constant:1", "--k", "2", "--c", "1", "--depth", "1",
             "--windows", "1", "--mode", "proof", "--limit", "0"],
        ],
    )
    def test_non_positive_limit_on_closed_forms(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"search limit must be >= 1, got {argv[-1]}\n")

    def test_bad_threads(self, capsys):
        assert run_cli(capsys, "wnumber", "--k", "2", "--c", "2", "--threads", "0")[0] == 2

    def test_ks_and_k_exclusive(self, capsys):
        code, _, _ = run_cli(
            capsys, "extract", "--k", "2", "--ks", "2,2", "--c", "2", "--n", "2",
            "--coloring", "x",
        )
        assert code == 2


# Malformed tokens stay small: a huge --c, --n, --depth or --window-size is
# a valid request whose answer takes memory in proportion to the number.
_JUNK = ["", "0", "-1", "x", "1.5", "1e3", "2,", ",", "2,,3", "--k", "periodic:", "bogus:1"]


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    texts = {
        "tower.txt": "c=2 lo=1 hi=27\n" + " ".join("122" * 9) + "\n",
        "ones.txt": "c=1 lo=1 hi=6\n1 1 1 1 1 1\n",
        "base.txt": "c=2 lo=1 hi=3\n1 2 1\n",
        "short.txt": "c=2 lo=1 hi=5\n1 2\n",
        "witness.json": '{"gamma":2,"a":2,"ds":[1,3],"ks":[2,2]}',
        "positions.json": '{"gamma":1,"a":1,"ds":[1],"ks":[2],"positions":["x"]}',
        "broken.json": "{",
    }
    for name, text in texts.items():
        (root / name).write_text(text)
    (root / "latin1.txt").write_bytes(b"c=2 lo=1 hi=1\n\xff\n")
    names = [*texts, "latin1.txt", "missing.txt"]
    return {name: str(root / name) for name in names} | {"directory": str(root)}


def _argv(paths):
    """Strategy for argvs of every subcommand with small values, some with a
    flag dropped or a value replaced by a malformed token or a bad file."""

    def num(hi, lo=1):
        return st.integers(lo, hi).map(str)

    def nums(hi, lo=1):
        lists = st.lists(st.integers(lo, hi), min_size=1, max_size=3)
        return lists.map(lambda xs: ",".join(map(str, sorted(xs))))

    towers = [paths[name] for name in ("tower.txt", "ones.txt", "base.txt")]
    coloring = ("--coloring", st.sampled_from(towers))
    oracle = (
        "--oracle",
        st.sampled_from(
            ["thue-morse", "constant:1", "periodic:122", "evperiodic:1/21", "random:3",
             f"file:{towers[0]}", f"file:{towers[1]}:1"]
        ),
    )
    # Two colors first: most oracles and tower.txt use two.
    k, ks = ("--k", num(3, 2)), ("--ks", nums(3, 2))
    c = ("--c", st.sampled_from(["2", "1", "3"]))
    limit = ("--limit", num(16))
    # Per subcommand: required entries, then optional ones. An entry is a
    # (flag, value) pair or a list of mutually exclusive pairs; a value of
    # None marks a switch.
    commands = {
        "wnumber": ([k, c], [limit]),
        "tower": ([k, c, ("--n", num(3))], [("--start", num(8)), limit]),
        "extract": ([[k, ks], c, ("--n", num(3)), coloring], [("--trace", None), limit]),
        "search": ([ks, coloring], [("--bounds", nums(16)), ("--distinct", None)]),
        "cube-number": ([ks, c, ("--cap", num(16))], []),
        "stream": (
            [oracle, [k, ks], c, ("--depth", num(3)), ("--windows", num(8)),
             ("--mode", st.sampled_from(["proof", "search"]))],
            [("--window-size", num(8)), ("--caps", nums(16)), ("--skip-failures", None),
             limit, ("--max-cells", num(64))],
        ),
        "verify": (
            [("--witness", st.just(paths["witness.json"])), [coloring, oracle]], [c]
        ),
    }
    bad = st.sampled_from(_JUNK + sorted(paths.values()))

    @st.composite
    def argv(draw):
        command = draw(st.sampled_from(sorted(commands)))
        required, optional = commands[command]
        pairs = [draw(st.sampled_from(e)) if isinstance(e, list) else e for e in required]
        pairs += [e for e in optional + [("--threads", num(2))] if draw(st.booleans())]
        # Two argvs in three carry one fault: a dropped flag or a bad value.
        fault = draw(st.sampled_from([None, "drop", "bad"]))
        target = draw(st.integers(0, len(pairs) - 1))
        out = [command]
        for i, (flag, value) in enumerate(pairs):
            if fault == "drop" and i == target:
                continue
            out.append(flag)
            if fault == "bad" and i == target:
                out.append(draw(bad))
            elif value is not None:
                out.append(draw(value))
        return out

    return argv()


class TestFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_any_argv_exits_cleanly(self, fuzz_paths, data):
        argv = data.draw(_argv(fuzz_paths))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        text = out.getvalue()
        if text:
            assert text.count("\n") == 1 and text.endswith("\n")
            assert isinstance(json.loads(text), dict)
        assert "Traceback" not in err.getvalue()

