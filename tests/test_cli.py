import json

import pytest

from vdwitness.cli import main
from vdwitness.wnumbers import _MEMO


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

    def test_cache_file(self, capsys, tmp_path):
        cache = tmp_path / "cache.txt"
        code, _, _ = run_cli(
            capsys, "wnumber", "--k", "3", "--c", "2", "--cache", str(cache)
        )
        assert code == 0
        assert "3 2 9" in cache.read_text()
        code, out, _ = run_cli(
            capsys, "wnumber", "--k", "3", "--c", "2", "--cache", str(cache)
        )
        assert code == 0
        assert out_json(out)["value"] == 9

    def test_too_small_cache_value_changes_nothing(self, capsys, tmp_path):
        cache = tmp_path / "cache.txt"
        cache.write_text("3 2 8\n")
        saved = dict(_MEMO)
        try:
            _MEMO.clear()
            code, out, _ = run_cli(
                capsys, "wnumber", "--k", "3", "--c", "2", "--cache", str(cache)
            )
        finally:
            _MEMO.clear()
            _MEMO.update(saved)
        assert code == 0
        assert out == '{"k":3,"c":2,"value":9,"certificate":"11221122"}\n'
        assert "3 2 9" in cache.read_text()


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
    def test_env_search_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("VDW_WNUMBER_LIMIT", "5")
        code, out, _ = run_cli(capsys, "wnumber", "--k", "3", "--c", "2")
        assert code == 3
        assert out_json(out)["limit"] == 5
        # explicit flag wins over the environment
        code, out, _ = run_cli(capsys, "wnumber", "--k", "3", "--c", "2", "--limit", "64")
        assert code == 0
        assert out_json(out)["value"] == 9

    def test_stream_max_cells(self, capsys):
        code, out, _ = run_cli(
            capsys, "stream", "--oracle", "constant:1", "--k", "2", "--c", "1",
            "--depth", "5", "--windows", "8", "--mode", "proof", "--max-cells", "4",
        )
        assert code == 3
        assert out_json(out)["error"] == "materialization limit exceeded"


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

    def test_missing_required(self, capsys):
        assert run_cli(capsys, "wnumber", "--k", "3")[0] == 2

    def test_bad_oracle(self, capsys):
        code, _, _ = run_cli(
            capsys, "stream", "--oracle", "bogus:1", "--k", "2", "--c", "2",
            "--depth", "1", "--windows", "1", "--mode", "search",
            "--window-size", "8",
        )
        assert code == 2

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

    def test_directory_as_cache(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "wnumber", "--k", "3", "--c", "2", "--cache", str(tmp_path)
        )
        assert (code, out, err) == (2, "", f"not a file: {tmp_path}\n")

    @pytest.mark.parametrize("reader", ["coloring", "witness", "cache"])
    def test_non_utf8_file(self, capsys, tmp_path, coloring_122, reader):
        bad = tmp_path / "bad"
        bad.write_bytes(b"c=2 lo=1 hi=1\n\xff\n")
        argv = {
            "coloring": ["search", "--ks", "2", "--coloring", str(bad)],
            "witness": ["verify", "--witness", str(bad), "--coloring", coloring_122],
            "cache": ["wnumber", "--k", "3", "--c", "2", "--cache", str(bad)],
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

    def test_bad_threads(self, capsys):
        assert run_cli(capsys, "wnumber", "--k", "2", "--c", "2", "--threads", "0")[0] == 2

    def test_ks_and_k_exclusive(self, capsys):
        code, _, _ = run_cli(
            capsys, "extract", "--k", "2", "--ks", "2,2", "--c", "2", "--n", "2",
            "--coloring", "x",
        )
        assert code == 2
