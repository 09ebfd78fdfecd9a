import errno
import io
import json
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_contract import RECORDS, run
from vdwitness import Interval, ThueMorseOracle, run_stream
from vdwitness.cli import main

BY_ID = {record.id: record for record in RECORDS}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_json(out: str) -> dict:
    return json.loads(out)


# The tests whose whole check was fixed invocations now run the contract
# records that hold those invocations, under their old names and case ids.
def records(*ids):
    def test(self):
        assert {record_id: run(BY_ID[record_id]) for record_id in ids} == dict.fromkeys(ids, [])

    return test


def cases(table):
    """A test over the records table's values, with its keys as case ids."""

    @pytest.mark.parametrize("record_id", list(table.values()), ids=list(table))
    def test(self, record_id):
        assert run(BY_ID[record_id]) == []

    return test


class TestWnumber:
    test_w32_exact_bytes = records("wnumber-k3-c2")
    test_closed_form = records("wnumber-closed-form")
    test_limit_exceeded = records("wnumber-limit-5")

    def test_determinism(self, capsys):
        _, first, _ = run_cli(capsys, "wnumber", "--k", "3", "--c", "2")
        _, second, _ = run_cli(capsys, "wnumber", "--k", "3", "--c", "2")
        assert first == second


class TestTower:
    test_report = records("tower-k2-c2")
    test_start_adds_interval = records("tower-start")
    test_uncomputable = records("tower-uncomputable")
    test_too_many_digits = cases(
        {"c5-n3": "tower-w3-too-many-digits", "c1-n16000": "tower-size-too-many-digits"}
    )


@pytest.fixture
def coloring_122(tmp_path):
    path = tmp_path / "col.txt"
    body = " ".join(("1", "2", "2") * 9)
    path.write_text(f"c=2 lo=1 hi=27\n{body}\n")
    return str(path)


class TestExtractSearchVerify:
    test_extract = records("extract")
    test_extract_trace = records("extract-trace-last")
    test_extract_trace_counts_distinct_patterns_exact_bytes = records("extract-trace-patterns")
    test_extract_nonuniform_sides = records("extract-sides-23")
    test_extract_ks_length_mismatch = records("extract-sides-for-too-many-stages")
    test_extract_palette_mismatch = records("extract-palette-mismatch")
    test_search_takes_side_lengths_in_any_order = records("search-sides-in-any-order")
    test_search_past_a_mask_segment_exact_bytes = records("search-past-a-mask-segment")
    test_search_absent = records("search-absent")
    test_search_bounds_and_distinct = records("search-distinct", "search-bounds-too-few")
    test_verify_false_reports_violation = records("verify-violation-on-a-coloring")
    test_verify_out_of_domain_is_input_error = records("verify-outside-the-domain")
    test_verify_huge_position_outside_the_domain = records("verify-huge-position-compact")

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


class TestCubeNumber:
    test_value = records("cube-number-22-c2")
    test_exceeds_cap = records("cube-number-3-c2-cap-5")


class TestLimits:
    test_env_search_limit = records("wnumber-env-limit", "wnumber-flag-beats-env-limit")
    test_closed_form_certificate_over_the_cell_limit = records(
        "wnumber-certificate-over-cell-limit", "wnumber-certificate-at-cell-limit"
    )
    test_huge_palette_past_the_search_limit = records("stream-huge-palette")
    test_stream_max_cells = records("stream-max-cells")
    test_proof_window_read_up_to_the_cap = records("stream-proof-read-up-to-the-cap")
    test_stream_max_cells_wins_over_the_environment = records("stream-max-cells-beats-env")
    test_verify_refuses_to_print_a_huge_violation = records("verify-huge-violation-compact")
    test_verify_degenerate_cube = records("verify-degenerate-cube")

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
    test_thue_morse_search = records("stream-thue-morse-search")
    test_proof_mode_constant = records("stream-constant-proof")
    test_nonuniform_sides = records("stream-periodic-sides-223-search")
    test_window_failure_exit = records("stream-first-window-failure")
    test_every_window_skipped = records("stream-every-window-skipped")
    test_search_mode_side_lengths_nondecreasing = records("stream-sides-decreasing")
    # the case ids this test had: the argv after "stream --oracle ", a dash,
    # and the stdout line
    test_report_bytes = cases({
        f"{BY_ID[i].argv[16:]}-{BY_ID[i].out[:-1]}": i for i in (
            "stream-thue-morse-proof", "stream-constant-proof", "stream-evperiodic-proof",
            "stream-skip-failures", "stream-proof-tower-past-the-windows",
            "stream-constant-k3-proof", "stream-periodic-c300-proof",
        )
    })
    test_proof_tower_built_past_the_depth = records("stream-proof-tower-past-the-depth")
    test_report_bytes_of_oracle_batches = cases({
        "random-3d-search": "stream-random-3d-search",
        "thue-morse-k3-search": "stream-thue-morse-k3-search",
        "random-c6-proof": "stream-random-c6-proof",
        "random-c255-search": "stream-random-c255-search",
        "random-c256-search": "stream-random-c256-search",
    })
    test_depth_needs_windows = records("stream-depth-past-windows")

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

    def test_thue_morse_proof_past_the_cell_limit(self):
        # window 4 is a stage-3 tower of 3,623,878,683 cells; its extraction
        # reads 33 blocks of 27 cells (the CLI's bytes: stream-thue-morse-proof)
        witnesses = run_stream(ThueMorseOracle(), 2, 2, 3, 4, "proof").state.witnesses
        assert [(w.e, w.ls, w.gamma) for w in witnesses] == [
            (2, (1,), 2), (4, (2,), 1), (8, (1, 6), 2), (34, (1, 6, 864), 1),
        ]
        assert [w.window for w in witnesses] == [
            Interval(1, 3), Interval(4, 6), Interval(7, 33), Interval(34, 3623878716),
        ]


class TestInputErrors:
    test_unknown_command = records("unknown-command")
    test_help_exits_0 = records("help")
    test_missing_required = records("missing-flag")
    test_bad_oracle = records("stream-bad-oracle", "verify-file-oracle-default-0")
    test_missing_file = records("search-missing-file")
    test_witness_with_bad_positions = records(
        "verify-positions-not-integers", "verify-positions-not-a-list"
    )
    test_path_with_a_newline_is_quoted = records("search-path-with-a-newline")
    test_non_utf8_file = cases({"coloring": "search-non-utf8", "witness": "verify-non-utf8"})
    test_non_finite_number_in_witness = records("verify-non-finite-number")
    test_non_positive_caps = cases({
        "argv0": "search-bounds-0", "argv1": "stream-search-caps-0", "argv2": "stream-proof-caps-0",
    })
    test_non_positive_limit_on_closed_forms = cases({
        "argv0": "wnumber-closed-form-limit-0", "argv1": "wnumber-closed-form-limit-negative",
        "argv2": "tower-limit-0", "argv3": "stream-proof-limit-0",
    })
    test_bad_threads = records("wnumber-closed-form-threads-0")
    test_ks_and_k_exclusive = records("k-and-ks")

    def test_directory_as_coloring(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "search", "--ks", "2", "--coloring", str(tmp_path))
        assert (code, out, err) == (2, "", f"not a file: {tmp_path}\n")

    def test_directory_as_witness(self, capsys, tmp_path, coloring_122):
        code, out, err = run_cli(
            capsys, "verify", "--witness", str(tmp_path), "--coloring", coloring_122
        )
        assert (code, out, err) == (2, "", f"not a file: {tmp_path}\n")

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


class TestContract:
    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: r.id)
    def test_record(self, record):
        assert run(record) == []

    def test_ids_are_unique(self):
        # a repeated id would hide its first record from every test
        assert len(BY_ID) == len(RECORDS)

    # a runner that passed everything, or left a field unchecked, fails these
    @pytest.mark.parametrize(
        "record_id", ["wnumber-limit-0", "cube-number-2-c3000", "verify-deep-witness"]
    )
    def test_a_one_byte_change_fails(self, record_id):
        record = BY_ID[record_id]
        err = record.err + 1 if isinstance(record.err, int) else record.err + "x"
        for name, value in [("code", record.code + 1), ("out", record.out + "x"), ("err", err)]:
            assert [m[0] for m in run(replace(record, **{name: value}))] == [name]
