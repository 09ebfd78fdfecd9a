"""The CLI contract: every pinned run of the command line, and its runner.

A record is one invocation and what it must give back: the exit code, the
exact stdout, and the exact stderr or, where the text is not the package's
own (argparse, the interpreter and the OS word it, differently across
versions), its number of lines. argv is split with shlex; a "{name}" in it
stands for a temporary file holding files[name], and that path reads back
as "{name}" in stderr. A record runs in process through cli.main with its
env set, or, if it is limited, in a child whose address space is limited
to AS_LIMIT. Either way the working directory is the repository root.

    PYTHONPATH=src python tests/cli_contract.py

runs every record, prints one line per mismatch and exits 1 if any record
fails; tests/test_cli.py runs the same records. This module imports only
the standard library and vdwitness, so it runs before anything is
installed. To check another tree, put its src on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field

from vdwitness import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class Record:
    id: str
    argv: str
    code: int
    out: str
    err: str | int
    env: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)
    limited: bool = False  # run under AS_LIMIT


def run(record: Record) -> list[tuple[str, object, object]]:
    """(field, expected, got) for each of code, out and err that differs."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name) for name in record.files}
        for name, content in record.files.items():
            with open(paths[name], "wb") as f:
                f.write(content if isinstance(content, bytes) else content.encode())
        argv = [arg.format(**paths) for arg in shlex.split(record.argv)]
        code, out, err = (_in_child if record.limited else _in_process)(argv, record)
    for name, path in paths.items():
        err = err.replace(path, "{%s}" % name)
    got = {"code": code, "out": out, "err": err.count("\n") if isinstance(record.err, int) else err}
    return [(k, getattr(record, k), v) for k, v in got.items() if getattr(record, k) != v]


def _in_process(argv, record):
    out, err = io.StringIO(), io.StringIO()
    saved, cwd = {key: os.environ.get(key) for key in record.env}, os.getcwd()
    os.environ.update(record.env)
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
        for key, value in saved.items():
            if value is None:
                del os.environ[key]
            else:
                os.environ[key] = value
    return code, out.getvalue(), err.getvalue()


AS_LIMIT = 1_000_000 * 1024  # bytes, as `ulimit -v 1000000`


def _in_child(argv, record):
    # the child imports the same vdwitness as this process, limits its own
    # address space, and runs the CLI as `python -m vdwitness.cli` does
    path = [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")]
    env = {**os.environ, **record.env, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    script = (
        f"import resource, runpy; resource.setrlimit(resource.RLIMIT_AS, ({AS_LIMIT}, {AS_LIMIT})); "
        "runpy.run_module('vdwitness.cli', run_name='__main__', alter_sys=True)"
    )
    child = subprocess.run(
        [sys.executable, "-c", script, *argv], cwd=ROOT, env=env, capture_output=True, text=True
    )
    return child.returncode, child.stdout, child.stderr


# Expected bytes that more than one record shares
MATERIALIZATION = '{"error":"materialization limit exceeded"}\n'
W32 = '{"k":3,"c":2,"value":9,"certificate":"11221122"}\n'
W32_NOTE = "W(3,2) = 9\n"
W25 = '{"k":2,"c":5,"value":6,"certificate":"12345"}\n'
W25_NOTE = "W(2,5) = 6\n"
LIMIT_5 = '{"error":"search limit exceeded","k":3,"c":2,"limit":5}\n'
LIMIT_5_NOTE = "W(3,2) not resolved within 5 positions: an AP-free coloring of that length exists\n"
LIMIT_0 = "search limit must be >= 1, got 0\n"
THREADS_0 = "--threads must be >= 1\n"
CAPS_0 = "difference caps must be >= 1\n"
TOWER_27_NOTE = "stage 2 tower has 27 cells\n"
UNCOMPUTABLE_2 = '{"error":"tower uncomputable","stage":2}\n'
UNCOMPUTABLE_2_NOTE = "tower uncomputable at stage 2: W(3,512) exceeds the search limit 128\n"
COLOR_2_AT_2 = "cube of color 2 anchored at 2\n"
COLOR_1_AT_1 = "cube of color 1 anchored at 1\n"
NOT_FOUND = '{"found":false}\n'
NO_CUBE = "no monochromatic cube\n"
NOT_UTF8 = "{bad}: not UTF-8 text\n"
VIOLATION_2 = '{"verified":false,"first_violation":{"position":2,"color":2}}\n'
VIOLATION_2_NOTE = "position 2 has color 2, not 1\n"
HUGE_VIOLATION = "the first violating position has more than 4300 decimal digits\n"
HUGE_POSITION = "cube position <4301-digit number> outside domain [1, 4]\n"
TRACE_122 = '{"gamma":2,"a":2,"ds":[1,3],"ks":[2,2],"positions":[2,3,5,6],"trace":[{"stage":2,"b1":0,"dstar":1,"block_size":3,"palette_size":1}]}\n'
CONSTANT_DEPTH_5 = '{"mode":"proof","gamma":1,"ds":[1,2,4,8,16],"depths":[{"n":1,"a":1,"s":1,"positions":[1,2],"verified":true},{"n":2,"a":5,"s":3,"positions":[5,6,7,8],"verified":true},{"n":3,"a":9,"s":4,"positions":[9,10,11,12,13,14,15,16],"verified":true},{"n":4,"a":17,"s":5,"positions":[17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32],"verified":true},{"n":5,"a":33,"s":6,"positions":[33,34,35,36,37,38,39,40,41,42,43,44,45,46,47,48,49,50,51,52,53,54,55,56,57,58,59,60,61,62,63,64],"verified":true}],"survivor_sizes":[8,8,6,5,4,3],"windows":8,"conforming":true}\n'
CONSTANT_DEPTH_5_NOTE = "achieved depth 5 of 5 with color 1; survivors [8, 8, 6, 5, 4, 3]\n"
# the known faults at the end of RECORDS all give these bytes
CONSTANT_DEPTH_2 = '{"mode":"proof","gamma":1,"ds":[1,2],"depths":[{"n":1,"a":1,"s":1,"positions":[1,2],"verified":true},{"n":2,"a":5,"s":3,"positions":[5,6,7,8],"verified":true}],"survivor_sizes":[3,3,1],"windows":3,"conforming":true}\n'
DEPTH_2_OF_2 = "achieved depth 2 of 2 with color 1; survivors [3, 3, 1]\n"
ARGPARSE = {"COLUMNS": "80"}  # argparse wraps its usage text to the terminal

# Input files
TOWER_122 = "c=2 lo=1 hi=27\n" + " ".join("122" * 9) + "\n"
ONES_24 = "c=1 lo=1 hi=24\n" + " ".join("1" * 24) + "\n"
ONES_6 = "c=1 lo=1 hi=6\n1 1 1 1 1 1\n"
ONES_8 = "c=1 lo=1 hi=8\n1 1 1 1 1 1 1 1\n"
_rng = random.Random(35)  # a 3-colour stage-2 tower: 82 blocks of 4 cells, 52 patterns
RANDOM_328 = "c=3 lo=1 hi=328\n" + " ".join(str(_rng.randint(1, 3)) for _ in range(328)) + "\n"
# colours 1..5 repeated hold no 3x3 cube with caps 3; the one planted at cell
# 476 lies past the first segment and reaches past its segment's anchors
SEAM = "c=5 lo=1 hi=2000\n" + " ".join(
    str(1 if p - 475 in {0, 2, 3, 4, 5, 6, 7, 8, 10} else 1 + p % 5) for p in range(2000)
) + "\n"
LATIN1 = b"c=2 lo=1 hi=1\n\xff\n"
PAIR = '{"gamma":1,"a":1,"ds":[1],"ks":[2]}'
SQUARE = '{"gamma":1,"a":3,"ds":[1,2],"ks":[3,3]}\n'

R = Record
RECORDS = [
    # wnumber
    R("wnumber-k3-c2", "wnumber --k 3 --c 2", 0, W32, W32_NOTE),
    R("wnumber-k3-c3", "wnumber --k 3 --c 3", 0, '{"k":3,"c":3,"value":27,"certificate":"11221123233131121223133232"}\n', "W(3,3) = 27\n"),
    R("wnumber-k4-c2", "wnumber --k 4 --c 2", 0, '{"k":4,"c":2,"value":35,"certificate":"1121112221211211122212112111222122"}\n', "W(4,2) = 35\n"),
    R("wnumber-closed-form", "wnumber --k 2 --c 5", 0, W25, W25_NOTE),
    R("wnumber-limit-5", "wnumber --k 3 --c 2 --limit 5", 3, LIMIT_5, LIMIT_5_NOTE),
    R("wnumber-limit-50", "wnumber --k 3 --c 4 --limit 50", 3, '{"error":"search limit exceeded","k":3,"c":4,"limit":50}\n', "W(3,4) not resolved within 50 positions: an AP-free coloring of that length exists\n"),
    R("wnumber-limit-3000", "wnumber --k 3 --c 1000 --limit 3000", 3, '{"error":"search limit exceeded","k":3,"c":1000,"limit":3000}\n',
      "W(3,1000) not resolved within 3000 positions: an AP-free coloring of that length exists\n", limited=True),
    R("wnumber-env-limit", "wnumber --k 3 --c 2", 3, LIMIT_5, LIMIT_5_NOTE, env={"VDW_WNUMBER_LIMIT": "5"}),
    R("wnumber-flag-beats-env-limit", "wnumber --k 3 --c 2 --limit 64", 0, W32, W32_NOTE, env={"VDW_WNUMBER_LIMIT": "5"}),
    R("wnumber-closed-form-ignores-bad-env", "wnumber --k 2 --c 5", 0, W25, W25_NOTE, env={"VDW_WNUMBER_LIMIT": "bogus"}),
    R("wnumber-bad-env-limit", "wnumber --k 3 --c 2", 2, "", "VDW_WNUMBER_LIMIT is not an integer: 'bogus'\n", env={"VDW_WNUMBER_LIMIT": "bogus"}),
    R("wnumber-certificate-over-cell-limit", "wnumber --k 2 --c 1001", 3, MATERIALIZATION,
      "the W(2,1001) certificate has 1001 cells, over the materialization limit 1000\n", env={"VDW_MAX_CELLS": "1000"}),
    R("wnumber-certificate-at-cell-limit", "wnumber --k 2 --c 1000", 0,
      '{"k":2,"c":1000,"value":1001,"certificate":"%s"}\n' % ",".join(map(str, range(1, 1001))), "W(2,1000) = 1001\n", env={"VDW_MAX_CELLS": "1000"}),
    R("wnumber-limit-0", "wnumber --k 3 --c 2 --limit 0", 2, "", LIMIT_0),
    R("wnumber-closed-form-limit-0", "wnumber --k 2 --c 3 --limit 0", 2, "", LIMIT_0),
    R("wnumber-closed-form-limit-negative", "wnumber --k 4 --c 1 --limit -7", 2, "", "search limit must be >= 1, got -7\n"),
    R("wnumber-threads-0", "wnumber --k 3 --c 2 --threads 0", 2, "", THREADS_0),
    R("wnumber-closed-form-threads-0", "wnumber --k 2 --c 2 --threads 0", 2, "", THREADS_0),
    # tower
    R("tower-k2-c2", "tower --k 2 --c 2 --n 2", 0, '{"k":2,"c":2,"n":2,"W":["3","9"],"C":["8"],"sizes":["3","27"]}\n', TOWER_27_NOTE),
    R("tower-start", "tower --k 2 --c 2 --n 2 --start 6", 0, '{"k":2,"c":2,"n":2,"W":["3","9"],"C":["8"],"sizes":["3","27"],"interval":["6","32"]}\n', TOWER_27_NOTE),
    R("tower-uncomputable", "tower --k 3 --c 2 --n 2", 3, UNCOMPUTABLE_2, UNCOMPUTABLE_2_NOTE),
    R("tower-w3-too-many-digits", "tower --k 2 --c 5 --n 3", 3, "", "W_3 has more than 4300 decimal digits\n"),
    R("tower-size-too-many-digits", "tower --k 2 --c 1 --n 16000", 3, "", "the stage-14285 size has more than 4300 decimal digits\n"),
    R("tower-limit-0", "tower --k 2 --c 1 --n 3 --limit 0", 2, "", LIMIT_0),
    # cube-number
    R("cube-number-22-c2", "cube-number --ks 2,2 --c 2 --cap 16", 0, '{"ks":[2,2],"c":2,"value":8}\n', "cube number for sides [2, 2] with 2 colors = 8\n"),
    R("cube-number-22-c3", "cube-number --ks 2,2 --c 3 --cap 64", 0, '{"ks":[2,2],"c":3,"value":15}\n', "cube number for sides [2, 2] with 3 colors = 15\n"),
    R("cube-number-23-c2", "cube-number --ks 2,3 --c 2 --cap 64", 0, '{"ks":[2,3],"c":2,"value":21}\n', "cube number for sides [2, 3] with 2 colors = 21\n"),
    R("cube-number-222-c2-cap-21", "cube-number --ks 2,2,2 --c 2 --cap 21", 0, '{"ks":[2,2,2],"c":2,"value":21}\n', "cube number for sides [2, 2, 2] with 2 colors = 21\n"),
    R("cube-number-222-c2-cap-20", "cube-number --ks 2,2,2 --c 2 --cap 20", 3, '{"exceeds_cap":20}\n', "cube number for sides [2, 2, 2] with 2 colors exceeds cap 20\n"),
    R("cube-number-222-c1-cap-3", "cube-number --ks 2,2,2 --c 1 --cap 3", 3, '{"exceeds_cap":3}\n', "cube number for sides [2, 2, 2] with 1 colors exceeds cap 3\n"),
    R("cube-number-222-c3-cap-48", "cube-number --ks 2,2,2 --c 3 --cap 48", 3, '{"exceeds_cap":48}\n', "cube number for sides [2, 2, 2] with 3 colors exceeds cap 48\n"),
    R("cube-number-3-c2-cap-5", "cube-number --ks 3 --c 2 --cap 5", 3, '{"exceeds_cap":5}\n', "cube number for sides [3] with 2 colors exceeds cap 5\n"),
    R("cube-number-3-c3-cap-27", "cube-number --ks 3 --c 3 --cap 27", 0, '{"ks":[3],"c":3,"value":27}\n', "cube number for sides [3] with 3 colors = 27\n"),
    R("cube-number-3-c3-cap-26", "cube-number --ks 3 --c 3 --cap 26", 3, '{"exceeds_cap":26}\n', "cube number for sides [3] with 3 colors exceeds cap 26\n"),
    R("cube-number-2-c3000", "cube-number --ks 2 --c 3000 --cap 100000", 0, '{"ks":[2],"c":3000,"value":3001}\n',
      "cube number for sides [2] with 3000 colors = 3001\n", limited=True),
    # unlimited, this run reached 7.7 GB
    R("cube-number-out-of-memory", "cube-number --ks 2,2 --c 1000 --cap 1000", 3, "", "out of memory\n", limited=True),
    # extract
    R("extract-trace", "extract --k 2 --c 2 --n 2 --trace --coloring {tower}", 0, TRACE_122, COLOR_2_AT_2, files={"tower": TOWER_122}),
    R("extract-trace-last", "extract --k 2 --c 2 --n 2 --coloring {tower} --trace", 0, TRACE_122, COLOR_2_AT_2, files={"tower": TOWER_122}),
    R("extract", "extract --k 2 --c 2 --n 2 --coloring {tower}", 0,
      '{"gamma":2,"a":2,"ds":[1,3],"ks":[2,2],"positions":[2,3,5,6]}\n', COLOR_2_AT_2, files={"tower": TOWER_122}),
    R("extract-trace-patterns", "extract --k 2 --c 3 --n 2 --coloring {random} --trace", 0,
      '{"gamma":3,"a":1,"ds":[3,208],"ks":[2,2],"positions":[1,4,209,212],"trace":[{"stage":2,"b1":0,"dstar":52,"block_size":4,"palette_size":52}]}\n', "cube of color 3 anchored at 1\n",
      files={"random": RANDOM_328}),
    R("extract-trace-sides-234", "extract --ks 2,3,4 --c 1 --n 3 --trace --coloring {ones}", 0,
      '{"gamma":1,"a":1,"ds":[1,2,6],"ks":[2,3,4],"positions":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24],"trace":[{"stage":3,"b1":0,"dstar":1,"block_size":6,"palette_size":1},{"stage":2,"b1":0,"dstar":1,"block_size":2,"palette_size":1}]}\n', COLOR_1_AT_1,
      files={"ones": ONES_24}),
    R("extract-sides-23", "extract --ks 2,3 --c 1 --n 2 --coloring {six}", 0,
      '{"gamma":1,"a":1,"ds":[1,2],"ks":[2,3],"positions":[1,2,3,4,5,6]}\n', COLOR_1_AT_1, files={"six": ONES_6}),
    R("extract-sides-for-too-many-stages", "extract --ks 2,3,3 --c 1 --n 2 --coloring {six}", 2, "", "3 side lengths for 2 stages\n", files={"six": ONES_6}),
    R("extract-palette-mismatch", "extract --k 2 --c 3 --n 2 --coloring {tower}", 2, "", "--c 3 does not match file palette 2\n", files={"tower": TOWER_122}),
    # search
    R("search-sides-in-any-order", "search --ks 3,2 --coloring {tower}", 0,
      '{"gamma":1,"a":1,"ds":[3,3],"ks":[3,2],"positions":[1,4,7,10]}\n', COLOR_1_AT_1, files={"tower": TOWER_122}),
    R("search-past-a-mask-segment", "search --ks 3,3 --bounds 3,3 --coloring {seam}", 0,
      '{"gamma":1,"a":476,"ds":[2,2],"ks":[3,3],"positions":[476,478,480,482,484]}\n', "cube of color 1 anchored at 476\n", files={"seam": SEAM}),
    R("search-ap-free", "search --ks 3 --coloring {apfree}", 1, NOT_FOUND, NO_CUBE, files={"apfree": "c=2 lo=1 hi=4\n1 1 2 2\n"}),
    R("search-absent", "search --ks 2 --coloring {two}", 1, NOT_FOUND, NO_CUBE, files={"two": "c=2 lo=1 hi=2\n1 2\n"}),
    R("search-distinct", "search --ks 2,2 --coloring {eight} --distinct", 0,
      '{"gamma":1,"a":1,"ds":[1,2],"ks":[2,2],"positions":[1,2,3,4]}\n', COLOR_1_AT_1, files={"eight": ONES_8}),
    R("search-bounds-too-few", "search --ks 2,2 --coloring {eight} --bounds 1", 2, "", "1 caps for 2 dimensions\n", files={"eight": ONES_8}),
    R("search-bounds-0", "search --ks 2 --coloring {tower} --bounds 0", 2, "", CAPS_0, files={"tower": TOWER_122}),
    R("search-missing-file", "search --ks 2 --coloring /nope", 2, "", "missing file: /nope\n"),
    R("search-path-with-a-newline", "search --ks 2 --coloring '/nope\nsecond'", 2, "", "missing file: '/nope\\nsecond'\n"),
    # the OS words this refusal
    R("search-path-under-a-file", "search --ks 2 --coloring pyproject.toml/x", 2, "", 1),
    R("search-non-utf8", "search --ks 2 --coloring {bad}", 2, "", NOT_UTF8, files={"bad": LATIN1}),
    # verify
    R("verify-violation", "verify --witness {pair} --oracle periodic:12", 1, VIOLATION_2, VIOLATION_2_NOTE, files={"pair": PAIR + "\n"}),
    R("verify-violation-on-a-coloring", "verify --witness {w} --coloring {tower}", 1, VIOLATION_2, VIOLATION_2_NOTE,
      files={"w": PAIR, "tower": TOWER_122}),
    R("verify-square-violation", "verify --witness {square} --oracle periodic:1112", 1,
      '{"verified":false,"first_violation":{"position":4,"color":2}}\n', "position 4 has color 2, not 1\n", files={"square": SQUARE}),
    R("verify-square-outside-the-domain", "verify --witness {square} --coloring {six}", 2, "",
      "cube position 7 outside domain [1, 6]\n", files={"square": SQUARE, "six": "c=2 lo=1 hi=6\n1 1 1 1 1 1\n"}),
    R("verify-outside-the-domain", "verify --witness {w} --coloring {c}", 2, "", "cube position 6 outside domain [1, 3]\n",
      files={"w": '{"gamma":1,"a":1,"ds":[5],"ks":[2]}', "c": "c=2 lo=1 hi=3\n1 2 1\n"}),
    # 1000^4 index tuples collapse onto 3,997 positions
    R("verify-degenerate-cube", "verify --witness {w} --oracle constant:1", 0, '{"verified":true}\n', "witness verified\n",
      files={"w": json.dumps({"gamma": 1, "a": 1, "ds": [1] * 4, "ks": [1000] * 4})}),
    # every number has 4,300 digits; the first violation, 10^4300 + 2, has more
    R("verify-huge-violation", "verify --witness {huge} --oracle periodic:12", 3, "", HUGE_VIOLATION,
      files={"huge": json.dumps({"gamma": 1, "a": 10**4299 + 1, "ds": [9 * 10**4299 + 1], "ks": [2]}) + "\n"}),
    R("verify-huge-violation-compact", "verify --witness {w} --oracle periodic:12", 3, "",
      HUGE_VIOLATION,
      files={"w": '{"gamma":1,"a":%d,"ds":[%d],"ks":[2]}' % (10**4299 + 1, 9 * 10**4299 + 1)}),
    R("verify-huge-position", "verify --witness {huge} --coloring {four}", 2, "", HUGE_POSITION,
      files={"huge": json.dumps({"gamma": 1, "a": 1, "ds": [10**4300 - 1], "ks": [2]}) + "\n", "four": "c=1 lo=1 hi=4\n1 1 1 1\n"}),
    R("verify-huge-position-compact", "verify --witness {w} --coloring {c}", 2, "",
      HUGE_POSITION,
      files={"w": '{"gamma":1,"a":1,"ds":[%d],"ks":[2]}' % (10**4300 - 1), "c": "c=1 lo=1 hi=4\n1 1 1 1\n"}),
    # the json module words this refusal
    R("verify-deep-witness", "verify --witness {deep} --oracle constant:1 --c 1", 2, "", 1, files={"deep": "[" * 100_000}),
    R("verify-positions-not-integers", "verify --witness {w} --coloring {tower}", 2, "",
      "bad witness object: invalid literal for int() with base 10: 'x'\n",
      files={"w": '{"gamma":1,"a":1,"ds":[1],"ks":[2],"positions":["x"]}', "tower": TOWER_122}),
    R("verify-positions-not-a-list", "verify --witness {w} --coloring {tower}", 2, "",
      "bad witness object: 'int' object is not iterable\n",
      files={"w": '{"gamma":1,"a":1,"ds":[1],"ks":[2],"positions":5}', "tower": TOWER_122}),
    R("verify-non-finite-number", "verify --witness {w} --oracle constant:1 --c 1", 2, "",
      "bad witness object: cannot convert float infinity to integer\n",
      files={"w": '{"gamma":1,"a":1,"ds":[1e400],"ks":[2]}'}),
    R("verify-non-utf8", "verify --witness {bad} --coloring {tower}", 2, "", NOT_UTF8,
      files={"bad": LATIN1, "tower": TOWER_122}),
    R("verify-file-oracle-default-0", "verify --witness {w} --oracle file:{tower}:0", 2, "",
      "default color must be >= 1, got 0\n", files={"w": PAIR, "tower": TOWER_122}),
    # stream, search mode
    R("stream-random-search", "stream --oracle random:7 --k 3 --c 2 --depth 2 --windows 20 --mode search --window-size 256", 0,
      '{"mode":"search","gamma":2,"ds":[3,3],"depths":[{"n":1,"a":1025,"s":5,"positions":[1025,1028,1031],"verified":true},{"n":2,"a":1025,"s":5,"positions":[1025,1028,1031,1034,1037],"verified":true}],"survivor_sizes":[11,4,1],"windows":20,"conforming":true}\n', "achieved depth 2 of 2 with color 2; survivors [11, 4, 1]\n"),
    R("stream-random-3d-search", "stream --oracle random:3 --k 3 --c 3 --depth 3 --windows 20 --mode search --window-size 1024 --caps 64,64,64", 0,
      '{"mode":"search","gamma":3,"ds":[17,17,17],"depths":[{"n":1,"a":1,"s":1,"positions":[1,18,35],"verified":true},{"n":2,"a":7169,"s":8,"positions":[7169,7186,7203,7220,7237],"verified":true},{"n":3,"a":7169,"s":8,"positions":[7169,7186,7203,7220,7237,7254,7271],"verified":true}],"survivor_sizes":[8,2,1,1],"windows":20,"conforming":true}\n', "achieved depth 3 of 3 with color 3; survivors [8, 2, 1, 1]\n"),
    R("stream-random-3d-search-max-cells", "stream --oracle random:3 --k 3 --c 3 --depth 3 --windows 20 --mode search --window-size 1024 --caps 64,64,64 --max-cells 1000", 3,
      MATERIALIZATION, "the interval has 1024 cells, over the materialization limit 1000\n"),
    R("stream-thue-morse-k3-search", "stream --oracle thue-morse --k 3 --c 2 --depth 3 --windows 20 --mode search --window-size 1024 --skip-failures", 0,
      '{"mode":"search","gamma":1,"ds":[3,3,3],"depths":[{"n":1,"a":1,"s":1,"positions":[1,4,7],"verified":true},{"n":2,"a":3073,"s":4,"positions":[3073,3076,3079,3082,3085],"verified":true},{"n":3,"a":3073,"s":4,"positions":[3073,3076,3079,3082,3085,3088,3091],"verified":true}],"survivor_sizes":[10,10,9,9],"windows":20,"conforming":true}\n', "achieved depth 3 of 3 with color 1; survivors [10, 10, 9, 9]\n"),
    R("stream-thue-morse-search", "stream --oracle thue-morse --k 2 --c 2 --depth 3 --windows 64 --mode search --window-size 64 --caps 16,16,16", 0,
      '{"mode":"search","gamma":1,"ds":[3,3,3],"depths":[{"n":1,"a":1,"s":1,"positions":[1,4],"verified":true},{"n":2,"a":193,"s":4,"positions":[193,196,199],"verified":true},{"n":3,"a":193,"s":4,"positions":[193,196,199,202],"verified":true}],"survivor_sizes":[32,32,31,31],"windows":64,"conforming":true}\n', "achieved depth 3 of 3 with color 1; survivors [32, 32, 31, 31]\n"),
    # c = 255 is the last palette coloured in lanes, c = 256 the first read by words
    R("stream-random-c255-search", "stream --oracle random:5 --k 2 --c 255 --depth 2 --windows 6 --mode search --window-size 1024", 0,
      '{"mode":"search","gamma":9,"ds":[422,422],"depths":[{"n":1,"a":3078,"s":4,"positions":[3078,3500],"verified":true},{"n":2,"a":3078,"s":4,"positions":[3078,3500,3922],"verified":true}],"survivor_sizes":[1,1,1],"windows":6,"conforming":true}\n', "achieved depth 2 of 2 with color 9; survivors [1, 1, 1]\n"),
    R("stream-random-c256-search", "stream --oracle random:5 --k 2 --c 256 --depth 2 --windows 6 --mode search --window-size 1024", 0,
      '{"mode":"search","gamma":54,"ds":[284],"depths":[{"n":1,"a":1,"s":1,"positions":[1,285],"verified":true}],"survivor_sizes":[1,1],"windows":6,"conforming":true}\n', "achieved depth 1 of 2 with color 54; survivors [1, 1]\n"),
    R("stream-periodic-sides-223-search", "stream --oracle periodic:122 --ks 2,2,3 --c 2 --depth 3 --windows 16 --mode search --window-size 64 --caps 12,12,12", 0,
      '{"mode":"search","gamma":2,"ds":[1,3,3],"depths":[{"n":1,"a":65,"s":2,"positions":[65,66],"verified":true},{"n":2,"a":65,"s":2,"positions":[65,66,68,69],"verified":true},{"n":3,"a":257,"s":5,"positions":[257,258,260,261,263,264,266,267],"verified":true}],"survivor_sizes":[10,5,5,4],"windows":16,"conforming":true}\n', "achieved depth 3 of 3 with color 2; survivors [10, 5, 5, 4]\n"),
    R("stream-skip-failures", "stream --oracle random:7 --k 3 --c 2 --depth 2 --windows 12 --mode search --window-size 8 --skip-failures", 0,
      '{"mode":"search","gamma":2,"ds":[1,1],"depths":[{"n":1,"a":1,"s":1,"positions":[1,2,3],"verified":true},{"n":2,"a":89,"s":12,"positions":[89,90,91,92,93],"verified":true}],"survivor_sizes":[2,2,1],"windows":12,"conforming":false}\n', "achieved depth 2 of 2 with color 2; survivors [2, 2, 1]\n"),
    R("stream-window-failure", "stream --oracle random:7 --k 3 --c 2 --depth 2 --windows 12 --mode search --window-size 8", 1,
      '{"error":"window failure","window":2,"lo":9,"hi":16}\n', "window 2 = [9, 16] yielded no witness\n"),
    R("stream-first-window-failure", "stream --oracle periodic:12 --k 2 --c 2 --depth 1 --windows 2 --mode search --window-size 2", 1,
      '{"error":"window failure","window":1,"lo":1,"hi":2}\n', "window 1 = [1, 2] yielded no witness\n"),
    R("stream-every-window-skipped", "stream --oracle random:1 --k 3 --c 2 --depth 1 --windows 2 --mode search --window-size 2 --skip-failures", 1,
      '{"error":"window failure","window":2,"lo":3,"hi":4}\n', "window 2 = [3, 4] yielded no witness\n"),
    R("stream-sides-decreasing", "stream --oracle random:1 --ks 3,2 --c 2 --depth 2 --windows 4 --mode search --window-size 64", 2, "",
      "progression lengths must be nondecreasing\n"),
    R("stream-depth-past-windows", "stream --oracle thue-morse --k 2 --c 2 --depth 5 --windows 2 --mode search --window-size 16", 2, "", "2 windows cannot reach depth 5\n"),
    R("stream-search-caps-0", "stream --oracle constant:1 --k 2 --c 1 --depth 2 --windows 4 --mode search --window-size 16 --caps 0,4", 2, "", CAPS_0),
    R("stream-bad-oracle", "stream --oracle bogus:1 --k 2 --c 2 --depth 1 --windows 1 --mode search --window-size 8", 2, "", "unknown oracle kind 'bogus'\n"),
    # stream, proof mode
    R("stream-thue-morse-proof", "stream --oracle thue-morse --k 2 --c 2 --depth 3 --windows 4 --mode proof", 0,
      '{"mode":"proof","gamma":1,"ds":[1,6,864],"depths":[{"n":1,"a":34,"s":4,"positions":[34,35],"verified":true},{"n":2,"a":34,"s":4,"positions":[34,35,40,41],"verified":true},{"n":3,"a":34,"s":4,"positions":[34,35,40,41,898,899,904,905],"verified":true}],"survivor_sizes":[2,1,1,1],"windows":4,"conforming":true}\n', "achieved depth 3 of 3 with color 1; survivors [2, 1, 1, 1]\n"),
    R("stream-random-c6-proof", "stream --oracle random:1 --k 2 --c 6 --depth 2 --windows 3 --mode proof", 0,
      '{"mode":"proof","gamma":3,"ds":[1,1260672],"depths":[{"n":1,"a":22,"s":3,"positions":[22,23],"verified":true},{"n":2,"a":22,"s":3,"positions":[22,23,1260694,1260695],"verified":true}],"survivor_sizes":[1,1,1],"windows":3,"conforming":true}\n', "achieved depth 2 of 2 with color 3; survivors [1, 1, 1]\n"),
    R("stream-evperiodic-proof", "stream --oracle evperiodic:31/1122 --k 2 --c 3 --depth 2 --windows 3 --mode proof", 0,
      '{"mode":"proof","gamma":2,"ds":[1,4],"depths":[{"n":1,"a":5,"s":2,"positions":[5,6],"verified":true},{"n":2,"a":9,"s":3,"positions":[9,10,13,14],"verified":true}],"survivor_sizes":[2,2,1],"windows":3,"conforming":true}\n', "achieved depth 2 of 2 with color 2; survivors [2, 2, 1]\n"),
    R("stream-periodic-c300-proof", "stream --oracle periodic:300,1,7 --k 2 --c 300 --depth 2 --windows 3 --mode proof", 0,
      '{"mode":"proof","gamma":1,"ds":[3],"depths":[{"n":1,"a":302,"s":2,"positions":[302,305],"verified":true}],"survivor_sizes":[1,1],"windows":3,"conforming":true}\n', "achieved depth 1 of 2 with color 1; survivors [1, 1]\n"),
    R("stream-constant-proof", "stream --oracle constant:1 --k 2 --c 1 --depth 5 --windows 8 --mode proof", 0, CONSTANT_DEPTH_5, CONSTANT_DEPTH_5_NOTE),
    R("stream-constant-k3-proof", "stream --oracle constant:1 --k 3 --c 1 --depth 3 --windows 4 --mode proof", 0,
      '{"mode":"proof","gamma":1,"ds":[1,3,9],"depths":[{"n":1,"a":1,"s":1,"positions":[1,2,3],"verified":true},{"n":2,"a":7,"s":3,"positions":[7,8,9,10,11,12,13,14,15],"verified":true},{"n":3,"a":16,"s":4,"positions":[16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39,40,41,42],"verified":true}],"survivor_sizes":[4,4,2,1],"windows":4,"conforming":true}\n', "achieved depth 3 of 3 with color 1; survivors [4, 4, 2, 1]\n"),
    # depth records expand cubes of up to 32 positions under the flag's
    # limit, not the environment's
    R("stream-max-cells-beats-env", "stream --oracle constant:1 --k 2 --c 1 --depth 5 --windows 8 --mode proof --max-cells 1000", 0,
      CONSTANT_DEPTH_5, CONSTANT_DEPTH_5_NOTE, env={"VDW_MAX_CELLS": "4"}),
    R("stream-max-cells", "stream --oracle constant:1 --k 2 --c 1 --depth 5 --windows 8 --mode proof --max-cells 4", 3, MATERIALIZATION, "extraction would read 8 cells, over the materialization limit 4\n"),
    # window 4's blocks do not repeat early, so its stage is read in order
    # until the next read would pass the cap
    R("stream-proof-read-up-to-the-cap", "stream --oracle random:7 --k 2 --c 2 --depth 3 --windows 4 --mode proof --max-cells 65536", 3,
      MATERIALIZATION, "extraction would read 110592 cells, over the materialization limit 65536\n"),
    R("stream-random-proof-max-cells", "stream --oracle random:7 --k 2 --c 2 --depth 3 --windows 4 --mode proof --max-cells 4194304", 3, MATERIALIZATION, "extraction would read 4238919 cells, over the materialization limit 4194304\n"),
    R("stream-random-c3-proof-max-cells", "stream --oracle random:1 --k 2 --c 3 --depth 3 --windows 4 --mode proof --max-cells 4194304", 3, MATERIALIZATION, "extraction would read 4196104 cells, over the materialization limit 4194304\n"),
    # the stage-3 palette is 5^93756, a 65533-digit number
    R("stream-huge-palette", "stream --oracle constant:1 --ks 2,2,3 --c 5 --depth 3 --windows 4 --mode proof", 3,
      '{"error":"tower uncomputable","stage":3}\n',
      "tower uncomputable at stage 3: W(3,<65533-digit number>) exceeds the search limit 128\n"),
    R("stream-proof-caps-0", "stream --oracle constant:1 --k 2 --c 1 --depth 2 --windows 4 --mode proof --caps 0,4", 2, "", CAPS_0),
    R("stream-proof-limit-0", "stream --oracle constant:1 --k 2 --c 1 --depth 1 --windows 1 --mode proof --limit 0", 2, "", LIMIT_0),
    # Known faults whose mend changes output (ROADMAP): the proof tower is
    # built to stage `depth` although no window reads it ...
    R("stream-proof-tower-past-the-depth", "stream --oracle thue-morse --k 3 --c 2 --depth 2 --windows 2 --mode proof", 3,
      UNCOMPUTABLE_2, UNCOMPUTABLE_2_NOTE),
    R("stream-proof-tower-past-the-windows", "stream --oracle constant:1 --k 2 --c 1 --depth 3 --windows 3 --mode proof", 0, CONSTANT_DEPTH_2, "achieved depth 2 of 3 with color 1; survivors [3, 3, 1]\n"),
    # ... and a proof stream ignores --caps and --window-size, but counts the caps
    R("stream-proof", "stream --oracle constant:1 --k 2 --c 1 --depth 2 --windows 3 --mode proof", 0, CONSTANT_DEPTH_2, DEPTH_2_OF_2),
    R("stream-proof-ignores-caps", "stream --oracle constant:1 --k 2 --c 1 --depth 2 --windows 3 --mode proof --caps 1,1", 0,
      CONSTANT_DEPTH_2, DEPTH_2_OF_2),
    R("stream-proof-ignores-window-size", "stream --oracle constant:1 --k 2 --c 1 --depth 2 --windows 3 --mode proof --window-size 7", 0,
      CONSTANT_DEPTH_2, DEPTH_2_OF_2),
    R("stream-proof-counts-caps", "stream --oracle constant:1 --k 2 --c 1 --depth 2 --windows 3 --mode proof --caps 1", 2, "",
      "1 caps for depth 2\n"),
    # argparse
    R("help", "--help", 0, """\
usage: vdwitness [-h]
                 {wnumber,tower,extract,search,cube-number,stream,verify} ...

Witnesses for monochromatic progressions and combinatorial cubes

positional arguments:
  {wnumber,tower,extract,search,cube-number,stream,verify}
    wnumber             exact van der Waerden number with certificate
    tower               stage parameters and tower geometry
    extract             monochromatic cube from a tower coloring file
    search              least monochromatic cube in a coloring file
    cube-number         least N forcing a monochromatic cube
    stream              window stream over an infinite coloring
    verify              check a witness against a coloring or oracle

options:
  -h, --help            show this help message and exit
""", "", env=ARGPARSE),
    R("unknown-command", "frobnicate", 2, "", 3, env=ARGPARSE),
    R("missing-flag", "wnumber --k 3", 2, "", 2, env=ARGPARSE),
    R("k-and-ks", "extract --k 2 --ks 2,2 --c 2 --n 2 --coloring x", 2, "", 4, env=ARGPARSE),
]


def main() -> int:
    failed = False
    for record in RECORDS:
        mismatches = run(record)
        for name, want, got in mismatches:
            print(f"{record.id}: {name}: expected {want!r}, got {got!r}")
        failed |= bool(mismatches)
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
