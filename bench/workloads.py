"""The four workloads: fixed job lists built from the workload seed.

A job is one closed-loop call (or a short chain of calls a user would make
together) into the public library API or into the CLI's main() in-process.
Its check compares the outcome with the known answer where one exists and
re-verifies every witness and stream depth with checks.py, which shares no
code with the package. Each check returns the job's output record, which
feeds the output digest, and a list of problems.

Left out on purpose, because a planned change to the package alters their
output: proof-mode streams past the materialization cap (today a
MaterializationLimitError) and W(3, 4) at limit 80 (today unresolved).
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from types import ModuleType
from typing import Callable

from checks import cube_problem, expand, has_mono_ap, oracle_color, proof_windows

# Values and lexicographically least certificates the package returns today.
EXPECTED_W = {
    (3, 2): (9, "11221122"),
    (4, 2): (35, "1121112221211211122212112111222122"),
    (3, 3): (27, "11221123233131121223133232"),
}
EXPECTED_CUBE = {
    ((2, 2), 3, 64): 15,
    ((2, 2), 3, 15): 15,
    ((3,), 3, 27): 27,
    ((2, 3), 2, 64): 21,
    ((2, 2, 2), 2, 64): 21,
    ((2, 2, 2), 2, 21): 21,
}

# Search-mode shapes (c, k, depth, windows, window size) with per-dimension
# difference caps, each solved for `count` oracle seeds drawn from the
# workload seed. Without caps a few windows with a far-off least cube
# dominate a stream, and one stream's time varies by a quarter from seed to
# seed; capped, the per-window search stays bounded and several seeds per
# shape fit in a pass. The median job latency falls among the (3,3,2) and
# (2,4,2) streams and the 90th percentile among the (3,3,3) streams.
SEARCH_SHAPES = {
    "full": [((2, 3, 3, 200, 512), (32, 32, 32), 6), ((3, 3, 3, 100, 1024), (64, 64, 64), 6),
             ((3, 3, 2, 200, 512), (32, 32), 6), ((2, 4, 2, 100, 1024), (32, 32), 6)],
    "smoke": [((2, 3, 2, 20, 256), (16, 16), 1)],
}

# Random stage-2 towers with k=2: number of towers per palette size.
RANDOM_TOWERS = {
    "full": {2: 10000, 3: 3000, 4: 400, 5: 40, 6: 1},
    "smoke": {2: 5, 3: 2, 4: 1},
}

SCALES = ("full", "smoke")


@dataclass(frozen=True)
class Raised:
    """An exception a job raised, kept as its outcome."""

    exc: Exception

    def record(self) -> dict:
        return {"raised": type(self.exc).__name__, "message": str(self.exc)}


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[object, list[str]]]
    # Label of a library job whose record this one must equal in the same pass.
    same_as: str | None = None


def _unexpected(out: object) -> tuple[object, list[str]] | None:
    if isinstance(out, Raised):
        rec = out.record()
        return rec, [f"unexpected {rec['raised']}: {rec['message']}"]
    return None


# --- exact -----------------------------------------------------------------


def _check_wnumber(k: int, c: int):
    value, cert = EXPECTED_W[(k, c)]

    def check(out):
        bad = _unexpected(out)
        if bad:
            return bad
        got = "".join(str(x) for x in out.certificate.colors)
        rec = {"k": out.k, "c": out.c, "value": out.value, "certificate": got}
        problems = []
        if (out.value, got) != (value, cert):
            problems.append(f"W({k},{c}) = {out.value} / {got}, expected {value} / {cert}")
        colors = [int(ch) for ch in got]
        if len(colors) != value - 1 or not all(1 <= x <= c for x in colors):
            problems.append(f"certificate is not a {c}-coloring of [1, {value - 1}]")
        elif has_mono_ap(colors, k):
            problems.append(f"certificate has a monochromatic {k}-term progression")
        return rec, problems

    return check


def _check_refusal(name: str, **attrs):
    def check(out):
        if not isinstance(out, Raised):
            return {"returned": repr(out)}, [f"expected {name}, got a result"]
        rec = out.record()
        problems = []
        if rec["raised"] != name:
            problems.append(f"expected {name}, got {rec['raised']}: {rec['message']}")
        for key, want in attrs.items():
            if getattr(out.exc, key, None) != want:
                problems.append(f"{name}.{key} = {getattr(out.exc, key, None)!r}, expected {want!r}")
        return rec, problems

    return check


def _check_cube_number(ks, c, cap):
    value = EXPECTED_CUBE[(ks, c, cap)]

    def check(out):
        bad = _unexpected(out)
        if bad:
            return bad
        rec = {"ks": list(ks), "c": c, "value": out}
        return rec, [] if out == value else [f"cube number {out}, expected {value}"]

    return check


def _cli_job(vw: ModuleType, label: str, argv: list[str], same_as: str, fresh_memo: bool = False) -> Job:
    def run():
        if fresh_memo:
            # A CLI invocation starts with an empty value memo; the library
            # jobs of the same pass would otherwise have filled it.
            memo = getattr(vw.wnumbers, "_MEMO", None)
            if memo is not None:
                memo.clear()
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = vw.cli.main(argv)
        return code, out.getvalue()

    def check(out):
        bad = _unexpected(out)
        if bad:
            return bad
        code, text = out
        lines = text.splitlines()
        if code != 0 or len(lines) != 1:
            return {"exit": code, "stdout": text}, [f"exit {code} with {len(lines)} stdout lines"]
        return json.loads(lines[0]), []

    return Job(label, run, check, same_as)


def build_exact(vw: ModuleType, rng: random.Random, scale: str) -> list[Job]:
    if scale == "full":
        wjobs = [(3, 2), (4, 2), (3, 3)]
        cubes = list(EXPECTED_CUBE)
        cube_refusal = ((2, 2, 2), 3, 48)
        cli_w, cli_cube = [(3, 2), (4, 2), (3, 3)], ((2, 2), 3, 64)
    else:
        wjobs = [(3, 2), (4, 2)]
        cubes = [((2, 2), 3, 15), ((2, 2, 2), 2, 21)]
        cube_refusal = ((2, 2), 2, 6)
        cli_w, cli_cube = [(3, 2)], ((2, 2), 3, 15)

    jobs = []
    for k, c in wjobs:
        jobs.append(Job(f"vdw_number({k},{c})",
                        lambda k=k, c=c: vw.vdw_number(k, c, use_cache=False),
                        _check_wnumber(k, c)))
    jobs.append(Job("vdw_number(3,4,limit=50)",
                    lambda: vw.vdw_number(3, 4, 50, use_cache=False),
                    _check_refusal("SearchLimitError", limit=50)))
    for ks, c, cap in cubes:
        jobs.append(Job(f"cube_number({list(ks)},{c},{cap})",
                        lambda ks=ks, c=c, cap=cap: vw.cube_number(ks, c, cap),
                        _check_cube_number(ks, c, cap)))
    ks, c, cap = cube_refusal
    jobs.append(Job(f"cube_number({list(ks)},{c},{cap})",
                    lambda ks=ks, c=c, cap=cap: vw.cube_number(ks, c, cap),
                    _check_refusal("CapExceededError", cap=cap)))
    for k, c in cli_w:
        jobs.append(_cli_job(vw, f"cli wnumber --k {k} --c {c}",
                             ["wnumber", "--k", str(k), "--c", str(c)],
                             f"vdw_number({k},{c})", fresh_memo=True))
    ks, c, cap = cli_cube
    jobs.append(_cli_job(vw, f"cli cube-number --ks 2,2 --c {c} --cap {cap}",
                         ["cube-number", "--ks", "2,2", "--c", str(c), "--cap", str(cap)],
                         f"cube_number({list(ks)},{c},{cap})"))
    return jobs


# --- streams ---------------------------------------------------------------


def make_oracle(vw: ModuleType, spec: tuple):
    kind = spec[0]
    if kind == "constant":
        return vw.ConstantOracle(spec[1])
    if kind == "periodic":
        return vw.PeriodicOracle(spec[1], spec[2])
    if kind == "evperiodic":
        return vw.EventuallyPeriodicOracle(spec[1], spec[2], spec[3])
    if kind == "thue-morse":
        return vw.ThueMorseOracle()
    if kind == "random":
        return vw.SeededRandomOracle(spec[1], spec[2])
    raise ValueError(f"unknown oracle spec {spec!r}")


def _check_stream(spec, k, c, depth, windows, mode, size=None, skip=False, expect_ds=None):
    """Re-verify a stream outcome: window geometry, every window witness,
    the nesting of survivor sets and every reported depth."""
    color = oracle_color(spec)
    ks = (k,) * depth
    if mode == "search":
        geometry = [((m - 1) * size + 1, m * size) for m in range(1, windows + 1)]
        dims = [min(m, depth) for m in range(1, windows + 1)]
    else:
        geometry = proof_windows(k, c, windows, depth)
        dims = [min(1 if m == 1 else m - 1, depth) for m in range(1, windows + 1)]

    def check(out):
        bad = _unexpected(out)
        if bad:
            return bad
        rec = out.report()
        problems = []
        state = out.state
        seen = [w.m for w in state.witnesses]
        if sorted(seen + list(out.skipped)) != list(range(1, windows + 1)):
            problems.append("windows solved and skipped do not partition 1..windows")
        if out.skipped and not skip:
            problems.append(f"windows {list(out.skipped)} skipped")
        by_m = {}
        for w in state.witnesses:
            by_m[w.m] = w
            lo, hi = geometry[w.m - 1]
            if (w.window.lo, w.window.hi) != (lo, hi):
                problems.append(f"window {w.m} is [{w.window.lo}, {w.window.hi}], expected [{lo}, {hi}]")
            elif len(w.ls) != dims[w.m - 1]:
                problems.append(f"window {w.m} solved at dimension {len(w.ls)}, expected {dims[w.m - 1]}")
            else:
                p = cube_problem(color, w.gamma, w.e, w.ls, ks[: len(w.ls)], lo, hi)
                if p:
                    problems.append(f"window {w.m}: {p}")
        sets = [set(s) for s in state.survivor_sets]
        if any(not b <= a for a, b in zip(sets, sets[1:])):
            problems.append("survivor sets are not nested")
        if not 1 <= state.achieved_depth <= depth:
            problems.append(f"achieved depth {state.achieved_depth} of {depth}")
        if expect_ds is not None and state.ds != expect_ds:
            problems.append(f"ds {state.ds}, expected {expect_ds}")
        if len(out.depths) != state.achieved_depth:
            problems.append(f"{len(out.depths)} depth records for depth {state.achieved_depth}")
        for t, r in enumerate(out.depths, start=1):
            src = by_m.get(r.s)
            if r.n != t or src is None or (r.a, state.ds[:t]) != (src.e, src.ls[:t]) or src.gamma != state.gamma:
                problems.append(f"depth {t} is not a sub-cube of window {r.s}'s witness")
                continue
            if list(r.positions) != expand(r.a, state.ds[:t], ks[:t]) or not r.verified:
                problems.append(f"depth {t} positions or verified flag wrong")
            p = cube_problem(color, state.gamma, r.a, state.ds[:t], ks[:t], 1, r.positions[-1])
            if p:
                problems.append(f"depth {t}: {p}")
        return rec, problems

    return check


def _stream_job(vw, label, spec, k, c, depth, windows, mode, size=None, caps=None, skip=False, expect_ds=None):
    oracle = make_oracle(vw, spec)

    def run():
        return vw.run_stream(oracle, k, c, depth, windows, mode, window_size=size,
                             caps=caps, skip_failures=skip)

    return Job(label, run, _check_stream(spec, k, c, depth, windows, mode, size, skip, expect_ds))


def build_stream_search(vw: ModuleType, rng: random.Random, scale: str) -> list[Job]:
    jobs = []
    for (c, k, depth, windows, size), caps, count in SEARCH_SHAPES[scale]:
        for i in range(count):
            seed = rng.getrandbits(32)
            jobs.append(_stream_job(vw, f"search #{i} random:{seed} c={c} k={k} depth {depth} {windows}x{size} "
                                    f"caps {caps[0]}", ("random", seed, c), k, c, depth, windows, "search", size,
                                    caps=list(caps), skip=True))
    tm = "search thue-morse k=2 depth 3 64x64 caps 16"
    jobs.append(_stream_job(vw, tm, ("thue-morse",), 2, 2, 3, 64, "search", 64,
                            caps=[16, 16, 16], expect_ds=(3, 3, 3)))
    jobs.append(_cli_job(vw, "cli stream thue-morse k=2 depth 3 64x64",
                         ["stream", "--oracle", "thue-morse", "--k", "2", "--c", "2", "--depth", "3",
                          "--windows", "64", "--mode", "search", "--window-size", "64",
                          "--caps", "16,16,16"], tm))
    if scale == "full":
        r7 = "search random:7 c=2 k=3 depth 2 200x256"
        jobs.append(_stream_job(vw, r7, ("random", 7, 2), 3, 2, 2, 200, "search", 256, expect_ds=(1, 1)))
        jobs.append(_cli_job(vw, "cli stream random:7 c=2 k=3 depth 2 200x256",
                             ["stream", "--oracle", "random:7", "--k", "3", "--c", "2", "--depth", "2",
                              "--windows", "200", "--mode", "search", "--window-size", "256"], r7))
        jobs.append(_stream_job(vw, "search thue-morse k=3 depth 3 200x1024", ("thue-morse",),
                                3, 2, 3, 200, "search", 1024, skip=True, expect_ds=(3, 3, 3)))
    return jobs


def _pattern(rng: random.Random, c: int, lo: int, hi: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, c) for _ in range(rng.randint(lo, hi)))


def build_tower_structured(vw: ModuleType, rng: random.Random, scale: str) -> list[Job]:
    jobs = []
    if scale == "full":
        for c, windows, count in ((5, 4, 3), (6, 3, 5)):
            for i in range(count):
                pattern = _pattern(rng, c, 2, 12)
                jobs.append(_stream_job(vw, f"proof #{i} periodic:{''.join(map(str, pattern))} c={c} k=2 "
                                        f"depth 2 windows {windows}",
                                        ("periodic", pattern, c), 2, c, 2, windows, "proof"))
        for k, depth, windows in ((2, 18, 19), (3, 10, 11)):
            jobs.append(_stream_job(vw, f"proof constant:1 k={k} depth {depth} windows {windows}",
                                    ("constant", 1), k, 1, depth, windows, "proof",
                                    expect_ds=tuple(k**i for i in range(depth))))
    jobs.append(_stream_job(vw, "proof constant:1 k=2 depth 5 windows 8", ("constant", 1), 2, 1, 5, 8,
                            "proof", expect_ds=(1, 2, 4, 8, 16)))
    jobs.append(_stream_job(vw, "proof thue-morse k=2 depth 2 windows 4", ("thue-morse",), 2, 2, 2, 4,
                            "proof", expect_ds=(1, 6)))
    for i in range(2 if scale == "full" else 1):
        prefix, pattern = _pattern(rng, 4, 1, 8), _pattern(rng, 4, 2, 6)
        jobs.append(_stream_job(vw, f"proof #{i} evperiodic:{''.join(map(str, prefix))}/{''.join(map(str, pattern))} "
                                "c=4 k=2 depth 2 windows 4", ("evperiodic", prefix, pattern, 4), 2, 4, 2, 4, "proof"))

    stages = 20 if scale == "full" else 10
    col = vw.FiniteColoring(1, vw.Interval(1, 2**stages), (1,) * 2**stages)
    want = {"gamma": 1, "a": 1, "ds": [2**i for i in range(stages)]}

    def run():
        params = vw.tower_params(2, 1, stages)
        return vw.extract(col, vw.Interval(1, 2), stages, params, checked=True)

    def check(out):
        bad = _unexpected(out)
        if bad:
            return bad
        rec = {"gamma": out.gamma, "a": out.a, "ds": list(out.ds)}
        return rec, [] if rec == want else [f"witness {rec}, expected {want}"]

    jobs.append(Job(f"extract constant c=1 k=2 {stages} stages", run, check))
    return jobs


# --- random towers ---------------------------------------------------------


def _random_tower_job(vw: ModuleType, label: str, c: int, colors: tuple[int, ...]) -> Job:
    w1 = c + 1
    col = vw.FiniteColoring(c, vw.Interval(1, len(colors)), colors)

    def run():
        params = vw.tower_params(2, c, 2)
        trace: list = []
        w = vw.extract(col, vw.Interval(1, params.w(1)), 2, params, checked=True, trace=trace)
        direct = vw.find_cube(col, (2, 2)) if c == 2 else None
        return w, trace, direct

    def at(p: int) -> int:
        return colors[p - 1]

    def check(out):
        bad = _unexpected(out)
        if bad:
            return bad
        w, trace, direct = out
        rec = {"gamma": w.gamma, "a": w.a, "ds": list(w.ds), "trace": trace}
        problems = []
        p = cube_problem(at, w.gamma, w.a, w.ds, (2, 2), 1, len(colors))
        if p:
            problems.append(f"extract: {p}")
        if not (w.ds[0] <= w1 and w.ds[1] % w1 == 0):
            problems.append(f"differences {w.ds} break the stage bounds for W_1 = {w1}")
        if [(t["stage"], t["block_size"], t["dstar"] * w1) for t in trace] != [(2, w1, w.ds[1])]:
            problems.append(f"trace {trace} does not match the witness")
        if c == 2:
            if direct is None:
                problems.append("find_cube found no 2x2 cube in a 27-cell stage-2 tower")
            else:
                rec["find_cube"] = {"gamma": direct.gamma, "a": direct.a, "ds": list(direct.ds)}
                p = cube_problem(at, direct.gamma, direct.a, direct.ds, (2, 2), 1, len(colors))
                if p:
                    problems.append(f"find_cube: {p}")
                elif (direct.a, direct.ds) > (w.a, w.ds):
                    problems.append("find_cube's least witness comes after the extracted one")
        return rec, problems

    return Job(label, run, check)


def build_tower_random(vw: ModuleType, rng: random.Random, scale: str) -> list[Job]:
    jobs = []
    for c, count in RANDOM_TOWERS[scale].items():
        size = (c ** (c + 1) + 1) * (c + 1)
        palette = range(1, c + 1)
        for i in range(count):
            colors = tuple(rng.choices(palette, k=size))
            jobs.append(_random_tower_job(vw, f"extract random c={c} #{i} ({size} cells)", c, colors))
    return jobs


WORKLOADS = {
    "exact": build_exact,
    "stream_search": build_stream_search,
    "tower_random": build_tower_random,
    "tower_structured": build_tower_structured,
}


def build(name: str, vw: ModuleType, seed: int, scale: str) -> list[Job]:
    """The workload's job list; the seed picks inputs and the job order."""
    rng = random.Random(f"{name}:{seed}")
    jobs = WORKLOADS[name](vw, rng, scale)
    if len({job.label for job in jobs}) != len(jobs):
        raise ValueError(f"duplicate job labels in workload {name}")
    rng.shuffle(jobs)
    return jobs
