"""Command-line frontend.

A run writes at most one JSON object, on one line, to stdout and one
human-readable summary line to stderr; --help and malformed arguments print
argparse's usage text instead. Exit codes: 0 success / witness found, 1 no
witness or failed verification, 2 input error, 3 resource limit. Input
errors, bare limit refusals and out of memory leave stdout empty.
VDW_MAX_CELLS and VDW_WNUMBER_LIMIT set default limits; explicit flags win.
VDW_WNUMBER_LIMIT is read only when a value needs the search.

Each subcommand returns (exit code, stdout object or None, stderr line) and
writes nothing; _run maps each refusal to the same triple and main writes it.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import (
    DomainError,
    Interval,
    LimitError,
    MaterializationLimitError,
    _check_digits,
    find_violation,
)
from .cubesearch import find_cube
from .extractor import extract
from .formats import (
    certificate_string,
    parse_oracle_spec,
    read_coloring,
    read_witness,
    witness_to_dict,
)
from .streamer import WindowFailureError, run_stream
from .tower import TowerUncomputableError, build_tower_interval, tower_params, tower_report
from .wnumbers import CapExceededError, SearchLimitError, cube_number, vdw_number


def _ints(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p]
    except ValueError as exc:
        raise DomainError(f"bad integer list {text!r}") from exc


def _cmd_wnumber(args: argparse.Namespace) -> tuple[int, dict | None, str]:
    result = vdw_number(args.k, args.c, args.limit)
    out = {
        "k": result.k,
        "c": result.c,
        "value": result.value,
        "certificate": certificate_string(result.certificate),
    }
    return 0, out, f"W({result.k},{result.c}) = {result.value}"


def _cmd_tower(args: argparse.Namespace) -> tuple[int, dict | None, str]:
    params = tower_params(args.k, args.c, args.n, search_limit=args.limit)
    report = tower_report(params)
    if args.start is not None:
        base = Interval(args.start, args.start + params.w(1) - 1)
        iv = build_tower_interval(base, args.n, params)
        _check_digits(iv.hi, "the interval end")
        report["interval"] = [str(iv.lo), str(iv.hi)]
    return 0, report, f"stage {args.n} tower has {params.size(args.n)} cells"


def _cmd_extract(args: argparse.Namespace) -> tuple[int, dict | None, str]:
    coloring = read_coloring(args.coloring)
    if args.c != coloring.c:
        raise DomainError(f"--c {args.c} does not match file palette {coloring.c}")
    trace: list | None = [] if args.trace else None
    ks = _ints(args.ks) if args.ks is not None else args.k
    params = tower_params(ks, args.c, args.n, search_limit=args.limit)
    base = Interval(coloring.domain.lo, coloring.domain.lo + params.w(1) - 1)
    witness = extract(coloring, base, args.n, params, trace=trace)
    out = witness_to_dict(witness)
    if trace is not None:
        out["trace"] = trace
    return 0, out, f"cube of color {witness.gamma} anchored at {witness.a}"


def _cmd_search(args: argparse.Namespace) -> tuple[int, dict | None, str]:
    coloring = read_coloring(args.coloring)
    ks = _ints(args.ks)
    bounds = _ints(args.bounds) if args.bounds else None
    if bounds is not None and len(bounds) != len(ks):
        raise DomainError(f"{len(bounds)} caps for {len(ks)} dimensions")
    witness = find_cube(coloring, ks, bounds, distinct=args.distinct)
    if witness is None:
        return 1, {"found": False}, "no monochromatic cube"
    return 0, witness_to_dict(witness), f"cube of color {witness.gamma} anchored at {witness.a}"


def _cmd_cube_number(args: argparse.Namespace) -> tuple[int, dict | None, str]:
    ks = _ints(args.ks)
    value = cube_number(ks, args.c, args.cap)
    out = {"ks": ks, "c": args.c, "value": value}
    return 0, out, f"cube number for sides {ks} with {args.c} colors = {value}"


def _cmd_stream(args: argparse.Namespace) -> tuple[int, dict | None, str]:
    oracle = parse_oracle_spec(args.oracle, args.c)
    ks = _ints(args.ks) if args.ks is not None else args.k
    caps = _ints(args.caps) if args.caps else None
    if caps is not None and len(caps) != args.depth:
        raise DomainError(f"{len(caps)} caps for depth {args.depth}")
    outcome = run_stream(
        oracle,
        ks,
        args.c,
        args.depth,
        args.windows,
        args.mode,
        window_size=args.window_size,
        caps=caps,
        skip_failures=args.skip_failures,
        search_limit=args.limit,
        max_cells=args.max_cells,
    )
    state = outcome.state
    note = (
        f"achieved depth {state.achieved_depth} of {args.depth} with color "
        f"{state.gamma}; survivors {[len(s) for s in state.survivor_sets]}"
    )
    return 0, outcome.report(), note


def _cmd_verify(args: argparse.Namespace) -> tuple[int, dict | None, str]:
    witness = read_witness(args.witness)
    if args.coloring:
        source = read_coloring(args.coloring)
    else:
        source = parse_oracle_spec(args.oracle, args.c)
    violation = find_violation(source, witness)
    if violation is None:
        return 0, {"verified": True}, "witness verified"
    position, color = violation
    _check_digits(position, "the first violating position")
    out = {"verified": False, "first_violation": {"position": position, "color": color}}
    return 1, out, f"position {position} has color {color}, not {witness.gamma}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vdwitness",
        description="Witnesses for monochromatic progressions and combinatorial cubes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wnumber", help="exact van der Waerden number with certificate")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=_cmd_wnumber)

    p = sub.add_parser("tower", help="stage parameters and tower geometry")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--start", type=int, default=None, help="base interval start")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=_cmd_tower)

    p = sub.add_parser("extract", help="monochromatic cube from a tower coloring file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int)
    group.add_argument("--ks", help="comma-separated per-stage side lengths")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--coloring", required=True)
    p.add_argument("--trace", action="store_true", help="include per-stage trace records")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("search", help="least monochromatic cube in a coloring file")
    p.add_argument("--ks", required=True)
    p.add_argument("--coloring", required=True)
    p.add_argument("--bounds", default=None, help="comma-separated difference caps")
    p.add_argument("--distinct", action="store_true", help="strictly increasing differences")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("cube-number", help="least N forcing a monochromatic cube")
    p.add_argument("--ks", required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--cap", type=int, required=True)
    p.set_defaults(func=_cmd_cube_number)

    p = sub.add_parser("stream", help="window stream over an infinite coloring")
    p.add_argument("--oracle", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int)
    group.add_argument("--ks")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--windows", type=int, required=True)
    p.add_argument("--mode", choices=["proof", "search"], required=True)
    p.add_argument("--window-size", type=int, default=None)
    p.add_argument("--caps", default=None)
    p.add_argument("--skip-failures", action="store_true")
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--max-cells", type=int, default=None)
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser("verify", help="check a witness against a coloring or oracle")
    p.add_argument("--witness", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--coloring")
    group.add_argument("--oracle")
    p.add_argument("--c", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    # last, so it closes every subcommand's help screen
    for p in sub.choices.values():
        p.add_argument("--threads", type=int, default=1, help="worker cap (advisory; results are thread-count independent)")
    return parser


def _run(args: argparse.Namespace) -> tuple[int, dict | None, str]:
    """The subcommand's (code, out, note), or its refusal's in their place."""
    try:
        if args.threads < 1:
            raise DomainError("--threads must be >= 1")
        return args.func(args)
    except DomainError as exc:
        return 2, None, str(exc)
    except TowerUncomputableError as exc:
        return 3, {"error": "tower uncomputable", "stage": exc.stage}, str(exc)
    except SearchLimitError as exc:
        out = {"error": "search limit exceeded", "k": exc.k, "c": exc.c, "limit": exc.limit}
        return 3, out, str(exc)
    except CapExceededError as exc:
        return 3, {"exceeds_cap": exc.cap}, str(exc)
    except MaterializationLimitError as exc:
        return 3, {"error": "materialization limit exceeded"}, str(exc)
    except LimitError as exc:
        return 3, None, str(exc)
    except WindowFailureError as exc:
        out = {"error": "window failure", "window": exc.m, "lo": exc.window.lo, "hi": exc.window.hi}
        return 1, out, str(exc)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    # serialising sits under the guard too: a result can be too large to print
    try:
        code, out, note = _run(args)
        text = "" if out is None else json.dumps(out, separators=(",", ":")) + "\n"
    except MemoryError:
        code, text, note = 3, "", "out of memory"
    sys.stdout.write(text)
    sys.stderr.write(note + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
