"""Command-line frontend.

Structured output is a single JSON object on stdout; human-readable summaries
go to stderr. Exit codes: 0 success / witness found, 1 no witness or failed
verification, 2 input error, 3 resource limit. VDW_MAX_CELLS and
VDW_WNUMBER_LIMIT set default limits; explicit flags win.
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


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")


def _note(message: str) -> None:
    sys.stderr.write(message + "\n")


def _ints(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p]
    except ValueError as exc:
        raise DomainError(f"bad integer list {text!r}") from exc


def _cmd_wnumber(args: argparse.Namespace) -> int:
    result = vdw_number(args.k, args.c, args.limit)
    _emit(
        {
            "k": result.k,
            "c": result.c,
            "value": result.value,
            "certificate": certificate_string(result.certificate),
        }
    )
    _note(f"W({result.k},{result.c}) = {result.value}")
    return 0


def _cmd_tower(args: argparse.Namespace) -> int:
    params = tower_params(args.k, args.c, args.n, search_limit=args.limit)
    report = tower_report(params)
    if args.start is not None:
        base = Interval(args.start, args.start + params.w(1) - 1)
        iv = build_tower_interval(base, args.n, params)
        _check_digits(iv.hi, "the interval end")
        report["interval"] = [str(iv.lo), str(iv.hi)]
    _emit(report)
    _note(f"stage {args.n} tower has {params.size(args.n)} cells")
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
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
    _emit(out)
    _note(f"cube of color {witness.gamma} anchored at {witness.a}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    coloring = read_coloring(args.coloring)
    ks = _ints(args.ks)
    bounds = _ints(args.bounds) if args.bounds else None
    if bounds is not None and len(bounds) != len(ks):
        raise DomainError(f"{len(bounds)} caps for {len(ks)} dimensions")
    witness = find_cube(coloring, ks, bounds, distinct=args.distinct)
    if witness is None:
        _emit({"found": False})
        _note("no monochromatic cube")
        return 1
    _emit(witness_to_dict(witness))
    _note(f"cube of color {witness.gamma} anchored at {witness.a}")
    return 0


def _cmd_cube_number(args: argparse.Namespace) -> int:
    ks = _ints(args.ks)
    value = cube_number(ks, args.c, args.cap)
    _emit({"ks": ks, "c": args.c, "value": value})
    _note(f"cube number for sides {ks} with {args.c} colors = {value}")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
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
    _emit(outcome.report())
    state = outcome.state
    _note(
        f"achieved depth {state.achieved_depth} of {args.depth} with color "
        f"{state.gamma}; survivors {[len(s) for s in state.survivor_sets]}"
    )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    witness = read_witness(args.witness)
    if args.coloring:
        source = read_coloring(args.coloring)
    else:
        source = parse_oracle_spec(args.oracle, args.c)
    violation = find_violation(source, witness)
    if violation is None:
        _emit({"verified": True})
        _note("witness verified")
        return 0
    position, color = violation
    _check_digits(position, "the first violating position")
    _emit({"verified": False, "first_violation": {"position": position, "color": color}})
    _note(f"position {position} has color {color}, not {witness.gamma}")
    return 1


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--threads", type=int, default=1, help="worker cap (advisory; results are thread-count independent)")


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
    _add_common(p)
    p.set_defaults(func=_cmd_wnumber)

    p = sub.add_parser("tower", help="stage parameters and tower geometry")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--start", type=int, default=None, help="base interval start")
    p.add_argument("--limit", type=int, default=None)
    _add_common(p)
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
    _add_common(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("search", help="least monochromatic cube in a coloring file")
    p.add_argument("--ks", required=True)
    p.add_argument("--coloring", required=True)
    p.add_argument("--bounds", default=None, help="comma-separated difference caps")
    p.add_argument("--distinct", action="store_true", help="strictly increasing differences")
    _add_common(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("cube-number", help="least N forcing a monochromatic cube")
    p.add_argument("--ks", required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--cap", type=int, required=True)
    _add_common(p)
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
    _add_common(p)
    p.set_defaults(func=_cmd_stream)

    p = sub.add_parser("verify", help="check a witness against a coloring or oracle")
    p.add_argument("--witness", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--coloring")
    group.add_argument("--oracle")
    p.add_argument("--c", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code in (0, None):
            return 0
        return 2
    try:
        if args.threads < 1:
            raise DomainError("--threads must be >= 1")
        return args.func(args)
    except DomainError as exc:
        _note(str(exc))
        return 2
    except TowerUncomputableError as exc:
        _emit({"error": "tower uncomputable", "stage": exc.stage})
        _note(str(exc))
        return 3
    except SearchLimitError as exc:
        _emit({"error": "search limit exceeded", "k": exc.k, "c": exc.c, "limit": exc.limit})
        _note(str(exc))
        return 3
    except CapExceededError as exc:
        _emit({"exceeds_cap": exc.cap})
        _note(str(exc))
        return 3
    except MaterializationLimitError as exc:
        _emit({"error": "materialization limit exceeded"})
        _note(str(exc))
        return 3
    except LimitError as exc:
        _note(str(exc))
        return 3
    except MemoryError:
        _note("out of memory")
        return 3
    except WindowFailureError as exc:
        _emit(
            {
                "error": "window failure",
                "window": exc.m,
                "lo": exc.window.lo,
                "hi": exc.window.hi,
            }
        )
        _note(str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
