"""External formats: coloring files, witness JSON objects, oracle spec strings.

Coloring file: a header line `c=<int> lo=<int> hi=<int>` followed by exactly
hi-lo+1 colors separated by whitespace or commas.

Witness JSON: {"gamma": g, "a": a, "ds": [...], "ks": [...], "positions": [...]}
with positions always sorted; on input, a present positions list is
cross-checked against the expansion of (a, ds, ks).

Oracle specs: constant:G | periodic:PATTERN | evperiodic:PREFIX/PATTERN |
thue-morse | random:SEED | file:PATH[:DEFAULT]. Patterns are digit strings
for palettes up to 9 colors, comma-separated integers otherwise.
"""

from __future__ import annotations

import json

from .core import (
    ColorOracle,
    ConstantOracle,
    CubeWitness,
    DomainError,
    EventuallyPeriodicOracle,
    FiniteColoring,
    Interval,
    PeriodicOracle,
    PrefixOracle,
    SeededRandomOracle,
    ThueMorseOracle,
    _check_palette,
    cube_positions,
)


def parse_color_list(text: str) -> tuple[int, ...]:
    """Colors from a digit string ("122") or a comma/space separated list ("1,2,2")."""
    text = text.strip()
    if not text:
        raise DomainError("empty color list")
    if "," in text or " " in text:
        parts = text.replace(",", " ").split()
    else:
        parts = list(text)
    try:
        colors = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise DomainError(f"bad color list {text!r}") from exc
    _check_palette(None, colors)
    return colors


def parse_coloring_text(text: str) -> FiniteColoring:
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line and not line.startswith("#")]
    if not lines:
        raise DomainError("empty coloring file")
    fields = dict()
    for part in lines[0].split():
        key, _, value = part.partition("=")  # no "=" leaves value empty
        try:
            fields[key] = int(value)
        except ValueError as exc:
            raise DomainError(f"bad header field {part!r}") from exc
    missing = {"c", "lo", "hi"} - set(fields)
    if missing:
        raise DomainError(f"header missing {sorted(missing)}")
    c, lo, hi = fields["c"], fields["lo"], fields["hi"]
    tokens = " ".join(lines[1:]).replace(",", " ").split()
    try:
        colors = tuple(int(t) for t in tokens)
    except ValueError as exc:
        raise DomainError("coloring body must contain integers") from exc
    expected = hi - lo + 1
    if len(colors) != expected:
        raise DomainError(f"expected {expected} colors, found {len(colors)}")
    return FiniteColoring(c, Interval(lo, hi), colors)


def _read_text(path: str) -> str:
    """The contents of a UTF-8 text file; any failure to open or decode it is
    a one-line DomainError naming the file, quoted if it holds a character
    that does not print (a newline, say)."""
    shown = path if path.isprintable() else repr(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError as exc:
        raise DomainError(f"missing file: {shown}") from exc
    except IsADirectoryError as exc:
        raise DomainError(f"not a file: {shown}") from exc
    except OSError as exc:
        raise DomainError(f"{shown}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise DomainError(f"{shown}: not UTF-8 text") from exc
    except ValueError as exc:  # a NUL in the path
        raise DomainError(f"{shown}: {exc}") from exc


def read_coloring(path: str) -> FiniteColoring:
    return parse_coloring_text(_read_text(path))


def read_witness(path: str) -> CubeWitness:
    text = _read_text(path)
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad syntax, too many digits, too deep
        raise DomainError(f"bad witness JSON: {exc}") from exc
    return witness_from_dict(data)


def coloring_to_text(coloring: FiniteColoring) -> str:
    header = f"c={coloring.c} lo={coloring.domain.lo} hi={coloring.domain.hi}"
    body = " ".join(str(x) for x in coloring.colors)
    return f"{header}\n{body}\n"


def write_coloring(coloring: FiniteColoring, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(coloring_to_text(coloring))


def witness_to_dict(w: CubeWitness) -> dict:
    return {
        "gamma": w.gamma,
        "a": w.a,
        "ds": list(w.ds),
        "ks": list(w.ks),
        "positions": list(cube_positions(w)),
    }


def witness_from_dict(data: dict) -> CubeWitness:
    try:
        w = CubeWitness(
            gamma=int(data["gamma"]),
            a=int(data["a"]),
            ds=tuple(int(x) for x in data["ds"]),
            ks=tuple(int(x) for x in data["ks"]),
        )
        stated = tuple(int(x) for x in data["positions"]) if "positions" in data else None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"bad witness object: {exc}") from exc
    if stated is not None and stated != cube_positions(w):
        raise DomainError("stated positions do not match the cube expansion")
    return w


def certificate_string(coloring: FiniteColoring) -> str:
    """Digit string for palettes up to 9 colors, comma-separated otherwise."""
    if coloring.c <= 9:
        return "".join(str(x) for x in coloring.colors)
    return ",".join(str(x) for x in coloring.colors)


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise DomainError(f"bad {what} {text!r}") from exc


def parse_oracle_spec(spec: str, c: int | None = None) -> ColorOracle:
    """Build an oracle from its flat spec string; c overrides the inferred palette size."""
    spec = spec.strip()
    if spec == "thue-morse":
        if c is not None and c != 2:
            raise DomainError("thue-morse uses exactly 2 colors")
        return ThueMorseOracle()
    kind, sep, arg = spec.partition(":")
    if not sep:
        raise DomainError(f"bad oracle spec {spec!r}")
    if kind == "constant":
        return ConstantOracle(_int(arg, "constant color"), c)
    if kind == "periodic":
        return PeriodicOracle(parse_color_list(arg), c)
    if kind == "evperiodic":
        prefix_text, slash, pattern_text = arg.partition("/")
        if not slash:
            raise DomainError("evperiodic needs PREFIX/PATTERN")
        prefix = parse_color_list(prefix_text) if prefix_text else ()
        return EventuallyPeriodicOracle(prefix, parse_color_list(pattern_text), c)
    if kind == "random":
        if c is None:
            raise DomainError("random oracle needs an explicit number of colors")
        return SeededRandomOracle(_int(arg, "seed"), c)
    if kind == "file":
        path, colon, default_text = arg.partition(":")
        default = _int(default_text, "default color") if colon else 1
        return PrefixOracle(read_coloring(path), default, c)
    raise DomainError(f"unknown oracle kind {kind!r}")
