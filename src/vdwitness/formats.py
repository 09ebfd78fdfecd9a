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
    cube_positions,
)


def parse_color_list(text: str) -> tuple[int, ...]:
    """Colors from a digit string ("122") or a comma/space separated list ("1,2,2")."""
    text = text.strip()
    if not text:
        raise DomainError("empty color list")
    if "," in text or " " in text:
        parts = [p for p in text.replace(",", " ").split() if p]
    else:
        parts = list(text)
    try:
        colors = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise DomainError(f"bad color list {text!r}") from exc
    if min(colors) < 1:
        raise DomainError("colors must be >= 1")
    return colors


def parse_coloring_text(text: str) -> FiniteColoring:
    lines = text.splitlines()
    header = None
    body: list[str] = []
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if header is None:
            header = stripped
        else:
            body.append(stripped)
    if header is None:
        raise DomainError("empty coloring file")
    fields = dict()
    for part in header.split():
        if "=" not in part:
            raise DomainError(f"bad header field {part!r}")
        key, _, value = part.partition("=")
        try:
            fields[key] = int(value)
        except ValueError as exc:
            raise DomainError(f"bad header field {part!r}") from exc
    missing = {"c", "lo", "hi"} - set(fields)
    if missing:
        raise DomainError(f"header missing {sorted(missing)}")
    c, lo, hi = fields["c"], fields["lo"], fields["hi"]
    tokens: list[str] = []
    for line in body:
        tokens.extend(t for t in line.replace(",", " ").split() if t)
    try:
        colors = tuple(int(t) for t in tokens)
    except ValueError as exc:
        raise DomainError("coloring body must contain integers") from exc
    expected = hi - lo + 1
    if len(colors) != expected:
        raise DomainError(f"expected {expected} colors, found {len(colors)}")
    return FiniteColoring(c, Interval(lo, hi), colors)


def _read_text(path: str) -> str:
    """The contents of a UTF-8 text file; other bytes are a DomainError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path}: not UTF-8 text") from exc


def read_coloring(path: str) -> FiniteColoring:
    return parse_coloring_text(_read_text(path))


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
        try:
            gamma = int(arg)
        except ValueError as exc:
            raise DomainError(f"bad constant color {arg!r}") from exc
        return ConstantOracle(gamma, c)
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
        try:
            seed = int(arg)
        except ValueError as exc:
            raise DomainError(f"bad seed {arg!r}") from exc
        return SeededRandomOracle(seed, c)
    if kind == "file":
        path, colon, default_text = arg.partition(":")
        default = 1
        if colon:
            try:
                default = int(default_text)
            except ValueError as exc:
                raise DomainError(f"bad default color {default_text!r}") from exc
        return PrefixOracle(read_coloring(path), default, c)
    raise DomainError(f"unknown oracle kind {kind!r}")
