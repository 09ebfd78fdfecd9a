"""Window streams over infinite colorings and pigeonhole stabilization.

A run harvests one monochromatic cube witness per window and then fixes a
color and a difference sequence shared by infinitely many windows in the
idealized setting -- here, by maximum-multiplicity selection with
deterministic tie-breaks. Survivor sets are nested: S_0 keeps the windows
of the majority color, and S_t refines S_{t-1} to the windows agreeing on
the t-th difference. The reported anchor at depth t comes from the earliest
surviving window, so every depth-t cube is a sub-cube of a single window's
witness and must verify against the oracle directly.

Windows are consecutive in both modes, from position 1 on, and differ only
in size: a search window has window_size cells, and proof window m is the
tower of stage j = _proof_stage(m), with W_1 * ... * W_j cells. Search mode
solves each window by direct cube search under per-dimension caps. Proof
mode extracts over the tower whose base is the window's first W_1 cells.
In both modes window m is solved at dimension min(available, depth), so
stages deeper than the requested depth are never read. Search mode colors
a window only as far as the cube search's mask segments reach, or without
caps on every dimension its prefix, 256 cells doubled while the least cube
leaves it, though the cell limit still counts every cell of the window.
Proof mode reads the oracle only at the blocks the extraction's scan looks
at, so a window far larger than the cell limit is solved when its least
progression of equal blocks lies near its start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    ColorOracle,
    CubeWitness,
    DomainError,
    Interval,
    InvariantViolationError,
    _check_cells,
    _first_violation,
    _reader,
    cube_positions,
    max_cells_limit,
)
from .cubesearch import _check_caps, _least_cube
from .extractor import extract
from .tower import TowerParams, _stage_lengths, tower_params

PROOF = "proof"
SEARCH = "search"


class WindowFailureError(RuntimeError):
    """A window produced no witness; the stream cannot continue soundly."""

    def __init__(self, m: int, window: Interval):
        super().__init__(
            f"window {m} = [{window.lo}, {window.hi}] yielded no witness"
        )
        self.m = m
        self.window = window


@dataclass(frozen=True)
class WindowWitness:
    """One window's monochromatic cube: anchor e, differences ls, color gamma.

    The number of differences equals the dimension the window was solved at,
    which never exceeds the window index."""

    m: int
    e: int
    ls: tuple[int, ...]
    gamma: int
    window: Interval

    @property
    def dim(self) -> int:
        return len(self.ls)


@dataclass(frozen=True)
class StreamState:
    """Stabilized witness stream: nested survivor sets and the fixed color and
    differences they agree on.

    survivor_sets[t] is S_t as a sorted tuple of window indices; sources[t-1]
    is min S_t and anchors[t-1] the corresponding window anchor. The achieved
    depth is len(ds) and can fall short of the request when a survivor set
    runs empty -- that is data, not an error."""

    witnesses: tuple[WindowWitness, ...]
    survivor_sets: tuple[tuple[int, ...], ...]
    gamma: int
    ds: tuple[int, ...]
    anchors: tuple[int, ...]
    sources: tuple[int, ...]

    @property
    def achieved_depth(self) -> int:
        return len(self.ds)


@dataclass(frozen=True)
class DepthRecord:
    n: int
    a: int
    s: int
    positions: tuple[int, ...]
    verified: bool


@dataclass(frozen=True)
class StreamOutcome:
    mode: str
    state: StreamState
    depths: tuple[DepthRecord, ...]
    skipped: tuple[int, ...]

    @property
    def windows(self) -> int:
        return len(self.state.witnesses) + len(self.skipped)

    @property
    def conforming(self) -> bool:
        return not self.skipped

    def report(self) -> dict:
        return {
            "mode": self.mode,
            "gamma": self.state.gamma,
            "ds": list(self.state.ds),
            "depths": [
                {
                    "n": r.n,
                    "a": r.a,
                    "s": r.s,
                    "positions": list(r.positions),
                    "verified": r.verified,
                }
                for r in self.depths
            ],
            "survivor_sizes": [len(s) for s in self.state.survivor_sets],
            "windows": self.windows,
            "conforming": self.conforming,
        }


def _check_mode(mode: str) -> None:
    """Refuse any mode but PROOF and SEARCH."""
    if mode not in (PROOF, SEARCH):
        raise DomainError(f"unknown mode {mode!r}")


def _proof_stage(m: int) -> int:
    """The stage of proof window m, max(1, m - 1): window m is that stage's
    tower, it is solved at no more than that many dimensions, and a stream's
    tower reaches the stage of its last window, or the depth if deeper."""
    return max(1, m - 1)


def solve_window(
    oracle: ColorOracle,
    window: Interval,
    m: int,
    mode: str,
    *,
    ks: tuple[int, ...],
    params: TowerParams | None = None,
    caps: Sequence[int] | None = None,
    max_cells: int | None = None,
) -> WindowWitness:
    """Solve one window at dimension min(available, len(ks)), where a search
    window has m dimensions available and a proof window _proof_stage(m).

    Proof mode (params required) runs the block-pattern extraction over
    the dimension-deep prefix of the tower over the window's base, its first
    W_1 cells, reading from the oracle only the blocks its scan looks at;
    max_cells caps the cells read. Search mode refuses a window of more
    than max_cells cells, as materialize does, and runs the direct cube
    search over it under the caps, coloring its cells from the oracle only
    as far as the search reaches. Raises WindowFailureError when search
    mode finds nothing.
    """
    _check_mode(mode)
    dim = min(m if mode == SEARCH else _proof_stage(m), len(ks))
    if mode == PROOF:
        if params is None:
            raise DomainError("proof mode needs tower parameters")
        base = Interval(window.lo, window.lo + params.w(1) - 1)
        w = extract(oracle, base, dim, params, max_cells=max_cells)
    else:
        limit = max_cells_limit(max_cells)
        _check_cells("the interval has", window.size(), limit)
        read = _reader(oracle, window.lo, max_cells, limit=limit)
        w = _least_cube(read, window, ks[:dim], caps, False)
        if w is None:
            raise WindowFailureError(m, window)
    if w.a < window.lo or w.max_position() > window.hi:
        raise InvariantViolationError(
            f"window {m} witness escapes [{window.lo}, {window.hi}]"
        )
    return WindowWitness(m, w.a, w.ds, w.gamma, window)


def stabilize(witnesses: Sequence[WindowWitness], depth: int) -> StreamState:
    """Nested maximum-multiplicity selection over a finite witness stream.

    S_0 keeps the most common witness color (ties to the smaller color); S_t
    keeps, among surviving windows that carry a t-th difference, the most
    common value of it (ties to the smaller value). Selection stops at the
    first empty candidate pool; the achieved depth is however far it got.
    """
    witnesses = tuple(witnesses)
    if not witnesses:
        raise DomainError("cannot stabilize an empty witness stream")
    if depth < 0:
        raise DomainError(f"depth must be >= 0, got {depth}")
    by_index = {w.m: w for w in witnesses}
    if len(by_index) != len(witnesses):
        raise DomainError("duplicate window indices in witness stream")

    def majority(values: list[int]) -> int:
        # The most frequent value, ties to the smaller.
        counts: dict[int, int] = {}
        for value in values:
            counts[value] = counts.get(value, 0) + 1
        return min(counts, key=lambda v: (-counts[v], v))

    gamma = majority([w.gamma for w in witnesses])
    survivors = tuple(sorted(w.m for w in witnesses if w.gamma == gamma))
    sets = [survivors]
    ds: list[int] = []
    for t in range(1, depth + 1):
        pool = [m for m in sets[-1] if by_index[m].dim >= t]
        if not pool:
            break
        value = majority([by_index[m].ls[t - 1] for m in pool])
        sets.append(tuple(m for m in pool if by_index[m].ls[t - 1] == value))
        ds.append(value)
    sources = tuple(s[0] for s in sets[1:])
    anchors = tuple(by_index[s].e for s in sources)
    return StreamState(
        witnesses=witnesses,
        survivor_sets=tuple(sets),
        gamma=gamma,
        ds=tuple(ds),
        anchors=anchors,
        sources=sources,
    )


def run_stream(
    oracle: ColorOracle,
    ks: int | Sequence[int],
    c: int,
    depth: int,
    windows: int,
    mode: str,
    *,
    window_size: int | None = None,
    caps: Sequence[int] | None = None,
    skip_failures: bool = False,
    search_limit: int | None = None,
    max_cells: int | None = None,
) -> StreamOutcome:
    """Drive a full stream: build windows, solve each, stabilize, re-verify.

    ks is one uniform side length or one length per depth (nondecreasing,
    each >= 2, in both modes).
    Every reported depth is re-verified against the oracle positionwise, so
    a successful outcome carries its own evidence.
    """
    if depth < 1:
        raise DomainError(f"depth must be >= 1, got {depth}")
    if windows < depth:
        raise DomainError(f"{windows} windows cannot reach depth {depth}")
    ks_seq = _stage_lengths(ks, depth)
    if oracle.c != c:
        raise DomainError(f"oracle has {oracle.c} colors, expected {c}")
    caps = _check_caps(caps)
    _check_mode(mode)
    if mode == SEARCH and (window_size is None or window_size < 1):
        raise DomainError("search mode needs a window size >= 1")

    params: TowerParams | None = None
    if mode == PROOF:
        # Stages past the depth only size windows; pad their lengths with
        # the last one, which keeps them nondecreasing.
        stages = max(_proof_stage(windows), depth)
        padded = ks_seq + (ks_seq[-1],) * (stages - depth)
        params = tower_params(padded, c, stages, search_limit=search_limit)
    # every window and every depth reads and expands under this one limit
    limit = max_cells_limit(max_cells)

    witnesses: list[WindowWitness] = []
    skipped: list[int] = []
    hi = 0
    for m in range(1, windows + 1):
        size = window_size if mode == SEARCH else params.size(_proof_stage(m))
        window = Interval(hi + 1, hi + size)
        hi = window.hi
        try:
            witnesses.append(
                solve_window(
                    oracle,
                    window,
                    m,
                    mode,
                    ks=ks_seq,
                    params=params,
                    caps=caps,
                    max_cells=limit,
                )
            )
        except WindowFailureError:
            if not skip_failures:
                raise
            skipped.append(m)
    if not witnesses:
        raise WindowFailureError(windows, window)

    state = stabilize(witnesses, depth)
    records = []
    for t in range(1, state.achieved_depth + 1):
        w = CubeWitness(state.gamma, state.anchors[t - 1], state.ds[:t], ks_seq[:t])
        positions = cube_positions(w, max_cells=limit)
        records.append(
            DepthRecord(
                n=t,
                a=state.anchors[t - 1],
                s=state.sources[t - 1],
                positions=positions,
                verified=_first_violation(oracle, w, positions, limit) is None,
            )
        )
    return StreamOutcome(
        mode=mode,
        state=state,
        depths=tuple(records),
        skipped=tuple(skipped),
    )
