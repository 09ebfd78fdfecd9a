"""Parameter sequences and the recursively concatenated interval tower.

Stage sizes follow W_1 = W(k_1, c), c_m = c^(W_m...W_1), W_{m+1} = W(k_{m+1}, c_m).
The stage-n tower over a base interval I of size W_1 is the interval obtained
by concatenating W_{m+1} shifted copies of the stage-m tower, so its size is
the product W_n...W_1. All arithmetic is exact; color counts c_m explode
double-exponentially and are guarded by a bit budget rather than silently
truncated.

Index conventions: stages and interval elements are 1-based, block indices
inside a stage are 0-based (block i is the translate by i times the block
size). Every operation below states which side of that boundary it is on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import DomainError, Interval, LimitError, translate
from .wnumbers import SearchLimitError, _check_digits, _show, vdw_value

MAX_PALETTE_BITS = 1 << 22


class TowerUncomputableError(LimitError):
    """Some stage needs a W(k, c_m) or a c_m beyond the configured limits."""

    def __init__(self, stage: int, reason: str):
        super().__init__(f"tower uncomputable at stage {stage}: {reason}")
        self.stage = stage


@dataclass(frozen=True)
class TowerParams:
    """Exact stage parameters: per-stage progression lengths, W_m, c_m, and sizes.

    W[m-1] is W_m, C[m-1] is c_m (compressed palette bound after stage m),
    sizes[m-1] is W_m*...*W_1. C has one entry fewer than W: the last stage's
    palette bound is never needed.
    """

    c: int
    ks: tuple[int, ...]
    W: tuple[int, ...]
    C: tuple[int, ...]
    sizes: tuple[int, ...]

    @property
    def stages(self) -> int:
        return len(self.W)

    def w(self, m: int) -> int:
        if not 1 <= m <= self.stages:
            raise DomainError(f"stage {m} outside [1, {self.stages}]")
        return self.W[m - 1]

    def size(self, m: int) -> int:
        if not 1 <= m <= self.stages:
            raise DomainError(f"stage {m} outside [1, {self.stages}]")
        return self.sizes[m - 1]


def _stage_w(k: int, c: int, stage: int, search_limit: int | None) -> int:
    try:
        return vdw_value(k, c, search_limit)
    except SearchLimitError as exc:
        raise TowerUncomputableError(
            stage, f"W({k},{_show(c)}) exceeds the search limit {exc.limit}"
        ) from exc


def _stage_lengths(ks: int | Sequence[int], n: int) -> tuple[int, ...]:
    """The n progression lengths k_1 <= ... <= k_n, each >= 2, from one
    length for every stage or n per-stage lengths."""
    ks = (ks,) * n if isinstance(ks, int) else tuple(ks)
    if len(ks) != n:
        raise DomainError(f"{len(ks)} side lengths for {n} stages")
    if min(ks) < 2:
        raise DomainError(f"progression lengths must be >= 2, got {min(ks)}")
    if any(ks[i] > ks[i + 1] for i in range(n - 1)):
        raise DomainError("progression lengths must be nondecreasing")
    return ks


def tower_params(
    ks: int | Sequence[int],
    c: int,
    n: int,
    *,
    search_limit: int | None = None,
) -> TowerParams:
    """Stage parameters for n stages; ks is one progression length for every
    stage or n per-stage lengths (nondecreasing, each >= 2)."""
    if n < 1:
        raise DomainError(f"need at least one stage, got {n}")
    ks = _stage_lengths(ks, n)
    if c < 1:
        raise DomainError(f"number of colors must be >= 1, got {c}")
    W: list[int] = [_stage_w(ks[0], c, 1, search_limit)]
    C: list[int] = []
    sizes: list[int] = [W[0]]
    for m in range(2, n + 1):
        if c == 1:
            cm = 1
        else:
            # c_m = c^(W_{m-1}...W_1); refuse to materialize beyond the bit budget.
            if sizes[-1] * (c.bit_length() - 1) > MAX_PALETTE_BITS:
                raise TowerUncomputableError(
                    m, f"palette bound c^{sizes[-1]} exceeds {MAX_PALETTE_BITS} bits"
                )
            cm = c ** sizes[-1]
        C.append(cm)
        W.append(_stage_w(ks[m - 1], cm, m, search_limit))
        sizes.append(W[-1] * sizes[-1])
    return TowerParams(c, ks, tuple(W), tuple(C), tuple(sizes))


def build_tower_interval(I: Interval, n: int, params: TowerParams) -> Interval:
    """The stage-n tower over base I: the interval of size W_n...W_1 starting at I.lo."""
    if I.size() != params.w(1):
        raise DomainError(
            f"base interval has {I.size()} cells, stage 1 needs {params.w(1)}"
        )
    return Interval(I.lo, I.lo + params.size(n) - 1)


def block(I: Interval, n: int, params: TowerParams, i: int) -> Interval:
    """Block i (0-based) of the stage-(n+1) tower: the stage-n tower shifted by i*sizes[n].

    Blocks 0 .. W_{n+1}-1 partition the stage-(n+1) tower.
    """
    num_blocks = params.w(n + 1)
    if not 0 <= i <= num_blocks - 1:
        raise DomainError(f"block index {i} outside [0, {num_blocks - 1}]")
    return translate(build_tower_interval(I, n, params), i * params.size(n))


def check_translation_identity(I: Interval, n: int, params: TowerParams, b: int) -> bool:
    """Shifting the tower equals building the tower over the shifted base."""
    lhs = translate(build_tower_interval(I, n, params), b)
    rhs = build_tower_interval(translate(I, b), n, params)
    return lhs == rhs


def tower_report(params: TowerParams) -> dict:
    """JSON-ready report; stage numbers serialized as decimal strings (they
    overflow). Raises LimitError for a number of more than 4300 digits."""
    report: dict = {}
    if len(set(params.ks)) == 1:
        report["k"] = params.ks[0]
    else:
        report["ks"] = list(params.ks)
    report["c"] = params.c
    report["n"] = params.stages
    labels = ("W_{}", "c_{}", "the stage-{} size")
    # Check every number before converting any: conversion time grows with
    # the square of the digit count.
    for label, column in zip(labels, (params.W, params.C, params.sizes)):
        for m, x in enumerate(column, 1):
            _check_digits(x, label.format(m))
    report["W"] = [str(w) for w in params.W]
    report["C"] = [str(x) for x in params.C]
    report["sizes"] = [str(s) for s in params.sizes]
    return report
