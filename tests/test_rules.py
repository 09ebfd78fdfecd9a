"""Each domain rule has one owning function, and every entry point that
checks the rule refuses through it, with the owner's message.

A refusal is traced to the function that raised it, so a second copy of a
rule fails here even when its wording matches the owner's.
"""

from types import CodeType

import pytest

from vdwitness import (
    ColorOracle,
    ConstantOracle,
    CubeWitness,
    DomainError,
    EventuallyPeriodicOracle,
    FiniteColoring,
    Interval,
    LimitError,
    MaterializationLimitError,
    PeriodicOracle,
    PrefixOracle,
    SeededRandomOracle,
    TowerParams,
    cube_number,
    cube_positions,
    extract,
    find_cube,
    materialize,
    run_stream,
    solve_window,
    tower_params,
    tower_report,
    vdw_number,
    vdw_value,
    verify_ap_free,
)
from vdwitness.core import _check_cells, _check_digits, _check_palette, _side_lengths
from vdwitness.formats import parse_color_list
from vdwitness.streamer import _check_mode
from vdwitness.tower import _stage_lengths

ONES = FiniteColoring(1, Interval(1, 3), (1, 1, 1))
PARAMS = tower_params(2, 2, 2)  # W = (3, 9): stages 1 and 2
TOWER = FiniteColoring(2, Interval(1, 27), (1, 2) * 13 + (1,))


def refusal(call, error=DomainError) -> tuple[str, CodeType]:
    """The message of the error that call raises, and the code of the
    function that raised it."""
    with pytest.raises(error) as excinfo:
        call()
    tb = excinfo.tb
    while tb.tb_next is not None:
        tb = tb.tb_next
    return str(excinfo.value), tb.tb_frame.f_code


@pytest.mark.parametrize(
    "call",
    [
        lambda: FiniteColoring(0, Interval(1, 1), (1,)),
        lambda: SeededRandomOracle(1, 0),
        lambda: tower_params(2, 0, 1),
        lambda: vdw_number(3, 0),
        lambda: vdw_value(3, 0),
        lambda: cube_number((2,), 0, 5),
    ],
    ids=["FiniteColoring", "SeededRandomOracle", "tower_params", "vdw_number",
         "vdw_value", "cube_number"],
)
def test_palette_size(call):
    assert refusal(call) == (
        "number of colors must be >= 1, got 0",
        _check_palette.__code__,
    )


class Threes(ColorOracle):
    c = 2

    def _color(self, p):
        return 3


@pytest.mark.parametrize(
    "call",
    [
        lambda: FiniteColoring(2, Interval(1, 2), (1, 3)),
        lambda: PeriodicOracle((1, 3), 2),
        lambda: EventuallyPeriodicOracle((3,), (1,), 2),
        lambda: PrefixOracle(FiniteColoring(3, Interval(1, 1), (3,)), 1, 2),
        lambda: extract(Threes(), Interval(1, 3), 2, PARAMS),
        lambda: run_stream(Threes(), 2, 2, 1, 1, "search", window_size=3),
        lambda: parse_color_list("1,0,2"),
    ],
    ids=["FiniteColoring", "PeriodicOracle", "EventuallyPeriodicOracle",
         "PrefixOracle", "extract", "search", "parse_color_list"],
)
def test_palette_colors(call):
    assert refusal(call) == ("colors must lie in [1, 2]", _check_palette.__code__)


@pytest.mark.parametrize(
    "call",
    [
        lambda: CubeWitness(1, 1, (1,), (1,)),
        lambda: find_cube(ONES, (1,)),
        lambda: cube_number((1,), 2, 5),
        lambda: tower_params(1, 2, 1),
        lambda: run_stream(ConstantOracle(1), 1, 1, 1, 1, "search", window_size=4),
        lambda: vdw_number(1, 2),
        lambda: verify_ap_free(ONES, 1),
    ],
    ids=["CubeWitness", "find_cube", "cube_number", "tower_params", "run_stream",
         "vdw_number", "verify_ap_free"],
)
def test_side_lengths(call):
    assert refusal(call) == (
        "side lengths must be >= 2, got 1",
        _side_lengths.__code__,
    )


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: tower_params((3, 2), 2, 2), "progression lengths must be nondecreasing"),
        (
            lambda: run_stream(ConstantOracle(1), (3, 2), 1, 2, 3, "search", window_size=8),
            "progression lengths must be nondecreasing",
        ),
        (lambda: tower_params((2, 2), 2, 3), "2 side lengths for 3 stages"),
        (
            lambda: run_stream(ConstantOracle(1), (2, 2), 1, 3, 3, "proof"),
            "2 side lengths for 3 stages",
        ),
    ],
    ids=["tower_params-order", "run_stream-order", "tower_params-count",
         "run_stream-count"],
)
def test_stage_lengths(call, message):
    assert refusal(call) == (message, _stage_lengths.__code__)


def test_print_bound():
    assert refusal(lambda: tower_report(tower_params(2, 5, 3)), LimitError) == (
        "W_3 has more than 4300 decimal digits",
        _check_digits.__code__,
    )


@pytest.mark.parametrize("m", [0, PARAMS.stages + 1])
@pytest.mark.parametrize(
    "call",
    [
        lambda m: PARAMS.w(m),
        lambda m: PARAMS.size(m),
        lambda m: extract(TOWER, Interval(1, 3), m, PARAMS),
    ],
    ids=["w", "size", "extract"],
)
def test_stage_range(call, m):
    assert refusal(lambda: call(m)) == (
        f"stage {m} outside [1, 2]",
        TowerParams._stage_index.__code__,
    )


@pytest.mark.parametrize(
    "call",
    [
        lambda: run_stream(ConstantOracle(1), 2, 1, 1, 1, "bogus"),
        lambda: solve_window(ConstantOracle(1), Interval(1, 3), 1, "bogus", ks=(2,)),
    ],
    ids=["run_stream", "solve_window"],
)
def test_stream_mode(call):
    assert refusal(call) == ("unknown mode 'bogus'", _check_mode.__code__)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: materialize(ConstantOracle(1), Interval(1, 11)),
            "the interval has 11 cells",
        ),
        (
            lambda: run_stream(ConstantOracle(1), 2, 1, 1, 1, "search", window_size=11),
            "the interval has 11 cells",
        ),
        (
            # stage 4 of the one-color tower: blocks 0 and 1 hold 8 cells each
            lambda: extract(ConstantOracle(1), Interval(1, 2), 4, tower_params(2, 1, 4)),
            "extraction would read 16 cells",
        ),
        (lambda: vdw_number(2, 11), "the W(2,11) certificate has 11 cells"),
        (
            lambda: cube_positions(CubeWitness(1, 1, (1, 2, 4, 8), (2, 2, 2, 2))),
            "a cube of 4 dimensions may have 16 cells",
        ),
    ],
    ids=["materialize", "search", "extract", "vdw_number", "cube_positions"],
)
def test_cell_cap(call, message, monkeypatch):
    monkeypatch.setenv("VDW_MAX_CELLS", "10")
    assert refusal(call, MaterializationLimitError) == (
        f"{message}, over the materialization limit 10",
        _check_cells.__code__,
    )


def stray_bytes(c: int, stray: int) -> PeriodicOracle:
    """A c-colour oracle whose batches are bytes: stray in the first cell
    of each batch, colour 1 in the others."""

    class Stray(PeriodicOracle):
        def _colors(self, lo, hi):
            return bytes([stray]) + b"\1" * (hi - lo)

    return Stray((1,), c)


@pytest.mark.parametrize("c, stray", [(2, 0), (2, 3), (255, 0), (300, 0)])
@pytest.mark.parametrize(
    "call",
    [
        lambda o: extract(o, Interval(1, o.c + 1), 2, tower_params(2, o.c, 2)),
        lambda o: run_stream(o, 2, o.c, 1, 1, "search", window_size=3),
    ],
    ids=["extract", "search"],
)
def test_palette_colors_of_byte_batches(call, c, stray):
    # a bytes batch is checked like any other, past a byte palette too
    assert refusal(lambda: call(stray_bytes(c, stray))) == (
        f"colors must lie in [1, {c}]",
        _check_palette.__code__,
    )


@pytest.mark.parametrize(
    "c, colors, message",
    [
        (2, b"\0\1", "colors must lie in [1, 2]"),
        (2, b"\1\3", "colors must lie in [1, 2]"),
        (300, b"\1\0", "colors must lie in [1, 300]"),
        (0, b"\1", "number of colors must be >= 1, got 0"),
    ],
    ids=["colour 0", "colour c + 1", "past a byte palette", "no palette"],
)
def test_palette_of_colors_given_as_bytes(c, colors, message):
    # colours given as bytes are checked as given, through the same owner
    call = lambda: FiniteColoring(c, Interval(1, len(colors)), colors)  # noqa: E731
    assert refusal(call) == (message, _check_palette.__code__)
