import random
import time
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdwitness import (
    DomainError,
    FiniteColoring,
    Interval,
    MaterializationLimitError,
    SearchLimitError,
    TowerUncomputableError,
    find_cube,
    tower_params,
    vdw_number,
    vdw_value,
    verify_ap_free,
)
from vdwitness import wnumbers
from vdwitness.extractor import _least_ap
from vdwitness.wnumbers import _avoid, _cube_tails, _fire, _forward, _pack, _plan, _widen
from bruteforce import (
    all_colorings,
    expand_cube,
    greedy_avoiding,
    has_mono_ap,
    least_mono_ap,
    longest_avoiding,
)


def find_ap(coloring: FiniteColoring, k: int) -> tuple[int, int] | None:
    w = find_cube(coloring, (k,))
    return None if w is None else (w.a, w.ds[0])


def coloring_of(text: str, c: int) -> FiniteColoring:
    colors = tuple(int(x) for x in text)
    return FiniteColoring(c, Interval(1, len(colors)), colors)


class TestClosedForms:
    def test_two_term_progressions(self):
        for c in range(1, 65):
            r = vdw_number(2, c)
            assert r.value == c + 1
            assert verify_ap_free(r.certificate, 2)

    def test_single_color(self):
        for k in range(2, 9):
            r = vdw_number(k, 1)
            assert r.value == k
            assert r.certificate.colors == (1,) * (k - 1)

    def test_search_agrees_with_closed_form(self):
        for c in range(1, 7):
            reached, best_len, _ = _avoid((2,), c, c + 4)
            assert not reached and best_len + 1 == c + 1

    def test_certificate_over_the_cell_limit_is_refused(self, monkeypatch):
        monkeypatch.setenv("VDW_MAX_CELLS", "100")
        assert vdw_number(2, 100).certificate.colors == tuple(range(1, 101))
        assert vdw_number(101, 1).certificate.colors == (1,) * 100
        with pytest.raises(MaterializationLimitError, match="101 cells"):
            vdw_number(2, 101)
        with pytest.raises(MaterializationLimitError, match="101 cells"):
            vdw_number(102, 1)
        # the value alone builds no certificate and stays unlimited
        assert vdw_value(2, 10**6) == 10**6 + 1

    def test_huge_certificate_refused_without_building_it(self):
        start = time.perf_counter()
        with pytest.raises(MaterializationLimitError, match="<5001-digit number> cells"):
            vdw_number(2, 10**5000)
        assert time.perf_counter() - start < 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            vdw_number(1, 2)
        with pytest.raises(DomainError):
            vdw_number(3, 0)

    def test_closed_forms_never_read_the_search_limit(self, monkeypatch):
        monkeypatch.setenv("VDW_WNUMBER_LIMIT", "bogus")
        assert vdw_number(2, 5).value == 6
        assert vdw_number(5, 1).value == 5
        assert vdw_value(2, 10**6) == 10**6 + 1
        message = "VDW_WNUMBER_LIMIT is not an integer: 'bogus'"
        for resolve in (vdw_number, vdw_value):
            with pytest.raises(DomainError) as exc:
                resolve(3, 2)
            assert str(exc.value) == message
        # an explicit limit wins over the environment
        assert vdw_number(3, 2, 64).value == 9


class TestSmallExactValues:
    def test_w32(self):
        r = vdw_number(3, 2, 64)
        assert r.value == 9
        assert r.certificate.colors == (1, 1, 2, 2, 1, 1, 2, 2)
        assert verify_ap_free(r.certificate, 3)

    def test_w32_by_naive_enumeration(self):
        # an AP-free coloring of [1,8] exists; none of [1,9] does
        assert any(not has_mono_ap(cl, 3) for cl in all_colorings(8, 2))
        assert all(has_mono_ap(cl, 3) for cl in all_colorings(9, 2))

    def test_w33_and_w42(self):
        r33 = vdw_number(3, 3)
        assert r33.value == 27
        assert verify_ap_free(r33.certificate, 3)
        r42 = vdw_number(4, 2)
        assert r42.value == 35
        assert verify_ap_free(r42.certificate, 4)

    def test_monotonicity(self):
        assert vdw_number(3, 1).value <= vdw_number(3, 2).value <= vdw_number(3, 3).value
        assert vdw_number(2, 2).value <= vdw_number(3, 2).value <= vdw_number(4, 2).value

    def test_certificates_byte_for_byte(self):
        r42 = vdw_number(4, 2, use_cache=False)
        assert "".join(map(str, r42.certificate.colors)) == "1121112221211211122212112111222122"
        r33 = vdw_number(3, 3, use_cache=False)
        assert "".join(map(str, r33.certificate.colors)) == "11221123233131121223133232"

    def test_huge_limit_sizes_nothing_up_front(self):
        start = time.perf_counter()
        assert vdw_number(3, 2, 10**6, use_cache=False).value == 9
        assert time.perf_counter() - start < 1.0

    def test_search_limit_names_a_huge_palette_by_its_digits(self):
        c = 5**93756  # 65533 decimal digits, past CPython's int-to-str limit
        assert str(SearchLimitError(3, c, 128)).startswith("W(3,<65533-digit number>) not resolved")
        assert str(SearchLimitError(3, 10**4300 - 1, 128)).startswith(f"W(3,{'9' * 4300}) ")
        # the same palette as a tower's stage-3 palette 5^(W_1 W_2), where
        # W_1 = W(2, 5) = 6 and W_2 = W(2, 5^6) = 15626
        with pytest.raises(TowerUncomputableError) as exc:
            tower_params((2, 2, 3), 5, 3)
        assert str(exc.value) == (
            "tower uncomputable at stage 3: W(3,<65533-digit number>) "
            "exceeds the search limit 128"
        )

    def test_search_limit(self):
        with pytest.raises(SearchLimitError):
            vdw_number(3, 2, 8)
        with pytest.raises(SearchLimitError):
            vdw_number(3, 3, 20)
        # limit exactly one past the extremal length resolves
        assert vdw_number(3, 2, 9, use_cache=False).value == 9

    def test_a_value_past_the_limit_is_refused(self):
        message = "W(3,3) not resolved within 26 positions: an AP-free coloring of that length exists"
        for resolve in (
            lambda: vdw_number(3, 3, 26),
            lambda: vdw_value(3, 3, 26),
            lambda: vdw_number(3, 3, 26, use_cache=False),
        ):
            with pytest.raises(SearchLimitError) as exc:
                resolve()
            assert exc.value.limit == 26
            assert str(exc.value) == message
        assert vdw_number(3, 3, 27).certificate == vdw_number(3, 3).certificate

    def test_every_call_searches_afresh(self, monkeypatch):
        searches = []
        avoid = wnumbers._avoid

        def counted(*args):
            searches.append(args)
            return avoid(*args)

        monkeypatch.setattr(wnumbers, "_avoid", counted)
        numbers = [vdw_number(3, 3) for _ in range(2)]
        values = [vdw_value(3, 3) for _ in range(2)]
        towers = [tower_params(3, 3, 1) for _ in range(2)]
        assert len(searches) == 6
        assert numbers[0] == numbers[1] and numbers[0].value == 27
        assert values == [27, 27]
        assert towers[0] == towers[1] and towers[0].W == (27,)
        assert [vdw_number(3, 3, use_cache=False) for _ in range(2)] == numbers
        assert len(searches) == 8
        assert set(searches) == {((3,), 3, 128)}


class TestVerifyApFree:
    def test_examples(self):
        assert verify_ap_free(coloring_of("11221122", 2), 3)
        assert not verify_ap_free(coloring_of("111", 2), 3)
        assert not verify_ap_free(coloring_of("121212121", 2), 3)

    def test_agrees_with_naive(self):
        rng = random.Random(3)
        for _ in range(400):
            n = rng.randint(1, 14)
            k = rng.randint(2, 4)
            colors = tuple(rng.randint(1, 2) for _ in range(n))
            col = FiniteColoring(2, Interval(1, n), colors)
            assert verify_ap_free(col, k) == (not has_mono_ap(colors, k))


class TestFindAp:
    def test_examples(self):
        assert find_ap(coloring_of("111", 2), 3) == (1, 1)
        assert find_ap(coloring_of("121212121", 2), 3) == (1, 2)
        assert find_ap(coloring_of("112211221", 2), 3) == (1, 4)
        assert find_ap(coloring_of("11221122", 2), 3) is None

    def test_absolute_positions(self):
        col = FiniteColoring(2, Interval(10, 12), (1, 1, 1))
        assert find_ap(col, 3) == (10, 1)

    def test_agrees_with_naive_and_with_verify(self):
        rng = random.Random(5)
        for _ in range(400):
            n = rng.randint(1, 14)
            k = rng.randint(2, 4)
            colors = tuple(rng.randint(1, 3) for _ in range(n))
            col = FiniteColoring(3, Interval(1, n), colors)
            hit = find_ap(col, k)
            assert hit == least_mono_ap(colors, k)
            assert (hit is None) == verify_ap_free(col, k)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        n=st.integers(1, 300),
        k=st.integers(2, 5),
        palette=st.floats(0, 1),
        distinct_but_one=st.booleans(),
        seed=st.integers(0, 2**32),
    )
    def test_least_ap_agrees_with_naive(self, n, k, palette, distinct_but_one, seed):
        # palettes from 1 to n colours; all-distinct-but-one sequences look
        # like the block patterns of random stages, where the only repeat
        # may lie anywhere
        rng = random.Random(seed)
        if distinct_but_one:
            colors = rng.sample(range(1, 10 * n + 1), n)
            if n > 1:
                i, j = sorted(rng.sample(range(n), 2))
                colors[j] = colors[i]
        else:
            colors = [rng.randint(1, 1 + int(palette * (n - 1))) for _ in range(n)]
        naive = least_mono_ap(colors, k)
        want = None if naive is None else (naive[0] - 1, naive[1])
        assert _least_ap(tuple(colors), n, k) == want
        assert _least_ap(colors, n, k) == want


class TestCertificates:
    def test_every_certificate_is_extremal_and_least(self):
        # certificate of W(3,2) is the lexicographically least among all
        # AP-free colorings of [1,8], canonical or not
        best = min(cl for cl in all_colorings(8, 2) if not has_mono_ap(cl, 3))
        assert vdw_number(3, 2).certificate.colors == best


def _naive_rows(ks, n):
    """rows[s] = (mask of the other positions, top) of every cube inside
    [1, n] whose second-highest position is s, by expansion of every
    difference vector and anchor."""
    uniform = len(set(ks)) == 1
    rows = [set() for _ in range(n + 1)]
    for ds in product(range(1, n), repeat=len(ks)):
        if uniform and list(ds) != sorted(ds):
            continue
        reach = max(expand_cube(0, ds, ks))
        for a in range(1, n - reach + 1):
            pts = expand_cube(a, ds, ks)
            top = max(pts)
            rows[max(pts - {top})].add((sum(1 << q for q in pts - {top}), top))
    return rows


@pytest.mark.parametrize("ks", [(2,), (3,), (4,), (2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 2, 3)])
def test_search_rows_match_cube_expansion(ks):
    # the forward list of every position, each built from the one before it
    # as the search does, at the whole limit and at two lower ones; the cubes
    # anchored at 1 reach at most hS/(S - 1) with h = s - 1 when S >= 2
    n = 24
    naive = _naive_rows(ks, n)
    span = sum(ks) - len(ks)
    for limit in (n, 12, 5):
        entries = []
        for s in range(1, n + 1):
            if span > 1:
                tails = _cube_tails(ks, s - 1, limit)
                assert all((q - 1) * (span - 1) <= (s - 1) * span for _, q in tails)
            entries = _forward(entries, ks, s, limit)
            assert len(entries) == len(set(entries))
            assert set(entries) == {(t, q) for t, q in naive[s] if q <= limit}


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    s=st.one_of(st.sampled_from([6, 7, 8, 14, 15, 16, 40]), st.integers(1, 40)),
    n=st.integers(0, 80),
    seed=st.integers(0, 2**32),
)
def test_packed_zero_test_equals_the_scan(s, n, seed):
    # lanes covered by m, lanes missing only bit 0, which m never holds (one
    # short of covered: a carry out of a covered lane below would flag
    # them), and random lanes; lane i has top i
    rng = random.Random(seed)
    m = rng.getrandbits(s + 1) & ~1
    masks = []
    for _ in range(n):
        kind = rng.randrange(3)
        t = rng.getrandbits(s + 1)
        masks.append(m & t if kind == 0 else m & t | 1 if kind == 1 else t)
    want = sum(1 << i for i, t in enumerate(masks) if t & ~m == 0)
    assert _fire(_pack([(t, i) for i, t in enumerate(masks)], s), m, 0) == want


def test_packed_zero_test_finds_every_lane():
    m = 0b1110
    entries = [(0b0110, 5), (0b0111, 6), (0b1000, 7)]
    assert _fire(_pack(entries, 3), m, 1) == 1 | 1 << 5 | 1 << 7
    assert _fire(_pack([], 3), m, 0) == 0
    # forward lists of positions 1..40, whose lanes widen at s = 7, 15, 23, 31
    for ks in [(2,), (3,), (2, 2), (2, 3), (2, 2, 2)]:
        entries = []
        for s in range(1, 41):
            entries = _forward(entries, ks, s, 60)
            lanes = _pack(entries, s)
            assert _fire(lanes, 0, 0) == 0
            for t, q in entries:
                assert _fire(lanes, t, 0) >> q & 1


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    k=st.integers(2, 6),
    s=st.one_of(st.sampled_from([1, 63, 64, 65, 128, 129, 140]), st.integers(1, 140)),
    past=st.integers(0, 150),
    near_double=st.booleans(),
    density=st.floats(0, 1),
    seed=st.integers(0, 2**32),
)
def test_stride_fire_equals_the_packed_fire(k, s, past, near_double, density, seed):
    # colour 1 placed at s after a random colouring of [1, s - 1]: the plan
    # of s over colour 1's stride row, read as _avoid reads it, fires what
    # _fire fires over the forward list of s built as _avoid builds it; the
    # row is filled position by position and widened as _avoid widens it,
    # so s past 64 and 128 crosses the horizon. Limits at and just below
    # 2s - 1, the highest top a 3-AP placed at s can have, test the cut.
    rng = random.Random(seed)
    limit = max(s, 2 * s - 1 - past % 4) if near_double else s + past
    colors = [1 if rng.random() < density else 2 for _ in range(s)]
    rows = [[0] * ((k - 1) * (k - 2) // 2) for _ in range(3)]
    horizon = wnumbers._HORIZON
    for q in range(1, s + 1):
        if q > horizon:
            horizon = _widen(rows, k, horizon)
        cut, steps = _plan(k, q, horizon, limit)
        if q < s:
            for slot, shift in steps:
                rows[colors[q - 1]][slot] |= 1 << shift - 1
    f = rng.getrandbits(limit + 1) & ~((2 << s) - 1)
    tops = cut
    for slot, shift in steps:
        tops &= rows[1][slot] >> shift
    entries = []
    for q in range(1, s + 1):
        entries = _forward(entries, (k,), q, limit)
    m = sum(1 << q for q in range(1, s) if colors[q - 1] == 1) | 1 << s
    assert f | tops << s + 1 == _fire(_pack(entries, s), m, f)


def test_progressions_fire_without_lanes(monkeypatch):
    def lanes(*args):
        raise AssertionError("a progression search built or fired a forward list")

    for name in ("_cube_tails", "_forward", "_pack", "_fire"):
        monkeypatch.setattr(wnumbers, name, lanes)
    assert _avoid((3,), 3, 128)[:2] == (False, 26)
    assert _avoid((2,), 3, 10)[:2] == (False, 3)
    assert _avoid((5,), 2, 40)[:2] == (True, 40)


@pytest.mark.parametrize("k, c, limit", [(3, 1000, 300), (4, 50, 400)])
def test_greedy_prefix_across_horizon_growth(k, c, limit):
    # while fewer than c colours are in use the prune is off and a new
    # colour is never blocked, so the search never backtracks: it colours
    # greedily to the limit, doubling the horizon past 64, 128 and 256
    prefix = greedy_avoiding(k, limit)
    assert max(prefix) < c
    assert _avoid((k,), c, limit) == (True, limit, prefix)


def test_progression_memory_grows_with_the_depth_only():
    # a palette of 10**6 and 3,000 positions, coloured greedily to the
    # limit: the forward lists of (3,) would hold about s lanes of s bits
    # at each position s, about a gigabyte in all, where the stride rows
    # and plans stay within a few megabytes
    tracemalloc.start()
    try:
        reached, best_len, _ = _avoid((3,), 10**6, 3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (reached, best_len) == (True, 3000)
    assert peak < 8_000_000


@pytest.mark.parametrize(
    "ks, c, limit",
    [
        ((2,), 1, 3), ((2,), 3, 6), ((2,), 4, 4), ((3,), 1, 5), ((3,), 2, 8), ((3,), 2, 20),
        ((3,), 3, 24), ((4,), 2, 34), ((4,), 2, 40), ((5,), 2, 16), ((2, 2), 2, 10),
        ((2, 2), 3, 14), ((2, 2), 3, 16), ((2, 3), 2, 18), ((2, 3), 2, 24), ((3, 2), 2, 16),
        ((2, 2, 2), 2, 16), ((2, 2, 3), 2, 10), ((3, 3), 2, 10),
    ],
)
def test_search_equals_the_reference_search(ks, c, limit):
    # the whole triple, refusals (reached = True) included: neither the
    # forward masks nor the prune move a value or a certificate
    assert _avoid(ks, c, limit) == longest_avoiding(ks, c, limit)


@pytest.mark.parametrize("horizon", [1, 3])
def test_search_is_independent_of_the_first_horizon(monkeypatch, horizon):
    # a first horizon of 1 or 3 doubles many times below 40 positions, so
    # these searches backtrack across each doubling and read plans rebuilt
    # for every position before it
    monkeypatch.setattr(wnumbers, "_HORIZON", horizon)
    for ks, c, limit in [((2,), 3, 6), ((3,), 2, 20), ((3,), 3, 24), ((4,), 2, 40), ((5,), 2, 16)]:
        assert _avoid(ks, c, limit) == longest_avoiding(ks, c, limit)


def test_long_rows_keep_the_search_path():
    # the cube_number((2,2,2), 3, 48) refusal: the whole triple, colouring
    # included, of a path whose forward lists take several lane widths
    want = tuple(map(int, "111211212221122313313332212133211332232311332231"))
    assert _avoid((2, 2, 2), 3, 48) == (True, 48, want)


@pytest.mark.parametrize(
    "ks, c, limit, answer, fires",
    [
        ((2, 2), 3, 64, (False, 14), 1619),
        ((2, 3), 2, 64, (False, 20), 1466),
        ((2, 2, 2), 2, 21, (False, 20), 1448),
        ((2, 2, 2), 3, 48, (True, 48), 6127),
    ],
)
def test_cube_searches_fire_a_pinned_number_of_times(monkeypatch, ks, c, limit, answer, fires):
    # one _fire per candidate that passes the bit test; a prune window one
    # position short, a candidate bound past the next new colour or a count
    # of colours in use that never falls gives the same answers and fires more
    fire, calls = _fire, 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return fire(*args)

    monkeypatch.setattr(wnumbers, "_fire", counting)
    assert _avoid(ks, c, limit)[:2] == answer
    assert calls == fires


@pytest.mark.parametrize(
    "k, c, answer, reads",
    [(3, 2, (False, 8), 74), (4, 2, (False, 34), 11968), (3, 3, (False, 26), 69883)],
)
def test_progression_searches_read_a_pinned_number_of_plans(monkeypatch, k, c, answer, reads):
    # each fire, placement and backtrack walks the steps of a plan once, so
    # reads = fires + 2 * placements (30 + 2*22, 4870 + 2*3549, 30483 +
    # 2*19700); a prune window one position short, a candidate bound past
    # the next new colour or a count of colours in use that never falls
    # gives the same answers and reads more
    plan, calls = _plan, 0

    class Steps(tuple):
        def __iter__(self):
            nonlocal calls
            calls += 1
            return super().__iter__()

    def counting(*args):
        cut, steps = plan(*args)
        return cut, Steps(steps)

    monkeypatch.setattr(wnumbers, "_plan", counting)
    assert _avoid((k,), c, 128)[:2] == answer
    assert calls == reads


def test_colour_tables_grow_with_the_position(monkeypatch):
    # a palette and a limit of 10**6 size nothing up front: the first 60
    # placements that fire stay far below one table of 10**6 entries (8 MB)
    class Stop(Exception):
        pass

    fire, calls = _fire, 0

    def fire_then_stop(*args):
        nonlocal calls
        calls += 1
        if calls > 60:
            raise Stop
        return fire(*args)

    monkeypatch.setattr(wnumbers, "_fire", fire_then_stop)
    tracemalloc.start()
    try:
        with pytest.raises(Stop):
            _avoid((2, 2), 10**6, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
