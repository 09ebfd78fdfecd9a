import random
import time
from itertools import islice, product

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
from vdwitness.wnumbers import _avoid, _cube_rows, _least_ap
from bruteforce import all_colorings, expand_cube, has_mono_ap, least_mono_ap


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
        # like interned random stages, where the only repeat may lie anywhere
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
    """rows[p] = masks of the other positions of every cube ending at p <= n,
    by expansion of every difference vector and anchor."""
    uniform = len(set(ks)) == 1
    rows = [set() for _ in range(n + 1)]
    for ds in product(range(1, n), repeat=len(ks)):
        if uniform and list(ds) != sorted(ds):
            continue
        reach = max(expand_cube(0, ds, ks))
        for a in range(1, n - reach + 1):
            pts = expand_cube(a, ds, ks)
            top = max(pts)
            rows[top].add(sum(1 << q for q in pts - {top}))
    return rows


@pytest.mark.parametrize("ks", [(2,), (3,), (4,), (2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 2, 3)])
def test_search_rows_match_cube_expansion(ks):
    naive = _naive_rows(ks, 24)
    for p, row in enumerate(islice(_cube_rows(ks), 24), start=1):
        assert len(row) == len(set(row))
        assert set(row) == naive[p]
