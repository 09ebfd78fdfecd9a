import random
import time
from itertools import islice, product

import pytest

from vdwitness import (
    DomainError,
    FiniteColoring,
    Interval,
    SearchLimitError,
    find_ap,
    vdw_number,
    verify_ap_free,
)
from vdwitness.wnumbers import _avoid, _cube_rows
from bruteforce import all_colorings, expand_cube, has_mono_ap, least_mono_ap


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
