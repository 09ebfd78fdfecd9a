import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdwitness import (
    DomainError,
    Interval,
    TowerUncomputableError,
    block,
    build_tower_interval,
    check_translation_identity,
    tower_params,
    translate,
)
from vdwitness import tower
from vdwitness.tower import tower_report


class TestParams:
    def test_k2_c2_two_stages(self):
        p = tower_params(2, 2, 2)
        assert p.W == (3, 9)
        assert p.C == (8,)
        assert p.sizes == (3, 27)

    def test_single_color_deep(self):
        p = tower_params(2, 1, 5)
        assert p.W == (2, 2, 2, 2, 2)
        assert p.C == (1, 1, 1, 1)
        assert p.sizes == (2, 4, 8, 16, 32)

    def test_uncomputable_stage(self):
        with pytest.raises(TowerUncomputableError) as exc:
            tower_params(3, 2, 2)
        assert exc.value.stage == 2

    def test_palette_bit_budget(self):
        p = tower_params(2, 2, 3)
        assert p.W[2] == 2**27 + 1
        with pytest.raises(TowerUncomputableError) as exc:
            tower_params(2, 2, 4)
        assert exc.value.stage == 4

    def test_palette_bit_budget_boundary(self, monkeypatch):
        # stage 3 needs c^27 = 2^27, exactly 27 bits
        monkeypatch.setattr(tower, "MAX_PALETTE_BITS", 27)
        assert tower_params(2, 2, 3).sizes == (3, 27, 3623878683)
        monkeypatch.setattr(tower, "MAX_PALETTE_BITS", 26)
        with pytest.raises(TowerUncomputableError) as exc:
            tower_params(2, 2, 3)
        assert str(exc.value) == "tower uncomputable at stage 3: palette bound c^27 exceeds 26 bits"

    def test_size_law_twenty_stages(self):
        p = tower_params(2, 1, 20)
        assert p.sizes == tuple(2**m for m in range(1, 21))

    def test_nonuniform(self):
        p = tower_params((2, 2), 2, 2)
        assert p.W == tower_params(2, 2, 2).W
        with pytest.raises(TowerUncomputableError) as exc:
            tower_params((2, 3), 2, 2)
        assert exc.value.stage == 2
        with pytest.raises(DomainError):
            tower_params((3, 2), 2, 2)

    def test_validation(self):
        with pytest.raises(DomainError):
            tower_params(2, 2, 0)
        with pytest.raises(DomainError):
            tower_params(1, 2, 1)
        with pytest.raises(DomainError):
            tower_params((), 2, 0)
        with pytest.raises(DomainError):
            tower_params((2, 2, 2), 2, 2)

    def test_accessors(self):
        p = tower_params(2, 2, 2)
        assert p.w(2) == 9
        assert p.size(2) == 27
        with pytest.raises(DomainError):
            p.w(3)


class TestGeometry:
    def test_stage_one_is_base(self):
        p = tower_params(2, 2, 2)
        assert build_tower_interval(Interval(1, 3), 1, p) == Interval(1, 3)

    def test_stage_two(self):
        p = tower_params(2, 2, 2)
        assert build_tower_interval(Interval(1, 3), 2, p) == Interval(1, 27)
        assert build_tower_interval(Interval(6, 8), 2, p) == Interval(6, 32)

    def test_wrong_base_size(self):
        p = tower_params(2, 2, 2)
        with pytest.raises(DomainError):
            build_tower_interval(Interval(1, 4), 2, p)

    def test_blocks(self):
        p = tower_params(2, 2, 2)
        assert block(Interval(1, 3), 1, p, 0) == Interval(1, 3)
        assert block(Interval(1, 3), 1, p, 4) == Interval(13, 15)
        assert block(Interval(1, 3), 1, p, 8) == Interval(25, 27)
        with pytest.raises(DomainError):
            block(Interval(1, 3), 1, p, 9)
        with pytest.raises(DomainError):
            block(Interval(1, 3), 1, p, -1)

    def test_blocks_partition_next_stage(self):
        p = tower_params(2, 2, 2)
        parent = build_tower_interval(Interval(1, 3), 2, p)
        blocks = [block(Interval(1, 3), 1, p, i) for i in range(p.w(2))]
        assert blocks[0].lo == parent.lo
        assert blocks[-1].hi == parent.hi
        for left, right in zip(blocks, blocks[1:]):
            assert right.lo == left.hi + 1
        assert sum(b.size() for b in blocks) == parent.size()

    def test_block_zero_is_nesting(self):
        p = tower_params(2, 1, 8)
        for n in range(1, 8):
            assert block(Interval(1, 2), n, p, 0) == build_tower_interval(
                Interval(1, 2), n, p
            )


class TestTranslationIdentity:
    def test_examples(self):
        p = tower_params(2, 2, 2)
        assert check_translation_identity(Interval(1, 3), 2, p, 5)
        assert check_translation_identity(Interval(1, 3), 1, p, 0)
        p10 = tower_params(2, 1, 10)
        assert check_translation_identity(Interval(1, 2), 10, p10, 100)
        both = translate(build_tower_interval(Interval(1, 2), 10, p10), 100)
        assert both == Interval(101, 1124)

    @settings(max_examples=300, derandomize=True)
    @given(lo=st.integers(1, 10**6), n=st.integers(1, 16), b=st.integers(0, 10**6))
    def test_property_single_color(self, lo, n, b):
        p = tower_params(2, 1, 16)
        assert check_translation_identity(Interval(lo, lo + 1), n, p, b)

    @settings(max_examples=100, derandomize=True)
    @given(lo=st.integers(1, 1000), n=st.integers(1, 3), b=st.integers(0, 1000))
    def test_property_two_colors(self, lo, n, b):
        p = tower_params(2, 2, 3)
        assert check_translation_identity(Interval(lo, lo + 2), n, p, b)


class TestReport:
    def test_big_values_as_strings(self):
        p = tower_params(2, 2, 3)
        report = tower_report(p)
        assert report["k"] == 2 and report["c"] == 2 and report["n"] == 3
        assert report["W"] == ["3", "9", str(2**27 + 1)]
        assert report["C"] == ["8", str(2**27)]
        assert report["sizes"] == ["3", "27", str(27 * (2**27 + 1))]

    def test_nonuniform_lists_ks(self):
        p = tower_params((2, 2), 1, 2)
        assert "k" in tower_report(p)
        p = tower_params((2, 3), 1, 2)
        assert tower_report(p)["ks"] == [2, 3]
