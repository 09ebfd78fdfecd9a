import pytest

from vdwitness import (
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
)
from vdwitness.formats import (
    certificate_string,
    coloring_to_text,
    parse_color_list,
    parse_coloring_text,
    parse_oracle_spec,
    read_coloring,
    witness_from_dict,
    witness_to_dict,
    write_coloring,
)


class TestColorLists:
    def test_digit_string(self):
        assert parse_color_list("122") == (1, 2, 2)

    def test_separated(self):
        assert parse_color_list("1,2,12") == (1, 2, 12)
        assert parse_color_list("1 2 12") == (1, 2, 12)

    def test_errors(self):
        with pytest.raises(DomainError):
            parse_color_list("")
        with pytest.raises(DomainError):
            parse_color_list("1,x")
        with pytest.raises(DomainError):
            parse_color_list("0,1")


class TestColoringFiles:
    def test_parse(self):
        col = parse_coloring_text("c=2 lo=1 hi=8\n1 1 2 2 1 1 2 2\n")
        assert col.c == 2
        assert col.domain == Interval(1, 8)
        assert col.colors == (1, 1, 2, 2, 1, 1, 2, 2)

    def test_commas_multiline_comments(self):
        col = parse_coloring_text("# extremal\nc=2 lo=5 hi=10\n1,2,1\n2 1 2\n")
        assert col.domain == Interval(5, 10)
        assert col.colors == (1, 2, 1, 2, 1, 2)

    def test_roundtrip(self, tmp_path):
        col = FiniteColoring(3, Interval(2, 7), (1, 2, 3, 3, 2, 1))
        path = tmp_path / "col.txt"
        write_coloring(col, str(path))
        assert read_coloring(str(path)) == col

    def test_errors(self):
        with pytest.raises(DomainError):
            parse_coloring_text("")
        with pytest.raises(DomainError):
            parse_coloring_text("c=2 lo=1\n1 2\n")
        with pytest.raises(DomainError):
            parse_coloring_text("c=2 lo=1 hi=3\n1 2\n")
        with pytest.raises(DomainError):
            parse_coloring_text("c=2 lo=1 hi=2\n1 3\n")
        with pytest.raises(DomainError):
            parse_coloring_text("c=x lo=1 hi=2\n1 2\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("c=2 lo=1 hi\n1 2\n", "bad header field 'hi'"),
            ("c=2 lo=1 hi=2\n1 x\n", "coloring body must contain integers"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(DomainError) as info:
            parse_coloring_text(text)
        assert str(info.value) == message

    def test_text_shape(self):
        col = FiniteColoring(2, Interval(1, 3), (1, 2, 1))
        assert coloring_to_text(col) == "c=2 lo=1 hi=3\n1 2 1\n"


class TestWitnessJson:
    def test_roundtrip(self):
        w = CubeWitness(2, 5, (1, 3), (2, 2))
        data = witness_to_dict(w)
        assert data == {
            "gamma": 2,
            "a": 5,
            "ds": [1, 3],
            "ks": [2, 2],
            "positions": [5, 6, 8, 9],
        }
        assert witness_from_dict(data) == w

    def test_positions_cross_checked(self):
        data = witness_to_dict(CubeWitness(1, 1, (2,), (2,)))
        data["positions"] = [1, 2]
        with pytest.raises(DomainError):
            witness_from_dict(data)

    def test_positions_optional(self):
        assert witness_from_dict({"gamma": 1, "a": 1, "ds": [2], "ks": [2]}) == CubeWitness(
            1, 1, (2,), (2,)
        )

    def test_missing_fields(self):
        with pytest.raises(DomainError):
            witness_from_dict({"gamma": 1, "a": 1, "ds": [2]})


class TestCertificateString:
    def test_small_palette(self):
        col = FiniteColoring(2, Interval(1, 4), (1, 1, 2, 2))
        assert certificate_string(col) == "1122"

    def test_large_palette(self):
        col = FiniteColoring(12, Interval(1, 3), (1, 11, 12))
        assert certificate_string(col) == "1,11,12"


class TestOracleSpecs:
    def test_each_kind(self, tmp_path):
        assert parse_oracle_spec("constant:2") == ConstantOracle(2)
        assert parse_oracle_spec("periodic:122") == PeriodicOracle((1, 2, 2))
        assert parse_oracle_spec("evperiodic:11/12") == EventuallyPeriodicOracle(
            (1, 1), (1, 2)
        )
        assert parse_oracle_spec("evperiodic:/12") == EventuallyPeriodicOracle((), (1, 2))
        assert parse_oracle_spec("thue-morse") == ThueMorseOracle()
        assert parse_oracle_spec("random:7", 3) == SeededRandomOracle(7, 3)
        path = tmp_path / "col.txt"
        path.write_text("c=2 lo=1 hi=3\n1 2 1\n")
        oracle = parse_oracle_spec(f"file:{path}")
        assert isinstance(oracle, PrefixOracle)
        assert oracle.color_at(2) == 2
        assert oracle.color_at(100) == 1
        oracle = parse_oracle_spec(f"file:{path}:2")
        assert oracle.color_at(100) == 2

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("constant:x", "bad constant color 'x'"),
            ("random:x", "bad seed 'x'"),
            ("file:PATH:x", "bad default color 'x'"),
        ],
    )
    def test_integer_messages(self, tmp_path, spec, message):
        path = tmp_path / "col.txt"
        path.write_text("c=2 lo=1 hi=3\n1 2 1\n")
        with pytest.raises(DomainError) as info:
            parse_oracle_spec(spec.replace("PATH", str(path)), 2)
        assert str(info.value) == message

    def test_palette_override(self):
        assert parse_oracle_spec("periodic:12", 5).c == 5
        assert parse_oracle_spec("constant:1", 3).c == 3

    def test_errors(self):
        with pytest.raises(DomainError):
            parse_oracle_spec("random:7")
        with pytest.raises(DomainError):
            parse_oracle_spec("thue-morse", 3)
        with pytest.raises(DomainError):
            parse_oracle_spec("nonsense")
        with pytest.raises(DomainError):
            parse_oracle_spec("mystery:1")
        with pytest.raises(DomainError):
            parse_oracle_spec("periodic:12", 1)
        with pytest.raises(DomainError):
            parse_oracle_spec("evperiodic:12")
        with pytest.raises(DomainError):
            parse_oracle_spec("constant:0")
        with pytest.raises(DomainError):
            parse_oracle_spec("constant:3", 2)
        with pytest.raises(DomainError):
            parse_oracle_spec("periodic:0")
        with pytest.raises(DomainError):
            parse_oracle_spec("periodic:")
