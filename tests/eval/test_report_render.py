"""Rendering tests for the report formatter edge cases."""

from repro.eval.report import _cell, _is_numeric, format_table


class TestCellFormatting:
    def test_float_precision_scales(self):
        assert _cell(0.07) == "0.07"
        assert _cell(3.14159) == "3.1"
        assert _cell(1234.5) == "1234"
        assert _cell(0.0) == "0.0"

    def test_negative_floats_mirror_positives(self):
        # Drift deltas are often small and negative: a negative must
        # render exactly as its positive counterpart plus the sign.
        for value in (0.04, 0.07, 3.14159, 1234.5):
            assert _cell(-value) == "-" + _cell(value)

    def test_tiny_values_collapse_to_zero_without_sign(self):
        # Anything that would round to zero is plain "0.0" — never the
        # "-0.00" the old per-branch formatting produced.
        assert _cell(-0.004) == "0.0"
        assert _cell(0.004) == "0.0"
        assert _cell(-0.0) == "0.0"

    def test_none_renders_dash(self):
        assert _cell(None) == "-"

    def test_strings_pass_through(self):
        assert _cell("abc") == "abc"

    def test_numeric_detection(self):
        assert _is_numeric("3.4")
        assert _is_numeric("-7")
        assert not _is_numeric("x1")
        assert not _is_numeric("")



class TestFormatTable:
    def test_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text

    def test_numbers_right_aligned(self):
        text = format_table(["name", "value"], [("x", 1), ("long-name", 22)])
        lines = text.splitlines()
        assert lines[-1].endswith("22")
        assert lines[-2].rstrip().endswith("1")

    def test_title_optional(self):
        with_title = format_table(["a"], [(1,)], title="T")
        without = format_table(["a"], [(1,)])
        assert with_title.splitlines()[0] == "T"
        assert len(with_title.splitlines()) == len(without.splitlines()) + 1
