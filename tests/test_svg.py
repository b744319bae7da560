import math
from xml.sax.saxutils import escape as saxutils_escape

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqpol.svg import escape, line_chart


@given(st.text(alphabet=st.sampled_from("&<>;amp") | st.characters()))
def test_escape_is_the_stdlib_default_escape(text):
    assert escape(text) == saxutils_escape(text)


@pytest.mark.parametrize("log_y", [False, True])
def test_a_chart_leaves_out_non_finite_points_and_spans_the_finite_ones(tmp_path, log_y):
    inf, nan = float("inf"), float("nan")
    given_series = [
        ("a", [1, 2, 3, 4, 5, inf], [1.0, 10.0, inf, nan, 1e5, 2.0]),
        ("b", [1, 2, nan], [-inf, 3.0, 4.0]),
    ]
    finite_series = [("a", [1, 2, 5], [1.0, 10.0, 1e5]), ("b", [2], [3.0])]
    drawn, expected = tmp_path / "drawn.svg", tmp_path / "expected.svg"
    line_chart(given_series, str(drawn), title="t", log_y=log_y)
    line_chart(finite_series, str(expected), title="t", log_y=log_y)
    assert drawn.read_bytes() == expected.read_bytes()
    text = drawn.read_text()
    assert "nan" not in text and "inf" not in text
