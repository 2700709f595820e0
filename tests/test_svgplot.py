"""Tests for the SVG point formatting of polylines and polygons."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mrspec.svgplot import _Frame

FINITE = st.floats(-1e6, 1e6, allow_nan=False)
ENTRY = st.one_of(FINITE, st.sampled_from([np.nan, np.inf, -np.inf]))


def reference_polyline(frame, x, y, color, width=1.2):
    """One point at a time: every finite y, x and y formatted on their own."""
    pts = " ".join("%.3f,%.3f" % (frame.px(a), frame.py(b))
                   for a, b in zip(x, y) if np.isfinite(b))
    return '<polyline fill="none" stroke="%s" stroke-width="%.1f" points="%s"/>' % (
        color, width, pts)


def reference_polygon(frame, x, lo, hi, color, opacity=0.25):
    """One point at a time: lo forwards, then hi backwards, non-finite ones kept."""
    pts = ["%.3f,%.3f" % (frame.px(a), frame.py(b)) for a, b in zip(x, lo)]
    pts += ["%.3f,%.3f" % (frame.px(a), frame.py(b)) for a, b in zip(x[::-1], hi[::-1])]
    return '<polygon fill="%s" fill-opacity="%.2f" stroke="none" points="%s"/>' % (
        color, opacity, " ".join(pts))


@st.composite
def curves(draw, count):
    """An x grid and ``count`` curves on it, each arbitrary or constant."""
    n = draw(st.integers(1, 40))
    x = draw(st.one_of(st.lists(FINITE, min_size=n, max_size=n), FINITE.map(lambda v: [v] * n)))
    ys = [draw(st.one_of(st.lists(ENTRY, min_size=n, max_size=n), ENTRY.map(lambda v: [v] * n)))
          for _ in range(count)]
    return np.asarray(x), [np.asarray(y) for y in ys]


class TestPointsMatchPerPointFormatting:
    @settings(max_examples=200, deadline=None)
    @given(data=curves(1), panel=st.booleans())
    def test_polyline(self, data, panel):
        x, (y,) = data
        frame = _Frame(x, [y], *((260, 200, 32.0) if panel else (640, 420)))
        assert frame.polyline(x, y, "#1f77b4") == reference_polyline(frame, x, y, "#1f77b4")
        assert (frame.polyline(x, y, "#d62728", width=1.6)
                == reference_polyline(frame, x, y, "#d62728", width=1.6))

    @settings(max_examples=200, deadline=None)
    @given(data=curves(3))
    def test_polygon(self, data):
        x, (mean, lo, hi) = data
        frame = _Frame(x, [mean, lo, hi], 640, 420)
        assert (frame.polygon(x, lo, hi, "#1f77b4", opacity=0.3)
                == reference_polygon(frame, x, lo, hi, "#1f77b4", opacity=0.3))

    def test_non_finite_points_dropped_from_polyline_only(self):
        x = np.array([0.0, 0.25, 0.5])
        y = np.array([1.0, np.nan, -np.inf])
        frame = _Frame(x, [y], 640, 420)
        assert 'points="45.000,210.000"' in frame.polyline(x, y, "#000")
        assert "nan" in frame.polygon(x, y, y, "#000") and "inf" in frame.polygon(x, y, y, "#000")
